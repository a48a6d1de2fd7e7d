"""Two-step implicit time discretization of the H^{-1} phase-field flow.

The PDE is  phi_t = lap(phi^3 - phi - eps^2 lap phi)  on a periodic square,
optionally with a mean-free source S on the right-hand side.  One update
solves, for the new field phi with the same mean beta0 as the history,

    (3/2 phi - 2 phi_k + 1/2 phi_km1) / dt
        = lap4[ phi^3 - 2 phi_k + phi_km1 - eps^2 lap4 phi
                - A dt lap4 (phi - phi_k) ] + S,

where lap4 is the fourth-order long-stencil Laplacian, the linear "-phi" term
is extrapolated from the history, and the A-term is a stabilizing correction
that makes a modified energy non-increasing for A >= 1/16.

Applying the negative inverse Laplacian turns the update into the
critical-point problem  N[phi] = f  on the mass hyperplane, with

    N[phi] = (-lap4)^{-1}(3/2 phi - 2 phi_k + 1/2 phi_km1)
             + dt phi^3 - dt (A dt + eps^2) lap4 phi

and a right-hand side f of the history and S, whose spectrum is written out
and formed in :mod:`chfd.psd`.  N is the gradient of a strictly convex
objective; :mod:`chfd.psd` holds N in Fourier form and minimizes the
objective by exact line searches, without evaluating it.  lap4 has the
symbol -Lambda (:mod:`chfd.spectral`), and the stepper applies it only that
way.  The stepper samples the forcing S, a callback the caller supplies
(``Source``), and checks the solve's result; the forced reference problem
and its forcings live in :mod:`chfd.verification`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import psd as _psd
from .diagnostics import EnergyRecord, energy, modified_energy
from .grid import Field, GridSpec, _check_same_grid, field_from_fn, mean
from .spectral import SpectralPlan, laplace_long_spectral, make_plan

__all__ = [
    "SchemeParams",
    "StepState",
    "Source",
    "StepDiagnostics",
    "NonFiniteStateError",
    "MassDriftError",
    "sample_source",
    "ghost_init",
    "restart_flat",
    "assemble_rhs",
    "step",
]

# mean-conservation guardrail (relative to 1 + |beta0|)
_MASS_DRIFT_TOL = 1e-11


class NonFiniteStateError(RuntimeError):
    """A step produced NaN or Inf values, or an initial field's energy overflows."""


class MassDriftError(RuntimeError):
    """The conserved mean drifted beyond the accepted roundoff budget."""


@dataclass(frozen=True)
class SchemeParams:
    """Physical and stepping parameters: interface width eps, stabilization A, step dt."""

    eps: float
    dt: float
    A: float = 1.0 / 16.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        # A dt + eps^2 < 0 can make the update objective nonconvex
        if not (math.isfinite(self.A) and self.A >= 0):
            raise ValueError(f"A must be nonnegative and finite, got {self.A}")
        if self.A < 1.0 / 16.0:
            warnings.warn(
                f"A = {self.A} < 1/16: the modified-energy dissipation guarantee does not apply",
                UserWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class StepState:
    """Two-field history (phi at the current and previous step) plus bookkeeping."""

    phi_prev: Field
    phi_curr: Field
    t: float
    beta0: float
    step_index: int = 0


Source = Callable[[np.ndarray, np.ndarray, float], np.ndarray]
"""Forcing term S(x, y, t); must have zero spatial mean for every t."""


@dataclass(frozen=True)
class StepDiagnostics:
    record: EnergyRecord
    solve: _psd.SolveStats


def sample_source(source: Source, grid: GridSpec, t: float) -> Field:
    """Sample S at the cell centers and project out the (roundoff-level) mean.

    Raises if the sampled mean is not already negligible: the scheme only
    conserves mass for mean-free forcing.
    """
    svals = field_from_fn(grid, lambda x, y: source(x, y, t)).values
    sbar = float(np.mean(svals))
    if abs(sbar) > 1e-10 * (1.0 + float(np.max(np.abs(svals)))):
        raise ValueError(f"source mean {sbar:.3e} at t={t} is not numerically zero")
    return Field(grid, svals - sbar)


def ghost_init(phi0: Field, params: SchemeParams, source: Source | None = None) -> StepState:
    """Build the starting two-field history from a single initial field.

    The fictitious previous field is one explicit Euler step backward,
    phi^{-1} = phi^0 - dt (lap4 mu^0 + S^0) with mu^0 = phi^3 - phi - eps^2 lap4 phi,
    which keeps the overall accuracy at second order in dt on smooth data; on
    grid-scale noise it blows up, so ``chfd run`` starts from ``restart_flat``.
    """
    plan = make_plan(phi0.grid)
    p0 = phi0.values
    mu0 = p0 * p0 * p0 - p0 - params.eps**2 * laplace_long_spectral(plan, phi0).values
    rate = laplace_long_spectral(plan, Field(phi0.grid, mu0)).values
    if source is not None:
        rate = rate + sample_source(source, phi0.grid, 0.0).values
    phi_m1 = Field(phi0.grid, phi0.values - params.dt * rate)
    return StepState(phi_prev=phi_m1, phi_curr=phi0, t=0.0, beta0=mean(phi0), step_index=0)


def restart_flat(phi0: Field, t: float = 0.0) -> StepState:
    """History with phi_prev = phi_curr = phi0: how every ``chfd run`` starts.

    The modified energy then starts at E(phi0), for any data; the first
    update moves phi about 2/3 of a BDF2 step, an O(dt) error made once.

    Both entries are phi0 itself, as ``step`` shares fields between
    consecutive states: the stepper never writes into a field.
    """
    return StepState(phi_prev=phi0, phi_curr=phi0, t=t, beta0=mean(phi0))


def assemble_rhs(
    state: StepState,
    params: SchemeParams,
    plan: SpectralPlan,
    source: Source | None = None,
) -> np.ndarray:
    """Spectrum f^ (rfft layout) of the right-hand side of N[phi] = f, a new array.

    What :func:`chfd.psd.solve` forms (:meth:`chfd.psd.UpdateOperator.rhs`),
    with the source sampled at t_k + dt, from an operator of its own, so the
    plan's workspace is untouched.
    """
    _check_same_grid(plan, state.phi_curr)
    forcing = None if source is None else sample_source(source, plan.grid, state.t + params.dt)
    return _psd.UpdateOperator(plan, params).rhs(state, forcing).copy()


def step(
    state: StepState,
    params: SchemeParams,
    plan: SpectralPlan,
    source: Source | None = None,
) -> tuple[StepState, StepDiagnostics]:
    """Advance one time step; returns the new state and its diagnostics.

    Past the plan's first solve, the only arrays an unforced step allocates are
    the new field and its spectrum: the solve forms f^ in the plan's solver
    workspace (:func:`chfd.psd.workspace`), and the diagnostics borrow its
    ``scratch`` and ``finite`` buffers.
    """
    forcing = None if source is None else sample_source(source, plan.grid, state.t + params.dt)
    # through the module attribute, so a wrapper patched onto chfd.psd.solve runs
    phi_new, stats = _psd.solve(state, params, plan, forcing)
    ws = _psd.workspace(plan, params)
    if not np.isfinite(phi_new.values, out=ws.finite).all():
        raise NonFiniteStateError(f"non-finite field after step {state.step_index + 1}")
    new_mass = mean(phi_new)
    if abs(new_mass - state.beta0) > _MASS_DRIFT_TOL * (1.0 + abs(state.beta0)):
        raise MassDriftError(
            f"mass drifted to {new_mass!r} (beta0 = {state.beta0!r}) at step {state.step_index + 1}"
        )
    t_new = state.t + params.dt
    E = energy(phi_new, params.eps, plan, work=ws.scratch)
    record = EnergyRecord(
        step=state.step_index + 1,
        t=t_new,
        mass=new_mass,
        E=E,
        E_mod=modified_energy(phi_new, state.phi_curr, params.dt, plan, E=E, work=ws.scratch),
        psd_iters=stats.iterations,
        residual=stats.residuals[-1],
    )
    new_state = StepState(
        phi_prev=state.phi_curr,
        phi_curr=phi_new,
        t=t_new,
        beta0=state.beta0,
        step_index=state.step_index + 1,
    )
    return new_state, StepDiagnostics(record=record, solve=stats)
