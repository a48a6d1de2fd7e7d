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

Each unforced solve stops as tightly as its step's time error needs, which in
a coarsening run lies many orders above a 1e-10 residual.  An unforced step
whose state holds phi_km2 forms eta = dt |delta|_2 / |phi_k - beta0|_2 at its
start, with delta = phi_k - (2 phi_km1 - phi_km2) the defect of the
second-order extrapolation that the update applies to its concave term (the
solve itself starts from a fourth-order one, :func:`chfd.psd.solve`), and
solves at the relative tolerance max(TOL_REL, KAPPA eta), the forcing-term
rule of inexact Newton methods (Eisenstat & Walker, SIAM J. Sci. Comput. 17,
1996).  A history holds one dt; a step at another restarts it flat, and a flat
history's first two steps, without phi_km2, solve at ``chfd.psd.TOL_REL``.  So
does a forced step, which measures the scheme's own error and forms no eta, and
no energies either: the energy law below covers only the unforced scheme.
The energy bound assumes an exact solve: a loosened step that raises the
modified energy by more than 1e-10 of it is solved again at TOL_REL (the
energy guard).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import psd as _psd
from .diagnostics import EnergyRecord, energy, modified_energy
from .grid import Field, GridSpec, _check_same_grid, field_from_fn, mean
from .spectral import SpectralPlan, _inner, laplace_long_spectral, make_plan

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
# largest rise of the modified energy, relative to it, that a step solved at a
# loosened tolerance may make before it is solved again at TOL_REL: acceptance
# criterion 5's margin
_EMOD_RISE_TOL = 1e-10
# Safety factor between a step's estimated time error and its relative
# tolerance, max(TOL_REL, KAPPA eta); fixed.  It moves the desk run's E(t) by
# at most 8.2e-4 relative over t <= 100, below the dt-halving change of E(5).
KAPPA = 0.1


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
    """History (phi at the current and previous step, and at the two before) plus bookkeeping.

    ``dt`` is the step the history was made with and ``E_mod`` the last
    step's modified energy, which the energy guard of :func:`step` compares
    with; both are None for a history that starts flat, and :func:`step` sets
    them (E_mod stays None after a forced step, which forms no energies).
    ``phi_prev2``, phi two steps back, gives the time-error estimate eta of an
    unforced step and the third level of the solve's guess
    (:func:`chfd.psd.solve`); it is None until a step follows a history that
    was not flat.  ``phi_prev3``, phi three steps back, is the guess's fourth
    level; it is None until the history at one dt holds four levels, which a
    flat one does after three steps.
    """

    phi_prev: Field
    phi_curr: Field
    t: float
    beta0: float
    step_index: int = 0
    dt: float | None = None
    E_mod: float | None = None
    phi_prev2: Field | None = None
    phi_prev3: Field | None = None


Source = Callable[[np.ndarray, np.ndarray, float], np.ndarray]
"""Forcing term S(x, y, t); must have zero spatial mean for every t."""


@dataclass(frozen=True)
class StepDiagnostics:
    """What :func:`step` reports: the step's log row and its solve's statistics.

    The record of a forced step holds no energies (E and E_mod are None).
    """

    record: EnergyRecord
    solve: _psd.SolveStats


def sample_source(source: Source, grid: GridSpec, t: float) -> Field:
    """Sample S at the cell centers and project out the (roundoff-level) mean.

    Raises if the sampled mean is not already negligible: the scheme only
    conserves mass for mean-free forcing.
    """
    svals = field_from_fn(grid, lambda x, y: source(x, y, t)).values
    sbar = float(svals.mean())
    if abs(sbar) > 1e-10 * (1.0 + float(np.abs(svals).max())):
        raise ValueError(f"source mean {sbar:.3e} at t={t} is not numerically zero")
    svals -= sbar
    return Field(grid, svals)


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
    return StepState(phi_prev=phi_m1, phi_curr=phi0, t=0.0, beta0=mean(phi0), dt=params.dt)


def restart_flat(phi0: Field, t: float = 0.0) -> StepState:
    """History with phi_prev = phi_curr = phi0: how every ``chfd run`` starts.

    The modified energy then starts at E(phi0), for any data; the first
    update moves phi about 2/3 of a BDF2 step, an O(dt) error made once.

    Both entries are phi0 itself, as ``step`` shares fields between
    consecutive states: the stepper never writes into a field.  ``step``
    knows a flat history by that identity and keeps no third level from it,
    so the first two updates form no time-error estimate and solve at
    ``chfd.psd.TOL_REL``, the second starts from 2 phi_1 - phi_0, the third
    from three levels and the fourth from four.  It holds no dt: a step at
    any dt continues it.
    """
    return StepState(phi_prev=phi0, phi_curr=phi0, t=t, beta0=mean(phi0))


def assemble_rhs(
    state: StepState,
    params: SchemeParams,
    plan: SpectralPlan,
    source: Source | None = None,
) -> np.ndarray:
    """Spectrum f^ (rfft layout) of the right-hand side of N[phi] = f, a new array.

    A copy of the f^ that :meth:`chfd.psd.UpdateOperator.start` forms for
    :func:`chfd.psd.solve`, with the source sampled at t_k + dt; f^ does not
    depend on the guess, here phi_k.  The operator is one of its own, so the
    plan's workspace is untouched.
    """
    _check_same_grid(plan, state.phi_curr)
    forcing = None if source is None else sample_source(source, plan.grid, state.t + params.dt)
    op = _psd.UpdateOperator(plan)
    return op.start(state, params, state.phi_curr.spectrum, forcing).copy()


def _time_error(state: StepState, dt: float, work: np.ndarray) -> float:
    """eta = dt |phi_k - 2 phi_km1 + phi_km2|_2 / |phi_k - beta0|_2, with the
    defect of the update's second-order extrapolation (not of the solve's guess)
    formed in ``work`` and the spread read from phi_k's spectrum without its
    zero mode."""
    w = np.multiply(state.phi_prev.values, -2.0, out=work)
    w += state.phi_prev2.values
    w += state.phi_curr.values
    spec, grid = state.phi_curr.spectrum, state.phi_curr.grid
    defect_sq = grid.h**2 * float(np.vdot(w, w))
    spread_sq = _inner(grid, spec, spec) - grid.h**2 / grid.m**2 * abs(spec[0, 0]) ** 2
    return dt * math.sqrt(defect_sq / spread_sq) if spread_sq > 0.0 else 0.0


def step(
    state: StepState,
    params: SchemeParams,
    plan: SpectralPlan,
    source: Source | None = None,
) -> tuple[StepState, StepDiagnostics]:
    """Advance one time step; returns the new state and its diagnostics.

    A history made at another dt first restarts flat.  The solve stops at the
    module's tolerance (TOL_REL and eta from the state's three levels); the
    energy guard compares the new field's modified energy with ``state.E_mod``
    (``SolveStats.resolves``).  A forced step (``source`` given) forms no
    energies, as the energy law covers only the unforced scheme: its record's
    E and E_mod and its state's E_mod are None, while the mass-drift and
    finiteness checks still run, and the new field's spectrum is first formed
    by the next solve.  Past the plan's first solve, the only arrays such a
    step allocates are the new field and its spectrum: the solve forms f^ in
    the plan's solver workspace (:func:`chfd.psd.workspace`), and eta and the
    diagnostics borrow its ``scratch``.
    """
    if state.dt is not None and state.dt != params.dt:
        # the old dt's E_mod is never read: the guard acts only on a step with eta,
        # which needs the phi_prev2 that a restarted history's first two steps lack
        state = replace(state, phi_prev=state.phi_curr, phi_prev2=None, phi_prev3=None)
    forcing = None if source is None else sample_source(source, plan.grid, state.t + params.dt)
    work = _psd.workspace(plan).scratch
    eta = (None if forcing is not None or state.phi_prev2 is None
           else _time_error(state, params.dt, work[0]))
    rel_tol = _psd.TOL_REL if eta is None else max(_psd.TOL_REL, KAPPA * eta)

    def solved(rel_tol: float) -> tuple[Field, _psd.SolveStats, float, float | None, float | None]:
        """The update solved to ``rel_tol``, checked: field, stats, mass, E and E_mod
        (both None on a forced step)."""
        # through the module attribute, so a wrapper patched onto chfd.psd.solve runs
        phi, stats = _psd.solve(state, params, plan, forcing, rel_tol=rel_tol)
        new_mass = mean(phi)
        # a sum is finite only when every value is; a solve whose field sums past the
        # float range would have overflowed its residual, the cube of that field, first
        if not math.isfinite(new_mass):
            raise NonFiniteStateError(f"non-finite field after step {state.step_index + 1}")
        if abs(new_mass - state.beta0) > _MASS_DRIFT_TOL * (1.0 + abs(state.beta0)):
            raise MassDriftError(
                f"mass drifted to {new_mass!r} (beta0 = {state.beta0!r}) "
                f"at step {state.step_index + 1}"
            )
        if forcing is not None:
            # the energy law covers the unforced scheme only
            return phi, stats, new_mass, None, None
        E = energy(phi, params.eps, plan, work=work)
        E_mod = modified_energy(phi, state.phi_curr, params.dt, plan, E=E, work=work)
        return phi, stats, new_mass, E, E_mod

    phi_new, stats, new_mass, E, E_mod = solved(rel_tol)
    # only an unforced step loosens: the energy law holds without a forcing only
    if (rel_tol > _psd.TOL_REL and state.E_mod is not None
            and E_mod - state.E_mod > _EMOD_RISE_TOL * abs(state.E_mod)):
        loosened = stats.iterations
        phi_new, stats, new_mass, E, E_mod = solved(_psd.TOL_REL)
        stats.iterations += loosened
        stats.resolves = 1
    t_new = state.t + params.dt
    record = EnergyRecord(
        step=state.step_index + 1,
        t=t_new,
        mass=new_mass,
        E=E,
        E_mod=E_mod,
        psd_iters=stats.iterations,
        residual=stats.residuals[-1],
    )
    new_state = StepState(
        phi_prev=state.phi_curr,
        phi_curr=phi_new,
        t=t_new,
        beta0=state.beta0,
        step_index=state.step_index + 1,
        dt=params.dt,
        E_mod=E_mod,
        phi_prev2=None if state.phi_prev is state.phi_curr else state.phi_prev,
        phi_prev3=state.phi_prev2,
    )
    return new_state, StepDiagnostics(record=record, solve=stats)
