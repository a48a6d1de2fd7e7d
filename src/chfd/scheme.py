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

and f, whose spectrum :func:`assemble_rhs` returns.  N is the gradient of a
strictly convex objective; :mod:`chfd.psd` holds N in Fourier form and
minimizes the objective by exact line searches, without evaluating it.

lap4 is diagonal in the discrete Fourier basis with symbol -Lambda
(:mod:`chfd.spectral`), and the stepper applies it only that way.  The
right-hand side is kept as its spectrum

    f^ = A dt^2 Lambda phi_k^ + 2 dt phi_k^ - dt phi_km1^ + dt S^ / Lambda,

built from the history fields' cached spectra (``Field.spectrum``), with
1/Lambda set to 0 at the zero mode.  The stencil operators of
:mod:`chfd.operators` build only the verification forcing
:func:`manufactured_source_stencil`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import psd as _psd
from .diagnostics import EnergyRecord, energy, modified_energy
from .grid import Field, GridSpec, _check_same_grid, field_from_fn, mean
from .operators import laplace_long
from .spectral import SpectralPlan, laplace_long_spectral, make_plan

__all__ = [
    "SchemeParams",
    "StepState",
    "Source",
    "StepDiagnostics",
    "NonFiniteStateError",
    "MassDriftError",
    "manufactured_solution",
    "manufactured_source",
    "manufactured_source_stencil",
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
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.A < 0:  # A dt + eps^2 < 0 can make the update objective nonconvex
            raise ValueError(f"A must be nonnegative, got {self.A}")
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


def manufactured_solution(L: float) -> Callable[[np.ndarray, np.ndarray, float], np.ndarray]:
    """Closed-form reference field (1/2pi) sin(ax) cos(ay) cos(t), a = 2 pi / L."""
    a = 2.0 * np.pi / L
    amp = 1.0 / (2.0 * np.pi)

    def phi_e(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        return amp * np.sin(a * x) * np.cos(a * y) * np.cos(t)

    return phi_e


def manufactured_source(eps: float, L: float) -> Source:
    """Forcing that makes ``manufactured_solution`` solve the forced equation.

    S = phi_t - lap(phi^3) + lap(phi) + eps^2 lap^2(phi), in closed form via
    lap(u^3) = 3 u^2 lap(u) + 6 u |grad u|^2 and lap(phi) = -2 a^2 phi.
    """
    a = 2.0 * np.pi / L
    amp = 1.0 / (2.0 * np.pi)

    def S(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        sx, cx = np.sin(a * x), np.cos(a * x)
        sy, cy = np.sin(a * y), np.cos(a * y)
        ct, st = np.cos(t), np.sin(t)
        phi = amp * sx * cy * ct
        grad_sq = (a * amp) ** 2 * ct**2 * (cx**2 * cy**2 + sx**2 * sy**2)
        lap_phi = -2.0 * a**2 * phi
        lap_phi3 = 3.0 * phi**2 * lap_phi + 6.0 * phi * grad_sq
        dphi_dt = -amp * sx * cy * st
        return dphi_dt - lap_phi3 + lap_phi + eps**2 * (4.0 * a**4 * phi)

    return S


def manufactured_source_stencil(eps: float, grid: GridSpec) -> Source:
    """Forcing built with the long-stencil Laplacian instead of the continuous one.

    S_h(t) = dphi_ref/dt - lap4[phi_ref^3 - phi_ref - eps^2 lap4 phi_ref],
    evaluated on ``grid``, where phi_ref is ``manufactured_solution(grid.L)``.
    With this forcing the sampled reference field solves the space-discretized
    equation exactly, so a refinement study driven by it isolates the time
    stepper.  That matters here: the reference state sits inside the
    anti-diffusive band of the linearization (modes with k^2 < 1/eps^2 grow
    like e^{(k^2 - eps^2 k^4) t}), and with the continuous closed-form source
    the h^4 stencil defect on the cubic term's third harmonics is amplified by
    roughly e^{T/(4 eps^2)}, burying the scheme's own accuracy.

    The returned source is bound to ``grid``; sampling it on another grid fails.
    """
    a = 2.0 * np.pi / grid.L
    amp = 1.0 / (2.0 * np.pi)
    xc = grid.cell_centers()
    envelope = amp * np.sin(a * xc)[:, None] * np.cos(a * xc)[None, :]

    def S(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        u = Field(grid, envelope * np.cos(t))
        uv = u.values
        mu = uv * uv * uv - uv - eps**2 * laplace_long(u).values
        return -np.sin(t) * envelope - laplace_long(Field(grid, mu)).values

    return S


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
    """Spectrum f^ (rfft layout) of the right-hand side of N[phi] = f.

    f = 2 dt phi_k - dt phi_km1 - A dt^2 lap4 phi_k, plus
    dt * (-lap4)^{-1} S(t_{k+1}) when a source is present (the whole update
    equation is mapped through the negative inverse Laplacian, so the source
    enters through it as well).  The history enters through its cached
    spectra; a source adds one transform.
    """
    _check_same_grid(plan, state.phi_curr)
    dt = params.dt
    f_hat = np.multiply(params.A * dt**2 * plan.Lambda_long + 2.0 * dt, state.phi_curr.spectrum)
    f_hat -= dt * state.phi_prev.spectrum
    if source is not None:
        f_hat += dt * plan.inv_Lambda * sample_source(source, plan.grid, state.t + dt).spectrum
    return f_hat


def step(
    state: StepState,
    params: SchemeParams,
    plan: SpectralPlan,
    source: Source | None = None,
) -> tuple[StepState, StepDiagnostics]:
    """Advance one time step; returns the new state and its diagnostics."""
    rhs = assemble_rhs(state, params, plan, source)
    # through the module attribute, so a wrapper patched onto chfd.psd.solve runs
    phi_new, stats = _psd.solve(state, params, rhs, plan)
    if not np.all(np.isfinite(phi_new.values)):
        raise NonFiniteStateError(f"non-finite field after step {state.step_index + 1}")
    new_mass = mean(phi_new)
    if abs(new_mass - state.beta0) > _MASS_DRIFT_TOL * (1.0 + abs(state.beta0)):
        raise MassDriftError(
            f"mass drifted to {new_mass!r} (beta0 = {state.beta0!r}) at step {state.step_index + 1}"
        )
    t_new = state.t + params.dt
    E = energy(phi_new, params.eps, plan)
    record = EnergyRecord(
        step=state.step_index + 1,
        t=t_new,
        mass=new_mass,
        E=E,
        E_mod=modified_energy(phi_new, state.phi_curr, params.dt, plan, E=E),
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
