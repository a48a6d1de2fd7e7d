"""Preconditioned steepest descent for the implicit update.

The update N[phi] = f (see :mod:`chfd.scheme`) is the critical-point
equation of the strictly convex objective

    F[phi] = 1/3 |B|_{-1}^2 + dt/4 |phi|_4^4
             + dt/2 (A dt + eps^2) |grad4 phi|^2 - (f, phi),

with B = 3/2 phi - 2 phi_k + 1/2 phi_km1, on the mass hyperplane
mean(phi) = beta0.  :class:`UpdateOperator` holds N, F and the line-search
cubic in Fourier form; :func:`solve` is the only loop that drives it.

Each iteration projects the residual onto the mean-zero subspace, applies the
inverse of a constant-coefficient preconditioner (diagonal in Fourier space)
to get a search direction d, and then minimizes F exactly along d: the
derivative of F along d is the cubic

    q(alpha) = c0 + c1 alpha + c2 alpha^2 + c3 alpha^3,

with c1 > 0 and c3 >= 0, and q is strictly increasing, so the step size is
the unique real root.  The objective is evaluated once, at the initial guess,
and then advanced by the exact increment of each line search.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scheme as _scheme
from .grid import Field, norm_l2
from .spectral import SpectralPlan, _inv_sigma, _irfft, _quad, _rfft

__all__ = [
    "PsdConfig",
    "SolveStats",
    "SolverError",
    "LineSearchCubic",
    "UpdateOperator",
    "solve",
]


class SolverError(RuntimeError):
    """Raised when the iteration does not reach the residual tolerance."""

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class PsdConfig:
    tol_rel: float = 1e-10
    # Absolute floor for the stopping test.  None picks a near-machine floor,
    # 1e-15 * (1 + |rhs|_2).  Keep this tight: the per-step residual left by
    # the solver acts like a forcing on the time stepper, and for states
    # inside the spinodal band the unstable modes amplify it by e^{sigma*T},
    # so a loose absolute tolerance puts a dt-independent floor under any
    # convergence study long before the scheme's own accuracy limit.
    tol_abs: float | None = None
    max_iter: int = 200
    init_guess: str = "extrapolated"  # or "previous"

    def __post_init__(self) -> None:
        if self.init_guess not in ("extrapolated", "previous"):
            raise ValueError(f"unknown init_guess {self.init_guess!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveStats:
    """Iteration count plus per-iterate residual norms and objective values."""

    iterations: int
    residuals: list[float]
    alphas: list[float] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)

    @property
    def residual_ratios(self) -> list[float]:
        return [b / a for a, b in zip(self.residuals, self.residuals[1:]) if a > 0.0]


@dataclass(frozen=True)
class LineSearchCubic:
    """Derivative of the objective along a fixed search direction."""

    c0: float
    c1: float
    c2: float
    c3: float

    def __call__(self, alpha: float) -> float:
        return self.c0 + alpha * (self.c1 + alpha * (self.c2 + alpha * self.c3))

    def derivative(self, alpha: float) -> float:
        return self.c1 + alpha * (2.0 * self.c2 + 3.0 * alpha * self.c3)

    def integral(self, alpha: float) -> float:
        """Change of the objective from 0 to alpha: the integral of q."""
        return alpha * (
            self.c0 + alpha * (self.c1 / 2.0 + alpha * (self.c2 / 3.0 + alpha * self.c3 / 4.0))
        )

    def root(self) -> float:
        """Unique real root, via safeguarded Newton in an expanding bracket."""
        c0, c1 = self.c0, self.c1
        if c1 <= 0.0:
            raise ValueError(f"cubic is not increasing at the origin (c1 = {c1})")
        if self.c2 == 0.0 and self.c3 == 0.0:
            return -c0 / c1
        if c0 == 0.0:
            return 0.0
        tol = 1e-12 * abs(c0) + 1e-30
        # bracket the sign change starting from the Newton guess at 0
        guess = abs(c0 / c1)
        if c0 < 0.0:
            lo, hi = 0.0, max(guess, 1e-300)
            for _ in range(200):
                if self(hi) >= 0.0:
                    break
                lo, hi = hi, 2.0 * hi
            else:  # pragma: no cover - c3 > 0 guarantees a sign change
                raise ValueError("line-search bracketing failed")
        else:
            lo, hi = -max(guess, 1e-300), 0.0
            for _ in range(200):
                if self(lo) <= 0.0:
                    break
                lo, hi = 2.0 * lo, lo
            else:  # pragma: no cover
                raise ValueError("line-search bracketing failed")
        alpha = min(max(-c0 / c1, lo), hi)
        for _ in range(200):
            q = self(alpha)
            if abs(q) <= tol:
                return alpha
            if q > 0.0:
                hi = alpha
            else:
                lo = alpha
            dq = self.derivative(alpha)
            nxt = alpha - q / dq if dq > 0.0 else 0.5 * (lo + hi)
            if not (lo < nxt < hi):
                nxt = 0.5 * (lo + hi)
            if nxt == alpha:
                break
            alpha = nxt
        return alpha


class UpdateOperator:
    """N, the objective and the line-search cubic of one update, in Fourier form.

    With Lambda the symbol of -lap4 (so 1/Lambda is the inverse Laplacian on
    mean-zero data) and H = 2 phi_k - 1/2 phi_km1,

        N[phi] = Lin + dt phi^3,   Lin^ = S phi^ - H^ / Lambda,
        S = 3/(2 Lambda) + dt (eps^2 + A dt) Lambda.

    Lin is affine in phi: moving phi by alpha d moves Lin by alpha S d, so a
    solve transforms phi and H once and then only each search direction.  The
    preconditioner is sigma = 1/Lambda + dt + dt (eps^2 + A dt) Lambda.  All
    three symbols vanish at the zero mode, which keeps every iterate on the
    mass hyperplane of the initial guess.  Methods take and return plain
    arrays on ``plan.grid``.
    """

    def __init__(self, plan: SpectralPlan, params: _scheme.SchemeParams):
        grid = plan.grid
        self.plan = plan
        self.dt = params.dt
        self.visc = params.dt * (params.A * params.dt + params.eps**2)
        self.hd = grid.h**grid.dim
        self.S = 1.5 * plan.inv_Lambda + self.visc * plan.Lambda_long
        self.inv_sigma = _inv_sigma(plan, params.dt, params.eps, params.A)

    def start(
        self, state: _scheme.StepState, phi: np.ndarray, f: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Lin at phi (one transform pair) and the objective F[phi]."""
        plan, hd = self.plan, self.hd
        hist = 2.0 * state.phi_curr.values - 0.5 * state.phi_prev.values
        phi_hat, hist_hat = _rfft(plan, np.stack((phi, hist)))
        lin = _irfft(plan, self.S * phi_hat - plan.inv_Lambda * hist_hat)
        phi2 = phi * phi  # integer-power ufuncs are ~60x slower here
        F = (
            _quad(plan, 1.5 * phi_hat - hist_hat, plan.inv_Lambda) / 3.0
            + 0.25 * self.dt * hd * float(np.sum(phi2 * phi2))
            + 0.5 * self.visc * _quad(plan, phi_hat, plan.Lambda_long)
            - hd * float(np.sum(f * phi))
        )
        return lin, F

    def N(self, lin: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """N[phi] from its linear part; returns a new array."""
        out = phi * phi
        out *= phi
        out *= self.dt
        out += lin
        return out

    def direction(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Preconditioned mean-zero residual d and S d, from one transform pair."""
        r_hat = _rfft(self.plan, r)
        spec = np.empty((2,) + r_hat.shape, dtype=r_hat.dtype)
        np.multiply(r_hat, self.inv_sigma, out=spec[0])
        np.multiply(spec[0], self.S, out=spec[1])
        d, sd = _irfft(self.plan, spec)
        return d, sd

    def cubic(
        self, phi: np.ndarray, r: np.ndarray, d: np.ndarray, sd: np.ndarray
    ) -> LineSearchCubic:
        """q(alpha) = (N[phi + alpha d] - f, d) for mean-zero d and r = P0(f - N[phi])."""
        hd, dt = self.hd, self.dt
        pd = phi * d
        d2 = d * d
        return LineSearchCubic(
            c0=-hd * float(np.vdot(r, d)),
            c1=hd * float(np.vdot(d, sd)) + 3.0 * dt * hd * float(np.vdot(pd, pd)),
            c2=3.0 * dt * hd * float(np.vdot(pd, d2)),
            c3=dt * hd * float(np.vdot(d2, d2)),
        )


def solve(
    state: _scheme.StepState,
    params: _scheme.SchemeParams,
    rhs: Field,
    plan: SpectralPlan,
    cfg: PsdConfig | None = None,
) -> tuple[Field, SolveStats]:
    """Minimize the update objective on the mass hyperplane.

    Stops when |P0(f - N[phi])|_2 <= tol_abs + tol_rel * |P0 f|_2.  Raises
    :class:`SolverError` (carrying the residual history) on non-convergence.
    """
    if cfg is None:
        cfg = PsdConfig()
    grid = state.phi_curr.grid
    if rhs.grid != grid:
        raise ValueError("rhs grid does not match state grid")
    op = UpdateOperator(plan, params)
    hd = op.hd

    if cfg.init_guess == "extrapolated":
        phi = 2.0 * state.phi_curr.values - state.phi_prev.values
    else:
        phi = state.phi_curr.values.copy()

    fvals = rhs.values
    f0 = fvals - fvals.mean()
    tol_abs = cfg.tol_abs if cfg.tol_abs is not None else 1e-15 * (1.0 + norm_l2(rhs))
    tol = tol_abs + cfg.tol_rel * float(np.sqrt(hd * np.sum(f0 * f0)))

    lin, F = op.start(state, phi, fvals)
    residuals: list[float] = []
    alphas: list[float] = []
    objectives: list[float] = []

    for it in range(cfg.max_iter + 1):
        n = op.N(lin, phi)
        r = np.subtract(fvals, n, out=n)
        r -= r.mean()
        rnorm = float(np.sqrt(hd * np.vdot(r, r)))
        residuals.append(rnorm)
        objectives.append(F)
        if rnorm <= tol:
            return Field(grid, phi), SolveStats(it, residuals, alphas, objectives)
        if it == cfg.max_iter:
            break
        d, sd = op.direction(r)
        cubic = op.cubic(phi, r, d, sd)
        alpha = cubic.root()
        alphas.append(alpha)
        F += cubic.integral(alpha)
        d *= alpha
        phi += d
        sd *= alpha
        lin += sd

    tail = ", ".join(f"{v:.3e}" for v in residuals[-4:])
    raise SolverError(
        f"step {state.step_index + 1} (t={state.t:.6g}, dt={params.dt:.6g}): "
        f"no convergence in {cfg.max_iter} iterations; last residuals [{tail}], "
        f"tolerance {tol:.3e}",
        residuals,
    )
