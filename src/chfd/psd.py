"""Preconditioned conjugate directions for the implicit update.

The update N[phi] = f (see :mod:`chfd.scheme`) is the critical-point
equation of the strictly convex objective

    F[phi] = 1/3 |B|_{-1}^2 + dt/4 |phi|_4^4
             + dt/2 (A dt + eps^2) |grad4 phi|^2 - (f, phi),

with B = 3/2 phi - 2 phi_k + 1/2 phi_km1, on the mass hyperplane
mean(phi) = beta0.  :class:`UpdateOperator` holds N, F and the line-search
cubic in Fourier form; :func:`solve` is the only loop that drives it.

Each iteration projects the residual r onto the mean-zero subspace and
applies the inverse of the constant-coefficient part of the Hessian of F
(diagonal in Fourier space) to get z.  The search direction is the
Polak-Ribiere+ conjugate direction d = z + beta d_prev, with
beta = max(0, (r, z - z_prev) / (r_prev, z_prev)), restarted at d = z
whenever d is not a descent direction.  F is then minimized exactly along
d: the derivative of F along d is the cubic

    q(alpha) = c0 + c1 alpha + c2 alpha^2 + c3 alpha^3,

with c0 = -(r, d) < 0, c1 > 0 and c2^2 <= 3 c1 c3, so q is increasing and the
step size is its unique real root, in (0, -4 c0/c1].  Every step is a descent
step and F never increases.  The objective is evaluated once, at the initial
guess, and then advanced by the exact increment of each line search.

The paper's method (Feng, Salgado, Wang & Wise, J. Comput. Phys. 334, 2017)
is steepest descent, d = z, with the symbol 1/Lambda + dt + dt (eps^2 +
A dt) Lambda; the tests keep it as a reference.  Nonlinear conjugate
gradients: Hager & Zhang, "A survey of nonlinear conjugate gradient
methods", 2006.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Field, norm_l2
from .spectral import SpectralPlan, _inner, _irfft

if TYPE_CHECKING:  # pragma: no cover
    from .scheme import SchemeParams, StepState

__all__ = [
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


# Absolute floor of the stopping test, relative to 1 + |rhs|_2.  Keep it tight:
# the per-step residual left by the solver acts like a forcing on the time
# stepper, and for states inside the spinodal band the unstable modes amplify
# it by e^{sigma*T}, so a loose absolute tolerance puts a dt-independent floor
# under any convergence study long before the scheme's own accuracy limit.
_TOL_FLOOR = 1e-15
# The relative part of the stopping test and the iteration budget.  Fixed: the
# exact line search leaves the method nothing to tune.
TOL_REL = 1e-10
MAX_ITER = 200


@dataclass
class SolveStats:
    """Iteration count plus per-iterate residual norms and objective values."""

    iterations: int
    residuals: list[float]
    objectives: list[float]

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
        """Unique real root, by safeguarded Newton between 0 and -4 c0/c1.

        The update's cubic has c2^2 <= 3 c1 c3 (Cauchy-Schwarz on (phi d, d^2),
        with (d, S d) > 0 in c1), so q' >= 0 and the mean slope of q from 0 to
        alpha, c1 + c2 alpha + c3 alpha^2, is at least c1/4: that bounds the root.
        """
        c0, c1, c2, c3 = self.c0, self.c1, self.c2, self.c3
        if not (c1 > 0.0 and c2 * c2 <= 3.0 * c1 * c3):
            raise ValueError(f"cubic is not monotone (c1 = {c1}, c2 = {c2}, c3 = {c3})")
        tol = 1e-12 * abs(c0) + 1e-30
        lo, hi = sorted((0.0, -4.0 * c0 / c1))
        alpha = -c0 / c1
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
    """N, the objective, the search directions and the line-search cubic of one update.

    With Lambda the symbol of -lap4 (so 1/Lambda is the inverse Laplacian on
    mean-zero data) and H = 2 phi_k - 1/2 phi_km1,

        N[phi] = Lin + dt phi^3,   Lin^ = S phi^ - H^ / Lambda,
        S = 3/(2 Lambda) + dt (eps^2 + A dt) Lambda.

    Lin is affine in phi: moving phi by alpha d moves Lin by alpha S d, so a
    solve transforms phi and H once and then only each search direction.  The
    preconditioner is the constant-coefficient Hessian of the objective at
    phi_k, sigma = S + 3 dt mean(phi_k^2), built once per update.  S,
    1/Lambda and 1/sigma vanish at the zero mode, which keeps every iterate
    on the mass hyperplane of the initial guess.  :meth:`direction` keeps the spectra of
    the last z and d, so one operator serves one solve.  Methods take and
    return plain arrays on ``plan.grid``.
    """

    def __init__(self, plan: SpectralPlan, params: SchemeParams, state: StepState):
        grid = plan.grid
        self.plan = plan
        self.state = state
        self.dt = params.dt
        self.visc = params.dt * (params.A * params.dt + params.eps**2)
        self.hd = grid.h**2
        self.S = 1.5 * plan.inv_Lambda + self.visc * plan.Lambda_long
        phi_k = state.phi_curr.values
        sigma = self.S + 3.0 * self.dt * float(np.vdot(phi_k, phi_k)) / phi_k.size
        sigma[0, 0] = np.inf  # 1/sigma = 0 at the zero mode
        self.inv_sigma = 1.0 / sigma
        # conjugate-direction memory: [d^, S d^] of the last direction, z^ of
        # the last residual and (r, z) of the last residual (0 before the first)
        self._spec = np.zeros((2,) + sigma.shape, dtype=complex)
        self._z_hat = np.empty(sigma.shape, dtype=complex)
        self._rz = 0.0

    def start(self, phi: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float]:
        """Lin at phi (one transform pair) and the objective F[phi]."""
        plan, hd = self.plan, self.hd
        hist = 2.0 * self.state.phi_curr.values - 0.5 * self.state.phi_prev.values
        phi_hat, hist_hat = np.fft.rfft2(np.stack((phi, hist)))
        # F first: at 512^2 a step then takes about a third fewer minor page
        # faults than with lin first (glibc malloc reusing freed blocks, numpy 2.4)
        b_hat = 1.5 * phi_hat - hist_hat
        phi2 = phi * phi  # integer-power ufuncs are ~60x slower here
        F = (
            _inner(plan, b_hat, plan.inv_Lambda * b_hat) / 3.0
            + 0.25 * self.dt * hd * float(np.sum(phi2 * phi2))
            + 0.5 * self.visc * _inner(plan, phi_hat, plan.Lambda_long * phi_hat)
            - hd * float(np.sum(f * phi))
        )
        lin = _irfft(plan, self.S * phi_hat - plan.inv_Lambda * hist_hat)
        return lin, F

    def N(self, lin: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """N[phi] from its linear part; returns a new array."""
        out = phi * phi
        out *= phi
        out *= self.dt
        out += lin
        return out

    def direction(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Next search direction d and S d for the mean-zero residual r.

        The first call of a solve gives z = r / sigma; later calls give the
        PR+ direction z + beta d_prev, or z again where (r, d) <= 0.  The inner
        products come from the spectra in hand, so a call costs one rfft2 of
        r and one batched irfft2 of [d^, S d^].
        """
        plan, spec, z_hat, rz_prev = self.plan, self._spec, self._z_hat, self._rz
        r_hat = np.fft.rfft2(r)
        r_zprev = _inner(plan, r_hat, z_hat) if rz_prev else 0.0
        np.multiply(r_hat, self.inv_sigma, out=z_hat)
        rz = _inner(plan, r_hat, z_hat)
        beta = max(0.0, (rz - r_zprev) / rz_prev) if rz_prev else 0.0
        if beta > 0.0 and rz + beta * _inner(plan, r_hat, spec[0]) <= 0.0:
            beta = 0.0  # restart: c0 = -(r, d) would not be negative
        del r_hat  # before the inverse transform allocates its output
        self._rz = rz
        spec[0] *= beta
        spec[0] += z_hat
        np.multiply(spec[0], self.S, out=spec[1])
        d, sd = _irfft(plan, spec)
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
    state: StepState,
    params: SchemeParams,
    rhs: Field,
    plan: SpectralPlan,
) -> tuple[Field, SolveStats]:
    """Minimize the update objective on the mass hyperplane.

    Starts from the extrapolation 2 phi_k - phi_km1 and stops when
    |P0(f - N[phi])|_2 <= 1e-15 (1 + |f|_2) + TOL_REL |P0 f|_2, within
    MAX_ITER iterations.  Raises :class:`SolverError` (carrying the residual
    history) on non-convergence.
    """
    grid = state.phi_curr.grid
    if rhs.grid != grid:
        raise ValueError("rhs grid does not match state grid")
    op = UpdateOperator(plan, params, state)
    hd = op.hd

    phi = 2.0 * state.phi_curr.values - state.phi_prev.values

    fvals = rhs.values
    f0 = fvals - fvals.mean()
    tol = _TOL_FLOOR * (1.0 + norm_l2(rhs)) + TOL_REL * float(np.sqrt(hd * np.sum(f0 * f0)))

    lin, F = op.start(phi, fvals)
    residuals: list[float] = []
    objectives: list[float] = []

    for it in range(MAX_ITER + 1):
        n = op.N(lin, phi)
        r = np.subtract(fvals, n, out=n)
        r -= r.mean()
        rnorm = float(np.sqrt(hd * np.vdot(r, r)))
        residuals.append(rnorm)
        objectives.append(F)
        if rnorm <= tol:
            return Field(grid, phi), SolveStats(it, residuals, objectives)
        if it == MAX_ITER:
            break
        d, sd = op.direction(r)
        cubic = op.cubic(phi, r, d, sd)
        alpha = cubic.root()
        F += cubic.integral(alpha)
        d *= alpha
        phi += d
        sd *= alpha
        lin += sd

    tail = ", ".join(f"{v:.3e}" for v in residuals[-4:])
    raise SolverError(
        f"step {state.step_index + 1} (t={state.t:.6g}, dt={params.dt:.6g}): "
        f"no convergence in {MAX_ITER} iterations; last residuals [{tail}], "
        f"tolerance {tol:.3e}",
        residuals,
    )
