"""Preconditioned conjugate directions for the implicit update.

The update N[phi] = f (see :mod:`chfd.scheme`) is the critical-point
equation of the strictly convex objective

    F[phi] = 1/3 |B|_{-1}^2 + dt/4 |phi|_4^4
             + dt/2 (A dt + eps^2) |grad4 phi|^2 - (f, phi),

with B = 3/2 phi - 2 phi_k + 1/2 phi_km1, on the mass hyperplane
mean(phi) = beta0.  :class:`UpdateOperator` holds the residual and the
line-search cubic in Fourier form; :func:`solve` is the only loop that drives it.

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
step and F never increases.  F itself is never evaluated: the solve records
its change from the initial guess, the sum of the exact line-search decreases.

The paper's method (Feng, Salgado, Wang & Wise, J. Comput. Phys. 334, 2017)
is steepest descent, d = z, with the symbol 1/Lambda + dt + dt (eps^2 +
A dt) Lambda; the tests keep it as a reference.  Nonlinear conjugate
gradients: Hager & Zhang, "A survey of nonlinear conjugate gradient
methods", 2006.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Field, _check_same_grid
from .spectral import SpectralPlan, _inner

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
    """Iteration count, and per iterate the residual norm and F - F(guess), 0.0 first."""

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
    """Residual, search directions and line-search cubic of one update.

    With Lambda the symbol of -lap4 (so 1/Lambda is the inverse Laplacian on
    mean-zero data) and H = 2 phi_k - 1/2 phi_km1,

        N[phi] = Lin + dt phi^3,   Lin^ = S phi^ - H^ / Lambda,
        S = 3/(2 Lambda) + dt (eps^2 + A dt) Lambda.

    The residual r = P0(f - N[phi]) is kept as its spectrum P0(f^ - Lin^ -
    dt rfft2(phi^3)).  Lin is affine in phi: :meth:`start` sets f^ - Lin^ and
    :meth:`move` shifts it by -alpha S d^, so an iteration takes two transforms,
    rfft2 of phi^3 and the inverse of d for the line search's pointwise sums.
    The preconditioner is the Hessian symbol sigma = S + 3 dt mean(phi_k^2).
    S, 1/Lambda and 1/sigma vanish at the zero mode, which keeps every iterate
    on the mass hyperplane.  One operator serves one solve: it keeps the last z
    and d, and returns its work buffers, which the next call overwrites.
    """

    def __init__(self, plan: SpectralPlan, params: SchemeParams, state: StepState):
        grid = plan.grid
        self.plan = plan
        self.state = state
        self.dt = params.dt
        visc = params.dt * (params.A * params.dt + params.eps**2)
        self.hd = grid.h**2
        self.S = 1.5 * plan.inv_Lambda + visc * plan.Lambda_long
        phi_k = state.phi_curr.values
        sigma = self.S + 3.0 * self.dt * float(np.vdot(phi_k, phi_k)) / phi_k.size
        sigma[0, 0] = np.inf  # 1/sigma = 0 at the zero mode
        self.inv_sigma = 1.0 / sigma
        # spectra: f^ - Lin^ at the iterate, r^, and z^ and d^ of the last
        # direction (d^ = 0 before the first); (r, z), (r, d) and (d, S d) of it
        self._lin_hat, self._r_hat, self._z_hat, self._d_hat = np.zeros((4, *sigma.shape), complex)
        self._rz = self._rd = self._dsd = 0.0
        self._d, self._work = np.empty((2,) + grid.shape)  # d, and room for phi^3 or phi d^2

    def start(self, phi: np.ndarray, f_hat: np.ndarray) -> None:
        """Set f^ - Lin^ (the residual's linear part) at phi.

        phi^ and H^ use the idle d^ and z^ buffers: fresh ones raise a 512^2 run's peak memory.
        """
        phi_hat = np.fft.rfft2(phi, out=self._d_hat)
        hist_hat = np.multiply(self.state.phi_prev.spectrum, -0.25, out=self._z_hat)
        hist_hat += self.state.phi_curr.spectrum
        hist_hat *= 2.0  # H^ = 2 (phi_k^ - phi_km1^ / 4) = 2 phi_k^ - phi_km1^ / 2
        lin_hat = np.multiply(phi_hat, self.S, out=self._lin_hat)
        np.subtract(f_hat, lin_hat, out=lin_hat)
        hist_hat *= self.plan.inv_Lambda
        lin_hat += hist_hat
        self._d_hat.fill(0.0)

    def residual(self, phi: np.ndarray) -> np.ndarray:
        """The spectrum r^ of r = P0(f - N[phi]), for phi at the iterate of f^ - Lin^."""
        cube = np.multiply(phi, phi, out=self._work)
        cube *= phi
        cube *= self.dt
        r_hat = np.fft.rfft2(cube, out=self._r_hat)
        np.subtract(self._lin_hat, r_hat, out=r_hat)
        r_hat[0, 0] = 0.0
        return r_hat

    def direction(self, r_hat: np.ndarray) -> np.ndarray:
        """Next search direction d for the residual spectrum r^.

        The first call of a solve gives z = r / sigma; later calls give the PR+
        direction z + beta d_prev, or z again where (r, d) <= 0.  Keeps d^,
        (r, d) and (d, S d) for :meth:`cubic`.
        """
        plan, z_hat, d_hat, rz_prev = self.plan, self._z_hat, self._d_hat, self._rz
        r_zprev = _inner(plan, r_hat, z_hat) if rz_prev else 0.0
        np.multiply(r_hat, self.inv_sigma, out=z_hat)
        rz = _inner(plan, r_hat, z_hat)
        beta = max(0.0, (rz - r_zprev) / rz_prev) if rz_prev else 0.0
        rd = rz + beta * _inner(plan, r_hat, d_hat) if beta > 0.0 else rz
        if rd <= 0.0:
            beta, rd = 0.0, rz  # restart: c0 = -(r, d) would not be negative
        d_hat *= beta
        d_hat += z_hat
        # r^ is spent: its buffer holds S d^, then the column pass of irfft2,
        # done in two passes because np.fft.irfft2 ignores its out= argument
        sd_hat = np.multiply(d_hat, self.S, out=self._r_hat)
        self._rz, self._rd, self._dsd = rz, rd, _inner(plan, d_hat, sd_hat)
        np.fft.ifft(d_hat, axis=0, out=self._r_hat)
        return np.fft.irfft(self._r_hat, n=plan.grid.m, axis=1, out=self._d)

    def cubic(self, phi: np.ndarray) -> LineSearchCubic:
        """q(alpha) = (N[phi + alpha d] - f, d) along the last direction d from phi."""
        hd, dt, d = self.hd, self.dt, self._d
        w = np.multiply(d, d, out=self._work)
        c3 = dt * hd * float(np.vdot(w, w))
        w *= phi  # phi d^2
        return LineSearchCubic(
            c0=-self._rd,
            c1=self._dsd + 3.0 * dt * hd * float(np.vdot(w, phi)),
            c2=3.0 * dt * hd * float(np.vdot(w, d)),
            c3=c3,
        )

    def move(self, phi: np.ndarray, alpha: float) -> None:
        """phi += alpha d in place, and f^ - Lin^ with it."""
        sd_hat = np.multiply(self._d_hat, self.S, out=self._r_hat)
        sd_hat *= alpha
        self._lin_hat -= sd_hat
        self._d *= alpha
        phi += self._d


def solve(
    state: StepState,
    params: SchemeParams,
    rhs: np.ndarray,
    plan: SpectralPlan,
) -> tuple[Field, SolveStats]:
    """Minimize the update objective on the mass hyperplane.

    ``rhs`` is the spectrum f^ from :func:`chfd.scheme.assemble_rhs`.  Starts
    from the extrapolation 2 phi_k - phi_km1 and stops when
    |P0(f - N[phi])|_2 <= 1e-15 (1 + |f|_2) + TOL_REL |P0 f|_2, within
    MAX_ITER iterations.  Raises :class:`SolverError` (carrying the residual
    history) on non-convergence or at a residual that is not finite.  The state
    must be on the plan's grid; f^ carries no grid and is checked by shape only.
    """
    _check_same_grid(plan, state.phi_curr)
    if rhs.shape != plan.Lambda_long.shape:
        raise ValueError(f"rhs spectrum shape {rhs.shape} does not match the plan's grid")
    grid = state.phi_curr.grid
    op = UpdateOperator(plan, params, state)
    phi = 2.0 * state.phi_curr.values - state.phi_prev.values
    f_sq = _inner(plan, rhs, rhs)
    f0_sq = f_sq - grid.h**2 / grid.m**2 * abs(rhs[0, 0]) ** 2  # without the zero mode
    tol = _TOL_FLOOR * (1.0 + math.sqrt(f_sq)) + TOL_REL * math.sqrt(max(f0_sq, 0.0))

    op.start(phi, rhs)
    residuals: list[float] = []
    objectives = [0.0]  # F - F(guess) at each iterate

    for it in range(MAX_ITER + 1):
        r_hat = op.residual(phi)
        rnorm = float(np.sqrt(_inner(plan, r_hat, r_hat)))
        residuals.append(rnorm)
        if rnorm <= tol:
            return Field(grid, phi), SolveStats(it, residuals, objectives)
        if it == MAX_ITER or not math.isfinite(rnorm):
            break
        op.direction(r_hat)
        cubic = op.cubic(phi)
        alpha = cubic.root()
        objectives.append(objectives[-1] + cubic.integral(alpha))
        op.move(phi, alpha)

    failure = (f"residual not finite at iteration {it}" if not math.isfinite(rnorm)
               else f"no convergence in {MAX_ITER} iterations")
    tail = ", ".join(f"{v:.3e}" for v in residuals[-4:])
    raise SolverError(
        f"step {state.step_index + 1} (t={state.t:.6g}, dt={params.dt:.6g}): "
        f"{failure}; last residuals [{tail}], tolerance {tol:.3e}",
        residuals,
    )
