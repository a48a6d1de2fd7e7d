"""Preconditioned conjugate directions for the implicit update.

The update N[phi] = f (see :mod:`chfd.scheme`) is the critical-point
equation of the strictly convex objective

    F[phi] = 1/3 |B|_{-1}^2 + dt/4 |phi|_4^4
             + dt/2 (A dt + eps^2) |grad4 phi|^2 - (f, phi),

with B = 3/2 phi - 2 phi_k + 1/2 phi_km1, on the mass hyperplane
mean(phi) = beta0.  With Lambda the symbol of -lap4 (1/Lambda set to 0 at
the zero mode) and g the source sampled at t_k + dt, f has the spectrum

    f^ = (A dt^2 Lambda + 2 dt) phi_k^ - dt phi_km1^ + dt g^ / Lambda,

formed from the history's cached spectra.  :class:`UpdateOperator` holds f^,
the residual and the line-search cubic in Fourier form, so every coefficient
of the update has one home; :func:`solve` is the only loop that drives it.

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

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Field, _check_same_grid, _irfft2, _rfft2
from .spectral import SpectralPlan, _inner

if TYPE_CHECKING:  # pragma: no cover
    from .scheme import SchemeParams, StepState

__all__ = [
    "SolveStats",
    "SolverError",
    "LineSearchCubic",
    "UpdateOperator",
    "workspace",
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
        """Unique real root, by safeguarded Newton between 0 and a bound on it.

        The update's cubic has c2^2 <= 3 c1 c3 (Cauchy-Schwarz on (phi d, d^2),
        with (d, S d) > 0 in c1), so q' >= 0 and the mean slope of q from 0 to
        alpha, c1 + c2 alpha + c3 alpha^2, is at least c1/4 and at least
        c3 alpha^2/4: the root lies within min(4|c0|/c1, cbrt(4|c0|/c3)) of 0,
        on the side of -c0.  Newton starts at -c0/c1, or at that bound if nearer.
        """
        c0, c1, c2, c3 = self.c0, self.c1, self.c2, self.c3
        if not (c1 > 0.0 and c2 * c2 <= 3.0 * c1 * c3):
            raise ValueError(f"cubic is not monotone (c1 = {c1}, c2 = {c2}, c3 = {c3})")
        tol = 1e-12 * abs(c0) + 1e-30
        reach = 4.0 * abs(c0) / c1
        if c3 > 0.0:
            reach = min(reach, (4.0 * abs(c0) / c3) ** (1.0 / 3.0))
        lo, hi = sorted((0.0, math.copysign(reach, -c0)))
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
    """Residual, search directions and line-search cubic of the update on one grid.

    With Lambda the symbol of -lap4 (so 1/Lambda is the inverse Laplacian on
    mean-zero data) and H = 2 phi_k - 1/2 phi_km1,

        N[phi] = Lin + dt phi^3,   Lin^ = S phi^ - H^ / Lambda,
        S = 3/(2 Lambda) + dt (eps^2 + A dt) Lambda.

    The residual r = P0(f - N[phi]) is kept as its spectrum P0(f^ - Lin^ -
    dt rfft2(phi^3)).  Lin is affine in phi: :meth:`start` sets f^ - Lin^ from
    the spectrum of the starting point and :meth:`move` shifts it by
    -alpha S d^, with the S d^ that :meth:`direction` formed, so an iteration
    takes two transforms, rfft2 of phi^3 and the inverse of d for the line
    search's pointwise sums, each as two one-dimensional passes into the
    operator's buffers (:func:`chfd.grid._rfft2`, :func:`chfd.grid._irfft2`).
    The preconditioner is the Hessian symbol sigma = S + 3 dt mean(phi_k^2).
    S, 1/Lambda and 1/sigma vanish at the zero mode, which keeps every iterate
    on the mass hyperplane.

    Lifecycle: an operator is built for one (plan, params) and serves any
    number of solves, each opened by :meth:`start`, which resets 1/sigma, the
    last direction and its scalars in place; a solve leaves nothing that the
    next one reads.  :func:`solve` uses the plan's own operator from
    :func:`workspace`: built on the plan's first solve, replaced when dt
    changes, dropped with the plan, and serving one solve at a time.  Between
    solves, ``scratch`` (a float array on the grid and two spectra) and
    ``finite`` (bool, on the grid) are free for a step's diagnostics.  Every
    operator, the plan's or one a caller builds, has buffers of its own; its
    methods return views of them, which the next call overwrites.
    """

    def __init__(self, plan: SpectralPlan, params: SchemeParams):
        grid = plan.grid
        self.grid = grid
        self.dt = dt = params.dt
        self.hd = grid.h**2
        self.inv_Lambda = plan.inv_Lambda
        self.S = 1.5 * plan.inv_Lambda + dt * (params.A * dt + params.eps**2) * plan.Lambda_long
        self._rhs_symbol = params.A * dt**2 * plan.Lambda_long + 2.0 * dt
        self.inv_sigma = np.empty_like(self.S)
        # spectra: f^ - Lin^ at the iterate, r^, and z^, d^ and S d^ of the last
        # direction (d^ = 0 before the first); (r, z), (r, d) and (d, S d) of it
        spectra = np.zeros((5, *self.S.shape), complex)
        self._lin_hat, self._r_hat, self._z_hat, self._d_hat, self._sd_hat = spectra
        self._rz = self._rd = self._dsd = 0.0
        self._d, self._work = np.empty((2,) + grid.shape)  # d, and room for phi^3 or phi d^2
        self.scratch = (self._work, self._r_hat, self._z_hat)
        self.finite = np.empty(grid.shape, bool)

    @functools.cached_property
    def _source_symbol(self) -> np.ndarray:
        """dt / Lambda: how a forcing's spectrum enters f^ (forced runs only)."""
        return self.dt * self.inv_Lambda

    def rhs(self, state: StepState, forcing: Field | None = None) -> np.ndarray:
        """f^ from ``state`` and ``forcing``, the source sampled at t_k + dt, in the
        buffer that :meth:`start` opens from; the idle r^ is scratch."""
        f_hat = np.multiply(self._rhs_symbol, state.phi_curr.spectrum, out=self._lin_hat)
        f_hat -= np.multiply(state.phi_prev.spectrum, self.dt, out=self._r_hat)
        if forcing is not None:
            f_hat += np.multiply(self._source_symbol, forcing.spectrum, out=self._r_hat)
        return f_hat

    def start(self, state: StepState, guess_hat: np.ndarray, f_hat: np.ndarray) -> None:
        """Open a solve of the update from ``state``: 1/sigma from mean phi_k^2, and
        f^ - Lin^ (the residual's linear part) at the field whose spectrum is ``guess_hat``.

        ``f_hat`` may be the buffer of :meth:`rhs` and ``guess_hat`` the idle d^
        buffer.  H^ and S guess^ use the idle z^ and S d^ buffers.
        """
        phi_k = state.phi_curr.values
        sigma = np.add(self.S, 3.0 * self.dt * float(np.vdot(phi_k, phi_k)) / phi_k.size,
                       out=self.inv_sigma)
        sigma[0, 0] = np.inf  # 1/sigma = 0 at the zero mode
        np.divide(1.0, sigma, out=self.inv_sigma)
        hist_hat = np.multiply(state.phi_prev.spectrum, -0.25, out=self._z_hat)
        hist_hat += state.phi_curr.spectrum
        hist_hat *= 2.0  # H^ = 2 (phi_k^ - phi_km1^ / 4) = 2 phi_k^ - phi_km1^ / 2
        hist_hat *= self.inv_Lambda
        lin_hat = np.multiply(guess_hat, self.S, out=self._sd_hat)
        lin_hat = np.subtract(f_hat, lin_hat, out=self._lin_hat)
        lin_hat += hist_hat
        self._d_hat.fill(0.0)
        self._rz = self._rd = self._dsd = 0.0

    def residual(self, phi: np.ndarray) -> np.ndarray:
        """The spectrum r^ of r = P0(f - N[phi]), for phi at the iterate of f^ - Lin^."""
        cube = np.multiply(phi, phi, out=self._work)
        cube *= phi
        cube *= self.dt
        r_hat = _rfft2(cube, out=self._r_hat)
        np.subtract(self._lin_hat, r_hat, out=r_hat)
        r_hat[0, 0] = 0.0
        return r_hat

    def direction(self, r_hat: np.ndarray) -> np.ndarray:
        """Next search direction d for the residual spectrum r^.

        The first call of a solve gives z = r / sigma; later calls give the PR+
        direction z + beta d_prev, or z again where (r, d) <= 0.  Keeps d^, S d^,
        (r, d) and (d, S d) for :meth:`cubic` and :meth:`move`.
        """
        grid, z_hat, d_hat, rz_prev = self.grid, self._z_hat, self._d_hat, self._rz
        r_zprev = _inner(grid, r_hat, z_hat) if rz_prev else 0.0
        np.multiply(r_hat, self.inv_sigma, out=z_hat)
        rz = _inner(grid, r_hat, z_hat)
        beta = max(0.0, (rz - r_zprev) / rz_prev) if rz_prev else 0.0
        rd = rz + beta * _inner(grid, r_hat, d_hat) if beta > 0.0 else rz
        if rd <= 0.0:
            beta, rd = 0.0, rz  # restart: c0 = -(r, d) would not be negative
        d_hat *= beta
        d_hat += z_hat
        sd_hat = np.multiply(d_hat, self.S, out=self._sd_hat)
        self._rz, self._rd, self._dsd = rz, rd, _inner(grid, d_hat, sd_hat)
        # r^ is spent: its buffer takes the first pass of the inverse
        return _irfft2(d_hat, grid.m, out=self._d, work=self._r_hat)

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
        """phi += alpha d in place, and f^ - Lin^ with it (spends the kept S d^)."""
        sd_hat = self._sd_hat
        sd_hat *= alpha
        self._lin_hat -= sd_hat
        self._d *= alpha
        phi += self._d


def workspace(plan: SpectralPlan, params: SchemeParams) -> UpdateOperator:
    """The plan's operator for ``params``, built on first use.

    The plan keeps one operator: a new ``params`` (a dt switch) replaces it.
    """
    op = plan.operators.get(params)
    if op is None:
        plan.operators.clear()
        op = plan.operators[params] = UpdateOperator(plan, params)
    return op


def solve(
    state: StepState,
    params: SchemeParams,
    plan: SpectralPlan,
    forcing: Field | None = None,
) -> tuple[Field, SolveStats]:
    """Minimize the update objective on the mass hyperplane.

    Works in the plan's operator (:func:`workspace`), which forms f^ from the
    history and ``forcing``, the source sampled at t_k + dt.  Starts from the extrapolation
    2 phi_k - phi_km1, with its spectrum formed from the history's, and stops when
    |P0(f - N[phi])|_2 <= 1e-15 (1 + |f|_2) + TOL_REL |P0 f|_2, within
    MAX_ITER iterations.  Raises :class:`SolverError` (carrying the residual
    history) on non-convergence, at a residual that is not finite, or at one
    whose norm overflows.  The state and the forcing must be on the plan's grid.
    """
    _check_same_grid(plan, state.phi_curr)
    if forcing is not None:
        _check_same_grid(plan, forcing)
    grid = plan.grid
    op = workspace(plan, params)
    rhs = op.rhs(state, forcing)
    f_sq = _inner(grid, rhs, rhs)
    f0_sq = f_sq - grid.h**2 / grid.m**2 * abs(rhs[0, 0]) ** 2  # without the zero mode
    tol = _TOL_FLOOR * (1.0 + math.sqrt(f_sq)) + TOL_REL * math.sqrt(max(f0_sq, 0.0))

    # the guess: the new field's values, and its spectrum from the history's
    phi = np.multiply(state.phi_curr.values, 2.0)
    phi -= state.phi_prev.values
    guess_hat = np.multiply(state.phi_curr.spectrum, 2.0, out=op._d_hat)
    guess_hat -= state.phi_prev.spectrum
    op.start(state, guess_hat, rhs)
    residuals: list[float] = []
    objectives = [0.0]  # F - F(guess) at each iterate

    for it in range(MAX_ITER + 1):
        r_hat = op.residual(phi)
        rnorm = float(np.sqrt(_inner(grid, r_hat, r_hat)))
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

    if math.isfinite(rnorm):
        failure = f"no convergence in {MAX_ITER} iterations"
    elif np.isfinite(r_hat).all():
        failure = f"residual norm overflows at iteration {it} (the residual is finite)"
    else:
        failure = f"residual not finite at iteration {it}"
    tail = ", ".join(f"{v:.3e}" for v in residuals[-4:])
    raise SolverError(
        f"step {state.step_index + 1} (t={state.t:.6g}, dt={params.dt:.6g}): "
        f"{failure}; last residuals [{tail}], tolerance {tol:.3e}",
        residuals,
    )
