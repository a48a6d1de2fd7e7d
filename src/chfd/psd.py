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

Each solve stops at the relative tolerance its caller gives;
:func:`chfd.scheme.step` sets it from its step's time error.

The paper's method (Feng, Salgado, Wang & Wise, J. Comput. Phys. 334, 2017)
is steepest descent, d = z, with the symbol 1/Lambda + dt + dt (eps^2 +
A dt) Lambda; the tests keep it as a reference.  Nonlinear conjugate
gradients: Hager & Zhang, "A survey of nonlinear conjugate gradient
methods", 2006.
"""
from __future__ import annotations

import math
import weakref
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
# TOL_REL is the tightest relative part of the stopping test: solve's default,
# and no step solves tighter.  MAX_ITER is the iteration budget.  Both fixed:
# the exact line search leaves the method nothing to tune.
TOL_REL = 1e-10
MAX_ITER = 200


@dataclass
class SolveStats:
    """Iteration count, and per iterate the residual norm and F - F(guess), 0.0 first;
    the relative tolerance the solve stopped at, and how many solves at a looser
    one its step discarded (the energy guard of :func:`chfd.scheme.step`).  A
    re-solved step's ``iterations`` counts both solves; the rest is the kept one's."""

    iterations: int
    residuals: list[float]
    objectives: list[float]
    rel_tol: float
    resolves: int = 0

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
    dt rfft2(phi^3)).  Lin is affine in phi: :meth:`start` forms f^ and sets
    f^ - Lin^ from the spectrum of the starting point, and :meth:`move` shifts
    it by -alpha S d^, with the S d^ that :meth:`direction` formed, so an iteration
    takes two transforms, rfft2 of phi^3 and the inverse of d for the line
    search's pointwise sums, each as two one-dimensional passes into the
    operator's buffers (:func:`chfd.grid._rfft2`, :func:`chfd.grid._irfft2`).
    The preconditioner is the Hessian symbol sigma = S + 3 dt mean(phi_k^2).
    S, 1/Lambda and 1/sigma vanish at the zero mode, which keeps every iterate
    on the mass hyperplane of the guess (:func:`solve` puts that on beta0's).

    Lifecycle: an operator holds the buffers of one grid, allocated once, and
    serves any number of solves, each opened by one call of :meth:`start` (the
    one method that takes the scheme's parameters), which resets the
    coefficients and the last direction in place; a solve leaves nothing that
    the next one reads.  :func:`solve` uses the plan's own operator from
    :func:`workspace`: built on the plan's first solve, kept for every dt,
    dropped with the plan, and serving one solve at a time.  Between solves,
    ``scratch`` (a float array on the grid and two spectra) is free for a
    step's diagnostics.  Every operator, the plan's or one a caller builds,
    has buffers of its own; its methods return views of them, which the next
    call overwrites.
    """

    def __init__(self, plan: SpectralPlan):
        # the plan's tables, not the plan: the plan's operator must die with it
        self.grid = grid = plan.grid
        self.hd = grid.h**2
        self.Lambda, self.inv_Lambda = plan.Lambda_long, plan.inv_Lambda
        self.params: SchemeParams | None = None  # those of S, the rhs symbol and dt
        # three allocations: one stacked block measured about 3% slower per 128² step
        self.S, self._rhs_symbol, self.inv_sigma = (np.empty_like(self.Lambda) for _ in range(3))
        # spectra: f^ - Lin^ at the iterate, r^, and z^, d^ and S d^ of the last
        # direction (d^ = 0 before the first); (r, z), (r, d) and (d, S d) of it
        spectra = np.zeros((5, *self.S.shape), complex)
        self._lin_hat, self._r_hat, self._z_hat, self._d_hat, self._sd_hat = spectra
        self._rz = self._rd = self._dsd = 0.0
        self._d, self._work = np.empty((2,) + grid.shape)  # d, and room for phi^3 or phi d^2
        self.scratch = (self._work, self._r_hat, self._z_hat)

    def start(self, state: StepState, params: SchemeParams, guess_hat: np.ndarray,
              forcing: Field | None = None) -> np.ndarray:
        """Open a solve of the update from ``state`` at the field whose spectrum is
        ``guess_hat``, and return its f^, with ``forcing`` the source sampled at t_k + dt.

        New ``params`` first set dt, S and the rhs symbol A dt^2 Lambda + 2 dt in
        place.  f^ goes in the r^ buffer, idle until the first :meth:`residual`;
        then 1/sigma from mean phi_k^2, and f^ - Lin^ (the residual's linear part)
        at the guess, which may be the idle d^ buffer.  The idle z^ buffer takes
        dt phi_km1^, dt g^ / Lambda and H^, and the idle S d^ buffer S guess^.
        """
        if params != self.params:
            self.params = params
            dt = self.dt = params.dt
            np.multiply(self.Lambda, dt * (params.A * dt + params.eps**2), out=self.S)
            self.S += np.multiply(self.inv_Lambda, 1.5, out=self._rhs_symbol)
            np.multiply(self.Lambda, params.A * dt**2, out=self._rhs_symbol)
            self._rhs_symbol += 2.0 * dt
        f_hat = np.multiply(self._rhs_symbol, state.phi_curr.spectrum, out=self._r_hat)
        f_hat -= np.multiply(state.phi_prev.spectrum, self.dt, out=self._z_hat)
        if forcing is not None:
            g_hat = np.multiply(self.inv_Lambda, self.dt, out=self._z_hat)
            f_hat += np.multiply(g_hat, forcing.spectrum, out=g_hat)
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
        return f_hat

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


# each plan's operator, keyed by the plan (which hashes by identity) and gone with it
_operators: weakref.WeakKeyDictionary[SpectralPlan, UpdateOperator] = weakref.WeakKeyDictionary()


def workspace(plan: SpectralPlan) -> UpdateOperator:
    """The plan's operator, built on first use and kept for every dt."""
    op = _operators.get(plan)
    if op is None:
        op = _operators[plan] = UpdateOperator(plan)
    return op


def solve(
    state: StepState,
    params: SchemeParams,
    plan: SpectralPlan,
    forcing: Field | None = None,
    rel_tol: float = TOL_REL,
) -> tuple[Field, SolveStats]:
    """Minimize the update objective on the mass hyperplane.

    Works in the plan's operator (:func:`workspace`), whose one call of
    :meth:`~UpdateOperator.start` forms f^ from the history and ``forcing``, the
    source sampled at t_k + dt, and opens the solve.  Starts from the
    extrapolation 4 phi_k - 6 phi_km1 + 4 phi_km2 - phi_km3, exact for a history
    cubic in t, or, while the state holds no ``phi_prev3``, from
    3 phi_k - 3 phi_km1 + phi_km2, or 2 phi_k - phi_km1 without ``phi_prev2``,
    with its spectrum formed from the history's and its values shifted to the
    mean beta0, and stops when
    |P0(f - N[phi])|_2 <= 1e-15 (1 + |f|_2) + rel_tol |P0 f|_2, within MAX_ITER
    iterations (read at call time).
    Raises :class:`SolverError` (carrying the residual history) on
    non-convergence, at a residual that is not finite, at one whose norm
    overflows, or before the first iteration when |f|_2 overflows.  The state
    and the forcing must be on the plan's grid.
    """
    _check_same_grid(plan, state.phi_curr)
    if forcing is not None:
        _check_same_grid(plan, forcing)
    grid = plan.grid
    op = workspace(plan)
    # the guess: the new field's values, and its spectrum from the history's
    levels = [state.phi_curr, state.phi_prev, state.phi_prev2, state.phi_prev3]
    while levels[-1] is None:
        levels.pop()
    phi = _extrapolate([f.values for f in levels])
    guess_hat = _extrapolate([f.spectrum for f in levels], out=op._d_hat)
    # Every direction is mean-free, so the solve keeps its guess's mean: put it on
    # beta0's hyperplane, not on the one where the history's rounding sums.  S
    # vanishes at the zero mode, so the spectrum's zero mode goes unread.
    phi += state.beta0 - float(np.sum(phi) / phi.size)  # grid.mean
    f_hat = op.start(state, params, guess_hat, forcing)
    f_sq = _inner(grid, f_hat, f_hat)
    f0_sq = f_sq - grid.h**2 / grid.m**2 * abs(f_hat[0, 0]) ** 2  # without the zero mode
    tol = _TOL_FLOOR * (1.0 + math.sqrt(f_sq)) + rel_tol * math.sqrt(max(f0_sq, 0.0))
    if not math.isfinite(tol):
        raise SolverError(f"{_at(state, params)}: right-hand side norm not finite "
                          f"(|f|_2^2 = {f_sq}), so no stopping tolerance", [])
    residuals: list[float] = []
    objectives = [0.0]  # F - F(guess) at each iterate

    for it in range(MAX_ITER + 1):
        r_hat = op.residual(phi)
        rnorm = float(np.sqrt(_inner(grid, r_hat, r_hat)))
        residuals.append(rnorm)
        if rnorm <= tol:
            return Field(grid, phi), SolveStats(it, residuals, objectives, rel_tol)
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
        f"{_at(state, params)}: {failure}; last residuals [{tail}], tolerance {tol:.3e}",
        residuals,
    )


def _extrapolate(levels: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """The history phi_k, phi_km1, ... extrapolated to t_k + dt, exact for a history
    polynomial in t of degree one below its two, three or four levels, in ``out``."""
    curr, prev, *older = levels
    if len(older) == 2:  # 4 (phi_k - 1.5 phi_km1 + phi_km2) - phi_km3
        guess = np.multiply(prev, -1.5, out=out)
        guess += curr
        guess += older[0]
        guess *= 4.0
        guess -= older[1]
        return guess
    guess = np.subtract(curr, prev, out=out)
    if older:  # 3 (phi_k - phi_km1) + phi_km2
        guess *= 3.0
        guess += older[0]
    else:  # (phi_k - phi_km1) + phi_k
        guess += curr
    return guess


def _at(state: StepState, params: SchemeParams) -> str:
    """The step a solve makes, for its error message."""
    return f"step {state.step_index + 1} (t={state.t:.6g}, dt={params.dt:.6g})"
