"""Shared fixtures and independent oracles for the test suite.

The stencil oracles here are deliberately written as plain Python loops over
``np.roll`` shifts with the coefficient tables restated from scratch, so the
vectorized operators in the package are checked against an implementation
that shares no code with them.

The update oracles build N[phi], the objective, the line-search cubic, the
preconditioner symbols and two whole descent loops from the stencil
Laplacian, the spectral inverse and closed-form mode symbols, one public
operator call per term, in the form the update is printed in;
``chfd.psd.UpdateOperator`` and ``chfd.psd.solve`` are checked against them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from chfd import (
    Field,
    GridSpec,
    hminus1_norm,
    inner_l2,
    invert_laplace_long,
    laplace_long,
    norm_l2,
)
import chfd.psd
from chfd.psd import _TOL_FLOOR, TOL_REL, LineSearchCubic, UpdateOperator


# ---------------------------------------------------------------------------
# brute-force stencil oracles


def brute_d1_long(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Five-point first derivative, written as an explicit shift sum."""
    out = np.zeros_like(values)
    for shift, coeff in ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0)):
        # np.roll(a, -s) brings a[i+s] to position i
        out += coeff * np.roll(values, -shift, axis=axis)
    return out / (12.0 * h)


def brute_d2_long(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    out = np.zeros_like(values)
    for shift, coeff in ((2, -1.0), (1, 16.0), (0, -30.0), (-1, 16.0), (-2, -1.0)):
        out += coeff * np.roll(values, -shift, axis=axis)
    return out / (12.0 * h * h)


def brute_d2_std(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    out = np.zeros_like(values)
    for shift, coeff in ((1, 1.0), (0, -2.0), (-1, 1.0)):
        out += coeff * np.roll(values, -shift, axis=axis)
    return out / (h * h)


def brute_laplace_long(values: np.ndarray, h: float) -> np.ndarray:
    return sum(brute_d2_long(values, h, axis) for axis in range(values.ndim))


def brute_laplace_std(values: np.ndarray, h: float) -> np.ndarray:
    return sum(brute_d2_std(values, h, axis) for axis in range(values.ndim))


def brute_inner(a: np.ndarray, b: np.ndarray, h: float) -> float:
    """Cell-centered inner product via compensated summation."""
    return h ** a.ndim * math.fsum((a * b).ravel().tolist())


# ---------------------------------------------------------------------------
# update oracles: N[phi] = (-lap4)^{-1} B + dt phi^3 - dt (A dt + eps^2) lap4 phi,
# B = 3/2 phi - 2 phi_k + 1/2 phi_km1, and its objective F


def rhs_field(grid: GridSpec, rhs_hat: np.ndarray) -> Field:
    """The right-hand side f on the grid, from the spectrum ``assemble_rhs`` returns."""
    return Field(grid, np.fft.irfft2(rhs_hat, s=grid.shape))


def _history_combination(state, phi: np.ndarray) -> Field:
    return Field(
        state.phi_curr.grid,
        1.5 * phi - 2.0 * state.phi_curr.values + 0.5 * state.phi_prev.values,
    )


def oracle_N(state, params, phi: np.ndarray, plan) -> np.ndarray:
    grid = state.phi_curr.grid
    TB = invert_laplace_long(plan, _history_combination(state, phi)).values
    lap = laplace_long(Field(grid, phi)).values
    visc = params.dt * (params.A * params.dt + params.eps**2)
    return TB + params.dt * phi**3 - visc * lap


def oracle_F(state, params, phi: np.ndarray, rhs: np.ndarray, plan) -> float:
    """F = 1/3 |B|_{-1}^2 + dt/4 |phi|_4^4 + dt/2 (A dt + eps^2) (phi, -lap4 phi) - (f, phi)."""
    grid = state.phi_curr.grid
    f = Field(grid, phi)
    B = _history_combination(state, phi)
    visc = params.dt * (params.A * params.dt + params.eps**2)
    return (
        inner_l2(B, invert_laplace_long(plan, B)) / 3.0
        + 0.25 * params.dt * grid.h**2 * float(np.sum(phi**4))
        + 0.5 * visc * inner_l2(f, Field(grid, -laplace_long(f).values))
        - inner_l2(rhs_field(grid, rhs), f)
    )


def oracle_residual(state, params, phi: np.ndarray, rhs: np.ndarray, plan) -> Field:
    grid = state.phi_curr.grid
    r = rhs_field(grid, rhs).values - oracle_N(state, params, phi, plan)
    return Field(grid, r - r.mean())


def oracle_cubic(
    state, params, phi: np.ndarray, d: Field, rhs: np.ndarray, plan
) -> LineSearchCubic:
    """Coefficients of q(alpha) = (N[phi + alpha d] - f, d) for mean-zero d."""
    grid = state.phi_curr.grid
    hd = grid.h**2
    dt = params.dt
    visc = dt * (params.A * dt + params.eps**2)
    dv = d.values
    gap = Field(grid, oracle_N(state, params, phi, plan) - rhs_field(grid, rhs).values)
    return LineSearchCubic(
        c0=inner_l2(gap, d),
        c1=1.5 * hminus1_norm(plan, d) ** 2
        + 3.0 * dt * hd * float(np.sum((phi * dv) ** 2))
        + visc * inner_l2(d, Field(grid, -laplace_long(d).values)),
        c2=3.0 * dt * hd * float(np.sum(phi * dv**3)),
        c3=dt * hd * float(np.sum(dv**4)),
    )


def oracle_Lambda(grid: GridSpec) -> np.ndarray:
    """Symbol of -lap4 per full-FFT mode, from the 1-D eigenvalues in closed form.

    The zero mode holds inf, so every symbol built from it below is inf there
    and dividing by it annihilates the mean.
    """
    s = np.sin(np.pi * np.arange(grid.m) / grid.m)
    l0 = -4.0 * s * s / grid.h**2
    lam = l0 - grid.h**2 / 12.0 * l0 * l0
    Lam = -(lam[:, None] + lam[None, :])
    Lam[0, 0] = np.inf
    return Lam


def paper_sigma(grid: GridSpec, params) -> np.ndarray:
    """The paper's preconditioner symbol 1/Lambda + dt + dt (eps^2 + A dt) Lambda."""
    Lam = oracle_Lambda(grid)
    dt = params.dt
    return 1.0 / Lam + dt + dt * (params.eps**2 + params.A * dt) * Lam


def hessian_sigma(state, params) -> np.ndarray:
    """3/(2 Lambda) + 3 dt mean(phi_k^2) + dt (eps^2 + A dt) Lambda."""
    phi_k = state.phi_curr.values
    Lam = oracle_Lambda(state.phi_curr.grid)
    dt = params.dt
    return (1.5 / Lam + 3.0 * dt * float(np.mean(phi_k**2))
            + dt * (params.eps**2 + params.A * dt) * Lam)


def oracle_precondition(r: Field, sigma: np.ndarray) -> Field:
    """r / sigma mode by mode, through the full complex FFT."""
    return Field(r.grid, np.fft.ifft2(np.fft.fft2(r.values) / sigma).real)


def _oracle_descent(state, params, rhs: np.ndarray, plan, sigma, conjugate: bool,
                    rel_tol: float):
    """Exact-line-search descent from the extrapolated guess.

    Same stopping rule as ``chfd.psd.solve`` at ``rel_tol``, with its (possibly
    monkeypatched) MAX_ITER; returns (phi, iterations).  With ``conjugate``
    the directions are PR+ ones, restarted at z when the cubic's c0 >= 0.
    """
    grid = state.phi_curr.grid
    f = rhs_field(grid, rhs)
    phi = 2.0 * state.phi_curr.values - state.phi_prev.values
    f0 = Field(grid, f.values - f.values.mean())
    tol = _TOL_FLOOR * (1.0 + norm_l2(f)) + rel_tol * norm_l2(f0)
    d = None
    for it in range(chfd.psd.MAX_ITER + 1):
        r = oracle_residual(state, params, phi, rhs, plan)
        if norm_l2(r) <= tol:
            return phi, it
        z = oracle_precondition(r, sigma)
        q = None
        if conjugate and d is not None:
            beta = max(0.0, (inner_l2(r, z) - inner_l2(r, z_prev)) / inner_l2(r_prev, z_prev))
            d = Field(grid, z.values + beta * d.values)
            q = oracle_cubic(state, params, phi, d, rhs, plan)
            if q.c0 >= 0.0:
                q = None
        if q is None:
            d = z
            q = oracle_cubic(state, params, phi, d, rhs, plan)
        phi = phi + q.root() * d.values
        r_prev, z_prev = r, z
    raise RuntimeError(f"oracle loop did not converge in {chfd.psd.MAX_ITER} iterations")


def oracle_psd(state, params, rhs: np.ndarray, plan,
               rel_tol: float = TOL_REL) -> tuple[np.ndarray, int]:
    """The production method: Hessian symbol and PR+ conjugate directions."""
    return _oracle_descent(state, params, rhs, plan, hessian_sigma(state, params), True,
                           rel_tol)


def reference_psd(state, params, rhs: np.ndarray, plan) -> tuple[np.ndarray, int]:
    """The paper's method: its symbol and steepest descent."""
    sigma = paper_sigma(state.phi_curr.grid, params)
    return _oracle_descent(state, params, rhs, plan, sigma, False, TOL_REL)


# ---------------------------------------------------------------------------
# field builders


def random_values(shape, seed: int, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(shape)


def random_field(grid: GridSpec, seed: int, scale: float = 1.0) -> Field:
    return Field(grid, random_values(grid.shape, seed, scale))


@pytest.fixture
def grid32() -> GridSpec:
    return GridSpec(L=3.2, m=32)


@pytest.fixture
def grid16() -> GridSpec:
    return GridSpec(L=2.0, m=16)


@pytest.fixture
def fft_calls(monkeypatch) -> dict[str, int]:
    """Counts of the ``numpy.fft`` transforms called from here on, by name."""
    calls = dict.fromkeys(("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def solve_starts(monkeypatch) -> list[dict]:
    """Each PSD solve opened from here on: the state it steps from ("state"), and
    copies of its starting point's spectrum ("guess_hat") and values ("guess")."""
    starts: list[dict] = []
    start, residual = UpdateOperator.start, UpdateOperator.residual

    def spy_start(op, state, params, guess_hat, forcing=None):
        starts.append({"state": state, "guess_hat": guess_hat.copy()})
        return start(op, state, params, guess_hat, forcing)

    def spy_residual(op, phi):
        starts[-1].setdefault("guess", phi.copy())
        return residual(op, phi)

    monkeypatch.setattr(UpdateOperator, "start", spy_start)
    monkeypatch.setattr(UpdateOperator, "residual", spy_residual)
    return starts
