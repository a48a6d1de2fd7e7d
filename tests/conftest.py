"""Shared fixtures and independent oracles for the test suite.

The stencil oracles here are deliberately written as plain Python loops over
``np.roll`` shifts with the coefficient tables restated from scratch, so the
vectorized operators in the package are checked against an implementation
that shares no code with them.

The update oracles build N[phi], the objective, the line-search cubic and a
whole steepest-descent loop from the stencil Laplacian and the spectral
inverse, one public operator call per term, in the form the update is
printed in; ``chfd.psd.UpdateOperator`` is checked against them.
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
    precondition_solve,
)
from chfd.psd import LineSearchCubic, PsdConfig


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


def oracle_F(state, params, phi: np.ndarray, rhs: Field, plan) -> float:
    """F = 1/3 |B|_{-1}^2 + dt/4 |phi|_4^4 + dt/2 (A dt + eps^2) (phi, -lap4 phi) - (f, phi)."""
    grid = state.phi_curr.grid
    f = Field(grid, phi)
    B = _history_combination(state, phi)
    visc = params.dt * (params.A * params.dt + params.eps**2)
    return (
        inner_l2(B, invert_laplace_long(plan, B)) / 3.0
        + 0.25 * params.dt * grid.h**grid.dim * float(np.sum(phi**4))
        + 0.5 * visc * inner_l2(f, Field(grid, -laplace_long(f).values))
        - inner_l2(rhs, f)
    )


def oracle_residual(state, params, phi: np.ndarray, rhs: Field, plan) -> Field:
    r = rhs.values - oracle_N(state, params, phi, plan)
    return Field(rhs.grid, r - r.mean())


def oracle_cubic(state, params, phi: np.ndarray, d: Field, rhs: Field, plan) -> LineSearchCubic:
    """Coefficients of q(alpha) = (N[phi + alpha d] - f, d) for mean-zero d."""
    grid = state.phi_curr.grid
    hd = grid.h**grid.dim
    dt = params.dt
    visc = dt * (params.A * dt + params.eps**2)
    dv = d.values
    gap = Field(grid, oracle_N(state, params, phi, plan) - rhs.values)
    return LineSearchCubic(
        c0=inner_l2(gap, d),
        c1=1.5 * hminus1_norm(plan, d) ** 2
        + 3.0 * dt * hd * float(np.sum((phi * dv) ** 2))
        + visc * inner_l2(d, Field(grid, -laplace_long(d).values)),
        c2=3.0 * dt * hd * float(np.sum(phi * dv**3)),
        c3=dt * hd * float(np.sum(dv**4)),
    )


def oracle_psd(state, params, rhs: Field, plan, cfg: PsdConfig) -> tuple[np.ndarray, int]:
    """Steepest descent from the extrapolated guess, built from the oracles above.

    Same stopping rule as ``chfd.psd.solve``; returns (phi, iterations).
    """
    phi = 2.0 * state.phi_curr.values - state.phi_prev.values
    f0 = Field(rhs.grid, rhs.values - rhs.values.mean())
    tol_abs = cfg.tol_abs if cfg.tol_abs is not None else 1e-15 * (1.0 + norm_l2(rhs))
    tol = tol_abs + cfg.tol_rel * norm_l2(f0)
    for it in range(cfg.max_iter + 1):
        r = oracle_residual(state, params, phi, rhs, plan)
        if norm_l2(r) <= tol:
            return phi, it
        d = precondition_solve(plan, r, params.dt, params.eps, params.A)
        phi = phi + oracle_cubic(state, params, phi, d, rhs, plan).root() * d.values
    raise RuntimeError(f"oracle loop did not converge in {cfg.max_iter} iterations")


# ---------------------------------------------------------------------------
# field builders


def random_values(shape, seed: int, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(shape)


def random_field(grid: GridSpec, seed: int, scale: float = 1.0) -> Field:
    return Field(grid, random_values(grid.shape, seed, scale))


def trig_field(grid: GridSpec, kx: int, ky: int, phase: float = 0.0) -> Field:
    """Single periodic mode sin(2 pi kx x / L + phase) * cos(2 pi ky y / L)."""
    a = 2.0 * np.pi / grid.L
    x = grid.cell_centers()
    return Field(
        grid,
        np.sin(a * kx * x + phase)[:, None] * np.cos(a * ky * x)[None, :],
    )


@pytest.fixture
def grid32() -> GridSpec:
    return GridSpec(L=3.2, m=32)


@pytest.fixture
def grid16() -> GridSpec:
    return GridSpec(L=2.0, m=16)
