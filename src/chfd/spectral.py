"""Fourier diagonalization of the periodic long-stencil operators.

Every translation-invariant stencil is diagonal in the discrete Fourier
basis.  For integer mode k the three-point second derivative has eigenvalue

    lambda_std[k]  = -4 sin^2(pi k / m) / h^2

and the five-point (fourth-order) one

    lambda_long[k] = lambda_std[k] - (h^2 / 12) * lambda_std[k]^2.

``Lambda_long`` collects the negated eigenvalues of the long-stencil
Laplacian (sum over axes), which are nonnegative and vanish only at the zero
mode; that makes the Laplacian invertible on mean-zero data and provides the
discrete H^{-1} inner product used by the time stepping.

Transforms use the numpy real-to-complex path (``rfft``/``rfft2``,
normalization 1/m^dim on the inverse).  ``Lambda_long`` and friends are
stored in the rfft layout: the last axis holds modes 0..m//2 only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec, inner_l2, norm_linf

__all__ = [
    "SpectralPlan",
    "make_plan",
    "laplace_long_spectral",
    "invert_laplace_long",
    "hminus1_norm",
    "precondition_solve",
]


@dataclass(frozen=True, eq=False)
class SpectralPlan:
    """Precomputed symbol tables for one grid (rfft layout arrays)."""

    grid: GridSpec
    lambda_std: np.ndarray  # (m,) per-axis symbols, FFT frequency order
    lambda_long: np.ndarray  # (m,)
    Lambda_long: np.ndarray  # -(sum of per-axis lambda_long); (m//2+1,) or (m, m//2+1)
    inv_Lambda: np.ndarray  # 1/Lambda_long with the zero mode set to 0
    mode_weights: np.ndarray  # Parseval multiplicity of each rfft column (1 or 2)


def make_plan(grid: GridSpec) -> SpectralPlan:
    if grid.m < 5:
        raise ValueError(f"spectral plan needs m >= 5, got m={grid.m}")
    m, h = grid.m, grid.h
    k = np.fft.fftfreq(m, d=1.0 / m)  # integer frequencies, FFT order
    lam_std = -4.0 * np.sin(np.pi * k / m) ** 2 / h**2
    lam_long = lam_std - (h**2 / 12.0) * lam_std**2
    half = m // 2 + 1
    lam_half = lam_long[:half].copy()
    if m % 2 == 0:
        # index m//2 holds frequency -m/2 in FFT order; symbols are even in k
        lam_half[-1] = lam_long[m // 2]
    if grid.dim == 1:
        Lam = -lam_half
        Lam[0] = 0.0
    else:
        Lam = -(lam_long[:, None] + lam_half[None, :])
        Lam[0, 0] = 0.0
    inv = np.zeros_like(Lam)
    np.divide(1.0, Lam, out=inv, where=Lam > 0)
    w = np.full(half, 2.0)
    w[0] = 1.0
    if m % 2 == 0:
        w[-1] = 1.0
    return SpectralPlan(grid, lam_std, lam_long, Lam, inv, w)


def _rfft(plan: SpectralPlan, values: np.ndarray) -> np.ndarray:
    if plan.grid.dim == 1:
        return np.fft.rfft(values)
    return np.fft.rfft2(values)


def _irfft(plan: SpectralPlan, spec: np.ndarray) -> np.ndarray:
    if plan.grid.dim == 1:
        return np.fft.irfft(spec, n=plan.grid.m)
    return np.fft.irfft2(spec, s=plan.grid.shape)


def _quad(plan: SpectralPlan, spec: np.ndarray, symbol: np.ndarray) -> float:
    """Real quadratic form (u, S u)_2 from the rfft spectrum of u.

    ``symbol`` is the real per-mode multiplier of S in the same layout.
    """
    g = plan.grid
    mag = symbol * (spec.real**2 + spec.imag**2)
    if g.dim == 1:
        total = np.sum(plan.mode_weights * mag)
    else:
        total = np.sum(plan.mode_weights[None, :] * mag)
    return float(g.h**g.dim / g.m**g.dim * total)


def _check_same_grid(plan: SpectralPlan, f: Field) -> None:
    if f.grid != plan.grid:
        raise ValueError(f"field grid {f.grid} does not match plan grid {plan.grid}")


def laplace_long_spectral(plan: SpectralPlan, f: Field) -> Field:
    """Transform-space application of the long-stencil Laplacian."""
    _check_same_grid(plan, f)
    spec = _rfft(plan, f.values)
    spec *= -plan.Lambda_long
    return Field(plan.grid, _irfft(plan, spec))


def invert_laplace_long(plan: SpectralPlan, g: Field, tol_mean: float | None = None) -> Field:
    """Solve  -laplace_long(u) = g - mean(g)  for the unique mean-zero u.

    ``g`` must already be (numerically) mean-free: the default acceptance is
    |mean(g)| <= 1e-12 * (1 + max|g|).
    """
    _check_same_grid(plan, g)
    gbar = float(np.mean(g.values))
    if tol_mean is None:
        tol_mean = 1e-12 * (1.0 + norm_linf(g))
    if abs(gbar) > tol_mean:
        raise ValueError(f"mean(g) = {gbar:.3e} exceeds solvability tolerance {tol_mean:.3e}")
    spec = _rfft(plan, g.values)
    spec *= plan.inv_Lambda  # zero mode annihilated by inv_Lambda
    return Field(plan.grid, _irfft(plan, spec))


def hminus1_norm(plan: SpectralPlan, f: Field) -> float:
    """Discrete H^{-1} norm sqrt((f, (-laplace_long)^{-1} f)) of mean-free f."""
    u = invert_laplace_long(plan, f)
    return float(np.sqrt(max(inner_l2(f, u), 0.0)))


def _inv_sigma(plan: SpectralPlan, dt: float, eps: float, A: float) -> np.ndarray:
    """Reciprocal preconditioner symbol 1/sigma, zero at the zero mode.

    sigma(k, l) = 1/Lambda + dt + dt (eps^2 + A dt) Lambda, which is the
    per-mode linearization scale of the implicit update (positive away from
    the zero mode).
    """
    Lam = plan.Lambda_long
    inv = np.zeros_like(Lam)
    mask = Lam > 0
    sigma = np.where(mask, plan.inv_Lambda + dt + dt * (eps**2 + A * dt) * Lam, 1.0)
    np.divide(1.0, sigma, out=inv, where=mask)
    return inv


def precondition_solve(plan: SpectralPlan, r: Field, dt: float, eps: float, A: float) -> Field:
    """Apply the inverse of the constant-coefficient preconditioner to mean-free r."""
    _check_same_grid(plan, r)
    rbar = float(np.mean(r.values))
    if abs(rbar) > 1e-12 * (1.0 + norm_linf(r)):
        raise ValueError(f"preconditioner input must be mean-free, got mean {rbar:.3e}")
    spec = _rfft(plan, r.values)
    spec *= _inv_sigma(plan, dt, eps, A)
    return Field(plan.grid, _irfft(plan, spec))
