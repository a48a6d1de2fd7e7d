"""Fourier diagonalization of the periodic long-stencil operators.

Every translation-invariant stencil is diagonal in the discrete Fourier
basis.  For integer mode k the three-point second derivative has eigenvalue

    lambda_std[k]  = -4 sin^2(pi k / m) / h^2

and the five-point (fourth-order) one

    lambda_long[k] = lambda_std[k] - (h^2 / 12) * lambda_std[k]^2.

``Lambda_long`` collects the negated eigenvalues of the long-stencil
Laplacian (sum over axes), which are nonnegative and vanish only at the zero
mode; that makes the Laplacian invertible on mean-zero data and provides the
discrete H^{-1} inner product used by the time stepping.  Column 0 is -lambda_long.

Transforms use the numpy real-to-complex path, normalization 1/m^2 on the
inverse, called as the two one-dimensional passes that ``np.fft.rfft2`` and
``np.fft.irfft2`` make (:func:`chfd.grid._rfft2`, :func:`chfd.grid._irfft2`): the same bits
without the n-dimensional wrapper's per-call cost.  ``Lambda_long`` and
friends are stored in the rfft layout: the last axis holds modes 0..m//2 only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field, GridSpec, _check_same_grid, _irfft2, _rfft2, inner_l2, norm_linf

__all__ = [
    "SpectralPlan",
    "make_plan",
    "laplace_long_spectral",
    "invert_laplace_long",
    "hminus1_norm",
]


@dataclass(frozen=True, eq=False)
class SpectralPlan:
    """Precomputed symbol tables for one grid (rfft layout arrays)."""

    grid: GridSpec
    Lambda_long: np.ndarray  # -(sum of per-axis lambda_long); (m, m//2+1)
    inv_Lambda: np.ndarray  # 1/Lambda_long with the zero mode set to 0
    # the solve's workspace on this grid, {SchemeParams: chfd.psd.UpdateOperator},
    # at most one entry (chfd.psd.workspace); it dies with the plan
    operators: dict = field(default_factory=dict, init=False, repr=False)


def make_plan(grid: GridSpec) -> SpectralPlan:
    if grid.m < 5:
        raise ValueError(f"spectral plan needs m >= 5, got m={grid.m}")
    m, h = grid.m, grid.h
    k = np.fft.fftfreq(m, d=1.0 / m)  # integer frequencies, FFT order
    lam_std = -4.0 * np.sin(np.pi * k / m) ** 2 / h**2
    lam_long = lam_std - (h**2 / 12.0) * lam_std**2
    half = m // 2 + 1
    # rfft column m//2 of an even m is frequency +m/2, and FFT-order index m//2
    # holds -m/2: the same value, since the symbols are even in k
    Lam = -(lam_long[:, None] + lam_long[None, :half])
    Lam[0, 0] = 0.0
    inv = np.zeros_like(Lam)
    np.divide(1.0, Lam, out=inv, where=Lam > 0)
    return SpectralPlan(grid, Lam, inv)


def _inner(g: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product (u, v)_2 from the rfft spectra of u and v on grid g.

    A quadratic form (u, S u)_2 with a real symbol S is ``_inner(g, u^, S u^)``.
    """
    # every column stands for itself and its conjugate mirror, except the
    # zero column and, for even m, the Nyquist column
    s = 2.0 * np.vdot(a, b).real - np.vdot(a[:, 0], b[:, 0]).real
    if g.m % 2 == 0:
        s -= np.vdot(a[:, -1], b[:, -1]).real
    return float(g.h**2 / g.m**2 * s)


def laplace_long_spectral(plan: SpectralPlan, f: Field) -> Field:
    """Transform-space application of the long-stencil Laplacian."""
    _check_same_grid(plan, f)
    spec = _rfft2(f.values)
    spec *= -plan.Lambda_long
    return Field(plan.grid, _irfft2(spec, plan.grid.m, work=spec))


def invert_laplace_long(plan: SpectralPlan, g: Field) -> Field:
    """Solve  -laplace_long(u) = g - mean(g)  for the unique mean-zero u.

    ``g`` must already be (numerically) mean-free:
    |mean(g)| <= 1e-12 * (1 + max|g|).
    """
    _check_same_grid(plan, g)
    gbar = float(np.mean(g.values))
    tol_mean = 1e-12 * (1.0 + norm_linf(g))
    if abs(gbar) > tol_mean:
        raise ValueError(f"mean(g) = {gbar:.3e} exceeds solvability tolerance {tol_mean:.3e}")
    spec = _rfft2(g.values)
    spec *= plan.inv_Lambda  # zero mode annihilated by inv_Lambda
    return Field(plan.grid, _irfft2(spec, plan.grid.m, work=spec))


def hminus1_norm(plan: SpectralPlan, f: Field) -> float:
    """Discrete H^{-1} norm sqrt((f, (-laplace_long)^{-1} f)) of mean-free f."""
    u = invert_laplace_long(plan, f)
    return float(np.sqrt(max(inner_l2(f, u), 0.0)))
