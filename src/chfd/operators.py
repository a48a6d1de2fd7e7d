"""Periodic finite-difference stencils, applied to slices of a wrapped copy.

Second derivative, three-point:   (f[i-1] - 2 f[i] + f[i+1]) / h^2
Second derivative, five-point:    (-f[i-2] + 16 f[i-1] - 30 f[i] + 16 f[i+1] - f[i+2]) / (12 h^2)
First derivative, five-point:     (f[i-2] - 8 f[i-1] + 8 f[i+1] - f[i+2]) / (12 h)

The five-point (long-stencil) forms are fourth-order accurate; the Laplacians
are the per-axis sums of the one-dimensional operators.  The time stepper
applies these operators through their Fourier symbols (:mod:`chfd.spectral`);
this module is the independent stencil implementation that the spectral path
is checked against, that ``chfd verify`` measures, and that builds the
verification forcing :func:`chfd.verification.manufactured_source_stencil`.

A stencil along one axis reads its neighbours as slices of one copy of the
array wrapped periodically by its half-width in ghost layers on both ends of
that axis.
"""
from __future__ import annotations

import numpy as np

from .grid import Field

__all__ = [
    "d1_long",
    "d2_long",
    "laplace_long",
    "d2_std",
    "laplace_std",
    "grad_norm_sq_std",
    "grad_norm_sq_long",
]


def _check(f: Field, half_width: int, axis: int = 0) -> None:
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    need = 2 * half_width + 1
    if f.grid.m < need:
        raise ValueError(f"stencil needs m >= {need}, grid has m={f.grid.m}")


def _shifts(v: np.ndarray, k: int, axis: int) -> list[np.ndarray]:
    """[v[i - k], ..., v[i + k]] at position i along ``axis``, with periodic wrap.

    The entries are views into one copy of v with k ghost layers on each end.
    """
    lead = (slice(None),) * axis
    wrapped = np.concatenate((v[lead + (slice(-k, None),)], v, v[lead + (slice(k),)]), axis=axis)
    n = v.shape[axis]
    return [wrapped[lead + (slice(s, s + n),)] for s in range(2 * k + 1)]


# Mirror neighbours are combined before weighting, so the symmetric and
# antisymmetric cancellations happen between exact values: constants are then
# annihilated exactly.


def _d1_long(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    m2, m1, _, p1, p2 = _shifts(v, 2, axis)
    return ((m2 - p2) - 8.0 * (m1 - p1)) / (12.0 * h)


def _d2_long(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    m2, m1, _, p1, p2 = _shifts(v, 2, axis)
    return (-(m2 + p2) + 16.0 * (m1 + p1) + -30.0 * v) / (12.0 * h**2)


def _d2_std(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    m1, _, p1 = _shifts(v, 1, axis)
    return ((m1 + p1) + -2.0 * v) / h**2


def d1_long(f: Field, axis: int = 0) -> Field:
    """Fourth-order first derivative along ``axis``."""
    _check(f, 2, axis)
    return Field(f.grid, _d1_long(f.values, f.grid.h, axis))


def d2_long(f: Field, axis: int = 0) -> Field:
    """Fourth-order second derivative along ``axis``."""
    _check(f, 2, axis)
    return Field(f.grid, _d2_long(f.values, f.grid.h, axis))


def d2_std(f: Field, axis: int = 0) -> Field:
    """Second-order second derivative along ``axis``."""
    _check(f, 1, axis)
    return Field(f.grid, _d2_std(f.values, f.grid.h, axis))


def laplace_long(f: Field) -> Field:
    """Fourth-order Laplacian: sum of the one-dimensional five-point operators."""
    _check(f, 2)
    out = _d2_long(f.values, f.grid.h, 0)
    out += _d2_long(f.values, f.grid.h, 1)
    return Field(f.grid, out)


def laplace_std(f: Field) -> Field:
    """Second-order Laplacian (per-axis three-point sums)."""
    _check(f, 1)
    out = _d2_std(f.values, f.grid.h, 0)
    out += _d2_std(f.values, f.grid.h, 1)
    return Field(f.grid, out)


def grad_norm_sq_std(f: Field) -> float:
    """Squared L2 norm of the forward-difference gradient.

    Realized so that it equals ``inner_l2(f, -laplace_std(f))`` by summation
    by parts on the periodic grid.
    """
    total = 0.0  # h^2 * sum((diff / h)^2): the powers of h cancel
    for ax in (0, 1):
        diff = _shifts(f.values, 1, ax)[2] - f.values
        total += float(np.sum(diff * diff))
    return total


def grad_norm_sq_long(f: Field) -> float:
    """Gradient energy of the fourth-order operator: ``inner_l2(f, -laplace_long(f))``.

    Computed by the summation-by-parts decomposition
    ``|grad_h f|^2 + (h^2/12) * sum_axis |D^2_axis f|^2``,
    which is exact for the per-axis long-stencil Laplacian and keeps the
    result nonnegative in floating point.
    """
    h = f.grid.h
    total = grad_norm_sq_std(f)
    for ax in (0, 1):
        d2 = _d2_std(f.values, h, ax)
        total += float((h**2 / 12.0) * h**2 * np.sum(d2 * d2))
    return total
