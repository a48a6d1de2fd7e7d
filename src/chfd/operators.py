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
that axis.  The long-stencil second derivatives and Laplacian can write that
copy, their partial sums and their result into buffers the caller holds
(``_long_work``), so that a caller applying them every step, such as the
stencil forcing, allocates nothing per call; with or without buffers every
element sees the same floating-point operations in the same order.
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


def _shifts(v: np.ndarray, k: int, axis: int, out: np.ndarray | None = None) -> list[np.ndarray]:
    """[v[i - k], ..., v[i + k]] at position i along ``axis``, with periodic wrap.

    The entries are views into one copy of v with k ghost layers on each end:
    ``out`` when it is given (v's shape, 2k longer along ``axis``).
    """
    lead = (slice(None),) * axis
    n = v.shape[axis]
    if out is None:
        out = np.empty(v.shape[:axis] + (n + 2 * k,) + v.shape[axis + 1:], dtype=v.dtype)
    # three slice copies: along axis 1 they take 2/3 of np.concatenate's time
    out[lead + (slice(k, n + k),)] = v
    out[lead + (slice(k),)] = v[lead + (slice(-k, None),)]
    out[lead + (slice(n + k, None),)] = v[lead + (slice(k),)]
    return [out[lead + (slice(s, s + n),)] for s in range(2 * k + 1)]


# Mirror neighbours are combined before weighting, so the symmetric and
# antisymmetric cancellations happen between exact values: constants are then
# annihilated exactly.


def _d1_long(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    m2, m1, _, p1, p2 = _shifts(v, 2, axis)
    return ((m2 - p2) - 8.0 * (m1 - p1)) / (12.0 * h)


def _long_work(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Buffers for ``_laplace_long`` on arrays of ``shape``: the two wrapped
    copies, a neighbour sum, -30 v and the second axis's derivative."""
    m0, m1 = shape
    return (np.empty((m0 + 4, m1)), np.empty((m0, m1 + 4)), *(np.empty(shape) for _ in range(3)))


def _d2_long(v: np.ndarray, h: float, axis: int, out: np.ndarray | None = None,
             wrap: np.ndarray | None = None, pair: np.ndarray | None = None,
             v30: np.ndarray | None = None) -> np.ndarray:
    """(-(m2 + p2) + 16 (m1 + p1) + -30 v) / (12 h^2), term by term in that order.

    ``out``, ``wrap`` (for ``_shifts``) and ``pair`` (for m2 + p2) are optional
    buffers, and ``v30`` is -30 v when the caller has formed it.  The in-place
    steps give the bits of the expression: x *= c is c * x, and a - b is -b + a.
    """
    m2, m1, _, p1, p2 = _shifts(v, 2, axis, wrap)
    out = np.add(m1, p1, out=out)
    out *= 16.0
    out -= np.add(m2, p2, out=pair)
    out += -30.0 * v if v30 is None else v30
    out /= 12.0 * h**2
    return out


def _laplace_long(v: np.ndarray, h: float, out: np.ndarray | None = None,
                  work: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Sum of both axes' ``_d2_long``, with -30 v formed once; ``work`` is
    ``_long_work(v.shape)`` or None for fresh arrays.  ``out`` may not be v."""
    wrap0, wrap1, pair, v30, d2_y = work or (None,) * 5
    v30 = np.multiply(-30.0, v, out=v30)
    out = _d2_long(v, h, 0, out, wrap0, pair, v30)
    out += _d2_long(v, h, 1, d2_y, wrap1, pair, v30)
    return out


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
    return Field(f.grid, _laplace_long(f.values, f.grid.h))


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
