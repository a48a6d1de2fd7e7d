"""Periodic cell-centered grids and the discrete inner products built on them.

A square domain of side ``L`` is split into ``m`` cells per axis; unknowns
live at the cell centers ``x_i = (i - 1/2) h`` with ``h = L / m``.  All
integrals are plain midpoint quadrature, so the L2 pairing is
``(f, g) = h^2 * sum(f * g)``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "GridMismatchError",
    "field_from_fn",
    "full",
    "mean",
    "inner_l2",
    "norm_l2",
    "norm_lp",
    "norm_linf",
]


class GridMismatchError(ValueError):
    """Raised when two fields from different grids are combined."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: ``m`` cells per axis on ``[0, L]^2``."""

    L: float
    m: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"domain size must be finite and positive, got L={self.L}")
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError(f"need at least 2 cells per axis, got m={self.m}")

    @property
    def h(self) -> float:
        return self.L / self.m

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.m)

    def cell_centers(self) -> np.ndarray:
        """Coordinates ``(i + 1/2) h`` along one axis (same for every axis)."""
        return (np.arange(self.m) + 0.5) * self.h


def _rfft2(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.rfft2(values)``, bit for bit: rfft over axis 1, then fft over axis 0 in place."""
    spec = np.fft.rfft(values, axis=1, out=out)
    return np.fft.fft(spec, axis=0, out=spec)


def _irfft2(
    spec: np.ndarray, m: int, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """``np.fft.irfft2(spec, s=(m, m))``, bit for bit: ifft over axis 0, then irfft over axis 1.

    ``work`` (complex, the shape of ``spec``) receives the first pass, and may
    be ``spec`` itself once the caller is done with it.  An odd m needs its
    size stated: rfft layouts of m and m + 1 have the same shape.
    """
    cols = np.fft.ifft(spec, axis=0, out=work)
    return np.fft.irfft(cols, n=m, axis=1, out=out)


@dataclass
class Field:
    """Grid function: ``values[i, j]`` is the value at ``(x_i, y_j)``."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """``np.fft.rfft2(values)`` bit for bit, by :func:`_rfft2`.

        Computed once: nothing writes into a field once it is made.
        """
        return _rfft2(self.values)


def _check_same_grid(f, g) -> None:
    """Raise unless ``f`` and ``g``, fields or spectral plans, are on one grid."""
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


def full(grid: GridSpec, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


def field_from_fn(grid: GridSpec, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Field:
    """Sample ``fn(x, y)`` at the cell centers.

    ``fn`` gets an ``(m, 1)`` x column and a ``(1, m)`` y row, broadcast
    against each other, and must vectorize.  The field holds a copy of its
    sample, broadcast to the grid only when the sample is not the grid's shape.
    """
    x = grid.cell_centers()
    vals = fn(x[:, None], x[None, :])
    if not (isinstance(vals, np.ndarray) and vals.shape == grid.shape):
        vals = np.broadcast_to(vals, grid.shape)
    return Field(grid, vals.astype(np.float64, copy=True))


def mean(f: Field) -> float:
    """Domain average ``h^2 / L^2 * sum(values)`` (= plain average)."""
    return float(np.sum(f.values) / f.values.size)


def inner_l2(f: Field, g: Field) -> float:
    """Midpoint-quadrature L2 pairing ``h^2 * sum(f * g)``."""
    _check_same_grid(f, g)
    return float(f.grid.h**2 * np.sum(f.values * g.values))


def norm_l2(f: Field) -> float:
    return float(np.sqrt(f.grid.h**2 * np.sum(f.values**2)))


def norm_lp(f: Field, p: float) -> float:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((f.grid.h**2 * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def norm_linf(f: Field) -> float:
    return float(np.max(np.abs(f.values)))
