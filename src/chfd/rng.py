"""Deterministic random fields from a splitmix64 stream.

The generator is fixed by the documented output contract (seed + counter in,
uint64 out), so runs are reproducible bit-for-bit across machines and across
reimplementations in other languages — which `numpy.random` deliberately does
not promise.  The whole stream for a field is produced in one vectorized pass;
numpy's uint64 arithmetic wraps mod 2^64, which is exactly what the algorithm
needs.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, GridSpec

__all__ = ["splitmix64", "unit_floats", "random_initial_field"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Outputs ``start .. start+n-1`` of the splitmix64 stream for ``seed``.

    Output k mixes the state ``seed + (k+1) * GAMMA`` (the first advance
    happens before the first output, matching the reference implementation).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def unit_floats(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Floats in [0, 1) with 53 random bits each: (u64 >> 11) * 2^-53."""
    return (splitmix64(seed, n, start) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def random_initial_field(grid: GridSpec, mean: float, amplitude: float, seed: int) -> Field:
    """Uniform field mean + amplitude*(2r - 1), filled in row-major order."""
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    r = unit_floats(seed, grid.m**2)
    values = mean + amplitude * (2.0 * r - 1.0)
    return Field(grid, values.reshape(grid.shape))
