import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chfd.grid
from chfd import (
    Field,
    GridMismatchError,
    GridSpec,
    field_from_fn,
    inner_l2,
    mean,
    norm_l2,
    norm_linf,
    norm_lp,
)

from conftest import brute_inner, random_field, random_values


def test_grid_spec_basic_geometry():
    grid = GridSpec(L=3.2, m=32)
    assert grid.h == pytest.approx(0.1)
    assert grid.shape == (32, 32)
    centers = grid.cell_centers()
    assert centers[0] == pytest.approx(0.05)
    assert centers[-1] == pytest.approx(3.2 - 0.05)
    assert np.allclose(np.diff(centers), grid.h)


def test_grid_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GridSpec(L=0.0, m=8)
    with pytest.raises(ValueError):
        GridSpec(L=1.0, m=1)
    for L in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GridSpec(L=L, m=8)


def test_field_shape_must_match_grid():
    grid = GridSpec(L=1.0, m=8)
    with pytest.raises(ValueError):
        Field(grid, np.zeros((8, 7)))


def test_field_from_fn_samples_cell_centers():
    # m = 4, L = 1: centers at 1/8, 3/8, 5/8, 7/8
    grid = GridSpec(L=1.0, m=4)
    f = field_from_fn(grid, lambda x, y: np.sin(2 * np.pi * x) + 0.0 * y)
    expected_col = np.sin(2 * np.pi * np.array([0.125, 0.375, 0.625, 0.875]))
    assert np.allclose(f.values, expected_col[:, None])


def test_mean_matches_compensated_sum(grid32):
    f = random_field(grid32, seed=1)
    oracle = math.fsum(f.values.ravel().tolist()) / f.values.size
    assert mean(f) == pytest.approx(oracle, rel=1e-14)


def test_inner_product_matches_brute_oracle(grid32):
    f = random_field(grid32, seed=2)
    g = random_field(grid32, seed=3)
    assert inner_l2(f, g) == pytest.approx(
        brute_inner(f.values, g.values, grid32.h), rel=1e-13
    )
    assert norm_l2(f) == pytest.approx(
        math.sqrt(brute_inner(f.values, f.values, grid32.h)), rel=1e-13
    )


def test_norms_constant_field():
    grid = GridSpec(L=2.0, m=10)
    c = Field(grid, np.full(grid.shape, -1.5))
    assert norm_linf(c) == 1.5
    # ||c||_2 = |c| * L
    assert norm_l2(c) == pytest.approx(1.5 * 2.0)
    assert norm_lp(c, 4) == pytest.approx(1.5 * 2.0**0.5)
    assert mean(c) == pytest.approx(-1.5)


def test_norm_lp_rejects_p_below_one(grid16):
    with pytest.raises(ValueError):
        norm_lp(random_field(grid16, seed=0), 0.5)


def test_mixing_grids_raises():
    f = Field(GridSpec(L=1.0, m=8), np.zeros((8, 8)))
    g = Field(GridSpec(L=2.0, m=8), np.zeros((8, 8)))
    with pytest.raises(GridMismatchError):
        inner_l2(f, g)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3))
def test_cauchy_schwarz(seed, scale):
    grid = GridSpec(L=1.7, m=12)
    f = Field(grid, random_values(grid.shape, seed, scale))
    g = Field(grid, random_values(grid.shape, seed + 1))
    lhs = abs(inner_l2(f, g))
    rhs = norm_l2(f) * norm_l2(g)
    assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_inner_product_is_bilinear(seed):
    grid = GridSpec(L=1.0, m=9)
    f = Field(grid, random_values(grid.shape, seed))
    g = Field(grid, random_values(grid.shape, seed + 1))
    w = Field(grid, random_values(grid.shape, seed + 2))
    combo = Field(grid, 2.0 * f.values - 3.0 * g.values)
    assert inner_l2(combo, w) == pytest.approx(
        2.0 * inner_l2(f, w) - 3.0 * inner_l2(g, w), rel=1e-11, abs=1e-13
    )


_TRANSFORMS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
               "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"}


def test_only_the_grid_module_transforms():
    """Every FFT goes through chfd.grid's transform pair: no other module
    calls numpy's transforms."""
    pkg = Path(chfd.grid.__file__).parent
    calls = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in _TRANSFORMS
                    and ast.unparse(node.value) in ("np.fft", "numpy.fft")):
                calls.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
                calls.append(f"{path.name}:{node.lineno} from numpy.fft import ...")
    assert calls == []
