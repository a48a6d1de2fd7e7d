import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfd import (
    Field,
    GridSpec,
    d1_long,
    d2_long,
    d2_std,
    field_from_fn,
    grad_norm_sq_long,
    grad_norm_sq_std,
    inner_l2,
    laplace_long,
    laplace_std,
)
from chfd.operators import _laplace_long, _long_work

from conftest import (
    brute_d1_long,
    brute_d2_long,
    brute_d2_std,
    brute_laplace_long,
    brute_laplace_std,
    random_field,
)


@pytest.mark.parametrize("axis", [0, 1])
def test_stencils_match_brute_oracle_2d(grid32, axis):
    f = random_field(grid32, seed=10 + axis)
    h = grid32.h
    assert np.allclose(d1_long(f, axis).values, brute_d1_long(f.values, h, axis),
                       rtol=1e-13, atol=1e-13)
    assert np.allclose(d2_long(f, axis).values, brute_d2_long(f.values, h, axis),
                       rtol=1e-13, atol=1e-12)
    assert np.allclose(d2_std(f, axis).values, brute_d2_std(f.values, h, axis),
                       rtol=1e-13, atol=1e-12)


def rolled(v, k, axis):
    """(v[i - k], v[i + k]) at position i, by np.roll."""
    return np.roll(v, k, axis=axis), np.roll(v, -k, axis=axis)


@pytest.mark.parametrize("m", [5, 16, 17])
def test_stencils_equal_the_roll_form_bit_for_bit(m):
    """Each stencil's expression, evaluated on np.roll shifts, gives the same bits."""
    grid = GridSpec(L=2.7, m=m)
    f = random_field(grid, seed=m)
    v, h = f.values, grid.h
    lap_long, lap_std, grad_std, curvature = None, None, 0.0, []
    for axis in (0, 1):
        (m2, p2), (m1, p1) = rolled(v, 2, axis), rolled(v, 1, axis)
        d2l = (-(m2 + p2) + 16.0 * (m1 + p1) + -30.0 * v) / (12.0 * h**2)
        d2s = ((m1 + p1) + -2.0 * v) / h**2
        assert np.array_equal(d1_long(f, axis).values, ((m2 - p2) - 8.0 * (m1 - p1)) / (12.0 * h))
        assert np.array_equal(d2_long(f, axis).values, d2l)
        assert np.array_equal(d2_std(f, axis).values, d2s)
        lap_long = d2l if lap_long is None else lap_long + d2l
        lap_std = d2s if lap_std is None else lap_std + d2s
        diff = p1 - v
        grad_std += float(np.sum(diff * diff))
        curvature.append(float((h**2 / 12.0) * h**2 * np.sum(d2s * d2s)))
    assert np.array_equal(laplace_long(f).values, lap_long)
    assert np.array_equal(laplace_std(f).values, lap_std)
    assert grad_norm_sq_std(f) == grad_std
    assert grad_norm_sq_long(f) == (grad_std + curvature[0]) + curvature[1]


@pytest.mark.parametrize("m", [31, 32, 64])
def test_long_stencils_in_held_buffers_keep_the_bits(m):
    """d2_long, laplace_long and the kernel that writes into caller-held buffers
    give the bits of the five-point expression on np.roll shifts, also when
    one set of buffers serves several fields in turn."""
    grid = GridSpec(L=3.2, m=m)
    h = grid.h
    out, work = np.empty(grid.shape), _long_work(grid.shape)
    for seed in (m, m + 1):
        f = random_field(grid, seed=seed)
        v = f.values
        lap = None
        for axis in (0, 1):
            (m2, p2), (m1, p1) = rolled(v, 2, axis), rolled(v, 1, axis)
            d2l = (-(m2 + p2) + 16.0 * (m1 + p1) + -30.0 * v) / (12.0 * h**2)
            assert np.array_equal(d2_long(f, axis).values, d2l)
            lap = d2l if lap is None else lap + d2l
        assert np.array_equal(laplace_long(f).values, lap)
        assert _laplace_long(v, h, out, work) is out
        assert np.array_equal(out, lap)


def test_laplacians_match_brute_oracle(grid32):
    f = random_field(grid32, seed=12)
    assert np.allclose(laplace_long(f).values, brute_laplace_long(f.values, grid32.h),
                       rtol=1e-13, atol=1e-12)
    assert np.allclose(laplace_std(f).values, brute_laplace_std(f.values, grid32.h),
                       rtol=1e-13, atol=1e-12)


def test_second_derivative_row_weights():
    """Unit impulse exposes one stencil row: the raw coefficient tables."""
    grid = GridSpec(L=1.0, m=8)
    h = grid.h
    delta = np.zeros(grid.shape)
    delta[3, 4] = 1.0
    row = d2_long(Field(grid, delta), axis=0).values
    # output at i receives weight(i -> 3) = w[3 - i]
    expected = {1: -1.0, 2: 16.0, 3: -30.0, 4: 16.0, 5: -1.0}
    for i in range(8):
        want = expected.get(i, 0.0) / (12.0 * h * h)
        assert row[i, 4] == pytest.approx(want, abs=1e-18)
    assert np.all(row[:, :4] == 0.0) and np.all(row[:, 5:] == 0.0)

    row1 = d1_long(Field(grid, delta), axis=1).values
    expected1 = {2: -1.0, 3: 8.0, 5: -8.0, 6: 1.0}
    for j in range(8):
        assert row1[3, j] == pytest.approx(expected1.get(j, 0.0) / (12.0 * h), abs=1e-18)


def test_constants_annihilated_exactly():
    grid = GridSpec(L=3.0, m=16)
    c = Field(grid, np.full(grid.shape, 0.7))
    for op in (lambda g: d1_long(g), lambda g: d2_long(g), lambda g: d2_std(g),
               laplace_long, laplace_std):
        assert np.all(op(c).values == 0.0)
    assert grad_norm_sq_std(c) == 0.0
    assert grad_norm_sq_long(c) == 0.0


def test_single_mode_eigenvalue():
    """sin(2 pi k x / L) is an eigenvector; eigenvalue from the symbol formula."""
    grid = GridSpec(L=3.2, m=32)
    k = 5
    f = field_from_fn(grid, lambda x, y: np.sin(2 * np.pi * k * x / grid.L) + 0 * y)
    s = np.sin(np.pi * k / grid.m)
    lam_std = -4.0 * s * s / grid.h**2
    lam_long = lam_std - grid.h**2 / 12.0 * lam_std**2
    assert np.allclose(d2_std(f, axis=0).values, lam_std * f.values, rtol=1e-12, atol=1e-12)
    assert np.allclose(d2_long(f, axis=0).values, lam_long * f.values, rtol=1e-12, atol=1e-12)
    # first derivative on the same mode: (8 sin(th) - sin(2 th)) / (6 h) * cos
    th = 2 * np.pi * k / grid.m
    g = field_from_fn(grid, lambda x, y: np.cos(2 * np.pi * k * x / grid.L) + 0 * y)
    sym = (8 * np.sin(th) - np.sin(2 * th)) / (6 * grid.h)
    assert np.allclose(d1_long(f, axis=0).values, sym * g.values, rtol=1e-12, atol=1e-12)


def test_operators_are_self_adjoint(grid32):
    f = random_field(grid32, seed=20)
    g = random_field(grid32, seed=21)
    for op in (laplace_long, laplace_std, lambda u: d2_long(u, 1)):
        assert inner_l2(op(f), g) == pytest.approx(inner_l2(f, op(g)), rel=1e-11, abs=1e-11)
    # d1 is skew-adjoint
    assert inner_l2(d1_long(f), g) == pytest.approx(
        -inner_l2(f, d1_long(g)), rel=1e-10, abs=1e-11
    )


def test_gradient_energy_matches_quadratic_form(grid32):
    """Summation by parts: the gradient energies equal (f, -lap f)."""
    f = random_field(grid32, seed=22)
    assert grad_norm_sq_std(f) == pytest.approx(
        inner_l2(f, laplace_std(f)) * -1.0, rel=1e-12
    )
    assert grad_norm_sq_long(f) == pytest.approx(
        inner_l2(f, laplace_long(f)) * -1.0, rel=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), shift_x=st.integers(-16, 16), shift_y=st.integers(-16, 16))
def test_shift_equivariance_is_bitwise(seed, shift_x, shift_y):
    """Translating the field commutes with the stencil, exactly in floats."""
    grid = GridSpec(L=1.0, m=16)
    f = random_field(grid, seed)
    shifted = Field(grid, np.roll(f.values, (shift_x, shift_y), axis=(0, 1)))
    out = laplace_long(f).values
    assert np.array_equal(
        laplace_long(shifted).values, np.roll(out, (shift_x, shift_y), axis=(0, 1))
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_gradient_energies_nonnegative(seed):
    grid = GridSpec(L=2.3, m=12)
    f = random_field(grid, seed, scale=10.0)
    assert grad_norm_sq_std(f) >= 0.0
    assert grad_norm_sq_long(f) >= 0.0
    # the long-stencil energy dominates the standard one
    assert grad_norm_sq_long(f) >= grad_norm_sq_std(f)


def test_small_grids_rejected():
    tiny = GridSpec(L=1.0, m=4)
    f = Field(tiny, np.zeros(tiny.shape))
    with pytest.raises(ValueError):
        laplace_long(f)
    with pytest.raises(ValueError):
        d1_long(f)
    two = GridSpec(L=1.0, m=2)
    g = Field(two, np.zeros(two.shape))
    with pytest.raises(ValueError):
        laplace_std(g)
    ok = GridSpec(L=1.0, m=8)
    for bad_axis in (2, -1):
        with pytest.raises(ValueError):
            d2_long(Field(ok, np.zeros(ok.shape)), axis=bad_axis)
