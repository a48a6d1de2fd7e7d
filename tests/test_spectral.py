import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfd import (
    Field,
    GridSpec,
    field_from_fn,
    hminus1_norm,
    inner_l2,
    invert_laplace_long,
    laplace_long,
    laplace_long_spectral,
    make_plan,
    norm_l2,
    precondition_solve,
)

from conftest import random_field


def mean_free(field):
    return Field(field.grid, field.values - np.mean(field.values))


def test_symbol_tables_match_formulas():
    grid = GridSpec(L=3.2, m=32)
    plan = make_plan(grid)
    k = np.fft.fftfreq(32, d=1.0 / 32)
    lam_std = -4.0 * np.sin(np.pi * k / 32) ** 2 / grid.h**2
    assert np.allclose(plan.lambda_std, lam_std, rtol=1e-14, atol=1e-12)
    assert np.allclose(plan.lambda_long, lam_std - grid.h**2 / 12 * lam_std**2,
                       rtol=1e-14, atol=1e-12)
    # the 2-D symbol is minus the sum of the per-axis ones: nonnegative,
    # zero exactly at the zero mode
    assert plan.Lambda_long.shape == (32, 17)
    assert plan.Lambda_long[0, 0] == 0.0
    assert np.all(plan.Lambda_long >= 0.0)
    assert np.count_nonzero(plan.Lambda_long == 0.0) == 1
    # Parseval column weights for the rfft layout (even m)
    assert plan.mode_weights[0] == 1.0 and plan.mode_weights[-1] == 1.0
    assert np.all(plan.mode_weights[1:-1] == 2.0)


def test_make_plan_rejects_tiny_grid():
    with pytest.raises(ValueError):
        make_plan(GridSpec(L=1.0, m=4))


def test_spectral_laplacian_matches_stencil(grid32):
    plan = make_plan(grid32)
    for seed in range(5):
        f = random_field(grid32, seed=seed)
        a = laplace_long(f).values
        b = laplace_long_spectral(plan, f).values
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_invert_is_inverse_up_to_mean(grid32):
    plan = make_plan(grid32)
    f = random_field(grid32, seed=9)
    g = Field(grid32, -laplace_long(f).values)
    back = invert_laplace_long(plan, g)
    expected = f.values - np.mean(f.values)
    assert np.allclose(back.values, expected, rtol=0, atol=1e-10 * np.max(np.abs(expected)))


def test_invert_requires_mean_free_input(grid32):
    plan = make_plan(grid32)
    g = Field(grid32, np.ones(grid32.shape))
    with pytest.raises(ValueError):
        invert_laplace_long(plan, g)


def test_hminus1_single_mode():
    """For one eigenmode the negative-index norm is ||f||_2 / sqrt(Lambda_k)."""
    grid = GridSpec(L=3.2, m=32)
    plan = make_plan(grid)
    k = 3
    f = field_from_fn(grid, lambda x, y: np.sin(2 * np.pi * k * x / grid.L) + 0 * y)
    s = np.sin(np.pi * k / grid.m)
    lam_std = -4.0 * s * s / grid.h**2
    Lam = -(lam_std - grid.h**2 / 12 * lam_std**2)
    assert hminus1_norm(plan, f) == pytest.approx(norm_l2(f) / np.sqrt(Lam), rel=1e-12)


def test_hminus1_matches_full_fft_oracle(grid32):
    """Independent route: complex 2-D FFT and an explicit Parseval sum."""
    plan = make_plan(grid32)
    f = mean_free(random_field(grid32, seed=11))
    m, h = grid32.m, grid32.h
    spec = np.fft.fft2(f.values)
    lam_std = -4.0 * np.sin(np.pi * np.fft.fftfreq(m)) ** 2 / h**2
    lam = lam_std - h**2 / 12 * lam_std**2
    Lam = -(lam[:, None] + lam[None, :])
    Lam[0, 0] = np.inf  # zero mode contributes nothing
    total = np.sum(np.abs(spec) ** 2 / Lam)
    oracle = np.sqrt(h**2 / m**2 * total)
    assert hminus1_norm(plan, f) == pytest.approx(oracle, rel=1e-12)


def test_hminus1_is_a_norm(grid32):
    plan = make_plan(grid32)
    f = mean_free(random_field(grid32, seed=13))
    assert hminus1_norm(plan, f) > 0
    two = Field(grid32, 2.0 * f.values)
    assert hminus1_norm(plan, two) == pytest.approx(2 * hminus1_norm(plan, f), rel=1e-12)


def test_preconditioner_single_mode():
    grid = GridSpec(L=3.2, m=32)
    plan = make_plan(grid)
    dt, eps, A = 0.01, 0.1, 1.0 / 16.0
    kx, ky = 2, 5
    a = 2 * np.pi / grid.L
    f = field_from_fn(grid, lambda x, y: np.sin(a * kx * x) * np.cos(a * ky * y))

    def lam1(k):
        s = np.sin(np.pi * k / grid.m)
        l0 = -4 * s * s / grid.h**2
        return l0 - grid.h**2 / 12 * l0 * l0

    Lam = -(lam1(kx) + lam1(ky))
    sigma = 1.0 / Lam + dt + dt * (eps**2 + A * dt) * Lam
    out = precondition_solve(plan, f, dt, eps, A)
    assert np.allclose(out.values, f.values / sigma, rtol=1e-12, atol=1e-14)


def test_preconditioner_requires_mean_free(grid32):
    plan = make_plan(grid32)
    with pytest.raises(ValueError):
        precondition_solve(plan, Field(grid32, np.ones(grid32.shape)), 0.01, 0.1, 0.0625)


def test_preconditioner_small_dt_limit(grid32):
    """As dt -> 0, sigma -> 1/Lambda, so the solve approaches -laplace applied to r."""
    plan = make_plan(grid32)
    r = mean_free(random_field(grid32, seed=17))
    tiny = precondition_solve(plan, r, 1e-12, 0.1, 0.0625)
    direct = Field(grid32, -laplace_long(r).values)
    assert np.allclose(tiny.values, direct.values, rtol=1e-6, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_inverse_laplacian_is_positive_definite(seed):
    grid = GridSpec(L=2.0, m=16)
    plan = make_plan(grid)
    f = mean_free(random_field(grid, seed))
    q = inner_l2(f, invert_laplace_long(plan, f))
    assert q >= 0.0
    assert hminus1_norm(plan, f) == pytest.approx(np.sqrt(q), rel=1e-12, abs=1e-15)

