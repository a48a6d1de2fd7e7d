import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfd import (
    Field,
    GridMismatchError,
    GridSpec,
    field_from_fn,
    hminus1_norm,
    inner_l2,
    invert_laplace_long,
    laplace_long,
    laplace_long_spectral,
    make_plan,
    norm_l2,
)
from chfd.psd import UpdateOperator
from chfd.scheme import SchemeParams, restart_flat
from chfd.grid import _irfft2, _rfft2
from chfd.spectral import _inner

from conftest import random_field


def mean_free(field):
    return Field(field.grid, field.values - np.mean(field.values))


def test_symbol_tables_match_formulas():
    grid = GridSpec(L=3.2, m=32)
    plan = make_plan(grid)
    k = np.fft.fftfreq(32, d=1.0 / 32)
    lam_std = -4.0 * np.sin(np.pi * k / 32) ** 2 / grid.h**2
    # column 0 pairs each mode with the zero mode, whose symbol vanishes
    assert np.allclose(-plan.Lambda_long[:, 0], lam_std - grid.h**2 / 12 * lam_std**2,
                       rtol=1e-14, atol=1e-12)
    # the 2-D symbol is minus the sum of the per-axis ones: nonnegative,
    # zero exactly at the zero mode
    assert plan.Lambda_long.shape == (32, 17)
    assert plan.Lambda_long[0, 0] == 0.0
    assert np.all(plan.Lambda_long >= 0.0)
    assert np.count_nonzero(plan.Lambda_long == 0.0) == 1


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


def test_spectral_operators_reject_a_plan_for_another_grid(grid32):
    """Same m, another L: the shapes agree and only the grids tell them apart."""
    wide = make_plan(GridSpec(L=2.0 * grid32.L, m=grid32.m))
    f = mean_free(random_field(grid32, seed=10))
    with pytest.raises(GridMismatchError):
        laplace_long_spectral(wide, f)
    with pytest.raises(GridMismatchError):
        invert_laplace_long(wide, f)


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


@pytest.mark.parametrize("m", [16, 15])
def test_spectral_inner_product_matches_grid_sum(m):
    grid = GridSpec(L=2.0, m=m)
    u, v = random_field(grid, seed=21), random_field(grid, seed=22)
    got = _inner(grid, np.fft.rfft2(u.values), np.fft.rfft2(v.values))
    assert got == pytest.approx(inner_l2(u, v), rel=0, abs=1e-13 * norm_l2(u) * norm_l2(v))


@pytest.mark.parametrize("m", [5, 16, 17, 32])
def test_one_dimensional_passes_equal_the_2d_transforms_bit_for_bit(m):
    """_rfft2 and _irfft2 make the passes of np.fft.rfft2 and irfft2, in their order."""
    grid = GridSpec(L=2.0, m=m)
    values = random_field(grid, seed=m).values
    want = np.fft.rfft2(values)
    out = np.empty_like(want)
    assert np.array_equal(_rfft2(values), want)
    assert _rfft2(values, out=out) is out and np.array_equal(out, want)

    # not the spectrum of a real field: its zero and Nyquist columns lose their symmetry
    spec = want * np.random.default_rng(m).uniform(0.5, 1.5, want.shape)
    back = np.fft.irfft2(spec, s=grid.shape)
    kept = spec.copy()
    assert np.array_equal(_irfft2(spec, m), back)
    real_out, work = np.empty(grid.shape), np.empty_like(spec)
    assert _irfft2(spec, m, out=real_out, work=work) is real_out
    assert np.array_equal(real_out, back)
    assert np.array_equal(spec, kept)  # the first pass went to work
    assert np.array_equal(_irfft2(spec, m, work=spec), back)  # in place, when spec is spent


def test_hminus1_is_a_norm(grid32):
    plan = make_plan(grid32)
    f = mean_free(random_field(grid32, seed=13))
    assert hminus1_norm(plan, f) > 0
    two = Field(grid32, 2.0 * f.values)
    assert hminus1_norm(plan, two) == pytest.approx(2 * hminus1_norm(plan, f), rel=1e-12)


def test_preconditioner_single_mode():
    """The first search direction of a solve is d = r / sigma, with sigma =
    S + 3 dt mean(phi_k^2) the Hessian symbol of the update, and the
    line-search cubic's c1 at phi = 0 is (d, S d) = S / sigma^2 |r|^2."""
    grid = GridSpec(L=3.2, m=32)
    plan = make_plan(grid)
    dt, eps, A = 0.01, 0.1, 1.0 / 16.0
    kx, ky = 2, 5
    a = 2 * np.pi / grid.L
    f = field_from_fn(grid, lambda x, y: np.sin(a * kx * x) * np.cos(a * ky * y))
    phi_k = random_field(grid, seed=19, scale=0.5)
    op = UpdateOperator(plan, SchemeParams(eps=eps, dt=dt, A=A))
    zero = np.zeros_like(plan.inv_Lambda, complex)
    op.start(restart_flat(phi_k), zero, zero)

    def lam1(k):
        s = np.sin(np.pi * k / grid.m)
        l0 = -4 * s * s / grid.h**2
        return l0 - grid.h**2 / 12 * l0 * l0

    Lam = -(lam1(kx) + lam1(ky))
    S = 1.5 / Lam + dt * (eps**2 + A * dt) * Lam
    sigma = S + 3 * dt * np.mean(phi_k.values**2)
    d = op.direction(np.fft.rfft2(f.values))
    assert np.allclose(d, f.values / sigma, rtol=1e-12, atol=1e-14)
    c1 = op.cubic(np.zeros(grid.shape)).c1
    assert c1 == pytest.approx(S / sigma**2 * inner_l2(f, f), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_inverse_laplacian_is_positive_definite(seed):
    grid = GridSpec(L=2.0, m=16)
    plan = make_plan(grid)
    f = mean_free(random_field(grid, seed))
    q = inner_l2(f, invert_laplace_long(plan, f))
    assert q >= 0.0
    assert hminus1_norm(plan, f) == pytest.approx(np.sqrt(q), rel=1e-12, abs=1e-15)

