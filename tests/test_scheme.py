import numpy as np
import pytest

import chfd.cli
import chfd.psd
from chfd import (
    Field,
    GridSpec,
    UpdateOperator,
    assemble_rhs,
    field_from_fn,
    ghost_init,
    inner_l2,
    laplace_long,
    make_plan,
    manufactured_solution,
    manufactured_source,
    manufactured_source_stencil,
    mean,
    norm_linf,
    restart_flat,
    step,
)
from chfd.grid import full
from chfd.scheme import SchemeParams, StepState, sample_source

from conftest import oracle_F, random_field, rhs_field


def flat_state(phi):
    return restart_flat(phi)


# ---------------------------------------------------------------------------
# reference solution and sources


def test_manufactured_solution_shape_and_scale():
    L = 3.2
    exact = manufactured_solution(L)
    grid = GridSpec(L=L, m=64)
    f = field_from_fn(grid, lambda x, y: exact(x, y, 0.0))
    amp = 1.0 / (2 * np.pi)
    assert 0.99 * amp <= norm_linf(f) <= amp  # peak sits between cell centers
    # separable in time: phi(t) = phi(0) cos(t)
    g = field_from_fn(grid, lambda x, y: exact(x, y, 0.7))
    assert np.allclose(g.values, f.values * np.cos(0.7), rtol=1e-14, atol=1e-16)
    assert abs(mean(f)) < 1e-16


def test_closed_form_source_matches_spectral_derivatives():
    """Oracle: build S = phi_t - lap(phi^3 - phi - eps^2 lap phi) with exact
    Fourier differentiation of the sampled field (it is band-limited, so the
    transform derivatives are exact up to roundoff)."""
    L, eps, t = 3.2, 0.1, 0.37
    grid = GridSpec(L=L, m=64)
    exact = manufactured_solution(L)
    phi = field_from_fn(grid, lambda x, y: exact(x, y, t)).values
    dphi_dt = field_from_fn(grid, lambda x, y: exact(x, y, t)).values * (
        -np.tan(t)
    )  # phi ~ cos(t): d/dt = -sin(t)/cos(t) * phi

    k = 2j * np.pi * np.fft.fftfreq(grid.m, d=grid.h)
    k2 = (k[:, None] ** 2 + k[None, :] ** 2).real

    def lap(v):
        return np.real(np.fft.ifft2(k2 * np.fft.fft2(v)))

    mu = phi**3 - phi - eps**2 * lap(phi)
    oracle = dphi_dt - lap(mu)
    sampled = sample_source(manufactured_source(eps, L), grid, t).values
    # bound reflects FFT roundoff through the k^4 biharmonic factor (~2e-11)
    assert np.max(np.abs(sampled - oracle)) < 1e-10


def test_stencil_source_makes_reference_exact_semidiscretely():
    """With the stencil-built forcing, the sampled reference field satisfies
    d/dt phi = lap4(phi^3 - phi - eps^2 lap4 phi) + S with zero spatial defect."""
    grid = GridSpec(L=3.2, m=32)
    eps, t = 0.1, 0.53
    exact = manufactured_solution(grid.L)
    phi = field_from_fn(grid, lambda x, y: exact(x, y, t))
    dphi_dt = Field(grid, -np.tan(t) * phi.values)
    mu = Field(grid, phi.values**3 - phi.values - eps**2 * laplace_long(phi).values)
    S = sample_source(manufactured_source_stencil(eps, grid), grid, t)
    defect = dphi_dt.values - laplace_long(mu).values - S.values
    assert np.max(np.abs(defect)) < 1e-14


def test_stencil_source_bound_to_its_grid():
    grid = GridSpec(L=3.2, m=32)
    other = GridSpec(L=3.2, m=16)
    src = manufactured_source_stencil(0.1, grid)
    with pytest.raises(ValueError):
        sample_source(src, other, 0.0)


def test_sample_source_projects_roundoff_mean(grid32):
    src = manufactured_source(0.1, grid32.L)
    s = sample_source(src, grid32, 1.3)
    assert abs(float(np.mean(s.values))) < 1e-18
    with pytest.raises(ValueError):
        sample_source(lambda x, y, t: x, grid32, 0.0)


# ---------------------------------------------------------------------------
# history initialization


def test_ghost_init_constant_field_is_stationary():
    grid = GridSpec(L=2.0, m=16)
    params = SchemeParams(eps=0.1, dt=0.01)
    c = full(grid, 0.3)
    state = ghost_init(c, params)
    assert np.array_equal(state.phi_prev.values, state.phi_curr.values)
    assert state.t == 0.0 and state.step_index == 0
    assert state.beta0 == pytest.approx(0.3)


def test_ghost_init_second_order_in_dt():
    """|phi^{-1} - phi_ref(-dt)| should shrink ~4x per dt halving."""
    grid = GridSpec(L=3.2, m=32)
    eps = 0.1
    exact = manufactured_solution(grid.L)
    phi0 = field_from_fn(grid, lambda x, y: exact(x, y, 0.0))
    src = manufactured_source_stencil(eps, grid)
    errs = []
    for dt in (0.04, 0.02, 0.01):
        state = ghost_init(phi0, SchemeParams(eps=eps, dt=dt), source=src)
        ref = field_from_fn(grid, lambda x, y: exact(x, y, -dt))
        errs.append(norm_linf(Field(grid, state.phi_prev.values - ref.values)))
    rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.9 <= r <= 2.1 for r in rates)


def test_restart_flat_duplicates_history(grid32):
    phi = random_field(grid32, seed=3)
    state = restart_flat(phi, t=2.5)
    assert np.array_equal(state.phi_prev.values, state.phi_curr.values)
    assert state.t == 2.5 and state.step_index == 0
    assert state.beta0 == pytest.approx(mean(phi))


# ---------------------------------------------------------------------------
# the critical-point problem: N[phi] = f


def test_rhs_for_constant_history_is_dt_c():
    grid = GridSpec(L=2.0, m=16)
    dt, c = 0.02, -0.4
    state = flat_state(full(grid, c))
    f = rhs_field(grid, assemble_rhs(state, SchemeParams(eps=0.1, dt=dt), make_plan(grid)))
    assert np.allclose(f.values, dt * c, rtol=1e-14, atol=1e-16)


def test_rhs_mean_is_dt_beta0(grid32):
    state = StepState(
        phi_prev=random_field(grid32, 5),
        phi_curr=random_field(grid32, 6),
        t=0.0,
        beta0=0.0,
    )
    dt = 0.015
    f = rhs_field(grid32, assemble_rhs(state, SchemeParams(eps=0.1, dt=dt), make_plan(grid32)))
    beta_curr = 2 * mean(state.phi_curr) - mean(state.phi_prev)
    assert mean(f) == pytest.approx(dt * beta_curr, rel=1e-12, abs=1e-16)


def test_rhs_matches_direct_formula(grid32):
    state = StepState(
        phi_prev=random_field(grid32, 7),
        phi_curr=random_field(grid32, 8),
        t=0.0,
        beta0=0.0,
    )
    dt, A = 0.01, 1.0 / 16.0
    f = rhs_field(grid32, assemble_rhs(state, SchemeParams(eps=0.1, dt=dt, A=A), make_plan(grid32)))
    direct = (
        2 * dt * state.phi_curr.values
        - dt * state.phi_prev.values
        - A * dt**2 * laplace_long(state.phi_curr).values
    )
    assert np.allclose(f.values, direct, rtol=1e-14, atol=1e-16)


def test_forced_rhs_adds_inverse_laplacian_of_source():
    """-lap4 of the source contribution must give back the sampled source."""
    grid = GridSpec(L=3.2, m=32)
    plan = make_plan(grid)
    eps, dt = 0.1, 0.01
    exact = manufactured_solution(grid.L)
    phi0 = field_from_fn(grid, lambda x, y: exact(x, y, 0.0))
    state = flat_state(phi0)
    src = manufactured_source(eps, grid.L)
    params = SchemeParams(eps=eps, dt=dt)
    diff_hat = assemble_rhs(state, params, plan, src) - assemble_rhs(state, params, plan)
    diff = rhs_field(grid, diff_hat)
    recovered = -laplace_long(Field(grid, diff.values / dt)).values
    expected = sample_source(src, grid, dt).values
    assert np.allclose(recovered, expected, rtol=0, atol=1e-10 * (1 + np.max(np.abs(expected))))


def test_objective_directional_derivative_is_residual():
    """Central difference of the oracle's F along mean-zero d equals (N[phi] - f, d)
    from the production residual."""
    grid = GridSpec(L=3.2, m=16)
    plan = make_plan(grid)
    params = SchemeParams(eps=0.1, dt=0.5)  # O(1) dt so every term matters
    beta0 = 0.04
    # the whole history must sit on one mass hyperplane
    prev_raw = random_field(grid, 31, scale=0.3)
    curr_raw = random_field(grid, 32, scale=0.3)
    state = StepState(
        phi_prev=Field(grid, prev_raw.values - mean(prev_raw) + beta0),
        phi_curr=Field(grid, curr_raw.values - mean(curr_raw) + beta0),
        t=0.0,
        beta0=beta0,
    )
    f = assemble_rhs(state, params, plan)
    phi = state.phi_curr
    d_raw = random_field(grid, 33).values
    d = Field(grid, d_raw - np.mean(d_raw))
    alpha = 1e-6

    def F_at(a):
        return oracle_F(state, params, phi.values + a * d.values, f, plan)

    fd = (F_at(alpha) - F_at(-alpha)) / (2 * alpha)
    op = UpdateOperator(plan, params, state)
    op.start(phi.values, f)
    # the residual is P0(f - N[phi]); d is mean-zero, so (N[phi] - f, d) = -(r, d)
    residual = Field(grid, np.fft.irfft2(op.residual(phi.values), s=grid.shape))
    assert fd == pytest.approx(-inner_l2(residual, d), rel=1e-6, abs=1e-10)


# ---------------------------------------------------------------------------
# stepping


def test_step_satisfies_update_equation_strong_form(monkeypatch):
    """Undo the inverse-Laplacian mapping and check the update as printed:
    (3 phi - 4 phi_k + phi_km1) / (2 dt)
      = lap4[phi^3 - (2 phi_k - phi_km1) - eps^2 lap4 phi - A dt lap4 (phi - phi_k)] + S.
    """
    grid = GridSpec(L=3.2, m=32)
    plan = make_plan(grid)
    eps, dt, A = 0.1, 0.01, 1.0 / 16.0
    exact = manufactured_solution(grid.L)
    phi0 = field_from_fn(grid, lambda x, y: exact(x, y, 0.0))
    src = manufactured_source_stencil(eps, grid)
    params = SchemeParams(eps=eps, dt=dt, A=A)
    state = ghost_init(phi0, params, source=src)
    monkeypatch.setattr(chfd.psd, "TOL_REL", 1e-12)
    new, _ = step(state, params, plan, source=src)

    phi = new.phi_curr.values
    lhs = (3 * phi - 4 * state.phi_curr.values + state.phi_prev.values) / (2 * dt)
    chem = (
        phi**3
        - (2 * state.phi_curr.values - state.phi_prev.values)
        - eps**2 * laplace_long(new.phi_curr).values
    )
    stab = A * dt * laplace_long(
        Field(grid, laplace_long(Field(grid, phi - state.phi_curr.values)).values)
    ).values
    rhs = (
        laplace_long(Field(grid, chem)).values
        - stab
        + sample_source(src, grid, dt).values
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-6 * (1 + np.max(np.abs(lhs)))


def test_step_conserves_mass_and_advances_time(grid32):
    plan = make_plan(grid32)
    params = SchemeParams(eps=0.1, dt=0.005)
    phi0 = Field(grid32, 0.05 + 0.1 * random_field(grid32, 50).values)
    state = ghost_init(phi0, params)
    for k in range(3):
        state, diag = step(state, params, plan)
        assert diag.record.step == k + 1
        assert state.t == pytest.approx((k + 1) * params.dt)
        assert diag.record.mass == pytest.approx(mean(phi0), abs=1e-12)
    assert state.step_index == 3


def test_step_decreases_modified_energy(grid32):
    plan = make_plan(grid32)
    params = SchemeParams(eps=0.1, dt=0.01)
    phi0 = Field(grid32, 0.2 * random_field(grid32, 51).values)
    state = ghost_init(phi0, params)
    e_mods = []
    for _ in range(5):
        state, diag = step(state, params, plan)
        e_mods.append(diag.record.E_mod)
    drops = np.diff(e_mods)
    assert np.all(drops <= 1e-10 * np.abs(e_mods[:-1]))


def test_a_steady_state_step_transforms_each_field_once(grid32, fft_calls):
    """Past the first step the history's spectra are cached: a step transforms
    the guess, each residual and the new field, and brings back only the
    search directions."""
    plan = make_plan(grid32)
    params = SchemeParams(eps=0.1, dt=0.01)
    state, _ = step(restart_flat(random_field(grid32, 53, scale=0.2)), params, plan)
    fft_calls.update(dict.fromkeys(fft_calls, 0))
    state, diag = step(state, params, plan)
    n = diag.solve.iterations
    assert n > 3
    assert {k: v for k, v in fft_calls.items() if v} == {"rfft2": n + 3, "ifft": n, "irfft": n}


def test_stepper_applies_lap4_without_stencil_rolls(grid32, monkeypatch):
    """ghost_init, the rhs, the solve and both energies run on the symbols."""
    plan = make_plan(grid32)
    params = SchemeParams(eps=0.1, dt=0.01)
    phi0 = Field(grid32, 0.2 * random_field(grid32, 52).values)

    def no_roll(*args, **kwargs):
        raise AssertionError("a stencil roll ran on the stepper path")

    monkeypatch.setattr(np, "roll", no_roll)
    state = ghost_init(phi0, params)
    state, diag = step(state, params, plan)
    assert state.step_index == 1
    assert np.isfinite(diag.record.E_mod) and diag.record.E_mod >= diag.record.E


def test_step_reaches_the_solver_through_the_psd_module(grid32, monkeypatch):
    """A wrapper patched onto chfd.psd.solve sees every solve of a step and a run."""
    calls = []
    solve = chfd.psd.solve

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(chfd.psd, "solve", counting)
    params = SchemeParams(eps=0.1, dt=0.01)
    step(restart_flat(Field(grid32, 0.2 * random_field(grid32, 53).values)), params,
         make_plan(grid32))
    assert len(calls) == 1
    config = chfd.cli.parse_config({
        "grid": {"m": 16}, "physics": {"eps": 0.1}, "schedule": [{"dt": 0.01, "t_end": 0.01}],
    })
    chfd.cli.run_simulation(config, write_outputs=False)
    assert len(calls) == 2


def test_pure_phase_is_an_equilibrium():
    grid = GridSpec(L=2.0, m=16)
    plan = make_plan(grid)
    params = SchemeParams(eps=0.1, dt=0.05)
    state = flat_state(full(grid, 1.0))
    new, diag = step(state, params, plan)
    assert np.allclose(new.phi_curr.values, 1.0, rtol=0, atol=1e-12)
    assert diag.solve.iterations == 0


def test_one_step_tracks_reference_solution():
    grid = GridSpec(L=3.2, m=32)
    plan = make_plan(grid)
    eps, dt = 0.1, 1e-3
    exact = manufactured_solution(grid.L)
    src = manufactured_source_stencil(eps, grid)
    params = SchemeParams(eps=eps, dt=dt)
    phi0 = field_from_fn(grid, lambda x, y: exact(x, y, 0.0))
    state = ghost_init(phi0, params, source=src)
    new, _ = step(state, params, plan, source=src)
    ref = field_from_fn(grid, lambda x, y: exact(x, y, dt))
    assert norm_linf(Field(grid, new.phi_curr.values - ref.values)) < 1e-7


def test_small_stabilization_warns():
    with pytest.warns(UserWarning):
        SchemeParams(eps=0.1, dt=0.01, A=0.0)


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(eps=0.0, dt=0.01)
    with pytest.raises(ValueError):
        SchemeParams(eps=0.1, dt=-1.0)
    with pytest.raises(ValueError, match="A must be nonnegative"):
        SchemeParams(eps=0.1, dt=0.01, A=-1.0)
