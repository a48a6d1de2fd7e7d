import ast
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import chfd.cli
import chfd.operators
import chfd.psd
import chfd.scheme
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
from chfd.grid import GridMismatchError, full
from chfd.scheme import (
    MassDriftError,
    NonFiniteStateError,
    SchemeParams,
    StepState,
    sample_source,
)

from conftest import oracle_F, random_field, rhs_field


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
    src = manufactured_source_stencil(0.1, grid)
    for other in (GridSpec(L=3.2, m=16), GridSpec(L=6.4, m=32)):
        with pytest.raises(GridMismatchError):
            sample_source(src, other, 0.3)


def plain_stencil_source(eps, grid):
    """The stencil forcing as one expression on fresh arrays: the bits that
    manufactured_source_stencil must give."""
    exact = manufactured_solution(grid.L)
    envelope = field_from_fn(grid, lambda x, y: exact(x, y, 0.0)).values

    def S(x, y, t):
        u = Field(grid, envelope * np.cos(t))
        uv = u.values
        mu = uv * uv * uv - uv - eps**2 * laplace_long(u).values
        return -np.sin(t) * envelope - laplace_long(Field(grid, mu)).values

    return S


@pytest.mark.parametrize("m", [16, 32, 64])
def test_stencil_source_keeps_the_bits_of_the_plain_formula(m):
    grid = GridSpec(L=3.2, m=m)
    src, plain = manufactured_source_stencil(0.1, grid), plain_stencil_source(0.1, grid)
    for t in (0.0, 0.01, 0.32, 0.53, 1.7, -2.4):
        assert np.array_equal(sample_source(src, grid, t).values,
                              sample_source(plain, grid, t).values)


def held_arrays(source):
    """The arrays a source's closure holds, alone or in tuples."""
    cells = [c.cell_contents for c in source.__closure__]
    items = [a for c in cells for a in (c if isinstance(c, tuple) else (c,))]
    return [a for a in items if isinstance(a, np.ndarray)]


def test_stencil_source_returns_new_arrays_and_owns_its_buffers():
    """A sample is never overwritten by a later one, and sources on different
    grids (here the same m, or the same L) hold no buffer in common."""
    grid = GridSpec(L=3.2, m=32)
    src = manufactured_source_stencil(0.1, grid)
    x = grid.cell_centers()
    first = src(x[:, None], x[None, :], 0.3)
    kept = first.copy()
    src(x[:, None], x[None, :], 1.1)
    again = src(x[:, None], x[None, :], 0.3)
    assert np.array_equal(first, kept) and np.array_equal(again, kept)
    assert not np.shares_memory(first, again)
    assert not any(np.shares_memory(first, a) for a in held_arrays(src))
    for other in (GridSpec(L=6.4, m=32), GridSpec(L=3.2, m=16)):
        theirs = held_arrays(manufactured_source_stencil(0.1, other))
        assert not any(np.shares_memory(a, b) for a in held_arrays(src) for b in theirs)


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
    state = restart_flat(full(grid, c))
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
    state = restart_flat(phi0)
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
    op = UpdateOperator(plan)
    op.start(state, params, phi.spectrum)
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


@pytest.mark.parametrize("errors", [(1e-13, 3e-13), (1e-13, 3e-13, 2e-13)],
                         ids=["two-level", "three-level"])
def test_a_step_puts_the_new_field_on_the_mass_of_beta0(grid32, errors):
    """A history's means carry rounding that the extrapolated guess would sum
    (to -1e-13 and -4e-13 here); the new field's mean is beta0 to rounding, so
    the drift cannot grow over a long run."""
    beta0 = 0.05
    base = 0.1 * random_field(grid32, 60).values
    base += beta0 - np.mean(base)
    drift = np.sin(base)
    drift -= np.mean(drift)
    curr, prev, *prev2 = (Field(grid32, base - (0.01 * k) * drift + e)
                          for k, e in enumerate(errors))
    state = StepState(phi_prev=prev, phi_curr=curr, t=0.3, beta0=beta0, step_index=30,
                      phi_prev2=prev2[0] if prev2 else None)
    new, diag = step(state, SchemeParams(eps=0.1, dt=0.01), make_plan(grid32))
    assert abs(mean(new.phi_curr) - beta0) <= 1e-15 * (1.0 + abs(beta0))
    assert diag.record.mass == mean(new.phi_curr)


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
    """Past the first step the history's spectra are cached, and the guess's
    spectrum is formed from them: a step transforms each residual and the new
    field, and brings back only the search directions."""
    plan = make_plan(grid32)
    params = SchemeParams(eps=0.1, dt=0.01)
    state, _ = step(restart_flat(random_field(grid32, 53, scale=0.2)), params, plan)
    fft_calls.update(dict.fromkeys(fft_calls, 0))
    state, diag = step(state, params, plan)
    n = diag.solve.iterations
    assert n > 3
    assert {k: v for k, v in fft_calls.items() if v} == {
        "rfft": n + 2, "fft": n + 2, "ifft": n, "irfft": n}


def test_a_steady_state_step_allocates_only_its_new_field():
    """Past the plan's first solve, the rhs, the solve and the diagnostics work in
    the plan's workspace: the traced peak over a step (numpy's allocations and
    the rest) stays under five fields, and of numpy's allocations only the new
    field and its spectrum outlive the step."""
    grid = GridSpec(L=12.8, m=64)
    plan = make_plan(grid)
    params = SchemeParams(eps=0.05, dt=0.01)
    state = restart_flat(random_field(grid, 54, scale=0.1))
    for _ in range(2):
        state, _ = step(state, params, plan)
    assert state.phi_prev2 is not None  # the guess takes three levels
    tracemalloc.start()
    try:
        state, diag = step(state, params, plan)
        _, peak = tracemalloc.get_traced_memory()
        kept = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    assert diag.solve.iterations > 3
    field_bytes = state.phi_curr.values.nbytes
    assert peak < 5 * field_bytes
    assert sum(t.size for t in kept.traces) == field_bytes + state.phi_curr.spectrum.nbytes


def test_states_stepped_alternately_match_each_stepped_alone(grid32):
    """Two histories share a plan's workspace, one solve after the other; a solve
    reads nothing that the other left in it."""
    params = SchemeParams(eps=0.1, dt=0.01)
    starts = [restart_flat(random_field(grid32, 55, scale=0.2)),
              restart_flat(Field(grid32, 0.1 + random_field(grid32, 56, scale=0.3).values))]

    def stepped_alone(state):
        plan = make_plan(grid32)
        for _ in range(4):
            state, _ = step(state, params, plan)
        return state.phi_curr.values

    plan = make_plan(grid32)
    states = list(starts)
    for _ in range(4):
        states = [step(state, params, plan)[0] for state in states]
    for start, state in zip(starts, states):
        assert np.array_equal(state.phi_curr.values, stepped_alone(start))


def test_a_plan_keeps_one_operator_across_a_dt_switch(grid32):
    """The plan's operator serves every dt, and it is gone with the plan."""
    plan = make_plan(grid32)
    state, _ = step(restart_flat(random_field(grid32, 57, scale=0.2)),
                    SchemeParams(eps=0.1, dt=0.01), plan)
    op = chfd.psd.workspace(plan)
    step(state, SchemeParams(eps=0.1, dt=0.02), plan)
    assert chfd.psd.workspace(plan) is op
    kept = weakref.ref(op)
    del op, plan
    gc.collect()
    assert kept() is None


def test_a_step_after_a_dt_switch_matches_one_on_a_fresh_plan(grid32):
    """A step at a new dt restarts the history flat, and the reused operator sets
    its coefficients for that dt in place: the two steps after a switch equal,
    bit for bit, the same steps from a flat history built afresh, in a fresh
    plan's new operator."""
    first, second = SchemeParams(eps=0.1, dt=0.01), SchemeParams(eps=0.1, dt=0.02)
    plan = make_plan(grid32)
    state = restart_flat(random_field(grid32, 58, scale=0.2))
    for _ in range(3):
        state, _ = step(state, first, plan)
    assert state.dt == first.dt and state.phi_prev2 is not None
    reused = state
    fresh = StepState(phi_prev=state.phi_curr, phi_curr=state.phi_curr, t=state.t,
                      beta0=state.beta0, step_index=state.step_index)
    fresh_plan = make_plan(grid32)
    for _ in range(2):
        reused, reused_diag = step(reused, second, plan)
        fresh, fresh_diag = step(fresh, second, fresh_plan)
        assert np.array_equal(reused.phi_curr.values, fresh.phi_curr.values)
        assert reused_diag.record == fresh_diag.record


def held_levels(state):
    """Which of the history's third and fourth levels a state holds."""
    return (state.phi_prev2 is not None, state.phi_prev3 is not None)


def test_a_flat_history_first_starts_from_four_levels_on_its_fourth_step(grid32, solve_starts):
    """A flat history gains a level a step: its third step starts from
    3 phi_2 - 3 phi_1 + phi_0, and its fourth is the first to start from
    4 phi_3 - 6 phi_2 + 4 phi_1 - phi_0, which the three-level guess misses."""
    plan, params = make_plan(grid32), SchemeParams(eps=0.1, dt=0.01)
    state = restart_flat(random_field(grid32, 62, scale=0.2))
    spectra = [state.phi_curr.spectrum]
    for _ in range(5):
        state, _ = step(state, params, plan)
        spectra.append(state.phi_curr.spectrum)
    assert [held_levels(s["state"]) for s in solve_starts] == [
        (False, False), (False, False), (True, False), (True, True), (True, True)]

    def gap(j, weights):
        """Largest gap, off the zero mode, between step j's guess and the
        extrapolation with ``weights`` of phi_{j-1}, phi_{j-2}, ..."""
        g = solve_starts[j - 1]["guess_hat"] - sum(
            w * spectra[j - 1 - i] for i, w in enumerate(weights))
        g[0, 0] = 0.0
        return np.max(np.abs(g)) / np.max(np.abs(spectra[j]))

    cubic, quadratic = (4.0, -6.0, 4.0, -1.0), (3.0, -3.0, 1.0)
    assert gap(3, quadratic) <= 1e-14
    assert gap(4, cubic) <= 1e-14 and gap(5, cubic) <= 1e-14
    assert gap(4, quadratic) > 1e-9


def test_a_dt_switch_drops_the_fourth_level(grid32, solve_starts):
    """A history that holds four levels restarts flat at a new dt: the first solve
    after the switch steps from neither phi_prev2 nor phi_prev3, and the four
    steps from there equal, bit for bit, those from a flat history built afresh."""
    first, second = SchemeParams(eps=0.1, dt=0.01), SchemeParams(eps=0.1, dt=0.02)
    plan = make_plan(grid32)
    state = restart_flat(random_field(grid32, 63, scale=0.2))
    for _ in range(4):
        state, _ = step(state, first, plan)
    assert held_levels(state) == (True, True)
    fresh = StepState(phi_prev=state.phi_curr, phi_curr=state.phi_curr, t=state.t,
                      beta0=state.beta0, step_index=state.step_index)
    solve_starts.clear()
    for _ in range(4):
        state, diag = step(state, second, plan)
        fresh, fresh_diag = step(fresh, second, plan)
        assert np.array_equal(state.phi_curr.values, fresh.phi_curr.values)
        assert diag.record == fresh_diag.record
    assert [held_levels(s["state"]) for s in solve_starts[::2]] == [
        (False, False), (False, False), (True, False), (True, True)]


def test_a_ghost_history_stepped_at_another_dt_restarts_flat(grid32):
    """ghost_init's history holds its dt: two steps at 2 dt equal, bit for bit,
    the same steps from restart_flat(phi0)."""
    params, doubled = SchemeParams(eps=0.1, dt=0.01), SchemeParams(eps=0.1, dt=0.02)
    phi0 = random_field(grid32, 61, scale=0.2)
    ghost, flat = ghost_init(phi0, params), restart_flat(phi0)
    assert ghost.dt == params.dt and flat.dt is None
    plan = make_plan(grid32)
    for _ in range(2):
        ghost, ghost_diag = step(ghost, doubled, plan)
        flat, flat_diag = step(flat, doubled, plan)
        assert np.array_equal(ghost.phi_curr.values, flat.phi_curr.values)
        assert ghost_diag.record == flat_diag.record


def test_a_dt_switch_allocates_no_more_than_a_steady_step():
    """The first step after a switch sets S and the rhs symbol in the operator's
    own buffers: its traced peak is that of the same step taken again, once the
    operator holds the new dt.  The slack of a quarter field covers numpy's
    small-buffer cache, which moves a peak by some hundred bytes; a new
    operator would add about nine fields."""
    grid = GridSpec(L=12.8, m=64)
    plan = make_plan(grid)
    first, second = SchemeParams(eps=0.05, dt=0.01), SchemeParams(eps=0.05, dt=0.04)
    state = restart_flat(random_field(grid, 59, scale=0.1))
    for _ in range(2):
        state, _ = step(state, first, plan)

    def traced_peak():
        tracemalloc.start()
        try:
            step(state, second, plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    after_switch = traced_peak()
    assert after_switch <= traced_peak() + state.phi_curr.values.nbytes // 4


def test_stepper_applies_lap4_without_stencil_rolls(grid32, monkeypatch):
    """ghost_init, the rhs, the solve and both energies run on the symbols:
    no stencil of chfd.operators reads its neighbours on the stepper path."""
    plan = make_plan(grid32)
    params = SchemeParams(eps=0.1, dt=0.01)
    phi0 = Field(grid32, 0.2 * random_field(grid32, 52).values)

    def no_stencil(*args, **kwargs):
        raise AssertionError("a stencil ran on the stepper path")

    monkeypatch.setattr(chfd.operators, "_shifts", no_stencil)
    state = ghost_init(phi0, params)
    state, diag = step(state, params, plan)
    assert state.step_index == 1
    assert np.isfinite(diag.record.E_mod) and diag.record.E_mod >= diag.record.E


def test_no_stepper_module_imports_the_stencils():
    """The stencils of chfd.operators are an oracle and what the verification
    studies measure: no module that a run executes imports them."""
    pkg = Path(chfd.cli.__file__).parent
    for name in ("grid", "spectral", "psd", "scheme", "diagnostics", "io", "rng"):
        imported = set()
        for node in ast.walk(ast.parse((pkg / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["chfd" if node.level else "", node.module]))
                imported.add(base)
                imported.update(f"{base}.{alias.name}" for alias in node.names)
        assert "chfd.operators" not in imported, name


def test_only_the_stepper_builds_histories():
    """chfd.scheme alone makes and restarts a StepState: no other module of the
    package calls StepState(...) or dataclasses.replace(...)."""
    pkg = Path(chfd.cli.__file__).parent
    calls = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "scheme.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name.split(".")[-1] == "StepState" or name == "dataclasses.replace":
                    calls.append(f"{path.name}:{node.lineno} {name}(...)")
            elif (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                    and any(alias.name == "replace" for alias in node.names)):
                calls.append(f"{path.name}:{node.lineno} from dataclasses import replace")
    assert calls == []


@pytest.mark.parametrize("corrupt, error", [
    (lambda v: np.where(v > 0.1, np.nan, v), NonFiniteStateError),
    pytest.param(lambda v: np.where(v > 0.1, np.inf, v), NonFiniteStateError, id="inf"),
    pytest.param(lambda v: np.where(v > 0.1, -np.inf, v), NonFiniteStateError, id="-inf"),
    (lambda v: v + 1e-6, MassDriftError),
])
def test_step_rejects_a_solve_that_breaks_an_invariant(grid32, monkeypatch, corrupt, error):
    solve = chfd.psd.solve

    def broken(*args, **kwargs):
        phi, stats = solve(*args, **kwargs)
        return Field(phi.grid, corrupt(phi.values)), stats

    monkeypatch.setattr(chfd.psd, "solve", broken)
    state = restart_flat(Field(grid32, 0.2 * random_field(grid32, 53).values))
    with pytest.raises(error, match="step 1"):
        step(state, SchemeParams(eps=0.1, dt=0.01), make_plan(grid32))


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
    state = restart_flat(full(grid, 1.0))
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


def forced_steps(n, dt=0.01, m=16):
    """n steps of the forced reference problem from its ghost history: the last
    state, the last diagnostics, the plan and the parameters."""
    grid = GridSpec(L=3.2, m=m)
    plan = make_plan(grid)
    exact = manufactured_solution(grid.L)
    src = manufactured_source_stencil(0.1, grid)
    params = SchemeParams(eps=0.1, dt=dt)
    state = ghost_init(field_from_fn(grid, lambda x, y: exact(x, y, 0.0)), params, source=src)
    for _ in range(n):
        state, diag = step(state, params, plan, source=src)
    return state, diag, plan, params


def test_a_forced_step_forms_no_energies(monkeypatch):
    """The energy law covers only the unforced scheme: a forced step calls neither
    energy, and its record and state hold None; its mass is still checked."""
    def no_energy(*args, **kwargs):
        raise AssertionError("a forced step formed an energy")

    monkeypatch.setattr(chfd.scheme, "energy", no_energy)
    monkeypatch.setattr(chfd.scheme, "modified_energy", no_energy)
    state, diag, _, _ = forced_steps(4)
    assert state.phi_prev3 is not None  # steps from four levels ran too
    assert (diag.record.E, diag.record.E_mod, state.E_mod) == (None, None, None)
    assert diag.record.mass == mean(state.phi_curr)

    solve = chfd.psd.solve

    def drifting(*args, **kwargs):
        phi, stats = solve(*args, **kwargs)
        return Field(phi.grid, phi.values + 1e-6), stats

    monkeypatch.setattr(chfd.psd, "solve", drifting)
    with pytest.raises(MassDriftError, match="step 1"):
        forced_steps(1)


def test_an_unforced_step_after_forced_ones_forms_its_energies(monkeypatch):
    """The state that a forced step leaves holds no E_mod, so the energy guard of
    the next, loosened, unforced step is idle even where it would solve again on
    any E_mod (a rise tolerance of -1); that step records finite energies."""
    state, _, plan, params = forced_steps(3)
    monkeypatch.setattr(chfd.scheme, "_EMOD_RISE_TOL", -1.0)
    new, diag = step(state, params, plan)
    assert diag.solve.rel_tol > chfd.psd.TOL_REL and diag.solve.resolves == 0
    E, E_mod = diag.record.E, diag.record.E_mod
    assert np.isfinite(E) and np.isfinite(E_mod) and E_mod >= E
    assert new.E_mod == E_mod
    # the guard acts on the step after it, which has the E_mod to compare with
    _, diag = step(new, params, plan)
    assert diag.solve.resolves == 1


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
    nan, inf = float("nan"), float("inf")
    for kwargs, name in [({"eps": nan, "dt": 0.01}, "eps"), ({"eps": inf, "dt": 0.01}, "eps"),
                         ({"eps": 0.1, "dt": nan}, "dt"), ({"eps": 0.1, "dt": inf}, "dt"),
                         ({"eps": 0.1, "dt": 0.01, "A": nan}, "A"),
                         ({"eps": 0.1, "dt": 0.01, "A": inf}, "A")]:
        with pytest.raises(ValueError, match=f"{name} must be .* and finite"):
            SchemeParams(**kwargs)
