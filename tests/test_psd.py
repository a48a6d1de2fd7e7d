import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from chfd import (
    Field,
    GridSpec,
    assemble_rhs,
    inner_l2,
    make_plan,
    mean,
    norm_l2,
)
import chfd.psd
from chfd.grid import GridMismatchError, full
from chfd.psd import (
    LineSearchCubic,
    SolverError,
    UpdateOperator,
    solve,
    workspace,
)
from chfd.scheme import SchemeParams, StepState, restart_flat, step

from conftest import (
    hessian_sigma,
    oracle_cubic,
    oracle_F,
    oracle_N,
    oracle_precondition,
    oracle_psd,
    oracle_residual,
    reference_psd,
    rhs_field,
)


def smooth_field(grid, seed, beta0=0.0, scale=0.3):
    """Band-limited random field with exact mean beta0 (smooth enough that
    the long-stencil Laplacian stays O(1))."""
    rng = np.random.default_rng(seed)
    a = 2 * np.pi / grid.L
    x = grid.cell_centers()
    vals = np.zeros(grid.shape)
    for kx in range(1, 4):
        for ky in range(0, 4):
            c1, c2 = rng.standard_normal(2)
            vals += c1 * np.sin(a * kx * x)[:, None] * np.cos(a * ky * x)[None, :]
            vals += c2 * np.cos(a * kx * x)[:, None] * np.sin(a * ky * x + 0.3)[None, :]
    vals *= scale / np.max(np.abs(vals))
    return Field(grid, vals - np.mean(vals) + beta0)


def smooth_state(grid, seed, beta0=0.0):
    return StepState(
        phi_prev=smooth_field(grid, seed, beta0),
        phi_curr=smooth_field(grid, seed + 1, beta0),
        t=0.0,
        beta0=beta0,
    )


def make_problem(m):
    grid = GridSpec(L=3.2, m=m)
    plan = make_plan(grid)
    params = SchemeParams(eps=0.1, dt=0.01)
    state = smooth_state(grid, seed=100, beta0=0.05)
    rhs = assemble_rhs(state, params, plan)
    return grid, plan, params, state, rhs


@pytest.fixture
def problem():
    return make_problem(32)


def first_search(op, state, phi, rhs):
    """(r^, d) of the operator at phi, as the first iteration of a solve from state."""
    op.start(state, np.fft.rfft2(phi), rhs)
    r_hat = op.residual(phi).copy()
    return r_hat, op.direction(r_hat)


def rel_gap(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# the update operator against the stencil-built oracles


def oracle_residual_hat(state, params, phi, rhs, plan):
    return np.fft.rfft2(oracle_residual(state, params, phi, rhs, plan).values)


def assert_operator_matches_oracles(grid, plan, params, state, rhs):
    op = UpdateOperator(plan, params)
    phi = 2.0 * state.phi_curr.values - state.phi_prev.values
    r_hat, d = first_search(op, state, phi, rhs)
    assert rel_gap(r_hat, oracle_residual_hat(state, params, phi, rhs, plan)) <= 1e-12
    r = Field(grid, np.fft.irfft2(r_hat, s=grid.shape))
    d_oracle = oracle_precondition(r, hessian_sigma(state, params))
    assert rel_gap(d, d_oracle.values) <= 1e-12
    # the two-pass inverse transform into the operator's buffer is irfft2, bit for bit
    assert np.array_equal(d, np.fft.irfft2(r_hat * op.inv_sigma, s=grid.shape))
    q = op.cubic(phi)
    q_oracle = oracle_cubic(state, params, phi, d_oracle, rhs, plan)
    for name in ("c0", "c1", "c2", "c3"):
        assert getattr(q, name) == pytest.approx(getattr(q_oracle, name), rel=1e-12), name
    # moving phi along d moves the linear part of the residual along S d, and
    # lowers the objective by the integral of the cubic
    alpha = q.root()
    moved = phi + alpha * d
    F_phi = oracle_F(state, params, phi, rhs, plan)
    op.move(phi, alpha)
    assert np.array_equal(phi, moved)
    assert rel_gap(op.residual(phi), oracle_residual_hat(state, params, moved, rhs, plan)) <= 1e-12
    F_moved = oracle_F(state, params, moved, rhs, plan)
    assert q.integral(alpha) == pytest.approx(F_moved - F_phi, rel=0, abs=1e-12 * abs(F_phi))


def assert_solve_matches_oracle_psd(grid, plan, params, state, rhs):
    phi, stats = solve(state, params, plan)
    phi_oracle, iterations = oracle_psd(state, params, rhs, plan)
    assert stats.iterations == iterations
    assert np.max(np.abs(phi.values - phi_oracle)) <= 1e-12


def test_operator_matches_stencil_oracles(problem):
    assert_operator_matches_oracles(*problem)


def test_solve_matches_oracle_psd_loop(problem, monkeypatch):
    monkeypatch.setattr(chfd.psd, "TOL_REL", 1e-12)
    assert_solve_matches_oracle_psd(*problem)


@pytest.mark.parametrize("m", [31, 33])
def test_odd_grids_match_the_oracles(m, monkeypatch):
    """An odd m has no Nyquist column in the rfft layout."""
    monkeypatch.setattr(chfd.psd, "TOL_REL", 1e-12)
    problem = make_problem(m)
    assert_operator_matches_oracles(*problem)
    assert_solve_matches_oracle_psd(*problem)


def test_solve_matches_paper_method_in_fewer_iterations(problem):
    grid, plan, params, state, rhs = problem
    phi, stats = solve(state, params, plan)
    phi_ref, ref_iterations = reference_psd(state, params, rhs, plan)
    assert rel_gap(phi.values, phi_ref) <= 1e-9
    assert stats.iterations < ref_iterations


def test_an_iteration_takes_one_transform_each_way(problem, fft_calls):
    """f, the history and so the guess come as spectra: start transforms nothing.
    Then each residual is one forward transform (rfft over axis 1, fft over 0) and
    each direction one inverse transform (ifft over axis 0, irfft over 1)."""
    grid, plan, params, state, rhs = problem
    _, stats = solve(state, params, plan)
    n = stats.iterations
    assert n > 3
    forward = n + 1
    assert {k: v for k, v in fft_calls.items() if v} == {
        "rfft": forward, "fft": forward, "ifft": n, "irfft": n}


def test_operators_share_no_memory(problem):
    """Two operators a caller builds, and the plan's own, have buffers of their
    own; they share only the plan's read-only 1/Lambda table."""
    grid, plan, params, state, rhs = problem
    ops = [UpdateOperator(plan, params), UpdateOperator(plan, params), workspace(plan, params)]

    def buffers(op):
        return [v for v in vars(op).values()
                if isinstance(v, np.ndarray) and v is not plan.inv_Lambda]

    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            for x in buffers(a):
                assert not any(np.shares_memory(x, y) for y in buffers(b))


# ---------------------------------------------------------------------------
# line search


def test_cubic_root_linear_case_is_exact():
    q = LineSearchCubic(c0=-3.0, c1=2.0, c2=0.0, c3=0.0)
    assert q.root() == 1.5


def test_cubic_root_matches_polynomial_oracle():
    q = LineSearchCubic(c0=-1.0, c1=2.0, c2=0.5, c3=0.25)
    roots = np.roots([q.c3, q.c2, q.c1, q.c0])
    real = [r.real for r in roots if abs(r.imag) < 1e-12]
    assert len(real) == 1
    alpha = q.root()
    assert alpha == pytest.approx(real[0], rel=1e-12)
    assert abs(q(alpha)) <= 1e-12 * abs(q.c0) + 1e-30


def test_cubic_root_positive_c0_side():
    q = LineSearchCubic(c0=0.7, c1=1.0, c2=-0.1, c3=0.05)
    alpha = q.root()
    assert alpha < 0
    assert abs(q(alpha)) <= 1e-12 * abs(q.c0) + 1e-30


def test_cubic_root_falls_back_to_bisection():
    """A Newton step from alpha = -c0/c1 leaves the bracket on this cubic (a
    large c3 against a tiny c1), so the root is found by the bisection fallback."""
    q = LineSearchCubic(c0=-2.163980789389032e-14, c1=1.0059650189960299e-08,
                        c2=-0.005638080803475959, c3=1099.0159358555973)
    alpha = q.root()
    assert 0.0 < alpha <= -4.0 * q.c0 / q.c1
    assert abs(q(alpha)) <= 1e-12 * abs(q.c0) + 1e-30


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cubic_root_far_inside_minus_c0_over_c1(sign):
    """With c1 tiny, -c0/c1 = 4.9e36 lies far past the root at 6.19: the bracket
    ends at the bound cbrt(4|c0|/c3), and Newton starts inside it.  The mirrored
    cubic, with c0 and c2 negated, has the root at -6.19."""
    q = LineSearchCubic(c0=-1233793985.3537195 * sign, c1=2.5214496627558908e-28,
                        c2=-5.296225977527366e-11 * sign, c3=5202884.904402137)
    alpha = q.root()
    assert alpha == pytest.approx(sign * 6.18965073, rel=1e-8)
    assert abs(q(alpha)) <= 1e-12 * abs(q.c0)


def test_cubic_requires_positive_slope():
    with pytest.raises(ValueError):
        LineSearchCubic(c0=-1.0, c1=-2.0, c2=0.0, c3=1.0).root()


def test_cubic_root_rejects_a_cubic_that_is_not_monotone():
    # c1 > 0 but c2^2 = 9 > 3 c1 c3 = 3: q falls between its two critical points
    with pytest.raises(ValueError, match="not monotone"):
        LineSearchCubic(c0=-1.0, c1=1.0, c2=-3.0, c3=1.0).root()


def test_line_search_minimizes_objective(problem):
    grid, plan, params, state, rhs = problem
    op = UpdateOperator(plan, params)
    phi = state.phi_curr.values
    _, d = first_search(op, state, phi, rhs)
    alpha = op.cubic(phi).root()

    def F_along(a):
        return oracle_F(state, params, phi + a * d, rhs, plan)

    scipy_best = minimize_scalar(F_along, bracket=(0.0, 2.0 * alpha)).x
    assert alpha == pytest.approx(scipy_best, rel=1e-5, abs=1e-10)
    assert F_along(alpha) < F_along(0.0)


def assert_bracketed(q):
    """The bound behind the root's bracket holds and the root is in it."""
    assert q.c2 * q.c2 <= 3.0 * q.c1 * q.c3
    assert 0.0 < q.root() <= -4.0 * q.c0 / q.c1


def test_line_search_cubic_coefficients_signs(problem):
    """At the current iterate the slope c0 is negative along the
    preconditioned residual, c1 > 0, c3 >= 0, c2^2 <= 3 c1 c3."""
    grid, plan, params, state, rhs = problem
    op = UpdateOperator(plan, params)
    phi = state.phi_curr.values
    r_hat, d = first_search(op, state, phi, rhs)
    q = op.cubic(phi)
    assert q.c0 < 0  # descent direction
    assert q.c1 > 0
    assert q.c3 >= 0
    assert_bracketed(q)
    r = Field(grid, np.fft.irfft2(r_hat, s=grid.shape))
    assert q.c0 == pytest.approx(-inner_l2(r, Field(grid, d)), rel=1e-10)


def test_restart_returns_a_descent_step(problem):
    """Where the PR+ direction is not a descent direction, it restarts at z."""
    grid, plan, params, state, rhs = problem
    phi = 2.0 * state.phi_curr.values - state.phi_prev.values
    r_hat, z = first_search(UpdateOperator(plan, params), state, phi, rhs)
    op = UpdateOperator(plan, params)
    op.start(state, np.fft.rfft2(phi), rhs)
    # after a previous residual -r, beta = 2 and z + beta d_prev = -z: ascent
    op.direction(-r_hat)
    d = op.direction(r_hat)
    assert rel_gap(d, z) <= 1e-12
    q = op.cubic(phi)
    assert q.c0 < 0.0
    alpha = q.root()
    assert alpha > 0.0
    F_new = oracle_F(state, params, phi + alpha * d, rhs, plan)
    assert F_new < oracle_F(state, params, phi, rhs, plan)


def test_zero_direction_rejected(problem):
    grid, plan, params, state, rhs = problem
    op = UpdateOperator(plan, params)
    phi = state.phi_curr.values
    r_hat, _ = first_search(op, state, phi, rhs)
    op.direction(np.zeros_like(r_hat))
    with pytest.raises(ValueError):
        op.cubic(phi).root()


# ---------------------------------------------------------------------------
# the solver


def test_solver_at_equilibrium_returns_immediately():
    grid = GridSpec(L=2.0, m=16)
    plan = make_plan(grid)
    params = SchemeParams(eps=0.1, dt=0.02)
    state = restart_flat(full(grid, -1.0))
    rhs = assemble_rhs(state, params, plan)
    phi, stats = solve(state, params, plan)
    assert stats.iterations == 0
    assert len(stats.residuals) == 1
    assert np.allclose(phi.values, -1.0, atol=1e-13)


def test_solver_reaches_tolerance_and_reports_true_residual(problem, monkeypatch):
    grid, plan, params, state, rhs = problem
    monkeypatch.setattr(chfd.psd, "TOL_REL", 1e-11)
    phi, stats = solve(state, params, plan)
    # returned phi is on the mass hyperplane
    assert mean(phi) == pytest.approx(state.beta0, abs=1e-13)
    # the solver's residual equals the oracle's at the solution, up to the
    # rounding of N itself (the two compute N along different routes)
    r_oracle = norm_l2(oracle_residual(state, params, phi.values, rhs, plan))
    n_scale = norm_l2(Field(grid, oracle_N(state, params, phi.values, plan)))
    assert stats.residuals[-1] == pytest.approx(r_oracle, rel=0, abs=1e-14 * n_scale)
    f = rhs_field(grid, rhs)
    f0 = f.values - f.values.mean()
    tol = 1e-15 * (1 + norm_l2(f)) + 1e-11 * norm_l2(Field(grid, f0))
    assert stats.residuals[-1] <= tol
    # N[phi] = f holds up to that tolerance
    gap = oracle_N(state, params, phi.values, plan) - f.values
    gap -= gap.mean()
    assert norm_l2(Field(grid, gap)) <= tol * 1.0000001


def test_objective_decreases_monotonically(problem):
    grid, plan, params, state, rhs = problem
    phi, stats = solve(state, params, plan)
    F = stats.objectives
    assert len(F) == stats.iterations + 1
    assert all(b <= a for a, b in zip(F, F[1:]))
    # the sum of the line-search decreases is the objective's change from the guess
    guess = 2.0 * state.phi_curr.values - state.phi_prev.values
    F_guess = oracle_F(state, params, guess, rhs, plan)
    assert F[0] == 0.0
    F_final = oracle_F(state, params, phi.values, rhs, plan)
    assert F[-1] == pytest.approx(F_final - F_guess, rel=0, abs=1e-12 * abs(F_guess))


def test_residuals_decay_geometrically(problem):
    grid, plan, params, state, rhs = problem
    _, stats = solve(state, params, plan)
    ratios = stats.residual_ratios
    assert len(ratios) == stats.iterations
    assert all(rt < 1.0 for rt in ratios)


def test_late_time_steps_at_large_dt_stay_healthy(monkeypatch):
    """Smoothed +-1 domains, started flat, at the second segment's dt of
    spinodal_full.yaml (eps = 0.03, h = 0.025): every solve converges with
    every residual ratio after the first below one and a monotone objective,
    and every PR+ line-search cubic has its root in the bracket."""
    cubics = []
    cubic = UpdateOperator.cubic

    def recorded(self, *args):
        cubics.append(cubic(self, *args))
        return cubics[-1]

    monkeypatch.setattr(UpdateOperator, "cubic", recorded)
    grid = GridSpec(L=1.6, m=64)
    plan = make_plan(grid)
    params = SchemeParams(eps=0.03, dt=0.04)
    smooth = smooth_field(grid, seed=3, scale=1.0).values
    state = restart_flat(Field(grid, np.tanh(smooth / 0.3)))  # interfaces about h wide
    for _ in range(4):
        state, diag = step(state, params, plan)
        assert all(rt < 1.0 for rt in diag.solve.residual_ratios[1:])
        F = diag.solve.objectives
        assert all(b <= a for a, b in zip(F, F[1:]))
    assert len(cubics) > 8
    for q in cubics:
        assert_bracketed(q)


@pytest.fixture
def one_iteration(monkeypatch):
    """A budget of one iteration toward a tolerance it cannot reach."""
    monkeypatch.setattr(chfd.psd, "MAX_ITER", 1)
    monkeypatch.setattr(chfd.psd, "TOL_REL", 1e-16)


def test_iteration_budget_exhaustion_raises(problem, one_iteration):
    grid, plan, params, state, rhs = problem
    with pytest.raises(SolverError) as err:
        solve(state, params, plan)
    assert len(err.value.residuals) == 2
    assert err.value.residuals[-1] > 0.0


def test_solver_error_names_step_time_and_residuals(problem, one_iteration):
    grid, plan, params, state, rhs = problem
    later = StepState(state.phi_prev, state.phi_curr, t=0.37, beta0=state.beta0, step_index=36)
    with pytest.raises(SolverError) as err:
        solve(later, params, plan)
    message = str(err.value)
    assert "step 37 " in message and "t=0.37" in message and "dt=0.01" in message
    for res in err.value.residuals:
        assert f"{res:.3e}" in message


def test_a_residual_that_is_not_finite_raises_solver_error(problem):
    """phi^3 overflows: the solve stops at the first residual and names the step."""
    grid, plan, params, state, rhs = problem
    huge = restart_flat(Field(grid, 1e120 * state.phi_curr.values))
    with np.errstate(all="ignore"), pytest.raises(SolverError) as err:
        solve(huge, params, plan)
    assert "step 1 (t=0, dt=0.01): residual not finite at iteration 0" in str(err.value)
    assert len(err.value.residuals) == 1


def test_state_on_another_grid_rejected(problem):
    """A state with the plan's m but another L: the same array shapes throughout."""
    grid, plan, params, state, rhs = problem
    wide = make_plan(GridSpec(L=2.0 * grid.L, m=grid.m))
    with pytest.raises(GridMismatchError):
        solve(state, params, wide)


def test_forcing_on_another_grid_rejected(problem):
    """A forcing with the plan's m but another L has the state's shape."""
    grid, plan, params, state, rhs = problem
    wide = GridSpec(L=2.0 * grid.L, m=grid.m)
    with pytest.raises(GridMismatchError):
        solve(state, params, plan, Field(wide, np.zeros(wide.shape)))
