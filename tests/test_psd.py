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
    precondition_solve,
)
from chfd.grid import full
from chfd.psd import (
    LineSearchCubic,
    PsdConfig,
    SolverError,
    UpdateOperator,
    solve,
)
from chfd.scheme import SchemeParams, StepState, restart_flat

from conftest import (
    oracle_cubic,
    oracle_F,
    oracle_N,
    oracle_psd,
    oracle_residual,
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


@pytest.fixture
def problem():
    grid = GridSpec(L=3.2, m=32)
    plan = make_plan(grid)
    params = SchemeParams(eps=0.1, dt=0.01)
    state = smooth_state(grid, seed=100, beta0=0.05)
    rhs = assemble_rhs(state, params, plan)
    return grid, plan, params, state, rhs


def first_search(op, state, phi, rhs):
    """(lin, r, d, Sd) of the operator at phi, as the first iteration of a solve."""
    lin, _ = op.start(state, phi, rhs.values)
    r = rhs.values - op.N(lin, phi)
    r -= r.mean()
    return (lin, r) + op.direction(r)


def rel_gap(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# the update operator against the stencil-built oracles


def test_operator_matches_stencil_oracles(problem):
    grid, plan, params, state, rhs = problem
    op = UpdateOperator(plan, params)
    phi = 2.0 * state.phi_curr.values - state.phi_prev.values
    lin, r, d, sd = first_search(op, state, phi, rhs)
    assert rel_gap(op.N(lin, phi), oracle_N(state, params, phi, plan)) <= 1e-12
    assert rel_gap(r, oracle_residual(state, params, phi, rhs, plan).values) <= 1e-12
    assert op.start(state, phi, rhs.values)[1] == pytest.approx(
        oracle_F(state, params, phi, rhs, plan), rel=1e-12)
    d_oracle = precondition_solve(plan, Field(grid, r), params.dt, params.eps, params.A)
    assert rel_gap(d, d_oracle.values) <= 1e-12
    q = op.cubic(phi, r, d, sd)
    q_oracle = oracle_cubic(state, params, phi, d_oracle, rhs, plan)
    for name in ("c0", "c1", "c2", "c3"):
        assert getattr(q, name) == pytest.approx(getattr(q_oracle, name), rel=1e-12), name
    # moving phi along d moves the linear part of N along S d
    alpha = q.root()
    assert rel_gap(op.N(lin + alpha * sd, phi + alpha * d),
                   oracle_N(state, params, phi + alpha * d, plan)) <= 1e-12


def test_solve_matches_oracle_psd_loop(problem):
    grid, plan, params, state, rhs = problem
    cfg = PsdConfig(tol_rel=1e-12)
    phi, stats = solve(state, params, rhs, plan, cfg)
    phi_oracle, iterations = oracle_psd(state, params, rhs, plan, cfg)
    assert stats.iterations == iterations
    assert np.max(np.abs(phi.values - phi_oracle)) <= 1e-12


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


def test_cubic_requires_positive_slope():
    with pytest.raises(ValueError):
        LineSearchCubic(c0=-1.0, c1=-2.0, c2=0.0, c3=1.0).root()


def test_line_search_minimizes_objective(problem):
    grid, plan, params, state, rhs = problem
    op = UpdateOperator(plan, params)
    phi = state.phi_curr.values
    _, r, d, sd = first_search(op, state, phi, rhs)
    alpha = op.cubic(phi, r, d, sd).root()

    def F_along(a):
        return oracle_F(state, params, phi + a * d, rhs, plan)

    scipy_best = minimize_scalar(F_along, bracket=(0.0, 2.0 * alpha)).x
    assert alpha == pytest.approx(scipy_best, rel=1e-5, abs=1e-10)
    assert F_along(alpha) < F_along(0.0)


def test_line_search_cubic_coefficients_signs(problem):
    """At the current iterate the slope c0 is negative along the
    preconditioned residual, c1 > 0, c3 >= 0."""
    grid, plan, params, state, rhs = problem
    op = UpdateOperator(plan, params)
    phi = state.phi_curr.values
    _, r, d, sd = first_search(op, state, phi, rhs)
    q = op.cubic(phi, r, d, sd)
    assert q.c0 < 0  # descent direction
    assert q.c1 > 0
    assert q.c3 >= 0
    assert q.c0 == pytest.approx(-inner_l2(Field(grid, r), Field(grid, d)), rel=1e-10)


def test_zero_direction_rejected(problem):
    grid, plan, params, state, rhs = problem
    op = UpdateOperator(plan, params)
    phi = state.phi_curr.values
    _, r, _, _ = first_search(op, state, phi, rhs)
    zero = np.zeros(grid.shape)
    with pytest.raises(ValueError):
        op.cubic(phi, r, zero, zero).root()


# ---------------------------------------------------------------------------
# the solver


def test_solver_at_equilibrium_returns_immediately():
    grid = GridSpec(L=2.0, m=16)
    plan = make_plan(grid)
    params = SchemeParams(eps=0.1, dt=0.02)
    state = restart_flat(full(grid, -1.0))
    rhs = assemble_rhs(state, params, plan)
    phi, stats = solve(state, params, rhs, plan)
    assert stats.iterations == 0
    assert len(stats.residuals) == 1
    assert np.allclose(phi.values, -1.0, atol=1e-13)


def test_solver_reaches_tolerance_and_reports_true_residual(problem):
    grid, plan, params, state, rhs = problem
    cfg = PsdConfig(tol_rel=1e-11)
    phi, stats = solve(state, params, rhs, plan, cfg)
    # returned phi is on the mass hyperplane
    assert mean(phi) == pytest.approx(state.beta0, abs=1e-13)
    # the solver's residual equals the oracle's at the solution, up to the
    # rounding of N itself (the two compute N along different routes)
    r_oracle = norm_l2(oracle_residual(state, params, phi.values, rhs, plan))
    n_scale = norm_l2(Field(grid, oracle_N(state, params, phi.values, plan)))
    assert stats.residuals[-1] == pytest.approx(r_oracle, rel=0, abs=1e-14 * n_scale)
    f0 = rhs.values - rhs.values.mean()
    tol = 1e-15 * (1 + norm_l2(rhs)) + cfg.tol_rel * norm_l2(Field(grid, f0))
    assert stats.residuals[-1] <= tol
    # N[phi] = f holds up to that tolerance
    gap = oracle_N(state, params, phi.values, plan) - rhs.values
    gap -= gap.mean()
    assert norm_l2(Field(grid, gap)) <= tol * 1.0000001


def test_objective_decreases_monotonically(problem):
    grid, plan, params, state, rhs = problem
    phi, stats = solve(state, params, rhs, plan)
    F = stats.objectives
    assert len(F) == stats.iterations + 1
    assert all(b <= a for a, b in zip(F, F[1:]))
    # the values advanced by line-search increments match the objective itself
    guess = 2.0 * state.phi_curr.values - state.phi_prev.values
    assert F[0] == pytest.approx(oracle_F(state, params, guess, rhs, plan), rel=1e-12)
    assert F[-1] == pytest.approx(oracle_F(state, params, phi.values, rhs, plan), rel=1e-12)


def test_residuals_decay_geometrically(problem):
    grid, plan, params, state, rhs = problem
    _, stats = solve(state, params, rhs, plan)
    ratios = stats.residual_ratios
    assert len(ratios) == stats.iterations
    assert all(rt < 1.0 for rt in ratios)


def test_both_init_guesses_agree(problem):
    grid, plan, params, state, rhs = problem
    tight = dict(tol_rel=1e-13)
    a, stats_a = solve(state, params, rhs, plan, PsdConfig(init_guess="extrapolated", **tight))
    b, stats_b = solve(state, params, rhs, plan, PsdConfig(init_guess="previous", **tight))
    assert np.max(np.abs(a.values - b.values)) < 1e-9
    assert stats_a.iterations >= 1 and stats_b.iterations >= 1


def test_iteration_budget_exhaustion_raises(problem):
    grid, plan, params, state, rhs = problem
    with pytest.raises(SolverError) as err:
        solve(state, params, rhs, plan, PsdConfig(max_iter=1, tol_rel=1e-16, tol_abs=0.0))
    assert len(err.value.residuals) == 2
    assert err.value.residuals[-1] > 0.0


def test_solver_error_names_step_time_and_residuals(problem):
    grid, plan, params, state, rhs = problem
    later = StepState(state.phi_prev, state.phi_curr, t=0.37, beta0=state.beta0, step_index=36)
    with pytest.raises(SolverError) as err:
        solve(later, params, rhs, plan, PsdConfig(max_iter=1, tol_rel=1e-16, tol_abs=0.0))
    message = str(err.value)
    assert "step 37 " in message and "t=0.37" in message and "dt=0.01" in message
    for res in err.value.residuals:
        assert f"{res:.3e}" in message


def test_config_validation():
    with pytest.raises(ValueError):
        PsdConfig(init_guess="warm")
    with pytest.raises(ValueError):
        PsdConfig(max_iter=0)


def test_rhs_grid_mismatch_rejected(problem):
    grid, plan, params, state, rhs = problem
    other = GridSpec(L=3.2, m=16)
    bad = Field(other, np.zeros(other.shape))
    with pytest.raises(ValueError):
        solve(state, params, bad, plan)
