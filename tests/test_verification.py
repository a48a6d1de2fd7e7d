import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chfd.psd
import chfd.scheme
import chfd.verification
from chfd import Field, GridSpec, laplace_long, mean, norm_linf
from chfd.verification import (
    TRUNCATION_CASES,
    RefinementReport,
    convergence_study,
    inequality_study,
    random_trig_field,
    symbol_bound_study,
    truncation_study,
)


# ---------------------------------------------------------------------------
# truncation studies


@pytest.mark.parametrize("case", TRUNCATION_CASES)
def test_every_builtin_case_is_fourth_order(case):
    report = truncation_study(case, m_list=(16, 32, 64, 128), L=1.0)
    # last refinement pair sits in the asymptotic range
    (rate_l2, rate_linf) = report.finest_rates(1)[0]
    assert 3.85 <= rate_l2 <= 4.15
    assert 3.85 <= rate_linf <= 4.15
    s2, si = report.regression_slopes()
    assert 3.7 <= s2 <= 4.3 and 3.7 <= si <= 4.3


def test_truncation_study_input_validation():
    with pytest.raises(ValueError):
        truncation_study("no_such_case")
    with pytest.raises(ValueError):
        truncation_study("sin_x", m_list=(32,))
    one_row = RefinementReport({}, truncation_study("sin_x", m_list=(16, 32), L=1.0).rows[:1])
    with pytest.raises(ValueError, match="at least 2 rows"):
        one_row.regression_slopes()


def test_truncation_errors_shrink_monotonically():
    report = truncation_study("mode_product", m_list=(16, 32, 64), L=1.0)
    e2 = [r.error_l2 for r in report.rows]
    einf = [r.error_linf for r in report.rows]
    assert e2[0] > e2[1] > e2[2]
    assert einf[0] > einf[1] > einf[2]
    assert [r.h for r in report.rows] == [1 / 16, 1 / 32, 1 / 64]


def test_refinement_csv_layout_and_determinism():
    report = truncation_study("exp_sin", m_list=(16, 32, 64), L=1.0)
    text = report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "h,error_l2,rate_l2,error_linf,rate_linf"
    assert len(lines) == 1 + 3 + 1  # header + rows + regression
    first = lines[1].split(",")
    assert first[2] == "" and first[4] == ""  # no rate on the coarsest row
    assert lines[-1].startswith("regression,,")
    assert truncation_study("exp_sin", m_list=(16, 32, 64), L=1.0).to_csv() == text


# ---------------------------------------------------------------------------
# symbol bounds


def test_symbol_ratio_bounded_and_defect_one_signed():
    report = symbol_bound_study(L=12.8, m_list=(16, 32, 64, 128, 256, 512))
    assert report.min_defect() >= 0.0
    finest = report.rows[-1][1]
    assert report.max_ratio() <= 2.0 * finest
    assert [m for m, _, _ in report.rows] == [16, 32, 64, 128, 256, 512]
    csv = report.to_csv()
    assert csv.splitlines()[0] == "m,ratio_max,defect_min"
    assert len(csv.splitlines()) == 7


def test_symbol_study_rejects_tiny_m():
    with pytest.raises(ValueError):
        symbol_bound_study(L=1.0, m_list=(4, 16))


# ---------------------------------------------------------------------------
# random band-limited fields and inequalities


def test_random_trig_field_reproducible_and_band_limited():
    grid = GridSpec(L=12.8, m=32)
    f1 = random_trig_field(grid, seed=5, index=3)
    f2 = random_trig_field(grid, seed=5, index=3)
    assert np.array_equal(f1.values, f2.values)
    f3 = random_trig_field(grid, seed=5, index=4)
    assert not np.array_equal(f1.values, f3.values)
    assert abs(mean(f1)) < 1e-13 * (1 + norm_linf(f1))
    spec = np.fft.fft2(f1.values)
    freq = np.abs(np.fft.fftfreq(grid.m, d=1.0 / grid.m))
    outside = (freq[:, None] > grid.m // 4) | (freq[None, :] > grid.m // 4)
    assert np.max(np.abs(spec[outside])) < 1e-10 * np.max(np.abs(spec))


def test_random_trig_field_general_mean():
    grid = GridSpec(L=12.8, m=32)
    g = random_trig_field(grid, seed=5, index=0, mean_zero=False)
    # the DC mode survives, so the mean is generically nonzero
    assert abs(mean(g)) > 1e-6


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31), index=st.integers(0, 1000))
def test_interpolation_inequality_property(seed, index):
    """|f|_2^2 <= |f|_{-1} |grad4 f|_2 for any mean-zero band-limited field."""
    from chfd import hminus1_norm, make_plan, norm_l2
    from chfd.operators import grad_norm_sq_long

    grid = GridSpec(L=12.8, m=16)
    plan = make_plan(grid)
    f = random_trig_field(grid, seed=seed, index=index)
    lhs = norm_l2(f) ** 2
    rhs = hminus1_norm(plan, f) * np.sqrt(grad_norm_sq_long(f))
    assert lhs <= rhs * (1 + 1e-12)


def test_inequality_study_has_no_violations():
    report = inequality_study(GridSpec(L=12.8, m=32), n_trials=100, rng_seed=0)
    assert report.violations == 0
    assert len(report.slack_interpolation) == 100
    assert all(s >= 0.0 for s in report.slack_interpolation)
    assert all(s >= 0.0 for s in report.slack_operator_order)
    assert all(np.isfinite(r) and r > 0 for r in report.embedding_ratio)
    lines = report.to_csv().splitlines()
    assert lines[0] == "trial,slack_interpolation,slack_operator_order,embedding_ratio"
    assert len(lines) == 101


@pytest.mark.parametrize("broken, violations", [
    ({"hminus1_norm": lambda plan, f: 0.0}, 3),  # the interpolation bound fails
    ({"laplace_std": lambda g: laplace_long(Field(g.grid, 2.0 * g.values))}, 3),  # the order
    ({"hminus1_norm": lambda plan, f: 0.0,
      "laplace_std": lambda g: laplace_long(Field(g.grid, 2.0 * g.values))}, 6),
])
def test_inequality_study_counts_each_violated_bound(monkeypatch, broken, violations):
    for name, fake in broken.items():
        monkeypatch.setattr(chfd.verification, name, fake)
    report = inequality_study(GridSpec(L=12.8, m=16), n_trials=3, rng_seed=0)
    assert report.violations == violations


def test_inequality_study_validation():
    with pytest.raises(ValueError):
        inequality_study(GridSpec(L=1.0, m=16), n_trials=0, rng_seed=0)


# ---------------------------------------------------------------------------
# time-stepper refinement (smoke level; the full table runs in acceptance)


def test_convergence_study_two_levels():
    report = convergence_study(m_list=(16, 32))
    assert len(report.rows) == 2
    e_coarse, e_fine = report.rows[0].error_linf, report.rows[1].error_linf
    assert e_fine < e_coarse / 8.0  # approaching fourth order already
    assert report.rows[1].rate_l2 is not None
    assert report.parameters["dt_factor"] == 0.25
    assert set(report.solve_stats) == {16, 32}
    steps_16 = len(report.solve_stats[16])
    assert steps_16 > 0
    assert all(s.iterations >= 1 for s in report.solve_stats[16][:5])


def test_forced_steps_solve_at_tol_rel():
    """The refinement study measures the scheme's own error: its forced steps form
    no time-error estimate and solve at TOL_REL, and none is solved again."""
    report = convergence_study(m_list=(16, 32, 64))
    stats = [s for level in report.solve_stats.values() for s in level]
    assert all(s.rel_tol == chfd.psd.TOL_REL and s.resolves == 0 for s in stats)


def test_the_refinement_table_ignores_the_tolerance_rule(monkeypatch):
    """The study's table is the bytes of a run whose rule never loosens a solve
    (KAPPA = 0): the rule's safety factor does not reach forced steps."""
    ruled = convergence_study(m_list=(16, 32, 64)).to_csv()
    monkeypatch.setattr(chfd.scheme, "KAPPA", 0.0)
    assert convergence_study(m_list=(16, 32, 64)).to_csv() == ruled


def test_convergence_study_needs_two_levels():
    with pytest.raises(ValueError):
        convergence_study(m_list=(16,))


def test_convergence_study_rejects_a_level_that_takes_no_step(monkeypatch):
    # dt = 100 h^2 takes round(0.32 / dt) = 0 steps at m = 8 and 16 (1 at m = 64)
    def no_step(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(chfd.verification, "step", no_step)
    with pytest.raises(ValueError, match="m=8: dt = "):
        convergence_study(m_list=(8, 16), dt_factor=100)
    with pytest.raises(ValueError, match="m=16: dt = "):
        convergence_study(m_list=(64, 16), dt_factor=100)
    with pytest.raises(ValueError, match="dt_factor must be finite and positive"):
        convergence_study(m_list=(16, 32), dt_factor=0.0)
    with pytest.raises(ValueError, match="dt_factor must be finite and positive"):
        convergence_study(m_list=(16, 32), dt_factor=float("nan"))
    with pytest.raises(ValueError, match="integers >= 5"):
        convergence_study(m_list=(32, 4))


@pytest.mark.parametrize("m_list", [(32, 32), (16, 16), (16, 32, 16)])
def test_a_refinement_study_rejects_a_repeated_grid_size(monkeypatch, m_list):
    """A level paired with itself reads a rate of 0 and skews the regression:
    both studies name the repeated size before any level runs."""
    def no_level(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(chfd.verification, "step", no_level)
    monkeypatch.setattr(chfd.verification, "laplace_long", no_level)
    message = f"grid size {m_list[-1]} repeats in {list(m_list)!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        truncation_study("sin_x", m_list=m_list, L=1.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        convergence_study(m_list=m_list)
