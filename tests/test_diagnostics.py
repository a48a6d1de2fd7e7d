import math

import numpy as np
import pytest

from chfd import (
    EnergyRecord,
    Field,
    GridSpec,
    energy,
    field_from_fn,
    fit_power_law,
    grad_norm_sq_long,
    hminus1_norm,
    make_plan,
    modified_energy,
    norm_l2,
)
from chfd.grid import full

from conftest import brute_inner, random_field


def test_energy_of_pure_phase_is_zero():
    grid = GridSpec(L=2.0, m=16)
    for c in (-1.0, 1.0):
        assert energy(full(grid, c), 0.1, make_plan(grid)) == 0.0


def test_energy_of_constant_is_well_density_times_area():
    grid = GridSpec(L=2.0, m=16)
    c = 0.5
    # E = L^2 * (c^2 - 1)^2 / 4, no gradient part
    expected = grid.L**2 * (c * c - 1.0) ** 2 / 4.0
    assert energy(full(grid, c), 0.3, make_plan(grid)) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("m", [16, 17, 32])  # odd m: the rfft layout has no Nyquist column
def test_energy_matches_handwritten_sum(m):
    grid = GridSpec(L=3.2, m=m)
    phi = random_field(grid, seed=60, scale=0.5)
    eps = 0.07
    well = 0.25 * brute_inner(phi.values**2 - 1.0, phi.values**2 - 1.0, grid.h)
    expected = well + 0.5 * eps**2 * grad_norm_sq_long(phi)
    assert energy(phi, eps, make_plan(grid)) == pytest.approx(expected, rel=1e-12)


def test_energy_gradient_part_single_mode():
    """For one smooth mode the discrete gradient energy approaches the
    continuum value (a^2/2) * |phi|_2^2."""
    grid = GridSpec(L=3.2, m=256)
    a = 2 * np.pi / grid.L
    phi = field_from_fn(grid, lambda x, y: np.sin(a * x) + 0.0 * y)
    eps = 0.25
    e = energy(phi, eps, make_plan(grid))
    well = 0.25 * grid.h**2 * float(np.sum((phi.values**2 - 1) ** 2))
    grad_expected = 0.5 * eps**2 * a**2 * norm_l2(phi) ** 2
    assert e - well == pytest.approx(grad_expected, rel=1e-5)


def test_modified_energy_identity(grid32):
    plan = make_plan(grid32)
    eps, dt = 0.1, 0.02
    old = random_field(grid32, seed=61, scale=0.2)
    new = Field(grid32, old.values + (lambda d: d - d.mean())(
        0.01 * random_field(grid32, seed=62).values))
    E = energy(new, eps, plan)
    e_mod = modified_energy(new, old, dt, plan, E=E)
    diff = Field(grid32, new.values - old.values)
    expected = E + hminus1_norm(plan, diff) ** 2 / (4 * dt) + 0.5 * norm_l2(diff) ** 2
    assert e_mod == pytest.approx(expected, rel=1e-12)
    assert e_mod >= E


def test_modified_energy_requires_matching_means(grid32):
    plan = make_plan(grid32)
    a = full(grid32, 0.0)
    b = full(grid32, 0.1)
    with pytest.raises(ValueError):
        modified_energy(a, b, 0.01, plan, E=0.0)


def test_modified_energy_of_stationary_pair_is_plain_energy(grid32):
    plan = make_plan(grid32)
    phi = random_field(grid32, seed=63, scale=0.3)
    E = energy(phi, 0.1, plan)
    assert modified_energy(phi, phi, 0.01, plan, E=E) == E


# ---------------------------------------------------------------------------
# power-law fitting


def synth_records(a, b, ts):
    return [
        EnergyRecord(step=i, t=t, mass=0.0, E=a * t ** (-b), E_mod=0.0,
                     psd_iters=0, residual=0.0)
        for i, t in enumerate(ts)
    ]


def test_fit_recovers_exact_power_law():
    records = synth_records(5.0, 1.0 / 3.0, np.linspace(1.0, 100.0, 200))
    a, b = fit_power_law(records, 1.0, 100.0)
    assert a == pytest.approx(5.0, rel=1e-10)
    assert b == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_fit_respects_window():
    ts = np.linspace(0.5, 100.0, 400)
    records = synth_records(2.0, 0.5, ts)
    # contaminate early times; the window should exclude them
    records = [
        EnergyRecord(r.step, r.t, 0.0, r.E * (10.0 if r.t < 10.0 else 1.0),
                     0.0, 0, 0.0)
        for r in records
    ]
    a, b = fit_power_law(records, 10.0, 100.0)
    assert b == pytest.approx(0.5, rel=1e-8)
    assert a == pytest.approx(2.0, rel=1e-8)


def test_fit_needs_enough_positive_data():
    records = synth_records(1.0, 0.3, np.linspace(1.0, 2.0, 5))
    with pytest.raises(ValueError):
        fit_power_law(records, 1.0, 2.0)
    bad = synth_records(1.0, 0.3, np.linspace(1.0, 2.0, 20))
    bad[5] = EnergyRecord(5, bad[5].t, 0.0, -1.0, 0.0, 0, 0.0)
    with pytest.raises(ValueError):
        fit_power_law(bad, 1.0, 2.0)


def test_fit_power_law_with_noise_is_stable():
    rng = np.random.default_rng(7)
    ts = np.linspace(5.0, 80.0, 300)
    records = [
        EnergyRecord(i, t, 0.0, 3.0 * t ** (-0.33) * math.exp(rng.normal(0, 0.01)),
                     0.0, 0, 0.0)
        for i, t in enumerate(ts)
    ]
    _, b = fit_power_law(records, 5.0, 80.0)
    assert b == pytest.approx(0.33, abs=0.02)
