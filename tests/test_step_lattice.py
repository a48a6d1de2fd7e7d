"""Property tests of the step lattice that ``chfd run`` plans once (``_step_plan``).

A schedule is written in decimals, as in a config file: every segment end and
snapshot time below is a sum of decimal steps, rounded once to a float.  The
plan accepts a time exactly when it lies on the lattice from the initial time,
near t = 0 as much as late in a long run.
"""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfd.cli import ConfigError, SegmentConfig, _step_plan

DTS = ("0.001", "0.002", "0.0025", "0.005", "0.01", "0.02", "0.025", "0.05", "0.1", "0.25",
       "0.5", "1", "2.5")
T0S = ("0", "1e-9", "3.7", "2000")

# derandomized, with a fixed count of examples: the same cases on every run
lattice_settings = settings(derandomize=True, max_examples=400, deadline=None)


class Lattice:
    """Segments of whole numbers of decimal steps after t0, perhaps after a
    segment that ends at t0 (a warm start, which the plan skips)."""

    def __init__(self, t0: str, counts: list[tuple[str, int]], warm: bool) -> None:
        self.t0 = Decimal(t0)
        self.counts = [(Decimal(dt), n) for dt, n in counts]
        self.starts, t = [], self.t0
        for dt, n in self.counts:
            self.starts.append(t)
            t += n * dt
        self.end = t
        ends = self.starts[1:] + [self.end]
        schedule = [SegmentConfig(dt=0.01, t_end=float(self.t0))] if warm else []
        schedule += [SegmentConfig(dt=float(dt), t_end=float(e))
                     for (dt, _), e in zip(self.counts, ends)]
        self.schedule = tuple(schedule)
        self.total = sum(n for _, n in self.counts)

    def time(self, k: int, offset: Decimal = Decimal(0)) -> Decimal:
        """The time of run step k, plus ``offset`` steps of the segment that
        holds step k + 1 (of the last one past the end)."""
        for start, (dt, n) in zip(self.starts, self.counts):
            if k < n or (k == n and not offset):
                return start + (k + offset) * dt
            k -= n
        return self.end + offset * self.counts[-1][0]

    def plan(self, snapshot_times: list[Decimal] = ()):
        return _step_plan(self.schedule, float(self.t0), tuple(float(s) for s in snapshot_times))


lattices = st.builds(
    Lattice,
    st.sampled_from(T0S),
    st.lists(st.tuples(st.sampled_from(DTS), st.integers(1, 400)), min_size=1, max_size=4),
    st.booleans(),
)


@lattice_settings
@given(lattices)
def test_a_schedule_of_whole_steps_plans_those_counts(lattice):
    assert lattice.plan() == ([(float(dt), n) for dt, n in lattice.counts], [])


@lattice_settings
@given(lattices, st.data())
def test_a_snapshot_time_on_the_lattice_maps_to_its_run_step(lattice, data):
    steps = sorted(data.draw(st.lists(st.integers(0, lattice.total), min_size=1, max_size=5,
                                      unique=True)))
    _, snap_steps = lattice.plan([lattice.time(k) for k in steps])
    assert snap_steps == steps


@lattice_settings
@given(lattices, st.data())
def test_a_time_half_a_step_off_the_lattice_is_a_config_error(lattice, data):
    """Half a step before t0, between two steps of any segment, or after the end."""
    k = data.draw(st.integers(-1, lattice.total))
    s = (lattice.t0 - lattice.counts[0][0] / 2 if k < 0
         else lattice.time(k, offset=Decimal("0.5")))
    with pytest.raises(ConfigError, match="snapshot time"):
        lattice.plan([s])
