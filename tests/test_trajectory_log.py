"""The write path of a run: i_col, per-vehicle reads, the CSV and min_gap_m,
each against the slow reference readers of log_reference."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mergesim.cli import _sat_distance
from mergesim.config import RunConfig
from mergesim.perception import collision_index, pose
from mergesim.road import LaneGeometry
from mergesim.world import TrajectoryLog, load_scenario, run

from log_reference import (eager_icol, formatted_csv, scanned_icol,
                           scanned_rows)
from test_collisions import (cannot_stop_at_start, generated_scenarios,
                             overlap_at_start)

GEOMETRY = LaneGeometry()


def check_readers(log, world):
    """Every reader of `log` agrees with its reference."""
    assert log.icol() == eager_icol(log, world)
    for veh in world.vehicles:
        vid = veh.vehicle_id
        assert log.vehicle_rows(vid) == scanned_rows(log, vid)
        assert log.vehicle_icol(vid) == scanned_icol(log, vid)
    with pytest.raises(KeyError):
        log.vehicle_rows("nobody")
    with pytest.raises(KeyError):
        log.vehicle_icol("nobody")
    assert log.to_csv() == formatted_csv(log)


@pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
@pytest.mark.parametrize("noise", [False, True])
def test_readers_match_the_reference_on_builtin_logs(scenario, noise):
    world = load_scenario(scenario, RunConfig(noise=noise))
    check_readers(run(world), world)


@settings(max_examples=40, deadline=None)
@given(generated_scenarios())
def test_readers_match_the_reference_on_generated_logs(case):
    data, t_max = case
    if overlap_at_start(data) or cannot_stop_at_start(data):
        return  # rejected at load; see test_collisions
    world = load_scenario(data, RunConfig())
    check_readers(run(world, t_max), world)


def test_pair_cache_misses_when_any_key_field_changes():
    # Two vehicles seen at steps that differ in one field of the cache key
    # each: the centre offset across or along the road, or the sine or the
    # cosine of one heading.  math.sin gives 0.11 and pi - 0.11 the same
    # sine, and the cosine of h and -h is the same.
    turned = math.pi - 0.11
    poses = [((0.0, 0.0, 0.0), (3.0, 6.0, 0.0)),
             ((0.0, 0.0, 0.11), (3.0, 6.0, 0.0)),         # a turns
             ((0.0, 0.0, turned), (3.0, 6.0, 0.0)),       # a's cosine
             ((0.0, 0.0, -turned), (3.0, 6.0, 0.0)),      # a's sine
             ((0.0, 0.0, -turned), (3.0, 6.0, 0.11)),     # b turns
             ((0.0, 0.0, -turned), (3.0, 6.0, turned)),   # b's cosine
             ((0.0, 0.0, -turned), (3.0, 6.0, -turned)),  # b's sine
             ((1.0, 5.0, -turned), (4.0, 11.0, -turned)),  # a cache hit
             ((1.0, 5.0, -turned), (3.5, 11.0, -turned)),  # across the road
             ((1.0, 5.0, -turned), (3.5, 11.5, -turned))]  # along it
    assert math.sin(turned) == math.sin(0.11)
    log = TrajectoryLog(GEOMETRY, {"a": (4.5, 1.8), "b": (4.0, 2.0)})
    want = []
    for step, ((ax, ay, ah), (bx, by, bh)) in enumerate(poses):
        t = step * 0.01
        log.append((t, "a", ax, ay, 20.0, ah, 0, "", "", "", ""))
        log.append((t, "b", bx, by, 20.0, bh, 0, "", "", "", ""))
        index = collision_index(pose(ax, ay, ah, 0.9, 2.25),
                                pose(bx, by, bh, 1.0, 2.0))
        want += [index, index]
    assert log.icol() == want
    # Each step but the cache hit changes the index, so a stale reuse shows.
    per_step = want[::2]
    assert [b != a for a, b in zip(per_step, per_step[1:])] == \
        [True] * 6 + [False] + [True] * 2


class TestEmptyLogs:
    def test_no_rows_yet(self):
        log = TrajectoryLog(GEOMETRY, {"a": (4.5, 1.8)})
        with pytest.raises(KeyError):
            log.vehicle_rows("a")
        with pytest.raises(KeyError):
            log.vehicle_icol("a")
        assert log.to_csv() == formatted_csv(log)

    def test_no_vehicles(self):
        log = TrajectoryLog(GEOMETRY, {})
        with pytest.raises(KeyError):
            log.vehicle_rows("a")
        assert log.icol() == []
        assert log.to_csv() == formatted_csv(log)


def test_csv_text_is_reused_only_for_the_same_float_object():
    # 0.0 == -0.0, yet they print differently: a memo keyed on equality
    # would print the second row's zeros as 0.000000.
    zero, minus_zero = float("0.0"), float("-0.0")
    log = TrajectoryLog(GEOMETRY, {"a": (4.5, 1.8)})
    for t, value in ((0.0, zero), (0.01, minus_zero), (0.02, minus_zero)):
        log.append((t, "a", value, 0.0, value, value, 0, "", "", "", ""))
    lines = log.to_csv().splitlines()[1:]
    fields = [line.split(",") for line in lines]
    assert [f[2] for f in fields] == ["0.000000", "-0.000000", "-0.000000"]
    assert [f[4] for f in fields] == ["0.000000", "-0.000000", "-0.000000"]
    assert [f[5] for f in fields] == ["0.000000", "-0.000000", "-0.000000"]
    assert log.to_csv() == formatted_csv(log)


_indices = st.one_of(st.sampled_from((0.0, 1.0, 1.0 - 2.0 ** -53, 1e-300,
                                      5e-324)),
                     st.floats(0.0, 1.0))


@given(st.lists(_indices, min_size=1))
def test_min_gap_is_the_distance_of_the_largest_index(column):
    # _sat_distance is non-increasing, so the summary maps only the
    # largest i_col of a vehicle.
    assert _sat_distance(max(column)) == min(map(_sat_distance, column))


@pytest.mark.parametrize("column", [
    [0.0, 1.0, 1.0 - 2.0 ** -53, 1e-300],
    [1e-300, 0.0], [1.0 - 2.0 ** -53, 1e-300], [0.0], [1.0, 1.0]])
def test_min_gap_at_the_edges_of_the_index(column):
    assert _sat_distance(max(column)) == min(map(_sat_distance, column))
