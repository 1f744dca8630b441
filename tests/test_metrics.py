import copy
import multiprocessing
import os
from unittest import mock

import pytest
from hypothesis import given, settings

from mergesim import metrics
from mergesim.config import ConfigError, RunConfig
from mergesim.metrics import (MAINLINE_ID, MERGE_ID, aggressiveness_sweep,
                              grid_to_csv,
                              lane_change_count, lane_change_events,
                              lateral_disturbance, longitudinal_disturbance,
                              measure_cell, sweep_scenario)
from mergesim.road import LaneGeometry
from mergesim.world import (BUILTIN_SCENARIOS, DECISION, TrajectoryLog,
                            load_scenario, run, scenario_definition)

from test_collisions import (cannot_stop_at_start, generated_scenarios,
                             overlap_at_start)

GEOMETRY = LaneGeometry()


def synthetic_log(samples, vid="v"):
    """Log with a prescribed (t, v, x_lat, lane, maneuver) series."""
    log = TrajectoryLog(GEOMETRY, {vid: (4.5, 1.8)})
    for t, v, x, lane, maneuver in samples:
        log.append((t, vid, x, 0.0, v, 0.0, lane, maneuver, "hold", "", ""))
    return log


def complete(log, t, lane, event="change_complete", vid="v"):
    """Log the completion event the step loop logs for a maneuver that
    completes in the step ending at t, on `lane`."""
    log.events.append({"t": t, "vehicle": vid, "event": event, "lane": lane})


def speed_series(fn, duration, dt=0.01):
    return [(round(i * dt, 6), fn(i * dt), 6.6, 2, "keep")
            for i in range(int(duration / dt) + 1)]


class TestLongitudinalDisturbance:
    def test_zero_when_never_below_reference(self):
        log = synthetic_log(speed_series(lambda t: 22.2 + 0.5 * t, 10.0))
        assert longitudinal_disturbance(log, "v", 22.2) == 0.0

    def test_rectangular_dip(self):
        def v(t):
            return 21.2 if 2.0 <= t < 4.0 else 22.2
        log = synthetic_log(speed_series(v, 10.0))
        # closed form: 1 m/s deficit for 2 s = 2.0 m, within one cell
        assert longitudinal_disturbance(log, "v", 22.2) == \
            pytest.approx(2.0, abs=22.2 * 0.01)

    def test_triangular_dip(self):
        def v(t):
            if 2.0 <= t <= 4.0:
                return 22.2 - (t - 2.0)
            if 4.0 < t <= 6.0:
                return 22.2 - (6.0 - t)
            return 22.2
        log = synthetic_log(speed_series(v, 10.0))
        # closed form: triangle of depth 2 m/s over 4 s = 4.0 m
        assert longitudinal_disturbance(log, "v", 22.2) == \
            pytest.approx(4.0, abs=0.05)

    def test_unknown_vehicle_rejected(self):
        log = synthetic_log(speed_series(lambda t: 22.2, 1.0))
        with pytest.raises(KeyError):
            longitudinal_disturbance(log, "nobody", 22.2)

    def test_scripted_vehicle_is_exactly_zero(self):
        cfg = RunConfig(q_overrides={"merging": 0.5})
        log = run(load_scenario("scenario1", cfg))
        assert longitudinal_disturbance(log, "vehicle3", 80.0 / 3.6) == 0.0

    def test_halving_dt_changes_little(self):
        values = []
        for dt in (0.01, 0.005):
            cfg = RunConfig(q_overrides={"merging": 0.1}, dt=dt)
            log = run(load_scenario("scenario1", cfg))
            values.append(longitudinal_disturbance(log, "merging", 70.0 / 3.6))
        assert values[0] == pytest.approx(values[1], rel=0.01)


class TestLateralDisturbance:
    def test_no_change_is_zero(self):
        log = synthetic_log(speed_series(lambda t: 22.2, 5.0))
        assert lateral_disturbance(log, "v") == 0.0
        assert lane_change_count(log, "v") == 0

    def test_single_change_counts_full_lane(self):
        samples = []
        for i in range(200):
            t = round(i * 0.01, 6)
            if i < 50:
                samples.append((t, 22.2, 6.6, 2, "keep"))
            elif i < 150:
                x = 6.6 - 3.3 * (i - 50) / 100.0
                samples.append((t, 22.2, x, 2 if x > 4.95 else 1, "change"))
            else:
                samples.append((t, 22.2, 3.3, 1, "keep"))
        log = synthetic_log(samples)
        complete(log, 1.5, 1)
        assert lateral_disturbance(log, "v") == pytest.approx(3.3)
        assert lane_change_count(log, "v") == 1

    def test_two_changes_add(self):
        samples = []
        lanes = [(2, 6.6), (1, 3.3), (0, 0.0)]
        i = 0
        for seg, (lane, x) in enumerate(lanes):
            for _ in range(50):
                samples.append((round(i * 0.01, 6), 22.2, x, lane, "keep"))
                i += 1
            if seg < 2:
                nxt = lanes[seg + 1]
                for k in range(100):
                    frac = (k + 1) / 100.0
                    xx = x + (nxt[1] - x) * frac
                    samples.append((round(i * 0.01, 6), 22.2, xx,
                                    lane if frac < 0.5 else nxt[0], "change"))
                    i += 1
        log = synthetic_log(samples)
        complete(log, 1.5, 1)
        complete(log, 3.0, 0)
        assert lateral_disturbance(log, "v") == pytest.approx(6.6)
        assert lane_change_count(log, "v") == 2

    def test_aborted_change_counts_realized_motion(self):
        samples = [(round(i * 0.01, 6), 22.2, 6.6, 2, "keep") for i in range(50)]
        for k in range(50):  # run ends mid-maneuver after 1.2 m of motion
            samples.append((round((50 + k) * 0.01, 6), 22.2,
                            6.6 - 1.2 * (k + 1) / 50.0, 2, "change"))
        log = synthetic_log(samples)
        assert lateral_disturbance(log, "v") == pytest.approx(1.2, abs=0.05)
        assert lane_change_count(log, "v") == 0

    def test_merge_straight_into_a_change_cut_off_by_the_end(self):
        samples = [(round(i * 0.01, 6), 22.2, 9.9, 3, "keep") for i in range(10)]
        for k in range(20):  # merge from lane 3 to lane 2, no keep row after
            x = 9.9 - 3.3 * (k + 1) / 20.0
            samples.append((round((10 + k) * 0.01, 6), 22.2, x,
                            3 if x > 8.25 else 2, "merge"))
        for k in range(20):  # the run ends 1.6 m into a change
            samples.append((round((30 + k) * 0.01, 6), 22.2,
                            6.6 - 1.6 * k / 19.0, 2, "change"))
        log = synthetic_log(samples)
        # Without its event the merge closes, not completed, where the
        # maneuver column changes: 19 of its 20 rows of motion.
        assert lane_change_events(log, "v") == [
            ("merge", pytest.approx(3.3 * 19 / 20), False),
            ("change", pytest.approx(1.6), False)]
        complete(log, 0.3, 2, event="merge_complete")
        (merge, merged, merge_done), (change, changed, change_done) = \
            lane_change_events(log, "v")
        assert (merge, merge_done, change, change_done) == \
            ("merge", True, "change", False)
        assert merged == pytest.approx(3.3)
        assert changed == pytest.approx(1.6)
        assert lane_change_count(log, "v") == 0

    def test_back_to_back_changes_split_at_the_completion_event(self):
        # A change to lane 1 completes in the step from t = 0.59, and the
        # next epoch starts a change back to lane 2 before the row at 0.60
        # is taken, so every row from 0.10 to 1.09 reads "change".
        samples = [(round(i * 0.01, 6), 22.2, 6.6, 2, "keep")
                   for i in range(10)]
        for k in range(50):
            x = 6.6 - 3.3 * k / 50.0
            samples.append((round((10 + k) * 0.01, 6), 22.2, x,
                            2 if x > 4.95 else 1, "change"))
        for k in range(50):
            x = 3.3 + 3.3 * k / 50.0
            samples.append((round((60 + k) * 0.01, 6), 22.2, x,
                            2 if x > 4.95 else 1, "change"))
        samples += [(round((110 + k) * 0.01, 6), 22.2, 6.6, 2, "keep")
                    for k in range(10)]
        log = synthetic_log(samples)
        log.end_time = 1.2
        # Without the events the rows read as one change that never
        # completed.
        assert lane_change_count(log, "v") == 0
        complete(log, 59 * 0.01 + 0.01, 1)
        complete(log, 109 * 0.01 + 0.01, 2)
        assert lane_change_events(log, "v") == [
            ("change", pytest.approx(3.3), True),
            ("change", pytest.approx(3.3), True)]
        assert lane_change_count(log, "v") == 2
        assert lateral_disturbance(log, "v") == pytest.approx(6.6)

    def test_each_completed_change_counts_once_under_noise(self):
        # At q 1.0 under noise the merger weaves, and some changes start at
        # the epoch right after the one before completed.
        cfg = RunConfig(noise=True, seed=0, q_overrides={"merging": 1.0})
        log = run(load_scenario("scenario1", cfg))
        completed = [e for e in log.events if e.get("vehicle") == "merging"
                     and e["event"] == "change_complete"]
        assert len(completed) == 27
        assert lane_change_count(log, "merging") == 27

    def test_lateral_disturbance_is_the_same_float_on_every_python(self):
        # The builtin sum compensates float rounding from Python 3.12 on and
        # gives 93.898561313755 here; the pins were made adding left to
        # right.
        cfg = RunConfig(noise=True, seed=0, q_overrides={"merging": 1.0})
        log = run(load_scenario("scenario1", cfg))
        assert len(lane_change_events(log, "merging")) == 29
        assert lateral_disturbance(log, "merging") == 93.89856131375495

    @pytest.mark.parametrize("tol", [1.7, 2.0, 3.0])
    def test_a_completion_event_completes_its_change(self, tol):
        # A settle band wider than half a lane lets complete_maneuver end
        # vehicle4's change before its lane column moves: the change still
        # counts, with the full offset between the two lane centers.
        base = scenario_definition("scenario1")
        centers = GEOMETRY.centers
        for q_merge, q_mainline in ((0.5, 0.7), (0.5, 1.0), (1.0, 1.0)):
            log = run(load_scenario(sweep_scenario(base, q_merge, q_mainline),
                                    RunConfig(lane_settle_tol=tol)))
            done = [e for e in log.events if e.get("vehicle") == "vehicle4"
                    and e["event"] == "change_complete"]
            assert [e["lane"] for e in done] == [1]
            assert lane_change_count(log, "vehicle4") == 1
            assert lateral_disturbance(log, "vehicle4") == \
                abs(centers[2] - centers[1])


def completed_change_segments(log, vehicle_id):
    return sum(1 for kind, _, done in lane_change_events(log, vehicle_id)
               if done and kind == "change")


def counted_from_events(log, vehicle_id):
    """lane_change_count, with the row reader barred."""
    with mock.patch.object(TrajectoryLog, "vehicle_rows",
                           side_effect=AssertionError("reads rows")):
        return lane_change_count(log, vehicle_id)


class TestChangeCountIsTheCompletedSegments:
    """Each change_complete event ends one change segment and marks it
    completed, so counting the events counts the completed segments."""

    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    def test_on_the_5x5_grid(self, scenario):
        base = scenario_definition(scenario)
        axis = (0.0, 0.25, 0.5, 0.75, 1.0)
        total = 0
        for q_merge in axis:
            for q_mainline in axis:
                log = run(load_scenario(
                    sweep_scenario(base, q_merge, q_mainline), RunConfig()))
                for vid in (MERGE_ID, MAINLINE_ID):
                    count = counted_from_events(log, vid)
                    assert count == completed_change_segments(log, vid), \
                        (q_merge, q_mainline, vid)
                    total += count
        assert total > 0

    @settings(max_examples=40, deadline=None)
    @given(generated_scenarios())
    def test_on_generated_scenarios(self, case):
        data, t_max = case
        if overlap_at_start(data) or cannot_stop_at_start(data):
            return  # rejected at load; see test_collisions
        log = run(load_scenario(data, RunConfig(t_max=t_max)))
        for item in data["vehicles"]:
            if item["kind"] == DECISION:
                assert counted_from_events(log, item["id"]) == \
                    completed_change_segments(log, item["id"])


class TestSweep:
    def test_grid_cardinality_and_determinism(self):
        cfg = RunConfig()
        axis = (0.0, 0.5, 1.0)
        first = aggressiveness_sweep("scenario1", axis, axis, cfg)
        # One report per cell, q_mainline outer and q_merge inner.
        assert [(r.q_merge, r.q_mainline) for r in first] == \
            [(qm, ql) for ql in axis for qm in axis]
        second = aggressiveness_sweep("scenario1", axis, axis, cfg)
        assert grid_to_csv(first) == grid_to_csv(second)

    def test_rejects_bad_grids(self):
        with pytest.raises(ConfigError):
            aggressiveness_sweep("scenario1", (), (0.5,), RunConfig())
        with pytest.raises(ConfigError):
            aggressiveness_sweep("scenario1", (0.5, 1.2), (0.5,), RunConfig())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_refuses_q_overrides_before_any_cell_runs(self, jobs):
        # Each cell sets the q of merging and vehicle4, so an override would
        # be dropped; an unknown id would never be checked.
        cfg = RunConfig(q_overrides={"merging": 0.1, "nobody": 0.3})
        with mock.patch("multiprocessing.Pool") as pool, \
                mock.patch("mergesim.metrics.measure_cell") as cell:
            with pytest.raises(ConfigError) as info:
                aggressiveness_sweep("scenario1", (0.5,), (0.5, 1.0), cfg,
                                     jobs=jobs)
        assert str(info.value) == (
            "q_overrides: a sweep sets the q of 'merging' and 'vehicle4' per "
            "cell and takes no overrides, got ['merging', 'nobody']")
        pool.assert_not_called()
        cell.assert_not_called()

    def test_pool_workers_call_a_wrapped_measure_cell(self, monkeypatch):
        # A closure cannot be pickled: the pool gets _cell_job, which looks
        # the wrapper up in each worker.
        real = metrics.measure_cell
        monkeypatch.setattr(metrics, "measure_cell",
                            lambda *args: real(*args))
        cfg, axis = RunConfig(t_max=2.0), (0.0, 1.0)
        assert aggressiveness_sweep("scenario1", axis, axis, cfg, jobs=2) \
            == aggressiveness_sweep("scenario1", axis, axis, cfg, jobs=1)

    def test_measure_cell_refuses_q_overrides(self):
        # A cell sets the q of merging and vehicle4 itself: it once dropped
        # the overrides silently and ran.
        cfg = RunConfig(q_overrides={"nobody": 0.3}, t_max=1.0)
        with pytest.raises(ConfigError) as info:
            measure_cell(scenario_definition("scenario1"), 0.5, 0.5, cfg)
        assert str(info.value) == (
            "q_overrides: a sweep sets the q of 'merging' and 'vehicle4' per "
            "cell and takes no overrides, got ['nobody']")

    def test_measure_cell_leaves_its_config_as_it_was(self):
        cfg = RunConfig(t_max=1.0)
        before = copy.deepcopy(cfg)
        measure_cell(scenario_definition("scenario1"), 0.5, 0.5, cfg)
        assert cfg == before

    def test_collision_flags_cell_but_returns_grid(self):
        base = {"geometry": {"lane_centers": [0.0, 3.3, 6.6, 9.9],
                             "lane_width": 3.3,
                             "merge": {"start": 50.0, "entrance_length": 100.0,
                                       "extension": 20.0}},
                "vehicles": [
                    {"id": "merging", "x0_m": 9.9, "y0_m": 10.0,
                     "v0_kmh": 70.0, "kind": "decision", "q": 0.5},
                    {"id": "vehicle4", "x0_m": 6.6, "y0_m": 0.0,
                     "v0_kmh": 70.0, "kind": "scripted"},
                    # A scripted rear-end in lane 0.
                    {"id": "slow", "x0_m": 0.0, "y0_m": 30.0,
                     "v0_kmh": 50.0, "kind": "scripted"},
                    {"id": "rear", "x0_m": 0.0, "y0_m": 0.0,
                     "v0_kmh": 120.0, "kind": "scripted"},
                ]}
        report = measure_cell(base, 0.5, 0.5, RunConfig(t_max=10.0))
        assert report.collision

    def test_row_shapes_match_published_claims(self):
        cfg = RunConfig()
        reports = aggressiveness_sweep("scenario1", (0.0, 0.5, 1.0),
                                       (0.0, 0.5, 1.0), cfg)
        cells = {(r.q_merge, r.q_mainline): r for r in reports}

        def row(ql):
            return [cells[(qm, ql)] for qm in (0.0, 0.5, 1.0)]

        cautious = row(0.0)
        assert cautious[1].d_long < cautious[0].d_long
        assert cautious[1].d_long < cautious[2].d_long
        assert cautious[1].d_lat < cautious[0].d_lat
        assert cautious[1].d_lat < cautious[2].d_lat
        normal = row(0.5)
        assert normal[1].d_lat < normal[0].d_lat
        assert normal[1].d_lat < normal[2].d_lat
        aggressive = row(1.0)
        assert aggressive[1].d_long <= aggressive[0].d_long
        assert aggressive[1].d_long <= aggressive[2].d_long

    def test_sweep_scenario_requires_known_ids(self):
        base = copy.deepcopy(BUILTIN_SCENARIOS["scenario1"])
        base["vehicles"] = [v for v in base["vehicles"]
                            if v["id"] != "vehicle4"]
        with pytest.raises(ConfigError):
            sweep_scenario(base, 0.5, 0.5)

    def test_parallel_sweep_matches_serial(self):
        cfg = RunConfig()
        axis = (0.0, 1.0)
        serial = aggressiveness_sweep("scenario1", axis, axis, cfg, jobs=1)
        parallel = aggressiveness_sweep("scenario1", axis, axis, cfg, jobs=2)
        assert grid_to_csv(serial) == grid_to_csv(parallel)

    def test_pool_has_no_more_workers_than_cells(self, monkeypatch):
        jobs = os.cpu_count() or 1
        if jobs < 2:
            pytest.skip("jobs above 1 needs two CPUs")
        real_pool = multiprocessing.Pool
        sizes = []

        def recording_pool(processes):
            sizes.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
        cfg = RunConfig(t_max=5.0)
        for merge_axis in ((0.5,), (0.0, 1.0)):
            serial = aggressiveness_sweep("scenario1", merge_axis, (0.5,), cfg,
                                          jobs=1)
            parallel = aggressiveness_sweep("scenario1", merge_axis, (0.5,),
                                            cfg, jobs=jobs)
            assert grid_to_csv(parallel) == grid_to_csv(serial)
        # One cell runs in this process; two cells start at most two workers.
        assert sizes == [2]
