from dataclasses import replace
import math
import sys

from hypothesis import assume, given, settings, strategies as st
import pytest

from mergesim import metrics, world as world_module
from mergesim.config import ConfigError, RunConfig
from mergesim.perception import VehicleView, rects_intersect
from mergesim.planner import MERGE
from mergesim.road import (LaneGeometry, distance_to_merge_end, lane_bands,
                           lane_of)
from mergesim.world import (BUILTIN_SCENARIOS, DECISION, SCRIPTED,
                            load_scenario, run)

from log_reference import derived_icol, eager_icol
from test_collisions import (cannot_stop_at_start, generated_scenarios,
                             overlap_at_start)
from test_trajectory_log import csv_text

GEOMETRY = LaneGeometry()


def minimal_scenario(vehicles):
    return {"geometry": {"lane_centers": [0.0, 3.3, 6.6, 9.9],
                         "lane_width": 3.3,
                         "merge": {"start": 50.0, "entrance_length": 100.0,
                                   "extension": 20.0}},
            "vehicles": vehicles}


class TestLoadScenario:
    def test_builtin_scenario1_matches_initial_conditions(self):
        world = load_scenario("scenario1", RunConfig())
        got = {v.vehicle_id: (v.state.x, v.state.y, v.state.v_long, v.kind)
               for v in world.vehicles}
        assert got["vehicle1"] == (0.0, 30.0, pytest.approx(80 / 3.6), SCRIPTED)
        assert got["vehicle2"] == (3.3, 30.0, pytest.approx(80 / 3.6), SCRIPTED)
        assert got["vehicle3"] == (6.6, 30.0, pytest.approx(80 / 3.6), SCRIPTED)
        assert got["vehicle4"] == (6.6, 5.0, pytest.approx(80 / 3.6), SCRIPTED)
        assert got["vehicle5"] == (6.6, -10.0, pytest.approx(80 / 3.6), SCRIPTED)
        assert got["merging"] == (9.9, 10.0, pytest.approx(70 / 3.6), DECISION)

    def test_builtin_scenario2_matches_initial_conditions(self):
        world = load_scenario("scenario2", RunConfig())
        got = {v.vehicle_id: (v.state.x, v.state.y) for v in world.vehicles}
        assert got["vehicle1"] == (0.0, 10.0)
        assert got["vehicle2"] == (3.3, 10.0)
        assert got["vehicle3"] == (6.6, 10.0)
        assert got["vehicle4"] == (6.6, 5.0)
        assert got["vehicle5"] == (6.6, -10.0)
        assert got["merging"] == (9.9, 0.0)

    def test_off_lane_position_rejected(self):
        bad = minimal_scenario([{"id": "a", "x0_m": 1.7, "y0_m": 0.0,
                                 "v0_kmh": 80.0, "kind": SCRIPTED}])
        with pytest.raises(ConfigError, match=r"vehicles\[0\].x0_m"):
            load_scenario(bad, RunConfig())

    def test_duplicate_id_rejected(self):
        bad = minimal_scenario([
            {"id": "a", "x0_m": 0.0, "y0_m": 0.0, "v0_kmh": 80.0},
            {"id": "a", "x0_m": 3.3, "y0_m": 0.0, "v0_kmh": 80.0}])
        with pytest.raises(ConfigError, match=r"vehicles\[1\].id"):
            load_scenario(bad, RunConfig())

    def test_non_positive_speed_rejected(self):
        bad = minimal_scenario([{"id": "a", "x0_m": 0.0, "y0_m": 0.0,
                                 "v0_kmh": 0.0}])
        with pytest.raises(ConfigError, match=r"vehicles\[0\].v0_kmh"):
            load_scenario(bad, RunConfig())

    def test_unknown_kind_rejected(self):
        bad = minimal_scenario([{"id": "a", "x0_m": 0.0, "y0_m": 0.0,
                                 "v0_kmh": 80.0, "kind": "ghost"}])
        with pytest.raises(ConfigError, match=r"vehicles\[0\].kind"):
            load_scenario(bad, RunConfig())

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown vehicle ids"):
            load_scenario("scenario1", RunConfig(q_overrides={"nobody": 0.5}))

    def test_missing_scenario_rejected(self):
        with pytest.raises(ConfigError, match="no built-in or file"):
            load_scenario("scenario99", RunConfig())


class TestLaneGeometry:
    def test_lane_of_known_positions(self):
        assert lane_of(9.9, GEOMETRY) == GEOMETRY.merge_lane
        assert lane_of(0.0, GEOMETRY) == 0
        assert lane_of(4.95, GEOMETRY) == 1  # midpoint rounds to lower index

    def test_distance_to_merge_end(self):
        def merge_view(y):
            return VehicleView("m", 9.9, y, 20.0, 0.0, 4.5, 1.8,
                               GEOMETRY.merge_lane)
        assert distance_to_merge_end(merge_view(10.0), GEOMETRY) == 140.0
        assert distance_to_merge_end(merge_view(150.0), GEOMETRY) == 0.0
        assert distance_to_merge_end(merge_view(50.0), GEOMETRY) == 100.0

    def test_distance_requires_merge_lane(self):
        outside = VehicleView("m", 6.6, 10.0, 20.0, 0.0, 4.5, 1.8, 2)
        with pytest.raises(ValueError, match="not in the merge lane"):
            distance_to_merge_end(outside, GEOMETRY)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            LaneGeometry(centers=(3.3, 0.0))
        with pytest.raises(ValueError):
            LaneGeometry(entrance_length=0.0)


# Lane centres: an offset, near 0 or far from it, plus uneven steps, some
# of them about as small as lane_of's tie tolerance.
_centers = st.builds(
    lambda offset, steps: tuple(offset + sum(steps[:k])
                                for k in range(len(steps) + 1)),
    st.one_of(st.just(0.0), st.floats(-50.0, 50.0), st.floats(-1e7, 1e7)),
    st.lists(st.one_of(st.floats(0.5, 20.0), st.floats(1e-10, 1e-8),
                       st.sampled_from((3.3, 1e-9, 2e-9))),
             min_size=1, max_size=5))


def _around(x):
    """x and the floats next to it, then points beyond it either way."""
    return (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf),
            x - 1e-9, x + 1e-9, x - 1.0, x + 1.0)


class TestLaneBands:
    """Inside its lane's band, a moved view keeps its lane without a
    lane_of call; every x in a band must be that lane for lane_of."""

    @settings(max_examples=300, deadline=None)
    @given(_centers)
    def test_every_x_inside_a_band_is_that_lane(self, centers):
        assume(all(a < b for a, b in zip(centers, centers[1:])))
        geometry = LaneGeometry(centers=centers)
        bands = lane_bands(geometry)
        assert len(bands) == len(centers)
        points = list(centers)
        points += [(a + b) / 2.0 for a, b in zip(centers, centers[1:])]
        points += [edge for band in bands for edge in band]
        for x in [p for point in points for p in _around(point)]:
            inside = [k for k, (lo, hi) in enumerate(bands) if lo < x < hi]
            assert len(inside) <= 1
            if inside:
                assert lane_of(x, geometry) == inside[0], (x, bands)

    def test_builtin_bands_reach_close_to_the_midpoints(self):
        bands = lane_bands(GEOMETRY)
        assert bands[0][0] < 0.0 and bands[-1][1] > 9.9
        for (_, hi), (lo, _), mid in zip(bands, bands[1:], (1.65, 4.95, 8.25)):
            assert mid - 2e-9 < hi < mid < lo < mid + 2e-9

    def test_a_lane_closer_than_the_tolerance_gets_no_band(self):
        geometry = LaneGeometry(centers=(0.0, 5e-10, 3.3))
        lo, hi = lane_bands(geometry)[1]
        assert not lo < hi
        assert lane_of(1.0, geometry) == 0  # never lane 1 past lane 0


class TestRun:
    def test_scripted_vehicle_holds_preset_exactly(self):
        scenario = minimal_scenario([{"id": "a", "x0_m": 0.0, "y0_m": 0.0,
                                      "v0_kmh": 80.0, "kind": SCRIPTED}])
        log = run(load_scenario(scenario, RunConfig(t_max=5.0)))
        rows = log.vehicle_rows("a")
        v0 = 80.0 / 3.6
        for r in rows:
            assert abs(r[4] - v0) < 1e-9
            assert abs(r[2] - 0.0) < 1e-6
        assert rows[-1][3] == pytest.approx(v0 * (len(rows) - 1) * 0.01)

    def test_empty_world_terminates_immediately(self):
        log = run(load_scenario(minimal_scenario([]), RunConfig()))
        assert log.rows == []

    def test_repeated_runs_are_identical(self):
        logs = []
        for _ in range(2):
            cfg = RunConfig(q_overrides={"merging": 0.5}, seed=3)
            logs.append(run(load_scenario("scenario1", cfg)))
        assert logs[0].rows == logs[1].rows
        assert csv_text(logs[0]) == csv_text(logs[1])
        assert logs[0].events == logs[1].events

    def test_rejects_bad_t_max(self):
        world = load_scenario("scenario1", RunConfig())
        world.cfg.t_max = 0.0
        with pytest.raises(ConfigError):
            run(world)

    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_merge_completes_inside_the_lane(self, scenario, q):
        cfg = RunConfig(q_overrides={"merging": q})
        log = run(load_scenario(scenario, cfg))
        assert log.collision is None
        assert not log.forced_stop
        assert any(e["event"] == "merge_complete" for e in log.events)
        for r in log.vehicle_rows("merging"):
            if r[6] == GEOMETRY.merge_lane:
                assert r[3] + 4.5 / 2.0 <= GEOMETRY.hard_end + 1e-9

    def test_no_rectangles_ever_intersect(self):
        cfg = RunConfig(q_overrides={"merging": 0.9})
        log = run(load_scenario("scenario1", cfg))
        by_time = {}
        for r in log.rows:
            by_time.setdefault(r[0], []).append(r)
        for i, (t, rows) in enumerate(sorted(by_time.items())):
            if i % 10:
                continue  # sample every tenth step; the run loop checks all
            views = [VehicleView(r[1], r[2], r[3], r[4], r[5], 4.5, 1.8, r[6])
                     for r in rows]
            for a in range(len(views)):
                for b in range(a + 1, len(views)):
                    assert not rects_intersect(views[a].pose(), views[b].pose())

    def test_decision_epoch_must_divide(self):
        with pytest.raises(ConfigError):
            RunConfig(dt=0.01, epoch=0.015).validate()

    def test_perception_noise_is_seed_deterministic(self):
        logs = []
        for _ in range(2):
            cfg = RunConfig(q_overrides={"merging": 0.5}, noise=True,
                            noise_sigma=0.5, seed=9)
            logs.append(run(load_scenario("scenario1", cfg)))
        assert logs[0].rows == logs[1].rows
        # a different seed perturbs perception and therefore the log
        other = run(load_scenario(
            "scenario1", RunConfig(q_overrides={"merging": 0.5}, noise=True,
                                   noise_sigma=0.5, seed=10)))
        assert other.rows != logs[0].rows


def checked_slot_steps(world):
    """Run `world`, checking at every merging decision-vehicle step that
    its attention's insertion slot is what a lookup of the latch's ids at
    that step finds; returns how many checked steps had a slot leader."""
    slot_of = {v.vehicle_id: k for k, v in enumerate(world.vehicles)}
    real = world_module._controls_for
    with_leader = 0

    def checking(veh, ego, views, attention, geometry):
        nonlocal with_leader
        brain = veh.brain
        if brain.needs_merge:
            assert attention.slot_leader == slot_of.get(brain.slot_leader_id)
            assert attention.slot_follower == \
                slot_of.get(brain.slot_follower_id)
            with_leader += attention.slot_leader is not None
        return real(veh, ego, views, attention, geometry)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(world_module, "_controls_for", checking)
        run(world)
    return with_leader


class TestEpochSlots:
    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 1.0])
    def test_builtin_merges(self, scenario, q):
        cfg = RunConfig(q_overrides={"merging": q})
        assert checked_slot_steps(load_scenario(scenario, cfg)) > 0

    def test_scenario2_livelock_cell(self):
        data = metrics.sweep_scenario(BUILTIN_SCENARIOS["scenario2"], 1.0, 0.5)
        world = load_scenario(data, RunConfig())
        assert checked_slot_steps(world) > 0


def settled_end_time(settle_time):
    cfg = RunConfig(settle_time=settle_time)
    return run(load_scenario("scenario1", cfg)).end_time


class TestSettle:
    def test_no_decision_vehicle_runs_to_t_max(self):
        scenario = minimal_scenario([
            {"id": "a", "x0_m": 0.0, "y0_m": 0.0, "v0_kmh": 80.0},
            {"id": "b", "x0_m": 3.3, "y0_m": 20.0, "v0_kmh": 90.0}])
        log = run(load_scenario(scenario, RunConfig(settle_time=0.0,
                                                    t_max=3.0)))
        assert len(log.rows) == 2 * 300
        assert log.end_time == pytest.approx(3.0)

    @pytest.mark.parametrize("settle_time", [2.0, 5.0])
    def test_run_lasts_at_least_settle_time_past_the_first_settled_step(
            self, settle_time):
        assert (settled_end_time(settle_time)
                >= settled_end_time(0.0) + settle_time)

    @pytest.mark.parametrize("settle_time, end_time", [
        (0.0, 7.75), (2.0, 16.240000000000002), (5.0, 19.250000000000004)])
    def test_scenario1_end_times_are_pinned(self, settle_time, end_time):
        assert settled_end_time(settle_time) == end_time


def view_bits(view):
    """A view's fields, each float as its exact bits (float.hex)."""
    return tuple(f.hex() if isinstance(f, float) else f for f in view)


def assert_views_track_states(world):
    views = world.snapshot()
    assert len(views) == len(world.vehicles)
    for veh, view in zip(world.vehicles, views):
        assert view_bits(view) == view_bits(veh.view(world.geometry))


class TestViews:
    """The world holds one view per vehicle; the run moves each view with
    its vehicle, and SimVehicle.view builds a view of the current state."""

    def test_snapshots_of_one_state_share_views(self):
        world = load_scenario("scenario1", RunConfig())
        first, second = world.snapshot(), world.snapshot()
        assert first is not second
        assert all(a is b for a, b in zip(first, second))

    def test_moved_vehicles_get_fresh_views(self):
        world = load_scenario("scenario1", RunConfig(t_max=0.01))
        before = world.snapshot()
        run(world)  # one step: every vehicle moves
        after = world.snapshot()
        kinds = set()
        for veh, old, new in zip(world.vehicles, before, after):
            kinds.add(veh.kind)
            assert new is not old
            assert new.y > old.y
            assert new == replace(veh).view(world.geometry)  # built anew
        assert kinds == {SCRIPTED, DECISION}

    def test_lane_follows_x_for_each_new_state(self):
        world = load_scenario("scenario1", RunConfig())
        veh = world.vehicles[0]
        assert veh.view(world.geometry).lane == 0
        veh.state = veh.state._replace(x=3.3)
        assert veh.view(world.geometry).lane == 1
        veh.state = veh.state._replace(y=veh.state.y + 1.0)  # same x
        assert veh.view(world.geometry).lane == 1
        veh.state = veh.state._replace(x=4.95)  # a midpoint: lower index
        assert veh.view(world.geometry).lane == 1
        veh.state = veh.state._replace(x=5.0)
        assert veh.view(world.geometry).lane == 2

    def test_each_view_takes_the_lane_of_its_geometry(self):
        world = load_scenario("scenario1", RunConfig())
        veh = world.vehicles[0]
        built = veh.view(world.geometry)
        equal = replace(world.geometry)
        assert veh.view(equal) is not built
        assert veh.view(equal) == built
        shifted = LaneGeometry(centers=(-3.3, 0.0, 3.3, 6.6))
        assert veh.view(shifted).lane == 1
        assert veh.view(world.geometry).lane == 0

    # Steps 550, 700 and 850 fall inside the merges of scenario1 and
    # scenario2 and inside scenario2's later lane change.
    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("steps", [1, 2, 550, 700, 850])
    def test_views_track_states_on_builtin_scenarios(self, scenario, steps):
        world = load_scenario(scenario, RunConfig(t_max=steps * 0.01))
        run(world)
        assert_views_track_states(world)

    def test_a_tracked_view_can_be_mid_lane_change(self):
        world = load_scenario("scenario1", RunConfig(t_max=5.5))
        run(world)  # 550 steps
        merging = world.vehicles[-1]
        view = world.snapshot()[-1]
        assert merging.brain.maneuver == MERGE
        assert view.heading != 0.0 and view.x not in GEOMETRY.centers
        assert_views_track_states(world)

    @settings(max_examples=40, deadline=None)
    @given(generated_scenarios(), st.sampled_from((1, 7, None)))
    def test_views_track_states_on_generated_scenarios(self, case, steps):
        data, t_max = case
        assume(not overlap_at_start(data) and not cannot_stop_at_start(data))
        world = load_scenario(data, RunConfig(
            t_max=t_max if steps is None else steps * 0.01))
        run(world)
        assert_views_track_states(world)

    def test_a_state_set_before_the_run_is_the_first_row(self):
        world = load_scenario("scenario1", RunConfig(t_max=0.01))
        scripted, merging = world.vehicles[0], world.vehicles[-1]
        scripted.state = scripted.state._replace(y=12.5, v_long=20.0)
        merging.state = merging.state._replace(x=8.0, y=11.0, heading=0.02,
                                               v_long=18.0)
        log = run(world)  # one step
        first = log.rows[:len(world.vehicles)]
        assert first[0][1:7] == ("vehicle1", 0.0, 12.5, 20.0, 0.0, 0)
        assert first[-1][1:7] == ("merging", 8.0, 11.0, 18.0, 0.02,
                                  lane_of(8.0, GEOMETRY))


def summed_y(y0, v_preset, dt, steps):
    """y0 plus v_preset * dt, once per step, the way a run sums it."""
    y = y0
    for _ in range(steps):
        y = y + v_preset * dt
    return y


def state_bits(state):
    return tuple(f.hex() for f in state)


def assert_scripted_states_summed(world, starts, steps):
    """Each scripted vehicle's state is its start state with y summed once
    per completed step, field for field, and matches its view."""
    scripted = 0
    for veh, start, view in zip(world.vehicles, starts, world.views):
        if veh.kind != SCRIPTED:
            continue
        scripted += 1
        want = start._replace(y=summed_y(start.y, veh.v_preset,
                                         world.cfg.dt, steps))
        assert state_bits(veh.state) == state_bits(want), veh.vehicle_id
        assert view_bits(veh.view(world.geometry)) == view_bits(view)
    assert scripted


class TestScriptedStateWriteBack:
    """A run moves a scripted vehicle's view only; its state gets the
    view's y when the run ends, however it ends."""

    def run_and_check(self, world):
        starts = [veh.state for veh in world.vehicles]
        log = run(world)
        assert_scripted_states_summed(
            world, starts, len(log.rows) // len(world.vehicles))
        return log

    def test_after_settling(self):
        world = load_scenario("scenario1", RunConfig())
        log = self.run_and_check(world)
        assert log.collision is None
        assert log.end_time < world.cfg.t_max - world.cfg.dt

    def test_after_t_max(self):
        world = load_scenario("scenario1", RunConfig(t_max=3.0))
        log = self.run_and_check(world)
        assert log.collision is None
        assert len(log.rows) == 300 * len(world.vehicles)

    def test_after_a_collision(self):
        scenario = minimal_scenario([
            {"id": "fast", "x0_m": 6.6, "y0_m": 0.0, "v0_kmh": 120.0},
            {"id": "slow", "x0_m": 6.6, "y0_m": 20.0, "v0_kmh": 40.0},
            {"id": "merging", "x0_m": 9.9, "y0_m": 10.0, "v0_kmh": 70.0,
             "kind": DECISION}])
        world = load_scenario(scenario, RunConfig())
        log = self.run_and_check(world)
        assert log.collision is not None
        assert log.collision["vehicles"] == ["fast", "slow"]

    def test_after_the_integration_diverges(self, monkeypatch):
        completed = []
        real_step = world_module.step

        def counting_step(*args):
            state = real_step(*args)
            completed.append(1)
            return state

        monkeypatch.setattr(world_module, "step", counting_step)
        world = load_scenario("scenario1", RunConfig(mass=10.0))
        starts = [veh.state for veh in world.vehicles]
        with pytest.raises(ConfigError, match="integration diverged"):
            run(world)
        # One decision vehicle, the last one: the diverging step moved no
        # view, and no state of a scripted vehicle either.
        assert [v.kind for v in world.vehicles].count(DECISION) == 1
        assert len(completed) > 0
        assert_scripted_states_summed(world, starts, len(completed))


class TestDerivedIcol:
    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("noise", [False, True])
    def test_derived_column_equals_eager_recomputation(self, scenario, q,
                                                       noise):
        cfg = RunConfig(q_overrides={"merging": q}, noise=noise)
        world = load_scenario(scenario, cfg)
        log = run(world)
        want, n = eager_icol(log), len(world.vehicles)
        icol = derived_icol(log)
        for k, veh in enumerate(world.vehicles):
            assert icol[veh.vehicle_id] == want[k::n]

    def test_lone_vehicle_scores_zero(self):
        scenario = minimal_scenario([{"id": "a", "x0_m": 0.0, "y0_m": 0.0,
                                      "v0_kmh": 80.0, "kind": SCRIPTED}])
        log = run(load_scenario(scenario, RunConfig(t_max=1.0)))
        assert derived_icol(log) == {"a": [0.0] * len(log.rows)}

    def test_sweep_never_derives_icol(self, monkeypatch):
        derived = []
        real = world_module.collision_index

        def counting(a, b):
            derived.append(1)
            return real(a, b)

        monkeypatch.setattr(world_module, "collision_index", counting)
        logs = []
        real_run = metrics.run

        def keeping_run(world, *args):
            log = real_run(world, *args)
            logs.append((log, len(world.vehicles)))
            return log

        monkeypatch.setattr(metrics, "run", keeping_run)
        cfg = RunConfig()
        base = BUILTIN_SCENARIOS["scenario1"]
        metrics.measure_cell(base, 0.5, 0.5, cfg)
        metrics.aggressiveness_sweep(base, (0.0, 1.0), (0.5,), cfg, jobs=1)
        assert derived == []
        assert len(logs) == 3
        for log, vehicles in logs:
            steps = round(log.end_time / cfg.dt)
            assert len(log.rows) == vehicles * steps
        csv_text(logs[0][0])
        assert derived  # the counter sits on the path that derives i_col


def _run_counting_min_max(world):
    """run(world) and the number of builtin min and max calls it made."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "c_call" and (arg is min or arg is max):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        log = run(world)
    finally:
        sys.setprofile(previous)
    return log, calls


def test_steps_call_no_builtin_min_or_max():
    """The step path clamps inline: a whole sweep cell calls builtin min and
    max as often as its first second does, in per-run set-up only."""
    base = metrics.sweep_scenario(BUILTIN_SCENARIOS["scenario1"], 0.5, 0.75)
    full, full_calls = _run_counting_min_max(
        load_scenario(base, RunConfig()))
    short, short_calls = _run_counting_min_max(
        load_scenario(base, RunConfig(t_max=1.0)))
    assert short.end_time < 2.0 < full.end_time
    assert full_calls == short_calls
