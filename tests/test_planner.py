from contextlib import contextmanager
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mergesim import planner, world as world_module
from mergesim.config import ConfigError, RunConfig
from mergesim.game import LEFT, STRAIGHT
from mergesim.perception import VehicleView, pose, rects_intersect
from mergesim.metrics import sweep_scenario
from mergesim.planner import (ACCELERATE, DECELERATE, HOLD, KEEP,
                              LANE_CHANGE_MARGIN, MERGE, BrainState,
                              acceleration_game,
                              complete_maneuver, decide,
                              discretionary_lane_change, entrance_threat,
                              evaluate_slot, lane_change_safe, merging_game,
                              predict_states, sinking_threat)
from mergesim.road import LaneGeometry, lane_of
from mergesim.world import BUILTIN_SCENARIOS, load_scenario, run

from test_collisions import generated_scenarios

GEOMETRY = LaneGeometry()
CFG = RunConfig()


def view(vid, x, y, v, heading=0.0):
    return VehicleView(vid, x, y, v, heading, 4.5, 1.8, lane_of(x, GEOMETRY))


def scenario_views(name):
    world = load_scenario(name, RunConfig())
    return world.snapshot(), world.profiles


class TestPredictStates:
    def test_zero_horizon_is_identity(self):
        views = [view("a", 6.6, 10.0, 20.0), view("b", 9.9, 0.0, 19.0)]
        pred = predict_states(views, "b", 1.5, 0.0)
        assert [(v.y, v.v) for v in pred] == [(10.0, 20.0), (0.0, 19.0)]

    def test_constant_speed_propagation(self):
        views = [view("a", 6.6, 10.0, 22.2)]
        pred = predict_states(views, "none", 1.5, 2.0)
        assert pred[0].y == pytest.approx(10.0 + 44.4)
        assert pred[0].v == pytest.approx(22.2)

    def test_ego_constant_acceleration(self):
        views = [view("ego", 9.9, 0.0, 19.4)]
        pred = predict_states(views, "ego", 1.5, 2.0)
        assert pred[0].y == pytest.approx(41.8)
        assert pred[0].v == pytest.approx(22.4)

    def test_speed_floors_at_zero(self):
        views = [view("ego", 9.9, 0.0, 1.0)]
        pred = predict_states(views, "ego", -1.0, 5.0)
        assert pred[0].v == 0.0
        assert pred[0].y == pytest.approx(0.5)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            predict_states([view("ego", 9.9, 0.0, 1.0)], "ego", 1.0, -1.0)


class TestMergingGame:
    def test_empty_adjacent_lane_merges(self):
        ego = view("ego", 9.9, 60.0, 20.0)
        profile = CFG.profile(0.5)
        slot = evaluate_slot(ego, [ego], GEOMETRY.merge_target_lane, profile)
        action, competitor = merging_game(ego, [ego], slot, profile, 90.0,
                                          GEOMETRY, {})
        assert action == LEFT and competitor is None

    def test_first_epochs_stay(self):
        # Early in the first scenario every disposition holds back.
        views, profiles = scenario_views("scenario1")
        ego = next(v for v in views if v.vehicle_id == "merging")
        for q in (0.1, 0.5, 0.9):
            profile = CFG.profile(q)
            slot = evaluate_slot(ego, views, GEOMETRY.merge_target_lane,
                                 profile)
            action, competitor = merging_game(
                ego, views, slot, profile, 140.0, GEOMETRY, profiles)
            assert action == STRAIGHT
            assert competitor == "vehicle4"


class TestAccelerationGame:
    def test_aggressive_accelerates_at_start(self):
        views, _ = scenario_views("scenario1")
        ego = next(v for v in views if v.vehicle_id == "merging")
        plan = acceleration_game(ego, views, CFG.profile(0.9), GEOMETRY, CFG)
        assert plan.name == ACCELERATE

    def test_cautious_decelerates_behind_last_vehicle(self):
        views, _ = scenario_views("scenario1")
        ego = next(v for v in views if v.vehicle_id == "merging")
        plan = acceleration_game(ego, views, CFG.profile(0.1), GEOMETRY, CFG)
        assert plan.name == DECELERATE
        assert plan.competing_id == "vehicle5"

    def test_redesignation_order(self):
        # The decelerate slot sits behind the accelerate slot.
        views, _ = scenario_views("scenario1")
        ego = next(v for v in views if v.vehicle_id == "merging")
        accel = acceleration_game(ego, views, CFG.profile(0.9), GEOMETRY, CFG)
        decel = acceleration_game(ego, views, CFG.profile(0.1), GEOMETRY, CFG)
        order = {"vehicle3": 3, "vehicle4": 2, "vehicle5": 1}
        assert order[decel.competing_id] < order[accel.competing_id]

    def test_hold_when_nothing_feasible(self):
        # Bumper-to-bumper wall in the target lane: no directive helps.
        views = [view("ego", 9.9, 60.0, 20.0)]
        for i, y in enumerate(range(-100, 260, 10)):
            views.append(view(f"wall{i}", 6.6, float(y), 20.0))
        plan = acceleration_game(views[0], views, CFG.profile(0.5),
                                 GEOMETRY, CFG)
        assert plan.name == HOLD
        assert plan.competing_id is None


class TestLaneChangeSafety:
    def test_vetoes_overlapping_slot(self):
        ego = view("ego", 9.9, 60.0, 20.0)
        blocker = view("blocker", 6.6, 60.0, 20.0)  # exactly alongside
        assert not lane_change_safe(ego, [ego, blocker], 2,
                                    CFG.profile(0.9), GEOMETRY)

    def test_vetoes_a_long_turned_body_more_than_a_lane_away(self):
        # A 12 m body at 0.7 rad, its centre 5.4 m across from the target
        # centre and 4 m behind the ego, reaches 4.55 m toward it: one
        # front corner lies inside the ghost at horizon 0.  A reach of
        # lane_width + 2 m (5.3 m) once skipped it.
        ego = view("ego", 9.9, 60.0, 20.0)
        turned = VehicleView("turned", 6.6 - 5.4, 56.0, 20.0, 0.7, 12.0, 1.8,
                             0)
        ghost = pose(6.6, 60.0, 0.0, 0.9 + LANE_CHANGE_MARGIN,
                     2.25 + LANE_CHANGE_MARGIN)
        assert rects_intersect(ghost, pose(turned.x, turned.y, 0.7, 0.9, 6.0))
        assert not lane_change_safe(ego, [ego, turned], 2, CFG.profile(0.9),
                                    GEOMETRY)

    def test_accepts_clear_lane(self):
        ego = view("ego", 9.9, 60.0, 20.0)
        far = view("far", 6.6, 120.0, 20.0)
        assert lane_change_safe(ego, [ego, far], 2, CFG.profile(0.9),
                                GEOMETRY)

    def test_no_merge_decision_while_predicted_overlap(self):
        ego = view("ego", 9.9, 60.0, 20.0)
        blocker = view("blocker", 6.6, 62.0, 20.0)
        brain = BrainState(current_lane=3, v_ref=20.0, needs_merge=True)
        profile = CFG.profile(1.0)
        out = decide(ego, [ego, blocker], brain, profile, GEOMETRY,
                     {"ego": profile, "blocker": CFG.profile(0.5)}, CFG)
        assert out.maneuver != MERGE


class TestDiscretionary:
    def test_no_gain_no_change(self):
        ego = view("ego", 6.6, 0.0, 22.2)
        lead = view("lead", 6.6, 60.0, 22.2)
        twin = view("twin", 3.3, 60.0, 22.2)
        profiles = {v.vehicle_id: CFG.profile(0.5) for v in (ego, lead, twin)}
        assert discretionary_lane_change(ego, [ego, lead, twin],
                                         CFG.profile(0.5), GEOMETRY,
                                         profiles, own_gap=55.5) is None

    def test_tight_leader_with_open_lane_changes(self):
        ego = view("ego", 6.6, 0.0, 22.2)
        lead = view("lead", 6.6, 8.0, 22.2)
        profiles = {v.vehicle_id: CFG.profile(0.5) for v in (ego, lead)}
        target = discretionary_lane_change(ego, [ego, lead],
                                           CFG.profile(0.5), GEOMETRY,
                                           profiles, own_gap=3.5)
        assert target == 1

    def test_fast_close_follower_blocks_change(self):
        ego = view("ego", 6.6, 0.0, 22.2)
        lead = view("lead", 6.6, 8.0, 22.2)
        chaser = view("chaser", 3.3, -8.0, 30.0)
        profiles = {v.vehicle_id: CFG.profile(0.5)
                    for v in (ego, lead, chaser)}
        target = discretionary_lane_change(ego, [ego, lead, chaser],
                                           CFG.profile(0.5), GEOMETRY,
                                           profiles, own_gap=3.5)
        # Entering ahead of a fast, close follower is dominated: the
        # squeeze penalty exceeds any headway gain.
        assert target is None


class TestDecide:
    def test_mid_maneuver_latch(self):
        ego = view("ego", 8.5, 80.0, 21.0)  # between lane centers
        brain = BrainState(current_lane=3, v_ref=20.0, needs_merge=True,
                           maneuver=MERGE, target_lane=2, competing_id="x")
        profile = CFG.profile(0.5)
        out = decide(ego, [ego], brain, profile, GEOMETRY, {"ego": profile}, CFG)
        assert out is brain

    def test_is_deterministic(self):
        views, profiles = scenario_views("scenario1")
        ego = next(v for v in views if v.vehicle_id == "merging")
        brain = BrainState(current_lane=3, v_ref=ego.v, needs_merge=True)
        profile = CFG.profile(0.7)
        first = decide(ego, views, brain, profile, GEOMETRY, profiles, CFG)
        second = decide(ego, views, brain, profile, GEOMETRY, profiles, CFG)
        assert first == second

    def test_settled_maneuver_is_left_to_the_step_loop(self):
        ego = view("ego", 6.65, 100.0, 22.0)  # within the settle band
        brain = BrainState(current_lane=3, v_ref=19.4, needs_merge=True,
                           maneuver=MERGE, target_lane=2)
        profile = CFG.profile(0.5)
        out = decide(ego, [ego], brain, profile, GEOMETRY, {"ego": profile}, CFG)
        assert out is brain


class TestRampThreats:
    """Which ramp vehicle a target-lane driver watches, and when it gives
    way: the margin ahead of its nose and the nearest of several."""

    def sinking(self, dy_ahead):
        # A ramp vehicle 1 m/s slower than the ego, seen braking at 10 m/s^2
        # over the last epoch, whose projection at the prediction horizon
        # sits dy_ahead ahead of the ego's centre; |dy| stays below
        # evade_near.
        profile = CFG.profile(0.5)
        ego = view("ego", 6.6, 100.0, 25.0)
        dy = dy_ahead + (ego.v - 24.0) * profile.prediction_time
        threat = view("ramp", 9.9, ego.y + dy, 24.0)
        assert abs(dy) < CFG.evade_near
        brain = BrainState(current_lane=2, v_ref=ego.v,
                           threat_memo_id="ramp",
                           threat_memo_speed=24.0 + CFG.epoch * 10.0)
        return sinking_threat(ego, threat, brain, profile, CFG)

    def test_sinking_threat_margin_is_two_metres_ahead_of_the_nose(self):
        length = view("ego", 6.6, 0.0, 0.0).length
        assert self.sinking(length + 1.0)
        assert self.sinking(length + 2.0 - 1e-6)
        assert not self.sinking(length + 2.0 + 1e-6)

    def test_entrance_threat_is_the_nearest_ramp_vehicle(self):
        ego = view("ego", 6.6, 80.0, 22.0)
        near = view("near", 9.9, 83.0, 20.0)
        far = view("far", 9.9, 100.0, 20.0)
        assert ego.lane == GEOMETRY.merge_target_lane
        assert near.lane == far.lane == GEOMETRY.merge_lane
        for views in ([ego, near, far], [ego, far, near]):
            assert entrance_threat(ego, views, GEOMETRY, CFG) is near


class TestCompleteManeuver:
    def test_settling_completes_merge(self):
        ego = view("ego", 6.65, 100.0, 22.0)  # within the settle band
        brain = BrainState(current_lane=3, v_ref=19.4, needs_merge=True,
                           maneuver=MERGE, target_lane=2)
        out = complete_maneuver(ego, [ego], brain, GEOMETRY, CFG)
        assert out.maneuver == KEEP
        assert out.current_lane == 2
        assert not out.needs_merge
        assert out.v_ref == pytest.approx(22.0)  # adopts the flow speed


class TestEndOfLaneGuard:
    def test_blocked_merge_stops_before_hard_end(self):
        # A solid wall of traffic in the target lane: the vehicle must
        # brake to a stop inside the merge lane, never crossing its end.
        vehicles = [{"id": "merging", "x0_m": 9.9, "y0_m": 10.0,
                     "v0_kmh": 70.0, "kind": "decision", "q": 0.5}]
        for i, y in enumerate(range(-150, 400, 10)):
            vehicles.append({"id": f"wall{i}", "x0_m": 6.6, "y0_m": float(y),
                             "v0_kmh": 70.0, "kind": "scripted"})
        scenario = {"geometry": {"lane_centers": [0.0, 3.3, 6.6, 9.9],
                                 "lane_width": 3.3,
                                 "merge": {"start": 50.0,
                                           "entrance_length": 100.0,
                                           "extension": 20.0}},
                    "vehicles": vehicles}
        cfg = RunConfig(t_max=30.0)
        log = run(load_scenario(scenario, cfg))
        assert log.collision is None
        assert log.forced_stop
        rows = log.vehicle_rows("merging")
        hard_end = GEOMETRY.hard_end
        for r in rows:
            if r[6] == GEOMETRY.merge_lane:
                assert r[3] + 4.5 / 2.0 <= hard_end + 1e-6
        assert rows[-1][4] < 1.0  # braked to rest


class TestHoldBesideLivelock:
    """The merger that holds beside a slot it may never take (ROADMAP
    item 6), as it behaves today: scenario2 as the sweep builds it,
    q_merge 1.0, q_mainline 0.5, noise off.  A fix of that item moves it.
    """

    def test_holds_beside_vehicle5_until_guarded_to_a_forced_stop(self):
        real_decide = world_module.decide
        epochs = []  # (y, latch, slot beside feasible, lane_change_safe)

        def decide(ego, views, brain, profile, geometry, *args, **kwargs):
            got = real_decide(ego, views, brain, profile, geometry, *args,
                              **kwargs)
            if (ego.vehicle_id == "merging" and brain.maneuver == KEEP
                    and ego.lane == geometry.merge_lane):
                target = geometry.merge_target_lane
                slot = evaluate_slot(ego, views, target, profile)
                epochs.append((ego.y, got, slot.feasible,
                               lane_change_safe(ego, views, target, profile,
                                                geometry)))
            return got

        data = sweep_scenario(BUILTIN_SCENARIOS["scenario2"], 1.0, 0.5)
        with mock.patch.object(world_module, "decide", decide):
            log = run(load_scenario(data, RunConfig()))

        held = [e for e in epochs if 27.49 <= e[0] < 147.77]
        assert len(held) == 57
        for y, latch, feasible, safe in held:
            assert (latch.directive, latch.guard) == (HOLD, False), y
            assert (latch.slot_leader_id, latch.slot_follower_id,
                    latch.competing_id) == ("vehicle4", "vehicle5",
                                            "vehicle5"), y
            assert feasible and not safe, y
        guarded = [e for e in epochs if e[1].guard]
        assert guarded[0][0] == pytest.approx(147.77, abs=0.005)
        assert all(latch.directive == DECELERATE for _, latch, _, _ in guarded)
        assert [e for e in epochs if e[0] >= 147.77] == guarded
        assert log.forced_stop and log.collision is None
        assert [(e["t"], e["event"]) for e in log.events] == [
            (11.38, "forced_stop")]


@contextmanager
def slots_judged_once():
    """Fail on a second evaluate_slot call for the same slot within one
    _merge_lane_epoch or discretionary_lane_change call: the same ego id
    and y, lane and exclusions, on the same views (a stopped ego's predicted
    y is its own, among vehicles that moved).  Yields the count of the calls
    checked, by the name of the function that made them."""
    real_evaluate_slot = planner.evaluate_slot
    checked = {}
    under_way = []  # (name, keys seen) of the call that is running

    def evaluate_slot(ego, views, lane, profile, exclude=()):
        if under_way:
            name, seen = under_way[-1]
            key = (ego.vehicle_id, ego.y, lane, exclude, tuple(views))
            assert key not in seen, (name, key[:4])
            seen.add(key)
            checked[name] = checked.get(name, 0) + 1
        return real_evaluate_slot(ego, views, lane, profile, exclude)

    def scoped(name):
        real = getattr(planner, name)

        def call(*args, **kwargs):
            under_way.append((name, set()))
            try:
                return real(*args, **kwargs)
            finally:
                under_way.pop()
        return mock.patch.object(planner, name, call)

    with mock.patch.object(planner, "evaluate_slot", evaluate_slot), \
            scoped("_merge_lane_epoch"), scoped("discretionary_lane_change"):
        yield checked


class TestSlotJudgedOnce:
    def test_builtin_runs_and_a_sweep_cell(self):
        # vehicle4 decides in a sweep cell: discretionary changes with a
        # follower in the candidate lane.
        worlds = [load_scenario(name, RunConfig(q_overrides={"merging": q}))
                  for name in ("scenario1", "scenario2")
                  for q in (0.1, 0.5, 0.9)]
        worlds.append(load_scenario(sweep_scenario(
            BUILTIN_SCENARIOS["scenario1"], 0.5, 0.75), RunConfig()))
        with slots_judged_once() as checked:
            for world in worlds:
                run(world)
        assert checked["_merge_lane_epoch"] > 0
        assert checked["discretionary_lane_change"] > 0

    @settings(max_examples=40, deadline=None)
    @given(case=generated_scenarios(), noise=st.booleans())
    def test_generated_scenarios(self, case, noise):
        data, t_max = case
        try:
            world = load_scenario(data, RunConfig(noise=noise, seed=3,
                                                  t_max=t_max))
        except ConfigError:
            return  # overlapping or unstoppable at the start
        with slots_judged_once():
            run(world)


class TestBoundaryValues:
    """What the planner gives where a comparison's boundary is met exactly."""

    def test_a_standing_vehicle_never_reaches(self):
        assert planner._time_to_reach(0.0, 0.0, 5.0) == math.inf

    def test_no_deceleration_never_stops(self):
        assert planner.stopping_distance(10.0, 0.0) == math.inf

    def test_nearest_in_lane_takes_the_later_of_a_tie(self):
        ego = view("ego", 6.6, 50.0, 20.0)
        behind, ahead = view("b", 6.6, 40.0, 20.0), view("a", 6.6, 60.0, 20.0)
        nearest = planner.nearest_in_lane
        assert nearest(ego, [behind, ahead], ego.lane, 100.0) is ahead
        assert nearest(ego, [ahead, behind], ego.lane, 100.0) is behind

    def test_nearest_in_lane_sees_as_far_as_visibility(self):
        ego = view("ego", 6.6, 50.0, 20.0)
        edge = view("e", 6.6, 60.0, 20.0)
        assert planner.nearest_in_lane(ego, [ego, edge], ego.lane, 10.0) is edge
