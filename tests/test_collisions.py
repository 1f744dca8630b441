"""Collision checking over the run-start pair list, on generated scenarios."""

from contextlib import contextmanager
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mergesim import world as world_module
from mergesim.config import ConfigError, RunConfig
from mergesim.dynamics import GRAVITY
from mergesim.perception import (VehicleView, bumper_gap, pose,
                                 rects_intersect)
from mergesim.world import (DECISION, KMH, SCRIPTED, _collision_pairs,
                            _find_collision, load_scenario, run)

BODY_WIDTH = RunConfig().body_width
BODY_LENGTH = RunConfig().body_length


def all_pairs_collision(views):
    """Reference: the first overlapping pair over every (i, j), i < j, by
    the full rectangle test alone."""
    n = len(views)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = views[i], views[j]
            if rects_intersect(a.pose(), b.pose()):
                return a.vehicle_id, b.vehicle_id
    return None


def index_pairs(pairs):
    """The (i, j) of each pair-list entry."""
    return [(i, j) for i, j, *_ in pairs]


def run_pairs(world):
    """The pair list `run` builds when it runs `world` to its t_max."""
    real = world_module._collision_pairs
    built = []

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    with mock.patch.object(world_module, "_collision_pairs", recording):
        run(world)
    return built[0]


@contextmanager
def checked_against_all_pairs():
    """Check every _find_collision call of a run against the reference;
    yields the list of (pairs, result) seen."""
    real = world_module._find_collision
    seen = []

    def checked(views, pairs):
        got = real(views, pairs)
        assert got == all_pairs_collision(views)
        seen.append((pairs, got))
        return got

    with mock.patch.object(world_module, "_find_collision", checked):
        yield seen


def scenario(spacing, vehicles, lanes=4):
    """Scenario dict with `lanes` centers `spacing` apart; each vehicle is
    (id, lane, y0_m, v0_kmh, kind, q)."""
    centers = [lane * spacing for lane in range(lanes)]
    return {
        "geometry": {"lane_centers": centers, "lane_width": spacing,
                     "merge": {"start": 50.0, "entrance_length": 100.0,
                               "extension": 20.0}},
        "vehicles": [{"id": vid, "x0_m": centers[lane], "y0_m": y0,
                      "v0_kmh": v0, "kind": kind, "q": q}
                     for vid, lane, y0, v0, kind, q in vehicles]}


def logged_overlaps(log):
    """(t, id, id) of every pair of logged rectangles that overlap."""
    n = len(log.bodies)
    rows = log.rows  # built anew on each read
    out = []
    for start in range(0, len(rows), n):
        rects = []
        for r in rows[start:start + n]:
            length, width = log.bodies[r[1]]
            rects.append((r[1], pose(r[2], r[3], r[5], width / 2.0,
                                     length / 2.0)))
        for i in range(n):
            for j in range(i + 1, n):
                if rects_intersect(rects[i][1], rects[j][1]):
                    out.append((rows[start][0], rects[i][0], rects[j][0]))
    return out


def unmerged_past_hard_end(log, decision_ids):
    """(t, id) of every logged row of a decision vehicle still in the merge
    lane with its centre beyond the end of the pavement."""
    geometry = log.geometry
    return [(r[0], r[1]) for r in log.rows
            if r[1] in decision_ids and r[6] == geometry.merge_lane
            and r[3] > geometry.hard_end]


_kinds = st.sampled_from((SCRIPTED, DECISION))


@st.composite
def generated_scenarios(draw):
    """2-6 vehicles on 2-4 lanes whose spacing lies above or below one body
    width, optionally with a faster scripted follower in a lead vehicle's
    lane and a pair of scripted vehicles in one lane a few ulps from
    touching, and a short run time."""
    lanes = draw(st.integers(2, 4))
    spacing = draw(st.one_of(
        st.floats(1.0, BODY_WIDTH - 0.05), st.floats(BODY_WIDTH + 0.05, 4.0),
        st.sampled_from((BODY_WIDTH, 3.3))))
    count = draw(st.integers(2, 6))
    vehicles = []
    for k in range(count):
        vehicles.append((f"v{k}", draw(st.integers(0, lanes - 1)),
                         draw(st.floats(-60.0, 120.0)),
                         draw(st.floats(40.0, 130.0)), draw(_kinds),
                         draw(st.floats(0.0, 1.0))))
    if count < 6 and draw(st.booleans()):
        _, lane, y0, v0, _, _ = vehicles[0]
        vehicles.append(("follower", lane, y0 - draw(st.floats(5.0, 25.0)),
                         v0 + draw(st.floats(20.0, 60.0)), SCRIPTED, 0.5))
    if len(vehicles) <= 4 and draw(st.booleans()):
        # Bumper to bumper: one body length apart, give or take a few ulps
        # (touching or overlapping pairs are refused at load), the rear one
        # as fast or faster.
        lane = draw(st.integers(0, lanes - 1))
        y0, v0 = draw(st.floats(-60.0, 120.0)), draw(st.floats(40.0, 130.0))
        y1 = y0 - BODY_LENGTH
        for _ in range(draw(st.integers(0, 4))):
            y1 = math.nextafter(y1, -math.inf)
        vehicles.append(("pair_front", lane, y0, v0, SCRIPTED, 0.5))
        vehicles.append(("pair_rear", lane, y1,
                         v0 + draw(st.sampled_from((0.0, 0.01, 5.0))),
                         SCRIPTED, 0.5))
    t_max = draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))
    return scenario(spacing, vehicles, lanes), t_max


def overlap_at_start(data):
    """Whether two vehicles of a scenario dict overlap in their start poses."""
    half_w, half_l = BODY_WIDTH / 2.0, RunConfig().body_length / 2.0
    rects = [pose(v["x0_m"], v["y0_m"], 0.0, half_w, half_l)
             for v in data["vehicles"]]
    return any(rects_intersect(a, b)
               for i, a in enumerate(rects) for b in rects[i + 1:])


def cannot_stop_at_start(data):
    """Whether a decision vehicle of a scenario dict starts in the merge lane
    too fast to stop before hard_end, braking at accel_cap_g."""
    cfg = RunConfig()
    geometry = data["geometry"]
    merge = geometry["merge"]
    hard_end = merge["start"] + merge["entrance_length"] + merge["extension"]
    for v in data["vehicles"]:
        if v["kind"] == DECISION and v["x0_m"] == geometry["lane_centers"][-1]:
            room = hard_end - v["y0_m"] - cfg.body_length / 2.0 - 1.0
            v0 = v["v0_kmh"] * KMH
            if room <= v0 * v0 / (2.0 * cfg.accel_cap_g * GRAVITY):
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(generated_scenarios())
# A decel directive with a competitor once skipped the end-of-lane guard, so
# this merger reached the end of its window too fast and crossed hard_end.
@example((scenario(2.0, [("v0", 0, 101.0, 95.0, SCRIPTED, 0.5),
                         ("v1", 1, 103.0, 86.0, DECISION, 0.0),
                         ("v2", 0, 0.0, 40.0, SCRIPTED, 0.5)], lanes=2), 3.0))
# Needs 132.9 m to stop at accel_cap_g and has 76.75 m: rejected at load.
@example((scenario(3.3, [("v0", 3, 90.0, 130.0, DECISION, 0.5),
                         ("v1", 2, 90.0, 130.0, SCRIPTED, 0.5)]), 3.0))
def test_pair_list_matches_all_pairs_on_generated_scenarios(case):
    data, t_max = case
    if overlap_at_start(data):
        with pytest.raises(ConfigError, match=r"vehicles\[\d+\]: overlaps"):
            load_scenario(data, RunConfig())
        return
    if cannot_stop_at_start(data):
        with pytest.raises(ConfigError,
                           match=r"vehicles\[\d+\]: must be able to stop"):
            load_scenario(data, RunConfig())
        return
    logs = []
    for _ in range(2):
        with checked_against_all_pairs() as seen:
            logs.append(run(load_scenario(data, RunConfig(t_max=t_max))))
        # One collision check per step, and the run stops at the first hit.
        steps = round(logs[-1].end_time / 0.01)
        assert len(seen) == steps
        assert [hit for _, hit in seen[:-1]] == [None] * (steps - 1)
    first, second = logs
    assert first.rows == second.rows
    assert first.events == second.events
    assert first.collision == second.collision
    # The start poses were checked by load_scenario and every later pose by
    # the run, which stops before logging the poses of a collision.
    assert logged_overlaps(first) == []
    # A vehicle that has to merge never drives past the end of its lane
    # unless the run reports that it was forced to stop.
    if not first.forced_stop:
        decision_ids = {v["id"] for v in data["vehicles"]
                        if v["kind"] == DECISION}
        assert unmerged_past_hard_end(first, decision_ids) == []


class TestPairList:
    @pytest.mark.parametrize("name", ["scenario1", "scenario2"])
    def test_builtin_scenario_keeps_only_the_merger_pairs(self, name):
        # Every scripted vehicle drives at 80 km/h at heading 0: a pair in
        # two lanes has a gap across the road, and a pair in one lane keeps
        # its gap along it, so only the merger's five pairs are checked.
        world = load_scenario(name, RunConfig())
        ids = [v.vehicle_id for v in world.snapshot()]
        kept = [(ids[i], ids[j]) for i, j in index_pairs(run_pairs(world))]
        assert kept == [(vid, "merging") for vid in ids[:-1]]

    def test_scripted_pair_half_a_metre_apart_is_dropped(self):
        # Scenario2's vehicle3 drives 0.5 m ahead of vehicle4's nose at the
        # same speed, and so never meets it.
        world = load_scenario("scenario2", RunConfig())
        views = world.snapshot()
        ids = [v.vehicle_id for v in views]
        three, four = ids.index("vehicle3"), ids.index("vehicle4")
        assert bumper_gap(views[three], views[four]) == 0.5
        assert views[three].x == views[four].x
        assert (three, four) not in index_pairs(run_pairs(world))

    def test_pairs_keep_the_all_pairs_order(self):
        views = load_scenario("scenario2", RunConfig()).snapshot()
        pairs = index_pairs(_collision_pairs(views, [None] * len(views), 1))
        assert pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)

    @pytest.mark.parametrize("contact_step, kept", [(100, True),
                                                    (101, False)])
    def test_scripted_pair_is_kept_if_it_closes_within_the_run(
            self, contact_step, kept):
        # 100 km/h closes on 80 km/h by 20 km/h * 0.01 s a step; the gap
        # closes halfway through step contact_step, and t_max 1 s runs 100.
        closing = 20.0 * KMH * 0.01
        gap = (contact_step - 0.5) * closing
        data = scenario(3.3, [("ahead", 0, BODY_LENGTH + gap, 80.0,
                               SCRIPTED, 0.5),
                              ("behind", 0, 0.0, 100.0, SCRIPTED, 0.5)])
        cfg = RunConfig(t_max=1.0)
        assert index_pairs(run_pairs(load_scenario(data, cfg))) == \
            ([(0, 1)] if kept else [])
        with checked_against_all_pairs():
            log = run(load_scenario(data, cfg))
        assert log.end_time == pytest.approx(1.0)
        assert (log.collision is not None) == kept

    def test_scripted_pair_that_touches_by_rounding_alone_is_kept(self):
        # At equal speeds the gap along the road moves only by the rounding
        # of the two y sums: these start one ulp apart, and are apart after
        # 100 steps by their start y plus 100 increments, yet the sums
        # touch at step 26, which the margin allows for.
        behind = -74.0
        ahead = math.nextafter(behind + BODY_LENGTH, math.inf)
        data = scenario(3.3, [("ahead", 0, ahead, 80.0, SCRIPTED, 0.5),
                              ("behind", 0, behind, 80.0, SCRIPTED, 0.5)])
        cfg = RunConfig(t_max=1.0)
        assert index_pairs(run_pairs(load_scenario(data, cfg))) == [(0, 1)]
        with checked_against_all_pairs():
            log = run(load_scenario(data, cfg))
        assert log.collision["vehicles"] == ["ahead", "behind"]
        assert log.end_time == pytest.approx(0.26)

    def test_scripted_lanes_closer_than_a_body_width_keep_a_closing_pair(
            self):
        # Lanes 1.5 m apart leave no gap across the road between 1.8 m
        # bodies, so the gap along it decides: the pair is kept while the
        # faster one closes from behind within the 40 s run, and dropped
        # once it starts ahead or at the same speed.
        data = scenario(1.5, [("a", 0, 0.0, 80.0, SCRIPTED, 0.5),
                              ("b", 1, -50.0, 100.0, SCRIPTED, 0.5)])
        assert index_pairs(run_pairs(load_scenario(data, RunConfig()))) == \
            [(0, 1)]
        data["vehicles"][1]["y0_m"] = 50.0
        assert index_pairs(run_pairs(load_scenario(data, RunConfig()))) == []
        data["vehicles"][1].update(y0_m=-50.0, v0_kmh=80.0)
        assert index_pairs(run_pairs(load_scenario(data, RunConfig()))) == []

    @settings(max_examples=300, deadline=None)
    @given(sizes=st.lists(st.tuples(st.floats(1.0, 16.0), st.floats(0.5, 3.0)),
                          min_size=2, max_size=2),
           headings=st.lists(st.floats(-math.pi, math.pi), min_size=2,
                             max_size=2),
           offset=st.tuples(st.floats(-12.0, 12.0), st.floats(-20.0, 20.0)))
    # Two overlaps beyond the half widths plus 2 m across that an earlier
    # reach skipped: a 12 m body turned 0.37 rad and a car 3.84 m across and
    # 3.3 m along, and two 12 m bodies at the 0.2375 rad the built-in grids
    # reach, 3.9 m across and 10 m along.
    @example(sizes=[(12.0, BODY_WIDTH), (BODY_LENGTH, BODY_WIDTH)],
             headings=[0.37, 0.0], offset=(3.84, 3.3))
    @example(sizes=[(12.0, BODY_WIDTH), (12.0, BODY_WIDTH)],
             headings=[0.2375, 0.2375], offset=(3.9, 10.0))
    def test_reach_never_skips_an_overlap(self, sizes, headings, offset):
        (la, wa), (lb, wb) = sizes
        a = VehicleView("a", 0.0, 0.0, 20.0, headings[0], la, wa, 0)
        b = VehicleView("b", offset[0], offset[1], 20.0, headings[1], lb, wb,
                        1)
        views = [a, b]
        pairs = _collision_pairs(views, [None, None], 1)
        assert _find_collision(views, pairs) == \
            all_pairs_collision(views)


class TestScriptedCollisions:
    def test_side_by_side_overlap_is_a_collision(self):
        # Lanes 1.5 m apart, narrower than a 1.8 m body: the faster vehicle
        # draws level with the slower one in the next lane.
        data = scenario(1.5, [("ahead", 0, 20.0, 60.0, SCRIPTED, 0.5),
                              ("behind", 1, 0.0, 100.0, SCRIPTED, 0.5)])
        with checked_against_all_pairs() as seen:
            log = run(load_scenario(data, RunConfig(t_max=5.0)))
        assert log.collision is not None
        assert log.collision["vehicles"] == ["ahead", "behind"]
        assert seen[-1][1] == ("ahead", "behind")
        assert logged_overlaps(log) == []

    @pytest.mark.parametrize("spacing", [1.5, BODY_WIDTH])
    def test_side_by_side_overlap_at_start_is_rejected(self, spacing):
        # At exactly one body width apart the rectangles touch, which counts
        # as an overlap.
        data = scenario(spacing, [("left", 0, 0.0, 80.0, SCRIPTED, 0.5),
                                  ("right", 1, 3.0, 80.0, DECISION, 0.5)])
        with pytest.raises(ConfigError, match=r"vehicles\[1\]: overlaps "
                           r"vehicles\[0\] \('left'\) at the start"):
            load_scenario(data, RunConfig())

    def test_rear_end_is_a_collision(self):
        # The same rear-end in lanes 0 and 1 at the same step: the first
        # pair in all-pairs order is reported.
        data = scenario(3.3, [("slow", 0, 30.0, 50.0, SCRIPTED, 0.5),
                              ("side", 1, 30.0, 50.0, SCRIPTED, 0.5),
                              ("fast", 0, 0.0, 120.0, SCRIPTED, 0.5),
                              ("fast_side", 1, 0.0, 120.0, SCRIPTED, 0.5)])
        with checked_against_all_pairs() as seen:
            log = run(load_scenario(data, RunConfig(t_max=5.0)))
        # only same-lane pairs
        assert index_pairs(seen[0][0]) == [(0, 2), (1, 3)]
        assert log.collision["vehicles"] == ["slow", "fast"]
        # Closing at 70 km/h over 30 m less one body length: 1.311 s.
        assert log.collision["t"] == 1.32

    def test_adjacent_lanes_wider_than_a_body_never_collide(self):
        data = scenario(3.3, [("ahead", 0, 20.0, 60.0, SCRIPTED, 0.5),
                              ("behind", 1, 0.0, 100.0, SCRIPTED, 0.5)])
        with checked_against_all_pairs() as seen:
            log = run(load_scenario(data, RunConfig(t_max=5.0)))
        assert log.collision is None
        assert seen[0][0] == []
