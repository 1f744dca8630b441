"""The decision epoch against its earlier form in planner_reference.

classify_vicinity, the 2x2 game and decide must give the same results as
the copies there: floats bit for bit (compared by float.hex), neighbours
and latches by equality.  The reference names each neighbour by id; the
adapter below maps it to the (gap, index in views) slot that
classify_vicinity returns.  The inputs lean on the cases where the two forms
could part: equal positions and gaps, vehicles straddling lanes, magnified
observers, payoff ties, signed zeros and impossible actions.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from mergesim import world as world_module
from mergesim.config import ConfigError, RunConfig
from mergesim.game import (IMPOSSIBLE, LEFT, STRAIGHT, PayoffBimatrix,
                           solve_stackelberg)
from mergesim.perception import VehicleView, classify_vicinity
from mergesim.metrics import sweep_scenario
from mergesim.planner import build_entry_bimatrix, evaluate_slot
from mergesim.road import LaneGeometry, lane_of
from mergesim.world import BUILTIN_SCENARIOS, load_scenario, run

import planner_reference as ref
from test_collisions import generated_scenarios

GEOMETRY = LaneGeometry()
CFG = RunConfig()
PAIRS = ((LEFT, LEFT), (LEFT, STRAIGHT), (STRAIGHT, LEFT),
         (STRAIGHT, STRAIGHT))


def vicinity_key(slots):
    """A vicinity with each gap as its float.hex, for exact comparison."""
    return [tuple(None if side is None else (side[0].hex(), side[1])
                  for side in pair)
            for pair in slots]


def reference_slots(vicinity, views):
    """The reference's {lane: (leader, follower)} of Neighbors as slots:
    one pair per lane in lane order, each side (gap, index in views)."""
    index = {v.vehicle_id: k for k, v in enumerate(views)}
    return [tuple(None if n is None else (n.gap, index[n.vehicle_id])
                  for n in pair)
            for pair in vicinity.values()]


def payoff_key(bim):
    return ({k: v.hex() for k, v in bim.leader.items()},
            {k: v.hex() for k, v in bim.follower.items()})


# Positions on a coarse grid, so that equal y and equal gaps are common;
# lateral positions on and between the lane centres.
_ys = st.one_of(st.sampled_from((-10.0, 0.0, 4.5, 5.0, 9.0, 10.0, 20.0)),
                st.floats(-120.0, 120.0))
_xs = st.one_of(st.sampled_from(GEOMETRY.centers),
                st.sampled_from((1.65, 4.95, 8.25, 9.3, 8.0)),
                st.floats(-1.5, 11.5))
_headings = st.sampled_from((0.0, -0.0, 1e-9, 2e-9, -0.05, 0.1, -0.3))
_lengths = st.sampled_from((4.5, 4.5, 3.0, 6.0))


@st.composite
def _views(draw, min_size=2):
    count = draw(st.integers(min_size, 7))
    out = []
    for k in range(count):
        x = draw(_xs)
        out.append(VehicleView(
            f"v{k}", x, draw(_ys), draw(st.floats(0.0, 40.0)),
            draw(_headings), draw(_lengths), 1.8, lane_of(x, GEOMETRY)))
    return out


@settings(max_examples=400, deadline=None)
@given(views=_views(min_size=1), data=st.data(),
       visibility=st.sampled_from((5.0, 20.0, 100.0)),
       scale=st.sampled_from((1.0, 1.0 + 1e-12, 1.2, 1.5)))
def test_classify_vicinity_matches_reference(views, data, visibility, scale):
    ego = data.draw(st.sampled_from(views)).vehicle_id
    got = classify_vicinity(ego, views, GEOMETRY, visibility=visibility,
                            observer_scale=scale)
    want = ref.classify_vicinity(ego, views, GEOMETRY, visibility=visibility,
                                 observer_scale=scale)
    assert list(want) == list(range(len(GEOMETRY.centers)))  # lane order
    assert vicinity_key(got) == vicinity_key(reference_slots(want, views))


_payoffs = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, IMPOSSIBLE)),
                     st.floats(-100.0, 100.0))


@settings(max_examples=1000, deadline=None)
@given(u1=st.tuples(*[_payoffs] * 4), u2=st.tuples(*[_payoffs] * 4))
def test_solve_stackelberg_matches_reference(u1, u2):
    old = ref.PayoffBimatrix()
    for pair, a, b in zip(PAIRS, u1, u2):
        old.set(pair[0], pair[1], a, b)
    new = PayoffBimatrix(leader=dict(zip(PAIRS, u1)),
                         follower=dict(zip(PAIRS, u2)))
    assert solve_stackelberg(new) == ref.solve_stackelberg(old)


@settings(max_examples=400, deadline=None)
@given(views=_views(), data=st.data(),
       qs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       u_stay=_payoffs, risk=st.sampled_from((0.0, -0.0, 2.5)))
def test_build_entry_bimatrix_matches_reference(views, data, qs, u_stay, risk):
    ego, p2 = data.draw(st.permutations(views))[:2]
    target = data.draw(st.sampled_from(GEOMETRY.mainline_lanes))
    profile, p2_profile = CFG.profile(qs[0]), CFG.profile(qs[1])
    args = (p2, views, GEOMETRY, profile, p2_profile, u_stay)
    slot = evaluate_slot(ego, views, target, profile)
    got = build_entry_bimatrix(ego, target, slot, *args, risk_discount=risk)
    want = ref.build_entry_bimatrix(ego, target, *args, risk_discount=risk)
    assert payoff_key(got) == payoff_key(want)
    assert solve_stackelberg(got) == ref.solve_stackelberg(want)


def test_entrant_level_with_the_competitors_leader_does_not_lead():
    # The entrant and the competitor's leader share y but not length: the
    # leader, met first, keeps the slot, as it did in the crowd of views
    # with the entrant appended.
    views = [VehicleView("ego", 9.9, 10.0, 20.0, 0.0, 3.0, 1.8, 3),
             VehicleView("p2", 6.6, 0.0, 20.0, 0.0, 4.5, 1.8, 2),
             VehicleView("lead", 6.6, 10.0, 20.0, 0.0, 6.0, 1.8, 2)]
    profile = CFG.profile(0.5)
    args = (views[1], views, GEOMETRY, profile, profile, 1.0)
    slot = evaluate_slot(views[0], views, 2, profile)
    got = build_entry_bimatrix(views[0], 2, slot, *args)
    assert payoff_key(got) == payoff_key(
        ref.build_entry_bimatrix(views[0], 2, *args))
    assert got.follower[LEFT, STRAIGHT] == 10.0 - (4.5 + 6.0) / 2.0


@contextmanager
def epochs_checked_against_reference():
    """Check every decision epoch of a run against the reference; yields
    the list of latches it returned."""
    real_decide = world_module.decide
    real_vicinity = world_module.classify_vicinity
    latches = []

    def decide(ego, views, brain, *args, **kwargs):
        got = real_decide(ego, views, brain, *args, **kwargs)
        assert got == ref.decide(ego, views, brain, *args, **kwargs)
        latches.append(got)
        return got

    def vicinity(ego_id, views, *args, **kwargs):
        got = real_vicinity(ego_id, views, *args, **kwargs)
        want = ref.classify_vicinity(ego_id, views, *args, **kwargs)
        assert vicinity_key(got) == vicinity_key(reference_slots(want, views))
        return got

    with mock.patch.object(world_module, "decide", decide), \
            mock.patch.object(world_module, "classify_vicinity", vicinity):
        yield latches


@settings(max_examples=60, deadline=None)
@given(case=generated_scenarios(), noise=st.booleans())
def test_decide_matches_reference_on_generated_scenarios(case, noise):
    data, t_max = case
    cfg = RunConfig(noise=noise, seed=11, t_max=t_max)
    try:
        world = load_scenario(data, cfg)
    except ConfigError:
        return  # overlapping or unstoppable at the start: refused at load
    with epochs_checked_against_reference():
        run(world)


def test_decide_matches_reference_through_builtin_merges():
    for name in ("scenario1", "scenario2"):
        for q in (0.1, 0.9):
            cfg = RunConfig(q_overrides={"merging": q}, noise=True, seed=2)
            with epochs_checked_against_reference() as latches:
                log = run(load_scenario(name, cfg))
            assert any(e["event"] == "merge_complete" for e in log.events)
            assert len(latches) > 100


def test_decide_matches_reference_on_sweep_cells():
    # vehicle4 decides too: mainline epochs and discretionary changes.
    changes = 0
    for q_merge, q_mainline in ((0.0, 1.0), (1.0, 1.0), (0.5, 0.75)):
        data = sweep_scenario(BUILTIN_SCENARIOS["scenario1"], q_merge,
                              q_mainline)
        with epochs_checked_against_reference():
            log = run(load_scenario(data, RunConfig()))
        changes += sum(e["event"] == "change_complete" for e in log.events)
    assert changes > 0
