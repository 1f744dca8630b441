"""The records the step loop and the decision epochs build are immutable
named tuples.

RECORDS pins each one's fields, field order and defaults, so positional and
keyword construction read the same.
"""

from hypothesis import given, settings, strategies as st
import pytest

from mergesim import world as world_module
from mergesim.config import RunConfig
from mergesim.dynamics import Controls, VehicleState, step
from mergesim.game import squeeze_penalty
from mergesim.perception import VehicleView, bumper_gap
from mergesim.planner import (ACCELERATE, HOLD, KEEP, BrainState, Directive,
                              SlotEval, evaluate_slot, slot_around)
from mergesim.world import Attention, load_scenario, run

REQUIRED = object()  # a field without a default

# (type, [(field, default or REQUIRED)] in declaration order, an instance)
RECORDS = [
    (VehicleState,
     [("x", 0.0), ("y", 0.0), ("heading", 0.0), ("v_long", 0.0),
      ("v_lat", 0.0), ("yaw_rate", 0.0)],
     VehicleState(1.0, 2.0, 0.1, 20.0, 0.3, 0.01)),
    (Controls,
     [("accel", 0.0), ("steer", 0.0)],
     Controls(accel=0.5, steer=-0.02)),
    (VehicleView,
     [("vehicle_id", REQUIRED), ("x", REQUIRED), ("y", REQUIRED),
      ("v", REQUIRED), ("heading", REQUIRED), ("length", REQUIRED),
      ("width", REQUIRED), ("lane", REQUIRED)],
     VehicleView("ego", 6.6, 5.0, 22.0, 0.0, 4.5, 1.8, 2)),
    (BrainState,
     [("current_lane", REQUIRED), ("v_ref", REQUIRED),
      ("needs_merge", False), ("maneuver", KEEP), ("target_lane", None),
      ("directive", HOLD), ("competing_id", None),
      ("slot_leader_id", None), ("slot_follower_id", None), ("guard", False),
      ("forced_stop", False), ("evading", False), ("threat_memo_id", None),
      ("threat_memo_speed", 0.0)],
     BrainState(3, 19.4, needs_merge=True, competing_id="vehicle4")),
    (SlotEval,
     [("leader", REQUIRED), ("follower", REQUIRED), ("utility", REQUIRED),
      ("feasible", REQUIRED)],
     SlotEval(None, None, 3.5, True)),
    (Directive,
     [("name", REQUIRED), ("competing_id", None), ("slot_leader_id", None),
      ("slot_follower_id", None)],
     Directive(ACCELERATE, "vehicle4", "vehicle3", "vehicle4")),
    (Attention,
     [("lane_leaders", REQUIRED), ("own_follower", REQUIRED),
      ("threat", REQUIRED), ("slot_leader", REQUIRED),
      ("slot_follower", REQUIRED)],
     Attention({2: 2, 3: 0}, 3, None, 2, 3)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, spec, sample", RECORDS, ids=IDS)
def test_fields_order_and_defaults(cls, spec, sample):
    assert cls._fields == tuple(name for name, _ in spec)
    assert cls._field_defaults == {name: default for name, default in spec
                                   if default is not REQUIRED}


@pytest.mark.parametrize("cls, spec, sample", RECORDS, ids=IDS)
def test_setting_a_field_raises(cls, spec, sample):
    before = tuple(sample)
    for name, _ in spec:
        with pytest.raises(AttributeError):
            setattr(sample, name, getattr(sample, name))
    with pytest.raises(AttributeError):
        sample.extra = 1  # no instance dict either
    assert tuple(sample) == before


@pytest.mark.parametrize("cls, spec, sample", RECORDS, ids=IDS)
def test_replace_returns_a_new_record(cls, spec, sample):
    name = spec[0][0]
    before = tuple(sample)
    value = "other" if isinstance(getattr(sample, name), str) else 7
    changed = sample._replace(**{name: value})
    assert changed is not sample
    assert type(changed) is cls
    assert getattr(changed, name) == value
    assert tuple(changed)[1:] == before[1:]
    assert tuple(sample) == before


PROFILE = RunConfig().profile(0.5)  # risk_tolerance 0.0
EGO = VehicleView("ego", 9.9, 50.0, 22.0, 0.0, 4.5, 1.8, 3)


def in_lane_2(vehicle_id, y):
    """A vehicle at the ego's speed in the slot's lane."""
    return VehicleView(vehicle_id, 6.6, y, EGO.v, 0.0, 4.5, 1.8, 2)


# Centre to centre, a follower at the ego's speed this far back leaves a room
# of exactly the clearance: a squeeze of exactly 0.0, the tolerance at q 0.5.
AT_TOLERANCE = in_lane_2("follower",
                         EGO.y - EGO.length - PROFILE.lane_change_clearance)
AHEAD = in_lane_2("leader", EGO.y + 9.5)  # a front gap of 5 m


@pytest.mark.parametrize("others, feasible", [
    ([], True),                                       # no leader
    ([in_lane_2("leader", EGO.y + 4.5)], False),      # a front gap of 0
    ([in_lane_2("leader", EGO.y + 4.6)], True),       # a front gap of 0.1 m
    ([AHEAD, AT_TOLERANCE], True),                    # squeeze at the tolerance
    ([AHEAD, AT_TOLERANCE._replace(y=AT_TOLERANCE.y + 0.5)], False),
    ([in_lane_2("follower", AT_TOLERANCE.y - 5.0)], True),  # room to spare
])
def test_slot_feasible(others, feasible):
    assert bumper_gap(EGO, AT_TOLERANCE) == PROFILE.lane_change_clearance
    slot = evaluate_slot(EGO, [EGO, *others], 2, PROFILE)
    assert slot.feasible is feasible


_ys = st.one_of(st.floats(-80.0, 80.0), st.sampled_from((0.0, 4.5, -4.5)))
_views = st.builds(VehicleView, st.sampled_from(("a", "b", "c", "d", "ego")),
                   st.just(6.6), _ys, st.floats(0.0, 40.0), st.just(0.0),
                   st.sampled_from((4.5, 5.0)), st.just(1.8),
                   st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(ego=_views, others=st.lists(_views, max_size=5),
       lane=st.integers(1, 3),
       q=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.5, 1.0))))
def test_slot_verdict_is_the_rule(ego, others, lane, q):
    # An open front and a squeeze within the driver's risk tolerance.
    profile = RunConfig().profile(q)
    views = [*others, ego]
    leader, follower = slot_around(ego, views, lane)
    front_open = leader is None or bumper_gap(ego, leader) > 0.0
    squeeze = 0.0 if follower is None else squeeze_penalty(
        bumper_gap(ego, follower), follower.v - ego.v, profile)
    assert evaluate_slot(ego, views, lane, profile).feasible is (
        front_open and squeeze <= profile.risk_tolerance)


# The step loop builds its records through _make; == compares them as plain
# tuples, so these check the type itself.


def test_views_and_states_after_a_run_keep_their_types():
    world = load_scenario("scenario1", RunConfig(t_max=5.5))
    run(world)  # 550 steps: mid-merge
    views = world.snapshot()
    assert {type(v) for v in views} == {VehicleView}
    assert {type(veh.state) for veh in world.vehicles} == {VehicleState}
    profile = world.vehicles[-1].profile
    assert type(evaluate_slot(views[-1], views, 2, profile)) is SlotEval


@pytest.mark.parametrize("state, controls", [
    (VehicleState(6.6, 10.0, 0.0, 20.0), Controls(0.5, 0.0)),   # straight
    (VehicleState(6.6, 10.0, 0.01, 20.0, 0.1, 0.02), Controls(0.5, 0.01)),
])
def test_step_returns_a_vehicle_state(state, controls):
    params = RunConfig().vehicle_params()
    assert type(step(state, params, controls, 0.01)) is VehicleState


def test_a_run_steps_and_controls_with_records_of_their_types(monkeypatch):
    seen = []

    def typed(fn):
        def wrapper(*args):
            result = fn(*args)
            seen.append((fn.__name__, type(result)))
            return result
        return wrapper

    monkeypatch.setattr(world_module, "step", typed(world_module.step))
    monkeypatch.setattr(world_module, "_controls_for",
                        typed(world_module._controls_for))
    world = load_scenario("scenario1", RunConfig(t_max=6.0))
    run(world)  # 600 steps: through the merge, both paths
    assert set(seen) == {("step", VehicleState), ("_controls_for", Controls)}
