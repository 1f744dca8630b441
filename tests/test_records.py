"""The records the step loop and the decision epochs build are immutable
named tuples.

Each keeps the fields, the field order and the defaults it had as a frozen
dataclass (Attention was a named tuple from the start), so positional and
keyword construction read the same.
"""

import pytest

from mergesim import world as world_module
from mergesim.config import RunConfig
from mergesim.dynamics import Controls, VehicleState, step
from mergesim.perception import VehicleView
from mergesim.planner import (ACCELERATE, HOLD, KEEP, BrainState, Directive,
                              SlotEval, evaluate_slot)
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
     [("leader", REQUIRED), ("front_gap", REQUIRED), ("follower", REQUIRED),
      ("squeeze", REQUIRED), ("utility", REQUIRED)],
     SlotEval(None, 100.0, None, 0.0, 3.5)),
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



LEADER = VehicleView("vehicle3", 6.6, 30.0, 22.0, 0.0, 4.5, 1.8, 2)


@pytest.mark.parametrize("leader, front_gap, squeeze, tolerance, feasible", [
    (None, 0.0, 0.0, 0.0, True),        # no leader: any front gap will do
    (LEADER, 0.0, 0.0, 0.0, False),     # a leader needs room in front
    (LEADER, 0.1, 0.0, 0.0, True),
    (LEADER, 5.0, 2.0, 2.0, True),      # the squeeze may reach the tolerance
    (LEADER, 5.0, 2.5, 2.0, False),
    (None, 5.0, -1.0, 0.0, True),       # room to spare behind
])
def test_slot_feasible(leader, front_gap, squeeze, tolerance, feasible):
    slot = SlotEval(leader, front_gap, None, squeeze, 0.0)
    assert slot.feasible(tolerance) is feasible


# The step loop builds its records through _make; == compares them as plain
# tuples, so these check the type itself.


def test_views_and_states_after_a_run_keep_their_types():
    world = load_scenario("scenario1", RunConfig())
    run(world, t_max=550 * world.cfg.dt)  # mid-merge
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
    world = load_scenario("scenario1", RunConfig())
    run(world, t_max=600 * world.cfg.dt)  # through the merge: both paths
    assert set(seen) == {("step", VehicleState), ("_controls_for", Controls)}
