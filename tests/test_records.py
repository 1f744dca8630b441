"""The records the step loop and the decision epochs build are immutable
named tuples.

Each keeps the fields, the field order and the defaults it had as a frozen
dataclass, so positional and keyword construction read the same.
"""

import pytest

from mergesim.dynamics import Controls, VehicleState
from mergesim.perception import Neighbor, OrientedRect, VehicleView
from mergesim.planner import (ACCELERATE, HOLD, KEEP, BrainState, Directive,
                              SlotEval)

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
    (OrientedRect,
     [("cx", REQUIRED), ("cy", REQUIRED), ("heading", REQUIRED),
      ("half_width", REQUIRED), ("half_length", REQUIRED)],
     OrientedRect(3.3, 10.0, 0.05, 0.9, 2.25)),
    (VehicleView,
     [("vehicle_id", REQUIRED), ("x", REQUIRED), ("y", REQUIRED),
      ("v", REQUIRED), ("heading", REQUIRED), ("length", REQUIRED),
      ("width", REQUIRED), ("lane", REQUIRED), ("kind", "scripted"),
      ("q", None)],
     VehicleView("ego", 6.6, 5.0, 22.0, 0.0, 4.5, 1.8, 2, "decision", 0.5)),
    (BrainState,
     [("current_lane", REQUIRED), ("v_ref", REQUIRED),
      ("needs_merge", False), ("maneuver", KEEP), ("target_lane", None),
      ("maneuver_start_x", 0.0), ("directive", HOLD), ("competing_id", None),
      ("slot_leader_id", None), ("slot_follower_id", None), ("guard", False),
      ("forced_stop", False), ("evading", False), ("threat_memo_id", None),
      ("threat_memo_speed", 0.0)],
     BrainState(3, 19.4, needs_merge=True, competing_id="vehicle4")),
    (Neighbor,
     [("vehicle_id", REQUIRED), ("gap", REQUIRED)],
     Neighbor("vehicle4", 12.5)),
    (SlotEval,
     [("leader", REQUIRED), ("front_gap", REQUIRED), ("follower", REQUIRED),
      ("rear_gap", REQUIRED), ("squeeze", REQUIRED), ("utility", REQUIRED)],
     SlotEval(None, 100.0, None, 100.0, 0.0, 3.5)),
    (Directive,
     [("name", REQUIRED), ("competing_id", None), ("slot_leader_id", None),
      ("slot_follower_id", None)],
     Directive(ACCELERATE, "vehicle4", "vehicle3", "vehicle4")),
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
    slot = SlotEval(leader, front_gap, None, 10.0, squeeze, 0.0)
    assert slot.feasible(tolerance) is feasible
