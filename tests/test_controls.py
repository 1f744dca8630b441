"""_controls_for against a copy of the control law that derives its bounds
on every call.

RunConfig.profile derives each driver's PD gains and bounds, directive
commands and slot constants once.  The oracle below is the control law as
it read before that: it recomputes the gains and the acceleration, brake
and steering bounds from the config's fields and q inside every PD-law
call, and the directive commands and slot constants at every step.  The two must give bit-identical Controls for every state,
latch, attention and set of neighbours.  The oracle also reads the
attention as vehicle ids through a dict of views by id, as the control law
did before it read views by slot index.
"""

import math
from typing import NamedTuple, Optional

from hypothesis import example, given, settings, strategies as st

from mergesim.config import RunConfig
from mergesim.driver import blended_error
from mergesim.dynamics import GRAVITY, VehicleState
from mergesim.perception import VehicleView, bumper_gap
from mergesim.planner import (ACCELERATE, CHANGE, DECELERATE, HOLD, KEEP,
                              MERGE, BrainState)
from mergesim.road import LaneGeometry
from mergesim.world import (DECISION, Attention, SimVehicle, _controls_for,
                            _gap_ref)

from dynamics_reference import speed
from test_driver import EDGE_FLOATS

GEOMETRY = LaneGeometry()
LANES = range(len(GEOMETRY.centers))


# --- the oracle ------------------------------------------------------------


def oracle_accel_limit(q, cfg):
    return (cfg.accel_limit_g_cautious
            + (cfg.accel_limit_g_aggressive - cfg.accel_limit_g_cautious)
            * q) * GRAVITY


def oracle_longitudinal_accel(q, cfg, error, error_rate):
    accel_cap = cfg.accel_cap_g * GRAVITY
    raw = cfg.kp_long * error + cfg.kd_long * error_rate
    hi = min(oracle_accel_limit(q, cfg), accel_cap)
    lo = -min(oracle_accel_limit(q, cfg) * cfg.brake_factor, accel_cap)
    return min(max(raw, lo), hi)


def oracle_steering_limit(lat_accel_limit, v, cfg):
    if v <= 0.0:
        return math.inf
    gain = v * v / (57.3 * (cfg.dist_front + cfg.dist_rear) * GRAVITY
                    + cfg.understeer_gradient * v * v)
    if gain == 0.0:
        return math.inf
    delta_deg = (lat_accel_limit / GRAVITY) / gain
    return math.radians(delta_deg)


def oracle_steering_command(q, cfg, e_lat, e_lat_rate, v):
    raw = cfg.kp_lat * e_lat + cfg.kd_lat * e_lat_rate
    lat_accel_limit = (cfg.lat_accel_g_cautious
                       + (cfg.lat_accel_g_aggressive - cfg.lat_accel_g_cautious)
                       * q) * GRAVITY
    bound = min(oracle_steering_limit(lat_accel_limit, v, cfg),
                math.radians(cfg.steer_cap_deg))
    return min(max(raw, -bound), bound)


def oracle_brake_channel(q, cfg, gap, rel_speed, gap_ref):
    if gap >= gap_ref:
        return math.inf
    return oracle_longitudinal_accel(q, cfg, gap - gap_ref, rel_speed)


def oracle_boxed_gap_ref(leader_gap, follower_gap, follow_ref):
    if follower_gap is None:
        return follow_ref
    return min(follow_ref, max((leader_gap + follower_gap) * 0.5, 1.0))


def oracle_slot_gap_ref(ego, veh, slot_gap, views_by_id, follow_ref, cfg):
    follower = views_by_id.get(veh.brain.slot_follower_id)
    if follower is None:
        return follow_ref
    free = slot_gap + bumper_gap(ego, follower)
    q = veh.q
    risk_tolerance = cfg.risk_tolerance_max * max(0.0, 2.0 * q - 1.0)
    rear_min = max(1.0, veh.profile.lane_change_clearance
                   - 0.8 * risk_tolerance)
    slot_ride = (cfg.slot_ride_cautious
                 + (cfg.slot_ride_aggressive - cfg.slot_ride_cautious) * q * q)
    front_ref = min(free * slot_ride, free - rear_min)
    return min(follow_ref, max(front_ref, 1.0))


def oracle_controls_for(veh, ego, views_by_id, attention, geometry, cfg):
    brain, profile, st_, q = veh.brain, veh.profile, veh.state, veh.q
    accel_limit = oracle_accel_limit(q, cfg)
    v = st_.v_long
    changing = brain.maneuver in (MERGE, CHANGE)
    lane_target = brain.target_lane if changing else brain.current_lane
    e_lat = st_.x - geometry.centers[lane_target]
    e_rate = speed(st_) * math.sin(st_.heading)
    steer = oracle_steering_command(veh.q, cfg, e_lat, e_rate, v)

    merging_phase = brain.needs_merge
    follow_ref = profile.lane_change_clearance + profile.follow_headway * v
    follower = views_by_id.get(attention.own_follower_id)
    follower_gap = bumper_gap(ego, follower) if follower is not None else None
    slot_leader = (views_by_id.get(brain.slot_leader_id) if merging_phase
                   else None)
    if slot_leader is not None:
        slot_gap = bumper_gap(ego, slot_leader)
        slot_rel = slot_leader.v - v
        slot_ref = oracle_slot_gap_ref(ego, veh, slot_gap, views_by_id,
                                       follow_ref, cfg)
    cruise_leader = None

    directive_accel = cfg.nominal_accel_g * GRAVITY
    if merging_phase and brain.directive == ACCELERATE:
        scale = cfg.directive_accel_gain + veh.q
        base = min(directive_accel * scale, accel_limit)
    elif merging_phase and brain.directive == DECELERATE:
        scale = 1.0 + cfg.directive_accel_gain - veh.q
        base = -min(directive_accel * scale, accel_limit)
        if brain.guard:
            room = geometry.hard_end - st_.y - veh.params.length / 2.0 - 1.0
            if room > 0.1:
                base = min(base, -v * v / (2.0 * room))
            else:
                base = -(cfg.accel_cap_g * GRAVITY)
    elif slot_leader is not None:
        base = oracle_longitudinal_accel(q, cfg, slot_gap - slot_ref,
                                         slot_rel)
    else:
        speed_err = brain.v_ref - v
        cruise_leader = views_by_id.get(
            attention.lane_leaders.get(brain.current_lane))
        if cruise_leader is not None:
            cruise_gap = bumper_gap(ego, cruise_leader)
            cruise_ref = oracle_boxed_gap_ref(cruise_gap, follower_gap,
                                              follow_ref)
        if cruise_leader is not None and cruise_gap < cruise_ref:
            err, rate = blended_error(speed_err, cruise_gap - cruise_ref,
                                      cruise_leader.v - v, cfg.speed_weight)
            base = oracle_longitudinal_accel(q, cfg, err, rate)
        else:
            base = oracle_longitudinal_accel(q, cfg, speed_err, 0.0)

    if slot_leader is not None:
        base = min(base, oracle_brake_channel(q, cfg, slot_gap, slot_rel,
                                              slot_ref))
    lanes = {brain.current_lane}
    if changing and brain.target_lane is not None:
        lanes.add(brain.target_lane)
    for lane in lanes:
        leader = views_by_id.get(attention.lane_leaders.get(lane))
        if leader is None or leader is slot_leader:
            continue
        if leader is cruise_leader:
            gap, ref = cruise_gap, cruise_ref
        else:
            gap = bumper_gap(ego, leader)
            ref = oracle_boxed_gap_ref(gap, follower_gap, follow_ref)
        base = min(base, oracle_brake_channel(q, cfg, gap, leader.v - v,
                                              ref))
    threat = views_by_id.get(attention.threat_id)
    if threat is not None:
        ahead = threat.y - ego.y > (threat.length + ego.length) / 2.0
        if ahead or brain.evading:
            ref = (profile.lane_change_clearance
                   + profile.prediction_time * max(0.0, v - threat.v))
            base = min(base, oracle_brake_channel(q, cfg,
                                                  bumper_gap(ego, threat),
                                                  threat.v - v, ref))

    accel_cap = cfg.accel_cap_g * GRAVITY
    hi = min(accel_limit, accel_cap)
    lo = -accel_cap if brain.guard else -min(
        accel_limit * cfg.brake_factor, accel_cap)
    return min(max(base, lo), hi), steer


class IdAttention(NamedTuple):
    """The attention as the oracle reads it: vehicle ids, not slots."""
    lane_leaders: dict = {}
    own_follower_id: Optional[str] = None
    threat_id: Optional[str] = None


# --- generated inputs ------------------------------------------------------

OTHER_IDS = ("leader_a", "leader_b", "slot_leader", "slot_follower",
             "follower", "threat")
_ids = st.one_of(st.none(), st.sampled_from(OTHER_IDS + ("absent",)))

_configs = st.builds(
    RunConfig,
    brake_factor=st.floats(0.2, 3.0), accel_cap_g=st.floats(0.05, 1.0),
    steer_cap_deg=st.floats(1.0, 89.0),
    lat_accel_g_cautious=st.floats(0.01, 1.0),
    lat_accel_g_aggressive=st.floats(0.01, 1.0),
    understeer_gradient=st.floats(0.0, 8.0),
    dist_front=st.floats(0.8, 1.8), dist_rear=st.floats(0.8, 2.0),
    kp_long=st.floats(0.0, 2.0), kd_long=st.floats(0.0, 2.0),
    kp_lat=st.floats(0.0, 2.0), kd_lat=st.floats(0.0, 2.0),
    speed_weight=st.floats(0.0, 1.0),
    nominal_accel_g=st.floats(0.01, 1.0),
    directive_accel_gain=st.floats(0.0, 3.0),
    risk_tolerance_max=st.floats(0.0, 40.0),
    slot_ride_cautious=st.floats(0.0, 1.0),
    slot_ride_aggressive=st.floats(0.0, 1.0))

_states = st.builds(
    VehicleState, x=st.floats(-1.0, 11.0), y=st.floats(-50.0, 180.0),
    heading=st.floats(-0.3, 0.3),
    v_long=st.one_of(st.just(0.0), st.floats(-1.0, 0.0),
                     st.floats(5e-324, 40.0)),
    v_lat=st.floats(-2.0, 2.0), yaw_rate=st.floats(-0.5, 0.5))


@st.composite
def _brains(draw):
    maneuver = draw(st.sampled_from((KEEP, MERGE, CHANGE)))
    target = draw(st.sampled_from(LANES)) if maneuver != KEEP else draw(
        st.one_of(st.none(), st.sampled_from(LANES)))
    return BrainState(
        current_lane=draw(st.sampled_from(LANES)),
        v_ref=draw(st.floats(0.0, 40.0)),
        needs_merge=draw(st.booleans()), maneuver=maneuver,
        target_lane=target,
        directive=draw(st.sampled_from((ACCELERATE, DECELERATE, HOLD))),
        slot_leader_id=draw(_ids), slot_follower_id=draw(_ids),
        guard=draw(st.booleans()), evading=draw(st.booleans()))


# Other vehicles by id: (lane, offset from the lane centre, offset along the
# road from the ego, speed, heading).
_neighbours = st.dictionaries(
    st.sampled_from(OTHER_IDS),
    st.tuples(st.sampled_from(LANES), st.floats(-1.0, 1.0),
              st.floats(-60.0, 60.0), st.floats(0.0, 40.0),
              st.floats(-0.2, 0.2)))


_attention = st.builds(
    IdAttention,
    lane_leaders=st.dictionaries(st.sampled_from(LANES),
                                 st.sampled_from(OTHER_IDS + ("absent",))),
    own_follower_id=_ids, threat_id=_ids)


@settings(max_examples=600, deadline=None)
@given(cfg=_configs, q=st.floats(0.0, 1.0), state=_states, brain=_brains(),
       attention=_attention, others=_neighbours)
# Guard braking with no room left before the pavement ends.
@example(cfg=RunConfig(), q=0.5,
         state=VehicleState(x=9.9, y=165.0, v_long=5.0),
         brain=BrainState(3, 19.4, needs_merge=True, directive=DECELERATE,
                          guard=True),
         attention=IdAttention(), others={})
# A lane change boxed in by the slot leader, a leader in the target lane
# and a threat ahead.
@example(cfg=RunConfig(), q=0.9,
         state=VehicleState(x=8.0, y=80.0, heading=-0.05, v_long=20.0),
         brain=BrainState(3, 19.4, needs_merge=True, maneuver=MERGE,
                          target_lane=2, slot_leader_id="slot_leader",
                          slot_follower_id="slot_follower"),
         attention=IdAttention({2: "leader_a", 3: "slot_leader"}, "follower",
                             "threat"),
         others={"slot_leader": (2, 0.0, 8.0, 18.0, 0.0),
                 "slot_follower": (2, 0.0, -9.0, 22.0, 0.0),
                 "leader_a": (2, 0.0, 7.0, 15.0, 0.0),
                 "follower": (3, 0.0, -7.0, 21.0, 0.0),
                 "threat": (3, 0.0, 6.0, 10.0, 0.0)})
# The ego exactly on its lane centre at heading 0, so the raw steering
# command is zero and steering_command returns it before its limit: plain
# cruise behind a leader, slot keeping beside the merge slot, and guard
# braking with room left before the pavement ends.
@example(cfg=RunConfig(), q=0.5,
         state=VehicleState(x=6.6, y=40.0, v_long=20.0, v_lat=0.1),
         brain=BrainState(2, 22.0),
         attention=IdAttention({2: "leader_a"}, "follower"),
         others={"leader_a": (2, 0.0, 15.0, 18.0, 0.0),
                 "follower": (2, 0.0, -10.0, 21.0, 0.0)})
@example(cfg=RunConfig(), q=0.3,
         state=VehicleState(x=9.9, y=80.0, v_long=19.0),
         brain=BrainState(3, 19.4, needs_merge=True, directive=HOLD,
                          slot_leader_id="slot_leader",
                          slot_follower_id="slot_follower"),
         attention=IdAttention({2: "leader_a", 3: "leader_b"}),
         others={"slot_leader": (2, 0.0, 6.0, 20.0, 0.0),
                 "slot_follower": (2, 0.0, -8.0, 19.0, 0.0),
                 "leader_a": (2, 0.0, 6.0, 20.0, 0.0),
                 "leader_b": (3, 0.0, 30.0, 18.0, 0.0)})
@example(cfg=RunConfig(), q=0.8,
         state=VehicleState(x=9.9, y=150.0, v_long=12.0),
         brain=BrainState(3, 19.4, needs_merge=True, directive=DECELERATE,
                          guard=True),
         attention=IdAttention({3: "leader_b"}),
         others={"leader_b": (3, 0.0, 12.0, 10.0, 0.0)})
def test_controls_are_bit_identical_to_the_per_call_bounds(
        cfg, q, state, brain, attention, others):
    profile = cfg.profile(q)
    params = cfg.vehicle_params()
    veh = SimVehicle("ego", DECISION, params, state, 19.4, q, profile, brain)
    ego = veh.view(GEOMETRY)
    views = [ego] + [
        VehicleView(vid, GEOMETRY.centers[lane] + dx, state.y + dy, v,
                    heading, 4.5, 1.8, lane)
        for vid, (lane, dx, dy, v, heading) in others.items()]
    views_by_id = {v.vehicle_id: v for v in views}
    # The same attention by slot, with the latch's insertion slot resolved
    # as the epoch does; an id with no view is no vehicle.
    slot_of = {v.vehicle_id: k for k, v in enumerate(views)}
    slots = Attention(
        {lane: slot_of[vid] for lane, vid in attention.lane_leaders.items()
         if vid in slot_of},
        slot_of.get(attention.own_follower_id),
        slot_of.get(attention.threat_id), slot_of.get(brain.slot_leader_id),
        slot_of.get(brain.slot_follower_id))

    got = _controls_for(veh, ego, views, slots, GEOMETRY)
    want = oracle_controls_for(veh, ego, views_by_id, attention, GEOMETRY,
                               cfg)
    assert (got.accel.hex(), got.steer.hex()) == tuple(w.hex() for w in want)


# --- the gap reference's clamp ---------------------------------------------


@given(st.data())
def test_gap_ref_clamp_is_the_min_max_formula(data):
    # Infinite gaps give an infinite room, or a NaN one when they cancel.
    room = data.draw(st.one_of(st.just(math.nan), EDGE_FLOATS))
    follow_ref = data.draw(st.one_of(st.sampled_from([room, 1.0]),
                                     EDGE_FLOATS))
    want = min(follow_ref, max(room, 1.0))
    assert _gap_ref(room, follow_ref).hex() == want.hex()
