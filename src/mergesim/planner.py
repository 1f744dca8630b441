"""Game-theoretic decision layer.

Merge-lane vehicles run a merging game against the nearest mainline
competitor every decision epoch; unless they merge or hold beside a
feasible slot, hypothetical games on predicted states pick an
accelerate/decelerate/hold directive and re-designate the competitor.
Mainline decision vehicles run discretionary lane-change games against
adjacent-lane followers.  All decisions are pure functions of the snapshot
plus a small latch record, so identical inputs reproduce identical choices.
"""

import math
from typing import List, NamedTuple, Optional, Tuple

from .dynamics import GRAVITY
from .driver import DriverProfile
from .game import (LEFT, STRAIGHT, IMPOSSIBLE, PayoffBimatrix, headway_utility,
                   solve_stackelberg, squeeze_penalty)
from .perception import VehicleView, bumper_gap, pose, rects_intersect
from .road import LaneGeometry, distance_to_merge_end, room_to_hard_end

ACCELERATE = "accel"
DECELERATE = "decel"
HOLD = "hold"

MERGE = "merge"
CHANGE = "change"
KEEP = "keep"

COMFORT_GUARD_G = 0.3  # g, braking at which a decel directive keeps a stop in reach


class BrainState(NamedTuple):
    """Decision latch carried by one vehicle between epochs."""
    current_lane: int
    v_ref: float                      # reference speed for the cruise channel
    needs_merge: bool = False
    maneuver: str = KEEP              # "merge" | "change" | "keep"
    target_lane: Optional[int] = None
    directive: str = HOLD
    competing_id: Optional[str] = None
    slot_leader_id: Optional[str] = None
    slot_follower_id: Optional[str] = None
    guard: bool = False               # end-of-lane guard engaged
    forced_stop: bool = False
    evading: bool = False             # giving way to a sinking ramp vehicle
    threat_memo_id: Optional[str] = None
    threat_memo_speed: float = 0.0


class SlotEval(NamedTuple):
    """Quality of one insertion slot around a (possibly hypothetical) ego."""
    leader: Optional[VehicleView]
    follower: Optional[VehicleView]
    utility: float      # net leader utility of taking the slot
    feasible: bool      # open front and a squeeze within the risk tolerance


def slot_around(ego: VehicleView, views: List[VehicleView], lane: int,
                exclude: Tuple[str, ...] = ()) -> Tuple[Optional[VehicleView], Optional[VehicleView]]:
    """(leader, follower) in a lane around ego's longitudinal position."""
    leader = follower = None
    for v in views:
        if v.lane != lane or v.vehicle_id == ego.vehicle_id or v.vehicle_id in exclude:
            continue
        if v.y > ego.y:
            if leader is None or v.y < leader.y:
                leader = v
        else:
            if follower is None or v.y > follower.y:
                follower = v
    return leader, follower


def evaluate_slot(ego: VehicleView, views: List[VehicleView], lane: int,
                  profile: DriverProfile,
                  exclude: Tuple[str, ...] = ()) -> SlotEval:
    leader, follower = slot_around(ego, views, lane, exclude)
    front = bumper_gap(ego, leader) if leader else profile.visibility_range
    squeeze = 0.0 if follower is None else squeeze_penalty(
        bumper_gap(ego, follower), follower.v - ego.v, profile)
    return SlotEval(leader, follower, headway_utility(front, profile) - squeeze,
                    (leader is None or front > 0.0)
                    and squeeze <= profile.risk_tolerance)


def stay_utility(ego: VehicleView, views: List[VehicleView],
                 dist_to_end: float, profile: DriverProfile,
                 geometry: LaneGeometry) -> float:
    """Leader utility of remaining in the merge lane: free room ahead is
    bounded by both any merge-lane leader and the approaching lane end."""
    leader, _ = slot_around(ego, views, geometry.merge_lane)
    ahead = dist_to_end
    if leader is not None:
        gap = bumper_gap(ego, leader)
        if gap < ahead:
            ahead = gap
    return (headway_utility(ahead, profile)
            - squeeze_penalty(dist_to_end, ego.v, profile))


def _escape_lane(p2_lane: int, entering_from: int,
                 geometry: LaneGeometry) -> Optional[int]:
    """Mainline lane the competitor would vacate into (away from the entrant)."""
    esc = p2_lane - 1 if entering_from > p2_lane else p2_lane + 1
    return esc if esc in geometry.mainline_lanes else None


def build_entry_bimatrix(ego: VehicleView, target_lane: int, slot: SlotEval,
                         p2: VehicleView, views: List[VehicleView],
                         geometry: LaneGeometry, profile: DriverProfile,
                         p2_profile: DriverProfile, u_stay: float,
                         risk_discount: float = 0.0) -> PayoffBimatrix:
    """Joint payoffs for one vehicle entering a lane against one competitor,
    given evaluate_slot's judgement of the slot beside it in that lane.

    risk_discount is added to the entering side's utility: aggressive
    drivers shrug off part of the squeeze penalty when the change is
    mandatory.
    """
    # A slot is judged by the ego's id, y, length and speed alone, so the
    # entrant needs no move onto the target lane, nor the competitor onto
    # its escape lane.
    enter_vs_vacate = evaluate_slot(ego, views, target_lane, profile,
                                    exclude=(p2.vehicle_id,)).utility
    # The competitor keeping its lane has the room to its leader, which the
    # entrant takes over when it would be the nearer one ahead (a strictly
    # smaller y: slot_around keeps the first of equals, and the entrant
    # comes after every view).
    leader, _ = slot_around(p2, views, p2.lane)
    keep = headway_utility(
        bumper_gap(p2, leader) if leader else p2_profile.visibility_range,
        p2_profile)
    if (target_lane == p2.lane and ego.vehicle_id != p2.vehicle_id
            and ego.y > p2.y and (leader is None or ego.y < leader.y)):
        keep_entered = headway_utility(bumper_gap(p2, ego), p2_profile)
    else:
        keep_entered = keep
    # Vacating, away from the entrant, does not depend on whether it enters.
    esc = _escape_lane(p2.lane, ego.lane, geometry)
    vacate = IMPOSSIBLE if esc is None else evaluate_slot(
        p2, views, esc, p2_profile).utility
    return PayoffBimatrix(
        leader={(LEFT, STRAIGHT): slot.utility + risk_discount,
                (STRAIGHT, STRAIGHT): u_stay,
                (LEFT, LEFT): enter_vs_vacate + risk_discount,
                (STRAIGHT, LEFT): u_stay},
        follower={(LEFT, STRAIGHT): keep_entered, (STRAIGHT, STRAIGHT): keep,
                  (LEFT, LEFT): vacate, (STRAIGHT, LEFT): vacate})


def nearest_in_lane(ego: VehicleView, views: List[VehicleView], lane: int,
                    visibility: float) -> Optional[VehicleView]:
    best = None
    best_dist = visibility
    for v in views:
        if v.lane != lane or v.vehicle_id == ego.vehicle_id:
            continue
        d = abs(v.y - ego.y)
        if d <= best_dist:
            best, best_dist = v, d
    return best


def merging_game(ego: VehicleView, views: List[VehicleView], slot: SlotEval,
                 profile: DriverProfile, dist_to_end: float,
                 geometry: LaneGeometry, profiles) -> Tuple[str, Optional[str]]:
    """Resolve merge-now vs stay against the current competing vehicle,
    given the slot beside the ego in the merge target lane.  The merge is
    mandatory, so the ego's risk tolerance discounts the entering side.

    Returns (leader action, competitor id); an empty adjacent lane is an
    immediate merge.
    """
    target = geometry.merge_target_lane
    p2 = nearest_in_lane(ego, views, target, profile.visibility_range)
    if p2 is None:
        return LEFT, None
    u_stay = stay_utility(ego, views, dist_to_end, profile, geometry)
    bim = build_entry_bimatrix(ego, target, slot, p2, views, geometry,
                               profile, profiles[p2.vehicle_id], u_stay,
                               risk_discount=profile.risk_tolerance)
    action, _ = solve_stackelberg(bim)
    return action, p2.vehicle_id


def predict_states(views: List[VehicleView], ego_id: str, accel: float,
                   horizon: float) -> List[VehicleView]:
    """Constant-speed propagation of everyone except the ego, which applies
    the constant signed acceleration `accel`.  Speeds floor at zero."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    out = []
    for v in views:
        if v.vehicle_id == ego_id:
            if accel < 0 and v.v + accel * horizon < 0:
                dy = v.v * v.v / (2.0 * -accel)
                speed = 0.0
            else:
                dy = v.v * horizon + 0.5 * accel * horizon * horizon
                speed = v.v + accel * horizon
            out.append(v._replace(y=v.y + dy, v=speed))
        else:
            out.append(v._replace(y=v.y + v.v * horizon))
    return out


class Directive(NamedTuple):
    name: str
    competing_id: Optional[str] = None
    slot_leader_id: Optional[str] = None
    slot_follower_id: Optional[str] = None


def acceleration_game(ego: VehicleView, views: List[VehicleView],
                      profile: DriverProfile, geometry: LaneGeometry,
                      cfg, incumbent: str = HOLD) -> Directive:
    """Pick accelerate/decelerate, or hold when neither leads to a slot.

    Each hypothetical directive is scored on the predicted configuration,
    with the look-ahead capped at the moment the ego would reach the
    entrance end.  The slot around the predicted ego must be enterable
    (open front, tolerable squeeze); among enterable slots the higher net
    utility wins.  Ties fall to decelerating, and an already-chosen
    directive is only abandoned for a clearly better one.
    """
    target = geometry.merge_target_lane
    scored = {}
    for directive in (DECELERATE, ACCELERATE):
        accel = (profile.nominal_accel if directive == ACCELERATE
                 else -profile.nominal_decel)
        reach = _time_to_reach(ego.v, accel, geometry.entrance_end - ego.y)
        cap = cfg.prediction_horizon
        horizon = reach if reach < cap else cap
        if horizon <= 0.0:
            continue  # already past the last possible merge point
        pred = predict_states(views, ego.vehicle_id, accel, horizon)
        pego = next(v for v in pred if v.vehicle_id == ego.vehicle_id)
        slot = evaluate_slot(pego, pred, target, profile)
        if not slot.feasible:
            continue
        p2p = nearest_in_lane(pego, pred, target, profile.visibility_range)
        scored[directive] = (slot.utility, Directive(
            directive, p2p.vehicle_id if p2p else None,
            slot.leader.vehicle_id if slot.leader else None,
            slot.follower.vehicle_id if slot.follower else None))
    if not scored:
        return Directive(HOLD)
    # The committed directive, or decelerating when none is, holds unless the
    # other beats it: by the switch margin, or by anything when none is.
    committed = incumbent in (ACCELERATE, DECELERATE)
    held = incumbent if committed else DECELERATE
    other = DECELERATE if held == ACCELERATE else ACCELERATE
    margin = cfg.directive_switch_margin if committed else 0.0
    if held not in scored or (other in scored and
                              scored[other][0] > scored[held][0] + margin):
        held = other
    return scored[held][1]


def _time_to_reach(speed: float, accel: float, distance: float) -> float:
    """Time for a constant-acceleration vehicle to cover distance (inf if
    it stops short; non-positive distance gives 0)."""
    if distance <= 0.0:
        return 0.0
    if abs(accel) < 1e-12:
        return distance / speed if speed > 0 else math.inf
    disc = speed * speed + 2.0 * accel * distance
    if disc < 0.0:
        return math.inf  # decelerates to rest before getting there
    return (math.sqrt(disc) - speed) / accel


LANE_CHANGE_MARGIN = 0.1  # m, added to each half extent of the ego's ghost


def lane_change_safe(ego: VehicleView, views: List[VehicleView],
                     target_lane: int, profile: DriverProfile,
                     geometry: LaneGeometry) -> bool:
    """Veto check: the slot must not be predicted to overlap anyone.

    The ego, grown by LANE_CHANGE_MARGIN, is placed on the target center
    and everyone coasts at current speed; overlap at any sampled horizon up
    to the driver's prediction time rejects the maneuver.
    """
    horizons = (0.0, 0.5 * profile.prediction_time, profile.prediction_time)
    cx = geometry.centers[target_lane]
    half_w = ego.width / 2.0 + LANE_CHANGE_MARGIN
    half_l = ego.length / 2.0 + LANE_CHANGE_MARGIN
    others = [other for other in views if other.vehicle_id != ego.vehicle_id]
    for h in horizons:
        ghost = pose(cx, ego.y + ego.v * h, 0.0, half_w, half_l)
        for other in others:
            rect = pose(other.x, other.y + other.v * h, other.heading,
                        other.width / 2.0, other.length / 2.0)
            if rects_intersect(ghost, rect):
                return False
    return True


def discretionary_lane_change(ego: VehicleView, views: List[VehicleView],
                              profile: DriverProfile, geometry: LaneGeometry,
                              profiles,
                              own_gap: Optional[float]) -> Optional[int]:
    """Optional change to an adjacent mainline lane for better headway.

    Each candidate lane hosts a game against that lane's follower; the
    change happens only if the solved leader action is to change and the
    secured utility beats staying by the driver's hysteresis margin.
    """
    vis = profile.visibility_range
    u_stay = headway_utility(own_gap if own_gap is not None else vis, profile)
    best_lane = None
    best_gain = profile.hysteresis
    for cand in (ego.lane - 1, ego.lane + 1):
        if cand not in geometry.mainline_lanes:
            continue
        # A slot needs no ghost ego (see build_entry_bimatrix).
        slot = evaluate_slot(ego, views, cand, profile)
        follower = slot.follower
        if follower is None:
            u_change = slot.utility
        else:
            bim = build_entry_bimatrix(ego, cand, slot, follower, views,
                                       geometry, profile,
                                       profiles[follower.vehicle_id], u_stay)
            action, fa = solve_stackelberg(bim)
            if action != LEFT:
                continue
            u_change = bim.leader[(LEFT, fa)]
        gain = u_change - u_stay
        if gain > best_gain:
            best_lane, best_gain = cand, gain
    if best_lane is not None and not lane_change_safe(ego, views, best_lane,
                                                      profile, geometry):
        return None
    return best_lane


def entrance_threat(ego: VehicleView, views: List[VehicleView],
                    geometry: LaneGeometry, cfg) -> Optional[VehicleView]:
    """Merge-lane vehicle the ego should be ready to give way to.

    Only meaningful for vehicles driving in the lane next to the merge
    entrance; returns the nearest ramp vehicle that sits around or ahead
    of the ego within the entrance zone.
    """
    if ego.lane != geometry.merge_target_lane:
        return None
    zone_lo = geometry.merge_start - cfg.yield_zone_margin
    best = None
    for v in views:
        if v.lane != geometry.merge_lane:
            continue
        if v.y < ego.y - cfg.yield_lookback or v.y < zone_lo or v.y > geometry.hard_end:
            continue
        if bumper_gap(ego, v) > cfg.visibility_range:
            continue
        if best is None or abs(v.y - ego.y) < abs(best.y - ego.y):
            best = v
    return best


def stopping_distance(speed: float, decel: float) -> float:
    return speed * speed / (2.0 * decel) if decel > 0 else math.inf


def merged_speed_ref(preset_ref: float, speed_now: float,
                     leader_speed: Optional[float]) -> float:
    """Cruise reference after completing a merge: adopt the flow speed,
    never below the preset, never beyond what the slot leader allows."""
    achievable = speed_now
    if leader_speed is not None and leader_speed < speed_now:
        achievable = leader_speed
    return achievable if achievable > preset_ref else preset_ref


def complete_maneuver(ego: VehicleView, views: List[VehicleView],
                      brain: BrainState, geometry: LaneGeometry,
                      cfg) -> BrainState:
    """The latch once ego has settled on its maneuver's target lane center.

    The maneuver ends in KEEP on the target lane; a completed merge also
    clears needs_merge and adopts merged_speed_ref against the slot leader
    in views.  The latch comes back unchanged (the same object) while no
    merge or change runs or ego is still outside the settle band.
    """
    if (brain.maneuver not in (MERGE, CHANGE)
            or abs(ego.x - geometry.centers[brain.target_lane])
            >= cfg.lane_settle_tol):
        return brain
    completed_merge = brain.maneuver == MERGE
    leader = next((v for v in views
                   if v.vehicle_id == brain.slot_leader_id), None)
    return brain._replace(
        maneuver=KEEP, current_lane=brain.target_lane,
        target_lane=None, directive=HOLD, competing_id=None,
        slot_leader_id=None, slot_follower_id=None, guard=False,
        needs_merge=brain.needs_merge and not completed_merge,
        v_ref=(merged_speed_ref(brain.v_ref, ego.v,
                                leader.v if leader else None)
               if completed_merge else brain.v_ref))


def sinking_threat(ego: VehicleView, threat: Optional[VehicleView],
                   brain: BrainState, profile: DriverProfile, cfg) -> bool:
    """A braking ramp vehicle about to drop into the ego's slot.

    Observed over one epoch: the threat is nearby, slower, visibly
    decelerating, and its constant-speed projection at the ego's
    prediction horizon sits at or behind the ego's nose.
    """
    if threat is None or threat.vehicle_id != brain.threat_memo_id:
        return False
    observed_accel = (threat.v - brain.threat_memo_speed) / cfg.epoch
    if observed_accel >= -cfg.evade_decel_threshold or threat.v >= ego.v:
        return False
    dy = threat.y - ego.y
    dy_ahead = dy + (threat.v - ego.v) * profile.prediction_time
    return abs(dy) < cfg.evade_near and dy_ahead < ego.length + 2.0


def decide(ego: VehicleView, views: List[VehicleView], brain: BrainState,
           profile: DriverProfile, geometry: LaneGeometry, profiles,
           cfg, own_gap: Optional[float] = None,
           threat: Optional[VehicleView] = None) -> BrainState:
    """One decision epoch for one vehicle; returns the updated latch.  A
    running lateral maneuver is never reversed: only the step loop's
    complete_maneuver ends it."""
    if brain.maneuver != KEEP:
        return brain

    if brain.needs_merge and ego.lane == geometry.merge_lane:
        return _merge_lane_epoch(ego, views, brain, profile, geometry,
                                 profiles, cfg)

    evading = sinking_threat(ego, threat, brain, profile, cfg)
    target = discretionary_lane_change(
        ego, views, profile, geometry, profiles,
        0.0 if evading else own_gap)  # an evaded slot is about to be taken
    brain = brain._replace(
        directive=HOLD, target_lane=target, evading=evading,
        threat_memo_id=threat.vehicle_id if threat else None,
        threat_memo_speed=threat.v if threat else 0.0)
    if target is None:
        return brain
    return brain._replace(maneuver=CHANGE, competing_id=None,
                          slot_leader_id=None, slot_follower_id=None)


def _merge_lane_epoch(ego, views, brain, profile, geometry, profiles, cfg):
    """One merge-lane epoch; the first rule that applies decides it:
    1. merge: the merging game says go, and the slot beside can be taken
       now (inside the merge window, feasible and lane_change_safe);
    2. hold beside: the slot beside is feasible, short of the entrance end;
    3. directive game: acceleration_game's accelerate or decelerate;
    4. no slot: hold.
    A decelerate, or a hold with no competitor, becomes guarded braking
    once a stop at COMFORT_GUARD_G before the merge end (the comfort
    guard), or at accel_cap_g before the pavement end (the backstop), is
    about to fall out of reach."""
    target = geometry.merge_target_lane
    dist_to_end = distance_to_merge_end(ego, geometry)
    slot = evaluate_slot(ego, views, target, profile)
    action, p2_id = merging_game(ego, views, slot, profile, dist_to_end,
                                 geometry, profiles)
    beside = slot.feasible
    leader_id = slot.leader.vehicle_id if slot.leader else None
    follower_id = slot.follower.vehicle_id if slot.follower else None
    if (action == LEFT and beside
            and geometry.merge_start <= ego.y < geometry.entrance_end
            and lane_change_safe(ego, views, target, profile, geometry)):
        return brain._replace(
            maneuver=MERGE, target_lane=target, directive=HOLD,
            competing_id=p2_id, slot_leader_id=leader_id,
            slot_follower_id=follower_id, guard=False)
    if beside and ego.y < geometry.entrance_end:
        directive, competing_id = HOLD, p2_id
    else:
        directive, competing_id, leader_id, follower_id = acceleration_game(
            ego, views, profile, geometry, cfg, incumbent=brain.directive)
    guard = False
    if directive == DECELERATE or (directive == HOLD and competing_id is None):
        comfort_stop = (stopping_distance(ego.v, COMFORT_GUARD_G * GRAVITY)
                        + profile.lane_change_clearance)
        guard = (dist_to_end < comfort_stop
                 or room_to_hard_end(ego.y, ego.length, geometry)
                 < stopping_distance(ego.v, cfg.accel_cap_g * GRAVITY))
    return brain._replace(
        maneuver=KEEP, directive=DECELERATE if guard else directive,
        competing_id=competing_id or p2_id, slot_leader_id=leader_id,
        slot_follower_id=follower_id, guard=guard, target_lane=None)
