"""The decision epoch as it read before it was made cheaper.

Verbatim copies of the functions that the one-pass vicinity, the flat 2x2
game and the single-latch-update epoch replaced: classify_vicinity with its
per-neighbour lane set and (lane, is_leader) dict, the bimatrix filled by
eight set calls, solve_stackelberg over generators and a lambda,
build_entry_bimatrix with _competitor_utility, discretionary_lane_change
with its ghost ego on each candidate lane, and decide with its two latch
updates.  merging_game, acceleration_game (with its hold-beside branch)
and _merge_lane_epoch are copied unchanged so that decide below plays
every game through the copies here.  Tests compare the simulator
against these.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from mergesim.driver import DriverProfile
from mergesim.dynamics import GRAVITY
from mergesim.game import (ACTIONS, IMPOSSIBLE, LEFT, STRAIGHT,
                           headway_utility)
from mergesim.perception import VehicleView, bumper_gap, lateral_reach
from mergesim.planner import (ACCELERATE, CHANGE, DECELERATE, HOLD, KEEP,
                              MERGE, BrainState, Directive, _escape_lane,
                              _time_to_reach, complete_maneuver,
                              evaluate_slot, lane_change_safe,
                              nearest_in_lane, predict_states,
                              sinking_threat, slot_around, stay_utility,
                              stopping_distance)
from mergesim.road import LaneGeometry, distance_to_merge_end

# The (vehicle_id, gap) neighbour record that perception exported when
# classify_vicinity below was written.
Neighbor = namedtuple("Neighbor", "vehicle_id gap")
_new_neighbor = Neighbor._make


def classify_vicinity(ego_id: str, views, geometry, *, visibility: float,
                      observer_scale: float = 1.0):
    """Partition surrounding vehicles into per-lane leader/follower slots:
    {lane: (leader, follower)}, each a Neighbor or None, in lane order.

    A vehicle registers in its own lane and, when observer_scale > 1, in
    any lane its magnified rectangle laterally overlaps (boundary
    recognition of straddling vehicles).  The nearest qualifying vehicle
    ahead/behind per lane wins the slot; anything farther than the
    visibility range is ignored.
    """
    ego = next(v for v in views if v.vehicle_id == ego_id)
    half_band = geometry.lane_width / 2.0
    best = {}  # (lane, is_leader) -> (gap, view)
    for other in views:
        if other.vehicle_id == ego_id:
            continue
        gap = bumper_gap(ego, other)
        if gap > visibility:
            continue
        lanes = {other.lane}
        if observer_scale > 1.0 or abs(other.heading) > 1e-9:
            reach = lateral_reach(other, observer_scale)
            for lane, center in enumerate(geometry.centers):
                if abs(other.x - center) <= half_band + reach:
                    lanes.add(lane)
        is_leader = other.y > ego.y
        for lane in lanes:
            key = (lane, is_leader)
            if key not in best or gap < best[key][0]:
                best[key] = (gap, other)
    slots = {}
    for lane in range(len(geometry.centers)):
        entries = []
        for is_leader in (True, False):
            hit = best.get((lane, is_leader))
            if hit is None:
                entries.append(None)
            else:
                gap, other = hit
                entries.append(_new_neighbor((other.vehicle_id, gap)))
        slots[lane] = tuple(entries)
    return slots


@dataclass
class PayoffBimatrix:
    """Leader and follower utilities over the 2x2 joint action space."""
    leader: Dict[Tuple[str, str], float] = field(default_factory=dict)
    follower: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def set(self, leader_action: str, follower_action: str,
            u_leader: float, u_follower: float) -> None:
        self.leader[(leader_action, follower_action)] = u_leader
        self.follower[(leader_action, follower_action)] = u_follower


def solve_stackelberg(bimatrix: PayoffBimatrix) -> Tuple[str, str]:
    """Leader/follower action pair of the finite Stackelberg game.

    The follower's best-response set may hold ties; the leader evaluates
    each of its actions against the worst tied response and plays the
    secure maximum.  Remaining ties fall to the safer straight action for
    both players.
    """
    best_pair = None
    best_value = None
    for leader_action in ACTIONS:
        top = max(bimatrix.follower[(leader_action, fa)] for fa in ACTIONS)
        responses = [fa for fa in ACTIONS
                     if bimatrix.follower[(leader_action, fa)] == top]
        worst = min(responses,
                    key=lambda fa: bimatrix.leader[(leader_action, fa)])
        value = bimatrix.leader[(leader_action, worst)]
        if best_value is None or value > best_value:
            best_pair = (leader_action, worst)
            best_value = value
    return best_pair


def _competitor_utility(p2: VehicleView, p2_profile: DriverProfile,
                        views: List[VehicleView], geometry: LaneGeometry,
                        action: str, entrant: Optional[VehicleView],
                        entering_from: int) -> float:
    """Follower-player utility for staying put or vacating sideways."""
    if action == STRAIGHT:
        crowd = list(views)
        if entrant is not None:
            crowd = crowd + [entrant]
        leader, _ = slot_around(p2, crowd, p2.lane)
        front = bumper_gap(p2, leader) if leader else p2_profile.visibility_range
        return headway_utility(front, p2_profile)
    esc = _escape_lane(p2.lane, entering_from, geometry)
    if esc is None:
        return IMPOSSIBLE
    ghost = p2._replace(x=geometry.centers[esc], lane=esc)
    side = evaluate_slot(ghost, views, esc, p2_profile, exclude=(p2.vehicle_id,))
    return side.utility


def build_entry_bimatrix(ego: VehicleView, target_lane: int, p2: VehicleView,
                         views: List[VehicleView], geometry: LaneGeometry,
                         profile: DriverProfile, p2_profile: DriverProfile,
                         u_stay: float,
                         risk_discount: float = 0.0) -> PayoffBimatrix:
    """Joint payoffs for one vehicle entering a lane against one competitor.

    risk_discount is added to the entering side's utility: aggressive
    drivers shrug off part of the squeeze penalty when the change is
    mandatory.
    """
    ghost = ego._replace(x=geometry.centers[target_lane], lane=target_lane)
    entry_vs_stay = evaluate_slot(ghost, views, target_lane, profile)
    entry_vs_vacate = evaluate_slot(ghost, views, target_lane, profile,
                                    exclude=(p2.vehicle_id,))
    bim = PayoffBimatrix()
    origin = ego.lane
    for fa in (STRAIGHT, LEFT):
        u2_after_stay = _competitor_utility(p2, p2_profile, views, geometry, fa,
                                            None, origin)
        # Vacating does not depend on whether the ego enters.
        u2_after_entry = u2_after_stay if fa == LEFT else _competitor_utility(
            p2, p2_profile, views, geometry, fa, ghost, origin)
        u1 = entry_vs_stay.utility if fa == STRAIGHT else entry_vs_vacate.utility
        bim.set(LEFT, fa, u1 + risk_discount, u2_after_entry)
        bim.set(STRAIGHT, fa, u_stay, u2_after_stay)
    return bim


def merging_game(ego: VehicleView, views: List[VehicleView],
                 profile: DriverProfile, dist_to_end: float,
                 geometry: LaneGeometry, profiles,
                 risk_discount: float = 0.0) -> Tuple[str, Optional[str]]:
    """Resolve merge-now vs stay against the current competing vehicle.

    Returns (leader action, competitor id); an empty adjacent lane is an
    immediate merge.
    """
    target = geometry.merge_target_lane
    p2 = nearest_in_lane(ego, views, target, profile.visibility_range)
    if p2 is None:
        return LEFT, None
    u_stay = stay_utility(ego, views, dist_to_end, profile, geometry)
    bim = build_entry_bimatrix(ego, target, p2, views, geometry,
                               profile, profiles[p2.vehicle_id], u_stay,
                               risk_discount=risk_discount)
    action, _ = solve_stackelberg(bim)
    return action, p2.vehicle_id


def acceleration_game(ego: VehicleView, views: List[VehicleView],
                      profile: DriverProfile, geometry: LaneGeometry,
                      cfg, incumbent: str = HOLD) -> Directive:
    """Pick accelerate/decelerate/hold while merging is not yet sensible.

    Each hypothetical directive is scored on the predicted configuration,
    with the look-ahead capped at the moment the ego would reach the
    entrance end.  The slot around the predicted ego must be enterable
    (open front, tolerable squeeze); among enterable slots the higher net
    utility wins.  Ties fall to decelerating, and an already-chosen
    directive is only abandoned for a clearly better one.
    """
    target = geometry.merge_target_lane
    current = evaluate_slot(ego, views, target, profile)
    if current.feasible and ego.y < geometry.entrance_end:
        # The slot beside us is already good: hold position in it.
        p2 = nearest_in_lane(ego, views, target, profile.visibility_range)
        return Directive(
            HOLD, p2.vehicle_id if p2 else None,
            current.leader.vehicle_id if current.leader else None,
            current.follower.vehicle_id if current.follower else None)

    scored = {}
    for directive in (DECELERATE, ACCELERATE):
        a_nom = (profile.nominal_accel if directive == ACCELERATE
                 else profile.nominal_decel)
        accel = a_nom if directive == ACCELERATE else -a_nom
        horizon = min(cfg.prediction_horizon,
                      _time_to_reach(ego.v, accel,
                                     geometry.entrance_end - ego.y))
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
    if len(scored) == 2:
        if incumbent in scored:
            # Stick with the committed directive unless clearly beaten.
            other = ACCELERATE if incumbent == DECELERATE else DECELERATE
            if scored[other][0] > scored[incumbent][0] + cfg.directive_switch_margin:
                return scored[other][1]
            return scored[incumbent][1]
        if scored[ACCELERATE][0] > scored[DECELERATE][0]:
            return scored[ACCELERATE][1]
        return scored[DECELERATE][1]
    return next(iter(scored.values()))[1]


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
        if cand not in geometry.mainline_lanes or cand == ego.lane:
            continue
        _, follower = slot_around(
            ego._replace(x=geometry.centers[cand], lane=cand), views, cand)
        if follower is None:
            ghost = ego._replace(x=geometry.centers[cand], lane=cand)
            u_change = evaluate_slot(ghost, views, cand, profile).utility
        else:
            bim = build_entry_bimatrix(ego, cand, follower, views, geometry,
                                       profile, profiles[follower.vehicle_id],
                                       u_stay)
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


def decide(ego: VehicleView, views: List[VehicleView], brain: BrainState,
           profile: DriverProfile, geometry: LaneGeometry, profiles,
           cfg, own_gap: Optional[float] = None,
           threat: Optional[VehicleView] = None) -> BrainState:
    """One decision epoch for one vehicle; returns the updated latch."""
    # A running lateral maneuver is never reversed, only completed.
    brain = complete_maneuver(ego, views, brain, geometry, cfg)
    if brain.maneuver != KEEP:
        return brain

    if brain.needs_merge and ego.lane == geometry.merge_lane:
        return _merge_lane_epoch(ego, views, brain, profile, geometry,
                                 profiles, cfg)

    evading = sinking_threat(ego, threat, brain, profile, cfg)
    if evading:
        own_gap = 0.0  # the current slot is about to be taken
    brain = brain._replace(
        evading=evading, threat_memo_id=threat.vehicle_id if threat else None,
        threat_memo_speed=threat.v if threat else 0.0)

    target = discretionary_lane_change(ego, views, profile, geometry,
                                       profiles, own_gap)
    if target is not None:
        return brain._replace(maneuver=CHANGE, target_lane=target,
                              directive=HOLD, competing_id=None,
                              slot_leader_id=None, slot_follower_id=None)
    return brain._replace(maneuver=KEEP, directive=HOLD, target_lane=None)


def _merge_lane_epoch(ego, views, brain, profile, geometry, profiles, cfg):
    dist_to_end = distance_to_merge_end(ego, geometry)
    tol = profile.risk_tolerance
    action, p2_id = merging_game(ego, views, profile, dist_to_end,
                                 geometry, profiles, risk_discount=tol)
    if action == LEFT:
        in_window = geometry.merge_start <= ego.y < geometry.entrance_end
        slot = evaluate_slot(ego, views, geometry.merge_target_lane, profile)
        if (in_window and slot.feasible
                and lane_change_safe(ego, views, geometry.merge_target_lane,
                                     profile, geometry)):
            return brain._replace(
                maneuver=MERGE, target_lane=geometry.merge_target_lane,
                directive=HOLD, competing_id=p2_id,
                slot_leader_id=slot.leader.vehicle_id if slot.leader else None,
                slot_follower_id=(slot.follower.vehicle_id
                                  if slot.follower else None),
                guard=False)

    plan = acceleration_game(ego, views, profile, geometry, cfg,
                             incumbent=brain.directive)
    directive = plan.name
    guard = False
    if directive == DECELERATE or (directive == HOLD
                                   and plan.competing_id is None):
        # A decel directive, or a hold with no slot in hand and none
        # promised, keeps a stop in reach: brake in time to stop.
        room = dist_to_end
        if room < (stopping_distance(ego.v, 0.3 * GRAVITY)
                   + profile.lane_change_clearance):
            directive, guard = DECELERATE, True
        # Backstop against the pavement end, with full braking authority.
        hard_room = geometry.hard_end - ego.y - ego.length / 2.0 - 1.0
        if hard_room < stopping_distance(ego.v, cfg.accel_cap_g * GRAVITY):
            directive, guard = DECELERATE, True
    return brain._replace(maneuver=KEEP, directive=directive,
                          competing_id=plan.competing_id or p2_id,
                          slot_leader_id=plan.slot_leader_id,
                          slot_follower_id=plan.slot_follower_id,
                          guard=guard, target_lane=None)
