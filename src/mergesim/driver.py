"""Driver profiles and the saturated PD manipulation layer.

A DriverProfile holds every behavioral parameter one driver needs: comfort
limits, look-ahead time, usable headway, perception magnification,
lane-change clearance, the decision constants (the tolerated squeeze
risk_tolerance, the discretionary-change margin hysteresis, the commands
of the accelerate and decelerate directives nominal_accel and
nominal_decel, and the slot-keeping constants slot_ride and slot_rear_min)
and the constants of its PD laws: their gains, the acceleration, brake and
steering bounds, and the vehicle constants of the lateral acceleration
gain.  RunConfig.profile expands a single aggressiveness index in [0, 1]
(0 = completely cautious, 1 = completely aggressive) into one.  The PD laws
below turn tracking errors into acceleration and steering commands bounded
by the profile alone.
"""

from dataclasses import dataclass
import math


@dataclass(frozen=True)
class DriverProfile:
    visibility_scale: float      # caps usable headway (fraction of range)
    prediction_time: float       # s
    bound_scale: float           # perceived-rectangle magnification, >= 1
    visibility_range: float      # m
    lane_change_clearance: float  # m, room needed to change lanes
    follow_headway: float        # s
    risk_tolerance: float        # m, admissible squeeze below the clearance
    hysteresis: float            # m, utility margin a lane change must beat
    nominal_accel: float         # m/s^2, command of an accelerate directive
    nominal_decel: float         # m/s^2, brake of a decelerate directive
    slot_ride: float             # share of a slot's free room kept ahead
    slot_rear_min: float         # m, least room kept behind in a slot
    kp_long: float               # longitudinal proportional gain (1/s)
    kd_long: float               # longitudinal derivative gain
    kp_lat: float                # lateral proportional gain (rad/m)
    kd_lat: float                # lateral derivative gain (rad s/m)
    steer_cap: float             # rad, physical steering bound
    accel_hi: float              # m/s^2, comfort and physical acceleration bound
    brake_lo: float              # m/s^2, comfort deceleration bound (negative)
    guard_lo: float              # m/s^2, emergency deceleration: the physical cap
    steer_scale: float           # 57.3 L g of the lateral acceleration gain
    lat_accel_g: float           # g, lateral acceleration limit
    understeer_gradient: float   # deg/g
    speed_weight: float          # weighted-mean share of the speed channel


def longitudinal_accel(profile: DriverProfile, error: float,
                       error_rate: float) -> float:
    """Saturated PD acceleration command, clamped to the comfort bounds
    [brake_lo, accel_hi]."""
    raw = profile.kp_long * error + profile.kd_long * error_rate
    lo, hi = profile.brake_lo, profile.accel_hi
    if lo > raw:
        raw = lo
    return hi if hi < raw else raw


def steering_limit(profile: DriverProfile, v: float) -> float:
    """Steering angle (rad) at which lateral acceleration hits its limit.

    Uses the lateral acceleration gain of a understeering vehicle,
    a_y[g]/delta[deg] = v^2 / (57.3 L g + K_us v^2).  At standstill the
    gain vanishes, and so it does in floating point once v * v underflows
    (v below about 1.5e-154 m/s); then the limit is inactive (returns +inf;
    callers clamp with the physical steering bound).
    """
    if v <= 0.0:
        return math.inf
    gain = v * v / (profile.steer_scale
                    + profile.understeer_gradient * v * v)  # g per deg
    if gain == 0.0:
        return math.inf
    delta_deg = profile.lat_accel_g / gain
    return math.radians(delta_deg)


def steering_command(profile: DriverProfile, e_lat: float, e_lat_rate: float,
                     v: float) -> float:
    """Saturated PD steering command.

    The bound is the tighter of the disposition-dependent lateral
    acceleration limit and the physical steering limit, applied
    symmetrically.  A raw command of zero, as on a lane centre at heading
    0, is its own clamp: it is returned, sign and all, before the limit is
    computed.
    """
    raw = profile.kp_lat * e_lat + profile.kd_lat * e_lat_rate
    if raw == 0.0:
        return raw
    limit, cap = steering_limit(profile, v), profile.steer_cap
    bound = cap if cap < limit else limit
    lo = -bound
    if lo > raw:
        raw = lo
    return bound if bound < raw else raw


def blended_error(speed_error: float, gap_error: float, gap_error_rate: float,
                  speed_weight: float):
    """Weighted mean of the speed-tracking and gap-keeping error channels.

    Returns an (error, error_rate) pair ready for longitudinal_accel; the
    speed channel carries no derivative term.
    """
    w = speed_weight
    return (w * speed_error + (1.0 - w) * gap_error,
            (1.0 - w) * gap_error_rate)
