"""Driver profiles and the saturated PD manipulation layer.

A DriverProfile holds every behavioral parameter one driver needs: comfort
limits, look-ahead time, usable headway, perception magnification,
lane-change clearance, and the decision constants: the tolerated squeeze
(risk_tolerance), the discretionary-change margin (hysteresis), the
commands of the accelerate and decelerate directives (nominal_accel,
nominal_decel) and the slot-keeping constants (slot_ride, slot_rear_min).
RunConfig.profile expands a single aggressiveness index in [0, 1]
(0 = completely cautious, 1 = completely aggressive) into one.  The PD laws
below turn tracking errors into acceleration and steering commands bounded
by the ControlBounds that the profile, the ControllerGains of the run and
the vehicle's parameters fix.
"""

from dataclasses import dataclass
import math
from typing import NamedTuple

from .dynamics import GRAVITY, VehicleParams


@dataclass(frozen=True)
class DriverProfile:
    aggressiveness: float        # q in [0, 1]
    visibility_scale: float      # caps usable headway (fraction of range)
    prediction_time: float       # s
    accel_limit: float           # m/s^2
    lat_accel_limit: float       # m/s^2
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


@dataclass(frozen=True)
class ControllerGains:
    kp_long: float       # longitudinal proportional gain (1/s on velocity error)
    kd_long: float       # longitudinal derivative gain
    kp_lat: float        # lateral proportional gain (rad/m)
    kd_lat: float        # lateral derivative gain (rad s/m)
    accel_cap: float     # physical acceleration bound (m/s^2)
    steer_cap: float     # physical steering bound (rad)
    brake_factor: float  # deceleration limit = brake_factor * comfort limit


class ControlBounds(NamedTuple):
    """The constants of one vehicle's PD laws: they depend only on its
    DriverProfile, the run's ControllerGains and its VehicleParams, so a
    run derives them once per vehicle (see control_bounds)."""
    accel_hi: float     # comfort and physical acceleration bound (m/s^2)
    brake_lo: float     # comfort deceleration bound (m/s^2, negative)
    guard_lo: float     # emergency deceleration bound: the physical cap
    steer_scale: float  # 57.3 L g of the lateral acceleration gain
    lat_accel_g: float  # lateral acceleration limit (g)


def control_bounds(profile: DriverProfile, gains: ControllerGains,
                   params: VehicleParams) -> ControlBounds:
    """The bounds of a driver with this profile in a vehicle with these
    gains and params.

    Acceleration is limited by the driver's comfort bound and the vehicle's
    physical bound; comfortable deceleration is clamped symmetrically at
    brake_factor times the comfort bound, and emergency braking may use the
    whole physical bound.
    """
    return ControlBounds(
        accel_hi=min(profile.accel_limit, gains.accel_cap),
        brake_lo=-min(profile.accel_limit * gains.brake_factor,
                      gains.accel_cap),
        guard_lo=-gains.accel_cap,
        steer_scale=57.3 * params.wheelbase * GRAVITY,
        lat_accel_g=profile.lat_accel_limit / GRAVITY)


def longitudinal_accel(bounds: ControlBounds, gains: ControllerGains,
                       error: float, error_rate: float) -> float:
    """Saturated PD acceleration command, clamped to the comfort bounds
    [brake_lo, accel_hi]."""
    raw = gains.kp_long * error + gains.kd_long * error_rate
    return min(max(raw, bounds.brake_lo), bounds.accel_hi)


def steering_limit(bounds: ControlBounds, v: float,
                   params: VehicleParams) -> float:
    """Steering angle (rad) at which lateral acceleration hits its limit.

    Uses the lateral acceleration gain of a understeering vehicle,
    a_y[g]/delta[deg] = v^2 / (57.3 L g + K_us v^2).  At standstill the
    gain vanishes, and so it does in floating point once v * v underflows
    (v below about 1.5e-154 m/s); then the limit is inactive (returns +inf;
    callers clamp with the physical steering bound).
    """
    if v <= 0.0:
        return math.inf
    gain = v * v / (bounds.steer_scale
                    + params.understeer_gradient * v * v)  # g per deg
    if gain == 0.0:
        return math.inf
    delta_deg = bounds.lat_accel_g / gain
    return math.radians(delta_deg)


def steering_command(bounds: ControlBounds, gains: ControllerGains,
                     e_lat: float, e_lat_rate: float,
                     params: VehicleParams, v: float) -> float:
    """Saturated PD steering command.

    The bound is the tighter of the disposition-dependent lateral
    acceleration limit and the physical steering limit, applied
    symmetrically.  A raw command of zero, as on a lane centre at heading
    0, is its own clamp: it is returned, sign and all, before the limit is
    computed.
    """
    raw = gains.kp_lat * e_lat + gains.kd_lat * e_lat_rate
    if raw == 0.0:
        return raw
    bound = min(steering_limit(bounds, v, params), gains.steer_cap)
    return min(max(raw, -bound), bound)


def blended_error(speed_error: float, gap_error: float, gap_error_rate: float,
                  speed_weight: float):
    """Weighted mean of the speed-tracking and gap-keeping error channels.

    Returns an (error, error_rate) pair ready for longitudinal_accel; the
    speed channel carries no derivative term.
    """
    w = speed_weight
    return (w * speed_error + (1.0 - w) * gap_error,
            (1.0 - w) * gap_error_rate)
