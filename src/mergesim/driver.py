"""Driver profiles and the saturated PD manipulation layer.

A DriverProfile holds every behavioral parameter one driver needs: comfort
limits, look-ahead time, usable headway, perception magnification and
lane-change clearance.  RunConfig.profile expands a single aggressiveness
index in [0, 1] (0 = completely cautious, 1 = completely aggressive) into
one.  The PD laws below turn tracking errors into acceleration and steering
commands bounded by the profile and by the ControllerGains of the run.
"""

from dataclasses import dataclass
import math

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


@dataclass(frozen=True)
class ControllerGains:
    kp_long: float       # longitudinal proportional gain (1/s on velocity error)
    kd_long: float       # longitudinal derivative gain
    kp_lat: float        # lateral proportional gain (rad/m)
    kd_lat: float        # lateral derivative gain (rad s/m)
    accel_cap: float     # physical acceleration bound (m/s^2)
    steer_cap: float     # physical steering bound (rad)
    brake_factor: float  # deceleration limit = brake_factor * comfort limit


def longitudinal_accel(profile: DriverProfile, gains: ControllerGains,
                       error: float, error_rate: float) -> float:
    """Saturated PD acceleration command.

    The raw PD output is limited by the driver's comfort bound and the
    vehicle's physical bound; deceleration is clamped symmetrically at
    brake_factor times the comfort bound.
    """
    raw = gains.kp_long * error + gains.kd_long * error_rate
    hi = min(profile.accel_limit, gains.accel_cap)
    lo = -min(profile.accel_limit * gains.brake_factor, gains.accel_cap)
    return min(max(raw, lo), hi)


def steering_limit(lat_accel_limit: float, v: float, params: VehicleParams) -> float:
    """Steering angle (rad) at which lateral acceleration hits its limit.

    Uses the lateral acceleration gain of a understeering vehicle,
    a_y[g]/delta[deg] = v^2 / (57.3 L g + K_us v^2).  At standstill the
    gain vanishes, so the limit is inactive (returns +inf; callers clamp
    with the physical steering bound).
    """
    if v <= 0.0:
        return math.inf
    gain = v * v / (57.3 * params.wheelbase * GRAVITY
                    + params.understeer_gradient * v * v)  # g per deg
    delta_deg = (lat_accel_limit / GRAVITY) / gain
    return math.radians(delta_deg)


def steering_command(profile: DriverProfile, gains: ControllerGains,
                     e_lat: float, e_lat_rate: float,
                     params: VehicleParams, v: float) -> float:
    """Saturated PD steering command.

    The bound is the tighter of the disposition-dependent lateral
    acceleration limit and the physical steering limit, applied
    symmetrically.
    """
    raw = gains.kp_lat * e_lat + gains.kd_lat * e_lat_rate
    bound = min(steering_limit(profile.lat_accel_limit, v, params), gains.steer_cap)
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
