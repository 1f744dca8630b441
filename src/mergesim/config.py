"""Run configuration: every tunable constant in one flat, serializable record.

RunConfig is the only calibration table: the driver profiles, controller
gains and vehicle parameters of a run are all derived from its fields.
"""

from dataclasses import dataclass, field, asdict, fields
import math
from typing import Dict

from .dynamics import GRAVITY, VehicleParams
from .driver import ControllerGains, DriverProfile


@dataclass
class RunConfig:
    # run controls
    scenario: str = "scenario1"          # built-in name or path to a scenario file
    q_overrides: Dict[str, float] = field(default_factory=dict)  # vehicle id -> q
    dt: float = 0.01                     # s, physics step
    epoch: float = 0.1                   # s, decision period (multiple of dt)
    t_max: float = 40.0                  # s
    seed: int = 0
    noise: bool = False                  # perception noise toggle
    noise_sigma: float = 0.5             # m, gap noise scale at q=0
    out_dir: str = "."
    jobs: int = 1                        # sweep parallelism

    # disposition maps (value at q=0, value at q=1)
    visibility_range: float = 100.0
    visibility_scale_cautious: float = 1.0
    visibility_scale_aggressive: float = 0.3
    prediction_time_cautious: float = 1.7
    prediction_time_aggressive: float = 0.8
    accel_limit_g_cautious: float = 0.1
    accel_limit_g_aggressive: float = 0.3
    lat_accel_g_cautious: float = 0.1
    lat_accel_g_aggressive: float = 0.5
    bound_scale_max: float = 1.3
    clearance_diagonals: float = 2.0
    follow_headway_cautious: float = 0.45
    follow_headway_aggressive: float = 0.25

    # controller gains and physical bounds
    kp_long: float = 0.3
    kd_long: float = 0.6
    kp_lat: float = 0.25
    kd_lat: float = 0.15
    accel_cap_g: float = 0.5
    steer_cap_deg: float = 30.0
    brake_factor: float = 1.0
    speed_weight: float = 0.5            # weighted-mean share of the speed channel

    # decision layer
    nominal_accel_g: float = 0.15        # directive acceleration magnitude
    prediction_horizon: float = 5.0      # s, look-ahead for the directive games
    directive_switch_margin: float = 3.0  # m, advantage needed to flip a directive
    risk_tolerance_max: float = 12.0     # m, admissible squeeze at q=1 (0 at q=0)
    hysteresis_base: float = 16.8        # m, discretionary-change margin at q=0
    hysteresis_curve: float = 17.0       # m, quadratic margin reduction with q
    lane_settle_tol: float = 0.2         # m, |lateral error| ending a maneuver
    settle_speed_tol: float = 0.3        # m/s, speed tolerance for quiescence
    settle_time: float = 2.0             # s of quiescence before early termination
    yield_zone_margin: float = 30.0      # m of ramp before the entrance that triggers yielding
    yield_lookback: float = 5.0          # m, how far behind ego a ramp threat may sit
    stop_speed: float = 1.0              # m/s, below this an unmerged vehicle is stopped
    evade_near: float = 12.0             # m, |dy| below which a sinking ramp vehicle alarms
    evade_decel_threshold: float = 0.3   # m/s^2, observed braking that marks a sinking threat
    slot_ride_cautious: float = 0.3      # share of free slot kept ahead at q=0
    slot_ride_aggressive: float = 0.85   # share kept ahead at q=1 (small rear gap)
    directive_accel_gain: float = 0.5    # throttle hypothesis scales with (gain + q)

    # vehicle body/plant defaults
    mass: float = 1500.0
    yaw_inertia: float = 2500.0
    dist_front: float = 1.2
    dist_rear: float = 1.6
    corner_stiff: float = -60000.0
    body_width: float = 1.8
    body_length: float = 4.5
    understeer_gradient: float = 2.0

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not _is_finite_number(value):
                raise ConfigError(
                    f"{f.name} must be a finite number, got {value!r}")
            if f.type is int and not (isinstance(value, int)
                                      and not isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        ratio = self.epoch / self.dt
        if not (self.epoch > 0 and abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1):
            raise ConfigError("epoch must be a positive multiple of dt")
        if not self.t_max > 0:
            raise ConfigError("t_max must be positive")
        if not isinstance(self.q_overrides, dict):
            raise ConfigError("q_overrides must be an object of id -> q")
        for vid, q in self.q_overrides.items():
            if not (is_number(q) and 0.0 <= q <= 1.0):
                raise ConfigError(
                    f"q_overrides[{vid!r}] must be a number in [0, 1], got {q!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        return self

    # Derived bundles ----------------------------------------------------

    def vehicle_params(self) -> VehicleParams:
        return VehicleParams(
            mass=self.mass, yaw_inertia=self.yaw_inertia,
            dist_front=self.dist_front, dist_rear=self.dist_rear,
            corner_stiff_front=self.corner_stiff, corner_stiff_rear=self.corner_stiff,
            width=self.body_width, length=self.body_length,
            understeer_gradient=self.understeer_gradient)

    def gains(self) -> ControllerGains:
        return ControllerGains(
            kp_long=self.kp_long, kd_long=self.kd_long,
            kp_lat=self.kp_lat, kd_lat=self.kd_lat,
            accel_cap=self.accel_cap_g * GRAVITY,
            steer_cap=math.radians(self.steer_cap_deg),
            brake_factor=self.brake_factor)

    def profile(self, q: float) -> DriverProfile:
        """Expand the aggressiveness index into a full behavioral profile.

        Every map runs linearly from its cautious value at q=0 to its
        aggressive value at q=1.
        """
        if not (is_number(q) and math.isfinite(q) and 0.0 <= q <= 1.0):
            raise ConfigError(f"aggressiveness must be in [0, 1], got {q!r}")

        def lerp(cautious: float, aggressive: float) -> float:
            return cautious + (aggressive - cautious) * q

        return DriverProfile(
            aggressiveness=q,
            visibility_scale=lerp(self.visibility_scale_cautious,
                                  self.visibility_scale_aggressive),
            prediction_time=lerp(self.prediction_time_cautious,
                                 self.prediction_time_aggressive),
            accel_limit=lerp(self.accel_limit_g_cautious,
                             self.accel_limit_g_aggressive) * GRAVITY,
            lat_accel_limit=lerp(self.lat_accel_g_cautious,
                                 self.lat_accel_g_aggressive) * GRAVITY,
            bound_scale=1.0 + (self.bound_scale_max - 1.0) * q,
            visibility_range=self.visibility_range,
            lane_change_clearance=(self.clearance_diagonals
                                   * math.hypot(self.body_length,
                                                self.body_width)),
            follow_headway=lerp(self.follow_headway_cautious,
                                self.follow_headway_aggressive))

    def nominal_accel(self, profile) -> float:
        """Throttle authority of a directive: grows with aggressiveness."""
        scale = self.directive_accel_gain + profile.aggressiveness
        return min(self.nominal_accel_g * GRAVITY * scale, profile.accel_limit)

    def nominal_decel(self, profile) -> float:
        """Brake authority of a directive: shrinks with aggressiveness."""
        scale = 1.0 + self.directive_accel_gain - profile.aggressiveness
        return min(self.nominal_accel_g * GRAVITY * scale, profile.accel_limit)

    def slot_ride_fraction(self, q: float) -> float:
        # Quadratic: only genuinely aggressive drivers crowd the vehicle
        # they cut ahead of.
        return (self.slot_ride_cautious
                + (self.slot_ride_aggressive - self.slot_ride_cautious) * q * q)

    def risk_tolerance(self, q: float) -> float:
        # Hinged: only drivers beyond the nominal disposition accept any
        # squeeze below the sufficient lane-change clearance.
        return self.risk_tolerance_max * max(0.0, 2.0 * q - 1.0)

    def hysteresis(self, q: float) -> float:
        # Cubic: the change margin collapses only toward the aggressive end.
        return max(0.0, self.hysteresis_base - self.hysteresis_curve * q ** 3)

    # Serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data).validate()


def is_number(value) -> bool:
    """True for int and float values; booleans are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


class ConfigError(ValueError):
    """Invalid run configuration or scenario definition."""
