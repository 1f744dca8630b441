"""Run configuration: every tunable constant in one flat, serializable record.

RunConfig is the only calibration table: the driver profiles, with their
controller gains and bounds, and the vehicle parameters of a run are all
derived from its fields.
Each field declares its valid range next to its default; check() is the
one checker of config, scenario and command-line values.
"""

from dataclasses import dataclass, field, asdict, fields
import json
import math
import os

from .dynamics import GRAVITY, VehicleParams
from .driver import DriverProfile

Q_RANGE = "[0, 1]"  # an aggressiveness index


def ranged(default, interval: str):
    """A dataclass field valid in `interval`: "[lo, hi]", "(" or ")" for an
    open end."""
    return field(default=default, metadata={"range": interval})


# Each range follows from what the value is: masses, lengths and times are
# positive or at least 0, shares lie in [0, 1], accelerations in g are at
# most the 1 g of tyre-road friction.  dt spans the steps at which
# test_acceptance.py shows fourth-order RK4; with t_max and epoch at most
# 600 s a run is at most 240k steps.
@dataclass
class RunConfig:
    # run controls
    scenario: str = "scenario1"          # built-in name or path to a scenario file
    q_overrides: dict = field(default_factory=dict)  # vehicle id -> q
    dt: float = ranged(0.01, "[0.0025, 0.04]")  # s, physics step
    epoch: float = ranged(0.1, "(0, 600]")  # s, decision period (multiple of dt)
    t_max: float = ranged(40.0, "(0, 600]")  # s, run length (multiple of dt)
    seed: int = 0
    noise: bool = False                  # perception noise toggle
    noise_sigma: float = ranged(0.5, "[0, inf)")  # m, gap noise scale at q=0
    out_dir: str = "."
    jobs: int = ranged(1, f"[1, {os.cpu_count() or 1}]")  # sweep parallelism

    # disposition maps (value at q=0, value at q=1)
    visibility_range: float = ranged(100.0, "(0, inf)")
    visibility_scale_cautious: float = ranged(1.0, "(0, 1]")
    visibility_scale_aggressive: float = ranged(0.3, "(0, 1]")
    prediction_time_cautious: float = ranged(1.7, "[0, inf)")
    prediction_time_aggressive: float = ranged(0.8, "[0, inf)")
    accel_limit_g_cautious: float = ranged(0.1, "(0, 1]")
    accel_limit_g_aggressive: float = ranged(0.3, "(0, 1]")
    lat_accel_g_cautious: float = ranged(0.1, "(0, 1]")
    lat_accel_g_aggressive: float = ranged(0.5, "(0, 1]")
    bound_scale_max: float = ranged(1.3, "[1, inf)")
    clearance_diagonals: float = ranged(2.0, "[0, inf)")
    follow_headway_cautious: float = ranged(0.45, "[0, inf)")
    follow_headway_aggressive: float = ranged(0.25, "[0, inf)")

    # controller gains and physical bounds
    kp_long: float = ranged(0.3, "[0, inf)")
    kd_long: float = ranged(0.6, "[0, inf)")
    kp_lat: float = ranged(0.25, "[0, inf)")
    kd_lat: float = ranged(0.15, "[0, inf)")
    accel_cap_g: float = ranged(0.5, "(0, 1]")
    steer_cap_deg: float = ranged(30.0, "(0, 90)")
    brake_factor: float = ranged(1.0, "(0, inf)")
    speed_weight: float = ranged(0.5, "[0, 1]")  # weighted-mean share of the speed channel

    # decision layer
    nominal_accel_g: float = ranged(0.15, "(0, 1]")  # directive acceleration magnitude
    prediction_horizon: float = ranged(5.0, "[0, inf)")  # s, look-ahead for the directive games
    directive_switch_margin: float = ranged(3.0, "[0, inf)")  # m, advantage needed to flip a directive
    risk_tolerance_max: float = ranged(12.0, "[0, inf)")  # m, admissible squeeze at q=1 (0 at q=0)
    hysteresis_base: float = ranged(16.8, "[0, inf)")  # m, discretionary-change margin at q=0
    hysteresis_curve: float = ranged(17.0, "[0, inf)")  # m, cubic margin reduction with q
    lane_settle_tol: float = ranged(0.2, "(0, inf)")  # m, |lateral error| ending a maneuver
    settle_speed_tol: float = ranged(0.3, "[0, inf)")  # m/s, speed tolerance for quiescence
    settle_time: float = ranged(2.0, "[0, inf)")  # s of quiescence before early termination
    yield_zone_margin: float = ranged(30.0, "[0, inf)")  # m of ramp before the entrance that triggers yielding
    yield_lookback: float = ranged(5.0, "[0, inf)")  # m, how far behind ego a ramp threat may sit
    stop_speed: float = ranged(1.0, "[0, inf)")  # m/s, below this an unmerged vehicle is stopped
    evade_near: float = ranged(12.0, "[0, inf)")  # m, |dy| below which a sinking ramp vehicle alarms
    evade_decel_threshold: float = ranged(0.3, "[0, inf)")  # m/s^2, observed braking that marks a sinking threat
    slot_ride_cautious: float = ranged(0.3, "[0, 1]")  # share of free slot kept ahead at q=0
    slot_ride_aggressive: float = ranged(0.85, "[0, 1]")  # share kept ahead at q=1 (small rear gap)
    directive_accel_gain: float = ranged(0.5, "[0, inf)")  # throttle hypothesis scales with (gain + q)

    # vehicle body/plant defaults
    mass: float = ranged(1500.0, "(0, inf)")
    yaw_inertia: float = ranged(2500.0, "(0, inf)")
    dist_front: float = ranged(1.2, "(0, inf)")
    dist_rear: float = ranged(1.6, "(0, inf)")
    corner_stiff: float = ranged(-60000.0, "(-inf, 0)")  # negative keeps the plant stable
    body_width: float = ranged(1.8, "(0, inf)")
    body_length: float = ranged(4.5, "(0, inf)")
    understeer_gradient: float = ranged(2.0, "[0, 90)")  # deg/g; 1 g must not take a 90 deg steer

    def validate(self) -> "RunConfig":
        for f in fields(self):
            check_field(RunConfig, f.name, getattr(self, f.name))
        for vid, q in self.q_overrides.items():
            check(f"q_overrides[{vid!r}]", q, float, Q_RANGE)
        for name in ("epoch", "t_max"):
            value = getattr(self, name)
            ratio = value / self.dt
            if not (abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1):
                raise ConfigError(f"{name}: must be a whole multiple of dt "
                                  f"({self.dt!r}), got {value!r}")
        wheelbase = self.dist_front + self.dist_rear
        if not wheelbase < self.body_length:
            raise ConfigError(f"dist_front + dist_rear: must be below "
                              f"body_length ({self.body_length!r}), got {wheelbase!r}")
        return self

    # Derived bundles ----------------------------------------------------

    def vehicle_params(self) -> VehicleParams:
        return VehicleParams(
            mass=self.mass, yaw_inertia=self.yaw_inertia,
            dist_front=self.dist_front, dist_rear=self.dist_rear,
            corner_stiff_front=self.corner_stiff, corner_stiff_rear=self.corner_stiff,
            width=self.body_width, length=self.body_length)

    def profile(self, q: float) -> DriverProfile:
        """Expand the aggressiveness index into a full behavioral profile.

        Every map runs linearly from its cautious value at q=0 to its
        aggressive value at q=1, except the decision constants noted below.
        Acceleration is limited by the driver's comfort bound and the
        vehicle's physical bound; comfortable deceleration is clamped at
        brake_factor times the comfort bound, and emergency braking may use
        the whole physical bound.
        """
        check("q", q, float, Q_RANGE)

        def lerp(cautious: float, aggressive: float) -> float:
            return cautious + (aggressive - cautious) * q

        accel_limit = lerp(self.accel_limit_g_cautious,
                           self.accel_limit_g_aggressive) * GRAVITY
        clearance = (self.clearance_diagonals
                     * math.hypot(self.body_length, self.body_width))
        # Hinged: only drivers beyond the nominal disposition accept any
        # squeeze below the sufficient lane-change clearance.
        risk_tolerance = self.risk_tolerance_max * max(0.0, 2.0 * q - 1.0)
        directive_accel = self.nominal_accel_g * GRAVITY
        accel_cap = self.accel_cap_g * GRAVITY
        return DriverProfile(
            visibility_scale=lerp(self.visibility_scale_cautious,
                                  self.visibility_scale_aggressive),
            prediction_time=lerp(self.prediction_time_cautious,
                                 self.prediction_time_aggressive),
            bound_scale=1.0 + (self.bound_scale_max - 1.0) * q,
            visibility_range=self.visibility_range,
            lane_change_clearance=clearance,
            follow_headway=lerp(self.follow_headway_cautious,
                                self.follow_headway_aggressive),
            risk_tolerance=risk_tolerance,
            # Cubic: the change margin collapses only toward the aggressive
            # end.
            hysteresis=max(0.0, self.hysteresis_base
                           - self.hysteresis_curve * q ** 3),
            # Aggressive drivers push harder on an accelerate directive and
            # brake less on a decelerate one.
            nominal_accel=min(
                directive_accel * (self.directive_accel_gain + q),
                accel_limit),
            nominal_decel=min(
                directive_accel * (1.0 + self.directive_accel_gain - q),
                accel_limit),
            # Quadratic: only genuinely aggressive drivers crowd the vehicle
            # they cut ahead of, and never so far that the slot stops being
            # enterable for them.
            slot_ride=(self.slot_ride_cautious
                       + (self.slot_ride_aggressive
                          - self.slot_ride_cautious) * q * q),
            slot_rear_min=max(1.0, clearance - 0.8 * risk_tolerance),
            kp_long=self.kp_long, kd_long=self.kd_long,
            kp_lat=self.kp_lat, kd_lat=self.kd_lat,
            steer_cap=math.radians(self.steer_cap_deg),
            accel_hi=min(accel_limit, accel_cap),
            brake_lo=-min(accel_limit * self.brake_factor, accel_cap),
            guard_lo=-accel_cap,
            steer_scale=57.3 * (self.dist_front + self.dist_rear) * GRAVITY,
            # The limit in m/s^2, rounded as such, then in g.
            lat_accel_g=lerp(self.lat_accel_g_cautious,
                             self.lat_accel_g_aggressive) * GRAVITY / GRAVITY,
            understeer_gradient=self.understeer_gradient,
            speed_weight=self.speed_weight)

    # Serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        check_keys("config", data, cls.__dataclass_fields__)
        return cls(**data).validate()


class ConfigError(ValueError):
    """Invalid run configuration or scenario definition."""


_KINDS = {float: "a number", int: "an integer", bool: "true or false",
          str: "a string", dict: "an object", list: "a list"}
_WORDS = {"(0, inf)": "positive", "(-inf, 0)": "negative",
          "[0, inf)": "at least 0"}


def check(path: str, value, kind=float, interval: str = None):
    """`value` if it is a `kind` inside `interval` (see ranged), else a
    ConfigError "<path>: must be ..., got <value>".  Booleans and numeric
    strings are not numbers; numbers must be finite and come back as floats."""
    if (isinstance(value, bool) and kind is not bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ConfigError(f"{path}: must be {_KINDS[kind]}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an int too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite, got {value!r}")
    if interval is not None:
        lo, hi = (float(bound) for bound in interval[1:-1].split(","))
        if not ((lo < value if interval[0] == "(" else lo <= value)
                and (value < hi if interval[-1] == ")" else value <= hi)):
            what = _WORDS.get(interval, "in " + interval)
            raise ConfigError(f"{path}: must be {what}, got {value!r}")
    return value


def check_id(path: str, value) -> str:
    """`value` if it is a vehicle id, else a ConfigError naming `path`.  An
    id is a non-empty string, printable and with no comma: trajectory files
    hold ids unquoted and are split at commas and line breaks, none of them
    printable, and an SVG label holds no C0 control."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: missing or empty")
    if "," in value or not value.isprintable():
        raise ConfigError(f"{path}: must be printable and hold no comma, "
                          f"got {value!r}")
    return value


def check_keys(path: str, data: dict, known) -> None:
    """A ConfigError "<path>: unknown keys [...]" for keys not in `known`."""
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown, key=str)}")


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in file `path`, or a ConfigError "<what> <path>: ..."."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 JSON text
        raise ConfigError(f"{what} {path}: cannot read ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path}: top level must be an object")
    return data


def check_field(cls, name: str, value, path: str = None):
    """check() against the type and range of dataclass field `name`."""
    f = cls.__dataclass_fields__[name]
    return check(path or name, value, f.type, f.metadata.get("range"))


def parse_text(text: str, kind):
    """Command-line text as a `kind` value, or unchanged when it does not
    parse, for check() to reject.  A bool takes only true or false."""
    if kind is bool:
        return {"true": True, "false": False}.get(text, text)
    try:
        return kind(text) if kind in (int, float) else text
    except ValueError:
        return text
