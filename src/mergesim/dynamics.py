"""Planar two-wheel (bicycle) vehicle model with fixed-step RK4 integration.

Road frame convention: ``y`` runs along the road (direction of travel),
``x`` runs across it (lane centers live on the x axis).  A heading of 0
means the vehicle points straight down the road; positive heading swings
the nose toward +x.
"""

from dataclasses import dataclass, field
import math
from math import copysign, cos, hypot, sin
from typing import NamedTuple

GRAVITY = 9.81  # m/s^2

# Below this forward speed the slip-angle model is meaningless (it divides
# by v_long), so lateral dynamics are frozen instead of evaluated.
LOW_SPEED_FLOOR = 0.1


class VehicleState(NamedTuple):
    x: float = 0.0         # lateral position (m)
    y: float = 0.0         # longitudinal position (m)
    heading: float = 0.0   # rad, 0 = straight ahead
    v_long: float = 0.0    # forward speed (m/s)
    v_lat: float = 0.0     # body-frame lateral speed (m/s)
    yaw_rate: float = 0.0  # rad/s


@dataclass(frozen=True)
class VehicleParams:
    mass: float                 # kg
    yaw_inertia: float          # kg m^2
    dist_front: float           # front axle to CG (m)
    dist_rear: float            # rear axle to CG (m)
    corner_stiff_front: float   # N/rad; negative sign keeps the plant stable
    corner_stiff_rear: float
    width: float                # m
    length: float               # m
    # The speed-free parts of lateral_matrices (tests/dynamics_reference.py),
    # derived from the fields above once, when the params are built, for
    # dynamics.step: the numerators of A, and B.
    n11: float = field(init=False, repr=False, compare=False)
    n12: float = field(init=False, repr=False, compare=False)
    n21: float = field(init=False, repr=False, compare=False)
    n22: float = field(init=False, repr=False, compare=False)
    b1: float = field(init=False, repr=False, compare=False)
    b2: float = field(init=False, repr=False, compare=False)
    # Whether every coefficient of A and B is finite at every speed above
    # LOW_SPEED_FLOOR.  Then zero lateral states under zero steer have
    # zero rates; otherwise some are not a number (see dynamics.step).
    finite_lateral: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cf = self.corner_stiff_front
        cr = self.corner_stiff_rear
        lf = self.dist_front
        lr = self.dist_rear
        for name, value in (("n11", cf + cr),
                            ("n12", -lf * cf + lr * cr),
                            ("n21", lf * cf - lr * cr),
                            ("n22", -lf * lf * cf + lr * lr * cr),
                            ("b1", cf / self.mass),
                            ("b2", lf * cf / self.yaw_inertia)):
            object.__setattr__(self, name, value)
        # n / (m v) is largest in size at the floor itself.
        mu = self.mass * LOW_SPEED_FLOOR
        iu = self.yaw_inertia * LOW_SPEED_FLOOR
        finite = mu > 0.0 and iu > 0.0 and all(map(math.isfinite, (
            self.n11 / mu, self.n12 / mu, self.n21 / iu, self.n22 / iu,
            self.b1, self.b2)))
        object.__setattr__(self, "finite_lateral", finite)


class Controls(NamedTuple):
    accel: float = 0.0  # commanded longitudinal acceleration (m/s^2)
    steer: float = 0.0  # steering angle (rad)


def step(state: VehicleState, params: VehicleParams, controls: Controls,
         dt: float) -> VehicleState:
    """One classical fourth-order fixed step of the full vehicle model.

    The four stages are written out on flat floats.  Each stage rate does
    the same float operations, in the same order, as the textbook rates
    pose_derivative and lateral_derivative in tests/dynamics_reference.py
    on the stage state, so the result is bit-identical to that form without
    building the stage states.  Raises ValueError if the new state is not
    finite.

    The stage weights are written 2.0, not 2: the product is the same
    float, and CPython 3.11 specialises float * float but not int * float.

    An exactly straight step, with heading, v_lat and yaw_rate +0.0, zero
    steer and finite_lateral params, skips the lateral stages: each of
    their rates is a signed zero, so every stage's heading, v_lat and
    yaw_rate stay +0.0, x gains +0.0, and each stage's y rate is
    hypot(uk, +0.0) * cos(+0.0), where cos(+0.0) is 1.0.
    """
    accel, steer = controls.accel, controls.steer
    if not (math.isfinite(accel) and math.isfinite(steer)):
        raise ValueError("non-finite controls")
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0.0:
        return state

    # Never drive v_long below zero.
    braking = accel < 0.0
    half = dt / 2.0
    sixth = dt / 6.0

    # Stage k evaluates the rates at its state (hk, uk, wk, rk) = (heading,
    # v_long, v_lat, yaw_rate): pxk and pyk of x and y, duk, dwk and drk of
    # v_long, v_lat and yaw_rate; the heading's rate is rk itself.  The
    # v_long stages do not depend on the others, so they come first.
    h1, u1, w1, r1 = state.heading, state.v_long, state.v_lat, state.yaw_rate
    du1 = 0.0 if braking and u1 <= 0.0 else accel
    u2 = u1 + du1 * half
    du2 = 0.0 if braking and u2 <= 0.0 else accel
    u3 = u1 + du2 * half
    du3 = 0.0 if braking and u3 <= 0.0 else accel
    u4 = u1 + du3 * dt
    du4 = 0.0 if braking and u4 <= 0.0 else accel
    v_long = u1 + sixth * (du1 + 2.0 * du2 + 2.0 * du3 + du4)

    if (steer == 0.0 and h1 == 0.0 and w1 == 0.0 and r1 == 0.0
            and params.finite_lateral
            and copysign(1.0, h1) == copysign(1.0, w1) == copysign(1.0, r1)
            == 1.0):
        x = state.x + 0.0
        y = state.y + sixth * (hypot(u1, 0.0) + 2.0 * hypot(u2, 0.0)
                               + 2.0 * hypot(u3, 0.0) + hypot(u4, 0.0))
        heading = v_lat = yaw_rate = 0.0
    else:
        m, iz = params.mass, params.yaw_inertia
        n11, n12, n21, n22 = params.n11, params.n12, params.n21, params.n22
        b1_steer = params.b1 * steer
        b2_steer = params.b2 * steer

        v = hypot(u1, w1)
        px1, py1 = v * sin(h1), v * cos(h1)
        if u1 <= LOW_SPEED_FLOOR:
            dw1 = dr1 = 0.0
        else:
            mu, iu = m * u1, iz * u1
            dw1 = n11 / mu * w1 + (n12 / mu - u1) * r1 + b1_steer
            dr1 = n21 / iu * w1 + n22 / iu * r1 + b2_steer

        h2, w2, r2 = h1 + r1 * half, w1 + dw1 * half, r1 + dr1 * half
        v = hypot(u2, w2)
        px2, py2 = v * sin(h2), v * cos(h2)
        if u2 <= LOW_SPEED_FLOOR:
            dw2 = dr2 = 0.0
        else:
            mu, iu = m * u2, iz * u2
            dw2 = n11 / mu * w2 + (n12 / mu - u2) * r2 + b1_steer
            dr2 = n21 / iu * w2 + n22 / iu * r2 + b2_steer

        h3, w3, r3 = h1 + r2 * half, w1 + dw2 * half, r1 + dr2 * half
        v = hypot(u3, w3)
        px3, py3 = v * sin(h3), v * cos(h3)
        if u3 <= LOW_SPEED_FLOOR:
            dw3 = dr3 = 0.0
        else:
            mu, iu = m * u3, iz * u3
            dw3 = n11 / mu * w3 + (n12 / mu - u3) * r3 + b1_steer
            dr3 = n21 / iu * w3 + n22 / iu * r3 + b2_steer

        h4, w4, r4 = h1 + r3 * dt, w1 + dw3 * dt, r1 + dr3 * dt
        v = hypot(u4, w4)
        px4, py4 = v * sin(h4), v * cos(h4)
        if u4 <= LOW_SPEED_FLOOR:
            dw4 = dr4 = 0.0
        else:
            mu, iu = m * u4, iz * u4
            dw4 = n11 / mu * w4 + (n12 / mu - u4) * r4 + b1_steer
            dr4 = n21 / iu * w4 + n22 / iu * r4 + b2_steer

        x = state.x + sixth * (px1 + 2.0 * px2 + 2.0 * px3 + px4)
        y = state.y + sixth * (py1 + 2.0 * py2 + 2.0 * py3 + py4)
        heading = h1 + sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        v_lat = w1 + sixth * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
        yaw_rate = r1 + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
    if v_long < 0.0:
        v_long = v_lat = yaw_rate = 0.0
    # A plant too light for dt leaves RK4's stability region and
    # overflows within a few steps; stop at the first non-finite state.
    if not math.isfinite(x + y + heading + v_long + v_lat + yaw_rate):
        raise ValueError("non-finite state")
    # A per-step record (see the note on records in world.py).
    return tuple.__new__(VehicleState,
                         (x, y, heading, v_long, v_lat, yaw_rate))
