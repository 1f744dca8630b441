"""Planar two-wheel (bicycle) vehicle model with fixed-step RK4 integration.

Road frame convention: ``y`` runs along the road (direction of travel),
``x`` runs across it (lane centers live on the x axis).  A heading of 0
means the vehicle points straight down the road; positive heading swings
the nose toward +x.
"""

from dataclasses import dataclass
import math
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

    @property
    def speed(self) -> float:
        return math.hypot(self.v_long, self.v_lat)


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
    understeer_gradient: float  # deg/g

    @property
    def wheelbase(self) -> float:
        return self.dist_front + self.dist_rear


class Controls(NamedTuple):
    accel: float = 0.0  # commanded longitudinal acceleration (m/s^2)
    steer: float = 0.0  # steering angle (rad)


def lateral_matrices(params: VehicleParams, v_long: float):
    """State matrix A and input column B of the lateral dynamics at v_long."""
    cf = params.corner_stiff_front
    cr = params.corner_stiff_rear
    lf = params.dist_front
    lr = params.dist_rear
    m = params.mass
    iz = params.yaw_inertia
    a11 = (cf + cr) / (m * v_long)
    a12 = (-lf * cf + lr * cr) / (m * v_long) - v_long
    a21 = (lf * cf - lr * cr) / (iz * v_long)
    a22 = (-lf * lf * cf + lr * lr * cr) / (iz * v_long)
    b1 = cf / m
    b2 = lf * cf / iz
    return ((a11, a12), (a21, a22)), (b1, b2)


def lateral_derivative(state: VehicleState, params: VehicleParams, steer: float):
    """Time derivatives (dv_lat, dyaw_rate) of the lateral states.

    Frozen (returns zeros) when v_long is at or below LOW_SPEED_FLOOR.
    """
    if state.v_long <= LOW_SPEED_FLOOR:
        return 0.0, 0.0
    ((a11, a12), (a21, a22)), (b1, b2) = lateral_matrices(params, state.v_long)
    dv_lat = a11 * state.v_lat + a12 * state.yaw_rate + b1 * steer
    dr = a21 * state.v_lat + a22 * state.yaw_rate + b2 * steer
    return dv_lat, dr


def pose_derivative(state: VehicleState):
    """Pose rates (dy_long, dx_lat, dheading) from speed magnitude and heading."""
    v = state.speed
    return v * math.cos(state.heading), v * math.sin(state.heading), state.yaw_rate


def step(state: VehicleState, params: VehicleParams, controls: Controls,
         dt: float) -> VehicleState:
    """One classical fourth-order fixed step of the full vehicle model.

    The stages run on flat floats.  Each stage rate does the same float
    operations, in the same order, as pose_derivative and
    lateral_derivative on the stage state, so the result is bit-identical
    to that textbook form without building the stage states.  Raises
    ValueError if the new state is not finite.
    """
    accel, steer = controls.accel, controls.steer
    if not (math.isfinite(accel) and math.isfinite(steer)):
        raise ValueError("non-finite controls")
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0.0:
        return state

    cf = params.corner_stiff_front
    cr = params.corner_stiff_rear
    lf = params.dist_front
    lr = params.dist_rear
    m = params.mass
    iz = params.yaw_inertia
    # The numerators of lateral_matrices do not depend on speed.
    n11 = cf + cr
    n12 = -lf * cf + lr * cr
    n21 = lf * cf - lr * cr
    n22 = -lf * lf * cf + lr * lr * cr
    b1_steer = cf / m * steer
    b2_steer = lf * cf / iz * steer

    def rates(heading, v_long, v_lat, yaw_rate):
        """(dx, dy, dheading, dv_long, dv_lat, dyaw_rate) of a stage state."""
        v = math.hypot(v_long, v_lat)
        if v_long <= LOW_SPEED_FLOOR:
            dv_lat = dr = 0.0
        else:
            mu = m * v_long
            iu = iz * v_long
            dv_lat = n11 / mu * v_lat + (n12 / mu - v_long) * yaw_rate + b1_steer
            dr = n21 / iu * v_lat + n22 / iu * yaw_rate + b2_steer
        # Never drive v_long below zero.
        dv_long = 0.0 if v_long <= 0.0 and accel < 0.0 else accel
        return (v * math.sin(heading), v * math.cos(heading), yaw_rate,
                dv_long, dv_lat, dr)

    heading, v_long = state.heading, state.v_long
    v_lat, yaw_rate = state.v_lat, state.yaw_rate
    half = dt / 2.0
    k1 = rates(heading, v_long, v_lat, yaw_rate)
    k2 = rates(heading + k1[2] * half, v_long + k1[3] * half,
               v_lat + k1[4] * half, yaw_rate + k1[5] * half)
    k3 = rates(heading + k2[2] * half, v_long + k2[3] * half,
               v_lat + k2[4] * half, yaw_rate + k2[5] * half)
    k4 = rates(heading + k3[2] * dt, v_long + k3[3] * dt,
               v_lat + k3[4] * dt, yaw_rate + k3[5] * dt)
    sixth = dt / 6.0
    x = state.x + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    y = state.y + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    heading += sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    v_long += sixth * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    if v_long < 0.0:
        v_long = v_lat = yaw_rate = 0.0
    else:
        v_lat += sixth * (k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4])
        yaw_rate += sixth * (k1[5] + 2 * k2[5] + 2 * k3[5] + k4[5])
    # A plant too light for dt leaves RK4's stability region and
    # overflows within a few steps; stop at the first non-finite state.
    if not math.isfinite(x + y + heading + v_long + v_lat + yaw_rate):
        raise ValueError("non-finite state")
    return VehicleState(x, y, heading, v_long, v_lat, yaw_rate)
