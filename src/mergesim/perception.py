"""Vicinity recognition and rectangle-based collision possibility.

Vehicles are oriented rectangles in the road plane, each held as a flat
pose (see pose).  Collision possibility between two rectangles is scored
from the projection gaps along the four separating-axis candidates: 1 on
overlap, decaying exponentially toward 0 with separation.
"""

import math
from typing import NamedTuple


def pose(cx: float, cy: float, heading: float, half_width: float,
         half_length: float):
    """The flat pose (cx, cy, sin, cos, half_width, half_length) of the
    rectangle centred at (cx lateral, cy longitudinal) with that heading
    (rad, 0 = pointing down the road, +y)."""
    return (cx, cy, math.sin(heading), math.cos(heading), half_width,
            half_length)


def pose_gaps(a, b):
    """Projection gaps of two poses along all four separating axes.

    A pose holds its heading's sine and cosine (see pose), so callers
    take them once.  Returns the gaps along a's length and width axes,
    then along b's: each is zero when the two rectangles' projections
    onto that axis overlap, else the distance between them.
    """
    ax, ay, sa, ca, hwa, hla = a
    bx, by, sb, cb, hwb, hlb = b
    dx, dy = bx - ax, by - ay
    # |cos| and |sin| of the relative heading: the projections of one
    # rectangle's axes onto the other's.
    dot = abs(sb * sa + cb * ca)
    cross = abs(cb * sa - sb * ca)
    g0 = abs(dx * sa + dy * ca) - hla - (hlb * dot + hwb * cross)
    g1 = abs(dx * ca - dy * sa) - hwa - (hlb * cross + hwb * dot)
    g2 = abs(dx * sb + dy * cb) - hlb - (hla * dot + hwa * cross)
    g3 = abs(dx * cb - dy * sb) - hwb - (hla * cross + hwa * dot)
    return (g0 if g0 > 0.0 else 0.0, g1 if g1 > 0.0 else 0.0,
            g2 if g2 > 0.0 else 0.0, g3 if g3 > 0.0 else 0.0)


def index_from_separations(gap_a: float, gap_b: float) -> float:
    """Collision possibility from the two per-rectangle aggregate gaps."""
    return math.exp(-math.sqrt((gap_a * gap_a + gap_b * gap_b) / 2.0))


def collision_index(a, b) -> float:
    """Collision possibility in [0, 1] of two poses: 1 iff they overlap."""
    ga0, ga1, gb0, gb1 = pose_gaps(a, b)
    return index_from_separations(math.hypot(ga0, ga1), math.hypot(gb0, gb1))


def rects_intersect(a, b) -> bool:
    """True geometric overlap of two poses (separating-axis test on all
    four axes)."""
    return pose_gaps(a, b) == (0.0, 0.0, 0.0, 0.0)


class VehicleView(NamedTuple):
    """Immutable per-vehicle record of a world snapshot."""
    vehicle_id: str
    x: float
    y: float
    v: float
    heading: float
    length: float
    width: float
    lane: int

    def pose(self):
        return pose(self.x, self.y, self.heading, self.width / 2.0,
                    self.length / 2.0)


def bumper_gap(a: VehicleView, b: VehicleView) -> float:
    gap = abs(a.y - b.y) - (a.length + b.length) / 2.0
    return gap if gap > 0.0 else 0.0


def lateral_reach(view: VehicleView, scale: float = 1.0) -> float:
    """Half-extent of the (optionally magnified) rectangle across the road."""
    return (scale * view.width / 2.0 * abs(math.cos(view.heading))
            + scale * view.length / 2.0 * abs(math.sin(view.heading)))


class PerceptionNoise:
    """Seeded recognition errors of one observer; sigma shrinks with the
    observer's aggressiveness."""

    def __init__(self, rng, sigma0: float, observer_q: float):
        self.rng = rng
        self.sigma = sigma0 * (1.0 - 0.5 * observer_q)

    def observe(self, ego_id: str, views):
        """views as this observer sees them: every other vehicle's
        longitudinal position is perturbed, one draw per vehicle in order."""
        return [v if v.vehicle_id == ego_id
                else v._replace(y=v.y + self.rng.gauss(0.0, self.sigma))
                for v in views]


def classify_vicinity(ego_id: str, views, geometry, *, visibility: float,
                      observer_scale: float = 1.0):
    """Partition surrounding vehicles into per-lane leader/follower slots:
    one (leader, follower) pair per lane, in lane order, each side the
    (bumper gap, index in views) of that vehicle or None.

    A vehicle registers in its own lane and, when observer_scale > 1, in
    any lane its magnified rectangle laterally overlaps (boundary
    recognition of straddling vehicles).  The nearest qualifying vehicle
    ahead/behind per lane wins the slot, the first of equal gaps in view
    order; anything farther than the visibility range is ignored.
    """
    ego = next(v for v in views if v.vehicle_id == ego_id)
    centers = geometry.centers
    half_band = geometry.lane_width / 2.0
    magnified = observer_scale > 1.0
    # Per lane, the (gap, index) of the nearest vehicle ahead and behind.
    ahead = [None] * len(centers)
    behind = [None] * len(centers)
    for k, other in enumerate(views):
        if other.vehicle_id == ego_id:
            continue
        gap = bumper_gap(ego, other)
        if gap > visibility:
            continue
        best = ahead if other.y > ego.y else behind
        hit = best[other.lane]
        if hit is None or gap < hit[0]:
            best[other.lane] = (gap, k)
        if magnified or abs(other.heading) > 1e-9:
            # A lane met twice keeps its first entry: the gap is the same.
            band = half_band + lateral_reach(other, observer_scale)
            for lane, center in enumerate(centers):
                if abs(other.x - center) <= band:
                    hit = best[lane]
                    if hit is None or gap < hit[0]:
                        best[lane] = (gap, k)
    return list(zip(ahead, behind))
