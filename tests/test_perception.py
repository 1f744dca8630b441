import math
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from mergesim.perception import (PerceptionNoise, VehicleView, bumper_gap,
                                 classify_vicinity, collision_index,
                                 index_from_separations, pose, pose_gaps,
                                 rects_intersect)
from mergesim.road import LaneGeometry

from test_driver import EDGE_FLOATS

GEOMETRY = LaneGeometry()


# --- independent oracles -----------------------------------------------------


class Rect(NamedTuple):
    """A rectangle by its heading, as the oracles read it; pose() is what
    the kernels take."""
    cx: float
    cy: float
    heading: float      # rad, 0 = pointing down the road (+y)
    half_width: float
    half_length: float

    def pose(self):
        return pose(*self)


def axes(rect):
    """Unit length-axis and width-axis as (x, y) vectors."""
    s, c = math.sin(rect.heading), math.cos(rect.heading)
    return (s, c), (c, -s)


def corners(rect):
    (fx, fy), (lx, ly) = axes(rect)
    hl, hw = rect.half_length, rect.half_width
    return [
        (rect.cx + fx * hl + lx * hw, rect.cy + fy * hl + ly * hw),
        (rect.cx + fx * hl - lx * hw, rect.cy + fy * hl - ly * hw),
        (rect.cx - fx * hl + lx * hw, rect.cy - fy * hl + ly * hw),
        (rect.cx - fx * hl - lx * hw, rect.cy - fy * hl - ly * hw),
    ]


def _extent_along(rect, axis):
    """Half-extent of the rectangle's projection onto a unit axis."""
    (fx, fy), (lx, ly) = axes(rect)
    ax, ay = axis
    return (rect.half_length * abs(fx * ax + fy * ay)
            + rect.half_width * abs(lx * ax + ly * ay))


def projection_gap(rect_a, rect_b, axis_index):
    """Readable reference for one gap of pose_gaps: the separation of the
    two projected intervals along one of rect_a's axes.

    Zero when the projections overlap, otherwise the positive distance
    between the intervals.  axis_index 0 selects rect_a's length axis,
    1 its width axis.
    """
    axis = axes(rect_a)[axis_index]
    extent_a = rect_a.half_length if axis_index == 0 else rect_a.half_width
    extent_b = _extent_along(rect_b, axis)
    centers = abs((rect_b.cx - rect_a.cx) * axis[0]
                  + (rect_b.cy - rect_a.cy) * axis[1])
    return max(0.0, centers - extent_a - extent_b)


def rect_gap_norm(rect_a, rect_b):
    """Euclidean norm of the two projection gaps measured on rect_a's axes."""
    gaps = pose_gaps(rect_a.pose(), rect_b.pose())
    return math.hypot(gaps[0], gaps[1])


def corner_projection_gap(rect_a, rect_b, axis_index):
    """Oracle: project all four corners of both rectangles, measure the
    separation of the two intervals."""
    axis = axes(rect_a)[axis_index]
    proj_a = [c[0] * axis[0] + c[1] * axis[1] for c in corners(rect_a)]
    proj_b = [c[0] * axis[0] + c[1] * axis[1] for c in corners(rect_b)]
    lo_a, hi_a = min(proj_a), max(proj_a)
    lo_b, hi_b = min(proj_b), max(proj_b)
    return max(0.0, lo_b - hi_a, lo_a - hi_b)


def _segments(rect):
    c = corners(rect)
    order = [c[0], c[1], c[3], c[2]]  # walk the perimeter
    return list(zip(order, order[1:] + order[:1]))


def _segments_cross(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0) or abs(d1) < 1e-12 or abs(d2) < 1e-12) and \
           ((d3 > 0) != (d4 > 0) or abs(d3) < 1e-12 or abs(d4) < 1e-12)


def _point_inside(point, rect):
    (fx, fy), (lx, ly) = axes(rect)
    dx, dy = point[0] - rect.cx, point[1] - rect.cy
    return (abs(dx * fx + dy * fy) <= rect.half_length + 1e-12
            and abs(dx * lx + dy * ly) <= rect.half_width + 1e-12)


def polygons_intersect(rect_a, rect_b):
    """Oracle: convex quadrilaterals intersect iff an edge pair crosses or
    one contains a corner of the other."""
    for s1 in _segments(rect_a):
        for s2 in _segments(rect_b):
            if _segments_cross(s1[0], s1[1], s2[0], s2[1]):
                return True
    return (_point_inside(corners(rect_a)[0], rect_b)
            or _point_inside(corners(rect_b)[0], rect_a))


def random_rect(rng, span=10.0):
    return Rect(cx=rng.uniform(-span, span), cy=rng.uniform(-span, span),
                heading=rng.uniform(0, 2 * math.pi),
                half_width=rng.uniform(0.2, 3.0),
                half_length=rng.uniform(0.2, 3.0))


# --- projection gaps and the collision index ---------------------------------


def test_unit_squares_gap():
    a = Rect(0.0, 0.0, 0.0, 0.5, 0.5)
    b = Rect(3.0, 0.0, 0.0, 0.5, 0.5)
    # axis 1 is the width axis = across the road = the x direction here
    assert projection_gap(a, b, 1) == pytest.approx(2.0)
    assert projection_gap(a, b, 0) == pytest.approx(0.0)


def test_overlap_gives_zero_on_all_axes():
    a = Rect(0.0, 0.0, 0.4, 1.0, 2.0)
    b = Rect(0.5, 0.5, 1.2, 1.0, 2.0)
    for axis in (0, 1):
        assert projection_gap(a, b, axis) == 0.0
        assert projection_gap(b, a, axis) == 0.0
    assert collision_index(a.pose(), b.pose()) == 1.0


def test_projection_gap_matches_corner_oracle():
    rng = random.Random(11)
    for _ in range(1000):
        a, b = random_rect(rng), random_rect(rng)
        for axis in (0, 1):
            assert projection_gap(a, b, axis) == pytest.approx(
                corner_projection_gap(a, b, axis), abs=1e-12)


def test_collision_index_spot_values():
    assert index_from_separations(3.0, 4.0) == pytest.approx(
        math.exp(-math.sqrt(12.5)), abs=1e-12)
    assert index_from_separations(3.0, 4.0) == pytest.approx(0.0292, abs=1e-4)
    a = Rect(0.0, 0.0, 0.0, 0.5, 0.5)
    b = Rect(3.0, 0.0, 0.0, 0.5, 0.5)
    # both rectangles see gaps (2, 0): index exp(-2)
    assert collision_index(a.pose(), b.pose()) == pytest.approx(
        math.exp(-2.0), abs=1e-12)


def test_collision_index_limits():
    a = Rect(0.0, 0.0, 0.0, 1.0, 2.0)
    far = Rect(500.0, 500.0, 1.0, 1.0, 2.0)
    assert collision_index(a.pose(), far.pose()) < 1e-6
    assert collision_index(a.pose(), a.pose()) == 1.0


def test_index_one_iff_geometric_intersection():
    rng = random.Random(99)
    agree = 0
    for _ in range(10_000):
        a, b = random_rect(rng, span=6.0), random_rect(rng, span=6.0)
        touches = collision_index(a.pose(), b.pose()) == 1.0
        assert touches == rects_intersect(a.pose(), b.pose())
        assert touches == polygons_intersect(a, b)
        agree += 1
    assert agree == 10_000


_coord = st.floats(-12.0, 12.0, allow_nan=False)
_half = st.floats(0.05, 5.0, allow_nan=False)
_rects = st.builds(Rect, cx=_coord, cy=_coord,
                   heading=st.floats(-math.pi, math.pi, allow_nan=False),
                   half_width=_half, half_length=_half)


@settings(max_examples=2000, deadline=None)
@given(_rects, _rects)
def test_pose_kernel_is_bit_identical_to_projection_gap(a, b):
    """pose_gaps and everything built on it equal the readable reference
    exactly, not approximately: i_col and collision verdicts must not move
    by one bit."""
    gaps = tuple(projection_gap(p, o, k) for p, o in ((a, b), (b, a))
                 for k in (0, 1))
    assert pose_gaps(a.pose(), b.pose()) == gaps
    norm_ab = math.hypot(gaps[0], gaps[1])
    assert rect_gap_norm(a, b) == norm_ab
    assert collision_index(a.pose(), b.pose()) == index_from_separations(
        norm_ab, math.hypot(gaps[2], gaps[3]))
    assert rects_intersect(a.pose(), b.pose()) == all(g == 0.0 for g in gaps)


def max_pose_gaps(a, b):
    """pose_gaps as written with builtin max."""
    ax, ay, sa, ca, hwa, hla = a
    bx, by, sb, cb, hwb, hlb = b
    dx, dy = bx - ax, by - ay
    dot = abs(sb * sa + cb * ca)
    cross = abs(cb * sa - sb * ca)
    return (max(0.0, abs(dx * sa + dy * ca) - hla - (hlb * dot + hwb * cross)),
            max(0.0, abs(dx * ca - dy * sa) - hwa - (hlb * cross + hwb * dot)),
            max(0.0, abs(dx * sb + dy * cb) - hlb - (hla * dot + hwa * cross)),
            max(0.0, abs(dx * cb - dy * sb) - hwb - (hla * cross + hwa * dot)))


_edge_poses = st.tuples(*[EDGE_FLOATS] * 6)


@settings(max_examples=500)
@given(_edge_poses, _edge_poses)
def test_pose_gaps_clamp_is_the_max_formula(a, b):
    assert [g.hex() for g in pose_gaps(a, b)] == \
        [g.hex() for g in max_pose_gaps(a, b)]


@given(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS)
def test_bumper_gap_clamp_is_the_max_formula(ya, yb, la, lb):
    a = VehicleView("a", 0.0, ya, 20.0, 0.0, la, 1.8, 0)
    b = VehicleView("b", 0.0, yb, 20.0, 0.0, lb, 1.8, 0)
    want = max(0.0, abs(ya - yb) - (la + lb) / 2.0)
    assert bumper_gap(a, b).hex() == want.hex()


def test_rigid_motion_invariance():
    rng = random.Random(3)
    for _ in range(200):
        a, b = random_rect(rng), random_rect(rng)
        base = collision_index(a.pose(), b.pose())
        dx, dy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        phi = rng.uniform(0, 2 * math.pi)
        px, py = rng.uniform(-5, 5), rng.uniform(-5, 5)

        def moved(r):
            # Headings grow clockwise from +y, so a rotation by +phi pairs
            # with the clockwise rotation matrix in (x, y).
            cx, cy = r.cx - px, r.cy - py
            rx = cx * math.cos(phi) + cy * math.sin(phi) + px + dx
            ry = -cx * math.sin(phi) + cy * math.cos(phi) + py + dy
            return Rect(rx, ry, r.heading + phi, r.half_width, r.half_length)

        assert collision_index(moved(a).pose(), moved(b).pose()) == \
            pytest.approx(base, abs=1e-9)


def test_monotone_in_separation():
    a = Rect(0.0, 0.0, 0.0, 0.9, 2.25)
    last = 1.0
    for d in [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]:
        b = Rect(0.0, 4.5 + d, 0.0, 0.9, 2.25)
        value = collision_index(a.pose(), b.pose())
        assert value <= last + 1e-12
        last = value


# --- vicinity classification -------------------------------------------------


def view(vid, x, y, v, heading=0.0, lane=None):
    from mergesim.road import lane_of
    return VehicleView(vid, x, y, v, heading, 4.5, 1.8,
                       lane_of(x, GEOMETRY) if lane is None else lane)


def test_alone_vehicle_has_empty_slots():
    vic = classify_vicinity("ego", [view("ego", 9.9, 10.0, 19.4)], GEOMETRY,
                            visibility=100.0)
    assert vic == [(None, None)] * len(GEOMETRY.centers)


def test_first_scenario_snapshot_slots():
    views = [
        view("vehicle1", 0.0, 30.0, 22.2),
        view("vehicle2", 3.3, 30.0, 22.2),
        view("vehicle3", 6.6, 30.0, 22.2),
        view("vehicle4", 6.6, 5.0, 22.2),
        view("vehicle5", 6.6, -10.0, 22.2),
        view("ego", 9.9, 10.0, 19.4),
    ]
    vic = classify_vicinity("ego", views, GEOMETRY, visibility=100.0)
    (leader_gap, leader), (follower_gap, follower) = vic[2]
    assert views[leader].vehicle_id == "vehicle3"
    assert leader_gap == pytest.approx(20.0 - 4.5)
    assert views[follower].vehicle_id == "vehicle4"
    assert follower_gap == pytest.approx(5.0 - 4.5)


def test_nearest_leader_wins():
    views = [view("ego", 6.6, 0.0, 20.0),
             view("near", 6.6, 30.0, 20.0),
             view("far", 6.6, 60.0, 20.0)]
    vic = classify_vicinity("ego", views, GEOMETRY, visibility=100.0)
    assert views[vic[2][0][1]].vehicle_id == "near"


def test_visibility_excludes_distant_vehicles():
    views = [view("ego", 6.6, 0.0, 20.0), view("ghost", 6.6, 200.0, 20.0)]
    vic = classify_vicinity("ego", views, GEOMETRY, visibility=100.0)
    assert vic[2][0] is None


def test_boundary_recognition_straddles_lanes():
    views = [view("ego", 6.6, 0.0, 20.0), view("edge", 9.3, 20.0, 20.0)]
    plain = classify_vicinity("ego", views, GEOMETRY, visibility=100.0,
                              observer_scale=1.0)
    assert plain[2][0] is None          # squarely in the merge lane
    grown = classify_vicinity("ego", views, GEOMETRY, visibility=100.0,
                              observer_scale=1.3)
    assert grown[2][0][1] == 1  # magnified bounds straddle
    assert grown[3][0][1] == 1  # still in its own lane too


def test_noise_moves_only_others_along_the_road_in_seeded_order():
    views = [view("lead", 6.6, 10.0, 20.0), view("ego", 6.6, 0.0, 20.0),
             view("side", 3.3, -5.0, 22.0)]
    seen = PerceptionNoise(random.Random(4), 1.0, 0.0).observe("ego", views)
    assert seen[1] is views[1]
    # One draw per other vehicle, in view order, from the observer's RNG.
    rng = random.Random(4)
    for got, true in zip((seen[0], seen[2]), (views[0], views[2])):
        assert got.y == true.y + rng.gauss(0.0, 1.0)
        assert got == true._replace(y=got.y)
    assert PerceptionNoise(random.Random(0), 1.0, 1.0).sigma == pytest.approx(0.5)


@pytest.mark.parametrize("ego_index", [0, 1, 2])
def test_noise_returns_the_ego_view_object_itself(ego_index):
    views = [view(f"v{i}", 6.6, 10.0 * i, 20.0) for i in range(3)]
    rng = random.Random(7)
    seen = PerceptionNoise(rng, 2.0, 0.3).observe(f"v{ego_index}", views)
    for i, (got, true) in enumerate(zip(seen, views)):
        assert (got is true) == (i == ego_index)
    # The ego costs no draw: two draws for the two others.
    spent = random.Random(7)
    spent.gauss(0.0, 1.0)
    spent.gauss(0.0, 1.0)
    assert rng.getstate() == spent.getstate()
