"""World assembly, per-step control, fixed-step simulation and logging."""

from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
import math
from operator import itemgetter, sub
import os
import random
from typing import Dict, List, NamedTuple, Optional, Tuple

from .config import (Q_RANGE, ConfigError, RunConfig, check, check_field,
                     check_id, check_keys, read_json_object)
from .driver import (DriverProfile, blended_error, longitudinal_accel,
                     steering_command)
from .dynamics import GRAVITY, Controls, VehicleParams, VehicleState, step
from .perception import (PerceptionNoise, VehicleView, bumper_gap,
                         classify_vicinity, collision_index, pose_gaps,
                         rects_intersect)
from .planner import (ACCELERATE, CHANGE, DECELERATE, KEEP, MERGE,
                      BrainState, complete_maneuver, decide, entrance_threat,
                      stopping_distance)
from .road import LaneGeometry, lane_bands, lane_of, room_to_hard_end

SCRIPTED = "scripted"
DECISION = "decision"

KMH = 1.0 / 3.6
MAX_SPEED_KMH = 250.0  # fastest start speed a scenario may give a vehicle

# Both run on the default road: a scenario without geometry gets LaneGeometry().
BUILTIN_SCENARIOS = {
    "scenario1": {
        "vehicles": [
            {"id": "vehicle1", "x0_m": 0.0, "y0_m": 30.0, "v0_kmh": 80.0, "kind": SCRIPTED},
            {"id": "vehicle2", "x0_m": 3.3, "y0_m": 30.0, "v0_kmh": 80.0, "kind": SCRIPTED},
            {"id": "vehicle3", "x0_m": 6.6, "y0_m": 30.0, "v0_kmh": 80.0, "kind": SCRIPTED},
            {"id": "vehicle4", "x0_m": 6.6, "y0_m": 5.0, "v0_kmh": 80.0, "kind": SCRIPTED},
            {"id": "vehicle5", "x0_m": 6.6, "y0_m": -10.0, "v0_kmh": 80.0, "kind": SCRIPTED},
            {"id": "merging", "x0_m": 9.9, "y0_m": 10.0, "v0_kmh": 70.0,
             "kind": DECISION, "q": 0.5},
        ],
    },
    "scenario2": {
        "vehicles": [
            {"id": "vehicle1", "x0_m": 0.0, "y0_m": 10.0, "v0_kmh": 80.0, "kind": SCRIPTED},
            {"id": "vehicle2", "x0_m": 3.3, "y0_m": 10.0, "v0_kmh": 80.0, "kind": SCRIPTED},
            {"id": "vehicle3", "x0_m": 6.6, "y0_m": 10.0, "v0_kmh": 80.0, "kind": SCRIPTED},
            {"id": "vehicle4", "x0_m": 6.6, "y0_m": 5.0, "v0_kmh": 80.0, "kind": SCRIPTED},
            {"id": "vehicle5", "x0_m": 6.6, "y0_m": -10.0, "v0_kmh": 80.0, "kind": SCRIPTED},
            {"id": "merging", "x0_m": 9.9, "y0_m": 0.0, "v0_kmh": 70.0,
             "kind": DECISION, "q": 0.5},
        ],
    },
}

# A record built once per vehicle per step (a view, a Controls, a
# VehicleState) is built as tuple.__new__(Class, fields), its fields in the
# class's order: calling the class would run a Python frame per record.

# Steps the write path holds at a time, in deriving i_col and in the CSV.
BLOCK = 256

TRAJECTORY_COLUMNS = ("t", "id", "x_lat", "y_long", "v", "theta", "lane",
                      "maneuver", "accel_directive", "competing_id", "i_col",
                      "flags")


@dataclass
class SimVehicle:
    vehicle_id: str
    kind: str
    params: VehicleParams
    state: VehicleState
    v_preset: float
    q: float
    profile: DriverProfile
    brain: BrainState

    def view(self, geometry: LaneGeometry) -> VehicleView:
        """This vehicle's current state as a view on this geometry."""
        s = self.state
        return VehicleView(self.vehicle_id, s.x, s.y, s.v_long, s.heading,
                           self.params.length, self.params.width,
                           lane_of(s.x, geometry))


class TrajectoryLog:
    """Complete per-step record of a run on a uniform time grid.

    `bodies` maps each vehicle id to its (length, width).  The log keeps
    one column per vehicle, in `bodies` order: the list of rows it logged,
    or for a scripted vehicle a _Scripted, which builds its rows when read.
    `rows` interleaves the columns a whole step at a time on each read.
    Each row holds every TRAJECTORY_COLUMNS field except i_col, which is
    derived from the poses and the vehicle sizes as the CSV is written
    (see _blocks), so runs that write no CSV never pay for it.

    `run` fills the columns: each decision vehicle appends its rows as it
    moves, and each scripted vehicle's column is the _Scripted record the
    run starts with.  `append` adds one row to its vehicle's column, for
    callers that build a log row by row.
    """

    def __init__(self, geometry: LaneGeometry,
                 bodies: Dict[str, Tuple[float, float]]):
        self.geometry = geometry
        self.bodies = bodies
        self.columns: list = [[] for _ in bodies]
        self.events: List[dict] = []
        self.collision: Optional[dict] = None
        self.forced_stop: bool = False
        self.end_time: float = 0.0
        self._slot = {vid: k for k, vid in enumerate(bodies)}

    def append(self, row: tuple) -> None:
        self.columns[self._slot[row[1]]].append(row)

    @property
    def rows(self) -> List[tuple]:
        """Every row, step-major, built anew from the columns."""
        return list(chain.from_iterable(zip(*self.columns)))

    def _slot_with_rows(self, vehicle_id: str) -> int:
        k = self._slot.get(vehicle_id)
        if k is None or not len(self.columns[k]):
            raise KeyError(f"no such vehicle in log: {vehicle_id!r}")
        return k

    def vehicle_rows(self, vehicle_id: str) -> List[tuple]:
        return list(self.columns[self._slot_with_rows(vehicle_id)])

    def last_row(self, vehicle_id: str) -> tuple:
        """A vehicle's last row, read without copying its column; a
        scripted column builds its rows one at a time as they are read."""
        column = self.columns[self._slot_with_rows(vehicle_id)]
        if type(column) is _Scripted:
            return next(islice(column, len(column) - 1, None))
        return column[-1]

    def to_csv(self, fh) -> Dict[str, float]:
        """Write the log to the text handle `fh` as CSV, one line per row,
        and return each vehicle's largest i_col (none for a log without a
        whole step): the header, then BLOCK steps of step-major lines per
        write, built column by column from what _blocks read for the block.

        Each step's time is formatted once, and so is the text of a
        scripted vehicle's id, x_lat, v, theta and lane, and of each y-sum
        list _blocks reads for the block, which scripted columns with the
        same sums share.  A vehicle's i_col text is reused while its index
        is the same float object as in its previous row (a reused index,
        see _blocks).  An equal but distinct float is formatted anew, since
        0.0 == -0.0 yet the two print differently; so is each block's first.
        """
        columns = self.columns
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        stamps = map(itemgetter(0), columns[0] if columns else ())
        tops = []  # each block's largest index per column
        for reads, icol in _blocks(columns, self.bodies):
            times = [f"{t:.2f}" for t in islice(stamps, len(icol[0]))]
            sums = {id(read): read for column, read in zip(columns, reads)
                    if type(column) is _Scripted}
            texts = {k: list(map(format, ys, repeat(".6f")))
                     for k, ys in sums.items()}
            fh.write("".join(chain.from_iterable(zip(*[
                _scripted_lines(column.start, texts[id(read)], times, index)
                if type(column) is _Scripted else
                _logged_lines(read, times, index)
                for column, read, index in zip(columns, reads, icol)]))))
            tops.append(list(map(max, icol)))
        return dict(zip(self.bodies, map(max, zip(*tops))))


class _Scripted:
    """A scripted vehicle's one record for a run: the view it starts from,
    the y it gains at every step, and the times of the logged steps, which
    every scripted record of a run shares.  It gives the step loop its
    views (track) and, as a log column, builds its rows on each read."""

    def __init__(self, start: VehicleView, increment: float,
                 times: List[float]):
        self.start, self.increment, self.times = start, increment, times

    def __len__(self) -> int:
        return len(self.times)

    def ys(self):
        """The start y, then y + increment at each step, summed one step at
        a time, without end: each reader takes the steps it needs."""
        return accumulate(repeat(self.increment), initial=self.start.y)

    def track(self):
        """Its views after the start view, one per step."""
        vid, x, _, v, heading, length, width, lane = self.start
        ys = self.ys()
        next(ys)  # the start view's own
        return map(tuple.__new__, repeat(VehicleView), zip(
            repeat(vid), repeat(x), ys, repeat(v), repeat(heading),
            repeat(length), repeat(width), repeat(lane)))

    def __iter__(self):
        """Its rows: the start view's x, v, heading and lane objects, its
        y sums, and empty decision fields."""
        vid, x, _, v, heading, _, _, lane = self.start
        blank = repeat("")  # one iterator serves all four empty fields
        return zip(self.times, repeat(vid), repeat(x), self.ys(), repeat(v),
                   repeat(heading), repeat(lane), blank, blank, blank, blank)


def _texts(values) -> List[str]:
    """The %.6f text of each value, formatted again only when the value is
    not the previous one's object."""
    out = []
    last = None  # no value is None: the first formats
    for value in values:
        if value is not last:
            last = value
            text = f"{value:.6f}"
        out.append(text)
    return out


def _scripted_lines(start: VehicleView, y_texts: List[str],
                    times: List[str], icol: List[float]) -> List[str]:
    vid, x, _, v, heading, _, _, lane = start
    head, tail = f",{vid},{x:.6f},", f",{v:.6f},{heading:.6f},{lane},,,,"
    return list(map("".join, zip(times, repeat(head), y_texts, repeat(tail),
                                 _texts(icol), repeat(",\n"))))


def _logged_lines(rows, times: List[str], icol: List[float]) -> List[str]:
    return [f"{t},{r[1]},{r[2]:.6f},{r[3]:.6f},{r[4]:.6f},{r[5]:.6f},"
            f"{r[6]},{r[7]},{r[8]},{r[9]},{c_text},{r[10]}\n"
            for t, r, c_text in zip(times, rows, _texts(icol))]


def _blocks(columns: list, bodies: Dict[str, Tuple[float, float]]):
    """(reads, icol) for each block of up to BLOCK whole steps: per column,
    the block's rows or, for a scripted one, its y sums, and its i_col.

    pose_gaps reads two poses only through the offset (bx - ax, by - ay),
    the four sines and cosines and the half sizes, and each slot's half
    sizes are fixed.  So each ordered slot pair keeps the key of its last
    collision_index call and the index it got, and reuses that index while
    the key is equal: scripted vehicles keep their offsets for long
    stretches.  The key is (offset, sines, cosines), or for a pair of
    scripted vehicles, whose x, sines and cosines never change, the y
    offset alone.  The reuse is exact: keys compare with ==, so two equal
    keys differ at most in the sign of a zero, and such a zero reaches the
    index only through abs().

    The poses are read from one list per field and vehicle; a scripted
    vehicle's x, sine and cosine lists repeat one object, and its y sums
    continue one running ys() over the run, which scripted columns with the
    same start y and increment share.  Each block finds its nearest pairs
    on its own, which is exact on any step range, and the pair keys carry
    from block to block.  The index is symmetric in its two rectangles, so
    at a step where two vehicles are each other's nearest, the later one
    takes the earlier one's index object and builds no key.
    """
    steps = min(map(len, columns), default=0)
    halves = [(width / 2.0, length / 2.0) for length, width in bodies.values()]
    fixed = [type(column) is _Scripted for column in columns]
    # Scripted columns share their sums when their start y and increment
    # are equal with the sign of a zero: -0.0 + -0.0 is -0.0, not 0.0.
    shared = [(c.start.y, c.increment, math.copysign(1.0, c.start.y),
               math.copysign(1.0, c.increment)) if scripted else None
              for c, scripted in zip(columns, fixed)]
    sources = {key: column.ys() for column, key in zip(columns, shared)
               if key is not None}
    last = [[None] * len(columns) for _ in columns]  # (key, index) by pair
    for lo in range(0, steps, BLOCK):
        size = min(BLOCK, steps - lo)
        sums = {key: list(islice(source, size))
                for key, source in sources.items()}
        reads, xs, ys, sines, cosines = [], [], [], [], []
        for column, key in zip(columns, shared):
            if key is None:
                rows = column[lo:lo + size]
                reads.append(rows)
                headings = [r[5] for r in rows]
                xs.append([r[2] for r in rows])
                ys.append([r[3] for r in rows])
                sines.append(list(map(math.sin, headings)))
                cosines.append(list(map(math.cos, headings)))
            else:
                start = column.start
                reads.append(sums[key])
                xs.append([start.x] * size)
                ys.append(sums[key])
                sines.append([math.sin(start.heading)] * size)
                cosines.append([math.cos(start.heading)] * size)
        nearest = _nearest_pairs(xs, ys, fixed)
        out: List[List[float]] = []
        for i, near in enumerate(nearest):
            if near is None:
                out.append([0.0] * size)
                continue
            xi, yi, si, ci = xs[i], ys[i], sines[i], cosines[i]
            icol = []
            pair = last[i]
            for t, j in enumerate(near):
                if j < i and nearest[j][t] == i:
                    icol.append(out[j][t])
                    continue
                key = (ys[j][t] - yi[t] if fixed[i] and fixed[j] else
                       (xs[j][t] - xi[t], ys[j][t] - yi[t], si[t], ci[t],
                        sines[j][t], cosines[j][t]))
                seen = pair[j]
                if seen is not None and seen[0] == key:
                    icol.append(seen[1])
                else:
                    index = collision_index(
                        (xi[t], yi[t], si[t], ci[t], *halves[i]),
                        (xs[j][t], ys[j][t], sines[j][t], cosines[j][t],
                         *halves[j]))
                    pair[j] = (key, index)
                    icol.append(index)
            out.append(icol)
        yield reads, out


def _nearest_pairs(xs: List[List[float]], ys: List[List[float]],
                   fixed: List[bool]):
    """The slot of each vehicle's nearest other vehicle, by centre
    distance, at every step: one list per vehicle, or None for a vehicle
    alone.  A tie goes to the first in slot order.

    A pair's distance column is built at most once, from its lower slot's
    x and y minus the other's, and bounded by its min and max.  A pair of
    columns that `fixed` marks scripted is first bounded without one (see
    _scripted_span).  A candidate whose lower bound exceeds another
    candidate's upper bound is never the nearest, so it is dropped.  The
    columns of the rest are compared step by step, and tuple.index of the
    min takes the first of equal distances.
    """
    n = len(xs)
    if n < 2:
        return [None] * n
    dist = {}  # distance column by slot pair
    span = {}  # (lower, upper) bound of the distance by slot pair

    def build(i, j):
        d = list(map(math.hypot, map(sub, xs[i], xs[j]),
                     map(sub, ys[i], ys[j])))
        dist[i, j] = dist[j, i] = d
        span[i, j] = span[j, i] = (min(d, default=0.0), max(d, default=0.0))

    for i in range(n):
        for j in range(i + 1, n):
            if fixed[i] and fixed[j] and xs[i]:
                span[i, j] = span[j, i] = _scripted_span(
                    xs[i][0] - xs[j][0], ys[i], ys[j])
            else:
                build(i, j)
    nearest = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        bound = min([span[i, j][1] for j in others])
        others = [j for j in others if span[i, j][0] <= bound]
        if len(others) == 1:
            nearest.append([others[0]] * len(xs[i]))
            continue
        for j in others:
            if (i, j) not in dist:
                build(min(i, j), max(i, j))
        steps = list(zip(*[dist[i, j] for j in others]))
        nearest.append(list(map(others.__getitem__,
                                map(tuple.index, steps, map(min, steps)))))
    return nearest


def _scripted_span(dx: float, yi: List[float], yj: List[float]):
    """(lower, upper) bound on hypot(dx, yi[t] - yj[t]) over a block of two
    scripted columns, from their first and last y alone: the offset moves
    along a line, but for the rounding of each sum (half an ulp of the
    column's largest |y|, at an end) and of each subtraction (an ulp),
    which 2 * size ulps per column cover; 1 -+ 2**-50 cover hypot's.
    """
    first, last = yi[0] - yj[0], yi[-1] - yj[-1]
    slack = 2 * len(yi) * (math.ulp(max(abs(yi[0]), abs(yi[-1])))
                           + math.ulp(max(abs(yj[0]), abs(yj[-1]))))
    low = min(abs(first), abs(last)) - slack if first * last > 0.0 else 0.0
    high = max(abs(first), abs(last)) + slack
    return (math.hypot(dx, low if low > 0.0 else 0.0) * (1.0 - 2.0 ** -50),
            math.hypot(dx, high) * (1.0 + 2.0 ** -50))


class World:
    def __init__(self, geometry: LaneGeometry, vehicles: List[SimVehicle],
                 cfg: RunConfig):
        self.geometry = geometry
        self.vehicles = vehicles
        self.cfg = cfg
        self.profiles: Dict[str, DriverProfile] = {
            v.vehicle_id: v.profile for v in vehicles}
        self.noise: Dict[str, PerceptionNoise] = {}
        if cfg.noise:
            for v in vehicles:
                rng = random.Random(f"{cfg.seed}:{v.vehicle_id}")
                self.noise[v.vehicle_id] = PerceptionNoise(
                    rng, cfg.noise_sigma, v.q)
        # Each vehicle's current view, in vehicle order: run rebuilds them
        # from the states when it starts, and _advance as the vehicles move.
        # While a run lasts, a scripted vehicle's state keeps its start y.
        self.views: List[VehicleView] = [v.view(geometry) for v in vehicles]

    def snapshot(self) -> List[VehicleView]:
        """A new list of every vehicle's current view."""
        return self.views[:]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def scenario_definition(source) -> dict:
    """Scenario dict from a built-in name, a path, or a dict."""
    if isinstance(source, dict):
        return source
    if check("scenario", source, str) in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[source]
    _require(os.path.exists(source),
             f"scenario: no built-in or file named {source!r}")
    return read_json_object(source, "scenario")


# Each number field of LaneGeometry by its path in a "geometry" object.
_GEOMETRY_PATHS = {"lane_width": ("lane_width",),
                   "merge_start": ("merge", "start"),
                   "entrance_length": ("merge", "entrance_length"),
                   "extension": ("merge", "extension")}


def geometry_from_dict(geo) -> LaneGeometry:
    """LaneGeometry from a scenario's "geometry" object, validating every
    field; missing fields take LaneGeometry's defaults."""
    check("geometry", geo, dict)
    merge = check("geometry.merge", geo.get("merge", {}), dict)
    default = LaneGeometry()
    known = geometry_to_dict(default)
    check_keys("geometry", geo, known)
    check_keys("geometry.merge", merge, known["merge"])
    centers = geo.get("lane_centers", default.centers)
    _require(isinstance(centers, (list, tuple)) and len(centers) >= 2,
             "geometry.lane_centers: must be a list of at least 2 numbers, "
             f"got {centers!r}")
    centers = tuple(check(f"geometry.lane_centers[{i}]", c)
                    for i, c in enumerate(centers))
    numbers = {}
    for name, (*section, key) in _GEOMETRY_PATHS.items():
        value = (merge if section else geo).get(key, getattr(default, name))
        numbers[name] = check_field(LaneGeometry, name, value,
                                    ".".join(["geometry", *section, key]))
    try:
        return LaneGeometry(centers=centers, **numbers)
    except ConfigError as exc:
        raise ConfigError(f"geometry.{exc}")


def geometry_to_dict(geometry: LaneGeometry) -> dict:
    """The "geometry" object that geometry_from_dict reads back."""
    out = {"lane_centers": list(geometry.centers), "merge": {}}
    for name, (*section, key) in _GEOMETRY_PATHS.items():
        (out["merge"] if section else out)[key] = getattr(geometry, name)
    return out


def load_scenario(source, cfg: RunConfig) -> World:
    """Build a world from a scenario definition, validating every field."""
    cfg.validate()
    data = scenario_definition(source)
    check_keys("scenario", data, ("geometry", "vehicles"))
    geometry = geometry_from_dict(data.get("geometry", {}))
    params = cfg.vehicle_params()
    vehicles = []
    seen = set()
    items = check("vehicles", data.get("vehicles", []), list)
    for i, item in enumerate(items):
        where = f"vehicles[{i}]"
        check(where, item, dict)
        check_keys(where, item, ("id", "x0_m", "y0_m", "v0_kmh", "kind", "q"))
        vid = check_id(f"{where}.id", item.get("id"))
        _require(vid not in seen, f"{where}.id: duplicate id {vid!r}")
        seen.add(vid)
        x0 = check(f"{where}.x0_m", item.get("x0_m", 0.0))
        _require(any(abs(x0 - c) < 1e-6 for c in geometry.centers),
                 f"{where}.x0_m: {x0} is not on a lane center")
        y0 = check(f"{where}.y0_m", item.get("y0_m", 0.0))
        v0_kmh = check(f"{where}.v0_kmh", item.get("v0_kmh", 0.0), float,
                       f"(0, {MAX_SPEED_KMH:g}]")
        kind = item.get("kind", SCRIPTED)
        _require(kind in (SCRIPTED, DECISION),
                 f"{where}.kind: must be scripted or decision, got {kind!r}")
        if vid in cfg.q_overrides:
            q = float(cfg.q_overrides[vid])
        else:
            q = check(f"{where}.q", item.get("q", 0.5), float, Q_RANGE)
        v0 = v0_kmh * KMH
        lane = lane_of(x0, geometry)
        state = VehicleState(x=x0, y=y0, heading=0.0, v_long=v0)
        brain = BrainState(current_lane=lane, v_ref=v0,
                           needs_merge=(kind == DECISION
                                        and lane == geometry.merge_lane))
        vehicles.append(SimVehicle(
            vehicle_id=vid, kind=kind, params=params, state=state,
            v_preset=v0, q=q, profile=cfg.profile(q),
            brain=brain))
    unknown = set(cfg.q_overrides) - seen
    _require(not unknown, f"q_overrides: unknown vehicle ids {sorted(unknown)}")
    world = World(geometry, vehicles, cfg)
    # The run checks poses only after each step, so the start poses are
    # checked here.
    poses = [v.pose() for v in world.views]
    for j, b in enumerate(poses):
        for i in range(j):
            _require(not rects_intersect(poses[i], b),
                     f"vehicles[{j}]: overlaps vehicles[{i}] "
                     f"({vehicles[i].vehicle_id!r}) at the start with "
                     f"body_length {params.length:g} m and body_width "
                     f"{params.width:g} m")
    # A vehicle that has to merge must be able to stop before the end of
    # the pavement, braking at the physical cap from its start speed.
    for i, veh in enumerate(vehicles):
        room = room_to_hard_end(veh.state.y, veh.params.length, geometry)
        need = stopping_distance(veh.v_preset, cfg.accel_cap_g * GRAVITY)
        _require(not veh.brain.needs_merge or room > need,
                 f"vehicles[{i}]: must be able to stop before hard_end "
                 f"{geometry.hard_end:g} m at accel_cap_g, needs "
                 f"{need:.2f} m, has {room:.2f} m")
    return world


# --- per-step control -----------------------------------------------------


def _gap_ref(room, follow_ref) -> float:
    """Leader-gap reference for `room` m of free room: the room, at least
    1 m, and never more than the plain following reference."""
    ref = 1.0 if 1.0 > room else room
    return ref if ref < follow_ref else follow_ref


class Attention(NamedTuple):
    """Slots (indices in world.vehicles) picked at the decision epoch."""
    lane_leaders: Dict[int, int]  # lane -> slot
    own_follower: Optional[int]
    threat: Optional[int]
    slot_leader: Optional[int]    # the latch's insertion slot
    slot_follower: Optional[int]


def _controls_for(veh: SimVehicle, ego: VehicleView, views: List[VehicleView],
                  attention: Attention, geometry: LaneGeometry) -> Controls:
    """Steering toward the target lane and the bounded longitudinal command."""
    brain, profile, st = veh.brain, veh.profile, veh.state
    v = st.v_long
    changing = brain.maneuver in (MERGE, CHANGE)
    lane_target = brain.target_lane if changing else brain.current_lane
    e_lat = st.x - geometry.centers[lane_target]
    e_rate = math.hypot(v, st.v_lat) * math.sin(st.heading)
    steer = steering_command(profile, e_lat, e_rate, v)

    merging_phase = brain.needs_merge
    follow_ref = profile.lane_change_clearance + profile.follow_headway * v
    k = attention.own_follower
    follower_gap = None if k is None else bumper_gap(ego, views[k])

    # Safety channels, each a (gap, reference, relative speed): never
    # outrun anything ahead in the lanes we occupy.  The slot leader is
    # held at the slot reference, every other lane leader at the boxed one.
    # Without a vehicle behind, a reference is the plain following one.
    channels = []
    k = attention.slot_leader if merging_phase else None
    slot_leader = None if k is None else views[k]
    if slot_leader is not None:
        gap = bumper_gap(ego, slot_leader)
        k = attention.slot_follower
        ref = follow_ref
        if k is not None:
            # Aggressive drivers ride the back of the slot, leaving the
            # vehicle they cut ahead of very little headway.
            free = gap + bumper_gap(ego, views[k])
            ride, rear = free * profile.slot_ride, free - profile.slot_rear_min
            ref = _gap_ref(rear if rear < ride else ride, follow_ref)
        channels.append((gap, ref, slot_leader.v - v))
    own = None  # the own-lane leader's channel, which plain cruise follows
    lanes = (brain.current_lane,)
    if changing and brain.target_lane not in (None, brain.current_lane):
        lanes += (brain.target_lane,)
    for lane in lanes:
        k = attention.lane_leaders.get(lane)
        leader = None if k is None else views[k]
        if leader is None or leader is slot_leader:
            continue
        gap = bumper_gap(ego, leader)
        # Boxed in, a span shorter than two comfortable gaps is straddled at
        # half its free room rather than braking into the trailing vehicle.
        ref = follow_ref if follower_gap is None else _gap_ref(
            (gap + follower_gap) * 0.5, follow_ref)
        channels.append((gap, ref, leader.v - v))
        if lane == brain.current_lane:
            own = channels[-1]
    if attention.threat is not None:
        threat = views[attention.threat]
        ahead = threat.y - ego.y > (threat.length + ego.length) / 2.0
        if ahead or brain.evading:
            closing = v - threat.v
            ref = (profile.lane_change_clearance + profile.prediction_time
                   * (closing if closing > 0.0 else 0.0))
            channels.append((bumper_gap(ego, threat), ref, threat.v - v))

    # Base command: directive, slot keeping, or plain cruise.
    if merging_phase and brain.directive == ACCELERATE:
        base = profile.nominal_accel
    elif merging_phase and brain.directive == DECELERATE:
        base = -profile.nominal_decel
        if brain.guard:
            room = room_to_hard_end(st.y, veh.params.length, geometry)
            if room > 0.1:
                stop = -v * v / (2.0 * room)
                if stop < base:
                    base = stop
            else:
                base = profile.guard_lo
    elif slot_leader is not None:
        gap, ref, rel = channels[0]
        base = longitudinal_accel(profile, gap - ref, rel)
    elif own is not None and own[0] < own[1]:
        gap, ref, rel = own
        err, rate = blended_error(brain.v_ref - v, gap - ref, rel,
                                  profile.speed_weight)
        base = longitudinal_accel(profile, err, rate)
    else:
        base = longitudinal_accel(profile, brain.v_ref - v, 0.0)

    # Each channel brakes through the PD law only while its gap is short
    # of its reference.
    for gap, ref, rel in channels:
        if gap < ref:
            brake = longitudinal_accel(profile, gap - ref, rel)
            if brake < base:
                base = brake

    # Comfort bounds acceleration; emergencies may brake up to the
    # physical cap.
    lo = profile.guard_lo if brain.guard else profile.brake_lo
    if lo > base:
        base = lo
    hi = profile.accel_hi
    return tuple.__new__(Controls, (hi if hi < base else base, steer))


# --- simulation loop -------------------------------------------------------


def _collision_pairs(views: List[VehicleView],
                     scripted: List[bool]) -> List[tuple]:
    """(i, j, reach), i < j in order, for each pair that can collide.  The
    reach is the sum of the two half diagonals: no point of a rectangle
    lies farther than its half diagonal from its centre, so a pair whose
    centres are more than reach apart along either axis cannot meet.
    `scripted` flags each view's vehicle as scripted.

    A scripted vehicle keeps its lateral position and heading for the whole
    run, so a pair of scripted vehicles at heading 0 with a positive gap
    across the road, which depends only on their lateral offset and half
    widths, is dropped; no speed enters that rule.
    """
    pairs = []
    for i, a in enumerate(views):
        for j in range(i + 1, len(views)):
            b = views[j]
            if (scripted[i] and scripted[j]
                    and a.heading == b.heading == 0.0
                    and pose_gaps(a.pose(), b.pose())[1] > 0.0):
                continue
            pairs.append((i, j, math.hypot(a.length, a.width) / 2.0
                          + math.hypot(b.length, b.width) / 2.0))
    return pairs


def _find_collision(views: List[VehicleView], pairs: List[tuple]):
    """Ids of the first pair, in `pairs` order, whose rectangles overlap."""
    for i, j, reach in pairs:
        a, b = views[i], views[j]
        if abs(a.y - b.y) > reach or abs(a.x - b.x) > reach:
            continue
        if rects_intersect(a.pose(), b.pose()):
            return a.vehicle_id, b.vehicle_id
    return None


def _decide(world, decision_slots, views, slot_of, attentions) -> None:
    """Decision epoch: perceive, play the games, pick whom to attend to.
    A vehicle's view, noisy view and attention share its slot (its index
    in world.vehicles); `slot_of` (the log's id -> slot map) maps the ids
    of the threat and of the new latch's insertion slot to theirs."""
    geometry, cfg = world.geometry, world.cfg
    for i in decision_slots:
        veh = world.vehicles[i]
        noise = world.noise.get(veh.vehicle_id)
        seen = views if noise is None else noise.observe(veh.vehicle_id, views)
        ego = seen[i]
        slots = classify_vicinity(
            veh.vehicle_id, seen, geometry,
            visibility=veh.profile.visibility_range,
            observer_scale=veh.profile.bound_scale)
        threat = entrance_threat(ego, seen, geometry, cfg)
        own_leader = slots[veh.brain.current_lane][0]
        own_gap = own_leader[0] if own_leader is not None else None
        veh.brain = brain = decide(
            ego, seen, veh.brain, veh.profile, geometry, world.profiles, cfg,
            own_gap=own_gap, threat=threat)
        own_follower = slots[brain.current_lane][1]
        attentions[i] = Attention(
            {lane: leader[1] for lane, (leader, _) in enumerate(slots)
             if leader is not None},
            own_follower[1] if own_follower is not None else None,
            slot_of[threat.vehicle_id] if threat else None,
            slot_of.get(brain.slot_leader_id),
            slot_of.get(brain.slot_follower_id))


# The flags column of a row, by the latch's (guard, forced_stop).
_FLAGS = {(False, False): "", (True, False): "guard",
          (False, True): "forced_stop", (True, True): "guard;forced_stop"}


def _advance(world, views, attentions, bands, tracks, logged, log, t):
    """Log, control and integrate every decision vehicle over the step from
    t, given each one's attention by slot, and move every scripted vehicle.

    `tracks` holds one iterator per slot: a scripted vehicle's yields its
    next view (its track), a decision vehicle's yields None.  `logged` pairs
    each decision slot with the append of its own row list.  A row holds
    the start-of-step view and the brain before any forced stop is
    latched.  Controls read the start-of-step `views`; world.views gets a
    new list with each vehicle's moved view.  A moved view keeps its lane
    while x stays inside its band.
    """
    cfg, dt, geometry = world.cfg, world.cfg.dt, world.geometry
    vehicles = world.vehicles
    moved = list(map(next, tracks))
    for i, append in logged:
        veh, view = vehicles[i], views[i]
        vid, x, y, v, heading, length, width, lane = view
        brain = veh.brain
        append((t, vid, x, y, v, heading, lane, brain.maneuver,
                brain.directive, brain.competing_id or "",
                _FLAGS[brain.guard, brain.forced_stop]))
        controls = _controls_for(veh, view, views, attentions[i], geometry)
        try:
            veh.state = s = step(veh.state, veh.params, controls, dt)
        except ValueError as exc:
            raise ConfigError(
                f"{vid}: integration diverged at t={t:.2f} s "
                f"({exc}) with mass {cfg.mass:g} kg, yaw_inertia "
                f"{cfg.yaw_inertia:g} kg m^2, corner_stiff "
                f"{cfg.corner_stiff:g} N/rad and dt {dt:g} s: the plant is "
                "too light or too stiff for RK4 at this dt")
        x = s.x
        lo, hi = bands[lane]
        if not lo < x < hi:
            lane = lane_of(x, geometry)
        moved[i] = tuple.__new__(VehicleView, (
            vid, x, s.y, s.v_long, s.heading, length, width, lane))
        if (brain.needs_merge and s.v_long < cfg.stop_speed
                and not brain.forced_stop):
            veh.brain = brain._replace(forced_stop=True)
            log.forced_stop = True
            log.events.append({"t": t, "vehicle": vid,
                               "event": "forced_stop"})
    world.views = moved


def run(world: World) -> TrajectoryLog:
    """Advance the world at a fixed step until cfg.t_max, a collision, or rest.

    Each step logs every decision vehicle's start-of-step state as it moves
    it; collisions, then maneuver completions and settling, are judged on
    the moved poses.  Decisions fire on epoch boundaries.  A scripted
    vehicle's motion is fixed at the start: one _Scripted record gives its
    views and is its log column, whose rows come from the same y sums when
    read, and the loop appends each step's time to the records' shared
    times as it logs the step.  Its state gets its last view's y when the
    run returns or raises.
    """
    cfg = world.cfg
    cfg.validate()
    dt = cfg.dt
    geometry = world.geometry
    steps_per_epoch = round(cfg.epoch / dt)
    log = TrajectoryLog(geometry, {
        v.vehicle_id: (v.params.length, v.params.width)
        for v in world.vehicles})
    if not world.vehicles:
        return log
    decision_slots = [i for i, v in enumerate(world.vehicles)
                      if v.kind == DECISION]
    bands = lane_bands(geometry)
    n_steps = round(cfg.t_max / dt)
    # States may have been set since the world was built.
    world.views = starts = [v.view(geometry) for v in world.vehicles]
    times: List[float] = []
    for i, veh in enumerate(world.vehicles):
        if veh.kind == SCRIPTED:
            log.columns[i] = _Scripted(starts[i], veh.v_preset * dt, times)
    pairs = _collision_pairs(starts, [
        type(column) is _Scripted for column in log.columns])
    tracks = [column.track() if type(column) is _Scripted else repeat(None)
              for column in log.columns]
    logged = [(i, log.columns[i].append) for i in decision_slots]
    attentions: List[Optional[Attention]] = [None] * len(world.vehicles)
    quiet = 0.0

    try:
        for step_index in range(n_steps):
            t = step_index * dt
            times.append(t)
            views = world.snapshot()
            if step_index % steps_per_epoch == 0:
                _decide(world, decision_slots, views, log._slot, attentions)
            _advance(world, views, attentions, bands, tracks, logged, log, t)
            log.end_time = t_end = t + dt

            moved = world.snapshot()
            hit = _find_collision(moved, pairs)
            if hit is not None:
                log.collision = {"t": t_end, "vehicles": list(hit)}
                log.events.append({"t": t_end, "event": "collision",
                                   "vehicles": list(hit)})
                break
            # End, and log, each maneuver the moved poses complete; the run
            # ends once every decision vehicle has settled for settle_time.
            settled = bool(decision_slots)
            for i in decision_slots:
                veh, ego = world.vehicles[i], moved[i]
                brain = veh.brain
                veh.brain = b = complete_maneuver(ego, moved, brain, geometry,
                                                  cfg)
                if b is not brain:
                    kind = ("merge_complete" if brain.maneuver == MERGE
                            else "change_complete")
                    log.events.append({"t": t_end, "vehicle": veh.vehicle_id,
                                       "event": kind,
                                       "lane": brain.target_lane})
                if settled and (b.needs_merge or b.maneuver != KEEP or abs(
                        ego.x - geometry.centers[b.current_lane])
                        > cfg.lane_settle_tol
                        or abs(ego.v - b.v_ref) > cfg.settle_speed_tol):
                    settled = False
            quiet = quiet + dt if settled else 0.0
            if settled and quiet >= cfg.settle_time:
                break
    finally:
        # A scripted vehicle's view is its only per-step record: its state
        # takes the view's y once the run ends, however it ends.
        for veh, view in zip(world.vehicles, world.views):
            if veh.kind == SCRIPTED:
                veh.state = veh.state._replace(y=view.y)
    return log
