"""Mainline disturbance measures and the aggressiveness-grid sweep."""

import copy
from dataclasses import dataclass

from .config import Q_RANGE, ConfigError, RunConfig, check, check_field
from .world import (DECISION, TrajectoryLog, load_scenario,
                    scenario_definition, run)

# The vehicles whose q a sweep sets: the merging vehicle and the adjacent
# mainline vehicle whose disturbance it measures.
MERGE_ID = "merging"
MAINLINE_ID = "vehicle4"


@dataclass(frozen=True)
class DisturbanceReport:
    d_long: float            # m, integrated speed deficit
    d_lat: float             # m, lateral displacement over lane changes
    lane_changes: int
    collision: bool
    forced_stop: bool
    q_merge: float
    q_mainline: float
    seed: int


def longitudinal_disturbance(log: TrajectoryLog, vehicle_id: str,
                             v0: float) -> float:
    """Trapezoidal integral of the speed deficit below v0 over the run."""
    rows = log.vehicle_rows(vehicle_id)
    deficit = [0.0 if 0.0 > d else d for d in [v0 - r[4] for r in rows]]
    total = 0.0
    for i in range(1, len(deficit)):
        total += 0.5 * (deficit[i - 1] + deficit[i]) * (rows[i][0] - rows[i - 1][0])
    return total


def lane_change_events(log: TrajectoryLog, vehicle_id: str):
    """(maneuver, lateral displacement, completed) per maneuver segment.

    One forward pass: a segment opens at a 'merge' or 'change' row and
    closes where the maneuver column changes, at the row a completion event
    of the vehicle reached, or at the end of the run.  The step loop logs
    those events when complete_maneuver ends a maneuver, so a maneuver
    begun at the epoch right after one completed counts on its own.  A
    segment ending at an event's row is completed and contributes the exact
    offset from the center of the lane it started in to that of the event's
    lane; any other segment contributes the lateral motion it caused.
    """
    rows = log.vehicle_rows(vehicle_id)
    centers = log.geometry.centers
    out = []
    # The lane reached, by the row after each completion: rows lie on a
    # uniform grid, and an event's t (its step's t + dt) may differ from
    # that row's in the last bit.  With one row, no event falls inside a
    # segment.
    dt = rows[1][0] - rows[0][0] if len(rows) > 1 else 1.0
    reached = {round((e["t"] - rows[0][0]) / dt): e["lane"]
               for e in log.events if e.get("vehicle") == vehicle_id
               and e["event"] in ("merge_complete", "change_complete")}
    start = kind = None  # the open segment's first row and maneuver
    # The None after the last row closes a segment still open.
    for end, maneuver in enumerate([r[7] for r in rows] + [None]):
        if kind is not None and (maneuver != kind or end in reached):
            lane = reached.get(end)
            if lane is not None:
                moved = abs(centers[lane] - centers[rows[start][6]])
            else:
                moved = abs(rows[end - 1][2] - rows[start][2])
            out.append((kind, moved, lane is not None))
            kind = None
        if kind is None and maneuver in ("merge", "change"):
            start, kind = end, maneuver
    return out


def lateral_disturbance(log: TrajectoryLog, vehicle_id: str) -> float:
    """Total lateral displacement across lane-change maneuvers, added left
    to right: the builtin sum rounds differently from Python 3.12 on."""
    total = 0.0
    for _, moved, _ in lane_change_events(log, vehicle_id):
        total += moved
    return total


def lane_change_count(log: TrajectoryLog, vehicle_id: str) -> int:
    """Completed changes: the change_complete events that also complete
    their segments in lane_change_events."""
    return sum(1 for e in log.events if e.get("vehicle") == vehicle_id
               and e["event"] == "change_complete")


def sweep_scenario(base: dict, q_merge: float, q_mainline: float) -> dict:
    """Scenario variant with a decision-driven adjacent mainline vehicle."""
    data = copy.deepcopy(base)
    qs = {MERGE_ID: q_merge, MAINLINE_ID: q_mainline}
    found = set()
    items = check("vehicles", data.get("vehicles", []), list)
    for i, item in enumerate(items):
        vid = check(f"vehicles[{i}]", item, dict).get("id")
        if vid in (MERGE_ID, MAINLINE_ID):  # compared: an id may not hash
            item["kind"], item["q"] = DECISION, qs[vid]
            found.add(vid)
    missing = qs.keys() - found
    if missing:
        raise ConfigError(f"sweep scenario lacks vehicles: {sorted(missing)}")
    return data


def _refuse_overrides(cfg: RunConfig) -> None:
    if cfg.q_overrides:
        raise ConfigError(
            f"q_overrides: a sweep sets the q of {MERGE_ID!r} and "
            f"{MAINLINE_ID!r} per cell and takes no overrides, "
            f"got {sorted(cfg.q_overrides)}")


def measure_cell(base: dict, q_merge: float, q_mainline: float,
                 cfg: RunConfig) -> DisturbanceReport:
    _refuse_overrides(cfg)
    world = load_scenario(sweep_scenario(base, q_merge, q_mainline), cfg)
    v0 = next(v.v_preset for v in world.vehicles if v.vehicle_id == MAINLINE_ID)
    log = run(world)
    return DisturbanceReport(
        d_long=longitudinal_disturbance(log, MAINLINE_ID, v0),
        d_lat=lateral_disturbance(log, MAINLINE_ID),
        lane_changes=lane_change_count(log, MAINLINE_ID),
        collision=log.collision is not None,
        forced_stop=log.forced_stop,
        q_merge=q_merge, q_mainline=q_mainline, seed=cfg.seed)


def aggressiveness_sweep(base_scenario, q_merge_grid, q_mainline_grid,
                         cfg: RunConfig, jobs: int = 1) -> list:
    """The DisturbanceReport of each aggressiveness pair, q_mainline outer
    and q_merge inner, as grid_to_csv writes them.

    Cells are independent runs; a collision flags its cell but every cell
    is still returned.  Each cell sets the q of merging and vehicle4, so a
    config with q_overrides is refused, before any cell runs, rather than
    ignored.
    """
    _refuse_overrides(cfg)
    q_merge_grid = tuple(q_merge_grid)
    q_mainline_grid = tuple(q_mainline_grid)
    for name, axis in (("q_merge_grid", q_merge_grid),
                       ("q_mainline_grid", q_mainline_grid)):
        if not axis:
            raise ConfigError(f"{name}: must be non-empty, got {axis!r}")
        for i, q in enumerate(axis):
            check(f"{name}[{i}]", q, float, Q_RANGE)
    check_field(RunConfig, "jobs", jobs)
    base = scenario_definition(base_scenario)
    cells = [(base, qm, ql, cfg) for ql in q_mainline_grid
             for qm in q_merge_grid]
    # More workers than cells would only start idle processes.
    workers = min(jobs, len(cells))
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            return pool.starmap(_cell_job, cells)
    return [measure_cell(*cell) for cell in cells]


# The pool pickles a module-level function by name, and each worker looks up
# measure_cell at call time, so a wrapper installed on it also times cells.
def _cell_job(base, qm, ql, cfg):
    return measure_cell(base, qm, ql, cfg)


GRID_COLUMNS = ("q_merge", "q_mainline", "d_long_m", "d_lat_m",
                "lane_changes", "collision", "forced_stop", "seed")


def grid_to_csv(reports) -> str:
    lines = [",".join(GRID_COLUMNS)]
    for r in reports:
        lines.append(f"{r.q_merge:.3f},{r.q_mainline:.3f},{r.d_long:.6f},"
                     f"{r.d_lat:.6f},{r.lane_changes},{int(r.collision)},"
                     f"{int(r.forced_stop)},{r.seed}")
    return "\n".join(lines) + "\n"
