"""Reference readers of a TrajectoryLog, written the slow, obvious way.

i_col is recomputed from VehicleView rectangles, nearest neighbours are
found by scanning every vehicle at every step, a vehicle's rows and i_col
are found by checking the id of every row, the CSV formats every field of
every row, and a scripted vehicle's rows are replayed one step at a time.
Tests compare the log's own readers and rows against these; derived_icol
reads the log's own i_col for them.
"""

import math

from mergesim import world as world_module
from mergesim.perception import VehicleView, collision_index
from mergesim.world import SCRIPTED, TRAJECTORY_COLUMNS


def derived_icol(log):
    """{id: i_col at each whole step} as the write path derives it, joined
    from the blocks world._blocks yields: the exact floats to_csv formats."""
    out = {vid: [] for vid in log.bodies}
    for _, icol in world_module._blocks(log.columns, log.bodies):
        for column, index in zip(out.values(), icol):
            column.extend(index)
    return out


def eager_icol(log):
    """Reference i_col, aligned with log.rows, from VehicleView rectangles
    with the sizes in log.bodies: per step, the nearest other vehicle by
    centre distance, then collision_index of the two."""
    n = len(log.bodies)
    rows = log.rows  # built anew on each read
    out = []
    for start in range(0, len(rows), max(n, 1)):
        views = [VehicleView(r[1], r[2], r[3], r[4], r[5], *log.bodies[r[1]],
                             r[6])
                 for r in rows[start:start + n]]
        for i, view in enumerate(views):
            others = [k for k in range(n) if k != i]
            if not others:
                out.append(0.0)
                continue
            j = min(others, key=lambda k: math.hypot(view.x - views[k].x,
                                                     view.y - views[k].y))
            out.append(collision_index(view.pose(), views[j].pose()))
    return out


def first_nearest(xs, ys):
    """Reference nearest neighbours: at each step, each vehicle scans every
    other in slot order and keeps one only while it is strictly closer by
    centre distance, so a tie goes to the first in slot order.  One list of
    slots per vehicle, or None for a vehicle alone."""
    n = len(xs)
    out = []
    for i in range(n):
        if n < 2:
            out.append(None)
            continue
        column = []
        for t in range(len(xs[i])):
            best, nearest = math.inf, None
            for j in range(n):
                d = math.hypot(xs[i][t] - xs[j][t], ys[i][t] - ys[j][t])
                if j != i and d < best:
                    best, nearest = d, j
            column.append(nearest)
        out.append(column)
    return out


def scanned_rows(log, vehicle_id):
    """The rows of one vehicle, found by checking every row's id."""
    out = [r for r in log.rows if r[1] == vehicle_id]
    if not out:
        raise KeyError(f"no such vehicle in log: {vehicle_id!r}")
    return out


def scanned_icol(log, vehicle_id):
    """The i_col of one vehicle's rows, found by checking every row's id."""
    return [c for r, c in zip(log.rows, eager_icol(log))
            if r[1] == vehicle_id]


def formatted_csv(log):
    """The trajectory CSV with every field of every row formatted."""
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for r, icol in zip(log.rows, eager_icol(log)):
        lines.append(
            f"{r[0]:.2f},{r[1]},{r[2]:.6f},{r[3]:.6f},{r[4]:.6f},"
            f"{r[5]:.6f},{r[6]},{r[7]},{r[8]},{r[9]},{icol:.6f},{r[10]}")
    return "\n".join(lines) + "\n"


def replayed_scripted_rows(world, start_views, steps):
    """{id: rows} of each scripted vehicle of `world` over `steps` steps,
    replayed from its view at the start of the run: the step's time, the
    start x, speed, heading and lane, a y that gains v_preset * dt at every
    step, and empty decision fields."""
    dt = world.cfg.dt
    out = {}
    for veh, view in zip(world.vehicles, start_views):
        if veh.kind != SCRIPTED:
            continue
        rows, y = [], view.y
        for k in range(steps):
            rows.append((k * dt, view.vehicle_id, view.x, y, view.v,
                         view.heading, view.lane, "", "", "", ""))
            y = y + veh.v_preset * dt
        out[view.vehicle_id] = rows
    return out


def bits(record):
    """A row or view with each float as its .hex(), so that comparing two
    tells -0.0 from 0.0."""
    return tuple(f.hex() if isinstance(f, float) else f for f in record)
