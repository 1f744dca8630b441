"""Command-line surface: run scenarios, sweep aggressiveness grids, plot logs.

Exit codes: 0 success, 2 configuration error, 3 a collision occurred,
4 a forced stop occurred.
"""

import argparse
import json
import math
import os
import sys

from .config import (Q_RANGE, ConfigError, RunConfig, check, parse_text,
                     read_json_object)
from .logio import open_atomic, read_trajectory, write_atomic
from .metrics import (aggressiveness_sweep, grid_to_csv, lane_change_count,
                      longitudinal_disturbance)
from .road import LaneGeometry
from .svgplot import render
from .world import (DECISION, geometry_from_dict, geometry_to_dict,
                    load_scenario, run as run_world)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLISION = 3
EXIT_FORCED_STOP = 4

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with config values")
    parser.add_argument("--scenario", help="built-in name or scenario file")
    parser.add_argument("--q", action="append", default=[], metavar="ID=VALUE",
                        help="aggressiveness override per vehicle id")
    parser.add_argument("--dt")
    parser.add_argument("--epoch")
    parser.add_argument("--t-max", dest="t_max")
    parser.add_argument("--seed")
    parser.add_argument("--noise", action="store_true", default=None)
    parser.add_argument("--noise-sigma", dest="noise_sigma")
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config field")


def build_config(args) -> RunConfig:
    data = read_json_object(args.config, "config file") if args.config else {}
    cfg = RunConfig.from_dict(data)
    env_seed = os.environ.get("MERGE_SIM_SEED")
    if args.seed is None and env_seed is not None and "seed" not in data:
        cfg.seed = check("MERGE_SIM_SEED", parse_text(env_seed, int), int)
    for raw in args.q:
        vid, _, value = raw.partition("=")
        if not _ or not vid:
            raise ConfigError(f"--q expects ID=VALUE, got {raw!r}")
        cfg.q_overrides[vid] = parse_text(value, float)
    fields = RunConfig.__dataclass_fields__
    # Flags set the fields their dests name, before --set and parsed as it
    # parses, so validate() checks them and a bad one ends in one error line.
    pairs = [(key, getattr(args, key)) for key in fields
             if getattr(args, key, None) is not None]
    for raw in args.set:
        key, _, value = raw.partition("=")
        declared = fields.get(key)
        if not _ or declared is None:
            raise ConfigError(f"--set: unknown config field {key!r}")
        if declared.type is dict:  # q_overrides, the one field of this kind
            raise ConfigError(f"--set: {key} takes no single value; give "
                              "each override as --q ID=VALUE")
        pairs.append((key, value))
    for key, value in pairs:
        setattr(cfg, key, parse_text(value, fields[key].type))
    return cfg.validate()


def _sat_distance(i_col: float) -> float:
    """-ln i_col: 0 from 1 up, inf at 0.0, where exp(-d) underflowed."""
    if i_col >= 1.0:
        return 0.0
    return -math.log(i_col) if i_col > 0.0 else math.inf


def _summarize(log, world, cfg, peaks) -> dict:
    """A run's summary, given the i_col peaks that log.to_csv returned."""
    vehicles = {}
    for veh in world.vehicles:
        last = log.last_row(veh.vehicle_id)
        i_col = peaks[veh.vehicle_id]
        entry = {
            "kind": veh.kind,
            "q": veh.q if veh.kind == DECISION else None,
            "final_lane": last[6],
            "final_x_lat": round(last[2], 4),
            "final_y_long": round(last[3], 4),
            "final_v": round(last[4], 4),
            # _sat_distance is non-increasing, so the largest index maps to
            # the smallest distance; at 0.0 no vehicle came within range.
            "min_gap_m": round(_sat_distance(i_col), 4) if i_col else None,
        }
        if veh.kind == DECISION:
            merge_events = [e for e in log.events
                            if e.get("vehicle") == veh.vehicle_id
                            and e["event"] == "merge_complete"]
            entry["merge_time"] = merge_events[0]["t"] if merge_events else None
            entry["lane_changes"] = lane_change_count(log, veh.vehicle_id)
            entry["d_long_m"] = round(
                longitudinal_disturbance(log, veh.vehicle_id, veh.v_preset), 4)
        vehicles[veh.vehicle_id] = entry
    return {
        "scenario": cfg.scenario,
        "t_end": round(log.end_time, 4),
        "collision": log.collision,
        "forced_stop": log.forced_stop,
        "events": log.events,
        "vehicles": vehicles,
        "geometry": geometry_to_dict(world.geometry),
        "config": cfg.to_dict(),
    }


def cmd_run(args) -> int:
    cfg = build_config(args)
    world = load_scenario(cfg.scenario, cfg)
    log = run_world(world)
    base = args.output or os.path.join(
        cfg.out_dir, os.path.splitext(os.path.basename(cfg.scenario))[0])
    traj_path = base + ".csv"
    summary_path = base + ".summary.json"
    with open_atomic(traj_path) as fh:
        peaks = log.to_csv(fh)
    summary = _summarize(log, world, cfg, peaks)
    write_atomic(summary_path,
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"trajectory: {traj_path}")
    print(f"summary:    {summary_path}")
    for vid, entry in summary["vehicles"].items():
        if entry["kind"] != DECISION:
            continue
        merge_time = entry.get("merge_time")
        merged = f"merged at t={merge_time:.2f}s" if merge_time is not None \
            else "did not merge"
        gap = entry["min_gap_m"]
        gap = ("no other vehicle came within range" if gap is None
               else f"min gap {gap:.2f} m")
        print(f"  {vid}: q={entry['q']}, {merged}, final lane "
              f"{entry['final_lane']}, lane changes {entry['lane_changes']}, "
              f"{gap}")
    if log.collision:
        pair = " / ".join(log.collision["vehicles"])
        print(f"COLLISION at t={log.collision['t']:.2f}s between {pair}",
              file=sys.stderr)
        return EXIT_COLLISION
    if log.forced_stop:
        print("FORCED STOP: a merging vehicle ran out of room",
              file=sys.stderr)
        return EXIT_FORCED_STOP
    return EXIT_OK


MAX_GRID_POINTS = 101  # q values per --grid axis


def parse_grid(raw: str):
    """Distinct q values from START:STOP:STEP, none past STOP; their count
    is checked against MAX_GRID_POINTS before any value is built."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid expects start:stop:step, got {raw!r}")
    start, stop, step_size = (parse_text(p, float) for p in parts)
    check("--grid start", start, float, Q_RANGE)
    check("--grid stop", stop, float, f"[{start!r}, 1]")
    check("--grid step", step_size, float, "(0, inf)")
    intervals = (stop - start) / step_size
    count = (math.floor(intervals + 1e-9) if math.isfinite(intervals)
             else intervals)
    check("--grid points", count + 1, float, f"[1, {MAX_GRID_POINTS}]")
    values = tuple(min(round(start + i * step_size, 10), stop)
                   for i in range(count + 1))
    if len(set(values)) < len(values):
        raise ConfigError(f"--grid step: must tell q values apart at 10 "
                          f"decimals, got {step_size!r}")
    return values


def cmd_sweep(args) -> int:
    cfg = build_config(args)
    grid_axis = parse_grid(args.grid)
    reports = aggressiveness_sweep(cfg.scenario, grid_axis, grid_axis, cfg,
                                   jobs=cfg.jobs)
    base = args.output or os.path.join(cfg.out_dir, "sweep")
    path = base + ".csv"
    write_atomic(path, grid_to_csv(reports))
    print(f"grid: {path} ({len(reports)} cells)")
    return EXIT_OK


def cmd_plot(args) -> int:
    rows = read_trajectory(args.trajectory)
    geometry = _geometry_for_plot(args)
    svg = render(rows, geometry)
    out = args.output or os.path.splitext(args.trajectory)[0] + ".svg"
    write_atomic(out, svg)
    print(f"svg: {out}")
    return EXIT_OK


def _geometry_for_plot(args) -> LaneGeometry:
    summary_path = args.summary
    if summary_path is None:
        summary_path = os.path.splitext(args.trajectory)[0] + ".summary.json"
        if not os.path.exists(summary_path):
            return LaneGeometry()
    summary = read_json_object(summary_path, "summary file")
    if "geometry" not in summary:
        raise ConfigError(f"summary file {summary_path}: no geometry object")
    try:
        return geometry_from_dict(summary["geometry"])
    except ConfigError as exc:
        raise ConfigError(f"summary file {summary_path}: {exc}")


def cmd_dump_config(args) -> int:
    cfg = build_config(args)
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mergesim",
        description="Deterministic game-theoretic highway merging simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    _add_common(p_run)
    p_run.add_argument("--output", help="output basename (default from scenario)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="aggressiveness grid sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--grid", required=True, metavar="START:STOP:STEP")
    p_sweep.add_argument("--jobs")
    p_sweep.add_argument("--output", help="output basename")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="render a trajectory file to SVG")
    p_plot.add_argument("trajectory")
    p_plot.add_argument("--output")
    p_plot.add_argument("--summary", help="summary JSON holding the geometry")
    p_plot.set_defaults(func=cmd_plot)

    p_dump = sub.add_parser("dump-config", help="print the effective config")
    _add_common(p_dump)
    p_dump.set_defaults(func=cmd_dump_config)

    args = parser.parse_args(argv)
    # Escape what an ASCII terminal cannot show, as stderr does; the
    # StringIO a caller may redirect stdout to has no reconfigure.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
