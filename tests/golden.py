#!/usr/bin/env python3
"""The pinned outputs of every built-in `mergesim run` and of both built-in
11x11 grids, kept in golden.json.

    PYTHONPATH=src python3 tests/golden.py

runs each of RUNS through the command line and sweeps each of SCENARIOS over
GRID_AXIS at seed 0, rewrites golden.json next to this file with the sha256
of each run's trajectory CSV and summary JSON and its exit code and with the
CSV line of each grid cell, and prints every run that moved, with how it now
ends, and, for a grid that moved, each moved cell's old and new line.
Rewrite it only for a change that is meant to alter simulated behaviour;
test_cli checks that each run still matches its entry and test_acceptance
each grid.
"""

from contextlib import redirect_stderr, redirect_stdout
import hashlib
import io
import json
import os
import sys
import tempfile

from mergesim.cli import main
from mergesim.config import RunConfig
from mergesim.metrics import aggressiveness_sweep, grid_to_csv

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
SCENARIOS = ("scenario1", "scenario2")
MERGER_QS = (0.0, 0.1, 0.5, 0.9, 1.0)
NOISE_SEEDS = (None, 0, 1, 2)  # None: a clean run
# (key, scenario, merger q, noise seed or None) of every pinned run.
RUNS = tuple(
    (f"{scenario}-q{q}-" + ("clean" if seed is None else f"noise-seed{seed}"),
     scenario, q, seed)
    for scenario in SCENARIOS for q in MERGER_QS for seed in NOISE_SEEDS)
GRID_AXIS = tuple(i / 10 for i in range(11))  # `mergesim sweep --grid 0:1:0.1`


def run_outputs(scenario: str, q: float, seed, workdir: str) -> dict:
    """{"csv", "summary", "exit_code"} of one run: the sha256 of its two
    files and its exit code.  The seed is always given, so that
    MERGE_SIM_SEED cannot reach a clean run's summary."""
    base = _base(workdir)
    argv = ["run", "--scenario", scenario, "--q", f"merging={q}",
            "--seed", str(seed or 0), "--output", base]
    if seed is not None:
        argv.append("--noise")
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = main(argv)
    digests = {}
    for part, suffix in (("csv", ".csv"), ("summary", ".summary.json")):
        with open(base + suffix, "rb") as fh:
            digests[part] = hashlib.sha256(fh.read()).hexdigest()
    return {**digests, "exit_code": code}


def _base(workdir: str) -> str:
    return os.path.join(workdir, "out")


def outcome(workdir: str) -> str:
    """How the run whose files run_outputs wrote in workdir ends: its t_end,
    collision, forced_stop and events, read back from its summary."""
    with open(_base(workdir) + ".summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    return ", ".join(f"{key}={json.dumps(summary[key])}" for key in
                     ("t_end", "collision", "forced_stop", "events"))


def grid_lines(scenario: str) -> list:
    """The CSV lines of the cells of a scenario's grid at seed 0, in file
    order and without the header."""
    reports = aggressiveness_sweep(scenario, GRID_AXIS, GRID_AXIS,
                                   RunConfig())
    return grid_to_csv(reports).splitlines()[1:]


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def regenerate() -> int:
    old = load() if os.path.exists(PATH) else {}
    old_runs, old_grids = old.get("runs", {}), old.get("grids", {})
    new = {"runs": {}, "grids": {}}
    moved = 0
    with tempfile.TemporaryDirectory() as workdir:
        for key, scenario, q, seed in RUNS:
            rundir = os.path.join(workdir, key)
            os.mkdir(rundir)
            new["runs"][key] = run_outputs(scenario, q, seed, rundir)
            if old_runs.get(key) != new["runs"][key]:
                moved += 1
                print(f"moved: {key}" if key in old_runs else f"new: {key}")
                print(f"  now: {outcome(rundir)}")
    print(f"{moved} of {len(RUNS)} runs moved")
    for scenario in SCENARIOS:
        new["grids"][scenario] = grid_lines(scenario)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for scenario, lines in new["grids"].items():
        before = old_grids.get(scenario, [])
        moved = 0
        for i, line in enumerate(lines):
            was = before[i] if i < len(before) else None
            if was != line:
                moved += 1
                row, col = divmod(i, len(GRID_AXIS))
                print(f"moved: {scenario} grid cell q_merge={GRID_AXIS[col]} "
                      f"q_mainline={GRID_AXIS[row]}\n  old: {was}\n"
                      f"  new: {line}")
        print(f"{moved} of {len(lines)} {scenario} grid cells moved")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
