#!/usr/bin/env python3
"""The pinned outputs of every built-in `mergesim run`, kept in golden.json.

    PYTHONPATH=src python3 tests/golden.py

runs each of RUNS through the command line, rewrites golden.json next to
this file with the sha256 of each run's trajectory CSV and summary JSON and
its exit code, and prints every run whose entry moved.  Rewrite it only for
a change that is meant to alter simulated behaviour; test_cli checks that
each run still matches its entry.
"""

from contextlib import redirect_stderr, redirect_stdout
import hashlib
import io
import json
import os
import sys
import tempfile

from mergesim.cli import main

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
SCENARIOS = ("scenario1", "scenario2")
MERGER_QS = (0.0, 0.1, 0.5, 0.9, 1.0)
NOISE_SEEDS = (None, 0, 1, 2)  # None: a clean run
# (key, scenario, merger q, noise seed or None) of every pinned run.
RUNS = tuple(
    (f"{scenario}-q{q}-" + ("clean" if seed is None else f"noise-seed{seed}"),
     scenario, q, seed)
    for scenario in SCENARIOS for q in MERGER_QS for seed in NOISE_SEEDS)


def run_outputs(scenario: str, q: float, seed, workdir: str) -> dict:
    """{"csv", "summary", "exit_code"} of one run: the sha256 of its two
    files and its exit code.  The seed is always given, so that
    MERGE_SIM_SEED cannot reach a clean run's summary."""
    base = os.path.join(workdir, "out")
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


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def regenerate() -> int:
    old = load() if os.path.exists(PATH) else {}
    new = {}
    with tempfile.TemporaryDirectory() as workdir:
        for key, scenario, q, seed in RUNS:
            new[key] = run_outputs(scenario, q, seed, workdir)
    moved = [key for key, _, _, _ in RUNS if old.get(key) != new[key]]
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for key in moved:
        print(f"moved: {key}" if key in old else f"new: {key}")
    print(f"wrote {PATH}: {len(moved)} of {len(RUNS)} runs moved")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
