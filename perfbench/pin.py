#!/usr/bin/env python3
"""Rewrite expected.json from the current mergesim at the default seed.

    python3 perfbench/pin.py

The benchmark fails any output that differs from these pins, so run this
only for a change that is meant to alter simulated behaviour.
"""

from contextlib import redirect_stderr, redirect_stdout
import io
import json
import os
import tempfile

import run as bench


def main():
    ms = bench.load_modules()
    os.makedirs(bench.WORK, exist_ok=True)
    pins = {"run": {}}
    with tempfile.TemporaryDirectory(dir=bench.WORK) as workdir:
        workload = bench.RunWorkload(ms, bench.DEFAULT_SEED, workdir, pins)
        for scenario, q, noise in workload.tasks:
            key = bench.task_key(scenario, q, noise)
            base = os.path.join(workdir, key)
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                code = ms.cli.main(workload.argv(scenario, q, noise, base))
            digests = {}
            for part, suffix in (("csv", ".csv"), ("summary", ".summary.json")):
                with open(base + suffix, "rb") as fh:
                    digests[part] = bench.sha256(fh.read())
            pins["run"][key] = {**digests, "exit_code": code}
    cfg = ms.config.RunConfig()
    cfg.seed = bench.DEFAULT_SEED
    grid = ms.metrics.aggressiveness_sweep(
        "scenario1", bench.SWEEP_AXIS, bench.SWEEP_AXIS, cfg.validate(), jobs=1)
    text = ms.metrics.grid_to_csv(grid)
    pins["sweep"] = {"grid_csv": text, "sha256": bench.sha256(text.encode())}
    path = os.path.join(bench.HERE, "expected.json")
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
