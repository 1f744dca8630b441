#!/usr/bin/env python3
"""mergesim benchmark: host time of the simulator on three closed-loop
workloads, with byte-exact output checks and an optional traced run that
times each layer from outside the simulator.

    python3 perfbench/run.py --workload run --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Run it from the root of a source checkout; it imports mergesim from src/ and
writes only under .perfbench_tmp/ there.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, measured with no layer probe
installed; with --trace 1 they are the per-layer ones (see spans.py).
README.md next to this file describes the workloads and metrics.
"""

import argparse
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_tmp")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("run", "sweep", "sweep_parallel")
DEFAULT_SEED = 0          # the seed whose outputs expected.json pins
SETUP_PER_ROUND = 2       # set-up launches after each untraced pass
RUN_SCENARIOS = ("scenario1", "scenario2")
RUN_QS = (0.1, 0.5, 0.9)
SWEEP_AXIS = (0.0, 0.25, 0.5, 0.75, 1.0)

# Reported by --trace 0 in the result line; the rest of the end-to-end table
# (task_s_tail, error_rate) is printed but can be null or zero.
E2E_RESULT = ("setup_s", "wall_s", "task_s_p50", "vehicle_steps_per_s",
              "cpu_s", "peak_rss_mb")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "task_s_p50": "s",
             "task_s_tail": "s", "vehicle_steps_per_s": "1/s", "cpu_s": "s",
             "peak_rss_mb": "MB", "error_rate": "fraction"}

SETUP_SNIPPET = (
    "import mergesim.cli\n"
    "from mergesim.config import RunConfig\n"
    "from mergesim.world import load_scenario\n"
    "load_scenario('scenario1', RunConfig().validate())\n")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cpu_seconds():
    """(own CPU, reaped children's CPU) in seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class PassResult:
    """One pass over a workload's task list, in host seconds."""
    body_s: float = 0.0          # wall time inside the program's calls
    cpu_s: float = 0.0           # own plus children's CPU over the same calls
    children_cpu_s: float = 0.0
    rows: int = 0                # trajectory rows simulated
    task_s: list = field(default_factory=list)
    # Host seconds of each cell when the task is a whole parallel grid.
    cell_s: list = field(default_factory=list)
    # (before, after) reference-kernel samples around each cell, or around
    # each task when there are no cells.
    kernel_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    trace: dict = None           # merged span snapshot of a traced pass

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(what)

    def normalised(self):
        """(task times, body time, CPU time) at the reference host's speed.

        Each unit of work is scaled by REFERENCE_S over the mean of the two
        kernel samples around it.  Pass totals, and a task that is a whole
        grid, are scaled by the work-weighted mean of those factors."""
        ref = reference.REFERENCE_S
        factors = [2.0 * ref / (a + b) for a, b in self.kernel_s]
        work = self.cell_s or self.task_s
        mean = sum(w * f for w, f in zip(work, factors)) / sum(work)
        if self.cell_s:
            tasks = [t * mean for t in self.task_s]
        else:
            tasks = [t * f for t, f in zip(self.task_s, factors)]
        return tasks, self.body_s * mean, self.cpu_s * mean

    def speed(self) -> float:
        """Host speed over the pass relative to the reference host."""
        return self.normalised()[1] / self.body_s


@contextmanager
def clocked(result: PassResult):
    """Add the wall and CPU time of the with-body to a pass."""
    own0, kids0 = cpu_seconds()
    start = time.perf_counter()
    try:
        yield
    finally:
        result.body_s += time.perf_counter() - start
        own1, kids1 = cpu_seconds()
        result.cpu_s += (own1 - own0) + (kids1 - kids0)
        result.children_cpu_s += kids1 - kids0


class RunWorkload:
    """`mergesim run` through cli.main: both built-in scenarios at merging
    q in RUN_QS, each once without noise and once with --noise --seed."""

    name = "run"
    jobs = 1

    def __init__(self, ms, seed, workdir, expected):
        self.ms = ms
        self.seed = seed
        self.workdir = workdir
        self.expected = expected["run"]
        self.tasks = [(sc, q, noise) for sc in RUN_SCENARIOS for q in RUN_QS
                      for noise in (False, True)]
        self.first_digests = None

    def argv(self, scenario, q, noise, base):
        argv = ["run", "--scenario", scenario, "--q", f"merging={q}",
                "--output", base]
        if noise:
            argv += ["--noise", "--seed", str(self.seed)]
        return argv

    def warm_up(self):
        with redirect_stdout(io.StringIO()):
            self.ms.cli.main(self.argv(*self.tasks[0],
                                       os.path.join(self.workdir, "warm")))

    def run_pass(self, tracer=None):
        result = PassResult()
        main = self.ms.cli.main
        if tracer is not None:
            main = tracer.timed("cli.main", "cli", main)
        for scenario, q, noise in self.tasks:
            key = task_key(scenario, q, noise)
            base = os.path.join(self.workdir, key)
            result.attempted += 1
            sink = io.StringIO()
            before = reference.sample()
            start = time.perf_counter()
            try:
                with clocked(result), redirect_stdout(sink), \
                        redirect_stderr(sink):
                    code = main(self.argv(scenario, q, noise, base))
            except Exception as exc:  # a task failure, counted and reported
                result.fail(f"{key}: {type(exc).__name__}: {exc}")
                continue
            result.task_s.append(time.perf_counter() - start)
            result.kernel_s.append((before, reference.sample()))
            self.check(result, key, base, code, pinned=(
                not noise or self.seed == DEFAULT_SEED))
        if self.first_digests is None:
            self.first_digests = dict(result.digests)
        elif result.digests != self.first_digests:
            result.fail("outputs differ from the first pass of this run")
        return result

    def check(self, result, key, base, code, pinned):
        try:
            with open(base + ".csv", "rb") as fh:
                csv = fh.read()
            with open(base + ".summary.json", "rb") as fh:
                summary = fh.read()
        except OSError as exc:
            result.fail(f"{key}: output missing: {exc}")
            return
        result.rows += csv.count(b"\n") - 1
        got = {"csv": sha256(csv), "summary": sha256(summary),
               "exit_code": code}
        result.digests[key] = got
        if pinned:
            want = self.expected[key]
            if got != want:
                result.fail(f"{key}: output differs from expected.json")
            return
        problem = run_structure_problem(csv, summary, code,
                                        self.ms.world.TRAJECTORY_COLUMNS)
        if problem:
            result.fail(f"{key}: {problem}")


def task_key(scenario, q, noise):
    return f"{scenario}-q{q}-{'noise' if noise else 'clean'}"


def run_structure_problem(csv: bytes, summary: bytes, code: int, columns):
    """What is wrong with a run's outputs, for a seed without pinned
    digests, or None."""
    try:
        info = json.loads(summary)
        lines = csv.decode("ascii").split("\n")
        if lines[0] != ",".join(columns) or lines[-1] != "":
            return "trajectory header or final newline wrong"
        rows = lines[1:-1]
        steps = round(info["t_end"] / info["config"]["dt"])
        if len(rows) != len(info["vehicles"]) * steps:
            return f"{len(rows)} rows for {len(info['vehicles'])} vehicles " \
                   f"x {steps} steps"
        if any(row.count(",") != len(columns) - 1 for row in rows):
            return "trajectory row with a wrong field count"
        want = 3 if info["collision"] else 4 if info["forced_stop"] else 0
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc}"
    if code != want:
        return f"exit code {code}, outputs imply {want}"
    return None


class CellProbe:
    """Rows and time of every sweep cell, counted in this process or, through
    a spool directory, in forked pool workers.  Wraps two calls per cell
    (metrics.measure_cell and metrics.run), so it stays installed on
    untraced passes too."""

    def __init__(self, metrics, spool, tracer):
        self.metrics = metrics
        self.spool = spool
        self.tracer = tracer
        self.in_worker = False
        self.rows = 0
        self.cells = []          # (seconds, rows, kernel samples) in this process
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.in_worker = True
        self.cells = []
        self.tracer.reset()

    @contextmanager
    def installed(self):
        metrics = self.metrics
        run, measure_cell = metrics.run, metrics.measure_cell

        def counted_run(*args, **kwargs):
            log = run(*args, **kwargs)
            self.rows += len(log.rows)
            return log

        def timed_cell(*args, **kwargs):
            self.rows = 0
            before = reference.sample()
            start = time.perf_counter()
            report = measure_cell(*args, **kwargs)
            elapsed = time.perf_counter() - start
            cell = (elapsed, self.rows, (before, reference.sample()))
            if self.in_worker:
                self._spool(cell)
            else:
                self.cells.append(cell)
            return report

        metrics.run, metrics.measure_cell = counted_run, timed_cell
        try:
            yield
        finally:
            metrics.run, metrics.measure_cell = run, measure_cell

    def _spool(self, cell):
        record = {"cell_s": cell[0], "rows": cell[1], "kernel_s": cell[2]}
        if self.tracer.active:
            record["trace"] = self.tracer.snapshot()
            self.tracer.reset()
        path = os.path.join(self.spool, f"{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    def collect(self):
        """(cells, worker trace snapshots) since the last collect."""
        cells, traces = self.cells, []
        self.cells = []
        for name in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, name)
            with open(path) as fh:
                for line in fh:
                    record = json.loads(line)
                    cells.append((record["cell_s"], record["rows"],
                                  tuple(record["kernel_s"])))
                    if "trace" in record:
                        traces.append(record["trace"])
            os.unlink(path)
        return cells, traces


class SweepWorkload:
    """metrics.aggressiveness_sweep on scenario1 over SWEEP_AXIS x SWEEP_AXIS,
    serial (jobs=1) or with one pool worker per available CPU."""

    def __init__(self, ms, seed, workdir, expected, tracer, jobs):
        self.ms = ms
        self.seed = seed
        self.jobs = jobs
        self.name = "sweep" if jobs == 1 else "sweep_parallel"
        spool = os.path.join(workdir, "spool")
        os.makedirs(spool, exist_ok=True)
        self.probe = CellProbe(ms.metrics, spool, tracer)
        # With noise off the grid depends on the seed only through its seed
        # column, so every seed has an exact expected grid.
        self.want_lines = [
            line if i == 0 else line.rsplit(",", 1)[0] + f",{seed}"
            for i, line in enumerate(expected["sweep"]["grid_csv"].split("\n")[:-1])]

    def config(self):
        cfg = self.ms.config.RunConfig()
        cfg.seed = self.seed
        return cfg.validate()

    def warm_up(self):
        if self.jobs > 1:
            import multiprocessing  # noqa: F401  (imported lazily by the sweep)
        self.ms.metrics.measure_cell(
            self.ms.world.scenario_definition("scenario1"), 0.5, 0.5,
            self.config())

    def run_pass(self, tracer=None):
        ms = self.ms
        result = PassResult()
        cells = len(SWEEP_AXIS) ** 2
        result.attempted = cells if self.jobs == 1 else 1
        sweep = ms.metrics.aggressiveness_sweep
        if tracer is not None:
            sweep = tracer.timed("metrics.aggressiveness_sweep",
                                 "metrics.sweep", sweep)
        cfg = self.config()
        try:
            with self.probe.installed(), clocked(result):
                grid = sweep("scenario1", SWEEP_AXIS, SWEEP_AXIS, cfg,
                             jobs=self.jobs)
                text = ms.metrics.grid_to_csv(grid)
        except Exception as exc:  # a failed grid fails all its tasks
            result.fail(f"grid: {type(exc).__name__}: {exc}", result.attempted)
            self.probe.collect()
            return result
        measured, traces = self.probe.collect()
        # The kernel samples ran inside the timed sweep; take them out.
        kernel_total = sum(a + b for _, _, (a, b) in measured)
        result.body_s -= kernel_total / self.jobs
        result.cpu_s -= kernel_total
        if self.jobs > 1:
            result.children_cpu_s -= kernel_total
        result.rows = sum(rows for _, rows, _ in measured)
        result.kernel_s = [k for _, _, k in measured]
        cell_s = [seconds for seconds, _, _ in measured]
        if self.jobs == 1:
            result.task_s = cell_s
        else:
            result.task_s, result.cell_s = [result.body_s], cell_s
        if tracer is not None:
            result.trace = spans.merge([tracer.snapshot(), *traces])
        result.digests["grid"] = sha256(text.encode())
        got = text.split("\n")[:-1]
        bad = sum(a != b for a, b in zip(got[1:], self.want_lines[1:]))
        bad += abs(len(got) - len(self.want_lines))
        if got[:1] != self.want_lines[:1] or len(measured) != cells:
            bad = max(bad, 1)
        if bad:
            result.fail(f"grid: {bad} of {cells} cells differ from expected.json",
                        min(bad, result.attempted))
        return result


def load_modules():
    """The mergesim modules the benchmark drives, imported from src/."""
    if not os.path.isfile(os.path.join(SRC, "mergesim", "__init__.py")):
        raise ImportError(f"no mergesim package under {SRC}")
    sys.path.insert(0, SRC)
    import mergesim.cli
    import mergesim.config
    import mergesim.metrics
    import mergesim.world
    return mergesim


def time_setup(launches):
    """Wall seconds for each of `launches` fresh interpreters to import
    mergesim, build a RunConfig and load a scenario."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("MERGE_SIM_SEED", None)
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: "
                               + proc.stderr.decode(errors="replace"))
    return times


def closed_loop(seconds, one_round):
    """Call one_round until the next call would end after the deadline, or
    at least once; rounds run back to back."""
    deadline = time.perf_counter() + seconds
    laps = []
    while True:
        start = time.perf_counter()
        one_round()
        laps.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(laps) > deadline:
            return


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def _median_or_none(values):
    return statistics.median(values) if values else None


def end_to_end(passes, setup_times, rss_mb):
    """(reported metrics, the same in host seconds, sample counts).

    Times are medians at the reference host's speed (see reference.py);
    passes whose grid failed as a whole have no tasks and are left out.
    A launch is too short to pair with kernel samples, so set-up time is
    scaled by the median host speed of the passes it was interleaved with."""
    done = [p for p in passes if p.task_s]
    norm = [p.normalised() for p in done]
    tasks = [t for n in norm for t in n[0]]
    host_tasks = [t for p in done for t in p.task_s]
    rows = sum(p.rows for p in done)
    body = sum(n[1] for n in norm)
    host_body = sum(p.body_s for p in done)
    pct, tail_s = stats.tail(tasks) if tasks else (None, None)
    speed = _median_or_none([p.speed() for p in done])
    setup_s = statistics.median(setup_times)
    metrics = {
        "setup_s": setup_s * speed if speed else None,
        "wall_s": _median_or_none([n[1] for n in norm]),
        "task_s_p50": _median_or_none(tasks),
        "task_s_tail": tail_s,
        "vehicle_steps_per_s": rows / body if body else None,
        "cpu_s": _median_or_none([n[2] for n in norm]),
        "peak_rss_mb": rss_mb,
        "error_rate": stats.error_rate(sum(p.failed for p in passes),
                                       sum(p.attempted for p in passes)),
    }
    host = {
        "setup_s": setup_s,
        "wall_s": _median_or_none([p.body_s for p in done]),
        "task_s_p50": _median_or_none(host_tasks),
        "task_s_tail": stats.tail(host_tasks)[1] if host_tasks else None,
        "vehicle_steps_per_s": rows / host_body if host_body else None,
        "cpu_s": _median_or_none([p.cpu_s for p in done]),
    }
    info = {"tail_percentile": pct, "tasks": len(tasks), "passes": len(done),
            "setup_launches": len(setup_times),
            "host_speed": speed}
    return metrics, host, info


def pool_metrics(passes, jobs):
    """Worker CPU over (jobs x wall) on untraced passes; with jobs=1 the
    worker is this process."""
    done = [p for p in passes if p.task_s]
    busy = [(p.children_cpu_s if jobs > 1 else p.cpu_s) / (jobs * p.body_s)
            for p in done]
    return {"pool.busy_fraction": _median_or_none(busy),
            "pool.children_cpu_s": _median_or_none([p.children_cpu_s
                                                    for p in done])}


def traced_metrics(plain, traced, missing, jobs):
    """Per-layer metrics of a traced run, and the problems found in it."""
    problems = []
    per_pass = [spans.layer_metrics(p.trace, missing) for p in traced]
    first = per_pass[0]
    for other in per_pass[1:]:
        differ = [k for k in spans.COUNT_METRICS if other[k] != first[k]]
        if differ:
            problems.append(f"traced passes disagree on {', '.join(differ)}")
    snap_calls = first["world.snapshot.calls"]
    if snap_calls is not None and first["world.steps"] is not None \
            and snap_calls != 2 * first["world.steps"]:
        problems.append(f"world.snapshot.calls={snap_calls} is not 2 x "
                        f"world.steps={first['world.steps']}")
    out = {}
    for key, value in first.items():
        if key in spans.COUNT_METRICS or value is None:
            out[key] = value
        else:
            out[key] = statistics.median([m[key] for m in per_pass])
    out.update(pool_metrics(plain, jobs))
    traced_s = [p.normalised()[1] for p in traced if p.task_s]
    plain_s = [p.normalised()[1] for p in plain if p.task_s]
    out["trace_overhead"] = (statistics.median(traced_s) / statistics.median(plain_s)
                             - 1.0 if traced_s and plain_s else None)
    return out, problems


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_ratio", "_fraction", "trace_overhead")):
        return "fraction"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("per_step"):
        return "count/step"
    return "count"


def run_one(ms, name, seed, seconds, trace, workdir):
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    tracer = spans.Tracer()
    if name == "run":
        bench = RunWorkload(ms, seed, workdir, expected)
    else:
        bench = SweepWorkload(ms, seed, workdir, expected, tracer,
                              jobs=1 if name == "sweep" else available_cpus())
    bench.warm_up()
    plain, traced = [], []
    if trace:
        def one_round():
            plain.append(bench.run_pass())
            tracer.reset()
            with tracer.installed():
                traced.append(bench.run_pass(tracer))
            if traced[-1].trace is None:
                traced[-1].trace = tracer.snapshot()
    else:
        # Set-up is timed between passes, not all at once, so that its
        # median spans the same stretch of host time as the passes.
        time_setup(1)   # warm-up: bytecode caches, page cache
        setup_times = []

        def one_round():
            plain.append(bench.run_pass())
            setup_times.extend(time_setup(SETUP_PER_ROUND))
    closed_loop(seconds, one_round)
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]

    print(f"workload {name}: seed {seed}, jobs {bench.jobs}, closed loop, "
          f"{len(plain)} untraced + {len(traced)} traced passes")
    if trace:
        metrics, trace_problems = traced_metrics(plain, traced,
                                                 tracer.missing, bench.jobs)
        problems += trace_problems
        for key, value in metrics.items():
            shown = "MISSING" if value is None else f"{value:.6g}"
            print(f"  {key:<44} {shown:>12} {layer_unit(key)}")
        if tracer.missing:
            print("  missing probe targets: " + ", ".join(tracer.missing))
        result_metrics = {k: {"value": v, "unit": layer_unit(k)}
                          for k, v in metrics.items()}
    else:
        metrics, host, info = end_to_end(plain, setup_times, peak_rss_mb())
        speed = info["host_speed"]
        print(f"  {'metric':<22} {'value':>12} {'unit':<9} {'host value':>12}"
              f"  (host speed {speed:.3f} x the reference host)"
              if speed else "  no pass completed")
        for key, value in metrics.items():
            shown = "null" if value is None else f"{value:.6g}"
            raw = host.get(key)
            raw = "" if raw is None else f"{raw:.6g}"
            note = ""
            if key == "task_s_tail":
                note = (f"p{info['tail_percentile']:g} of {info['tasks']} tasks"
                        if value is not None else
                        f"too few tasks ({info['tasks']}) for a tail")
            elif key == "task_s_p50":
                note = f"of {info['tasks']} tasks"
            elif key in ("wall_s", "cpu_s"):
                note = f"median of {info['passes']} passes"
            elif key == "setup_s":
                note = f"median of {info['setup_launches']} launches"
            elif key == "error_rate":
                note = f"{failed} of {attempted} tasks"
            print(f"  {key:<22} {shown:>12} {E2E_UNITS[key]:<9} {raw:>12}  "
                  f"{note}")
        result_metrics = {k: {"value": metrics[k], "unit": E2E_UNITS[k]}
                          for k in E2E_RESULT}
    digests = plain[-1].digests
    print("  output sha256 of the last untraced pass, all outputs combined: "
          + sha256(json.dumps(digests, sort_keys=True).encode()))
    for key in sorted(digests):
        print(f"    {key}: {json.dumps(digests[key], sort_keys=True)}")
    for msg in problems[:20]:
        print(f"  FAILED: {msg}")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": result_metrics}


def run_all(seed, seconds, trace):
    """Each workload in a fresh interpreter; their results side by side."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("MERGE_SIM_SEED", None)   # the CLI would read it as --seed
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            ms = load_modules()
            os.makedirs(WORK, exist_ok=True)
            workdir = tempfile.mkdtemp(dir=WORK)
            try:
                result = run_one(ms, args.workload, args.seed, args.seconds,
                                 args.trace, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
                try:
                    os.rmdir(WORK)
                except OSError:
                    pass   # another run is still using it
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError,
            ValueError, KeyError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
