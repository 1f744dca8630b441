"""Layer spans timed from outside the simulator.

A probe replaces one callable with a timing wrapper at the place its caller
looks the name up (``mergesim.world.step``, not ``mergesim.dynamics.step``),
so the simulator's source stays untouched and uninstalling restores it
exactly.  Spans nest: a span's self time is its duration minus the time its
child spans cover, and each span is charged to one layer.  A probe whose
target no longer exists is recorded as missing, and every number derived
from it is reported as missing rather than as zero.
"""

from contextlib import contextmanager
from dataclasses import dataclass
import importlib
import time
from typing import Callable, Optional

W, C, M, P, L = ("mergesim.world", "mergesim.cli", "mergesim.metrics",
                 "mergesim.planner", "mergesim.logio")


def _steps(args, kwargs, log):
    vehicles = len(args[0].vehicles)
    return {"world.steps": len(log.rows) // vehicles if vehicles else 0}


def _brain_changed(args, kwargs, brain):
    before = args[2] if len(args) > 2 else kwargs["brain"]
    return {"planner.decide.changed": int(brain != before)}


def _bytes_written(args, kwargs, _):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"logio.write_atomic.bytes": len(text.encode("utf-8"))}


def _rows_scanned(args, kwargs, _):
    return {"logio.vehicle_rows.rows_scanned": len(args[0].rows)}


@dataclass(frozen=True)
class Probe:
    span: str               # span name; probes may share one
    module: str             # module whose namespace the caller reads
    attr: str               # "name" or "Class.method" inside that module
    layer: str              # layer the span's self time is charged to
    inherit: bool = False   # charge to the enclosing span's layer instead
    count: Optional[Callable] = None  # (args, kwargs, result) -> counters

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


PROBES = (
    Probe("world.snapshot", W, "World.snapshot", "world.snapshot"),
    Probe("world.nearest_pairs", W, "_nearest_pairs", "world.record"),
    Probe("perception.collision_index", W, "collision_index", "world.record"),
    Probe("world.log_append", W, "TrajectoryLog.append", "world.record"),
    Probe("world.find_collision", W, "_find_collision", "world.collide"),
    Probe("perception.rects_intersect", W, "rects_intersect", "world.collide"),
    Probe("dynamics.step", W, "step", "dynamics.step"),
    Probe("driver.controls", W, "_controls_for", "driver.controls"),
    Probe("planner.decide", W, "decide", "planner", count=_brain_changed),
    Probe("perception.classify_vicinity", W, "classify_vicinity", "planner"),
    Probe("planner.entrance_threat", W, "entrance_threat", "planner"),
    Probe("planner.merging_game", P, "merging_game", "planner"),
    Probe("planner.acceleration_game", P, "acceleration_game", "planner"),
    Probe("planner.discretionary_lane_change", P,
          "discretionary_lane_change", "planner"),
    Probe("game.solve_stackelberg", P, "solve_stackelberg", "planner"),
    Probe("world.run", C, "run_world", "world.run", count=_steps),
    Probe("world.run", M, "run", "world.run", count=_steps),
    Probe("world.load_scenario", C, "load_scenario", "world.load_scenario"),
    Probe("world.load_scenario", M, "load_scenario", "world.load_scenario"),
    Probe("logio.to_csv", W, "TrajectoryLog.to_csv", "logio.output"),
    Probe("logio.write_atomic", L, "write_atomic", "logio.output",
          count=_bytes_written),
    Probe("logio.write_atomic", C, "write_atomic", "logio.output",
          count=_bytes_written),
    Probe("cli.summarize", C, "_summarize", "logio.output"),
    # Read both while writing the summary and while measuring disturbance.
    Probe("logio.vehicle_rows", W, "TrajectoryLog.vehicle_rows",
          "logio.output", inherit=True, count=_rows_scanned),
    Probe("metrics.longitudinal_disturbance", C, "longitudinal_disturbance",
          "metrics.disturbance"),
    Probe("metrics.lane_change_count", C, "lane_change_count",
          "metrics.disturbance"),
    Probe("metrics.longitudinal_disturbance", M, "longitudinal_disturbance",
          "metrics.disturbance"),
    Probe("metrics.lateral_disturbance", M, "lateral_disturbance",
          "metrics.disturbance"),
    Probe("metrics.lane_change_count", M, "lane_change_count",
          "metrics.disturbance"),
    Probe("metrics.measure_cell", M, "measure_cell", "metrics.sweep"),
)

# Layers in report order.  "cli" and "metrics.sweep" hold the self time of
# the benchmark's task spans (argument parsing and printing; cell set-up and,
# with a pool, waiting for the workers), so the layers add up to task time.
LAYERS = ("world.snapshot", "world.record", "world.collide", "dynamics.step",
          "driver.controls", "planner", "world.run", "world.load_scenario",
          "logio.output", "metrics.disturbance", "metrics.sweep", "cli")


def _resolve(probe: Probe):
    """(owner, attribute name) of a probe's target, or None if it is gone."""
    try:
        owner = importlib.import_module(probe.module)
    except ImportError:
        return None
    *path, name = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class Tracer:
    """Nested spans kept in memory as per-(span, layer) totals."""

    def __init__(self):
        self.missing = []
        self._undo = []
        self.reset()

    def reset(self) -> None:
        self.spans = {}     # (span, layer) -> [calls, total_ns, self_ns]
        self.counters = {}
        self._stack = []    # open spans: [child_ns, layer]

    @property
    def active(self) -> bool:
        return bool(self._undo)

    def timed(self, span: str, layer: str, fn, *, inherit: bool = False,
              count=None):
        """fn wrapped so that each call records one span."""
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = self._stack
            own = stack[-1][1] if inherit and stack else layer
            frame = [0, own]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                rec = self.spans.get((span, own))
                if rec is None:
                    rec = self.spans[(span, own)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[0]
            if count is not None:
                counters = self.counters
                for key, amount in count(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, probes=PROBES):
        """Probes in place for the body of the with-statement."""
        self.missing = []
        try:
            for probe in probes:
                where = _resolve(probe)
                if where is None:
                    self.missing.append(probe.target)
                    continue
                owner, name = where
                original = getattr(owner, name)
                self._undo.append((owner, name, original))
                setattr(owner, name, self.timed(
                    probe.span, probe.layer, original, inherit=probe.inherit,
                    count=probe.count))
            yield self
        finally:
            while self._undo:
                owner, name, original = self._undo.pop()
                setattr(owner, name, original)

    def snapshot(self) -> dict:
        """The totals as plain JSON data, for merging across processes."""
        return {"spans": [[s, lyr, *rec] for (s, lyr), rec in
                          sorted(self.spans.items())],
                "counters": dict(self.counters)}


def merge(snapshots) -> dict:
    """Sum of several snapshot() results."""
    spans, counters = {}, {}
    for snap in snapshots:
        for span, layer, calls, total, own in snap["spans"]:
            rec = spans.setdefault((span, layer), [0, 0, 0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for key, amount in snap["counters"].items():
            counters[key] = counters.get(key, 0) + amount
    return {"spans": [[s, lyr, *rec] for (s, lyr), rec in sorted(spans.items())],
            "counters": counters}


def _missing_spans(missing):
    return {p.span for p in PROBES if p.target in missing}


def _missing_layers(missing):
    return {p.layer for p in PROBES if p.target in missing}


def layer_metrics(snap: dict, missing=()) -> dict:
    """Per-layer numbers of one pass: {metric name: value or None}.

    `.calls` counts spans charged to the layer, `.self_s` sums their self
    time and `.share` divides that by the total time spent in world.run.
    A layer with a missing probe, and every figure taken from a missing
    span, is None.
    """
    gone_layers = _missing_layers(missing)
    gone_spans = _missing_spans(missing)
    calls, self_ns = {}, {}
    span_calls, span_total = {}, {}
    for span, layer, n, total, own in snap["spans"]:
        calls[layer] = calls.get(layer, 0) + n
        self_ns[layer] = self_ns.get(layer, 0) + own
        span_calls[span] = span_calls.get(span, 0) + n
        span_total[span] = span_total.get(span, 0) + total
    counters = snap["counters"]
    run_ns = span_total.get("world.run", 0)

    out = {}
    for layer in LAYERS:
        gone = layer in gone_layers
        out[f"{layer}.calls"] = None if gone else calls.get(layer, 0)
        out[f"{layer}.self_s"] = None if gone else self_ns.get(layer, 0) / 1e9
        out[f"{layer}.share"] = (None if gone or "world.run" in gone_spans
                                 or not run_ns
                                 else self_ns.get(layer, 0) / run_ns)

    def span_count(span):
        return None if span in gone_spans else span_calls.get(span, 0)

    steps = None if "world.run" in gone_spans else counters.get("world.steps", 0)
    out["world.steps"] = steps
    out["world.record.icol_computed"] = span_count("perception.collision_index")
    rects = span_count("perception.rects_intersect")
    out["perception.rects_intersect.calls_per_step"] = (
        rects / steps if rects is not None and steps else None)
    for span in ("planner.decide", "perception.classify_vicinity",
                 "planner.entrance_threat", "planner.merging_game",
                 "planner.acceleration_game",
                 "planner.discretionary_lane_change",
                 "game.solve_stackelberg"):
        out[f"{span}.calls"] = span_count(span)
    decided = span_count("planner.decide")
    out["planner.decide.change_ratio"] = (
        counters.get("planner.decide.changed", 0) / decided
        if decided else None)
    for key, span in (("logio.write_atomic.bytes", "logio.write_atomic"),
                      ("logio.vehicle_rows.rows_scanned", "logio.vehicle_rows")):
        out[key] = None if span in gone_spans else counters.get(key, 0)
    return out


# Per-layer metrics that count work: two traced passes over the same inputs
# must give identical values.
COUNT_METRICS = tuple(
    [f"{layer}.calls" for layer in LAYERS]
    + ["world.steps", "world.record.icol_computed",
       "perception.rects_intersect.calls_per_step", "planner.decide.calls",
       "perception.classify_vicinity.calls", "planner.entrance_threat.calls",
       "planner.merging_game.calls", "planner.acceleration_game.calls",
       "planner.discretionary_lane_change.calls",
       "game.solve_stackelberg.calls", "planner.decide.change_ratio",
       "logio.write_atomic.bytes", "logio.vehicle_rows.rows_scanned"])
