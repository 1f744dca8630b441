"""Span arithmetic: nested self time, layer charging and missing probes."""

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter_ns", fake)
    return fake


def test_self_time_subtracts_nested_child_spans(clock):
    tracer = spans.Tracer()

    def leaf():
        clock.now += 5

    def middle():
        clock.now += 2
        leaf_span()
        clock.now += 1
        leaf_span()

    def outer():
        clock.now += 10
        middle_span()
        clock.now += 3

    leaf_span = tracer.timed("leaf", "dynamics.step", leaf)
    middle_span = tracer.timed("middle", "driver.controls", middle)
    tracer.timed("world.run", "world.run", outer)()

    assert tracer.spans[("leaf", "dynamics.step")] == [2, 10, 10]
    assert tracer.spans[("middle", "driver.controls")] == [1, 13, 3]
    assert tracer.spans[("world.run", "world.run")] == [1, 26, 13]
    layers = spans.layer_metrics(tracer.snapshot())
    assert layers["dynamics.step.calls"] == 2
    assert layers["dynamics.step.self_s"] == pytest.approx(10e-9)
    assert layers["world.run.self_s"] == pytest.approx(13e-9)
    assert layers["driver.controls.self_s"] == pytest.approx(3e-9)
    # Self times of all spans add up to the outermost span's duration.
    total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(26e-9)
    assert layers["dynamics.step.share"] == pytest.approx(10 / 26)


def test_span_is_recorded_when_the_call_raises(clock):
    tracer = spans.Tracer()

    def boom():
        clock.now += 4
        raise RuntimeError("boom")

    def outer():
        clock.now += 1
        with pytest.raises(RuntimeError):
            inner()

    inner = tracer.timed("inner", "planner", boom)
    tracer.timed("outer", "world.run", outer)()
    assert tracer.spans[("inner", "planner")] == [1, 4, 4]
    assert tracer.spans[("outer", "world.run")] == [1, 5, 1]


def test_inheriting_span_is_charged_to_the_enclosing_layer(clock):
    tracer = spans.Tracer()

    def rows():
        clock.now += 2

    rows_span = tracer.timed("logio.vehicle_rows", "logio.output", rows,
                             inherit=True)
    tracer.timed("metrics.lane_change_count", "metrics.disturbance",
                 rows_span)()
    rows_span()   # outside any span: its own layer
    assert tracer.spans[("logio.vehicle_rows", "metrics.disturbance")][0] == 1
    assert tracer.spans[("logio.vehicle_rows", "logio.output")][0] == 1


def test_merge_sums_snapshots(clock):
    a, b = spans.Tracer(), spans.Tracer()
    a.spans[("x", "planner")] = [1, 5, 4]
    a.counters["world.steps"] = 3
    b.spans[("x", "planner")] = [2, 7, 6]
    b.spans[("y", "world.run")] = [1, 9, 9]
    b.counters["world.steps"] = 4
    merged = spans.merge([a.snapshot(), b.snapshot()])
    assert merged["spans"] == [["x", "planner", 3, 12, 10],
                               ["y", "world.run", 1, 9, 9]]
    assert merged["counters"] == {"world.steps": 7}


def test_missing_probe_target_is_reported_missing_not_zero(monkeypatch):
    import mergesim.world as world
    original_step = world.step
    monkeypatch.delattr(world, "_controls_for")
    tracer = spans.Tracer()
    with tracer.installed():
        assert world.step is not original_step
        assert "mergesim.world._controls_for" in tracer.missing
    assert world.step is original_step   # every probe uninstalled
    layers = spans.layer_metrics(tracer.snapshot(), tracer.missing)
    assert layers["driver.controls.calls"] is None
    assert layers["driver.controls.self_s"] is None
    assert layers["driver.controls.share"] is None
    assert layers["dynamics.step.calls"] == 0


def test_traced_run_counts_are_exact_and_repeat():
    from mergesim.config import RunConfig
    import mergesim.cli as cli
    import mergesim.world as world

    original_snapshot = world.World.__dict__["snapshot"]

    def traced_once():
        tracer = spans.Tracer()
        with tracer.installed():
            cfg = RunConfig()
            cfg.t_max = 2.0
            log = cli.run_world(cli.load_scenario("scenario1", cfg.validate()))
        return spans.layer_metrics(tracer.snapshot(), tracer.missing), log

    first, log = traced_once()
    second, _ = traced_once()
    assert {k: first[k] for k in spans.COUNT_METRICS} == \
        {k: second[k] for k in spans.COUNT_METRICS}
    steps = len(log.rows) // 6
    assert first["world.steps"] == steps == 200
    assert first["world.snapshot.calls"] == 2 * steps
    assert first["world.record.icol_computed"] == len(log.rows)
    assert first["dynamics.step.calls"] == steps   # one decision vehicle
    assert world.World.__dict__["snapshot"] is original_snapshot
