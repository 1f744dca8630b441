"""The benchmark's own arithmetic: tail percentile and error rate."""

import pytest

import run
import stats


@pytest.mark.parametrize("n, percentile", [
    (19, None),      # the median would leave 9 beyond it
    (20, 50.0),      # rank 10, 10 beyond
    (39, 50.0),      # p75 rank 30 leaves 9
    (40, 75.0),
    (99, 75.0),      # p90 rank 90 leaves 9
    (100, 90.0),
    (199, 90.0),     # p95 rank 190 leaves 9
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, percentile):
    samples = [float(i) for i in range(n, 0, -1)]   # order must not matter
    got, value = stats.tail(samples)
    assert got == percentile
    if percentile is None:
        assert value is None
    else:
        assert value == stats.nearest_rank(samples, percentile)
        assert sum(1 for s in samples if s > value) >= stats.TAIL_MIN_BEYOND


def test_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.nearest_rank(samples, 50) == 3.0
    assert stats.nearest_rank(samples, 60) == 3.0
    assert stats.nearest_rank(samples, 61) == 4.0
    assert stats.nearest_rank(samples, 100) == 5.0
    assert stats.nearest_rank(samples, 0) == 1.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_error_rate():
    assert stats.error_rate(0, 12) == 0.0
    assert stats.error_rate(3, 12) == 0.25
    assert stats.error_rate(12, 12) == 1.0
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(13, 12)
    with pytest.raises(ValueError):
        stats.error_rate(-1, 12)


REF = run.reference.REFERENCE_S


def _pass(attempted, failed, tasks, body=1.0, rows=100, speed=1.0):
    """A pass measured on a host `speed` times as fast as the reference."""
    result = run.PassResult(body_s=body, cpu_s=body, rows=rows,
                            task_s=list(tasks), attempted=attempted,
                            kernel_s=[(REF / speed, REF / speed)] * len(tasks))
    result.failed = failed
    return result


def test_error_rate_counts_tasks_across_passes():
    passes = [_pass(12, 0, [0.1] * 12), _pass(12, 2, [0.1] * 10),
              _pass(12, 1, [0.1] * 11)]
    metrics, _, info = run.end_to_end(passes, [0.2, 0.3, 0.1], rss_mb=20.0)
    assert metrics["error_rate"] == pytest.approx(3 / 36)
    assert info["tasks"] == 33


def test_end_to_end_medians_and_throughput():
    passes = [_pass(2, 0, [1.0, 3.0], body=4.0, rows=400),
              _pass(2, 0, [2.0, 2.0], body=6.0, rows=400),
              _pass(2, 0, [5.0, 1.0], body=5.0, rows=400)]
    metrics, host, info = run.end_to_end(passes, [0.3, 0.1, 0.2], rss_mb=20.0)
    assert metrics["wall_s"] == 5.0
    assert metrics["task_s_p50"] == 2.0
    assert metrics["setup_s"] == 0.2 and host["setup_s"] == 0.2
    assert metrics["vehicle_steps_per_s"] == pytest.approx(1200 / 15.0)
    assert metrics["task_s_tail"] is None          # 6 tasks: too few
    assert info["tail_percentile"] is None
    assert metrics["error_rate"] == 0.0
    assert host["wall_s"] == metrics["wall_s"]   # measured at reference speed


def test_error_rate_counts_the_tasks_of_a_failed_grid():
    failed_grid = _pass(25, 25, [], body=0.5)
    passes = [_pass(25, 0, [0.4] * 25, body=10.0), failed_grid]
    metrics, _, info = run.end_to_end(passes, [0.2], rss_mb=20.0)
    assert metrics["error_rate"] == 0.5
    assert info["passes"] == 1          # the failed grid has no times
    assert metrics["wall_s"] == 10.0


def test_times_are_scaled_to_the_reference_host_speed():
    fast = _pass(2, 0, [1.0, 3.0], body=4.5, rows=400, speed=2.0)
    tasks, body, cpu = fast.normalised()
    assert tasks == [2.0, 6.0]
    assert body == pytest.approx(9.0)   # 8 s of tasks, 0.5 s between them
    assert cpu == pytest.approx(9.0)


def test_each_task_is_scaled_by_the_samples_around_it():
    result = _pass(2, 0, [1.0, 1.0], body=2.5)
    result.kernel_s = [(REF, REF / 3.0), (REF / 3.0, REF / 3.0)]
    tasks, body, _ = result.normalised()
    assert tasks == pytest.approx([1.5, 3.0])
    assert body == pytest.approx(2.5 * 4.5 / 2.0)   # work-weighted factor


def test_a_grid_task_is_scaled_by_its_cells():
    grid = _pass(1, 0, [5.0], body=5.0)
    grid.cell_s = [3.0, 1.0]
    grid.kernel_s = [(REF / 2.0, REF / 2.0), (REF, REF)]
    tasks, body, _ = grid.normalised()
    assert tasks == [5.0 * 7.0 / 4.0] and body == 5.0 * 7.0 / 4.0
    assert grid.speed() == pytest.approx(7.0 / 4.0)


def test_setup_time_is_scaled_by_the_median_pass_speed():
    passes = [_pass(1, 0, [1.0], speed=s) for s in (1.5, 2.0, 4.0)]
    metrics, host, info = run.end_to_end(passes, [0.1, 0.3, 0.2], rss_mb=20.0)
    assert info["host_speed"] == pytest.approx(2.0)
    assert host["setup_s"] == 0.2
    assert metrics["setup_s"] == pytest.approx(0.4)
