"""The write path of a run: the column log, its interleaved rows, i_col and
its nearest neighbours, per-vehicle reads, the CSV with its i_col peaks and
min_gap_m, each against the slow reference readers of log_reference."""

import copy
import io
import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from mergesim import world as world_module
from mergesim.cli import _sat_distance, main
from mergesim.config import RunConfig
from mergesim.logio import read_trajectory
from mergesim.perception import collision_index, pose
from mergesim.road import LaneGeometry
from mergesim.world import (BLOCK, BUILTIN_SCENARIOS, TRAJECTORY_COLUMNS,
                            TrajectoryLog, _nearest_pairs, _texts,
                            load_scenario, run)

from log_reference import (derived_icol, first_nearest, formatted_csv,
                           scanned_icol, scanned_rows)
from test_collisions import (cannot_stop_at_start, generated_scenarios,
                             overlap_at_start)

GEOMETRY = LaneGeometry()


def written(log):
    """(CSV text, i_col peaks) that log.to_csv writes and returns."""
    sink = io.StringIO()
    peaks = log.to_csv(sink)
    return sink.getvalue(), peaks


def csv_text(log) -> str:
    """The CSV that log.to_csv writes, as one string."""
    return written(log)[0]


def check_readers(log, world):
    """Every reader of `log`, and the CSV with its peaks, agrees with its
    reference."""
    text, peaks = written(log)
    icol = derived_icol(log)
    for veh in world.vehicles:
        vid = veh.vehicle_id
        assert log.vehicle_rows(vid) == scanned_rows(log, vid)
        assert icol[vid] == scanned_icol(log, vid)
        assert log.last_row(vid) == scanned_rows(log, vid)[-1]
        assert peaks[vid] == max(scanned_icol(log, vid))
    assert list(peaks) == list(log.bodies)
    for reader in (log.vehicle_rows, log.last_row):
        with pytest.raises(KeyError):
            reader("nobody")
    assert text == formatted_csv(log)


@pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
@pytest.mark.parametrize("noise", [False, True])
def test_readers_match_the_reference_on_builtin_logs(scenario, noise):
    world = load_scenario(scenario, RunConfig(noise=noise))
    check_readers(run(world), world)


@pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
@pytest.mark.parametrize("noise", [False, True])
def test_written_csv_reads_back_as_the_log(scenario, noise, tmp_path):
    # Each parsed row holds its log row's fields: a float as its printed
    # text read back, lane as an int, the decision fields as text, and i_col
    # as the derived index at six decimals.
    world = load_scenario(scenario, RunConfig(noise=noise))
    log = run(world)
    path = tmp_path / "traj.csv"
    path.write_text(csv_text(log), encoding="utf-8")
    parsed = read_trajectory(str(path))
    assert len(parsed) == len(log.rows)
    icol = derived_icol(log)
    n = len(log.bodies)
    for k, (got, row) in enumerate(zip(parsed, log.rows)):
        t, vid, x, y, v, theta, lane, maneuver, directive, competing, flags \
            = row
        want = {"t": float(f"{t:.2f}"), "id": vid,
                "x_lat": float(f"{x:.6f}"), "y_long": float(f"{y:.6f}"),
                "v": float(f"{v:.6f}"), "theta": float(f"{theta:.6f}"),
                "lane": lane, "maneuver": maneuver,
                "accel_directive": directive, "competing_id": competing,
                "i_col": float(f"{icol[vid][k // n]:.6f}"), "flags": flags}
        assert list(got) == list(TRAJECTORY_COLUMNS)
        assert got == want
        assert type(got["lane"]) is int


@settings(max_examples=40, deadline=None)
@given(generated_scenarios())
def test_readers_match_the_reference_on_generated_logs(case):
    data, t_max = case
    if overlap_at_start(data) or cannot_stop_at_start(data):
        return  # rejected at load; see test_collisions
    world = load_scenario(data, RunConfig(t_max=t_max))
    check_readers(run(world), world)


def test_pair_cache_misses_when_any_key_field_changes():
    # Two vehicles seen at steps that differ in one field of the cache key
    # each: the centre offset across or along the road, or the sine or the
    # cosine of one heading.  math.sin gives 0.11 and pi - 0.11 the same
    # sine, and the cosine of h and -h is the same.
    turned = math.pi - 0.11
    poses = [((0.0, 0.0, 0.0), (3.0, 6.0, 0.0)),
             ((0.0, 0.0, 0.11), (3.0, 6.0, 0.0)),         # a turns
             ((0.0, 0.0, turned), (3.0, 6.0, 0.0)),       # a's cosine
             ((0.0, 0.0, -turned), (3.0, 6.0, 0.0)),      # a's sine
             ((0.0, 0.0, -turned), (3.0, 6.0, 0.11)),     # b turns
             ((0.0, 0.0, -turned), (3.0, 6.0, turned)),   # b's cosine
             ((0.0, 0.0, -turned), (3.0, 6.0, -turned)),  # b's sine
             ((1.0, 5.0, -turned), (4.0, 11.0, -turned)),  # a cache hit
             ((1.0, 5.0, -turned), (3.5, 11.0, -turned)),  # across the road
             ((1.0, 5.0, -turned), (3.5, 11.5, -turned))]  # along it
    assert math.sin(turned) == math.sin(0.11)
    log = TrajectoryLog(GEOMETRY, {"a": (4.5, 1.8), "b": (4.0, 2.0)})
    want = []
    for step, ((ax, ay, ah), (bx, by, bh)) in enumerate(poses):
        t = step * 0.01
        log.append((t, "a", ax, ay, 20.0, ah, 0, "", "", "", ""))
        log.append((t, "b", bx, by, 20.0, bh, 0, "", "", "", ""))
        index = collision_index(pose(ax, ay, ah, 0.9, 2.25),
                                pose(bx, by, bh, 1.0, 2.0))
        want.append(index)
    icol = derived_icol(log)
    assert icol["a"] == icol["b"] == want
    # Each step but the cache hit changes the index, so a stale reuse shows.
    assert [b != a for a, b in zip(want, want[1:])] == \
        [True] * 6 + [False] + [True] * 2


class TestEmptyLogs:
    def test_no_rows_yet(self):
        log = TrajectoryLog(GEOMETRY, {"a": (4.5, 1.8)})
        with pytest.raises(KeyError):
            log.vehicle_rows("a")
        assert derived_icol(log) == {"a": []}
        assert written(log) == (formatted_csv(log), {})

    def test_no_vehicles(self):
        log = TrajectoryLog(GEOMETRY, {})
        with pytest.raises(KeyError):
            log.vehicle_rows("a")
        assert log.rows == []
        assert written(log) == (formatted_csv(log), {})


def test_csv_text_is_reused_only_for_the_same_float_object():
    # 0.0 == -0.0, yet they print differently: a memo keyed on equality
    # would print the second value as 0.000000.  Only i_col text is reused,
    # so the signed zeros are fed to the i_col column, in place of the
    # indices of the one block that _blocks yields.
    zero, minus_zero = float("0.0"), float("-0.0")
    values = [zero, minus_zero, minus_zero]
    want = ["0.000000", "-0.000000", "-0.000000"]
    assert _texts(values) == want
    log = TrajectoryLog(GEOMETRY, {"a": (4.5, 1.8)})
    for t, value in zip((0.0, 0.01, 0.02), values):
        log.append((t, "a", value, 0.0, value, value, 0, "", "", "", ""))
    real = world_module._blocks

    def signed(columns, bodies):
        for reads, _ in real(columns, bodies):
            yield reads, [values]

    with mock.patch.object(world_module, "_blocks", signed):
        fields = [line.split(",") for line in csv_text(log).splitlines()[1:]]
    for k in (2, 4, 5, 10):  # x_lat, v, theta and i_col
        assert [f[k] for f in fields] == want
    assert csv_text(log) == formatted_csv(log)


_indices = st.one_of(st.sampled_from((0.0, 1.0, 1.0 - 2.0 ** -53, 1e-300,
                                      5e-324)),
                     st.floats(0.0, 1.0))


@given(st.lists(_indices, min_size=1))
def test_min_gap_is_the_distance_of_the_largest_index(column):
    # _sat_distance is non-increasing, so the summary maps only the
    # largest i_col of a vehicle.
    assert _sat_distance(max(column)) == min(map(_sat_distance, column))


@pytest.mark.parametrize("column", [
    [0.0, 1.0, 1.0 - 2.0 ** -53, 1e-300],
    [1e-300, 0.0], [1.0 - 2.0 ** -53, 1e-300], [0.0], [1.0, 1.0]])
def test_min_gap_at_the_edges_of_the_index(column):
    assert _sat_distance(max(column)) == min(map(_sat_distance, column))


# --- the write path's memory -------------------------------------------------


MB = 1 << 20


def long_log():
    """scenario1 kept running for 200 s: 20,000 steps of six vehicles."""
    log = run(load_scenario("scenario1",
                            RunConfig(t_max=200.0, settle_time=1000.0)))
    assert len(log.vehicle_rows("merging")) == 20_000
    return log


def traced_peak(fn):
    """(memory still held, peak) of what fn allocates, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_csv_and_its_icol_are_written_in_bounded_memory():
    # i_col is derived as the CSV is written: the poses, nearest pairs,
    # indices and line text are held one block of steps at a time, and
    # only each block's peaks outlive it.
    class Sink:
        lines = 0

        def write(self, text):
            self.lines += text.count("\n")

    log = long_log()
    sink = Sink()
    kept, peak = traced_peak(lambda: log.to_csv(sink))
    assert sink.lines == 1 + 6 * 20_000
    assert peak < MB
    assert kept < MB / 10


# --- the column log (see also test_scripted_tracks.checked_run) -------------


def test_scripted_id_with_percent_signs():
    # A scripted vehicle's line text is built once around its id; the id
    # must come out as it is, whatever characters it holds.
    data = copy.deepcopy(BUILTIN_SCENARIOS["scenario1"])
    data["vehicles"][0]["id"] = "v%s%%d{0}"
    data["vehicles"][1]["id"] = "%"
    world = load_scenario(data, RunConfig(t_max=1.0))
    log = run(world)
    check_readers(log, world)
    assert csv_text(log).splitlines()[1].split(",")[1] == "v%s%%d{0}"


class TestAppendedLogs:
    def test_rows_interleave_in_bodies_order(self):
        # Rows appended in any order land in their vehicle's column.
        log = TrajectoryLog(GEOMETRY, {"a": (4.5, 1.8), "b": (4.0, 2.0)})
        a_rows = [(k * 0.01, "a", 0.0, 10.0 + k, 20.0, 0.0, 0, "", "", "", "")
                  for k in range(3)]
        b_rows = [(k * 0.01, "b", 3.3, 20.0 - k, 20.0, 0.1, 1, "", "", "", "")
                  for k in range(3)]
        for a, b in zip(a_rows, b_rows):
            log.append(b)
            log.append(a)
        assert log.rows == [r for pair in zip(a_rows, b_rows) for r in pair]
        assert log.vehicle_rows("a") == a_rows
        assert log.vehicle_rows("b") == b_rows
        want = [collision_index(pose(a[2], a[3], a[5], 0.9, 2.25),
                                pose(b[2], b[3], b[5], 1.0, 2.0))
                for a, b in zip(a_rows, b_rows)]
        icol = derived_icol(log)
        assert icol["a"] == icol["b"] == want
        assert csv_text(log) == formatted_csv(log)

    def test_vehicle_rows_do_not_depend_on_what_was_read(self):
        # rows holds whole steps only; a vehicle's rows are its column.
        log = TrajectoryLog(GEOMETRY, {"a": (4.5, 1.8), "b": (4.0, 2.0)})
        a_rows = [(k * 0.01, "a", 0.0, 10.0 + k, 20.0, 0.0, 0, "", "", "", "")
                  for k in range(3)]
        for row in a_rows:
            log.append(row)
        log.append((0.0, "b", 3.3, 20.0, 20.0, 0.0, 1, "", "", "", ""))
        assert log.vehicle_rows("a") == a_rows
        assert len(log.rows) == 2
        assert log.vehicle_rows("a") == a_rows

    def test_append_after_a_read_is_seen(self):
        log = TrajectoryLog(GEOMETRY, {"a": (4.5, 1.8)})
        log.append((0.0, "a", 0.0, 1.0, 20.0, 0.0, 0, "", "", "", ""))
        assert len(log.rows) == 1 and derived_icol(log) == {"a": [0.0]}
        log.append((0.01, "a", 0.0, 1.2, 20.0, 0.0, 0, "", "", "", ""))
        assert len(log.rows) == 2 and derived_icol(log) == {"a": [0.0, 0.0]}
        assert csv_text(log) == formatted_csv(log)

    def test_one_vehicle_scores_zero(self):
        log = TrajectoryLog(GEOMETRY, {"a": (4.5, 1.8)})
        for k in range(4):
            log.append((k * 0.01, "a", 0.0, k * 0.2, 20.0, 0.0, 0, "keep",
                        "hold", "", ""))
        assert derived_icol(log) == {"a": [0.0] * 4}
        assert log.vehicle_rows("a") == scanned_rows(log, "a")
        assert csv_text(log) == formatted_csv(log)


def test_run_derives_icol_in_one_pass(tmp_path, monkeypatch, capsys):
    # mergesim run finds each block's nearest pairs once, in the pass that
    # writes the CSV; its summary reads the peaks that pass returns.
    real = world_module._nearest_pairs
    sizes = []

    def counting(xs, ys):
        sizes.append(len(xs[0]))
        return real(xs, ys)

    monkeypatch.setattr(world_module, "_nearest_pairs", counting)
    out = tmp_path / "run"
    assert main(["run", "--scenario", "scenario1", "--output", str(out)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "run.csv").read_text().count("\n")
    steps = (lines - 1) // len(BUILTIN_SCENARIOS["scenario1"]["vehicles"])
    assert steps > BLOCK
    assert sizes == [min(BLOCK, steps - lo) for lo in range(0, steps, BLOCK)]


# --- nearest neighbours ------------------------------------------------------


# Few distinct coordinates, so that exact ties between candidates are common,
# and one far value, so that some candidates are never nearest and are
# dropped before the steps are compared.
_coordinates = st.sampled_from((0.0, -0.0, 1.0, 3.3, 6.6, -3.3, 500.0))


@st.composite
def _columns(draw):
    """x and y columns of 2-6 vehicles over 1-6 steps."""
    n, steps = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    column = st.lists(_coordinates, min_size=steps, max_size=steps)
    return ([draw(column) for _ in range(n)],
            [draw(column) for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(_columns())
def test_nearest_pairs_is_the_first_minimum_in_slot_order(columns):
    xs, ys = columns
    want = first_nearest(xs, ys)
    assert _nearest_pairs(xs, ys) == want
    for i in range(len(xs)):
        for t in range(len(xs[i])):
            d = [math.hypot(xs[i][t] - xs[j][t], ys[i][t] - ys[j][t])
                 for j in range(len(xs)) if j != i]
            if d.count(min(d)) > 1:
                event("tie")


def test_nearest_pairs_of_no_or_one_vehicle():
    assert _nearest_pairs([], []) == []
    assert _nearest_pairs([[0.0, 1.0]], [[2.0, 3.0]]) == [None]
    assert _nearest_pairs([[], []], [[], []]) == [[], []]


def test_scenario1_tie_goes_to_the_first_slot():
    # vehicle2 drives 3.3 m from vehicle1 and from vehicle3 at every step,
    # with the same y sums; its nearest is vehicle1, the first in slot order.
    # i_col finds nearest pairs one block of steps at a time: the blocks
    # cover the run in order, and every block is checked.
    real = world_module._nearest_pairs
    seen = []

    def recording(xs, ys):
        seen.append((xs, ys, real(xs, ys)))
        return seen[-1][2]

    world = load_scenario("scenario1", RunConfig())
    log = run(world)
    with mock.patch.object(world_module, "_nearest_pairs", recording):
        csv_text(log)
    steps = len(log.rows) // len(world.vehicles)
    assert [len(xs[0]) for xs, _, _ in seen] == [
        min(BLOCK, steps - lo) for lo in range(0, steps, BLOCK)]
    assert len(seen) > 1
    ids = [veh.vehicle_id for veh in world.vehicles]
    for k, vid in enumerate(ids):
        rows = log.vehicle_rows(vid)
        assert [x for xs, _, _ in seen for x in xs[k]] == [r[2] for r in rows]
        assert [y for _, ys, _ in seen for y in ys[k]] == [r[3] for r in rows]
    one, two, three = (ids.index(v) for v in ("vehicle1", "vehicle2",
                                              "vehicle3"))
    for xs, ys, nearest in seen:
        for t in range(len(xs[two])):
            assert math.hypot(xs[two][t] - xs[one][t],
                              ys[two][t] - ys[one][t]) \
                == math.hypot(xs[two][t] - xs[three][t],
                              ys[two][t] - ys[three][t]) == 3.3
        assert nearest[two] == [one] * len(xs[two])
        assert nearest == first_nearest(xs, ys)
