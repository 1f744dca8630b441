"""Acceptance gate: every shipped behavior, checked at its stated tolerance.

Each test prints one PASS line on success; run with `pytest -s
tests/test_acceptance.py` to see the checklist.
"""

import math
import os
import random
import time

import pytest

from mergesim.config import RunConfig
from mergesim.dynamics import Controls, VehicleState, step
from mergesim.game import ACTIONS, solve_stackelberg
from mergesim.metrics import (aggressiveness_sweep, grid_to_csv,
                              lane_change_count, lateral_disturbance,
                              longitudinal_disturbance)
from mergesim.perception import collision_index, index_from_separations
from mergesim.world import load_scenario, run

import golden
from dynamics_reference import lateral_derivative
from test_game import bimatrix, brute_force_solution
from test_metrics import complete, speed_series, synthetic_log
from test_perception import polygons_intersect, random_rect
from test_trajectory_log import csv_text


def announce(number, text):
    print(f"\nACCEPTANCE {number}: PASS — {text}")


# The 11x11 grid (`mergesim sweep --grid 0:1:0.1`) of each built-in
# scenario is pinned cell by cell in golden.json: a change that moves a
# grid moves its lines there (tests/golden.py rewrites them). The header
# is pinned here as written text, so a renamed or reordered column fails.
GRID_AXIS = golden.GRID_AXIS
PINNED_GRIDS = golden.load()["grids"]
GRID_HEADER = ("q_merge,q_mainline,d_long_m,d_lat_m,lane_changes,collision,"
               "forced_stop,seed")


def assert_pinned_grid(scenario, reports):
    assert grid_to_csv(reports) == "\n".join(
        [GRID_HEADER, *PINNED_GRIDS[scenario]]) + "\n"


_RUNS = {}


def scenario_run(name, q):
    key = (name, q)
    if key not in _RUNS:
        cfg = RunConfig(q_overrides={"merging": q})
        world = load_scenario(name, cfg)
        start = time.perf_counter()
        log = run(world)
        _RUNS[key] = (log, time.perf_counter() - start)
    return _RUNS[key]


def merge_time(log):
    events = [e for e in log.events if e["event"] == "merge_complete"]
    return events[0]["t"] if events else None


def position_at_merge(log, vid):
    t = merge_time(log)
    rows = log.vehicle_rows(vid)
    index = next(i for i, r in enumerate(rows) if r[0] >= t - 0.02)
    return rows[index][3]


def test_acceptance_1_stackelberg_oracle_equivalence():
    rng = random.Random(314159)
    pairs = [(a, b) for a in ACTIONS for b in ACTIONS]
    start = time.perf_counter()
    for case in range(1000):
        if case % 3 == 0:  # deliberate payoff ties
            u1 = {p: float(rng.randint(-3, 3)) for p in pairs}
            u2 = {p: float(rng.randint(-3, 3)) for p in pairs}
        else:
            u1 = {p: rng.uniform(-100, 100) for p in pairs}
            u2 = {p: rng.uniform(-100, 100) for p in pairs}
        bim = bimatrix(u1, u2)
        assert solve_stackelberg(bim) == brute_force_solution(bim)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, f"1000 random bimatrices match brute force in {elapsed:.2f} s")


def test_acceptance_2_collision_index_correctness():
    rng = random.Random(2718)
    for _ in range(10_000):
        a, b = random_rect(rng, span=6.0), random_rect(rng, span=6.0)
        assert (collision_index(a.pose(), b.pose()) == 1.0) == \
            polygons_intersect(a, b)
    spot = index_from_separations(3.0, 4.0)
    assert spot == pytest.approx(math.exp(-math.sqrt(12.5)), abs=1e-12)
    assert abs(spot - 0.0292) < 1e-4
    announce(2, "index is 1 iff rectangles intersect on 10^4 pairs; "
                f"gap (3,4) spot value {spot:.6f}")


def test_acceptance_3_dynamics():
    params = RunConfig().vehicle_params()
    # straight line for one second
    state = VehicleState(v_long=25.0)
    for _ in range(100):
        state = step(state, params, Controls(), 0.01)
    straight_err = max(abs(state.x), abs(state.y - 25.0))
    assert straight_err < 1e-9

    # fourth-order convergence on a constant-steer maneuver
    def integrate(dt):
        s = VehicleState(v_long=22.2)
        for _ in range(round(10.0 / dt)):
            s = step(s, params, Controls(steer=0.01), dt)
        return s

    ref = integrate(0.0025)

    def err(s):
        return math.sqrt((s.x - ref.x) ** 2 + (s.y - ref.y) ** 2
                         + (s.heading - ref.heading) ** 2)

    ratio = err(integrate(0.04)) / err(integrate(0.02))
    assert ratio >= 8.0

    # derivative matches the element-wise evaluation
    rng = random.Random(1)
    worst = 0.0
    for _ in range(200):
        st_ = VehicleState(v_long=rng.uniform(1, 40), v_lat=rng.uniform(-3, 3),
                           yaw_rate=rng.uniform(-0.5, 0.5))
        steer = rng.uniform(-0.3, 0.3)
        cf, cr = params.corner_stiff_front, params.corner_stiff_rear
        lf, lr = params.dist_front, params.dist_rear
        m, iz, u = params.mass, params.yaw_inertia, st_.v_long
        want = ((cf + cr) / (m * u) * st_.v_lat
                + ((-lf * cf + lr * cr) / (m * u) - u) * st_.yaw_rate
                + cf / m * steer,
                (lf * cf - lr * cr) / (iz * u) * st_.v_lat
                + (-lf ** 2 * cf + lr ** 2 * cr) / (iz * u) * st_.yaw_rate
                + lf * cf / iz * steer)
        got = lateral_derivative(st_, params, steer)
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    assert worst < 1e-12
    announce(3, f"straight-line error {straight_err:.1e} m, halving ratio "
                f"{ratio:.1f}x, derivative mismatch {worst:.1e}")


def test_acceptance_4_first_scenario_behavior():
    for q in (0.9, 0.5):
        log, wall = scenario_run("scenario1", q)
        assert wall < 1.0
        assert merge_time(log) is not None
        assert position_at_merge(log, "merging") > position_at_merge(log, "vehicle4")
    log, wall = scenario_run("scenario1", 0.1)
    assert wall < 1.0
    assert merge_time(log) is not None
    assert position_at_merge(log, "merging") < position_at_merge(log, "vehicle5")
    assert log.vehicle_rows("merging")[-1][6] == 1  # middle lane
    announce(4, "q=0.9/0.5 merge ahead of vehicle4; q=0.1 merges behind "
                "vehicle5 and finishes in the middle lane; runs < 1 s")


def test_acceptance_5_second_scenario_behavior():
    times = {}
    for q in (0.9, 0.5, 0.1):
        log, _ = scenario_run("scenario2", q)
        times[q] = merge_time(log)
        assert times[q] is not None
    for q in (0.9, 0.5):
        log, _ = scenario_run("scenario2", q)
        changes = [e for e in log.events if e["event"] == "change_complete"
                   and e["vehicle"] == "merging"]
        assert changes and changes[0]["lane"] == 1
        assert changes[0]["t"] > times[q]
    assert times[0.1] == max(times.values())
    announce(5, "all dispositions merge; q=0.9/0.5 move on to the middle "
                "lane; q=0.1 merges last")


def test_acceptance_6_ordering_and_no_collisions():
    for name in ("scenario1", "scenario2"):
        stamps = []
        for q in (0.9, 0.5, 0.1):
            log, _ = scenario_run(name, q)
            assert log.collision is None, name
            stamps.append(merge_time(log))
        assert stamps[0] <= stamps[1] <= stamps[2], (name, stamps)
    announce(6, "merge completion ordered by aggressiveness in both "
                "scenarios, zero collisions")


def test_acceptance_7_disturbance_sweep():
    # The one serial sweep of the scenario1 grid; its 3x3 corner and middle
    # cells give the row shapes as well.
    start = time.perf_counter()
    full = aggressiveness_sweep("scenario1", GRID_AXIS, GRID_AXIS,
                                RunConfig(), jobs=1)
    elapsed = time.perf_counter() - start
    assert len(full) == 121
    assert elapsed < 60.0
    assert_pinned_grid("scenario1", full)
    cells = {(r.q_merge, r.q_mainline): r for r in full}

    def row(ql):
        return [cells[(qm, ql)] for qm in (0.0, 0.5, 1.0)]

    cautious = row(0.0)
    assert cautious[1].d_long < min(cautious[0].d_long, cautious[2].d_long)
    assert cautious[1].d_lat < min(cautious[0].d_lat, cautious[2].d_lat)
    normal = row(0.5)
    assert normal[1].d_lat < min(normal[0].d_lat, normal[2].d_lat)
    assert not any(r.collision or r.forced_stop for r in full)
    # vehicle4 changes lanes once, one lane spacing, whenever the merger
    # is cautious (q_merge <= 0.4) or aggressive (q_merge >= 0.9).
    axis = GRID_AXIS
    outer, normal_axis = axis[:5] + axis[9:], axis[5:9]
    for qm in outer:
        for ql in axis:
            report = cells[(qm, ql)]
            assert report.lane_changes == 1, (qm, ql)
            assert report.d_lat == pytest.approx(3.3), (qm, ql)
    # In every q_mainline row the smallest d_long lies at a normal merger
    # and is below every d_long at a cautious or aggressive one.
    for ql in axis:
        d_long = {qm: cells[(qm, ql)].d_long for qm in axis}
        best = min(axis, key=d_long.get)
        assert best in normal_axis, ql
        assert 0.6 < d_long[best] < 1.0, ql
        assert d_long[best] < min(d_long[qm] for qm in outer), ql
    cautious = {qm: cells[(qm, 0.0)] for qm in axis}
    assert min(axis, key=lambda qm: cautious[qm].d_long) == 0.7
    assert all(cautious[qm].d_lat == 0.0 for qm in normal_axis)
    announce(7, "cautious row minimized at normal merging in both measures; "
                "normal row lateral minimum at 0.5; on all 121 cells every "
                "row's d_long minimum at q_merge 0.5-0.8 and one lane change "
                f"at q_merge <= 0.4 or >= 0.9; 11x11 sweep {elapsed:.0f} s")


def test_acceptance_7_scenario2_grid_bytes():
    # The only built-in grid with forced stops (the q_merge 1.0 row) and
    # collisions (q_merge 0.8).
    reports = aggressiveness_sweep("scenario2", GRID_AXIS, GRID_AXIS,
                                   RunConfig(), jobs=min(2, os.cpu_count() or 1))
    assert_pinned_grid("scenario2", reports)
    stops = {r.q_merge for r in reports if r.forced_stop}
    collisions = {r.q_merge for r in reports if r.collision}
    assert stops == {1.0} and collisions == {0.8}
    announce(7, "both 11x11 grids match their pinned lines")


def test_acceptance_7_grid_has_converged_at_the_default_dt():
    # Halving dt moves the scenario1 5x5 grid by hundredths of a metre and
    # no count or flag: the headline grid is not an artefact of the step.
    axis = (0.0, 0.25, 0.5, 0.75, 1.0)
    grids = [aggressiveness_sweep("scenario1", axis, axis, RunConfig(dt=dt))
             for dt in (0.01, 0.005)]
    worst = 0.0
    for coarse, fine in zip(*grids):
        assert (fine.q_merge, fine.q_mainline) == \
            (coarse.q_merge, coarse.q_mainline)
        assert (fine.lane_changes, fine.collision, fine.forced_stop) == \
            (coarse.lane_changes, coarse.collision, coarse.forced_stop), \
            (coarse.q_merge, coarse.q_mainline)
        worst = max(worst, abs(fine.d_long - coarse.d_long),
                    abs(fine.d_lat - coarse.d_lat))
    assert worst < 0.05
    announce(7, "the scenario1 5x5 grid at dt 0.005 matches dt 0.01 within "
                f"{worst:.3f} m, with equal counts and flags")


def test_acceptance_8_metric_correctness():
    log, _ = scenario_run("scenario1", 0.5)
    assert longitudinal_disturbance(log, "vehicle3", 80.0 / 3.6) == 0.0

    def dip(t):
        return 21.2 if 2.0 <= t < 4.0 else 22.2
    rect_log = synthetic_log(speed_series(dip, 10.0))
    assert longitudinal_disturbance(rect_log, "v", 22.2) == \
        pytest.approx(2.0, abs=22.2 * 0.01)

    samples = []
    lanes = [(2, 6.6), (1, 3.3), (0, 0.0)]
    i = 0
    for seg, (lane, x) in enumerate(lanes):
        for _ in range(50):
            samples.append((round(i * 0.01, 6), 22.2, x, lane, "keep"))
            i += 1
        if seg < 2:
            nxt = lanes[seg + 1]
            for k in range(100):
                frac = (k + 1) / 100.0
                samples.append((round(i * 0.01, 6), 22.2, x + (nxt[1] - x) * frac,
                                lane if frac < 0.5 else nxt[0], "change"))
                i += 1
    two_log = synthetic_log(samples)
    complete(two_log, 1.5, 1)
    complete(two_log, 3.0, 0)
    assert lateral_disturbance(two_log, "v") == pytest.approx(6.6)
    assert lane_change_count(two_log, "v") == 2
    announce(8, "speed-deficit integral exact on never-decelerating vehicles "
                "and dips; lateral displacement adds per lane change")


def test_acceptance_9_determinism():
    csvs = []
    for _ in range(2):
        cfg = RunConfig(q_overrides={"merging": 0.9}, seed=5)
        log = run(load_scenario("scenario1", cfg))
        csvs.append(csv_text(log).encode())
    assert csvs[0] == csvs[1]
    grids = []
    for _ in range(2):
        cfg = RunConfig(seed=5)
        grid = aggressiveness_sweep("scenario1", (0.0, 0.5, 1.0),
                                    (0.0, 0.5, 1.0), cfg)
        grids.append(grid_to_csv(grid).encode())
    assert grids[0] == grids[1]
    announce(9, "repeated runs and sweeps are byte-identical at fixed seed")
