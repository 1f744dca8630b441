import argparse
from contextlib import redirect_stderr, redirect_stdout
import copy
from dataclasses import fields
import errno
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from unittest import mock
import xml.etree.ElementTree as ET

import pytest
from hypothesis import event, given, settings, strategies as st

from mergesim.cli import (MAX_GRID_POINTS, _add_common, build_config, main,
                          parse_grid)
from mergesim.config import ConfigError, RunConfig
from mergesim.logio import FLOAT_COLUMNS
from mergesim.metrics import GRID_COLUMNS, aggressiveness_sweep, grid_to_csv
from mergesim.road import LaneGeometry
from mergesim.world import (BLOCK, BUILTIN_SCENARIOS, MAX_SPEED_KMH,
                            TRAJECTORY_COLUMNS, TrajectoryLog,
                            geometry_from_dict,
                            geometry_to_dict, load_scenario, run as run_world)

import golden
from test_collisions import generated_scenarios

GOLDEN = golden.load()
with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "expected.json"), encoding="utf-8") as _fh:
    PERFBENCH_PINS = json.load(_fh)


def run_cli(*argv):
    return main(list(argv))


def read_text(path):
    with open(path) as fh:
        return fh.read()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def wall_scenario_file(tmp_path):
    """Merge lane blocked by a solid platoon: guaranteed forced stop."""
    vehicles = [{"id": "merging", "x0_m": 9.9, "y0_m": 10.0,
                 "v0_kmh": 70.0, "kind": "decision", "q": 0.5}]
    for i, y in enumerate(range(-150, 400, 10)):
        vehicles.append({"id": f"wall{i}", "x0_m": 6.6, "y0_m": float(y),
                         "v0_kmh": 70.0, "kind": "scripted"})
    path = tmp_path / "wall.json"
    path.write_text(json.dumps({
        "geometry": {"lane_centers": [0.0, 3.3, 6.6, 9.9], "lane_width": 3.3,
                     "merge": {"start": 50.0, "entrance_length": 100.0,
                               "extension": 20.0}},
        "vehicles": vehicles}))
    return str(path)


def crash_scenario_file(tmp_path):
    """Scripted rear-ender: guaranteed collision."""
    path = tmp_path / "crash.json"
    path.write_text(json.dumps({
        "geometry": {"lane_centers": [0.0, 3.3, 6.6, 9.9], "lane_width": 3.3,
                     "merge": {"start": 50.0, "entrance_length": 100.0,
                               "extension": 20.0}},
        "vehicles": [
            {"id": "slow", "x0_m": 0.0, "y0_m": 30.0, "v0_kmh": 50.0,
             "kind": "scripted"},
            {"id": "fast", "x0_m": 0.0, "y0_m": 0.0, "v0_kmh": 120.0,
             "kind": "scripted"},
        ]}))
    return str(path)


class TestRunCommand:
    def test_writes_trajectory_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "s1")
        assert run_cli("run", "--scenario", "scenario1",
                       "--q", "merging=0.9", "--output", out) == 0
        header = read_text(out + ".csv").splitlines()[0]
        assert header == ",".join(TRAJECTORY_COLUMNS)
        summary = json.loads(read_text(out + ".summary.json"))
        assert summary["vehicles"]["merging"]["merge_time"] is not None
        assert summary["collision"] is None
        text = capsys.readouterr().out
        assert "merged at" in text

    # Neither write_atomic's temp file nor that of the streamed CSV may keep
    # a mode of its own.  The run spans more than one block of CSV writes.
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_outputs_get_the_mode_open_gives(self, tmp_path, umask, mode):
        out = str(tmp_path / "s1")
        old = os.umask(umask)
        try:
            assert run_cli("run", "--t-max", "3", "--output", out) == 0
        finally:
            os.umask(old)
        for path in (out + ".csv", out + ".summary.json"):
            assert stat.S_IMODE(os.stat(path).st_mode) == mode
        assert sorted(os.listdir(tmp_path)) == ["s1.csv", "s1.summary.json"]
        rows = read_text(out + ".csv").count("\n") - 1
        assert rows > BLOCK * len(BUILTIN_SCENARIOS["scenario1"]["vehicles"])

    def test_aggressive_overtakes_competitor(self, tmp_path):
        out = str(tmp_path / "s1")
        run_cli("run", "--scenario", "scenario1", "--q", "merging=0.9",
                "--output", out)
        summary = json.loads(read_text(out + ".summary.json"))
        merge_time = summary["vehicles"]["merging"]["merge_time"]
        rows = [line.split(",") for line in
                read_text(out + ".csv").splitlines()[1:]]
        at_merge = {r[1]: float(r[3]) for r in rows
                    if abs(float(r[0]) - merge_time) < 1e-9}
        assert at_merge["merging"] > at_merge["vehicle4"]

    def test_cautious_finishes_in_middle_lane(self, tmp_path):
        out = str(tmp_path / "s1c")
        run_cli("run", "--scenario", "scenario1", "--q", "merging=0.1",
                "--output", out)
        summary = json.loads(read_text(out + ".summary.json"))
        assert summary["vehicles"]["merging"]["final_lane"] == 1

    def test_rejects_bad_dt(self, capsys):
        assert run_cli("run", "--scenario", "scenario1", "--dt", "0") == 2
        assert "error" in capsys.readouterr().err

    def test_collision_exit_code(self, tmp_path):
        path = crash_scenario_file(tmp_path)
        out = str(tmp_path / "crash")
        assert run_cli("run", "--scenario", path, "--output", out) == 3

    def test_forced_stop_exit_code(self, tmp_path):
        path = wall_scenario_file(tmp_path)
        out = str(tmp_path / "wall")
        assert run_cli("run", "--scenario", path, "--output", out) == 4

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            run_cli("run", "--scenario", "scenario2", "--q", "merging=0.5",
                    "--seed", "11", "--output", out)
            outs.append(out)
        assert read_bytes(outs[0] + ".csv") == read_bytes(outs[1] + ".csv")
        assert read_bytes(outs[0] + ".summary.json") == \
            read_bytes(outs[1] + ".summary.json")

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MERGE_SIM_SEED", "77")
        out = str(tmp_path / "seeded")
        run_cli("run", "--scenario", "scenario1", "--output", out)
        summary = json.loads(read_text(out + ".summary.json"))
        assert summary["config"]["seed"] == 77

    def test_dump_config_round_trip(self, capsys):
        flags = ("--scenario", "scenario2", "--q", "merging=0.25",
                 "--dt", "0.02", "--epoch", "0.2")
        assert run_cli("dump-config", *flags) == 0
        data = json.loads(capsys.readouterr().out)
        cfg = RunConfig.from_dict(data)
        assert cfg.to_dict() == data
        assert cfg.scenario == "scenario2"
        assert cfg.q_overrides == {"merging": 0.25}
        assert cfg.dt == 0.02

    # i_col underflows to 0.0 beyond about 745 m: with no other vehicle
    # within that range, the index gives no distance to report.
    @pytest.mark.parametrize("others", [[], [
        {"id": "far", "x0_m": 0.0, "y0_m": 1000.0, "v0_kmh": 70.0,
         "kind": "scripted"}]], ids=["alone", "far"])
    def test_no_vehicle_in_range_reports_no_gap(self, tmp_path, capsys,
                                                others):
        path = tmp_path / "lone.json"
        path.write_text(json.dumps({"vehicles": [
            {"id": "merging", "x0_m": 9.9, "y0_m": 0.0, "v0_kmh": 70.0,
             "kind": "decision", "q": 0.5}, *others]}))
        out = str(tmp_path / "lone")
        assert run_cli("run", "--scenario", str(path), "--t-max", "5",
                       "--output", out) == 0
        summary = json.loads(read_text(out + ".summary.json"))
        for entry in summary["vehicles"].values():
            assert entry["min_gap_m"] is None
        text = capsys.readouterr().out
        assert text.splitlines()[-1].startswith("  merging: q=0.5, ")
        assert text.endswith(", no other vehicle came within range\n")
        assert "min gap" not in text

    def test_min_gap_of_a_vehicle_700_m_away(self, tmp_path):
        # i_col is exp(-695.5) here, a normal float: the summary gives its
        # distance, not the one of a floor on the index.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"vehicles": [
            {"id": vid, "x0_m": 0.0, "y0_m": y0, "v0_kmh": 80.0,
             "kind": "scripted"} for vid, y0 in (("a", 0.0), ("b", 700.0))]}))
        out = str(tmp_path / "far")
        assert run_cli("run", "--scenario", str(path), "--t-max", "0.05",
                       "--output", out) == 0
        summary = json.loads(read_text(out + ".summary.json"))
        assert [entry["min_gap_m"] for entry in summary["vehicles"].values()] \
            == [695.5, 695.5]


@pytest.mark.parametrize("key, scenario, q, seed", golden.RUNS,
                         ids=[run[0] for run in golden.RUNS])
def test_run_outputs_match_golden_manifest(tmp_path, key, scenario, q, seed):
    # Every built-in run: both scenarios, five merger q, clean and with
    # noise at three seeds.  tests/golden.py regenerates the manifest.
    assert golden.run_outputs(scenario, q, seed, str(tmp_path)) == \
        GOLDEN["runs"][key]


def test_golden_manifest_agrees_with_perfbench_pins():
    # perfbench pins the clean runs and the noisy runs at its default seed
    # 0 of three merger q; each is one manifest entry.
    pins = PERFBENCH_PINS["run"]
    assert len(pins) == 12
    for key, outputs in pins.items():
        assert GOLDEN["runs"][key + "-seed0" if key.endswith("-noise")
                              else key] == outputs, key
    assert sorted(GOLDEN["runs"]) == sorted(run[0] for run in golden.RUNS)
    assert sorted(GOLDEN["grids"]) == sorted(golden.SCENARIOS)


def test_sweep_corner_cells_match_pinned_grid():
    # A cell does not depend on the rest of its grid: the 2x2 grid of the
    # q extremes is the four corners of the pinned 11x11 scenario1 grid,
    # and so are the corners of perfbench's pinned 5x5 grid, whose header
    # the CSV also keeps.
    pinned = GOLDEN["grids"]["scenario1"]
    corners = [pinned[i] for i in (0, 10, 110, 120)]
    reports = aggressiveness_sweep("scenario1", (0.0, 1.0), (0.0, 1.0),
                                   RunConfig(seed=0).validate(), jobs=1)
    header, *lines = grid_to_csv(reports).splitlines()
    bench_header, *bench = PERFBENCH_PINS["sweep"]["grid_csv"].splitlines()
    assert header == bench_header
    assert lines == corners
    assert [bench[i] for i in (0, 4, 20, 24)] == corners


class TestRejectsBadInput:
    @pytest.mark.parametrize("argv", [("--set", "t_max=inf"),
                                      ("--t-max", "inf"),
                                      ("--set", "epoch=inf")])
    def test_non_finite_times(self, tmp_path, capsys, argv):
        out = str(tmp_path / "x")
        assert run_cli("run", "--scenario", "scenario1", "--output", out,
                       *argv) == 2
        err = capsys.readouterr().err
        assert "must be finite, got inf" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: [d], "scenario <path>: top level must be an object"),
        (lambda d: {**d, "geometry": []}, "geometry: must be an object"),
        (lambda d: {**d, "vehicles": {}}, "vehicles: must be a list"),
        (lambda d: {**d, "vehicles": [1]}, "vehicles[0]: must be an object"),
        *[(lambda d, key=key: {**d, "vehicles": [{**d["vehicles"][0],
                                                  key: "abc"}]},
           f"vehicles[0].{key}: must be a number")
          for key in ("x0_m", "y0_m", "v0_kmh", "q")],
        (lambda d: {**d, "vehicles": [{**d["vehicles"][0], "y0_m": None}]},
         "vehicles[0].y0_m: must be a number"),
        *[(lambda d, geo=geo: {**d, "geometry": {**d["geometry"], **geo}},
           message) for geo, message in (
            ({"lane_centers": "abc"}, "geometry.lane_centers: must be a list"),
            ({"lane_centers": [0.0]}, "geometry.lane_centers: must be a list"),
            ({"lane_centers": [0.0, "x"]},
             "geometry.lane_centers[1]: must be a number"),
            ({"lane_centers": [0.0, float("inf")]},
             "geometry.lane_centers[1]: must be finite"),
            ({"lane_centers": [0.0, 6.6, 3.3, 9.9]},
             "geometry.lane_centers: must be strictly increasing, got "
             "[0.0, 6.6, 3.3, 9.9]"),
            ({"lane_width": -3.3}, "geometry.lane_width: must be positive"),
            ({"lane_width": float("nan")},
             "geometry.lane_width: must be finite"),
            *[({"merge": {"start": 50.0, "entrance_length": 100.0,
                          "extension": 20.0, key: value}},
               f"geometry.merge.{key}: must be {what}")
              for key in ("start", "entrance_length", "extension")
              for value, what in ((float("nan"), "finite"),
                                  ("abc", "a number"))],
            ({"merge": {"start": 50.0, "entrance_length": 100.0,
                        "extension": -50}},
             "geometry.merge.extension: must be at least 0"),
        )],
        (lambda d: {**d, "geometry": {**d["geometry"], "lane_width": True}},
         "geometry.lane_width: must be a number, got True"),
        (lambda d: {**d, "geometry": {**d["geometry"],
                                      "lane_centers": [0.0, "3.3"]}},
         "geometry.lane_centers[1]: must be a number, got '3.3'"),
        *[(lambda d, key=key, value=value: {
            **d, "vehicles": [{**d["vehicles"][0], key: value}]},
           f"vehicles[0].{key}: must be a number, got {value!r}")
          for key, value in (("x0_m", "0"), ("y0_m", "30"), ("v0_kmh", "80"),
                             ("q", "0.5"), ("x0_m", True), ("y0_m", False),
                             ("v0_kmh", True), ("q", True))],
        (lambda d: {**d, "vehicles": [{**d["vehicles"][0],
                                        "v0_kmh": 10 ** 400}]},
         "vehicles[0].v0_kmh: must be finite"),
        *[(lambda d, v0=v0: {**d, "vehicles": [d["vehicles"][0], {
            **d["vehicles"][1], "v0_kmh": v0}]},
           f"vehicles[1].v0_kmh: must be in (0, 250], got {got}")
          for v0, got in ((1e9, "1000000000.0"), (250.5, "250.5"))],
        (lambda d: {**d, "vehicles": [d["vehicles"][0], {
            **d["vehicles"][1], "y0_m": d["vehicles"][0]["y0_m"] - 4.5}]},
         "vehicles[1]: overlaps vehicles[0] ('slow') at the start"),
        # The CSV holds ids unquoted: read_trajectory would split these rows
        # at the comma or the line boundary.  No unprintable character is
        # allowed (see test_id_that_svg_cannot_hold_exits_2).
        *[(lambda d, vid=vid: {**d, "vehicles": [
            {**d["vehicles"][0], "id": vid}, d["vehicles"][1]]},
           f"vehicles[0].id: must be printable and hold no comma, got {vid!r}")
          for vid in ("a,b", ",", "a\nb", "a\r\nb", "a\n", "\ra",
                      "a\x0bb", "a\x1cb", "a\x85b", "a\u2028b", "a\tb",
                      "a\xa0b")],
        # A misspelled key is refused at every level, named by its path.
        (lambda d: {**d, "vehicle": []}, "scenario: unknown keys ['vehicle']"),
        (lambda d: {**d, "geometry": {**d["geometry"], "lane_widht": 3.3}},
         "geometry: unknown keys ['lane_widht']"),
        (lambda d: {**d, "geometry": {**d["geometry"], "merge": {
            **d["geometry"]["merge"], "lenght": 1.0}}},
         "geometry.merge: unknown keys ['lenght']"),
        (lambda d: {**d, "vehicles": [
            {k: v for k, v in d["vehicles"][0].items() if k != "y0_m"}
            | {"y0": 30.0}, d["vehicles"][1]]},
         "vehicles[0]: unknown keys ['y0']"),
    ])
    def test_malformed_scenario(self, tmp_path, capsys, mutate, message):
        good = json.loads(read_text(crash_scenario_file(tmp_path)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(mutate(good)))
        out = str(tmp_path / "x")
        assert run_cli("run", "--scenario", str(path), "--output", out) == 2
        err = capsys.readouterr().err
        assert f"error: {message.replace('<path>', str(path))}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config, message", [
        ({"dt": True}, "dt: must be a number, got True"),
        ({"epoch": True}, "epoch: must be a number, got True"),
        ({"t_max": True}, "t_max: must be a number, got True"),
        ({"t_max": "40"}, "t_max: must be a number, got '40'"),
        ({"noise_sigma": "0.5"},
         "noise_sigma: must be a number, got '0.5'"),
        ({"jobs": True}, "jobs: must be an integer, got True"),
        ({"seed": "0"}, "seed: must be an integer, got '0'"),
        ({"q_overrides": {"slow": True}},
         "q_overrides['slow']: must be a number, got True"),
        ({"q_overrides": {"slow": "0.5"}},
         "q_overrides['slow']: must be a number, got '0.5'"),
        ({"q_overrides": [0.5]}, "q_overrides: must be an object"),
    ])
    def test_booleans_and_numeric_strings_in_config(self, tmp_path, capsys,
                                                    config, message):
        scenario = crash_scenario_file(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "x")
        assert run_cli("run", "--scenario", scenario, "--config", str(path),
                       "--output", out) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_q_override_must_be_a_number(self, tmp_path):
        cfg = RunConfig(q_overrides={"slow": True}, t_max=1.0)
        with pytest.raises(ConfigError, match=r"q_overrides\['slow'\]: must be a number"):
            load_scenario(crash_scenario_file(tmp_path), cfg)

    @pytest.mark.parametrize("q", [2.0, -0.5])
    def test_out_of_range_q_override_names_the_override(self, q):
        # The scenario's own q for this vehicle is fine; the override is
        # named (load_scenario validates the config it is given).
        cfg = RunConfig(q_overrides={"merging": q})
        with pytest.raises(ConfigError) as info:
            load_scenario("scenario1", cfg)
        assert str(info.value) == \
            f"q_overrides['merging']: must be in [0, 1], got {q}"

    def test_top_speed_is_accepted(self, tmp_path):
        data = json.loads(read_text(crash_scenario_file(tmp_path)))
        data["vehicles"][0]["v0_kmh"] = MAX_SPEED_KMH
        world = load_scenario(data, RunConfig())
        assert world.vehicles[0].v_preset == MAX_SPEED_KMH / 3.6


class TestRangeChecks:
    """Values that once ended in a traceback, a hang or a run without
    sense end in exit code 2 with the path of the field."""

    @pytest.mark.parametrize("argv, message", [
        (("--set", "mass=-1"), "mass: must be positive, got -1.0"),
        (("--set", "yaw_inertia=0"), "yaw_inertia: must be positive, got 0.0"),
        (("--set", "lane_settle_tol=-1"),
         "lane_settle_tol: must be positive, got -1.0"),
        (("--set", "dt=0.5", "--set", "epoch=0.5"),
         "dt: must be in [0.0025, 0.04], got 0.5"),
        (("--set", "body_length=0"), "body_length: must be positive, got 0.0"),
        (("--set", "accel_cap_g=0"), "accel_cap_g: must be in (0, 1], got 0.0"),
        (("--set", "corner_stiff=0"),
         "corner_stiff: must be negative, got 0.0"),
        (("--set", "steer_cap_deg=-30"),
         "steer_cap_deg: must be in (0, 90), got -30.0"),
        (("--set", "noise_sigma=-1"), "noise_sigma: must be at least 0, got -1.0"),
        (("--set", "settle_time=-5"), "settle_time: must be at least 0, got -5.0"),
        (("--set", "noise=True"), "noise: must be true or false, got 'True'"),
        (("--set", "dt=0.03"),
         "epoch: must be a whole multiple of dt (0.03), got 0.1"),
        (("--set", "t_max=0.004"),
         "t_max: must be a whole multiple of dt (0.01), got 0.004"),
        (("--set", "dist_front=3"), "dist_front + dist_rear: must be below "
         "body_length (4.5), got 4.6"),
        # --set cannot give a dict field a value; the message must not call
        # an object "not an object".
        (("--set", 'q_overrides={"merging":0.2}'), "--set: q_overrides takes "
         "no single value; give each override as --q ID=VALUE"),
        (("--set", "nosuch=1"), "--set: unknown config field 'nosuch'"),
        (("--q", "merging"), "--q expects ID=VALUE, got 'merging'"),
        (({"scenario": 0},), "scenario: must be a string, got 0"),
        (({"scenario": None},), "scenario: must be a string, got None"),
        (({"scenario": 12345},), "scenario: must be a string, got 12345"),
    ])
    def test_probe_values(self, tmp_path, capsys, argv, message):
        if isinstance(argv[0], dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(argv[0]))
            argv = ("--config", str(path))
        out = str(tmp_path / "x")
        assert run_cli("run", "--t-max", "1", "--output", out, *argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("run", "--dt", "abc"), "dt: must be a number, got 'abc'"),
        (("run", "--seed", "1.5"), "seed: must be an integer, got '1.5'"),
        # Flags are read in the fields' order, not the command line's.
        (("run", "--seed", "1.5", "--dt", "abc"),
         "dt: must be a number, got 'abc'"),
        (("sweep", "--grid", "0.5:0.5:1", "--jobs", "x"),
         "jobs: must be an integer, got 'x'")])
    def test_named_flags_are_checked_like_set(self, tmp_path, capsys, argv,
                                              message):
        assert run_cli(*argv, "--output", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.listdir(tmp_path)

    def test_t_max_is_a_whole_number_of_steps(self, tmp_path, capsys):
        # round(t_max / dt) steps would end 0.015 s at t_end 0.02 s, past
        # t_max, and 0.025 s half a step short.
        out = str(tmp_path / "x")
        assert run_cli("run", "--t-max", "0.015", "--output", out) == 2
        assert capsys.readouterr().err == \
            "error: t_max: must be a whole multiple of dt (0.01), got 0.015\n"
        assert not os.listdir(tmp_path)

    def test_tiny_dt_is_rejected_without_running(self, capsys):
        # At dt = 1e-9 a run would take 4e10 steps: never start one.
        with pytest.raises(ConfigError,
                           match=r"^dt: must be in \[0.0025, 0.04\], got 1e-09$"):
            RunConfig(dt=1e-9).validate()
        assert run_cli("dump-config", "--set", "dt=1e-9") == 2
        assert capsys.readouterr().err.startswith("error: dt: must be in")

    @pytest.mark.parametrize("text", ["null", "0", '""', "[]", "[1, 2]"])
    def test_config_top_level_must_be_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run_cli("dump-config", "--config", str(path)) == 2
        assert capsys.readouterr().err == \
            f"error: config file {path}: top level must be an object\n"

    def test_library_callers_get_the_same_checks(self):
        with pytest.raises(ConfigError, match=r"^mass: must be positive"):
            load_scenario("scenario1", RunConfig(mass=-1.0))

    def test_run_checks_its_t_max(self):
        world = load_scenario("scenario1", RunConfig())
        world.cfg.t_max = 601.0
        with pytest.raises(ConfigError, match=r"^t_max: must be in \(0, 600\]"):
            run_world(world)

    def test_sweep_checks_jobs_without_starting_a_pool(self):
        with mock.patch("multiprocessing.Pool") as pool:
            with pytest.raises(ConfigError, match=r"^jobs: must be in \[1, "):
                aggressiveness_sweep("scenario1", (0.5,), (0.5,), RunConfig(),
                                     jobs=(os.cpu_count() or 1) + 1)
            with pytest.raises(ConfigError, match=r"^jobs: must be an integer"):
                aggressiveness_sweep("scenario1", (0.5,), (0.5,), RunConfig(),
                                     jobs=True)
        pool.assert_not_called()


class TestDivergedIntegration:
    """A plant too light or too stiff for RK4 at dt blows up; the run stops
    at the first non-finite state with one error line naming the plant."""

    @pytest.mark.parametrize("setting, plant", [
        ("mass=10", "mass 10 kg, yaw_inertia 2500 kg m^2, corner_stiff -60000"),
        ("mass=1", "mass 1 kg, yaw_inertia 2500 kg m^2, corner_stiff -60000"),
        ("yaw_inertia=1",
         "mass 1500 kg, yaw_inertia 1 kg m^2, corner_stiff -60000"),
        # Once a "collision" of non-finite poses at t=0.01 s, found by
        # test_generated_values_run_or_name_the_field.
        ("corner_stiff=-7e307",
         "mass 1500 kg, yaw_inertia 2500 kg m^2, corner_stiff -7e+307")])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, command,
                                         setting, plant):
        extra = ("--grid", "0.5:0.5:1") if command == "sweep" else ()
        assert run_cli(command, "--set", setting, "--output",
                       str(tmp_path / "x"), *extra) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        # The state overflows at the end of a step (non-finite state) or
        # inside one of its stages (math domain error).
        assert re.search(r": integration diverged at t=\d+\.\d\d s \(.+\) "
                         rf"with {re.escape(plant)} N/rad and dt 0\.01 s",
                         lines[0]), lines[0]
        assert not os.listdir(tmp_path)  # nothing written

    def test_library_callers_get_a_config_error(self):
        world = load_scenario("scenario1", RunConfig(mass=10.0))
        with pytest.raises(ConfigError, match=r"^merging: integration "
                           r"diverged at t=\d+\.\d\d s \(non-finite state\)"):
            run_world(world)


_FIELD_NAMES = [f.name for f in fields(RunConfig)]
_SCENARIO_NAMES = st.sampled_from(("scenario1", "scenario2", "no_such_file", ""))
_SET_TEXT = st.one_of(
    st.floats().map(repr), st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(("true", "false", "True", "", "nan", "-inf", "1e400")),
    st.text(max_size=6))
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-10 ** 6, 10 ** 6),
    st.sampled_from((10 ** 400, -10 ** 400)), st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(("merging", "vehicle1", "nobody")),
                    st.one_of(st.floats(), st.booleans()), max_size=2))
_REJECTED_T_MAX = st.sampled_from(("0", "-1", "nan", "inf", "601", "x"))
# Whole numbers of 0.01 s default steps up to 1 s: most floats in range are
# no multiple of dt and are refused.
_STEPPED_T_MAX = st.integers(1, 100).map(lambda k: repr(k * 0.01))


def inside_range(key):
    """Floats inside the declared range of a float field, ends included
    when they are; t_max is held to at most 1 s."""
    interval = RunConfig.__dataclass_fields__[key].metadata["range"]
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    if key == "t_max":
        hi = 1.0
    return st.floats(
        lo if math.isfinite(lo) else None, hi if math.isfinite(hi) else None,
        exclude_min=interval[0] == "(" and math.isfinite(lo),
        exclude_max=interval[-1] == ")" and math.isfinite(hi),
        allow_nan=False, allow_infinity=False)


@st.composite
def generated_inputs(draw):
    """(--set pairs, --config object) over up to three fields each.  Values
    are arbitrary text or JSON, or lie inside the field's range.  Only t_max
    values that are rejected or at most 1 s are passed by --set, which
    overrides --t-max 1, so no run covers more than 1 s; some of them are
    whole numbers of steps, so that those runs run."""
    sets, config = {}, {}
    for key in draw(st.lists(st.sampled_from(_FIELD_NAMES), max_size=3,
                             unique=True)):
        if key == "scenario":
            sets[key] = draw(_SCENARIO_NAMES)
        elif RunConfig.__dataclass_fields__[key].type is not float:
            sets[key] = draw(_SET_TEXT)
        elif key == "t_max":
            sets[key] = draw(st.one_of(inside_range(key).map(repr),
                                       _STEPPED_T_MAX, _REJECTED_T_MAX))
        else:
            sets[key] = draw(st.one_of(inside_range(key).map(repr), _SET_TEXT))
    for key in draw(st.lists(st.sampled_from(_FIELD_NAMES), max_size=3,
                             unique=True)):
        config[key] = draw(st.one_of(_SCENARIO_NAMES, _JSON_VALUES)
                           if key == "scenario" else _JSON_VALUES)
    return sets, config


@settings(max_examples=200, deadline=None)
@given(generated_inputs())
def test_generated_values_run_or_name_the_field(inputs):
    """A run ends in exit 0, 3 or 4, or in exit 2 naming a field it was
    given; any traceback fails the test."""
    sets, config = inputs
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ), \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        os.environ.pop("MERGE_SIM_SEED", None)
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = ["run", "--config", path, "--t-max", "1",
                "--output", os.path.join(tmp, "out")]
        for key, text in sets.items():
            argv += ["--set", f"{key}={text}"]
        code = main(argv)
    event(f"exit {code}")
    if code == 2:
        named = set(sets) | set(config)
        assert any(re.search(rf"\b{name}\b", err.getvalue())
                   for name in named), err.getvalue()
    else:
        assert code in (0, 3, 4)


def cli_default_config(monkeypatch):
    """The config `mergesim run` builds when given no flags."""
    monkeypatch.delenv("MERGE_SIM_SEED", raising=False)
    parser = argparse.ArgumentParser()
    _add_common(parser)
    return build_config(parser.parse_args([]))


class TestLibraryDefaultIsCliDefault:
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_loaded_driver_is_the_library_driver(self, monkeypatch, q):
        cfg = cli_default_config(monkeypatch)
        cfg.q_overrides["merging"] = q
        world = load_scenario("scenario1", cfg)
        merging = next(v for v in world.vehicles if v.vehicle_id == "merging")
        assert merging.profile == RunConfig().profile(q)
        assert merging.params == RunConfig().vehicle_params()

    def test_missing_geometry_fields_take_lane_geometry_defaults(self):
        assert geometry_from_dict({}) == LaneGeometry()
        assert geometry_from_dict({"merge": {}}) == LaneGeometry()


def test_readme_scenario_example_is_valid():
    # The JSON block under "Scenario files are JSON" in README.md loads,
    # and its geometry is the default road.
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        text = fh.read().split("Scenario files are JSON:", 1)[1]
    example = text.split("```json\n", 1)[1].split("```", 1)[0]
    world = load_scenario(json.loads(example), RunConfig().validate())
    assert world.geometry == LaneGeometry()


class TestGeometryRoundTrip:
    """The summary's geometry object reads back as the run's geometry."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin(self, name):
        # The built-ins run on the default road, which reads back as itself.
        assert load_scenario(name, RunConfig()).geometry == LaneGeometry()
        assert geometry_from_dict(geometry_to_dict(LaneGeometry())) == \
            LaneGeometry()

    @settings(max_examples=40, deadline=None)
    @given(generated_scenarios())
    def test_generated(self, case):
        geometry = geometry_from_dict(case[0]["geometry"])
        assert geometry_from_dict(geometry_to_dict(geometry)) == geometry


class TestSweepCommand:
    def test_grid_rows_and_determinism(self, tmp_path):
        outs = []
        for name in ("g1", "g2"):
            out = str(tmp_path / name)
            assert run_cli("sweep", "--scenario", "scenario1",
                           "--grid", "0:1:0.5", "--seed", "4",
                           "--output", out) == 0
            outs.append(out + ".csv")
        first = read_text(outs[0]).splitlines()
        assert first[0] == ",".join(GRID_COLUMNS)
        assert len(first) == 1 + 9
        assert read_bytes(outs[0]) == read_bytes(outs[1])

    @pytest.mark.parametrize("override", ["merging=0.1", "nobody=0.3"])
    def test_refuses_q_overrides(self, tmp_path, capsys, override):
        out = tmp_path / "grid"
        assert run_cli("sweep", "--grid", "0.5:0.5:1", "--q", override,
                       "--output", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: q_overrides: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("data, message", [
        ({"geometry": {}}, "sweep scenario lacks vehicles"),
        ({"vehicles": [{"x0_m": 0.0}]}, "sweep scenario lacks vehicles"),
        ({"vehicles": [{"id": ["a"]}]}, "sweep scenario lacks vehicles"),
        ({"vehicles": [5]}, "vehicles[0]: must be an object"),
        ({"vehicles": {"a": 1}}, "vehicles: must be a list")])
    def test_malformed_vehicle_list_exits_2(self, tmp_path, capsys, data,
                                            message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run_cli("sweep", "--scenario", str(path), "--grid",
                       "0.5:0.5:1", "--output", str(tmp_path / "grid")) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == [path]

    def test_rejects_malformed_grid(self, capsys):
        assert run_cli("sweep", "--grid", "1:0:0.5") == 2
        assert run_cli("sweep", "--grid", "0:0.5") == 2
        assert run_cli("sweep", "--grid", "0:2:0.5") == 2

    def test_grid_is_bounded_before_any_value_is_built(self):
        assert len(parse_grid("0:1:0.01")) == MAX_GRID_POINTS == 101
        assert len(parse_grid("0.5:1:0.005")) == 101
        for raw in ("0:1:0.0099", "0:1:1e-9", "0:1:5e-324"):
            with pytest.raises(ConfigError, match=r"^--grid points: must be"):
                parse_grid(raw)

    def test_parse_grid_values(self):
        assert parse_grid("0:1:0.5") == (0.0, 0.5, 1.0)
        assert parse_grid("0:1:0.1") == tuple(i / 10 for i in range(11))
        assert len(parse_grid("0:1:0.01")) == 101
        assert len(parse_grid("0.5:1:0.005")) == 101
        # The grid stops at STOP, even where the last step falls short of it.
        assert parse_grid("0:0.5:0.3") == (0.0, 0.3)
        assert parse_grid("0:0.95:0.5") == (0.0, 0.5)
        assert parse_grid("0.2:0.2:0.5") == (0.2,)
        # A step a hair above STOP / 10 still gives 11 points, the last at
        # STOP rather than past it.
        assert parse_grid("0:1:0.100000000009")[-1] == 1.0
        with pytest.raises(ConfigError):
            parse_grid("0:1:0")
        # Values are rounded to 10 decimals; a step below that would repeat
        # them, and the sweep would run each repeated cell again.
        for raw in ("0:1e-12:1e-14", "0.5:0.5000000001:1e-12"):
            with pytest.raises(ConfigError, match=r"^--grid step: "):
                parse_grid(raw)


class TestPlotCommand:
    def test_renders_polyline_per_vehicle(self, tmp_path):
        out = str(tmp_path / "traj")
        run_cli("run", "--scenario", "scenario1", "--output", out)
        svg_path = str(tmp_path / "traj.svg")
        assert run_cli("plot", out + ".csv", "--output", svg_path) == 0
        svg = read_text(svg_path)
        assert svg.count("<polyline") == 6
        assert svg.startswith("<svg")

    def test_empty_log_still_renders_geometry(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(TRAJECTORY_COLUMNS) + "\n")
        svg_path = str(tmp_path / "empty.svg")
        assert run_cli("plot", str(path), "--output", svg_path) == 0
        svg = read_text(svg_path)
        assert "<svg" in svg and svg.count("<polyline") == 0

    def test_label_of_an_id_with_markup_characters(self, tmp_path):
        # A vehicle id may hold any character but a comma or a line break.
        data = copy.deepcopy(BUILTIN_SCENARIOS["scenario1"])
        data["vehicles"][0]["id"] = "a<b&c"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        out = str(tmp_path / "traj")
        assert run_cli("run", "--scenario", str(scenario), "--t-max", "0.5",
                       "--output", out) == 0
        assert run_cli("plot", out + ".csv") == 0
        labels = [e.text for e in ET.parse(out + ".svg").getroot().iter(
            "{http://www.w3.org/2000/svg}text")]
        assert "a<b&c" in labels

    def test_id_that_svg_cannot_hold_exits_2(self, tmp_path, capsys):
        # XML 1.0 cannot hold U+0001, even escaped: the id is refused.
        data = copy.deepcopy(BUILTIN_SCENARIOS["scenario1"])
        data["vehicles"][0]["id"] = "a\x01b"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        assert run_cli("run", "--scenario", str(scenario), "--output",
                       str(tmp_path / "traj")) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: vehicles[0].id: "), lines
        assert os.listdir(tmp_path) == ["scenario.json"]

    @pytest.mark.parametrize("vid, message", [
        ("a\x01b", "must be printable and hold no comma, got 'a\\x01b'"),
        ("", "missing or empty")])
    def test_hand_written_id_that_svg_cannot_hold_exits_2(
            self, tmp_path, capsys, vid, message):
        # The scenario's id rule holds for a trajectory file's id column.
        path = tmp_path / "hand.csv"
        path.write_text(",".join(TRAJECTORY_COLUMNS) + "\n" + "".join(
            f"{t},{vid},6.6,{y},20,0,2,keep,hold,,0,\n"
            for t, y in (("0.00", 0), ("0.01", 0.2), ("0.02", 0.4))))
        assert run_cli("plot", str(path)) == 2
        assert capsys.readouterr().err == \
            f"error: trajectory file {path}: line 2: id: {message}\n"
        assert os.listdir(tmp_path) == ["hand.csv"]

    def test_byte_identical_rerenders(self, tmp_path):
        out = str(tmp_path / "traj")
        run_cli("run", "--scenario", "scenario2", "--output", out)
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        run_cli("plot", out + ".csv", "--output", a)
        run_cli("plot", out + ".csv", "--output", b)
        assert read_bytes(a) == read_bytes(b)

    @pytest.mark.parametrize("mutate, message", [
        (lambda s: {**s, "geometry": {**s["geometry"], "lane_centers": 5}},
         "geometry.lane_centers: must be a list"),
        (lambda s: {**s, "geometry": {**s["geometry"],
                                      "lane_centers": [0.0, 6.6, 3.3, 9.9]}},
         "geometry.lane_centers: must be strictly increasing, got "
         "[0.0, 6.6, 3.3, 9.9]"),
        (lambda s: {**s, "geometry": {**s["geometry"], "lane_width": "3.3"}},
         "geometry.lane_width: must be a number"),
        (lambda s: {**s, "geometry": {**s["geometry"], "merge": None}},
         "geometry.merge: must be an object"),
        (lambda s: {**s, "geometry": [1]}, "geometry: must be an object"),
        (lambda s: {k: v for k, v in s.items() if k != "geometry"},
         "no geometry object"),
        (lambda s: [s], "top level must be an object"),
    ])
    def test_malformed_summary_geometry(self, tmp_path, capsys, mutate,
                                        message):
        out = str(tmp_path / "traj")
        run_cli("run", "--scenario", "scenario1", "--output", out,
                "--t-max", "1")
        summary = json.loads(read_text(out + ".summary.json"))
        with open(out + ".summary.json", "w") as fh:
            json.dump(mutate(summary), fh)
        capsys.readouterr()
        assert run_cli("plot", out + ".csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: summary file {out}.summary.json: "
                              f"{message}")
        assert "Traceback" not in err

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRAJECTORY_COLUMNS) + "\n1,2,3\n")
        assert run_cli("plot", str(path)) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"), ("a,b\n1,2\n", "unexpected header 'a,b'")])
    def test_bad_first_line_is_reported(self, tmp_path, capsys, text,
                                        message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run_cli("plot", str(path)) == 2
        assert capsys.readouterr().err == \
            f"error: trajectory file {path}: line 1: {message}\n"

    @pytest.mark.parametrize("keep, tail, polylines", [
        (None, "\n", 6),  # a blank line after the last row is skipped
        (2, "", 1)])       # one vehicle at one step: a span of one y
    def test_plots_of_edge_files(self, tmp_path, keep, tail, polylines):
        out = str(tmp_path / "traj")
        assert run_cli("run", "--t-max", "0.05", "--output", out) == 0
        lines = read_text(out + ".csv").splitlines(keepends=True)
        path = tmp_path / "edge.csv"
        path.write_text("".join(lines[:keep]) + tail)
        svg_path = str(tmp_path / "edge.svg")
        assert run_cli("plot", str(path), "--summary",
                       out + ".summary.json", "--output", svg_path) == 0
        assert read_text(svg_path).count("<polyline") == polylines

    @pytest.mark.parametrize("bad, message", [
        ({"y_long": "north", "lane": "two"},
         "y_long: must be a number, got 'north'"),
        ({"lane": "two", "i_col": "high"},
         "lane: must be an integer, got 'two'"),
        ({"lane": "0.5"}, "lane: must be an integer, got '0.5'"),
    ])
    def test_first_bad_field_is_reported(self, tmp_path, capsys, bad,
                                         message):
        fields = ["0.00", "a", "0", "1", "2", "0", "0", "keep", "hold", "",
                  "0", ""]
        for column, value in bad.items():
            fields[TRAJECTORY_COLUMNS.index(column)] = value
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRAJECTORY_COLUMNS) + "\n"
                        + ",".join(fields) + "\n")
        assert run_cli("plot", str(path)) == 2
        assert capsys.readouterr().err == \
            f"error: trajectory file {path}: line 2: {message}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    def test_non_finite_value_reports_line_and_column(self, tmp_path, capsys,
                                                      column, value):
        out = str(tmp_path / "traj")
        assert run_cli("run", "--scenario", "scenario1", "--output", out,
                       "--t-max", "0.05") == 0
        lines = read_text(out + ".csv").splitlines()
        fields = lines[2].split(",")  # line 3 of the file
        fields[TRAJECTORY_COLUMNS.index(column)] = value
        lines[2] = ",".join(fields)
        with open(out + ".csv", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("plot", out + ".csv") == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: trajectory file {out}.csv: line 3: "
                                f"{column}: must be finite, got {value}\n")
        assert not os.path.exists(out + ".svg")


class TestFileErrors:
    """A path the CLI cannot read or write ends in one error line naming it
    and exit code 2: no traceback, and no temp file left behind."""

    @staticmethod
    def assert_one_error(capsys, tmp_path, argv, message):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0], lines[0]
        assert list(tmp_path.rglob(".tmp-*")) == []

    @pytest.mark.parametrize("what, argv, case", [
        pytest.param(what, argv, case, id=f"{argv[0]}-{what}-{case}")
        for what, argv in (
            ("scenario", ("run", "--output", "{out}", "--scenario", "{F}")),
            ("config file", ("dump-config", "--config", "{F}")),
            ("summary file", ("plot", "{T}", "--summary", "{F}")),
            ("trajectory file", ("plot", "{F}")))
        for case in ("directory", "non-UTF-8", "bad line"
                     if what == "trajectory file" else "JSON array")])
    def test_one_error_form_for_every_file_input(self, tmp_path, capsys,
                                                 what, argv, case):
        path = tmp_path / "F"
        if case == "directory":
            path.mkdir()
        elif case == "non-UTF-8":
            path.write_bytes(b'{"\xff": 1}')
        elif case == "bad line":
            path.write_text(",".join(TRAJECTORY_COLUMNS) + "\n"
                            + "0.00,a,0,1,2,0,two,keep,hold,,0,\n")
        else:
            path.write_text("[]")
        trajectory = tmp_path / "T.csv"
        trajectory.write_text(",".join(TRAJECTORY_COLUMNS) + "\n")
        argv = [arg.format(F=path, T=trajectory, out=tmp_path / "x")
                for arg in argv]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"error: {what} {path}: "), lines[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "T.csv"]

    def test_plot_of_a_directory(self, tmp_path, capsys):
        path = tmp_path / "DIR"
        path.mkdir()
        self.assert_one_error(capsys, tmp_path, ("plot", str(path)),
                              f"trajectory file {path}: cannot read")

    def test_plot_of_a_binary_file(self, tmp_path, capsys):
        path = tmp_path / "binary"
        path.write_bytes(b"\x7fELF\x02\x01\x01\x00\xd0\xff\xfe")
        self.assert_one_error(capsys, tmp_path, ("plot", str(path)),
                              f"trajectory file {path}: cannot read")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_output_below_a_file(self, tmp_path, capsys, command):
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        extra = ("--grid", "0.5:0.5:1") if command == "sweep" else ()
        out = str(blocker / "x")
        self.assert_one_error(
            capsys, tmp_path,
            (command, "--t-max", "0.1", "--output", out, *extra),
            f"cannot write {out}.csv: ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("name", ["", ".", ".."])
    def test_output_naming_a_directory(self, tmp_path, capsys, command,
                                       name):
        # Each output file extends the basename with its suffix: a
        # basename ending in a separator would write hidden files named
        # .csv and .summary.json inside that directory, and one ending in
        # . or .. files named ..csv or ...csv.
        extra = ("--grid", "0.5:0.5:1") if command == "sweep" else ()
        out = os.path.join(str(tmp_path), name)  # ends in a separator at ""
        self.assert_one_error(
            capsys, tmp_path, (command, "--output", out, *extra),
            f"--output: must name a file, not a directory, got {out!r}")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def fail_after_first_block(monkeypatch, tmp_path, exc):
        """Make to_csv raise `exc` from its write after the header and the
        first block; returns the sizes of the temp files at that moment."""
        real = TrajectoryLog.to_csv
        seen = []

        class Failing:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                if self.writes == 2:
                    self.fh.flush()
                    seen.extend(p.stat().st_size
                                for p in tmp_path.glob(".tmp-*"))
                    raise exc
                self.writes += 1
                return self.fh.write(text)

        monkeypatch.setattr(TrajectoryLog, "to_csv",
                            lambda log, fh: real(log, Failing(fh)))
        return seen

    def test_exception_mid_stream_leaves_no_file(self, tmp_path,
                                                 monkeypatch):
        seen = self.fail_after_first_block(monkeypatch, tmp_path,
                                           RuntimeError("mid-stream"))
        out = str(tmp_path / "s1")
        with pytest.raises(RuntimeError, match="mid-stream"):
            run_cli("run", "--t-max", "3", "--output", out)
        assert len(seen) == 1 and seen[0] > 0  # the stream had begun
        assert list(tmp_path.iterdir()) == []

    def test_os_error_mid_stream_is_one_error_line(self, tmp_path, capsys,
                                                   monkeypatch):
        seen = self.fail_after_first_block(
            monkeypatch, tmp_path,
            OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        out = str(tmp_path / "s1")
        self.assert_one_error(
            capsys, tmp_path, ("run", "--t-max", "3", "--output", out),
            f"cannot write {out}.csv: {os.strerror(errno.ENOSPC)}")
        assert len(seen) == 1 and seen[0] > 0
        assert list(tmp_path.iterdir()) == []

    def test_plot_output_onto_a_directory(self, tmp_path, capsys):
        out = str(tmp_path / "traj")
        assert run_cli("run", "--t-max", "0.1", "--output", out) == 0
        target = tmp_path / "DIR"
        target.mkdir()
        self.assert_one_error(
            capsys, tmp_path, ("plot", out + ".csv", "--output", str(target)),
            f"cannot write {target}: ")
        assert list(target.iterdir()) == []


class TestUtf8Files:
    """Scenario, config, trajectory and summary files are read and written
    as UTF-8 whatever the locale."""

    # A scripted vehicle's id reaches only the files; a decision vehicle's
    # id is also printed to the ASCII terminal, backslash-escaped.
    @pytest.mark.parametrize(
        "ensure_ascii, old_id, new_id",
        [(True, "vehicle1", "v\u00e9hicule1"),
         (False, "vehicle1", "v\u00e9hicule1"),
         (True, "merging", "m\u00e9rging"),
         (False, "merging", "m\u00e9rging")],
        ids=["escaped", "raw", "decision-escaped", "decision-raw"])
    def test_non_ascii_id_under_the_c_locale(self, tmp_path, ensure_ascii,
                                             old_id, new_id):
        data = copy.deepcopy(BUILTIN_SCENARIOS["scenario1"])
        vehicle = next(v for v in data["vehicles"] if v["id"] == old_id)
        vehicle["id"] = new_id
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(
            json.dumps(data, ensure_ascii=ensure_ascii).encode("utf-8"))
        config = tmp_path / "config.json"
        config.write_bytes(json.dumps({"q_overrides": {new_id: 0.5}},
                                      ensure_ascii=ensure_ascii).encode("utf-8"))
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("LC_", "LANG", "PYTHONUTF8",
                                    "PYTHONIOENCODING"))}
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
        out = str(tmp_path / "traj")

        def mergesim(*argv):
            return subprocess.run(
                [sys.executable, "-X", "utf8=0", "-m", "mergesim.cli", *argv],
                env=env, capture_output=True, text=True, errors="replace")

        done = mergesim("run", "--scenario", str(scenario), "--config",
                        str(config), "--t-max", "0.5", "--output", out)
        assert done.returncode == 0, done.stderr
        with open(out + ".csv", encoding="utf-8") as fh:
            assert f",{new_id}," in fh.read()
        escaped = new_id.encode("ascii", "backslashreplace").decode("ascii")
        assert (f"  {escaped}: q=0.5, " in done.stdout) == (
            vehicle["kind"] == "decision")
        done = mergesim("plot", out + ".csv")
        assert done.returncode == 0, done.stderr

    def test_id_that_would_break_the_csv_exits_2(self, tmp_path):
        data = copy.deepcopy(BUILTIN_SCENARIOS["scenario1"])
        data["vehicles"][0]["id"] = "vehicle,1"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "traj"
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        done = subprocess.run(
            [sys.executable, "-m", "mergesim.cli", "run", "--scenario",
             str(scenario), "--t-max", "0.5", "--output", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True)
        assert done.returncode == 2
        assert done.stderr == ("error: vehicles[0].id: must be printable "
                               "and hold no comma, got 'vehicle,1'\n")
        assert os.listdir(tmp_path) == ["scenario.json"]


class TestDumpConfigCommand:
    def test_prints_full_config(self, capsys):
        assert run_cli("dump-config") == 0
        data = json.loads(capsys.readouterr().out)
        assert data == RunConfig().to_dict()

    def test_config_file_round_trip(self, tmp_path, capsys):
        assert run_cli("dump-config", "--set", "risk_tolerance_max=9.5") == 0
        data = json.loads(capsys.readouterr().out)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run_cli("dump-config", "--config", str(path)) == 0
        again = json.loads(capsys.readouterr().out)
        assert again == data
        assert again["risk_tolerance_max"] == 9.5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"not_a_field": 1}))
        assert run_cli("dump-config", "--config", str(path)) == 2


class TestNamedFlags:
    """A flag whose dest names a RunConfig field sets that field."""

    @pytest.mark.parametrize("argv, key, value", [
        (("--scenario", "scenario2"), "scenario", "scenario2"),
        (("--dt", "0.02"), "dt", 0.02),
        (("--epoch", "0.2"), "epoch", 0.2),
        (("--t-max", "12.5"), "t_max", 12.5),
        (("--seed", "7"), "seed", 7),
        (("--noise",), "noise", True),
        (("--noise-sigma", "0.25"), "noise_sigma", 0.25),
        (("--out-dir", "elsewhere"), "out_dir", "elsewhere")])
    def test_each_flag_sets_its_field(self, capsys, argv, key, value):
        assert run_cli("dump-config", *argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {**RunConfig().to_dict(), key: value}

    @staticmethod
    def namespace(**flags):
        return argparse.Namespace(**{"config": None, "seed": None, "q": [],
                                     "set": [], **flags})

    def test_sweep_jobs_sets_its_field(self):
        jobs = os.cpu_count() or 1
        assert build_config(self.namespace(jobs=str(jobs))).jobs == jobs
        with pytest.raises(ConfigError, match=r"^jobs: must be in \[1, "):
            build_config(self.namespace(jobs="0"))

    def test_any_dest_that_names_a_field_is_read(self):
        assert build_config(self.namespace(settle_time="5")).settle_time == 5.0

    def test_other_flags_are_not_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = build_config(self.namespace(
            config=str(path), q=["merging=0.2"], output="out",
            grid="0:1:0.1"))
        assert cfg.to_dict() == {**RunConfig().to_dict(),
                                 "q_overrides": {"merging": 0.2}}
