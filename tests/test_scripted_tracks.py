"""A scripted vehicle's views come from one track built at the start of a
run, and its log column builds its rows from the same y sums when they are
read: each is checked, bit for bit, against a replay that adds
v_preset * dt one step at a time, however the run ends, and the log's
interleaved rows against its columns."""

from contextlib import contextmanager
import copy
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mergesim import world as world_module
from mergesim.config import RunConfig
from mergesim.perception import VehicleView
from mergesim.world import BUILTIN_SCENARIOS, SCRIPTED, load_scenario, run

from log_reference import bits, replayed_scripted_rows
from test_collisions import (cannot_stop_at_start, generated_scenarios,
                             overlap_at_start, scenario)


@contextmanager
def recorded_views():
    """Yields a list that gets world.views after every _advance call."""
    real = world_module._advance
    seen = []

    def recording(world, *args):
        real(world, *args)
        seen.append(world.views)

    with mock.patch.object(world_module, "_advance", recording):
        yield seen


def checked_run(world):
    """Run `world` and check every scripted vehicle's views, rows and final
    state against a per-step replay from its start view, and the log's
    interleaved rows against its columns; returns the log."""
    geometry, dt = world.geometry, world.cfg.dt
    starts = [veh.view(geometry) for veh in world.vehicles]
    with recorded_views() as moved:
        log = run(world)
    n = len(world.vehicles)
    steps = len(moved)
    assert steps == round(log.end_time / dt)
    replayed = replayed_scripted_rows(world, starts, steps)
    # Each column holds a vehicle's rows: a scripted vehicle's are built
    # when read (here before log.rows is read), a decision vehicle's are the
    # rows it logged.
    columns = []
    for veh, column in zip(world.vehicles, log.columns):
        vid = veh.vehicle_id
        if veh.kind == SCRIPTED:
            assert [bits(r) for r in log.vehicle_rows(vid)] == \
                [bits(r) for r in replayed[vid]]
            column = replayed[vid]
        assert len(column) == steps
        columns.append(column)
    # log.rows interleaves the columns: whole steps, step-major, each row
    # stamped with its step's time.
    interleaved = log.rows  # built anew on each read
    assert [bits(r) for r in interleaved] == \
        [bits(r) for step in zip(*columns) for r in step]
    ids = [veh.vehicle_id for veh in world.vehicles]
    for k in range(steps):
        rows = interleaved[k * n:(k + 1) * n]
        assert [r[1] for r in rows] == ids
        assert {r[0].hex() for r in rows} == {(k * dt).hex()}
    for i, veh in enumerate(world.vehicles):
        if veh.kind != SCRIPTED:
            continue
        start, vid = starts[i], veh.vehicle_id
        rows = log.vehicle_rows(vid)
        # The start view's objects, so the CSV formats each once.
        assert all(r[2] is start.x and r[4] is start.v and r[5] is start.heading
                   for r in rows)
        previous = start
        for views in moved:
            view = views[i]
            assert type(view) is VehicleView
            assert bits(view) == bits(previous._replace(
                y=previous.y + veh.v_preset * dt))
            previous = view
        assert veh.state.y.hex() == previous.y.hex()
    return log


def scripted_only(name):
    """A built-in scenario without its decision vehicle."""
    data = copy.deepcopy(BUILTIN_SCENARIOS[name])
    data["vehicles"] = [v for v in data["vehicles"] if v["kind"] == SCRIPTED]
    return data


@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
@pytest.mark.parametrize("noise", [False, True])
def test_builtin_runs_settle_with_replayed_scripted_rows(name, noise):
    world = load_scenario(name, RunConfig(noise=noise))
    log = checked_run(world)
    assert log.collision is None
    assert log.end_time < world.cfg.t_max  # settled


def test_run_cut_at_t_max():
    world = load_scenario("scenario2", RunConfig(t_max=2.0))
    log = checked_run(world)
    assert log.collision is None
    assert len(log.rows) == 200 * len(world.vehicles)


def test_run_ended_by_a_collision_with_the_decision_vehicle():
    # A plant this light sends the merger into vehicle4.
    log = checked_run(load_scenario("scenario1", RunConfig(mass=50.0)))
    assert log.collision["vehicles"] == ["vehicle4", "merging"]


def test_scripted_only_run_ended_by_a_collision():
    data = scenario(3.3, [("slow", 0, 30.0, 50.0, SCRIPTED, 0.5),
                          ("fast", 0, 0.0, 120.0, SCRIPTED, 0.5)])
    log = checked_run(load_scenario(data, RunConfig(t_max=5.0)))
    assert log.collision["vehicles"] == ["slow", "fast"]


@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
def test_scripted_only_run_to_t_max(name):
    # With no decision vehicle a run never settles early.
    world = load_scenario(scripted_only(name), RunConfig(t_max=3.0))
    log = checked_run(world)
    assert log.collision is None
    assert len(log.rows) == 300 * len(world.vehicles)


def test_second_run_continues_from_the_written_back_states():
    world = load_scenario("scenario1", RunConfig(t_max=1.0))
    checked_run(world)
    checked_run(world)


@settings(max_examples=40, deadline=None)
@given(generated_scenarios(), st.booleans())
def test_generated_runs_replay_their_scripted_rows(case, noise):
    data, t_max = case
    if overlap_at_start(data) or cannot_stop_at_start(data):
        return  # rejected at load; see test_collisions
    checked_run(load_scenario(data, RunConfig(noise=noise, t_max=t_max)))


def test_rows_read_during_a_run_leave_every_step_to_a_later_read():
    # log.rows is built from the columns on each read: one read from inside
    # the step loop does not fix what a read after the run gets.
    world = load_scenario("scenario1", RunConfig(t_max=1.0))
    real = world_module._advance
    during = []

    def reading(world, views, attentions, bands, tracks, logged, log, t):
        real(world, views, attentions, bands, tracks, logged, log, t)
        if not during:
            during.append(len(log.rows))

    with mock.patch.object(world_module, "_advance", reading):
        log = run(world)
    assert during == [len(world.vehicles)]
    assert len(log.rows) == 100 * len(world.vehicles)
