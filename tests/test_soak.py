"""Generated-scenario soak: invariants that hold for any start the loader
accepts, on the default road, with and without perception noise.

Each draw is 4-8 vehicles in lanes 0-3, run for 20 s.  A merge-lane
vehicle always decides; any other one does with probability 0.4.  The
checks are the ones that hold today: no two logged rectangles overlap
(the run stops at the first collision, before logging it), and a second
run of the same scenario and config logs the same rows and events.
"""

from hypothesis import Phase, given, settings, strategies as st

from mergesim.config import ConfigError, RunConfig
from mergesim.road import LaneGeometry
from mergesim.world import DECISION, SCRIPTED, load_scenario, run

from test_collisions import logged_overlaps

GEOMETRY = LaneGeometry()
T_MAX = 20.0


@st.composite
def soak_scenarios(draw):
    """(scenario dict, RunConfig) on the default road: y0 in -40..80 m, or
    0..60 m in the merge lane, v0 in 50-110 km/h, q in [0, 1], and noise on
    in half the draws with a seed in 0-99."""
    vehicles = []
    for k in range(draw(st.integers(4, 8))):
        lane = draw(st.integers(0, GEOMETRY.merge_lane))
        in_merge_lane = lane == GEOMETRY.merge_lane
        decides = in_merge_lane or draw(st.integers(0, 9)) < 4
        vehicles.append({
            "id": f"v{k}", "x0_m": GEOMETRY.centers[lane],
            "y0_m": draw(st.floats(0.0, 60.0) if in_merge_lane
                         else st.floats(-40.0, 80.0)),
            "v0_kmh": draw(st.floats(50.0, 110.0)),
            "kind": DECISION if decides else SCRIPTED,
            "q": draw(st.floats(0.0, 1.0))})
    cfg = RunConfig(noise=draw(st.booleans()), seed=draw(st.integers(0, 99)),
                    t_max=T_MAX)
    return {"vehicles": vehicles}, cfg


# No shrink phase: shrinking reruns 20-s simulations, so a failing draw would
# take minutes to report; it is reported as drawn instead.
@settings(max_examples=20, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(soak_scenarios())
def test_soak_logs_no_overlap_and_repeats(case):
    data, cfg = case
    try:
        first = run(load_scenario(data, cfg))
    except ConfigError:
        return  # an overlapping or unstoppable start, refused at load
    second = run(load_scenario(data, cfg))
    assert logged_overlaps(first) == []
    assert first.rows == second.rows
    assert first.events == second.events
