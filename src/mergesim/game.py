"""Merging utilities and the finite two-player Stackelberg solution.

Both players choose between going left (L) and going straight (S).  Each
joint outcome is scored in meters of headway-equivalent utility: a reward
for free space ahead minus one squeeze penalty, for squeezing in ahead of a
slot's follower and for running out of merge lane alike.  The leader
commits first; the follower best-responds; the leader secures against the
worst tied response.
"""

from typing import Dict, NamedTuple, Tuple

from .driver import DriverProfile

LEFT = "L"
STRAIGHT = "S"
# Safety order: when payoffs tie, straight wins.
ACTIONS = (STRAIGHT, LEFT)

IMPOSSIBLE = -1.0e18  # utility of an action a player physically cannot take


class PayoffBimatrix(NamedTuple):
    """Leader and follower utilities over the 2x2 joint action space, by
    (leader action, follower action)."""
    leader: Dict[Tuple[str, str], float]
    follower: Dict[Tuple[str, str], float]


def headway_utility(gap: float, profile: DriverProfile) -> float:
    """Reward for free space ahead, capped by the usable visibility range."""
    cap = profile.visibility_scale * profile.visibility_range
    return cap if cap < gap else gap


def squeeze_penalty(room: float, closing_speed: float,
                    profile: DriverProfile) -> float:
    """Penalty for squeezing into `room` meters while closing on its far
    end at closing_speed: the follower of a slot closing on the ego, or a
    merging vehicle closing on its lane end.  Negative values mean there is
    room to spare."""
    return (profile.lane_change_clearance
            + closing_speed * profile.prediction_time - room)


def solve_stackelberg(bimatrix: PayoffBimatrix) -> Tuple[str, str]:
    """Leader/follower action pair of the finite Stackelberg game.

    The follower's best-response set may hold ties; the leader evaluates
    each of its actions against the worst tied response and plays the
    secure maximum.  Remaining ties fall to the safer straight action for
    both players: of two responses tied on both payoffs the follower goes
    straight, and the leader leaves straight only for a strictly higher
    secured value.
    """
    leader, follower = bimatrix.leader, bimatrix.follower
    best_pair = best_value = None
    for action in ACTIONS:
        keep, leave = follower[action, STRAIGHT], follower[action, LEFT]
        response = LEFT if leave > keep or (
            leave == keep and leader[action, LEFT] < leader[action, STRAIGHT]
        ) else STRAIGHT
        value = leader[action, response]
        if best_value is None or value > best_value:
            best_pair, best_value = (action, response), value
    return best_pair
