"""Straight multi-lane road with one ending merge lane."""

from dataclasses import dataclass, fields
import sys
from typing import List, Tuple

from .config import ConfigError, check_field, ranged


@dataclass(frozen=True)
class LaneGeometry:
    """Lane centers across the road; the merge lane is the last entry.

    The merge entrance spans [merge_start, merge_start + entrance_length];
    the extension beyond it exists only to finish an already-started merge.
    """
    centers: Tuple[float, ...] = (0.0, 3.3, 6.6, 9.9)
    lane_width: float = ranged(3.3, "(0, inf)")
    merge_start: float = 50.0
    entrance_length: float = ranged(100.0, "(0, inf)")
    extension: float = ranged(20.0, "[0, inf)")

    def __post_init__(self):
        for f in fields(self)[1:]:  # the numbers after centers
            check_field(LaneGeometry, f.name, getattr(self, f.name))
        if any(a >= b for a, b in zip(self.centers, self.centers[1:])):
            raise ConfigError("lane_centers: must be strictly increasing, "
                              f"got {list(self.centers)}")

    @property
    def merge_lane(self) -> int:
        return len(self.centers) - 1

    @property
    def mainline_lanes(self) -> range:
        return range(len(self.centers) - 1)

    @property
    def merge_target_lane(self) -> int:
        """Mainline lane adjacent to the merge lane."""
        return len(self.centers) - 2

    @property
    def entrance_end(self) -> float:
        return self.merge_start + self.entrance_length

    @property
    def hard_end(self) -> float:
        return self.entrance_end + self.extension


def lane_of(x: float, geometry: LaneGeometry) -> int:
    """Lane whose center is nearest; exact midpoints round to the lower index."""
    best = 0
    best_dist = abs(x - geometry.centers[0])
    for i in range(1, len(geometry.centers)):
        d = abs(x - geometry.centers[i])
        if d < best_dist - 1e-9:
            best = i
            best_dist = d
    return best


def lane_bands(geometry: LaneGeometry) -> List[Tuple[float, float]]:
    """One open interval (c - h, c + h) per lane centre c, inside which
    lane_of is that lane.

    h is half the closest spacing of the centres less a guard: 1e-9, lane_of's
    tie tolerance, plus 64 epsilons of the largest |c| plus that spacing,
    which is more than the rounding of abs(x - c) for any x inside.  So every
    other centre is more than two guards farther from x than c.  Centres
    within two guards of each other, or a lone one, give empty intervals.
    """
    centers = geometry.centers
    spacing = min((b - a for a, b in zip(centers, centers[1:])), default=0.0)
    guard = 1e-9 + 64 * sys.float_info.epsilon * (max(map(abs, centers))
                                                  + spacing)
    h = spacing / 2.0 - guard
    return [(c - h, c + h) for c in centers]


def room_to_hard_end(y: float, length: float, geometry: LaneGeometry) -> float:
    """Meters from the nose of a vehicle centred at y to 1 m short of hard_end."""
    return geometry.hard_end - y - length / 2.0 - 1.0


def distance_to_merge_end(view, geometry: LaneGeometry) -> float:
    """Remaining meters of merge entrance ahead of a merge-lane vehicle."""
    if view.lane != geometry.merge_lane:
        raise ValueError(f"{view.vehicle_id}: not in the merge lane")
    remaining = geometry.entrance_end - view.y
    return remaining if remaining > 0.0 else 0.0
