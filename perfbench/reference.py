"""A fixed pure-Python reference workload for normalising host speed.

The host this benchmark was written on switches, every few seconds to
minutes, between a fast and a slow state (about 1.45x apart) that are
visible neither in CPU time nor as steal time.  The benchmark runs this
kernel next to every task and scales the task's time by
REFERENCE_S / (the kernel's time measured beside it), so a task measured in
the slow state and one measured in the fast state report the same time.
The kernel imitates the simulator's inner loop (frozen dataclasses,
dataclasses.replace, math calls, row tuples, f-string formatting) so that
both slow down alike; it belongs to the benchmark and must not change
between two commits that are compared.
"""

from dataclasses import dataclass, replace
import math
import time

# Seconds one kernel() call takes on the reference host (a 2.1 GHz Xeon,
# Python 3.11.7, in its more common, slow state).  Normalised times read as
# seconds on that host.
REFERENCE_S = 0.010


@dataclass(frozen=True)
class _Body:
    x: float
    y: float
    v: float
    heading: float
    length: float = 4.5
    width: float = 1.8


def _closeness(a: _Body, b: _Body) -> float:
    s, c = math.sin(a.heading), math.cos(a.heading)
    dx, dy = b.x - a.x, b.y - a.y
    along = abs(dx * s + dy * c) - (a.length + b.length) / 2.0
    across = abs(dx * c - dy * s) - (a.width + b.width) / 2.0
    return math.exp(-math.sqrt((max(along, 0.0) ** 2
                                + max(across, 0.0) ** 2) / 2.0))


def kernel(steps: int = 120) -> str:
    bodies = [_Body(x=3.3 * (i % 4), y=10.0 * i, v=20.0 + i,
                    heading=0.01 * i) for i in range(6)]
    rows = []
    for k in range(steps):
        t = k * 0.01
        by_key = {b.x + 100 * i: b for i, b in enumerate(bodies)}
        for i, a in enumerate(bodies):
            _, j = min((math.hypot(a.x - b.x, a.y - b.y), j)
                       for j, b in enumerate(bodies) if j != i)
            rows.append((t, i, a.x, a.y, a.v, a.heading,
                         _closeness(a, bodies[j]), len(by_key)))
        bodies = [replace(b, y=b.y + b.v * 0.01, heading=b.heading * 0.999)
                  for b in bodies]
    return "\n".join(f"{r[0]:.2f},{r[1]},{r[2]:.6f},{r[3]:.6f},{r[4]:.6f},"
                     f"{r[5]:.6f},{r[6]:.6f},{r[7]}" for r in rows)


def sample() -> float:
    """Wall seconds of one kernel() call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
