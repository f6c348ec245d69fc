"""Seeded random instance generation, for the CLI and the test suites.

Grades live on the 4-decimal grid k/10000, matching the precision of
hand-worked data and keeping every generated file exactly round-trippable.
Feasible mode draws each threshold at or below its row's largest grade, so
every admissible set is non-empty by construction; infeasible mode pushes
at least one threshold strictly above its row's largest grade. The same
seed always reproduces the same instance, byte for byte after
serialization. The instance is built from the ticks over GRID, as the
file reader builds one, with no Fraction per grade.
"""

from __future__ import annotations

import math
import random

from .core import ZERO, Instance, _scale

GRID = 10_000


def generate_instance(
    m: int,
    n: int,
    seed: int,
    feasible: bool = True,
    density: float = 1.0,
) -> tuple[Instance, str]:
    """Draw one random instance; returns it with a descriptive name.

    density shapes the thresholds via b_i = u_i * max_j a_ij with
    u_i = r**density, r uniform on [0,1]: larger density pulls thresholds
    down, which enlarges the admissible sets and so the selector space.
    """
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be >= 1, got m={m}, n={n}")
    if not (math.isfinite(density) and density > 0):
        raise ValueError(f"density must be a finite number > 0, got {density}")
    rng = random.Random(seed)
    # Grades are drawn and compared as integer ticks, k for k/GRID.
    A = [[rng.randrange(GRID + 1) for _ in range(n)] for _ in range(m)]

    bad_row = rng.randrange(m) if not feasible else None
    if bad_row is not None:
        # a threshold strictly above the row maximum needs headroom
        A[bad_row] = [min(a, GRID - 1) for a in A[bad_row]]

    b = []
    for i in range(m):
        amax = max(A[i])
        if i == bad_row:
            b.append(amax + 1 + rng.randrange(GRID - amax))
        else:
            u = rng.random() ** density
            b.append(min(int(u * (amax / GRID) * GRID), amax))

    mode = "feasible" if feasible else "infeasible"
    name = f"random-{m}x{n}-seed{seed}-{mode}"
    rows = [[(a, GRID) for a in row] for row in A]
    return _scale(rows, [(t, GRID) for t in b], ZERO, ZERO), name
