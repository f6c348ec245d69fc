"""Seeded random instance generation, for the CLI and the test suites.

Grades live on the 4-decimal grid k/10000, matching the precision of
hand-worked data and keeping every generated file exactly round-trippable.
Feasible mode draws each threshold at or below its row's largest grade, so
every admissible set is non-empty by construction; infeasible mode pushes
at least one threshold strictly above its row's largest grade. The same
seed always reproduces the same instance, byte for byte after
serialization. Grades are drawn as integer ticks, k for k/GRID, and the
ticks go straight to core._from_integers with D = GRID, the builder that
also ends the file reader's path: no pair and no Fraction per grade.
"""

from __future__ import annotations

import math
import numbers
import random

from .core import ZERO, Instance, _from_integers

GRID = 10_000
# random.Random.randrange(GRID + 1) is _randbelow_with_getrandbits(GRID + 1)
# in CPython 3.10-3.13 (Lib/random.py): getrandbits(k) with
# k = (GRID + 1).bit_length(), drawn again until it is at most GRID.
_TICK_BITS = (GRID + 1).bit_length()


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
    m, n and seed must be integers and density a real number, none of
    them a bool.
    """
    for label, value in (("m", m), ("n", n), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{label} must be an integer, got {value!r}")
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be >= 1, got m={m}, n={n}")
    real = isinstance(density, numbers.Real) and not isinstance(density, bool)
    if not (real and math.isfinite(density) and density > 0):
        raise ValueError(f"density must be a finite number > 0, got {density!r}")
    rng = random.Random(seed)
    # The draws of randrange(GRID + 1) for every grade, in row order: the
    # same ticks, and the same generator state after them.
    getrandbits, size = rng.getrandbits, m * n
    ticks = []
    while len(ticks) < size:
        r = getrandbits(_TICK_BITS)
        if r <= GRID:
            ticks.append(r)
    A = [tuple(ticks[i : i + n]) for i in range(0, size, n)]

    bad_row = rng.randrange(m) if not feasible else None
    if bad_row is not None:
        # a threshold strictly above the row maximum needs headroom
        A[bad_row] = tuple([min(a, GRID - 1) for a in A[bad_row]])

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
    return _from_integers(GRID, A, tuple(b), 0, ZERO, ZERO), name
