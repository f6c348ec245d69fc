"""Seeded instance pools for the benchmark workloads.

Instances come from frisolve's own ``generate_instance``, driven by a
``random.Random`` seeded with the run's ``--seed``, and reach the program
only as files written by ``serialize_instance``.

Pools are drawn by systematic sampling on a cost key: each group draws
``oversample`` times the instances it needs, sorts them by the key and
keeps the middle draw of every run of ``oversample``. The pool still
follows the generator's distribution, but its slowest instances, which set
most of a pass's time, no longer depend on the luck of a few draws.

Keys and sizes are computed here from A and b (``checks.InstanceData``):
``selectors`` is |E|; ``candidates`` the distinct candidate points, which
predicts solve time on the wide pool better than |E| (correlation 0.91
against 0.62 over 90 draws); ``points`` the size of the brute-force grid,
which the oracle builds and tests one by one (0.96 against verify time).
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from checks import InstanceData

EPSILON = Fraction(1, 100)


class PoolSpec(NamedTuple):
    rows: tuple[int, int]
    columns: tuple[int, int]
    density: tuple[float, float]
    key: str  # "selectors", "candidates" or "points"
    groups: tuple[tuple[str, int], ...]  # (kind, count); kind is feasible, infeasible or epsilon
    size: str | None = None  # keep only draws whose size (a key name) lies in size_range
    size_range: tuple[int, int] = (0, 0)
    oversample: int = 8


POOLS = {
    # 400 instances: 50 infeasible, 350 feasible of which 43 carry epsilon = 0.01.
    "small": PoolSpec((2, 4), (4, 12), (0.25, 0.25), "selectors",
                      (("infeasible", 50), ("feasible", 307), ("epsilon", 43))),
    # Solve time grows about linearly in |E| (some 35 us a selector), so a
    # band of [1500, 3000] keeps each call near 0.1 s or less: short enough
    # for a run to time every instance many times, wide enough that
    # candidate building and pruning still carry nearly all of it.
    "wide": PoolSpec((7, 8), (7, 8), (1.0, 1.5), "candidates", (("feasible", 40),),
                     size="selectors", size_range=(1_500, 3_000), oversample=3),
    # Verify time follows the size of the oracle's grid, which is searched
    # on infeasible instances too, and has a long tail: above 500 points
    # one call takes 0.1-4 s. Up to 200 points and with 280 feasible draws,
    # the pool's p90 moves by some 5% from seed to seed (simulated on 3000
    # timed draws); up to 500 and with 140, by 13%.
    "verify": PoolSpec((2, 4), (2, 5), (1.0, 1.0), "points",
                       (("infeasible", 40), ("feasible", 280)), size="points", size_range=(0, 200)),
}


class Job(NamedTuple):
    """One pool instance, with what its checks need to know."""

    id: int
    path: str
    feasible: bool
    epsilon: bool
    data: InstanceData


MEASURES = {
    "selectors": InstanceData.selector_count,
    "candidates": InstanceData.candidate_points,
    "points": InstanceData.grid_points,
}
# (pool, seed, draw number, measure) -> value. Every set-up of a run draws
# the same instances in the same order, so only the first pays for
# measuring them; keying on the draw keeps the instances themselves out of
# the process's memory.
_measured: dict = {}


def _measure(draw_id: tuple, name: str, inst) -> int:
    key = (*draw_id, name)
    if key not in _measured:
        _measured[key] = MEASURES[name](InstanceData(inst.A, inst.b, inst.epsilon))
    return _measured[key]


def _draw(spec: PoolSpec, rng: random.Random, generate_instance, kind: str):
    m = rng.randint(*spec.rows)
    n = rng.randint(*spec.columns)
    density = rng.uniform(*spec.density)
    inst, name = generate_instance(
        m, n, seed=rng.randrange(2**31), feasible=kind != "infeasible", density=density
    )
    if kind == "epsilon":
        inst, name = dataclasses.replace(inst, epsilon=EPSILON), f"{name}-epsilon"
    return kind, inst, name


def draw_pool(name: str, seed: int, generate_instance) -> list:
    """The (kind, instance, name) triples of one pool, in a seeded random
    order; kind is how the instance was generated."""
    spec = POOLS[name]
    rng = random.Random(f"{name}-{seed}")
    pool = []
    for kind, count in spec.groups:
        drawn, draws = [], 0
        while len(drawn) < spec.oversample * count:
            draw = _draw(spec, rng, generate_instance, kind)
            inst, draw_id, draws = draw[1], (name, seed, kind, draws), draws + 1
            if spec.size and not (
                spec.size_range[0] <= _measure(draw_id, spec.size, inst) <= spec.size_range[1]
            ):
                continue
            drawn.append((_measure(draw_id, spec.key, inst), len(drawn), draw))
        drawn.sort(key=lambda d: d[:2])
        step = spec.oversample
        pool += [drawn[k + step // 2][2] for k in range(0, len(drawn), step)]
    rng.shuffle(pool)
    return pool


def write_pool(pool: list, serialize_instance, directory: Path) -> list[str]:
    """Serialize every instance to its own file; returns the file texts."""
    directory.mkdir(parents=True, exist_ok=True)
    texts = []
    for k, (_, inst, inst_name) in enumerate(pool):
        text = serialize_instance(inst, inst_name)
        (directory / f"{k:04d}.json").write_text(text, encoding="utf-8")
        texts.append(text)
    return texts


def jobs(pool: list, texts: list[str], directory: Path) -> list[Job]:
    return [
        Job(k, str(directory / f"{k:04d}.json"), kind != "infeasible", kind == "epsilon",
            InstanceData.from_text(text))
        for k, ((kind, _, _), text) in enumerate(zip(pool, texts))
    ]
