"""Seeded generators of system files (JSON dicts of integer matrices).

Every draw is checked with the benchmark's own exact code in ``oracle`` and
redrawn until it meets the solver's documented preconditions.
"""

from __future__ import annotations

import random

from oracle import system_problems

# (n, l, m) of the random-dense systems: n 10-12, l 2-4, m 2..l.  A fixed
# mix of shapes keeps the cost of a round steady across seeds; only the
# entries are drawn.
DENSE_SHAPES = [(10, 2, 2), (10, 3, 2), (10, 4, 2),
                (11, 3, 3), (11, 4, 3), (11, 3, 2),
                (12, 4, 4), (12, 2, 2), (12, 4, 2)]


def draw(rng, n, l, m, density, a_bound, bc_bound):
    """One (A, B, C) with entries drawn uniformly from [-bound, bound] \\ {0}
    where a uniform draw falls under ``density``, else 0."""

    def entry(bound):
        if rng.random() >= density:
            return 0
        return rng.choice([v for v in range(-bound, bound + 1) if v])

    return {
        "A": [[entry(a_bound) for _ in range(n)] for _ in range(n)],
        "B": [[entry(bc_bound) for _ in range(l)] for _ in range(n)],
        "C": [[entry(bc_bound) for _ in range(n)] for _ in range(m)],
    }


def valid_draw(rng, n, l, m, density, a_bound, bc_bound):
    while True:
        system = draw(rng, n, l, m, density, a_bound, bc_bound)
        if not system_problems(system):
            return system


def dense_systems(seed: int, per_shape: int = 2):
    """``per_shape`` dense systems per shape in DENSE_SHAPES, nonzero entries
    in [-3, 3]; the first pass over the shapes is drawn first, so the first
    len(DENSE_SHAPES) systems do not depend on ``per_shape``."""
    rng = random.Random(f"random-dense:{seed}")
    return [valid_draw(rng, n, l, m, 1.0, 3, 3)
            for _ in range(per_shape) for n, l, m in DENSE_SHAPES]
