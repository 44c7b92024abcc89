"""Enumeration of the finite search space.

The outer list holds the admissible closed-loop controllability-index
m-tuples; the inner list holds the row configurations for M(s) (which pencil
block-end rows receive the preliminary feedback).  Both lists are ordered
lexicographically so the whole search is deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from .canonical import offsets_from_sigma, positions_from_sigma
from .errors import MorganError


def enumerate_tuples(sigma, m: int):
    """Ordered list of admissible closed-loop CI m-tuples.

    A nondecreasing tuple (st_1, ..., st_m) qualifies iff every prefix
    satisfies st_1 + ... + st_i <= sigma_1 + ... + sigma_{k_i} with
    k_i the largest index such that sigma_{k_i} <= st_i.  Components below
    sigma_1 are rejected (k_i undefined).  The rule holds for every prefix of
    an admissible tuple, so the list grows one position at a time and only
    admissible prefixes are extended.  Lexicographic order.
    """
    sigma = tuple(sigma)
    if m > len(sigma):
        raise MorganError("m must not exceed the number of inputs")
    prefix = offsets_from_sigma(sigma)
    tuples = [()]
    for _ in range(m):
        tuples = [
            t + (v,)
            for t in tuples
            for v in range(t[-1] if t else sigma[0], prefix[-1] - sum(t) + 1)
            if sum(t) + v <= prefix[bisect_right(sigma, v)]
        ]
    return tuples


@dataclass(frozen=True)
class RowConfig:
    """One choice of the l-m pencil rows that form M(s).

    blocks are 1-based block indices; positions are the matching s-positions
    p_i = sigma_1 + ... + sigma_{blocks[i]}.
    """

    blocks: tuple
    positions: tuple

    def complement(self, l):
        return tuple(b for b in range(1, l + 1) if b not in self.blocks)

    def __str__(self):
        return "(" + ", ".join(map(str, self.positions)) + ")"


def enumerate_row_configs(sigma, m: int):
    """All C(l, l-m) strictly increasing block choices, lexicographic."""
    l = len(sigma)
    if m > l:
        raise MorganError("m must not exceed the number of inputs")
    pos = positions_from_sigma(sigma)
    out = []
    for blocks in combinations(range(1, l + 1), l - m):
        out.append(
            RowConfig(
                blocks=tuple(blocks),
                positions=tuple(pos[b - 1] for b in blocks),
            )
        )
    return out
