"""Finite search space: admissible index tuples and row configurations."""

from itertools import combinations_with_replacement
from math import comb

import golden_data as pd
from morgan.admissible import enumerate_row_configs, enumerate_tuples


def is_admissible_dimension(sigma, d: int) -> bool:
    """Single-index admissibility: sigma_k <= d <= sigma_1 + ... + sigma_k.

    k is the largest index with sigma_k <= d; False when every index exceeds d.
    Note that tuple admissibility (enumerate_tuples) is stronger than
    admissibility of each component.
    """
    if d < 1:
        return False
    k = 0
    acc = 0
    for s in sigma:
        if s <= d:
            k += 1
            acc += s
        else:
            break
    if k == 0:
        return False
    return d <= acc


def brute_force_tuples(sigma, m):
    """Filter every nondecreasing m-tuple with entries up to n by the prefix rule."""
    n = sum(sigma)

    def k_of(v):
        return sum(1 for s in sigma if s <= v)

    out = []
    for cand in combinations_with_replacement(range(1, n + 1), m):
        ok = True
        total = 0
        for v in cand:
            k = k_of(v)
            if k == 0:
                ok = False
                break
            total += v
            if total > sum(sigma[:k]):
                ok = False
                break
        if ok:
            out.append(cand)
    return out


class TestSingleDimension:
    def test_example1_seven(self):
        assert is_admissible_dimension((1, 1, 3, 4), 7)

    def test_example1_two(self):
        # 2 is dimension-admissible even though no tuple of Example 1's list
        # contains it except (2, 3, 4)
        assert is_admissible_dimension((1, 1, 3, 4), 2)

    def test_below_smallest(self):
        assert not is_admissible_dimension((2, 2), 1)

    def test_gap(self):
        # sigma = (1, 4): k(2) = 1 and 2 > 1
        assert not is_admissible_dimension((1, 4), 2)


class TestEnumerateTuples:
    def test_example1_list(self):
        assert enumerate_tuples((1, 1, 3, 4), 3) == pd.EX1_I_LIST

    def test_example2_list(self):
        assert enumerate_tuples((1, 2, 2, 2, 2), 3) == pd.EX2_I_LIST

    def test_square_case(self):
        assert enumerate_tuples((1, 1), 2) == [(1, 1)]

    def test_one_admissible_tuple_among_many_candidates(self):
        # only admissible prefixes are extended: C(40, 8) and C(64, 16)
        # multisets fit the component bounds, but each sigma admits one tuple
        assert enumerate_tuples((1,) * 7 + (33,), 8) == [(1,) * 7 + (33,)]
        assert enumerate_tuples((1,) * 15 + (49,), 16) == [(1,) * 15 + (49,)]

    def test_sum_bounded_by_n(self):
        for sigma in [(1, 1, 3, 4), (1, 2, 2, 2, 2), (2, 3, 4)]:
            for m in range(1, len(sigma) + 1):
                for t in enumerate_tuples(sigma, m):
                    assert sum(t) <= sum(sigma)

    def test_brute_force_oracle_all_small_sigma(self):
        # every nondecreasing sigma with sum <= 9 and every m, and up to
        # sum 12 with m <= 4, the largest shapes the benchmark solves
        def partitions(total, minimum=1):
            if total == 0:
                yield ()
                return
            for first in range(minimum, total + 1):
                for rest in partitions(total - first, first):
                    yield (first,) + rest

        for n in range(1, 13):
            for sigma in partitions(n):
                for m in range(1, (len(sigma) if n <= 9 else min(len(sigma), 4)) + 1):
                    assert enumerate_tuples(sigma, m) == brute_force_tuples(sigma, m)


class TestRowConfigs:
    def test_example1(self):
        configs = enumerate_row_configs((1, 1, 3, 4), 3)
        assert [c.positions for c in configs] == pd.EX1_M_POSITIONS
        assert [c.blocks for c in configs] == [(1,), (2,), (3,), (4,)]

    def test_example2(self):
        configs = enumerate_row_configs((1, 2, 2, 2, 2), 3)
        assert [c.positions for c in configs] == pd.EX2_M_POSITIONS

    def test_full_output_case(self):
        configs = enumerate_row_configs((1, 2), 2)
        assert len(configs) == 1
        assert configs[0].blocks == ()

    def test_counts(self):
        for sigma in [(1, 1, 3, 4), (1, 2, 2, 2, 2)]:
            l = len(sigma)
            for m in range(1, l + 1):
                assert len(enumerate_row_configs(sigma, m)) == comb(l, l - m)

    def test_complement(self):
        configs = enumerate_row_configs((1, 1, 3, 4), 3)
        assert configs[0].complement(4) == (2, 3, 4)
