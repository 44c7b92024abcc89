"""The integer ConstraintSet, its Grids and the structural bound of
generic_rank against their Fraction references in param_oracle: the same
reductions (up to the set's scale), values and constraint text; the rank of
the bound-first reference, no evaluation behind a short bound and the random
stream of the evaluate-first reference; the sparse reduction, elimination
and row degree against the dense kernels they replaced; randints against
random.randint."""

import random
from fractions import Fraction
from math import gcd, lcm

import hypothesis
import pytest
from hypothesis import given, settings, strategies as st

from morgan.decouple import INSTANTIATION_BOUND
from morgan.exactalg import rank
from morgan.paramalg import (
    SAMPLE_BOUND,
    ConstraintSet,
    Grid,
    ParamId,
    generic_rank,
    instantiate,
    randints,
    structural_rank,
)
from morgan.squaring import _grid, _row_degree
from param_oracle import (
    CountingRandom,
    DenseConstraintSet,
    FractionElimination,
    LinearForm,
    brute_structural_rank,
    check_bound_first,
    dense_row_degree,
    sparse_form,
    dict_solve_zero_constraints,
    param_matrix,
    reference_generic_rank,
    state_after_draws,
    to_dense,
    to_sparse,
)

PARAMS = tuple(ParamId(1, 1, k) for k in range(1, 7))
INDEX = {p: k + 1 for k, p in enumerate(PARAMS)}
SIZE = len(PARAMS)

# integral and homogeneous, as every form the search builds
coeffs = st.integers(-16, 16)
forms_st = st.one_of(
    st.builds(
        LinearForm,
        st.just(Fraction(0)),
        st.dictionaries(st.sampled_from(PARAMS), coeffs, max_size=4),
    ),
    # a single parameter: equated to zero, it forces that parameter to 0
    st.builds(LinearForm.of_param, st.sampled_from(PARAMS)),
)
form_lists = st.lists(forms_st, max_size=7)
points = st.fixed_dictionaries(
    {k: st.one_of(st.integers(-9, 9), st.fractions(min_value=-4, max_value=4, max_denominator=4))
     for k in range(1, SIZE + 1)}
)
cell_grids = st.lists(
    st.lists(st.one_of(st.just(0), st.integers(1, SIZE)), min_size=4, max_size=4),
    min_size=1,
    max_size=4,
)


def sparse(f):
    return sparse_form(f, INDEX)


def dense(f):
    """The dense form that the Fraction reference takes."""
    return to_dense(sparse(f), SIZE)


def both(forms):
    """(integer state, Fraction state), each built one form at a time."""
    new, old = ConstraintSet(), FractionElimination()
    for f in forms:
        new = new.extended([sparse(f)])
        old = old.extended([dense(f)])
    return new, old


class CountingGrid(Grid):
    """The Grid of rows of sparse forms (see squaring._grid) that logs each
    call of pattern, params and values by name."""

    def __init__(self, entries):
        grid = _grid(entries)
        super().__init__(grid.forms, grid.cells)
        self.log = []

    def pattern(self):
        self.log.append("pattern")
        return super().pattern()

    def params(self):
        self.log.append("params")
        return super().params()

    def values(self, point):
        self.log.append("values")
        return super().values(point)


def same_rank_and_stream(new_grid, ref_grid, seed):
    """The bound-first rank of the reference, after exactly its draws (see
    check_bound_first)."""
    check_bound_first(generic_rank, new_grid, ref_grid, seed)


class TestIntegerElimination:
    @given(form_lists, forms_st, points)
    @settings(max_examples=300, deadline=None)
    def test_same_as_fraction_reference(self, forms, probe, point):
        new, old = both(forms)
        assert new.order == old.order
        assert new.describe(PARAMS) == old.constraint_set(PARAMS).describe()
        assert new.reduce(sparse(probe)) == to_sparse(
            new.scale * x for x in old.reduce(dense(probe)))
        # every parameter on the constraint set, as a one-row Grid
        values = instantiate(new.apply([list(range(1, SIZE + 1))]), point)
        assert list(values.row(0)) == [old.value(col, point) for col in range(1, SIZE + 1)]

    @given(form_lists)
    @settings(max_examples=200, deadline=None)
    def test_rows_are_primitive_multiples_of_the_reference(self, forms):
        new, old = both(forms)
        assert new.rows.keys() == old.rows.keys()
        for c, row in new.rows.items():
            p = row[c]
            assert p > 0 and all(type(x) is int and x for x in row.values())
            assert gcd(*row.values()) == 1
            assert [Fraction(x, p) for x in to_dense(row, SIZE)] == old.rows[c]
        assert new.scale == lcm(1, *(row[c] for c, row in new.rows.items()))

    @given(form_lists, st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_prefix_state_equals_state_from_scratch(self, forms, cut):
        whole = ConstraintSet().extended(sparse(f) for f in forms)
        head = ConstraintSet().extended(sparse(f) for f in forms[:cut])
        tail = head.extended(sparse(f) for f in forms[cut:])
        assert (tail.rows, tail.order, tail.scale) == (whole.rows, whole.order, whole.scale)

    def test_matches_the_substitution_solver(self):
        x, y, z = PARAMS[:3]
        forms = [LinearForm(0, {x: 2, y: 3}), LinearForm(0, {y: 12, z: 1})]
        new, _ = both(forms)
        assert new.describe(PARAMS) == dict_solve_zero_constraints(forms).describe()

    @given(
        form_lists,
        st.lists(st.lists(st.one_of(st.none(), forms_st), min_size=3, max_size=3),
                 min_size=1, max_size=3),
        st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_degree_rows_are_one_positive_multiple_of_the_exact_row(
            self, constraints, degrees, extra):
        """N_hat row forms come as integer forms den times the exact
        coefficients; each row _row_degree returns is the exact reduced row
        times the one factor scale * den."""
        new, old = both(constraints)
        exact = [[f and dense(f) for f in entries] for entries in degrees]
        den = extra * lcm(*[x.denominator for entries in exact for f in entries if f
                            for x in f])
        coeffs_r = [[f and (None, to_sparse(int(x * den) for x in f)) for f in entries]
                    for entries in exact]
        reduced = [[f and old.reduce(f) for f in entries] for entries in exact]
        nonzero = [d for d, entries in enumerate(reduced) if any(f and any(f) for f in entries)]
        deg, row = _row_degree(coeffs_r, new, len(degrees) - 1)
        if not nonzero:
            assert (deg, row) == (-1, None)
            return
        assert deg == nonzero[-1]
        factor = new.scale * den
        assert factor > 0
        for f, g in zip(row, reduced[deg]):
            if f is None:
                assert not (g and any(g))
            else:
                assert all(type(x) is int for x in f.values())
                assert f == to_sparse(factor * x for x in g)


@st.composite
def cancelling_case(draw):
    """(forms, entries): dense integer forms, integer combinations of the
    first two or three of four vectors, and probe forms, combinations of
    all four.  Reductions cancel entries, many forms reduce to zero and
    the probes keep a part outside the constraint set."""
    base = draw(st.lists(st.lists(st.integers(-3, 3), min_size=SIZE, max_size=SIZE),
                         min_size=4, max_size=4))
    used = draw(st.integers(2, 3))

    def combos(vectors, count):
        out = []
        for _ in range(count):
            mix = draw(st.lists(st.integers(-2, 2), min_size=len(vectors),
                                max_size=len(vectors)))
            out.append([0] + [sum(a * v[k] for a, v in zip(mix, vectors))
                              for k in range(SIZE)])
        return out

    return combos(base[:used], 8), combos(base, 9)


def holds_no_zero(form):
    return all(form.values())


class TestSparseAgainstDenseKernels:
    """The sparse kernels against the dense ones they replaced
    (param_oracle.dense_reduce, DenseConstraintSet, dense_row_degree):
    the same reductions entry by entry, rows, order and scale, and row
    degrees, with no stored zero in any form or row returned.  A stored
    zero would be counted as a coefficient by _row_degree."""

    @hypothesis.seed(5021)
    @given(cancelling_case(), st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_same_reductions_rows_and_row_degrees(self, case, top):
        forms, entries = case
        new, old = ConstraintSet(), DenseConstraintSet()
        for f in forms:
            g = new.reduce(to_sparse(f))
            assert holds_no_zero(g) and g == to_sparse(old.reduce(f))
            new, old = new.extended([to_sparse(f)]), old.extended([f])
            assert (new.rows, new.order, new.scale) == (old.rows, old.order, old.scale)
            assert all(holds_no_zero(row) for row in new.rows.values())
        for f in entries:
            g = new.reduce(to_sparse(f))
            assert holds_no_zero(g) and g == to_sparse(old.reduce(f))
        dense_rows = [[f if any(f) else None for f in entries[3 * d:3 * d + 3]]
                      for d in range(top + 1)]
        sparse_rows = [[f and (None, to_sparse(f)) for f in row] for row in dense_rows]
        deg, row = _row_degree(sparse_rows, new, top)
        ref_deg, ref_row = dense_row_degree(
            [[f and (None, f) for f in row] for row in dense_rows], old, top)
        assert deg == ref_deg
        assert row == (ref_row and [f and to_sparse(f) for f in ref_row])
        assert all(holds_no_zero(f) for f in row or () if f is not None)


patterns = st.integers(1, 5).flatmap(
    lambda cols: st.tuples(
        st.just(cols),
        st.lists(st.sets(st.integers(0, cols - 1)).map(sorted), min_size=1, max_size=5),
    )
)


class TestStructuralRank:
    @given(patterns)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_matching(self, case):
        cols, pattern = case
        assert structural_rank(pattern) == brute_structural_rank(pattern, cols)

    @given(patterns, st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_bounds_the_rank_at_any_point(self, case, seed):
        cols, pattern = case
        rng = random.Random(seed)
        for _ in range(3):
            m = [[rng.randint(-2, 2) if j in row else 0 for j in range(cols)] for row in pattern]
            assert rank(m) <= structural_rank(pattern)


class TestGenericRankWithBound:
    @given(
        st.lists(st.lists(forms_st, min_size=3, max_size=3), min_size=1, max_size=4),
        form_lists,
        st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_form_grid(self, entries, constraints, seed):
        new, old = both(constraints)
        grids = [
            _grid([[new.reduce(sparse(e)) or None for e in row] for row in entries]),
            _grid([[to_sparse(old.reduce(dense(e))) or None for e in row] for row in entries]),
        ]
        assert grids[0].cells == grids[1].cells
        assert [{k: Fraction(x, new.scale) for k, x in f.items()}
                for f in grids[0].forms.values()] == list(grids[1].forms.values())
        same_rank_and_stream(*grids, seed)

    @given(cell_grids, form_lists, st.integers(0, 10**6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_param_grid(self, cells, constraints, seed, zero_row):
        new, old = both(constraints)
        if zero_row:
            cells = cells + [[0] * 4]
        substituted = old.constraint_set(PARAMS).apply(param_matrix(cells, PARAMS))
        same_rank_and_stream(new.apply(cells), substituted, seed)

    @given(
        st.lists(st.lists(st.one_of(st.none(), st.sampled_from(PARAMS).map(
            lambda p: sparse(LinearForm.of_param(p)))), min_size=3, max_size=3),
            min_size=1, max_size=4),
        st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_evaluates_until_the_brute_force_bound(self, entries, seed):
        """A structural rank (found by brute force) below full is returned
        with no evaluation after the draws of all three trials; a full one
        evaluates trial by trial until the rank is full."""
        grid = CountingGrid(entries)
        bound = brute_structural_rank(
            [[j for j, f in enumerate(row) if f is not None] for row in entries], grid.cols)
        full = min(grid.rows, grid.cols)
        rng, expected, best = random.Random(seed), 0, bound
        if bound == full:
            best = 0
            for _ in range(3):
                point = {p: rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for p in grid.params()}
                expected += 1
                best = max(best, rank(Grid.values(grid, point)))
                if best == full:
                    break
        else:
            for _ in range(3 * len(grid.params())):
                rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)
        generated = random.Random(seed)
        assert generic_rank(grid, generated) == best
        assert grid.log.count("values") == expected
        assert generated.getstate() == rng.getstate()

    @given(cell_grids, form_lists, points)
    @settings(max_examples=150, deadline=None)
    def test_param_grid_pattern_is_the_support(self, cells, constraints, point):
        new, _ = both(constraints)
        grid = new.apply(cells)
        pattern = grid.pattern()
        for r, row in enumerate(grid.values(point)):
            assert all(j in pattern[r] for j, x in enumerate(row) if x)
        # an entry in the pattern depends on a free column
        for r, row in enumerate(cells):
            for j in pattern[r]:
                c = row[j]
                assert c not in new.rows or len(new.rows[c]) > 1

    def test_forced_zero_pivot_is_skipped_and_draws_stay(self):
        x, y = PARAMS[0], PARAMS[1]
        new, old = both([LinearForm.of_param(x)])  # x = 0 on the constraint set
        cells = [[1, 2], [1, 0]]  # second row is x alone: zero
        grid = new.apply(cells)
        assert grid.pattern() == [[1], []]
        substituted = old.constraint_set(PARAMS).apply(param_matrix(cells, PARAMS))
        a, b = random.Random(5), CountingRandom(5)
        assert generic_rank(grid, a) == reference_generic_rank(substituted, b) == 1
        assert b.draws == 3 and a.getstate() == b.getstate() == state_after_draws(5, 3)


def test_full_bound_reads_the_pattern_once_and_evaluates_to_full_rank():
    """The structural bound comes first, and a grid keeps it: testing the
    same grid again reads neither its pattern nor its parameters."""
    grid = CountingGrid([[{1: 1}, {2: 1}], [{2: 1}, None]])
    rng = random.Random(1)
    assert generic_rank(grid, rng) == 2
    assert sorted(grid.log) == ["params", "pattern", "values"]
    assert rng.getstate() == state_after_draws(1, 2)
    assert generic_rank(grid, rng) == 2
    assert sorted(grid.log) == ["params", "pattern", "values", "values"]
    assert rng.getstate() == state_after_draws(1, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_short_rank_stops_evaluating_at_the_bound(seed):
    # structural rank 1 below full rank 2: no evaluation, three trials of
    # two draws, on the first test of the grid and on a repeated one
    grid = CountingGrid([[{1: 1}, {2: 1}], [None, None]])
    rng = random.Random(seed)
    assert generic_rank(grid, rng) == 1
    assert "values" not in grid.log and rng.getstate() == state_after_draws(seed, 3 * 2)
    assert generic_rank(grid, rng) == 1
    assert "values" not in grid.log and rng.getstate() == state_after_draws(seed, 2 * 3 * 2)


@pytest.mark.parametrize("bound", [SAMPLE_BOUND, INSTANTIATION_BOUND])
def test_randints_is_randint(bound):
    """randints gives the values of randint(-bound, bound) and leaves the
    generator in the same state, over 200 seeds and 1000 draws each."""
    for seed in range(200):
        a, b = random.Random(seed), random.Random(seed)
        assert randints(a, bound, 1000) == [b.randint(-bound, bound) for _ in range(1000)]
        assert a.getstate() == b.getstate()
