"""Sparse-form parameter algebra and Grid against the LinearForm reference in param_oracle."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
import hypothesis
from hypothesis import given, settings, strategies as st

from morgan.admissible import enumerate_row_configs, enumerate_tuples
from morgan.canonical import to_pencil_form
from morgan.errors import MorganError
from morgan.fileio import load_system
from morgan.paramalg import (
    ConstraintSet,
    ParamId,
    generic_rank,
    instantiate,
    solve_zero_constraints,
)
from morgan.squaring import _grid, build_QB, decouplability_search, dtilde_hc
from param_oracle import (
    LinearForm,
    ParamMatrix,
    check_bound_first,
    sparse_form,
    dict_decouplability_search,
    dict_generic_rank,
    dict_solve_zero_constraints,
    dtilde_hc_formpoly,
    instantiate_param,
    linear_form,
    n_alpha_matrix,
    param_matrix,
)

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"

PARAMS = tuple(ParamId(1, 1, k) for k in range(1, 7))
INDEX = {p: k + 1 for k, p in enumerate(PARAMS)}

# integral and homogeneous, as every form the search builds
coeffs = st.integers(-9, 9)
forms_st = st.builds(
    LinearForm,
    st.just(Fraction(0)),
    st.dictionaries(st.sampled_from(PARAMS), coeffs, max_size=4),
)
form_lists = st.lists(forms_st, max_size=6)
cell_grids = st.lists(
    st.lists(st.integers(0, len(PARAMS)), min_size=4, max_size=4), min_size=1, max_size=4)


def sparse(f):
    return sparse_form(f, INDEX)


def eliminate(forms):
    elim = ConstraintSet()
    for f in forms:
        elim = elim.extended([sparse(f)])
    return elim


class TestElimination:
    @given(form_lists)
    @settings(max_examples=200, deadline=None)
    def test_same_constraint_set_as_reference(self, forms):
        expected = dict_solve_zero_constraints(forms)
        cs = solve_zero_constraints(sparse(f) for f in forms)
        assert cs.describe(PARAMS) == expected.describe()
        assert tuple(PARAMS[c - 1] for c in cs.order) == expected.order

    @given(form_lists)
    @settings(max_examples=200, deadline=None)
    def test_forms_reduce_to_zero_and_pivots_stay_off_the_right(self, forms):
        cs = solve_zero_constraints(sparse(f) for f in forms)
        for f in forms:
            assert cs.reduce(sparse(f)) == {}
        pivots = set(cs.order)
        for c, row in cs.rows.items():
            assert pivots & set(row) == {c}

    @given(form_lists, st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_prefix_reuse_equals_from_scratch(self, forms, cut):
        whole = eliminate(forms)
        head = eliminate(forms[:cut])
        tail = head.extended(sparse(f) for f in forms[cut:])
        assert tail.rows == whole.rows and tail.order == whole.order
        # extending a state leaves it as it was
        assert head.rows == eliminate(forms[:cut]).rows

    def test_inconsistent_message(self):
        """A constant left after the reduction (column 0) is a bug: no form
        the search builds has one."""
        x = PARAMS[0]
        with pytest.raises(MorganError, match=r"reduces to a nonzero constant \(bug\)"):
            solve_zero_constraints([sparse(LinearForm(0, {x: 1})), sparse(LinearForm(2, {x: 1}))])

    @given(forms_st)
    @settings(max_examples=50, deadline=None)
    def test_dense_roundtrip(self, f):
        """The sparse form of a LinearForm holds its nonzero coefficients only."""
        form = sparse(f)
        assert 0 not in form and all(form.values())
        assert linear_form(form, PARAMS) == f


class TestDenseGenericRank:
    @given(
        st.lists(st.lists(forms_st, min_size=3, max_size=3), min_size=1, max_size=3),
        form_lists,
        st.integers(0, 10**6),
    )
    @hypothesis.seed(26)
    @settings(max_examples=100, deadline=None)
    def test_form_grid_matches_reference(self, entries, constraints, seed):
        """A Grid of reduced sparse forms, as the search builds N_alpha."""
        cs = dict_solve_zero_constraints(constraints)
        elim = eliminate(constraints)
        m = ParamMatrix(entries)
        reduced = [
            [elim.reduce(sparse(e)) or None for e in row]
            for row in entries
        ]
        check_bound_first(generic_rank, _grid(reduced), cs.apply(m), seed, dict_generic_rank)

    @hypothesis.seed(27)
    @given(cell_grids, form_lists, st.integers(0, 10**6),
           st.lists(st.integers(-9, 9), min_size=len(PARAMS), max_size=len(PARAMS)))
    @settings(max_examples=150, deadline=None)
    def test_param_grid_matches_reference(self, cells, constraints, seed, values):
        """cs.apply(cells) is the substituted matrix of parameters: the same
        parameters, pattern, exact entries at a point of the free columns
        and bound-first rank."""
        cs = dict_solve_zero_constraints(constraints)
        m = cs.apply(param_matrix(cells, PARAMS))
        elim = eliminate(constraints)
        grid = elim.apply(cells)
        assert [PARAMS[c - 1] for c in grid.params()] == list(m.params())
        assert grid.pattern() == m.pattern()
        point = dict(zip(grid.params(), values))
        named = {PARAMS[c - 1]: v for c, v in point.items()}
        assert instantiate(grid, point) == instantiate_param(m, named)
        check_bound_first(generic_rank, grid, m, seed, dict_generic_rank)


def search_cases(pencil, tuple_step):
    tuples = enumerate_tuples(pencil.sigma, pencil.C_r.rows)
    configs = enumerate_row_configs(pencil.sigma, pencil.C_r.rows)
    for ti in range(0, len(tuples), tuple_step):
        qb = build_QB(pencil.sigma, tuples[ti])
        for ci, cfg in enumerate(configs):
            yield ti * 100 + ci, qb, cfg


class TestSearchMatchesReference:
    """Same report, same audit text and the same random draws as the LinearForm search."""

    def check(self, pencil, tuple_step):
        for seed, qb, cfg in search_cases(pencil, tuple_step):
            a, b = random.Random(seed), random.Random(seed)
            new = decouplability_search(pencil, qb, cfg, a)
            old = dict_decouplability_search(pencil.C_r, pencil, qb, cfg, b)
            assert (new.success, new.reason, new.candidates_tried) == (
                old.success, old.reason, old.candidates_tried)
            assert new.constraints.describe(qb.params) == old.constraints.describe()
            assert new.degree_deficits == old.degree_deficits
            assert (n_alpha_matrix(new, qb.params, pencil.C_r)
                    == n_alpha_matrix(old, qb.params, pencil.C_r))
            assert a.getstate() == b.getstate()

    def test_example1(self, ex1_pencil):
        self.check(ex1_pencil, 1)

    def test_example2(self, ex2_pencil):
        self.check(ex2_pencil, 5)

    @pytest.mark.parametrize("name", ["nosol_7_66", "nosol_7_70", "nosol_7_112"])
    def test_no_solution_inputs(self, name):
        """Every configuration of the certified no-solution inputs, where
        candidates most often share a constraint set."""
        self.check(to_pencil_form(load_system(str(DATA / (name + ".json")))), 1)

    def test_dtilde_hc_is_the_leading_entries(self, ex1_pencil, ex2_pencil):
        for pencil in (ex1_pencil, ex2_pencil):
            for _, qb, cfg in search_cases(pencil, 1):
                hc = param_matrix(dtilde_hc(pencil, qb, cfg), qb.params)
                assert hc == dtilde_hc_formpoly(pencil, qb, cfg)
