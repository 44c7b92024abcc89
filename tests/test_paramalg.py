"""Parameter algebra: forms, constraint sets, grids, generic rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import golden_data as pd
from morgan.errors import MorganError
from morgan.exactalg import RationalMatrix
from morgan.paramalg import (
    ConstraintSet,
    Grid,
    ParamId,
    generic_rank,
    instantiate,
    solve_zero_constraints,
)
from morgan.squaring import build_QB
from param_oracle import (
    LinearForm,
    at_columns,
    sparse_form,
    instantiate_param,
    qb_matrix,
    rat_times_param,
    structural_dependency,
)

X = ParamId(1, 1, 1)
Y = ParamId(1, 2, 1)
Z = ParamId(2, 1, 1)
INDEX = {X: 1, Y: 2, Z: 3}


def form(const=0, **coeffs):
    terms = {}
    for name, c in coeffs.items():
        terms[{"x": X, "y": Y, "z": Z}[name]] = Fraction(c)
    return LinearForm(const, terms)


def sparse(f):
    return sparse_form(f, INDEX)


param_ids = st.builds(
    ParamId,
    i=st.integers(1, 3),
    j=st.integers(1, 3),
    k=st.integers(1, 2),
)
forms_st = st.builds(
    LinearForm,
    st.just(0),
    # integral, as every form the search builds
    st.dictionaries(param_ids, st.integers(-20, 20), max_size=3),
)


class TestLinearForm:
    def test_eval(self):
        f = form(3, x=2)
        assert f.eval({X: Fraction(1, 2)}) == 4

    def test_missing_parameter(self):
        with pytest.raises(KeyError):
            form(0, x=1).eval({})

    def test_canonical_zero_coeffs_dropped(self):
        assert form(1, x=0) == LinearForm(1)

    @given(forms_st, forms_st)
    @settings(max_examples=50, deadline=None)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(forms_st)
    @settings(max_examples=50, deadline=None)
    def test_negation(self, a):
        assert (a + (-a)).is_zero()


class TestSolveZeroConstraints:
    def test_single_params(self):
        cs = solve_zero_constraints([sparse(form(0, x=1)), sparse(form(0, y=1))])
        assert cs.reduce(sparse(form(0, x=1))) == {}
        assert cs.reduce(sparse(form(0, y=1))) == {}
        assert len(cs.order) == 2

    def test_substitution(self):
        cs = solve_zero_constraints([sparse(form(0, x=1, y=-1))])  # x - y = 0
        assert cs.reduce(sparse(form(0, x=1))) == sparse(form(0, y=1))
        assert cs.describe(list(INDEX)) == [f"{X} = {Y}"]

    def test_empty(self):
        assert solve_zero_constraints([]).order == ()

    def test_inconsistent(self):
        """The search builds only forms with no constant, so a nonzero
        constant is a bug, not a verdict."""
        with pytest.raises(MorganError, match="nonzero constant"):
            solve_zero_constraints([sparse(form(2))])

    def test_idempotent(self):
        rng = random.Random(23)
        ids = [ParamId(1, 1, k) for k in range(1, 5)]
        index = {p: k + 1 for k, p in enumerate(ids)}
        for _ in range(20):
            forms = [
                LinearForm(
                    rng.randint(0, 0),
                    {p: Fraction(rng.randint(-2, 2)) for p in rng.sample(ids, 2)},
                )
                for _ in range(3)
            ]
            cs = solve_zero_constraints(sparse_form(f, index) for f in forms)
            once = [cs.reduce(sparse_form(LinearForm.of_param(p), index)) for p in ids]
            # reducing a reduced form only multiplies it by the scale
            assert [cs.reduce(f) for f in once] == [
                {k: cs.scale * x for k, x in f.items()} for f in once]


class TestStructuralDependency:
    def test_identical_rows_example1(self):
        qb = build_QB((1, 1, 3, 4), (1, 4, 4))
        c_r = pd.EX1_C_R
        chat = rat_times_param(c_r, qb_matrix(qb))
        # leading forms of N_hat: columns at block-final degrees
        offs = qb.col_offsets
        rows = [
            [chat[r, offs[j] + sj - 1] for j, sj in enumerate((1, 4, 4))]
            for r in range(3)
        ]
        hit = structural_dependency(rows)
        assert hit is not None
        r, coeffs = hit
        assert r == 2
        assert coeffs == (Fraction(1), Fraction(0))

    def test_independent(self):
        assert structural_dependency([[form(0, x=1)], [form(0, y=1)]]) is None

    def test_proportional(self):
        hit = structural_dependency([[form(0, x=1)], [form(0, x=2)]])
        assert hit == (1, (Fraction(2),))


class TestGenericRank:
    def test_example1_qb_full(self):
        qb = build_QB((1, 1, 3, 4), (1, 4, 4))
        assert generic_rank(ConstraintSet().apply(qb.cells), random.Random(1)) == 9

    def test_example1_qb_117_constrained(self):
        qb = build_QB((1, 1, 3, 4), (1, 1, 7))
        index = {p: k + 1 for k, p in enumerate(qb.params)}
        cs = solve_zero_constraints(
            sparse_form(LinearForm.of_param(p), index)
            for p in (ParamId(1, 1, 1), ParamId(1, 2, 1))
        )
        assert generic_rank(cs.apply(qb.cells), random.Random(1)) <= 8

    def test_zero_matrix(self):
        m = Grid({0: {}}, [[0] * 3 for _ in range(2)])
        assert generic_rank(m, random.Random(1)) == 0

    def test_upper_bounds_instances(self):
        rng = random.Random(17)
        qb = build_QB((1, 2), (1, 2))
        g = generic_rank(ConstraintSet().apply(qb.cells), random.Random(999))
        for _ in range(5):
            assignment = {p: Fraction(rng.randint(-4, 4)) for p in qb.params}
            assert instantiate_param(qb_matrix(qb), assignment).rank() <= g

    def test_deterministic(self):
        qb = build_QB((1, 1, 3, 4), (1, 4, 4))
        a = generic_rank(ConstraintSet().apply(qb.cells), random.Random(42))
        b = generic_rank(ConstraintSet().apply(qb.cells), random.Random(42))
        assert a == b


class TestInstantiate:
    def test_example1_reference_qb(self):
        qb = build_QB((1, 1, 3, 4), (1, 4, 4))
        index = {p: k + 1 for k, p in enumerate(qb.params)}
        constrained = [ParamId(*t[1:]) for t in pd.EX1_CONSTRAINED]
        cs = solve_zero_constraints(
            sparse_form(LinearForm(0, {p: 1}), index) for p in constrained
        )
        assignment = {ParamId(*k[1:]): Fraction(v) for k, v in pd.EX1_QB_ASSIGNMENT.items()}
        point = at_columns(qb.params, assignment)
        assert instantiate(cs.apply(qb.cells), point) == pd.EX1_QB_NUM

    def test_divides_by_den(self):
        """Entries that share a form share its value; den is divided out."""
        m = Grid({0: {}, 1: {1: 2, 2: -1}, 2: {2: 3}}, [[1, 0], [2, 1]], 6)
        assert instantiate(m, {1: 2, 2: Fraction(1, 2)}) == RationalMatrix(
            [[Fraction(7, 12), 0], [Fraction(1, 4), Fraction(7, 12)]])

    def test_scalar_form(self):
        assert form(3, x=2).eval({X: Fraction(1, 2)}) == 4
