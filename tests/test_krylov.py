"""Krylov selection, fixed-pole polynomials and polynomial division.

Each is checked against the construction it replaced, kept in
`fraction_reference`: the staircase selection over Q, the uncontrollable
polynomial from the Kalman matrix and a completed basis, the unobservable
polynomial from the nullspace of the observability matrix, and long division
by `Poly` arithmetic.  The systems are made uncontrollable and unobservable
on purpose: a block-triangular (A, B, C) under a random rational similarity.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
from morgan import zeros
from morgan.canonical import StateSpace, _staircase_select, to_pencil_form
from morgan.decouple import SolveOptions, solve
from morgan.errors import MorganError, NotControllable
from morgan.exactalg import Poly, RationalMatrix, krylov_select, resolvent
from test_zeros import q_square_of, solved_configurations

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


def grid(draw, rows, cols):
    return [draw(st.lists(ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)]


@st.composite
def block_systems(draw, max_n=8):
    """(A, B, C) = T (A0, B0, C0) with A0 = [[A11, A12], [0, A22]], B0 = [B1; 0]
    and C0 = [0, C2], A11 r x r: <A | Im B> lies in T's first r columns, which
    also span unobservable directions.  r = 0 makes B zero, r = n makes C zero."""
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(0, n))
    l = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    a0 = grid(draw, n, n)
    for i in range(r, n):
        a0[i][:r] = [Fraction(0)] * r
    b0 = grid(draw, r, l) + [[Fraction(0)] * l for _ in range(n - r)]
    c0 = [[Fraction(0)] * r + row for row in grid(draw, m, n - r)]
    # T = L U with unit triangular factors is invertible
    lower = grid(draw, n, n)
    upper = grid(draw, n, n)
    for i in range(n):
        lower[i][i:] = [Fraction(1)] + [Fraction(0)] * (n - i - 1)
        upper[i][: i + 1] = [Fraction(0)] * i + [Fraction(1)]
    t = RationalMatrix(lower) * RationalMatrix(upper)
    t_inv = t.inverse()
    return (t * RationalMatrix(a0) * t_inv, t * RationalMatrix(b0),
            RationalMatrix(c0) * t_inv)


class TestKrylovSelection:
    @given(block_systems())
    @settings(max_examples=80, deadline=None)
    def test_chain_lengths_match_staircase_reference(self, system):
        a, b, _ = system
        lengths, kept = krylov_select(a, b)
        rank = ref.kalman_matrix(a, b).rank()
        assert len(kept) == rank
        if kept:
            assert RationalMatrix.from_columns(kept).rank() == rank
        try:
            expected = ref.staircase_select(a, b)
        except NotControllable as e:
            with pytest.raises(NotControllable) as got:
                _staircase_select(a, b)
            assert str(got.value) == str(e)
            assert str(e) == f"controllability matrix has rank {rank} < n = {a.rows}"
        else:
            assert _staircase_select(a, b) == lengths == expected

    def test_not_controllable_message(self):
        """StateSpace checks shapes only; the pencil form needs (A, B)
        controllable."""
        a = RationalMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        b = RationalMatrix([[1, 0], [0, 1], [0, 0]])
        c = RationalMatrix([[1, 1, 1]])
        sys_ = StateSpace(A=a, B=b, C=c)
        with pytest.raises(NotControllable) as got:
            to_pencil_form(sys_)
        assert str(got.value) == "controllability matrix has rank 2 < n = 3"


class TestFixedPolePolynomials:
    @given(block_systems())
    @settings(max_examples=60, deadline=None)
    def test_uncontrollable_matches_kalman_reference(self, system):
        a, b, _ = system
        expected = ref.uncontrollable_polynomial(a, b)
        assert zeros.uncontrollable_polynomial(a, b, resolvent(a)) == expected

    @given(block_systems())
    @settings(max_examples=60, deadline=None)
    def test_unobservable_matches_nullspace_reference(self, system):
        a, _, c = system
        expected = ref.unobservable_polynomial(a, c)
        assert zeros.unobservable_polynomial(a, c, resolvent(a)) == expected

    def test_restriction_rejects_a_subspace_that_is_not_invariant(self):
        a = RationalMatrix([[0, 1], [1, 0]])
        with pytest.raises(MorganError, match="not invariant"):
            zeros._restriction(a, [[1, 0]])

    def test_restriction_rejects_a_rank_deficient_basis(self):
        # every subspace of I is invariant, so only the null vector of V fails
        a = RationalMatrix.identity(2)
        with pytest.raises(MorganError, match="not invariant"):
            zeros._restriction(a, [[1, 0], [2, 0]])

    def test_block_read_matches_reference_on_example2_all(self, ex2):
        # every solved configuration: the Krylov dz of the closed loop, the
        # quotient block of the Q-coordinate square system and the Kalman
        # reference on that system agree
        seen = []
        for sol, qb_num in solved_configurations(ex2, SolveOptions(seed=1729, return_all=True)):
            square = q_square_of(sol, qb_num)
            dz = sol.fixed_poles.input_dz_poly
            assert dz == ref.input_decoupling_zeros(square)
            assert dz == ref.uncontrollable_polynomial(square.A_f, square.B_f)
            seen.append(dz)
        sol = solve(ex2, SolveOptions(seed=1729, return_all=True))
        assert len(seen) == len([o for o in sol.outcomes if o.status == "solved"]) > 1
        assert any(dz.degree > 0 for dz in seen)


POLYS = st.lists(ENTRIES, max_size=9).map(Poly)


class TestPolyDivmod:
    @given(POLYS, POLYS.filter(lambda p: not p.is_zero()))
    @example(Poly.zero(), Poly([1, 2, 3]))
    @example(Poly([1, 2, 3]), Poly([Fraction(3, 2)]))
    @example(Poly([1, 2]), Poly([0, 0, 0, 5]))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, p, d):
        q, r = p.divmod(d)
        assert (q, r) == ref.poly_divmod(p, d)
        assert q * d + r == p
        assert r.is_zero() or r.degree < d.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Poly([1, 2]).divmod(Poly.zero())
