"""The integer kernels of exactalg against their Fraction references.

Every kernel must return exactly the values of the `Fraction` bodies kept in
`fraction_reference`: products, matrix-vector products, reduced row echelon
forms, Faddeev-LeVerrier and the transfer function, on mixed denominators,
zero rows and columns, empty shapes and rank-deficient matrices up to
n = 12.  The Krylov sequences (x A^k on rows, as `decouple.square_decouple`
reads them, and A^k x) are checked against Fraction powers.
"""

import operator
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
from fraction_reference import PolyMatrix, s_identity_minus
from morgan.errors import MorganError
from morgan.exactalg import (
    Poly,
    RationalMatrix,
    _krylov,
    _reduce,
    _scaled_matrix,
    resolvent,
    transfer_function,
)

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
SIZES = st.integers(0, 12)

# a dense 12 x 12 matrix with mixed denominators and full rank
DENSE_12 = RationalMatrix(
    [[Fraction(i - j + 1, 1 + (i * j) % 5) for j in range(12)] for i in range(12)]
)


@st.composite
def matrices(draw, rows, cols):
    """rows x cols matrices with zero rows, zero columns and dependent rows."""
    flat = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    m = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    if rows:
        index = st.integers(0, rows - 1)
        for i in draw(st.sets(index, max_size=2)):
            m[i] = [Fraction(0)] * cols
        for i, j, k in draw(st.lists(st.tuples(index, index, index), max_size=3)):
            q = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
            m[i] = [x + q * y for x, y in zip(m[j], m[k])]
    if cols:
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in m:
                row[j] = Fraction(0)
    return RationalMatrix(m)


@st.composite
def square_matrices(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    return draw(matrices(n, n))


@st.composite
def product_pairs(draw):
    r, k, c = draw(SIZES), draw(SIZES), draw(SIZES)
    return draw(matrices(r, k)), draw(matrices(k, c))


def outcome(fn, *args):
    """fn(*args), or the message of the MorganError it raises."""
    try:
        return fn(*args)
    except MorganError as e:
        return f"MorganError: {e}"


def adjugate(d, mats):
    """adj(sI - A) = sum_k M_k(A) s^(n-1-k), M_k(A) = M_k(dA) / d^k."""
    n = len(mats)
    return PolyMatrix(
        [[Poly([Fraction(mats[n - 1 - p][i][j], d ** (n - 1 - p)) for p in range(n)])
          for j in range(n)]
         for i in range(n)]
    )


class TestProduct:
    @given(product_pairs())
    @example((DENSE_12, DENSE_12))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, pair):
        # an empty matrix has no columns, so 0 x k factors raise on both sides
        a, b = pair
        assert outcome(operator.mul, a, b) == outcome(ref.mul, a, b)

    @given(st.integers(0, 12).flatmap(lambda r: SIZES.flatmap(lambda c: matrices(r, c))),
           st.lists(ENTRIES, min_size=12, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_mul_vector_matches_reference(self, a, pool):
        """The product kernel on a one-column right factor is the reference
        matrix-vector product: its row sums are the entries (0 on rows with
        no column, as for the empty sum)."""
        v = tuple(pool[: a.cols])
        product = a * RationalMatrix([[x] for x in v])
        assert tuple(sum(r, Fraction(0)) for r in product.entries) == ref.mul_vector(a, v)

    def test_empty_shapes(self):
        three_by_zero = RationalMatrix([[], [], []])
        assert three_by_zero.rows == 3 and three_by_zero.cols == 0
        empty = RationalMatrix([])
        assert three_by_zero * empty == ref.mul(three_by_zero, empty)
        assert (three_by_zero * empty).rows == 3
        assert empty * RationalMatrix.identity(0) == empty
        row_sums = tuple(sum(r, Fraction(0)) for r in (three_by_zero * empty).entries)
        assert row_sums == ref.mul_vector(three_by_zero, ()) == (0, 0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(MorganError):
            RationalMatrix.identity(2) * RationalMatrix.identity(3)


class TestKrylov:
    """The integer Krylov sequence (the rows C_i A_f^k that
    decouple.relative_degrees and square_decouple read, and the chains of
    canonical.to_pencil_form) against Fraction powers x A^k and A^k x."""

    @given(square_matrices(), st.lists(ENTRIES, min_size=12, max_size=12),
           st.integers(0, 6), st.booleans())
    @example(DENSE_12, [Fraction(k, 1 + k % 3) for k in range(12)], 6, True)
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_powers(self, a, pool, count, rows):
        n = a.rows
        x = pool[:n]
        d, ah = _scaled_matrix(a.entries)
        got = list(islice(_krylov(x, list(zip(*ah)) if rows else ah, d), count))
        want = []
        for _ in range(count):
            want.append(x)
            if rows:  # x A
                x = [sum((x[i] * a[i, j] for i in range(n)), Fraction(0)) for j in range(n)]
            else:  # A x
                x = [sum((a[i, j] * x[j] for j in range(n)), Fraction(0)) for i in range(n)]
        assert got == want


def reduced_echelon(a: RationalMatrix):
    """(rows, pivot columns) of the reduced row echelon form read off _reduce:
    its pivot rows divided by their pivots, then its other rows, which must be
    zero."""
    m, pivots = _reduce(a.entries, a.cols)
    assert not any(x for row in m[len(pivots):] for x in row)
    rows = [[Fraction(x, m[i][c]) for x in m[i]] for i, c in enumerate(pivots)]
    return rows + [[Fraction(0)] * a.cols for _ in m[len(pivots):]], pivots


class TestEchelon:
    @given(st.integers(0, 12).flatmap(lambda r: SIZES.flatmap(lambda c: matrices(r, c))))
    @example(DENSE_12)
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, a):
        assert reduced_echelon(a) == ref.echelon(a)

    @given(square_matrices(), st.lists(ENTRIES, min_size=12, max_size=12))
    @example(DENSE_12, [Fraction(k, 1 + k % 3) for k in range(12)])
    @settings(max_examples=60, deadline=None)
    def test_solve_inverse_nullspace(self, a, pool):
        rhs = tuple(pool[: a.rows])
        assert a.solve([rhs]) == ([ref_solve(a, rhs)], ref_nullspace(a))
        assert a.nullspace() == ref_nullspace(a)
        if a.rank() == a.rows:
            assert a.inverse() * a == RationalMatrix.identity(a.rows)
        else:
            with pytest.raises(MorganError, match="matrix is singular"):
                a.inverse()

    @given(st.integers(0, 12).flatmap(lambda r: SIZES.flatmap(lambda c: matrices(r, c))),
           st.lists(st.lists(ENTRIES, min_size=12, max_size=12), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_solve_many_right_hand_sides(self, a, pool):
        """One elimination for several right-hand sides, consistent (images
        a * x) or not, gives what solving each alone gives."""
        rhss = [v[: a.rows] for v in pool] + [ref.mul_vector(a, v[: a.cols]) for v in pool]
        assert a.solve(rhss) == ([ref_solve(a, v) for v in rhss], ref_nullspace(a))


def ref_solve(a, rhs):
    m, pivots = ref.echelon(RationalMatrix([list(r) + [v] for r, v in zip(a.entries, rhs)]))
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for r, c in enumerate(pivots):
        x[c] = m[r][-1]
    return tuple(x)


def ref_nullspace(a):
    m, pivots = ref.echelon(a)
    basis = []
    for fc in (c for c in range(a.cols) if c not in pivots):
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][fc]
        basis.append(tuple(v))
    return basis


class TestResolvent:
    @given(square_matrices())
    @example(DENSE_12)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, a):
        d, mats, chi = resolvent(a)
        ref_adj, ref_chi = ref.resolvent(a)
        assert chi == ref_chi
        assert adjugate(d, mats) == ref_adj

    @given(square_matrices())
    @example(DENSE_12)
    @settings(max_examples=25, deadline=None)
    def test_adjugate_identity(self, a):
        # adj(s) (sI - A) = chi(s) I identically, with chi monic
        n = a.rows
        d, mats, chi = resolvent(a)
        lhs = adjugate(d, mats) * s_identity_minus(a)
        expected = PolyMatrix(
            [[chi if i == j else Poly.zero() for j in range(n)] for i in range(n)]
        )
        assert lhs == expected
        assert chi.leading() == 1 and chi.degree == n


@st.composite
def closed_loops(draw):
    n = draw(st.integers(1, 12))
    l = draw(st.integers(1, 4))
    p = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    a, b, c = draw(matrices(n, n)), draw(matrices(n, l)), draw(matrices(p, n))
    if draw(st.booleans()):
        return a, b, c, None, None
    return a, b, c, draw(matrices(l, n)), draw(matrices(l, m))


class TestTransferFunction:
    @given(closed_loops())
    @example((DENSE_12, DENSE_12.submatrix(range(12), range(3)),
              DENSE_12.submatrix(range(2), range(12)), None, None))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, system):
        a, b, c, f, g = system
        acl = a if f is None else a + b * f
        bg = b if g is None else b * g
        assert transfer_function(acl, bg, c, resolvent(acl)[2]) == ref.transfer_function(*system)
