"""The integer kernels of exactalg against their Fraction references.

Every kernel must return exactly the values of the `Fraction` bodies kept in
`fraction_reference`: products, matrix-vector products, reduced row echelon
forms, Faddeev-LeVerrier and the transfer function, on mixed denominators,
zero rows and columns, empty shapes and rank-deficient matrices up to
n = 12.  det D(s) of a controller form equals Faddeev-LeVerrier's chi.  The
Krylov sequences (x A^k on rows, as `decouple.square_decouple` reads them,
and A^k x) are checked against Fraction powers.  The canonical form of
RationalMatrix (den and ints) is checked on matrices built from Fractions,
from integer rows and by products.
"""

import operator
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, lcm

import hypothesis
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
    RESOLVENT_SIZE_CAP,
    _scaled,
    controller_charpoly,
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


@st.composite
def built(draw, rows, cols):
    """(the matrix as Fraction rows, the same matrix built by a drawn route):
    from the Fractions, from integer rows over a multiple of the least
    denominator, as a product with an identity, or scaled by q and by 1/q."""
    fr = [list(r) for r in draw(matrices(rows, cols)).entries]
    route = draw(st.sampled_from(("fractions", "ints", "product", "scaled")))
    if route == "ints":
        d = lcm(*[x.denominator for r in fr for x in r]) * draw(st.integers(1, 6))
        return fr, RationalMatrix._int([[int(x * d) for x in r] for r in fr], d)
    if route == "product":
        return fr, RationalMatrix.identity(rows) * RationalMatrix(fr)
    if route == "scaled":
        q = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))
        return fr, RationalMatrix(fr) * q * (1 / q)
    return fr, RationalMatrix(fr)


def outcome(fn, *args):
    """fn(*args), or the message of the MorganError it raises."""
    try:
        return fn(*args)
    except MorganError as e:
        return f"MorganError: {e}"


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


SMALL = st.integers(0, 4)


class TestRepresentation:
    """RationalMatrix in its canonical form (den, ints) against the plain
    Fraction bodies of fraction_reference, whichever route built it."""

    @hypothesis.seed(32)
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_operations_match_fraction_reference(self, data):
        r, c, k = data.draw(SMALL), data.draw(SMALL), data.draw(SMALL)
        fa, a = data.draw(built(r, c))
        fb, b = data.draw(built(r, c))
        fc, m = data.draw(built(c, k))
        ra, rb, rm = RationalMatrix(fa), RationalMatrix(fb), RationalMatrix(fc)
        q = data.draw(st.one_of(st.integers(-3, 3), st.fractions(max_denominator=5)))
        rows = data.draw(st.lists(st.integers(0, r - 1), max_size=3)) if r else []
        cols = data.draw(st.lists(st.integers(0, c - 1), max_size=3)) if c else []
        for got, want in [
            (a, ra), (a + b, ref.add(ra, rb)), (a - b, ref.add(ra, rb, -1)),
            (-a, ref.scale(ra, -1)), (a * q, ref.scale(ra, q)), (a.transpose(), ref.transpose(ra)),
            (a.submatrix(rows, cols), ref.submatrix(ra, rows, cols)),
        ] + ([(a * m, ref.mul(ra, rm))] if a.cols == m.rows else []):
            assert got == want and hash(got) == hash(want)
            assert got.entries == want.entries and (got.rows, got.cols) == (want.rows, want.cols)
            assert got.den > 0 and gcd(got.den, *[x for row in got.ints for x in row]) == 1
        assert outcome(operator.mul, a, m) == outcome(ref.mul, ra, rm)
        assert a.rank() == len(ref.echelon(ra)[1])
        v = tuple(data.draw(st.lists(ENTRIES, min_size=r, max_size=r)))
        assert a.solve([v]) == ([ref_solve(ra, v)], ref_nullspace(ra))
        if r == c and a.rank() == r:
            assert a.inverse() == ref.inverse(ra) and a.inverse().entries == ref.inverse(ra).entries

    def test_canonical_form(self):
        m = RationalMatrix([[Fraction(1, 2), Fraction(-3, 4)], [0, 6]])
        assert (m.den, m.ints) == (4, ((2, -3), (0, 24)))
        assert RationalMatrix._int([[6, -9], [0, 72]], 12) == m
        assert (RationalMatrix.zeros(2, 3).den, RationalMatrix._int([[0, 0]], 7).den) == (1, 1)
        # the entries a caller passes in are kept as given
        assert RationalMatrix([[Fraction(2, 4)]]).row(0) == (Fraction(1, 2),)
        memo = {m: "kept"}
        assert memo[m * 3 * Fraction(1, 3)] == "kept" == memo[RationalMatrix._int(m.ints, 4)]

    def test_immutable(self):
        m = RationalMatrix([[1, 2]])
        for name, value in [("entries", ((3, 4),)), ("den", 2), ("ints", ((3, 4),)),
                            ("rows", 3), ("extra", 1)]:
            with pytest.raises(AttributeError):
                setattr(m, name, value)
        assert m.entries == ((1, 2),) and m.den == 1


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
        lines = list(zip(*a.ints)) if rows else a.ints
        got = [[Fraction(y, e) for y in v]
               for e, v in islice(_krylov(*_scaled(x), lines, a.den), count)]
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
    m, pivots = _reduce(a.ints, a.cols)
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
        assert resolvent(a) == ref.resolvent(a)[1]

    @given(square_matrices())
    @example(DENSE_12)
    @settings(max_examples=25, deadline=None)
    def test_adjugate_identity(self, a):
        # adj(s) (sI - A) = chi(s) I identically, with chi monic; the
        # adjugate comes from the Fraction reference
        n = a.rows
        chi = resolvent(a)
        lhs = ref.resolvent(a)[0] * s_identity_minus(a)
        expected = PolyMatrix(
            [[chi if i == j else Poly.zero() for j in range(n)] for i in range(n)]
        )
        assert lhs == expected
        assert chi.leading() == 1 and chi.degree == n


def controller_form(sigma, end_rows):
    """The matrix with the given block-end rows and unit chain rows."""
    n = sum(sigma)
    a = [[Fraction(int(j == i + 1)) for j in range(n)] for i in range(n)]
    for p, row in zip(accumulate(sigma), end_rows.entries):
        a[p - 1] = list(row)
    return RationalMatrix(a)


@st.composite
def controller_forms(draw):
    """(sigma, block-end rows): blocks of 1-4 rows, 1-4 blocks, and end rows
    with mixed denominators, zero rows and dependent rows."""
    sigma = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    return sigma, draw(matrices(len(sigma), sum(sigma)))


def companion_ends(sigma, polys):
    """Block-end rows making block j the companion matrix of polys[j]."""
    rows = []
    for j, p in enumerate(polys):
        row = [Fraction(0)] * sum(sigma)
        row[sum(sigma[:j]):sum(sigma[:j + 1])] = [-c for c in p.coeffs[:-1]]
        rows.append(row)
    return RationalMatrix(rows)


S1 = Poly([1, 1])  # s + 1
# block-end rows with denominators; the second set has a zero row
ENDS_5 = RationalMatrix([[Fraction(-1, 3), Fraction(0), Fraction(7, 2), Fraction(0), Fraction(-2, 9)]])
ENDS_1_3 = RationalMatrix([[Fraction(0)] * 4, [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7)]])


class TestControllerCharpoly:
    """chi of a controller form from det D(s) (Wolovich's structure theorem)."""

    @hypothesis.seed(31)
    @given(controller_forms())
    @example(((1, 1, 1, 1), companion_ends((1, 1, 1, 1), [S1] * 4)))  # l = n, A = -I
    @example(((2, 2, 3), companion_ends((2, 2, 3), [S1 * S1, S1 * S1, S1 * S1 * S1])))
    @example(((5,), ENDS_5))  # l = 1
    @example(((1, 3), ENDS_1_3))
    @settings(max_examples=150, deadline=None)
    def test_equals_faddeev_leverrier(self, form):
        sigma, rows = form
        assert controller_charpoly(sigma, rows) == resolvent(controller_form(sigma, rows))

    def test_repeated_factors_across_blocks(self):
        # the closed loops of the static law: (s+1)^k on every output, so
        # chi is (s+1)^n and A is not cyclic
        sigma = (1, 2, 2, 3)
        rows = companion_ends(sigma, [S1, S1 * S1, S1 * S1, S1 * S1 * S1])
        chi = controller_charpoly(sigma, rows)
        assert chi == Poly([1, 8, 28, 56, 70, 56, 28, 8, 1])
        assert chi == resolvent(controller_form(sigma, rows))

    def test_size_cap(self):
        n = RESOLVENT_SIZE_CAP
        assert controller_charpoly((n,), RationalMatrix.zeros(1, n)) == Poly([0] * n + [1])
        with pytest.raises(MorganError, match=f"size cap exceeded \\({n + 1} > {n}\\)"):
            controller_charpoly((n - 1, 2), RationalMatrix.zeros(2, n + 1))


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
        chi = resolvent(acl)
        assert ref.lowest_terms(transfer_function(acl, bg, c, chi), chi) == ref.transfer_function(*system)
