"""Exact scalar / polynomial / matrix layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
import golden_data as pd
from fraction_reference import PolyMatrix, build_S, det, s_identity_minus, shift
from morgan.errors import MorganError
from morgan.exactalg import (
    NEG_INF,
    RESOLVENT_SIZE_CAP,
    Poly,
    RationalMatrix,
    format_poly,
    parse_poly,
    poly_gcd,
    rank,
    resolvent,
    transfer_function,
)
from param_oracle import DegreeExceeded, high_col_coeff, high_row_coeff
from test_integer_kernels import reduced_echelon

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
polys_st = st.lists(fractions_st, min_size=0, max_size=5).map(Poly)


def P(text):
    return parse_poly(text)


class TestPoly:
    def test_zero_degree_is_sentinel(self):
        assert Poly.zero().degree == NEG_INF
        assert Poly.zero().degree < 0
        assert Poly([0, 0]).is_zero()

    def test_parse_format_roundtrip(self):
        for text in ["s^4+2s-3", "s+3", "s^4+s-1", "s^2+3s+2", "7", "-s", "1/2s^2-3/4"]:
            assert format_poly(P(text)) == text.replace(" ", "")

    def test_parse_examples(self):
        assert P("s^2+3s+2") == Poly([2, 3, 1])
        assert P("-3+2s+s^4") == Poly([-3, 2, 0, 0, 1])
        assert P("5/2") == Poly([Fraction(5, 2)])

    def test_divmod(self):
        q, r = P("s^2-1").divmod(P("s-1"))
        assert q == P("s+1") and r.is_zero()

    def test_gcd_examples(self):
        assert poly_gcd(P("s^2-1"), P("s-1")) == P("s-1")
        assert poly_gcd(P("2s+2"), P("4s+4")) == P("s+1")

    @given(polys_st, polys_st, polys_st)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero()

    @given(polys_st, polys_st)
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity(self, a, b):
        if b.is_zero():
            return
        q, r = a.divmod(b)
        assert a == q * b + r
        assert r.is_zero() or r.degree < b.degree


class TestRationalMatrix:
    def test_rank_identity(self):
        assert rank(RationalMatrix.identity(2)) == 2

    def test_zero_test_is_equality_with_zeros(self):
        # no is_zero method: compare with RationalMatrix.zeros
        assert "is_zero" not in vars(RationalMatrix)
        assert RationalMatrix([[0, 0]]) == RationalMatrix.zeros(1, 2)

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.lists(st.one_of(st.just(Fraction(0)), fractions_st), min_size=36, max_size=36),
        st.lists(st.integers(0, 5), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_fraction_echelon(self, r, c, pool, copies):
        rows = [pool[i * c:(i + 1) * c] for i in range(r)]
        for k in copies:  # dependent rows: sums of two earlier rows
            if len(rows) >= 2:
                a, b = rows[k % len(rows)], rows[(k + 1) % len(rows)]
                rows.append([x + 2 * y for x, y in zip(a, b)])
        m = RationalMatrix(rows)
        assert reduced_echelon(m) == ref.echelon(m)
        assert m.rank() == len(ref.echelon(m)[1])
        assert rank([list(row) for row in rows]) == m.rank()

    def test_rank_zero(self):
        assert rank(RationalMatrix.zeros(3, 4)) == 0

    def test_rank_example1_dtilde_hc(self):
        # [D~]_hc of Example 1 instantiated with the reference values
        m = RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 1, 2]])
        assert rank(m) == 3

    def test_inverse_roundtrip(self):
        rng = random.Random(5)
        for _ in range(10):
            m = RationalMatrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
            if m.rank() < 4:
                continue
            assert m * m.inverse() == RationalMatrix.identity(4)

    def test_hstack_row_mismatch(self):
        # hstack is the test helper that builds Kalman matrices
        with pytest.raises(MorganError):
            ref.hstack(RationalMatrix.identity(2), RationalMatrix.identity(3))
        assert ref.hstack(RationalMatrix.identity(2), RationalMatrix.zeros(2, 1)) == RationalMatrix(
            [[1, 0, 0], [0, 1, 0]]
        )

    def test_from_columns_ragged(self):
        for cols in ([(1, 2), (3,)], [(1,), (2, 3)]):
            with pytest.raises(MorganError):
                RationalMatrix.from_columns(cols)
        assert RationalMatrix.from_columns([(1, 2), (3, 4)]) == RationalMatrix([[1, 3], [2, 4]])

    def test_nullspace_and_solve(self):
        m = RationalMatrix([[1, 2, 3], [2, 4, 6]])
        for v in m.nullspace():
            assert all(x == 0 for x in ref.mul_vector(m, v))
        assert m.solve([(1, 2)])[0][0] is not None
        assert m.solve([(1, 3)])[0] == [None]


class TestHighCoeff:
    def test_row_simple(self):
        m = PolyMatrix([[P("s^2+1"), P("2s")]])
        assert high_row_coeff(m, [2]) == RationalMatrix([[1, 0]])

    def test_row_zero_matrix(self):
        m = PolyMatrix.zeros(2, 3)
        assert high_row_coeff(m, [4, 0]) == RationalMatrix.zeros(2, 3)

    def test_row_degree_exceeded(self):
        m = PolyMatrix([[P("s^3")]])
        with pytest.raises(DegreeExceeded):
            high_row_coeff(m, [2])

    def test_col_simple(self):
        m = PolyMatrix([[P("s")], [Poly.one()]])
        assert high_col_coeff(m, [1]) == RationalMatrix([[1], [0]])

    def test_col_zero_scalar(self):
        assert high_col_coeff(PolyMatrix([[Poly.zero()]]), [0]) == RationalMatrix([[0]])

    def test_row_reconstruction_property(self):
        # subtracting s^d_i * (hr row) strictly lowers each row degree below d_i
        rng = random.Random(11)
        for _ in range(20):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            degs = [rng.randint(0, 3) for _ in range(rows)]
            m = PolyMatrix(
                [
                    [
                        Poly([rng.randint(-3, 3) for _ in range(degs[i] + 1)])
                        for _ in range(cols)
                    ]
                    for i in range(rows)
                ]
            )
            hr = high_row_coeff(m, degs)
            for i in range(rows):
                for j in range(cols):
                    reduced = m[i, j] - shift(Poly([hr[i, j]]), degs[i])
                    assert reduced.degree < degs[i]


def resolvent_adjugate(a):
    """(adj(sI - A), chi): the adjugate of the Fraction reference, and chi
    from resolvent, checked against the reference's."""
    adj, chi = ref.resolvent(a)
    assert resolvent(a) == chi
    return adj, chi


class TestResolvent:
    def test_scalar_zero(self):
        adj, chi = resolvent_adjugate(RationalMatrix([[0]]))
        assert chi == P("s")
        assert adj == PolyMatrix([[Poly.one()]])

    def test_nilpotent_jordan(self):
        adj, chi = resolvent_adjugate(RationalMatrix([[0, 1], [0, 0]]))
        assert chi == P("s^2")
        assert adj == PolyMatrix([[P("s"), Poly.one()], [Poly.zero(), P("s")]])

    def test_identity_property_random(self):
        rng = random.Random(7)
        for _ in range(5):
            a = RationalMatrix(
                [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
            )
            adj, chi = resolvent_adjugate(a)
            lhs = adj * s_identity_minus(a)
            expected = PolyMatrix(
                [
                    [chi if i == j else Poly.zero() for j in range(5)]
                    for i in range(5)
                ]
            )
            assert lhs == expected
            assert chi.leading() == 1

    def test_example1_closed_loop_charpoly(self):
        # A_f + B_f F_f of the reference Example 1 solution
        acl = pd.EX1_A_F + pd.EX1_B_F * pd.EX1_F_F
        chi = resolvent(acl)
        product = P("s^4+2s-3") * P("s+3") * P("s^4+s-1")
        assert chi.divmod(product)[1].is_zero()


class TestTransferFunction:
    def test_integrator(self):
        h = ref.lowest_terms(transfer_function(
            RationalMatrix([[0]]), RationalMatrix([[1]]), RationalMatrix([[1]]), P("s")), P("s"))
        assert h[0][0] == (Poly.one(), P("s"))

    def test_example1_golden_verify(self):
        acl = pd.EX1_A + pd.EX1_B * pd.EX1_F_FINAL
        chi = resolvent(acl)
        h = ref.lowest_terms(transfer_function(acl, pd.EX1_B * pd.EX1_G_FINAL, pd.EX1_C, chi), chi)
        dens = [P(t) for t in pd.EX1_DIAG_DENS]
        for i in range(3):
            for j in range(3):
                num, den = h[i][j]
                if i == j:
                    assert num == Poly.one() and den == dens[i]
                else:
                    assert num.is_zero()

    def test_example2_golden_verify_t0(self):
        acl = pd.EX2_A + pd.EX2_B * pd.ex2_f_final(0, 0, 0, 0)
        chi = resolvent(acl)
        h = ref.lowest_terms(transfer_function(acl, pd.EX2_B * pd.EX2_G_FINAL, pd.EX2_C, chi), chi)
        dens = [P(t) for t in pd.EX2_DIAG_DENS]
        for i in range(3):
            for j in range(3):
                num, den = h[i][j]
                if i == j:
                    assert num == Poly.one() and den == dens[i]
                else:
                    assert num.is_zero()

    def test_against_cofactor_oracle(self):
        # F = 0, G = I: compare with a brute-force cofactor computation
        rng = random.Random(13)
        for _ in range(6):
            n = rng.randint(1, 4)
            a = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            b = RationalMatrix([[rng.randint(-2, 2)] for _ in range(n)])
            c = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)]])
            h = ref.lowest_terms(transfer_function(a, b, c, resolvent(a)), resolvent(a))
            si_a = s_identity_minus(a)
            chi = det(si_a.entries)
            # adjugate via cofactors
            adj_entries = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    idx_r = [r for r in range(n) if r != j]
                    idx_c = [cc for cc in range(n) if cc != i]
                    minor = PolyMatrix(
                        [[si_a[r, cc] for cc in idx_c] for r in idx_r]
                    )
                    cof = det(minor.entries) if n > 1 else Poly.one()
                    sign = -1 if (i + j) % 2 else 1
                    adj_entries[i][j] = cof * sign
            adj = PolyMatrix(adj_entries)
            num = PolyMatrix.from_rational(c) * adj * PolyMatrix.from_rational(b)
            raw, dn = num[0, 0], chi
            got_num, got_den = h[0][0]
            # compare as reduced fractions
            if raw.is_zero():
                assert got_num.is_zero()
            else:
                g = poly_gcd(raw, dn)
                exp_num, exp_den = raw.divmod(g)[0], dn.divmod(g)[0]
                lead = exp_den.leading()
                exp_num, exp_den = exp_num * (1 / lead), exp_den.monic()
                assert (got_num, got_den) == (exp_num, exp_den)


class TestNormalizationInvariant:
    def test_fractions_stay_canonical(self):
        # every scalar produced along the way has positive denominator and
        # gcd(|num|, den) = 1 -- guaranteed by Fraction, asserted on outputs
        rng = random.Random(99)
        a = RationalMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)] for _ in range(4)])
        values = []
        adj, chi = resolvent_adjugate(a)
        values.extend(chi.coeffs)
        for row in adj.entries:
            for e in row:
                values.extend(e.coeffs)
        if a.rank() == 4:
            for row in a.inverse().entries:
                values.extend(row)
        import math

        for v in values:
            assert v.denominator > 0
            assert math.gcd(abs(v.numerator), v.denominator) == 1

    def test_resolvent_size_cap(self):
        with pytest.raises(MorganError, match="size cap"):
            resolvent(RationalMatrix.identity(RESOLVENT_SIZE_CAP + 1))


class TestExample1NAlphaDisplay:
    def test_high_row_coeff_at_adjusted_degrees(self, ex1_reference_pencil):
        # N_hat(s) = C_hat S~(s) diag(s^3, 1, 1) at the reference Q_B values;
        # the constrained rows drop to degree 0, so the deficit-adjusted row
        # degrees are (0, 3, 0) and the hr matrix is the expected N_alpha
        chat = ex1_reference_pencil.C_r * pd.EX1_QB_NUM
        s_tilde = build_S((1, 4, 4))
        nmat = PolyMatrix.from_rational(chat) * s_tilde
        nhat = PolyMatrix(
            [
                [shift(nmat[i, 0], 3), nmat[i, 1], nmat[i, 2]]
                for i in range(3)
            ]
        )
        n_alpha = high_row_coeff(nhat, [0, 3, 0])
        assert n_alpha == RationalMatrix([[0, 1, 1], [1, 0, 0], [0, 0, -1]])
        assert rank(n_alpha) == 3


class TestDet:
    def test_simple(self):
        m = PolyMatrix([[P("s"), Poly.one()], [Poly.zero(), P("s")]])
        assert det(m.entries) == P("s^2")

    def test_singular(self):
        m = PolyMatrix([[P("s"), P("s")], [P("s"), P("s")]])
        assert det(m.entries).is_zero()

    def test_matches_charpoly(self):
        rng = random.Random(3)
        for _ in range(5):
            n = rng.randint(1, 4)
            a = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            assert det(s_identity_minus(a).entries) == resolvent(a)
