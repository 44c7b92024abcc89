"""M S(s) by slicing rows, the determinant on rows of Poly, and the pencil-form check.

`fraction_reference.times_S` is compared with the product PolyMatrix(M) * S(s)
of the polynomial matrices kept there, and the reference Bareiss
`det`, which the fixed-pole tests rely on, with a Laplace expansion.  The chain-row check of `_verify_pencil_form` is
compared with the reassembly [L(s); sK - Lambda] of the permuted sI - A_r,
and each identity it checks must fail on a pencil form corrupted in one
entry, and on chain lengths that make the chain matrix or P^-1 wrong.
"""

import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from fraction_reference import (
    PolyMatrix, build_L, build_S, det, mul_vector, s_identity_minus, times_S,
)
from morgan import canonical
from morgan.canonical import StateSpace, _verify_pencil_form, to_pencil_form
from morgan.errors import MorganError
from morgan.exactalg import Poly, RationalMatrix

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def slices(draw):
    sigma = tuple(draw(st.lists(st.integers(1, 4), max_size=5)))
    rows = draw(st.integers(0 if not sigma else 1, 4))
    m = RationalMatrix._of(
        [[draw(ENTRIES) for _ in range(sum(sigma))] for _ in range(rows)]
    )
    return m, sigma


@given(slices())
@example((RationalMatrix._of([(), ()]), ()))
@example((RationalMatrix([[1, 2, 3]]), (1, 1, 1)))
@settings(max_examples=150, deadline=None)
def test_times_S_matches_product(case):
    m, sigma = case
    got = times_S(m, sigma)
    expected = (PolyMatrix.from_rational(m) * build_S(sigma)).entries
    assert len(got) == len(expected)
    for got_row, expected_row in zip(got, expected):
        assert tuple(got_row) == expected_row


def test_times_S_width_mismatch():
    with pytest.raises(MorganError):
        times_S(RationalMatrix([[1, 2]]), (1, 2))


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return Poly.one()
    out = Poly.zero()
    for j, e in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = e * laplace_det(minor)
        out = out - term if j % 2 else out + term
    return out


POLYS = st.lists(ENTRIES, max_size=3).map(Poly)


@st.composite
def poly_squares(draw):
    n = draw(st.integers(0, 4))
    return [[draw(POLYS) for _ in range(n)] for _ in range(n)]


class TestDet:
    @given(poly_squares())
    @example([[Poly.zero(), Poly.one()], [Poly.one(), Poly.zero()]])
    @example([[Poly([0, 1]), Poly([0, 1])], [Poly([0, 1]), Poly([0, 1])]])
    @settings(max_examples=100, deadline=None)
    def test_matches_laplace(self, rows):
        assert det(rows) == laplace_det(rows)

    def test_nonsquare(self):
        with pytest.raises(MorganError):
            det([[Poly.one(), Poly.one()]])


def reassembles(pf):
    """The check that PencilForm kept before: the chain rows of sI - A_r,
    followed by its block-end rows, are [L(s); sK - Lambda]."""
    n, pos = pf.n, pf.positions
    chain = [i for i in range(n) if i + 1 not in pos]
    pencil = s_identity_minus(pf.A_r).permute_rows(chain + [p - 1 for p in pos])
    block_end = PolyMatrix(
        [[Poly([-pf.A_r[p - 1, j], int(j == p - 1)]) for j in range(n)] for p in pos]
    )
    return pencil == build_L(pf.sigma).vstack(block_end)


def corrupted(sys_, pf, i, j, delta):
    """(system, pencil form) with A_r[i, j] moved by delta and A moved to match,
    so that only the structure of A_r can be at fault."""
    rows = [list(r) for r in pf.A_r.entries]
    rows[i][j] += delta
    a_r = RationalMatrix(rows)
    bad_sys = SimpleNamespace(
        n=sys_.n, l=sys_.l, A=pf.P_inv.inverse() * a_r * pf.P_inv, B=sys_.B, C=sys_.C
    )
    return bad_sys, dataclasses.replace(pf, A_r=a_r)


class TestVerifyPencilForm:
    def test_corrupted_chain_row_raises(self, ex1, ex1_pencil):
        chain_row = next(i for i in range(ex1.n) if i + 1 not in ex1_pencil.positions)
        bad_sys, bad = corrupted(ex1, ex1_pencil, chain_row, 0, Fraction(1, 2))
        assert not reassembles(bad)
        with pytest.raises(MorganError, match="chain structure"):
            _verify_pencil_form(bad_sys, bad)

    def test_chain_check_agrees_with_reassembly(self, ex1, ex2, ex1_pencil, ex2_pencil):
        rng = random.Random(5)
        for sys_, pf in [(ex1, ex1_pencil), (ex2, ex2_pencil)]:
            assert reassembles(pf)
            for _ in range(30):
                i, j = rng.randrange(sys_.n), rng.randrange(sys_.n)
                bad_sys, bad = corrupted(sys_, pf, i, j, rng.choice([-2, -1, 1, 3]))
                try:
                    _verify_pencil_form(bad_sys, bad)
                    passed = True
                except MorganError:
                    passed = False
                assert passed == reassembles(bad)

    def test_block_end_entry_of_a_r_raises(self, ex1, ex1_pencil):
        for p in ex1_pencil.positions:
            bad = dataclasses.replace(ex1_pencil, A_r=moved(ex1_pencil.A_r, p - 1, 0))
            with pytest.raises(MorganError, match="block-end rows"):
                _verify_pencil_form(ex1, bad)

    def test_c_r_entry_raises(self, ex1, ex1_pencil):
        for i, j in [(0, 0), (2, 8)]:
            bad = dataclasses.replace(ex1_pencil, C_r=moved(ex1_pencil.C_r, i, j))
            with pytest.raises(MorganError, match="C_r P"):
                _verify_pencil_form(ex1, bad)

    def test_broken_unit_row_of_b_r_gi_raises(self, ex1, ex1_pencil):
        for p in ex1_pencil.positions:
            for i in (p - 1, p % ex1.n):
                bad = dataclasses.replace(ex1_pencil, B_r_GI=moved(ex1_pencil.B_r_GI, i, 0))
                with pytest.raises(MorganError, match="unit-row pattern"):
                    _verify_pencil_form(ex1, bad)

    def test_singular_p_inv_raises(self, ex1, ex1_pencil):
        rows = list(ex1_pencil.P_inv.entries)
        rows[0] = rows[1]
        bad = dataclasses.replace(ex1_pencil, P_inv=RationalMatrix(rows))
        assert bad.P_inv.rank() < ex1.n
        with pytest.raises(MorganError):
            _verify_pencil_form(ex1, bad)

    def test_singular_chain_raises(self, ex1, monkeypatch):
        assert canonical._staircase_select(ex1.A, ex1.B) == [1, 1, 4, 3]
        monkeypatch.setattr(canonical, "_staircase_select", lambda a, b: [1, 1, 3, 4])
        with pytest.raises(MorganError, match="chain matrix is singular"):
            to_pencil_form(ex1)

    def test_wrong_chain_lengths_raise(self, monkeypatch):
        """A nonsingular chain matrix of the wrong lengths (2, 2) -> (1, 3):
        sigma is not the controllability indices, so no P^-1 can satisfy
        every identity."""
        sys_ = StateSpace(
            A=RationalMatrix([[2, -2, 0, 1], [-1, -2, -1, 1], [2, 1, 2, -1], [2, 1, -1, 2]]),
            B=RationalMatrix([[-2, 1], [2, 0], [1, -2], [0, -1]]),
            C=RationalMatrix([[-1, -2, 0, -2]]),
        )
        assert canonical._staircase_select(sys_.A, sys_.B) == [2, 2]
        b0, b1 = sys_.B.col(0), sys_.B.col(1)
        ab1 = mul_vector(sys_.A, b1)
        assert RationalMatrix.from_columns([b0, b1, ab1, mul_vector(sys_.A, ab1)]).rank() == 4
        monkeypatch.setattr(canonical, "_staircase_select", lambda a, b: [1, 3])
        with pytest.raises(MorganError, match="unit-row pattern"):
            to_pencil_form(sys_)


def moved(m, i, j):
    """m with entry (i, j) off by 1."""
    rows = [list(r) for r in m.entries]
    rows[i][j] += 1
    return RationalMatrix(rows)
