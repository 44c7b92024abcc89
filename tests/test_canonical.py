"""Controllability indices, controller form, pencil split."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fraction_reference as ref
import golden_data as pd
from fraction_reference import PolyMatrix, build_L, build_S, kalman_matrix
from morgan import canonical, decouple, exactalg
from morgan.canonical import (
    StateSpace,
    _staircase_select,
    positions_from_sigma,
    to_pencil_form,
)
from morgan.errors import InvalidSystem, NotControllable
from morgan.exactalg import Poly, RationalMatrix, krylov_select
from morgan.fileio import load_system

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATA = Path(__file__).resolve().parent.parent / "data"


def random_controllable(rng, n, l, tries=50):
    for _ in range(tries):
        a = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = RationalMatrix([[rng.randint(-2, 2) for _ in range(l)] for _ in range(n)])
        if b.rank() != l:
            continue
        if kalman_matrix(a, b).rank() == n:
            return a, b
    raise AssertionError("could not draw a controllable pair")


def ci_oracle(a, b):
    """Independent computation: conjugate partition of Kalman rank increments."""
    n, l = a.rows, b.cols
    kal = kalman_matrix(a, b)
    ranks = [kal.submatrix(range(n), range((k + 1) * l)).rank() for k in range(n)]
    increments = [ranks[0]] + [ranks[k] - ranks[k - 1] for k in range(1, n)]
    # sigma_j = number of increments >= j position count; CI sorted ascending
    ci = []
    for j in range(l):
        ci.append(sum(1 for inc in increments if inc > j))
    return tuple(sorted(x for x in ci if x > 0))


def controllability_indices(a, b):
    """The staircase chain lengths, sorted: the controllability indices."""
    return tuple(sorted(_staircase_select(a, b)))


class TestControllabilityIndices:
    def test_example1(self):
        assert controllability_indices(pd.EX1_A, pd.EX1_B) == (1, 1, 3, 4)

    def test_example2(self):
        assert controllability_indices(pd.EX2_A, pd.EX2_B) == (1, 2, 2, 2, 2)

    def test_b_identity(self):
        a = RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert controllability_indices(a, RationalMatrix.identity(3)) == (1, 1, 1)

    def test_not_controllable(self):
        a = RationalMatrix([[1, 0], [0, 2]])
        b = RationalMatrix([[1], [0]])
        with pytest.raises(NotControllable):
            controllability_indices(a, b)

    def test_oracle_agreement_100(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(2, 6)
            l = rng.randint(1, min(4, n))
            a, b = random_controllable(rng, n, l)
            assert controllability_indices(a, b) == ci_oracle(a, b)


class TestBuildS:
    def test_single(self):
        assert build_S((1,)) == PolyMatrix([[Poly.one()]])

    def test_two_blocks(self):
        s = build_S((1, 2))
        assert s == PolyMatrix(
            [
                [Poly.one(), Poly.zero()],
                [Poly.zero(), Poly.one()],
                [Poly.zero(), Poly([0, 1])],
            ]
        )

    def test_annihilated_by_L(self):
        for sigma in [(1, 1, 3, 4), (1, 2, 2, 2, 2), (2, 3), (1,)]:
            prod = build_L(sigma) * build_S(sigma)
            assert prod.is_zero()


class TestToPencilForm:
    def test_example1_reference_blocks(self, ex1_pencil):
        assert ex1_pencil.sigma == (1, 1, 3, 4)
        assert ex1_pencil.A_r == pd.EX1_A_R
        assert ex1_pencil.B_r_GI == pd.EX1_B_R_GI
        assert ex1_pencil.C_r == pd.EX1_C * ex1_pencil.P_inv.inverse()

    def test_example1_defining_identities(self, ex1, ex1_pencil):
        pf = ex1_pencil
        p = pf.P_inv.inverse()
        assert pf.P_inv * ex1.A * p == pf.A_r
        assert pf.P_inv * ex1.B * pf.G_I == pf.B_r_GI
        assert p.rank() == 9 and pf.G_I.rank() == 4

    def test_example2_already_in_form(self, ex2_pencil):
        assert ex2_pencil.P_inv.inverse() == RationalMatrix.identity(9)
        assert ex2_pencil.G_I == RationalMatrix.identity(5)
        assert ex2_pencil.C_r == pd.EX2_C

    def test_single_input_controller_form_is_fixed(self):
        a = RationalMatrix([[0, 1, 0], [0, 0, 1], [2, -1, 3]])
        b = RationalMatrix([[0], [0], [1]])
        c = RationalMatrix([[1, 0, 0]])
        pf = to_pencil_form(StateSpace(A=a, B=b, C=c))
        assert pf.P_inv.inverse() == RationalMatrix.identity(3)
        assert pf.G_I == RationalMatrix.identity(1)

    def test_random_reassembly(self):
        # construction is self-verifying; this exercises it on random systems
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 5)
            l = rng.randint(1, min(3, n))
            a, b = random_controllable(rng, n, l)
            c = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)]])
            pf = to_pencil_form(StateSpace(A=a, B=b, C=c))
            assert sum(pf.sigma) == n
            assert list(pf.sigma) == sorted(pf.sigma)

    def test_rank_deficient_b_rejected(self):
        a = RationalMatrix([[0, 1], [0, 0]])
        b = RationalMatrix([[0, 0], [1, 1]])
        with pytest.raises(InvalidSystem):
            StateSpace(A=a, B=b, C=RationalMatrix([[1, 0]]))


def dense_systems(seed):
    """The random-dense systems of the benchmark at a workload seed."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import systems
    finally:
        sys.path.remove(str(PERFBENCH))
    return [StateSpace(*(RationalMatrix(s[k]) for k in "ABC"))
            for s in systems.dense_systems(seed)]


def rational_systems(seed, count):
    """Controllable systems with non-integer A, B and C (denominators up to 4)."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    out = []
    while len(out) < count:
        n = rng.randint(2, 7)
        l = rng.randint(1, min(4, n))
        m = rng.randint(1, l)
        try:
            system = StateSpace(
                A=RationalMatrix([[entry() for _ in range(n)] for _ in range(n)]),
                B=RationalMatrix([[entry() for _ in range(l)] for _ in range(n)]),
                C=RationalMatrix([[entry() for _ in range(n)] for _ in range(m)]),
            )
            _staircase_select(system.A, system.B)
        except (InvalidSystem, NotControllable):
            continue
        out.append(system)
    return out


REFERENCE_SYSTEMS = {
    "ex1": lambda: [pd.ex1_system()],
    "ex2": lambda: [pd.ex2_system()],
    **{name: (lambda name=name: [load_system(str(PERFBENCH / "data" / f"{name}.json"))])
       for name in ("nosol_7_66", "nosol_7_70", "nosol_7_112")},
    "random-dense-0": lambda: dense_systems(0),
    "random-dense-1": lambda: dense_systems(1),
    "rational": lambda: rational_systems(606, 40),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
def test_matches_reference_construction(name):
    """The Krylov-row construction returns exactly the fields of the one with
    the full chain inverse, P = (P^-1)^-1 and full products."""
    for sys_ in REFERENCE_SYSTEMS[name]():
        pf, want = to_pencil_form(sys_), ref.pencil_form(sys_)
        assert pf.sigma == want.sigma
        assert pf.P_inv == want.P_inv
        assert pf.G_I == want.G_I
        assert pf.A_r == want.A_r
        assert pf.B_r_GI == want.B_r_GI
        assert pf.C_r == want.C_r


class TestStateSpace:
    def test_dimension_guard(self):
        with pytest.raises(InvalidSystem):
            StateSpace(
                A=RationalMatrix.identity(2),
                B=RationalMatrix([[1], [0]]),
                C=RationalMatrix.identity(2),  # m = 2 > l = 1
            )

    def test_positions(self):
        assert positions_from_sigma((1, 1, 3, 4)) == (1, 2, 5, 9)

    def test_load_system_runs_no_krylov_selection(self, monkeypatch):
        """Only to_pencil_form selects Krylov chains: loading (and so verify
        and fixed-poles) does not."""
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return krylov_select(a, b)

        for module in (exactalg, canonical, decouple):
            monkeypatch.setattr(module, "krylov_select", counting)
        sys_ = load_system(str(DATA / "example1_system.json"))
        assert calls == []
        to_pencil_form(sys_)
        assert calls == [(sys_.A, sys_.B)]
