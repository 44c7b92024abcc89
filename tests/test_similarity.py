"""Exact invariance of the pencil form and the search under a state similarity.

For a unimodular integer T, the system (T^-1 A T, T^-1 B, C T) describes the
same input-output behaviour in other state coordinates.  Its controller form
is the same (P' = T^-1 P), the search takes the same steps at the same seed,
and the returned pair is the same pair in the new coordinates: F' = F T and
G' = G.

An output scaling C -> DC with D diagonal and invertible leaves the
decoupling problem unchanged, since a closed loop is diagonal for DC exactly
when it is for C.  The search works on C_r, so only the verdict and the
winning configuration are required to stay; the pair, the audit text and
the rejection counts may differ.
"""

import random
from pathlib import Path

import pytest

import golden_data as pd
from morgan.canonical import StateSpace, to_pencil_form
from morgan.decouple import DecouplingSolution, NoSolution, SolveOptions, check_closed_loop, solve
from morgan.exactalg import RationalMatrix
from morgan.fileio import load_system
from morgan.zeros import check_fixed_poles, closed_loop
from test_zeros import random_systems

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
NOSOL_7_66 = str(DATA / "nosol_7_66.json")
SYSTEMS = {
    "ex1": pd.ex1_system,
    "ex2": pd.ex2_system,
    "nosol_7_66": lambda: load_system(NOSOL_7_66),
}
SEED = 1729


def unimodular(n, seed):
    """Integer matrix with determinant +-1: a signed permutation times
    elementary row additions with multipliers in [-2, 2]."""
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        f = rng.choice([-2, -1, 1, 2])
        rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    rows[0] = [-x for x in rows[0]]
    return RationalMatrix(rows)


@pytest.fixture(scope="module")
def originals():
    out = {}
    for name, make in SYSTEMS.items():
        sys_ = make()
        out[name] = (sys_, to_pencil_form(sys_), solve(sys_, SolveOptions(seed=SEED)))
    return out


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("t_seed", [1, 2])
def test_state_similarity(originals, name, t_seed):
    sys_, pf, res = originals[name]
    t = unimodular(sys_.n, t_seed)
    t_inv = t.inverse()
    assert all(x.denominator == 1 for row in t_inv.entries for x in row)
    moved = StateSpace(A=t_inv * sys_.A * t, B=t_inv * sys_.B, C=sys_.C * t)

    pf2 = to_pencil_form(moved)
    assert pf2.sigma == pf.sigma
    assert (pf2.A_r, pf2.B_r_GI, pf2.C_r, pf2.G_I) == (pf.A_r, pf.B_r_GI, pf.C_r, pf.G_I)
    assert pf2.P_inv.inverse() == t_inv * pf.P_inv.inverse()

    res2 = solve(moved, SolveOptions(seed=SEED))
    assert type(res2) is type(res)
    assert res2.outcomes == res.outcomes
    if isinstance(res, NoSolution):
        assert res2.searched == res.searched
    else:
        assert isinstance(res2, DecouplingSolution)
        assert res2.F == res.F * t
        assert res2.G == res.G
        assert res2.diag == res.diag
        assert (res2.constraints, res2.degree_deficits) == (res.constraints, res.degree_deficits)


SCALED = {
    "ex1": pd.ex1_system,
    "ex2": pd.ex2_system,
    **{name: (lambda name=name: load_system(str(DATA / f"{name}.json")))
       for name in ("nosol_7_66", "nosol_7_70", "nosol_7_112")},
    **{f"random_{i}": (lambda i=i: random_systems(808, 6)[i]) for i in range(6)},
}
SCALINGS = [(2, "-1/3", "5/2", -7), ("-1/2", 3, 1, "4/5")]


@pytest.mark.parametrize("name", sorted(SCALED))
def test_output_scaling(name):
    sys_ = SCALED[name]()
    res = solve(sys_, SolveOptions(seed=SEED))
    for scaling in SCALINGS:
        d = RationalMatrix([[scaling[i] if i == j else 0 for j in range(sys_.m)]
                            for i in range(sys_.m)])
        scaled = StateSpace(A=sys_.A, B=sys_.B, C=d * sys_.C)
        res2 = solve(scaled, SolveOptions(seed=SEED))
        assert type(res2) is type(res)
        if isinstance(res, NoSolution):
            assert res2.searched == res.searched
            continue
        assert (res2.ci_tuple, res2.config) == (res.ci_tuple, res.config)
        acl, chi = closed_loop(scaled, res2.F, res2.G)
        _, failures = check_closed_loop(scaled, res2.G, acl, chi, res2.diag)
        assert failures == []
        fp = res2.fixed_poles
        assert check_fixed_poles(
            scaled, res2.G, acl, chi, fp.input_dz_poly, fp.fixed_dec_poly
        )[2] == []
