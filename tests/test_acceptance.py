"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  All tolerances are zero (big-integer rational arithmetic); the
stated runtime bounds are asserted with perf_counter.
"""

import json
import random
import time
from fractions import Fraction

import golden_data as pd
from fraction_reference import build_S, fixed_decoupling_poles, kalman_matrix, lowest_terms, shift
from morgan.admissible import enumerate_row_configs, enumerate_tuples
from morgan.canonical import StateSpace, _staircase_select, to_pencil_form
from morgan.decouple import (
    DecouplingSolution,
    SolveOptions,
    relative_degrees,
    solve,
)
from morgan.errors import SingularBstar
from morgan.exactalg import (
    Poly,
    RationalMatrix,
    parse_poly,
    resolvent,
    transfer_function,
)
from morgan.fileio import dump_json, solution_to_dict
from morgan.zeros import uncontrollable_polynomial


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def random_controllable(rng, n, l):
    while True:
        a = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = RationalMatrix([[rng.randint(-2, 2) for _ in range(l)] for _ in range(n)])
        if b.rank() != l:
            continue
        if kalman_matrix(a, b).rank() == n:
            return a, b


def ci_oracle(a, b):
    n, l = a.rows, b.cols
    kal = kalman_matrix(a, b)
    ranks = [kal.submatrix(range(n), range((k + 1) * l)).rank() for k in range(n)]
    increments = [ranks[0]] + [ranks[k] - ranks[k - 1] for k in range(1, n)]
    return tuple(sorted(x for x in (sum(1 for i in increments if i > j) for j in range(l)) if x > 0))


def test_criterion_1_example1_structure(ex1):
    t0 = time.perf_counter()
    pencil = to_pencil_form(ex1)
    tuples = enumerate_tuples(pencil.sigma, ex1.m)
    configs = enumerate_row_configs(pencil.sigma, ex1.m)
    elapsed = time.perf_counter() - t0
    assert pencil.sigma == (1, 1, 3, 4)
    assert tuples == pd.EX1_I_LIST
    assert [c.positions for c in configs] == [(1,), (2,), (5,), (9,)]
    assert len(tuples) * len(configs) == 36
    assert elapsed < 1.0
    report(1, f"Example 1 sigma / I (9 tuples) / M = {{1,2,5,9}} exact ({elapsed:.3f}s < 1s)")


def test_criterion_2_example1_golden_verify(ex1):
    t0 = time.perf_counter()
    acl = ex1.A + ex1.B * pd.EX1_F_FINAL
    chi = resolvent(acl)
    h = lowest_terms(transfer_function(acl, ex1.B * pd.EX1_G_FINAL, ex1.C, chi), chi)
    elapsed = time.perf_counter() - t0
    dens = [parse_poly(t) for t in pd.EX1_DIAG_DENS]
    for i in range(3):
        for j in range(3):
            num, den = h[i][j]
            if i == j:
                assert num == Poly.one() and den == dens[i]
            else:
                assert num.is_zero()
    assert elapsed < 5.0
    report(2, f"reference Example 1 (F, G) verify to diag{{1/(s^4+2s-3), 1/(s+3), 1/(s^4+s-1)}} ({elapsed:.3f}s < 5s)")


def test_criterion_3_example1_synthesis(ex1):
    t0 = time.perf_counter()
    sol = solve(ex1, SolveOptions(seed=1729, return_all=True))
    elapsed = time.perf_counter() - t0
    assert isinstance(sol, DecouplingSolution)
    assert sol.ci_tuple == (1, 4, 4)
    rejected = {}
    for o in sol.outcomes:
        if o.ci_tuple != (1, 4, 4):
            rejected.setdefault(o.ci_tuple, []).append(o)
            assert o.status == "rejected" and o.reason
    assert set(rejected) == set(pd.EX1_I_LIST) - {(1, 4, 4)}
    assert len(rejected) == 8
    # returned pair passes exact verification with the default 1/(s+1)^(d_i+1)
    acl = ex1.A + ex1.B * sol.F
    chi = resolvent(acl)
    h = lowest_terms(transfer_function(acl, ex1.B * sol.G, ex1.C, chi), chi)
    for i in range(3):
        for j in range(3):
            num, den = h[i][j]
            if i == j:
                assert num == Poly.one() and den == sol.diag[i][1]
            else:
                assert num.is_zero()
    assert elapsed < 30.0
    report(3, f"solve(Example 1) -> CI (1,4,4); all 8 other tuples rejected with reasons; verified ({elapsed:.2f}s < 30s)")


def test_criterion_4_example2_structure_and_golden_verify(ex2):
    t0 = time.perf_counter()
    pencil = to_pencil_form(ex2)
    tuples = enumerate_tuples(pencil.sigma, ex2.m)
    configs = enumerate_row_configs(pencil.sigma, ex2.m)
    assert tuples == pd.EX2_I_LIST and len(tuples) == 16
    assert [c.positions for c in configs] == pd.EX2_M_POSITIONS and len(configs) == 10
    acl = ex2.A + ex2.B * pd.ex2_f_final(0, 0, 0, 0)
    chi = resolvent(acl)
    h = lowest_terms(transfer_function(acl, ex2.B * pd.EX2_G_FINAL, ex2.C, chi), chi)
    dens = [parse_poly(t) for t in pd.EX2_DIAG_DENS]
    for i in range(3):
        for j in range(3):
            num, den = h[i][j]
            if i == j:
                assert num == Poly.one() and den == dens[i]
            else:
                assert num.is_zero()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"Example 2 I (16) / M (10) exact; reference (F, G) at t=0 verify to diag{{1/(s+10), 1/(s+3), 1/(s+1)}} ({elapsed:.3f}s < 5s)")


def test_criterion_5_input_dz_formula(ex2, ex2_pencil, ex2_config_15):
    from test_decouple import closed_loop_dz, ex2_reference_squaring

    rng = random.Random(55)
    for k in range(5):
        t1, t2, t3, t4 = (Fraction(rng.randint(-7, 7)) for _ in range(4))
        sq = ex2_reference_squaring(ex2_pencil, ex2_config_15, (t1, t2, t3, t4))
        assert closed_loop_dz(ex2, ex2_pencil, sq) == Poly([t1 * t4 - t2 * t3, -(t1 + t4), 1])
    report(5, "closed-loop input decoupling zeros equal s^2 - (t1+t4)s + (t1 t4 - t2 t3) at 5 seeded assignments (exact)")


def test_criterion_6_zero_assignment(ex2):
    target = parse_poly("s^2+3s+2")
    sol = solve(ex2, SolveOptions(seed=1729, dz_target=target))
    assert isinstance(sol, DecouplingSolution)
    assert sol.fixed_poles.input_dz_poly == target
    # oracle: uncontrollable polynomial of the actual closed loop
    acl = ex2.A + ex2.B * sol.F
    assert uncontrollable_polynomial(acl, ex2.B * sol.G, resolvent(acl)) == target
    report(6, "--dz-target s^2+3s+2 on Example 2 places the uncontrollable polynomial exactly")


def test_criterion_7_oracles():
    rng = random.Random(424242)
    for _ in range(100):
        n = rng.randint(2, 6)
        l = rng.randint(1, min(4, n))
        a, b = random_controllable(rng, n, l)
        assert tuple(sorted(_staircase_select(a, b))) == ci_oracle(a, b)

    # static decouplability rank criterion coincides with invertibility of
    # the decoupling matrix
    checked = 0
    while checked < 20:
        n = rng.randint(2, 6)
        l = rng.randint(1, min(3, n))
        a, b = random_controllable(rng, n, l)
        c = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(l)])
        try:
            sys_ = StateSpace(A=a, B=b, C=c)
        except Exception:
            continue
        pencil = to_pencil_form(sys_)
        nmat = pencil.C_r * build_S(pencil.sigma)
        smax = max(pencil.sigma)
        shifted = [
            [shift(nmat[i, j], smax - pencil.sigma[j]) for j in range(l)]
            for i in range(l)
        ]
        rows = []
        full = True
        for row in shifted:
            degs = [e.degree for e in row if not e.is_zero()]
            if not degs:
                full = False
                break
            d = max(degs)
            rows.append([e.coeff(d) for e in row])
        rank_criterion = full and RationalMatrix(rows).rank() == l
        try:
            _, b_star = relative_degrees(a, b, c)
            invertible = b_star.rank() == l
        except SingularBstar:
            invertible = False
        assert rank_criterion == invertible
        checked += 1
    report(7, "CI oracle agreement on 100 systems; rank criterion <=> invertible decoupling matrix on 20 square systems")


def test_criterion_8_closed_loop_factorization(ex1, ex2):
    from test_zeros import q_square_of, recorded_qb_nums

    for sys_ in (ex1, ex2):
        with recorded_qb_nums() as seen:
            sol = solve(sys_, SolveOptions(seed=1729))
        acl = sys_.A + sys_.B * sol.F
        chi = resolvent(acl)
        prod = Poly.one()
        for _, p in sol.diag:
            prod = prod * p
        dz = sol.fixed_poles.input_dz_poly
        cofactor, rem = chi.divmod(prod * dz)
        assert rem.is_zero()
        assert cofactor == fixed_decoupling_poles(q_square_of(sol, seen[-1]))
        assert cofactor == sol.fixed_poles.fixed_dec_poly
    report(8, "charpoly(A+BF) = (prod p_i) * dz * unobservable factor; factor equals the Wolovich-Falb polynomial on Examples 1-2")


def test_criterion_9_determinism(ex1):
    a = solution_to_dict(solve(ex1, SolveOptions(seed=99)))
    b = solution_to_dict(solve(ex1, SolveOptions(seed=99)))
    assert dump_json(a) == dump_json(b)
    report(9, "identical seed gives byte-identical solution files")
