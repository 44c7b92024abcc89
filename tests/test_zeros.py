"""Fixed-pole analysis: input decoupling zeros, Wolovich-Falb poles, placement."""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import prod
from types import SimpleNamespace
from unittest import mock

import pytest

import fraction_reference as ref
import golden_data as pd
from fraction_reference import fixed_decoupling_poles, input_decoupling_zeros, q_coordinate_square
from morgan import decouple, zeros
from morgan.admissible import enumerate_row_configs, enumerate_tuples
from morgan.canonical import StateSpace, _staircase_select, to_pencil_form
from morgan.decouple import (
    DecouplingSolution,
    SolveOptions,
    _evaluate_config,
    make_square_system,
    solve,
)
from morgan.errors import InvalidSystem, MorganError, NotSolvable
from morgan.exactalg import Poly, RationalMatrix, parse_poly, resolvent
from morgan.squaring import MuFamily, SquaringData, build_QB, solve_feedback_rows
from morgan.zeros import (
    assign_zeros,
    check_fixed_poles,
    closed_loop,
    companion,
    routh_hurwitz_stable,
    uncontrollable_polynomial,
    unobservable_polynomial,
)
from test_decouple import EX1_Q, closed_loop_dz, ex1_reference_squaring, ex2_reference_squaring
from test_integer_kernels import reduced_echelon

@contextmanager
def recorded_qb_nums():
    """Record the numeric Q_B of every feedback-row solve of decouple.  The
    last entry is the Q_B of a configuration solved just before: once its
    feedback rows solve, _evaluate_config draws no other point."""
    seen = []

    def recording(qbasis, config, qb_num):
        seen.append(qb_num)
        return solve_feedback_rows(qbasis, config, qb_num)

    with mock.patch.object(decouple, "solve_feedback_rows", recording):
        yield seen


def q_square_of(sol, qb_num):
    """The solution's square system in the basis that completes its Q_B."""
    return q_coordinate_square(sol.pencil, sol.squaring, ref.complete_basis(qb_num))


def q_basis_assignment(pencil, config, qb_num, mu_family, target):
    """T by the construction that completed Q_B to Q = [Q_A | Q_B].

    The quotient block of Q^-1 A(T) Q is X(T) = X0 - U T W, with G_A the
    leading k rows of Q^-1, X0 = G_A A0 Q_A, U = G_A E and W = N Q_A; T
    solves U T = (X0 - companion(target)) W^-1.  None when k = 0.
    """
    k = len(mu_family.nullbasis)
    if k == 0:
        return None
    n = pencil.n
    q = ref.complete_basis(qb_num)
    q_inv = ref.inverse(q)
    ga = q_inv.submatrix(range(k), range(n))
    qa = q.submatrix(range(n), range(k))
    a0 = [list(row) for row in pencil.A_r.entries]
    for p, mu in zip(config.positions, mu_family.particulars):
        a0[p - 1] = [-x for x in mu]
    x0 = ref.mul(ref.mul(ga, RationalMatrix(a0)), qa)
    u = RationalMatrix.from_columns([ga.col(p - 1) for p in config.positions])
    w = ref.mul(RationalMatrix(mu_family.nullbasis), qa)
    if u.rank() < k or w.rank() < k:
        raise NotSolvable("free-parameter map does not reach every quotient block")
    y = ref.mul(x0 - companion(target), ref.inverse(w))
    t_cols = u.solve([y.col(c) for c in range(k)])[0]
    return RationalMatrix.from_columns(t_cols).entries


def pivot_columns(m: RationalMatrix) -> list:
    """Columns independent of the columns before them, one rank test each."""
    out = []
    for j in range(m.cols):
        if m.submatrix(range(m.rows), out + [j]).rank() > len(out):
            out.append(j)
    return out


def quotient_block_at_zero(sol):
    """W^-1 (N A_s)[:, u] for the solution's squared-down system at T = 0,
    A_s = A_r + B_r G_I F_0: N its basis of ker Q_B^T, u the pivot columns
    of N and W = N[:, u]."""
    nb = RationalMatrix(sol.mu_family.nullbasis)
    u = pivot_columns(nb)
    a_s = sol.pencil.A_r + ref.mul(sol.pencil.B_r_GI, sol.squaring.F0)
    w_inv = ref.inverse(nb.submatrix(range(nb.rows), u))
    return ref.mul(ref.mul(w_inv, nb), a_s).submatrix(range(nb.rows), u)


def ex2_reference_family(ex2_config_15):
    z = Fraction(0)
    return MuFamily(
        particulars=(pd.ex2_mu1(z, z), pd.ex2_mu2(z, z)),
        nullbasis=(
            tuple(map(Fraction, (-1, 0, 0, 0, 0, 1, 0, 0, 0))),
            tuple(map(Fraction, (0, -1, 0, 0, -1, 0, 0, 1, 0))),
        ),
    )


def ex2_squaring_at(ex2_pencil, ex2_config_15, fam, t):
    rows = fam.rows_at(t)
    f0 = [[Fraction(0)] * 9 for _ in range(5)]
    for (block, p), mu in zip(
        zip(ex2_config_15.blocks, ex2_config_15.positions), rows
    ):
        lam = ex2_pencil.A_r.row(p - 1)
        f0[block - 1] = [-lv - mv for lv, mv in zip(lam, mu)]
    return SquaringData(
        sigma_tilde=(2, 2, 3),
        F0=RationalMatrix(f0),
        G0=pd.EX2_G0,
        M_rows=tuple(rows),
        assignment={},
        t=t,
    )


class TestInputDecouplingZeros:
    """The closed-loop dz equals the paper's formula and the Q-block reference."""

    def test_example2_formula_five_seeded_assignments(self, ex2, ex2_pencil, ex2_config_15):
        rng = random.Random(20250809)
        for _ in range(5):
            t1, t2, t3, t4 = (Fraction(rng.randint(-9, 9)) for _ in range(4))
            sq = ex2_reference_squaring(ex2_pencil, ex2_config_15, (t1, t2, t3, t4))
            dz = closed_loop_dz(ex2, ex2_pencil, sq)
            # t(s) = s^2 - (t1 + t4) s + (t1 t4 - t2 t3)
            assert dz == Poly([t1 * t4 - t2 * t3, -(t1 + t4), 1])
            assert dz == input_decoupling_zeros(q_coordinate_square(ex2_pencil, sq, pd.EX2_Q))

    def test_example1_no_zeros(self, ex1, ex1_reference_pencil):
        sq = ex1_reference_squaring(ex1_reference_pencil)
        assert closed_loop_dz(ex1, ex1_reference_pencil, sq) == Poly.one()
        assert input_decoupling_zeros(q_coordinate_square(ex1_reference_pencil, sq, EX1_Q)) == Poly.one()

    def test_degree_complements_sigma_sum(self, ex2, ex2_pencil, ex2_config_15):
        sq = ex2_reference_squaring(ex2_pencil, ex2_config_15)
        assert closed_loop_dz(ex2, ex2_pencil, sq).degree == 9 - 7


class TestFixedDecouplingPoles:
    def test_row_gcd_cancellation(self):
        # C_f S~(s) = diag(s+1, s+2): the row gcds absorb everything
        square = SimpleNamespace(
            C_f=RationalMatrix([[1, 1, 0, 0], [0, 0, 2, 1]]),
            sigma_tilde=(2, 2),
            uncontrollable_dim=0,
        )
        assert fixed_decoupling_poles(square) == Poly.one()

    def test_example1(self, ex1_reference_pencil, ex1, ex1_solution):
        square = q_coordinate_square(
            ex1_reference_pencil, ex1_reference_squaring(ex1_reference_pencil), EX1_Q
        )
        fixed = fixed_decoupling_poles(square)
        assert fixed == Poly.one()
        # oracle: the reference closed loop has no unobservable modes
        acl = pd.EX1_A + pd.EX1_B * pd.EX1_F_FINAL
        assert unobservable_polynomial(acl, pd.EX1_C, resolvent(acl)) == Poly.one()

    def test_example2(self, ex2_pencil, ex2_config_15):
        square = q_coordinate_square(
            ex2_pencil, ex2_reference_squaring(ex2_pencil, ex2_config_15), pd.EX2_Q
        )
        fixed = fixed_decoupling_poles(square)
        assert fixed == parse_poly("s^4-s^3-2s^2+s+2")
        # oracle relations on the reference closed loop at t = 0:
        # fixed | unobservable | fixed * dz (one zero mode is also unobservable)
        acl = pd.EX2_A + pd.EX2_B * pd.ex2_f_final(0, 0, 0, 0)
        chi = resolvent(acl)
        unobs = unobservable_polynomial(acl, pd.EX2_C, chi)
        dz = input_decoupling_zeros(square)
        assert unobs.divmod(fixed)[1].is_zero()
        assert (fixed * dz).divmod(unobs)[1].is_zero()
        assert uncontrollable_polynomial(acl, pd.EX2_B * pd.EX2_G_FINAL, chi) == dz


class TestAssignZeros:
    def test_target_with_rational_roots(self, ex2, ex2_pencil, ex2_config_15):
        fam = ex2_reference_family(ex2_config_15)
        t = assign_zeros(ex2_pencil, ex2_config_15, fam, parse_poly("s^2+3s+2"))
        assert len(t) == 2 and all(len(row) == 2 for row in t)
        sq = ex2_squaring_at(ex2_pencil, ex2_config_15, fam, t)
        assert closed_loop_dz(ex2, ex2_pencil, sq) == parse_poly("s^2+3s+2")
        assert input_decoupling_zeros(q_coordinate_square(ex2_pencil, sq, pd.EX2_Q)) == parse_poly(
            "s^2+3s+2"
        )

    def test_target_with_irrational_roots(self, ex2, ex2_pencil, ex2_config_15):
        fam = ex2_reference_family(ex2_config_15)
        t = assign_zeros(ex2_pencil, ex2_config_15, fam, parse_poly("s^2+s+1"))
        sq = ex2_squaring_at(ex2_pencil, ex2_config_15, fam, t)
        assert closed_loop_dz(ex2, ex2_pencil, sq) == parse_poly("s^2+s+1")

    def test_closed_loop_zeros_checked_against_target(self, ex2, monkeypatch):
        # a placement that misses the requested target is caught on the
        # verified closed loop instead of being reported
        place = zeros.assign_zeros

        def wrong_target(pencil, config, fam, target):
            return place(pencil, config, fam, parse_poly("s^2+s+1"))

        monkeypatch.setattr(zeros, "assign_zeros", wrong_target)
        with pytest.raises(MorganError, match=r"s\^2\+s\+1 differ from the placed target "
                                              r"s\^2\+3s\+2 \(bug\)"):
            solve(ex2, SolveOptions(seed=1729, dz_target=parse_poly("s^2+3s+2")))

    def test_formula_substitutions(self):
        # t(s) at t1=-1, t4=-2, t2=t3=0 gives (s+1)(s+2)
        t1, t2, t3, t4 = map(Fraction, (-1, 0, 0, -2))
        assert Poly([t1 * t4 - t2 * t3, -(t1 + t4), 1]) == parse_poly("s^2+3s+2")
        # and t2=1, t4=0, t1=-1, t3=-1 gives s^2+s+1
        t1, t2, t3, t4 = map(Fraction, (-1, 1, -1, 0))
        assert Poly([t1 * t4 - t2 * t3, -(t1 + t4), 1]) == parse_poly("s^2+s+1")

    def test_degree_zero_target(self, ex1_reference_pencil):
        cfg = enumerate_row_configs((1, 1, 3, 4), 3)[0]
        fam = MuFamily(particulars=(pd.EX1_MU,), nullbasis=())
        assert assign_zeros(ex1_reference_pencil, cfg, fam, Poly.one()) is None

    def test_companion(self):
        c = companion(parse_poly("s^2+3s+2"))
        assert resolvent(c) == parse_poly("s^2+3s+2")


class TestQuotientByNullbasis:
    """assign_zeros works on N = ker Q_B^T with no completed basis Q."""

    def _null_basis(self, qb_num):
        # as solve_feedback_rows forms it
        return RationalMatrix(qb_num.transpose().solve([])[1])

    def test_pivots_prefer_low_units(self):
        qb_num = RationalMatrix([[0], [0], [1]])
        assert ref.complete_basis(qb_num) == RationalMatrix.identity(3)
        nb = self._null_basis(qb_num)
        assert reduced_echelon(nb) == ref.echelon(nb)
        assert ref.echelon(nb)[1] == pivot_columns(nb) == [0, 1]

    def test_pivots_are_the_completing_units(self):
        # the pivot columns u of N are the unit columns that complete Q_B,
        # and W^-1 N, W = N[:, u], is the leading block of rows of Q^-1
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 8)
            w = n if checked % 5 == 0 else rng.randint(1, n)  # every fifth is square
            qb_num = RationalMatrix(
                [[rng.choice((0, 0, 0, rng.randint(-4, 4))) for _ in range(w)] for _ in range(n)]
            )
            if qb_num.rank() < w:
                with pytest.raises(ref.SingularQ):
                    ref.complete_basis(qb_num)
                continue
            q = ref.complete_basis(qb_num)
            k = n - w
            units = [q.col(j).index(1) for j in range(k)]
            nb = self._null_basis(qb_num)
            assert reduced_echelon(nb) == ref.echelon(nb)
            assert ref.echelon(nb)[1] == pivot_columns(nb) == units
            if k:
                w_inv = ref.inverse(nb.submatrix(range(k), units))
                assert ref.mul(w_inv, nb) == ref.inverse(q).submatrix(range(k), range(n))
            checked += 1

    def test_same_t_as_the_completed_basis(self):
        # random monic targets at every solved configuration with k > 0;
        # W != I at most of them
        rng = random.Random(2323)
        refused = placed = placed_with_w_not_i = 0
        for i, sys_ in enumerate(random_systems(808, 6)):
            for sol, qb_num in solved_configurations(sys_, SolveOptions(seed=i)):
                fam = sol.mu_family
                k = len(fam.nullbasis)
                if k == 0:
                    continue
                nb = RationalMatrix(fam.nullbasis)
                w_not_i = nb.submatrix(range(k), pivot_columns(nb)) != RationalMatrix.identity(k)
                for _ in range(2):
                    target = Poly([rng.randint(-5, 5) for _ in range(k)] + [1])
                    try:
                        expected = q_basis_assignment(sol.pencil, sol.config, qb_num, fam, target)
                    except NotSolvable:
                        with pytest.raises(NotSolvable):
                            assign_zeros(sol.pencil, sol.config, fam, target)
                        refused += 1
                        continue
                    assert assign_zeros(sol.pencil, sol.config, fam, target) == expected
                    placed += 1
                    placed_with_w_not_i += w_not_i
        assert refused > 0 and placed > 0 and placed_with_w_not_i > 0


class TestBestEffort:
    """When the free-parameter map cannot reach every quotient block."""

    def _system(self):
        return StateSpace(
            A=RationalMatrix([[0, 2, 1, -2], [0, 1, 2, 1], [-1, 0, -1, -2], [1, -2, 0, 1]]),
            B=RationalMatrix([[1, 0], [-1, -1], [-1, 0], [0, 1]]),
            C=RationalMatrix([[-1, -1, 0, 1]]),
        )

    def test_dz_target_rejected_when_map_not_onto(self):
        # winning tuple (2,) leaves two uncontrollable modes but only one
        # free feedback row, so the rank-one update map cannot be onto and
        # requesting specific zeros certifies no solution within the search
        sys_ = self._system()
        base = solve(sys_, SolveOptions(seed=4))
        assert isinstance(base, DecouplingSolution)
        assert base.fixed_poles.input_dz_poly.degree == 2
        from morgan.decouple import NoSolution

        res = solve(sys_, SolveOptions(seed=4, dz_target=parse_poly("s^2+3s+2")))
        assert isinstance(res, NoSolution)
        assert any("place" in o.reason for o in res.outcomes)

    def test_report_exposes_parametric_polynomial(self):
        sys_ = self._system()
        with recorded_qb_nums() as seen:
            sol = solve(sys_, SolveOptions(seed=4))
        qb_num = seen[-1]
        assert sol.squaring.t is None
        # the quotient block at T = 0 reproduces the solution's own zero polynomial
        assert resolvent(quotient_block_at_zero(sol)) == sol.fixed_poles.input_dz_poly
        assert input_decoupling_zeros(q_square_of(sol, qb_num)) == sol.fixed_poles.input_dz_poly
        with pytest.raises(NotSolvable, match="free-parameter map does not reach every quotient block"):
            assign_zeros(sol.pencil, sol.config, sol.mu_family, parse_poly("s^2+3s+2"))


class TestRouthHurwitz:
    def test_stable(self):
        for text in ["s+3", "s^2+s+1", "s^3+3s^2+3s+1", "1"]:
            assert routh_hurwitz_stable(parse_poly(text))

    def test_unstable(self):
        for text in ["s-1", "s^2-1", "s^4+2s-3", "s^2+1", "s", "s^3+s^2+s+1"]:
            assert not routh_hurwitz_stable(parse_poly(text))

    def test_fixed_pole_flags_in_solutions(self, ex1_solution):
        fp = ex1_solution.fixed_poles
        assert fp.input_dz_stable and fp.fixed_dec_stable  # both are 1


class TestRandomSolvedSystems:
    def test_oracle_relations_on_twenty_systems(self):
        rng = random.Random(606)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 120:
            attempts += 1
            n = rng.randint(3, 6)
            l = rng.randint(2, min(4, n))
            m = rng.randint(1, l)
            a = RationalMatrix(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            )
            b = RationalMatrix(
                [[rng.randint(-1, 1) for _ in range(l)] for _ in range(n)]
            )
            c = RationalMatrix(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            )
            try:
                sys_ = StateSpace(A=a, B=b, C=c)
            except Exception:
                continue
            res = solve(sys_, SolveOptions(seed=attempts))
            if not isinstance(res, DecouplingSolution):
                continue
            checked += 1
            acl = sys_.A + sys_.B * res.F
            chi = resolvent(acl)
            dz = res.fixed_poles.input_dz_poly
            assert dz.degree + sum(res.ci_tuple) == n
            assert uncontrollable_polynomial(acl, sys_.B * res.G, chi) == dz
            prod = Poly.one()
            for _, p in res.diag:
                prod = prod * p
            # (prod * dz) divides charpoly exactly; the cofactor collects the
            # controllable-but-unobservable modes (the structural fixed poles
            # plus any numerator zeros cancelled by the chosen 1/p_i law)
            cofactor, rem = chi.divmod(prod * dz)
            assert rem.is_zero()
            assert cofactor.degree == sum(res.ci_tuple) - sum(
                d + 1 for d in make_square_system(res.pencil, res.squaring).rel_degrees
            )
            unobs = unobservable_polynomial(acl, sys_.C, chi)
            assert unobs.divmod(cofactor)[1].is_zero()
            assert (cofactor * dz).divmod(unobs)[1].is_zero()
            if dz == Poly.one():
                assert unobs == cofactor
        assert checked == 20


def solved_configurations(sys_, options):
    """(solution, numeric Q_B) of every (tuple, configuration) that
    _evaluate_config solves."""
    pencil = to_pencil_form(sys_)
    configs = enumerate_row_configs(pencil.sigma, sys_.m)
    out = []
    with recorded_qb_nums() as seen:
        for ti, ci_tuple in enumerate(enumerate_tuples(pencil.sigma, sys_.m)):
            qbasis = build_QB(pencil.sigma, ci_tuple)
            for ci, config in enumerate(configs):
                _, sol = _evaluate_config(sys_, pencil, qbasis, config, ti, ci, options)
                if sol is not None:
                    out.append((sol, seen[-1]))
    return out


def random_systems(seed, count):
    """count seeded random systems (n 3-6) that pass the StateSpace checks,
    with (A, B) controllable."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 6)
        l = rng.randint(2, min(4, n))
        m = rng.randint(1, l)
        a, b, c = (
            RationalMatrix([[rng.randint(-k, k) for _ in range(cols)] for _ in range(rows)])
            for rows, cols, k in ((n, n, 2), (n, l, 1), (m, n, 2))
        )
        try:
            system = StateSpace(A=a, B=b, C=c)
            _staircase_select(a, b)
        except InvalidSystem:  # NotControllable too
            continue
        out.append(system)
    return out


class TestFixedPolesFromClosedLoop:
    """fixed_dec_poly = chi(A + BF) / (dz * prod p_i) is the monic det N(s),
    N(s) = C_f S_f(s) at the drawn point, which is the Wolovich-Falb
    polynomial det N(s) / prod(row gcds) times the product of the row gcds,
    and the closed-loop dz is the characteristic polynomial of the quotient
    block, at every solved configuration.  Returns the number of solved
    configurations and the number of those where a row gcd is nonconstant."""

    def _check(self, sys_, options):
        solved = with_row_gcd = 0
        for sol, qb_num in solved_configurations(sys_, options):
            square = q_square_of(sol, qb_num)
            fp = sol.fixed_poles
            rows = ref.numerator_rows(square)
            gcds = ref.row_gcds(rows)
            assert fp.fixed_dec_poly == ref.det(rows).monic()
            assert fp.fixed_dec_poly == fixed_decoupling_poles(square) * prod(
                gcds, start=Poly.one())
            assert fp.input_dz_poly == input_decoupling_zeros(square)
            acl, chi = closed_loop(sys_, sol.F, sol.G)
            _, _, failures = check_fixed_poles(
                sys_, sol.G, acl, chi, fp.input_dz_poly, fp.fixed_dec_poly
            )
            assert failures == []
            solved += 1
            with_row_gcd += any(g.degree > 0 for g in gcds)
        return solved, with_row_gcd

    def test_example1_all(self, ex1):
        assert self._check(ex1, SolveOptions(return_all=True)) == (1, 0)

    def test_example2_all(self, ex2):
        solved, with_row_gcd = self._check(ex2, SolveOptions(return_all=True))
        assert solved > 0 and with_row_gcd > 0

    @pytest.mark.parametrize("seed", [1729, 1731, 2734])
    def test_example2_dz_target(self, ex2, seed):
        options = SolveOptions(seed=seed, return_all=True, dz_target=parse_poly("s^2+3s+2"))
        solved, with_row_gcd = self._check(ex2, options)
        assert solved > 0 and with_row_gcd > 0

    def test_random_systems(self):
        counts = [self._check(sys_, SolveOptions(seed=i))
                  for i, sys_ in enumerate(random_systems(808, 6))]
        assert sum(c[0] for c in counts) > 0 and sum(c[1] for c in counts) > 0
