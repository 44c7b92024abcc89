"""Square-system assembly, square decoupling, composition, search driver."""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

import fraction_reference as ref
import golden_data as pd
from morgan.admissible import enumerate_row_configs, enumerate_tuples
from morgan.canonical import StateSpace
from morgan.decouple import (
    DecouplingSolution,
    SolveOptions,
    _evaluate_config,
    check_closed_loop,
    compose_final,
    make_square_system,
    solve,
    square_decouple,
)
from morgan.errors import InvalidSystem, MorganError, TargetDegreeMismatch, VerificationFailed
from morgan.exactalg import Poly, RationalMatrix, parse_poly, transfer_function
from morgan.fileio import load_system
from morgan.paramalg import ParamId, instantiate
from morgan.squaring import (
    SquaringData,
    assemble_squaring,
    build_QB,
    decouplability_search,
    solve_feedback_rows,
)
from morgan.zeros import charpoly, closed_loop
from param_oracle import at_columns

NOSOL_7_66 = str(Path(__file__).resolve().parent.parent / "perfbench" / "data" / "nosol_7_66.json")


def not_right_invertible(name):
    payload = pd.NOT_RIGHT_INVERTIBLE[name]
    return StateSpace(*(RationalMatrix(payload[k]) for k in "ABC"))


def ex1_reference_squaring(ex1_reference_pencil):
    """SquaringData for Example 1 built with the reference values."""
    qb = build_QB((1, 1, 3, 4), (1, 4, 4))
    cfg = enumerate_row_configs((1, 1, 3, 4), 3)[0]
    rep = decouplability_search(ex1_reference_pencil, qb, cfg, random.Random(0))
    assignment = {ParamId(*k[1:]): Fraction(v) for k, v in pd.EX1_QB_ASSIGNMENT.items()}
    qb_num = instantiate(rep.constraints.apply(qb.cells), at_columns(qb.params, assignment))
    fam = solve_feedback_rows(qb, cfg, qb_num)
    return assemble_squaring(ex1_reference_pencil, qb, cfg, qb_num, fam, assignment, None)


# Example 1's Q_B is square, so it is the whole basis Q of the paper's
# (A_f, B_f, C_f) (test_squaring.TestAssemble); Example 2's Q is pd.EX2_Q.
EX1_Q = pd.EX1_QB_NUM


def square_input(pencil, squaring):
    """B_f = B_r G_I G_0 of the square system in pencil coordinates."""
    return pencil.B_r_GI * squaring.G0


def closed_loop_dz(sys_, pencil, squaring):
    """The input decoupling zeros that compose_final reads off the verified
    closed loop of the default static law on the squaring."""
    f_f, g_f, p_list = square_decouple(make_square_system(pencil, squaring))
    return compose_final(sys_, pencil, squaring, f_f, g_f, p_list)[3].input_dz_poly


def assert_diagonal(h, p_list):
    """h is exactly diag(1/p_i)."""
    for i, row in enumerate(h):
        for j, (num, den) in enumerate(row):
            if i == j:
                assert (num, den) == (Poly.one(), p_list[i].monic())
            else:
                assert num.is_zero()


def assert_decouples(sys_, sol):
    """The solution's (F, G) decouples the original system into diag(1/p_i)."""
    expected = [(Poly.one(), den) for _, den in sol.diag]
    diag, failures = check_closed_loop(sys_, sol.G, *closed_loop(sys_, sol.F, sol.G), expected)
    assert failures == []
    assert diag == expected


def ex2_reference_squaring(ex2_pencil, ex2_config_15, t=(0, 0, 0, 0)):
    """SquaringData for Example 2 with the reference mu rows (basis pd.EX2_Q)."""
    t1, t2, t3, t4 = map(Fraction, t)
    return SquaringData(
        sigma_tilde=(2, 2, 3),
        F0=pd.ex2_f0(t1, t2, t3, t4),
        G0=pd.EX2_G0,
        M_rows=(pd.ex2_mu1(t1, t2), pd.ex2_mu2(t3, t4)),
        assignment={},
        t=None,
    )


class TestMakeSquareSystem:
    """The square system is the paper's (A_f, B_f, C_f) mapped back through Q."""

    def test_example1_reference(self, ex1_reference_pencil):
        sq = ex1_reference_squaring(ex1_reference_pencil)
        square = make_square_system(ex1_reference_pencil, sq)
        q_inv = EX1_Q.inverse()
        assert square.A_f == EX1_Q * pd.EX1_A_F * q_inv
        assert square_input(ex1_reference_pencil, sq) == EX1_Q * pd.EX1_B_F
        assert square.C_f == pd.EX1_C_F * q_inv
        assert square.rel_degrees == (3, 0, 3)
        assert ref.q_coordinate_square(ex1_reference_pencil, sq, EX1_Q).uncontrollable_dim == 0

    def test_example2_reference(self, ex2_pencil, ex2_config_15):
        q_inv = pd.EX2_Q.inverse()
        for t in [(0, 0, 0, 0), (1, 2, 3, 4)]:
            sq = ex2_reference_squaring(ex2_pencil, ex2_config_15, t)
            square = make_square_system(ex2_pencil, sq)
            assert square.A_f == pd.EX2_Q * pd.ex2_a_f(*map(Fraction, t)) * q_inv
            assert square_input(ex2_pencil, sq) == pd.EX2_Q * pd.EX2_B_F
            assert square.C_f == pd.EX2_C_F * q_inv
            assert square.rel_degrees == (0, 0, 0)
            qsq = ref.q_coordinate_square(ex2_pencil, sq, pd.EX2_Q)
            assert (qsq.A_f, qsq.B_f, qsq.C_f) == (
                pd.ex2_a_f(*map(Fraction, t)), pd.EX2_B_F, pd.EX2_C_F
            )
            assert qsq.uncontrollable_dim == 2

    def test_wrong_indices_raise(self, ex2_pencil, ex2_config_15):
        sq = ex2_reference_squaring(ex2_pencil, ex2_config_15)
        for st in [(1, 3, 3), (2, 2, 2)]:
            with pytest.raises(MorganError, match="requested indices"):
                make_square_system(ex2_pencil, dataclasses.replace(sq, sigma_tilde=st))


class TestSquareDecouple:
    def test_example1_reference_targets(self, ex1_reference_pencil):
        sq = ex1_reference_squaring(ex1_reference_pencil)
        square = make_square_system(ex1_reference_pencil, sq)
        targets = [parse_poly(t) for t in pd.EX1_DIAG_DENS]
        f_f, g_f, p_list = square_decouple(square, targets)
        # matrix-level equality with the reference F_f is not required;
        # the closed loop must be exactly diag(1/p_i)
        b_f = square_input(ex1_reference_pencil, sq)
        acl = square.A_f + b_f * f_f
        h = transfer_function(acl, b_f * g_f, square.C_f, charpoly(acl))
        assert_diagonal(h, p_list)

    def test_example2_reference_targets(self, ex2_pencil, ex2_config_15):
        sq = ex2_reference_squaring(ex2_pencil, ex2_config_15)
        square = make_square_system(ex2_pencil, sq)
        targets = [parse_poly(t) for t in pd.EX2_DIAG_DENS]
        f_f, g_f, p_list = square_decouple(square, targets)
        b_f = square_input(ex2_pencil, sq)
        acl = square.A_f + b_f * f_f
        h = transfer_function(acl, b_f * g_f, square.C_f, charpoly(acl))
        assert_diagonal(h, p_list)

    def test_f_f_matches_reference_horner(self, ex1_reference_pencil, ex2_pencil, ex2_config_15,
                                          ex1_solution, ex2_solution):
        # F_f = -B*^-1 [C_i p_i(A_f)], p_i(A_f) by Horner on Fraction matrices
        squares = [
            make_square_system(ex1_reference_pencil, ex1_reference_squaring(ex1_reference_pencil)),
            make_square_system(ex2_pencil, ex2_reference_squaring(ex2_pencil, ex2_config_15, (1, 2, 3, 4))),
        ] + [make_square_system(s.pencil, s.squaring) for s in (ex1_solution, ex2_solution)]
        for square in squares:
            for targets in (None, [Poly([Fraction(1, 3)] * (d + 1) + [1]) for d in square.rel_degrees]):
                f_f, g_f, p_list = square_decouple(square, targets)
                rows = [
                    (square.C_f.submatrix([i], range(square.A_f.rows)) * ref.eval_matrix(p, square.A_f)).row(0)
                    for i, p in enumerate(p_list)
                ]
                assert g_f == square.B_star.inverse()
                assert f_f == -(g_f * RationalMatrix(rows))

    def test_single_chain(self):
        a = RationalMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        b = RationalMatrix([[0], [0], [1]])
        c = RationalMatrix([[1, 0, 0]])
        sys_ = StateSpace(A=a, B=b, C=c)
        sol = solve(sys_, SolveOptions(seed=1))
        assert isinstance(sol, DecouplingSolution)
        num, den = sol.diag[0]
        assert num == Poly.one()
        assert den == parse_poly("s^3+3s^2+3s+1")  # (s+1)^3

    def test_degree_mismatch(self, ex1_reference_pencil):
        sq = ex1_reference_squaring(ex1_reference_pencil)
        square = make_square_system(ex1_reference_pencil, sq)
        with pytest.raises(TargetDegreeMismatch):
            square_decouple(square, [parse_poly("s+1")] * 3)


class TestComposeFinal:
    """The paper's F_f, in pencil coordinates F_f Q^-1, composes to its final pair."""

    def test_example1_reference_pair(self, ex1, ex1_reference_pencil):
        sq = ex1_reference_squaring(ex1_reference_pencil)
        p_list = [parse_poly(t) for t in pd.EX1_DIAG_DENS]
        f, g, diag, fixed = compose_final(
            ex1, ex1_reference_pencil, sq, pd.EX1_F_F * EX1_Q.inverse(), pd.EX1_G_F, p_list
        )
        assert f == pd.EX1_F_FINAL
        assert g == pd.EX1_G_FINAL
        assert [den for _, den in diag] == p_list
        qsq = ref.q_coordinate_square(ex1_reference_pencil, sq, EX1_Q)
        assert fixed.fixed_dec_poly == ref.fixed_decoupling_poles(qsq) == Poly.one()
        assert fixed.input_dz_poly == ref.input_decoupling_zeros(qsq) == Poly.one()

    def test_example2_reference_pair(self, ex2, ex2_pencil, ex2_config_15):
        sq = ex2_reference_squaring(ex2_pencil, ex2_config_15)
        p_list = [parse_poly(t) for t in pd.EX2_DIAG_DENS]
        f, g, diag, fixed = compose_final(
            ex2, ex2_pencil, sq, pd.EX2_F_F * pd.EX2_Q.inverse(), pd.EX2_G_F, p_list
        )
        assert f == pd.ex2_f_final(0, 0, 0, 0)
        assert g == pd.EX2_G_FINAL
        qsq = ref.q_coordinate_square(ex2_pencil, sq, pd.EX2_Q)
        assert fixed.fixed_dec_poly == ref.fixed_decoupling_poles(qsq)
        assert fixed.input_dz_poly == ref.input_decoupling_zeros(qsq) == parse_poly("s^2")

    def test_trivial_integrator(self):
        sys_ = StateSpace(
            A=RationalMatrix([[0]]),
            B=RationalMatrix([[1]]),
            C=RationalMatrix([[1]]),
        )
        from morgan.canonical import to_pencil_form

        pencil = to_pencil_form(sys_)
        sq = SquaringData(
            sigma_tilde=(1,),
            F0=RationalMatrix.zeros(1, 1),
            G0=RationalMatrix.identity(1),
            M_rows=(),
            assignment={},
            t=None,
        )
        assert make_square_system(pencil, sq).rel_degrees == (0,)
        f, g, diag, fixed = compose_final(
            sys_, pencil, sq,
            RationalMatrix.zeros(1, 1), RationalMatrix.identity(1), [parse_poly("s")],
        )
        assert f == RationalMatrix.zeros(1, 1)
        assert g == RationalMatrix.identity(1)
        assert fixed.fixed_dec_poly == Poly.one()

    def test_verification_guards_diagonal(self):
        # C (sI - A)^-1 = [[1/(s+1), 1/(s+2)], [0, 1/(s+2)]]
        sys_ = StateSpace(
            A=RationalMatrix([[-1, 0], [0, -2]]),
            B=RationalMatrix.identity(2),
            C=RationalMatrix([[1, 1], [0, 1]]),
        )
        expected = [(Poly.one(), parse_poly("s+1")), (Poly.one(), parse_poly("s+2"))]
        f, g = RationalMatrix.zeros(2, 2), RationalMatrix.identity(2)
        diag, failures = check_closed_loop(sys_, g, *closed_loop(sys_, f, g), expected)
        assert diag == expected
        assert len(failures) == 1
        err = failures[0]
        assert isinstance(err, VerificationFailed)
        assert err.entry == (1, 2)
        assert str(err) == "off-diagonal entry (1,2) = (1)/(s+2) != 0"

    @pytest.mark.parametrize("g, messages", [
        ([[1, 0], [0, 0]], ["diagonal entry 2 is zero"]),
        ([[1, 1], [1, 1]], ["off-diagonal entry (1,2) = (1)/(s+1) != 0",
                            "off-diagonal entry (2,1) = (1)/(s+2) != 0"]),
    ])
    def test_rank_deficient_g_fails(self, g, messages):
        """compose_final has no rank check of G: a G of rank < m leaves
        C (sI - A - BF)^-1 BG of rank < m, so the closed-loop check fails."""
        sys_ = StateSpace(
            A=RationalMatrix([[-1, 0], [0, -2]]),
            B=RationalMatrix.identity(2),
            C=RationalMatrix.identity(2),
        )
        expected = [(Poly.one(), parse_poly("s+1")), (Poly.one(), parse_poly("s+2"))]
        f, g = RationalMatrix.zeros(2, 2), RationalMatrix(g)
        assert g.rank() < sys_.m
        _, failures = check_closed_loop(sys_, g, *closed_loop(sys_, f, g), expected)
        assert [str(e) for e in failures] == messages


class TestSolve:
    def test_example1(self, ex1_solution):
        sol = ex1_solution
        assert isinstance(sol, DecouplingSolution)
        assert sol.ci_tuple == (1, 4, 4)
        assert sol.config.positions == (1,)
        # default diagonal denominators (s+1)^(d_i+1)
        assert [str(d) for _, d in sol.diag] == [
            "s^4+4s^3+6s^2+4s+1",
            "s+1",
            "s^4+4s^3+6s^2+4s+1",
        ]

    def test_example1_rejects_other_tuples(self, ex1):
        sol = solve(ex1, SolveOptions(seed=1729, return_all=True))
        by_tuple = {}
        for o in sol.outcomes:
            by_tuple.setdefault(o.ci_tuple, []).append(o.status)
        assert set(by_tuple) == set(pd.EX1_I_LIST)
        for t, statuses in by_tuple.items():
            if t == (1, 4, 4):
                assert "solved" in statuses
            else:
                assert all(s == "rejected" for s in statuses)
                assert len(statuses) == 4  # every configuration examined

    def test_example2_solution_verifies(self, ex2, ex2_solution):
        sol = ex2_solution
        assert isinstance(sol, DecouplingSolution)
        # the complete deficit search reaches a feasible configuration before
        # the classic one ((2,2,3) at (1,5)); the result is verified exactly
        # against the original system
        assert sol.ci_tuple == (1, 2, 2)
        assert sol.config.positions == (5, 7)
        assert_decouples(ex2, sol)
        assert sol.G.rank() == 3

    def test_example2_reference_configuration_feasible(self, ex2, ex2_pencil):
        # the classic configuration also goes through end to end
        tuples = enumerate_tuples(ex2_pencil.sigma, 3)
        configs = enumerate_row_configs(ex2_pencil.sigma, 3)
        ti = tuples.index((2, 2, 3))
        qb = build_QB(ex2_pencil.sigma, (2, 2, 3))
        outcome, solution = _evaluate_config(
            ex2, ex2_pencil, qb, configs[1], ti, 1, SolveOptions(seed=1729)
        )
        assert outcome.status == "solved"
        assert solution.ci_tuple == (2, 2, 3)
        assert_decouples(ex2, solution)

    def test_square_system(self):
        a = RationalMatrix([[0, 1, 0], [0, 0, 1], [1, 2, 3]])
        sys_ = StateSpace(A=a, B=RationalMatrix.identity(3), C=RationalMatrix.identity(3))
        sol = solve(sys_, SolveOptions(seed=5))
        assert isinstance(sol, DecouplingSolution)
        assert sol.squaring.F0 == RationalMatrix.zeros(3, 3)
        assert sol.squaring.G0 == RationalMatrix.identity(3)

    def test_no_solution_zero_output_row(self):
        # a zero output row is not right-invertible: an input error, not a NoSolution
        sys_ = not_right_invertible("zero_output_row")
        with pytest.raises(InvalidSystem, match="not right-invertible"):
            solve(sys_, SolveOptions(seed=5))

    @pytest.mark.parametrize("name", ["dependent_output_rows", "derivative_output"])
    def test_not_right_invertible_rejected(self, name):
        sys_ = not_right_invertible(name)
        with pytest.raises(InvalidSystem, match="not right-invertible"):
            solve(sys_, SolveOptions(seed=5))

    def test_custom_diagonal_polys(self, ex1):
        polys = tuple(parse_poly(t) for t in pd.EX1_DIAG_DENS)
        sol = solve(ex1, SolveOptions(seed=1729, diag_polys=polys))
        assert [d for _, d in sol.diag] == list(polys)

    def test_determinism(self, ex1, ex1_solution):
        again = solve(ex1, SolveOptions(seed=1729))
        assert again.F == ex1_solution.F
        assert again.G == ex1_solution.G
        assert again.ci_tuple == ex1_solution.ci_tuple

    def test_search_bound(self, ex2_solution):
        assert len(ex2_solution.outcomes) <= 16 * 10


class TestOptionChecks:
    """solve rejects invalid polynomial options before the search."""

    @pytest.mark.parametrize(
        "system, options, message",
        [
            ("ex2", dict(dz_target=Poly.zero()), "target must be a nonzero monic"),
            ("ex2", dict(dz_target=Poly([2])), "target must be a nonzero monic"),
            ("ex1", dict(diag_polys=(Poly.zero(), Poly([1, 1]), Poly([1, 1]))),
             "diagonal polynomial 1 must be a nonzero monic"),
            ("ex1", dict(diag_polys=(Poly([1, 1]), Poly([1, 1]), Poly([1, 2]))),
             "diagonal polynomial 3 must be a nonzero monic"),
            ("ex2", dict(diag_polys=(Poly([1, 1]),)), "one diagonal polynomial per output"),
            ("nosol", dict(dz_target=Poly([2])), "target must be a nonzero monic"),
            ("nosol", dict(diag_polys=(Poly([1, 1]),)), "one diagonal polynomial per output"),
        ],
    )
    def test_raises(self, system, options, message, ex1, ex2):
        sys_ = load_system(NOSOL_7_66) if system == "nosol" else {"ex1": ex1, "ex2": ex2}[system]
        with pytest.raises(MorganError, match=message):
            solve(sys_, SolveOptions(seed=1729, **options))


class TestClosedLoopFactorization:
    def test_examples(self, ex1, ex1_solution, ex2, ex2_solution):
        for sys_, sol in [(ex1, ex1_solution), (ex2, ex2_solution)]:
            acl = sys_.A + sys_.B * sol.F
            chi = charpoly(acl)
            prod = Poly.one()
            for _, p in sol.diag:
                prod = prod * p
            assert (
                chi
                == prod
                * sol.fixed_poles.input_dz_poly
                * sol.fixed_poles.fixed_dec_poly
            )
