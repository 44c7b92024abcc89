"""Parametric basis, decouplability search, feedback rows, assembly."""

import copy
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import fraction_reference as ref
import golden_data as pd
from morgan.admissible import enumerate_row_configs, enumerate_tuples
from fraction_reference import PolyMatrix, build_L, build_S
from morgan.canonical import to_pencil_form
from morgan.exactalg import RationalMatrix
from morgan.fileio import load_system
from morgan.paramalg import (
    ConstraintSet,
    ParamId,
    generic_rank,
    instantiate,
    solve_zero_constraints,
    structural_rank,
)
from morgan import decouple, squaring
from morgan.squaring import (
    MuFamily,
    _ascending_deficits,
    _eliminate,
    _leading_entries,
    _nhat_forms,
    _row_degree,
    assemble_squaring,
    build_QB,
    decouplability_search,
    dtilde_hc,
    solve_feedback_rows,
)
from param_oracle import (
    LinearForm,
    TParam,
    at_columns,
    dtilde_formpoly,
    high_col_coeff,
    instantiate_param,
    instantiate_poly,
    mu_row_forms,
    n_alpha_matrix,
    param_matrix,
    qb_matrix,
)


def q(i, j, k):
    return ParamId(i, j, k)


def expect_qb(pattern):
    """Build the expected ParamMatrix from a grid of (i, j, k) tuples / 0."""
    return [
        [LinearForm(0, {q(*cell): 1}) if cell else LinearForm.zero() for cell in row]
        for row in pattern
    ]


class TestBuildQB:
    def test_example1_tuple_144(self):
        qb = build_QB((1, 1, 3, 4), (1, 4, 4))
        t = lambda i, j, k: (i, j, k)  # noqa: E731
        pattern = [
            [t(1,1,1), t(1,2,1), t(1,2,2), t(1,2,3), t(1,2,4), t(1,3,1), t(1,3,2), t(1,3,3), t(1,3,4)],
            [t(2,1,1), t(2,2,1), t(2,2,2), t(2,2,3), t(2,2,4), t(2,3,1), t(2,3,2), t(2,3,3), t(2,3,4)],
            [0, t(3,2,1), t(3,2,2), 0, 0, t(3,3,1), t(3,3,2), 0, 0],
            [0, 0, t(3,2,1), t(3,2,2), 0, 0, t(3,3,1), t(3,3,2), 0],
            [0, 0, 0, t(3,2,1), t(3,2,2), 0, 0, t(3,3,1), t(3,3,2)],
            [0, t(4,2,1), 0, 0, 0, t(4,3,1), 0, 0, 0],
            [0, 0, t(4,2,1), 0, 0, 0, t(4,3,1), 0, 0],
            [0, 0, 0, t(4,2,1), 0, 0, 0, t(4,3,1), 0],
            [0, 0, 0, 0, t(4,2,1), 0, 0, 0, t(4,3,1)],
        ]
        assert [list(r) for r in qb_matrix(qb).entries] == expect_qb(pattern)

    def test_example1_tuple_117(self):
        qb = build_QB((1, 1, 3, 4), (1, 1, 7))
        t = lambda i, j, k: (i, j, k)  # noqa: E731
        pattern = [
            [t(1,1,1), t(1,2,1)] + [t(1,3,k) for k in range(1, 8)],
            [t(2,1,1), t(2,2,1)] + [t(2,3,k) for k in range(1, 8)],
            [0, 0, t(3,3,1), t(3,3,2), t(3,3,3), t(3,3,4), t(3,3,5), 0, 0],
            [0, 0, 0, t(3,3,1), t(3,3,2), t(3,3,3), t(3,3,4), t(3,3,5), 0],
            [0, 0, 0, 0, t(3,3,1), t(3,3,2), t(3,3,3), t(3,3,4), t(3,3,5)],
            [0, 0, t(4,3,1), t(4,3,2), t(4,3,3), t(4,3,4), 0, 0, 0],
            [0, 0, 0, t(4,3,1), t(4,3,2), t(4,3,3), t(4,3,4), 0, 0],
            [0, 0, 0, 0, t(4,3,1), t(4,3,2), t(4,3,3), t(4,3,4), 0],
            [0, 0, 0, 0, 0, t(4,3,1), t(4,3,2), t(4,3,3), t(4,3,4)],
        ]
        assert [list(r) for r in qb_matrix(qb).entries] == expect_qb(pattern)

    def test_example2_tuple_223(self):
        qb = build_QB((1, 2, 2, 2, 2), (2, 2, 3))
        t = lambda i, j, k: (i, j, k)  # noqa: E731
        pattern = [
            [t(1,1,1), t(1,1,2), t(1,2,1), t(1,2,2), t(1,3,1), t(1,3,2), t(1,3,3)],
            [t(2,1,1), 0, t(2,2,1), 0, t(2,3,1), t(2,3,2), 0],
            [0, t(2,1,1), 0, t(2,2,1), 0, t(2,3,1), t(2,3,2)],
            [t(3,1,1), 0, t(3,2,1), 0, t(3,3,1), t(3,3,2), 0],
            [0, t(3,1,1), 0, t(3,2,1), 0, t(3,3,1), t(3,3,2)],
            [t(4,1,1), 0, t(4,2,1), 0, t(4,3,1), t(4,3,2), 0],
            [0, t(4,1,1), 0, t(4,2,1), 0, t(4,3,1), t(4,3,2)],
            [t(5,1,1), 0, t(5,2,1), 0, t(5,3,1), t(5,3,2), 0],
            [0, t(5,1,1), 0, t(5,2,1), 0, t(5,3,1), t(5,3,2)],
        ]
        assert [list(r) for r in qb_matrix(qb).entries] == expect_qb(pattern)

    def test_square_tuple_contains_identity(self):
        qb = build_QB((1, 2), (1, 2))
        assignment = {p: Fraction(0) for p in qb.params}
        assignment[q(1, 1, 1)] = Fraction(1)
        assignment[q(2, 2, 1)] = Fraction(1)
        assert instantiate_param(qb_matrix(qb), assignment) == RationalMatrix.identity(3)

    def test_shift_identity_random_instances(self):
        rng = random.Random(8)
        for sigma, st in [((1, 1, 3, 4), (1, 4, 4)), ((1, 2, 2, 2, 2), (2, 2, 3))]:
            qb = build_QB(sigma, st)
            assignment = {p: Fraction(rng.randint(-5, 5)) for p in qb.params}
            num = instantiate_param(qb_matrix(qb), assignment)
            prod = build_L(sigma) * PolyMatrix.from_rational(num) * build_S(st)
            assert prod.is_zero()

    def test_parameter_count(self):
        qb = build_QB((1, 1, 3, 4), (1, 4, 4))
        # sum over nonzero blocks of (st_j - s_i + 1)
        expected = (1 + 4 + 4) + (1 + 4 + 4) + (2 + 2) + (1 + 1)
        assert len(qb.params) == expected


DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


class TestNhatForms:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "nosol_7_66", "nosol_7_70", "nosol_7_112"])
    def test_every_form_is_homogeneous(self, name, ex1_pencil, ex2_pencil):
        """No coefficient or unit form of any index tuple holds column 0, the
        constant, or a stored zero: the constraint sets never meet a
        constant, and every stored entry is a nonzero coefficient."""
        pencil = {"ex1": ex1_pencil, "ex2": ex2_pencil}.get(name)
        if pencil is None:
            pencil = to_pencil_form(load_system(str(DATA / (name + ".json"))))
        for st_tuple in enumerate_tuples(pencil.sigma, pencil.C_r.rows):
            coeffs, units = _nhat_forms(pencil.C_r, build_QB(pencil.sigma, st_tuple))
            forms = [e[1] for row in coeffs for deg in row for e in deg if e is not None]
            forms += [u[1] for u in units[1:]]
            assert forms and all(f and 0 not in f and all(f.values()) for f in forms)

    @pytest.mark.parametrize("name", ["example2", "nosol_7_66", "nosol_7_70", "nosol_7_112"])
    def test_an_all_solve_leaves_the_memo_as_built(self, name, monkeypatch):
        """The memoized forms flow by reference into constraint sets and
        grids, so a search that changed one in place would change
        qbasis.memo: after an --all solve, the memo of every index tuple
        equals a deepcopy of its forms taken before its search (C_r, the
        key, is immutable)."""
        sys = load_system(str(DATA / (name + ".json")))
        c_r = to_pencil_form(sys).C_r
        built = []

        def build(sigma, sigma_tilde):
            qb = build_QB(sigma, sigma_tilde)
            _nhat_forms(c_r, qb)
            built.append((qb, {k: copy.deepcopy(v) for k, v in qb.memo.items()}))
            return qb

        monkeypatch.setattr(decouple, "build_QB", build)
        decouple.solve(sys, decouple.SolveOptions(return_all=True))
        assert built and all(qb.memo == before for qb, before in built)


class TestDecouplabilitySearch:
    def test_example1_winner(self, ex1_pencil):
        qb = build_QB((1, 1, 3, 4), (1, 4, 4))
        cfg = enumerate_row_configs(ex1_pencil.sigma, 3)[0]
        rep = decouplability_search(ex1_pencil, qb, cfg, random.Random(0))
        assert rep.success
        assert {qb.params[c - 1] for c in rep.constraints.order} == {
            q(1, 1, 1), q(1, 2, 2), q(1, 2, 3), q(1, 2, 4),
            q(1, 3, 2), q(1, 3, 3), q(1, 3, 4),
        }
        # every constraint pins the parameter to zero
        for line in rep.constraints.describe(qb.params):
            assert line.endswith(" = 0")

    def test_example1_n_alpha_structure(self, ex1_pencil):
        qb = build_QB((1, 1, 3, 4), (1, 4, 4))
        cfg = enumerate_row_configs(ex1_pencil.sigma, 3)[0]
        rep = decouplability_search(ex1_pencil, qb, cfg, random.Random(0))
        na = n_alpha_matrix(rep, qb.params, ex1_pencil.C_r)
        assert na[0, 0].is_zero()
        assert na[0, 1] == LinearForm(0, {q(1, 2, 1): 1})
        assert na[0, 2] == LinearForm(0, {q(1, 3, 1): 1})
        assert na[1, 0] == LinearForm(0, {q(2, 1, 1): 1})
        # third output row differs from the first through the sigma=4 block
        assert q(4, 2, 1) in na[2, 1].params()
        assert q(4, 3, 1) in na[2, 2].params()

    def test_example1_117_rejected(self, ex1_pencil):
        qb = build_QB((1, 1, 3, 4), (1, 1, 7))
        cfg = enumerate_row_configs(ex1_pencil.sigma, 3)[0]
        rep = decouplability_search(ex1_pencil, qb, cfg, random.Random(0))
        assert not rep.success

    def test_example2_paper_configuration(self, ex2_pencil, ex2_config_15):
        qb = build_QB(ex2_pencil.sigma, (2, 2, 3))
        rep = decouplability_search(ex2_pencil, qb, ex2_config_15, random.Random(0))
        assert rep.success
        assert {qb.params[c - 1] for c in rep.constraints.order} == {
            ParamId(*t[1:]) for t in pd.EX2_CONSTRAINED}
        assert rep.degree_deficits == (0, 0, 0)

    def test_example2_first_configuration_fails(self, ex2_pencil):
        qb = build_QB(ex2_pencil.sigma, (2, 2, 3))
        cfg = enumerate_row_configs(ex2_pencil.sigma, 3)[0]  # positions (1, 3)
        rep = decouplability_search(ex2_pencil, qb, cfg, random.Random(0))
        assert not rep.success


# N_hat-like rows: coeffs[r][deg] holds (key, form) entries or None, with
# sparse integer forms over 4 parameters, as _nhat_forms builds them.
# Multiples of two shared vectors make forms that an elimination at a higher
# degree already clears.
SIZE = 4
vector_st = st.lists(st.integers(-2, 2), min_size=SIZE, max_size=SIZE)


@st.composite
def nhat_rows(draw):
    shared = draw(st.lists(vector_st, min_size=2, max_size=2))
    multiple_st = st.tuples(st.sampled_from(shared), st.integers(-2, 2)).map(
        lambda vc: [vc[1] * x for x in vc[0]])
    form_st = st.one_of(st.just([0] * SIZE), multiple_st, multiple_st, vector_st).map(
        lambda c: {k: x for k, x in enumerate(c, start=1) if x} or None)
    rows = draw(st.lists(st.lists(st.lists(form_st, min_size=2, max_size=2),
                                  min_size=1, max_size=4),
                         min_size=1, max_size=3))
    return [[tuple(f and (tuple(sorted(f.items())), f) for f in entries) for entries in r]
            for r in rows]


class TestSharedConstraintSets:
    """The same-set rule of decouplability_search: a candidate whose rows
    have degrees a <= t on the constraint set of its targets t shares that
    set with every t' in [a, t]."""

    @given(nhat_rows())
    @settings(max_examples=100, deadline=None)
    def test_targets_between_degrees_and_targets_give_the_same_set(self, rows):
        tops = [len(r) - 1 for r in rows]
        top = max(tops)
        coeffs = [r + [(None, None)] * (top - t) for r, t in zip(rows, tops)]
        bounds = [top] * len(coeffs)

        def eliminate(targets):
            deficits = tuple(b - t for b, t in zip(bounds, targets))
            return _eliminate({(): ConstraintSet()}, coeffs, bounds, deficits, top)

        for targets in product(*(range(top + 1) for _ in coeffs)):
            cs = eliminate(targets)
            degrees = [_row_degree(c, cs, t) for c, t in zip(coeffs, targets)]
            if any(d < 0 for d, _ in degrees):
                continue
            for same in product(*(range(d, t + 1) for (d, _), t in zip(degrees, targets))):
                other = eliminate(same)
                assert (other.rows, other.scale) == (cs.rows, cs.scale)
                assert [_row_degree(c, other, t) for c, t in zip(coeffs, same)] == degrees

    def test_a_reused_candidate_that_succeeds_keeps_its_own_pivot_order(
            self, ex1_pencil, monkeypatch):
        """generic_rank stubbed: an N_alpha grid fails when first tested and
        passes at the k-th repeated test, so the k-th candidate that reuses a
        constraint set wins.  Its constraints are a fresh elimination for its
        own deficits, though the shared set may hold the pivots in another
        order.  N_alpha is the first grid a candidate tests, right after the
        elimination that made its set; Q_B and [D~]_hc follow only a pass."""
        qb = build_QB(ex1_pencil.sigma, (1, 1, 6))
        cfg = enumerate_row_configs(ex1_pencil.sigma, 3)[3]
        coeffs, units = _nhat_forms(ex1_pencil.C_r, qb)
        top = max(qb.sigma_tilde) - 1
        start = solve_zero_constraints(units[c][1] for c in _leading_entries(qb, cfg))
        bounds = [_row_degree(c, start, top)[0] for c in coeffs]
        reordered = 0
        for k in range(1, 6):
            made, sets, repeats, passes = [], {}, [], []

            def eliminate(*args):
                made.append(_eliminate(*args))
                return made[-1]

            def stub(grid, rng):
                full = min(grid.rows, grid.cols)
                if passes:
                    passes.pop()
                    return full
                if id(grid) not in sets:
                    sets[id(grid)] = grid, made[-1]
                    return full - 1
                repeats.append(grid)
                if len(repeats) < k:
                    return full - 1
                passes.extend(["Q_B", "[D~]_hc"])
                return full

            monkeypatch.setattr(squaring, "_eliminate", eliminate)
            monkeypatch.setattr(squaring, "generic_rank", stub)
            rep = decouplability_search(ex1_pencil, qb, cfg, random.Random(0))
            assert rep.success and rep.rank_grids[1] is repeats[-1] and not passes
            fresh = _eliminate({(): start}, coeffs, bounds, rep.degree_deficits, top)
            assert rep.constraints.describe(qb.params) == fresh.describe(qb.params)
            assert (rep.constraints.rows, rep.constraints.scale) == (fresh.rows, fresh.scale)
            shared = sets[id(repeats[-1])][1]
            assert (shared.rows, shared.scale) == (fresh.rows, fresh.scale)
            qb_grid = fresh.apply(qb.cells)
            assert (rep.rank_grids[0].forms, rep.rank_grids[0].den) == (qb_grid.forms, qb_grid.den)
            reordered += shared.order != fresh.order
        assert reordered


def audit_forms(coeffs, bounds, deficits, top):
    """The forms a deficit vector or prefix zeroes, in the audit order: row
    by row, every degree above bounds[r] - d_r, ascending."""
    return [e[1] for r, d in enumerate(deficits) for deg in range(bounds[r] - d + 1, top + 1)
            for e in coeffs[r][deg] if e is not None]


form_st = vector_st.map(lambda c: {k: x for k, x in enumerate(c, start=1) if x} or None)


class TestChainedConstraintSets:
    """_eliminate extends a stored sibling (..., d') or prefix by the forms
    the longer deficit adds; every set it stores must have the rows and
    scale of one elimination of all of its forms from the start set."""

    @pytest.mark.parametrize("name", ["example1", "example2", "nosol_7_66", "nosol_7_70",
                                      "nosol_7_112"])
    def test_every_chained_set_of_an_all_solve(self, name, monkeypatch):
        calls = {}

        def eliminate(states, coeffs, bounds, deficits, top):
            calls[id(states)] = states, coeffs, bounds, top
            return _eliminate(states, coeffs, bounds, deficits, top)

        monkeypatch.setattr(squaring, "_eliminate", eliminate)
        sys = load_system(str(DATA / (name + ".json")))
        decouple.solve(sys, decouple.SolveOptions(seed=1729, return_all=True))
        candidates = 0
        for states, coeffs, bounds, top in calls.values():
            start = states[()]
            for deficits, cs in states.items():
                ref = start.extended(audit_forms(coeffs, bounds, deficits, top))
                assert (cs.rows, cs.scale) == (ref.rows, ref.scale), deficits
                candidates += len(deficits) == len(bounds)
        assert candidates

    @seed(2929)
    @given(nhat_rows(), st.lists(form_st, max_size=2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_visiting_order_and_form_order(self, rows, seeds, data):
        """Candidates visited in any order, some skipped, chain off whatever
        is stored; the reference eliminates the forms in a shuffled order."""
        top = max(len(r) for r in rows) - 1
        coeffs = [r + [(None, None)] * (top + 1 - len(r)) for r in rows]
        bounds = [data.draw(st.integers(0, top)) for _ in coeffs]
        start = ConstraintSet().extended(f for f in seeds if f)
        states = {(): start}
        vectors = data.draw(st.lists(st.sampled_from(_ascending_deficits(bounds)), unique=True))
        for deficits in vectors:
            cs = _eliminate(states, coeffs, bounds, deficits, top)
            forms = data.draw(st.permutations(audit_forms(coeffs, bounds, deficits, top)))
            ref = start.extended(forms)
            assert (cs.rows, cs.scale) == (ref.rows, ref.scale)


class TestGridStructure:
    def test_a_grid_gets_it_when_first_ranked(self, ex1_pencil):
        qb = build_QB(ex1_pencil.sigma, (1, 4, 4))
        cs = solve_zero_constraints([{1: 1, 2: -1}, {3: 2}])
        grid = cs.apply(qb.cells)
        assert grid.structure is None
        generic_rank(grid, random.Random(0))
        assert grid.structure == (grid.params(), structural_rank(grid.pattern()))


class TestDtilde:
    def test_example2_hc_display(self, ex2_pencil, ex2_config_15):
        qb = build_QB(ex2_pencil.sigma, (2, 2, 3))
        hc = param_matrix(dtilde_hc(ex2_pencil, qb, ex2_config_15), qb.params)
        expected = [
            [q(2, 1, 1), q(2, 2, 1), q(2, 3, 2)],
            [q(4, 1, 1), q(4, 2, 1), q(4, 3, 2)],
            [q(5, 1, 1), q(5, 2, 1), q(5, 3, 2)],
        ]
        for i in range(3):
            for j in range(3):
                assert hc[i, j] == LinearForm(0, {expected[i][j]: 1})

    def test_hc_agrees_with_full_dtilde(self, ex2_pencil, ex2_config_15):
        qb = build_QB(ex2_pencil.sigma, (2, 2, 3))
        rng = random.Random(77)
        assignment = {p: Fraction(rng.randint(-4, 4)) for p in qb.params}
        full = instantiate_poly(dtilde_formpoly(ex2_pencil, qb, ex2_config_15), assignment)
        hc_num = instantiate_param(
            param_matrix(dtilde_hc(ex2_pencil, qb, ex2_config_15), qb.params), assignment
        )
        assert high_col_coeff(full, [2, 2, 3]) == hc_num


class TestFeedbackRows:
    def _ex1_family(self, ex1_pencil):
        qb = build_QB((1, 1, 3, 4), (1, 4, 4))
        cfg = enumerate_row_configs(ex1_pencil.sigma, 3)[0]
        rep = decouplability_search(ex1_pencil, qb, cfg, random.Random(0))
        assignment = {ParamId(*k[1:]): Fraction(v) for k, v in pd.EX1_QB_ASSIGNMENT.items()}
        qb_num = instantiate(rep.constraints.apply(qb.cells), at_columns(qb.params, assignment))
        return qb, cfg, qb_num

    def test_example1_unique_mu(self, ex1_pencil):
        qb, cfg, qb_num = self._ex1_family(ex1_pencil)
        fam = solve_feedback_rows(qb, cfg, qb_num)
        assert fam.nullbasis == ()
        assert fam.particulars == (tuple(Fraction(x) for x in pd.EX1_MU),)

    def test_example2_affine_family_contains_paper_rows(self, ex2_pencil, ex2_config_15):
        qb = build_QB(ex2_pencil.sigma, (2, 2, 3))
        rep = decouplability_search(ex2_pencil, qb, ex2_config_15, random.Random(0))
        assignment = {ParamId(*k[1:]): Fraction(v) for k, v in pd.EX2_QB_ASSIGNMENT.items()}
        qb_num = instantiate(rep.constraints.apply(qb.cells), at_columns(qb.params, assignment))
        fam = solve_feedback_rows(qb, ex2_config_15, qb_num)
        assert len(fam.nullbasis) == 2  # n - sum(sigma_tilde)
        w_mu = qb_num.transpose()
        rhs = [ref.mul_vector(w_mu, p) for p in fam.particulars]
        # the reference mu rows solve the same systems, for any t values
        for t_vals in [(0, 0, 0, 0), (1, -2, 3, 5)]:
            t1, t2, t3, t4 = map(Fraction, t_vals)
            for row, target in [
                (pd.ex2_mu1(t1, t2), rhs[0]),
                (pd.ex2_mu2(t3, t4), rhs[1]),
            ]:
                assert list(ref.mul_vector(w_mu, row)) == list(target)

    def test_square_tuple_no_rows(self, ex1_pencil):
        qb = build_QB((1, 1, 3, 4), (1, 1, 3, 4))
        cfg_all = enumerate_row_configs(ex1_pencil.sigma, 4)[0]
        assert cfg_all.blocks == ()
        qb_num = instantiate_param(qb_matrix(qb), {p: Fraction(1) for p in qb.params})
        fam = solve_feedback_rows(qb, cfg_all, qb_num)
        assert fam.particulars == () and fam.rows_at(None) == []


class TestAssemble:
    def test_example1_f0_g0(self, ex1_pencil):
        qb = build_QB((1, 1, 3, 4), (1, 4, 4))
        cfg = enumerate_row_configs(ex1_pencil.sigma, 3)[0]
        rep = decouplability_search(ex1_pencil, qb, cfg, random.Random(0))
        assignment = {ParamId(*k[1:]): Fraction(v) for k, v in pd.EX1_QB_ASSIGNMENT.items()}
        qb_num = instantiate(rep.constraints.apply(qb.cells), at_columns(qb.params, assignment))
        fam = solve_feedback_rows(qb, cfg, qb_num)
        sq = assemble_squaring(ex1_pencil, qb, cfg, qb_num, fam, assignment, None)
        assert sq.F0 == pd.EX1_F0
        assert sq.G0 == pd.EX1_G0
        assert qb_num == pd.EX1_QB_NUM
        assert sq.G0.transpose() * sq.G0 == RationalMatrix.identity(3)

    def test_mu_family_rows_at(self):
        fam = MuFamily(
            particulars=((Fraction(1), Fraction(0)),),
            nullbasis=((Fraction(0), Fraction(1)),),
        )
        assert fam.rows_at(None) == [(Fraction(1), Fraction(0))]
        assert fam.rows_at(((Fraction(3),),)) == [
            (Fraction(1), Fraction(3))
        ]
        forms = mu_row_forms(fam)
        assert forms[0][1] == LinearForm(0, {TParam(1, 1): 1})
