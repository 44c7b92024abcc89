"""Search driver, square-system assembly, square decoupling, final composition.

The driver walks the (index tuple, row configuration) grid in lexicographic
order in one loop.  Each configuration is evaluated purely from its own
derived sub-seed, so its outcome does not depend on which configurations
ran before it; the winner is the first configuration whose entire pipeline
(search, instantiation, feedback solve, square decoupling, exact closed-loop
verification) goes through.  The square system stays in the pencil
coordinates of to_pencil_form: the static decoupling law does not depend on
the basis, so no basis completing Q_B is formed.  --dz-target places the
input decoupling zeros in the quotient by the span of Q_B (see zeros).

A NoSolution means that no solution was found among the searched
configurations, not that none exists.  The rank tests of the search take
the structural bound first: a bound below full is an exact rejection, with
its points still drawn.  The others are randomized (one-sided error,
bounded per trial by min(rows, cols) / (2 * SAMPLE_BOUND + 1)), the
numeric instantiation tries only INSTANTIATION_RETRIES points from a
small range, --dz-target rejects a configuration whose map onto the
quotient is not onto at the one point drawn (no stated bound), and the
configurations are taken in the one controller-form basis that
to_pencil_form picks, so the verdict can depend on that representative.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .admissible import RowConfig, enumerate_row_configs, enumerate_tuples
from .canonical import PencilForm, StateSpace, to_pencil_form
from .errors import (
    InvalidSystem,
    MorganError,
    NotSolvable,
    SingularBstar,
    TargetDegreeMismatch,
    VerificationFailed,
)
from .exactalg import (
    Poly,
    RationalMatrix,
    _krylov,
    _scaled_matrix,
    format_poly,
    krylov_select,
    rank,
    transfer_function,
)
from .paramalg import instantiate, randints
from .squaring import (
    SquaringData,
    assemble_squaring,
    build_QB,
    decouplability_search,
    solve_feedback_rows,
)
from . import zeros as zeros_mod

DEFAULT_SEED = 1729
INSTANTIATION_RETRIES = 32
INSTANTIATION_BOUND = 5  # numeric Q_B entries drawn from [-5, 5]


@dataclass(frozen=True)
class SquareSystem:
    """The squared-down system of one configuration, in pencil coordinates."""

    A_f: RationalMatrix
    C_f: RationalMatrix
    rel_degrees: tuple
    B_star: RationalMatrix


def relative_degrees(a: RationalMatrix, b: RationalMatrix, c: RationalMatrix):
    """Per-output relative degrees d_i and the decoupling matrix B*.

    d_i is the least k with C_i A^k B != 0; B* stacks those rows.  The rows
    C_i A^k come from the integer Krylov sequence of each output row.
    Raises SingularBstar when an output row never reaches B.
    """
    d, ah = _scaled_matrix(a.entries)
    a_cols = list(zip(*ah))
    ds = []
    rows = []
    for i, c_row in enumerate(c.entries):
        for k, v in zip(range(a.rows), _krylov(c_row, a_cols, d)):
            hit = (RationalMatrix._of([v]) * b).row(0)
            if any(hit):
                break
        else:
            raise SingularBstar(f"output {i + 1} is disconnected from the inputs")
        ds.append(k)
        rows.append(hit)
    return tuple(ds), RationalMatrix(rows)


def make_square_system(pencil: PencilForm, squaring: SquaringData) -> SquareSystem:
    """A_f = A_r + B_r G_I F_0, B_f = B_r G_I G_0 and C_f = C_r, in pencil coordinates.

    The controllability indices of (A_f, B_f), its sorted Krylov chain
    lengths, must be sigma_tilde; no change of basis alters them.
    """
    a_f = pencil.A_r + pencil.B_r_GI * squaring.F0
    b_f = pencil.B_r_GI * squaring.G0
    c_f = pencil.C_r
    if tuple(sorted(krylov_select(a_f, b_f)[0])) != squaring.sigma_tilde:
        raise MorganError("squared system does not have the requested indices (bug)")

    ds, b_star = relative_degrees(a_f, b_f, c_f)
    if b_star.rank() != c_f.rows:
        raise SingularBstar(
            "decoupling matrix singular although the rank tests passed"
        )
    return SquareSystem(A_f=a_f, C_f=c_f, rel_degrees=ds, B_star=b_star)


def default_diagonal_polys(square: SquareSystem):
    """(s+1)^(d_i+1) for each output."""
    return [Poly([comb(d + 1, k) for k in range(d + 2)]) for d in square.rel_degrees]


def square_decouple(square: SquareSystem, target_polys=None):
    """Static decoupling law: F_f = -B*^-1 stack(C_i p_i(A_f)), G_f = B*^-1.

    The closed loop transfer function is exactly diag(1/p_i(s)); the default
    p_i is (s+1)^(d_i+1).  The row C_i p_i(A_f) sums the integer Krylov rows
    C_i A_f^k, k <= d_i + 1, weighted by the coefficients of p_i.
    """
    if target_polys is None:
        target_polys = default_diagonal_polys(square)
    for i, p in enumerate(target_polys):
        if p.degree != square.rel_degrees[i] + 1:
            raise TargetDegreeMismatch(
                f"diagonal polynomial {i + 1} must have degree "
                f"{square.rel_degrees[i] + 1}, got {p.degree}"
            )
    g_f = square.B_star.inverse()
    d, ah = _scaled_matrix(square.A_f.entries)
    a_cols = list(zip(*ah))
    rows = []
    for c_row, p in zip(square.C_f.entries, target_polys):
        row = [0] * len(c_row)
        for coeff, v in zip(p.coeffs, _krylov(c_row, a_cols, d)):
            row = [x + coeff * y for x, y in zip(row, v)]
        rows.append(row)
    f_f = -(g_f * RationalMatrix(rows))
    return f_f, g_f, list(target_polys)


def compose_final(
    sys: StateSpace,
    pencil: PencilForm,
    squaring: SquaringData,
    f_f: RationalMatrix,
    g_f: RationalMatrix,
    p_list,
):
    """F = G_I (F_0 + G_0 F_f) P^-1 and G = G_I G_0 G_f, verified.

    The exact closed-loop transfer function is recomputed from the original
    (A, B, C) and must equal diag(1/p_i) identically; VerificationFailed
    otherwise (this would be an implementation bug, never a search miss).
    G needs no rank check of its own: once the check passes, C (sI - A -
    BF)^-1 BG = diag(1/p_i) has rank m, and that rank is at most rank G.
    Returns (F, G, diagonal, fixed-pole report read off the closed loop);
    the input decoupling zeros are the uncontrollable polynomial of
    (A + BF, BG), as verify computes them.
    """
    f = pencil.G_I * (squaring.F0 + squaring.G0 * f_f) * pencil.P_inv
    g = pencil.G_I * squaring.G0 * g_f
    acl, chi = zeros_mod.closed_loop(sys, f, g)
    diag, failures = check_closed_loop(
        sys, g, acl, chi, [(Poly.one(), p.monic()) for p in p_list]
    )
    if failures:
        raise failures[0]
    dz = zeros_mod.uncontrollable_polynomial(acl, sys.B * g, chi)
    return f, g, diag, zeros_mod.fixed_pole_report(dz, chi, p_list)


def check_closed_loop(sys: StateSpace, g, acl, chi, expected_diagonal):
    """Check that (F, G) decouples (A, B, C) into the expected diagonal.

    acl = A + BF and chi, its characteristic polynomial, come from
    zeros.closed_loop, which also checks that F and G fit the system.
    Computes C (sI - A - BF)^-1 BG exactly, once.  Returns (diagonal
    (num, den) pairs, failures): a VerificationFailed naming its entry for
    every nonzero off-diagonal entry, then for each diagonal entry that is
    zero or differs from expected_diagonal[i].  VerificationFailed is
    raised when expected_diagonal does not hold one entry per output.
    """
    m = sys.m
    if len(expected_diagonal) != m:
        raise VerificationFailed(
            f"{len(expected_diagonal)} diagonal entries recorded for {m} outputs"
        )
    h = transfer_function(acl, sys.B * g, sys.C, chi)
    failures = [
        VerificationFailed(
            f"off-diagonal entry ({i + 1},{j + 1}) = "
            f"({format_poly(h[i][j][0])})/({format_poly(h[i][j][1])}) != 0",
            entry=(i + 1, j + 1),
        )
        for i in range(m)
        for j in range(m)
        if i != j and not h[i][j][0].is_zero()
    ]
    diag = [h[i][i] for i in range(m)]
    for i, (num, den) in enumerate(diag):
        if num.is_zero():
            message = f"diagonal entry {i + 1} is zero"
        elif (num, den) != tuple(expected_diagonal[i]):
            rec_num, rec_den = expected_diagonal[i]
            message = (
                f"diagonal entry {i + 1} is ({format_poly(num)})/({format_poly(den)}), "
                f"file records ({format_poly(rec_num)})/({format_poly(rec_den)})"
            )
        else:
            continue
        failures.append(VerificationFailed(message, entry=(i + 1, i + 1)))
    return diag, failures


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class SolveOptions:
    seed: int = DEFAULT_SEED
    return_all: bool = False
    diag_polys: tuple | None = None
    dz_target: Poly | None = None


@dataclass(frozen=True)
class ConfigOutcome:
    """Audit record for one (tuple, config) cell."""

    ci_tuple: tuple
    config: RowConfig
    status: str  # 'solved' or 'rejected'
    reason: str


@dataclass(frozen=True)
class DecouplingSolution:
    """One decoupling pair plus its full audit trail."""

    F: RationalMatrix
    G: RationalMatrix
    ci_tuple: tuple
    config: RowConfig
    diag: tuple  # (num, den) Poly pairs
    squaring: SquaringData
    pencil: PencilForm
    fixed_poles: "zeros_mod.FixedPoleReport"
    mu_family: object
    seed: int
    constraints: tuple  # the audit lines of the search's constraint set
    degree_deficits: tuple
    outcomes: tuple = ()

    @property
    def sigma(self):
        return self.pencil.sigma


@dataclass(frozen=True)
class NoSolution:
    """No solution found among the searched configurations (see the module
    docstring for what that verdict rests on)."""

    sigma: tuple
    outcomes: tuple
    searched: int
    seed: int
    reason: str = "every configuration was rejected"


def _sub_seed(seed: int, ti: int, ci: int) -> int:
    h = hashlib.sha256(f"{seed}:{ti}:{ci}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def _evaluate_config(sys, pencil, qbasis, config, ti, ci, options):
    """Run the whole per-configuration pipeline; returns (outcome, solution|None).

    qbasis is build_QB(pencil.sigma, ci_tuple) for the configuration's index
    tuple, shared by all row configurations of that tuple.
    """
    ci_tuple = qbasis.sigma_tilde
    rng = random.Random(_sub_seed(options.seed, ti, ci))

    def outcome(status, reason=""):
        return ConfigOutcome(ci_tuple=ci_tuple, config=config, status=status, reason=reason)

    def rejected(reason):
        return outcome("rejected", reason), None

    w = qbasis.width
    n, m = pencil.n, sys.m

    if options.dz_target is not None and options.dz_target.degree != n - w:
        return rejected(
            f"input-decoupling-zero target degree {options.dz_target.degree} "
            f"!= n - sum(sigma_tilde) = {n - w}"
        )

    report = decouplability_search(pencil, qbasis, config, rng)
    if not report.success:
        return rejected(report.reason)

    # The search checked generic full rank of these three matrices on the
    # constraint set; draw small integer points of its free parameters (Q_B
    # holds every parameter) until all three have full rank there.
    qb_grid, na_grid, dhc_grid = report.rank_grids
    free = qb_grid.params()
    family = None
    assignment = None
    qb_num = None
    for _ in range(INSTANTIATION_RETRIES):
        trial = dict(zip(free, randints(rng, INSTANTIATION_BOUND, len(free))))
        qn = instantiate(qb_grid, trial)
        if qn.rank() != w:
            continue
        if instantiate(na_grid, trial).rank() != m:
            continue
        if instantiate(dhc_grid, trial).rank() != m:
            continue
        try:
            family = solve_feedback_rows(qbasis, config, qn)
        except NotSolvable:
            continue
        assignment = {qbasis.params[c - 1]: Fraction(v) for c, v in trial.items()}
        qb_num = qn
        break
    if family is None:
        return rejected(
            "no numeric instantiation satisfied the exact rank checks "
            f"within {INSTANTIATION_RETRIES} attempts"
        )

    t = None
    if options.dz_target is not None:
        try:
            t = zeros_mod.assign_zeros(pencil, config, family, options.dz_target)
        except NotSolvable as e:
            return rejected(f"cannot place the requested input decoupling zeros: {e}")
    squaring = assemble_squaring(pencil, qbasis, config, qb_num, family, assignment, t)
    try:
        square = make_square_system(pencil, squaring)
        f_f, g_f, p_list = square_decouple(
            square,
            list(options.diag_polys) if options.diag_polys else None,
        )
        f, g, diag, fixed = compose_final(sys, pencil, squaring, f_f, g_f, p_list)
    except TargetDegreeMismatch as e:
        return rejected(str(e))
    dz = fixed.input_dz_poly
    if options.dz_target is not None and dz != options.dz_target:
        raise MorganError(
            f"closed-loop input decoupling zeros {format_poly(dz)} differ from the "
            f"placed target {format_poly(options.dz_target)} (bug)"
        )

    solution = DecouplingSolution(
        F=f,
        G=g,
        ci_tuple=ci_tuple,
        config=config,
        diag=tuple(diag),
        squaring=squaring,
        pencil=pencil,
        fixed_poles=fixed,
        mu_family=family,
        seed=options.seed,
        constraints=tuple(report.constraints.describe(qbasis.params)),
        degree_deficits=report.degree_deficits,
    )
    return outcome("solved"), solution


def _check_options(options: SolveOptions, m: int):
    """MorganError unless each requested polynomial is monic (so nonzero) and
    there is one diagonal polynomial per output."""
    named = []
    if options.dz_target is not None:
        named.append(("input-decoupling-zero target", options.dz_target))
    if options.diag_polys:
        if len(options.diag_polys) != m:
            raise MorganError(
                f"need one diagonal polynomial per output, got {len(options.diag_polys)} for {m}"
            )
        named += [(f"diagonal polynomial {i + 1}", p) for i, p in enumerate(options.diag_polys)]
    for name, p in named:
        if p.leading() != 1:  # 0 for the zero polynomial
            raise MorganError(f"{name} must be a nonzero monic polynomial, got {format_poly(p)}")


def _check_right_invertible(sys: StateSpace):
    """InvalidSystem unless C (sI - A)^-1 B has full row rank m.

    Exactly when the Rosenbrock matrix [sI - A, B; -C, 0] has normal rank
    n + m.  Its minors have degree at most n, so the largest rank at
    s = 0, 1, ..., n is its normal rank.
    """
    n, m = sys.n, sys.m
    low = [[-x for x in row] + [0] * sys.l for row in sys.C.entries]
    for s in range(n + 1):
        top = [
            [s - x if i == j else -x for j, x in enumerate(a_row)] + list(b_row)
            for i, (a_row, b_row) in enumerate(zip(sys.A.entries, sys.B.entries))
        ]
        if rank(top + low) == n + m:
            return
    raise InvalidSystem("the system is not right-invertible: C (sI - A)^-1 B has normal rank < m")


def solve(sys: StateSpace, options: SolveOptions | None = None):
    """Decide and construct a decoupling pair for the system.

    Returns a DecouplingSolution (the first feasible configuration in
    lexicographic order) or NoSolution when no searched configuration gives
    one.  With return_all, the audit covers the full grid and the returned
    solution is still the first feasible one.  MorganError when the options
    ask for a polynomial that is zero or not monic, or for a number of
    diagonal polynomials other than the number of outputs; InvalidSystem
    when the system is not right-invertible, after NotControllable when
    (A, B) is not controllable.
    """
    options = options or SolveOptions()
    pencil = to_pencil_form(sys)
    _check_options(options, sys.m)
    _check_right_invertible(sys)
    configs = enumerate_row_configs(pencil.sigma, sys.m)
    outcomes = []
    winner = None
    for ti, ci_tuple in enumerate(enumerate_tuples(pencil.sigma, sys.m)):
        qbasis = build_QB(pencil.sigma, ci_tuple)
        for ci, config in enumerate(configs):
            outcome, solution = _evaluate_config(sys, pencil, qbasis, config, ti, ci, options)
            outcomes.append(outcome)
            if solution is not None and winner is None:
                winner = solution
                if not options.return_all:
                    return dataclasses.replace(winner, outcomes=tuple(outcomes))

    if winner is None:
        return NoSolution(
            sigma=pencil.sigma,
            outcomes=tuple(outcomes),
            searched=len(outcomes),
            seed=options.seed,
        )
    return dataclasses.replace(winner, outcomes=tuple(outcomes))
