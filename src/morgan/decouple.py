"""Search driver, square-system assembly, square decoupling, final composition.

The driver walks the (index tuple, row configuration) grid in lexicographic
order in one loop.  Each configuration is evaluated purely from its own
derived sub-seed, so its outcome does not depend on which configurations
ran before it; the winner is the first configuration whose entire pipeline
(search, instantiation, feedback solve, square decoupling, exact closed-loop
verification) goes through.  The square system and the closed loop that
compose_final checks stay in the pencil coordinates of to_pencil_form: the
static decoupling law does not depend on the basis, so no basis completing
Q_B is formed.  --dz-target places the input decoupling zeros in the
quotient by the span of Q_B (see zeros).

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
from itertools import islice
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
    _from_rows,
    _krylov,
    controller_charpoly,
    format_poly,
    krylov_select,
    poly_gcd,
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
    a_cols, b_cols = list(zip(*a.ints)), list(zip(*b.ints))
    ds, rows = [], []
    for i, c_row in enumerate(c.ints):
        for k, (e, v) in zip(range(a.rows), _krylov(c.den, c_row, a_cols, a.den)):
            hit = [sum(x * y for x, y in zip(v, col)) for col in b_cols]
            if any(hit):
                break
        else:
            raise SingularBstar(f"output {i + 1} is disconnected from the inputs")
        ds.append(k)
        rows.append((e * b.den, hit))
    return tuple(ds), _from_rows(rows)


def _at_block_ends(pencil: PencilForm, x: RationalMatrix, base=None):
    """base (zero when None) + E X, E = B_r G_I: X's rows placed at the block ends."""
    rows = [[0] * x.cols for _ in range(pencil.n)]
    for p, x_row in zip(pencil.positions, x.ints):
        rows[p - 1] = x_row
    ex = RationalMatrix._int(rows, x.den)
    return ex if base is None else base + ex


def make_square_system(pencil: PencilForm, squaring: SquaringData) -> SquareSystem:
    """A_f = A_r + B_r G_I F_0, B_f = B_r G_I G_0 and C_f = C_r, in pencil coordinates.

    The controllability indices of (A_f, B_f), its sorted Krylov chain
    lengths, must be sigma_tilde; no change of basis alters them.
    """
    a_f = _at_block_ends(pencil, squaring.F0, pencil.A_r)
    b_f = _at_block_ends(pencil, squaring.G0)
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
    p_i is (s+1)^(d_i+1).  The row C_i p_i(A_f) is the coefficient row of
    p_i times the integer Krylov rows C_i A_f^k, k <= d_i + 1.
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
    a, c = square.A_f, square.C_f
    a_cols, rows = list(zip(*a.ints)), []
    for c_row, p in zip(c.ints, target_polys):
        krylov = _from_rows(islice(_krylov(c.den, c_row, a_cols, a.den), len(p.coeffs)))
        row = RationalMatrix([p.coeffs]) * krylov
        rows.append((row.den, row.ints[0]))
    f_f = -(g_f * _from_rows(rows))
    return f_f, g_f, list(target_polys)


def compose_final(
    sys: StateSpace,
    pencil: PencilForm,
    squaring: SquaringData,
    f_f: RationalMatrix,
    g_f: RationalMatrix,
    p_list,
):
    """F = G_I F_p P^-1 and G = G_I G_0 G_f, verified in pencil coordinates.

    With F_p = F_0 + G_0 F_f and E = B_r G_I (unit rows at the block ends),
    the closed loop (A_p, B_p, C_r) = (A_r + E F_p, E G_0 G_f, C_r) keeps
    the unit chain rows, so chi(A_p) = det D(s) (controller_charpoly).  It
    has the force of (A + BF, BG, C): to_pencil_form proved A_r P^-1 = P^-1
    A, C_r P^-1 = C and P^-1 nonsingular, and (P^-1 B) F = E F_p P^-1 and
    (P^-1 B) G = B_p are checked here in O(n^2 l).  So P^-1 (A + BF) = A_p
    P^-1, C (sI - A - BF)^-1 BG = C_r (sI - A_p)^-1 B_p, and chi and dz are
    similarity invariants.  VerificationFailed (a bug, never a search miss)
    when a check fails or the closed loop is not diag(1/p_i); its rank m
    then bounds rank G, so G needs no rank check.  Returns (F, G, diagonal,
    fixed-pole report read off the closed loop).
    """
    f_p, g_p = squaring.F0 + squaring.G0 * f_f, squaring.G0 * g_f
    x = f_p * pencil.P_inv
    f, g = pencil.G_I * x, pencil.G_I * g_p
    a_p, b_p = _at_block_ends(pencil, f_p, pencil.A_r), _at_block_ends(pencil, g_p)
    if pencil.P_inv_B * f != _at_block_ends(pencil, x) or pencil.P_inv_B * g != b_p:
        raise VerificationFailed("P^-1 B (F, G) != (E F_p P^-1, B_p) (bug)")
    ends = [p - 1 for p in pencil.positions]
    chi = controller_charpoly(pencil.sigma, a_p.submatrix(ends, range(pencil.n)))
    expected = [(Poly.one(), p.monic()) for p in p_list]
    diag, failures = check_closed_loop(a_p, b_p, pencil.C_r, chi, expected)
    if failures:
        raise failures[0]
    dz = zeros_mod.uncontrollable_polynomial(a_p, b_p, chi)
    return f, g, diag, zeros_mod.fixed_pole_report(dz, chi, p_list)


def _lowest_terms(p: Poly, chi: Poly):
    """p / chi in lowest terms, chi monic: (numerator, monic denominator)."""
    g = poly_gcd(p, chi)
    return p.divmod(g)[0], chi.divmod(g)[0]


def check_closed_loop(acl, bg, c, chi, expected_diagonal):
    """Check that the closed loop (acl, bg, c) is the expected diagonal.

    verify passes A + BF and chi from zeros.closed_loop, with BG and C;
    compose_final, the similar closed loop in pencil coordinates.  Computes
    the numerators p of c (sI - acl)^-1 bg over chi exactly, once.  Returns
    (diagonal (num, den) pairs, failures): a VerificationFailed naming its
    entry for every nonzero off-diagonal entry, then for each diagonal entry
    that is zero or differs from expected_diagonal[i] = (num, den), which
    holds exactly when p != 0, den is monic, gcd(num, den) = 1 (free for a
    constant num) and p den = chi num.  p / chi is reduced only to word a
    failure.  VerificationFailed is raised when expected_diagonal does not
    hold one entry per output.
    """
    m = c.rows
    if len(expected_diagonal) != m:
        raise VerificationFailed(f"{len(expected_diagonal)} diagonal entries recorded "
                                 f"for {m} outputs")
    h = transfer_function(acl, bg, c, chi)
    failures = [
        VerificationFailed(f"off-diagonal entry ({i + 1},{j + 1}) = "
                           f"({format_poly(num)})/({format_poly(den)}) != 0", entry=(i + 1, j + 1))
        for i in range(m) for j in range(m)
        if i != j and not h[i][j].is_zero()
        for num, den in [_lowest_terms(h[i][j], chi)]
    ]
    diag = []
    for i, (rec_num, rec_den) in enumerate(expected_diagonal):
        p = h[i][i]
        if (not p.is_zero() and rec_den.leading() == 1 and p * rec_den == chi * rec_num
                and (rec_num.degree == 0 or poly_gcd(rec_num, rec_den) == Poly.one())):
            diag.append((rec_num, rec_den))
            continue
        num, den = _lowest_terms(p, chi)
        diag.append((num, den))
        message = (f"diagonal entry {i + 1} is zero" if p.is_zero() else
                   f"diagonal entry {i + 1} is ({format_poly(num)})/({format_poly(den)}), "
                   f"file records ({format_poly(rec_num)})/({format_poly(rec_den)})")
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
