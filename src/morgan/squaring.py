"""Per-configuration machinery: parametric basis Q_B, decouplability search,
feedback-row systems, and assembly of the preliminary pair (F_0, G_0).

For a candidate closed-loop index tuple the basis matrix Q_B is banded
block-Toeplitz; its entries are single named parameters.  The decouplability
test asks whether the parameters can be chosen so that the row
highest-coefficient matrix of the shifted numerator has full row rank while
Q_B stays monic and the denominator stays column reduced.  The search runs
over per-row degree deficits in ascending total deficit and derives the
induced zero constraints exactly.

A numeric Q_B spans the controllable subspace of the squared-down system
(A_r + B_r G_I F_0, B_r G_I G_0), with that system in controller form on
it.  The square system is decoupled in pencil coordinates, and zero
assignment works in the quotient by that subspace through the basis N of
ker Q_B^T (MuFamily.nullbasis), so no code completes Q_B to a basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .admissible import RowConfig
from .canonical import PencilForm, offsets_from_sigma, positions_from_sigma
from .errors import MorganError, NotSolvable
from .exactalg import RationalMatrix, _scaled
from .paramalg import ConstraintSet, Grid, ParamId, generic_rank, solve_zero_constraints


@dataclass(frozen=True)
class QBasis:
    """Parametric basis matrix for one candidate index tuple."""

    sigma: tuple
    sigma_tilde: tuple
    params: tuple  # all ParamIds, in ParamId order
    cells: tuple  # n x sum(sigma_tilde): 1-based column in params of each entry, 0 for zero
    memo: dict = field(default_factory=dict, compare=False, repr=False)  # C_r -> N_hat forms

    @property
    def width(self):
        return sum(self.sigma_tilde)

    @property
    def col_offsets(self):
        return offsets_from_sigma(self.sigma_tilde)[:-1]


def build_QB(sigma, sigma_tilde) -> QBasis:
    """Banded block-Toeplitz Q_B.

    Block (i, j) is zero when sigma_tilde[j] < sigma[i]; otherwise it carries
    the band parameters q^{i,j}_1 .. q^{i,j}_{sigma_tilde[j]-sigma[i]+1} with
    entry (r, c) = q^{i,j}_{c-r+1}.  This shift structure is exactly what
    makes L(s) * Q_B * S_tilde(s) vanish identically.  The parameters are
    appended by (block row, block column, band shift), which is ParamId order.
    """
    sigma = tuple(sigma)
    sigma_tilde = tuple(sigma_tilde)
    cells = [[0] * sum(sigma_tilde) for _ in range(sum(sigma))]
    params = []
    roff = 0
    for bi, si in enumerate(sigma, start=1):
        coff = 0
        for bj, sj in enumerate(sigma_tilde, start=1):
            if sj >= si:
                band = sj - si + 1
                first = len(params) + 1
                params.extend(ParamId(bi, bj, k) for k in range(1, band + 1))
                for r in range(si):
                    for k in range(band):
                        cells[roff + r][coff + r + k] = first + k
            coff += sj
        roff += si
    cells = tuple(tuple(row) for row in cells)
    _check_shift_identity(sigma, sigma_tilde, cells)
    return QBasis(sigma=sigma, sigma_tilde=sigma_tilde, params=tuple(params), cells=cells)


def _check_shift_identity(sigma, sigma_tilde, cells):
    """Verify L(s) Q_B S_tilde(s) = 0 identically in the parameters.

    Row (i, c) of L is s e_{a} - e_{a+1} with a the c-th state of block i, so
    the product vanishes iff QB[a, off_j + k - 1] = QB[a+1, off_j + k] for all
    feasible k, plus the boundary terms.  Entries are single parameters or
    zero, so equal forms are equal cells.
    """
    col_off = offsets_from_sigma(sigma_tilde)
    roff = 0
    for si in sigma:
        for c in range(si - 1):
            a = roff + c  # global row of the 's' entry; chain partner is a+1
            for j, sj in enumerate(sigma_tilde):
                for d in range(sj + 1):
                    up = cells[a][col_off[j] + d - 1] if d >= 1 else 0
                    low = cells[a + 1][col_off[j] + d] if d < sj else 0
                    if up != low:
                        raise MorganError("Q_B shift identity violated (bug)")
        roff += si


@dataclass(frozen=True)
class DecouplabilityReport:
    """Outcome of the decouplability search for one configuration."""

    success: bool
    constraints: ConstraintSet
    degree_deficits: tuple
    reason: str
    candidates_tried: int = 0
    rank_grids: tuple = ()  # Q_B, N_alpha, [D~]_hc on the constraint set (success only)


def _leading_cells(qbasis: QBasis, positions) -> tuple:
    """Cells of the leading entries of the rows of Q_B at the given 1-based
    positions: per row, the last entry of each column block j."""
    offs = qbasis.col_offsets
    return tuple(
        tuple(qbasis.cells[p - 1][offs[j] + sj - 1] for j, sj in enumerate(qbasis.sigma_tilde))
        for p in positions
    )


def _leading_entries(qbasis: QBasis, config: RowConfig):
    """Columns of the nonzero leading entries of the config rows of Q_B.

    The s^{sigma_tilde_j} coefficient of a feedback row of M(s) Q_B S~(s)
    cannot be matched by any mu, so these entries must vanish for the
    feedback-row systems to be solvable.
    """
    return [c for row in _leading_cells(qbasis, config.positions) for c in row if c]


def _nhat_forms(c_r: RationalMatrix, qbasis: QBasis):
    """Sparse coefficient forms of N_hat(s) = C_r Q_B S~(s) diag(s^{st_max - st_j}).

    Returns (coeffs, units): coeffs[r][d][j] is (key, form) for the s^d
    coefficient of entry (r, j), or None where it is identically zero,
    with form the sparse integer form den_r times that coefficient (den_r
    is the lcm of the denominators of row r of C_r); units[c] is (key,
    {c: 1}) for the single parameter of column c.  Equal coefficients share
    one key, so a set of keys is the set of distinct forms.  Built once per
    (Q_B, C_r) and kept in qbasis.memo; the forms are never changed.
    """
    cached = qbasis.memo.get(c_r)
    if cached is not None:
        return cached
    keys = {}

    def keyed(form, den=1):
        exact = form if den == 1 else {k: Fraction(x, den) for k, x in form.items()}
        return keys.setdefault(frozenset(exact.items()), len(keys)), form

    units = [None] + [keyed({c: 1}) for c in range(1, len(qbasis.params) + 1)]
    chat = []
    for r in range(c_r.rows):
        den, coeff_row = _scaled(c_r.row(r))
        entries = []
        for col in range(qbasis.width):
            acc = {}
            for k, x in enumerate(coeff_row):
                c = qbasis.cells[k][col]
                if x and c:
                    acc[c] = acc.get(c, 0) + x
            form = {c: x for c, x in acc.items() if x}
            entries.append(keyed(form, den) if form else None)
        chat.append(entries)
    st = qbasis.sigma_tilde
    st_max = max(st)
    offs = qbasis.col_offsets
    coeffs = [
        [
            tuple(
                chat[r][offs[j] + d - (st_max - sj)] if d >= st_max - sj else None
                for j, sj in enumerate(st)
            )
            for d in range(st_max)
        ]
        for r in range(c_r.rows)
    ]
    qbasis.memo[c_r] = coeffs, units
    return coeffs, units


def dtilde_hc(pencil: PencilForm, qbasis: QBasis, config: RowConfig) -> tuple:
    """Column highest-coefficient matrix of D~(s) at declared degrees sigma_tilde.

    D~(s) = (sK_b - Lambda_b) Q_B S~(s), rows indexed by the complement
    blocks b.  Column block j of Q_B S~(s) has degree sigma_tilde_j - 1, so
    only the s-part of row p_b reaches s^{sigma_tilde_j}; its coefficient is
    the leading entry of row p_b of Q_B in block j.  Returned as cells of
    Q_B: the column of each entry's parameter, 0 for a zero entry.
    """
    pos = positions_from_sigma(qbasis.sigma)
    return _leading_cells(qbasis, [pos[b - 1] for b in config.complement(pencil.l)])


def _ascending_deficits(bounds):
    """All deficit vectors d with 0 <= d_r <= bounds[r], ascending total, then lex."""
    return sorted(product(*(range(b + 1) for b in bounds)), key=lambda d: (sum(d), d))


def _row_degree(coeffs_r, constraints: ConstraintSet, top: int):
    """Highest degree <= top of N_hat row r on the constraint set, with its forms.

    coeffs_r holds the row's forms scaled by den_r (see _nhat_forms).
    Returns (degree, reduced coefficient forms, None where zero) or (-1, None)
    when the row vanishes identically.  The reduced forms are the exact ones
    times scale * den_r, scale that of the constraint set: one positive
    factor for the whole row, which ranks and zero tests do not see.
    """
    for deg in range(top, -1, -1):
        row = [e and constraints.reduce(e[1]) or None for e in coeffs_r[deg]]
        if any(row):
            return deg, row
    return -1, None


def _grid(rows) -> Grid:
    """The Grid (den 1) of rows of sparse forms, None for a zero entry, such
    as the N_alpha rows of _row_degree (positive multiples of the exact rows)."""
    forms = {0: {}}
    cells = []
    for row in rows:
        ids = []
        for f in row:
            i = 0
            if f is not None:
                i = len(forms)
                forms[i] = f
            ids.append(i)
        cells.append(ids)
    return Grid(forms, cells)


def _eliminate(states: dict, coeffs, bounds, deficits, top: int) -> ConstraintSet:
    """Constraint set of the zero forms of a deficit vector or prefix.

    Deficit d_r zeroes the forms of row r above degree bounds[r] - d_r.
    states maps prefixes, full vectors among them, to their sets, and keeps
    every set built.  The set of (..., d) extends the stored (..., d') with
    the largest d' < d by the forms of degrees bounds[r] - d + 1 ..
    bounds[r] - d', else the set of the prefix (...) by every form above
    bounds[r] - d, so from {(): start} alone the forms go in the audit order:
    seeds, then row by row in ascending degree.  Rows and scale do not
    depend on the chain (see ConstraintSet); the pivot order does.
    """
    cs = states.get(deficits)
    if cs is None:
        head, d, r = deficits[:-1], deficits[-1], len(deficits) - 1
        d0 = next((e for e in range(d - 1, -1, -1) if head + (e,) in states), None)
        if d0 is None:
            cs, high = _eliminate(states, coeffs, bounds, head, top), top
        else:
            cs, high = states[head + (d0,)], bounds[r] - d0
        cs = states[deficits] = cs.extended(
            e[1] for deg in range(bounds[r] - d + 1, high + 1) for e in coeffs[r][deg]
            if e is not None)
    return cs


def decouplability_search(
    pencil: PencilForm, qbasis: QBasis, config: RowConfig, rng
) -> DecouplabilityReport:
    """Search degree-deficit vectors for a parameter selection that decouples.

    A candidate deficit vector (d_1, ..., d_m) zeroes every coefficient form
    of N_hat row r above its target degree; success means the resulting row
    highest-coefficient matrix has generic rank m while Q_B keeps full column
    rank and [D~]_hc keeps rank m.  The per-config leading-coefficient
    constraints (solvability of the feedback-row systems) are seeded first.
    Candidates with the same set of distinct forms are tried once.  The
    forms are sparse over qbasis.params, and each candidate's constraint
    set extends a stored one (_eliminate), usually by one degree of one
    row.  Same-set rule: when the rows of a candidate with targets
    t = bounds - deficits have degrees a <= t on its set, every t' with
    a <= t' <= t has the same rows, scale and grids (its extra forms reduce
    to zero), so such a later candidate reuses them and only redoes the
    rank tests, with the same draws.  Only the pivot order of a chained or
    reused set may differ from the audit order (seeds, then row by row in
    ascending degree), so a successful candidate eliminates its forms once
    more in that order and checks the rows and scale against the set it
    tested.  A successful report keeps that audit set and the three
    rank-tested matrices.  N_hat is read from pencil.C_r.
    """
    m = pencil.C_r.rows
    w = qbasis.width
    top = max(qbasis.sigma_tilde) - 1
    coeffs, units = _nhat_forms(pencil.C_r, qbasis)
    seeds = [units[c] for c in _leading_entries(qbasis, config)]
    dhc = dtilde_hc(pencil, qbasis, config)

    def fail(reason, tried=0):
        return DecouplabilityReport(
            success=False,
            constraints=ConstraintSet(),
            degree_deficits=(),
            reason=reason,
            candidates_tried=tried,
        )

    start = solve_zero_constraints(f for _, f in seeds)
    bounds = []
    for r in range(m):
        d, _ = _row_degree(coeffs[r], start, top)
        if d < 0:
            return fail(
                "output row %d of N_hat is identically zero under the "
                "leading-coefficient constraints" % (r + 1)
            )
        bounds.append(d)

    # keysets[r][d]: keys of the forms of row r above target bounds[r] - d
    keysets = [
        [frozenset(e[0] for deg in range(b - d + 1, top + 1) for e in coeffs[r][deg]
                   if e is not None)
         for d in range(b + 1)]
        for r, b in enumerate(bounds)
    ]
    seed_keys = frozenset(k for k, _ in seeds)
    states = {(): start}
    shared = {}  # targets -> [constraint set, N_alpha, Q_B, [D~]_hc grids]
    tried = 0
    seen = set()
    pruned = []
    na_failures = 0
    qb_failures = 0
    dhc_failures = 0
    for deficits in _ascending_deficits(bounds):
        if any(all(dv >= pv for dv, pv in zip(deficits, pr)) for pr in pruned):
            continue
        key = seed_keys.union(*(keysets[r][d] for r, d in enumerate(deficits)))
        if key in seen:
            continue
        seen.add(key)
        tried += 1
        targets = tuple(b - d for b, d in zip(bounds, deficits))
        grids = shared.get(targets)
        if grids is None:
            cs = _eliminate(states, coeffs, bounds, deficits, top)
            rows, degrees = [], []
            for r in range(m):
                d, row = _row_degree(coeffs[r], cs, targets[r])
                if d < 0:
                    break
                rows.append(row)
                degrees.append(d)
            if len(rows) < m:
                pruned.append(deficits)
                continue
            grids = [cs, _grid(rows), None, None]
            for same in product(*(range(a, t + 1) for a, t in zip(degrees, targets))):
                shared[same] = grids
        cs, na_grid, qb_grid, dhc_grid = grids
        if generic_rank(na_grid, rng) != m:
            na_failures += 1
            continue
        if qb_grid is None:
            qb_grid = grids[2] = cs.apply(qbasis.cells, range(1, len(qbasis.params) + 1))
        if generic_rank(qb_grid, rng) != w:
            qb_failures += 1
            continue
        if dhc_grid is None:
            dhc_grid = grids[3] = cs.apply(dhc)
        if generic_rank(dhc_grid, rng) != m:
            dhc_failures += 1
            continue
        audit = _eliminate({(): start}, coeffs, bounds, deficits, top)
        if (audit.rows, audit.scale) != (cs.rows, cs.scale):
            raise MorganError("the chained constraint set differs from the audit set (bug)")
        return DecouplabilityReport(
            success=True,
            constraints=audit,
            degree_deficits=deficits,
            reason="",
            candidates_tried=tried,
            rank_grids=(qb_grid, na_grid, dhc_grid),
        )
    return fail(
        "no degree-deficit assignment gives N_alpha full generic row rank "
        "with Q_B monic and [D~]_hc of rank m "
        "(%d candidates: %d failed N_alpha, %d failed Q_B rank, %d failed [D~]_hc)"
        % (tried, na_failures, qb_failures, dhc_failures),
        tried,
    )


@dataclass(frozen=True)
class MuFamily:
    """Affine solution families of the feedback-row systems for one config.

    The feedback rows are mu(T) = mu_0 + T N: row i of M(s) is
    particulars[i] + sum_k T[i][k] * nullbasis[k], where N, the nullspace
    basis of Q_B^T, is shared by all rows.  T has one row per feedback row
    and one column per vector of N; its entries are the free parameters.
    """

    particulars: tuple  # one n-vector per config row
    nullbasis: tuple  # basis of ker(Q_B^T)

    def rows_at(self, t):
        """Numeric mu rows at T, given as rows of Fraction; None means T = 0."""
        if t is None:
            return [tuple(part) for part in self.particulars]
        return [
            tuple(x + sum(tv * basis[c] for tv, basis in zip(t_row, self.nullbasis))
                  for c, x in enumerate(part))
            for part, t_row in zip(self.particulars, t)
        ]


def solve_feedback_rows(qbasis: QBasis, config: RowConfig, qb_num: RationalMatrix) -> MuFamily:
    """Exact affine solution families of the feedback-row systems W_mu mu_i = Q_mu^i.

    W_mu = Q_B^T at the numeric instantiation qb_num.  Coefficient matching
    of s * (row p_i of Q_B) * S~(s) gives the right-hand sides: entry
    off_j + k is -Q_B[p_i, off_j + k - 1] for 0 < k < sigma_tilde_j and 0
    for k = 0; k = sigma_tilde_j would need the leading entry, which the
    decouplability search zeroes.  One elimination of [W_mu | rhs_1 ...
    rhs_k] gives the particular solutions and the null basis.  NotSolvable
    when a system is inconsistent.
    """
    offs = qbasis.col_offsets
    rhss = []
    for p in config.positions:
        rhs = [Fraction(0)] * qbasis.width
        for j, sj in enumerate(qbasis.sigma_tilde):
            for k in range(1, sj):
                rhs[offs[j] + k] = -qb_num[p - 1, offs[j] + k - 1]
        rhss.append(rhs)
    particulars, nullbasis = qb_num.transpose().solve(rhss)
    if None in particulars:
        raise NotSolvable("feedback-row system inconsistent")
    return MuFamily(particulars=tuple(particulars), nullbasis=tuple(nullbasis))


@dataclass(frozen=True)
class SquaringData:
    """Numeric output of one successful configuration."""

    sigma_tilde: tuple
    F0: RationalMatrix  # l x n, rows at config blocks
    G0: RationalMatrix  # l x m
    M_rows: tuple  # numeric mu rows
    assignment: dict  # q-parameter values used
    t: tuple | None  # the free-parameter matrix T; None when it was never assigned


def assemble_squaring(
    pencil: PencilForm,
    qbasis: QBasis,
    config: RowConfig,
    qb_num: RationalMatrix,
    mu_family: MuFamily,
    assignment: dict,
    t,
) -> SquaringData:
    """Build (F_0, G_0) from a numeric Q_B and the mu rows at T.

    t is None for T = 0.  F_0 rows at the config positions are
    (sK^a - Lambda^a) - M(s), whose s-parts cancel; all other rows are
    zero.  G_0 drops the config columns from the identity.
    """
    n, l = pencil.n, pencil.l
    st = qbasis.sigma_tilde
    offs = qbasis.col_offsets
    mu_rows = mu_family.rows_at(t)

    # exact check: M(s) Q_B S~(s) = 0
    for p, mu in zip(config.positions, mu_rows):
        for j, sj in enumerate(st):
            if qb_num[p - 1, offs[j] + sj - 1] != 0:
                raise MorganError("leading Q_B entry not zeroed (bug)")
            for k in range(sj):
                acc = sum(mu[r] * qb_num[r, offs[j] + k] for r in range(n))
                if k >= 1:
                    acc += qb_num[p - 1, offs[j] + k - 1]
                if acc != 0:
                    raise MorganError("M(s) Q_B S~(s) != 0 (bug)")

    f0_rows = [[Fraction(0)] * n for _ in range(l)]
    for (block, p), mu in zip(zip(config.blocks, config.positions), mu_rows):
        lam = pencil.A_r.row(p - 1)
        f0_rows[block - 1] = [-lv - mv for lv, mv in zip(lam, mu)]
    f0 = RationalMatrix(f0_rows)

    ident = RationalMatrix.identity(l)
    keep = [j for j in range(1, l + 1) if j not in config.blocks]
    g0 = RationalMatrix.from_columns([ident.col(j - 1) for j in keep])

    return SquaringData(
        sigma_tilde=st,
        F0=f0,
        G0=g0,
        M_rows=tuple(mu_rows),
        assignment=dict(assignment),
        t=t,
    )
