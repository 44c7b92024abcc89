"""Reference implementations of the parameter algebra, kept for the tests.

These are the dict-of-Fraction LinearForm versions that the solver used
before its search moved to integer forms: named affine forms (LinearForm),
the triangular substitution system they solve to (SubstitutionSet) and its
solver, LinearForm polynomials and matrices (ParamMatrix, evaluated by
instantiate_param), Q_B and [D~]_hc built as LinearForm matrices, the full
D~(s) and a structural dependency test.  The tests compare the solver's
sparse forms against them (sparse_form converts a LinearForm), and the
rendering of a LinearForm is the reference for ConstraintSet.describe.  The
highest-coefficient matrices, the leading Q_B forms of a row configuration
and the mu rows as LinearForms in the entries of T (TParam) are here too,
since only the tests use them.  Last come the dense kernels: the Fraction
Gauss-Jordan elimination that the search ran before its rows became
primitive integer vectors, the dense integer reduction, ConstraintSet and
row degree that it ran before its forms became sparse, and the generic rank
without the structural bound, which draws with random.randint;
CountingRandom counts those draws and state_after_draws gives the stream
state after a number of them.  bound_first_rank puts a brute-force
structural bound in front of such an evaluate-first rank, which is the
contract of generic_rank.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations
from fractions import Fraction
from math import lcm

from fraction_reference import PolyMatrix
from morgan.admissible import RowConfig
from morgan.canonical import PencilForm, positions_from_sigma
from morgan.errors import MorganError
from morgan.exactalg import Poly, RationalMatrix, rank, rat
from morgan.paramalg import SAMPLE_BOUND, ParamId, _primitive
from morgan.squaring import (
    DecouplabilityReport,
    MuFamily,
    QBasis,
    _ascending_deficits,
    _leading_entries,
)


@dataclass(frozen=True, order=True)
class TParam:
    """The free feedback-row parameter t^{i}_k: entry (i, k) of T."""

    i: int
    k: int

    def __str__(self):
        return f"t^{{{self.i}}}_{self.k}"


class LinearForm:
    """constant + sum(coeff * param); immutable, hashable."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms=()):
        object.__setattr__(self, "const", rat(const))
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        clean = {p: rat(c) for p, c in items if c != 0}
        object.__setattr__(
            self, "terms", tuple(sorted(clean.items(), key=lambda t: t[0]))
        )

    def __setattr__(self, *a):
        raise AttributeError("LinearForm is immutable")

    @staticmethod
    def zero() -> "LinearForm":
        return LinearForm(0)

    @staticmethod
    def of_param(p) -> "LinearForm":
        return LinearForm(0, {p: Fraction(1)})

    @staticmethod
    def of_const(c) -> "LinearForm":
        return LinearForm(c)

    def term_map(self) -> dict:
        return dict(self.terms)

    def params(self):
        return tuple(p for p, _ in self.terms)

    def is_zero(self) -> bool:
        return self.const == 0 and not self.terms

    def is_constant(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and self.const == other.const
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.const, self.terms))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return LinearForm(self.const + other, self.terms)
        t = self.term_map()
        for p, c in other.terms:
            t[p] = t.get(p, Fraction(0)) + c
        return LinearForm(self.const + other.const, t)

    __radd__ = __add__

    def __neg__(self):
        return LinearForm(-self.const, [(p, -c) for p, c in self.terms])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return LinearForm(self.const - other, self.terms)
        return self + (-other)

    def __mul__(self, scalar):
        scalar = rat(scalar)
        return LinearForm(self.const * scalar, [(p, c * scalar) for p, c in self.terms])

    __rmul__ = __mul__

    def subs(self, mapping: dict) -> "LinearForm":
        """Substitute parameters by LinearForms (absent ones unchanged)."""
        out_const = self.const
        out_terms = {}
        for p, c in self.terms:
            rep = mapping.get(p)
            if rep is None:
                out_terms[p] = out_terms.get(p, Fraction(0)) + c
            else:
                out_const += c * rep.const
                for p2, c2 in rep.terms:
                    out_terms[p2] = out_terms.get(p2, Fraction(0)) + c * c2
        return LinearForm(out_const, out_terms)

    def eval(self, assignment: dict) -> Fraction:
        """Value at an assignment; KeyError names a parameter it does not cover."""
        acc = self.const
        for p, c in self.terms:
            acc += c * rat(assignment[p])
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.const != 0:
            parts.append(str(self.const))
        for p, c in self.terms:
            if c == 1:
                parts.append(f"+{p}" if parts else str(p))
            elif c == -1:
                parts.append(f"-{p}")
            else:
                sign = "+" if c > 0 and parts else ""
                parts.append(f"{sign}{c}*{p}")
        return "".join(parts)

    __repr__ = __str__


class SubstitutionSet:
    """Triangular substitutions ParamId -> LinearForm with idempotent closure.

    Substituted parameters never appear on any right-hand side, so applying
    the set twice equals applying it once.
    """

    __slots__ = ("subs_map", "order")

    def __init__(self, subs_map: dict, order: tuple):
        object.__setattr__(self, "subs_map", dict(subs_map))
        object.__setattr__(self, "order", tuple(order))

    def __setattr__(self, *a):
        raise AttributeError("SubstitutionSet is immutable")

    @staticmethod
    def empty() -> "SubstitutionSet":
        return SubstitutionSet({}, ())

    def __len__(self):
        return len(self.order)

    def __eq__(self, other):
        return isinstance(other, SubstitutionSet) and self.subs_map == other.subs_map

    def apply_form(self, f: LinearForm) -> LinearForm:
        return f.subs(self.subs_map)

    def apply(self, m):
        """Apply to a matrix of forms (anything with a subs method)."""
        return m.subs(self.subs_map)

    def items(self):
        return [(p, self.subs_map[p]) for p in self.order]

    def describe(self):
        return [f"{p} = {self.subs_map[p]}" for p in self.order]

    def __repr__(self):
        return f"SubstitutionSet({self.describe()})"


def _exact(x):
    """x as an int when it is integral (ints and Fractions alike)."""
    return x.numerator if x.denominator == 1 else x


def sparse_form(f: LinearForm, index: dict) -> dict:
    """f as a sparse form {column: coefficient} of its nonzero coefficients;
    index maps ParamId -> column, and a nonzero constant sits at column 0."""
    form = {index[p]: _exact(c) for p, c in f.terms if c}
    if f.const:
        form[0] = _exact(f.const)
    return form


def to_dense(form: dict, size: int) -> list:
    """A sparse form as the dense list [const, c_1, ..., c_size] that the
    dense references below take."""
    row = [0] * (size + 1)
    for k, x in form.items():
        row[k] = x
    return row


def to_sparse(row) -> dict:
    """A dense list as the sparse form of its nonzero entries."""
    return {k: x for k, x in enumerate(row) if x}


class ParamMatrix:
    """Immutable dense matrix of LinearForm entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(
            tuple(
                e if isinstance(e, LinearForm) else LinearForm.of_const(e)
                for e in row
            )
            for row in entries
        )
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise MorganError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("ParamMatrix is immutable")

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, ParamMatrix) and self.entries == other.entries

    def row(self, i):
        return self.entries[i]

    def params(self):
        seen = set()
        for r in self.entries:
            for e in r:
                seen.update(e.params())
        return tuple(sorted(seen))

    def subs(self, mapping) -> "ParamMatrix":
        return ParamMatrix([[e.subs(mapping) for e in r] for r in self.entries])

    def pattern(self):
        """Columns of the nonzero forms, per row."""
        return [[j for j, e in enumerate(r) if not e.is_zero()] for r in self.entries]

    def values(self, assignment) -> list:
        """Entry values at a ParamId-keyed assignment, as rows."""
        return [[e.eval(assignment) for e in r] for r in self.entries]

    def __repr__(self):
        return f"ParamMatrix({[[str(e) for e in r] for r in self.entries]})"


def linear_form(form, params) -> LinearForm:
    """The LinearForm of a sparse form over params."""
    return LinearForm(form.get(0, 0), [(params[k - 1], c) for k, c in form.items() if k and c])


def param_matrix(cells, params) -> ParamMatrix:
    """The ParamMatrix of a cell matrix: entry c > 0 is params[c - 1], 0 is zero."""
    return ParamMatrix(
        [
            [LinearForm.of_param(params[c - 1]) if c else LinearForm.zero() for c in row]
            for row in cells
        ]
    )


def instantiate_param(m: ParamMatrix, assignment: dict) -> RationalMatrix:
    """Evaluate a ParamMatrix at a ParamId-keyed assignment."""
    return RationalMatrix(m.values(assignment))


def at_columns(params, assignment) -> dict:
    """A ParamId-keyed assignment as a point keyed by column of params."""
    return {params.index(p) + 1: v for p, v in assignment.items()}


def qb_matrix(qbasis: QBasis) -> ParamMatrix:
    """The solver's Q_B (its cells) as a ParamMatrix."""
    return param_matrix(qbasis.cells, qbasis.params)


def n_alpha_matrix(report: DecouplabilityReport, params, c_r) -> ParamMatrix | None:
    """N_alpha of a successful report (rank_grids[1]) as a ParamMatrix, else None.

    The solver's search keeps a Grid of sparse integer forms over params there,
    row r the exact row times scale * den_r: scale that of the report's
    constraint set and den_r the lcm of the denominators of row r of C_r
    (see squaring._row_degree).  The dict search below keeps the
    ParamMatrix itself.
    """
    if not report.rank_grids:
        return None
    grid = report.rank_grids[1]
    if isinstance(grid, ParamMatrix):
        return grid
    rows = []
    for cells, c_row in zip(grid.cells, c_r.entries):
        factor = report.constraints.scale * lcm(*[x.denominator for x in c_row])
        rows.append([
            LinearForm(0, [(params[k - 1], Fraction(x, factor))
                           for k, x in grid.forms[i].items()])
            for i in cells
        ])
    return ParamMatrix(rows)


def reference_build_QB(sigma, sigma_tilde):
    """Q_B as a ParamMatrix of LinearForms and its parameters, the reference
    for squaring.build_QB.

    Block (i, j) is zero when sigma_tilde[j] < sigma[i]; otherwise it carries
    the band parameters q^{i,j}_1 .. q^{i,j}_{sigma_tilde[j]-sigma[i]+1} with
    entry (r, c) = q^{i,j}_{c-r+1}.
    """
    sigma = tuple(sigma)
    sigma_tilde = tuple(sigma_tilde)
    n = sum(sigma)
    w = sum(sigma_tilde)
    grid = [[LinearForm.zero() for _ in range(w)] for _ in range(n)]
    params = []
    roff = 0
    for bi, si in enumerate(sigma, start=1):
        coff = 0
        for bj, sj in enumerate(sigma_tilde, start=1):
            if sj >= si:
                band = sj - si + 1
                ids = [ParamId(bi, bj, k) for k in range(1, band + 1)]
                params.extend(ids)
                for r in range(si):
                    for k, pid in enumerate(ids):
                        c = r + k
                        grid[roff + r][coff + c] = LinearForm.of_param(pid)
            coff += sj
        roff += si
    qb = ParamMatrix(grid)
    reference_check_shift_identity(sigma, sigma_tilde, qb)
    if params != sorted(params):
        raise MorganError("Q_B parameters are not in ParamId order (bug)")
    return qb, tuple(params)


def reference_qb(qbasis: QBasis) -> ParamMatrix:
    """Q_B of a QBasis rebuilt by the reference."""
    return reference_build_QB(qbasis.sigma, qbasis.sigma_tilde)[0]


def reference_cells(m: ParamMatrix, index) -> tuple:
    """Dense columns of a matrix whose entries are single parameters or zero;
    index maps ParamId -> 1-based column."""
    out = []
    for row in m.entries:
        cells = []
        for e in row:
            if e.is_zero():
                cells.append(0)
            elif e.const == 0 and len(e.terms) == 1 and e.terms[0][1] == 1:
                cells.append(index[e.terms[0][0]])
            else:
                raise MorganError(f"entry {e} is not a single parameter (bug)")
        out.append(tuple(cells))
    return tuple(out)


def reference_check_shift_identity(sigma, sigma_tilde, qb: ParamMatrix):
    """Verify L(s) Q_B S_tilde(s) = 0 identically in the parameters.

    Row (i, c) of L is s e_{a} - e_{a+1} with a the c-th state of block i, so
    the product vanishes iff QB[a, off_j + k - 1] = QB[a+1, off_j + k] for all
    feasible k, plus the boundary terms.
    """
    col_off = []
    acc = 0
    for s in sigma_tilde:
        col_off.append(acc)
        acc += s
    roff = 0
    for si in sigma:
        for c in range(si - 1):
            a = roff + c  # global row of the 's' entry; chain partner is a+1
            for j, sj in enumerate(sigma_tilde):
                for d in range(sj + 1):
                    up = qb[a, col_off[j] + d - 1] if d >= 1 else LinearForm.zero()
                    low = qb[a + 1, col_off[j] + d] if d < sj else LinearForm.zero()
                    if not (up - low).is_zero():
                        raise MorganError("Q_B shift identity violated (bug)")
        roff += si


def reference_dtilde_hc(pencil: PencilForm, qbasis: QBasis, config: RowConfig) -> ParamMatrix:
    """[D~]_hc as the leading entries of the complement rows of the reference Q_B."""
    qb = reference_qb(qbasis)
    offs = qbasis.col_offsets
    pos = positions_from_sigma(qbasis.sigma)
    return ParamMatrix(
        [
            [qb[pos[b - 1] - 1, offs[j] + sj - 1] for j, sj in enumerate(qbasis.sigma_tilde)]
            for b in config.complement(pencil.l)
        ]
    )


class DegreeExceeded(MorganError):
    """A polynomial entry has higher degree than the declared row/column degree."""


def _leading_forms(qbasis: QBasis, config: RowConfig):
    """The leading entries of the config rows of Q_B as LinearForms."""
    return [
        LinearForm.of_param(qbasis.params[c - 1]) for c in _leading_entries(qbasis, config)
    ]


def mu_row_forms(family: MuFamily):
    """Mu rows as LinearForm vectors affine in the t parameters."""
    out = []
    for i, part in enumerate(family.particulars):
        row = []
        for c in range(len(part)):
            f = LinearForm.of_const(part[c])
            for k, basis in enumerate(family.nullbasis):
                if basis[c]:
                    f = f + LinearForm(0, {TParam(i + 1, k + 1): basis[c]})
            row.append(f)
        out.append(tuple(row))
    return out




def rat_times_param(a: RationalMatrix, b: ParamMatrix) -> ParamMatrix:
    """Product of a rational matrix and a ParamMatrix."""
    if a.cols != b.rows:
        raise MorganError("dimension mismatch")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = LinearForm.zero()
            for k in range(a.cols):
                c = a[i, k]
                if c != 0:
                    acc = acc + b[k, j] * c
            row.append(acc)
        out.append(row)
    return ParamMatrix(out)


class FormPoly:
    """Polynomial in s whose coefficients are LinearForms."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [
            c if isinstance(c, LinearForm) else LinearForm.of_const(c)
            for c in coeffs
        ]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("FormPoly is immutable")

    def coeff(self, k) -> LinearForm:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else LinearForm.zero()

    @property
    def structural_degree(self):
        """Highest s-power with a not-identically-zero coefficient form; -1 if none."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def shift(self, k: int) -> "FormPoly":
        if self.is_zero() or k == 0:
            return self
        return FormPoly([LinearForm.zero()] * k + list(self.coeffs))

    def subs(self, mapping) -> "FormPoly":
        return FormPoly([c.subs(mapping) for c in self.coeffs])

    def eval_poly(self, assignment) -> Poly:
        return Poly([c.eval(assignment) for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, FormPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"FormPoly({[str(c) for c in self.coeffs]})"


class ParamPolyMatrix:
    """Immutable dense matrix of FormPoly entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise MorganError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("ParamPolyMatrix is immutable")

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def subs(self, mapping) -> "ParamPolyMatrix":
        return ParamPolyMatrix(
            [[e.subs(mapping) for e in r] for r in self.entries]
        )

    def row_degree(self, i):
        """Max structural degree over row i (-1 when the row is identically zero)."""
        return max(e.structural_degree for e in self.entries[i])

    def row_coeffs(self, i, d):
        return [e.coeff(d) for e in self.entries[i]]


def instantiate_poly(m: "ParamPolyMatrix", assignment: dict) -> PolyMatrix:
    """Evaluate a ParamPolyMatrix at an assignment."""
    return PolyMatrix([[e.eval_poly(assignment) for e in r] for r in m.entries])


def dict_solve_zero_constraints(forms) -> SubstitutionSet:
    """Dict-based substitution solver, the reference for the ConstraintSet.

    Triangular substitution set making every listed form identically zero.

    Pivots are chosen as the smallest ParamId (lexicographic on (i, j, k))
    present in each reduced form, so the result is
    deterministic.  Raises MorganError for a nonzero constant form.
    """
    subs_map = {}
    order = []
    for f in forms:
        g = f.subs(subs_map)
        if g.is_zero():
            continue
        if g.is_constant():
            raise MorganError(f"constraint {f} reduces to {g.const} = 0")
        pivot, pc = g.terms[0]
        rest = LinearForm(g.const, g.terms[1:])
        rep = rest * (Fraction(-1) / pc)
        # keep closure: eliminate the new pivot from existing substitutions
        one_step = {pivot: rep}
        for p in order:
            subs_map[p] = subs_map[p].subs(one_step)
        subs_map[pivot] = rep
        order.append(pivot)
    return SubstitutionSet(subs_map, order)


def structural_dependency(rows):
    """Smallest r with row r a rational combination of rows 0..r-1 identically.

    Each row is a sequence of LinearForms.  Returns (r, coeffs) where
    coeffs[k] multiplies row k, or None when all rows are independent.
    The witness is verified exactly by LinearForm arithmetic.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return None
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MorganError("rows have different lengths")
    # basis of the coefficient space: constant slot + one slot per parameter
    params = sorted({p for r in rows for f in r for p in f.params()})
    pidx = {p: k for k, p in enumerate(params)}
    ncols = width * (1 + len(params))

    def flatten(row):
        v = [Fraction(0)] * ncols
        for j, f in enumerate(row):
            base = j * (1 + len(params))
            v[base] = f.const
            for p, c in f.terms:
                v[base + 1 + pidx[p]] = c
        return v

    seen: list[list[Fraction]] = []  # stacked flattened rows, for solving
    for r, row in enumerate(rows):
        v = flatten(row)
        if seen:
            mat = RationalMatrix(seen).transpose()
            sol = mat.solve([v])[0][0]
            if sol is not None:
                # exact verification of the witness
                combo = [LinearForm.zero()] * width
                for k, ck in enumerate(sol):
                    if ck != 0:
                        combo = [a + rows[k][j] * ck for j, a in enumerate(combo)]
                if all((row[j] - combo[j]).is_zero() for j in range(width)):
                    return r, tuple(sol)
                raise MorganError("dependency witness failed verification (bug)")
        if all(x == 0 for x in v):
            return r, tuple(Fraction(0) for _ in range(r))
        seen.append(v)
    return None


def dtilde_formpoly(pencil: PencilForm, qbasis: QBasis, config: RowConfig) -> ParamPolyMatrix:
    """D~(s) = (sK_b - Lambda_b) Q_B S~(s), rows indexed by the complement blocks."""
    offs = qbasis.col_offsets
    st = qbasis.sigma_tilde
    pos = positions_from_sigma(qbasis.sigma)
    qb = reference_qb(qbasis)
    rows = []
    for b in config.complement(pencil.l):
        p = pos[b - 1]
        u = qb.row(p - 1)
        lam = pencil.A_r.row(p - 1)
        v = []
        for c in range(qbasis.width):
            acc = LinearForm.zero()
            for r, lr in enumerate(lam):
                if lr != 0:
                    acc = acc + qb[r, c] * lr
            v.append(acc)
        row = []
        for j, sj in enumerate(st):
            coeffs = []
            for d in range(sj + 1):
                up = u[offs[j] + d - 1] if d >= 1 else LinearForm.zero()
                low = v[offs[j] + d] if d < sj else LinearForm.zero()
                coeffs.append(up - low)
            row.append(FormPoly(coeffs))
        rows.append(row)
    return ParamPolyMatrix(rows)


def nhat_formpoly(c_r: RationalMatrix, qbasis: QBasis) -> ParamPolyMatrix:
    """N_hat(s) = C_r Q_B S~(s) diag(s^{st_max - st_j}) as a ParamPolyMatrix."""
    chat = rat_times_param(c_r, reference_qb(qbasis))
    st = qbasis.sigma_tilde
    st_max = max(st)
    offs = qbasis.col_offsets
    rows = []
    for r in range(chat.rows):
        row = []
        for j, sj in enumerate(st):
            coeffs = [chat[r, offs[j] + k] for k in range(sj)]
            row.append(FormPoly(coeffs).shift(st_max - sj))
        rows.append(row)
    return ParamPolyMatrix(rows)


def dict_decouplability_search(
    c_r: RationalMatrix,
    pencil: PencilForm,
    qbasis: QBasis,
    config: RowConfig,
    rng,
) -> DecouplabilityReport:
    """The LinearForm decouplability search, the reference for the solver's.

    Search degree-deficit vectors for a parameter selection that decouples.

    A candidate deficit vector (d_1, ..., d_m) zeroes every coefficient form
    of N_hat row r above its target degree; success means the resulting row
    highest-coefficient matrix has generic rank m while Q_B keeps full column
    rank and [D~]_hc keeps rank m.  The per-config leading-coefficient
    constraints (solvability of the feedback-row systems) are seeded first.
    A successful report keeps the rank-tested ParamMatrices (Q_B, N_alpha
    and [D~]_hc on the constraint set) in rank_grids.
    """
    m = c_r.rows
    w = qbasis.width
    seeds = _leading_forms(qbasis, config)
    nhat = nhat_formpoly(c_r, qbasis)
    dhc = dtilde_hc_formpoly(pencil, qbasis, config)

    def fail(reason, tried=0, deficits=()):
        return DecouplabilityReport(
            success=False,
            constraints=SubstitutionSet.empty(),
            degree_deficits=tuple(deficits),
            reason=reason,
            candidates_tried=tried,
        )

    cs0 = dict_solve_zero_constraints(seeds)
    nhat0 = cs0.apply(nhat)
    bounds = []
    for r in range(m):
        d = nhat0.row_degree(r)
        if d < 0:
            return fail(
                "output row %d of N_hat is identically zero under the "
                "leading-coefficient constraints" % (r + 1)
            )
        bounds.append(d)

    tried = 0
    seen = set()
    pruned = []
    na_failures = 0
    qb_failures = 0
    dhc_failures = 0
    for deficits in _ascending_deficits(bounds):
        if any(all(dv >= pv for dv, pv in zip(deficits, pr)) for pr in pruned):
            continue
        forms = list(seeds)
        for r, d in enumerate(deficits):
            target = bounds[r] - d
            for deg in range(target + 1, max(qbasis.sigma_tilde)):
                for j in range(m):
                    f = nhat[r, j].coeff(deg)
                    if not f.is_zero():
                        forms.append(f)
        key = frozenset(forms)
        if key in seen:
            continue
        seen.add(key)
        tried += 1
        cs = dict_solve_zero_constraints(forms)
        nh = cs.apply(nhat)
        degs = [nh.row_degree(r) for r in range(m)]
        if any(d < 0 for d in degs):
            pruned.append(deficits)
            continue
        n_alpha = ParamMatrix([nh.row_coeffs(r, degs[r]) for r in range(m)])
        if dict_generic_rank(n_alpha, rng) != m:
            na_failures += 1
            continue
        qb = cs.apply(reference_qb(qbasis))
        if dict_generic_rank(qb, rng) != w:
            qb_failures += 1
            continue
        dhc_m = cs.apply(dhc)
        if dict_generic_rank(dhc_m, rng) != m:
            dhc_failures += 1
            continue
        return DecouplabilityReport(
            success=True,
            constraints=cs,
            degree_deficits=deficits,
            reason="",
            candidates_tried=tried,
            rank_grids=(qb, n_alpha, dhc_m),
        )
    return fail(
        "no degree-deficit assignment gives N_alpha full generic row rank "
        "with Q_B monic and [D~]_hc of rank m "
        "(%d candidates: %d failed N_alpha, %d failed Q_B rank, %d failed [D~]_hc)"
        % (tried, na_failures, qb_failures, dhc_failures),
        tried,
    )


def dtilde_hc_formpoly(pencil, qbasis, config) -> ParamMatrix:
    """Column highest-coefficient matrix of the full D~(s) at degrees sigma_tilde."""
    dt = dtilde_formpoly(pencil, qbasis, config)
    st = qbasis.sigma_tilde
    return ParamMatrix(
        [[dt[i, j].coeff(st[j]) for j in range(dt.cols)] for i in range(dt.rows)]
    )


def dict_generic_rank(m: ParamMatrix, rng, repetitions: int = 3) -> int:
    """generic_rank on LinearForm entries with a ParamId-keyed assignment."""
    if m.rows == 0 or m.cols == 0:
        return 0
    params = m.params()
    best = 0
    for _ in range(repetitions):
        assignment = {p: Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)) for p in params}
        num = RationalMatrix([[e.eval(assignment) for e in r] for r in m.entries])
        best = max(best, num.rank())
        if best == min(m.rows, m.cols):
            break
    return best


def high_row_coeff(m: PolyMatrix, row_degrees) -> RationalMatrix:
    """Row highest-order coefficient matrix at the declared row degrees.

    Entry (i, j) is the coefficient of s^row_degrees[i] in m[i, j]; raises
    DegreeExceeded if any entry's degree is above its declared row degree.
    """
    if len(row_degrees) != m.rows:
        raise MorganError("row_degrees length mismatch")
    out = []
    for i, d in enumerate(row_degrees):
        for j in range(m.cols):
            if m[i, j].degree > d:
                raise DegreeExceeded(
                    f"entry ({i},{j}) has degree {m[i, j].degree} > declared {d}"
                )
        out.append([m[i, j].coeff(d) for j in range(m.cols)])
    return RationalMatrix(out)


def high_col_coeff(m: PolyMatrix, col_degrees) -> RationalMatrix:
    """Column analogue of high_row_coeff."""
    if len(col_degrees) != m.cols:
        raise MorganError("col_degrees length mismatch")
    for j, d in enumerate(col_degrees):
        for i in range(m.rows):
            if m[i, j].degree > d:
                raise DegreeExceeded(
                    f"entry ({i},{j}) has degree {m[i, j].degree} > declared {d}"
                )
    return RationalMatrix(
        [
            [m[i, j].coeff(col_degrees[j]) for j in range(m.cols)]
            for i in range(m.rows)
        ]
    )


class FractionElimination:
    """The dense ConstraintSet with Fraction rows scaled to 1 at the pivot.

    rows maps each pivot column to its dense row, 1 at the pivot and 0 at
    every other pivot column; order lists the pivots as they were added.
    """

    __slots__ = ("rows", "order")

    def __init__(self, rows=None, order=()):
        self.rows = {} if rows is None else rows
        self.order = order

    def reduce(self, form):
        out = form
        for c, row in self.rows.items():
            a = out[c]
            if a:
                out = [x - a * y if y else x for x, y in zip(out, row)]
        return out

    def extended(self, forms) -> "FractionElimination":
        state = self
        for form in forms:
            g = state.reduce(form)
            pivot = next((k for k in range(1, len(g)) if g[k]), 0)
            if not pivot:
                if g[0]:
                    raise MorganError(f"reduces to {g[0]} = 0")
                continue
            rows = dict(state.rows)
            inv = 1 / Fraction(g[pivot])
            g = [_exact(x * inv) if x else 0 for x in g]
            for c, row in rows.items():
                a = row[pivot]
                if a:
                    rows[c] = [_exact(x - a * y) if y else x for x, y in zip(row, g)]
            rows[pivot] = g
            state = FractionElimination(rows, state.order + (pivot,))
        return state

    def value(self, col, point):
        row = self.rows.get(col)
        if row is None:
            return point[col]
        acc = row[0]
        for k in range(1, len(row)):
            x = row[k]
            if x and k != col:
                acc += x * point[k]
        return -acc

    def constraint_set(self, params) -> SubstitutionSet:
        subs = {}
        for c in self.order:
            row = self.rows[c]
            subs[params[c - 1]] = linear_form(
                {k: -x for k, x in enumerate(row) if k != c}, params
            )
        return SubstitutionSet(subs, [params[c - 1] for c in self.order])


def dense_reduce(rows, scale, form):
    """The dense paramalg._reduce: scale * form reduced by the rows, as a
    list [const, c_1, ..., c_P]; rows are the sparse primitive rows of a
    DenseConstraintSet."""
    out = list(form) if scale == 1 else [scale * x for x in form]
    for c in filter(form.__getitem__, rows):
        row = rows[c]
        a = form[c] * (scale // row[c])
        for k, y in row.items():
            out[k] -= a * y
    return out


class DenseConstraintSet:
    """The dense ConstraintSet, the reference for the sparse one: the same
    primitive integer rows, order and scale, built from dense forms that
    are scanned whole for their pivot."""

    __slots__ = ("rows", "order", "scale")

    def __init__(self, rows=None, order=(), scale=1):
        self.rows = {} if rows is None else rows
        self.order = order
        self.scale = scale

    def reduce(self, form):
        return dense_reduce(self.rows, self.scale, form)

    def extended(self, forms) -> "DenseConstraintSet":
        rows, order, scale = self.rows, self.order, self.scale
        for form in forms:
            g = dense_reduce(rows, scale, form)
            pivot = next(filter(g.__getitem__, range(1, len(g))), 0)
            if not pivot:
                if g[0]:
                    raise MorganError("a constraint reduces to a nonzero constant (bug)")
                continue
            if rows is self.rows:
                rows = dict(rows)
            g = _primitive({k: x for k, x in enumerate(g) if x}, pivot)
            p = g[pivot]
            touched = False
            for c, row in rows.items():
                a = row.get(pivot)
                if a:
                    new = {k: p * x for k, x in row.items()} if p != 1 else dict(row)
                    for k, y in g.items():
                        new[k] = new.get(k, 0) - a * y
                    rows[c] = _primitive({k: x for k, x in new.items() if x}, c)
                    touched = True
            rows[pivot] = g
            order += (pivot,)
            scale = lcm(*[row[c] for c, row in rows.items()]) if touched else lcm(scale, p)
        return self if rows is self.rows else DenseConstraintSet(rows, order, scale)


def dense_row_degree(coeffs_r, constraints: DenseConstraintSet, top: int):
    """The dense squaring._row_degree: (degree, reduced dense forms, None
    where zero) of the highest nonzero degree <= top, or (-1, None)."""
    for deg in range(top, -1, -1):
        row = []
        for e in coeffs_r[deg]:
            f = e and constraints.reduce(e[1])
            row.append(f if f and any(f) else None)
        if any(row):
            return deg, row
    return -1, None


class CountingRandom(random.Random):
    """random.Random that counts randint calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


def state_after_draws(seed, count, bound=SAMPLE_BOUND):
    """State of random.Random(seed) after count calls of randint(-bound, bound)."""
    rng = random.Random(seed)
    for _ in range(count):
        rng.randint(-bound, bound)
    return rng.getstate()


def reference_generic_rank(m, rng, repetitions: int = 3) -> int:
    """generic_rank evaluating every trial, with no structural bound."""
    if m.rows == 0 or m.cols == 0:
        return 0
    params = m.params()
    best = 0
    for _ in range(repetitions):
        point = {p: rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for p in params}
        best = max(best, rank(m.values(point)))
        if best == min(m.rows, m.cols):
            break
    return best


def brute_structural_rank(pattern, cols) -> int:
    """Largest k with k nonzero entries in distinct rows and columns, by
    trying every k x k placement."""
    rows = len(pattern)
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in permutations(range(cols), k):
                if all(c in pattern[r] for r, c in zip(rs, cs)):
                    return k
    return 0


def bound_first_rank(m, rng, evaluate=reference_generic_rank) -> int:
    """The structural rank of m.pattern() when it is below min(rows, cols),
    returned after drawing the points of every trial; otherwise evaluate(m, rng)."""
    if m.rows == 0 or m.cols == 0:
        return 0
    bound = brute_structural_rank(m.pattern(), m.cols)
    if bound < min(m.rows, m.cols):
        for _ in range(3 * len(m.params())):
            rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)
        return bound
    return evaluate(m, rng)


class CountingValues:
    """A matrix that forwards to m and counts its evaluations; it keeps its
    own structure slot for generic_rank."""

    def __init__(self, m):
        self.m, self.rows, self.cols, self.evaluations = m, m.rows, m.cols, 0
        self.structure = None

    def params(self):
        return self.m.params()

    def pattern(self):
        return self.m.pattern()

    def values(self, point):
        self.evaluations += 1
        return self.m.values(point)


def check_bound_first(generic_rank, new, ref, seed, evaluate=reference_generic_rank):
    """generic_rank(new) against the reference matrix ref at one seed.

    The rank of bound_first_rank(ref) after the same draws.  A bound below
    full is returned with no evaluation of new after exactly 3 draws per
    parameter; a full bound evaluates new as often as the evaluate-first
    reference evaluates ref.  Either way the full/not-full verdict and the
    stream are the evaluate-first reference's.
    """
    a, b, c = random.Random(seed), CountingRandom(seed), CountingRandom(seed)
    got = generic_rank(new, a)
    assert got == bound_first_rank(ref, b, evaluate)
    assert a.getstate() == b.getstate() == state_after_draws(seed, b.draws)
    full = min(ref.rows, ref.cols)
    assert (got == full) == (evaluate(ref, c) == full)
    assert c.getstate() == a.getstate()
    counted = CountingValues(new)
    assert generic_rank(counted, random.Random(seed)) == got
    params = len(ref.params())
    if not full:
        assert counted.evaluations == 0
    elif brute_structural_rank(ref.pattern(), ref.cols) < full:
        assert counted.evaluations == 0 and b.draws == 3 * params
    else:
        trials = c.draws // params if params else (1 if got == full else 3)
        assert counted.evaluations == trials
    return got
