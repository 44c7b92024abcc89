"""Affine expressions in the free parameters of Q_B and exact operations on them.

The entries of the parametric basis matrix Q_B are single parameters or zero,
so every expression that shows up downstream (output matrices, coefficient
matrices, right-hand sides) is affine in the parameters.  The search runs on
plain linear algebra over a fixed parameter index: dense forms, a
ConstraintSet built by incremental Gauss-Jordan elimination on primitive
integer rows, and matrices (FormGrid, ParamGrid) that are evaluated at
points of the constraint set instead of being substituted symbolically.
Reductions return integer multiples of the reduced forms, which ranks do
not see.  generic_rank takes the structural bound first: a bound below
full is an exact rejection, with its points still drawn (randints, the
stream of random.randint); otherwise it evaluates at random points, and a
short evaluated rank stays a Monte-Carlo verdict that the search's
rejection reasons do not tell apart from an exact one.
ConstraintSet.describe renders the constraint text of the audit from the
same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import Inconsistent
from .exactalg import RationalMatrix, rank


@dataclass(frozen=True, order=True)
class ParamId:
    """The Q_B entry q^{i,j}_k: block row i, block column j, band shift k."""

    i: int
    j: int
    k: int

    def __str__(self):
        return f"q^{{{self.i},{self.j}}}_{self.k}"


# ---------------------------------------------------------------------------
# dense forms over a fixed parameter index
#
# Over a sorted tuple of parameters, a dense form is the list
# [const, c_1, ..., c_P]: column 0 holds the constant and column k the
# coefficient of params[k - 1].  Column order is ParamId order, so "lowest
# column" and "smallest ParamId" pick the same pivot.  Coefficients are ints
# where they are integral and Fractions otherwise.


def _exact(x):
    """x as an int when it is integral (ints and Fractions alike)."""
    return x.numerator if x.denominator == 1 else x


def _quotient(x, d):
    """x / d exactly, as an int when it is integral."""
    if type(x) is int and not x % d:
        return x // d
    return _exact(Fraction(x) / d)


def _reduce(rows, scale, form):
    """scale * form - sum_c form[c] * (scale / pivot entry) * row c over the
    pivot columns c: form reduced by the rows, times scale, the lcm of the
    pivot entries."""
    out = list(form) if scale == 1 else [scale * x for x in form]
    for c in filter(form.__getitem__, rows):
        row = rows[c]
        a = form[c] * (scale // row[c])
        for k, y in row.items():
            out[k] -= a * y
    return out


def _primitive(row, pivot):
    """The dict row of nonzero entries as a primitive integer row, positive at pivot."""
    dens = [x.denominator for x in row.values() if type(x) is not int]
    if dens:
        den = lcm(*dens)
        row = {k: int(x * den) for k, x in row.items()}
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    return row if g == 1 else {k: x // g for k, x in row.items()}


class ConstraintSet:
    """Dense forms equated to zero, kept in incremental Gauss-Jordan form.

    rows maps each pivot column to its row: the reduced row echelon row
    scaled to a primitive integer vector, positive at its pivot and 0 at
    every other pivot column, kept as a dict of its nonzero entries by
    column (0 for the constant).  order lists the pivots as they were
    added, and scale is the lcm of the rows' pivot entries, so a reduction
    runs in integers with no division.  Each added form is reduced by the
    rows and pivots on its lowest nonzero parameter column.  Given the row
    space and the pivots, the reduced row echelon form is unique and so
    are its primitive multiples: a set reached by extending a shared prefix
    equals the one built from scratch.  Sets are never changed in place:
    `extended` returns a new set that shares the rows it did not touch.
    On the solution set each pivot equals -(rest of its row) / pivot entry.
    """

    __slots__ = ("rows", "order", "scale")

    def __init__(self, rows=None, order=(), scale=1):
        self.rows = {} if rows is None else rows
        self.order = order
        self.scale = scale

    def reduce(self, form):
        """scale times the reduced form, with no division: scale * form minus
        the combination of rows that clears every pivot column."""
        return _reduce(self.rows, self.scale, form)

    def extended(self, forms) -> "ConstraintSet":
        rows, order, scale = self.rows, self.order, self.scale
        for form in forms:
            g = _reduce(rows, scale, form)
            pivot = next(filter(g.__getitem__, range(1, len(g))), 0)
            if not pivot:
                if g[0]:
                    raise Inconsistent(f"reduces to {_quotient(g[0], scale)} = 0")
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
        return self if rows is self.rows else ConstraintSet(rows, order, scale)

    def free(self, size):
        """Parameter columns that are not pivots, ascending."""
        return [k for k in range(1, size + 1) if k not in self.rows]

    def value(self, col, point):
        """Value of parameter column col on the solution set, free columns at point."""
        row = self.rows.get(col)
        if row is None:
            return point[col]
        acc = 0
        for k, x in row.items():
            if not k:
                acc += x
            elif k != col:
                acc += x * point[k]
        p = row[col]
        return -acc if p == 1 else _quotient(-acc, p)

    def apply(self, cells, used=None) -> "ParamGrid":
        """The cell matrix cells read on this constraint set (see ParamGrid)."""
        return ParamGrid(cells, self, used)

    def describe(self, params) -> list:
        """The lines `pivot = rest` in pivot order; params names the columns."""
        lines = []
        for c in self.order:
            row = self.rows[c]
            p = row[c]
            parts = [str(Fraction(-row[0], p))] if 0 in row else []
            for k in sorted(row):
                if k and k != c:
                    x = Fraction(-row[k], p)
                    name = params[k - 1]
                    if x == 1:
                        parts.append(f"+{name}" if parts else str(name))
                    elif x == -1:
                        parts.append(f"-{name}")
                    else:
                        parts.append(f"{'+' if x > 0 and parts else ''}{x}*{name}")
            lines.append(f"{params[c - 1]} = {''.join(parts) or 0}")
        return lines


def solve_zero_constraints(forms) -> ConstraintSet:
    """The constraint set that makes every listed dense form vanish.

    Raises Inconsistent when a form reduces to a nonzero constant.
    """
    return ConstraintSet().extended(forms)


class FormGrid:
    """Matrix of dense forms, None for identically zero entries."""

    __slots__ = ("entries", "rows", "cols", "structure")

    def __init__(self, entries):
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        self.structure = None  # (params, structural rank), kept by generic_rank

    def params(self):
        """Parameter columns with a nonzero coefficient somewhere, ascending."""
        used = set()
        for row in self.entries:
            for f in row:
                if f is not None:
                    used.update(k for k in range(1, len(f)) if f[k])
        return sorted(used)

    def pattern(self):
        """Columns of the entries that are not identically zero, per row."""
        return [[j for j, f in enumerate(row) if f is not None] for row in self.entries]

    def values(self, point) -> list:
        """Entry values at a point keyed by dense column, as rows."""
        out = []
        for row in self.entries:
            vals = []
            for f in row:
                acc = 0
                if f is not None:
                    acc = f[0]
                    for k in range(1, len(f)):
                        if f[k]:
                            acc += f[k] * point[k]
                vals.append(acc)
            out.append(vals)
        return out


class ParamGrid:
    """Matrix whose entries are single parameters, read on a constraint set.

    cells[i][j] is the dense column of the parameter in entry (i, j), or 0
    for a zero entry.  The matrix stands for its entries with every pivot of
    the constraint set solved for; `values` evaluates it at a point of the
    free columns by extending the point through the rows.  used lists the
    columns that the cells hold, when the caller knows them.
    """

    __slots__ = ("cells", "used", "constraints", "rows", "cols", "structure")

    def __init__(self, cells, constraints: ConstraintSet, used=None):
        self.cells = cells
        self.used = used if used is not None else sorted({c for r in cells for c in r if c})
        self.constraints = constraints
        self.rows = len(cells)
        self.cols = len(cells[0]) if cells else 0
        self.structure = None  # (params, structural rank), kept by generic_rank

    def params(self):
        """Free columns on which the substituted entries depend, ascending."""
        rows = self.constraints.rows
        out = set()
        for c in self.used:
            row = rows.get(c)
            if row is None:
                out.add(c)
            else:
                out.update(k for k in row if k and k != c)
        return sorted(out)

    def pattern(self):
        """Columns of the entries that are not identically zero, per row.

        An entry is identically zero when its parameter is a pivot whose row
        has no other nonzero entry, constant included.
        """
        rows = self.constraints.rows
        zero = {c for c in self.used if len(rows.get(c, ())) == 1}
        zero.add(0)
        return [[j for j, c in enumerate(r) if c not in zero] for r in self.cells]

    def values(self, point) -> list:
        """Entry values at a point of the free columns, as rows."""
        vals = {0: 0}
        for c in self.used:
            vals[c] = self.constraints.value(c, point)
        return [[vals[c] for c in r] for r in self.cells]


SAMPLE_BOUND = 10**6  # random evaluations drawn from [-SAMPLE_BOUND, SAMPLE_BOUND]
RANK_TRIALS = 3  # random evaluations per generic_rank, the best one counts


def randints(rng, bound, count) -> list:
    """count values of rng.randint(-bound, bound), consuming the same stream:
    CPython's randint(a, b) draws getrandbits(k), k the bit length of the
    range size b - a + 1, until a draw falls below that size, and adds a."""
    size = 2 * bound + 1
    k = size.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= size:
            r = bits(k)
        out.append(r - bound)
    return out


def _augment(pattern, match, i, seen):
    """Whether an augmenting path from row i extends match (column -> row)."""
    for j in pattern[i]:
        if j not in seen:
            seen.add(j)
            if j not in match or _augment(pattern, match, match[j], seen):
                match[j] = i
                return True
    return False


def structural_rank(pattern) -> int:
    """Largest number of nonzero entries with no two in one row or column.

    pattern lists, per row, the columns of the entries that are not
    identically zero.  A maximum bipartite matching of rows to columns
    (Kuhn's augmenting paths); every minor of a larger size contains a zero
    term in each product of its expansion, so the rank at any point is at
    most this.
    """
    match = {}
    return sum(_augment(pattern, match, i, set()) for i in range(len(pattern)))


def generic_rank(m, rng) -> int:
    """Rank of m for generic parameter values (randomized, Schwartz-Zippel).

    m is a FormGrid, a ParamGrid or any matrix with rows, cols, params(),
    values(point) and pattern().  Structural bound first: the structural
    rank of m.pattern() bounds the rank at every point, so a bound below
    full, min(rows, cols), is an exact rejection, returned unevaluated with
    its points still drawn.  Otherwise the parameters m depends on
    (m.params(), in ParamId order) are evaluated at up to RANK_TRIALS
    random integer points, stopping at full rank, and the best exact rank
    is returned.  Either way randints consumes rng exactly as
    randint(-SAMPLE_BOUND, SAMPLE_BOUND) per parameter and trial would.
    Rows that are positive multiples of the exact rows
    (ConstraintSet.reduce) have the same rank.  Minors are polynomials of
    degree <= min(rows, cols), so a short evaluated rank misses full rank
    with probability at most min(rows, cols) / (2 * SAMPLE_BOUND + 1) per
    trial; rejection reasons do not tell it from an exact one.  A grid
    keeps its params and bound in its structure slot for the next test.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    structure = getattr(m, "structure", None)
    if structure is None:
        structure = m.params(), structural_rank(m.pattern())
        if hasattr(m, "structure"):
            m.structure = structure
    params, bound = structure
    full = min(m.rows, m.cols)
    if bound < full:
        randints(rng, SAMPLE_BOUND, RANK_TRIALS * len(params))
        return bound
    best = 0
    for _ in range(RANK_TRIALS):
        point = dict(zip(params, randints(rng, SAMPLE_BOUND, len(params))))
        best = max(best, rank(m.values(point)))
        if best == full:
            break
    return best


def instantiate(m, point: dict) -> RationalMatrix:
    """A FormGrid or ParamGrid evaluated at a point keyed by dense column."""
    return RationalMatrix(m.values(point))
