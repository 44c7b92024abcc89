"""Linear forms in the free parameters of Q_B and exact operations on them.

The entries of the parametric basis matrix Q_B are single parameters or zero,
so every form the search builds (the coefficients of N_hat, the leading Q_B
entries it zeroes, the entries of Q_B and [D~]_hc) is linear in the
parameters, with no constant term.  The search runs on plain linear algebra
over a fixed parameter index: sparse forms, a ConstraintSet built by
incremental Gauss-Jordan elimination on primitive integer rows, and Grid, the
one matrix type: forms read through a cell matrix, evaluated at points of
the free parameters instead of being substituted symbolically.
Reductions and grids hold positive integer multiples of the exact forms,
which ranks do not see; a Grid of ConstraintSet.apply carries its factor as
den, which instantiate divides out.  generic_rank takes the structural
bound first: a bound below full is an exact rejection, with its points still
drawn (randints, the stream of random.randint); otherwise it evaluates at
random points, and a short evaluated rank stays a Monte-Carlo verdict that
the search's rejection reasons do not tell apart from an exact one.
ConstraintSet.describe renders the constraint text of the audit from the
same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import MorganError
from .exactalg import RationalMatrix, _from_rows, _scaled, rank


@dataclass(frozen=True, order=True)
class ParamId:
    """The Q_B entry q^{i,j}_k: block row i, block column j, band shift k."""

    i: int
    j: int
    k: int

    def __str__(self):
        return f"q^{{{self.i},{self.j}}}_{self.k}"


# ---------------------------------------------------------------------------
# sparse forms over a fixed parameter index
#
# Over a sorted tuple of parameters, a form is the dict {column: coefficient}
# of its nonzero coefficients, column k that of params[k - 1]; no form the
# search builds has a constant, so column 0 never occurs.  Column order is
# ParamId order, so "lowest column" and "smallest ParamId" pick the same
# pivot.  Coefficients are ints.


def _reduce(rows, scale, form):
    """scale * form - sum_c form[c] * (scale / pivot entry) * row c over the
    pivot columns c: form reduced by the rows, times scale, the lcm of the
    pivot entries, as a new form with no zero entry."""
    out = dict(form) if scale == 1 else {k: scale * x for k, x in form.items()}
    for c, x in form.items():
        row = rows.get(c)
        if row is not None:
            a = x * (scale // row[c])
            for k, y in row.items():
                v = out.pop(k, 0) - a * y
                if v:
                    out[k] = v
    return out


def _primitive(row, pivot):
    """The integer dict row of nonzero entries as a primitive row, positive at pivot."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    return row if g == 1 else {k: x // g for k, x in row.items()}


class ConstraintSet:
    """Sparse forms equated to zero, kept in incremental Gauss-Jordan form.

    rows maps each pivot column to its row: the reduced row echelon row
    scaled to a primitive integer vector, positive at its pivot and 0 at
    every other pivot column, kept as a dict of its nonzero entries by
    parameter column.  order lists the pivots as they were added, and scale
    is the lcm of the rows' pivot entries, so a reduction runs in integers
    with no division.  Each added form is reduced by the rows and pivots on
    its lowest nonzero parameter column, so every row's pivot is its lowest
    column: rows and scale are the canonical reduced row echelon form of the
    row space, the same for the same forms in any order and any split into
    extended calls.  Only order, which describe follows, depends on the
    insertion order.  Sets are never changed in place:
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
            if not g:
                continue
            pivot = min(g)
            if not pivot:
                raise MorganError("a constraint reduces to a nonzero constant (bug)")
            if rows is self.rows:
                rows = dict(rows)
            g = _primitive(g, pivot)
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

    def apply(self, cells, used=None) -> "Grid":
        """The matrix of parameters cells on this constraint set, as a Grid.

        cells[i][j] is the column of the parameter in entry (i, j), 0 for a
        zero entry; used lists the columns the cells hold, if known.  Each
        column is its own form index: free c is scale * q_c and pivot c is
        scale times its solved value, -(rest of its row) / pivot entry.
        """
        rows, scale = self.rows, self.scale
        forms = {0: {}}
        for c in used if used is not None else {c for r in cells for c in r if c}:
            row = rows.get(c)
            if row is None:
                forms[c] = {c: scale}
            else:
                a = scale // row[c]
                forms[c] = {k: -a * x for k, x in row.items() if k != c}
        return Grid(forms, cells, scale)

    def describe(self, params) -> list:
        """The lines `pivot = rest` in pivot order; params names the columns."""
        lines = []
        for c in self.order:
            row = self.rows[c]
            p = row[c]
            parts = []
            for k in sorted(row.keys() - {c}):
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
    """The constraint set that makes every listed sparse form vanish.

    The forms have no constant, so q = 0 solves them; a matrix of parameters
    on the set is the Grid of its apply, which solves each pivot for the
    free columns.
    """
    return ConstraintSet().extended(forms)


class Grid:
    """Matrix of sparse integer forms: den times the matrix it stands for.

    forms maps an index to a form {column: coefficient} over the parameter
    columns, with forms[0] = {} for a zero entry, and cells[i][j] is the
    index of the form of entry (i, j).  Ranks do not see the positive
    factor den, and instantiate divides it out.
    """

    __slots__ = ("forms", "cells", "den", "rows", "cols", "structure")

    def __init__(self, forms, cells, den=1):
        self.forms = forms
        self.cells = cells
        self.den = den
        self.rows = len(cells)
        self.cols = len(cells[0]) if cells else 0
        self.structure = None  # (params, structural rank), kept by generic_rank

    def params(self):
        """Parameter columns with a nonzero coefficient in some form, ascending."""
        return sorted({k for f in self.forms.values() for k in f})

    def pattern(self):
        """Columns of the entries that are not identically zero, per row."""
        forms = self.forms
        return [[j for j, i in enumerate(r) if forms[i]] for r in self.cells]

    def values(self, point) -> list:
        """The values at a point keyed by column, den times the matrix it
        stands for, as rows; each form is evaluated once."""
        vals = {}
        for i, f in self.forms.items():
            acc = 0
            for k, x in f.items():
                acc += x * point[k]
            vals[i] = acc
        return [[vals[i] for i in r] for r in self.cells]


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


def generic_rank(m: Grid, rng) -> int:
    """Rank of the Grid m for generic parameter values (randomized, Schwartz-Zippel).

    Structural bound first: the structural rank of m.pattern() bounds the
    rank at every point, so a bound below full, min(rows, cols), is an exact
    rejection, returned unevaluated with its points still drawn.  Otherwise
    the parameters m depends on (m.params(), in ParamId order) are evaluated
    at up to RANK_TRIALS random integer points, stopping at full rank, and
    the best exact rank of m.values is returned: den and the positive row
    factors of ConstraintSet.reduce leave ranks alone.  Either way randints
    consumes rng exactly as randint(-SAMPLE_BOUND, SAMPLE_BOUND) per
    parameter and trial would.  Minors are polynomials of degree <=
    min(rows, cols), so a short evaluated rank misses full rank with
    probability at most min(rows, cols) / (2 * SAMPLE_BOUND + 1) per trial;
    rejection reasons do not tell it from an exact one.  m keeps its params
    and bound in its structure slot for the next test.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.structure is None:
        m.structure = m.params(), structural_rank(m.pattern())
    params, bound = m.structure
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


def instantiate(m: Grid, point: dict) -> RationalMatrix:
    """The matrix a Grid stands for at a point keyed by column: its values
    divided by den, exact for a Grid of ConstraintSet.apply."""
    return _from_rows((e * m.den, v) for e, v in map(_scaled, m.values(point)))
