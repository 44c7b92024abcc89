"""Exact rational arithmetic: polynomials and matrices over Q.

Everything here is immutable and pure.  Scalars are `fractions.Fraction`
(always normalized: positive denominator, gcd(num, den) = 1), so every
comparison in the package is exact with zero tolerance.  The matrix kernels
(products, elimination, Faddeev-LeVerrier, det D(s), Markov parameters)
scale rows or matrices to integers by the lcm of their denominators, compute
with Python ints and build one normalized Fraction per output entry.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import MorganError

NEG_INF = float("-inf")  # degree of the zero polynomial


def _scaled(xs):
    """(d, ints): d is the lcm of the denominators of xs and ints is d * xs."""
    d = 1
    for x in xs:
        if x.denominator != 1:
            d = lcm(d, x.denominator)
    if d == 1:
        return 1, [x.numerator for x in xs]
    return d, [x.numerator * (d // x.denominator) for x in xs]


def _scaled_matrix(rows):
    """(d, int rows): one common denominator d of all entries and d * rows."""
    d = lcm(*[x.denominator for row in rows for x in row])
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def _reduce(rows, width):
    """(integer rows, pivot columns) of Gauss-Jordan elimination pivoting in the
    first width columns: rows scaled to integers, the first nonzero row of each
    column as pivot, each updated row divided by its content.  The rows past
    the pivot rows are zero in the first width columns.
    """
    m = [_scaled(r)[1] for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return m, pivots


def _int_product(rows, cols):
    """Integer matrix product, the right factor given by its columns."""
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


def rat(x) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Univariate polynomial in s with Fraction coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @property
    def degree(self):
        """Degree; NEG_INF for the zero polynomial (never a stored index)."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly"):
        """(q, r) with self = q * other + r and deg r < deg other.

        Long division on one coefficient list, top degree first.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        d = len(b) - 1
        lead = b[-1]
        r = list(self.coeffs)
        q = [Fraction(0)] * max(len(r) - d, 0)
        for k in range(len(q) - 1, -1, -1):
            c = r[k + d] / lead
            if c:
                q[k] = c
                for i in range(d):
                    r[k + i] -= c * b[i]
        return Poly(q), Poly(r[:d])

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * (1 / self.leading())

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    if a.is_zero() and b.is_zero():
        raise MorganError("gcd of two zero polynomials is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


_TERM_RE = re.compile(
    r"""^(?P<sign>[+-])?(?P<coef>\d+(?:/\d+)?)?\*?(?P<var>s(?:\^(?P<pow>\d+))?)?$"""
)


def parse_poly(text: str) -> Poly:
    """Parse strings like 's^4+2s-3', '-s + 5/2', '7'."""
    s = text.replace(" ", "")
    if not s:
        raise MorganError("empty polynomial string")
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise MorganError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, Fraction] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise MorganError(f"cannot parse term {term!r} of {text!r}")
        try:
            c = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError:
            raise MorganError(f"zero denominator in term {term!r} of {text!r}") from None
        if m.group("sign") == "-":
            c = -c
        if m.group("var") is None:
            p = 0
        else:
            p = int(m.group("pow") or 1)
        coeffs[p] = coeffs.get(p, Fraction(0)) + c
    out = [Fraction(0)] * (max(coeffs) + 1)
    for p, c in coeffs.items():
        out[p] = c
    return Poly(out)


def format_poly(p: Poly) -> str:
    """Human form, descending powers: 's^4+2s-3'."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "s" if k == 1 else f"s^{k}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(sign + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# rational matrices


class RationalMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise MorganError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    @staticmethod
    def _of(rows) -> "RationalMatrix":
        """A matrix of rows of equal length whose entries are already Fractions."""
        m = object.__new__(RationalMatrix)
        object.__setattr__(m, "entries", tuple(map(tuple, rows)))
        return m

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(r: int, c: int) -> "RationalMatrix":
        return RationalMatrix._of([[Fraction(0)] * c] * r)

    @staticmethod
    def from_columns(cols) -> "RationalMatrix":
        """The matrix with the given columns; MorganError when they are ragged."""
        return RationalMatrix(cols).transpose()

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i) -> tuple:
        return self.entries[i]

    def col(self, j) -> tuple:
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def _same_shape(self, other, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise MorganError(
                f"dimension mismatch {self.rows}x{self.cols} {op} {other.rows}x{other.cols}"
            )
        return zip(self.entries, other.entries)

    def __add__(self, other):
        return RationalMatrix._of(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in self._same_shape(other, "+")]
        )

    def __sub__(self, other):
        return RationalMatrix._of(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in self._same_shape(other, "-")]
        )

    def __neg__(self):
        return RationalMatrix._of([[-a for a in r] for r in self.entries])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalMatrix._of([[a * other for a in r] for r in self.entries])
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise MorganError(
                f"dimension mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        rows = [_scaled(r) for r in self.entries]
        cols = [_scaled(c) for c in zip(*other.entries)]
        return RationalMatrix._of(
            [[Fraction(sum(map(mul, r, c)), d * e) for e, c in cols] for d, r in rows]
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._of(zip(*self.entries))

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        return RationalMatrix._of(
            [[self.entries[i][j] for j in col_idx] for i in row_idx]
        )

    # -- elimination-based operations ---------------------------------------

    def rank(self) -> int:
        return rank(self.entries)

    def inverse(self) -> "RationalMatrix":
        n = self.rows
        if n != self.cols:
            raise MorganError("inverse of a nonsquare matrix")
        cols, null = self.solve([[int(i == j) for i in range(n)] for j in range(n)])
        if null:
            raise MorganError("matrix is singular")
        return RationalMatrix._of(zip(*cols))

    def solve(self, rhss):
        """(solutions, null basis) of self * x = v for each v in the list rhss:
        per v one x with free variables 0, or None if inconsistent, and the
        canonical basis of the right null space, one vector per free column;
        one elimination of [self | v_1 ... v_k], pivoting in self's columns.
        """
        n = self.cols
        aug = [list(r) + [v[i] for v in rhss] for i, r in enumerate(self.entries)]
        m, pivots = _reduce(aug, n)

        def column(t, sign):
            x = [Fraction(0)] * n
            for row, c in zip(m, pivots):
                x[c] = Fraction(sign * row[t], row[c])
            return x

        out = [None if any(row[t] for row in m[len(pivots):]) else tuple(column(t, 1))
               for t in range(n, n + len(rhss))]
        basis = []
        for f in sorted(set(range(n)).difference(pivots)):
            v = column(f, -1)
            v[f] = Fraction(1)
            basis.append(tuple(v))
        return out, basis

    def nullspace(self):
        """Canonical basis of the right null space (free-variable columns)."""
        return self.solve([])[1]

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, r)) for r in self.entries]})"


def rank(m) -> int:
    """Exact rank over Q of a RationalMatrix or of rows of ints / Fractions.

    Fraction-free (Bareiss) elimination over the integers, after scaling
    each row by the lcm of its denominators.  After k pivots every remaining
    entry is a (k+1)-minor of the scaled matrix, so the division by the
    previous pivot is exact.
    """
    rows = []
    for entries in m.entries if isinstance(m, RationalMatrix) else m:
        row = _scaled(entries)[1]
        if any(row):
            rows.append(row)
    found = 0
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        if found == len(rows):
            break
        piv = next((i for i in range(found, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[found], rows[piv] = rows[piv], rows[found]
        top = rows[found]
        p = top[c]
        for i in range(found + 1, len(rows)):
            row = rows[i]
            a = row[c]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
        found += 1
    return found


def krylov_select(a: RationalMatrix, b: RationalMatrix):
    """Degree-major selection of independent Krylov vectors A^k b_j.

    Scans k = 0, 1, ... and the columns b_j in order, keeping A^k b_j iff it
    is independent of the vectors kept so far; a chain stops at its first
    dependent vector, since every higher power is dependent too.  The kept
    vectors are a basis of <A | Im B>.  Runs on the integer matrix dA and on
    integer multiples of the vectors (independence does not see the scale):
    each candidate is reduced against the kept ones fraction-free, every
    updated row divided by its content.  Returns the chain lengths, in column
    order, and the kept vectors as integer lists, in scan order.
    """
    n = a.rows
    ah = _scaled_matrix(a.entries)[1]
    vecs = {j: _scaled(col)[1] for j, col in enumerate(zip(*b.entries))}
    lengths = [0] * b.cols
    reduced = []  # (pivot, row) of the kept vectors, each row zero at earlier pivots
    kept = []
    while vecs and len(kept) < n:
        alive = {}
        for j, v in vecs.items():
            w = v
            for p, row in reduced:
                f = w[p]
                if f:
                    w = [row[p] * x - f * y for x, y in zip(w, row)]
                    g = gcd(*w)
                    if g > 1:
                        w = [x // g for x in w]
            p = next((i for i, x in enumerate(w) if x), None)
            if p is None:
                continue
            reduced.append((p, w))
            kept.append(v)
            lengths[j] += 1
            alive[j] = v
        if len(kept) == n:
            break
        vecs = {}
        for j, v in alive.items():
            v = [sum(map(mul, r, v)) for r in ah]
            g = gcd(*v)
            vecs[j] = [x // g for x in v] if g > 1 else v
    return lengths, kept


def _krylov(x, lines, d):
    """Yield x, Mx, M^2 x, ... as Fraction lists, without end.  The integer
    matrix dM is given by the lines each vector is dotted with (its columns
    give the row sequence x M^k); each step is one integer product, and the
    k-th vector is divided by e d^k, e the lcm of x's denominators."""
    e, v = _scaled(x)
    while True:
        yield [Fraction(y, e) for y in v]
        v = [sum(map(mul, r, v)) for r in lines]
        e *= d


RESOLVENT_SIZE_CAP = 64  # guard against accidental blow-up; the benchmark runs n <= 12


def resolvent(a: RationalMatrix) -> Poly:
    """The monic characteristic polynomial chi of A, via Faddeev-LeVerrier.

    d is the lcm of the denominators of A.  The recursion M_k = A M_{k-1}
    + c_k I with c_k = -tr(A M_{k-1}) / k runs on the integer matrix dA,
    where every division is exact, and chi_A(s) = d^-n chi_dA(d s).
    """
    n = a.rows
    if n != a.cols:
        raise MorganError("resolvent needs a square matrix")
    if n > RESOLVENT_SIZE_CAP:
        raise MorganError(f"resolvent size cap exceeded ({n} > {RESOLVENT_SIZE_CAP})")
    d, ah = _scaled_matrix(a.entries)
    cols = list(zip(*ah))  # M_k is a polynomial in A, so M_k dA = dA M_k
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]  # chi, descending
    for k in range(1, n + 1):
        m = _int_product(m, cols)
        c, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        if rem:
            raise MorganError("Faddeev-LeVerrier division not exact (bug)")
        for i in range(n):
            m[i][i] += c
        coeffs.append(Fraction(c, d**k))
    return Poly(coeffs[::-1])


def controller_charpoly(sigma, end_rows) -> Poly:
    """chi(A) = det D(s) for A in controller form, from its block-end rows R.

    The other rows of A are the next unit rows, so (Wolovich) D(s) =
    diag(s^sigma_j) - R S(s), S(s) the block diagonal of the columns (1, s,
    ..., s^(sigma_k - 1)).  Row j of D is scaled to integers by d_j; column
    k then has degree sigma_k, with leading coefficient d_k on the diagonal
    and lower degree off it.  So no leading principal minor vanishes, and
    Bareiss elimination over Z[s] needs no pivoting and divides exactly.
    MorganError above the size cap of resolvent.
    """
    if sum(sigma) > RESOLVENT_SIZE_CAP:
        raise MorganError(f"resolvent size cap exceeded ({sum(sigma)} > {RESOLVENT_SIZE_CAP})")
    m = []
    for j, (d, r) in enumerate(map(_scaled, end_rows)):
        r = iter(r)
        m.append([[-next(r) for _ in range(s)] + [d] * (k == j) for k, s in enumerate(sigma)])
    prev = [1]
    for k in range(len(m) - 1):
        piv = m[k][k]
        for row in m[k + 1:]:
            for j in range(k + 1, len(m)):
                num = [0] * max(len(piv) + len(row[j]), len(row[k]) + len(m[k][j]))
                for u, v, sign in ((piv, row[j], 1), (row[k], m[k][j], -1)):
                    for a, x in enumerate(u):
                        for b, y in enumerate(v):
                            num[a + b] += sign * x * y
                q = [0] * (len(num) - len(prev) + 1)
                for t in range(len(q) - 1, -1, -1):
                    q[t] = c = num[t + len(prev) - 1] // prev[-1]
                    for i, y in enumerate(prev):
                        num[t + i] -= c * y
                if any(num):
                    raise MorganError("Bareiss division not exact (bug)")
                while q and not q[-1]:
                    q.pop()
                row[j] = q
        prev = piv
    det = m[-1][-1]
    return Poly([Fraction(c, det[-1]) for c in det])


def transfer_function(a, b, c, chi):
    """Exact transfer function C (sI - A)^(-1) B.

    For a closed loop pass A + BF and BG (see zeros.closed_loop).  Returns
    a matrix (list of lists) of (numerator, denominator) Poly pairs in
    lowest terms with monic denominators; chi is the characteristic
    polynomial of A (resolvent).  The numerators come from the Markov
    parameters: with chi(s) = sum_j c_j s^(n-j), C adj(sI - A) B =
    sum_k s^(n-1-k) N_k, N_k = sum_{j<=k} c_j C A^(k-j) B.  With d A, d_C C
    and d_B B integer, N_k = sum_j (d^j c_j) (d_C C)(d A)^(k-j)(d_B B) /
    (d^k d_C d_B).
    """
    n = a.rows
    d_a, ah = _scaled_matrix(a.entries)
    d_c, x = _scaled_matrix(c.entries)
    d_b, bh = _scaled_matrix(b.entries)
    a_cols, b_cols = list(zip(*ah)), list(zip(*bh))
    markov = []  # (d_C C)(dA)^i (d_B B), i = 0..n-1
    for i in range(n):
        if i:
            x = _int_product(x, a_cols)
        markov.append(_int_product(x, b_cols))
    c_hat = [(chi.coeff(n - j) * d_a**j).numerator for j in range(n)]
    dens = [d_a**k * d_c * d_b for k in range(n)]
    out = []
    for i in range(c.rows):
        row = []
        for j in range(len(b_cols)):
            p = Poly([
                Fraction(sum(c_hat[t] * markov[k - t][i][j] for t in range(k + 1)), dens[k])
                for k in range(n - 1, -1, -1)
            ])
            if p.is_zero():
                row.append((Poly.zero(), Poly.one()))
                continue
            d = poly_gcd(p, chi)
            pn = (p.divmod(d))[0]
            pd = (chi.divmod(d))[0]
            lead = pd.leading()
            row.append((pn * (1 / lead), pd.monic()))
        out.append(row)
    return out

