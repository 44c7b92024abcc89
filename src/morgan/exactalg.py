"""Exact rational arithmetic: polynomials and matrices over Q.

Everything here is immutable and pure.  Scalars are `fractions.Fraction`
(always normalized: positive denominator, gcd(num, den) = 1), so every
comparison in the package is exact with zero tolerance.  A RationalMatrix
is kept as one denominator d and the integer rows of d M: its products, sums
and elimination and the kernels below (Krylov sequences, Faddeev-LeVerrier,
det D(s), Markov parameters) compute with ints; Fractions are built only
where entries are read.
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


def _reduce(rows, width):
    """(integer rows, pivot columns) of Gauss-Jordan elimination of integer
    rows, pivoting in the first width columns on the first nonzero row of each
    column, each updated row divided by its content.  The rows past the pivot
    rows are zero in the first width columns."""
    m = list(rows)
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
    if isinstance(x, (int, str)):
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
    """Immutable dense matrix over Q in one canonical form, unique, so == and
    hash compare it: a denominator den > 0 and the integer rows ints of den *
    M, with gcd(den, ints) = 1.  A matrix built from entries keeps them as
    given and is scaled on first use; a kernel's result builds its Fraction
    entries on first read.  Each form is cached in a slot once built.
    """

    __slots__ = ("_entries", "_den", "_ints")

    def __init__(self, entries):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise MorganError("ragged matrix")
        self._entries, self._den, self._ints = rows, None, None

    @staticmethod
    def _int(rows, den=1) -> "RationalMatrix":
        """The matrix of integer rows of equal length divided by den > 0."""
        rows = tuple(map(tuple, rows))
        g = den
        for r in rows:
            if g == 1:
                break
            g = gcd(g, *r)
        if g > 1:
            den //= g
            rows = tuple(tuple(x // g for x in r) for r in rows)
        m = object.__new__(RationalMatrix)
        m._entries, m._den, m._ints = None, den, rows
        return m

    def _scale(self):
        """(den, ints), scaled from the entries on first use."""
        if self._ints is None:
            self._den = d = lcm(*[x.denominator for r in self._entries for x in r])
            self._ints = tuple(tuple(x.numerator * (d // x.denominator) for x in r)
                               for r in self._entries)
        return self._den, self._ints

    den = property(lambda self: self._scale()[0])
    ints = property(lambda self: self._scale()[1])

    @property
    def entries(self) -> tuple:
        """The Fraction rows, built on first read."""
        if self._entries is None:
            d = self._den
            self._entries = tuple(tuple(Fraction(x, d) if d > 1 else Fraction(x) for x in r)
                                  for r in self._ints)
        return self._entries

    @property
    def rows(self) -> int:
        return len(self._ints if self._entries is None else self._entries)

    @property
    def cols(self) -> int:
        rows = self._ints if self._entries is None else self._entries
        return len(rows[0]) if rows else 0

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix._int([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "RationalMatrix":
        return RationalMatrix._int([[0] * c] * r)

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
        return isinstance(other, RationalMatrix) and self._scale() == other._scale()

    def __hash__(self):
        return hash(self._scale())

    def _plus(self, other, sign, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise MorganError(f"dimension mismatch {self.rows}x{self.cols} {op} "
                              f"{other.rows}x{other.cols}")
        d = lcm(self.den, other.den)
        a, b = d // self.den, sign * (d // other.den)
        return RationalMatrix._int(
            [[a * x + b * y for x, y in zip(r, s)] for r, s in zip(self.ints, other.ints)], d
        )

    def __add__(self, other):
        return self._plus(other, 1, "+")

    def __sub__(self, other):
        return self._plus(other, -1, "-")

    def __neg__(self):
        return RationalMatrix._int([[-x for x in r] for r in self.ints], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalMatrix._int(
                [[x * other.numerator for x in r] for r in self.ints], self.den * other.denominator
            )
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise MorganError(
                f"dimension mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        cols = list(zip(*other.ints))
        return RationalMatrix._int(
            [[sum(map(mul, r, c)) for c in cols] for r in self.ints], self.den * other.den
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._int(zip(*self.ints), self.den)

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        rows = self.ints
        return RationalMatrix._int([[rows[i][j] for j in col_idx] for i in row_idx], self.den)

    # -- elimination-based operations ---------------------------------------

    def rank(self) -> int:
        return rank(self)

    def inverse(self) -> "RationalMatrix":
        n = self.rows
        if n != self.cols:
            raise MorganError("inverse of a nonsquare matrix")
        cols, null = self.solve([[int(i == j) for i in range(n)] for j in range(n)])
        if null:
            raise MorganError("matrix is singular")
        return RationalMatrix.from_columns(cols)

    def solve(self, rhss):
        """(solutions, null basis) of self * x = v for each v in the list rhss:
        per v one x with free variables 0, or None if inconsistent, and the
        canonical basis of the right null space, one vector per free column;
        one elimination of [self | v_1 ... v_k] on integer rows.
        """
        n, d = self.cols, self.den
        aug = [[e * x for x in r] + [d * y for y in v] for i, r in enumerate(self.ints)
               for e, v in [_scaled([rhs[i] for rhs in rhss])]]
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


def _from_rows(rows) -> RationalMatrix:
    """The matrix of rows v / e for the pairs (e > 0, integer list v)."""
    rows = list(rows)
    d = lcm(*(e for e, _ in rows))
    return RationalMatrix._int([[x * (d // e) for x in v] for e, v in rows], d)


def rank(m) -> int:
    """Exact rank over Q of a RationalMatrix or of rows of ints / Fractions.

    Fraction-free (Bareiss) elimination on integer rows, other rows scaled
    by the lcm of their denominators.  After k pivots every remaining entry
    is a (k+1)-minor, so the division by the previous pivot is exact.
    """
    rows = m.ints if isinstance(m, RationalMatrix) else [_scaled(r)[1] for r in m]
    rows = [r for r in rows if any(r)]
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
    vectors are a basis of <A | Im B>.  Runs on integer rows: each candidate
    is reduced against the kept ones fraction-free, every updated row divided
    by its content.  Returns the chain lengths, in column order, and the kept
    vectors as integer lists, in scan order.
    """
    n, ah = a.rows, a.ints
    vecs = {j: list(col) for j, col in enumerate(zip(*b.ints))}
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


def _krylov(e, v, lines, d):
    """Yield (e d^k, v_k) with M^k x (or x M^k) = v_k / (e d^k), k = 0, 1, ...
    without end, for x = v / e; dM is given by the lines each vector is dotted
    with (its columns give the row sequence x M^k)."""
    while True:
        yield e, v
        v = [sum(map(mul, r, v)) for r in lines]
        e *= d


RESOLVENT_SIZE_CAP = 64  # guard against accidental blow-up; the benchmark runs n <= 12


def resolvent(a: RationalMatrix) -> Poly:
    """The monic characteristic polynomial chi of A, via Faddeev-LeVerrier.

    A = M / d with M integer.  The recursion M_k = M M_{k-1} + c_k I, c_k =
    -tr(M M_{k-1}) / k, runs on M, where every division is exact, and chi_A(s)
    = d^-n chi_M(d s)."""
    n = a.rows
    if n != a.cols:
        raise MorganError("resolvent needs a square matrix")
    if n > RESOLVENT_SIZE_CAP:
        raise MorganError(f"resolvent size cap exceeded ({n} > {RESOLVENT_SIZE_CAP})")
    d = a.den
    cols = list(zip(*a.ints))  # M_k is a polynomial in A, so M_k M = M M_k
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


def controller_charpoly(sigma, ends: RationalMatrix) -> Poly:
    """chi(A) = det D(s) for A in controller form, from its block-end rows R.

    The other rows of A are the next unit rows, so (Wolovich) D(s) =
    diag(s^sigma_j) - R S(s), S(s) the block diagonal of the columns (1, s,
    ..., s^(sigma_k - 1)).  D is scaled to integers by the denominator d of
    R; column k then has degree sigma_k, with leading coefficient d on the
    diagonal and lower degree off it.  So no leading principal minor
    vanishes, and Bareiss elimination over Z[s] needs no pivoting and
    divides exactly.  MorganError above the size cap of resolvent."""
    if sum(sigma) > RESOLVENT_SIZE_CAP:
        raise MorganError(f"resolvent size cap exceeded ({sum(sigma)} > {RESOLVENT_SIZE_CAP})")
    m = []
    for j, r in enumerate(map(iter, ends.ints)):
        m.append([[-next(r) for _ in range(s)] + [ends.den] * (k == j)
                  for k, s in enumerate(sigma)])
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
    """C adj(sI - A) B as a list of rows of Poly: the numerators of the exact
    transfer function C (sI - A)^(-1) B over chi = chi_A (resolvent), not
    reduced.  For a closed loop pass A + BF and BG (see zeros.closed_loop).

    From the Markov parameters: with chi(s) = sum_j c_j s^(n-j), the
    numerator is sum_k s^(n-1-k) N_k, N_k = sum_{j<=k} c_j C A^(k-j) B, and
    with d A, d_C C and d_B B integer, N_k = sum_j (d^j c_j) (d_C C)(d
    A)^(k-j)(d_B B) / (d^k d_C d_B).
    """
    n = a.rows
    d_a, d_c, d_b = a.den, c.den, b.den
    a_cols, b_cols = list(zip(*a.ints)), list(zip(*b.ints))
    x = c.ints
    markov = []  # (d_C C)(dA)^i (d_B B), i = 0..n-1
    for i in range(n):
        if i:
            x = _int_product(x, a_cols)
        markov.append(_int_product(x, b_cols))
    c_hat = [(chi.coeff(n - j) * d_a**j).numerator for j in range(n)]
    dens = [d_a**k * d_c * d_b for k in range(n - 1, -1, -1)]
    sums = [[[sum(c_hat[t] * markov[k - t][i][j] for t in range(k + 1))
               for k in range(n - 1, -1, -1)] for j in range(len(b_cols))] for i in range(c.rows)]
    return [[Poly(map(Fraction, s, dens) if any(s) else ()) for s in row] for row in sums]
