"""Reference `Fraction` implementations of the exact matrix kernels.

These are the bodies that `morgan.exactalg` ran before its kernels moved to
scaled integers: entrywise `Fraction` sums, negation, scalar products,
transposes and submatrices, a `Fraction` sum per product entry, Horner's rule on
`Fraction` matrices (now sums of integer Krylov rows in
`decouple.square_decouple`),
Gauss-Jordan elimination over Q, Faddeev-LeVerrier over Q with the
polynomial adjugate, and the transfer function as the product of that
adjugate with C and BG.  Below them are the constructions that `canonical`
and `zeros` used before the Krylov selection: the staircase selection over
Q, the uncontrollable polynomial from the Kalman matrix and a completed
basis, the unobservable polynomial from the nullspace of the observability
matrix, and polynomial long division by `Poly` arithmetic.  Then come the
polynomial matrices that `exactalg` and `canonical` kept before M S(s) was
read off by slicing rows (`times_S`): the `PolyMatrix` type, sI - A, the
chain block L(s) and the basis S(s).  Last come the
constructions that `solve` ran before it read the fixed poles off the closed
loop, decoupled the square system in pencil coordinates and placed the
input decoupling zeros in the quotient by the span of Q_B: the
fraction-free (Bareiss) polynomial determinant, the square system in the
basis Q = [Q_A | Q_B] with the input decoupling zeros read off its quotient
block, the numerator N(s) = C_f S_f(s) with its row gcds and the
Wolovich-Falb polynomial det N(s) / prod(row gcds), which `solve` kept
equal to det N(s) by redrawing every point with a nonconstant row gcd, and
the greedy completion of Q_B by unit vectors, one rank test per candidate.  Last is the controller form as it
was built before the Krylov-row construction: the full chain inverse,
P = (P^-1)^-1 and full products.  The tests require the current code to
return exactly the same values.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from morgan.canonical import offsets_from_sigma
from morgan.errors import MorganError, NotControllable
from morgan.exactalg import RESOLVENT_SIZE_CAP, Poly, RationalMatrix, poly_gcd


def shift(p: Poly, k: int) -> Poly:
    """p times s^k."""
    return Poly([0] * k + list(p.coeffs))


def mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.rows:
        raise MorganError(f"dimension mismatch {a.rows}x{a.cols} * {b.rows}x{b.cols}")
    bt = list(zip(*b.entries)) if b.entries else []
    return RationalMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.entries]
    )


def mul_vector(a: RationalMatrix, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a.entries)


def add(a: RationalMatrix, b: RationalMatrix, sign=1) -> RationalMatrix:
    """a + sign * b entry by entry."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise MorganError(f"dimension mismatch {a.rows}x{a.cols} {'+-'[sign < 0]} {b.rows}x{b.cols}")
    return RationalMatrix([[x + sign * y for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)])


def scale(a: RationalMatrix, q) -> RationalMatrix:
    return RationalMatrix([[x * q for x in r] for r in a.entries])


def transpose(a: RationalMatrix) -> RationalMatrix:
    return RationalMatrix([[r[j] for r in a.entries] for j in range(a.cols)])


def submatrix(a: RationalMatrix, row_idx, col_idx) -> RationalMatrix:
    return RationalMatrix([[a.entries[i][j] for j in col_idx] for i in row_idx])


def eval_matrix(p: Poly, a: RationalMatrix) -> RationalMatrix:
    """p(A) for a square matrix A (Horner)."""
    n = a.rows
    acc = RationalMatrix.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = mul(acc, a) + RationalMatrix.identity(n) * c
    return acc


def echelon(a: RationalMatrix):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(r) for r in a.entries]
    pivots = []
    r = 0
    for c in range(a.cols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def resolvent(a: RationalMatrix, size_cap: int | None = None):
    """(adjugate of sI-A, characteristic polynomial) via Faddeev-LeVerrier."""
    n = a.rows
    cap = RESOLVENT_SIZE_CAP if size_cap is None else size_cap
    if n != a.cols:
        raise MorganError("resolvent needs a square matrix")
    if n > cap:
        raise MorganError(f"resolvent size cap exceeded ({n} > {cap})")
    ident = RationalMatrix.identity(n)
    coeffs = [Fraction(0)] * n + [Fraction(1)]  # charpoly, ascending
    mats = [ident]  # M_0
    m = ident
    for k in range(1, n + 1):
        am = mul(a, m)
        c = -sum(am[i, i] for i in range(n)) / k
        coeffs[n - k] = c
        m = am + ident * c
        if k < n:
            mats.append(m)
    charpoly = Poly(coeffs)
    # adjugate(s) = sum_k M_k s^{n-1-k}
    adj = PolyMatrix(
        [
            [Poly([mats[n - 1 - p][i, j] for p in range(n)]) for j in range(n)]
            for i in range(n)
        ]
    )
    return adj, charpoly


def transfer_function(a, b, c, f=None, g=None):
    """C (sI - A - BF)^(-1) B G as lowest-terms (num, monic den) Poly pairs."""
    n = a.rows
    if f is None:
        f = RationalMatrix.zeros(b.cols, n)
    if g is None:
        g = RationalMatrix.identity(b.cols)
    acl = a + mul(b, f)
    adj, chi = resolvent(acl)
    num = PolyMatrix.from_rational(c) * adj * PolyMatrix.from_rational(mul(b, g))
    return lowest_terms(num.entries, chi)


def lowest_terms(numerators, chi):
    """The entries p / chi of a matrix (rows) of numerators p as lowest-terms
    (num, monic den) Poly pairs, one gcd per nonzero entry: the body that
    `exactalg.transfer_function` ran before it returned the numerators."""
    out = []
    for prow in numerators:
        row = []
        for p in prow:
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


def charpoly(a: RationalMatrix) -> Poly:
    return resolvent(a)[1] if a.rows else Poly.one()


def hstack(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.rows != b.rows:
        raise MorganError(f"dimension mismatch {a.rows}x{a.cols} | {b.rows}x{b.cols}")
    return RationalMatrix([list(x) + list(y) for x, y in zip(a.entries, b.entries)])


def kalman_matrix(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """[B, AB, ..., A^(n-1) B]."""
    kal = block = b
    for _ in range(a.rows - 1):
        block = mul(a, block)
        kal = hstack(kal, block)
    return kal


def staircase_select(a: RationalMatrix, b: RationalMatrix):
    """Per-input chain lengths of the degree-major staircase selection."""
    n = a.rows
    l = b.cols
    lengths = [0] * l
    basis_rows: list[list] = []  # reduced echelon rows of kept vectors
    pivots: list[int] = []

    def try_add(vec):
        v = list(vec)
        for row, p in zip(basis_rows, pivots):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        p = next((i for i, x in enumerate(v) if x != 0), None)
        if p is None:
            return False
        inv = 1 / v[p]
        basis_rows.append([x * inv for x in v])
        pivots.append(p)
        return True

    powers = [b.col(j) for j in range(l)]
    total = 0
    alive = [True] * l
    for k in range(n):
        if total == n:
            break
        for j in range(l):
            if not alive[j]:
                continue
            if try_add(powers[j]):
                lengths[j] += 1
                total += 1
            else:
                # once A^k b_j is dependent, all higher powers are too
                alive[j] = False
        powers = [mul_vector(a, v) for v in powers]
    if total != n:
        raise NotControllable(f"controllability matrix has rank {total} < n = {n}")
    return lengths


def restriction(a: RationalMatrix, basis_cols) -> RationalMatrix:
    """Matrix of A restricted to an A-invariant subspace, in the given basis."""
    if not basis_cols:
        return RationalMatrix.zeros(0, 0)
    v = RationalMatrix.from_columns(basis_cols)
    cols = []
    for j in range(v.cols):
        img = mul_vector(a, v.col(j))
        x = v.solve([img])[0][0]
        if x is None:
            raise MorganError("subspace is not invariant (bug)")
        cols.append(x)
    return RationalMatrix.from_columns(cols)


def controllable_subspace(a: RationalMatrix, b: RationalMatrix):
    """Canonical basis (leftmost independent Kalman columns) of <A | Im B>."""
    kal = kalman_matrix(a, b)
    return [kal.col(j) for j in echelon(kal)[1]]


def uncontrollable_polynomial(a: RationalMatrix, b: RationalMatrix) -> Poly:
    """Characteristic polynomial of the quotient map on R^n / <A | Im B>."""
    n = a.rows
    basis = controllable_subspace(a, b)
    r = len(basis)
    if r == n:
        return Poly.one()
    cols = list(basis)
    for i in range(n):
        if len(cols) == n:
            break
        e = tuple(Fraction(1 if k == i else 0) for k in range(n))
        trial = RationalMatrix.from_columns(cols + [e])
        if trial.rank() == len(cols) + 1:
            cols.append(e)
    t = RationalMatrix.from_columns(cols)
    abar = mul(mul(t.inverse(), a), t)
    quot = abar.submatrix(range(r, n), range(r, n))
    return charpoly(quot)


def unobservable_polynomial(a: RationalMatrix, c: RationalMatrix) -> Poly:
    """Characteristic polynomial of A restricted to the unobservable subspace."""
    obs = RationalMatrix(list(c.entries))
    block = c
    for _ in range(a.rows - 1):
        block = mul(block, a)
        obs = RationalMatrix(list(obs.entries) + list(block.entries))
    return charpoly(restriction(a, obs.nullspace()))


def poly_divmod(p: Poly, other: Poly):
    """(q, r) by repeated subtraction of Poly multiples of other."""
    if other.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = Poly.zero()
    r = p
    d = other.degree
    lead = other.leading()
    while not r.is_zero() and r.degree >= d:
        k = r.degree - d
        c = r.leading() / lead
        q = q + Poly([0] * k + [c])
        r = r - other * Poly([0] * k + [c])
    return q, r


class PolyMatrix:
    """Immutable dense matrix of Poly entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(
            tuple(e if isinstance(e, Poly) else Poly([e]) for e in row)
            for row in entries
        )
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise MorganError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_rational(m: RationalMatrix) -> "PolyMatrix":
        return PolyMatrix([[Poly([x]) for x in r] for r in m.entries])

    @staticmethod
    def zeros(r, c) -> "PolyMatrix":
        return PolyMatrix([[Poly.zero()] * c for _ in range(r)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            other = PolyMatrix.from_rational(other)
        elif isinstance(other, (Poly, int, Fraction)):
            p = other if isinstance(other, Poly) else Poly([other])
            return PolyMatrix([[e * p for e in r] for r in self.entries])
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.rows == 0:
            return PolyMatrix([])
        if self.cols != other.rows:
            raise MorganError("dimension mismatch in PolyMatrix product")
        bt = list(zip(*other.entries)) if other.entries else []
        out = []
        for row in self.entries:
            out.append(
                [
                    sum((a * b for a, b in zip(row, col)), Poly.zero())
                    for col in bt
                ]
            )
        return PolyMatrix(out)

    def __rmul__(self, other):
        if isinstance(other, RationalMatrix):
            return PolyMatrix.from_rational(other) * self
        return NotImplemented

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.entries for e in r)

    def vstack(self, other):
        return PolyMatrix(list(self.entries) + list(other.entries))

    def permute_rows(self, perm) -> "PolyMatrix":
        """Row i of the result is row perm[i] of self."""
        return PolyMatrix([self.entries[p] for p in perm])

    def __repr__(self):
        return f"PolyMatrix({[[str(e) for e in r] for r in self.entries]})"


def s_identity_minus(a: RationalMatrix) -> PolyMatrix:
    """sI - A as a PolyMatrix."""
    n = a.rows
    return PolyMatrix(
        [
            [
                Poly([-a[i, j], 1]) if i == j else Poly([-a[i, j]])
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def build_S(sigma) -> PolyMatrix:
    """Block-diagonal basis matrix S(s) = diag([1, s, ..., s^(sigma_i - 1)]^T)."""
    if any(s < 1 for s in sigma):
        raise MorganError("all indices must be >= 1")
    n = sum(sigma)
    l = len(sigma)
    m = [[Poly.zero() for _ in range(l)] for _ in range(n)]
    row = 0
    for j, s in enumerate(sigma):
        for k in range(s):
            m[row + k][j] = Poly([0] * k + [1])
        row += s
    return PolyMatrix(m)


def build_L(sigma) -> PolyMatrix:
    """diag{L_sigma_i(s)} with L_k(s) = s[I|0] - [0|I] of shape (k-1) x k."""
    n = sum(sigma)
    rows = []
    col_off = 0
    for s in sigma:
        for c in range(s - 1):
            row = [Poly.zero()] * n
            row[col_off + c] = Poly([0, 1])
            row[col_off + c + 1] = Poly([-1])
            rows.append(row)
        col_off += s
    return PolyMatrix(rows) if rows else PolyMatrix.zeros(0, n)


def times_S(m: RationalMatrix, sigma) -> list:
    """Rows of M S(s), S(s) = diag([1, s, ..., s^(sigma_j - 1)]^T), as lists of Poly.

    Entry (r, j) is the slice of row r of M over block j, read as ascending
    coefficients.
    """
    if m.cols != sum(sigma):
        raise MorganError(f"M has {m.cols} columns, S(s) has {sum(sigma)} rows")
    offs = offsets_from_sigma(sigma)
    return [[Poly(row[a:b]) for a, b in zip(offs, offs[1:])] for row in m.entries]


def det(rows) -> Poly:
    """Exact determinant of a square matrix given as rows of Poly (fraction-free Bareiss)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise MorganError("determinant of a nonsquare matrix")
    if n == 0:
        return Poly.one()
    a = [list(r) for r in rows]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            pr = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if pr is None:
                return Poly.zero()
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q, r = num.divmod(prev)
                if not r.is_zero():
                    raise MorganError("Bareiss division not exact (bug)")
                a[i][j] = q
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


def q_coordinate_square(pencil, squaring, q: RationalMatrix):
    """The squared-down system in the basis q = [Q_A | Q_B].

    A_f = Q^-1 (A_r + B_r G_I F_0) Q, B_f = Q^-1 B_r G_I G_0 and C_f = C_r Q,
    with sigma_tilde and the quotient dimension k = n - sum(sigma_tilde).
    MorganError unless the trailing coordinates are invariant and B_f
    vanishes on the leading k rows.
    """
    q_inv = q.inverse()
    a_f = mul(mul(q_inv, pencil.A_r + mul(pencil.B_r_GI, squaring.F0)), q)
    b_f = mul(q_inv, mul(pencil.B_r_GI, squaring.G0))
    n, k = q.rows, q.rows - sum(squaring.sigma_tilde)
    if any(a_f[i, j] != 0 for i in range(k) for j in range(k, n)):
        raise MorganError("controllable subspace not invariant")
    if any(b_f[i, j] != 0 for i in range(k) for j in range(b_f.cols)):
        raise MorganError("B_f leaks into the quotient block")
    return SimpleNamespace(A_f=a_f, B_f=b_f, C_f=mul(pencil.C_r, q),
                           sigma_tilde=tuple(squaring.sigma_tilde), uncontrollable_dim=k)


def input_decoupling_zeros(square) -> Poly:
    """Characteristic polynomial of the quotient block of a q_coordinate_square."""
    k = square.uncontrollable_dim
    return charpoly(square.A_f.submatrix(range(k), range(k)))


class DegenerateNumerator(MorganError):
    """A row of N(s) = C_r Q_B S~(s) is zero, or its determinant is."""


def row_gcds(rows) -> list:
    """Monic gcd of the nonzero entries of each row of N(s) = C_r Q_B S~(s),
    the rows given as lists of Poly.  DegenerateNumerator for a zero row.
    """
    out = []
    for i, row in enumerate(rows):
        entries = [e for e in row if not e.is_zero()]
        if not entries:
            raise DegenerateNumerator(f"row {i + 1} of C_r Q_B S~(s) is zero")
        g = entries[0].monic()
        for e in entries[1:]:
            g = poly_gcd(g, e)
        out.append(g)
    return out


def numerator_rows(square) -> list:
    """The rows of N(s) = C_f S_f(s) of a q_coordinate_square.

    S_f pads the controller-part basis S~(s) with zero rows for the quotient
    coordinates, so N(s) is C_r Q_B S~(s).
    """
    k = square.uncontrollable_dim
    c_f = square.C_f
    return times_S(c_f.submatrix(range(c_f.rows), range(k, c_f.cols)), square.sigma_tilde)


def fixed_decoupling_poles(square) -> Poly:
    """det N(s) divided by the product of its row gcds, monic, N(s) =
    numerator_rows(square).  DegenerateNumerator when the determinant
    vanishes identically.
    """
    cfs = numerator_rows(square)
    d = det(cfs)
    if d.is_zero():
        raise DegenerateNumerator("det(C_f S_f) is identically zero")
    out = d
    for g in row_gcds(cfs):
        q, r = out.divmod(g)
        if not r.is_zero():
            raise MorganError("row gcd does not divide det(C_f S_f) (bug)")
        out = q
    return out.monic()


class SingularQ(MorganError):
    """No basis completion makes Q = [Q_A, Q_B] invertible."""


def complete_basis(qb_num: RationalMatrix) -> RationalMatrix:
    """Q = [Q_A | Q_B] with Q_A greedily chosen standard basis vectors."""
    n = qb_num.rows
    cols = [qb_num.col(j) for j in range(qb_num.cols)]
    chosen = []
    for i in range(n):
        if len(chosen) + len(cols) == n:
            break
        e = tuple(Fraction(1 if r == i else 0) for r in range(n))
        trial = RationalMatrix.from_columns(chosen + [e] + cols)
        if trial.rank() == len(chosen) + 1 + len(cols):
            chosen.append(e)
    q = RationalMatrix.from_columns(chosen + cols)
    if q.rows != q.cols or q.rank() != n:
        raise SingularQ("could not complete Q_B to an invertible Q")
    return q


def inverse(a: RationalMatrix) -> RationalMatrix:
    """A^-1 from the reduced echelon form of [A | I]; MorganError if singular."""
    n = a.rows
    m, pivots = echelon(hstack(a, RationalMatrix.identity(n)))
    if pivots[:n] != list(range(n)):
        raise MorganError("matrix is singular")
    return RationalMatrix([row[n:] for row in m[:n]])


def pencil_form(sys_):
    """The controller form as canonical.to_pencil_form built it with P.

    The full inverse of the chain matrix, P^-1 from its block-end rows,
    P = (P^-1)^-1, G_I through the input permutation matrix, and the full
    products A_r = P^-1 A P, B_r G_I = P^-1 B G_I and C_r = C P.
    """
    a, b, c = sys_.A, sys_.B, sys_.C
    n, l = a.rows, b.cols
    raw = staircase_select(a, b)
    order = sorted(range(l), key=lambda j: (raw[j], j))
    sigma = tuple(raw[j] for j in order)
    pos = [sum(sigma[: i + 1]) for i in range(l)]
    cols = []
    for j in order:
        v = b.col(j)
        for _ in range(raw[j]):
            cols.append(v)
            v = mul_vector(a, v)
    chain_inv = inverse(RationalMatrix.from_columns(cols))
    t_inv_rows = []
    for i, p in enumerate(pos):
        q = chain_inv.submatrix([p - 1], range(n))
        for _ in range(sigma[i]):
            t_inv_rows.append(q.row(0))
            q = mul(q, a)
    p_inv = RationalMatrix(t_inv_rows)
    p = inverse(p_inv)
    perm = RationalMatrix.from_columns([RationalMatrix.identity(l).col(j) for j in order])
    b_sorted = mul(mul(p_inv, b), perm)
    g_i = mul(perm, inverse(RationalMatrix([b_sorted.row(q - 1) for q in pos])))
    return SimpleNamespace(
        sigma=sigma, P=p, P_inv=p_inv, G_I=g_i, A_r=mul(mul(p_inv, a), p),
        B_r_GI=mul(mul(p_inv, b), g_i), C_r=mul(c, p),
    )
