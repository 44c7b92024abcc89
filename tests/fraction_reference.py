"""Reference `Fraction` implementations of the exact matrix kernels.

These are the bodies that `morgan.exactalg` ran before its kernels moved to
scaled integers: a `Fraction` sum per product entry, Horner's rule on
`Fraction` matrices, Gauss-Jordan elimination over Q, Faddeev-LeVerrier over
Q with the polynomial adjugate, and the transfer function as the product of
that adjugate with C and BG.  The tests require the integer kernels to return
exactly the same values.
"""

from __future__ import annotations

from fractions import Fraction

from morgan.errors import MorganError
from morgan.exactalg import RESOLVENT_SIZE_CAP, Poly, PolyMatrix, RationalMatrix, poly_gcd


def mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.rows:
        raise MorganError(f"dimension mismatch {a.rows}x{a.cols} * {b.rows}x{b.cols}")
    bt = list(zip(*b.entries)) if b.entries else []
    return RationalMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.entries]
    )


def mul_vector(a: RationalMatrix, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a.entries)


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
    out = []
    for i in range(num.rows):
        row = []
        for j in range(num.cols):
            p = num[i, j]
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
