"""Controllability indices, controller (Popov) canonical form, M S(s) rows.

The working form used by the search: a similarity P takes (A, B) to
controller canonical form, and an input transformation G_I normalizes the
block-end rows of the input matrix to unit rows.  times_S gives the rows of
M S(s) for the block basis S(s) of a list of indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSystem, MorganError, NotControllable, VerificationFailed
from .exactalg import Poly, RationalMatrix, krylov_select


@dataclass(frozen=True)
class StateSpace:
    """The triple (A, B, C) with m <= l <= n and B monic."""

    A: RationalMatrix
    B: RationalMatrix
    C: RationalMatrix

    def __post_init__(self):
        n = self.A.rows
        if self.A.cols != n:
            raise InvalidSystem("A must be square")
        if self.B.rows != n:
            raise InvalidSystem("B must have as many rows as A")
        if self.C.cols != n:
            raise InvalidSystem("C must have as many columns as A")
        if not (self.m <= self.l <= self.n):
            raise InvalidSystem(
                f"need m <= l <= n, got m={self.m}, l={self.l}, n={self.n}"
            )
        if self.B.rank() != self.l:
            raise InvalidSystem("B must have full column rank")
        _staircase_select(self.A, self.B)

    @property
    def n(self):
        return self.A.rows

    @property
    def l(self):
        return self.B.cols

    @property
    def m(self):
        return self.C.rows

    def check_feedback(self, f: RationalMatrix, g: RationalMatrix):
        """VerificationFailed unless F is l x n and G is l x m."""
        if (f.rows, f.cols, g.rows, g.cols) != (self.l, self.n, self.l, self.m):
            raise VerificationFailed("F/G dimensions do not match the system")


def _staircase_select(a: RationalMatrix, b: RationalMatrix):
    """Chain lengths of the degree-major staircase selection of columns A^k b_j.

    Per input, in the original input order (see exactalg.krylov_select).
    Raises NotControllable when the kept columns do not span the state space.
    """
    lengths, kept = krylov_select(a, b)
    if len(kept) != a.rows:
        raise NotControllable(
            f"controllability matrix has rank {len(kept)} < n = {a.rows}"
        )
    return lengths


def controllability_indices(a: RationalMatrix, b: RationalMatrix):
    """The l controllability indices, nondecreasing.  Raises NotControllable."""
    return tuple(sorted(_staircase_select(a, b)))


def positions_from_sigma(sigma):
    """s-positions p_i = sigma_1 + ... + sigma_i (1-based)."""
    out = []
    acc = 0
    for s in sigma:
        acc += s
        out.append(acc)
    return tuple(out)


def times_S(m: RationalMatrix, sigma) -> list:
    """Rows of M S(s), S(s) = diag([1, s, ..., s^(sigma_j - 1)]^T), as lists of Poly.

    Entry (r, j) is the slice of row r of M over block j, read as ascending
    coefficients.
    """
    if m.cols != sum(sigma):
        raise MorganError(f"M has {m.cols} columns, S(s) has {sum(sigma)} rows")
    offs = (0,) + positions_from_sigma(sigma)
    return [[Poly(row[a:b]) for a, b in zip(offs, offs[1:])] for row in m.entries]


@dataclass(frozen=True)
class PencilForm:
    """Controller canonical data for one system.

    sigma is nondecreasing; P and G_I satisfy A_r = P^-1 A P and
    B_r_GI = P^-1 B G_I with unit rows at the block-end positions p_i, and
    every other row of A_r is the next unit row (the chain structure).
    """

    sigma: tuple
    P: RationalMatrix
    P_inv: RationalMatrix
    G_I: RationalMatrix
    A_r: RationalMatrix
    B_r_GI: RationalMatrix
    C_r: RationalMatrix

    @property
    def n(self):
        return self.A_r.rows

    @property
    def l(self):
        return len(self.sigma)

    @property
    def positions(self):
        return positions_from_sigma(self.sigma)


def to_pencil_form(sys: StateSpace) -> PencilForm:
    """Transform (A, B, C) to controller canonical form.

    Construction: staircase-selected chain vectors {A^k b_j}, inputs sorted by
    chain length (ties keep the original input order), change of basis built
    from the block-end rows of the chain matrix inverse.  The result is
    checked exactly before returning.
    """
    a, b, c = sys.A, sys.B, sys.C
    n, l = sys.n, sys.l
    raw = _staircase_select(a, b)
    if any(x == 0 for x in raw):
        raise InvalidSystem("an input column contributes no chain (B rank deficient)")
    order = sorted(range(l), key=lambda j: (raw[j], j))
    sigma = tuple(raw[j] for j in order)
    pos = positions_from_sigma(sigma)

    # chain matrix: columns grouped by (sorted) input, ascending power
    cols = []
    for j in order:
        v = b.col(j)
        for _ in range(raw[j]):
            cols.append(v)
            v = a.mul_vector(v)
    chain = RationalMatrix.from_columns(cols)
    chain_inv = chain.inverse()

    # controller-form basis: stack q_i A^k, q_i = block-end row of chain^-1
    t_inv_rows = []
    for i, p in enumerate(pos):
        q = chain_inv.submatrix([p - 1], range(n))
        for _ in range(sigma[i]):
            t_inv_rows.append(q.row(0))
            q = q * a
    p_inv = RationalMatrix(t_inv_rows)
    p_mat = p_inv.inverse()

    perm = RationalMatrix.from_columns(
        [RationalMatrix.identity(l).col(j) for j in order]
    )
    a_r = p_inv * a * p_mat
    b_sorted = p_inv * b * perm
    v = RationalMatrix([b_sorted.row(p - 1) for p in pos])
    g_i = perm * v.inverse()
    b_r_gi = p_inv * b * g_i
    c_r = c * p_mat

    pf = PencilForm(
        sigma=sigma,
        P=p_mat,
        P_inv=p_inv,
        G_I=g_i,
        A_r=a_r,
        B_r_GI=b_r_gi,
        C_r=c_r,
    )
    _verify_pencil_form(sys, pf)
    return pf


def _verify_pencil_form(sys: StateSpace, pf: PencilForm):
    """Exact checks of the controller form: P P^-1 = I, the unit input rows
    of B_r G_I and the chain rows of A_r.  A_r, B_r G_I and C_r are the
    products of P, P^-1 and G_I with (A, B, C) by construction."""
    n, l = sys.n, sys.l
    pos = pf.positions
    if pf.P * pf.P_inv != RationalMatrix.identity(n):
        raise MorganError("P inverse mismatch")
    # unit input rows exactly at the block ends
    for i in range(n):
        expected_row = [0] * l
        if (i + 1) in pos:
            expected_row[pos.index(i + 1)] = 1
        if any(x != e for x, e in zip(pf.B_r_GI.row(i), expected_row)):
            raise MorganError("B_r_GI does not have the unit-row pattern")
    # chain rows of A_r are unit rows pointing at the next chain state
    pos_set = set(pos)
    for i in range(1, n + 1):
        if i in pos_set:
            continue
        row = pf.A_r.row(i - 1)
        if any(
            row[j] != (1 if j == i else 0) for j in range(n)
        ):
            raise MorganError("A_r chain structure broken")
