"""Controllability indices and the controller (Popov) canonical form.

The working form used by the search: a similarity, kept as P^-1, takes (A, B)
to controller canonical form, and an input transformation G_I normalizes the
block-end rows of the input matrix to unit rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice

from .errors import InvalidSystem, MorganError, NotControllable, VerificationFailed
from .exactalg import RationalMatrix, _from_rows, _krylov, _scaled, krylov_select


@dataclass(frozen=True)
class StateSpace:
    """The triple (A, B, C), checked for shape: A is n x n, B n x l of full
    column rank and C m x n, with m <= l <= n.  (A, B) need not be
    controllable: to_pencil_form checks that."""

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


def positions_from_sigma(sigma):
    """s-positions p_i = sigma_1 + ... + sigma_i (1-based)."""
    return tuple(accumulate(sigma))


def offsets_from_sigma(sigma):
    """0-based start of each block followed by n: (0, p_1, ..., p_l)."""
    return tuple(accumulate(sigma, initial=0))


@dataclass(frozen=True)
class PencilForm:
    """Controller canonical data for one system.

    sigma is nondecreasing; A_r P^-1 = P^-1 A, C_r P^-1 = C and B_r_GI =
    P^-1 B G_I with unit rows at the block-end positions p_i, and every other
    row of A_r is the next unit row (the chain structure); P is not formed.
    """

    sigma: tuple
    P_inv: RationalMatrix
    P_inv_B: RationalMatrix  # P^-1 B, which compose_final's checks reuse
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

    The staircase-selected chains {A^k b_j}, inputs sorted by chain length
    (ties keep the input order), are the columns of the chain matrix K.  One
    solve with K^T gives the block-end rows q_i of K^-1.  P^-1 stacks the rows
    q_i A^k, k < sigma_i, and w_i = q_i A^sigma_i is kept; both Krylov
    sequences run on the integer rows of A.  A_r has unit chain rows; its
    block-end rows and C_r come from one solve X P^-1 = [w_1; ...; w_l; C].
    The result is checked exactly before returning.  NotControllable when
    (A, B) is not controllable.
    """
    a, b, c = sys.A, sys.B, sys.C
    n, l, raw = sys.n, sys.l, _staircase_select(a, b)
    order = sorted(range(l), key=lambda j: (raw[j], j))
    sigma = tuple(raw[j] for j in order)
    ends = [p - 1 for p in positions_from_sigma(sigma)]
    d, ah = a.den, a.ints
    a_cols, b_cols = list(zip(*ah)), list(zip(*b.ints))
    ident = RationalMatrix.identity(n).ints

    chain = [u for j in order for u in islice(_krylov(b.den, b_cols[j], ah, d), raw[j])]
    qs = _from_rows(chain).solve([ident[p] for p in ends])[0]
    if None in qs:
        raise MorganError("chain matrix is singular")
    t_inv_rows, w = [], []
    for q, s in zip(qs, sigma):
        *rows, last = islice(_krylov(*_scaled(q), a_cols, d), s + 1)
        t_inv_rows += rows
        w.append(last)
    p_inv = _from_rows(t_inv_rows)
    xs = p_inv.transpose().solve(list(_from_rows(w).entries) + list(c.entries))[0]
    if None in xs:
        raise MorganError("P^-1 is singular")
    end_rows = dict(zip(ends, xs))
    a_r = RationalMatrix(end_rows.get(i) or ident[i + 1] for i in range(n))

    pb = p_inv * b
    v_inv = pb.submatrix(ends, order).inverse()
    g_i = v_inv.submatrix([order.index(j) for j in range(l)], range(l))
    pf = PencilForm(sigma=sigma, P_inv=p_inv, P_inv_B=pb, G_I=g_i, A_r=a_r,
                    B_r_GI=pb * g_i, C_r=RationalMatrix(xs[l:]))
    _verify_pencil_form(sys, pf)
    return pf


def _verify_pencil_form(sys: StateSpace, pf: PencilForm):
    """Exact checks of the defining identities of the controller form.

    A_r P^-1 = P^-1 A on the block-end rows, C_r P^-1 = C, the unit input
    rows of B_r G_I and the unit chain rows of A_r, in O((l + m) n^2).  On a
    chain row both sides of A_r P^-1 = P^-1 A are the same computed row
    q_i A^(k+1), and B_r G_I = P^-1 B G_I by construction.  So P^-1 maps the
    controllability matrix of (A, B G_I) onto that of (A_r, B_r G_I), which
    has rank n by the unit-row patterns: the checks prove P^-1 nonsingular.
    """
    n = sys.n
    ends = [p - 1 for p in pf.positions]
    if (pf.A_r.submatrix(ends, range(n)) * pf.P_inv
            != pf.P_inv.submatrix(ends, range(n)) * sys.A):
        raise MorganError("A_r P^-1 != P^-1 A on the block-end rows")
    if pf.C_r * pf.P_inv != sys.C:
        raise MorganError("C_r P^-1 != C")
    ident = RationalMatrix.identity(n)
    if pf.B_r_GI != ident.submatrix(range(n), ends):
        raise MorganError("B_r_GI does not have the unit-row pattern")
    chain = [i for i in range(n) if i not in ends]
    if pf.A_r.submatrix(chain, range(n)) != ident.submatrix([i + 1 for i in chain], range(n)):
        raise MorganError("A_r chain structure broken")
