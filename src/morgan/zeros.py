"""Fixed poles of a decoupled solution.

Two kinds: the input decoupling zeros dz created by the singular input
transformation (the uncontrollable modes of the squared-down system, present
whenever sum(sigma_tilde) < n), and the decoupling poles, monic det N(s)
with N(s) = C_r Q_B S~(s) at the drawn point of the search's parameters.
assign_zeros places dz through the free parameters of the feedback-row
solution families, the entries of one rational matrix T, in the quotient by
the controllable subspace: with N the basis of ker Q_B^T, N A(T) = X(T) N
for an X(T) affine in T, and dz = chi(X(T)) is placed exactly when
T -> X(T) is onto (NotSolvable otherwise).  No code completes Q_B to a basis.
check_fixed_poles cross-checks a recorded pair against the closed loop.

Both are read off the verified closed loop: dz is the uncontrollable
polynomial of (A + BF, BG), as check_fixed_poles computes it, and
chi(A + BF) = dz * prod(p_i) * monic det N(s); compose_final reads them off
the similar pair (P^-1 (A + BF) P, P^-1 BG).  Proof: P carries (A + BF, BG)
to (A_s + B_s F_f, B_s G_f), where A_s = A_r + B_r G_I F_0 and B_s =
B_r G_I G_0 form the squared-down system in pencil coordinates.  Its
controllable subspace V, which feedback keeps, is spanned by the numeric
Q_B, so chi(A + BF) is dz times the characteristic polynomial on V.  In the
basis Q_B the restriction is in controller form with indices sigma_tilde:
(sI - A_V)^-1 B_V = S~(s) D_cl(s)^-1, det D_cl a constant times that
polynomial.  The inputs reach only V, so H = N(s) D_cl^-1 G_f, and
H = diag(1/p_i) gives det D_cl = det N(s) * prod(p_i) * const.  So the
quotient chi(A + BF) / (dz * prod(p_i)) is monic det N(s) at the drawn
point: the Wolovich-Falb polynomial det N(s) / prod(gamma_i) times
prod(gamma_i), with gamma_i the monic gcd of row i of N(s).  The gamma_i
are zeros of output i of the squared-down plant that this static law
cancels, each an unobservable closed-loop mode.  They are not recorded
apart: like the Wolovich-Falb part they are controllable, unobservable
modes of the closed loop, so verify could not recompute them from (F, G).

The uncontrollable and unobservable polynomials of a closed loop follow the
Kalman decomposition: chi_A divided by the characteristic polynomial of A
on the span that exactalg.krylov_select keeps from B (of A^T on the span
kept from C^T, the observable part).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import MorganError, NotSolvable, VerificationFailed
from .exactalg import (
    Poly,
    RationalMatrix,
    _reduce,
    format_poly,
    krylov_select,
    resolvent,
)


def _restriction(a: RationalMatrix, basis_cols) -> RationalMatrix:
    """Matrix X with A V = V X for a basis V (integer columns) of an A-invariant
    subspace.  With AV = M / d, the columns of d X solve V x = M_j, one
    elimination; an inconsistent column means AV leaves the span, a null
    vector that V is rank-deficient.
    """
    if not basis_cols:
        return RationalMatrix.zeros(0, 0)
    v = RationalMatrix._int(basis_cols).transpose()
    av = a * v
    cols, null = v.solve(list(zip(*av.ints)))
    if null or None in cols:
        raise MorganError("subspace is not invariant (bug)")
    return RationalMatrix.from_columns(cols) * Fraction(1, av.den)


def _outside_krylov_span(a: RationalMatrix, b: RationalMatrix, chi) -> Poly:
    """chi = chi_A divided by the charpoly of A on <A | Im B>."""
    kept = krylov_select(a, b)[1]
    if len(kept) == a.rows:
        return Poly.one()
    out, rem = chi.divmod(resolvent(_restriction(a, kept)))
    if not rem.is_zero():
        raise MorganError("characteristic polynomial of a subspace does not divide (bug)")
    return out


def uncontrollable_polynomial(a: RationalMatrix, b: RationalMatrix, chi: Poly) -> Poly:
    """Characteristic polynomial of the quotient map on R^n / <A | Im B>;
    chi is chi_A."""
    return _outside_krylov_span(a, b, chi)


def unobservable_polynomial(a: RationalMatrix, c: RationalMatrix, chi: Poly) -> Poly:
    """Characteristic polynomial of A restricted to the unobservable subspace.

    By duality that is chi_A divided by the characteristic polynomial of the
    observable part, A^T on <A^T | Im C^T>; chi is chi_A.
    """
    return _outside_krylov_span(a.transpose(), c.transpose(), chi)


def closed_loop(sys, f, g):
    """(A + BF, its characteristic polynomial); VerificationFailed when F or G
    does not fit the system."""
    sys.check_feedback(f, g)
    acl = sys.A + sys.B * f
    return acl, resolvent(acl)


def check_fixed_poles(sys, g, acl, chi, dz_recorded: Poly, fixed_recorded: Poly):
    """Cross-check recorded fixed poles against the closed loop acl = A + BF.

    chi is the characteristic polynomial of acl (see closed_loop).  Returns
    (dz, unobservable, failures): the uncontrollable polynomial of
    (A + BF, BG) and the unobservable polynomial of (A + BF, C), recomputed,
    and one VerificationFailed for each broken condition, in this order:
    dz equals dz_recorded, fixed_recorded divides the unobservable
    polynomial, and the unobservable polynomial divides fixed_recorded * dz.
    VerificationFailed is raised when fixed_recorded is the zero polynomial
    (a malformed record).
    """
    if fixed_recorded.is_zero():
        raise VerificationFailed("recorded fixed decoupling poles are the zero polynomial")
    dz = uncontrollable_polynomial(acl, sys.B * g, chi)
    unobs = unobservable_polynomial(acl, sys.C, chi)
    failures = []
    if dz != dz_recorded:
        failures.append(VerificationFailed(
            f"uncontrollable polynomial of the closed loop is {format_poly(dz)}, "
            f"file records {format_poly(dz_recorded)}"
        ))
    if not unobs.divmod(fixed_recorded)[1].is_zero():
        failures.append(VerificationFailed(
            "recorded fixed decoupling poles do not divide the closed-loop "
            f"unobservable polynomial {format_poly(unobs)}"
        ))
    if not (fixed_recorded * dz).divmod(unobs)[1].is_zero():
        failures.append(VerificationFailed(
            f"closed-loop unobservable polynomial {format_poly(unobs)} does not "
            "divide (fixed poles) * (input decoupling zeros)"
        ))
    return dz, unobs, failures


def routh_hurwitz_stable(p: Poly) -> bool:
    """Exact sign test: True iff every root has negative real part.

    Degenerate first-column entries (zeros) report False; the zero polynomial
    is rejected.  Degree 0 is vacuously stable.
    """
    if p.is_zero():
        raise MorganError("zero polynomial has no stability character")
    deg = p.degree
    if deg == 0:
        return True
    coeffs = list(reversed(p.monic().coeffs))  # descending
    if any(c <= 0 for c in coeffs):
        return False
    row0 = coeffs[0::2]
    row1 = coeffs[1::2]
    width = len(row0)
    row0 = row0 + [Fraction(0)] * (width - len(row0))
    row1 = row1 + [Fraction(0)] * (width - len(row1))
    first_col = [row0[0], row1[0]]
    for _ in range(deg - 1):
        if row1[0] == 0:
            return False
        nxt = [
            (row1[0] * row0[j + 1] - row0[0] * row1[j + 1]) / row1[0]
            for j in range(width - 1)
        ]
        nxt.append(Fraction(0))
        first_col.append(nxt[0])
        row0, row1 = row1, nxt
    return all(x > 0 for x in first_col[: deg + 1])


@dataclass(frozen=True)
class FixedPoleReport:
    """Both fixed-pole polynomials of one solution plus stability flags."""

    input_dz_poly: Poly
    fixed_dec_poly: Poly
    input_dz_stable: bool
    fixed_dec_stable: bool


def fixed_pole_report(dz: Poly, chi: Poly, p_list) -> FixedPoleReport:
    """fixed = chi / (dz * prod(monic p_i)), chi = chi(A + BF) and dz the
    uncontrollable polynomial of (A + BF, BG) (module docstring)."""
    fixed, rem = chi.divmod(prod((p.monic() for p in p_list), start=dz))
    if not rem.is_zero():
        raise MorganError("closed-loop polynomial is not a multiple of dz * prod(p_i) (bug)")
    return FixedPoleReport(
        input_dz_poly=dz,
        fixed_dec_poly=fixed,
        input_dz_stable=routh_hurwitz_stable(dz),
        fixed_dec_stable=routh_hurwitz_stable(fixed),
    )


def companion(p: Poly) -> RationalMatrix:
    """Companion matrix of a monic polynomial."""
    d = p.degree
    if d < 1:
        return RationalMatrix.zeros(0, 0)
    q = p.monic().coeffs
    return RationalMatrix([[int(j == i - 1) for j in range(d - 1)] + [-q[i]] for i in range(d)])


def assign_zeros(pencil, config, mu_family, target: Poly):
    """The free-parameter matrix T that makes the input decoupling zeros target.

    N = mu_family.nullbasis (k x n, N Q_B = 0) maps the state onto the
    quotient by the controllable subspace, the span of Q_B.  The closed loop
    is A(T) = A0 - E T N, with E the unit columns at the config rows and A0
    the A_r whose config rows are -mu_0 (see assemble_squaring).  It keeps
    that subspace, so N A(T) = X(T) N, and the input decoupling zeros are
    chi(X(T)).  With u the pivot columns of N and W = N[:, u], which is
    invertible, X(T) = (N A0)[:, u] W^-1 - (N E) T.  When N E has rank k
    the map T -> X(T) is onto, and X(T) = W companion(target) W^-1 solves
    (N E)(T W) = (N A0)[:, u] - W companion(target) over Q; otherwise
    NotSolvable.  Returns T as rows of Fraction (feedback rows x vectors of
    N), or None when k = 0.  The caller has checked that the target is
    monic of degree k; decouple._evaluate_config checks the zeros of the
    verified closed loop.
    """
    k = len(mu_family.nullbasis)
    if k == 0:
        return None
    n = pencil.n
    nb = RationalMatrix(mu_family.nullbasis)
    ne = nb.submatrix(range(k), [p - 1 for p in config.positions])
    u = _reduce(nb.ints, n)[1]
    w = nb.submatrix(range(k), u)
    a0 = [list(row) for row in pencil.A_r.entries]
    for p, mu in zip(config.positions, mu_family.particulars):
        a0[p - 1] = [-x for x in mu]
    rhs = nb * RationalMatrix(a0).submatrix(range(n), u) - w * companion(target)
    tw_cols, free = ne.solve([rhs.col(c) for c in range(k)])
    if ne.cols - len(free) < k:
        raise NotSolvable("free-parameter map does not reach every quotient block")
    if None in tw_cols:
        raise MorganError("onto map failed to solve (bug)")
    return (RationalMatrix.from_columns(tw_cols) * w.inverse()).entries
