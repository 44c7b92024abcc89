"""Exact reference checks written with plain ``fractions``.

Nothing here imports ``morgan``: a reference may not come from the code it
checks.  Systems and solutions are read as the JSON dicts the program's
files hold (entries are integers or ``"p/q"`` strings).
"""

from __future__ import annotations

from fractions import Fraction


def matrix(rows):
    return [[Fraction(str(x)) for x in row] for row in rows]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def rank(a) -> int:
    m = [list(r) for r in a]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def solve_square(a, b):
    """X with a X = b for a nonsingular square a, or None when a is singular."""
    n = len(a)
    m = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def system_problems(system) -> list[str]:
    """Preconditions the solver documents: m <= l <= n, B full column rank,
    (A, B) controllable, and C (sI - A)^-1 B of rank m (right-invertible)."""
    a, b, c = matrix(system["A"]), matrix(system["B"]), matrix(system["C"])
    n, l, m = len(a), len(b[0]), len(c)
    out = []
    if not m <= l <= n:
        out.append(f"dimensions m={m}, l={l}, n={n}")
    if rank(b) != l:
        out.append("B is not of full column rank")
    block, kal = b, [list(r) for r in b]
    for _ in range(n - 1):
        block = matmul(a, block)
        kal = [r + q for r, q in zip(kal, block)]
    if rank(kal) != n:
        out.append("(A, B) is not controllable")
    # a rank at one point bounds the normal rank from below
    for s0 in (Fraction(7, 3), Fraction(-11, 5), Fraction(13, 2)):
        shifted = [[(s0 if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
        x = solve_square(shifted, b)
        if x is not None:
            if rank(matmul(c, x)) != m:
                out.append("C (sI - A)^-1 B is not of rank m at a test point")
            break
    else:
        out.append("no test point avoided the eigenvalues of A")
    return out


def poly(coeffs):
    p = [Fraction(str(x)) for x in coeffs]
    while p and p[-1] == 0:
        p.pop()
    return p


def markov(num, den, count):
    """First ``count`` coefficients h_k of num/den = sum_k h_k s^-(k+1)
    (den monic, deg num < deg den)."""
    q = len(den) - 1
    h = []
    for k in range(count):
        v = num[q - 1 - k] if 0 <= q - 1 - k < len(num) else Fraction(0)
        for j in range(1, min(k, q) + 1):
            v -= den[q - j] * h[k - j]
        h.append(v)
    return h


def solution_problems(system, solution) -> list[str]:
    """Why ``solution`` does not decouple ``system``; empty when it does.

    Two strictly proper rational functions whose denominators have degree at
    most n agree when their first 2n Markov parameters agree, so checking
    C (A + BF)^k B G for k < 2n against the recorded diagonal entries is exact.
    """
    a, b, c = matrix(system["A"]), matrix(system["B"]), matrix(system["C"])
    n, l, m = len(a), len(b[0]), len(c)
    f, g = matrix(solution["F"]), matrix(solution["G"])
    if len(f) != l or any(len(r) != n for r in f) or len(g) != l or any(len(r) != m for r in g):
        return ["F or G has the wrong dimensions"]
    out = []
    if rank(g) != m:
        out.append("G is not of full column rank")
    diag = solution["diagonal"]
    if len(diag) != m:
        return out + ["diagonal has the wrong length"]
    refs = []
    for i, entry in enumerate(diag):
        num, den = poly(entry["num"]), poly(entry["den"])
        if not num or not den or den[-1] != 1 or len(num) >= len(den) or len(den) - 1 > n:
            return out + [f"diagonal entry {i + 1} is not a nonzero strictly proper "
                          "monic-denominator entry of degree <= n"]
        refs.append(markov(num, den, 2 * n))
    acl = [[a[i][j] + sum(b[i][k] * f[k][j] for k in range(l)) for j in range(n)]
           for i in range(n)]
    x = matmul(b, g)
    for k in range(2 * n):
        mk = matmul(c, x)
        for i in range(m):
            for j in range(m):
                want = refs[i][k] if i == j else 0
                if mk[i][j] != want:
                    return out + [f"Markov parameter {k} entry ({i + 1},{j + 1}) is "
                                  f"{mk[i][j]}, expected {want}"]
        x = matmul(acl, x)
    return out


def perturbed(solution):
    """Copy of ``solution`` with F[0][0] increased by one (negative control)."""
    bad = dict(solution)
    bad["F"] = [list(r) for r in solution["F"]]
    bad["F"][0][0] = str(Fraction(str(bad["F"][0][0])) + 1)
    return bad
