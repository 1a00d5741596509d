"""Exact linear algebra helpers: Fraction matrices and integer normal forms.

Everything here is small (r <= 3, #functionals <= a dozen), so clarity wins
over asymptotics: one Gaussian elimination with Fractions serves ``det`` and
``rank``, Gauss-Jordan gives inverses, and a textbook Smith normal form
comes with unimodular transforms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]


def identity(n: int, one=1) -> list:
    return [[one if i == j else one * 0 for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def _eliminate(rows: Sequence[Sequence]) -> Tuple[List[Fraction], int]:
    """Gaussian elimination over Q, column by column: the pivots of the
    row echelon form of `rows`, and the sign (+-1) of its row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    m, n = len(a), len(a[0]) if a else 0
    pivots: List[Fraction] = []
    sign = 1
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][col]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        piv = a[r][col]
        for i in range(r + 1, m):
            f = a[i][col] / piv
            if f:
                for c in range(col, n):
                    a[i][c] -= f * a[r][c]
        pivots.append(piv)
    return pivots, sign


def det(rows: Sequence[Sequence]) -> Fraction:
    pivots, sign = _eliminate(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    return prod(pivots, start=Fraction(sign))


def mat_inverse(rows: Sequence[Sequence]) -> Matrix:
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    b = identity(n, Fraction(1))
    for i in range(n):
        p = next((r for r in range(i, n) if a[r][i] != 0), None)
        if p is None:
            raise ValueError("matrix is singular")
        if p != i:
            a[i], a[p] = a[p], a[i]
            b[i], b[p] = b[p], b[i]
        inv = 1 / a[i][i]
        a[i] = [x * inv for x in a[i]]
        b[i] = [x * inv for x in b[i]]
        for r in range(n):
            if r != i and a[r][i]:
                f = a[r][i]
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
                b[r] = [x - f * y for x, y in zip(b[r], b[i])]
    return b


def rank(rows: Sequence[Sequence]) -> int:
    return len(_eliminate(rows)[0])


def smith_normal_form(A: Sequence[Sequence[int]]):
    """Return (D, U, V) with D = U*A*V diagonal, U, V unimodular.

    Diagonal entries are nonnegative and satisfy d_1 | d_2 | ... .
    """
    m = len(A)
    n = len(A[0]) if m else 0
    a = [[int(x) for x in row] for row in A]
    U = identity(m)
    V = identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):  # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]

    def add_col(i, j, c):  # col_i += c * col_j
        for row in a:
            row[i] += c * row[j]
        for row in V:
            row[i] += c * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None
                                     or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        if i0 != t:
            swap_rows(t, i0)
        if j0 != t:
            swap_cols(t, j0)
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # enforce divisibility of the remaining block by a[t][t]
        piv = a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % piv != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    D = a
    return D, U, V


def solve_integer(A: Sequence[Sequence[int]], b: Sequence[int]
                  ) -> Optional[Tuple[List[int], List[List[int]]]]:
    """Solve A x = b over the integers.

    Returns (particular solution, kernel lattice basis) or None when the
    system has no integer solution.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0:
        return [0] * n, [list(row) for row in identity(n)]
    D, U, V = smith_normal_form(A)
    c = mat_vec(U, list(b))
    z = [0] * n
    kernel_idx = []
    for j in range(n):
        d = D[j][j] if j < m else 0
        if d == 0:
            kernel_idx.append(j)
        else:
            if c[j] % d != 0:
                return None
            z[j] = c[j] // d
    for i in range(n, m):
        if c[i] != 0:
            return None
    # also reject inconsistent zero-diagonal rows within range
    for j in range(min(m, n)):
        if D[j][j] == 0 and c[j] != 0:
            return None
    x0 = mat_vec(V, z)
    kernel = []
    for j in kernel_idx:
        kernel.append([V[i][j] for i in range(n)])
    return x0, kernel


def integer_normal(rows: Sequence[Sequence[int]]) -> List[int]:
    """An integer normal vector to the span of (r-1) independent rows in R^r."""
    r = len(rows[0])
    if len(rows) != r - 1:
        raise ValueError("expected r-1 rows")
    # Cramer-style: normal_i = (-1)^i * minor_i
    normal = []
    for i in range(r):
        minor = [[Fraction(row[j]) for j in range(r) if j != i] for row in rows]
        d = det(minor) if r > 1 else Fraction(1)
        normal.append((-1) ** i * d)
    dens = [x.denominator for x in normal]
    scale = 1
    for d in dens:
        scale = scale * d // gcd(scale, d)
    ints = [int(x * scale) for x in normal]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("rows are linearly dependent")
    return [x // g for x in ints]


def vec_gcd_of_fractions(entries: Sequence[Fraction]) -> Fraction:
    """Generator of the subgroup of Q generated by the given rationals."""
    num = 0
    den = 1
    for e in entries:
        e = Fraction(e)
        if e == 0:
            continue
        den = den * e.denominator // gcd(den, e.denominator)
    for e in entries:
        e = Fraction(e)
        if e == 0:
            continue
        num = gcd(num, abs(int(e * den)))
    if num == 0:
        return Fraction(0)
    return Fraction(num, den)
