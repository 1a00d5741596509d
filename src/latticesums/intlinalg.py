"""Exact linear algebra helpers: Fraction matrices and an integer echelon form.

Everything here is small (r <= 3, #functionals <= a dozen), so clarity wins
over asymptotics: one Gaussian elimination with Fractions serves ``det`` and
``rank``, Gauss-Jordan gives inverses, and one integer column echelon form
with its unimodular transform (``column_echelon``) serves integer solving
and the coset representatives of a lattice.
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


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def column_echelon(A: Sequence[Sequence[int]]
                   ) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """Return (H, U, pivots) with H = A U in lower column echelon form and
    U unimodular.

    Column j < len(pivots) is zero above row pivots[j], where it holds a
    positive entry; the rows pivots[0] < pivots[1] < ... rise strictly, and
    the columns past the pivots are zero.  Row by row, extended-gcd steps
    on pairs of columns gather the gcd of the row's entries right of the
    last pivot into the next column; entries left of a pivot are not
    reduced (Cohen, GTM 138, section 2.4).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    H = [list(row) for row in A]
    U = identity(n)
    pivots: List[int] = []

    def combine(c, j, s, t, u, v):  # (col c, col j) <- (s c + t j, u c + v j)
        for row in H + U:
            row[c], row[j] = (s * row[c] + t * row[j],
                              u * row[c] + v * row[j])

    for i in range(m):
        c = len(pivots)
        if c == n:
            break
        for j in range(c + 1, n):
            a, b = H[i][c], H[i][j]
            if b:
                g, s, t = _xgcd(a, b)
                combine(c, j, s, t, -b // g, a // g)
        if H[i][c]:
            if H[i][c] < 0:
                for row in H + U:
                    row[c] = -row[c]
            pivots.append(i)
    return H, U, pivots


def solve_integer(A: Sequence[Sequence[int]], b: Sequence[int]
                  ) -> Optional[Tuple[List[int], List[List[int]]]]:
    """Solve A x = b over the integers.

    Returns (particular solution, kernel lattice basis) or None when the
    system has no integer solution.  With A U = H from ``column_echelon``,
    H y = b is solved row by row, a row without a pivot only checked, and
    x = U y; the kernel basis is the columns of U past the pivots.
    """
    H, U, pivots = column_echelon(A)
    n = len(U)
    y = [0] * n
    c = 0
    for i, row in enumerate(H):
        rest = b[i] - sum(row[j] * y[j] for j in range(c))
        if c < len(pivots) and pivots[c] == i:
            y[c], rest = divmod(rest, row[c])
            c += 1
        if rest:
            return None
    return mat_vec(U, y), [[Ui[j] for Ui in U] for j in range(c, n)]


def integer_normal(rows: Sequence[Sequence[int]]) -> List[int]:
    """The primitive integer normal to the span of r-1 independent rows in
    Z^r: its signed maximal minors (-1)^i det(rows without column i), over
    their gcd."""
    r = len(rows[0])
    if len(rows) != r - 1:
        raise ValueError("expected r-1 rows")
    minors = [(-1) ** i * int(det([row[:i] + row[i + 1:] for row in rows]))
              for i in range(r)]
    g = gcd(*minors)
    if g == 0:
        raise ValueError("rows are linearly dependent")
    return [x // g for x in minors]
