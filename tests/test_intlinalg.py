import math
import re
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from latticesums import intlinalg
from reference import lattice_contains, mat_mul


def is_unimodular(M):
    return abs(intlinalg.det(M)) == 1


int_matrix = st.lists(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    min_size=2, max_size=3)


@settings(max_examples=80, deadline=None)
@given(int_matrix)
def test_column_echelon_properties(A):
    H, U, pivots = intlinalg.column_echelon(A)
    assert is_unimodular(U)
    assert mat_mul(A, U) == H
    m, n = len(A), len(A[0])
    assert len(pivots) == intlinalg.rank(A)
    assert pivots == sorted(set(pivots))
    for j, p in enumerate(pivots):
        assert H[p][j] > 0
        assert all(H[i][j] == 0 for i in range(p))
    for j in range(len(pivots), n):
        assert all(H[i][j] == 0 for i in range(m))


@settings(max_examples=60, deadline=None)
@given(int_matrix, st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_solve_integer(A, x_true):
    n = len(A[0])
    x_true = x_true[:n]
    b = [sum(A[i][j] * x_true[j] for j in range(n)) for i in range(len(A))]
    solved = intlinalg.solve_integer(A, b)
    assert solved is not None
    x0, kernel = solved
    assert [sum(A[i][j] * x0[j] for j in range(n))
            for i in range(len(A))] == b
    # the oracle enumerates over a full kernel basis
    assert len(kernel) == n - intlinalg.rank(A)
    for kv in kernel:
        assert all(sum(A[i][j] * kv[j] for j in range(n)) == 0
                   for i in range(len(A)))


def test_solve_integer_dependent_rows():
    A = [[1, 1], [2, 2]]
    x0, kernel = intlinalg.solve_integer(A, [1, 2])
    assert x0[0] + x0[1] == 1
    assert kernel in ([[1, -1]], [[-1, 1]])
    assert intlinalg.solve_integer(A, [1, 3]) is None


def test_solve_integer_infeasible():
    assert intlinalg.solve_integer([[2, 0], [0, 2]], [1, 0]) is None


def test_matrix_inverse_and_det():
    M = [[1, 2], [3, 5]]
    inv = intlinalg.mat_inverse(M)
    assert mat_mul(M, inv) == intlinalg.identity(2, Fraction(1))
    assert intlinalg.det(M) == -1


def test_integer_normal():
    n = intlinalg.integer_normal([(1, 1)])
    assert sum(a * b for a, b in zip(n, (1, 1))) == 0
    n2 = intlinalg.integer_normal([(2, 4)])
    assert sum(a * b for a, b in zip(n2, (2, 4))) == 0
    from math import gcd
    assert gcd(*[abs(x) for x in n2]) == 1


def test_row_lattice_membership():
    M = [[1, 1], [1, -1]]
    assert lattice_contains(M, (2, 0))
    assert not lattice_contains(M, (1, 0))


def leibniz_det(M):
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(M[i][perm[i]]
                                                for i in range(n))
    return total


def minor_rank(M):
    """The largest size of a nonzero minor."""
    m, n = len(M), len(M[0])
    for r in range(min(m, n), 0, -1):
        for rows in combinations(range(m), r):
            for cols in combinations(range(n), r):
                if leibniz_det([[M[i][j] for j in cols] for i in rows]):
                    return r
    return 0


# entries in -2..2 make singular and rank-deficient matrices common
def int_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: int_matrices(n, n)))
def test_det_matches_leibniz(M):
    assert intlinalg.det(M) == leibniz_det(M)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda mn: int_matrices(*mn)))
def test_rank_matches_nonzero_minors(M):
    assert intlinalg.rank(M) == minor_rank(M)


@pytest.mark.parametrize("call, start", [
    (lambda: intlinalg.mat_inverse([[1, 2], [2, 4]]), "matrix is singular"),
    (lambda: intlinalg.integer_normal([[1, 0, 0]]), "expected r-1 rows"),
    (lambda: intlinalg.integer_normal([[1, 2, 3], [2, 4, 6]]),
     "rows are linearly dependent"),
], ids=["singular_inverse", "normal_row_count", "normal_dependent_rows"])
def test_intlinalg_refusals(call, start):
    with pytest.raises(ValueError, match=f"^{re.escape(start)}"):
        call()
