"""Randomized cross-checks on arrangements outside the bundled families.

A fixed seed drives random small rank-two arrangements (mixed directions
with nontrivial coset groups, random rational constants and shifts); every
case is checked end-to-end: the exact evaluator against the brute-force
oracle, the polytope reconstruction against the direct series, and the
removal operators against the sub-arrangement.
"""

import random
from fractions import Fraction

import pytest
from mpmath.ctx_mp import MPContext

from latticesums import intlinalg
from latticesums.errors import NotSimple
from latticesums.genfun import (EvaluationContext, generating_function,
                                lattice_sum_value)
from latticesums.hierarchy import check_hierarchy
from latticesums.lattice import Arrangement, in_singular_locus, \
    make_functional
from latticesums.oracle import TruncationWindow, truncated_sum
from latticesums.polytope import genfun_via_polytopes

CTX = MPContext()
CTX.prec = 96

DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 2)]


def random_arrangement(rng, size):
    while True:
        dirs = rng.sample(DIRECTIONS, size)
        if intlinalg.rank(dirs) != 2:
            continue
        fs = []
        for d in dirs:
            c = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3, 4]))
            fs.append(make_functional(d, c))
        return Arrangement(2, fs)


def random_shift(rng):
    return (Fraction(rng.randint(-15, 15), rng.choice([7, 11, 13])),
            Fraction(rng.randint(-15, 15), rng.choice([7, 11, 13])))


def test_random_arrangements_match_oracle():
    rng = random.Random(20240)
    checked = 0
    for _ in range(8):
        arr = random_arrangement(rng, 3)
        y = random_shift(rng)
        k = tuple(rng.choice([2, 2, 3]) for _ in range(3))
        rep = lattice_sum_value(arr, y, k)
        want = complex(rep.value.embed(CTX))
        got = complex(truncated_sum(arr, k, y, TruncationWindow(200)))
        assert abs(got - want) < 5e-3, (arr, y, k, got, want)
        checked += 1
    assert checked == 8


def test_random_arrangements_polytope_route():
    rng = random.Random(777)
    checked = 0
    while checked < 6:
        arr = random_arrangement(rng, 3)
        y = random_shift(rng)
        if in_singular_locus(y, arr):
            continue
        ctx = EvaluationContext(arr, y, "exact")
        f1 = generating_function(arr, y, 3, ctx=ctx)
        f2 = genfun_via_polytopes(arr, y, 3, ctx=ctx)
        exps = set(f1.terms) | set(f2.terms)
        assert all(f1.coefficient(e) == f2.coefficient(e) for e in exps)
        checked += 1


def test_random_arrangements_hierarchy():
    rng = random.Random(4242)
    checked = 0
    while checked < 6:
        arr = random_arrangement(rng, 4)
        y = random_shift(rng)
        removable = [g for g in range(4)
                     if intlinalg.rank([arr.functionals[i].direction
                                        for i in range(4) if i != g]) == 2]
        if not removable:
            continue
        g = rng.choice(removable)
        keep = [i for i in range(4) if i != g]
        rep = check_hierarchy(arr, keep, y, 3)
        assert rep["max_discrepancy"] == 0
        assert rep["stray_variable_terms"] == 0
        checked += 1


def test_random_coset_heavy_basis_oracle():
    # forced index-> >1 bases: directions with determinant 3 and 5 pairs
    arr = Arrangement(2, [make_functional((2, 1), Fraction(1, 2)),
                          make_functional((1, 2), Fraction(1, 3)),
                          make_functional((1, -1), 0)])
    assert any(b.index > 1 for b in arr.bases)
    y = (Fraction(1, 7), Fraction(1, 11))
    rep = lattice_sum_value(arr, y, (2, 2, 2))
    want = complex(rep.value.embed(CTX))
    got = complex(truncated_sum(arr, (2, 2, 2), y, TruncationWindow(300)))
    assert abs(got - want) < 1e-3


def test_random_arrangements_exact_matches_numeric():
    # the exact integer arithmetic against mpmath, which it shares nothing
    # with: numeric mode at 128 bits, the exact value embedded at 192 bits
    ctx = MPContext()
    ctx.prec = 192
    rng = random.Random(9090)
    for _ in range(4):
        arr = random_arrangement(rng, 3)
        y = random_shift(rng)
        k = tuple(rng.choice([2, 2, 3]) for _ in range(3))
        want = lattice_sum_value(arr, y, k).value.embed(ctx)
        got = lattice_sum_value(arr, y, k, mode="numeric",
                                precision=128).value
        assert abs(ctx.mpc(got) - want) < 2.0 ** -64 * abs(want), \
            (arr, y, k, got, want)
