import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from latticesums.cyclotomic import CyclotomicField, ExactScalar

CTX = MPContext()
CTX.prec = 80


@pytest.mark.parametrize("N", [1, 2, 4, 12, 60, 360, 4620])
def test_zeta_powers_embed_and_multiply(N):
    F = CyclotomicField(N)
    for j in (0, 1, 2, 3, 5, 7, N // 2, N - 1):
        z = F.zeta_pow(j)
        want = cmath.exp(2j * cmath.pi * j / N)
        assert abs(complex(z.embed(CTX)) - want) < 1e-12
    a, b = F.zeta_pow(7), F.zeta_pow(11)
    assert a * b == F.zeta_pow(18)


def test_power_relation_reduction():
    F = CyclotomicField(12)
    z = F.zeta_pow(1)
    acc = F.one()
    for _ in range(6):
        acc = acc * z
    assert acc == F.from_fraction(-1)
    z3 = F.zeta_pow(4)
    assert (F.one() + z3 + z3 * z3).is_zero()


def test_zeta_poly_roundtrip():
    F = CyclotomicField(60)
    x = F.zeta_pow(7) * Fraction(2, 3) - F.zeta_pow(31) + F.from_fraction(5)
    back = F.zero()
    for (_, e), v in x.terms.items():
        back = back + F.zeta_pow(F.zeta_exponent(e)) * Fraction(v, x.den)
    assert back == x


@pytest.mark.parametrize("N,j", [(12, 2), (12, 3), (60, 7), (4620, 7),
                                 (4620, 2310), (420, 315), (924, 616),
                                 (4620, 3696), (1260, 1)])
def test_unity_minus_one_inverse(N, j, monkeypatch):
    # c*(zeta^j - 1) inverts in closed form whatever the basis form of
    # zeta^j (at N = 420, zeta^315 - 1 is -1 - zeta^105): never by the norm
    def no_norm(self, j):
        raise AssertionError("inverted through the Galois norm")

    monkeypatch.setattr(ExactScalar, "galois", no_norm)
    F = CyclotomicField(N)
    for c in (1, Fraction(-3, 2)):
        e = (F.zeta_pow(j) - F.from_fraction(1)) * c
        assert (e.inv() * e) == F.one()


def test_generic_inverse_by_norm():
    F = CyclotomicField(60)
    g = F.zeta_pow(2) + F.zeta_pow(9) * Fraction(1, 2) + 3
    assert (g.inv() * g) == F.one()


def test_galois_is_field_automorphism():
    F = CyclotomicField(20)
    a = F.zeta_pow(3) + F.from_fraction(Fraction(1, 2))
    b = F.zeta_pow(7) - F.one()
    for j in (3, 7, 9):
        assert (a * b).galois(j) == a.galois(j) * b.galois(j)
        assert (a + b).galois(j) == a.galois(j) + b.galois(j)


@st.composite
def small_elements(draw):
    F = CyclotomicField(12)
    n = draw(st.integers(1, 3))
    out = F.zero()
    for _ in range(n):
        j = draw(st.integers(0, 11))
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 4))
        out = out + F.zeta_pow(j) * Fraction(num, den)
    return out


@settings(max_examples=60, deadline=None)
@given(small_elements(), small_elements(), small_elements())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).is_zero()
    if not a.is_zero():
        assert a.inv() * a == CyclotomicField(12).one()


@settings(max_examples=40, deadline=None)
@given(small_elements(), small_elements())
def test_embed_is_homomorphic(a, b):
    ea, eb = a.embed(CTX), b.embed(CTX)
    assert abs(complex((a * b).embed(CTX) - ea * eb)) < 1e-17
    assert abs(complex((a + b).embed(CTX) - (ea + eb))) < 1e-17


@pytest.mark.parametrize("N", [4, 12, 60, 420, 1260, 21840])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_basis_product_matches_reduction(N, data):
    # the table entry is the product of the two monomials: distinct
    # exponents, each in its basis range, with coefficients +-1, that
    # embed at 120 bits to the product of the embedded monomials
    ctx = MPContext()
    ctx.prec = 120
    F = CyclotomicField(N)
    phis = [phi for (_, _, phi, _) in F.factors]
    ea, eb = (tuple(data.draw(st.integers(0, phi - 1)) for phi in phis)
              for _ in range(2))
    terms = F.basis_product(ea, eb)
    assert len({e for e, _ in terms}) == len(terms)
    assert all(0 <= x < phi for e, _ in terms for x, phi in zip(e, phis))
    assert all(m in (1, -1) for _, m in terms)
    got = ExactScalar(F, {(0, e): m for e, m in terms}).embed(ctx)
    want = ExactScalar(F, {(0, ea): 1}).embed(ctx) * \
        ExactScalar(F, {(0, eb): 1}).embed(ctx)
    assert abs(got - want) < ctx.mpf(2) ** -110
