import hashlib
import importlib.resources as resources
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from latticesums.errors import NotInvertible
from latticesums.genfun import lattice_sum_value
from latticesums.lattice import arrangement_from_json
from latticesums.scalar import (ExactRing, ExactScalar, NumericRing,
                                format_scalar, parse_scalar)
from reference import pi_pow

CTX = MPContext()
CTX.prec = 140

R = ExactRing(12)
RINGS = {N: ExactRing(N) for N in (4, 12, 1260)}
CYCLOTOMIC_RINGS = {N: ExactRing(N) for N in (12, 60, 420, 4620)}


@st.composite
def scalars(draw, ring):
    out = ring.zero()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(-3, 3))
        j = draw(st.integers(0, ring.N - 1))
        num = draw(st.integers(-5, 5))
        den = draw(st.integers(1, 4))
        out = out + pi_pow(ring, k) \
            * ring.field.zeta_pow(j) \
            * ring.from_fraction(Fraction(num, den))
    return out


@st.composite
def pi_monomials(draw, ring):
    """c * pi^k with c a nonzero rational times zeta^j or zeta^j - 1, the
    shapes of the constants the evaluators invert."""
    k = draw(st.integers(-3, 3))
    j = draw(st.integers(0, ring.N - 1))
    c = ring.field.zeta_pow(j)
    if j and draw(st.booleans()):
        c = c - 1
    q = Fraction(draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1])),
                 draw(st.integers(1, 4)))
    return pi_pow(ring, k) * c * ring.from_fraction(q)


def canonical(x):
    """x, after checking that it is in canonical form (integer numerators
    over a positive denominator, none zero, no common factor) and that it
    survives the round trip through its terms, each rebuilt as a rational
    times zeta_N^j times pi^k."""
    assert x.den >= 1
    assert all(isinstance(v, int) and v for v in x.terms.values())
    assert math.gcd(x.den, *x.terms.values()) == 1
    field = x.field
    back = field.zero()
    for (k, e), v in x.terms.items():
        back = back + ExactScalar(field, {(k, field.zero_exps): 1}) \
            * field.zeta_pow(field.zeta_exponent(e)) * Fraction(v, x.den)
    assert back == x and hash(back) == hash(x)
    return x


@pytest.mark.parametrize("N", sorted(RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms(N, data):
    ring = RINGS[N]
    ck = canonical
    a, b, c = (ck(data.draw(scalars(ring))) for _ in range(3))
    assert ck(ck(a + b) + c) == ck(a + ck(b + c))
    left, right = ck(ck(a * b) * c), ck(a * ck(b * c))
    assert left == right and hash(left) == hash(right)
    assert ck(a * ck(b + c)) == ck(ck(a * b) + ck(a * c))
    assert ck(a - a).is_zero()
    m = ck(data.draw(pi_monomials(ring)))
    assert ck(ck(m.inv()) * m) == ring.one()
    assert ck(ck(ring.one() / m) * m) == ring.one()
    assert ck(ck(a / m) * m) == a


@pytest.mark.parametrize("N", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_embed_ring_homomorphism(N, data):
    ring = RINGS[N]
    a, b = data.draw(scalars(ring)), data.draw(scalars(ring))
    ea, eb = a.embed(CTX), b.embed(CTX)
    scale = max(1.0, abs(complex(ea))) * max(1.0, abs(complex(eb)))
    assert abs(complex((a * b).embed(CTX)) - complex(ea * eb)) \
        < 2.0 ** (-100) * scale


def test_two_pi_i():
    x = R.two_pi_i()
    assert format_scalar(x * x) == "-4*pi^2"
    assert abs(complex(x.embed(CTX)) - 2j * 3.14159265358979) < 1e-10


def test_only_pi_monomials_invert():
    with pytest.raises(NotInvertible):
        (R.one() + pi_pow(R, 1)).inv()  # 1 + pi
    with pytest.raises(NotInvertible):
        R.one() / (pi_pow(R, 2) - R.from_fraction(3))
    with pytest.raises(ZeroDivisionError):
        R.zero().inv()


@pytest.mark.parametrize("text", [
    "pi^2/2 - 39/8",
    "pi^4/40 + 35*pi^2/16 - 3075/128",
    "11*pi^6/20643840 + 21*pi^4/2097152 + 3003*pi^2/16777216 - 137067/268435456",
    "-4*pi^2",
    "0",
    "pi^-4/16 - 39*pi^-6/64",
])
def test_format_parse_roundtrip(text):
    x = parse_scalar(R, text)
    assert format_scalar(x) == text
    assert parse_scalar(R, format_scalar(x)) == x


def test_format_cyclotomic_coefficients():
    x = R.field.zeta_pow(1) * pi_pow(R, 2) \
        + R.from_fraction(1)
    s = format_scalar(x)
    assert "z" in s
    assert parse_scalar(R, s) == x


@pytest.mark.parametrize("N", sorted(CYCLOTOMIC_RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_format_parse_roundtrip_cyclotomic(N, data):
    ring = CYCLOTOMIC_RINGS[N]
    x = data.draw(scalars(ring))
    s = format_scalar(x)
    assert parse_scalar(ring, s) == x
    assert format_scalar(parse_scalar(ring, s)) == s


TRIANGLE_SHA256 = \
    "c2bf9fa9f2db30d8fb8cdd95cfd65c73ad6c43168eccd93c173fd342d653b299"


@pytest.mark.parametrize("fixture,y,N,want", [
    ("a1_alpha_half", (Fraction(1, 3),), 12,
     "-4*pi^2/9 + (-24*z^3 + -48*z^7)*pi - 128"),
    ("a1_alpha_half", (Fraction(1, 5),), 20,
     "(16/75 + -12/5*z^8 + -12/5*z^12)*pi^2 + (-24*z^13 + 24*z^17)*pi - 128"),
    # N = 4620 has five prime-power factors; its 1,003 characters are
    # pinned by their SHA-256
    ("triangle_rational", (Fraction(1, 7), Fraction(2, 11)), 4620,
     TRIANGLE_SHA256),
])
def test_cyclotomic_output_bytes(fixture, y, N, want):
    arr = arrangement_from_json(resources.files("latticesums.fixtures")
                                .joinpath(fixture + ".json").read_text())
    value = lattice_sum_value(arr, y, (2, 2, 2)).value
    assert value.field.N == N
    text = format_scalar(value)
    if want == TRIANGLE_SHA256:
        assert len(text) == 1003
        assert hashlib.sha256(text.encode()).hexdigest() == want
    else:
        assert text == want
    assert parse_scalar(ExactRing(N), text) == value


def test_embed_example_value():
    v = pi_pow(R, 2) * R.from_fraction(Fraction(1, 2)) \
        - R.from_fraction(Fraction(39, 8))
    got = complex(v.embed(CTX))
    want = 3.141592653589793**2 / 2 - 39 / 8
    assert abs(got - want) < 1e-12
    assert abs(got - 0.0598022005446) < 1e-10


def test_zeta4_is_i():
    assert abs(complex(R.field.zeta_pow(3).embed(CTX)) - 1j) \
        < 1e-15


def test_zero_is_canonical():
    a = pi_pow(R, 3) * R.field.zeta_pow(5)
    assert (a - a).is_zero()
    assert format_scalar(a - a) == "0"


def test_numeric_ring_tolerances():
    NR = NumericRing(128)
    x = NR.from_fraction(Fraction(1, 3))
    assert NR.is_zero(x - NR.from_fraction(Fraction(1, 3)))
    assert not NR.is_zero(NR.from_fraction(Fraction(1, 10**20)))
    z = NR.root_of_unity(Fraction(1, 4))
    assert abs(complex(z) - 1j) < 1e-30
