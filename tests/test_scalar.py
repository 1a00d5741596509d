import hashlib
import importlib.resources as resources
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (from_rational, fzero, mpf_neg, mpf_shift,
                          round_nearest)

from latticesums.errors import NonFinite, NotInvertible
from latticesums.genfun import lattice_sum_value
from latticesums.kernel import KernelParams, kernel_parts
from latticesums.lattice import GaussianRational, arrangement_from_json
from latticesums.scalar import (ExactRing, ExactScalar, NumericRing,
                                format_scalar, parse_scalar)
from reference import pi_pow, termpair_product

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
    """c * pi^k with c a nonzero rational times zeta^j: a closed-form
    inverse when zeta^j is one basis monomial, the Galois norm otherwise."""
    k = draw(st.integers(-3, 3))
    c = ring.field.zeta_pow(draw(st.integers(0, ring.N - 1)))
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


@st.composite
def unit_fractions(draw, N):
    """A rational q, not an integer, with e^{2 pi i q} in Q(zeta_N)."""
    return Fraction(draw(st.integers(1, N - 1)), N) \
        + draw(st.integers(-2, 2))


@pytest.mark.parametrize("N", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_root_minus_one_inverse(N, data):
    # both rings give 1/(e^{2 pi i q} - 1): the exact value embeds to it
    # within 2^-120 relative, and the numeric value at 128 bits lies within
    # 2^-124 (1 + |q|) |x| relative: the rounding of q, scaled by 2 pi |q|,
    # and of the root are divided by |e^{2 pi i q} - 1| = 1/|x|
    q = data.draw(unit_fractions(N))
    want = 1 / (CTX.expjpi(2 * CTX.mpf(q.numerator) / q.denominator) - 1)
    x = canonical(RINGS[N].root_minus_one_inverse(q)).embed(CTX)
    assert abs(x - want) <= 2.0 ** -120 * abs(want)
    got = NumericRing(128).root_minus_one_inverse(q)
    assert abs(got - want) <= 2.0 ** -124 * (1 + abs(q)) * abs(want) ** 2


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


@pytest.mark.parametrize("N", [6, 10])
def test_exact_ring_refuses_an_order_not_divisible_by_4(N):
    with pytest.raises(ValueError,
                       match="^cyclotomic order must be divisible by 4"):
        ExactRing(N)


TIMES_ROOT_RINGS = {N: ExactRing(N) for N in (4, 12, 60, 924)}
NR128 = NumericRing(128)


@st.composite
def _root_exponents(draw, N):
    """q = j/N + n: negative, positive and integral (j = 0) ones."""
    return Fraction(draw(st.integers(0, N - 1)), N) \
        + draw(st.integers(-2, 2))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_times_root_is_the_product_by_the_root(data):
    # x e^{2 pi i q} by moving exponents equals x times the reduced root,
    # through the general double loop, exactly (terms and denominator);
    # a root is a unit of the integral tensor basis, so the denominator
    # and the gcd of the numerators stay those of x
    N = data.draw(st.sampled_from(sorted(TIMES_ROOT_RINGS)))
    ring = TIMES_ROOT_RINGS[N]
    x = data.draw(scalars(ring))
    q = data.draw(_root_exponents(N))
    got = ring.times_root(x, q)
    want = termpair_product(x, ring.root_of_unity(q))
    assert (got.terms, got.den) == (want.terms, want.den)
    assert got == x * ring.root_of_unity(q)
    assert got.den == x.den
    assert math.gcd(*got.terms.values()) == math.gcd(*x.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.sampled_from([4, 12, 60, 924]), st.data())
def test_numeric_times_root_is_bitwise_the_product(re, im, N, data):
    x = NR128.ctx.mpc(re, im) / 7
    q = data.draw(_root_exponents(N))
    assert NR128.times_root(x, q)._mpc_ \
        == (x * NR128.root_of_unity(q))._mpc_


def test_equal_scalars_embed_equally_whatever_their_term_order(
        triangle_rational):
    # each power of pi is summed by ascending basis exponents, so that a
    # scalar and its terms in reversed order, equal, embed to the same
    # value at 53 and at 128 bits
    v = lattice_sum_value(triangle_rational,
                          (Fraction(1, 7), Fraction(2, 11)), (2, 2, 2)).value
    rev = ExactScalar(v.field, dict(reversed(list(v.terms.items()))), v.den)
    assert len(v.terms) == 42 and v == rev
    for prec in (53, 128):
        ctx = MPContext()
        ctx.prec = prec
        assert v.embed(ctx) == rev.embed(ctx)


def test_rings_of_one_precision_share_one_context():
    # the context is made once per precision and its precision is never
    # set again, so rings of other precisions leave it as it was
    a, b = NumericRing(128), NumericRing(128)
    assert a.ctx is b.ctx is NR128.ctx and a.ctx.prec == 128
    c = NumericRing(64)
    assert c.ctx is not a.ctx and c.ctx.prec == 64 and a.ctx.prec == 128


def test_numeric_value_does_not_depend_on_other_precisions(
        triangle_rational):
    # a 128-bit value made after 64- and 256-bit evaluations is bitwise
    # the one made before them
    def value(precision):
        return lattice_sum_value(triangle_rational,
                                 (Fraction(1, 7), Fraction(2, 11)),
                                 (2, 2, 2), mode="numeric",
                                 precision=precision).value

    before = value(128)._mpc_
    value(64)
    value(256)
    assert value(128)._mpc_ == before


def _lift_parts():
    """Parts (m, v, x) of one key: x of full mantissas, roots and a
    multiple of pi among them, m = 0..6, int and Gaussian-rational v."""
    ctx = NR128.ctx
    xs = [ctx.mpc(3, -5) / 7, NR128.root_of_unity(Fraction(1, 3)),
          NR128.root_of_unity(Fraction(2, 9)) * 11, ctx.mpc(0, 1) / 3,
          ctx.pi * ctx.mpc(-2, 1) / 13, ctx.mpc(1, 0) / 10**30]
    vs = [1, -7, 12345678901234567890, GaussianRational(Fraction(3),
                                                         Fraction(-2)),
          GaussianRational(Fraction(-11), Fraction(5))]
    rng = random.Random(7)
    return [(rng.randrange(7), rng.choice(vs), rng.choice(xs))
            for _ in range(24)]


def test_numeric_lift_does_not_depend_on_the_order_of_the_parts():
    # a key's parts are summed exactly on integer mantissas and rounded
    # once, so every permutation of them gives bitwise the same value
    parts = _lift_parts()
    want = NR128.unit_lift({(): parts}, 21)[()]._mpc_
    rng = random.Random(11)
    for _ in range(20):
        shuffled = parts[:]
        rng.shuffle(shuffled)
        assert NR128.unit_lift({(): shuffled}, 21)[()]._mpc_ == want
    assert NR128.unit_lift({(): parts[::-1]}, 21)[()]._mpc_ == want


@pytest.mark.parametrize("special", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_mantissa_readers_refuse_a_non_finite_scalar(special, part):
    # mpmath stores an infinity and a NaN with mantissa 0: each reader
    # raises NonFinite, where it would count them as zero
    ctx = NR128.ctx
    bad = ctx.mpc(ctx.mpf(special), 1) if part == "re" \
        else ctx.mpc(1, ctx.mpf(special))
    with pytest.raises(NonFinite):
        NR128.mantissas(bad)
    with pytest.raises(NonFinite):
        NR128.unit_lift({(): [(0, 1, NR128.one()), (1, 3, bad)]}, 5)
    params = KernelParams.make(Fraction(1, 3), Fraction(1, 5))
    with pytest.raises(NonFinite):
        kernel_parts(NR128, params, 2, [NR128.one(), bad, NR128.one()])


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**300, 2**300), st.integers(1, 2**200),
       st.integers(-300, 300), st.sampled_from([24, 53, 128]))
def test_one_rounding_of_a_mantissa_quotient_is_mpmaths(n, den, e, prec):
    # n 2^e / den rounded once, to nearest: bitwise mpmath's correctly
    # rounded quotient, for a power of two, an odd and any den
    ring = NumericRing(prec)
    for d in (den, 1 << (den.bit_length() - 1), den | 1):
        got = ring.from_mantissas(n, -n, e, d)._mpc_
        want = mpf_shift(from_rational(n, d, prec, round_nearest), e) \
            if n else fzero
        assert got == (want, mpf_neg(want))
