import cmath
import itertools
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from latticesums.families import a2_directions, hurwitz_a1, triangle
from latticesums.genfun import WeightVector, lattice_sum_value
from latticesums.intlinalg import rank
from latticesums.lattice import (Arrangement, Functional, GaussianRational,
                                 make_functional)
from latticesums.oracle import (TruncationWindow, _sum_pointwise,
                                constrained_points, convergence_scan,
                                truncated_sum)

CTX = MPContext()
CTX.prec = 128


def test_constrained_points_nonintegral_constant_empty():
    arr = Arrangement(2, [make_functional((1, 0), Fraction(1, 2)),
                          make_functional((0, 1), 0)])
    pts = list(constrained_points(arr, WeightVector.make((0, 2)),
                                  TruncationWindow(3)))
    assert pts == []


def test_constrained_points_zero_slice():
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0)])
    pts = list(constrained_points(arr, WeightVector.make((0, 2)),
                                  TruncationWindow(2)))
    assert pts == [(0, -2), (0, -1), (0, 1), (0, 2)]


def test_constrained_points_direct_filter():
    arr = hurwitz_a1(1)
    pts = list(constrained_points(arr, WeightVector.make((2, 2, 2)),
                                  TruncationWindow(3)))
    assert pts == [(-3,), (-2,), (2,), (3,)]


def test_truncated_sum_empty_is_zero():
    arr = Arrangement(2, [make_functional((1, 0), Fraction(1, 2)),
                          make_functional((0, 1), 0)])
    z = truncated_sum(arr, (0, 2), (Fraction(0), Fraction(0)),
                      TruncationWindow(4))
    assert complex(z) == 0


def test_oracle_matches_reference_value():
    arr = hurwitz_a1(1)
    z = truncated_sum(arr, (2, 2, 2), (Fraction(0),), TruncationWindow(2000),
                      precision=80)
    want = cmath.pi**2 / 2 - Fraction(39, 8)
    assert abs(complex(z) - want) < 1e-3
    assert abs(complex(z) - want) < 1e-12  # the decay is in fact N^-5


def test_weight_one_slow_convergence():
    arr = Arrangement(1, [make_functional((1,), 0)])
    z = truncated_sum(arr, (1,), (Fraction(1, 4),), TruncationWindow(10_000),
                      precision=80)
    target = 1j * cmath.pi / 2  # -2 pi i (1/4 - 1/2)
    assert abs(complex(z) - target) < 1e-2


def test_symmetry_real_for_symmetric_arrangement():
    arr = hurwitz_a1(2)
    z = truncated_sum(arr, (2, 2, 2), (Fraction(0),), TruncationWindow(500),
                      precision=96)
    assert abs(complex(z).imag) < 2.0 ** (-96 + 12)


def test_sign_convention_redundant_zero_weight():
    # adding a duplicate direction with an implied constraint flips the sign
    base = Arrangement(2, [make_functional((1, 0), 0),
                           make_functional((0, 1), 0)])
    doubled = Arrangement(2, [make_functional((1, 0), 0),
                              make_functional((2, 0), 0),
                              make_functional((0, 1), 0)])
    zb = truncated_sum(base, (0, 2), (Fraction(0), Fraction(0)),
                       TruncationWindow(50))
    zd = truncated_sum(doubled, (0, 0, 2), (Fraction(0), Fraction(0)),
                       TruncationWindow(50))
    assert abs(complex(zb) + complex(zd)) < 1e-12


def test_convergence_scan_monotone_envelope(a1_alpha1):
    rep = lattice_sum_value(a1_alpha1, (Fraction(0),), (2, 2, 2))
    rows = convergence_scan(a1_alpha1, (2, 2, 2), (Fraction(0),),
                            [100, 200, 400, 800], precision=96,
                            target=rep.value)
    errs = [r["err"] for r in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # roughly N^-1-or-better decay for weights >= 2
    assert errs[-1] < errs[0] / 8


def test_oracle_equivalence_envelope_rank2(triangle_rational, generic_y2):
    # errors against the exact value stay under a fitted C * log(N)^2 / N
    # envelope and decrease monotonically
    import math
    rep = lattice_sum_value(triangle_rational, generic_y2, (2, 2, 2))
    rows = convergence_scan(triangle_rational, (2, 2, 2), generic_y2,
                            [100, 200, 400], target=rep.value)
    errs = [r["err"] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    c_fit = max(e * n / math.log(n) ** 2
                for e, n in zip(errs, (100, 200, 400)))
    assert all(e <= c_fit * math.log(n) ** 2 / n
               for e, n in zip(errs, (100, 200, 400)))


def test_convergence_scan_rejects_unordered(a1_alpha1):
    with pytest.raises(ValueError):
        convergence_scan(a1_alpha1, (2, 2, 2), (Fraction(0),), [100, 100])


def test_constant_arrangement_constrained_single_point():
    # zero-weight constraints force a single lattice point: differences 0
    arr = Arrangement(2, [make_functional((1, 0), 3),
                          make_functional((0, 1), -2),
                          make_functional((1, 1), 0)])
    rows = convergence_scan(arr, (0, 0, 2), (Fraction(0), Fraction(0)),
                            [5, 10, 20])
    assert rows[1]["diff_prev"] == 0 and rows[2]["diff_prev"] == 0


def test_vectorized_and_pointwise_paths_agree(generic_y2):
    # precision 53 takes numpy float64 and precision 80 exact integers;
    # mpmath point by point is called directly
    arr = a2_directions()
    k, window = WeightVector.make((2, 2, 2)), TruncationWindow(25)
    zf = truncated_sum(arr, k, generic_y2, window, precision=53)
    zi = truncated_sum(arr, k, generic_y2, window, precision=80)
    zp = _sum_pointwise(arr, k, generic_y2, window, 80)
    assert abs(complex(zf) - complex(zi)) < 1e-12
    assert abs(zi - zp) < 2.0 ** -90


def test_pointwise_sum_keeps_rational_constants_exact(triangle_rational):
    # reference: each term at 400 bits from exact rational data
    ref_ctx = MPContext()
    ref_ctx.prec = 400
    y = (Fraction(1, 7), Fraction(2, 11))
    k = WeightVector.make((2, 2, 2))
    window = TruncationWindow(10)
    ref = ref_ctx.mpc(0)
    for v in constrained_points(triangle_rational, k, window):
        phase = sum(a * b for a, b in zip(y, v))
        den = Fraction(1)
        for f in triangle_rational.functionals:
            den *= f.evaluate_int(v) ** 2
        ref += ref_ctx.expjpi(2 * ref_ctx.mpf(phase.numerator)
                              / phase.denominator) \
            / (ref_ctx.mpf(den.numerator) / den.denominator)
    got = truncated_sum(triangle_rational, k, y, window, precision=113)
    assert abs(ref_ctx.mpc(got) - ref) < 1e-25
    pointwise = _sum_pointwise(triangle_rational, k, y, window, 113)
    assert abs(ref_ctx.mpc(pointwise) - ref) < 1e-25


@pytest.mark.parametrize("k, y, message", [
    ((2, 2), (Fraction(0),), "one weight per functional"),
    ((2, 2, 2, 2), (Fraction(0),), "one weight per functional"),
    ((2, 2, 2), (Fraction(0), Fraction(1, 7)), "one entry per dimension"),
    ((2, 2, 2), (), "one entry per dimension"),
])
def test_oracle_rejects_weights_and_shifts_of_the_wrong_length(
        a1_alpha1, k, y, message):
    # two weights used to sum over two of the three functionals, and four
    # to raise a bare IndexError
    with pytest.raises(ValueError, match=message):
        truncated_sum(a1_alpha1, k, y, TruncationWindow(10))
    with pytest.raises(ValueError, match=message):
        convergence_scan(a1_alpha1, k, y, [5, 10, 20])


def test_rank2_oracle_rejects_a_short_shift(triangle_rational):
    # one shift entry on a rank-two arrangement used to return a number
    with pytest.raises(ValueError, match="one entry per dimension"):
        truncated_sum(triangle_rational, (2, 2, 2), (Fraction(1, 7),),
                      TruncationWindow(10))


def _exact_reference(arr, k, y, window):
    """The signed sum of the exactly computed terms: one Fraction per
    phase <y, v> mod 1, each met with its root of unity at 400 bits."""
    classes = defaultdict(Fraction)
    for v in constrained_points(arr, k, window):
        den = Fraction(1)
        for f, kf in zip(arr.functionals, k.weights):
            if kf:
                den *= f.evaluate_int(v) ** kf
        classes[sum(a * b for a, b in zip(y, v)) % 1] += 1 / den
    ctx = MPContext()
    ctx.prec = 400
    total = ctx.mpc(0)
    for phase, s in classes.items():
        total += ctx.expjpi(2 * ctx.mpf(phase.numerator) / phase.denominator) \
            * (ctx.mpf(s.numerator) / s.denominator)
    return ctx, (-1) ** len(k.zero_set()) * total


@st.composite
def rational_lattice_sums(draw):
    """A rank-1 or rank-2 arrangement of one to three functionals with
    rational constants (integral ones included), weights 0-2, a rational
    shift that is often 0, a window 1 <= N <= 9 and a precision."""
    r = draw(st.sampled_from([1, 2]))
    entries = st.integers(-2, 2)
    directions = draw(st.lists(
        st.tuples(*[entries] * r).filter(any), min_size=r, max_size=3))
    assume(rank([list(d) for d in directions]) == r)
    constants = draw(st.lists(
        st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6])),
        min_size=len(directions), max_size=len(directions)))
    arr = Arrangement(r, [make_functional(d, c)
                          for d, c in zip(directions, constants)])
    k = WeightVector.make(draw(st.lists(
        st.integers(0, 2), min_size=arr.size, max_size=arr.size)))
    y = tuple(draw(st.lists(st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(1, 11), st.integers(2, 12))),
        min_size=r, max_size=r)))
    return arr, k, y, draw(st.integers(1, 9)), \
        draw(st.sampled_from([60, 113, 200]))


@settings(max_examples=80, deadline=None)
@given(rational_lattice_sums())
def test_integer_path_matches_exact_terms(case):
    # the contract is 2^-precision; each of the n points is rounded to
    # the nearest multiple of 2^-P, with P as in truncated_sum, so the
    # sum is off by at most n 2^-(P+1), and the final combination by
    # under 2^-(P+4)
    arr, k, y, N, precision = case
    window = TruncationWindow(N)
    ctx, ref = _exact_reference(arr, k, y, window)
    err = abs(ctx.mpc(truncated_sum(arr, k, y, window, precision)) - ref)
    assert err <= ctx.mpf(2) ** -precision
    n = len(list(constrained_points(arr, k, window)))
    P = max(precision, 53) + 24 + ((2 * N + 1) ** arr.rank).bit_length() + 1
    assert err <= (n + 1) * ctx.mpf(2) ** -(P + 1)


def _vanishes(val) -> bool:
    if isinstance(val, GaussianRational):
        return val.re == 0 and val.im == 0
    if isinstance(val, Fraction):
        return val == 0
    return abs(val) < 1e-12


MIXED = Arrangement(2, [
    make_functional((1, 0), 2),                              # integral
    make_functional((0, 1), Fraction(1, 2)),                 # non-integral
    Functional((1, 1), GaussianRational(Fraction(-1), Fraction(0))),
    Functional((1, -1), GaussianRational(Fraction(1, 3), Fraction(1, 2))),
    Functional((2, 1), GaussianRational(Fraction(3), Fraction(0))),
    Functional((1, 2), complex(-1.0)),                       # vanishing float
    Functional((1, -2), complex(0.25, 0.5)),
])


@pytest.mark.parametrize("weights", [
    (1, 1, 1, 1, 1, 1, 1),
    (2, 3, 1, 2, 1, 2, 1),
    (0, 1, 1, 1, 1, 1, 1),   # v1 = -2
    (1, 1, 0, 1, 1, 1, 1),   # v1 + v2 = 1, a Gaussian with im = 0
    (0, 1, 0, 1, 2, 1, 1),   # the single point (-2, 3)
    (1, 1, 1, 1, 0, 1, 1),   # 2 v1 + v2 = -3
])
def test_constrained_points_match_the_definition(weights):
    # the integer zero test yields the points of the definitional filter
    # through evaluate_int, in the same order
    k = WeightVector.make(weights)
    N = 4
    want = [v for v in itertools.product(range(-N, N + 1), repeat=2)
            if all(_vanishes(f.evaluate_int(v)) == (kf == 0)
                   for f, kf in zip(MIXED.functionals, k.weights))]
    assert list(constrained_points(MIXED, k, TruncationWindow(N))) == want
    assert want


def test_constrained_points_match_the_definition_rank1():
    arr = Arrangement(1, [make_functional((1,), -3),
                          make_functional((2,), Fraction(1, 2)),
                          Functional((1,), GaussianRational(Fraction(2),
                                                            Fraction(0))),
                          Functional((3,), complex(6.0))])
    k = WeightVector.make((1, 2, 1, 1))
    want = [(x,) for x in range(-5, 6) if x not in (3, -2)]
    assert list(constrained_points(arr, k, TruncationWindow(5))) == want


def test_float64_path_keeps_a_tiny_rational_constant():
    # f_0(v) = 2^-60 at the points with <d_0, v> = 0: they are not
    # excluded, and their terms of size 2^120 dominate the sum
    arr = triangle(Fraction(1, 2**60), Fraction(1, 3), Fraction(1, 5))
    y = (Fraction(1, 7), Fraction(2, 11))
    window = TruncationWindow(20)
    floats = truncated_sum(arr, (2, 2, 2), y, window, precision=53)
    ints = complex(truncated_sum(arr, (2, 2, 2), y, window, precision=54))
    assert abs(ints) > 1e38
    assert abs(floats - ints) <= 1e-12 * abs(ints)


def test_float_constants_are_excluded_at_their_binary_value():
    # 1e-13 is within 1e-12 of the integer 0, but f(v) = v_0 + 1e-13 never
    # vanishes; -2.0 is an integer, and v_0 = 2 is excluded
    near = Arrangement(2, [Functional((1, 0), complex(1e-13)),
                           make_functional((0, 1), Fraction(1, 3))])
    on = Arrangement(2, [Functional((1, 0), complex(-2.0)),
                         make_functional((0, 1), Fraction(1, 3))])
    k = WeightVector.make((2, 2))
    pts = list(constrained_points(near, k, TruncationWindow(3)))
    assert len(pts) == 49
    pts = list(constrained_points(on, k, TruncationWindow(3)))
    assert len(pts) == 42 and all(v[0] != 2 for v in pts)
    zero_weight = WeightVector.make((0, 2))
    with pytest.warns(UserWarning, match="empty by fiat"):
        assert list(constrained_points(near, zero_weight,
                                       TruncationWindow(3))) == []
    assert [v[0] for v in constrained_points(on, zero_weight,
                                             TruncationWindow(3))] == [2] * 7
