import cmath
import itertools
import math
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.ctx_mp import MPContext

import latticesums.oracle as oracle
import latticesums.scalar as scalar
from latticesums.families import a2_directions, hurwitz_a1, triangle
from latticesums.genfun import WeightVector, lattice_sum_value
from latticesums.intlinalg import rank
from latticesums.lattice import (Arrangement, Functional, GaussianRational,
                                 make_functional)
from latticesums.oracle import (TruncationWindow, _window_sums,
                                constrained_points, convergence_scan,
                                truncated_sum)
from reference import functional_value

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
    # errors against the exact value decrease monotonically and stay under
    # the C * log(N)^2 / N envelope fitted at the first window
    import math
    rep = lattice_sum_value(triangle_rational, generic_y2, (2, 2, 2))
    rows = convergence_scan(triangle_rational, (2, 2, 2), generic_y2,
                            [100, 200, 400], target=rep.value)
    errs = [r["err"] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    # the envelope fitted at the first window bounds the later ones
    c_fit = errs[0] * 100 / math.log(100) ** 2
    assert all(e <= c_fit * math.log(n) ** 2 / n
               for e, n in zip(errs[1:], (200, 400)))


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
    # precision 53 takes float64, the rows of the box from tables of each
    # functional, and precision 80 exact integers, the points one by one
    arr = a2_directions()
    k, window = WeightVector.make((2, 2, 2)), TruncationWindow(25)
    zf = truncated_sum(arr, k, generic_y2, window, precision=53)
    zi = truncated_sum(arr, k, generic_y2, window, precision=80)
    assert abs(complex(zf) - complex(zi)) < 1e-12


def test_vectorized_and_pointwise_paths_agree_on_a_gaussian_constant(
        generic_y2):
    # both paths read the constant 1/2 + i/3 exactly: float64 rounds f(v)
    # from its exact parts, the integer path keeps them
    arr = Arrangement(2, [
        make_functional((1, 0), (Fraction(1, 2), Fraction(1, 3))),
        make_functional((0, 1), Fraction(1, 3)),
        make_functional((1, 1), Fraction(1, 5))])
    k, window = WeightVector.make((2, 2, 2)), TruncationWindow(25)
    zf = truncated_sum(arr, k, generic_y2, window, precision=53)
    zi = complex(truncated_sum(arr, k, generic_y2, window, precision=80))
    assert zi.imag and abs(complex(zf) - zi) < 1e-12 * abs(zi)


def test_convergence_scan_reads_an_mpmath_target_at_its_precision():
    # a 128-bit numeric target used to be rounded to a double first, and
    # err at N = 2000 read 1.147e-17 against it and 1.248e-17 against the
    # exact value
    arr, y, k = hurwitz_a1(1), (Fraction(0),), (2, 2, 2)
    exact = lattice_sum_value(arr, y, k).value
    numeric = lattice_sum_value(arr, y, k, mode="numeric",
                                precision=128).value
    Ns = [1000, 2000]
    for got, want in zip(
            convergence_scan(arr, k, y, Ns, precision=128, target=numeric),
            convergence_scan(arr, k, y, Ns, precision=128, target=exact)):
        assert abs(got["err"] - want["err"]) <= 1e-30


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


def _exact_parts(c):
    """A Fraction, GaussianRational or float constant as the pair of its
    parts, each a Fraction; a float at its binary value."""
    if isinstance(c, GaussianRational):
        return c.re, c.im
    if isinstance(c, Fraction):
        return c, Fraction(0)
    return Fraction(c.real), Fraction(c.imag)


def _exact_reference(arr, k, y, window):
    """The signed sum of the exactly computed terms: one pair of Fractions
    per phase <y, v> mod 1, each term 1/den = conj(den) / |den|^2 for a
    Gaussian den, and each pair met with its root of unity at 400 bits.
    Float constants and shifts are read at their binary value."""
    classes = defaultdict(lambda: [Fraction(0), Fraction(0)])
    yq = [Fraction(v) for v in y]
    for v in constrained_points(arr, k, window):
        re, im = Fraction(1), Fraction(0)
        for f, kf in zip(arr.functionals, k.weights):
            a, b = _exact_parts(f.constant)
            a += sum(d * x for d, x in zip(f.direction, v))
            for _ in range(kf):
                re, im = re * a - im * b, re * b + im * a
        norm = re * re + im * im
        parts = classes[sum(a * b for a, b in zip(yq, v)) % 1]
        parts[0] += re / norm
        parts[1] -= im / norm
    ctx = MPContext()
    ctx.prec = 400
    total = ctx.mpc(0)
    for phase, (re, im) in classes.items():
        total += ctx.expjpi(2 * ctx.mpf(phase.numerator) / phase.denominator) \
            * ctx.mpc(ctx.mpf(re.numerator) / re.denominator,
                      ctx.mpf(im.numerator) / im.denominator)
    return ctx, (-1) ** len(k.zero_set()) * total


def _bound(arr, k, n, P, ctx):
    """The documented error of n points rounded at 2^-P, with a spare
    point for the final combination: n 2^-(P+1) in each part of every
    bucket, so in modulus with a Gaussian constant sqrt(2) times that."""
    gaussian = any(kf and _exact_parts(f.constant)[1]
                   for f, kf in zip(arr.functionals, k.weights))
    return (n + 1) * ctx.mpf(2) ** -(P + 1) * (ctx.sqrt(2) if gaussian else 1)


@st.composite
def rational_lattice_sums(draw):
    """A rank-1 or rank-2 arrangement of one to three functionals with
    rational constants (integral ones included) or Gaussian-rational ones,
    weights 0-2, a rational or float shift that is often 0, a window
    1 <= N <= 9 and a precision."""
    r = draw(st.sampled_from([1, 2]))
    entries = st.integers(-2, 2)
    directions = draw(st.lists(
        st.tuples(*[entries] * r).filter(any), min_size=r, max_size=3))
    assume(rank([list(d) for d in directions]) == r)
    rationals = st.builds(Fraction, st.integers(-6, 6),
                          st.sampled_from([1, 2, 3, 6]))
    constants = draw(st.lists(
        st.one_of(rationals, st.builds(
            GaussianRational, rationals,
            rationals.filter(lambda im: im != 0))),
        min_size=len(directions), max_size=len(directions)))
    arr = Arrangement(r, [make_functional(d, c)
                          for d, c in zip(directions, constants)])
    k = WeightVector.make(draw(st.lists(
        st.integers(0, 2), min_size=arr.size, max_size=arr.size)))
    y = tuple(draw(st.lists(st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(1, 11), st.integers(2, 12)),
        st.builds(lambda a, b: a / b, st.integers(1, 11),
                  st.integers(2, 12))),
        min_size=r, max_size=r)))
    return arr, k, y, draw(st.integers(1, 9)), \
        draw(st.sampled_from([60, 113, 200]))


@settings(max_examples=80, deadline=None)
@given(rational_lattice_sums(), st.sets(st.integers(1, 9), max_size=3))
def test_integer_path_matches_exact_terms(case, others):
    # the contract is 2^-precision; each part of each of the n points is
    # rounded to the nearest multiple of 2^-P, with P as in truncated_sum,
    # so each part of the buckets is off by at most n 2^-(P+1), and the
    # final combination by under 2^-(P+4).  A scan fixes P from its
    # largest window, and each of its windows keeps that bound
    arr, k, y, N, precision = case

    def assert_within_bound(z, window, largest):
        ctx, ref = _exact_reference(arr, k, y, window)
        err = abs(ctx.mpc(z) - ref)
        assert err <= ctx.mpf(2) ** -precision
        n = len(list(constrained_points(arr, k, window)))
        P = max(precision, 53) + 24 \
            + ((2 * largest + 1) ** arr.rank).bit_length() + 1
        assert err <= _bound(arr, k, n, P, ctx)

    window = TruncationWindow(N)
    assert_within_bound(truncated_sum(arr, k, y, window, precision), window,
                        N)
    Ns = sorted(others | {N})
    for M, z in zip(Ns, _window_sums(arr, k, y, Ns, precision)):
        assert_within_bound(z, TruncationWindow(M), Ns[-1])


@st.composite
def float_path_sums(draw):
    """A rank-2 arrangement of two to four functionals with direction
    entries in -2..2, weights 1-3, and each constant integral with its
    zero set crossing the window, Gaussian rational, 2^-60 or rational; a
    shift of 0, of a small denominator, of a denominator above 2 N + 1, or
    of floats; and a window 1 <= N <= 8."""
    N = draw(st.integers(1, 8))
    entries = st.integers(-2, 2)
    directions = draw(st.lists(st.tuples(entries, entries).filter(any),
                               min_size=2, max_size=4))
    assume(rank([list(d) for d in directions]) == 2)
    rationals = st.builds(Fraction, st.integers(-6, 6),
                          st.sampled_from([2, 3, 5, 6]))
    inside = st.tuples(st.integers(-N, N), st.integers(-N, N))
    functionals = []
    for d in directions:
        c = draw(st.one_of(
            inside.map(lambda v, d=d: -(d[0] * v[0] + d[1] * v[1])),
            st.builds(GaussianRational, rationals,
                      rationals.filter(lambda im: im != 0)),
            st.just(Fraction(1, 2**60)), rationals))
        functionals.append(make_functional(d, c))
    arr = Arrangement(2, functionals)
    k = WeightVector.make(draw(st.lists(
        st.integers(1, 3), min_size=arr.size, max_size=arr.size)))
    shift = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(1, 11), st.integers(2, 12)),
        st.builds(Fraction, st.integers(1, 40),
                  st.integers(2 * N + 2, 2 * N + 40)),
        st.builds(lambda a, b: a / b, st.integers(1, 11),
                  st.integers(2, 12)))
    y = (draw(shift), draw(shift))
    return arr, k, y, N


@settings(max_examples=120, deadline=None)
@given(float_path_sums())
def test_float_path_matches_the_integer_path(case):
    # relative to the sum of the |terms|, the scale of a sum's rounding:
    # a sum that cancels to 0, such as that of 1/(v_0 v_1), has no
    # relative error of its own
    arr, k, y, N = case
    window = TruncationWindow(N)
    floats = truncated_sum(arr, k, y, window, precision=53)
    ints = complex(truncated_sum(arr, k, y, window, precision=80))
    scale = sum(1 / abs(math.prod(complex(functional_value(f, v)) ** kf
                                  for f, kf in zip(arr.functionals,
                                                   k.weights)))
                for v in constrained_points(arr, k, window))
    assert abs(floats - ints) <= 1e-12 * scale


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
    # through the functionals' values, in the same order
    k = WeightVector.make(weights)
    N = 4
    want = [v for v in itertools.product(range(-N, N + 1), repeat=2)
            if all(_vanishes(functional_value(f, v)) == (kf == 0)
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


def test_float_path_reads_large_direction_entries_exactly():
    # <d_0, v> passes 2^63 and c_0 is -(2^63 + 1): at v_0 = 2, f_0(v) is
    # v_1 - 1, and the terms of that row make the sum; int64 arithmetic
    # wrapped them away (5.6e-36 - 4.9e-37i), and a table spanning every
    # <d_0, v> of the window would hold over 2^64 entries
    arr = Arrangement(2, [make_functional((2**62, 1), -(2**63 + 1)),
                          make_functional((0, 1), Fraction(1, 3)),
                          make_functional((1, 1), Fraction(1, 5))])
    y = (Fraction(1, 7), Fraction(2, 11))
    window = TruncationWindow(3)
    floats = truncated_sum(arr, (2, 2, 2), y, window, precision=53)
    ints = complex(truncated_sum(arr, (2, 2, 2), y, window, precision=80))
    assert abs(ints - (0.7725 + 1.5570j)) < 1e-4
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
    assert list(constrained_points(near, zero_weight,
                                   TruncationWindow(3))) == []
    assert [v[0] for v in constrained_points(on, zero_weight,
                                             TruncationWindow(3))] == [2] * 7


# -- one walk per scan ------------------------------------------------------

def _rows_window_by_window(arr, k, y, Ns, precision, target):
    """The scan table with each window summed from scratch by
    truncated_sum, its rows built as convergence_scan builds them."""
    ctx = MPContext()
    ctx.prec = max(precision, 53) + 24
    rows, prev = [], None
    for N in Ns:
        z = ctx.mpc(truncated_sum(arr, k, y, TruncationWindow(N), precision))
        row = {"N": N, "re": float(z.real), "im": float(z.imag),
               "diff_prev": float(abs(z - prev)) if prev is not None
               else None}
        if target is not None:
            row["err"] = float(abs(z - ctx.mpc(target)))
        rows.append(row)
        prev = z
    return rows


FLOATY2 = Arrangement(2, [Functional((1, 0), complex(0.3)),
                          make_functional((0, 1), Fraction(1, 3)),
                          Functional((1, 1), complex(0.1, 0.2))])
FLOATY1 = Arrangement(1, [Functional((1,), complex(0.25)),
                          make_functional((2,), Fraction(1, 3))])
Y2 = (Fraction(1, 7), Fraction(2, 11))

# (arrangement, k, y, precision) on the float64 path (rank 2, no zero
# weight, precision <= 53)
EXACT_ROW_PATHS = {
    "float64": (triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
                (2, 2, 2), Y2, 53),
    "float64 float constants": (FLOATY2, (2, 1, 2), (0.1, 0.25), 53),
}
SCANS = [[3, 7, 12, 20], [5], []]


@pytest.mark.parametrize("Ns", SCANS, ids=["four", "single", "empty"])
@pytest.mark.parametrize("path", sorted(EXACT_ROW_PATHS))
def test_scan_rows_equal_window_by_window_rows(path, Ns):
    # on the float64 path a window's sum read off the one walk is the one
    # its own truncated_sum makes: every row byte-equal
    arr, k, y, precision = EXACT_ROW_PATHS[path]
    for target in (None, 1.5 - 0.5j):
        got = convergence_scan(arr, k, y, Ns, precision, target=target)
        want = _rows_window_by_window(arr, k, y, Ns, precision, target)
        assert repr(got) == repr(want)


def test_scan_rows_do_not_depend_on_scans_at_other_precisions(monkeypatch):
    # the oracle reads the shared context of each precision and never sets
    # one's precision: rows made after scans at 64 and 256 bits are
    # bitwise the rows made before them, and a repeated scan makes no
    # context
    cases = [(triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
              (2, 2, 2), Y2, precision) for precision in (53, 80)]
    cases.append((FLOATY1, (2, 1), (Fraction(1, 5),), 128))

    def scans():
        return [repr(convergence_scan(arr, k, y, [3, 7, 12], precision,
                                      target=1.5 - 0.5j))
                for arr, k, y, precision in cases]

    before = scans()
    for arr, k, y, _ in cases:
        for precision in (64, 256):
            convergence_scan(arr, k, y, [3, 7, 12], precision, target=0.25)
    assert scans() == before
    made = []
    init = MPContext.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MPContext, "__init__", counted)
    assert scans() == before and not made
    assert all(ctx.prec == prec for prec, ctx in scalar._CONTEXTS.items())


def test_integer_sums_share_a_few_contexts(monkeypatch):
    # the integer path combines its buckets at a precision that the data
    # set, rounded up to a multiple of 64 bits: 80 sums over 40 windows
    # and two arrangements ask for at most two contexts, where the exact
    # bit counts asked for 16, each kept for the life of the process
    asked = []
    real = oracle._context

    def recorded(precision):
        asked.append(precision)
        return real(precision)

    monkeypatch.setattr(oracle, "_context", recorded)
    before = len(scalar._CONTEXTS)
    for N in range(1, 41):
        truncated_sum(triangle(Fraction(1, 2), Fraction(1, 3),
                               Fraction(1, 5)),
                      (2, 2, 2), Y2, TruncationWindow(N), 80)
        truncated_sum(hurwitz_a1(1), (2, 2, 2), (Fraction(1, 3),),
                      TruncationWindow(10 * N), 128)
    assert len(asked) == 80
    assert all(p % 64 == 0 for p in asked)
    assert len(set(asked)) <= 2
    assert len(scalar._CONTEXTS) - before <= 2


# (arrangement, k, y, precision) on the integer path; float and
# Gaussian constants, and float shifts, in rank 1, rank 2 and on a
# zero-weight constraint
INTEGER_PATHS = {
    "float constants rank 1": (FLOATY1, (2, 1), (Fraction(1, 5),), 53),
    "float constants rank 2": (FLOATY2, (2, 1, 2), Y2, 60),
    "float shift": (FLOATY2, (2, 1, 2), (0.1, 0.25), 60),
    "Gaussian zero weight": (MIXED, (0, 1, 1, 1, 1, 1, 1), Y2, 53),
    "rank 1": (hurwitz_a1(1), (2, 2, 2), (Fraction(1, 3),), 53),
    "rank 2": (triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
               (2, 2, 2), Y2, 54),
    "zero weight": (Arrangement(2, [make_functional((1, -1), 0),
                                    make_functional((0, 1), Fraction(1, 3)),
                                    make_functional((1, 1), Fraction(1, 5))]),
                    (0, 2, 2), Y2, 80),
}


@pytest.mark.parametrize("Ns", SCANS, ids=["four", "single", "empty"])
@pytest.mark.parametrize("path", sorted(INTEGER_PATHS))
def test_integer_scan_is_within_the_bound_of_every_window(path, Ns):
    # P is fixed from the largest window, so each part of each window's
    # n points is off by at most n 2^-(P+1), and the combination by under
    # 2^-(P+4)
    arr, k, y, precision = INTEGER_PATHS[path]
    k = WeightVector.make(k)
    sums = _window_sums(arr, k, y, Ns, precision)
    assert len(sums) == len(Ns)
    if not Ns:
        assert convergence_scan(arr, k, y, Ns, precision) == []
        return
    P = max(precision, 53) + 24 \
        + ((2 * Ns[-1] + 1) ** arr.rank).bit_length() + 1
    for N, z in zip(Ns, sums):
        window = TruncationWindow(N)
        ctx, ref = _exact_reference(arr, k, y, window)
        n = len(list(constrained_points(arr, k, window)))
        assert abs(ctx.mpc(z) - ref) <= _bound(arr, k, n, P, ctx)
    # the largest window's sum is its truncated_sum, to the byte
    assert repr(sums[-1]) == repr(truncated_sum(arr, k, y,
                                                TruncationWindow(Ns[-1]),
                                                precision))
    got = convergence_scan(arr, k, y, Ns, precision, target=0.25)
    want = _rows_window_by_window(arr, k, y, Ns, precision, 0.25)
    for a, b in zip(got, want):
        assert a["N"] == b["N"]
        for key in ("re", "im", "diff_prev", "err"):
            if b[key] is None:
                assert a[key] is None
            else:
                assert abs(a[key] - b[key]) <= 2.0 ** -(precision + 20) \
                    * max(1.0, abs(b[key]))


# every path but float64 walks the points one by one; "pointwise" are the
# cases with float and Gaussian-rational constants
@pytest.mark.parametrize("case", [
    EXACT_ROW_PATHS["float64"], INTEGER_PATHS["float constants rank 1"],
    INTEGER_PATHS["Gaussian zero weight"], INTEGER_PATHS["rank 1"],
    INTEGER_PATHS["zero weight"]],
    ids=["float64", "pointwise", "pointwise zero weight", "integer",
         "integer zero weight"])
def test_scan_walks_the_largest_window_once(case, monkeypatch):
    arr, k, y, precision = case

    def refuse(*args, **kwargs):
        raise AssertionError("a scan summed a window on its own")

    walks = []
    real = oracle.constrained_points

    def counted(arr, k, window):
        walks.append(window.N)
        return real(arr, k, window)

    monkeypatch.setattr(oracle, "truncated_sum", refuse)
    monkeypatch.setattr(oracle, "constrained_points", counted)
    rows = convergence_scan(arr, k, y, [2, 4, 8], precision)
    assert [row["N"] for row in rows] == [2, 4, 8]
    # the float64 path walks the box itself, row by row
    assert walks == ([] if precision <= 53 and arr.rank == 2
                     and all(k) else [8])


def test_integer_path_with_a_large_direction_coefficient():
    # <d, v> spans 100 N + 1 values, of which the walk meets 2 N + 1
    arr = Arrangement(1, [make_functional((50,), Fraction(1, 3)),
                          make_functional((3,), Fraction(-2, 5))])
    k, y = WeightVector.make((2, 1)), (Fraction(1, 7),)
    Ns = [40, 2000]
    P = 60 + 24 + (2 * Ns[-1] + 1).bit_length() + 1
    for N, z in zip(Ns, _window_sums(arr, k, y, Ns, 60)):
        window = TruncationWindow(N)
        ctx, ref = _exact_reference(arr, k, y, window)
        assert abs(ctx.mpc(z) - ref) <= (2 * N + 2) * ctx.mpf(2) ** -(P + 1)


@pytest.mark.parametrize("precision", [54, 128])
def test_integer_path_bound_is_relative_to_the_largest_term(precision,
                                                            monkeypatch):
    # every term is below 3e-38: a rounding unit 2^-P with P set from the
    # precision and N only reads the sum as exactly 0 at 54 bits and to
    # 1e-11 relative at 128, so the walk is made once more with P raised
    # past the largest term
    arr = triangle(10 ** 20, Fraction(1, 3), Fraction(1, 5))
    k = WeightVector.make((2, 2, 2))
    y = (Fraction(1, 7), Fraction(2, 11))
    window = TruncationWindow(5)
    walks = []
    real = oracle.constrained_points

    def counted(arr, k, window):
        walks.append(window.N)
        return real(arr, k, window)

    monkeypatch.setattr(oracle, "constrained_points", counted)
    z = truncated_sum(arr, k, y, window, precision)
    assert walks == [5, 5]
    monkeypatch.undo()
    ctx, ref = _exact_reference(arr, k, y, window)
    largest = max(1 / abs(math.prod(functional_value(f, v) ** kf for f, kf
                                    in zip(arr.functionals, k.weights)))
                  for v in constrained_points(arr, k, window))
    largest = ctx.mpf(largest.numerator) / largest.denominator
    assert abs(ctx.mpc(z) - ref) <= ctx.mpf(2) ** -(precision + 1) * largest
