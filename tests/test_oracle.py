import cmath
from fractions import Fraction

import pytest
from mpmath.ctx_mp import MPContext

from latticesums.families import a2_directions, hurwitz_a1, triangle
from latticesums.genfun import WeightVector, lattice_sum_value
from latticesums.lattice import Arrangement, make_functional
from latticesums.oracle import (TruncationWindow, constrained_points,
                                convergence_scan, truncated_sum)

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


def test_box_shape_robustness(triangle_rational, generic_y2):
    arr = triangle_rational
    b0 = arr.bases[0]
    diffs = []
    for N in (250, 500, 1000):
        zb = complex(truncated_sum(arr, (2, 2, 2), generic_y2,
                                   TruncationWindow(N)))
        zp = complex(truncated_sum(arr, (2, 2, 2), generic_y2,
                                   TruncationWindow(N, "basis_box", b0)))
        diffs.append(abs(zb - zp))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-9


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
    arr = a2_directions()
    zf = truncated_sum(arr, (2, 2, 2), generic_y2, TruncationWindow(25),
                       precision=53)
    zp = truncated_sum(arr, (2, 2, 2), generic_y2, TruncationWindow(25),
                       precision=80)
    assert abs(complex(zf) - complex(zp)) < 1e-12


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
