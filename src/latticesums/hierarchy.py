"""Differential structure connecting arrangements to their sub-arrangements.

For a functional g, the first-order operator

    D_g = (t_g - 2 pi i c_g)/t_g - (1/t_g) * (directional y-derivative
                                              along the direction of g)

annihilates the summands whose basis contains g and strips the t_g factor
from all others, so the product of D_g over a removed set maps the
generating function of the large arrangement onto the one of the
sub-arrangement.  The kernel of a basis member f depends on y only through
e^{(t_f - 2 pi i c_f) yhat_f}, and its fractional-part argument yhat_f has
y-gradient f^B, the dual vector.  So on a summand whose basis B does not
hold g the operator multiplies the numerator by

    (t_g - 2 pi i c_g) - sum_f <g, f^B> (t_f - 2 pi i c_f) = den_g

and divides by t_g: one series product per summand and removal.  The
summands come from the evaluator's one summand builder
(``genfun.summand_parts``), one per basis, lifted on their own over their
singular den_g; only the bases that hold no removed functional are
built, since a removal annihilates the others.  A removal then
multiplies the numerator by den_g and appends t_g to the denominators,
which the final ``sum_rational_forms`` divides out with the singular
ones: unlike the evaluator it is compared with
(``genfun.generating_function``), this check divides.  Each exact
division loses one degree, so the working order is the compared order
plus the divisions: the singular den_g and the removed t_g that the
surviving summands carry (``division_count``).  The sub-arrangement's
generating function is built in the parent's context restricted to the
kept functionals (``EvaluationContext.restricted``): one ring, mode,
precision and phi per check, read from the context alone.

The y-derivative uses the per-summand affine gradient of the fractional
parts, which is constant off the singular locus; on the locus the
phi-branched fractional parts realize the one-sided limit along phi, so
direct evaluation there equals the continuously extended value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import intlinalg
from .errors import RankDrop
from .genfun import (EvaluationContext, generating_function, lift_units,
                     summand_parts)
from .lattice import Arrangement
from .series import (LinearForm, RationalForm, TruncatedSeries, Truncation,
                     coefficient_discrepancy, division_count,
                     sum_rational_forms)


@dataclass
class HierarchyStep:
    """Operator data for removing one functional."""

    removed: int
    constant: object  # c_g
    direction: Tuple[int, ...]


def apply_Dg_summand(ctx: EvaluationContext, state: Tuple[int, RationalForm],
                     g: int, order: int
                     ) -> Optional[Tuple[int, RationalForm]]:
    """Apply the removal operator for g to one (basis index, summand) pair:
    None when g is in the basis, which annihilates the summand, else the
    numerator times den_g over the denominators and t_g.  den_g is the
    one relative form of the arrangement table that it needs, with its
    constant (``EvaluationContext.combination``)."""
    bidx, form = state
    if g in ctx.arr.bases[bidx].members:
        return None
    ring, vars = ctx.ring, ctx.vars
    den_g = ctx.combination(ctx.data.relative_forms[bidx][g][0])
    # den_g as a series: its constant -2 pi i c and its q_v t_v
    terms = {} if den_g.singular else {
        (0,) * len(vars): -(ring.two_pi_i() * ring.from_fraction(den_g.c))}
    for v, q in den_g.coeffs.items():
        terms[tuple(int(w == v) for w in vars)] = ring.from_fraction(q)
    den = TruncatedSeries(ring, vars, Truncation(order), terms)
    tg = LinearForm({vars[g]: Fraction(1)})
    return bidx, RationalForm(form.numerator * den,
                              form.denominators + [tg])


def check_hierarchy(arr: Arrangement, keep: Sequence[int], y: Sequence,
                    order: int, mode: str = "exact", precision: int = 128
                    ) -> dict:
    """Verify that removing the complement of `keep` via the operators lands
    on the sub-arrangement's generating function.

    Every coefficient through total degree `order` is compared; a term in
    a removed variable is counted in ``stray_variable_terms`` and compared
    with 0.  ``max_discrepancy`` is 0 or 1 in exact mode (1 on any
    mismatch or stray term) and the largest coefficient difference in
    numeric mode.  Raises ValueError unless `keep` names distinct
    functionals and leaves at least one to remove, and when no exponent
    through `order` is compared: neither side has a nonzero coefficient.
    """
    unknown = [i for i in keep if i not in range(arr.size)]
    if unknown:
        raise ValueError(f"no functionals {unknown} in an arrangement of "
                         f"{arr.size}")
    if len(set(keep)) != len(keep):
        raise ValueError(f"functionals kept twice: {sorted(keep)}")
    keep = sorted(keep)
    removed = [i for i in range(arr.size) if i not in keep]
    if not removed:
        raise ValueError("nothing to remove: every functional is kept")
    sub_dirs = [arr.functionals[i].direction for i in keep]
    if intlinalg.rank(sub_dirs) != arr.rank:
        raise RankDrop("the kept functionals no longer span the space")
    ctx = EvaluationContext(arr, y, mode, precision)
    # read from genfun at call time, so that wrappers installed there see it
    from .genfun import build_summands
    # a removal annihilates every summand whose basis holds its
    # functional, so only the others are built
    summands = [s for s in build_summands(ctx)
                if set(removed).isdisjoint(ctx.arr.bases[s.bidx].members)]
    tgs = [LinearForm({ctx.vars[g]: Fraction(1)}) for g in removed]
    work = order + division_count(s.denominators + tgs for s in summands)
    trunc = Truncation(work)
    states = [(s.bidx, RationalForm(lift_units(ctx.ring, ctx.vars, trunc,
                                               [summand_parts(ctx, s, trunc)]),
                                    s.denominators))
              for s in summands]
    steps = [HierarchyStep(g, ctx.constant(g), arr.functionals[g].direction)
             for g in removed]
    for g in removed:
        states = [apply_Dg_summand(ctx, st, g, work) for st in states]
    total = sum_rational_forms([form for _, form in states])

    sub_ctx = ctx.restricted(keep)
    f_sub = generating_function(sub_ctx.arr, y, order, ctx=sub_ctx)

    # the sub-arrangement's series in the parent's variables, where the
    # removed variables must have dropped out
    expected = {}
    for e2, c2 in f_sub.terms.items():
        e = [0] * arr.size
        for pos, i in enumerate(keep):
            e[i] = e2[pos]
        expected[tuple(e)] = c2
    zero = ctx.ring.zero()
    exps = expected.keys() | {e for e in total.terms if sum(e) <= order}
    if not exps:
        raise ValueError(f"neither side has a nonzero coefficient through "
                         f"order {order}, so nothing is compared; raise the "
                         f"order")
    stray = sum(1 for e in exps if any(e[i] for i in removed))
    discrepancy = coefficient_discrepancy(
        ctx.ring, ((total.coefficient(e), expected.get(e, zero))
                   for e in exps))
    if mode == "exact":
        discrepancy = 0 if discrepancy == 0 and stray == 0 else 1
    return {
        "removed": removed,
        "steps": steps,
        "order": order,
        "stray_variable_terms": stray,
        "max_discrepancy": discrepancy,
        "max_discrepancy_str": "0 (exact)" if discrepancy == 0 and
                               mode == "exact" else str(discrepancy),
    }
