"""Differential structure connecting arrangements to their sub-arrangements.

For a functional g, the first-order operator

    D_g = (t_g - 2 pi i c_g)/t_g - (1/t_g) * (directional y-derivative
                                              along the direction of g)

annihilates the summands whose basis contains g and strips the t_g factor
from all others, so the product of D_g over a removed set maps the
generating function of the large arrangement onto the one of the
sub-arrangement.  Each application is computed two ways per summand: by
symbolic multiplication with the eigenvalue linear form, and from the
definition with the kernel factors differentiated termwise in their
fractional-part argument; the two must agree coefficientwise.

The y-derivative uses the per-summand affine gradient of the fractional
parts, which is constant off the singular locus; on the locus the
phi-branched fractional parts realize the one-sided limit along phi, so
direct evaluation there equals the continuously extended value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import intlinalg
from .errors import EigenRouteMismatch, RankDrop
from .genfun import EvaluationContext, generating_function, summand_factors
from .lattice import Arrangement
from .series import (LinearForm, RationalForm, TruncatedSeries, Truncation,
                     sum_rational_forms)


@dataclass
class HierarchyStep:
    """Operator data for removing one functional."""

    removed: int
    constant: object  # c_g
    direction: Tuple[int, ...]


@dataclass
class SummandState:
    """A (basis, coset) summand kept in factored form so that successive
    operator applications can still differentiate the kernel factors."""

    bidx: int
    w: Tuple[int, ...]
    base: TruncatedSeries            # weight, unit factors, t_g monomials
    kernels: Dict[int, TruncatedSeries]
    denominators: List[LinearForm]

    def numerator(self) -> TruncatedSeries:
        num = self.base
        for s in self.kernels.values():
            num = num * s
        return num

    def to_rational_form(self) -> RationalForm:
        return RationalForm(self.numerator(), list(self.denominators))


def _build_states(ctx: EvaluationContext, order: int) -> List[SummandState]:
    # read from genfun at call time, so that wrappers installed there see it
    from .genfun import build_summands
    trunc = Truncation(order)
    states = []
    for s in build_summands(ctx):
        base, denoms = summand_factors(ctx, s, TruncatedSeries.constant(
            ctx.ring, ctx.vars, trunc, ctx.ring.from_fraction(s.weight)))
        kernels = {m: ctx.kernel(s.bidx, s.w, m, order).extend(ctx.vars, trunc)
                   for m in ctx.arr.bases[s.bidx].members}
        states.append(SummandState(s.bidx, s.w, base, kernels, denoms))
    return states


def _tf_form_series(ctx, f: int, order: int) -> TruncatedSeries:
    """(t_f - 2 pi i c_f) as a series."""
    return ctx.combination({f: Fraction(1)}).power(
        ctx.ring, ctx.vars, Truncation(order), 1)


def apply_Dg_summand(ctx: EvaluationContext, state: SummandState, g: int,
                     order: int) -> Tuple[Optional[SummandState], object]:
    """Apply the removal operator for g to one summand.

    Returns (new state or None when the summand is annihilated, eigen-check
    discrepancy).  The discrepancy compares the symbolic eigenvalue route
    against the differentiated-definition route; it is exactly zero in
    exact mode.
    """
    ring = ctx.ring
    b = ctx.arr.bases[state.bidx]
    if g in b.members:
        # eigenvalue linear form is identically zero
        return None, ring.zero() if ring.exact else 0.0
    # route (a): multiply by den_g = t_g - 2 pi i c_g - sum_f (t_f - 2 pi i c_f) <g, f^B>
    den_form = ctx.denominator_form(state.bidx, g)
    trunc = Truncation(order)
    den_series = den_form.power(ring, ctx.vars, trunc, 1)
    num = state.numerator()
    num_a = num * den_series

    # route (b): (t_g - 2 pi i c_g) N - sum_f <g, f^B> N'_f, where N'_f has
    # the f-kernel replaced by its termwise y-derivative
    num_b = num * _tf_form_series(ctx, g, order)
    del num  # unused below; freeing it keeps the peak memory down
    for f in b.members:
        coef = sum(Fraction(d) * e for d, e in
                   zip(ctx.arr.functionals[g].direction, b.dual(f)))
        if coef == 0:
            continue
        dkernel = ctx.kernel(state.bidx, state.w, f, order,
                             derivative=True).extend(ctx.vars, trunc)
        piece = state.base
        for m, ks in state.kernels.items():
            piece = piece * (dkernel if m == f else ks)
        num_b = num_b - piece.scalar_mul(ctx.ring.from_fraction(coef))

    diff = num_a - num_b
    if ring.exact:
        if not diff.is_zero():
            raise EigenRouteMismatch(
                "eigenvalue route and definition route disagree")
        disc = ring.zero()
    else:
        disc = diff.max_magnitude()

    tg_form = LinearForm(ring, {ctx.vars[g]: Fraction(1)})
    new_state = SummandState(state.bidx, state.w,
                             state.base * den_series,
                             dict(state.kernels),
                             state.denominators + [tg_form])
    return new_state, disc


def check_hierarchy(arr: Arrangement, keep: Sequence[int], y: Sequence,
                    order: int, mode: str = "exact", precision: int = 128
                    ) -> dict:
    """Verify that removing the complement of `keep` via the operators lands
    on the sub-arrangement's generating function.

    Returns a report with the maximum coefficientwise discrepancy (exactly
    zero expected in exact mode), the per-application eigen-identity
    discrepancies, and ``eigen_checks``, the number of applications that
    compared both routes (annihilated summands compare nothing).  In exact
    mode a disagreement raises ``EigenRouteMismatch`` instead.  Raises ValueError unless `keep` names distinct
    functionals and leaves at least one to remove.
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
    guard = ctx.degenerate_multiplicity() + len(removed)
    work = order + guard + 1
    states = _build_states(ctx, work)
    steps = [HierarchyStep(g, ctx.constant(g), arr.functionals[g].direction)
             for g in removed]
    eigen = []
    checks = 0
    for g in removed:
        next_states = []
        for st in states:
            new_state, disc = apply_Dg_summand(ctx, st, g, work)
            eigen.append(float(disc) if not ctx.ring.exact else 0.0)
            if new_state is not None:
                checks += 1
                next_states.append(new_state)
        states = next_states
    total = sum_rational_forms([st.to_rational_form() for st in states])

    sub = arr.restricted(keep)
    # the sub-arrangement's exponentials form a subset of the parent's, so
    # the parent's coefficient field always contains them
    sub_ctx = _with_field(sub, y, mode, precision, ctx)
    f_sub = generating_function(sub, y, order, mode=mode,
                                precision=precision, ctx=sub_ctx,
                                check_excluded=False)

    # the removed variables must have dropped out
    removed_pos = set(removed)
    leftover = 0.0
    exps_bad = 0
    sub_positions = {i: keep.index(i) for i in keep}
    max_disc_exact = True
    worst = 0.0
    for e, c in total.terms.items():
        if sum(e) > order:
            continue
        if any(e[i] for i in removed_pos):
            exps_bad += 1
            continue
        sub_e = [0] * len(keep)
        for i, pos in sub_positions.items():
            sub_e[pos] = e[i]
        c2 = f_sub.coefficient(tuple(sub_e))
        if mode == "exact":
            if not (c == c2):
                max_disc_exact = False
        else:
            worst = max(worst, abs(complex(c) - complex(c2)))
    for e2, c2 in f_sub.terms.items():
        e = [0] * arr.size
        for i, pos in sub_positions.items():
            e[i] = e2[pos]
        c = total.coefficient(tuple(e))
        if mode == "exact":
            if not (c == c2):
                max_disc_exact = False
        else:
            worst = max(worst, abs(complex(c) - complex(c2)))
    if mode == "exact":
        discrepancy = 0 if (max_disc_exact and exps_bad == 0) else 1
    else:
        discrepancy = worst
    return {
        "removed": removed,
        "steps": steps,
        "order": order,
        "stray_variable_terms": exps_bad,
        "max_discrepancy": discrepancy,
        "max_discrepancy_str": "0 (exact)" if discrepancy == 0 and
                               mode == "exact" else str(discrepancy),
        "eigen_discrepancies": eigen,
        "eigen_checks": checks,
    }


def _with_field(sub: Arrangement, y, mode, precision,
                parent_ctx: EvaluationContext) -> EvaluationContext:
    """Context for the sub-arrangement sharing the parent's scalar field."""
    sub_ctx = EvaluationContext(sub, y, mode, precision, phi=parent_ctx.phi)
    if mode == "exact" and parent_ctx.N % sub_ctx.N == 0:
        sub_ctx.N = parent_ctx.N
        sub_ctx.ring = parent_ctx.ring
        sub_ctx._kernels.clear()
        sub_ctx._geometry.clear()
    return sub_ctx
