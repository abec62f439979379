"""Quotient count vectors and lex ideal construction.

The degree-j quotient count of a t-spread ideal is the number of degree-j
t-spread monomials outside it.  A sequence of such counts is admissible
exactly when each entry respects the shifted Macaulay bound computed from
the previous one; admissible sequences are realized by ideals whose degree
slices are initial slex segments.

For a t-strongly stable ideal the counts need no monomial at all.  By the
prefix lemma (see ``construct.is_t_ss_ideal``) every t-spread member w
splits uniquely as w = g v with g a minimal generator, its shortest
generator prefix, and v t-spread with min v >= max g + t (the
Eliahou-Kervaire decomposition, after Ene-Herzog-Qureshi).  So the
ideal holds, in degree k, the sum over g of the number of t-spread
(k - deg g)-subsets of the n - max g - t + 1 variables from max g + t on.
That costs a binomial per generator shape and degree.  Other ideals are
counted slice by slice through ``t_spread_component``.
"""
from __future__ import annotations

from collections import Counter
from itertools import islice
from math import comb
from typing import Iterable, Sequence

from .core import (
    Context,
    InvalidFtVectorError,
    Monomial,
    MonomialIdeal,
    TSpreadError,
)
from .construct import _shadow, is_t_ss_ideal, iter_veronese, t_spread_component
from .count import BinomialTerm, binomial, card_veronese


def ft_vector(ideal: MonomialIdeal) -> list[int]:
    """Quotient counts per degree, from 0 up to the ambient maximal degree.

    Entry j is the number of degree-j t-spread monomials not in the ideal;
    entry 0 is always 1 since ideals here are proper.  Vectors are never
    truncated, so trailing zeros are meaningful.
    """
    ctx = ideal.ctx
    if not is_t_ss_ideal(ideal):
        return [1] + [card_veronese(j, ctx) - len(s) for j, s in t_spread_component(ideal)]
    # generators sharing degree and largest index contribute alike
    shapes = Counter((len(g), g[-1]) for g in ideal.gens)
    t = ctx.t
    f = [1]
    for k in range(1, ctx.max_degree() + 1):
        # t-spread e-subsets of m consecutive variables: C(m - (e-1)(t-1), e)
        members = sum(
            c * binomial(ctx.n - top - t + 1 - (k - d - 1) * (t - 1), k - d)
            for (d, top), c in shapes.items()
            if d <= k
        )
        f.append(card_veronese(k, ctx) - members)
    return f


def t_macaulay_expansion(
    a: int, d: int, ctx: Context, shift: bool = False
) -> list[BinomialTerm]:
    """Greedy expansion of ``a`` as binomials with strictly decreasing tops.

    Unshifted, the terms are C(a_d, d), C(a_{d-1}, d-1), ... with
    a_d > a_{d-1} > ... and each top at least its bottom; their sum is ``a``.
    With ``shift`` each term C(x, i) becomes C(x - (t-1), i + 1), the bound
    on the next degree's quotient count.
    """
    if d < 1:
        raise TSpreadError("expansion degree must be at least 1")
    if a < 0 or a > card_veronese(d, ctx):
        raise TSpreadError(
            f"value {a} out of range for degree {d} with n={ctx.n}, t={ctx.t}"
        )
    terms: list[BinomialTerm] = []
    rem = a
    i = d
    while rem > 0:
        # the greedy top is the largest with C(top, i) <= rem, i.e. the
        # first with C(top + 1, i) > rem; C(., i) increases from C(i, i) = 1,
        # so gallop up in doubling steps, then bisect the last step
        top, step = i, 1
        while comb(top + step, i) <= rem:
            top += step
            step *= 2
        while step > 1:
            step //= 2
            if comb(top + step, i) <= rem:
                top += step
        terms.append((top, i))
        rem -= comb(top, i)
        i -= 1
    if shift:
        terms = [(top - (ctx.t - 1), bottom + 1) for top, bottom in terms]
    return terms


def solve_binomial_expansion(terms: Iterable[BinomialTerm]) -> int:
    """Sum of the binomial values of the terms; C(a, b) = 0 when a < b."""
    return sum(binomial(top, bottom) for top, bottom in terms)


def is_ft_vector(f: Sequence[int], ctx: Context) -> bool:
    """Whether ``f`` is the quotient count vector of some strongly stable ideal.

    Requires f_0 = 1, every entry within its degree slice, and each entry
    bounded by the shifted expansion of the previous one.  A zero entry
    forces all later entries to zero.
    """
    fv = [int(x) for x in f]
    if not fv or fv[0] != 1:
        return False
    for d in range(1, len(fv)):
        if fv[d] < 0 or fv[d] > card_veronese(d, ctx):
            return False
    for d in range(1, len(fv) - 1):
        bound = solve_binomial_expansion(t_macaulay_expansion(fv[d], d, ctx, shift=True))
        if fv[d + 1] > bound:
            return False
    return True


def t_lex_ideal_from_f(f: Sequence[int], ctx: Context) -> MonomialIdeal:
    """The lex ideal whose quotient counts are given by ``f``.

    The sequence describes the whole quotient: degrees past its end count
    zero, so one further segment degree closes the ideal off.  Degree j of
    the ideal is the initial slex segment leaving exactly f_j monomials
    outside; generators are the segment members not produced by the previous
    degree's shadow.
    """
    fv = [int(x) for x in f]
    if not is_ft_vector(fv, ctx):
        raise InvalidFtVectorError("expected a valid ft-vector")
    fv.append(0)  # quotient counts vanish beyond the given degrees
    gens: list[Monomial] = []
    prev: list[Monomial] = []
    for j in range(1, len(fv)):
        size = card_veronese(j, ctx) - fv[j]
        segment = list(islice(iter_veronese(j, ctx), size))
        shadow = {w for m in prev for w in _shadow(m, ctx)}
        if not shadow.issubset(segment):
            # cannot happen for admissible f: shadows of initial segments are
            # initial and the growth bound caps their size
            raise InvalidFtVectorError(
                f"degree {j} slice cannot contain the previous shadow"
            )
        gens += [w for w in segment if w not in shadow]
        prev = segment
    # minimal: a t-spread multiple of an earlier generator is in the shadow
    return MonomialIdeal._of_minimal(ctx, tuple(gens))


def t_lex_ideal_of(ideal: MonomialIdeal) -> MonomialIdeal:
    """The lex ideal sharing the ideal's quotient count vector."""
    return t_lex_ideal_from_f(ft_vector(ideal), ideal.ctx)
