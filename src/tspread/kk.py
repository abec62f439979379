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
That costs a binomial per generator shape and degree
(``construct._ek_members``).  Other ideals are counted slice by slice
through ``t_spread_component``.

Lex ideals are built from their generators alone.  Rank the degree-j
t-spread monomials 0, 1, ... down the slex order, so that the initial
segment of size s holds ranks [0, s).  The shadow of an initial segment is
initial, and its complement has the shifted Macaulay bound's size (the
bound is attained).  So if the lex ideal leaves f_j monomials of degree j
outside, its degree-j slice is ranks [0, s_j), s_j = |degree j| - f_j, the
previous slice's shadow is ranks [0, h_j), h_j = |degree j| - shifted
bound of f_{j-1} (h_1 = 0), and the degree-j minimal generators are exactly
the ranks [h_j, s_j) (*rank interval*).  ``construct._unrank`` finds rank
h_j and the slex walk lists the interval; no segment or shadow is built.
"""
from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

from .core import (
    Context,
    InvalidFtVectorError,
    Monomial,
    MonomialIdeal,
    TSpreadError,
)
from .construct import (
    _ek_members,
    _lex_list,
    _shapes,
    _unrank,
    is_t_ss_ideal,
    t_spread_component,
)
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
    shapes = _shapes(ideal.gens)
    return [1] + [
        card_veronese(k, ctx) - _ek_members(shapes, k, ctx)
        for k in range(1, ctx.max_degree() + 1)
    ]


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
    return _shifted_bounds([int(x) for x in f], ctx) is not None


def _shifted_bound(a: int, d: int, ctx: Context) -> int:
    # the most degree-(d+1) monomials a quotient with a of degree d can hold
    return solve_binomial_expansion(t_macaulay_expansion(a, d, ctx, shift=True))


def _shifted_bounds(fv: list[int], ctx: Context) -> list[int] | None:
    # the shifted bound of each entry f_1, f_2, ... (so of degree d at index
    # d - 1), each computed once; None unless fv is an ft-vector
    if not fv or fv[0] != 1:
        return None
    for d in range(1, len(fv)):
        if fv[d] < 0 or fv[d] > card_veronese(d, ctx):
            return None
    bounds: list[int] = []
    for d in range(1, len(fv)):
        if bounds and fv[d] > bounds[-1]:
            return None
        bounds.append(_shifted_bound(fv[d], d, ctx))
    return bounds


def _lex_ideal(f: list[int], bounds: list[int], ctx: Context) -> MonomialIdeal:
    # the lex ideal of an ft-vector f with its shifted bounds (the rank
    # interval of the module docstring); degrees past f's end count zero,
    # so one further degree closes the ideal off
    gens: list[Monomial] = []
    for j, x in enumerate(f + [0]):
        if j == 0:
            continue
        full = card_veronese(j, ctx)
        shadow = 0 if j == 1 else full - bounds[j - 2]
        size = full - x
        if shadow < size:
            first, last = _unrank(shadow, j, ctx), _unrank(size - 1, j, ctx)
            gens += _lex_list(first, last, ctx)
    # minimal: a t-spread multiple of an earlier generator is in the shadow
    return MonomialIdeal._of_minimal(ctx, tuple(gens))


def t_lex_ideal_from_f(f: Sequence[int], ctx: Context) -> MonomialIdeal:
    """The lex ideal whose quotient counts are given by ``f``.

    The sequence describes the whole quotient: degrees past its end count
    zero.  Degree j of the ideal is the initial slex segment leaving exactly
    f_j monomials outside; its generators are the members past the previous
    degree's shadow, a rank interval walked without building the segment.
    """
    fv = [int(x) for x in f]
    bounds = _shifted_bounds(fv, ctx)
    if bounds is None:
        raise InvalidFtVectorError("expected a valid ft-vector")
    return _lex_ideal(fv, bounds, ctx)


def t_lex_ideal_of(ideal: MonomialIdeal) -> MonomialIdeal:
    """The lex ideal sharing the ideal's quotient count vector.

    Raises InvalidFtVectorError, naming the counts, when no lex ideal has
    them; only an ideal that is not strongly stable can have such counts.
    """
    f = ft_vector(ideal)
    bounds = _shifted_bounds(f, ideal.ctx)
    if bounds is None:
        raise InvalidFtVectorError(
            f"the ideal's quotient counts {f} break the growth bound: no lex ideal has them"
        )
    return _lex_ideal(f, bounds, ideal.ctx)
