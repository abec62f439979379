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
(``construct._ek_members``).

Any other t-spread ideal is counted from the unions of its generators
(``construct._union_ft``), and no monomial is built either.  A t-spread w
lies outside the ideal exactly when no generator divides it, so with
N_k(u) the number of degree-k t-spread monomials divisible by u,
inclusion-exclusion gives

    f_k = sum over generator subsets S of (-1)^|S| N_k(union of S)
        = sum over distinct unions u of mu(u) N_k(u),

where mu(u) sums (-1)^|S| over the subsets S whose union is u, and the
empty subset gives the union () and N_k(()) = |degree k|.  A union that is
not t-spread divides no t-spread monomial, and neither does any union
containing it, so it adds 0.  The table of unions and weights grows one
generator g at a time: each entry (u, c) adds weight -c to the union of
u and g when that union is t-spread; equal unions merge, and entries of
weight 0 drop.

*Gap count.*  Put the members of a t-spread union u between the sentinels
1 - t and n + t.  A degree-k t-spread multiple of u places its k - |u|
other indices in the gaps between consecutive members: in a gap (a, b),
e indices at least t from a, from b and from each other.  They are the
t-spread e-subsets of the b - a - 2t + 1 integers from a + t to b - t;
lowering the i-th of them by (i - 1)(t - 1) makes these the e-subsets of
b - a - 2t + 1 - (e - 1)(t - 1) integers, so a gap holds e of them in
C(b - a - (e + 1)t + e, e) ways.  Gaps fill independently, so N(u), as a
polynomial whose x^k coefficient is N_k(u), is x^|u| times the product of
the gap polynomials.  Each of those depends on b - a alone and is made once
per call; the products keep only the coefficients up to the maximal degree.

At t = 1 every union is 1-spread, so r generators can make up to 2^r
unions.  Each nonempty union in the table is a member of the ideal, so the
table never has more entries than the degree slices, which counting them
one by one would build, have monomials.

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
from typing import Iterable, Iterator, Sequence

from .core import (
    Context,
    InvalidFtVectorError,
    Monomial,
    MonomialIdeal,
    TSpreadError,
    require_t_spread_ideal,
)
from .construct import (
    _ek_members,
    _lex_list,
    _shapes,
    _union_ft,
    _unrank,
    is_t_ss_ideal,
)
from .count import BinomialTerm, binomial, card_veronese


def ft_vector(ideal: MonomialIdeal) -> list[int]:
    """Quotient counts per degree, from 0 up to the ambient maximal degree.

    Entry j is the number of degree-j t-spread monomials not in the ideal;
    entry 0 is always 1 since ideals here are proper.  Vectors are never
    truncated, so trailing zeros are meaningful.  No monomial is built: a
    strongly stable ideal is counted from its generator shapes, any other
    from its generators' unions (see the module docstring).  Raises
    NotTSpreadError unless the ideal is t-spread.
    """
    ctx = ideal.ctx
    if is_t_ss_ideal(ideal):
        # generators sharing degree and largest index contribute alike
        shapes = _shapes(ideal)
        return [1] + [
            card_veronese(k, ctx) - _ek_members(shapes, k, ctx)
            for k in range(1, ctx.max_degree() + 1)
        ]
    return _union_ft(require_t_spread_ideal(ideal).gens, ctx)


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


def _rank_intervals(
    f: list[int], bounds: list[int], ctx: Context
) -> Iterator[tuple[int, int, int]]:
    # (j, h_j, s_j) for the lex ideal of an ft-vector f with its shifted
    # bounds: its degree-j generators are the slex ranks [h_j, s_j) (the
    # rank interval of the module docstring); degrees past f's end count
    # zero, so one further degree closes the ideal off
    for j, x in enumerate(f + [0]):
        if j:
            full = card_veronese(j, ctx)
            yield j, 0 if j == 1 else full - bounds[j - 2], full - x


def _lex_ideal(f: list[int], bounds: list[int], ctx: Context) -> MonomialIdeal:
    # the lex ideal of an ft-vector f with its shifted bounds
    gens: list[Monomial] = []
    for j, shadow, size in _rank_intervals(f, bounds, ctx):
        if shadow < size:
            first, last = _unrank(shadow, j, ctx), _unrank(size - 1, j, ctx)
            gens += _lex_list(first, last, ctx)
    # minimal: a t-spread multiple of an earlier generator is in the shadow;
    # strongly stable, as each slice is an initial slex segment
    return MonomialIdeal._of_minimal(ctx, tuple(gens), stable=True)


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
