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

Any other t-spread ideal is counted by a pivot recursion on the last
variable (after Bayer-Stillman and Bigatti), and no monomial is built
either.  Let Q(G, m) be the polynomial whose x^k coefficient counts the
degree-k t-spread w in [1, m] that no g in G divides, every g in G inside
[1, m].  A w without m lies in [1, m - 1], where a g containing m divides
nothing; a w with m is w' + {m}, w' t-spread in [1, m - t], and g divides
it exactly when g without m lies in w'.  So

    Q(G, m) = Q({g : m not in g}, m - 1) + x Q(G', m - t),
    G' = {g - {m} : m in g} + {g : max g <= m - t},

the second term 0 when {m} is in G (it divides every such w).  A g with
an index in (m - t, m) and not m is in neither part of G': w' has no such
index, so g divides no w with m.  Q(G, m) = 1 for m <= 0, where G is
empty; an empty G follows the same recursion, Pascal's rule for its
closed form C(m - (e-1)(t-1), e).  The ideal's counts are Q(gens, n).

*Nodes.*  Unfolded from m = n down, the recursion reaches (G, m) by
choosing the indices W of w above m, and G is then the set of g cut to
[1, m] over the generators whose indices above m all lie in W.  So G
depends only on which of the generators' parts above m lie in W, and
level m holds at most one node per distinct t-spread union of those parts
(the empty union included): equal nodes merge, and each is visited once.
A node's weight, the polynomial counting the W that reach it by size,
passes to its two children, multiplied by x on the way to the second; the
weight that reaches m = 0 is the ideal's counts.  Weights are packed into
one integer, a fixed number of bytes per coefficient, so a step is one
shift and one add; every coefficient counts t-spread subsets of [1, n], so
slots wide enough for the number of all of them never overflow.

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

from bisect import bisect_left
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
    _lex_span,
    _shapes,
    _unrank,
    _Walks,
    is_t_ss_ideal,
)
from .count import BinomialTerm, binomial, card_veronese


def ft_vector(ideal: MonomialIdeal) -> list[int]:
    """Quotient counts per degree, from 0 up to the ambient maximal degree.

    Entry j is the number of degree-j t-spread monomials not in the ideal;
    entry 0 is always 1 since ideals here are proper.  Vectors are never
    truncated, so trailing zeros are meaningful.  No monomial is built: a
    strongly stable ideal is counted from its generator shapes, any other
    by the pivot recursion on the last variable (see the module
    docstring).  Raises NotTSpreadError unless the ideal is t-spread.
    """
    ctx = ideal.ctx
    if is_t_ss_ideal(ideal):
        # generators sharing degree and largest index contribute alike
        shapes = _shapes(ideal)
        return [1] + [
            card_veronese(k, ctx) - _ek_members(shapes, k, ctx)
            for k in range(1, ctx.max_degree() + 1)
        ]
    return _pivot_ft(require_t_spread_ideal(ideal).gens, ctx)


def _pivot_ft(gens: Sequence[Monomial], ctx: Context) -> list[int]:
    # the quotient counts f_0, ..., f_D (D = ctx.max_degree()) of the ideal
    # the t-spread gens generate, by the pivot recursion of the module
    # docstring, unfolded level by level from m = n down: level m maps each
    # node's G, the ascending tuple of its distinct bitmasks (sum of 2^i over
    # a generator's indices), to its packed weight.  Every g in G is inside
    # [1, m], so it holds m exactly when g >= 2^m, and max g <= m - t exactly
    # when g < 2^(m-t+1): both parts of G' are slices of G
    n, t = ctx.n, ctx.t
    size = ctx.max_degree() + 1
    # bytes per coefficient, enough for the number of all t-spread monomials
    width = sum(card_veronese(k, ctx) for k in range(size)).bit_length() // 8 + 1
    step = 8 * width
    levels = {n: {tuple(sorted({sum(1 << i for i in g) for g in gens})): 1}}
    for m in range(n, 0, -1):
        bit, fits = 1 << m, 1 << max(m - t + 1, 0)
        lo, hi = levels.setdefault(m - 1, {}), levels.setdefault(max(m - t, 0), {})
        for G, w in levels.pop(m).items():
            i = bisect_left(G, bit)  # G[i:] holds m
            a = G[:i]
            if i == len(G):  # no g holds m
                b = G[:bisect_left(G, fits)]
            elif G[i] == bit:  # {m} divides every w with m
                b = None
            else:
                b = tuple(sorted({*G[:bisect_left(G, fits, 0, i)], *map(bit.__xor__, G[i:])}))
            lo[a] = lo[a] + w if a in lo else w
            if b is not None:
                w <<= step
                hi[b] = hi[b] + w if b in hi else w
    # every node has a child one level down, and level 0 holds only the
    # empty G, whose Q is 1: its weight is the counts
    (packed,) = levels[0].values()
    raw = packed.to_bytes(size * width, "little")
    return [int.from_bytes(raw[k * width:(k + 1) * width], "little") for k in range(size)]


def _greedy(a: int, d: int, hi: int) -> Iterator[BinomialTerm]:
    # the terms (top, i) of the greedy expansion of a > 0 at degree d, every
    # top at most hi: each top is the largest with C(top, i) <= the rest,
    # bisected in [i, previous top - 1], as the tops strictly decrease
    rem, i = a, d
    while rem > 0:
        lo = i  # C(i, i) = 1 <= rem
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if comb(mid, i) <= rem:
                lo = mid
            else:
                hi = mid - 1
        yield lo, i
        rem -= comb(lo, i)
        hi, i = lo - 1, i - 1


def t_macaulay_expansion(
    a: int, d: int, ctx: Context, shift: bool = False
) -> list[BinomialTerm]:
    """Greedy expansion of ``a`` as binomials with strictly decreasing tops.

    Unshifted, the terms are C(a_d, d), C(a_{d-1}, d-1), ... with
    a_d > a_{d-1} > ... and each top at least its bottom; their sum is ``a``.
    Each top is the largest with C(top, i) at most what is left, bisected
    below the previous top (the first in [d, n]).  With ``shift`` each
    term C(x, i) becomes C(x - (t-1), i + 1), the bound on the next degree's
    quotient count.
    """
    if d < 1:
        raise TSpreadError("expansion degree must be at least 1")
    if a < 0 or a > card_veronese(d, ctx):
        raise TSpreadError(
            f"value {a} out of range for degree {d} with n={ctx.n}, t={ctx.t}"
        )
    if shift:
        return [(top - (ctx.t - 1), i + 1) for top, i in _greedy(a, d, ctx.n)]
    return list(_greedy(a, d, ctx.n))


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
    # the most degree-(d+1) monomials a quotient with a of degree d can hold:
    # the shifted expansion summed, for a checked to lie in degree d's slice
    s = ctx.t - 1
    return sum(comb(top - s, i + 1) for top, i in _greedy(a, d, ctx.n) if top - s > i)


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


def _lex_walks(f: list[int], bounds: list[int], ctx: Context) -> _Walks:
    # the generators of the lex ideal of an ft-vector f with its shifted
    # bounds, as the walks of its rank intervals, one per degree
    walks = _Walks()
    for j, shadow, size in _rank_intervals(f, bounds, ctx):
        if shadow < size:
            walks.append(_lex_span(_unrank(shadow, j, ctx), _unrank(size - 1, j, ctx), ctx))
    return walks


def _lex_ideal(walks: _Walks, ctx: Context) -> MonomialIdeal:
    # minimal: a t-spread multiple of an earlier generator is in the shadow;
    # strongly stable, as each slice is an initial slex segment
    return MonomialIdeal._of_minimal(ctx, tuple(walks.members()), stable=True)


def t_lex_ideal_from_f(f: Sequence[int], ctx: Context) -> MonomialIdeal:
    """The lex ideal whose quotient counts are given by ``f``.

    The sequence describes the whole quotient: degrees past its end count
    zero.  Degree j of the ideal is the initial slex segment leaving exactly
    f_j monomials outside; its generators are the members past the previous
    degree's shadow, a rank interval walked without building the segment.
    """
    return _lex_ideal(_walks_from_f(f, ctx), ctx)


def _walks_from_f(f: Sequence[int], ctx: Context) -> _Walks:
    # the lex ideal's walks for a given sequence f, refused unless admissible
    fv = [int(x) for x in f]
    bounds = _shifted_bounds(fv, ctx)
    if bounds is None:
        raise InvalidFtVectorError("expected a valid ft-vector")
    return _lex_walks(fv, bounds, ctx)


def t_lex_ideal_of(ideal: MonomialIdeal) -> MonomialIdeal:
    """The lex ideal sharing the ideal's quotient count vector.

    Raises InvalidFtVectorError, naming the counts, when no lex ideal has
    them; only an ideal that is not strongly stable can have such counts.
    """
    return _lex_ideal(_walks_of_counts(ft_vector(ideal), ideal.ctx), ideal.ctx)


def _walks_of_counts(f: list[int], ctx: Context) -> _Walks:
    # the lex ideal's walks for an ideal's quotient counts f
    bounds = _shifted_bounds(f, ctx)
    if bounds is None:
        raise InvalidFtVectorError(
            f"the ideal's quotient counts {f} break the growth bound: no lex ideal has them"
        )
    return _lex_walks(f, bounds, ctx)
