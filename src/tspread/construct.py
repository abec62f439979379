"""Constructive algorithms on t-spread monomials.

Shadows, lex successors, lex and Borel segments, strongly stable closures,
Veronese sets and the ideal-level constructions built from them.  Every
routine manipulates index sequences only; at no point is the full monomial
basis of the ambient ring enumerated.

All set-valued results come back strictly descending in the squarefree-lex
order, which for index tuples is plain ascending sort order.

Lex and Borel walks share one successor, which bumps the last index still
below its cap and repacks the tail t apart.  Capped by ``u`` it walks the
monomials Borel-above ``u``; every monomial of a degree is Borel-above its
slex-least one, so capped by ``min_mon`` it walks the whole lex order.
Public functions validate once; the walks and shadows never again.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .core import (
    BorelIncomparableError,
    Context,
    Monomial,
    MonomialIdeal,
    TSpreadError,
    _gaps_at_least,
    borel_geq,
    cmp_slex,
    is_t_spread_ideal,
    max_mon,
    min_mon,
    require_t_spread,
    require_t_spread_ideal,
    slex_max,
    slex_min,
    validate_monomial,
)
from .count import count_t_lex_mon


def _shadow(m: Monomial, ctx: Context) -> list[Monomial]:
    t = ctx.t
    ends = (1 - t,) + m + (ctx.n + t,)
    return [
        m[:r] + (h,) + m[r:]
        for r in range(len(m) + 1)
        for h in range(ends[r] + t, ends[r + 1] - t + 1)
    ]


def t_shadow(u: Sequence[int], ctx: Context) -> list[Monomial]:
    """Degree d+1 t-spread multiples of ``u`` by a single variable.

    The admissible new indices form the union of intervals
    [1, i_1-t], [i_1+t, i_2-t], ..., [i_d+t, n]; anything outside either
    breaks the spread with a neighbour or repeats a variable.  An index
    from the interval before i_r lands at position r, so the multiples come
    out in slex-descending order.
    """
    return _shadow(require_t_spread(u, ctx), ctx)


def t_shadow_set(monomials: Iterable[Sequence[int]], ctx: Context) -> list[Monomial]:
    """Deduplicated union of the shadows of the given monomials."""
    return sorted({w for u in monomials for w in t_shadow(u, ctx)})


def _step(w: Monomial, caps: Monomial, t: int) -> Monomial | None:
    # slex successor of w among the monomials Borel-above caps, None at caps;
    # the repacked tail stays under caps because caps is t-spread
    q = len(w) - 1
    while q >= 0 and w[q] >= caps[q]:
        q -= 1
    if q < 0:
        return None
    return w[:q] + tuple(range(w[q] + 1, w[q] + 1 + (len(w) - q) * t, t))


def _walk(top: Monomial, bottom: Monomial, caps: Monomial, t: int) -> Iterator[Monomial]:
    # bottom must be Borel-above caps and slex-below top, or it is never met
    w = top
    yield w
    while w != bottom:
        w = _step(w, caps, t)
        yield w


def t_next_lex(u: Sequence[int], ctx: Context) -> Monomial | None:
    """The greatest t-spread monomial strictly below ``u``, or None at the end.

    Looks for the last position whose index can grow while leaving room for
    a t-spread tail, bumps it, and packs the tail as tightly as possible.
    """
    m = require_t_spread(u, ctx)
    n, t = ctx.n, ctx.t
    return _step(m, tuple(range(n - (len(m) - 1) * t, n + 1, t)), t)


def iter_veronese(d: int, ctx: Context) -> Iterator[Monomial]:
    """All t-spread monomials of degree d, lazily, descending in slex."""
    if d and 1 + (d - 1) * ctx.t > ctx.n:
        return
    low = min_mon(d, ctx)
    yield from _walk(max_mon(d, ctx), low, low, ctx.t)


def t_veronese(d: int, ctx: Context) -> list[Monomial]:
    """The full degree-d slice of t-spread monomials, descending in slex."""
    return list(iter_veronese(d, ctx))


def t_veronese_ideal(d: int, ctx: Context) -> MonomialIdeal:
    if d == 0:
        raise TSpreadError("the unit monomial cannot generate a proper ideal")
    return MonomialIdeal._of_minimal(ctx, tuple(t_veronese(d, ctx)))


def t_lex_seg(v: Sequence[int], u: Sequence[int], ctx: Context) -> list[Monomial]:
    """All monomials between ``v`` and ``u`` inclusive in the slex order.

    Built by iterating the successor from ``v`` until ``u`` appears.
    """
    top = require_t_spread(v, ctx)
    bottom = require_t_spread(u, ctx)
    if cmp_slex(top, bottom) < 0:
        raise TSpreadError("segment start lies below its end in the slex order")
    return list(_walk(top, bottom, min_mon(len(top), ctx), ctx.t))


def t_lex_mon(u: Sequence[int], ctx: Context) -> list[Monomial]:
    """The smallest lex set containing ``u``: everything slex-above it."""
    m = require_t_spread(u, ctx)
    return list(_walk(max_mon(len(m), ctx), m, min_mon(len(m), ctx), ctx.t))


def _spread_slice(monomials: Iterable[Sequence[int]], ctx: Context) -> set[Monomial] | None:
    # the members validated once, or None unless all are t-spread of one degree
    ms = {validate_monomial(m, ctx) for m in monomials}
    if len({len(m) for m in ms}) > 1 or not all(_gaps_at_least(m, ctx.t) for m in ms):
        return None
    return ms


def is_t_lex_seg(monomials: Iterable[Sequence[int]], ctx: Context) -> bool:
    """Whether the set is exactly the slex interval between its extremes.

    The members all lie in that interval, so they fill it exactly when there
    are as many of them as the interval holds: a count, not a construction.
    """
    ms = _spread_slice(monomials, ctx)
    if ms is None:
        return False
    # with two members or more the degree is positive, as counting needs
    return len(ms) < 2 or len(ms) == (
        count_t_lex_mon(slex_min(ms), ctx) - count_t_lex_mon(slex_max(ms), ctx) + 1
    )


def t_ss_seg(v: Sequence[int], u: Sequence[int], ctx: Context) -> list[Monomial]:
    """The strongly stable segment from ``v`` down to ``u``.

    Contains every monomial Borel-above ``u`` that is slex-below ``v``,
    produced in strictly descending slex order.  ``v`` must itself lie
    Borel-above ``u``.
    """
    top = require_t_spread(v, ctx)
    bottom = require_t_spread(u, ctx)
    if len(top) != len(bottom):
        raise TSpreadError("segment endpoints must have equal degrees")
    if not borel_geq(top, bottom):
        raise BorelIncomparableError(
            "segment start must dominate its end in the Borel order"
        )
    return list(_walk(top, bottom, bottom, ctx.t))


def t_ss_mon(u: Sequence[int], ctx: Context) -> list[Monomial]:
    """The smallest strongly stable set containing ``u``.

    Equals the set of all monomials Borel-above ``u``; the slex-greatest
    monomial of the degree is always its first element.
    """
    m = require_t_spread(u, ctx)
    return list(_walk(max_mon(len(m), ctx), m, m, ctx.t))


def t_ss_set(monomials: Iterable[Sequence[int]], ctx: Context) -> list[Monomial]:
    """Smallest strongly stable set containing all the given monomials."""
    return sorted({w for u in monomials for w in t_ss_mon(u, ctx)})


def is_t_ss_seg(monomials: Iterable[Sequence[int]], ctx: Context) -> bool:
    """Whether the set is the strongly stable segment between its extremes."""
    ms = _spread_slice(monomials, ctx)
    if not ms:
        return ms is not None  # the empty set is a segment
    top, bottom = slex_max(ms), slex_min(ms)
    return borel_geq(top, bottom) and ms == set(_walk(top, bottom, bottom, ctx.t))


def _decrements(u: Monomial, t: int) -> Iterator[Monomial]:
    # u with one index lowered by one, where the result stays t-spread: every
    # exchange move of u is reached by a chain of these (lower the first index
    # above the target), and each of them is an exchange move
    prev = 1 - t
    for k, i in enumerate(u):
        if i - 1 - prev >= t:
            yield u[:k] + (i - 1,) + u[k + 1:]
        prev = i


def _has_prefix_in(w: Monomial, gens: set[Monomial]) -> bool:
    # membership of a t-spread w in the strongly stable ideal minimally
    # generated by gens (the prefix lemma of is_t_ss_ideal)
    return any(w[:j] in gens for j in range(1, len(w) + 1))


def is_t_ss_set(monomials: Iterable[Sequence[int]], ctx: Context) -> bool:
    """Whether the set is closed under all single exchange moves.

    Closure under the single decrements of its members (one index lowered
    by one, staying t-spread) is the same thing, and there are at most d of
    them per member.
    """
    ms = _spread_slice(monomials, ctx)
    return ms is not None and all(w in ms for u in ms for w in _decrements(u, ctx.t))


def is_t_ss_ideal(ideal: MonomialIdeal) -> bool:
    """Whether the ideal is t-strongly stable.

    Two lemmas reduce the test to d^2 hash lookups per minimal generator.

    *Single decrements suffice.*  Every t-spread monomial Borel-above g is
    reached from g by lowering one index by 1 at a time while staying
    t-spread.  Along such a chain, a decrement of a member g'm (g' a
    generator) is a decrement of m, still a multiple of g', or a decrement
    of g' times m.  So the ideal is strongly stable exactly when every
    decrement of every generator lies in it.

    *Prefix membership.*  In a t-strongly stable ideal a t-spread w is a
    member exactly when some prefix ``w[:j]`` is a minimal generator: for
    the least j with ``w[:j]`` in the ideal, a generator g dividing it makes
    ``w[:deg g]``, which is Borel-above g, a member too, so g = ``w[:j]``.

    Together: the ideal is strongly stable exactly when every decrement of
    every generator has a generator prefix.  If it is, the decrements are
    members and so have one; if they all have one, they are members.
    """
    if not is_t_spread_ideal(ideal):
        return False
    gens = set(ideal.gens)
    t = ideal.ctx.t
    return all(_has_prefix_in(w, gens) for g in ideal.gens for w in _decrements(g, t))


def t_ss_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """Smallest t-strongly stable ideal containing the given one.

    Closes each generator in its own degree; nothing outside the generator
    degrees is ever touched.  The closure generates a strongly stable ideal,
    so by the prefix lemma (see ``is_t_ss_ideal``) its minimal generators
    are the members with no proper prefix in the closure.
    """
    ctx = require_t_spread_ideal(ideal).ctx
    closed = {w for g in ideal.gens for w in _walk(max_mon(len(g), ctx), g, g, ctx.t)}
    gens = [w for w in closed if not _has_prefix_in(w[:-1], closed)]
    return MonomialIdeal._of_minimal(ctx, tuple(sorted(gens, key=lambda g: (len(g), g))))


def t_spread_component(ideal: MonomialIdeal, upto: int | None = None) -> Iterator[tuple[int, list[Monomial]]]:
    """Degree-by-degree t-spread slices of the ideal, accumulated by shadows.

    Yields ``(j, sorted slice)`` for j = 1, ..., ``upto`` (ambient maximal
    degree when omitted).  The degree-j slice is the shadow of the previous
    one joined with the degree-j generators; peeling the largest index not in
    a witness generator shows every t-spread member of the ideal arises this
    way.  Raises NotTSpreadError, on the first step, unless the ideal is
    t-spread.
    """
    ctx = require_t_spread_ideal(ideal).ctx
    last = ctx.max_degree() if upto is None else upto
    current: list[Monomial] = []
    for j in range(1, last + 1):
        grown = {w for m in current for w in _shadow(m, ctx)}
        grown.update(ideal.gens_of_degree(j))
        current = sorted(grown)
        yield j, current


def is_t_lex_ideal(ideal: MonomialIdeal) -> bool:
    """Whether every degree slice of the ideal is an initial slex segment.

    A nonempty slice is initial exactly when its size matches the size of
    the lex set of its slex-least member, so no segment is ever built.
    """
    for _, slice_j in t_spread_component(ideal):
        if slice_j and len(slice_j) != count_t_lex_mon(slex_min(slice_j), ideal.ctx):
            return False
    return True
