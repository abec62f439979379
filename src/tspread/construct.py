"""Constructive algorithms on t-spread monomials.

Shadows, lex successors, lex and Borel segments, strongly stable closures,
Veronese sets and the ideal-level constructions built from them.  Every
routine manipulates index sequences only; at no point is the full monomial
basis of the ambient ring enumerated.

All set-valued results come back strictly descending in the squarefree-lex
order, which for index tuples is plain ascending sort order.

Lex and Borel sets are the t-spread monomials capped by a monomial ``c``
(w <= c componentwise) between two slex endpoints.  Capped by ``u`` they
are the monomials Borel-above ``u``; every monomial of a degree is
Borel-above its slex-least one, so capped by ``min_mon`` they are a stretch
of the whole lex order.  Two kernels list them.  The successor ``_step``
bumps the last index still below its slex-least cap, counted down from n,
and repacks the tail t apart; it serves the lazy and single-step calls
(``t_next_lex``, ``iter_veronese``).
The split walk ``_walk`` serves every list, lex and Borel, at every t: it
cuts the members halfway along into heads and tails, lists the heads and
one table of tails, shared by all heads, by the same walk, and joins each
head to a slice of the table, so the tuples are made by C-level
concatenation and the Python work is per head, not per monomial.  It
recurses to depth O(log d) only, so at t = 1 the degree may reach n.  One
walk has two consumers of that top split (``_split``): ``_walk`` joins each
head to its slice as tuples, and ``_walk_lines`` makes the text of the same
members, each head and each table entry formatted once by its degree's
``%d`` template and a head's lines one join over its slice of the table's
text, so a listing that is only printed builds no tuple per member.  The
listings are described by their walks (``_Walks``: the lex and Borel sets
and segments, the Veronese slice, the lex ideal's rank intervals) and
built as either.  The smallest strongly stable set containing given
monomials is built by ``_fresh``, one greatest-caps walk per degree, not
a union of Borel sets.  A set may start at any slex rank: the unrank step finds the monomial of a
given rank in O(d log n) binomials.  Public functions validate once; the
kernels and shadows never again.  The set tests and set constructions
take their members from ``_slices``: the one batch check, which the ideals
take too (``core._batch``), certifies them and groups them by degree, each
degree with its index columns, one ``itemgetter`` pass per position
(``core._columns`` says why not ``zip(*ms)``), and only input it does not
certify is checked member by member.  The segment tests compare the member
count with the segment's, a closed form (``count._ss_seg_size`` for Borel
segments).  A shadow set is emitted as ascending runs, one family per
insertion position, that a single sort merges (``_shadow_runs``), and one
more sort merges the degrees.

The stability tests of sets and ideals share one kernel: the single
decrements of each position, zipped from a degree's index columns, are
looked up among the members in one C-level pass per prefix length
(``is_t_ss_ideal``).  A set is strongly stable exactly when, degree by
degree, the ideal it generates is (``is_t_ss_set``).  An ideal remembers
its verdict and its generator shapes (``core.MonomialIdeal``), so each is
worked out once per ideal, and the constructions whose output is strongly
stable by construction hand it over with the verdict already set.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain, compress, filterfalse, groupby, islice, repeat, starmap
from math import comb
from operator import add, ge, itemgetter, lt, ne, sub

from .core import (
    BorelIncomparableError,
    Context,
    Monomial,
    MonomialIdeal,
    TSpreadError,
    _batch,
    _columns,
    _columns_spread,
    _groups,
    _has_prefix_in,
    borel_geq,
    cmp_slex,
    max_mon,
    min_mon,
    require_t_spread,
    require_t_spread_ideal,
    validate_monomial,
)
from .count import _lex_count, _ss_seg_size, _ss_size, binomial, card_veronese, count_t_lex_mon

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator, Mapping, Sequence


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
    """Deduplicated union of the shadows of the given monomials, ascending.

    The members are validated once (``_slices``), so the first offender
    raises.  Each degree goes to the run-merge kernel ``_shadow_runs``;
    shadows of different degrees differ, so one sort merges the degrees.
    """
    runs = [_shadow_runs(ms, ctx) for ms, _ in _slices(monomials, ctx, require_t_spread)]
    return runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs))


def _shadow_runs(ms: set[Monomial], ctx: Context) -> list[Monomial]:
    # The shadow set of t-spread monomials of one degree d, ascending.  The
    # shadows that insert the new index h at position r are u[:r] + (h,) +
    # u[r:], u[r-1] + t <= h <= u[r] - t (u[-1] := 1 - t, u[d] := n + t), and
    # each position is emitted as ascending runs of the sorted members:
    # positions 0 and 1 per group of members sharing the prefix u[:r], by h
    # ascending, each h one C-level block over a tail of the group's
    # suffixes u[r:]; position d per member, one C-level block over a table
    # of singletons (h,); positions 2 .. d-1 per member, by h.  One sort
    # merges the runs, which timsort finds, and leaves the duplicates (the
    # same shadow from several members) adjacent: a shadow is kept unless
    # it equals the next one.
    n, t = ctx.n, ctx.t
    members = sorted(ms)
    if not members:
        return []
    d = len(members[0])
    if not d:
        return [(h,) for h in range(1, n + 1)]
    cols = _columns(members, d)
    base = min(cols[-1]) + t
    singles = tuple(zip(range(base, n + 1)))

    def runs() -> Iterator[Iterable[Monomial]]:
        for r in range(min(d, 2)):
            tail = itemgetter(slice(r, None))
            for p, group in groupby(members, itemgetter(slice(None, r))):
                tails = list(map(tail, group))
                firsts = list(map(itemgetter(0), tails))
                for h in range(p[-1] + t if p else 1, firsts[-1] - t + 1):
                    yield map((p + (h,)).__add__, tails[bisect_left(firsts, h + t):])
        for r in range(2, d):
            for u, a, b in zip(members, cols[r - 1], cols[r]):
                if b - a >= 2 * t:
                    p, s = u[:r], u[r:]
                    yield [p + (h,) + s for h in range(a + t, b - t + 1)]
        for u in members:
            yield map(u.__add__, singles[u[-1] + t - base:])

    merged = sorted(chain.from_iterable(runs()))
    return [*compress(merged, map(ne, merged, islice(merged, 1, None))), *merged[-1:]]


def _step(w: Monomial, n: int, t: int) -> Monomial | None:
    # slex successor of w, None at the slex-least monomial; its caps,
    # n - (d-1-q)t at position q, are counted down, not built per call, and
    # the repacked tail stays under them because they are t-spread
    q, cap = len(w) - 1, n
    while q >= 0 and w[q] >= cap:
        q, cap = q - 1, cap - t
    if q < 0:
        return None
    return w[:q] + tuple(range(w[q] + 1, w[q] + 1 + (len(w) - q) * t, t))


def _walk(top: Monomial, bottom: Monomial, caps: Monomial, t: int) -> list[Monomial]:
    # Every t-spread w with top <= w <= bottom (tuple order) and w <= caps
    # componentwise, ascending; top and bottom lie under caps, which is
    # t-spread.  The members of the top split's blocks, in order, or, with
    # no split, the last index run from top's to bottom's.
    blocks = _split(top, bottom, caps, t)
    if blocks is None:
        return list(map(top[:-1].__add__, zip(range(top[-1], bottom[-1] + 1)))) if top else [top]
    return list(chain.from_iterable(
        map(head.__add__, tails[lo:hi]) for head, tails, lo, hi in blocks))


def _split(
    top: Monomial, bottom: Monomial, caps: Monomial, t: int
) -> list[tuple[Monomial, list[Monomial], int, int]] | None:
    # The top split of _walk(top, bottom, caps, t): one block (head, tails,
    # lo, hi) per head, in order, whose members are head + each of
    # tails[lo:hi]; None when top and bottom differ in the last index at
    # most.  Past the prefix c that top and bottom share, split at q,
    # halfway to the degree.  The heads, the length-q prefixes of the
    # members, are such a walk themselves, and every head completes, as
    # caps is t-spread.  The tails of the first and middle heads are
    # suffixes of one table, the walk of tails from the least start, low,
    # found by bisection; those of the last head are a slice of it, or its
    # own walk when it starts below low.  The head whose tails start at low
    # takes the whole table, so the table is never longer than the result.
    d = len(top)
    c = next((q for q, (a, b) in enumerate(zip(top, bottom)) if a != b), d)
    if c >= d - 1:
        return None
    q = (c + d) // 2
    first, *mid, last = _walk(top[:q], bottom[:q], caps[:q], t)
    rest = caps[q:]
    low = top[q:]
    if mid:
        low = min(low, _packed(min(map(itemgetter(-1), mid)) + t, d - q, t))
    table = _walk(low, rest, rest, t)
    firsts = list(map(itemgetter(0), table))
    end = len(table)
    blocks = [(first, table, bisect_left(table, top[q:]), end)]
    blocks += [(p, table, bisect_left(firsts, p[-1] + t), end) for p in mid]
    start = _packed(last[-1] + t, d - q, t)
    if start >= low:
        blocks.append((last, table, bisect_left(firsts, start[0]), bisect_right(table, bottom[q:])))
    else:
        tails = _walk(start, bottom[q:], rest, t)
        blocks.append((last, tails, 0, len(tails)))
    return blocks


class _Templates(dict):
    # the line template of each degree, made on first use: "%d,%d,%d" for
    # degree 3 and "1" for degree 0; one per degree seen
    def __missing__(self, d: int) -> str:
        fmt = self[d] = ",".join(["%d"] * d) or "1"
        return fmt


_TEMPLATES = _Templates()


def _walk_lines(top: Monomial, bottom: Monomial, caps: Monomial, t: int) -> Iterator[str]:
    # The text of _walk(top, bottom, caps, t), a line per member (its
    # degree's template, then a newline), one string per block of the top
    # split: each head and each table entry is formatted once, and a head's
    # lines are one join over its slice of the table's text.  A walk with no
    # split, degree 0 among them, is formatted member by member.
    blocks = _split(top, bottom, caps, t)
    if blocks is None:
        yield "".join(map((_TEMPLATES[len(top)] + "\n").__mod__, _walk(top, bottom, caps, t)))
        return
    q = len(blocks[0][0])
    head_fmt, tail_fmt = _TEMPLATES[q] + ",", _TEMPLATES[len(top) - q]
    shown: list[Monomial] | None = None
    for head, tails, lo, hi in blocks:
        if tails is not shown:  # the table, then perhaps the last head's own walk
            shown, texts = tails, list(map(tail_fmt.__mod__, tails))
        prefix = head_fmt % head
        yield prefix + ("\n" + prefix).join(texts[lo:hi]) + "\n"


class _Walks(list):
    """A listing as the walks that make it: ``_walk`` argument tuples (top,
    bottom, caps, t) whose members follow one another.  Nothing is walked
    until the listing is asked for, as tuples (``members``) or as text
    (``lines``), both from the same splits, or its size (``size``), the
    closed form its producer knows, counted only when asked."""

    __slots__ = ("size",)

    def __init__(self, walks: Iterable[tuple], size: Callable[[], int]) -> None:
        super().__init__(walks)
        self.size = size

    def members(self) -> list[Monomial]:
        if len(self) == 1:
            return _walk(*self[0])
        return list(chain.from_iterable(starmap(_walk, self)))

    def lines(self) -> Iterator[str]:
        return chain.from_iterable(starmap(_walk_lines, self))


def _packed(start: int, k: int, t: int) -> Monomial:
    # the k indices from start on, t apart: the least tail starting there
    return tuple(range(start, start + k * t, t))


def _lex_span(
    top: Monomial, bottom: Monomial, ctx: Context
) -> tuple[Monomial, Monomial, Monomial, int]:
    # the walk of the slex interval from top down to bottom, ascending as tuples
    return top, bottom, min_mon(len(top), ctx), ctx.t


def _unrank(r: int, d: int, ctx: Context) -> Monomial:
    # the degree-d t-spread monomial with exactly r monomials slex-above it,
    # 0 <= r < card_veronese(d); its rank is count_t_lex_mon minus 1.  With
    # k indices left after prev, C(x, k) monomials have the next index at
    # least i, x = top - (i - prev - t) (the hockey-stick sums of
    # count_t_lex_mon), so the next index is the largest i the rank reaches,
    # found by bisecting x in O(log n) binomials
    n, t = ctx.n, ctx.t
    prev = 1 - t
    out = []
    for k in range(d, 0, -1):
        top = n - k * (t - 1) - prev
        total = comb(top, k)
        x = k + bisect_left(range(k, top + 1), total - r, key=lambda y: comb(y, k))
        r -= total - comb(x, k)
        prev += top - x + t
        out.append(prev)
    return tuple(out)


def t_next_lex(u: Sequence[int], ctx: Context) -> Monomial | None:
    """The greatest t-spread monomial strictly below ``u``, or None at the end.

    Looks for the last position whose index can grow while leaving room for
    a t-spread tail, bumps it, and packs the tail as tightly as possible.
    """
    return _step(require_t_spread(u, ctx), ctx.n, ctx.t)


def iter_veronese(d: int, ctx: Context) -> Iterator[Monomial]:
    """All t-spread monomials of degree d, lazily, descending in slex."""
    if d and 1 + (d - 1) * ctx.t > ctx.n:
        return
    w: Monomial | None = max_mon(d, ctx)
    while w is not None:
        yield w
        w = _step(w, ctx.n, ctx.t)


def t_veronese(d: int, ctx: Context) -> list[Monomial]:
    """The full degree-d slice of t-spread monomials, descending in slex."""
    return _veronese_walks(d, ctx).members()


def _veronese_walks(d: int, ctx: Context) -> _Walks:
    if d and 1 + (d - 1) * ctx.t > ctx.n:
        return _Walks([], lambda: 0)
    span = _lex_span(max_mon(d, ctx), min_mon(d, ctx), ctx)
    return _Walks([span], lambda: card_veronese(d, ctx))


def t_veronese_ideal(d: int, ctx: Context) -> MonomialIdeal:
    if d == 0:
        raise TSpreadError("the unit monomial cannot generate a proper ideal")
    return MonomialIdeal._of_minimal(ctx, tuple(t_veronese(d, ctx)), stable=True)


def t_lex_seg(v: Sequence[int], u: Sequence[int], ctx: Context) -> list[Monomial]:
    """All monomials between ``v`` and ``u`` inclusive in the slex order.

    Listed by the split walk, which builds nothing outside the segment.
    """
    return _lex_seg_walks(v, u, ctx).members()


def _lex_seg_walks(v: Sequence[int], u: Sequence[int], ctx: Context) -> _Walks:
    top = require_t_spread(v, ctx)
    bottom = require_t_spread(u, ctx)
    if cmp_slex(top, bottom) < 0:
        raise TSpreadError("segment start lies below its end in the slex order")
    return _lex_interval(top, bottom, ctx)


def t_lex_mon(u: Sequence[int], ctx: Context) -> list[Monomial]:
    """The smallest lex set containing ``u``: everything slex-above it."""
    return _lex_mon_walks(u, ctx).members()


def _lex_mon_walks(u: Sequence[int], ctx: Context) -> _Walks:
    m = require_t_spread(u, ctx)
    return _lex_interval(max_mon(len(m), ctx), m, ctx)


def _lex_interval(top: Monomial, bottom: Monomial, ctx: Context) -> _Walks:
    # the slex interval from top down to bottom, sized by the lex sets of its
    # ends; the unit monomial's is {1}
    return _Walks(
        [_lex_span(top, bottom, ctx)],
        lambda: count_t_lex_mon(bottom, ctx) - count_t_lex_mon(top, ctx) + 1 if top else 1,
    )


def _slices(
    monomials: Iterable[Sequence[int]],
    ctx: Context,
    check: Callable[[Sequence[int], Context], Monomial],
) -> list[tuple[set[Monomial], list[list[int]]]] | None:
    # The distinct members by degree, ascending: each degree's set with its
    # index columns, in the set's iteration order, as the batch check
    # (``core._batch``) gives them; None when a member is not t-spread.
    # Input the batch check does not certify, or certifies with a gap below
    # t, goes through ``check`` (``validate_monomial`` or
    # ``require_t_spread``) member by member in input order, which converts
    # it or raises at the first offender.
    items = list(monomials)
    batch = _batch(items, ctx)
    if batch is None:
        batch = _batch([check(m, ctx) for m in items], ctx)
    elif batch[1] < ctx.t:
        for m in items:
            check(m, ctx)
    groups, gap = batch
    return [(ms, cols) for ms, _, cols in groups] if gap >= ctx.t else None


def is_t_lex_seg(monomials: Iterable[Sequence[int]], ctx: Context) -> bool:
    """Whether the set is exactly the slex interval between its extremes.

    The members all lie in that interval, so they fill it exactly when there
    are as many of them as the interval holds: a count, not a construction.
    """
    slices = _slices(monomials, ctx, validate_monomial)
    if slices is None or len(slices) > 1:
        return False
    ms = slices[0][0] if slices else set()
    # with two members or more the degree is positive, as counting needs
    d, n, t = len(min(ms, default=())), ctx.n, ctx.t
    return len(ms) < 2 or len(ms) == _lex_count(max(ms), d, n, t) - _lex_count(min(ms), d, n, t) + 1


def t_ss_seg(v: Sequence[int], u: Sequence[int], ctx: Context) -> list[Monomial]:
    """The strongly stable segment from ``v`` down to ``u``.

    Contains every monomial Borel-above ``u`` that is slex-below ``v``,
    produced in strictly descending slex order.  ``v`` must itself lie
    Borel-above ``u``.
    """
    return _ss_seg_walks(v, u, ctx).members()


def _ss_seg_walks(v: Sequence[int], u: Sequence[int], ctx: Context) -> _Walks:
    top, bottom = _ss_seg_ends(v, u, ctx)
    return _Walks([(top, bottom, bottom, ctx.t)], lambda: _ss_seg_size(top, bottom, ctx.t))


def _ss_seg_ends(v: Sequence[int], u: Sequence[int], ctx: Context) -> tuple[Monomial, Monomial]:
    # the endpoints of a Borel segment validated, or its first refusal raised:
    # either not t-spread, unequal degrees, v not Borel-above u
    top = require_t_spread(v, ctx)
    bottom = require_t_spread(u, ctx)
    if len(top) != len(bottom):
        raise TSpreadError("segment endpoints must have equal degrees")
    if not borel_geq(top, bottom):
        raise BorelIncomparableError(
            "segment start must dominate its end in the Borel order"
        )
    return top, bottom


def t_ss_mon(u: Sequence[int], ctx: Context) -> list[Monomial]:
    """The smallest strongly stable set containing ``u``.

    Equals the set of all monomials Borel-above ``u``; the slex-greatest
    monomial of the degree is always its first element.
    """
    return _ss_mon_walks(u, ctx).members()


def _ss_mon_walks(u: Sequence[int], ctx: Context) -> _Walks:
    m = require_t_spread(u, ctx)
    return _Walks([(max_mon(len(m), ctx), m, m, ctx.t)], lambda: _ss_size(m, ctx.t))


def t_ss_set(monomials: Iterable[Sequence[int]], ctx: Context) -> list[Monomial]:
    """Smallest strongly stable set containing all the given monomials, ascending.

    The members are validated once (``_slices``), so the first offender
    raises.  Each degree's members are the caps of one greatest-caps walk
    (``_fresh`` with nothing pruned): the monomials Borel-above some member,
    each built once, however many members it lies above.  One sort merges
    the degrees.
    """
    out: list[Monomial] = []
    for caps, cols in _slices(monomials, ctx, require_t_spread):
        if cols:
            _fresh(sorted(caps), set(), ctx.t, out)
        else:
            out.append(())
    return sorted(out)


def is_t_ss_seg(monomials: Iterable[Sequence[int]], ctx: Context) -> bool:
    """Whether the set is the strongly stable segment between its extremes.

    When the column maxima are the slex-least member, every member is
    Borel-above it, so the set lies in the segment and fills it exactly when
    it has as many members as the segment: a count, not a construction
    (``count._ss_seg_size``, O(d^3) binomials).
    """
    slices = _slices(monomials, ctx, validate_monomial)
    if slices is None or len(slices) > 1:
        return False
    if not slices:
        return True  # the empty set is a segment
    (ms, cols), = slices
    # every member is Borel-above the slex-least one exactly when the
    # column maxima are a member: then they are that one
    bottom = tuple(map(max, cols))
    if bottom not in ms:
        return False
    return len(ms) == _ss_seg_size(min(ms), bottom, ctx.t)


def _fresh(caps: Sequence[Monomial], low: set[Monomial], t: int, out: list[Monomial]) -> None:
    # Appends to out, descending in slex, the degree-d t-spread w that are
    # Borel-above some cap (w <= u componentwise) and have no proper prefix
    # in low.  The caps are nonempty, of degree d and descending in slex.
    # A cap below another adds nothing, and the greater one comes later in
    # that order, so one backward pass keeps the greatest caps.  w grows one
    # index at a time: after a prefix, the next index runs from the last one
    # plus t up to the largest one among the caps still above the prefix,
    # and every such prefix completes, because the caps are t-spread.  A
    # prefix in low is pruned with all its extensions, so no member of the
    # ideal low generates is ever visited.  An explicit stack, not
    # recursion: at t = 1 the degree can pass the recursion limit.
    greatest: list[Monomial] = []
    for u in reversed(caps):
        if not any(all(map(ge, v, u)) for v in greatest):
            greatest.append(u)
    d = len(greatest[0])
    stack = [((), greatest)]
    while stack:
        prefix, alive = stack.pop()
        q = len(prefix)
        start = prefix[-1] + t if prefix else 1
        top = max(u[q] for u in alive)
        if q == d - 1:  # the last index: w is whole, and only its proper prefixes count
            out.extend(prefix + (x,) for x in range(start, top + 1))
            continue
        # pushed from the top down, so the least index is popped first
        for x in range(top, start - 1, -1):
            w = prefix + (x,)
            if w not in low:
                stack.append((w, [u for u in alive if u[q] >= x]))


def is_t_ss_set(monomials: Iterable[Sequence[int]], ctx: Context) -> bool:
    """Whether the set is closed under all single exchange moves.

    Closure under the single decrements of its members (one index lowered
    by one, staying t-spread) is the same thing, and there are at most d of
    them per member.  Exchange moves keep the degree, so a set is closed
    exactly when each degree's slice is, and a slice of degree d is closed
    exactly when the ideal it generates is strongly stable: its decrements
    are of degree d, and in that ideal the degree-d members are the slice.
    So the decrement kernel of ``is_t_ss_ideal`` decides each degree alone.
    """
    slices = _slices(monomials, ctx, validate_monomial)
    t = ctx.t
    return slices is not None and all(_decrements_found(ms, cols, [], t) for ms, cols in slices)


def _decrements_found(
    ms: set[Monomial], cols: list[list[int]], lower: list[tuple[int, set[Monomial]]], t: int
) -> bool:
    # Whether every single decrement of the t-spread members ms, of one
    # degree with index columns cols, that stays t-spread has a member
    # prefix of a length j > k, the lowered position: itself in ms, or a
    # prefix in a set of the lower slices (degree, members), descending in
    # degree.  A position's decrements are zipped from the columns and looked
    # up whole; only those missed are cut to each shorter length and looked
    # up again, longest first, and the first one left over returns False.
    # The lookups of ``is_t_ss_ideal``.
    prev: Iterable[int] = repeat(1 - t)
    for k, col in enumerate(cols):
        stays = map(lt, repeat(t), map(sub, col, prev))  # the gap before position k exceeds t
        decrements = compress(zip(*cols[:k], map(add, col, repeat(-1)), *cols[k + 1:]), stays)
        missed = filterfalse(ms.__contains__, decrements)
        for j, members in lower:
            if j > k:
                missed = filterfalse(members.__contains__, map(itemgetter(slice(j)), missed))
        if next(missed, None) is not None:
            return False
        prev = col
    return True


def is_t_ss_ideal(ideal: MonomialIdeal) -> bool:
    """Whether the ideal is t-strongly stable.

    Two lemmas reduce the test to lookups of the generators' single
    decrements, and the index columns make each lookup one C-level pass
    over a whole degree.

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

    *Which prefixes.*  Lowering index k of a degree-d generator g leaves
    ``w[:j] = g[:j]`` for j <= k, a proper prefix of g, and no minimal
    generator has another as a proper prefix; a prefix of a length that is
    no generator degree is no generator.  So only the lengths j with
    k < j <= d that are generator degrees are looked up: one lookup per
    decrement when the generators share one degree.

    *Lookups.*  Only the decrements that stay t-spread are looked up: at
    position k, those of the generators whose gap there exceeds t, or at
    k = 0 whose first index exceeds 1.  They are tuples zipped from the
    degree's index columns, column k lowered by one, and are looked up
    whole among the generators of their degree.  Only the ones missed are
    cut to each shorter length j > k that is a generator degree, longest
    first, and looked up among the degree-j generators.  The ideal is
    strongly stable exactly when no decrement is left.

    The degrees go up one at a time, and each degree's columns are gap
    tested and its generators hashed only once the lower degrees have
    passed: every prefix looked up has degree at most d, so a degree that
    fails returns before any higher degree is hashed.  The same kernel
    (``_decrements_found``) decides strongly stable sets, a degree at a
    time (``is_t_ss_set``).

    The ideal remembers the verdict, so each ideal is tested once however
    many calls ask; the closures, lex ideals and Veronese ideals built here
    come with it already set.
    """
    return ideal._fact("ss", _ss_by_decrements)


def _ss_by_decrements(ideal: MonomialIdeal) -> bool:
    # is_t_ss_ideal by the decrement kernel, a degree at a time: a degree's
    # columns are listed and its generators hashed only once the lower
    # degrees have passed
    t = ideal.ctx.t
    lower: list[tuple[int, set[Monomial]]] = []
    for _, gens, cols in _groups(ideal.gens):
        if not _columns_spread(cols, t):
            return False
        ms = set(gens)
        if not _decrements_found(ms, cols, lower, t):
            return False
        lower.insert(0, (len(cols), ms))
    return True


def t_ss_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """Smallest t-strongly stable ideal containing the given one.

    By the prefix lemma (see ``is_t_ss_ideal``) its minimal generators are
    the closure members with no generator of lower degree as a prefix.  So
    the degrees go up one at a time, and each walks only those: the
    monomials Borel-above a generator of that degree, grown prefix by
    prefix, a prefix dropped with everything below it as soon as it is a
    generator found before.  No member of the ideal already found is built,
    and nothing outside the generator degrees is touched.
    """
    ctx = require_t_spread_ideal(ideal).ctx
    gens: list[Monomial] = []
    low: set[Monomial] = set()
    for _, caps in groupby(ideal.gens, len):  # generators come in degree order
        start = len(gens)
        _fresh(list(caps), low, ctx.t, gens)
        low.update(gens[start:])
    return MonomialIdeal._of_minimal(ctx, tuple(gens), stable=True)


def t_spread_component(ideal: MonomialIdeal) -> Iterator[tuple[int, list[Monomial]]]:
    """Degree-by-degree t-spread slices of the ideal, accumulated by shadows.

    Yields ``(j, sorted slice)`` for j = 1 up to the ambient maximal degree
    ``ctx.max_degree()``.  The degree-j slice is the shadow of the previous
    one joined with the degree-j generators; peeling the largest index not in
    a witness generator shows every t-spread member of the ideal arises this
    way.  Raises NotTSpreadError, on the first step, unless the ideal is
    t-spread.
    """
    ctx = require_t_spread_ideal(ideal).ctx
    current: list[Monomial] = []
    for j in range(1, ctx.max_degree() + 1):
        grown = {w for m in current for w in _shadow(m, ctx)}
        grown.update(ideal.gens_of_degree(j))
        current = sorted(grown)
        yield j, current


def _shapes(ideal: MonomialIdeal) -> Counter[tuple[int, int]]:
    # the generators' (degree, max index) shapes with multiplicity, remembered
    # by the ideal: all that the Betti numbers, corners and Eliahou-Kervaire
    # counts read of them.  Shared, so read only.
    return ideal._fact("shapes", _count_shapes)


def _count_shapes(ideal: MonomialIdeal) -> Counter[tuple[int, int]]:
    gens = ideal.gens
    return Counter(zip(map(len, gens), map(itemgetter(-1), gens)))


def _ek_members(shapes: Mapping[tuple[int, int], int], k: int, ctx: Context) -> int:
    # degree-k t-spread monomials with a minimal generator as a prefix (in a
    # t-strongly stable ideal, every member), given the generators'
    # (degree, max index) shapes with multiplicity: w = g v splits off its
    # generator prefix g, and v is any t-spread (k - deg g)-subset of the
    # n - max g - t + 1 variables from max g + t on, C(m - (e-1)(t-1), e)
    # of them for e-subsets of m consecutive variables
    t = ctx.t
    return sum(
        c * binomial(ctx.n - top - t + 1 - (k - d - 1) * (t - 1), k - d)
        for (d, top), c in shapes.items()
        if d <= k
    )


def is_t_lex_ideal(ideal: MonomialIdeal) -> bool:
    """Whether every degree slice of the ideal is an initial slex segment.

    Counts decide it; no slice is built.  Call a t-spread w of degree k
    *split* when some prefix g = w[:d] is a minimal generator (only one
    can be: a shorter one would divide it).  The tail is any t-spread
    (k - d)-subset from max g + t on, so the split members number the
    Eliahou-Kervaire sum of ``_ek_members``.

    *Least member.*  Componentwise the tail is at most the pad
    (n - (k-d-1)t, ..., n - t, n), so the slex-least split member (the
    tuple-max) is the tuple-max, over generator shapes (d, max g), of the
    shape's tuple-max generator followed by its pad, kept when the pad
    clears max g + t.  No minimal generator is a prefix of another, so
    these candidates compare as their generators do: the least member is
    the greatest such generator and its pad.  Its count needs only the
    generator and the pad's first index (``count._lex_count``): the pad's
    later indices each lower nothing, so their levels add 0, and no
    degree-k tuple is built.  Each degree costs one binomial per generator
    shape and O(deg g) more, not O(k).

    *Split members suffice.*  Those of degree k form an initial segment
    exactly when they are as many as the lex set of the least one.  If they
    do in every degree, every member w is split: a generator g dividing it
    makes the prefix w[:deg g] Borel-above g, so slex-above it, so split,
    and w with it; each slice is then that initial segment.  Conversely a
    lex ideal is t-strongly stable, where every member is split (the prefix
    lemma of ``is_t_ss_ideal``).  So no stability test is needed either.
    """
    ctx = require_t_spread_ideal(ideal).ctx
    n, t = ctx.n, ctx.t
    shapes = _shapes(ideal)
    # generators come in (degree, slex) order: the last of a shape is its tuple-max
    last = {(len(g), g[-1]): g for g in ideal.gens}
    for k in range(1, ctx.max_degree() + 1):
        members = _ek_members(shapes, k, ctx)
        if not members:
            continue
        g = max(g for (d, top), g in last.items() if d <= k and n - (k - d - 1) * t >= top + t)
        head = g + (n - (k - len(g) - 1) * t,) if len(g) < k else g
        if _lex_count(head, k, n, t) != members:
            return False
    return True
