import gc
import random
import time
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CLOSURE_40_CTX,
    CLOSURE_40_GENS,
    CLOSURE_RINGS,
    IDEAL_RINGS,
    REALIZE_BASICS,
    REALIZE_GENERATORS,
    small_closures,
    small_ideals,
    spread_ideals,
    spread_monomials,
)
from tspread import construct, kk
from tspread.core import (
    BorelIncomparableError,
    Context,
    MonomialIdeal,
    NotTSpreadError,
    TSpreadError,
    _gaps_at_least,
    borel_geq,
    exchange_moves,
    max_mon,
    min_mon,
    minimalize,
    require_t_spread,
    validate_monomial,
)
from tspread.count import (
    _lex_count,
    _ss_seg_size,
    card_veronese,
    count_t_lex_mon,
    count_t_ss_mon,
    iter_lex_count_terms,
)
from tspread.construct import (
    is_t_lex_ideal,
    is_t_lex_seg,
    is_t_ss_ideal,
    is_t_ss_seg,
    is_t_ss_set,
    iter_veronese,
    t_lex_mon,
    t_lex_seg,
    t_next_lex,
    t_shadow,
    t_shadow_set,
    t_spread_component,
    t_ss_ideal,
    t_ss_mon,
    t_ss_seg,
    t_ss_set,
    t_veronese,
    t_veronese_ideal,
)
from tspread.oracle import (
    enumerate_veronese,
    oracle_borel_set,
    oracle_lex_set,
    oracle_shadow,
    oracle_ss_closure,
)

class TestShadow:
    def test_known_shadow(self):
        got = t_shadow((2, 5, 9, 14), Context(16, 2))
        assert got == [
            (2, 5, 7, 9, 14),
            (2, 5, 9, 11, 14),
            (2, 5, 9, 12, 14),
            (2, 5, 9, 14, 16),
        ]

    def test_empty_shadow(self):
        assert t_shadow((1, 5, 9, 13), Context(14, 3)) == []

    def test_single_variable(self):
        assert t_shadow((1,), Context(3, 2)) == [(1, 3)]

    def test_rejects_non_spread(self):
        with pytest.raises(NotTSpreadError, match="expected a t-spread monomial"):
            t_shadow((1, 2), Context(5, 2))

    def test_set_union_known(self):
        got = t_shadow_set([(3, 7, 10, 14), (1, 5, 9, 13)], Context(14, 2))
        assert got == [
            (1, 3, 5, 9, 13),
            (1, 3, 7, 10, 14),
            (1, 5, 7, 9, 13),
            (1, 5, 9, 11, 13),
            (3, 5, 7, 10, 14),
            (3, 7, 10, 12, 14),
        ]

    def test_set_empty_input(self):
        assert t_shadow_set([], Context(6, 2)) == []

    def test_set_deduplicates_overlaps(self):
        # (1,3) and (3,5) both produce (1,3,5)
        got = t_shadow_set([(1, 3), (3, 5)], Context(6, 2))
        assert got == [(1, 3, 5), (1, 3, 6)]


class TestNextLex:
    def test_bump_and_repack(self):
        assert t_next_lex((2, 6, 10, 13), Context(13, 3)) == (2, 7, 10, 13)

    def test_smallest_has_no_successor(self):
        assert t_next_lex((4, 7, 10, 13), Context(13, 3)) is None

    def test_small_enumeration(self):
        assert t_next_lex((1, 2), Context(3, 1)) == (1, 3)

    def test_rejects_non_spread(self):
        with pytest.raises(NotTSpreadError):
            t_next_lex((1, 2), Context(9, 2))

    @pytest.mark.parametrize("n,t", IDEAL_RINGS + [(2, 3), (3, 5)])
    def test_walks_every_slice(self, n, t):
        # each t-spread monomial, degree 0 and t > n included, steps to the
        # next one of the oracle's slice, and the last one to None
        ctx = Context(n, t)
        for d in range(ctx.max_degree() + 1):
            chain = enumerate_veronese(d, ctx)
            assert list(map(t_next_lex, chain, [ctx] * len(chain))) == chain[1:] + [None]


class TestLexSegments:
    def test_known_segment_size(self):
        seg = t_lex_seg((1, 4, 7), (2, 6, 10), Context(11, 3))
        assert len(seg) == 21
        assert seg[0] == (1, 4, 7) and seg[-1] == (2, 6, 10)

    def test_singleton(self):
        assert t_lex_seg((2, 6, 10), (2, 6, 10), Context(11, 3)) == [(2, 6, 10)]

    def test_whole_veronese(self):
        ctx = Context(7, 3)
        seg = t_lex_seg(max_mon(2, ctx), min_mon(2, ctx), ctx)
        assert seg == t_veronese(2, ctx)
        assert len(seg) == 10

    def test_reversed_endpoints_error(self):
        with pytest.raises(TSpreadError):
            t_lex_seg((2, 6, 10), (1, 4, 7), Context(11, 3))

    def test_lex_mon_known(self):
        seg = t_lex_mon((2, 6, 10), Context(11, 3))
        assert len(seg) == 21
        assert seg[0] == (1, 4, 7)
        assert seg[-2:] == [(2, 6, 9), (2, 6, 10)]
        # strictly descending slex, i.e. strictly ascending tuples
        assert all(a < b for a, b in zip(seg, seg[1:]))

    def test_lex_mon_of_max_is_singleton(self):
        ctx = Context(11, 3)
        assert t_lex_mon(max_mon(3, ctx), ctx) == [max_mon(3, ctx)]

    def test_lex_mon_of_min_is_everything(self):
        ctx = Context(9, 4)
        assert t_lex_mon(min_mon(2, ctx), ctx) == t_veronese(2, ctx)
        assert len(t_veronese(2, ctx)) == 15

    def test_is_t_lex_seg(self):
        ctx = Context(11, 3)
        seg = t_lex_mon((2, 6, 10), ctx)
        assert is_t_lex_seg(seg, ctx)
        assert is_t_lex_seg([(2, 6, 10)], ctx)
        assert is_t_lex_seg([], ctx)
        broken = [m for m in seg if m != (1, 6, 9)]
        assert not is_t_lex_seg(broken, ctx)


class TestBorelSegments:
    def test_known_segment(self):
        seg = t_ss_seg((1, 5, 7), (2, 5, 8), Context(9, 2))
        assert seg == [
            (1, 5, 7),
            (1, 5, 8),
            (2, 4, 6),
            (2, 4, 7),
            (2, 4, 8),
            (2, 5, 7),
            (2, 5, 8),
        ]

    def test_known_shorter_segment(self):
        seg = t_ss_seg((1, 5, 7), (2, 5, 7), Context(11, 2))
        assert seg == [(1, 5, 7), (2, 4, 6), (2, 4, 7), (2, 5, 7)]

    def test_incomparable_endpoints_error(self):
        with pytest.raises(BorelIncomparableError):
            t_ss_seg((1, 5, 7), (2, 4, 8), Context(11, 2))

    def test_singleton(self):
        assert t_ss_seg((2, 5, 8), (2, 5, 8), Context(9, 2)) == [(2, 5, 8)]

    def test_known_closure_sizes(self):
        assert len(t_ss_mon((2, 5, 8, 11), Context(13, 1))) == 143
        assert len(t_ss_mon((2, 5, 8, 11), Context(13, 2))) == 42

    def test_known_closure_endpoints(self):
        one = t_ss_mon((2, 5, 8, 11), Context(13, 1))
        assert one[0] == (1, 2, 3, 4) and one[-1] == (2, 5, 8, 11)
        two = t_ss_mon((2, 5, 8, 11), Context(13, 2))
        assert two[0] == (1, 3, 5, 7) and two[-1] == (2, 5, 8, 11)

    def test_closure_of_max_is_singleton(self):
        ctx = Context(9, 2)
        assert t_ss_mon(max_mon(3, ctx), ctx) == [max_mon(3, ctx)]

    def test_set_union(self):
        ctx = Context(5, 2)
        assert t_ss_set([(1, 3), (2, 5)], ctx) == [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5)]
        assert t_ss_set([(2, 4)], ctx) == t_ss_mon((2, 4), ctx)
        assert t_ss_set([max_mon(2, ctx)], ctx) == [max_mon(2, ctx)]

    def test_is_t_ss_seg(self):
        ctx = Context(13, 1)
        seg = t_ss_mon((2, 5, 8, 11), ctx)
        assert is_t_ss_seg(seg, ctx)
        assert is_t_ss_seg([max_mon(4, ctx)], ctx)
        # dropping a non-minimal member breaks the segment
        broken = [m for m in seg if m != (1, 2, 3, 5)]
        assert not is_t_ss_seg(broken, ctx)

    def test_is_t_ss_set(self):
        ctx = Context(13, 2)
        assert is_t_ss_set(t_ss_mon((2, 5, 8, 11), ctx), ctx)
        assert is_t_ss_set([max_mon(4, ctx)], ctx)
        assert not is_t_ss_set([(2, 5, 8, 11)], ctx)


class TestVeronese:
    def test_known_size(self):
        assert len(t_veronese(3, Context(11, 3))) == 35

    def test_small_cross_check(self):
        assert len(t_veronese(4, Context(8, 2))) == 5

    def test_empty_when_degree_too_large(self):
        assert t_veronese(4, Context(7, 3)) == []

    def test_ideal_wrapper(self):
        ideal = t_veronese_ideal(2, Context(5, 2))
        assert ideal.gens == ((1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5))


class TestIdealOperations:
    def test_closure_of_known_basics(self):
        ideal = MonomialIdeal(Context(25, 3), REALIZE_BASICS)
        closed = t_ss_ideal(ideal)
        assert closed.gens == REALIZE_GENERATORS

    def test_closure_of_principal_max(self):
        ctx = Context(9, 2)
        ideal = MonomialIdeal(ctx, (max_mon(3, ctx),))
        assert t_ss_ideal(ideal).gens == ideal.gens

    def test_closure_rejects_non_spread(self):
        with pytest.raises(NotTSpreadError):
            t_ss_ideal(MonomialIdeal(Context(9, 2), ((1, 2),)))

    def test_is_t_ss_ideal(self):
        assert is_t_ss_ideal(MonomialIdeal(Context(25, 3), REALIZE_GENERATORS))
        # a middle variable alone is not strongly stable
        assert not is_t_ss_ideal(MonomialIdeal(Context(6, 2), ((5,),)))

    def test_is_t_lex_ideal_known_false(self):
        ctx = Context(8, 2)
        original = MonomialIdeal(
            ctx,
            ((1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 3, 8), (1, 4, 6),
             (1, 4, 7), (1, 4, 8), (2, 4, 6), (2, 4, 7), (2, 4, 8)),
        )
        assert not is_t_lex_ideal(original)

    def test_zero_ideal_is_lex(self):
        assert is_t_lex_ideal(MonomialIdeal(Context(8, 2)))

    def test_is_t_lex_ideal_rejects_non_spread(self):
        with pytest.raises(NotTSpreadError):
            is_t_lex_ideal(MonomialIdeal(Context(8, 2), ((1, 2),)))

    def test_component_rejects_non_spread_top_degree(self):
        # no shadow of (2, 3, 6) is ever taken, so only an upfront check sees it
        with pytest.raises(NotTSpreadError):
            list(t_spread_component(MonomialIdeal(Context(6, 2), ((4,), (2, 3, 6)))))


GRID = [(n, t) for n in range(1, 10) for t in range(1, 4)]


@pytest.mark.parametrize("n,t", GRID)
def test_walks_and_shadow_match_oracle_in_order(n, t):
    ctx = Context(n, t)
    for d in range(ctx.max_degree() + 2):
        chain = enumerate_veronese(d, ctx)
        assert t_veronese(d, ctx) == chain
        for u in chain:
            assert t_lex_mon(u, ctx) == sorted(oracle_lex_set(u, ctx))
            assert t_ss_mon(u, ctx) == sorted(oracle_borel_set(u, ctx))
            assert t_shadow(u, ctx) == sorted(oracle_shadow([u], ctx))


def capped_step(w, caps, t):
    """The slex successor of w among the t-spread monomials under ``caps``
    (componentwise), None at caps: bump the last index still below its cap
    and repack the tail t apart."""
    q = len(w) - 1
    while q >= 0 and w[q] >= caps[q]:
        q -= 1
    if q < 0:
        return None
    return w[:q] + tuple(range(w[q] + 1, w[q] + 1 + (len(w) - q) * t, t))


def stepped(top, bottom, caps, t):
    """The successor walk the level builder replaced: ``capped_step`` from top to bottom."""
    out = [top]
    while out[-1] != bottom:
        out.append(capped_step(out[-1], caps, t))
    return out


@pytest.mark.parametrize("n,t", GRID)
def test_level_builder_matches_successor_walk_and_oracle(n, t):
    # every L_t{u} and B_t{u}, every lex segment and every Borel segment
    # B_t[v,u] of the ring, and the Veronese slice
    ctx = Context(n, t)
    walk = construct._walk
    for d in range(ctx.max_degree() + 1):
        chain = enumerate_veronese(d, ctx)
        top, low = chain[0], min_mon(d, ctx)
        assert walk(top, low, low, t) == stepped(top, low, low, t) == chain
        for j, u in enumerate(chain):
            borel = sorted(oracle_borel_set(u, ctx))
            assert walk(top, u, u, t) == stepped(top, u, u, t) == borel, u
            for i, v in enumerate(chain[: j + 1]):
                assert walk(v, u, low, t) == stepped(v, u, low, t) == chain[i : j + 1], (v, u)
                if borel_geq(v, u):
                    want = [w for w in borel if w >= v]
                    assert walk(v, u, u, t) == stepped(v, u, u, t) == want, (v, u)


@st.composite
def walk_cases(draw, n_max=60, t_max=3, window=2000):
    """(ctx, v, u, w): a lex segment [v, u] of at most ``window`` + 1
    monomials, ranks anywhere, and a w of rank at most ``window``."""
    n = draw(st.integers(1, n_max))
    t = draw(st.integers(1, t_max))
    ctx = Context(n, t)
    d = draw(st.integers(1, ctx.max_degree()))
    card = card_veronese(d, ctx)
    first = draw(st.integers(0, card - 1))
    last = draw(st.integers(first, min(card - 1, first + window)))
    rank = draw(st.integers(0, min(card - 1, window)))
    return ctx, *(construct._unrank(r, d, ctx) for r in (first, last, rank))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=walk_cases(), data=st.data())
def test_level_builder_matches_successor_walk_hypothesis(case, data):
    ctx, v, u, w = case
    t, walk = ctx.t, construct._walk
    low = min_mon(len(u), ctx)
    lex = walk(v, u, low, t)
    assert lex == stepped(v, u, low, t)
    assert len(lex) == count_t_lex_mon(u, ctx) - count_t_lex_mon(v, ctx) + 1
    # B_t{w}, a subset of L_t{w}, so no larger than the rank of w plus one
    top = max_mon(len(w), ctx)
    borel = walk(top, w, w, t)
    assert borel == stepped(top, w, w, t)
    assert len(borel) == count_t_ss_mon(w, ctx)
    # a Borel segment B_t[x, w] from one of its own members
    x = data.draw(st.sampled_from(borel))
    assert walk(x, w, w, t) == stepped(x, w, w, t) == [y for y in borel if y >= x]


def joined_lines(monomials):
    # one line per member, its indices joined by commas; "1" for the unit
    return "".join((",".join(map(str, m)) or "1") + "\n" for m in monomials)


@pytest.mark.parametrize("n,t", [(n, t) for n, t in GRID if n <= 8])
def test_text_walk_matches_the_tuple_walk(n, t):
    # the text twin of every lex and Borel walk of the ring, against the
    # tuples of the same walk joined line by line; one block per head (the
    # hypothesis twin below reaches n = 60)
    ctx = Context(n, t)
    for d in range(ctx.max_degree() + 1):
        chain = enumerate_veronese(d, ctx)
        low = min_mon(d, ctx)
        for j, u in enumerate(chain):
            for v in chain[: j + 1]:
                for caps in (low, u) if borel_geq(v, u) else (low,):
                    walk = construct._walk(v, u, caps, t)
                    blocks = list(construct._walk_lines(v, u, caps, t))
                    assert "".join(blocks) == joined_lines(walk), (v, u, caps)
                    split = construct._split(v, u, caps, t)
                    assert len(blocks) == (1 if split is None else len(split))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=walk_cases())
def test_text_walk_matches_the_tuple_walk_hypothesis(case):
    ctx, v, u, w = case
    t = ctx.t
    low, top = min_mon(len(u), ctx), max_mon(len(w), ctx)
    for span in ((v, u, low, t), (top, w, w, t)):
        assert "".join(construct._walk_lines(*span)) == joined_lines(construct._walk(*span))


def test_listings_are_their_walks():
    # each public listing is its walks built as tuples, and their text is
    # the same members line by line, the lex ideal's rank intervals included
    ctx = Context(30, 2)
    u, v = (3, 9, 14, 20, 27), (1, 4, 9, 14, 20)
    f = [1, 30, 400, 2200, 0]
    cases = [
        (t_lex_mon(u, ctx), construct._lex_mon_walks(u, ctx)),
        (t_ss_mon(u, ctx), construct._ss_mon_walks(u, ctx)),
        (t_lex_seg(v, u, ctx), construct._lex_seg_walks(v, u, ctx)),
        (t_ss_seg(v, u, ctx), construct._ss_seg_walks(v, u, ctx)),
        (t_veronese(4, ctx), construct._veronese_walks(4, ctx)),
        ([], construct._veronese_walks(16, ctx)),
        (list(kk.t_lex_ideal_from_f(f, ctx).gens), kk._walks_from_f(f, ctx)),
    ]
    for listing, walks in cases:
        assert walks.members() == listing
        assert "".join(walks.lines()) == joined_lines(listing)
        assert walks.size() == len(listing)
    assert len(cases[-1][1]) > 1  # several degrees


@pytest.mark.parametrize("t", [1, 2, 3])
def test_walks_report_their_size(t):
    # a seeded grid over every producer of walks: each one's closed-form
    # size is the number of members its walks list, every degree 0..D and
    # the empty degree past D, and the lex ideals of random closures' vectors
    rng = random.Random(2800 + t)
    for n in range(1, 13):
        ctx = Context(n, t)
        top_degree = ctx.max_degree()
        produced = [construct._veronese_walks(top_degree + 1, ctx)]
        for d in range(top_degree + 1):
            chain = t_veronese(d, ctx)
            u = rng.choice(chain)
            v = rng.choice(t_ss_mon(u, ctx))
            start, end = sorted(rng.choice(chain) for _ in range(2))
            produced += [
                construct._veronese_walks(d, ctx),
                construct._lex_mon_walks(u, ctx),
                construct._ss_mon_walks(u, ctx),
                construct._lex_seg_walks(start, end, ctx),
                construct._ss_seg_walks(v, u, ctx),
            ]
        for _ in range(4 if top_degree else 0):
            gens = [rng.choice(t_veronese(rng.randint(1, top_degree), ctx)) for _ in range(3)]
            f = kk.ft_vector(construct.t_ss_ideal(MonomialIdeal(ctx, gens)))
            produced += [kk._walks_from_f(f, ctx), kk._walks_of_counts(f, ctx)]
        for walks in produced:
            assert walks.size() == len(walks.members()), (n, walks)


def test_level_builder_reaches_large_indices():
    # indices near 20 000 and 10^6: a fixed-size table of singletons would
    # cut the ranges short
    ctx = Context(20000, 1)
    seg = t_lex_seg((1, 19990), (2, 10), ctx)
    assert len(seg) == count_t_lex_mon((2, 10), ctx) - count_t_lex_mon((1, 19990), ctx) + 1 == 19
    assert seg[0] == (1, 19990) and seg[10] == (1, 20000) and seg[-1] == (2, 10)
    borel = t_ss_mon((3, 20000), ctx)
    assert len(borel) == count_t_ss_mon((3, 20000), ctx) == 19999 + 19998 + 19997
    assert borel[-2:] == [(3, 19999), (3, 20000)]
    lex = t_lex_mon((1, 20000), ctx)
    assert len(lex) == count_t_lex_mon((1, 20000), ctx) == 19999 and lex[-1] == (1, 20000)
    big = Context(10**6, 1)
    assert t_lex_seg((1, 999990), (2, 3), big) == [(1, x) for x in range(999990, 10**6 + 1)] + [(2, 3)]


@pytest.mark.parametrize("n", range(1, 10))
def test_lex_list_matches_level_builder_on_every_interval(n):
    # every lex segment through the public t_lex_seg, which validates its
    # endpoints and lists by _lex_list, against the oracle's slice order;
    # the reversed endpoints are refused
    for t in range(1, 4):
        ctx = Context(n, t)
        for d in range(ctx.max_degree() + 1):
            chain = enumerate_veronese(d, ctx)
            for i, v in enumerate(chain):
                for j, u in enumerate(chain[i:], i):
                    assert t_lex_seg(v, u, ctx) == chain[i : j + 1], (v, u)
            if len(chain) > 1:
                with pytest.raises(TSpreadError, match="lies below its end"):
                    t_lex_seg(chain[-1], chain[0], ctx)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=walk_cases(n_max=40, t_max=1))
def test_lex_list_matches_level_builder_hypothesis(case):
    # t = 1 lex lists from the public functions against the successor walk
    # and the closed-form counts
    ctx, v, u, w = case
    low = min_mon(len(u), ctx)
    seg = t_lex_seg(v, u, ctx)
    assert seg == stepped(v, u, low, 1)
    assert len(seg) == count_t_lex_mon(u, ctx) - count_t_lex_mon(v, ctx) + 1
    lex = t_lex_mon(w, ctx)
    assert lex == stepped(max_mon(len(w), ctx), w, min_mon(len(w), ctx), 1)
    assert len(lex) == count_t_lex_mon(w, ctx)


def test_lex_list_at_degree_n_needs_no_recursion():
    # at t = 1 the degree reaches n, past the default recursion limit of 1000
    ctx = Context(1201, 1)
    assert t_veronese(1201, ctx) == [tuple(range(1, 1202))]
    lex = t_veronese(1200, ctx)
    assert len(lex) == 1201 and lex[0] == tuple(range(1, 1201)) and lex[-1] == tuple(range(2, 1202))


@pytest.mark.parametrize("n,t", GRID)
def test_walk_count_matches_level_builder(n, t):
    # the closed-form counts of the walks: the lex-rank difference on every
    # lex pair, the Borel segment count on every Borel-comparable pair
    ctx = Context(n, t)
    walk = construct._walk
    for d in range(ctx.max_degree() + 1):
        chain = enumerate_veronese(d, ctx)
        low = min_mon(d, ctx)
        ranks = [count_t_lex_mon(w, ctx) for w in chain] if d else [1]
        for j, u in enumerate(chain):
            for i, v in enumerate(chain[: j + 1]):
                assert ranks[j] - ranks[i] + 1 == len(walk(v, u, low, t)), (v, u)
                if borel_geq(v, u):
                    assert _ss_seg_size(v, u, t) == len(walk(v, u, u, t)), (v, u)


@st.composite
def borel_pairs(draw, n_max=60, t_max=3, free=3):
    """(t, v, u): t-spread v Borel-above u that part in at most ``free``
    trailing positions, so that the segment stays small enough to walk."""
    n = draw(st.integers(1, n_max))
    t = draw(st.integers(1, t_max))
    d = draw(st.integers(0, Context(n, t).max_degree()))
    u = draw(spread_monomial(n, t, d))
    v = list(u[: draw(st.integers(max(d - free, 0), d))])
    for cap in u[len(v):]:
        v.append(draw(st.integers(v[-1] + t if v else 1, cap)))
    return t, tuple(v), u


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=borel_pairs())
def test_segment_count_matches_level_builder_hypothesis(case):
    t, v, u = case
    assert _ss_seg_size(v, u, t) == len(construct._walk(v, u, u, t))


def test_segment_count_at_a_million_variables():
    # O(d^3) binomials whatever n; the level DP it replaced took O(d n) steps
    v, u = (1, 3, 5, 7, 9, 11), (10, 20, 30, 40, 50, 10**6)
    start = time.perf_counter()
    assert _ss_seg_size(v, u, 2) == 632475764625
    assert not is_t_ss_seg([v, u], Context(10**6, 2))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n,t", GRID)
def test_is_t_ss_seg_matches_built_segments(n, t):
    # every Borel segment is one, and without a middle member it is not;
    # every pair is one exactly when it is the whole segment it spans
    ctx = Context(n, t)
    for d in range(ctx.max_degree() + 1):
        chain = enumerate_veronese(d, ctx)
        for j, u in enumerate(chain):
            for v in chain[: j + 1]:
                seg = construct._walk(v, u, u, t) if borel_geq(v, u) else None
                assert is_t_ss_seg([v, u], ctx) == (seg is not None and set(seg) == {v, u})
                if seg is not None:
                    assert is_t_ss_seg(seg[::-1], ctx)
                    if len(seg) > 2:
                        assert not is_t_ss_seg(seg[:1] + seg[2:], ctx)


def test_is_t_ss_seg_builds_no_segment(monkeypatch):
    # two members at n = 40 span a segment of 62 832 monomials
    def refuse(*_):
        raise AssertionError("segment walked")

    monkeypatch.setattr(construct, "_walk", refuse)
    assert not is_t_ss_seg([(1, 2, 3, 4, 5), (6, 12, 18, 24, 30)], Context(40, 1))
    assert _ss_seg_size((1, 2, 3, 4, 5), (6, 12, 18, 24, 30), 1) == 62832


def per_member_slice(monomials, ctx):
    """One slice member by member: the members validated one at a time, and
    None unless all are t-spread of one degree."""
    ms = {validate_monomial(m, ctx) for m in monomials}
    if len({len(m) for m in ms}) > 1 or not all(_gaps_at_least(m, ctx.t) for m in ms):
        return None
    return ms


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return "raised", type(exc), str(exc)


class Index(int):
    """An int subclass: equal to its value, but not an exact int."""


def spread_monomial(n, t, d):
    """A strategy for t-spread monomials of degree d over n variables."""
    # a d-subset of [n - (d-1)(t-1)], spread out by k(t-1) at position k
    return st.builds(
        lambda pick: tuple(x + k * (t - 1) for k, x in enumerate(sorted(pick))),
        st.lists(st.integers(1, n - max(d - 1, 0) * (t - 1)), min_size=d, max_size=d, unique=True),
    )


@st.composite
def slice_inputs(draw, n_max=12, t_max=4):
    """(members, ctx): often a valid slice, else anything the boundary may see."""
    n = draw(st.integers(1, n_max))
    t = draw(st.integers(1, t_max))
    ctx = Context(n, t)
    d = draw(st.integers(0, ctx.max_degree()))
    valid = spread_monomial(n, t, d)
    entry = st.one_of(st.integers(-1, n + 2), st.sampled_from(["3", True, False, "x", None]))
    junk = st.one_of(st.tuples(), st.lists(entry, max_size=4).map(tuple), st.lists(entry, max_size=4))
    # strictly increasing inside [1, n], gaps below t allowed
    increasing = st.lists(st.integers(1, n), max_size=4, unique=True).map(lambda m: tuple(sorted(m)))
    # valid indices of another type: the exact-int fast path must not take them
    retyped = st.builds(
        lambda m, kind: tuple(map(kind, m)) if kind is not list else list(m),
        valid, st.sampled_from([bool, float, Index, list]),
    )
    members = draw(st.lists(st.one_of(valid, valid, increasing, junk, retyped), max_size=8))
    if draw(st.booleans()):  # repeats
        members += members[: draw(st.integers(0, len(members)))]
    return members, ctx


def per_member_slices(monomials, ctx, check):
    """``_slices`` member by member: each member checked in input order, None
    unless all are t-spread, else the distinct members by degree, ascending."""
    ms = [check(m, ctx) for m in monomials]
    if not all(_gaps_at_least(m, ctx.t) for m in ms):
        return None
    by_degree = {}
    for m in ms:
        by_degree.setdefault(len(m), set()).add(m)
    return [by_degree[d] for d in sorted(by_degree)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=slice_inputs())
def test_batch_slice_check_matches_member_by_member(case):
    members, ctx = case
    # (1.0, 2.0) and (True,) equal their int tuples, so the types are compared too
    exact = [m for m in members if type(m) is tuple and all(type(i) is int for i in m)]
    for check in (validate_monomial, require_t_spread):
        for given_members, want in [(members, members), (iter(members), members), (exact, exact)]:
            got = outcome(construct._slices, given_members, ctx, check)
            if got[0] == "value" and got[1] is not None:
                for ms, cols in got[1]:
                    # the columns are the set's, position by position, in its iteration order
                    assert list(map(tuple, cols)) == list(zip(*ms))
                    assert {type(m) for m in ms} <= {tuple}
                    assert {type(i) for m in ms for i in m} <= {int}
                got = ("value", [ms for ms, _ in got[1]])
            assert got == outcome(per_member_slices, want, ctx, check)


def member_set_tests(members, ctx):
    """The verdicts of is_t_lex_seg, is_t_ss_seg and is_t_ss_set member by member.

    The members are validated one at a time, and each set is compared with
    the one it must equal, enumerated by the oracle.
    """
    ms = per_member_slice(members, ctx)
    if ms is None:  # several degrees, or a member not t-spread
        spread = {validate_monomial(m, ctx) for m in members}
        if not all(_gaps_at_least(m, ctx.t) for m in spread):
            return False, False, False
        return False, False, spread == oracle_ss_closure(spread, ctx)
    top, bottom = min(ms, default=()), max(ms, default=())
    interval = {w for w in enumerate_veronese(len(bottom), ctx) if top <= w <= bottom}
    segment = {w for w in oracle_borel_set(bottom, ctx) if w >= top}
    return (
        len(ms) < 2 or ms == interval,
        not ms or ms == segment,
        ms == oracle_ss_closure(ms, ctx),
    )


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=slice_inputs())
def test_set_tests_match_member_by_member(case):
    members, ctx = case
    want = outcome(member_set_tests, members, ctx)
    for k, test in enumerate((is_t_lex_seg, is_t_ss_seg, is_t_ss_set)):
        got = outcome(test, members, ctx)
        assert got == (want if want[0] == "raised" else ("value", want[1][k])), test.__name__


def test_batch_check_starts_no_collection():
    # Columns by itemgetter make no object per member; zip(*ms) held one
    # iterator per member at once, and on this set it started 67 young and 6
    # middle collections in each of the three calls.  The set test hands
    # each zipped decrement to a set lookup and drops it, so zip reuses one
    # tuple; set.issuperset of an iterator, which it replaced, first copies
    # the iterator into a temporary set on CPython 3.10.  Zero collections holds
    # under CPython's generational thresholds (3.10-3.13), where a collection
    # starts only once tracked objects allocated outnumber those freed by
    # the threshold; an interpreter that collects incrementally
    # (3.14) schedules collections differently and may need this revisited.
    ctx = Context(40, 2)
    ms = t_ss_mon((5, 11, 18, 27, 35), ctx)
    assert len(ms) == 51561
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        checks = [
            ("_slices", lambda ms, ctx: construct._slices(ms, ctx, validate_monomial), True),
            ("is_t_lex_seg", is_t_lex_seg, False),
            ("is_t_ss_seg", is_t_ss_seg, True),
            ("is_t_ss_set", is_t_ss_set, True),
        ]
        for name, check, want in checks:
            gc.collect()
            starts.clear()
            assert bool(check(ms, ctx)) is want
            assert starts == [], name
    finally:
        gc.callbacks.remove(count)


def test_valid_sets_take_the_batch_check_only(monkeypatch):
    # tuples of exact ints in [1, n], t-spread, in any order, with repeats
    # and of several degrees: the batch check certifies them all, so no
    # member is validated on its own
    ctx = Context(12, 2)
    one = t_ss_mon((3, 7, 11), ctx)
    mixed = one[::-1] + one[:5] + t_ss_mon((2, 6), ctx) + [(4,), ()]
    calls = [
        is_t_lex_seg, is_t_ss_seg, is_t_ss_set, t_shadow_set, t_ss_set,
        lambda ms, ctx: MonomialIdeal(ctx, [m for m in ms if m]).gens,
    ]
    want = [[call(ms, ctx) for call in calls] for ms in (one, mixed)]

    def refuse(*_):
        raise AssertionError("validated member by member")

    monkeypatch.setattr("tspread.core._least_gap", refuse)
    monkeypatch.setattr(construct, "validate_monomial", refuse)
    monkeypatch.setattr(construct, "require_t_spread", refuse)
    assert [[call(ms, ctx) for call in calls] for ms in (one, mixed)] == want


def member_shadows(monomials, ctx):
    """The shadow set member by member: each shadow built, deduplicated by a set."""
    return sorted({w for u in monomials for w in t_shadow(u, ctx)})


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=slice_inputs())
def test_shadow_set_matches_member_by_member(case):
    members, ctx = case
    assert outcome(t_shadow_set, members, ctx) == outcome(member_shadows, members, ctx)
    assert outcome(t_shadow_set, iter(members), ctx) == outcome(member_shadows, members, ctx)


@st.composite
def spread_slices(draw, n_max=14, t_max=4, size_max=12):
    """(members, ctx): t-spread monomials of one degree, 0 included, with repeats."""
    n = draw(st.integers(1, n_max))
    t = draw(st.integers(1, t_max))
    ctx = Context(n, t)
    d = draw(st.integers(0, ctx.max_degree()))
    members = draw(st.lists(spread_monomial(n, t, d), max_size=size_max))
    if draw(st.booleans()):  # repeats
        members += members[: draw(st.integers(0, len(members)))]
    return members, ctx


@settings(max_examples=500, derandomize=True, deadline=None)
@given(case=spread_slices())
def test_shadow_kernel_matches_oracle_and_member_path(case):
    members, ctx = case
    got = t_shadow_set(members, ctx)
    assert got == construct._shadow_runs(set(members), ctx)
    assert got == member_shadows(members, ctx)
    assert got == sorted(oracle_shadow(members, ctx))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=spread_slices(n_max=40, size_max=60))
def test_shadow_kernel_matches_member_path_at_larger_n(case):
    members, ctx = case
    assert t_shadow_set(members, ctx) == member_shadows(members, ctx)


@pytest.mark.parametrize(
    "members,ctx,want",
    [
        ([], Context(6, 2), []),
        ([()], Context(4, 3), [(1,), (2,), (3,), (4,)]),
        ([(), ()], Context(2, 1), [(1,), (2,)]),
        ([(3,)], Context(5, 2), [(1, 3), (3, 5)]),
        ([(2, 4), (2, 4)], Context(5, 1), [(1, 2, 4), (2, 3, 4), (2, 4, 5)]),
        ([(1, 4, 7)], Context(7, 3), []),
    ],
)
def test_shadow_set_special_inputs(members, ctx, want):
    assert t_shadow_set(members, ctx) == want == member_shadows(members, ctx)


@pytest.mark.parametrize("n,t", GRID)
def test_shadow_of_a_veronese_slice_is_the_next_slice(n, t):
    ctx = Context(n, t)
    for d in range(ctx.max_degree() + 1):
        assert t_shadow_set(t_veronese(d, ctx), ctx) == t_veronese(d + 1, ctx)


def test_shadow_set_serves_a_valid_batch_by_the_kernel(monkeypatch):
    def refuse(*_):
        raise AssertionError("shadow built member by member")

    ctx = Context(30, 2)
    members = t_veronese(4, ctx)[::37]
    mixed = members + [(1, 3, 5), (2, 30)]
    want = member_shadows(members, ctx)
    want_mixed = member_shadows(mixed, ctx)
    monkeypatch.setattr(construct, "_shadow", refuse)
    assert t_shadow_set(members, ctx) == want
    assert t_shadow_set(mixed, ctx) == want_mixed  # mixed degrees take the kernel too


def borel_union(monomials, ctx):
    """The smallest strongly stable set as the union of one Borel set per member."""
    return sorted({w for u in monomials for w in t_ss_mon(u, ctx)})


@pytest.mark.parametrize("n,t", GRID)
def test_ss_set_is_the_union_of_borel_sets(n, t):
    ctx = Context(n, t)
    ms = [()] + list(spread_monomials(n, t))
    k = len(ms)
    groups = [[m] for m in ms] + [[ms[i], ms[(5 * i + 1) % k], ms[(11 * i + 3) % k]] for i in range(k)]
    for group in groups:
        assert t_ss_set(group, ctx) == borel_union(group, ctx)


@st.composite
def mixed_members(draw, n_max=14, t_max=4):
    """(members, ctx): t-spread monomials of any degrees, sometimes one that is not."""
    n = draw(st.integers(1, n_max))
    t = draw(st.integers(1, t_max))
    ctx = Context(n, t)
    one = st.integers(0, ctx.max_degree()).flatmap(lambda d: spread_monomial(n, t, d))
    bad = st.lists(st.integers(0, n + 1), max_size=4).map(tuple)
    members = draw(st.lists(st.one_of(one, one, one, bad), max_size=6))
    if draw(st.booleans()):  # repeats
        members += members[: draw(st.integers(0, len(members)))]
    return members, ctx


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=mixed_members())
def test_ss_set_matches_borel_union_hypothesis(case):
    members, ctx = case
    assert outcome(t_ss_set, members, ctx) == outcome(borel_union, members, ctx)
    assert outcome(t_ss_set, iter(members), ctx) == outcome(borel_union, members, ctx)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=mixed_members())
def test_ss_set_is_strongly_stable_hypothesis(case):
    # the closure passes the set test whatever its degrees; without its
    # slex-greatest member of a degree it fails, unless that was the
    # degree's only member: a chain of single decrements from any other
    # member ends there
    members, ctx = case
    got = outcome(t_ss_set, members, ctx)
    if got[0] == "raised":
        return
    closed = got[1]
    assert is_t_ss_set(closed, ctx)
    assert is_t_ss_set(iter(closed), ctx)
    for d in set(map(len, closed)):
        only = sum(len(w) == d for w in closed) == 1
        assert is_t_ss_set([w for w in closed if w != max_mon(d, ctx)], ctx) == only, d


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=spread_slices())
def test_ss_set_test_is_the_ideal_test_of_its_slice(case):
    # a one-degree set is strongly stable exactly when the ideal it generates
    # is: what lets one decrement kernel serve both tests.  The set's
    # closure is checked too, so that both answers are seen often.
    members, ctx = case
    assume(members and members[0])
    for ms in (members, t_ss_set(members, ctx)):
        assert is_t_ss_set(ms, ctx) == is_t_ss_ideal(MonomialIdeal(ctx, ms)), ms


def test_ss_set_walks_no_borel_set_per_member(monkeypatch):
    def refuse(*_):
        raise AssertionError("one Borel set per member")

    ctx = Context(40, 2)
    members = [(5, 12, 20, 28, 36), (3, 9, 18, 27, 40), (7, 15, 25, 33, 39), (1, 30), ()]
    want = borel_union(members, ctx)
    monkeypatch.setattr(construct, "t_ss_mon", refuse)
    assert t_ss_set(members, ctx) == want


@pytest.mark.parametrize("n,t", GRID)
def test_unrank_lists_the_slex_order(n, t):
    ctx = Context(n, t)
    for d in range(ctx.max_degree() + 1):
        for r, w in enumerate(iter_veronese(d, ctx)):
            assert construct._unrank(r, d, ctx) == w, (r, d)


@pytest.mark.parametrize("n,t", GRID)
def test_is_t_lex_seg_on_every_interval(n, t):
    ctx = Context(n, t)
    for d in range(ctx.max_degree() + 1):
        chain = enumerate_veronese(d, ctx)
        for i in range(len(chain)):
            for j in range(i, len(chain)):
                interval = chain[i : j + 1]
                assert is_t_lex_seg(interval, ctx)
                if len(interval) > 2:
                    del interval[len(interval) // 2]
                    assert not is_t_lex_seg(interval, ctx)


@pytest.mark.parametrize(
    "build",
    [
        lambda ctx: t_lex_mon(min_mon(5, ctx), ctx),
        lambda ctx: t_lex_seg(max_mon(5, ctx), min_mon(5, ctx), ctx),
        lambda ctx: t_veronese(5, ctx),
        lambda ctx: t_ss_mon(min_mon(5, ctx), ctx),
    ],
    ids=["t_lex_mon", "t_lex_seg", "t_veronese", "t_ss_mon"],
)
def test_constructions_validate_a_bounded_number_of_times(monkeypatch, build):
    calls = []
    checked = construct.require_t_spread

    def counting(u, ctx):
        calls.append(u)
        return checked(u, ctx)

    monkeypatch.setattr(construct, "require_t_spread", counting)
    ctx = Context(20, 2)
    assert len(build(ctx)) == 4368  # C(16, 5): the whole degree-5 slice
    assert len(calls) <= 2


@pytest.mark.parametrize("n,t", IDEAL_RINGS)
def test_strongly_stable_ideals_match_oracle(n, t):
    # exact both ways: strongly stable exactly when the ideal is its closure
    for ideal, closure in small_ideals(n, t):
        want = tuple(minimalize(closure))
        assert stability_answers(ideal) == {want == ideal.gens}, ideal.gens
        assert t_ss_ideal(ideal).gens == want, ideal.gens


def scalar_is_t_ss_ideal(ideal):
    """The stability test one generator at a time, as it was before the
    column kernel: the gap test, then each single decrement and its tail
    prefixes, shortest first, looked up as tuples."""
    t = ideal.ctx.t
    if not all(g[i + 1] - g[i] >= t for g in ideal.gens for i in range(len(g) - 1)):
        return False
    gens = set(ideal.gens)
    for g in ideal.gens:
        prev = 1 - t
        for k, i in enumerate(g):
            if i - 1 - prev >= t:
                w = g[:k] + (i - 1,)
                if w not in gens:
                    for x in g[k + 1:]:
                        w += (x,)
                        if w in gens:
                            break
                    else:
                        return False
            prev = i
    return True


def stability_answers(ideal):
    """The answers of the reference, the column kernel and the public test,
    as a set.  The public test runs on an unflagged copy, whose memo starts
    empty, so it reaches the kernel whatever the memo of ``ideal`` holds."""
    return {
        scalar_is_t_ss_ideal(ideal),
        construct._ss_by_decrements(ideal),
        is_t_ss_ideal(MonomialIdeal._of_minimal(ideal.ctx, ideal.gens)),
    }


def stability_variants(closed, drop, rng):
    """The closure, the closure less its generator ``drop`` and the closure
    shuffled out of (degree, slex) order, each as generators taken as they are."""
    gens = list(closed.gens)
    shuffled = gens[:]
    rng.shuffle(shuffled)
    return [
        MonomialIdeal._of_minimal(closed.ctx, tuple(g))
        for g in (gens, gens[:drop] + gens[drop + 1:], shuffled)
    ]


@pytest.mark.parametrize("n,t", CLOSURE_RINGS)
def test_stability_kernels_on_closures(n, t):
    # every closure is stable; less one generator it is exactly when the
    # oracle closes it to itself
    for closed in small_closures(n, t):
        assert stability_answers(closed) == {True}, closed.gens
        for drop in range(len(closed.gens)):
            less = closed.gens[:drop] + closed.gens[drop + 1:]
            want = tuple(minimalize(oracle_ss_closure(less, closed.ctx))) == less
            assert stability_answers(MonomialIdeal._of_minimal(closed.ctx, less)) == {want}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(ideal=spread_ideals(), drop=st.integers(0, 10**6), seed=st.integers(0, 2**32))
def test_stability_kernels_match_reference(ideal, drop, seed):
    closed = t_ss_ideal(ideal)
    variants = stability_variants(closed, drop % len(closed.gens), random.Random(seed))
    for case in [ideal] + variants:
        assert stability_answers(case) == {scalar_is_t_ss_ideal(case)}, case.gens
    assert stability_answers(variants[0]) == stability_answers(variants[2]) == {True}


@st.composite
def long_generators(draw):
    """(ctx, generators) at t = 1, n >= 300, degree >= 100: keys of 250 decimal digits.

    Each generator is 1, 2, ... up to a shared point, then one or two free
    indices in a window of 30, so its strongly stable set stays small.
    """
    n = draw(st.integers(300, 400))
    d = draw(st.integers(100, 120))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        free = draw(st.integers(1, 2))
        tail = draw(st.lists(st.integers(d - free + 1, d + 30), min_size=free, max_size=free,
                             unique=True))
        gens.append(tuple(range(1, d - free + 1)) + tuple(sorted(tail)))
    return Context(n, 1), gens


@settings(max_examples=25, derandomize=True, deadline=None)
@given(case=long_generators(), drop=st.integers(0, 10**6), seed=st.integers(0, 2**32))
def test_stability_kernels_with_big_keys(case, drop, seed):
    ctx, gens = case
    ideal = MonomialIdeal(ctx, gens)
    closed = t_ss_ideal(ideal)
    for case in [ideal] + stability_variants(closed, drop % len(closed.gens), random.Random(seed)):
        assert stability_answers(case) == {scalar_is_t_ss_ideal(case)}, case.gens


@pytest.mark.parametrize("n,t", IDEAL_RINGS)
def test_is_t_lex_ideal_matches_oracle_slices(n, t):
    ctx = Context(n, t)
    slices = [enumerate_veronese(k, ctx) for k in range(1, ctx.max_degree() + 1)]
    # bit r of multiples[m][k - 1]: the rank-r monomial of degree k is a multiple of m
    multiples = {
        m: [sum(1 << r for r, w in enumerate(s) if set(m) <= set(w)) for s in slices]
        for m in spread_monomials(n, t)
    }
    for ideal, _ in small_ideals(n, t):
        members = [reduce(or_, (multiples[g][k] for g in ideal.gens)) for k in range(len(slices))]
        # a slice is initial when its members hold the lowest ranks, x + 1 a power of 2
        assert is_t_lex_ideal(ideal) == all(x & (x + 1) == 0 for x in members), ideal.gens


def built_is_t_lex_ideal(ideal):
    """``is_t_lex_ideal`` as it was before the head count: each degree's
    slex-least split member built whole, then counted by ``count_t_lex_mon``."""
    ctx = ideal.ctx
    n, t = ctx.n, ctx.t
    shapes = construct._shapes(ideal)
    last = {(len(g), g[-1]): g for g in ideal.gens}
    for k in range(1, ctx.max_degree() + 1):
        members = construct._ek_members(shapes, k, ctx)
        if not members:
            continue
        least = max(
            g + tuple(range(n - (k - d - 1) * t, n + 1, t))
            for (d, top), g in last.items()
            if d <= k and n - (k - d - 1) * t >= top + t
        )
        if count_t_lex_mon(least, ctx) != members:
            return False
    return True


def lex_count_cases(ideal):
    """The ideal, its closure and, when its vector admits one, its lex ideal."""
    closed = t_ss_ideal(ideal)
    cases = [ideal, closed]
    if kk.is_ft_vector(kk.ft_vector(closed), closed.ctx):
        cases.append(kk.t_lex_ideal_of(closed))
    return cases


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ideal=spread_ideals(n_max=16, d_max=5, gens_max=5))
def test_lex_test_matches_the_built_least_member(ideal):
    # the small-ideal grids check the verdicts against the oracle
    # (test_is_t_lex_ideal_matches_oracle_slices); here larger rings, and
    # with each ideal its closure and its lex ideal, a True verdict
    n, t = ideal.ctx.n, ideal.ctx.t
    for case in lex_count_cases(ideal):
        assert is_t_lex_ideal(case) == built_is_t_lex_ideal(case), case.gens
        # the head count is the whole member's, summed term by term, in
        # every degree it reaches
        for g in case.gens:
            for k in range(len(g) + 1, case.ctx.max_degree() + 1):
                pad = tuple(range(n - (k - len(g) - 1) * t, n + 1, t))
                if pad[0] >= g[-1] + t:
                    want = sum(iter_lex_count_terms(g + pad, case.ctx))
                    assert _lex_count(g + pad[:1], k, n, t) == want


def test_lex_test_is_linear_in_the_degrees():
    # (x_1) at n = 5 000, t = 1: 5 000 degrees.  Building each degree's
    # least member and counting it level by level took 13.9 s; counting
    # its head takes a few binomials per degree.
    ctx = Context(5000, 1)
    ideal = MonomialIdeal(ctx, [(1,)])
    start = time.perf_counter()
    assert is_t_lex_ideal(ideal)
    assert time.perf_counter() - start < 8.0


@pytest.mark.parametrize("n,t", CLOSURE_RINGS)
def test_prefix_membership_matches_scan(n, t, minimal_builds):
    for ideal in small_closures(n, t):
        gens = set(ideal.gens)
        for w in spread_monomials(n, t):
            assert construct._has_prefix_in(w, gens) == ideal.contains(w), (ideal.gens, w)
        assert t_ss_ideal(ideal) == ideal
    assert minimal_builds  # t_ss_ideal went through the unchecked constructor


def scan_contains(ideal, u):
    """Membership by the generator scan: some generator's support inside u's."""
    support = set(u)  # once, as an iterator gives it once
    return any(set(g) <= support for g in ideal.gens)


class Indices(tuple):
    """A tuple subclass, which ``contains`` answers by the scan.  The scan
    only iterates it; indexing it, as the checks of the prefix path do,
    fails."""

    def __getitem__(self, key):
        raise AssertionError("a tuple subclass took the prefix path")


def membership_inputs(ctx):
    """What ``contains`` is asked: every t-spread monomial of the ring, and
    each of them reversed, with its first index twice, with index 0 in
    front, with index n + 1 behind, with an index 1 apart (not t-spread
    unless t = 1) and as a list; then () and the single indices 0 and n + 1.
    Then each of them with members that are no index: index 1 as True and
    False in front, as floats, with a last index off by 0.5, as a string or
    in a list (unhashable, first or last), followed by "x", and as a tuple
    subclass.  (``test_contains_matches_generator_scan`` asks iterators.)"""
    out = [(), (0,), (ctx.n + 1,)]
    for u in spread_monomials(ctx.n, ctx.t):
        out += [u, u[::-1], u[:1] + u, (0,) + u, u + (ctx.n + 1,), u + (u[-1] + 1,), list(u)]
    for u in spread_monomials(ctx.n, ctx.t):
        *head, last = u
        out += [
            tuple(True if i == 1 else i for i in u), (False,) + u,
            tuple(map(float, u)), (*head, last + 0.5), (*head, str(last)),
            (*head, [last]), ([u[0]],) + u[1:], u + ("x",), Indices(u),
        ]
    return out


def membership_variants(ideal):
    """The ideal cold (no memo), memo-warm (its verdict known, True or
    False) and, through ``t_ss_ideal``, its closure flagged at construction."""
    cold = MonomialIdeal._of_minimal(ideal.ctx, ideal.gens)
    warm = MonomialIdeal._of_minimal(ideal.ctx, ideal.gens)
    is_t_ss_ideal(warm)
    return [cold, warm, t_ss_ideal(ideal)]


@pytest.mark.parametrize("n,t", CLOSURE_RINGS)
def test_contains_matches_generator_scan(n, t):
    # the prefix path answers exactly as the scan, a raised TypeError
    # included (``outcome``), and only a stable verdict the ideal already holds opens it.
    # The closures are their own closures, so all three variants of one
    # share its generators.
    ctx = Context(n, t)
    inputs = membership_inputs(ctx)
    ideals = [ideal for ideal, _ in small_ideals(n, t)] + small_closures(n, t)
    for ideal in ideals + [MonomialIdeal(ctx)]:
        want = [outcome(scan_contains, ideal, u) for u in inputs]
        cold, warm, closed = membership_variants(ideal)
        for case in (cold, warm) + ((closed,) if closed == ideal else ()):
            assert [outcome(case.contains, u) for u in inputs] == want, case
            # an iterator is consumed once, by the scan
            for u in spread_monomials(n, t):
                assert case.contains(iter(u)) == scan_contains(case, u), (case, u)
            # a hit answers True whatever follows the generator
            assert all(case.contains(g + ("x",)) for g in case.gens), case
        assert "ss" not in cold._memo  # contains never tests stability


@settings(max_examples=200, derandomize=True, deadline=None)
@given(ideal=spread_ideals(), data=st.data())
def test_contains_matches_generator_scan_hypothesis(ideal, data):
    # unsorted, duplicated, out-of-range and non-t-spread input included;
    # then members that are no index (bools, floats, strings and lists,
    # which are unhashable) among the indices, as a tuple, a tuple
    # subclass, a list and an iterator, a raised TypeError compared too
    index = st.integers(0, ideal.ctx.n + 1)
    u = tuple(data.draw(st.lists(index, max_size=6)))
    member = st.one_of(index, st.booleans(), index.map(float), st.floats(0, ideal.ctx.n + 1),
                       index.map(str), index.map(lambda i: [i]))
    v = tuple(data.draw(st.lists(member, max_size=6)))
    for case in membership_variants(ideal):
        for probe in (u, tuple(sorted(set(u))), list(u)):
            assert case.contains(probe) == scan_contains(case, probe), (case.gens, probe)
        for probe in (v, Indices(v), list(v)):
            assert outcome(case.contains, probe) == outcome(scan_contains, case, probe), \
                (case.gens, probe)
        assert outcome(case.contains, iter(v)) == outcome(scan_contains, case, v), (case.gens, v)


def test_each_ideal_runs_the_stability_kernel_once(monkeypatch):
    from tspread import betti, kk

    runs = []
    kernel = construct._ss_by_decrements
    monkeypatch.setattr(construct, "_ss_by_decrements",
                        lambda ideal: runs.append(ideal) or kernel(ideal))

    def invariants(ideal):
        assert is_t_ss_ideal(ideal)
        betti.graded_betti(ideal)
        betti.extremal_corners(ideal)
        kk.ft_vector(ideal)
        kk.t_lex_ideal_of(ideal)

    ctx = Context(25, 3)
    # one kernel for every size: all 23 generators, and the 13 of degree 2
    large = MonomialIdeal(ctx, REALIZE_GENERATORS)
    small = MonomialIdeal(ctx, REALIZE_GENERATORS[:13])
    for ideal in (large, small):
        assert ideal.contains(ideal.gens[-1] + (25,)) and not runs  # contains never tests
        invariants(ideal)
        invariants(ideal)
        assert runs == [ideal]
        runs.clear()
    closed = t_ss_ideal(MonomialIdeal(ctx, REALIZE_BASICS))
    invariants(closed)
    assert closed == large and not runs


@pytest.mark.parametrize("n,t", CLOSURE_RINGS)
def test_is_t_ss_set_matches_exchange_closure(n, t):
    ctx = Context(n, t)
    ms = spread_monomials(n, t)
    for pair in ((u, v) for u in ms for v in ms if len(u) == len(v) and u <= v):
        closed = oracle_ss_closure(pair, ctx)
        assert is_t_ss_set(closed, ctx)
        assert is_t_ss_set(pair, ctx) == (closed == set(pair))
        # the public exchange_moves, which nothing in the package calls
        # any more, agrees with the oracle's moves
        assert all(w in closed for u in closed for w in exchange_moves(u, ctx))


def test_veronese_ideal_is_built_minimal(minimal_builds):
    for n, t in CLOSURE_RINGS:
        ctx = Context(n, t)
        for d in range(1, ctx.max_degree() + 2):
            assert t_veronese_ideal(d, ctx).gens == tuple(enumerate_veronese(d, ctx))
    with pytest.raises(TSpreadError, match="unit monomial"):
        t_veronese_ideal(0, Context(5, 2))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(ideal=spread_ideals())
def test_strongly_stable_ideals_match_oracle_hypothesis(ideal):
    want = tuple(minimalize(oracle_ss_closure(ideal.gens, ideal.ctx)))
    assert is_t_ss_ideal(ideal) == (want == ideal.gens)
    closed = t_ss_ideal(ideal)
    assert closed.gens == want
    gens = set(want)
    for w in closed.gens + ideal.gens:
        for u in t_shadow(w, ideal.ctx) + [w[1:], w[:-1]]:
            assert construct._has_prefix_in(u, gens) == closed.contains(u)


def test_strongly_stable_ideals_need_no_scan(monkeypatch):
    from tspread import betti, kk

    ideal = MonomialIdeal(Context(25, 3), REALIZE_GENERATORS)

    def refuse(*_):
        raise AssertionError("generator scan on a strongly stable ideal")

    monkeypatch.setattr(MonomialIdeal, "contains", refuse)
    monkeypatch.setattr("tspread.core._minimal", refuse)
    assert is_t_ss_ideal(ideal) and t_ss_ideal(ideal) == ideal
    config = betti.extremal_corners(ideal)
    assert betti.realize_extremal_betti(config, ideal.ctx)[1] == ideal
    assert betti.graded_betti(ideal).total(0) == len(ideal.gens)
    assert kk.ft_vector(kk.t_lex_ideal_of(ideal)) == kk.ft_vector(ideal)
    assert not is_t_lex_ideal(ideal)
    assert len(t_veronese_ideal(3, ideal.ctx).gens) == 1330  # C(21, 3)


def fresh_matches_definition(ideal, closed):
    """``_fresh`` per generator degree, and so ``t_ss_ideal``, against the
    closure ``closed``: the members with no proper prefix in it."""
    want = sorted((w for w in closed if not construct._has_prefix_in(w[:-1], closed)),
                  key=lambda w: (len(w), w))
    for d in ideal.degrees():
        out = []
        construct._fresh(ideal.gens_of_degree(d), closed, ideal.ctx.t, out)
        assert out == [w for w in want if len(w) == d], (ideal.gens, d)
    # t_ss_ideal prunes by the generators found so far, not the whole closure
    assert t_ss_ideal(ideal).gens == tuple(want), ideal.gens


@pytest.mark.parametrize("n,t", IDEAL_RINGS)
def test_pruned_walk_matches_borel_sets(n, t, minimal_builds):
    for ideal, closure in small_ideals(n, t):  # the union of the Borel sets, by the oracle
        fresh_matches_definition(ideal, closure)
    assert minimal_builds


# minimal_builds patches the same check in for every example
@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ideal=spread_ideals())
def test_pruned_walk_matches_borel_sets_hypothesis(ideal, minimal_builds):
    fresh_matches_definition(ideal, {w for g in ideal.gens for w in t_ss_mon(g, ideal.ctx)})
    assert minimal_builds


def test_closures_and_realizations_walk_no_borel_set(monkeypatch, closure_40):
    from tspread import betti

    def refuse(*_):
        raise AssertionError("whole Borel set walked")

    def veronese(d, ctx):  # realization's candidates, without the successor
        return (m for m in combinations(range(1, ctx.n + 1), d) if _gaps_at_least(m, ctx.t))

    monkeypatch.setattr(construct, "_walk", refuse)
    monkeypatch.setattr(construct, "t_ss_mon", refuse)
    monkeypatch.setattr(construct, "t_ss_set", refuse)
    monkeypatch.setattr(betti, "iter_veronese", veronese)
    for ideal, gens in [
        (MonomialIdeal(Context(25, 3), REALIZE_BASICS), REALIZE_GENERATORS),
        (MonomialIdeal(CLOSURE_40_CTX, CLOSURE_40_GENS), closure_40[0].gens),
    ]:
        closed = t_ss_ideal(ideal)
        assert closed.gens == gens
        config = betti.extremal_corners(closed)
        basics, realized = betti.realize_extremal_betti(config, ideal.ctx)
        assert betti.extremal_corners(realized) == config
        assert realized == t_ss_ideal(MonomialIdeal(ideal.ctx, basics))


def test_deep_closure_needs_no_recursion():
    from tspread.betti import CornerConfig, realize_extremal_betti

    # at t = 1 the degree reaches n, past the default recursion limit of 1000
    ctx = Context(1200, 1)
    u = tuple(range(1, 1201))
    assert t_ss_ideal(MonomialIdeal(ctx, [u])).gens == (u,)
    v = u[:-1] + (1201,)  # at n = 1201 the Borel set of v is {u, v}
    out = []
    construct._fresh([u, v], set(), 1, out)
    assert out == [u, v]
    assert realize_extremal_betti(CornerConfig([(0, 1200)], [1]), ctx)[1].gens == (u,)


def test_closure_of_a_large_closure_is_itself(closure_40):
    # 129 913 generators as caps: only the greatest of each degree are walked
    closed, _ = closure_40
    start = time.perf_counter()
    assert t_ss_ideal(closed) == closed
    assert time.perf_counter() - start < 10.0


def test_large_closure_is_fast(closure_40):
    # Borel sets of 258 985 monomials, 129 913 minimal generators
    closed, seconds = closure_40
    assert seconds < 10.0
    assert len(closed.gens) == 129913
    assert closed.gens[0] == (1, 3, 5, 7) and closed.gens[-1] == (7, 15, 25, 33, 40)
    assert is_t_ss_ideal(closed)
    # the closure comes with its verdict set; the column kernel, on an
    # unflagged ideal of the same generators, under the same bound
    fresh = MonomialIdeal._of_minimal(closed.ctx, closed.gens)
    start = time.perf_counter()
    assert is_t_ss_ideal(fresh)
    assert time.perf_counter() - start < 10.0
