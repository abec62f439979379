"""Shared fixture data: worked examples used across the test modules."""

import time
from copy import copy
from functools import lru_cache
from itertools import chain, combinations

import pytest
from hypothesis import strategies as st

from tspread import construct
from tspread.construct import t_ss_ideal
from tspread.core import Context, MonomialIdeal, minimalize
from tspread.oracle import enumerate_veronese, oracle_ss_closure

# Basic monomials realizing corners {(6,2),(5,4),(4,5),(3,7)} with values
# (2,1,3,2) over 25 variables at spread 3, and the minimal generators of the
# strongly stable ideal they span.
REALIZE_CTX = Context(25, 3)
REALIZE_BASICS = (
    (1, 10),
    (2, 10),
    (3, 6, 9, 15),
    (3, 6, 10, 13, 17),
    (3, 6, 10, 14, 17),
    (3, 6, 11, 14, 17),
    (3, 7, 10, 13, 16, 19, 22),
    (4, 7, 10, 13, 16, 19, 22),
)
REALIZE_GENERATORS = (
    (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10),
    (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10),
    (3, 6, 9, 12), (3, 6, 9, 13), (3, 6, 9, 14), (3, 6, 9, 15),
    (3, 6, 10, 13, 16), (3, 6, 10, 13, 17), (3, 6, 10, 14, 17), (3, 6, 11, 14, 17),
    (3, 7, 10, 13, 16, 19, 22), (4, 7, 10, 13, 16, 19, 22),
)
REALIZE_CORNERS = ((6, 2), (5, 4), (4, 5), (3, 7))
REALIZE_VALUES = (2, 1, 3, 2)
REALIZE_TOTALS = [23, 77, 117, 100, 51, 15, 2]

# Ten-generator 2-spread ideal over 8 variables with quotient counts
# {1, 8, 21, 10, 0} and its lex companion with eleven generators.
KK_CTX = Context(8, 2)
KK_IDEAL_GENS = (
    (1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 3, 8), (1, 4, 6),
    (1, 4, 7), (1, 4, 8), (2, 4, 6), (2, 4, 7), (2, 4, 8),
)
KK_LEX_GENS = (
    (1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 3, 8), (1, 4, 6), (1, 4, 7),
    (1, 4, 8), (1, 5, 7), (1, 5, 8), (1, 6, 8), (2, 4, 6, 8),
)
KK_FT = [1, 8, 21, 10, 0]

# Three 2-spread generators over 40 variables whose Borel sets hold 258 985
# monomials and whose strongly stable closure has 129 913 minimal generators.
CLOSURE_40_CTX = Context(40, 2)
CLOSURE_40_GENS = ((5, 12, 20, 30, 38), (3, 9, 18, 27), (7, 15, 25, 33, 40))


def realize_ideal() -> MonomialIdeal:
    return MonomialIdeal(REALIZE_CTX, REALIZE_GENERATORS)


def kk_ideal() -> MonomialIdeal:
    return MonomialIdeal(KK_CTX, KK_IDEAL_GENS)


# Exhaustive grids of small ideals.  Ideals of one or two generators run to
# n = 8 (46 499 ideals); the distinct strongly stable ideals among their
# closures run to n = 6, since at n = 8, t = 1 alone there are 28 000 of
# them and each check walks every monomial of the ring.
IDEAL_RINGS = [(n, t) for n in range(1, 9) for t in range(1, 4)]
CLOSURE_RINGS = [(n, t) for n in range(1, 7) for t in range(1, 4)]


@lru_cache(maxsize=None)
def spread_monomials(n: int, t: int) -> tuple:
    """Every t-spread monomial of positive degree, by the oracle."""
    ctx = Context(n, t)
    return tuple(m for d in range(1, ctx.max_degree() + 1) for m in enumerate_veronese(d, ctx))


def small_ideals(n: int, t: int):
    """(ideal, oracle closure) for every ideal of one or two t-spread generators.

    Moves reachable from a union of monomials are those reachable from one
    of them, so the oracle closure of a pair is the union of the closures
    of its members.  Each call hands out fresh ideals, so that no test sees
    what another one's calls remembered in an ideal's memo.
    """
    for ideal, closure in _small_ideals(n, t):
        yield copy(ideal), closure


@lru_cache(maxsize=None)
def _small_ideals(n: int, t: int) -> tuple:
    # the pairs of ``small_ideals``, built once per run and never handed out
    ctx = Context(n, t)
    ms = spread_monomials(n, t)
    borel = {m: frozenset(oracle_ss_closure([m], ctx)) for m in ms}
    return tuple(
        (MonomialIdeal(ctx, gens), frozenset().union(*(borel[g] for g in gens)))
        for gens in chain(((m,) for m in ms), combinations(ms, 2))
    )


def small_closures(n: int, t: int) -> list:
    """The distinct strongly stable ideals that close the small ideals, by the oracle.

    Fresh ideals on each call, as with ``small_ideals``.
    """
    return list(map(copy, _small_closures(n, t)))


@lru_cache(maxsize=None)
def _small_closures(n: int, t: int) -> tuple:
    # the ideals of ``small_closures``, built once per run and never handed out
    ctx = Context(n, t)
    gens = {tuple(minimalize(closure)) for _, closure in _small_ideals(n, t)}
    return tuple(MonomialIdeal(ctx, g) for g in sorted(gens))


def oracle_ft(ideal: MonomialIdeal) -> list:
    """Quotient counts by enumeration: t-spread monomials no generator divides."""
    ctx = ideal.ctx
    return [1] + [
        sum(1 for w in enumerate_veronese(d, ctx) if not any(set(g) <= set(w) for g in ideal.gens))
        for d in range(1, ctx.max_degree() + 1)
    ]


@st.composite
def spread_ideals(draw, n_max=14, t_max=4, d_max=4, gens_max=4):
    """A t-spread ideal of one to ``gens_max`` generators of degree <= ``d_max``."""
    n = draw(st.integers(1, n_max))
    t = draw(st.integers(1, t_max))
    ctx = Context(n, t)
    gens = []
    for _ in range(draw(st.integers(1, gens_max))):
        d = draw(st.integers(1, min(d_max, ctx.max_degree())))
        # a d-subset of [n - (d-1)(t-1)], spread out by k(t-1) at position k
        pick = draw(st.lists(st.integers(1, n - (d - 1) * (t - 1)), min_size=d, max_size=d,
                             unique=True))
        gens.append(tuple(x + k * (t - 1) for k, x in enumerate(sorted(pick))))
    return MonomialIdeal(ctx, tuple(gens))


@pytest.fixture
def minimal_builds(monkeypatch):
    """Checks every ideal built by the unchecked constructor, and lists them.

    Each must come with its generators minimal and in (degree, slex) order,
    which is exactly what ``minimalize`` returns.  One handed over as
    strongly stable must pass the stability kernel that the public test
    would run on it, uncached, on an unflagged copy.
    """
    built = []
    unchecked = MonomialIdeal._of_minimal.__func__

    def checked(cls, ctx, gens, stable=False):
        assert gens == tuple(minimalize(gens))
        if stable:
            assert construct._ss_by_decrements(unchecked(cls, ctx, gens)), gens
        built.append(gens)
        return unchecked(cls, ctx, gens, stable)

    monkeypatch.setattr(MonomialIdeal, "_of_minimal", classmethod(checked))
    return built


@pytest.fixture(scope="session")
def closure_40():
    """The n = 40, t = 2 closure, built once per run, and its build time in seconds."""
    start = time.perf_counter()
    closed = t_ss_ideal(MonomialIdeal(CLOSURE_40_CTX, CLOSURE_40_GENS))
    return closed, time.perf_counter() - start
