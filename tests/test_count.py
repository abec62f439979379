import time
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspread.core import Context, NotTSpreadError, TSpreadError, max_mon, min_mon
from tspread.count import (
    _bounded_chains,
    binomial,
    binomial_decomposition,
    card_veronese,
    count_t_lex_mon,
    count_t_ss_mon,
    count_terms_ss,
    cq_operator,
    iter_lex_count_terms,
    iter_ss_count_terms,
)
from tspread.oracle import N_LIMIT, enumerate_veronese, oracle_borel_set, oracle_lex_set

HYPOTHESIS = dict(derandomize=True, deadline=None)


class TestCardVeronese:
    def test_known_values(self):
        assert card_veronese(3, Context(11, 3)) == 35
        assert card_veronese(4, Context(11, 2)) == 70
        assert card_veronese(4, Context(13, 1)) == 715
        assert card_veronese(4, Context(11, 1)) == 330

    def test_empty_degree(self):
        assert card_veronese(4, Context(7, 3)) == 0

    def test_degree_zero(self):
        assert card_veronese(0, Context(7, 3)) == 1


class TestBinomialDecomposition:
    def test_seven_choose_three(self):
        assert binomial_decomposition(7, 3) == [(6, 2), (5, 2), (4, 2), (3, 2), (2, 2)]

    def test_diagonal(self):
        assert binomial_decomposition(5, 5) == [(4, 4)]

    def test_eight_four_sums_to_seventy(self):
        terms = binomial_decomposition(8, 4)
        assert len(terms) == 5
        assert sum(binomial(a, b) for a, b in terms) == 70

    def test_rejects_bad_arguments(self):
        with pytest.raises(TSpreadError):
            binomial_decomposition(3, 4)
        with pytest.raises(TSpreadError):
            binomial_decomposition(3, 0)


class TestCountLex:
    def test_known_value(self):
        assert count_t_lex_mon((2, 6, 10), Context(11, 3)) == 21

    def test_max_is_one(self):
        ctx = Context(11, 3)
        assert count_t_lex_mon(max_mon(3, ctx), ctx) == 1

    def test_min_is_whole_slice(self):
        for n, t, d in [(11, 3, 3), (9, 2, 3), (8, 1, 4)]:
            ctx = Context(n, t)
            assert count_t_lex_mon(min_mon(d, ctx), ctx) == card_veronese(d, ctx)

    def test_degree_one_collapses(self):
        assert count_t_lex_mon((5,), Context(9, 2)) == 5

    def test_depends_on_ambient_n(self):
        assert count_t_lex_mon((2, 6, 10), Context(11, 3)) == 21
        assert count_t_lex_mon((2, 6, 10), Context(12, 3)) == 28

    def test_term_budget(self):
        # the stream consumes exactly max(u) - (d-1)t binomial terms
        ctx = Context(11, 3)
        assert sum(1 for _ in iter_lex_count_terms((2, 6, 10), ctx)) == 4
        ctx2 = Context(13, 1)
        u = (2, 5, 8, 11)
        assert sum(1 for _ in iter_lex_count_terms(u, ctx2)) == 11 - 3

    def test_rejects_non_spread(self):
        with pytest.raises(NotTSpreadError, match="expected a t-spread monomial"):
            count_t_lex_mon((1, 2), Context(9, 2))

    def test_rejects_unit(self):
        with pytest.raises(TSpreadError):
            count_t_lex_mon((), Context(9, 2))


class TestCountStronglyStable:
    def test_known_values(self):
        assert count_t_ss_mon((2, 5, 8, 11), Context(13, 1)) == 143
        assert count_t_ss_mon((2, 5, 8, 11), Context(13, 2)) == 42

    def test_max_is_one(self):
        ctx = Context(9, 2)
        assert count_t_ss_mon(max_mon(4, ctx), ctx) == 1

    def test_degree_one_collapses(self):
        assert count_t_ss_mon((5,), Context(9, 2)) == 5

    def test_independent_of_ambient_n(self):
        for n in (11, 13, 20):
            assert count_t_ss_mon((2, 5, 8, 11), Context(n, 2)) == 42

    def test_rejects_non_spread(self):
        with pytest.raises(NotTSpreadError):
            count_t_ss_mon((2, 3), Context(9, 2))


class TestCqOperator:
    def test_known_values(self):
        assert cq_operator((6, 4, 2)) == 30
        assert cq_operator((4, 3, 2)) == 14

    def test_base_case(self):
        assert cq_operator((7,)) == 7

    def test_two_arguments(self):
        # C_2(6,4) = 6+5+4+3, C_2(5,3) = 5+4+3
        assert cq_operator((6, 4)) == 18
        assert cq_operator((5, 3)) == 12

    def test_rejects_increasing(self):
        with pytest.raises(TSpreadError):
            cq_operator((2, 4))

    def test_rejects_nonpositive(self):
        with pytest.raises(TSpreadError):
            cq_operator((3, 0))

    def test_rejects_empty(self):
        with pytest.raises(TSpreadError):
            cq_operator(())


class TestTermPrediction:
    def test_known_values(self):
        assert count_terms_ss((2, 5, 8, 11), Context(13, 1)) == 30
        assert count_terms_ss((2, 5, 8, 11), Context(13, 2)) == 14

    def test_max_collapses_to_one(self):
        for t in (1, 2, 3):
            ctx = Context(12, t)
            assert count_terms_ss(max_mon(4, ctx), ctx) == 1

    def test_degree_below_two_is_error(self):
        with pytest.raises(TSpreadError):
            count_terms_ss((4,), Context(9, 2))

    def test_matches_instrumented_stream(self):
        ctx = Context(13, 2)
        u = (2, 5, 8, 11)
        assert sum(1 for _ in iter_ss_count_terms(u, ctx)) == count_terms_ss(u, ctx)

    def test_equals_the_prefix_count(self):
        # cq 6 4 2 and cq 4 3 2, the C_q arguments of (2, 5, 8, 11) at t = 1, 2
        assert count_t_ss_mon((2, 5, 8), Context(13, 1)) == cq_operator((6, 4, 2)) == 30
        assert count_t_ss_mon((2, 5, 8), Context(13, 2)) == cq_operator((4, 3, 2)) == 14


class TestBinomialHelper:
    def test_zero_below_diagonal(self):
        assert binomial(3, 5) == 0
        assert binomial(-1, 0) == 0
        assert binomial(4, -1) == 0

    def test_matches_math_comb(self):
        assert binomial(10, 4) == comb(10, 4)


# Equivalence of the closed forms with the term sums they replace and with
# the brute-force oracle.

GRID = [(n, t) for n in range(1, 11) for t in range(1, 4)]


@st.composite
def spread_monomials(draw, max_n, max_degree=6):
    """A context with n <= max_n and a t-spread monomial of degree >= 1."""
    t = draw(st.integers(1, 4))
    ctx = Context(draw(st.integers(1, max_n)), t)
    d = draw(st.integers(1, min(ctx.max_degree(), max_degree)))
    u, lo = [], 1
    for q in range(d):
        u.append(draw(st.integers(lo, ctx.n - (d - 1 - q) * t)))
        lo = u[-1] + t
    return tuple(u), ctx


class TestClosedFormsMatchTermSums:
    def test_exhaustive_grid(self):
        for n, t in GRID:
            ctx = Context(n, t)
            for d in range(1, ctx.max_degree() + 1):
                for u in enumerate_veronese(d, ctx):
                    assert (
                        count_t_ss_mon(u, ctx)
                        == sum(iter_ss_count_terms(u, ctx))
                        == len(oracle_borel_set(u, ctx))
                    )
                    assert (
                        count_t_lex_mon(u, ctx)
                        == sum(iter_lex_count_terms(u, ctx))
                        == len(oracle_lex_set(u, ctx))
                    )

    @given(spread_monomials(max_n=N_LIMIT))
    @settings(max_examples=150, **HYPOTHESIS)
    def test_oracle_range(self, data):
        u, ctx = data
        borel = oracle_borel_set(u, ctx)
        assert count_t_ss_mon(u, ctx) == sum(iter_ss_count_terms(u, ctx)) == len(borel)
        lex = oracle_lex_set(u, ctx)
        assert count_t_lex_mon(u, ctx) == sum(iter_lex_count_terms(u, ctx)) == len(lex)

    @given(spread_monomials(max_n=60, max_degree=4))
    @settings(max_examples=100, **HYPOTHESIS)
    def test_beyond_the_oracle(self, data):
        u, ctx = data
        assert count_t_ss_mon(u, ctx) == sum(iter_ss_count_terms(u, ctx))
        assert count_t_lex_mon(u, ctx) == sum(iter_lex_count_terms(u, ctx))

    def test_large_case_is_immediate(self):
        # 3.4 * 10^8 terms in the sum the closed form replaces
        start = time.perf_counter()
        total = count_t_ss_mon((20, 60, 100, 140, 180, 199), Context(200, 2))
        assert time.perf_counter() - start < 0.05
        assert total == 20535023166


@lru_cache(maxsize=None)
def nested_sum(args):
    """C_q straight from its definition."""
    if len(args) == 1:
        return args[0]
    *head, last = args
    return sum(nested_sum(tuple(a - r for a in head)) for r in range(last))


@st.composite
def nonincreasing(draw, max_q=5, max_value=30):
    q = draw(st.integers(1, max_q))
    return tuple(sorted(draw(st.lists(st.integers(1, max_value), min_size=q, max_size=q)),
                        reverse=True))


class TestCqMatchesDefinition:
    def test_exhaustive_grid(self):
        for q in range(1, 4):
            for a in combinations_with_replacement(range(12, 0, -1), q):
                assert cq_operator(a) == nested_sum(a)

    @given(nonincreasing())
    @settings(max_examples=200, **HYPOTHESIS)
    def test_property(self, a):
        assert cq_operator(a) == nested_sum(a)

    def test_equal_arguments_count_multisets(self):
        # C_q(a, ..., a) counts the multisets of q partial sums below a
        for q in range(1, 6):
            for a in range(1, 10):
                assert cq_operator((a,) * q) == comb(a + q - 1, q)


@given(spread_monomials(max_n=30))
@settings(max_examples=300, **HYPOTHESIS)
def test_term_count_is_the_prefix_count(data):
    # the innermost terms are one per admissible prefix of the first d - 1
    # indices: count_terms_ss(u) is the strongly stable count of u[:-1]
    u, ctx = data
    if len(u) < 2:
        return
    assert (
        count_terms_ss(u, ctx)
        == count_t_ss_mon(u[:-1], ctx)
        == len(list(iter_ss_count_terms(u, ctx)))
    )


def test_bounded_chains_match_brute_force():
    # every strictly increasing bound tuple with b_d <= 12, d <= 5 (the
    # empty tuple counts the empty chain)
    for d in range(6):
        for bounds in combinations(range(1, 13), d):
            brute = sum(
                all(v <= b for v, b in zip(chain, bounds))
                for chain in combinations(range(1, bounds[-1] + 1 if bounds else 1), d)
            )
            assert _bounded_chains(bounds) == brute, bounds
