import random
import time
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings

from conftest import (
    CLOSURE_RINGS,
    KK_CTX,
    KK_FT,
    KK_LEX_GENS,
    kk_ideal,
    oracle_ft,
    small_closures,
    small_ideals,
    spread_ideals,
)
from tspread import construct
from tspread.construct import (
    is_t_lex_ideal,
    is_t_ss_ideal,
    t_shadow_set,
    t_spread_component,
    t_ss_ideal,
)
from tspread.core import (
    Context,
    InvalidFtVectorError,
    MonomialIdeal,
    NotTSpreadError,
    TSpreadError,
    minimalize,
)
from tspread.count import binomial, card_veronese
from tspread.kk import (
    _pivot_ft,
    _shifted_bound,
    ft_vector,
    is_ft_vector,
    solve_binomial_expansion,
    t_lex_ideal_from_f,
    t_lex_ideal_of,
    t_macaulay_expansion,
)
from tspread.oracle import enumerate_veronese


class TestFtVector:
    def test_known_ideal(self):
        assert ft_vector(kk_ideal()) == KK_FT

    def test_zero_ideal_gives_slice_sizes(self):
        assert ft_vector(MonomialIdeal(KK_CTX)) == [1, 8, 21, 20, 5]

    def test_lex_companion_agrees(self):
        assert ft_vector(MonomialIdeal(KK_CTX, KK_LEX_GENS)) == KK_FT

    def test_rejects_non_spread(self):
        with pytest.raises(NotTSpreadError):
            ft_vector(MonomialIdeal(KK_CTX, ((1, 2, 3),)))


def component_ft(ideal):
    """Quotient counts from the degree slices built by shadows."""
    return [1] + [card_veronese(j, ideal.ctx) - len(s) for j, s in t_spread_component(ideal)]


@pytest.mark.parametrize("n,t", CLOSURE_RINGS)
def test_ft_vector_counts_match_slices_and_oracle(n, t, minimal_builds):
    for ideal in small_closures(n, t):
        f = ft_vector(ideal)
        assert f == component_ft(ideal) == oracle_ft(ideal), ideal.gens
        lex = t_lex_ideal_of(ideal)
        assert ft_vector(lex) == f and is_t_lex_ideal(lex)
    assert minimal_builds  # the lex ideals went through the unchecked constructor


@settings(max_examples=80, derandomize=True, deadline=None)
@given(ideal=spread_ideals())
def test_ft_vector_counts_match_slices_hypothesis(ideal):
    closed = t_ss_ideal(ideal)
    assert ft_vector(closed) == component_ft(closed)
    # an ideal that is not strongly stable is counted by the pivot recursion
    assert ft_vector(ideal) == component_ft(ideal)
    lex = t_lex_ideal_of(closed)
    assert lex.gens == tuple(minimalize(lex.gens)) and is_t_ss_ideal(lex)


@pytest.mark.parametrize("n,t", CLOSURE_RINGS)
def test_union_count_matches_slices_and_oracle(n, t):
    # every ideal of one or two generators, strongly stable or not, through
    # the pivot recursion itself and through ft_vector
    for ideal, _ in small_ideals(n, t):
        f = oracle_ft(ideal)
        assert _pivot_ft(ideal.gens, ideal.ctx) == f, ideal.gens
        assert ft_vector(ideal) == component_ft(ideal) == f, ideal.gens


@settings(max_examples=60, derandomize=True, deadline=None)
@given(ideal=spread_ideals(n_max=12, gens_max=8))
def test_union_count_matches_slices_hypothesis(ideal):
    assert _pivot_ft(ideal.gens, ideal.ctx) == component_ft(ideal)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(ideal=spread_ideals(n_max=12, t_max=1, gens_max=8))
def test_union_count_matches_slices_at_t1_hypothesis(ideal):
    # at t = 1 every union of generator parts is 1-spread, so the bound on
    # the recursion's nodes is widest
    assert _pivot_ft(ideal.gens, ideal.ctx) == component_ft(ideal)


@pytest.mark.parametrize("seed", range(4))
def test_union_count_on_dense_ideals_at_t1(seed):
    # 20 or more degree-3 generators in 10-12 variables
    rng = random.Random(seed)
    n = rng.randint(10, 12)
    ctx = Context(n, 1)
    gens = {tuple(sorted(rng.sample(range(1, n + 1), 3))) for _ in range(rng.randint(24, 40))}
    ideal = MonomialIdeal(ctx, gens)
    assert len(ideal.gens) == len(gens) >= 20
    assert _pivot_ft(ideal.gens, ctx) == component_ft(ideal) == oracle_ft(ideal)


def dense_t1_ideal(n, count, seed):
    """The ideal of ``count`` seeded random degree-3 monomials at spread 1."""
    rng = random.Random(seed)
    ctx = Context(n, 1)
    return MonomialIdeal(ctx, {tuple(sorted(rng.sample(range(1, n + 1), 3))) for _ in range(count)})


def test_pivot_count_on_dense_ideal_at_n16():
    # 91 degree-3 generators in 16 variables
    ideal = dense_t1_ideal(16, 100, 0)
    assert len(ideal.gens) == 91 and not is_t_ss_ideal(ideal)
    start = time.perf_counter()
    f = ft_vector(ideal)
    assert time.perf_counter() - start < 1.0
    assert f == component_ft(ideal)


def test_pivot_count_on_dense_ideal_at_n40():
    ideal = dense_t1_ideal(40, 16, 0)
    assert len(ideal.gens) == 16 and not is_t_ss_ideal(ideal)
    start = time.perf_counter()
    f = ft_vector(ideal)
    assert time.perf_counter() - start < 1.0
    # degree 3 loses the generators, degree 4 their shadow
    assert f[:3] == [1, 40, comb(40, 2)]
    assert f[3] == comb(40, 3) - len(ideal.gens)
    assert f[4] == comb(40, 4) - len(t_shadow_set(ideal.gens, ideal.ctx))


def test_pivot_count_of_closure_less_one_generator(closure_40):
    # 129 912 generators, one short of the n = 40 closure; the closure's own
    # counts come from its generator shapes, not from the recursion
    closed, _ = closure_40
    gens = tuple(g for g in closed.gens if g != (1, 3, 5, 7))
    assert len(gens) == len(closed.gens) - 1 == 129912
    ideal = MonomialIdeal._of_minimal(closed.ctx, gens)
    start = time.perf_counter()
    f = ft_vector(ideal)
    assert time.perf_counter() - start < 10.0
    assert not is_t_ss_ideal(ideal)
    extra = [0, 0, 0, 0, 1, 13, 15, 10, 1] + [0] * (len(f) - 9)
    assert f == [a + b for a, b in zip(ft_vector(closed), extra)]


def test_union_table_merges_and_drops_unions():
    # two generators that share no index
    ideal = MonomialIdeal(Context(10, 1), ((1, 3), (2, 5)))
    assert _pivot_ft(ideal.gens, ideal.ctx) == oracle_ft(ideal)
    # the pivot 4 cuts (2,4) to (2,), which divides (1,2): node sets need not be minimal
    cancel = MonomialIdeal(Context(5, 1), ((1, 2), (1, 3), (2, 4)))
    assert _pivot_ft(cancel.gens, cancel.ctx) == oracle_ft(cancel)
    # at t = 2 the pivot 4 drops (1,3) from its second term: 3 is within 2 of 4
    spread = MonomialIdeal(Context(10, 2), ((1, 3), (2, 5)))
    assert _pivot_ft(spread.gens, spread.ctx) == oracle_ft(spread)
    # a one-variable generator: at the pivot 4 its second term is 0
    unit = MonomialIdeal(Context(10, 2), ((1, 3), (4,), (2, 7)))
    assert _pivot_ft(unit.gens, unit.ctx) == oracle_ft(unit)


def test_union_count_builds_no_slice_at_n40(monkeypatch):
    def refuse(ideal):
        raise AssertionError("the degree slices were built")

    monkeypatch.setattr(construct, "t_spread_component", refuse)
    ideal = MonomialIdeal(Context(40, 1), ((1, 3), (2, 5)))
    start = time.perf_counter()
    f = ft_vector(ideal)
    assert time.perf_counter() - start < 1.0
    assert f == closed_form(40) and f[:3] == [1, 40, 778]
    # and at every smaller ring, and at one with more levels than Python's
    # default recursion limit
    for n in [*range(5, 40), 1500]:
        start = time.perf_counter()
        f = ft_vector(MonomialIdeal(Context(n, 1), ideal.gens))
        assert time.perf_counter() - start < 1.0
        assert f == closed_form(n), n


def closed_form(n):
    # C(n, k) monomials, less the multiples of each generator, plus those of both
    return [binomial(n, k) - 2 * binomial(n - 2, k - 2) + binomial(n - 4, k - 4) for k in range(n + 1)]


def oracle_lex_gens(f, ctx):
    """Minimal generators of the lex ideal of f, from the oracle's initial segments."""
    gens = []
    for j, x in enumerate(list(f) + [0]):
        if j:
            segment = enumerate_veronese(j, ctx)[: card_veronese(j, ctx) - x]
            gens += [w for w in segment if not any(set(g) <= set(w) for g in gens)]
    return tuple(gens)


@pytest.mark.parametrize("n,t", CLOSURE_RINGS)
def test_lex_ideal_matches_oracle_segments(n, t, minimal_builds):
    for ideal in small_closures(n, t):
        f = ft_vector(ideal)
        want = oracle_lex_gens(f, ideal.ctx)
        assert t_lex_ideal_from_f(f, ideal.ctx).gens == want, ideal.gens
        assert t_lex_ideal_of(ideal).gens == want, ideal.gens
    assert minimal_builds


@settings(max_examples=80, derandomize=True, deadline=None)
@given(ideal=spread_ideals(n_max=11))
def test_lex_ideal_matches_oracle_segments_hypothesis(ideal):
    f = ft_vector(t_ss_ideal(ideal))
    assert t_lex_ideal_from_f(f, ideal.ctx).gens == oracle_lex_gens(f, ideal.ctx)


def test_lex_ideal_of_is_fast_at_n30():
    # 2 453 closure generators; the lex segments hold 1 941 131 monomials
    closed = t_ss_ideal(MonomialIdeal(Context(30, 2), ((3, 9, 18), (5, 12, 20, 27))))
    start = time.perf_counter()
    lex = t_lex_ideal_of(closed)
    assert time.perf_counter() - start < 1.0
    assert len(lex.gens) == 37018
    assert ft_vector(lex) == ft_vector(closed) and is_t_lex_ideal(lex)


def test_lex_ideal_of_is_fast_at_n40(closure_40):
    closed, _ = closure_40
    start = time.perf_counter()
    lex = t_lex_ideal_of(closed)
    assert time.perf_counter() - start < 10.0
    assert len(lex.gens) == 1221531
    assert Counter(map(len, lex.gens)) == {
        4: 2457, 5: 148608, 6: 178678, 7: 242640, 8: 297086, 9: 203453,
        10: 105463, 11: 36734, 12: 5925, 13: 478, 14: 9,
    }
    assert lex.gens[0] == (1, 3, 5, 7)
    assert lex.gens[-1] == (7, 15, 17, 19, 21, 23, 25, 27, 30, 32, 34, 36, 38, 40)


class TestMacaulayExpansion:
    def test_known_shifted_values(self):
        ctx = Context(12, 1)
        assert t_macaulay_expansion(12, 1, ctx, shift=True) == [(12, 2)]
        shifted = [
            solve_binomial_expansion(t_macaulay_expansion(a, d, ctx, shift=True))
            for a, d in [(12, 1), (50, 2), (20, 3), (15, 4)]
        ]
        assert shifted == [66, 130, 15, 6]

    def test_known_shifted_value_spread_two(self):
        ctx = Context(12, 2)
        assert t_macaulay_expansion(20, 3, ctx, shift=True) == [(5, 4)]
        assert solve_binomial_expansion(t_macaulay_expansion(20, 3, ctx, shift=True)) == 5

    def test_unshifted_greedy_form(self):
        ctx = Context(12, 1)
        assert t_macaulay_expansion(50, 2, ctx) == [(10, 2), (5, 1)]
        assert t_macaulay_expansion(20, 3, ctx) == [(6, 3)]

    def test_unshifted_evaluates_back(self):
        ctx = Context(12, 2)
        for d in (1, 2, 3):
            for a in range(card_veronese(d, ctx) + 1):
                terms = t_macaulay_expansion(a, d, ctx)
                assert solve_binomial_expansion(terms) == a

    def test_greedy_terms_on_grid(self):
        ctx = Context(30, 1)
        for d in range(1, 7):
            full = card_veronese(d, ctx)
            for a in set(range(min(full, 400) + 1)) | set(range(max(full - 50, 0), full + 1)):
                terms = t_macaulay_expansion(a, d, ctx)
                assert sum(comb(top, i) for top, i in terms) == a
                assert all(x[0] > y[0] for x, y in zip(terms, terms[1:]))
                assert [i for _, i in terms] == list(range(d, d - len(terms), -1))
                rem = a
                for top, i in terms:
                    assert top >= i and comb(top, i) <= rem < comb(top + 1, i)
                    rem -= comb(top, i)

    def test_shifted_bound_sums_the_shifted_expansion(self):
        # the unchecked kernel against the public expansion, on the grid
        # above, then at C(400, 200) - 1 (200 terms, about 2^396) and at
        # C(1100, 550) - 1 (550 terms, past float range)
        cases = [(Context(n, 1), n // 2, comb(n, n // 2) - 1) for n in (400, 1100)]
        ctx = Context(30, 1)
        for d in range(1, 7):
            full = card_veronese(d, ctx)
            for a in set(range(min(full, 400) + 1)) | set(range(max(full - 50, 0), full + 1)):
                cases.append((ctx, d, a))
        assert cases[1][2] > 2**1024
        for ctx, d, a in cases:
            expected = solve_binomial_expansion(t_macaulay_expansion(a, d, ctx, shift=True))
            assert _shifted_bound(a, d, ctx) == expected, (ctx, d, a)

    def test_large_value_is_fast(self):
        start = time.perf_counter()
        terms = t_macaulay_expansion(10**9, 1, Context(10**9 + 1, 1))
        assert time.perf_counter() - start < 1.0
        assert terms == [(10**9, 1)]

    def test_zero_has_empty_expansion(self):
        assert t_macaulay_expansion(0, 3, Context(12, 1)) == []

    def test_out_of_range_is_error(self):
        with pytest.raises(TSpreadError):
            t_macaulay_expansion(67, 2, Context(12, 1))
        with pytest.raises(TSpreadError):
            t_macaulay_expansion(-1, 2, Context(12, 1))


class TestSolveExpansion:
    def test_known_value(self):
        assert solve_binomial_expansion([(12, 2)]) == 66

    def test_empty(self):
        assert solve_binomial_expansion([]) == 0

    def test_direct_evaluation(self):
        assert solve_binomial_expansion([(6, 4), (5, 2)]) == 25

    def test_below_diagonal_terms_vanish(self):
        assert solve_binomial_expansion([(3, 5)]) == 0


class TestIsFtVector:
    def test_known_true_at_spread_one(self):
        assert is_ft_vector([1, 12, 50, 20, 15], Context(12, 1))

    def test_known_false_at_spread_two(self):
        assert not is_ft_vector([1, 12, 50, 20, 15], Context(12, 2))

    def test_short_vector_trivially_admissible(self):
        assert is_ft_vector([1, 12], Context(12, 1))
        assert is_ft_vector([1, 0], Context(12, 1))

    def test_leading_entry_must_be_one(self):
        assert not is_ft_vector([2, 5], Context(12, 1))
        assert not is_ft_vector([], Context(12, 1))

    def test_entries_bounded_by_slice_sizes(self):
        assert not is_ft_vector([1, 13], Context(12, 1))
        assert not is_ft_vector([1, -1], Context(12, 1))

    def test_zero_forces_zero_tail(self):
        assert is_ft_vector([1, 5, 0, 0], Context(12, 1))
        assert not is_ft_vector([1, 5, 0, 1], Context(12, 1))


class TestLexIdealFromCounts:
    def test_eleven_generator_companion(self):
        ideal = t_lex_ideal_from_f(KK_FT, KK_CTX)
        assert ideal.gens == KK_LEX_GENS

    def test_132_generator_ideal(self):
        ideal = t_lex_ideal_from_f([1, 12, 50, 20, 15], Context(12, 1))
        assert len(ideal.gens) == 132
        by_degree = {d: len(ideal.gens_of_degree(d)) for d in ideal.degrees()}
        assert by_degree == {2: 16, 3: 110, 5: 6}
        # spot-check the extreme generators
        assert ideal.gens[0] == (1, 2)
        assert ideal.gens[-2:] == ((7, 9, 10, 11, 12), (8, 9, 10, 11, 12))
        assert is_t_lex_ideal(ideal)

    def test_slice_size_vector_gives_zero_ideal(self):
        ctx = Context(8, 2)
        full = [1] + [card_veronese(d, ctx) for d in range(1, ctx.max_degree() + 1)]
        assert t_lex_ideal_from_f(full, ctx).is_zero

    def test_invalid_vector_is_error(self):
        with pytest.raises(InvalidFtVectorError, match="expected a valid ft-vector"):
            t_lex_ideal_from_f([1, 12, 50, 20, 15], Context(12, 2))


class TestLexIdealOf:
    def test_known_companion(self):
        companion = t_lex_ideal_of(kk_ideal())
        assert companion.gens == KK_LEX_GENS
        assert ft_vector(companion) == KK_FT
        assert not is_t_lex_ideal(kk_ideal())
        assert is_t_lex_ideal(companion)

    def test_idempotent_on_lex_ideals(self):
        companion = t_lex_ideal_of(kk_ideal())
        assert t_lex_ideal_of(companion).gens == companion.gens

    def test_zero_ideal(self):
        assert t_lex_ideal_of(MonomialIdeal(KK_CTX)).is_zero

    def test_inadmissible_counts_are_named(self):
        # eight variables outside leave room for at most C(7, 2) = 21
        # 2-spread pairs outside, not 22
        ideal = MonomialIdeal(Context(9, 2), ((5,),))
        with pytest.raises(InvalidFtVectorError, match=r"quotient counts \[1, 8, 22, 24, 9, 0\]"):
            t_lex_ideal_of(ideal)

    def test_inadmissible_counts_propagate(self):
        # a lone middle variable spreads more slowly than any lex segment
        with pytest.raises(InvalidFtVectorError):
            t_lex_ideal_of(MonomialIdeal(Context(6, 2), ((5,),)))
