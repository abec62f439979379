import time
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings

from conftest import (
    CLOSURE_40_CTX,
    CLOSURE_RINGS,
    REALIZE_BASICS,
    REALIZE_CORNERS,
    REALIZE_CTX,
    REALIZE_TOTALS,
    REALIZE_VALUES,
    realize_ideal,
    small_closures,
    small_ideals,
    spread_ideals,
)
from tspread import betti
from tspread.betti import (
    BettiTable,
    CornerConfig,
    degree_sequence,
    extremal_corners,
    graded_betti,
    realize_extremal_betti,
)
from tspread.core import (
    Context,
    InfeasibleCornersError,
    MonomialIdeal,
    NotStronglyStableError,
    TSpreadError,
    max_mon,
    minimalize,
)
from tspread.construct import t_ss_ideal
from tspread.oracle import oracle_ss_closure


class TestBettiTable:
    def test_known_table(self):
        table = graded_betti(realize_ideal())
        assert table.totals() == REALIZE_TOTALS
        assert [table.entry(i, 2) for i in range(7)] == [13, 42, 70, 70, 42, 14, 2]
        assert [table.entry(i, 4) for i in range(7)] == [4, 14, 20, 15, 6, 1, 0]
        assert [table.entry(i, 5) for i in range(7)] == [4, 15, 21, 13, 3, 0, 0]
        assert [table.entry(i, 7) for i in range(7)] == [2, 6, 6, 2, 0, 0, 0]
        assert table.degrees() == [2, 4, 5, 7]

    def test_principal_tight_generator(self):
        # generator packed as tightly as possible contributes a single entry
        ctx = Context(9, 2)
        table = graded_betti(MonomialIdeal(ctx, (max_mon(3, ctx),)))
        assert table.entries == {(0, 3): 1}

    def test_rows_are_sums_of_binomial_rows(self):
        # direct evaluation: each generator of degree j contributes the row
        # C(max - t(j-1) - 1, i), independently recomputed here
        from tspread.construct import t_ss_mon

        ctx = Context(10, 2)
        ideal = MonomialIdeal(ctx, tuple(t_ss_mon((2, 5, 9), ctx)))
        table = graded_betti(ideal)
        for i in range(table.max_index + 1):
            expected = sum(comb(g[-1] - 2 * 2 - 1, i) for g in ideal.gens)
            assert table.entry(i, 3) == expected
        assert table.total(0) == len(ideal.gens)

    def test_requires_strongly_stable(self):
        with pytest.raises(NotStronglyStableError):
            graded_betti(MonomialIdeal(Context(6, 2), ((5,),)))

    def test_grid_layout(self):
        grid = graded_betti(realize_ideal()).to_grid()
        lines = grid.splitlines()
        assert lines[0].split() == [str(i) for i in range(7)]
        assert lines[1].split() == ["total", ":", "23", "77", "117", "100", "51", "15", "2"]
        # degree rows appear in order, gap degrees all dashes
        assert [line.split(":")[0].strip() for line in lines[2:]] == ["2", "3", "4", "5", "6", "7"]
        assert lines[3].split(":")[1].split() == ["-"] * 7

    def test_json_round_trip(self):
        table = graded_betti(realize_ideal())
        assert BettiTable.from_json_dict(table.to_json_dict()) == table


class TestCornerDetection:
    def test_known_corners(self):
        config = extremal_corners(realize_ideal())
        assert config.corners == REALIZE_CORNERS
        assert config.values == REALIZE_VALUES

    def test_single_degree_single_corner(self):
        from tspread.construct import t_ss_ideal

        ctx = Context(9, 2)
        closed = t_ss_ideal(MonomialIdeal(ctx, ((1, 4), (1, 5), (2, 4))))
        config = extremal_corners(closed)
        top = max(g[-1] for g in closed.gens)
        assert config.corners == ((top - ctx.t - 1, 2),)

    def test_degree_sequence_entries(self):
        ideal = realize_ideal()
        t = ideal.ctx.t
        for degree, top, slot in degree_sequence(ideal):
            gens = ideal.gens_of_degree(degree)
            assert top == max(g[-1] for g in gens)
            assert slot == top - t * (degree - 1) - 1

    def test_corner_values_match_table(self):
        ideal = realize_ideal()
        table = graded_betti(ideal)
        config = extremal_corners(ideal)
        for (k, l), a in zip(config.corners, config.values):
            assert table.entry(k, l) == a

    def test_corners_are_extremal_in_table(self):
        ideal = realize_ideal()
        table = graded_betti(ideal)
        for k, l in extremal_corners(ideal).corners:
            for (i, j), value in table.entries.items():
                if i >= k and j >= l and (i, j) != (k, l):
                    assert value == 0

    def test_zero_ideal_has_no_corners(self):
        config = extremal_corners(MonomialIdeal(Context(6, 2)))
        assert config.corners == () and config.values == ()


class TestCornerConfig:
    def test_validates_shape(self):
        with pytest.raises(TSpreadError):
            CornerConfig(((3, 2), (4, 3)), (1, 1))  # k must decrease
        with pytest.raises(TSpreadError):
            CornerConfig(((4, 3), (3, 2)), (1, 1))  # degrees must increase
        with pytest.raises(TSpreadError):
            CornerConfig(((4, 2),), (0,))  # values positive
        with pytest.raises(TSpreadError):
            CornerConfig(((4, 2), (3, 3)), (1,))  # lengths match


class TestRealization:
    def test_known_realization(self):
        config = CornerConfig(REALIZE_CORNERS, REALIZE_VALUES)
        basics, ideal = realize_extremal_betti(config, REALIZE_CTX)
        assert tuple(basics) == REALIZE_BASICS
        assert ideal.gens == realize_ideal().gens
        assert extremal_corners(ideal) == config

    def test_single_corner_round_trip(self):
        ctx = Context(9, 2)
        config = CornerConfig(((3, 2),), (1,))
        basics, ideal = realize_extremal_betti(config, ctx)
        # slex-largest pair with top index 3 + 2 + 1 = 6 is (1, 6)
        assert basics == [(1, 6)]
        assert extremal_corners(ideal) == config

    def test_value_beyond_supply_is_infeasible(self):
        ctx = Context(9, 2)
        # pairs with top index exactly 4: only (1,4) and (2,4)
        config = CornerConfig(((1, 2),), (3,))
        with pytest.raises(InfeasibleCornersError):
            realize_extremal_betti(config, ctx)

    def test_position_beyond_ring_is_infeasible(self):
        with pytest.raises(InfeasibleCornersError):
            realize_extremal_betti(CornerConfig(((9, 2),), (1,)), Context(9, 2))

    def test_corner_swallowed_by_earlier_closure_is_infeasible(self):
        # every degree-2 monomial with top index 3 lies in the closure of (10)
        ctx = Context(12, 1)
        config = CornerConfig(((9, 1), (1, 2)), (1, 1))
        with pytest.raises(InfeasibleCornersError):
            realize_extremal_betti(config, ctx)


@pytest.mark.parametrize("n,t", CLOSURE_RINGS)
def test_invariants_exactly_on_strongly_stable_ideals(n, t):
    for ideal, closure in small_ideals(n, t):
        if tuple(minimalize(closure)) == ideal.gens:
            assert graded_betti(ideal).total(0) == len(ideal.gens)
            assert extremal_corners(ideal).corners
        else:
            with pytest.raises(NotStronglyStableError):
                graded_betti(ideal)
            with pytest.raises(NotStronglyStableError):
                extremal_corners(ideal)


def oracle_k_polynomial(ideal):
    """Coefficients of the K-polynomial of S/I, by enumeration.

    I is squarefree, so S/I is the Stanley-Reisner ring of the complex of
    supports outside I, and its K-polynomial is the sum over those faces F
    of z^|F| (1 - z)^(n - |F|).
    """
    n = ideal.ctx.n
    faces = Counter(
        s
        for s in range(n + 1)
        for F in combinations(range(1, n + 1), s)
        if not any(set(g) <= set(F) for g in ideal.gens)
    )
    return [
        sum(c * comb(n - s, m - s) * (-1) ** (m - s) for s, c in faces.items() if s <= m)
        for m in range(n + 1)
    ]


@pytest.mark.parametrize("n,t", CLOSURE_RINGS)
def test_betti_table_matches_oracle(n, t):
    for ideal in small_closures(n, t):
        table = graded_betti(ideal)
        # the generator-by-generator rows it groups by shape
        rows = Counter()
        for u in ideal.gens:
            reach = u[-1] - t * (len(u) - 1) - 1
            rows.update({(i, len(u)): comb(reach, i) for i in range(reach + 1)})
        assert table == BettiTable(dict(rows)), ideal.gens
        # the alternating sums along each total degree i + j, against the oracle
        k_poly = [1] + [0] * n
        for (i, j), v in table.entries.items():
            k_poly[i + j] += (-1) ** (i + 1) * v
        assert k_poly == oracle_k_polynomial(ideal), ideal.gens


def test_large_closure_betti_is_fast(closure_40, monkeypatch):
    closed, _ = closure_40
    rows = []
    monkeypatch.setattr(betti, "comb", lambda n, k: rows.append((n, k)) or comb(n, k))
    start = time.perf_counter()
    table = graded_betti(closed)
    assert time.perf_counter() - start < 10.0
    assert table.total(0) == 129913
    # one binomial row per (degree, max index) shape, not per generator
    shapes = {(len(g), g[-1]) for g in closed.gens}
    assert len(rows) == sum(top - 2 * (d - 1) for d, top in shapes) < CLOSURE_40_CTX.n * len(shapes)
    # the closure comes with its verdict set; the column stability test too,
    # on an unflagged ideal of the same generators, under the same bound
    fresh = MonomialIdeal._of_minimal(closed.ctx, closed.gens)
    start = time.perf_counter()
    assert graded_betti(fresh) == table
    assert time.perf_counter() - start < 10.0


def realization_matches_oracle(ideal):
    config = extremal_corners(ideal)
    basics, realized = realize_extremal_betti(config, ideal.ctx)
    assert realized.gens == tuple(minimalize(oracle_ss_closure(basics, ideal.ctx)))
    assert extremal_corners(realized) == config


@pytest.mark.parametrize("n,t", CLOSURE_RINGS)
def test_realization_matches_oracle_closure(n, t, minimal_builds):
    for ideal in small_closures(n, t):
        realization_matches_oracle(ideal)
    assert minimal_builds  # each realization went through the unchecked constructor


def test_realization_checks_stability_nowhere(monkeypatch):
    # the realized ideal is strongly stable by construction; only its corner
    # round trip runs, and the public extremal_corners still validates
    config = extremal_corners(realize_ideal())

    def refuse(*_):
        raise AssertionError("stability test inside realization")

    monkeypatch.setattr(betti, "is_t_ss_ideal", refuse)
    assert realize_extremal_betti(config, REALIZE_CTX)[1] == realize_ideal()
    with pytest.raises(AssertionError, match="stability test"):
        extremal_corners(realize_ideal())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(ideal=spread_ideals(n_max=14))
def test_realization_matches_oracle_closure_hypothesis(ideal):
    realization_matches_oracle(t_ss_ideal(ideal))
