import copy
import pickle
from itertools import chain

import pytest

from conftest import IDEAL_RINGS, spread_monomials
from tspread.betti import BettiTable, CornerConfig
from tspread.core import (
    Context,
    EmptyVeroneseError,
    MonomialIdeal,
    TSpreadError,
    _gaps_at_least,
    borel_geq,
    cmp_slex,
    is_t_spread,
    is_t_spread_ideal,
    max_mon,
    min_mon,
    minimalize,
    sieve_t_spread,
    slex_max,
    slex_min,
    validate_monomial,
)


class TestContext:
    def test_rejects_zero_spread(self):
        with pytest.raises(TSpreadError):
            Context(5, 0)

    def test_rejects_empty_ring(self):
        with pytest.raises(TSpreadError):
            Context(0, 1)

    @pytest.mark.parametrize("n,t,expected", [(8, 2, 4), (11, 3, 4), (12, 1, 12), (1, 1, 1)])
    def test_max_degree(self, n, t, expected):
        assert Context(n, t).max_degree() == expected


class TestIsTSpread:
    def test_gap_three_is_three_spread(self):
        assert is_t_spread((3, 7, 10, 14), Context(14, 3))

    def test_gap_three_is_not_four_spread(self):
        assert not is_t_spread((3, 7, 10, 14), Context(14, 4))

    def test_unit_always_spread(self):
        for t in (1, 2, 5):
            assert is_t_spread((), Context(7, t))

    def test_single_variable(self):
        assert is_t_spread((4,), Context(5, 3))

    def test_rejects_nonincreasing(self):
        with pytest.raises(TSpreadError):
            is_t_spread((3, 3), Context(5, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(TSpreadError):
            validate_monomial((0, 2), Context(5, 1))
        with pytest.raises(TSpreadError):
            validate_monomial((2, 6), Context(5, 1))


class TestSieve:
    def test_mixed_list(self):
        ctx = Context(14, 4)
        got = sieve_t_spread([(3, 7, 10, 14), (1, 5, 9, 13)], ctx)
        assert got == [(1, 5, 9, 13)]

    def test_empty(self):
        assert sieve_t_spread([], Context(5, 2)) == []

    def test_all_pairs_n4(self):
        # brute-force filter of all 6 pairs over 4 variables at spread 2
        pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
        assert sieve_t_spread(pairs, Context(4, 2)) == [(1, 3), (1, 4), (2, 4)]


class TestSlexOrder:
    def test_first_index_decides(self):
        assert cmp_slex((1, 4, 7), (2, 5, 8)) == 1

    def test_adjacent_in_last_index(self):
        assert cmp_slex((2, 6, 9), (2, 6, 10)) == 1

    def test_reflexive(self):
        assert cmp_slex((2, 6, 9), (2, 6, 9)) == 0

    def test_antisymmetric(self):
        assert cmp_slex((2, 5, 8), (1, 4, 7)) == -1

    def test_degree_mismatch_is_error(self):
        with pytest.raises(TSpreadError):
            cmp_slex((1, 2), (1, 2, 3))

    def test_extremes_helpers(self):
        ms = [(2, 5), (1, 9), (1, 4)]
        assert slex_max(ms) == (1, 4)
        assert slex_min(ms) == (2, 5)


class TestBorelOrder:
    def test_componentwise_dominance(self):
        assert borel_geq((1, 5, 7), (2, 5, 8))

    def test_componentwise_failure(self):
        assert not borel_geq((1, 5, 7), (2, 4, 8))

    def test_reflexive(self):
        assert borel_geq((2, 5, 8), (2, 5, 8))

    def test_degree_mismatch_is_error(self):
        with pytest.raises(TSpreadError):
            borel_geq((1,), (1, 2))


class TestExtremes:
    def test_max_is_tightly_packed(self):
        assert max_mon(3, Context(11, 3)) == (1, 4, 7)

    def test_min_is_packed_at_top(self):
        assert min_mon(4, Context(13, 3)) == (4, 7, 10, 13)

    def test_degenerate_single(self):
        ctx = Context(1, 1)
        assert max_mon(1, ctx) == min_mon(1, ctx) == (1,)

    def test_degree_zero(self):
        assert max_mon(0, Context(3, 2)) == ()

    def test_empty_veronese_reported(self):
        with pytest.raises(EmptyVeroneseError):
            max_mon(4, Context(7, 3))
        with pytest.raises(EmptyVeroneseError):
            min_mon(4, Context(7, 3))


class TestMinimalize:
    def test_support_inclusion(self):
        assert minimalize([(1, 3), (1, 3, 5)]) == [(1, 3)]

    def test_empty(self):
        assert minimalize([]) == []

    def test_pairwise(self):
        assert minimalize([(1, 4), (2, 5), (1, 4, 6)]) == [(1, 4), (2, 5)]

    def test_keeps_incomparable_same_degree(self):
        assert minimalize([(1, 4), (2, 3)]) == [(1, 4), (2, 3)]


class TestMonomialIdeal:
    def test_canonicalizes_generators(self):
        ideal = MonomialIdeal(Context(6, 1), ((1, 3, 5), (1, 3), (2, 4), (1, 3)))
        assert ideal.gens == ((1, 3), (2, 4))

    def test_rejects_unit_generator(self):
        with pytest.raises(TSpreadError):
            MonomialIdeal(Context(4, 1), ((),))

    def test_degree_grouping(self):
        ideal = MonomialIdeal(Context(8, 2), ((1, 3), (2, 4, 6), (1, 4, 7)))
        assert ideal.degrees() == [2, 3]
        assert ideal.gens_of_degree(3) == [(1, 4, 7), (2, 4, 6)]

    def test_contains_by_support_inclusion(self):
        ideal = MonomialIdeal(Context(8, 2), ((1, 3),))
        assert ideal.contains((1, 3, 5))
        assert not ideal.contains((2, 4, 6))

    def test_zero_ideal(self):
        ideal = MonomialIdeal(Context(5, 1))
        assert ideal.is_zero and ideal.degrees() == []

    def test_t_spread_check(self):
        assert is_t_spread_ideal(MonomialIdeal(Context(8, 2), ((1, 3),)))
        assert not is_t_spread_ideal(MonomialIdeal(Context(8, 2), ((1, 2),)))


# The immutable value classes: how they are built, compared, hashed, shown,
# pickled and copied, and that their fields cannot change.  Each row is the
# class, positional and keyword arguments building the same value, its repr
# and arguments building a different value.
VALUE_CLASSES = [
    (Context, (8, 2), {"n": 8, "t": 2}, "Context(n=8, t=2)", (8, 3)),
    (
        MonomialIdeal,
        (Context(8, 2), [(1, 4, 6), (1, 3), (1, 3, 5)]),
        {"ctx": Context(8, 2), "gens": ((1, 3), (1, 4, 6))},
        "MonomialIdeal(ctx=Context(n=8, t=2), gens=((1, 3), (1, 4, 6)))",
        (Context(9, 2), ((1, 3), (1, 4, 6))),
    ),
    (
        BettiTable,
        ({(0, 2): 3, (1, 2): 0, (1, 3): 2},),
        {"entries": {(0, 2): 3, (1, 3): 2}},
        "BettiTable(entries={(0, 2): 3, (1, 3): 2})",
        ({(0, 2): 3},),
    ),
    (
        CornerConfig,
        ([[2, 2], [1, 3]], [1, 2]),
        {"corners": ((2, 2), (1, 3)), "values": (1, 2)},
        "CornerConfig(corners=((2, 2), (1, 3)), values=(1, 2))",
        (((2, 2),), (1,)),
    ),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, text, other", VALUE_CLASSES, ids=[row[0].__name__ for row in VALUE_CLASSES]
)
class TestValueClasses:
    def test_positional_and_keyword_construction(self, cls, args, kwargs, text, other):
        assert cls(*args) == cls(**kwargs)
        assert repr(cls(*args)) == repr(cls(**kwargs)) == text

    def test_equality_and_hash(self, cls, args, kwargs, text, other):
        value = cls(*args)
        assert value == cls(*args) and not value != cls(*args)
        assert value != cls(*other)
        assert value != args and value.__eq__(args) is NotImplemented
        if cls is BettiTable:  # its entries are a dict
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(cls(**kwargs))
            assert len({value, cls(*args), cls(*other)}) == 2

    def test_fields_cannot_change(self, cls, args, kwargs, text, other):
        value = cls(*args)
        for name in [*kwargs, "extra"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        for name in kwargs:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text

    def test_pickle_and_copy(self, cls, args, kwargs, text, other):
        value = cls(*args)
        copies = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(value), copy.deepcopy(value)]
        for c in copies:
            assert type(c) is cls and c == value and repr(c) == text
            with pytest.raises(AttributeError):
                setattr(c, next(iter(kwargs)), None)


class TestValueValidation:
    def test_context(self):
        with pytest.raises(TSpreadError, match=r"^need at least one variable, got n=0$"):
            Context(0, 1)
        with pytest.raises(TSpreadError, match=r"^spread must be positive, got t=0$"):
            Context(5, 0)

    def test_monomial_ideal(self):
        ctx = Context(6, 1)
        assert MonomialIdeal(ctx).gens == () == MonomialIdeal(ctx, []).gens
        with pytest.raises(TSpreadError, match=r"^the unit monomial cannot generate"):
            MonomialIdeal(ctx, [(1, 2), ()])
        with pytest.raises(TSpreadError, match=r"^support must be strictly increasing"):
            MonomialIdeal(ctx, [(2, 1)])
        with pytest.raises(TSpreadError, match=r"^indices of \(1, 7\) fall outside \[1, 6\]$"):
            MonomialIdeal(ctx, [(1, 7)])
        built = MonomialIdeal(ctx, [(1, 3)])
        assert MonomialIdeal._of_minimal(ctx, ((1, 3),)) == built

    def test_betti_table(self):
        assert BettiTable().entries == {} == BettiTable({(0, 1): 0}).entries
        assert BettiTable() == BettiTable({})

    @pytest.mark.parametrize(
        "corners, values, message",
        [
            (((1, 2),), (1, 1), "one value is needed per corner"),
            (((1, 2),), (0,), "corner values must be positive"),
            (((-1, 2),), (1,), "corner positions must satisfy k >= 0, degree >= 1"),
            (((3, 2), (4, 3)), (1, 1), "homological positions must strictly decrease"),
            (((4, 3), (3, 2)), (1, 1), "corner degrees must strictly increase"),
        ],
    )
    def test_corner_config(self, corners, values, message):
        with pytest.raises(TSpreadError, match=f"^{message}$"):
            CornerConfig(corners, values)
        with pytest.raises(ValueError):
            CornerConfig((("a", 2),), (1,))


@pytest.mark.parametrize("n,t", IDEAL_RINGS)
def test_t_spread_ideal_matches_gap_test(n, t):
    # every squarefree monomial of the ring alone, and beside the one before it
    ctx = Context(n, t)
    ms = spread_monomials(n, 1)
    for gens in chain(((m,) for m in ms), zip(ms, ms[1:])):
        ideal = MonomialIdeal(ctx, gens)
        assert is_t_spread_ideal(ideal) == all(_gaps_at_least(g, t) for g in ideal.gens), gens
