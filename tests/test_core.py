import copy
import pickle
import random
import time
from itertools import chain, combinations
from math import comb
from operator import lt, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CLOSURE_40_CTX,
    IDEAL_RINGS,
    REALIZE_BASICS,
    REALIZE_CTX,
    REALIZE_GENERATORS,
    spread_monomials,
)
from tspread.betti import BettiTable, CornerConfig, graded_betti
from tspread.core import (
    Context,
    EmptyVeroneseError,
    MonomialIdeal,
    NotTSpreadError,
    TSpreadError,
    _gaps_at_least,
    _spread_gaps,
    borel_geq,
    cmp_slex,
    is_t_spread,
    is_t_spread_ideal,
    max_mon,
    min_mon,
    minimalize,
    require_t_spread,
    sieve_t_spread,
    slex_max,
    slex_min,
    validate_monomial,
)
from tspread.count import cq_operator

C5, C5_2 = Context(5, 1), Context(5, 2)
C3_5 = Context(3, 5)  # a spread past the ring: only degrees 0 and 1 are t-spread


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


# Every refusal at the boundary, with its exception type and message: the
# first check that fails names the input after conversion by ``int``, which
# also turns float and bool members into indices.
REFUSALS = [
    (validate_monomial, ((3, 2), C5), TSpreadError, "support must be strictly increasing, got (3, 2)"),
    (validate_monomial, ((2, 2), C5), TSpreadError, "support must be strictly increasing, got (2, 2)"),
    (validate_monomial, ((0, 3), C5), TSpreadError, "indices of (0, 3) fall outside [1, 5]"),
    (validate_monomial, ((2, 6), C5), TSpreadError, "indices of (2, 6) fall outside [1, 5]"),
    (validate_monomial, ((6, 0), C5), TSpreadError, "support must be strictly increasing, got (6, 0)"),
    (validate_monomial, ((2.9, 2), C5), TSpreadError,
     "support must be strictly increasing, got (2, 2)"),
    (validate_monomial, ((False, 2.5), C5), TSpreadError, "indices of (0, 2) fall outside [1, 5]"),
    (require_t_spread, ((3, 2), C5_2), TSpreadError, "support must be strictly increasing, got (3, 2)"),
    (require_t_spread, ((1, 9), C5_2), TSpreadError, "indices of (1, 9) fall outside [1, 5]"),
    (require_t_spread, ((1, 2), C5_2), NotTSpreadError, "expected a t-spread monomial"),
    (require_t_spread, ((True, 2.0, 4), C5_2), NotTSpreadError, "expected a t-spread monomial"),
    (cq_operator, ((),), TSpreadError, "expected at least one argument"),
    (cq_operator, ((3, 0),), TSpreadError, "arguments must be positive, got (3, 0)"),
    (cq_operator, ((-1, 4),), TSpreadError, "arguments must be positive, got (-1, 4)"),
    (cq_operator, ((2, 4),), TSpreadError, "arguments must be nonincreasing, got (2, 4)"),
    (cq_operator, ((4, 4, 5),), TSpreadError, "arguments must be nonincreasing, got (4, 4, 5)"),
    (cq_operator, ((2.5, 4.0),), TSpreadError, "arguments must be nonincreasing, got (2, 4)"),
    (cq_operator, ((3, False),), TSpreadError, "arguments must be positive, got (3, 0)"),
    # a spread past the ring: degrees 0 and 1 are refused only out of range
    (require_t_spread, ((0,), C3_5), TSpreadError, "indices of (0,) fall outside [1, 3]"),
    (require_t_spread, ((4,), C3_5), TSpreadError, "indices of (4,) fall outside [1, 3]"),
    (validate_monomial, ((False,), C3_5), TSpreadError, "indices of (0,) fall outside [1, 3]"),
    (require_t_spread, ((1, 3), C3_5), NotTSpreadError, "expected a t-spread monomial"),
    (require_t_spread, ((3, 1), C3_5), TSpreadError, "support must be strictly increasing, got (3, 1)"),
]


@pytest.mark.parametrize(
    "check, args, error, message", REFUSALS,
    ids=[f"{r[0].__name__}-{k}" for k, r in enumerate(REFUSALS)],
)
def test_boundary_refusals(check, args, error, message):
    with pytest.raises(TSpreadError) as excinfo:
        check(*args)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


# Degrees 0 and 1 pass every spread check, also when t exceeds n: their
# least gap counts as t.
ACCEPTED = [
    (validate_monomial, ((), C3_5), ()),
    (require_t_spread, ((), C3_5), ()),
    (is_t_spread, ((), C3_5), True),
    (require_t_spread, ((1,), Context(2, 3)), (1,)),
    (require_t_spread, ((3,), C3_5), (3,)),
    (require_t_spread, ([True], C3_5), (1,)),
    (is_t_spread, ([2.5], C3_5), True),
    (is_t_spread, ((1,), Context(1, 9)), True),
]


@pytest.mark.parametrize(
    "check, args, expected", ACCEPTED,
    ids=[f"{r[0].__name__}-{k}" for k, r in enumerate(ACCEPTED)],
)
def test_boundary_accepts_low_degrees_past_the_ring(check, args, expected):
    got = check(*args)
    assert got == expected and type(got) is type(expected)
    assert all(type(i) is int for i in (got if type(got) is tuple else ()))


def three_pass(u, ctx):
    """The boundary check as three passes over ``u``: the reference of the
    one-pass helper.  The converted monomial and whether it is t-spread."""
    m = tuple(map(int, u))
    if not all(map(lt, m, m[1:])):
        raise TSpreadError(f"support must be strictly increasing, got {m}")
    if m and (m[0] < 1 or m[-1] > ctx.n):
        raise TSpreadError(f"indices of {m} fall outside [1, {ctx.n}]")
    return m, len(m) < 2 or min(map(sub, m[1:], m)) >= ctx.t


def reference_checks(u, ctx):
    m, spread = three_pass(u, ctx)
    if not spread:
        raise NotTSpreadError("expected a t-spread monomial")
    return m


def outcome(check, *args):
    # the value, or the exception's exact type and message
    try:
        return "value", check(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


MEMBERS = st.one_of(
    st.integers(-2, 12), st.booleans(), st.floats(-2, 12, allow_nan=False, allow_infinity=False)
)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 9), t=st.integers(1, 12),
    members=st.lists(MEMBERS, max_size=6), as_tuple=st.booleans(), increasing=st.booleans(),
)
def test_one_pass_boundary_matches_three_passes(n, t, members, as_tuple, increasing):
    # t > n, repeated, unsorted and out-of-range members, bools and floats;
    # ``increasing`` sorts the members, so that spread refusals are drawn too
    if increasing:
        members.sort()
    u = tuple(members) if as_tuple else members
    ctx = Context(n, t)
    assert outcome(validate_monomial, u, ctx) == outcome(lambda *a: three_pass(*a)[0], u, ctx)
    assert outcome(is_t_spread, u, ctx) == outcome(lambda *a: three_pass(*a)[1], u, ctx)
    assert outcome(require_t_spread, u, ctx) == outcome(reference_checks, u, ctx)
    got = outcome(require_t_spread, u, ctx)
    if got[0] == "value":
        assert all(type(i) is int for i in got[1])


def test_boundary_converts_float_and_bool_members():
    assert validate_monomial([True, 2.0, 4.7], C5) == (1, 2, 4)
    assert type(validate_monomial([True], C5)[0]) is int
    assert require_t_spread((True, 3.9), C5_2) == (1, 3)
    assert cq_operator((3.7, True)) == cq_operator((3, 1)) == 3


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

    def test_repeated_indices_count_as_their_support(self):
        assert minimalize([(1, 2, 3), (1, 1, 1, 1)]) == [(1,)]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(gens=st.lists(st.lists(st.integers(1, 9), max_size=6), max_size=40))
    def test_matches_pairwise_support_check(self, gens):
        supports = {tuple(sorted(set(g))) for g in gens}
        want = sorted(
            (g for g in supports if not any(set(h) < set(g) for h in supports)),
            key=lambda g: (len(g), g),
        )
        assert minimalize(gens) == want

    def test_large_shuffled_closure_is_fast(self, closure_40):
        # 129 913 generators, all minimal: minutes for a pairwise check
        gens = list(closure_40[0].gens)
        random.Random(40).shuffle(gens)
        start = time.perf_counter()
        ideal = MonomialIdeal(CLOSURE_40_CTX, gens)
        assert time.perf_counter() - start < 5.0
        assert ideal == closure_40[0]


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

    def test_t_spread_verdict_from_the_input_gap(self, monkeypatch):
        # an input least gap of at least t is recorded at construction, on
        # the batch path and member by member; below t the minimal
        # generators decide, when asked: (1, 3) alone is 2-spread
        ctx = Context(8, 2)
        derived = []
        monkeypatch.setattr("tspread.core._spread_gaps",
                            lambda ideal: derived.append(ideal) or _spread_gaps(ideal))
        for gens in (((1, 3), (2, 5, 8)), ([1, 3], [2, 5, 8]), ((4,), (8,)), ((True,),), ()):
            ideal = MonomialIdeal(ctx, gens)
            assert ideal._memo == {"spread": True} and is_t_spread_ideal(ideal), gens
        assert not derived
        for gens, spread in ((((1, 3), (1, 2, 3)), True), (([1, 3], [1, 2, 3]), True),
                             (((1, 2),), False), (((2, 4), (3, 4)), False)):
            ideal = MonomialIdeal(ctx, gens)
            assert ideal._memo == {} and is_t_spread_ideal(ideal) == spread, gens
        assert len(derived) == 4


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
        if cls is MonomialIdeal:  # its memo filled, which is no part of the value
            assert graded_betti(value).total(0) == 2 and value.contains((1, 3, 5))
            assert set(value._memo) == {"spread", "ss", "shapes", "set"}
            assert value == cls(**kwargs) and hash(value) == hash(cls(**kwargs))
            assert repr(value) == text
        copies = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(value), copy.deepcopy(value)]
        for c in copies:
            assert type(c) is cls and c == value and repr(c) == text
            if cls is not BettiTable:  # its entries are a dict
                assert hash(c) == hash(value)
            if cls is MonomialIdeal:  # a copy starts with an empty memo
                assert c._memo == {}
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
    # every squarefree monomial of the ring alone, beside the one before it,
    # and in runs of 20 of one degree: the column gap test on each
    ctx = Context(n, t)
    ms = spread_monomials(n, 1)
    runs = (ms[i:i + 20] for i in range(len(ms)) if len(set(map(len, ms[i:i + 20]))) == 1)
    for gens in chain(((m,) for m in ms), zip(ms, ms[1:]), runs):
        ideal = MonomialIdeal(ctx, gens)
        assert is_t_spread_ideal(ideal) == all(_gaps_at_least(g, t) for g in ideal.gens), gens


def scan_minimal(supports):
    """``minimalize`` of canonical supports one at a time, as it was before
    the column kernel: in (size, tuple) order, each support met with the
    kept ones of every size by its subsets or by a scan."""
    kept, by_size = [], {}
    for g in sorted(set(supports), key=lambda g: (len(g), g)):
        support = frozenset(g)
        for e, smaller in by_size.items():
            if comb(len(g), e) <= len(smaller):
                if not smaller.isdisjoint(combinations(g, e)):
                    break
            elif any(map(support.issuperset, smaller)):
                break
        else:
            kept.append(g)
            by_size.setdefault(len(g), set()).add(g)
    return kept


def member_by_member_gens(ctx, gens):
    """``MonomialIdeal(ctx, gens).gens`` as built before the batch check."""
    canon = []
    for g in gens:
        m = validate_monomial(g, ctx)
        if not m:
            raise TSpreadError("the unit monomial cannot generate a proper ideal")
        canon.append(m)
    return tuple(scan_minimal(canon))


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return "raised", type(exc), str(exc)


@st.composite
def ideal_members(draw, n_max=10):
    """(members, ctx): valid members with up to three offenders of any kind."""
    n = draw(st.integers(1, n_max))
    valid = st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True).map(
        lambda m: tuple(sorted(m)))
    offender = st.one_of(
        valid.map(lambda m: m + (n + 1,)),  # out of range
        valid.map(lambda m: (0,) + m),
        valid.map(lambda m: m + m[-1:]),  # repeated
        valid.filter(lambda m: len(m) > 1).map(lambda m: m[::-1]),  # decreasing
        st.just(()),  # the unit monomial
        valid.map(lambda m: (True,) + m[1:]),
        valid.map(lambda m: tuple(map(float, m))),
        st.sampled_from(["12", "x", "3"]),
        valid.map(list),
    )
    # short and long lists, both through the batch check when valid
    members = draw(st.one_of(st.lists(valid, max_size=8), st.lists(valid, min_size=16, max_size=40)))
    for _ in range(draw(st.integers(0, 3))):
        members.insert(draw(st.integers(0, len(members))), draw(offender))
    return members, Context(n, 1)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=ideal_members())
def test_ideal_built_as_member_by_member(case):
    members, ctx = case
    want = outcome(member_by_member_gens, ctx, members)
    assert outcome(lambda: MonomialIdeal(ctx, members).gens) == want
    assert outcome(lambda: MonomialIdeal(ctx, iter(members)).gens) == want
    # minimalize takes any supports: all but the str members, whose
    # characters would be compared with ints
    supports = [m for m in members if not isinstance(m, str)]
    got = minimalize(supports)
    assert got == scan_minimal([tuple(sorted(set(g))) for g in supports])
    # (1.0, 2.0) equals (1, 2): the types are compared too
    types = [tuple(map(type, g)) for g in scan_minimal([tuple(sorted(set(g))) for g in supports])]
    assert [tuple(map(type, g)) for g in got] == types


@pytest.mark.parametrize("few", [1, 20])
def test_unit_support_divides_every_other(few):
    supports = [(3, 1), (2,)] * few + [[]] + [(i, i + 1) for i in range(1, few)]
    assert minimalize(supports) == [()]
    with pytest.raises(TSpreadError, match=r"^the unit monomial cannot generate"):
        MonomialIdeal(Context(25, 1), [(2, 3)] * few + [()])


def test_valid_tuples_skip_member_validation(monkeypatch):
    # duplicates and multiples of generators among them, out of order
    gens = REALIZE_GENERATORS[::-1] + REALIZE_BASICS + ((1, 4, 20), (2, 5, 9, 13))
    want = MonomialIdeal(REALIZE_CTX, gens).gens

    def refuse(*_):
        raise AssertionError("validated member by member")

    # the member check, which validate_monomial calls too
    monkeypatch.setattr("tspread.core._least_gap", refuse)
    assert MonomialIdeal(REALIZE_CTX, gens).gens == want == REALIZE_GENERATORS
    # however few they are
    assert MonomialIdeal(REALIZE_CTX, ((2, 5, 9, 13), (1, 4), (2, 5, 9))).gens == ((1, 4), (2, 5, 9))
