"""Monomial representation, ambient context and the two monomial orders.

A squarefree monomial with support {i_1 < i_2 < ... < i_d} is represented by
the tuple ``(i_1, ..., i_d)`` of its variable indices; the empty tuple is the
monomial 1.  Exponent vectors do not exist anywhere in this package: with a
positive spread every monomial of interest is squarefree, and working on the
index sequences directly is what keeps every algorithm here fast.

A public call that takes one monomial checks it in one pass at the
boundary (``_least_gap``): the indices are converted by ``int`` once, and
the least gap between neighbours decides both checks, strict increase
(least gap at least 1) and spread (least gap at least t).  Below degree 2
the least gap counts as t, so such monomials are t-spread for every t,
also t > n.  A batch, the input of an ideal or of a set function, has one
check on its index columns, ``_batch``: it certifies tuples of exact ints
whose columns lie in [1, n] and increase strictly, and hands back their
least column gap, which certifies them t-spread when it is at least t.
Anything else is checked member by member in input order (``_canonical``,
``construct._slices``).  Membership in an ideal known to be strongly
stable is the one query answered before any check: the prefixes of a tuple
are looked up among the generators first, a hit answers True with no
check, and only a miss is checked, inline, before it answers False.

All values are immutable and all functions are pure, so everything can be
shared freely across threads.  An ideal remembers facts derived from its
generators (whether it is t-spread or strongly stable, its generator shapes,
its generators as a set) the first time a call needs them; the memo is no
part of its value, so equality, hashing, ``repr`` and pickling never see it,
and two threads racing on it only derive the same fact twice.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, combinations, compress
from math import comb
from operator import itemgetter, le, not_, or_, sub

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Collection, Container, Iterable, Iterator, Sequence, TypeVar

    _T = TypeVar("_T")

Monomial = tuple[int, ...]
_INT, _TUPLE = frozenset((int,)), frozenset((tuple,))  # exact-type tests, built once


class TSpreadError(ValueError):
    """Base class for the domain errors raised by this package."""


class NotTSpreadError(TSpreadError):
    """An operation received a monomial that is not t-spread."""


class EmptyVeroneseError(TSpreadError):
    """No t-spread monomial of the requested degree exists."""


class BorelIncomparableError(TSpreadError):
    """Requested segment endpoints are not comparable in the Borel order.

    A caller asking for the segment between ``v`` and ``u`` may interpret
    this as "the segment is empty"; the dedicated type lets it tell that
    situation apart from malformed input.
    """


class NotStronglyStableError(TSpreadError):
    """A resolution invariant was requested for a non strongly stable ideal."""


class InvalidFtVectorError(TSpreadError):
    """A sequence fails the growth conditions for quotient count vectors."""


class InfeasibleCornersError(TSpreadError):
    """No strongly stable ideal realizes the requested corners and values."""


class Frozen:
    """Base of the immutable value classes: fields fixed once built.

    A subclass names its fields in ``__slots__``, sets them in ``__init__``
    through ``object.__setattr__`` and returns their values, in slot order,
    from ``_key``.  Equality, hashing, ``repr``, pickling and copying all go
    through ``_key``, so they agree with each other: two values are equal
    exactly when they have the same class and the same fields.  A subclass
    may end ``__slots__`` with private slots that ``_key`` leaves out (the
    memo of ``MonomialIdeal``): ``repr`` and ``__setstate__`` stop at the
    fields, and the subclass sets the rest itself.  (Frozen dataclasses
    would get the same methods, but ``dataclasses`` brings ``inspect``,
    ``ast`` and ``dis`` into every process importing this package, the
    command line's included.)
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # Slots have no ``__dict__`` to restore, and unpickling would otherwise
    # set them through the raising ``__setattr__``.
    def __getstate__(self) -> tuple:
        return self._key()

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class Context(Frozen):
    """Ambient parameters: ``n`` variables and spread ``t``, both at least 1.

    A spread of 0 would make repeated indices legal and change the data
    model, so it is rejected outright.
    """

    __slots__ = ("n", "t")
    n: int
    t: int

    def __init__(self, n: int, t: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        if n < 1:
            raise TSpreadError(f"need at least one variable, got n={n}")
        if t < 1:
            raise TSpreadError(f"spread must be positive, got t={t}")

    def _key(self) -> tuple:
        return (self.n, self.t)

    def max_degree(self) -> int:
        """Largest degree d with 1 + (d-1)t <= n, i.e. with any t-spread monomial."""
        return (self.n - 1) // self.t + 1


def _least_gap(u: Sequence[int], ctx: Context) -> tuple[Monomial, int]:
    # ``u`` as an index tuple in [1, n] and its least gap, ctx.t below
    # degree 2: the one-pass boundary check of the module docstring
    m = tuple(map(int, u))
    gap = min(map(sub, m[1:], m)) if len(m) > 1 else ctx.t
    if gap < 1:
        raise TSpreadError(f"support must be strictly increasing, got {m}")
    if m and (m[0] < 1 or m[-1] > ctx.n):
        raise TSpreadError(f"indices of {m} fall outside [1, {ctx.n}]")
    return m, gap


def validate_monomial(u: Sequence[int], ctx: Context) -> Monomial:
    """Canonicalize ``u`` to an index tuple, strictly increasing inside [1, n]."""
    return _least_gap(u, ctx)[0]


def _gaps_at_least(m: Monomial, t: int) -> bool:
    return len(m) < 2 or min(map(sub, m[1:], m)) >= t


def is_t_spread(u: Sequence[int], ctx: Context) -> bool:
    """Whether consecutive support indices all differ by at least ``ctx.t``.

    Monomials of degree 0 and 1 are t-spread for every t.
    """
    return _least_gap(u, ctx)[1] >= ctx.t


def require_t_spread(u: Sequence[int], ctx: Context) -> Monomial:
    """``u`` validated and canonicalized, or NotTSpreadError if not t-spread."""
    m, gap = _least_gap(u, ctx)
    if gap < ctx.t:
        raise NotTSpreadError("expected a t-spread monomial")
    return m


def sieve_t_spread(monomials: Iterable[Sequence[int]], ctx: Context) -> list[Monomial]:
    """The t-spread members of ``monomials``, in their original order."""
    return [m for m in map(tuple, monomials) if is_t_spread(m, ctx)]


def cmp_slex(u: Monomial, v: Monomial) -> int:
    """Three-way squarefree-lex comparison: +1 when u > v, -1 when u < v.

    The order is only defined between equal degrees; a mismatch is a caller
    bug, not a value.  Note that descending slex order coincides with
    ascending lexicographic order of the index tuples, so ``sorted(ms)``
    lists monomials from the slex-greatest down.
    """
    if len(u) != len(v):
        raise TSpreadError("slex comparison requires equal degrees")
    if u == v:
        return 0
    return 1 if tuple(u) < tuple(v) else -1


def slex_max(monomials: Iterable[Monomial]) -> Monomial:
    """Greatest element under the squarefree-lex order (smallest index tuple)."""
    return min(map(tuple, monomials))


def slex_min(monomials: Iterable[Monomial]) -> Monomial:
    """Least element under the squarefree-lex order (largest index tuple)."""
    return max(map(tuple, monomials))


def borel_geq(v: Monomial, u: Monomial) -> bool:
    """Whether ``v >= u`` in the Borel order: each index of v at most u's.

    Larger in this order means "closer to the front variables"; it refines
    nothing beyond the componentwise comparison and implies ``v >= u`` in
    the squarefree-lex order.
    """
    if len(u) != len(v):
        raise TSpreadError("Borel comparison requires equal degrees")
    return all(map(le, v, u))


def max_mon(d: int, ctx: Context) -> Monomial:
    """Slex-greatest t-spread monomial of degree d: indices 1, 1+t, ..., 1+(d-1)t."""
    if d < 0:
        raise TSpreadError("degree must be nonnegative")
    if d > ctx.max_degree():
        raise EmptyVeroneseError(
            f"no t-spread monomial of degree {d} for n={ctx.n}, t={ctx.t}"
        )
    return tuple(1 + q * ctx.t for q in range(d))


def min_mon(d: int, ctx: Context) -> Monomial:
    """Slex-least t-spread monomial of degree d: indices n-(d-1)t, ..., n-t, n,
    ``max_mon`` mirrored by i -> n + 1 - i, whose degree check it shares."""
    return tuple(ctx.n + 1 - i for i in reversed(max_mon(d, ctx)))


def minimalize(gens: Iterable[Sequence[int]]) -> list[Monomial]:
    """Minimal generators of the squarefree ideal the input generates.

    Each input counts as its support: the result holds canonical supports
    ``tuple(sorted(set(g)))`` in (size, tuple) order, none containing
    another.  The supports are grouped by size, and a size-d group meets the
    kept supports of each smaller size e through its index columns: one
    lookup pass per e-subset of positions, over the whole group at once,
    when the C(d, e) subsets are no more than the kept ones, else a scan of
    the kept ones per support.  The unit support divides every other.
    """
    return _minimal(_groups((tuple(sorted(set(g))) for g in gens), set))


def _groups(
    ms: Iterable[Monomial], bucket: Callable[[list[Monomial]], Collection[Monomial]] = list
) -> Iterator[tuple[Collection[Monomial], list[Monomial], list[list[int]]]]:
    # ms by degree, ascending: each degree's ``bucket`` of its members (a set
    # drops repeats), listed in the bucket's order, and their index columns.
    # One stable sort by length, linear on input in degree order, then lazy:
    # a caller that stops at a degree lists and hashes nothing above it.
    ms = sorted(ms, key=len)
    lo = 0
    while lo < len(ms):
        hi = bisect_right(ms, len(ms[lo]), lo, key=len)
        run = bucket(ms[lo:hi])
        members = list(run)
        yield run, members, _columns(members, len(members[0]))
        lo = hi


def _columns(ms: Sequence[Monomial], d: int) -> list[list[int]]:
    # The index columns of degree-d monomials, one itemgetter pass per
    # position.  Not zip(*ms): that holds one iterator per monomial at once,
    # each tracked by the garbage collector, and on large sets the
    # collections they set off cost more than the columns.  On the 127 456
    # degree-5 generators of the n = 40 closure they double its time (34 ms
    # against 16 ms with collection off; 18.6 ms column by column), and a
    # batch check of a 51 561-member set started 67 young and 6 middle ones.
    return [list(map(itemgetter(i), ms)) for i in range(d)]


def _minimal(groups: Iterable[tuple[object, list[Monomial], list[list[int]]]]) -> list[Monomial]:
    # ``minimalize`` of distinct canonical supports, by the index columns of
    # each size, as ``_groups`` lists them
    kept: list[Monomial] = []
    by_size: dict[int, set[Monomial]] = {}
    for _, ms, cols in groups:
        d = len(cols)
        if not d:
            return [()]
        hit = [False] * len(ms)
        scans = []
        for e, smaller in by_size.items():
            if comb(d, e) <= len(smaller):
                for pos in combinations(cols, e):
                    hit = list(map(or_, hit, map(smaller.__contains__, zip(*pos))))
            else:
                scans.append(smaller)
        alive = sorted(compress(ms, map(not_, hit)))
        for smaller in scans:
            alive = [g for g in alive if not any(map(frozenset(g).issuperset, smaller))]
        kept += alive
        by_size[d] = set(alive)
    return kept


def _columns_spread(cols: Sequence[Sequence[int]], t: int) -> bool:
    return all(min(map(sub, b, a)) >= t for a, b in zip(cols, cols[1:]))


def _batch(
    items: list, ctx: Context
) -> tuple[list[tuple[set[Monomial], list[Monomial], list[list[int]]]], int] | None:
    # The one batch check of sets and ideals: tuples of exact ints whose
    # index columns lie in [1, n] and increase strictly, degree by degree,
    # give their distinct members as ``_groups`` lists them in sets, and the
    # least adjacent column gap, ctx.t below degree 2.  Anything else gives
    # None, and the caller checks it member by member, in input order.
    if not (_TUPLE.issuperset(map(type, items))
            and _INT.issuperset(map(type, chain.from_iterable(items)))):
        return None
    groups = list(_groups(items, set))
    cols = [c for _, _, c in groups]
    gap = min((min(map(sub, b, a)) for c in cols for a, b in zip(c, c[1:])), default=ctx.t)
    if gap < 1 or any(c and (min(c[0]) < 1 or max(c[-1]) > ctx.n) for c in cols):
        return None
    return groups, gap


def _canonical(gens: Iterable[Sequence[int]], ctx: Context) -> tuple[tuple[Monomial, ...], int]:
    # The validated minimal generators of a proper ideal, (degree, slex)
    # order, and the input's least gap (``_batch``).  Input the batch check
    # does not certify, or that holds the unit monomial, is validated member
    # by member in input order (``_least_gap``), so the first offender raises.
    items = list(gens)
    batch = _batch(items, ctx)
    if batch is None or batch[0] and () in batch[0][0][0]:  # degree 0 comes first
        canon = []
        for g in items:
            m = _least_gap(g, ctx)[0]
            if not m:
                raise TSpreadError("the unit monomial cannot generate a proper ideal")
            canon.append(m)
        batch = _batch(canon, ctx)
    groups, gap = batch
    return tuple(_minimal(groups)), gap


def exchange_moves(u: Monomial, ctx: Context) -> Iterator[Monomial]:
    """All t-spread results of swapping one support index for a smaller one.

    These single moves define strongly stable sets: a set is t-strongly
    stable exactly when it is closed under all of them.
    """
    support = set(u)
    for j in u:
        rest = support - {j}
        for i in range(1, j):
            if i in rest:
                continue
            w = tuple(sorted(rest | {i}))
            if _gaps_at_least(w, ctx.t):
                yield w


class MonomialIdeal(Frozen):
    """A monomial ideal held by its unique minimal generating set.

    Generators are canonicalized on construction: validated against the
    context, minimalized (no generator divides another) and sorted by degree
    then descending slex.  The unit monomial is rejected, so every ideal
    here is proper.  Tuples of exact ints are validated and minimalized
    degree by degree on their index columns (see ``minimalize``); other
    input is validated member by member, so the first offender raises.

    Facts derived from the generators are remembered in a private memo, no
    field of the value: whether the ideal is t-spread and whether it is
    t-strongly stable (a True stability verdict implies the first), the
    generators' (degree, max index) shapes, and the generators as a set.
    Each is derived by the first call that needs it; a copy or an unpickled
    ideal starts with an empty memo; a t-spread verdict is recorded at
    construction when the input's least gap is at least t.  Once the ideal
    is known to be strongly stable, ``contains`` answers a tuple by prefix
    lookups: a hit needs no check, and only a miss is checked.
    """

    __slots__ = ("ctx", "gens", "_memo")
    ctx: Context
    gens: tuple[Monomial, ...]

    def __init__(self, ctx: Context, gens: Iterable[Sequence[int]] = ()) -> None:
        object.__setattr__(self, "ctx", ctx)
        gens, gap = _canonical(gens, ctx)
        object.__setattr__(self, "gens", gens)
        # the minimal generators are input members: an input least gap of at
        # least t certifies them t-spread, so the guards test no column again
        object.__setattr__(self, "_memo", {"spread": True} if gap >= ctx.t else {})

    def _key(self) -> tuple:
        return (self.ctx, self.gens)

    def __setstate__(self, state: tuple) -> None:
        super().__setstate__(state)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _of_minimal(
        cls, ctx: Context, gens: tuple[Monomial, ...], stable: bool = False
    ) -> MonomialIdeal:
        """Unchecked constructor for generators already valid, minimal and in
        (degree, slex) order, as the constructions here build them.  With
        ``stable`` the caller vouches that the ideal is t-strongly stable,
        as the closures, lex ideals and Veronese ideals are by construction."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "ctx", ctx)
        object.__setattr__(ideal, "gens", gens)
        object.__setattr__(ideal, "_memo", {"ss": True} if stable else {})
        return ideal

    def _fact(self, name: str, derive: Callable[[MonomialIdeal], _T]) -> _T:
        # the derived fact ``name``, remembered from the first call that needs it
        memo = self._memo
        if name not in memo:
            memo[name] = derive(self)
        return memo[name]

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def degrees(self) -> list[int]:
        """Generator degrees, ascending, without repetition."""
        return sorted({len(g) for g in self.gens})

    def gens_of_degree(self, d: int) -> list[Monomial]:
        return [g for g in self.gens if len(g) == d]

    def contains(self, u: Sequence[int]) -> bool:
        """Monomial membership: some generator's support lies inside u's.

        When the ideal is already known to be t-strongly stable and ``u`` is
        a tuple, its prefixes ``u[:1]``, ``u[:2]``, ... are looked up among
        the generators first, in one pass.  A hit answers True with no check
        of ``u``: the generator found is a prefix, so its support lies
        inside u's.  Only a miss is checked: it answers False when ``u`` is
        non-empty, of exact ints, from 1 on and with gaps of at least t (the
        prefix lemma of ``construct.is_t_ss_ideal``).  Any other input, or
        an ideal not yet known to be stable, is answered by a scan of the
        generators.  A tuple with an unhashable member raises the scan's
        TypeError on either path.  This method never tests stability.
        """
        if self._memo.get("ss") and type(u) is tuple:
            hash(u)  # an unhashable member raises here as in the scan
            if not self._fact("set", _gen_set).isdisjoint(accumulate(zip(u))):
                return True
            if (
                u
                and _INT.issuperset(map(type, u))
                and u[0] >= 1
                and (len(u) < 2 or min(map(sub, u[1:], u)) >= self.ctx.t)
            ):
                return False
        return any(map(set(u).issuperset, self.gens))


def _gen_set(ideal: MonomialIdeal) -> frozenset[Monomial]:
    return frozenset(ideal.gens)


def _has_prefix_in(w: Monomial, gens: Container[Monomial]) -> bool:
    # membership of a t-spread w in the strongly stable ideal minimally
    # generated by gens (the prefix lemma of construct.is_t_ss_ideal): the
    # prefixes w[:1], w[:2], ... are grown by concatenation and looked up in
    # one C-level pass, with no generator frame and no table of slices
    return any(map(gens.__contains__, accumulate(zip(w))))


def _spread_gaps(ideal: MonomialIdeal) -> bool:
    # the gap test on the index columns of each degree
    t = ideal.ctx.t
    return all(_columns_spread(cols, t) for _, _, cols in _groups(ideal.gens))


def is_t_spread_ideal(ideal: MonomialIdeal) -> bool:
    """Whether every generator is t-spread; remembered by the ideal."""
    return ideal._memo.get("ss") or ideal._fact("spread", _spread_gaps)


def require_t_spread_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    if not is_t_spread_ideal(ideal):
        raise NotTSpreadError("expected a t-spread ideal")
    return ideal
