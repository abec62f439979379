"""Monomial representation, ambient context and the two monomial orders.

A squarefree monomial with support {i_1 < i_2 < ... < i_d} is represented by
the tuple ``(i_1, ..., i_d)`` of its variable indices; the empty tuple is the
monomial 1.  Exponent vectors do not exist anywhere in this package: with a
positive spread every monomial of interest is squarefree, and working on the
index sequences directly is what keeps every algorithm here fast.

All values are immutable and all functions are pure, so everything can be
shared freely across threads.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Monomial = tuple[int, ...]


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
    exactly when they have the same class and the same fields.  (Frozen
    dataclasses would get the same methods, but ``dataclasses`` brings
    ``inspect``, ``ast`` and ``dis`` into every process importing this
    package, the command line's included.)
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


def validate_monomial(u: Sequence[int], ctx: Context) -> Monomial:
    """Canonicalize ``u`` to an index tuple, strictly increasing inside [1, n]."""
    m = tuple(int(i) for i in u)
    for a, b in zip(m, m[1:]):
        if b <= a:
            raise TSpreadError(f"support must be strictly increasing, got {m}")
    if m and (m[0] < 1 or m[-1] > ctx.n):
        raise TSpreadError(f"indices of {m} fall outside [1, {ctx.n}]")
    return m


def _gaps_at_least(m: Monomial, t: int) -> bool:
    return all(b - a >= t for a, b in zip(m, m[1:]))


def is_t_spread(u: Sequence[int], ctx: Context) -> bool:
    """Whether consecutive support indices all differ by at least ``ctx.t``.

    Monomials of degree 0 and 1 are t-spread for every t.
    """
    return _gaps_at_least(validate_monomial(u, ctx), ctx.t)


def require_t_spread(u: Sequence[int], ctx: Context) -> Monomial:
    """``u`` validated and canonicalized, or NotTSpreadError if not t-spread."""
    m = validate_monomial(u, ctx)
    if not _gaps_at_least(m, ctx.t):
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
    return all(j <= i for j, i in zip(v, u))


def max_mon(d: int, ctx: Context) -> Monomial:
    """Slex-greatest t-spread monomial of degree d: indices 1, 1+t, ..., 1+(d-1)t."""
    if d < 0:
        raise TSpreadError("degree must be nonnegative")
    if d and 1 + (d - 1) * ctx.t > ctx.n:
        raise EmptyVeroneseError(
            f"no t-spread monomial of degree {d} for n={ctx.n}, t={ctx.t}"
        )
    return tuple(1 + q * ctx.t for q in range(d))


def min_mon(d: int, ctx: Context) -> Monomial:
    """Slex-least t-spread monomial of degree d: indices n-(d-1)t, ..., n-t, n."""
    if d < 0:
        raise TSpreadError("degree must be nonnegative")
    if d and 1 + (d - 1) * ctx.t > ctx.n:
        raise EmptyVeroneseError(
            f"no t-spread monomial of degree {d} for n={ctx.n}, t={ctx.t}"
        )
    return tuple(ctx.n - (d - 1 - q) * ctx.t for q in range(d))


def minimalize(gens: Iterable[Sequence[int]]) -> list[Monomial]:
    """Drop every monomial whose support contains another member's support.

    Divisibility between squarefree monomials is support inclusion, so the
    result is the minimal generating set of the ideal the input generates.
    """
    items = sorted({tuple(g) for g in gens}, key=lambda g: (len(g), g))
    kept: list[Monomial] = []
    kept_supports: list[frozenset[int]] = []
    for g in items:
        support = frozenset(g)
        if not any(s <= support for s in kept_supports):
            kept.append(g)
            kept_supports.append(support)
    return kept


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
    here is proper.
    """

    __slots__ = ("ctx", "gens")
    ctx: Context
    gens: tuple[Monomial, ...]

    def __init__(self, ctx: Context, gens: Iterable[Sequence[int]] = ()) -> None:
        object.__setattr__(self, "ctx", ctx)
        canon = []
        for g in gens:
            m = validate_monomial(g, ctx)
            if not m:
                raise TSpreadError("the unit monomial cannot generate a proper ideal")
            canon.append(m)
        object.__setattr__(self, "gens", tuple(minimalize(canon)))

    def _key(self) -> tuple:
        return (self.ctx, self.gens)

    @classmethod
    def _of_minimal(cls, ctx: Context, gens: tuple[Monomial, ...]) -> MonomialIdeal:
        """Unchecked constructor for generators already valid, minimal and in
        (degree, slex) order, as the constructions here build them."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "ctx", ctx)
        object.__setattr__(ideal, "gens", gens)
        return ideal

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def degrees(self) -> list[int]:
        """Generator degrees, ascending, without repetition."""
        return sorted({len(g) for g in self.gens})

    def gens_of_degree(self, d: int) -> list[Monomial]:
        return [g for g in self.gens if len(g) == d]

    def contains(self, u: Sequence[int]) -> bool:
        """Monomial membership: some generator's support lies inside u's."""
        support = set(u)
        return any(len(g) <= len(support) and support.issuperset(g) for g in self.gens)


def is_t_spread_ideal(ideal: MonomialIdeal) -> bool:
    # ``_gaps_at_least`` per generator, inlined: on ideals of a million
    # generators the generator expression over ``zip`` costs twice as much
    t = ideal.ctx.t
    for g in ideal.gens:
        for i in range(len(g) - 1):
            if g[i + 1] - g[i] < t:
                return False
    return True


def require_t_spread_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    if not is_t_spread_ideal(ideal):
        raise NotTSpreadError("expected a t-spread ideal")
    return ideal
