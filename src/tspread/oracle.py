"""Brute-force reference implementations.

Everything here works straight from the definitions: enumerate, filter,
iterate to a fixed point.  The point is not speed but independence; the fast
algorithms are tested against these routines, and the command line exposes
them behind ``--oracle`` so users can reproduce the cross-checks.

To keep accidental explosions out, enumerating operations refuse contexts
with more than ``N_LIMIT`` variables.
"""
from __future__ import annotations

from .core import (
    Context,
    Monomial,
    TSpreadError,
    require_t_spread,
    validate_monomial,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Sequence

N_LIMIT = 20


def _guard(ctx: Context) -> None:
    if ctx.n > N_LIMIT:
        raise TSpreadError(
            f"oracle routines are limited to n <= {N_LIMIT} (got n={ctx.n})"
        )


def enumerate_veronese(d: int, ctx: Context) -> list[Monomial]:
    """All t-spread monomials of degree d, by direct recursive generation.

    Sorted descending in the squarefree-lex order (ascending as tuples).
    """
    _guard(ctx)
    if d < 0:
        raise TSpreadError("degree must be nonnegative")
    out: list[Monomial] = []

    def extend(prefix: tuple[int, ...], lo: int, remaining: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for i in range(lo, ctx.n + 1):
            extend(prefix + (i,), i + ctx.t, remaining - 1)

    extend((), 1, d)
    return sorted(out)


def oracle_lex_set(u: Sequence[int], ctx: Context) -> set[Monomial]:
    """Every monomial of the ambient degree that is slex-greater or equal to u."""
    m = require_t_spread(u, ctx)
    return {w for w in enumerate_veronese(len(m), ctx) if w <= m}


def oracle_borel_set(u: Sequence[int], ctx: Context) -> set[Monomial]:
    """Every monomial of the ambient degree above u in the Borel order."""
    m = require_t_spread(u, ctx)
    return {
        w
        for w in enumerate_veronese(len(m), ctx)
        if all(j <= i for j, i in zip(w, m))
    }


def oracle_ss_closure(gens: Iterable[Sequence[int]], ctx: Context) -> set[Monomial]:
    """Fixed point of single exchange moves: the definitional closure.

    Starting from ``gens``, repeatedly replace one support index by any
    smaller unused one whenever the result stays t-spread, until nothing new
    appears.
    """
    _guard(ctx)
    todo = [require_t_spread(g, ctx) for g in gens]
    seen: set[Monomial] = set(todo)
    while todo:
        u = todo.pop()
        support = set(u)
        for j in u:
            rest = support - {j}
            for i in range(1, j):
                if i in rest:
                    continue
                w = tuple(sorted(rest | {i}))
                if any(b - a < ctx.t for a, b in zip(w, w[1:])):
                    continue
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return seen


def oracle_shadow(monomials: Iterable[Sequence[int]], ctx: Context) -> set[Monomial]:
    """Definitional shadow: multiply by every variable, keep t-spread results."""
    _guard(ctx)
    out: set[Monomial] = set()
    for u in monomials:
        m = require_t_spread(u, ctx)
        support = set(m)
        for h in range(1, ctx.n + 1):
            if h in support:
                continue
            w = tuple(sorted(support | {h}))
            if all(b - a >= ctx.t for a, b in zip(w, w[1:])):
                out.add(w)
    return out


def oracle_next_lex(u: Sequence[int], ctx: Context) -> Monomial | None:
    """Successor by full enumeration: the greatest monomial strictly below u."""
    m = require_t_spread(u, ctx)
    chain = enumerate_veronese(len(m), ctx)
    pos = chain.index(validate_monomial(m, ctx))
    return chain[pos + 1] if pos + 1 < len(chain) else None
