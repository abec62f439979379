"""Closed-form counting of segment cardinalities.

No monomial is ever constructed, and the cost of a count depends on the
degree alone, not on ``n`` or on the size of the set counted.  All
arithmetic is exact Python integers, so counts stay correct far beyond
64-bit range.

* ``count_t_lex_mon`` sums the paper's nested binomial decomposition one
  level at a time: the terms of a level share their lower index, so the
  hockey-stick identity collapses each level to a difference of two
  binomials, O(d) binomials in all.
* ``count_t_ss_mon`` and ``cq_operator`` both count chains
  ``1 <= v_1 < ... < v_d`` under strictly increasing bounds ``v_k <= b_k``
  (``_bounded_chains``).  A chain of length k in ``[1, b_k]`` either
  respects every bound or breaks one first, at some position j+1; then it
  is a valid chain of length j followed by any k-j values in
  ``(b_{j+1}, b_k]``, and the two parts are chosen independently.  That
  first-violation recurrence costs O(d^2) binomials.
* ``_ss_seg_size`` counts a Borel segment B_t[v, u] (the t-spread w <= u
  componentwise with v <= w as tuples, v Borel-above u) by the same chains.
  A member w != v first leaves v at some position q, upward, so u_q > v_q,
  and its tail ``w[q:] - v_q`` is any t-spread tail under the caps
  ``u[q:] - v_q``: |B_t[v, u]| = 1 + sum of those counts, O(d^3) binomials.

The ``iter_*_count_terms`` generators, which yield the paper's binomial
terms one by one, and ``count_terms_ss``, which predicts how many there
are, are instrumentation only: the tests and the benchmark read the term
counts, but no count is computed through them.  The strongly stable count
adds one innermost term per admissible prefix of u's first d - 1 indices,
so ``count_terms_ss(u)`` is the strongly stable set size of u without its
last index, the paper's C_q operator on (i_{d-1} - (d-2)t, ..., i_1).
"""
from __future__ import annotations

from math import comb
from operator import lt

from .core import Context, TSpreadError, require_t_spread

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterator, Sequence

BinomialTerm = tuple[int, int]


def binomial(top: int, bottom: int) -> int:
    """C(top, bottom) with the convention that it vanishes when top < bottom."""
    if bottom < 0 or top < bottom:
        return 0
    return comb(top, bottom)


def card_veronese(d: int, ctx: Context) -> int:
    """Number of t-spread monomials of degree d: C(n - (d-1)(t-1), d).

    Zero exactly when no such monomial exists, i.e. when 1 + (d-1)t > n.
    """
    if d < 0:
        raise TSpreadError("degree must be nonnegative")
    return binomial(ctx.n - (d - 1) * (ctx.t - 1), d)


def binomial_decomposition(n: int, q: int) -> list[BinomialTerm]:
    """The n-q+1 terms C(n-1, q-1), C(n-2, q-1), ..., C(q-1, q-1).

    Their sum is C(n, q); any run of consecutive terms sums in closed form
    by the same identity, which is how ``count_t_lex_mon`` sums a level.
    """
    if q < 1 or n < q:
        raise TSpreadError(f"need n >= q >= 1, got n={n}, q={q}")
    return [(n - 1 - s, q - 1) for s in range(n - q + 1)]


def _bounded_chains(bounds: Sequence[int]) -> int:
    """Chains 1 <= v_1 < ... < v_d with v_k <= bounds[k-1], bounds strictly increasing.

    F_0 = 1 and F_k = C(b_k, k) - sum over j < k of F_j C(b_k - b_{j+1}, k - j),
    the subtracted terms counting the chains whose first broken bound is at
    position j+1.  The term j = k-1 always vanishes and is skipped.
    """
    f = [1]
    for k, top in enumerate(bounds, 1):
        s = comb(top, k)
        for j in range(k - 1):
            s -= f[j] * comb(top - bounds[j], k - j)
        f.append(s)
    return f[-1]


def iter_lex_count_terms(u: Sequence[int], ctx: Context) -> Iterator[int]:
    """Binomial contributions to the lex-set size of ``u``, one per term.

    Level k of the nested decomposition contributes one binomial for every
    admissible value of the k-th support index strictly above u's; the final
    term 1 accounts for u itself.  The total number of terms is
    max(u) - (d-1)t.  Instrumentation only: ``count_t_lex_mon`` sums each
    level in closed form.
    """
    m = require_t_spread(u, ctx)
    d = len(m)
    if d == 0:
        raise TSpreadError("counting requires degree at least 1")
    n, t = ctx.n, ctx.t
    for s in range(1, m[0]):
        yield comb(n - (d - 1) * (t - 1) - s, d - 1)
    for k in range(2, d + 1):
        for s in range(1, m[k - 1] - m[k - 2] - t + 1):
            yield comb(n - (d - k + 1) * (t - 1) - m[k - 2] - s, d - k)
    yield comb(n - m[d - 1], 0)


def count_t_lex_mon(u: Sequence[int], ctx: Context) -> int:
    """Size of the smallest lex set containing ``u``, without construction.

    Level k of ``iter_lex_count_terms`` is the run C(N-1, r), ..., C(N-M, r)
    with N = n - (d-k+1)(t-1) - i_{k-1} (i_0 = 1 - t), r = d - k and
    M = i_k - i_{k-1} - t; the hockey-stick identity sums it as
    C(N, r+1) - C(N-M, r+1).  The final 1 counts ``u`` itself.
    """
    m = require_t_spread(u, ctx)
    if not m:
        raise TSpreadError("counting requires degree at least 1")
    return _lex_count(m, len(m), ctx.n, ctx.t)


def _lex_count(head: Sequence[int], d: int, n: int, t: int) -> int:
    # ``count_t_lex_mon``, unchecked, of the degree-d t-spread monomial that
    # starts with head and goes on t apart from head's last index up to n,
    # head itself when d = len(head).  A level whose index is its
    # predecessor's plus t adds C(N, r) - C(N - 0, r) = 0, so it is skipped,
    # and the levels past head are never visited (``is_t_lex_ideal``).
    total = 1
    prev = 1 - t  # i_0, placed so that level 1 follows the same rule
    for k, i in enumerate(head, 1):
        if i - prev > t:
            top = n - (d - k + 1) * (t - 1) - prev
            total += comb(top, d - k + 1) - comb(top - (i - prev - t), d - k + 1)
        prev = i
    return total


def iter_ss_count_terms(u: Sequence[int], ctx: Context) -> Iterator[int]:
    """Binomial contributions to the strongly stable closure size of ``u``.

    A multi-index (s_1, ..., s_{d-1}) sweeps, odometer style, over every
    admissible combination of the first d-1 support indices; each position
    contributes one innermost binomial C(x, 1) = x.  Only max(u) matters,
    not the ambient n.  Instrumentation only: ``count_t_ss_mon`` never
    walks these terms.
    """
    m = require_t_spread(u, ctx)
    d = len(m)
    if d == 0:
        raise TSpreadError("counting requires degree at least 1")
    t = ctx.t
    if d == 1:
        yield m[0]
        return
    nbar = m[-1]
    s = [1] * (d - 1)
    while True:
        yield nbar - (d - 1) * (t - 1) - sum(s)
        p = d - 2
        s[p] += 1
        while p > 0 and s[p] > m[p] - sum(s[:p]) - p * (t - 1):
            s[p] = 1
            p -= 1
            s[p] += 1
        if s[0] > m[0]:
            return


def count_t_ss_mon(u: Sequence[int], ctx: Context) -> int:
    """Size of the smallest strongly stable set containing ``u``.

    This counts the t-spread w with w_k <= i_k.  Compressing the gaps,
    v_k = w_k - (k-1)(t-1), makes them the chains under the bounds
    b_k = i_k - (k-1)(t-1), strictly increasing because u is t-spread.
    """
    m = require_t_spread(u, ctx)
    if not m:
        raise TSpreadError("counting requires degree at least 1")
    return _ss_size(m, ctx.t)


def _ss_size(m: Sequence[int], t: int) -> int:
    # ``count_t_ss_mon`` of a t-spread index tuple of degree at least 1, unchecked
    return _bounded_chains([i - k * (t - 1) for k, i in enumerate(m)])


def _ss_seg_size(v: Sequence[int], u: Sequence[int], t: int) -> int:
    # |B_t[v, u]| = 1 + sum over q with u_q > v_q of _ss_size(u[q:] - v_q), for
    # t-spread v Borel-above u of one degree, unchecked (see the module docstring)
    return 1 + sum(_ss_size([i - a for i in u[q:]], t) for q, a in enumerate(v) if u[q] > a)


def cq_operator(args: Sequence[int]) -> int:
    """Nested sum operator on a nonincreasing tuple of positive integers.

    C_1(a) = a and C_q(a_1, ..., a_q) = sum over r < a_q of
    C_{q-1}(a_1 - r, ..., a_{q-1} - r).  It counts the innermost binomial
    terms of the strongly stable cardinality formula.

    Unrolled, it counts the weakly increasing partial sums
    0 <= P_1 <= ... <= P_q with P_k < a_{q-k+1}; shifting them to the
    strict chains v_k = P_k + k gives the bounds
    (a_q, a_{q-1} + 1, ..., a_1 + q - 1).
    """
    a = tuple(map(int, args))
    if not a:
        raise TSpreadError("expected at least one argument")
    if min(a) < 1:
        raise TSpreadError(f"arguments must be positive, got {a}")
    if any(map(lt, a, a[1:])):
        raise TSpreadError(f"arguments must be nonincreasing, got {a}")
    return _bounded_chains([x + k for k, x in enumerate(reversed(a))])


def count_terms_ss(u: Sequence[int], ctx: Context) -> int:
    """Predicted number of innermost additions in the strongly stable count.

    The nested sum operator on (i_{d-1} - (d-2)t, ..., i_2 - t, i_1) reverses
    them and adds k - 1 to the k-th, giving the compressed bounds
    i_k - (k-1)(t-1) of u's first d - 1 indices.  So this is the strongly
    stable set size of ``u`` without its last index: the prefixes the
    odometer of ``iter_ss_count_terms`` sweeps.  Instrumentation only: it
    sizes ``iter_ss_count_terms``, which no count walks.
    """
    m = require_t_spread(u, ctx)
    if len(m) < 2:
        raise TSpreadError("term counting requires degree at least 2")
    return _ss_size(m[:-1], ctx.t)
