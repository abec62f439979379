"""Reference arithmetic of the benchmark, written apart from ``tspread``.

Input generation and answer checking use these routines, so the benchmark
never asks the code under test to judge itself.  Each routine follows a
different route from the library: counts come from dynamic programs and
combinatorial ranks, ideal invariants from the Eliahou-Kervaire
decomposition of strongly stable ideals (every member is ``g * v`` with
``g`` a minimal generator and ``min v >= max g + t``) and, for ideals that
are not strongly stable, from inclusion-exclusion over generator subsets.
"""
from __future__ import annotations

from itertools import combinations
from math import comb


def spread_ok(w, t):
    return all(b - a >= t for a, b in zip(w, w[1:]))


def is_monomial(w, n, t):
    """Strictly increasing, inside [1, n] and t-spread."""
    return (not w or (w[0] >= 1 and w[-1] <= n)) and all(
        b - a >= t for a, b in zip(w, w[1:])
    )


def interval_card(length, e, t):
    """Number of t-spread e-subsets of an interval of ``length`` integers."""
    if e == 0:
        return 1
    if length <= 0:
        return 0
    top = length - (e - 1) * (t - 1)
    return comb(top, e) if top >= e else 0


def veronese_card(n, t, d):
    return interval_card(n, d, t)


def borel_count(bounds, t, lo=1):
    """Number of t-spread w with ``w_1 >= lo`` and ``w_k <= bounds[k]``.

    A prefix-sum dynamic program over the value of the last index.
    """
    if not bounds:
        return 1
    top = bounds[-1]
    ways = [0] * (top + 2)
    for x in range(lo, min(bounds[0], top) + 1):
        ways[x] = 1
    for b in bounds[1:]:
        prefix = [0] * (top + 2)
        run = 0
        for x in range(top + 1):
            run += ways[x]
            prefix[x] = run
        ways = [0] * (top + 2)
        for x in range(1, b + 1):
            if x - t >= 0:
                ways[x] = prefix[x - t]
    return sum(ways)


def ss_terms(u, t):
    """Binomial terms summed by the library's strongly stable count (C_q)."""
    return 1 if len(u) == 1 else borel_count(u[:-1], t)


def lex_terms(u, t):
    """Binomial terms summed by the library's lex count: max(u) - (d-1)t."""
    return u[-1] - (len(u) - 1) * t


def _squeeze(u, t):
    return [x - k * (t - 1) for k, x in enumerate(u)]


def lex_rank(u, n, t):
    """Number of degree-d t-spread monomials that sort strictly before ``u``.

    Subtracting (k-1)(t-1) from the k-th index maps t-spread monomials onto
    plain d-subsets of [m], m = n - (d-1)(t-1), preserving tuple order.
    """
    d = len(u)
    m = n - (d - 1) * (t - 1)
    v = _squeeze(u, t)
    rank = 0
    prev = 0
    for k, x in enumerate(v):
        for y in range(prev + 1, x):
            rank += comb(m - y, d - k - 1)
        prev = x
    return rank


def lex_unrank(r, n, t, d):
    """The degree-d t-spread monomial of rank ``r`` in tuple order."""
    m = n - (d - 1) * (t - 1)
    v = []
    prev = 0
    for k in range(d):
        y = prev + 1
        while True:
            block = comb(m - y, d - k - 1)
            if r < block:
                break
            r -= block
            y += 1
        v.append(y)
        prev = y
    return tuple(x + k * (t - 1) for k, x in enumerate(v))


def lex_range(start, size, n, t, d):
    """``size`` consecutive degree-d t-spread monomials from rank ``start``.

    Steps through plain d-subsets of [m] with the textbook next-combination
    rule and spreads each one back out.
    """
    m = n - (d - 1) * (t - 1)
    v = _squeeze(lex_unrank(start, n, t, d), t)
    out = []
    for _ in range(size):
        out.append(tuple(x + k * (t - 1) for k, x in enumerate(v)))
        k = d - 1
        while k >= 0 and v[k] == m - (d - 1 - k):
            k -= 1
        if k < 0:
            break
        v[k] += 1
        for j in range(k + 1, d):
            v[j] = v[j - 1] + 1
    return out


def lex_count(u, n, t):
    """Size of the smallest lex set containing ``u``."""
    return lex_rank(u, n, t) + 1


def borel_iter(u, t, lo=1):
    """All t-spread w with ``w_1 >= lo`` and ``w <= u`` componentwise, sorted."""
    d = len(u)
    out = []

    def grow(prefix, start, k):
        if k == d:
            out.append(tuple(prefix))
            return
        for x in range(start, u[k] + 1):
            prefix.append(x)
            grow(prefix, x + t, k + 1)
            prefix.pop()

    grow([], lo, 0)
    return out


def shadow(u, n, t):
    """Degree d+1 t-spread multiples of ``u`` by a single variable."""
    s = set(u)
    out = set()
    for h in range(1, n + 1):
        if h not in s:
            w = tuple(sorted(s | {h}))
            if spread_ok(w, t):
                out.add(w)
    return out


def exchange_count(g, t):
    """Number of single exchange moves of ``g`` that stay t-spread."""
    s = set(g)
    total = 0
    for j in g:
        rest = s - {j}
        for i in range(1, j):
            if i not in rest and spread_ok(tuple(sorted(rest | {i})), t):
                total += 1
    return total


def minimal_gens(gens):
    """Minimal generating set, sorted by degree then tuple order."""
    kept = []
    for g in sorted(set(map(tuple, gens)), key=lambda g: (len(g), g)):
        sg = set(g)
        if not any(sg.issuperset(h) for h in kept):
            kept.append(g)
    return kept


def ss_closure_gens(gens, t):
    """Minimal generators of the smallest t-strongly stable ideal containing ``gens``.

    In a strongly stable ideal a monomial is a member exactly when one of its
    prefixes is a minimal generator, so a Borel-set element is a minimal
    generator unless one of its proper prefixes already is.
    """
    by_degree = {}
    for g in gens:
        by_degree.setdefault(len(g), set()).update(borel_iter(g, t))
    kept = set()
    for d in sorted(by_degree):
        for w in by_degree[d]:
            if not any(w[:j] in kept for j in range(1, d)):
                kept.add(w)
    return sorted(kept, key=lambda g: (len(g), g))


def ss_contains(gen_set, w):
    """Membership in a strongly stable ideal given its minimal generators."""
    return any(w[:j] in gen_set for j in range(1, len(w) + 1))


def ss_slice_sizes(gens, n, t):
    """|I_k| for k = 1 .. max degree of a strongly stable ideal (Eliahou-Kervaire)."""
    top = (n - 1) // t + 1
    sizes = [0] * (top + 1)
    for g in gens:
        room = n - g[-1] - t + 1
        for k in range(len(g), top + 1):
            sizes[k] += interval_card(room, k - len(g), t)
    return sizes[1:]


def _lex_max_member(gens, k, n, t):
    """Tuple-largest degree-k member of a strongly stable ideal, or None."""
    best = None
    for g in gens:
        e = k - len(g)
        if e < 0 or (e and g[-1] + t > n - (e - 1) * t):
            continue
        w = g + tuple(n - (e - 1 - q) * t for q in range(e))
        best = w if best is None or w > best else best
    return best


def ss_is_lex(gens, n, t):
    """Whether every slice of a strongly stable ideal is an initial lex segment."""
    sizes = ss_slice_sizes(gens, n, t)
    return all(
        not size or size == lex_count(_lex_max_member(gens, k, n, t), n, t)
        for k, size in enumerate(sizes, start=1)
    )


def _multiples_poly(m, n, t):
    """Coefficients c_e: t-spread monomials containing support ``m`` with e extra indices."""
    gaps = [m[0] - t] + [b - a - 2 * t + 1 for a, b in zip(m, m[1:])] + [n - m[-1] - t + 1]
    poly = [1]
    for length in gaps:
        factor = []
        e = 0
        while True:
            c = interval_card(length, e, t)
            if c == 0:
                break
            factor.append(c)
            e += 1
        prod = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        poly = prod
    return poly


def slice_sizes(gens, n, t):
    """|I_k| for k = 1 .. max degree, by inclusion-exclusion over generator subsets.

    Meant for a handful of generators; any ideal, strongly stable or not.
    """
    top = (n - 1) // t + 1
    sizes = [0] * (top + 1)
    for r in range(1, len(gens) + 1):
        sign = 1 if r % 2 else -1
        for subset in combinations(gens, r):
            m = tuple(sorted(set().union(*subset)))
            if not spread_ok(m, t):
                continue
            for e, c in enumerate(_multiples_poly(m, n, t)):
                if len(m) + e <= top:
                    sizes[len(m) + e] += sign * c
    return sizes[1:]


def ft_from_sizes(sizes, n, t):
    return [1] + [veronese_card(n, t, k) - s for k, s in enumerate(sizes, start=1)]


def betti_entries(gens, t):
    """Graded Betti numbers {(i, j): value} of a strongly stable ideal."""
    out = {}
    for g in gens:
        j = len(g)
        reach = g[-1] - t * (j - 1) - 1
        for i in range(reach + 1):
            out[(i, j)] = out.get((i, j), 0) + comb(reach, i)
    return out


def corners(entries):
    """Extremal entries: nonzero, with every entry weakly right and below zero.

    Returned as (positions, values) with positions (i, j) in increasing j.
    """
    found = sorted(
        (j, i)
        for (i, j) in entries
        if not any((k, l) != (i, j) and k >= i and l >= j for (k, l) in entries)
    )
    return tuple((i, j) for j, i in found), tuple(entries[(i, j)] for j, i in found)


def macaulay(a, d):
    """Greedy expansion of ``a`` as C(a_d, d) + C(a_{d-1}, d-1) + ...

    Each top is found by bisection rather than by stepping upward.
    """
    terms = []
    rem = a
    i = d
    while rem > 0 and i >= 1:
        lo, hi = i, i
        while comb(hi, i) <= rem:
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if comb(mid, i) <= rem:
                lo = mid
            else:
                hi = mid
        terms.append((lo, i))
        rem -= comb(lo, i)
        i -= 1
    return terms


def growth_bound(a, d, t):
    """Largest admissible next quotient count after ``a`` in degree d."""
    total = 0
    for top, bottom in macaulay(a, d):
        x, y = top - (t - 1), bottom + 1
        if 0 <= y <= x:
            total += comb(x, y)
    return total


def is_ft(f, n, t):
    if not f or f[0] != 1:
        return False
    if any(x < 0 or x > veronese_card(n, t, d) for d, x in enumerate(f) if d):
        return False
    return all(f[d + 1] <= growth_bound(f[d], d, t) for d in range(1, len(f) - 1))


def ascending_spread(ms, n, t, d):
    """Whether ``ms`` is a strictly ascending list of degree-d t-spread tuples."""
    return (
        all(type(w) is tuple and len(w) == d and is_monomial(w, n, t) for w in ms)
        and all(a < b for a, b in zip(ms, ms[1:]))
    )
