"""Seeded input generation.

Every random choice comes from a ``random.Random`` seeded with a string,
which Python hashes the same way in every process.  Work per operation is
steered by targets on a log scale with a seeded jitter inside each stratum,
so two seeds give different inputs but nearly the same amount of work.
"""
from __future__ import annotations

import random

from ref import borel_count, lex_unrank, veronese_card


def rng_for(workload, seed):
    return random.Random(f"tspread-bench:{workload}:{seed}")


def log_targets(rng, count, lo, hi, jitter=1.0):
    """``count`` stratified targets from ``lo`` to ``hi`` on a log scale.

    Each target sits in its own stratum, at a seeded point of the middle
    ``jitter`` share of it.
    """
    ratio = hi / lo
    return [
        lo * ratio ** ((i + 0.5 + jitter * (rng.random() - 0.5)) / count)
        for i in range(count)
    ]


def max_degree(n, t):
    return (n - 1) // t + 1


def sized_context(rng, i, n_range, d_range, fits=lambda n, t, d: True):
    """(n, t, d) for the i-th operation of a kind, with ``fits(n, t, d)``.

    The cost of most operations follows d and t, so these cycle with ``i``
    and every seed gets the same mix; only n is drawn.  A (t, d) that keeps
    failing ``fits`` gives way to the next one in the cycle.
    """
    degrees = range(d_range[0], d_range[1] + 1)
    for tries in range(10**6):
        k = i + tries // 20
        d = degrees[k % len(degrees)]
        t = 1 + (k // len(degrees)) % 3
        n = rng.randint(*n_range)
        if d <= max_degree(n, t) and fits(n, t, d):
            return n, t, d
    raise ValueError("no context fits")


def rand_monomial(rng, n, t, d):
    """A uniformly random degree-d t-spread monomial of [n]."""
    return lex_unrank(rng.randrange(veronese_card(n, t, d)), n, t, d)


def borel_bounds(shape, lam, t):
    """Prefix bounds b_k = k*t + 1 + floor(lam * shape_k): t-spread, growing in lam."""
    return tuple(k * t + 1 + int(lam * r) for k, r in enumerate(shape))


def borel_with_size(rng, target, n, t, length, tol):
    """A t-spread ``length``-tuple whose Borel set has about ``target`` members.

    Draws a random shape and bisects its scale; returns None when this
    (n, t, length) cannot land within ``tol`` of the target.
    """
    shape = sorted(rng.random() for _ in range(length))
    room = n - (length - 1) * t - 1
    if room < 0:
        return None
    lo, hi = 0.0, room / shape[-1]
    if borel_count(borel_bounds(shape, hi, t), t) < target:
        return None
    for _ in range(40):
        mid = (lo + hi) / 2
        if borel_count(borel_bounds(shape, mid, t), t) < target:
            lo = mid
        else:
            hi = mid
    b = borel_bounds(shape, hi, t)
    size = borel_count(b, t)
    return b if abs(size - target) <= tol * target else None


def ss_query(rng, target, d, n_range, t_range, tol=0.05):
    """(n, t, u) of degree d >= 3 whose strongly stable count sums about
    ``target`` terms.

    The term count of u is the Borel-set size of its first d-1 indices; the
    last index is free, drawn between its lowest legal value and n.  Small
    targets cannot always be hit closely, so the tolerance widens slowly.
    """
    for tries in range(10**6):
        n, t = rng.randint(*n_range), rng.randint(*t_range)
        if d > max_degree(n, t):
            continue
        head = borel_with_size(rng, target, n, t, d - 1, tol * 2 ** (tries // 50))
        if head is not None and head[-1] + t <= n:
            return n, t, head + (rng.randint(head[-1] + t, n),)
    raise ValueError(f"no degree-{d} query near {target} terms")
