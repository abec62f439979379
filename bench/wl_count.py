"""Workload ``count``: closed-form queries that build no monomial.

The strongly stable counts are the heavy operations: their term counts
(C_q) are stratified on a log scale, so most queries are small and a few
large ones dominate the time.  The largest form a plateau of 10^5 to
3*10^5 terms which, with their slice-size twins, makes up about an eighth
of the list, so that the 90th percentile falls inside the plateau rather
than on the steep part of the ladder, where one rank more or less moves it
by a fifth.  The remaining queries (lex counts, slice
sizes, the C_q operator, Macaulay expansions, ft-vector tests and
t-spread tests) are cheap and make up the median operation.
"""
from __future__ import annotations

import ref
from gen import log_targets, max_degree, rand_monomial, rng_for, sized_context, ss_query
from harness import Op
from tspread import (
    Context,
    card_veronese,
    count_t_lex_mon,
    count_t_ss_mon,
    count_terms_ss,
    cq_operator,
    is_ft_vector,
    is_t_spread,
    t_macaulay_expansion,
)
from tspread import oracle

SETUP = (
    "import tspread as T; c = T.Context(12, 2);"
    " T.count_t_ss_mon((2, 5, 9), c); T.is_ft_vector([1, 12, 40], c)"
)

N_RANGE = (20, 100)
T_RANGE = (1, 3)
D_RANGE = (2, 7)
SS_QUERIES = 72
PLATEAU = 36
TERMS_MIN, LADDER_MAX, PLATEAU_MIN, TERMS_MAX = 10, 3 * 10**4, 10**5, 3 * 10**5


def _degree(i, target):
    # The cost of a term grows with the degree, so the degree of each
    # stratum is fixed rather than drawn; only degrees 5 to 7 reach the
    # upper strata.
    return (3, 4, 5, 6, 7)[i % 5] if target < 4000 else (5, 6, 7)[i % 3]


def _ss_ops(rng):
    ops = []
    targets = log_targets(rng, SS_QUERIES - PLATEAU, TERMS_MIN, LADDER_MAX, 0.3)
    targets += log_targets(rng, PLATEAU, PLATEAU_MIN, TERMS_MAX, 0.3)
    for i, target in enumerate(targets):
        n, t, u = ss_query(rng, target, _degree(i, target), N_RANGE, T_RANGE)
        ctx = Context(n, t)
        size = ref.borel_count(u, t)
        small = n <= oracle.N_LIMIT

        def check(r, u=u, ctx=ctx, size=size, small=small):
            return r == size and (not small or r == len(oracle.oracle_borel_set(u, ctx)))

        terms = ref.ss_terms(u, t)
        ops.append(Op("count.count_t_ss_mon", count_t_ss_mon, (u, ctx), check, {"terms": terms}))
        if i % 2:
            ops.append(Op("count.count_terms_ss", count_terms_ss, (u, ctx),
                          lambda r, terms=terms: r == terms))
    return ops


def _cq_ops(rng, count):
    ops = []
    for i, target in enumerate(log_targets(rng, count, TERMS_MIN, TERMS_MAX, 0.3)):
        _, t, u = ss_query(rng, target, _degree(i, target), N_RANGE, T_RANGE)
        args = tuple(u[k] - k * t for k in range(len(u) - 2, -1, -1))
        terms = ref.ss_terms(u, t)
        ops.append(Op("count.cq_operator", cq_operator, (args,), lambda r, terms=terms: r == terms))
    return ops


def _lex_ops(rng, count):
    ops = []
    for i in range(count):
        n, t, d = sized_context(rng, i, N_RANGE, D_RANGE)
        u = rand_monomial(rng, n, t, d)
        ctx = Context(n, t)
        size = ref.lex_count(u, n, t)
        ops.append(Op("count.count_t_lex_mon", count_t_lex_mon, (u, ctx),
                      lambda r, size=size: r == size, {"terms": ref.lex_terms(u, t)}))
    return ops


def _card_ops(rng, count):
    ops = []
    for i in range(count):
        n, t, d = sized_context(rng, i, N_RANGE, D_RANGE)
        # The slice size is the lex rank of its last monomial, plus one.
        size = ref.lex_count(tuple(n - (d - 1 - q) * t for q in range(d)), n, t)
        ops.append(Op("count.card_veronese", card_veronese, (d, Context(n, t)),
                      lambda r, size=size: r == size))
    return ops


def spread_ops(rng, count, n_range, d_range):
    """t-spread tests: half on t-spread monomials, half on random supports."""
    ops = []
    for i in range(count):
        n, t, d = sized_context(rng, i // 2, n_range, d_range)
        if i % 2:
            u = rand_monomial(rng, n, t, d)
        else:
            u = tuple(sorted(rng.sample(range(1, n + 1), d)))
        ops.append(Op("core.is_t_spread", is_t_spread, (u, Context(n, t)),
                      lambda r, want=ref.spread_ok(u, t): r is want))
    return ops


def _macaulay_ops(rng, count):
    ops = []
    for i in range(count):
        n, t, d = sized_context(rng, i, N_RANGE, D_RANGE)
        a = rng.randint(0, ref.veronese_card(n, t, d))
        shift = bool(rng.getrandbits(1))
        want = ref.macaulay(a, d)
        if shift:
            want = [(top - (t - 1), bottom + 1) for top, bottom in want]
        ops.append(Op("kk.t_macaulay_expansion", t_macaulay_expansion,
                      (a, d, Context(n, t), shift), lambda r, want=want: list(r) == want))
    return ops


def _rand_ft(rng, n, t, length):
    f = [1, rng.randint(1, n)]
    for d in range(2, length):
        cap = min(ref.growth_bound(f[-1], d - 1, t), ref.veronese_card(n, t, d))
        f.append(rng.randint(cap // 2, cap))
    return f


def _ft_ops(rng, count):
    ops = []
    for i in range(count):
        n, t, _ = sized_context(rng, i // 2, N_RANGE, (2, 7))
        length = min(3 + (i // 2) % 6, max_degree(n, t) + 1)
        f = _rand_ft(rng, n, t, length)
        if i % 2:
            k = rng.randint(2, length - 1)
            f[k] = min(ref.growth_bound(f[k - 1], k - 1, t), ref.veronese_card(n, t, k)) + 1
        want = ref.is_ft(f, n, t)
        ops.append(Op("kk.is_ft_vector", is_ft_vector, (f, Context(n, t)),
                      lambda r, want=want: r is want))
    return ops


def build(seed):
    rng = rng_for("count", seed)
    ops = (
        _ss_ops(rng)
        + _cq_ops(rng, 20)
        + _lex_ops(rng, 50)
        + _card_ops(rng, 20)
        + spread_ops(rng, 40, N_RANGE, D_RANGE)
        + _macaulay_ops(rng, 30)
        + _ft_ops(rng, 30)
    )
    rng.shuffle(ops)
    return ops
