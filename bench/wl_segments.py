"""Workload ``segments``: constructions and set tests at n = 20 .. 40.

Constructions emit 10^3 to 2*10^5 monomials each (5*10^4 at most for the
lex walks, which cost about five times more per monomial than the Borel
walks), sized exactly (lex ranks) or closely (Borel counts) to stratified
targets, so the per-monomial successor and re-validation cost dominates.
Set tests feed the same layer from the read side, half of them with one
member dropped so the answer is false.  Single successor steps and
t-spread tests are the cheapest operations.  There are many of them (five
sixths of the list, a few milliseconds of each pass): with 70 instead of
210, the median latency moved by about a tenth from seed to seed; with
210, by about a fiftieth.
"""
from __future__ import annotations

import ref
from gen import borel_with_size, log_targets, max_degree, rng_for, sized_context
from harness import Op
from tspread import (
    Context,
    is_t_lex_seg,
    is_t_ss_seg,
    is_t_ss_set,
    t_lex_mon,
    t_lex_seg,
    t_next_lex,
    t_shadow_set,
    t_ss_mon,
    t_ss_seg,
    t_veronese,
)
from tspread import oracle
from wl_count import spread_ops

SETUP = (
    "import tspread as T; c = T.Context(12, 2);"
    " T.t_lex_mon((2, 5, 9), c); T.t_ss_mon((2, 5, 9), c); T.is_t_ss_set([(1, 3)], c)"
)

N_RANGE = (20, 40)
T_RANGE = (1, 3)
OUT_MIN, LEX_MAX, BOREL_MAX = 10**3, 5 * 10**4, 2 * 10**5


def _pick(rng, i, fits):
    return sized_context(rng, i, N_RANGE, (2, 8), fits)


def _borel_below(w, u):
    return all(a <= b for a, b in zip(w, u))


def _monomials_out(r):
    return {"monomials_out": len(r)}


def _construction(name, fn, args, n, t, d, size, extra=lambda r: True, want_set=None):
    small = n <= oracle.N_LIMIT and want_set is not None

    def check(r):
        return (
            len(r) == size
            and ref.ascending_spread(r, n, t, d)
            and extra(r)
            and (not small or set(r) == want_set())
        )

    return Op(f"construct.{name}", fn, args, check, out_work=_monomials_out)


def _lex_mon_ops(rng, count):
    ops = []
    for i, target in enumerate(log_targets(rng, count, OUT_MIN, LEX_MAX, 0.1)):
        size = round(target)
        n, t, d = _pick(rng, i, lambda n, t, d: ref.veronese_card(n, t, d) >= size)
        ctx = Context(n, t)
        u = ref.lex_unrank(size - 1, n, t, d)
        ops.append(_construction(
            "t_lex_mon", t_lex_mon, (u, ctx), n, t, d, size, lambda r, u=u: r[-1] == u,
            lambda u=u, ctx=ctx: oracle.oracle_lex_set(u, ctx)))
    return ops


def _lex_seg_ops(rng, count):
    ops = []
    for i, target in enumerate(log_targets(rng, count, OUT_MIN, LEX_MAX, 0.1)):
        size = round(target)
        n, t, d = _pick(rng, i, lambda n, t, d: ref.veronese_card(n, t, d) >= size)
        start = rng.randrange(ref.veronese_card(n, t, d) - size + 1)
        v = ref.lex_unrank(start, n, t, d)
        u = ref.lex_unrank(start + size - 1, n, t, d)
        ops.append(_construction(
            "t_lex_seg", t_lex_seg, (v, u, Context(n, t)), n, t, d, size,
            lambda r, v=v, u=u: r[0] == v and r[-1] == u))
    return ops


def _borel_top(rng, i, target):
    """(n, t, u) whose Borel set has about ``target`` members."""
    while True:
        n, t, d = _pick(rng, i, lambda n, t, d: ref.veronese_card(n, t, d) >= target)
        u = borel_with_size(rng, target, n, t, d, 0.05)
        if u is not None:
            return n, t, u


def _ss_mon_ops(rng, count):
    ops = []
    for i, target in enumerate(log_targets(rng, count, OUT_MIN, BOREL_MAX, 0.1)):
        n, t, u = _borel_top(rng, i, target)
        ctx = Context(n, t)
        ops.append(_construction(
            "t_ss_mon", t_ss_mon, (u, ctx), n, t, len(u), ref.borel_count(u, t),
            lambda r, u=u: all(_borel_below(w, u) for w in r),
            lambda u=u, ctx=ctx: oracle.oracle_borel_set(u, ctx)))
    return ops


def _ss_seg_ops(rng, count):
    ops = []
    for i, target in enumerate(log_targets(rng, count, OUT_MIN, BOREL_MAX, 0.1)):
        n, t, u = _borel_top(rng, i, 1.5 * target)
        lo = min(range(1, u[0] + 1), key=lambda a: abs(ref.borel_count(u, t, a) - target))
        v = tuple(lo + k * t for k in range(len(u)))
        ops.append(_construction(
            "t_ss_seg", t_ss_seg, (v, u, Context(n, t)), n, t, len(u),
            ref.borel_count(u, t, lo),
            lambda r, u=u, lo=lo: all(_borel_below(w, u) and w[0] >= lo for w in r)))
    return ops


def _veronese_ops(rng, count):
    ops = []
    for target in log_targets(rng, count, OUT_MIN, LEX_MAX, 0.1):
        slices = [
            (n, t, d)
            for n in range(N_RANGE[0], N_RANGE[1] + 1)
            for t in range(T_RANGE[0], T_RANGE[1] + 1)
            for d in range(2, max_degree(n, t) + 1)
            if abs(ref.veronese_card(n, t, d) - target) <= 0.1 * target
        ]
        n, t, d = rng.choice(slices)
        ctx = Context(n, t)
        ops.append(_construction(
            "t_veronese", t_veronese, (d, ctx), n, t, d, ref.veronese_card(n, t, d),
            want_set=lambda d=d, ctx=ctx: set(oracle.enumerate_veronese(d, ctx))))
    return ops


def _next_lex_ops(rng, count):
    ops = []
    for i in range(count):
        n, t, d = _pick(rng, i, lambda n, t, d: True)
        card = ref.veronese_card(n, t, d)
        rank = card - 1 if i % 10 == 0 else rng.randrange(card)
        u = ref.lex_unrank(rank, n, t, d)
        want = ref.lex_unrank(rank + 1, n, t, d) if rank + 1 < card else None
        ops.append(Op("construct.t_next_lex", t_next_lex, (u, Context(n, t)),
                      lambda r, want=want: r == want))
    return ops


def _shadow_ops(rng, count):
    ops = []
    for i, target in enumerate(log_targets(rng, count, 50, 2000, 0.3)):
        n, t, d = _pick(rng, i, lambda n, t, d: ref.veronese_card(n, t, d) >= 4 * target)
        card = ref.veronese_card(n, t, d)
        ms = [ref.lex_unrank(r, n, t, d) for r in sorted(rng.sample(range(card), round(target)))]
        total = sum(len(ref.shadow(u, n, t)) for u in ms)

        def check(r, ms=ms, n=n, t=t):
            return r == sorted(set().union(*(ref.shadow(u, n, t) for u in ms)))

        ops.append(Op("construct.t_shadow_set", t_shadow_set, (ms, Context(n, t)), check,
                      {"shadow_total": total}, _monomials_out))
    return ops


def _drop_middle(rng, ms):
    ms = list(ms)
    del ms[rng.randrange(1, len(ms) - 1)]
    return ms


def _set_test(name, fn, ms, ctx, want):
    return Op(f"construct.{name}", fn, (ms, ctx), lambda r: r is want, {"monomials": len(ms)})


def _set_test_ops(rng, count_lex, count_seg, count_set):
    ops = []
    for i, target in enumerate(log_targets(rng, count_lex, 10**3, 10**4, 0.3)):
        size = round(target)
        n, t, d = _pick(rng, i, lambda n, t, d: ref.veronese_card(n, t, d) >= size)
        start = rng.randrange(ref.veronese_card(n, t, d) - size + 1)
        ms = ref.lex_range(start, size, n, t, d)
        ops.append(_set_test("is_t_lex_seg", is_t_lex_seg,
                             _drop_middle(rng, ms) if i % 2 else ms, Context(n, t), not i % 2))
    for i, target in enumerate(log_targets(rng, count_seg, 10**3, 10**4, 0.3)):
        n, t, u = _borel_top(rng, i, 1.5 * target)
        lo = min(range(1, u[0] + 1), key=lambda a: abs(ref.borel_count(u, t, a) - target))
        ms = ref.borel_iter(u, t, lo)
        ops.append(_set_test("is_t_ss_seg", is_t_ss_seg,
                             _drop_middle(rng, ms) if i % 2 else ms, Context(n, t), not i % 2))
    for i, target in enumerate(log_targets(rng, count_set, 10**2, 2 * 10**3, 0.3)):
        n, t, u = _borel_top(rng, i, 0.6 * target)
        w = None
        while w is None:
            w = borel_with_size(rng, 0.6 * target, n, t, len(u), 0.05)
        ms = sorted(set(ref.borel_iter(u, t)) | set(ref.borel_iter(w, t)))
        ops.append(_set_test("is_t_ss_set", is_t_ss_set,
                             ms[1:] if i % 2 else ms, Context(n, t), not i % 2))
    return ops


def build(seed):
    rng = rng_for("segments", seed)
    ops = (
        _lex_mon_ops(rng, 3)
        + _lex_seg_ops(rng, 3)
        + _ss_mon_ops(rng, 4)
        + _ss_seg_ops(rng, 3)
        + _veronese_ops(rng, 3)
        + _next_lex_ops(rng, 90)
        + _shadow_ops(rng, 6)
        + _set_test_ops(rng, 6, 5, 5)
        + spread_ops(rng, 120, N_RANGE, (2, 8))
    )
    rng.shuffle(ops)
    return ops
