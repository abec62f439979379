"""Workload ``ideals``: strongly stable closures of random generators.

Each case draws 3 to 6 random 3-spread generators at n = 18 .. 24 and
keeps the draw only when its strongly stable closure has a generator count
on a stratified 100 .. 450 ladder, a total component size (sum over
degrees of |I_j|) in a fixed band and a bounded realization cost: the
quantities that set the cost of membership scans, of slice-by-shadow
invariants and of round trips.  The pipeline runs on the closure and, for
the stability, ft-vector and lex tests, on the raw generators too, which
are not strongly stable and so stay on the shadow path.  (Their ft-vectors
need not be admissible, so the lex companion is only asked of the
closure.)  Realization round trips use the closure's own extremal corners,
which are feasible by construction.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import ref
from gen import log_targets, max_degree, rand_monomial, rng_for
from harness import Op, child_env
from tspread import (
    Context,
    CornerConfig,
    MonomialIdeal,
    extremal_corners,
    ft_vector,
    graded_betti,
    is_t_lex_ideal,
    is_t_ss_ideal,
    realize_extremal_betti,
    t_lex_ideal_of,
    t_ss_ideal,
)
from tspread import oracle

SETUP = (
    "import tspread as T; i = T.MonomialIdeal(T.Context(8, 2), ((1, 3), (1, 4, 6)));"
    " T.graded_betti(T.t_ss_ideal(i)); T.ft_vector(i)"
)

CASES = 9
GENS_MIN, GENS_MAX = 100, 450
COMPONENT_BAND = (2550, 3450)
# Cap on sum over corners of value * |degree-l slice on the corner's top
# index|, which bounds the Borel sets a realization builds.
REALIZE_WORK = 80000
PROBES = 20
# Draws of ``draw_case`` between two doublings of its tolerances.
RELAX_EVERY = 1000


def _realize_work(config, t):
    return sum(
        a * ref.veronese_card(k + t * (l - 1) + 1, t, l) for (k, l), a in zip(*config)
    )


def draw_case(rng, target, band=COMPONENT_BAND):
    """(n, t, raw, gens, sizes) with the closure's size and work in band.

    Spread 3 is fixed: at spread 2 these n rarely give a component size in
    the band.  Most cases land within a few hundred draws; every
    ``RELAX_EVERY`` draws the tolerances double, so that no seed can keep
    the draw going for long.
    """
    t = 3
    for tries in range(20 * RELAX_EVERY):
        slack = 2 ** (tries // RELAX_EVERY)
        n = rng.randint(18, 24)
        raw = [
            rand_monomial(rng, n, t, rng.randint(2, min(5, max_degree(n, t))))
            for _ in range(rng.randint(3, 6))
        ]
        # Borel sets too small cannot reach the target; large ones would make
        # this generator, not the library, set the peak memory of the run.
        if not 0.9 * target / slack <= sum(ref.borel_count(g, t) for g in raw) <= 4000:
            continue
        gens = ref.ss_closure_gens(raw, t)
        if abs(len(gens) - target) > 0.1 * slack * target:
            continue
        sizes = ref.ss_slice_sizes(gens, n, t)
        if not band[0] / slack <= sum(sizes) <= band[1] * slack:
            continue
        work = _realize_work(ref.corners(ref.betti_entries(gens, t)), t)
        if work <= REALIZE_WORK * slack:
            return n, t, raw, gens, sizes
    raise ValueError(f"no ideal near {target} generators")


def _lex_companion_ok(L, ft, n, t):
    gens = list(L.gens)
    return (
        ref.ss_closure_gens(gens, t) == gens
        and ref.ft_from_sizes(ref.ss_slice_sizes(gens, n, t), n, t) == ft
        and ref.ss_is_lex(gens, n, t)
    )


def _component(f, n, t):
    return {"component_size": sum(ref.veronese_card(n, t, j) - x for j, x in enumerate(f) if j)}


def _probe(rng, k, gens, gen_set, ft, n, t):
    """Membership probe k: even k a member, odd k a non-member.

    A generator scan costs its position in the list for members and the
    whole list for non-members, so members extend generators at evenly
    spaced positions.  A non-member has a random degree among those from 2
    to 7 that have non-members (``ft``), or degree 1 when the ideal holds
    every monomial of those degrees; it is the first non-member in lex
    order from a random monomial of that degree.
    """
    if k % 2 == 0:
        g = gens[(k * len(gens)) // PROBES]
        room = n - g[-1] - t + 1
        e = rng.randint(0, min(3, max_degree(room, t) if room > 0 else 0))
        tail = rand_monomial(rng, room, t, e) if e else ()
        return g + tuple(x + g[-1] + t - 1 for x in tail)
    degrees = [d for d in range(2, min(7, max_degree(n, t)) + 1) if ft[d]] or [1]
    d = rng.choice(degrees)
    card = ref.veronese_card(n, t, d)
    start = rng.randrange(card)
    for r in range(start, start + card):
        w = ref.lex_unrank(r % card, n, t, d)
        if not ref.ss_contains(gen_set, w):
            return w
    raise ValueError(f"no degree-{d} non-member")


def _draw_cases(seed):
    rng = rng_for("ideals-cases", seed)
    return [draw_case(rng, target) for target in log_targets(rng, CASES, GENS_MIN, GENS_MAX, 0.3)]


def _cases_from_child(seed):
    """``_draw_cases(seed)``, computed in a child interpreter.

    Rejection sampling churns through many short-lived tuples, which would
    leave the allocator holding memory in this process and make the draw,
    not the library, set the peak memory of the run.
    """
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, __file__, str(seed)], capture_output=True, check=True,
        env=child_env(root), timeout=60,
    ).stdout
    return [
        (n, t, [tuple(g) for g in raw], [tuple(g) for g in gens], sizes)
        for n, t, raw, gens, sizes in json.loads(out)
    ]


def _case_ops(rng, case):
    n, t, raw, gens, sizes = case
    ctx = Context(n, t)
    raw_min = ref.minimal_gens(raw)
    raw_ft = ref.ft_from_sizes(ref.slice_sizes(raw_min, n, t), n, t)
    ft = ref.ft_from_sizes(sizes, n, t)
    betti = ref.betti_entries(gens, t)
    config = ref.corners(betti)
    gen_set = set(gens)
    I = MonomialIdeal(ctx, tuple(raw))
    S = MonomialIdeal(ctx, tuple(gens))
    shuffled = list(gens)
    rng.shuffle(shuffled)
    small = n <= oracle.N_LIMIT

    def closure_ok(r):
        if list(r.gens) != gens:
            return False
        return not small or list(r.gens) == ref.minimal_gens(oracle.oracle_ss_closure(raw, ctx))

    def realized_ok(r):
        basics, R = r
        rg = list(R.gens)
        return (
            ref.ss_closure_gens(rg, t) == rg
            and ref.corners(ref.betti_entries(rg, t)) == config
            and set(basics) <= set(rg)
        )

    moves = {"probes": sum(ref.exchange_count(g, t) for g in gens)}
    raw_moves = {"probes": sum(ref.exchange_count(g, t) for g in raw_min)}
    ft_work = lambda r: _component(r, n, t)  # noqa: E731
    ops = [
        Op("core.MonomialIdeal", MonomialIdeal, (ctx, tuple(raw)),
           lambda r: list(r.gens) == raw_min, {"gens_in": len(raw)}),
        Op("core.MonomialIdeal", MonomialIdeal, (ctx, tuple(shuffled)),
           lambda r: list(r.gens) == gens, {"gens_in": len(gens)}),
        Op("construct.t_ss_ideal", t_ss_ideal, (I,), closure_ok,
           out_work=lambda r: {"gens_out": len(r.gens)}),
        Op("construct.is_t_ss_ideal", is_t_ss_ideal, (S,), lambda r: r is True, moves),
        Op("construct.is_t_ss_ideal", is_t_ss_ideal, (I,),
           lambda r: r is (raw_min == gens), raw_moves),
        Op("betti.graded_betti", graded_betti, (S,), lambda r: r.entries == betti),
        Op("betti.extremal_corners", extremal_corners, (S,),
           lambda r: (r.corners, r.values) == config),
        Op("kk.ft_vector", ft_vector, (S,), lambda r: r == ft, out_work=ft_work),
        Op("kk.ft_vector", ft_vector, (I,), lambda r: r == raw_ft, out_work=ft_work),
        Op("construct.is_t_lex_ideal", is_t_lex_ideal, (S,),
           lambda r: r is ref.ss_is_lex(gens, n, t)),
        Op("kk.t_lex_ideal_of", t_lex_ideal_of, (S,),
           lambda r: _lex_companion_ok(r, ft, n, t)),
        Op("construct.is_t_lex_ideal", is_t_lex_ideal, (I,),
           lambda r: r is (raw_min == gens and ref.ss_is_lex(gens, n, t))),
        Op("betti.realize_extremal_betti", realize_extremal_betti,
           (CornerConfig(*config), ctx), realized_ok),
    ]
    for k in range(PROBES):
        w = _probe(rng, k, gens, gen_set, ft, n, t)
        ops.append(Op("core.MonomialIdeal.contains", S.contains, (w,),
                      lambda r, w=w: r is ref.ss_contains(gen_set, w), {"probes": 1}))
    return ops


def build(seed):
    rng = rng_for("ideals", seed)
    ops = []
    for case in _cases_from_child(seed):
        ops += _case_ops(rng, case)
    rng.shuffle(ops)
    return ops


if __name__ == "__main__":
    print(json.dumps(_draw_cases(int(sys.argv[1]))))
