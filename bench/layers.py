"""Per-layer metrics of a traced run.

The layers are the modules of ``tspread``.  Every public function the
benchmark calls gets ``.calls`` and ``.busy_s``; work counters and the
ratios built on them follow.  All values are per pass of the workload's
operation list, and every workload reports every metric, with zeros for the
functions it does not call.
"""
from __future__ import annotations

from harness import list_wall_ns

FUNCS = [
    "core.is_t_spread",
    "core.MonomialIdeal",
    "core.MonomialIdeal.contains",
    "count.count_t_ss_mon",
    "count.count_t_lex_mon",
    "count.card_veronese",
    "count.count_terms_ss",
    "count.cq_operator",
    "construct.t_lex_mon",
    "construct.t_lex_seg",
    "construct.t_ss_mon",
    "construct.t_ss_seg",
    "construct.t_veronese",
    "construct.t_shadow_set",
    "construct.t_next_lex",
    "construct.is_t_lex_seg",
    "construct.is_t_ss_seg",
    "construct.is_t_ss_set",
    "construct.t_ss_ideal",
    "construct.is_t_ss_ideal",
    "construct.is_t_lex_ideal",
    "betti.graded_betti",
    "betti.extremal_corners",
    "betti.realize_extremal_betti",
    "kk.ft_vector",
    "kk.t_lex_ideal_of",
    "kk.is_ft_vector",
    "kk.t_macaulay_expansion",
]

CLI_SUBCOMMANDS = [
    "count-ss", "next-lex", "shadow", "lex-mon", "veronese", "cq", "macaulay",
    "is-ft", "lex-ideal", "realize-betti", "betti", "corners", "ft-vector",
    "ss-ideal", "is-lex-ideal", "ss-mon",
]

_CONSTRUCTIONS = ["t_lex_mon", "t_lex_seg", "t_ss_mon", "t_ss_seg", "t_veronese"]

# (metric, function, counter): the counter's total per pass.
COUNTERS = [
    ("count.count_t_ss_mon.terms", "count.count_t_ss_mon", "terms"),
    *[(f"construct.{f}.monomials_out", f"construct.{f}", "monomials_out") for f in _CONSTRUCTIONS],
    ("construct.t_shadow_set.monomials_out", "construct.t_shadow_set", "monomials_out"),
    ("core.MonomialIdeal.gens_in", "core.MonomialIdeal", "gens_in"),
    ("core.MonomialIdeal.contains.probes", "core.MonomialIdeal.contains", "probes"),
    ("construct.is_t_ss_ideal.probes", "construct.is_t_ss_ideal", "probes"),
    ("construct.t_ss_ideal.gens_out", "construct.t_ss_ideal", "gens_out"),
    ("kk.ft_vector.component_size", "kk.ft_vector", "component_size"),
]

# (metric, function, counter, unit, scale): busy time per unit of the counter.
RATES = [
    ("count.count_t_ss_mon.ns_per_term", "count.count_t_ss_mon", "terms", "ns", 1),
    ("count.count_t_lex_mon.ns_per_term", "count.count_t_lex_mon", "terms", "ns", 1),
    *[(f"construct.{f}.ns_per_monomial", f"construct.{f}", "monomials_out", "ns", 1)
      for f in _CONSTRUCTIONS],
    *[(f"construct.{f}.ns_per_monomial", f"construct.{f}", "monomials", "ns", 1)
      for f in ("is_t_lex_seg", "is_t_ss_seg", "is_t_ss_set")],
    ("core.is_t_spread.ns_per_call", "core.is_t_spread", "calls", "ns", 1),
    ("core.MonomialIdeal.us_per_gen", "core.MonomialIdeal", "gens_in", "us", 1e-3),
    ("core.MonomialIdeal.contains.ns_per_probe", "core.MonomialIdeal.contains", "probes", "ns", 1),
    ("construct.is_t_ss_ideal.ns_per_probe", "construct.is_t_ss_ideal", "probes", "ns", 1),
    ("kk.ft_vector.ns_per_component_monomial", "kk.ft_vector", "component_size", "ns", 1),
]


def catalogue():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    out = []
    for f in FUNCS:
        out += [(f"{f}.calls", "count", "lower"), (f"{f}.busy_s", "s", "lower")]
    out += [(name, "count", "lower") for name, _, _ in COUNTERS]
    out.append(("construct.t_shadow_set.unique_ratio", "ratio", "higher"))
    out += [(name, unit, "lower") for name, _, _, unit, _ in RATES]
    for sub in CLI_SUBCOMMANDS:
        out += [(f"cli.{sub}.wall_ms", "ms", "lower"), (f"cli.main.{sub}.busy_s", "s", "lower")]
    out += [
        ("cli.startup_ms", "ms", "lower"),
        ("cli.out_bytes", "B", "lower"),
        ("cli.guard.refusals", "count", "lower"),
        ("cli.guard.refusal_ms", "ms", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.busy_share", "ratio", "higher"),
    ]
    return out


def _per_pass(passes):
    """Trace slots summed over ``passes`` and divided by their number."""
    total = {}
    for p in passes:
        for name, slot in p.agg.items():
            into = total.setdefault(name, {})
            for k, v in slot.items():
                into[k] = into.get(k, 0) + v
    return {
        name: {k: v / len(passes) for k, v in slot.items()} for name, slot in total.items()
    }


def _ratio(num, den):
    return num / den if den else 0.0


def compute(m, cli_extra=None):
    """Every per-layer metric of a traced run, as {name: value}."""
    agg = _per_pass(m["traced"])
    slot = lambda f: agg.get(f, {})  # noqa: E731
    values = {}
    for f in FUNCS:
        values[f"{f}.calls"] = slot(f).get("calls", 0)
        values[f"{f}.busy_s"] = slot(f).get("busy_ns", 0) / 1e9
    for name, f, counter in COUNTERS:
        values[name] = slot(f).get(counter, 0)
    shadow = slot("construct.t_shadow_set")
    values["construct.t_shadow_set.unique_ratio"] = _ratio(
        shadow.get("monomials_out", 0), shadow.get("shadow_total", 0)
    )
    for name, f, counter, _, scale in RATES:
        values[name] = _ratio(slot(f).get("busy_ns", 0) * scale, slot(f).get(counter, 0))
    cli_extra = cli_extra or {}
    main_busy = cli_extra.get("main_busy", {})
    out_bytes = refusals = 0
    for sub in CLI_SUBCOMMANDS:
        s = slot(f"cli.{sub}")
        values[f"cli.{sub}.wall_ms"] = _ratio(s.get("busy_ns", 0) / 1e6, s.get("calls", 0))
        values[f"cli.main.{sub}.busy_s"] = main_busy.get(sub, 0.0)
        out_bytes += s.get("out_bytes", 0)
        refusals += s.get("refusals", 0)
    values["cli.startup_ms"] = cli_extra.get("startup_ms", 0.0)
    values["cli.out_bytes"] = out_bytes
    values["cli.guard.refusals"] = refusals
    values["cli.guard.refusal_ms"] = cli_extra.get("refusal_ms", 0.0)
    traced_wall = list_wall_ns(m["traced"])
    untraced_wall = list_wall_ns(m["timed"])
    values["trace.overhead_s"] = (traced_wall - untraced_wall) / 1e9
    busy = sum(s.get("busy_ns", 0) for s in agg.values())
    values["trace.busy_share"] = _ratio(busy, untraced_wall)
    return values
