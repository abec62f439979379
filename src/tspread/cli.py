"""Command line front end.

Every library operation is exposed as a subcommand with stable text output
(one monomial per line, ``true``/``false`` for predicates, brace style for
vectors) or JSON via ``--format json``.  Monomials are written as
comma-separated indices, ``2,5,9,14``, or in the product form
``x_2*x_5*x_9*x_14``.  Ideals are read one monomial per line from a file or
stdin.

Each subcommand is one row of ``COMMANDS``; the parser and ``main`` are
both driven by that table alone.

Exit status: 0 on success, 1 on domain errors (with the library's message on
stderr), 2 on usage errors.
"""
from __future__ import annotations

import argparse
import sys
from math import prod
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence

from . import construct, core, count, kk, oracle
from .betti import CornerConfig, extremal_corners, graded_betti, realize_extremal_betti
from .core import Context, Monomial, MonomialIdeal, TSpreadError

FORCE_LIMIT = 10**6


def parse_monomial(text: str) -> Monomial:
    """Parse ``2,5,9`` or ``x_2*x_5*x_9`` into an index tuple."""
    s = text.strip()
    if "*" in s or s.lstrip().startswith("x"):
        parts = s.split("*")
        indices = [int(p.strip().removeprefix("x").removeprefix("_")) for p in parts]
    else:
        indices = [int(p) for p in s.split(",") if p.strip()]
    return tuple(indices)


def format_monomial(m: Monomial) -> str:
    return ",".join(str(i) for i in m) if m else "1"


def brace_vector(values: Sequence[int]) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


# Boundary converters.  Each turns one parsed argument into the value its
# kernel takes, or ends the run through ``fail`` (the parser's ``error``,
# exit status 2).  Kernels never see unconverted input.
Fail = Callable[[str], NoReturn]


def _monomial(text: str, ctx: Context, fail: Fail) -> Monomial:
    try:
        return core.validate_monomial(parse_monomial(text), ctx)
    except (ValueError, TSpreadError) as exc:
        fail(f"bad monomial {text!r}: {exc}")


def _vector(text: str, ctx: Context, fail: Fail) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        fail(f"bad vector {text!r}: {exc}")


def _ideal(source: str, ctx: Context, fail: Fail) -> MonomialIdeal:
    try:
        text = sys.stdin.read() if source == "-" else Path(source).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        fail(f"cannot read ideal from {source!r}: {exc}")
    gens = [_monomial(line, ctx, fail) for line in text.splitlines() if line.strip()]
    try:
        return MonomialIdeal(ctx, tuple(gens))
    except TSpreadError as exc:
        fail(f"bad ideal input: {exc}")


def _corners(specs: Sequence[str], ctx: Context, fail: Fail) -> CornerConfig:
    corners = []
    values = []
    for spec in specs:
        try:
            pos, _, val = spec.partition("=")
            k, l = (int(x) for x in pos.split(","))
            corners.append((k, l))
            values.append(int(val))
        except ValueError:
            fail(f"bad corner spec {spec!r}, expected k,l=value")
    try:
        return CornerConfig(tuple(corners), tuple(values))
    except TSpreadError as exc:
        fail(f"bad corner configuration: {exc}")


class Arg(NamedTuple):
    """A positional or flag: its argparse declaration and its converter."""

    name: str
    convert: Callable[..., object] | None  # None: argparse's value is final
    options: dict
    unless: str | None = None  # left unconverted (None) when this option is given


MONOMIAL = Arg("monomial", _monomial, {})
MONOMIALS = Arg(
    "monomials", lambda texts, ctx, fail: [_monomial(s, ctx, fail) for s in texts], {"nargs": "+"}
)
START = MONOMIAL._replace(name="start")
END = MONOMIAL._replace(name="end")
IDEAL = Arg("ideal", _ideal, {"nargs": "?", "default": "-"})
INT = Arg("value", None, {"type": int})


def _flag(name: str, help_: str) -> Arg:
    return Arg(name, None, {"action": "store_true", "help": help_})


# Renderers: the JSON payload and the text lines of one result.
Rendered = tuple[object, Iterable[str]]


def _monomial_list(monomials: Sequence[Monomial]) -> Rendered:
    return [list(m) for m in monomials], [format_monomial(m) for m in monomials]


def _scalar(value: int) -> Rendered:
    return value, [str(value)]


def _bool(value: bool) -> Rendered:
    return bool(value), ["true" if value else "false"]


def _corner_config(config: CornerConfig) -> Rendered:
    payload = {"corners": [list(c) for c in config.corners], "values": list(config.values)}
    positions = "{" + ", ".join(f"({k},{l})" for k, l in config.corners) + "}"
    return payload, [positions, brace_vector(config.values)]


def _realized(result: tuple[Sequence[Monomial], MonomialIdeal]) -> Rendered:
    basics, ideal = result
    (basic, basic_lines), (gens, gen_lines) = _monomial_list(basics), _monomial_list(ideal.gens)
    payload = {"basic": basic, "generators": gens}
    return payload, ["basic monomials:", *basic_lines, "minimal generators:", *gen_lines]


def _macaulay(a: int, d: int, shift: bool, solve: bool, ctx: Context) -> object:
    terms = kk.t_macaulay_expansion(a, d, ctx, shift=shift)
    return kk.solve_binomial_expansion(terms) if solve else terms


def _expansion(result: int | list[tuple[int, int]]) -> Rendered:
    if isinstance(result, int):  # --solve
        return _scalar(result)
    return [list(t) for t in result], ["{" + ", ".join("{%d,%d}" % t for t in result) + "}"]


def _slices_size(ideal: MonomialIdeal, ctx: Context) -> int:
    """Monomials in the degree slices from the lowest generator degree up.

    Slice j holds C(m, j) monomials, m = n - (j-1)(t-1) (``card_veronese``).
    The next slice, C(m - s, j+1) with s = t - 1, is this one times
    (m-j)(m-j-1)...(m-j-s) and divided by m(m-1)...(m-s+1) and by j+1, an
    exact division.  So one binomial, then about t small factors per
    slice, whatever the lowest degree.
    """
    core.require_t_spread_ideal(ideal)
    top = ctx.max_degree()
    low = min(ideal.degrees(), default=top + 1)
    s = ctx.t - 1
    total = size = count.card_veronese(low, ctx)
    for j in range(low, top):
        m = ctx.n - (j - 1) * s
        size *= prod(range(m - j - s, m - j + 1))
        size //= prod(range(m - s + 1, m + 1)) * (j + 1)
        total += size
    return total


def _closure_size(ideal: MonomialIdeal, ctx: Context) -> int:
    """Monomials the closure walk visits: each generator's strongly stable set."""
    core.require_t_spread_ideal(ideal)
    return sum(count.count_t_ss_mon(g, ctx) for g in ideal.gens)


def _lex_ideal_size(f: list[int] | None, ideal: MonomialIdeal | None, ctx: Context) -> int:
    if f is None:
        return _slices_size(ideal, ctx)
    # an admissible f builds one initial segment per degree and one past its end
    segments = sum(count.card_veronese(j, ctx) - x for j, x in enumerate(f + [0]) if j)
    return segments if kk.is_ft_vector(f, ctx) else 0


def _silent(*_: object) -> None:
    """Oracle check of a command that is its own reference: no verdict."""


class Command(NamedTuple):
    """One subcommand, called with the converted argument ``values``."""

    help: str
    args: tuple[Arg, ...]
    kernel: Callable[..., object]  # (*values, ctx) -> result
    render: Callable[[object], Rendered]  # result -> (payload, lines)
    size: Callable[..., int] | None = None  # (*values, ctx) -> monomials to build
    # (result, *values, ctx) -> agreement, or None for no verdict; a command
    # without one reports the cross-check as not available
    oracle: Callable[..., bool | None] | None = None
    ring: bool = True  # whether --n and --t are required


COMMANDS: dict[str, Command] = {
    "check": Command(
        "whether the given monomials are all t-spread", (MONOMIALS,),
        lambda ms, ctx: all(core._gaps_at_least(m, ctx.t) for m in ms), _bool, oracle=_silent),
    "sieve": Command(
        "keep only the t-spread monomials of the list", (MONOMIALS,),
        lambda ms, ctx: [m for m in ms if core._gaps_at_least(m, ctx.t)], _monomial_list,
        oracle=_silent),
    "shadow": Command(
        "t-shadow of the given monomials", (MONOMIALS,), construct.t_shadow_set, _monomial_list,
        oracle=lambda r, ms, ctx: set(r) == oracle.oracle_shadow(ms, ctx)),
    "next-lex": Command(
        "slex successor of a monomial, or 'none'", (MONOMIAL,), construct.t_next_lex,
        lambda s: (None, ["none"]) if s is None else (list(s), [format_monomial(s)]),
        oracle=lambda r, u, ctx: r == oracle.oracle_next_lex(u, ctx)),
    "lex-seg": Command(
        "lex segment between two monomials", (START, END), construct.t_lex_seg, _monomial_list,
        size=lambda v, u, ctx: count.count_t_lex_mon(u, ctx) - count.count_t_lex_mon(v, ctx) + 1,
        oracle=lambda r, v, u, ctx:
            set(r) == {w for w in oracle.oracle_lex_set(u, ctx) if w >= v}),
    "lex-mon": Command(
        "smallest lex set containing a monomial", (MONOMIAL,), construct.t_lex_mon, _monomial_list,
        size=count.count_t_lex_mon,
        oracle=lambda r, u, ctx: set(r) == oracle.oracle_lex_set(u, ctx)),
    "count-lex": Command(
        "size of the smallest lex set, without construction", (MONOMIAL,),
        count.count_t_lex_mon, _scalar,
        oracle=lambda r, u, ctx: r == len(oracle.oracle_lex_set(u, ctx))),
    "ss-seg": Command(
        "strongly stable segment between two monomials", (START, END),
        construct.t_ss_seg, _monomial_list, size=lambda v, u, ctx: count.count_t_ss_mon(u, ctx),
        oracle=lambda r, v, u, ctx:
            set(r) == {w for w in oracle.oracle_borel_set(u, ctx) if w >= v}),
    "ss-mon": Command(
        "smallest strongly stable set containing a monomial", (MONOMIAL,),
        construct.t_ss_mon, _monomial_list, size=count.count_t_ss_mon,
        oracle=lambda r, u, ctx: set(r) == oracle.oracle_borel_set(u, ctx)),
    "count-ss": Command(
        "size of the smallest strongly stable set", (MONOMIAL,), count.count_t_ss_mon, _scalar,
        oracle=lambda r, u, ctx: r == len(oracle.oracle_borel_set(u, ctx))),
    "cq": Command(
        "evaluate the nested sum operator on nonincreasing integers",
        (Arg("args", None, {"type": int, "nargs": "+"}),),
        lambda a, ctx: count.cq_operator(a), _scalar, oracle=_silent, ring=False),
    "ss-ideal": Command(
        "smallest strongly stable ideal containing the input ideal", (IDEAL,),
        lambda ideal, ctx: construct.t_ss_ideal(ideal).gens, _monomial_list,
        size=_closure_size),
    "veronese": Command(
        "all t-spread monomials of one degree", (INT._replace(name="degree"),),
        construct.t_veronese, _monomial_list, size=count.card_veronese,
        oracle=lambda r, d, ctx: r == oracle.enumerate_veronese(d, ctx)),
    "betti": Command(
        "Betti table of a strongly stable ideal", (IDEAL,), lambda ideal, ctx: graded_betti(ideal),
        lambda table: (table.to_json_dict(), table.to_grid().splitlines())),
    "corners": Command(
        "extremal corner positions and values", (IDEAL,),
        lambda ideal, ctx: extremal_corners(ideal), _corner_config),
    "realize-betti": Command(
        "smallest ideal with prescribed corners, given as k,l=value",
        (Arg("corners", _corners, {"nargs": "+", "metavar": "K,L=A"}),),
        realize_extremal_betti, _realized),
    "ft-vector": Command(
        "quotient counts of a t-spread ideal per degree", (IDEAL,),
        lambda ideal, ctx: kk.ft_vector(ideal), lambda vec: (vec, [brace_vector(vec)]),
        size=_slices_size),
    "macaulay": Command(
        "greedy binomial expansion of a value at a degree",
        (INT, INT._replace(name="degree"), _flag("--shift", "apply the growth-bound shift"),
         _flag("--solve", "print the summed value instead")),
        _macaulay, _expansion),
    "is-ft": Command(
        "whether a sequence is an admissible quotient count vector",
        (Arg("vector", _vector, {}),), kk.is_ft_vector, _bool),
    "lex-ideal": Command(
        "lex ideal from a quotient vector (--f) or sharing an ideal's",
        (Arg("--f", _vector, {"metavar": "VECTOR", "help": "quotient counts, e.g. 1,8,21,10,0"}),
         IDEAL._replace(unless="f")),
        lambda f, ideal, ctx: (
            kk.t_lex_ideal_of(ideal) if f is None else kk.t_lex_ideal_from_f(f, ctx)).gens,
        _monomial_list, size=_lex_ideal_size),
    "is-lex-ideal": Command(
        "whether every degree slice is an initial lex segment", (IDEAL,),
        lambda ideal, ctx: construct.is_t_lex_ideal(ideal), _bool, size=_slices_size),
}


# Options every subcommand takes, ahead of its own arguments.
COMMON = (
    Arg("--n", None, {"type": int, "help": "number of variables (>= 1)"}),
    Arg("--t", None, {"type": int, "help": "spread parameter (>= 1)"}),
    Arg("--format", None, {"choices": ("text", "json"), "default": "text"}),
    _flag("--oracle", "cross-check against the brute-force oracle"),
    _flag("--force", "allow constructions beyond 10^6 monomials"),
)


def _add_arguments(parser: argparse.ArgumentParser, row: Command) -> argparse.ArgumentParser:
    for arg in COMMON + row.args:
        parser.add_argument(arg.name, **arg.options)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tspread",
        description="construction and counting for t-spread monomials and ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=row.help), row)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """What ``_build_parser().parse_args(argv)`` returns, usually without it.

    Building all the commands' parsers takes longer than most commands run,
    so a call naming a known command is parsed by that command's parser
    alone: the one the full parser would hand the rest of ``argv`` to, under
    the same ``prog``, so with the same namespace, help and errors.  Left
    over arguments are the full parser's error, printed with its usage, so
    they go to the full parser, as do ``-h``, no arguments and unknown
    commands.
    """
    row = COMMANDS.get(argv[0]) if argv else None
    if row is not None:
        parser = _add_arguments(argparse.ArgumentParser(prog=f"tspread {argv[0]}"), row)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def _fail(message: str) -> NoReturn:
    """A usage error after parsing: the full parser's usage, exit status 2."""
    _build_parser().error(message)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    row = COMMANDS[args.command]
    if row.ring and (args.n is None or args.t is None):
        _fail(f"{args.command} requires --n and --t")
    try:
        ctx = Context(args.n, args.t) if row.ring else None
    except TSpreadError as exc:
        _fail(str(exc))
    values = []
    for arg in row.args:
        raw = getattr(args, arg.name.lstrip("-"))
        if arg.unless is not None and getattr(args, arg.unless) is not None:
            raw = None
        elif arg.convert is not None and raw is not None:
            raw = arg.convert(raw, ctx, _fail)
        values.append(raw)
    # results are exact integers of any size, but CPython (3.11 on) turns at
    # most 4300 digits into text unless told otherwise; inputs are parsed by then
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        return _answer(args, row, values, ctx)
    finally:
        set_limit(saved)


def _answer(args: argparse.Namespace, row: Command, values: list, ctx: Context | None) -> int:
    """Guard, kernel, render and print for converted values; the exit status."""
    agrees = None
    try:
        if row.size is not None and not args.force:
            predicted = row.size(*values, ctx)
            if predicted > FORCE_LIMIT:
                bits = predicted.bit_length()
                # past 10^4 bits (about 3010 digits) a power of ten below the
                # size names it; 0.30102 < log10(2)
                size = (
                    str(predicted) if bits <= 10**4
                    else f"at least 10^{(bits - 1) * 30102 // 10**5}"
                )
                raise TSpreadError(f"output would hold {size} monomials; pass --force to build it")
        result = row.kernel(*values, ctx)
        payload, lines = row.render(result)
        if args.oracle and row.oracle is None:
            print(f"oracle cross-check is not available for {args.command}", file=sys.stderr)
        elif args.oracle:
            agrees = row.oracle(result, *values, ctx)
    except TSpreadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.format == "json":
        import json  # here, not at the top: no other path needs it

        doc: dict = {"result": payload}
        if agrees is not None:
            doc["oracle_agrees"] = agrees
        print(json.dumps(doc))
    else:
        for line in lines:
            print(line)
        if agrees is not None:
            print("oracle: agree" if agrees else "oracle: MISMATCH")
    if agrees is False:
        print("oracle cross-check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
