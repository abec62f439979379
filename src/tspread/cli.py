"""Command line front end.

Every library operation is exposed as a subcommand with stable text output
(one monomial per line, ``true``/``false`` for predicates, brace style for
vectors) or JSON via ``--format json``.  Monomials are written as
comma-separated indices, ``2,5,9,14``, or in the product form
``x_2*x_5*x_9*x_14``.  Ideals are read one monomial per line from a file or
stdin.

Each subcommand is one row of ``COMMANDS``; the parser and ``main`` are
both driven by that table alone.  ``main`` reads an argument list in the
table's plain grammar itself (``_parse``); argparse is imported only for
help, for the usage line of an input error and for anything else.

``--force`` lifts the size guards, which refuse output past ``FORCE_LIMIT``
monomials.  A listing (``construct._Walks``) is guarded by its walks' own
closed-form size, ``ss-ideal`` and ``shadow`` by upper bounds,
``realize-betti`` by a sure lower bound, and a command that only counts by
the digits of its count vector (``_ring``).

Exit status: 0 on success, 1 on domain errors (with the library's message on
stderr), 2 on usage errors.
"""
from __future__ import annotations

import os
import sys
from itertools import chain
from operator import mod

from . import betti, construct, core, count, kk, oracle
from .betti import CornerConfig, extremal_corners, graded_betti, realize_extremal_betti
from .construct import _TEMPLATES
from .core import Context, Monomial, MonomialIdeal, TSpreadError

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Callable, Iterable, NoReturn, Sequence

    # a boundary converter's ``fail``, and a renderer's (payload, lines)
    Fail = Callable[[str], NoReturn]
    Rendered = tuple[object, Iterable[str]]

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
    return _TEMPLATES[len(m)] % m


def brace_vector(values: Sequence[int]) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


# Boundary converters.  Each turns one parsed argument into the value its
# kernel takes, or ends the run through ``fail`` (the called command's
# parser's ``error``, exit status 2).  Kernels never see unconverted input.


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
        if source == "-":
            text = sys.stdin.read()
        else:
            from pathlib import Path  # here, not at the top: stdin needs no path

            text = Path(source).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        fail(f"cannot read ideal from {source!r}: {exc}")
    lines = [line for line in text.splitlines() if line.strip()]
    # parsed in one pass and validated once, by the ideal's batch check; the
    # lines are validated one by one only when that fails, so that the first
    # bad line ends the run with its own message
    try:
        return MonomialIdeal(ctx, map(parse_monomial, lines))
    except ValueError as exc:  # TSpreadError is one
        for line in lines:
            _monomial(line, ctx, fail)
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


class Arg:
    """A positional or flag: its argparse declaration and its converter.

    A plain slotted class: a ``NamedTuple`` costs every process about half
    a millisecond to create.  ``dest`` is its name in the parsed arguments.
    """

    __slots__ = ("name", "dest", "convert", "options", "unless")

    def __init__(
        self,
        name: str,
        convert: Callable[..., object] | None,  # None: argparse's value is final
        options: dict,
        unless: str | None = None,  # left unconverted (None) when this option is given
    ) -> None:
        self.name = name
        self.dest = name.lstrip("-")
        self.convert = convert
        self.options = options
        self.unless = unless


MONOMIAL = Arg("monomial", _monomial, {})
MONOMIALS = Arg(
    "monomials", lambda texts, ctx, fail: [_monomial(s, ctx, fail) for s in texts], {"nargs": "+"}
)
START = Arg("start", _monomial, {})
END = Arg("end", _monomial, {})
IDEAL = Arg("ideal", _ideal, {"nargs": "?", "default": "-"})


def _int(name: str) -> Arg:
    return Arg(name, None, {"type": int})


def _flag(name: str, help_: str) -> Arg:
    return Arg(name, None, {"action": "store_true", "help": help_})


# Renderers: the JSON payload and the text lines of one result.  Only one
# of the two is used, so neither should cost much before it is read.


def _monomial_list(monomials: Sequence[Monomial]) -> Rendered:
    # json writes tuples as lists, and the lines are formatted when written,
    # each by its degree's template (``format_monomial``) in one C-level pass
    return monomials, map(mod, map(_TEMPLATES.__getitem__, map(len, monomials)), monomials)


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
    return payload, chain(["basic monomials:"], basic_lines, ["minimal generators:"], gen_lines)


def _macaulay(a: int, d: int, shift: bool, solve: bool, ctx: Context) -> object:
    terms = kk.t_macaulay_expansion(a, d, ctx, shift=shift)
    return kk.solve_binomial_expansion(terms) if solve else terms


def _expansion(result: int | list[tuple[int, int]]) -> Rendered:
    if isinstance(result, int):  # --solve
        return _scalar(result)
    return [list(t) for t in result], ["{" + ", ".join("{%d,%d}" % t for t in result) + "}"]


def _refuse_past_limit(size: int) -> None:
    # a guard's refusal of more than FORCE_LIMIT monomials; past 10^4 bits
    # (about 3010 digits) a power of ten below the size names it, as
    # 0.30102 < log10(2)
    if size > FORCE_LIMIT:
        bits = size.bit_length()
        named = str(size) if bits <= 10**4 else f"at least 10^{(bits - 1) * 30102 // 10**5}"
        raise TSpreadError(f"output would hold {named} monomials; pass --force to build it")


def _ring(ideal: MonomialIdeal, ctx: Context) -> int:
    """Guard of a command that only counts: it lists no monomial, so 0 once
    the ideal passes the kernel's check, unless its count vector is too long.

    The vector has D + 1 entries, each counting the t-spread monomials of one
    degree, so each is below 2^n, of at most n log10(2) + 1 digits (0.30103 >
    log10 2).
    """
    core.require_t_spread_ideal(ideal)
    digits = (ctx.max_degree() + 1) * (ctx.n * 30103 // 10**5 + 1)
    if digits > FORCE_LIMIT:
        raise TSpreadError(
            f"the count vector would hold {digits} digits; pass --force to build it")
    return 0


def _closure_size(ideal: MonomialIdeal, ctx: Context) -> int:
    """An upper bound on the generators the closure emits.

    Each is in the strongly stable set of an input generator of its degree,
    so the sizes of those sets, counted without building them, bound it.
    """
    core.require_t_spread_ideal(ideal)
    return sum(count._ss_size(g, ctx.t) for g in ideal.gens)


def _shadow_size(ms: list[Monomial], ctx: Context) -> int:
    # an upper bound on the shadow set: the distinct members' own shadows,
    # b - a - 2t + 1 new indices in each gap (a, b) of (1 - t, *u, n + t)
    # (construct.t_shadow), those of degree d at most the whole degree-(d+1)
    # slice; a member the kernel refuses raises its error here
    w, sizes = 2 * ctx.t - 1, {}
    for u in set(ms):
        e = (1 - ctx.t, *core.require_t_spread(u, ctx), ctx.n + ctx.t)
        sizes[len(u)] = sizes.get(len(u), 0) + sum(max(0, b - a - w) for a, b in zip(e, e[1:]))
    return sum(min(size, count.card_veronese(d + 1, ctx)) for d, size in sizes.items())


def _silent(*_: object) -> None:
    """Oracle check of a command that is its own reference: no verdict."""


class Command:
    """One subcommand, called with the converted argument ``values``."""

    __slots__ = ("help", "args", "kernel", "render", "size", "oracle", "ring")

    def __init__(
        self,
        help: str,
        args: tuple[Arg, ...],
        kernel: Callable[..., object],  # (*values, ctx) -> result
        render: Callable[[object], Rendered],  # result -> (payload, lines)
        # (*values, ctx) -> monomials printed, a bound on them, or 0: the guard
        # before the kernel; a listing (construct._Walks) is guarded after it
        # by its own size
        size: Callable[..., int] | None = None,
        # (result, *values, ctx) -> agreement, or None for no verdict; a
        # command without one reports the cross-check as not available
        oracle: Callable[..., bool | None] | None = None,
        ring: bool = True,  # whether --n and --t are required
    ) -> None:
        self.help = help
        self.args = args
        self.kernel = kernel
        self.render = render
        self.size = size
        self.oracle = oracle
        self.ring = ring


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
        size=_shadow_size, oracle=lambda r, ms, ctx: set(r) == oracle.oracle_shadow(ms, ctx)),
    "next-lex": Command(
        "slex successor of a monomial, or 'none'", (MONOMIAL,), construct.t_next_lex,
        lambda s: (None, ["none"]) if s is None else (list(s), [format_monomial(s)]),
        oracle=lambda r, u, ctx: r == oracle.oracle_next_lex(u, ctx)),
    "lex-seg": Command(
        "lex segment between two monomials", (START, END), construct._lex_seg_walks, _monomial_list,
        oracle=lambda r, v, u, ctx:
            set(r) == {w for w in oracle.oracle_lex_set(u, ctx) if w >= v}),
    "lex-mon": Command(
        "smallest lex set containing a monomial", (MONOMIAL,), construct._lex_mon_walks,
        _monomial_list, oracle=lambda r, u, ctx: set(r) == oracle.oracle_lex_set(u, ctx)),
    "count-lex": Command(
        "size of the smallest lex set, without construction", (MONOMIAL,),
        count.count_t_lex_mon, _scalar,
        oracle=lambda r, u, ctx: r == len(oracle.oracle_lex_set(u, ctx))),
    "ss-seg": Command(
        "strongly stable segment between two monomials", (START, END),
        construct._ss_seg_walks, _monomial_list,
        oracle=lambda r, v, u, ctx:
            set(r) == {w for w in oracle.oracle_borel_set(u, ctx) if w >= v}),
    "ss-mon": Command(
        "smallest strongly stable set containing a monomial", (MONOMIAL,),
        construct._ss_mon_walks, _monomial_list,
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
        "all t-spread monomials of one degree", (_int("degree"),),
        construct._veronese_walks, _monomial_list,
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
        realize_extremal_betti, _realized,
        # a sure lower bound: each basic monomial prints as basic and as a
        # generator.  The kernel's top-index check runs first, and a corner
        # counts at most its candidates, the degree-(l - 1) slice on top - t
        # variables, so a value past them reaches the kernel's own error.
        size=lambda config, ctx: 2 * sum(
            min(a, 1 if l == 1 else count.card_veronese(l - 1, Context(top - ctx.t, ctx.t)))
            for (_, l), a, top in zip(
                config.corners, config.values, betti._corner_tops(config, ctx)))),
    "ft-vector": Command(
        "quotient counts of a t-spread ideal per degree", (IDEAL,),
        lambda ideal, ctx: kk.ft_vector(ideal), lambda vec: (vec, [brace_vector(vec)]),
        size=_ring),
    "macaulay": Command(
        "greedy binomial expansion of a value at a degree",
        (_int("value"), _int("degree"), _flag("--shift", "apply the growth-bound shift"),
         _flag("--solve", "print the summed value instead")),
        _macaulay, _expansion),
    "is-ft": Command(
        "whether a sequence is an admissible quotient count vector",
        (Arg("vector", _vector, {}),), kk.is_ft_vector, _bool),
    "lex-ideal": Command(
        "lex ideal from a quotient vector (--f) or sharing an ideal's",
        (Arg("--f", _vector, {"metavar": "VECTOR", "help": "quotient counts, e.g. 1,8,21,10,0"}),
         Arg("ideal", _ideal, IDEAL.options, unless="f")),
        lambda f, ideal, ctx:
            kk._walks_from_f(f, ctx) if ideal is None
            else kk._walks_of_counts(kk.ft_vector(ideal), ctx),
        _monomial_list, size=lambda f, ideal, ctx: 0 if ideal is None else _ring(ideal, ctx)),
    "is-lex-ideal": Command(
        "whether every degree slice is an initial lex segment", (IDEAL,),
        lambda ideal, ctx: construct.is_t_lex_ideal(ideal), _bool, size=_ring),
}


# Options every subcommand takes, ahead of its own arguments.
COMMON = (
    Arg("--n", None, {"type": int, "help": "number of variables (>= 1)"}),
    Arg("--t", None, {"type": int, "help": "spread parameter (>= 1)"}),
    Arg("--format", None, {"choices": ("text", "json"), "default": "text"}),
    _flag("--oracle", "cross-check against the brute-force oracle"),
    _flag("--force", "list beyond 10^6 monomials, or count vectors beyond 10^6 digits"),
)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser of every command, and the command parsers by name.

    Built only for help, for the usage line of an input error and for an
    argument list ``_parse`` leaves to it, so argparse is imported here.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="tspread",
        description="construction and counting for t-spread monomials and ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        command = sub.add_parser(name, help=row.help)
        for arg in COMMON + row.args:
            command.add_argument(arg.name, **arg.options)
    return parser, sub.choices


def _parse(argv: Sequence[str]) -> dict | None:
    """``vars()`` of the namespace argparse makes of ``argv``, read from the
    table alone, or None when ``argv`` lies outside the table's plain
    grammar: a command first, then option names exactly as declared, each
    value a token of its own, flags, and the positionals in one contiguous
    run, every value of its declared type and choices.

    Everything else is left to argparse, which stays the one authority on
    help and errors: ``-h``, ``--``, ``--name=value``, abbreviations, a
    value or positional that starts with ``-`` (but ``-`` itself), and any
    argument list argparse would refuse.  Only the last positional of a
    command takes more than one value, so the run is matched in order.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    declared = COMMON + COMMANDS[argv[0]].args
    options = {arg.name: arg for arg in declared if arg.name[0] == "-"}
    args: dict = {"command": argv[0]}
    for arg in declared:
        args[arg.dest] = arg.options.get("default", False if _is_flag(arg) else None)
    run: list[str] = []
    ended = False  # whether the run of positionals is over
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if token[:1] != "-" or token == "-":
                if ended:
                    return None
                run.append(token)
                continue
            arg = options.get(token)
            if arg is None:
                return None
            ended = bool(run)
            if _is_flag(arg):
                args[arg.dest] = True
                continue
            value = next(tokens, None)
            if value is None or value[:1] == "-" and value != "-":
                return None
            args[arg.dest] = _typed(arg, value)
        for arg in declared:
            if arg.name[0] == "-":
                continue
            if arg.options.get("nargs") == "+":
                if not run:
                    return None
                args[arg.dest], run = [_typed(arg, value) for value in run], []
            elif run:
                args[arg.dest] = _typed(arg, run.pop(0))
            elif arg.options.get("nargs") != "?":
                return None
    except ValueError:
        return None
    return None if run else args


def _is_flag(arg: Arg) -> bool:
    return arg.options.get("action") == "store_true"


def _typed(arg: Arg, value: str) -> object:
    # a value as argparse takes it, converted by its type and checked
    # against its choices; ValueError where argparse refuses it
    kind = arg.options.get("type")
    typed = value if kind is None else kind(value)
    if typed not in arg.options.get("choices", (typed,)):
        raise ValueError(value)
    return typed


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        args = vars(_build_parser()[0].parse_args(argv))
    name = args["command"]
    row = COMMANDS[name]

    def fail(message: str) -> NoReturn:
        # input errors past parsing show the usage of the command called
        _build_parser()[1][name].error(message)

    if row.ring and (args["n"] is None or args["t"] is None):
        fail(f"{name} requires --n and --t")
    try:
        ctx = Context(args["n"], args["t"]) if row.ring else None
    except TSpreadError as exc:
        fail(str(exc))
    values = []
    for arg in row.args:
        raw = args[arg.dest]
        if arg.unless is not None and args[arg.unless] is not None:
            raw = None
        elif arg.convert is not None and raw is not None:
            raw = arg.convert(raw, ctx, fail)
        values.append(raw)
    # results are exact integers of any size, but CPython (3.11 on) turns at
    # most 4300 digits into text unless told otherwise; inputs are parsed by then
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        status = _answer(args, row, values, ctx)
        sys.stdout.flush()  # so a reader that has left shows here, not at exit
    except BrokenPipeError:
        # the reader closed the pipe (``tspread ... | head -1``): send the
        # rest to devnull, as the Python docs' SIGPIPE note does, so that
        # the flush at exit cannot fail again, and exit 1 without a message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        set_limit(saved)
    return status


def _write(out: str) -> None:
    # In pieces a pipe takes whole or not at all (at most PIPE_BUF = 4096
    # bytes): an unbuffered stdout (python -u, PYTHONUNBUFFERED) hands each
    # write to the pipe as it is, and a larger one cut short by a reader
    # leaving would pass unnoticed instead of raising BrokenPipeError.
    # 1024 characters encode to at most 4096 bytes.
    write = sys.stdout.write
    for start in range(0, len(out), 1024):
        write(out[start:start + 1024])


def _answer(args: dict, row: Command, values: list, ctx: Context | None) -> int:
    """Guard, kernel, render and print for converted values; the exit status.

    A row's ``size`` guards its command before the kernel; a listing
    (``construct._Walks``) is guarded by its own size after the kernel's
    input checks, before any walk.  A listing printed as text without
    ``--oracle`` goes to stdout straight from its walks, a block at a time,
    so memory follows a block, not the output; otherwise it is built as
    tuples.
    """
    agrees = None
    blocks = None
    try:
        if row.size is not None and not args["force"]:
            _refuse_past_limit(row.size(*values, ctx))
        result = row.kernel(*values, ctx)
        if type(result) is construct._Walks:
            if not args["force"]:
                _refuse_past_limit(result.size())
            if args["format"] == "text" and not args["oracle"]:
                blocks = result.lines()
            else:
                result = result.members()
        if blocks is None:
            payload, lines = row.render(result)
            if args["oracle"] and row.oracle is None:
                print(f"oracle cross-check is not available for {args['command']}", file=sys.stderr)
            elif args["oracle"]:
                agrees = row.oracle(result, *values, ctx)
    except TSpreadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args["format"] == "json":
        import json  # here, not at the top: no other path needs it

        doc: dict = {"result": payload}
        if agrees is not None:
            doc["oracle_agrees"] = agrees
        print(json.dumps(doc))
    else:
        if blocks is None:
            text = [*lines]
            if agrees is not None:
                text.append("oracle: agree" if agrees else "oracle: MISMATCH")
            blocks = ["\n".join(text) + "\n"] if text else []
        for block in blocks:
            _write(block)
    if agrees is False:
        print("oracle cross-check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
