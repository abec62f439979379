"""Workload ``cli``: one ``tspread`` process at a time.

The list holds the ten README examples, the six ideal subcommands fed
seeded ideals on stdin, two large renders to a pipe, and size-guard
refusals (two fixed, ten seeded near 2*10^5 counting terms).  Each
operation is a fresh interpreter running the console entry point, so
interpreter start, import, argument parsing, the guard's own prediction and
rendering are all inside its latency.  Outputs are checked against the
README values and the reference arithmetic, never against the library.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time

import ref
from gen import borel_with_size, log_targets, rng_for
from harness import Op, calibrate, call_capped, speed_scales
from tspread import oracle
from tspread.core import Context
from wl_ideals import draw_case

SETUP = "import tspread.cli"
ENTRY = "import sys; from tspread.cli import main; sys.exit(main())"
CAP_S = 20.0
# Seeded ideals and refusals.  With the renders and the fixed refusals the
# heavy operations make up about a quarter of the list, so the 90th
# percentile lands inside the seeded refusals rather than on the step
# between light and heavy operations; their counting cost still varies
# with the shape of the monomial, so there are enough of them to average
# over.
IDEALS = 5
REFUSALS = 10
REFUSAL = "pass --force to build it"


def run_cli(argv, data, env):
    """One ``tspread`` process; returns (exit code, stdout, stderr).

    No ``timeout=``: the operation's cap is a signal (see ``call_capped``),
    which interrupts the wait and makes ``subprocess.run`` kill the child.
    """
    p = subprocess.run(
        [sys.executable, "-c", ENTRY, *argv], input=data, capture_output=True, env=env
    )
    return p.returncode, p.stdout, p.stderr


def run_main(argv, data):
    """The same invocation in this process, stdin and stdout redirected."""
    from tspread.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(data.decode())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return main(list(argv))
            except SystemExit as exc:
                return exc.code
    finally:
        sys.stdin = saved


def fmt(m):
    return ",".join(map(str, m))


def _lines(out):
    return out.decode().splitlines()


def _parse(line):
    return tuple(int(x) for x in line.split(","))


def _ok_lines(expected):
    want = "".join(line + "\n" for line in expected).encode()
    return lambda r: r[0] == 0 and r[1] == want


def _listing_ok(count, n, t, d, last=None):
    def check(r):
        if r[0] != 0:
            return False
        ms = [_parse(line) for line in _lines(r[1])]
        return (
            len(ms) == count
            and ref.ascending_spread(ms, n, t, d)
            and (last is None or ms[-1] == last)
        )

    return check


def _gens_ok(r, n, t, want_ft=None, want_gens=None, lex=False):
    if r[0] != 0:
        return False
    gens = [_parse(line) for line in _lines(r[1])]
    if want_gens is not None:
        return gens == want_gens
    return (
        ref.ss_closure_gens(gens, t) == gens
        and ref.ft_from_sizes(ref.ss_slice_sizes(gens, n, t), n, t) == want_ft
        and (not lex or ref.ss_is_lex(gens, n, t))
    )


def _realized_ok(r, t, config):
    if r[0] != 0:
        return False
    text = _lines(r[1])
    cut = text.index("minimal generators:")
    basics = [_parse(line) for line in text[1:cut]]
    gens = [_parse(line) for line in text[cut + 1:]]
    return (
        text[0] == "basic monomials:"
        and ref.ss_closure_gens(gens, t) == gens
        and ref.corners(ref.betti_entries(gens, t)) == config
        and set(basics) <= set(gens)
    )


def _readme_cases():
    """The README examples with the values the README states."""
    c13 = Context(13, 2)
    shadow = sorted(oracle.oracle_shadow([(2, 5, 9, 14)], Context(16, 2)))
    lex_set = sorted(oracle.oracle_lex_set((2, 6, 10), Context(11, 3)))
    veronese = oracle.enumerate_veronese(3, Context(11, 3))
    assert len(oracle.oracle_borel_set((2, 5, 8, 11), c13)) == 42
    assert oracle.oracle_next_lex((4, 7, 10, 13), Context(13, 3)) is None
    assert len(shadow) == 4 and len(lex_set) == 21 and len(veronese) == 35
    assert not ref.is_ft([1, 12, 50, 20, 15], 12, 2)
    assert ref.growth_bound(50, 2, 1) == 130
    config = (((6, 2), (5, 4), (4, 5), (3, 7)), (2, 1, 3, 2))
    return [
        ("count-ss", ["--n", "13", "--t", "2", "2,5,8,11"], _ok_lines(["42"])),
        ("next-lex", ["--n", "13", "--t", "3", "4,7,10,13"], _ok_lines(["none"])),
        ("shadow", ["--n", "16", "--t", "2", "x_2*x_5*x_9*x_14"],
         _ok_lines([fmt(m) for m in shadow])),
        ("lex-mon", ["--n", "11", "--t", "3", "2,6,10", "--oracle"],
         _ok_lines([fmt(m) for m in lex_set] + ["oracle: agree"])),
        ("veronese", ["--n", "11", "--t", "3", "3"], _ok_lines([fmt(m) for m in veronese])),
        ("cq", ["6", "4", "2"], _ok_lines(["30"])),
        ("macaulay", ["--n", "12", "--t", "1", "50", "2", "--shift", "--solve"],
         _ok_lines(["130"])),
        ("is-ft", ["--n", "12", "--t", "2", "1,12,50,20,15"], _ok_lines(["false"])),
        ("lex-ideal", ["--n", "8", "--t", "2", "--f", "1,8,21,10,0"],
         lambda r: _gens_ok(r, 8, 2, [1, 8, 21, 10, 0], lex=True)
         and len(_lines(r[1])) == 11),
        ("realize-betti", ["--n", "25", "--t", "3", "6,2=2", "5,4=1", "4,5=3", "3,7=2"],
         lambda r: _realized_ok(r, 3, config)),
    ]


def _ideal_cases(rng):
    cases = []
    for _ in range(IDEALS):
        n, t, raw, gens, sizes = draw_case(rng, 60, band=(1000, 3000))
        ctx = ["--n", str(n), "--t", str(t)]
        ft = ref.ft_from_sizes(sizes, n, t)
        betti = ref.betti_entries(gens, t)
        config = ref.corners(betti)
        closed = "".join(fmt(g) + "\n" for g in gens).encode()
        opened = "".join(fmt(g) + "\n" for g in raw).encode()
        want_betti = {f"{i},{j}": v for (i, j), v in betti.items()}
        cases += [
            ("betti", ctx + ["--format", "json"], closed,
             lambda r, w=want_betti: r[0] == 0
             and json.loads(r[1])["result"]["entries"] == w),
            ("corners", ctx + ["--format", "json"], closed,
             lambda r, c=config: r[0] == 0 and json.loads(r[1])["result"]
             == {"corners": [list(p) for p in c[0]], "values": list(c[1])}),
            ("ft-vector", ctx, closed,
             _ok_lines(["{" + ", ".join(map(str, ft)) + "}"])),
            ("ss-ideal", ctx, opened,
             lambda r, n=n, t=t, g=gens: _gens_ok(r, n, t, want_gens=g)),
            ("lex-ideal", ctx, closed,
             lambda r, n=n, t=t, f=ft: _gens_ok(r, n, t, f, lex=True)),
            ("is-lex-ideal", ctx, closed,
             _ok_lines(["true" if ref.ss_is_lex(gens, n, t) else "false"])),
        ]
    return cases


def _refused(r):
    return r[0] == 1 and not r[1] and REFUSAL in r[2].decode()


def _seeded_refusal(rng, target):
    while True:
        n = rng.randint(60, 90)
        head = borel_with_size(rng, target, n, 2, 5, 0.05)
        if head is not None and head[-1] + 2 <= n:
            u = head + (n,)
            if ref.borel_count(u, 2) > 10**6:
                return ["--n", str(n), "--t", "2", fmt(u)]


def _heavy_cases(rng):
    lex_top = ref.lex_unrank(10**5 - 1, 30, 2, 6)
    cases = [
        ("veronese", ["--n", "30", "--t", "2", "5"], b"",
         _listing_ok(ref.veronese_card(30, 2, 5), 30, 2, 5)),
        ("lex-mon", ["--n", "30", "--t", "2", fmt(lex_top)], b"",
         _listing_ok(10**5, 30, 2, 6, last=lex_top)),
        ("ss-mon", ["--n", "90", "--t", "2", "9,22,40,55,72,89"], b"", _refused),
        ("lex-mon", ["--n", "200", "--t", "2", "100,120,140,160,180,200"], b"", _refused),
    ]
    for target in log_targets(rng, REFUSALS, 1.9 * 10**5, 2.1 * 10**5):
        cases.append(("ss-mon", _seeded_refusal(rng, target), b"", _refused))
    return cases


def build(seed, env):
    rng = rng_for("cli", seed)
    cases = [(name, argv, b"", check) for name, argv, check in _readme_cases()]
    cases += _ideal_cases(rng) + _heavy_cases(rng)
    ops = [
        Op(f"cli.{name}", run_cli, ([name, *argv], data, env), check,
           {"guard": 1} if check is _refused else {},
           out_work=lambda r: {"out_bytes": len(r[1]), "refusals": int(_refused(r))},
           cap=CAP_S)
        for name, argv, data, check in cases
    ]
    rng.shuffle(ops)
    return ops


def in_process(ops, deadline):
    """Seconds spent in ``tspread.cli.main`` per subcommand, one round of
    ``ops``, adjusted for host speed like every other time.

    Operations left when ``deadline`` (a ``time.monotonic`` value) passes
    are skipped.
    """
    spent, cal = [], []
    for op in ops:
        if time.monotonic() > deadline:
            break
        argv, data, _ = op.args
        try:
            _, ns = call_capped(run_main, (argv, data), op.cap)
        except Exception:  # a hung or crashing in-process run reports the cap
            ns = int(op.cap * 1e9)
        spent.append((argv[0], ns))
        cal.append(calibrate())
    busy = {}
    for (sub, ns), k in zip(spent, speed_scales(cal) if cal else []):
        busy[sub] = busy.get(sub, 0) + ns * k / 1e9
    return busy
