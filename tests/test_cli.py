import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CLOSURE_RINGS,
    KK_FT,
    KK_IDEAL_GENS,
    KK_LEX_GENS,
    REALIZE_GENERATORS,
    small_closures,
)
import tspread
from tspread import cli, construct, core, kk
from tspread.betti import CornerConfig, extremal_corners
from tspread.cli import (
    COMMANDS,
    FORCE_LIMIT,
    _build_parser,
    _closure_size,
    _ring,
    format_monomial,
    main,
    parse_monomial,
)
from tspread.core import Context, MonomialIdeal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# C(20000, 4000), 4345 digits: past the 4300 that CPython (3.11 on) turns
# into text by default
HUGE_COUNT = ["count-lex", "--n", "20000", "--t", "1", ",".join(map(str, range(16001, 20001)))]

# the refusal of a count vector at n = 20 000, t = 1: 20 001 entries of at
# most 6 021 digits
LONG_VECTOR = "the count vector would hold 120426021 digits; pass --force to build it"


def decimal_text(value):
    """``str(value)`` whatever the interpreter's digit limit."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        return str(value)
    finally:
        set_limit(saved)


def write_ideal(path, gens):
    path.write_text("".join(",".join(map(str, g)) + "\n" for g in gens))
    return str(path)


class TestParsing:
    def test_comma_form(self):
        assert parse_monomial("2,5,9,14") == (2, 5, 9, 14)

    def test_product_form(self):
        assert parse_monomial("x_2*x_5*x_9*x_14") == (2, 5, 9, 14)

    def test_bare_product_form(self):
        assert parse_monomial("x2*x5") == (2, 5)


class TestSpecExamples:
    def test_count_ss(self, capsys):
        code, out, _ = run(capsys, "count-ss", "--n", "13", "--t", "2", "2,5,8,11")
        assert code == 0 and out.strip() == "42"

    def test_next_lex_none_is_success(self, capsys):
        code, out, _ = run(capsys, "next-lex", "--n", "13", "--t", "3", "4,7,10,13")
        assert code == 0 and out.strip() == "none"

    def test_is_ft_false(self, capsys):
        code, out, _ = run(capsys, "is-ft", "--n", "12", "--t", "2", "1,12,50,20,15")
        assert code == 0 and out.strip() == "false"


class TestSubcommands:
    def test_check_and_sieve(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "14", "--t", "3", "3,7,10,14")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(
            capsys, "sieve", "--n", "14", "--t", "4", "3,7,10,14", "1,5,9,13"
        )
        assert code == 0 and out.strip() == "1,5,9,13"

    def test_shadow(self, capsys):
        code, out, _ = run(capsys, "shadow", "--n", "16", "--t", "2", "2,5,9,14")
        assert code == 0
        assert out.splitlines() == ["2,5,7,9,14", "2,5,9,11,14", "2,5,9,12,14", "2,5,9,14,16"]

    def test_next_lex_value(self, capsys):
        code, out, _ = run(capsys, "next-lex", "--n", "13", "--t", "3", "2,6,10,13")
        assert code == 0 and out.strip() == "2,7,10,13"

    def test_lex_seg_and_mon(self, capsys):
        code, out, _ = run(capsys, "lex-seg", "--n", "11", "--t", "3", "1,4,7", "2,6,10")
        assert code == 0 and len(out.splitlines()) == 21
        code, out2, _ = run(capsys, "lex-mon", "--n", "11", "--t", "3", "2,6,10")
        assert code == 0 and out2 == out

    def test_count_lex(self, capsys):
        code, out, _ = run(capsys, "count-lex", "--n", "11", "--t", "3", "2,6,10")
        assert code == 0 and out.strip() == "21"

    def test_count_past_the_digit_limit(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert run(capsys, *HUGE_COUNT) == (0, decimal_text(comb(20000, 4000)) + "\n", "")
        # lifted for the run only
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_ss_seg(self, capsys):
        code, out, _ = run(capsys, "ss-seg", "--n", "9", "--t", "2", "1,5,7", "2,5,8")
        assert code == 0
        assert out.splitlines() == [
            "1,5,7", "1,5,8", "2,4,6", "2,4,7", "2,4,8", "2,5,7", "2,5,8",
        ]

    def test_ss_mon(self, capsys):
        code, out, _ = run(capsys, "ss-mon", "--n", "13", "--t", "2", "2,5,8,11")
        assert code == 0 and len(out.splitlines()) == 42

    def test_cq(self, capsys):
        code, out, _ = run(capsys, "cq", "6", "4", "2")
        assert code == 0 and out.strip() == "30"

    def test_cq_large_arguments(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "cq", "100000", "100000", "100000")
        assert time.perf_counter() - start < 1.0
        # equal arguments: multisets of three partial sums below 10^5
        assert code == 0 and out.strip() == str(comb(100002, 3))

    def test_veronese(self, capsys):
        code, out, _ = run(capsys, "veronese", "--n", "11", "--t", "3", "3")
        assert code == 0 and len(out.splitlines()) == 35

    def test_ss_ideal(self, capsys, tmp_path):
        path = write_ideal(tmp_path / "basics.txt", [(1, 4), (2, 5)])
        code, out, _ = run(capsys, "ss-ideal", "--n", "9", "--t", "2", path)
        assert code == 0
        assert out.splitlines() == ["1,3", "1,4", "1,5", "2,4", "2,5"]

    def test_betti_grid(self, capsys, tmp_path):
        path = write_ideal(tmp_path / "ideal.txt", REALIZE_GENERATORS)
        code, out, _ = run(capsys, "betti", "--n", "25", "--t", "3", path)
        assert code == 0
        assert out.splitlines()[1].split() == [
            "total", ":", "23", "77", "117", "100", "51", "15", "2",
        ]

    def test_corners(self, capsys, tmp_path):
        path = write_ideal(tmp_path / "ideal.txt", REALIZE_GENERATORS)
        code, out, _ = run(capsys, "corners", "--n", "25", "--t", "3", path)
        assert code == 0
        assert out.splitlines() == ["{(6,2), (5,4), (4,5), (3,7)}", "{2, 1, 3, 2}"]

    def test_realize_betti(self, capsys):
        code, out, _ = run(
            capsys, "realize-betti", "--n", "25", "--t", "3",
            "6,2=2", "5,4=1", "4,5=3", "3,7=2",
        )
        assert code == 0
        lines = out.splitlines()
        split = lines.index("minimal generators:")
        assert lines[0] == "basic monomials:"
        assert len(lines[1:split]) == 8
        assert len(lines[split + 1:]) == 23

    def test_ft_vector_brace_style(self, capsys, tmp_path):
        path = write_ideal(tmp_path / "ideal.txt", KK_IDEAL_GENS)
        code, out, _ = run(capsys, "ft-vector", "--n", "8", "--t", "2", path)
        assert code == 0 and out.strip() == "{1, 8, 21, 10, 0}"

    def test_macaulay(self, capsys):
        code, out, _ = run(capsys, "macaulay", "--n", "12", "--t", "1", "12", "1", "--shift")
        assert code == 0 and out.strip() == "{{12,2}}"
        code, out, _ = run(
            capsys, "macaulay", "--n", "12", "--t", "1", "12", "1", "--shift", "--solve"
        )
        assert code == 0 and out.strip() == "66"

    def test_is_ft_true(self, capsys):
        code, out, _ = run(capsys, "is-ft", "--n", "12", "--t", "1", "1,12,50,20,15")
        assert code == 0 and out.strip() == "true"

    def test_lex_ideal_from_vector(self, capsys):
        code, out, _ = run(capsys, "lex-ideal", "--n", "8", "--t", "2", "--f", "1,8,21,10,0")
        assert code == 0
        assert [parse_monomial(s) for s in out.splitlines()] == list(KK_LEX_GENS)

    def test_lex_ideal_of_ideal(self, capsys, tmp_path):
        path = write_ideal(tmp_path / "ideal.txt", KK_IDEAL_GENS)
        code, out, _ = run(capsys, "lex-ideal", "--n", "8", "--t", "2", path)
        assert code == 0 and len(out.splitlines()) == 11

    def test_is_lex_ideal(self, capsys, tmp_path):
        path = write_ideal(tmp_path / "ideal.txt", KK_IDEAL_GENS)
        code, out, _ = run(capsys, "is-lex-ideal", "--n", "8", "--t", "2", path)
        assert code == 0 and out.strip() == "false"

    def test_ideal_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1,3,5\n2,4,6\n"))
        code, out, _ = run(capsys, "is-lex-ideal", "--n", "8", "--t", "2")
        assert code == 0 and out.strip() in ("true", "false")


class TestJsonOutput:
    def test_monomials_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "shadow", "--n", "16", "--t", "2", "2,5,9,14", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        monomials = [tuple(m) for m in doc["result"]]
        assert monomials == [(2, 5, 7, 9, 14), (2, 5, 9, 11, 14), (2, 5, 9, 12, 14), (2, 5, 9, 14, 16)]
        # reparse through the CLI's own text form
        assert [parse_monomial(",".join(map(str, m))) for m in monomials] == monomials

    def test_count_json(self, capsys):
        code, out, _ = run(
            capsys, "count-ss", "--n", "13", "--t", "2", "2,5,8,11", "--format", "json"
        )
        assert code == 0 and json.loads(out) == {"result": 42}

    def test_none_json(self, capsys):
        code, out, _ = run(
            capsys, "next-lex", "--n", "13", "--t", "3", "4,7,10,13", "--format", "json"
        )
        assert code == 0 and json.loads(out) == {"result": None}

    def test_betti_json(self, capsys, tmp_path):
        from tspread.betti import BettiTable, graded_betti
        from conftest import realize_ideal

        path = write_ideal(tmp_path / "ideal.txt", REALIZE_GENERATORS)
        code, out, _ = run(capsys, "betti", "--n", "25", "--t", "3", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert BettiTable.from_json_dict(doc["result"]) == graded_betti(realize_ideal())

    def test_ft_vector_json(self, capsys, tmp_path):
        path = write_ideal(tmp_path / "ideal.txt", KK_IDEAL_GENS)
        code, out, _ = run(capsys, "ft-vector", "--n", "8", "--t", "2", path, "--format", "json")
        assert code == 0 and json.loads(out) == {"result": KK_FT}


class TestOracleFlag:
    def test_agreement_line(self, capsys):
        code, out, _ = run(capsys, "count-ss", "--n", "13", "--t", "2", "2,5,8,11", "--oracle")
        assert code == 0
        assert out.splitlines() == ["42", "oracle: agree"]

    def test_agreement_json(self, capsys):
        code, out, _ = run(
            capsys, "lex-mon", "--n", "11", "--t", "3", "2,6,10", "--oracle", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle_agrees"] is True and len(doc["result"]) == 21


class TestErrors:
    def test_domain_error_exit_one(self, capsys):
        code, out, err = run(capsys, "shadow", "--n", "9", "--t", "2", "1,2")
        assert code == 1 and "expected a t-spread monomial" in err

    def test_invalid_ft_error_exit_one(self, capsys):
        code, _, err = run(capsys, "lex-ideal", "--n", "12", "--t", "2", "--f", "1,12,50,20,15")
        assert code == 1 and "expected a valid ft-vector" in err

    def test_borel_error_exit_one(self, capsys):
        code, _, err = run(capsys, "ss-seg", "--n", "11", "--t", "2", "1,5,7", "2,4,8")
        assert code == 1 and "Borel" in err

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["count-ss", "2,5,8,11"])  # missing --n/--t
        assert excinfo.value.code == 2

    def test_bad_monomial_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["count-ss", "--n", "9", "--t", "2", "5,2"])
        assert excinfo.value.code == 2

    def test_large_output_needs_force(self, capsys):
        code, _, err = run(capsys, "veronese", "--n", "40", "--t", "1", "20")
        assert code == 1 and "--force" in err

    def test_segment_guard_counts_the_segment(self, capsys):
        # the end's whole Borel set holds 89 465 331 monomials, the segment 2
        ring = ["ss-seg", "--n", "90", "--t", "2"]
        end = "9,22,40,55,72,89"
        start = time.perf_counter()
        assert run(capsys, *ring, "9,22,40,55,72,88", end) == (
            0, "9,22,40,55,72,88\n9,22,40,55,72,89\n", "")
        assert run(capsys, *ring, "1,3,5,7,9,11", end) == (
            1, "", "error: output would hold 89465331 monomials; pass --force to build it\n")
        assert run(capsys, *ring, "1,2,5,7,9,11", end) == (
            1, "", "error: expected a t-spread monomial\n")
        assert time.perf_counter() - start < 1.0

    def test_segment_ends_are_checked_once(self, capsys, monkeypatch):
        # the kernel's walks are the guard, so each call checks the endpoints
        # once: answered, refused, refused as not t-spread, or forced
        ends = construct._ss_seg_ends
        calls = []
        monkeypatch.setattr(construct, "_ss_seg_ends", lambda *a: calls.append(a) or ends(*a))
        ring = ["ss-seg", "--n", "90", "--t", "2"]
        end = "9,22,40,55,72,89"
        for argv in (["9,22,40,55,72,88", end], ["1,3,5,7,9,11", end], ["1,2,5,7,9,11", end],
                     ["9,22,40,55,72,88", end, "--force"]):
            calls.clear()
            code, _, _ = run(capsys, *ring, *argv)
            assert len(calls) == 1, (argv, code)

    def test_shadow_guard_is_immediate(self, capsys):
        # the shadow of x_1 at n = 2 000 000: 1 999 999 monomials, refused;
        # a member that is not t-spread gets the kernel's error instead
        start = time.perf_counter()
        assert run(capsys, "shadow", "--n", "2000000", "--t", "1", "1") == (
            1, "", "error: output would hold 1999999 monomials; pass --force to build it\n")
        assert run(capsys, "shadow", "--n", "2000000", "--t", "2", "1", "1,2") == (
            1, "", "error: expected a t-spread monomial\n")
        # each member's own shadow is counted from its gaps, so at large t
        # an empty shadow is answered, not refused
        packed = ",".join(str(1 + k * 10**5) for k in range(10))
        assert run(capsys, "shadow", "--n", str(10**6), "--t", str(10**5), packed) == (0, "", "")
        assert time.perf_counter() - start < 1.0

    def test_shadow_guard_bounds_the_shadow(self):
        # exact for one member and for a whole slice, an upper bound for
        # several members
        rng = random.Random(2801)
        for _ in range(200):
            ctx = Context(rng.randint(1, 14), rng.randint(1, 4))
            d = rng.randint(0, ctx.max_degree())
            ms = [rng.choice(construct.t_veronese(rng.randint(0, ctx.max_degree()), ctx))
                  for _ in range(rng.randint(1, 4))]
            shadow = construct.t_shadow_set(ms, ctx)
            assert cli._shadow_size(ms, ctx) >= len(shadow), (ctx, ms)
            assert cli._shadow_size(ms[:1], ctx) == len(construct.t_shadow(ms[0], ctx)), (ctx, ms)
            whole = construct.t_veronese(d, ctx)
            assert cli._shadow_size(whole, ctx) == len(construct.t_shadow_set(whole, ctx)), (ctx, d)

    def test_realized_guard_is_immediate(self, capsys):
        # each basic monomial prints twice, as basic and as a generator:
        # 2 * 10^6 lines at least, refused before any walk
        start = time.perf_counter()
        assert run(capsys, "realize-betti", "--n", "60", "--t", "1", "30,30=1000000") == (
            1, "", "error: output would hold 2000000 monomials; pass --force to build it\n")
        assert time.perf_counter() - start < 1.0
        # the bound holds: the README configuration's 8 basic monomials
        code, out, _ = run(capsys, "realize-betti", "--n", "25", "--t", "3",
                           "6,2=2", "5,4=1", "4,5=3", "3,7=2")
        assert code == 0 and len(out.splitlines()) - 2 >= 2 * 8

    def test_realized_guard_leaves_infeasible_corners_to_the_kernel(self, capsys):
        # a top index past n and a value past the corner's candidates get the
        # kernel's own messages, at once, not a size refusal
        start = time.perf_counter()
        assert run(capsys, "realize-betti", "--n", "60", "--t", "1", "30,70=1000000") == (
            1, "", "error: corner (30,70) needs variable index 100, beyond n=60\n")
        assert run(capsys, "realize-betti", "--n", "25", "--t", "3", "6,2=1000000") == (
            1, "", "error: corner (6,2) admits only 7 free monomials, cannot reach value 1000000\n")
        assert time.perf_counter() - start < 1.0
        # the guard counts each corner at most its candidates: exact when it
        # asks for all of them, (1,3) and (2,3) with top index 3 here
        assert COMMANDS["realize-betti"].size(CornerConfig(((1, 2),), (5,)), Context(9, 1)) == 4
        assert run(capsys, "realize-betti", "--n", "9", "--t", "1", "1,2=2") == (
            0, "basic monomials:\n1,3\n2,3\nminimal generators:\n1,2\n1,3\n2,3\n", "")

    def test_strongly_stable_guard_is_immediate(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "ss-mon", "--n", "200", "--t", "2", "20,60,100,140,180,199")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "output would hold 20535023166 monomials" in err

    @pytest.mark.parametrize(
        "argv, predicted",
        [
            # every degree-7 monomial, C(40, 7) = 18 643 560, is a generator
            (["lex-ideal", "--f", "1,40,780,9880,91390,658008,3838380"], 18643560),
        ],
        # a fixed id: the row keeps its name from the table that also held
        # the ft-vector, is-lex-ideal and ideal-input lex-ideal rows
        ids=["argv3-4496378"],
    )
    def test_ideal_guards_are_immediate(self, capsys, monkeypatch, argv, predicted):
        # the generators the vector emits
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2\n"))
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, "--n", "40", "--t", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and f"output would hold {predicted} monomials" in err

    def test_lex_ideal_guard_predicts_the_generators(self):
        # all but 10 degree-5 monomials, then the one degree-6 monomial outside their
        # shadow: 657 999 generators, under the limit, where the segments held 4 496 378
        ctx = Context(40, 1)
        assert kk._walks_from_f([1, 40, 780, 9880, 91390, 10], ctx).size() == 657999 < FORCE_LIMIT
        with pytest.raises(core.InvalidFtVectorError):  # refused by the kernel
            kk._walks_from_f([1, 40, 781, 0, 0, 0], ctx)

    @pytest.mark.parametrize(
        "name, gens, head",
        [
            ("ft-vector", "1", "{1, 39, 741, 9139,"),
            ("ft-vector", "1,2", "{1, 40, 779,"),
            ("lex-ideal", "1", "1\n"),
            ("lex-ideal", "1,2", "1,2\n"),
        ],
        ids=["ft-vector-1", "ft-vector-1,2", "lex-ideal-1", "lex-ideal-1,2"],
    )
    def test_count_guards_answer_without_force(self, capsys, monkeypatch, name, gens, head):
        # a count vector of 41 entries under 2^40 each: 533 digits at most,
        # and lex-ideal lists the generators of the lex ideal sharing it
        ctx = Context(40, 1)
        ideal = MonomialIdeal(ctx, [parse_monomial(gens)])
        if name == "ft-vector":
            want = cli.brace_vector(kk.ft_vector(ideal)) + "\n"
        else:
            want = "".join(format_monomial(g) + "\n" for g in kk.t_lex_ideal_of(ideal).gens)
        monkeypatch.setattr("sys.stdin", io.StringIO(gens + "\n"))
        start = time.perf_counter()
        assert run(capsys, name, "--n", "40", "--t", "1") == (0, want, "")
        assert time.perf_counter() - start < 1.0
        assert want.startswith(head)

    def test_lex_ideal_test_needs_no_guard(self, capsys, monkeypatch):
        # is_t_lex_ideal decides by counts and builds nothing, and its
        # count vector of 41 entries passes the guard
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2\n"))
        start = time.perf_counter()
        code, out, _ = run(capsys, "is-lex-ideal", "--n", "40", "--t", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out == "true\n"

    def test_slice_guard_is_immediate_at_large_n(self, capsys, monkeypatch):
        # 20 001 entries, each under 2^20000 and so of at most 6 021 digits
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
        start = time.perf_counter()
        code, _, err = run(capsys, "ft-vector", "--n", "20000", "--t", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (1, f"error: {LONG_VECTOR}\n")
        assert len(decimal_text(2**20000)) == 6021

    def test_slice_guard_is_immediate_at_mid_degree(self, capsys, monkeypatch):
        # one generator of degree n/2: the vector has as many entries
        monkeypatch.setattr("sys.stdin", io.StringIO(",".join(map(str, range(1, 10001))) + "\n"))
        start = time.perf_counter()
        code, _, err = run(capsys, "ft-vector", "--n", "20000", "--t", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (1, f"error: {LONG_VECTOR}\n")

    @pytest.mark.parametrize("name", ["lex-ideal", "is-lex-ideal"])
    def test_count_guard_refuses_a_long_vector(self, capsys, monkeypatch, name):
        # both count the ft-vector of 20 001 entries first, in O(D^2) binomials
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
        start = time.perf_counter()
        code, _, err = run(capsys, name, "--n", "20000", "--t", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (1, f"error: {LONG_VECTOR}\n")

    @pytest.mark.parametrize("name", ["ft-vector", "lex-ideal", "is-lex-ideal"])
    def test_count_guard_checks_the_ideal_first(self, capsys, monkeypatch, name):
        # a vector too long to build, of an ideal the kernel refuses anyway
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2\n"))
        code, _, err = run(capsys, name, "--n", "20000", "--t", "2")
        assert (code, err) == (1, "error: expected a t-spread ideal\n")

    def test_count_vector_bound_covers_every_entry(self, monkeypatch):
        # the digits the refusal names, against the zero ideal's vector, whose
        # entries (every t-spread monomial of each degree) bound all others
        monkeypatch.setattr(cli, "FORCE_LIMIT", -1)  # every vector refused
        for n in range(1, 61):
            for t in range(1, 5):
                ctx = Context(n, t)
                vector = kk.ft_vector(MonomialIdeal(ctx, ()))
                with pytest.raises(core.TSpreadError) as excinfo:
                    _ring(MonomialIdeal(ctx, ()), ctx)
                digits = int(str(excinfo.value).removeprefix("the count vector would hold ")
                             .split()[0])
                assert max(vector) < 2**n, (n, t)
                assert digits >= len(vector) * len(str(2**n - 1)), (n, t)
                assert digits >= sum(len(str(f)) for f in vector), (n, t)

    def test_closure_guard(self, capsys, monkeypatch):
        # the n = 40 closure (Borel sets of 258 985 monomials, 129 913
        # generators out; built in test_construct) is below the limit
        ctx = Context(40, 2)
        ideal = MonomialIdeal(ctx, [(5, 12, 20, 30, 38), (3, 9, 18, 27), (7, 15, 25, 33, 40)])
        assert _closure_size(ideal, ctx) == 258985 < FORCE_LIMIT
        monkeypatch.setattr("sys.stdin", io.StringIO("20,60,100,140,180,199\n"))
        start = time.perf_counter()
        code, _, err = run(capsys, "ss-ideal", "--n", "200", "--t", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "output would hold 20535023166 monomials" in err

    def test_guards_take_the_spread_verdict_of_the_batch_check(self, monkeypatch):
        # the n = 40 closure read back from its lines: the least column gap
        # the batch check finds certifies it 2-spread, so neither guard
        # builds the columns again
        ctx = Context(40, 2)
        closed = construct.t_ss_ideal(
            MonomialIdeal(ctx, [(5, 12, 20, 30, 38), (3, 9, 18, 27), (7, 15, 25, 33, 40)]))
        lines = "".join(format_monomial(g) + "\n" for g in closed.gens)
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        ideal = cli._ideal("-", ctx, pytest.fail)
        assert ideal == closed and len(ideal.gens) == 129913

        def refuse(ideal):
            raise AssertionError("the t-spread test of the guards ran again")

        monkeypatch.setattr(core, "_spread_gaps", refuse)
        assert _closure_size(ideal, ctx) > FORCE_LIMIT
        assert _ring(ideal, ctx) == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lex-ideal", "--t", "1", "--f", "1,40,781,0,0,0"], "expected a valid ft-vector"),
            (["ft-vector", "--t", "2"], "expected a t-spread ideal"),
            (["ss-ideal", "--t", "2"], "expected a t-spread ideal"),
            # the end's Borel set holds C(35, 6) = 1 623 160 monomials, or
            # 5 995 431; the last start, not Borel-above the end, would count
            # 2 035 800 by the segment formula
            (["ss-seg", "--t", "2", "1,2,5,7,9,11", "30,32,34,36,38,40"],
             "expected a t-spread monomial"),
            (["ss-seg", "--t", "2", "1,3,5", "30,32,34,36,38,40"],
             "segment endpoints must have equal degrees"),
            (["ss-seg", "--t", "2", "1,3,5,7,9,11,13", "30,32,34,36,38,40"],
             "segment endpoints must have equal degrees"),
            (["ss-seg", "--t", "2", "3,5,7,9,11,13,15,17", "2,28,30,32,34,36,38,40"],
             "segment start must dominate its end in the Borel order"),
            # the end's lex set holds 847 660 528 monomials, 3 838 380 for the
            # start of the next row, and C(35, 6) = 1 623 160 for the last end
            (["lex-seg", "--t", "1", "1", "31,32,33,34,35,36,37,38,39,40"],
             "slex comparison requires equal degrees"),
            (["lex-seg", "--t", "1", "35,36,37,38,39,40", "1,2,3,4,5,40"],
             "segment start lies below its end in the slex order"),
            (["lex-seg", "--t", "2", "1,2,5,7,9,11", "30,32,34,36,38,40"],
             "expected a t-spread monomial"),
            (["is-lex-ideal", "--t", "2"], "expected a t-spread ideal"),
        ],
    )
    def test_invalid_input_is_not_refused_for_size(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2\n"))
        code, _, err = run(capsys, *argv, "--n", "40")
        assert code == 1 and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["is-ft", "--n", "5", "--t", "1", "a,b"],
            ["lex-ideal", "--n", "5", "--t", "1", "--f", "x"],
        ],
    )
    def test_bad_vector_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"bad vector {argv[-1]!r}" in capsys.readouterr().err

    def test_undecodable_ideal_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(SystemExit) as excinfo:
            main(["betti", "--n", "25", "--t", "3", str(path)])
        assert excinfo.value.code == 2
        assert f"cannot read ideal from {str(path)!r}" in capsys.readouterr().err


# Transcripts of the pre-table CLI for outputs no other test pins: exit code,
# stdout and stderr, byte for byte.  "{kk}" and "{real}" name files holding
# the conftest ideals.
TRANSCRIPTS = [
    (["lex-seg", "--n", "7", "--t", "2", "1,3,5", "1,4,6", "--oracle"],
     0, "1,3,5\n1,3,6\n1,3,7\n1,4,6\noracle: agree\n", ""),
    (["ss-seg", "--n", "9", "--t", "2", "1,5,7", "2,5,8", "--oracle"],
     0, "1,5,7\n1,5,8\n2,4,6\n2,4,7\n2,4,8\n2,5,7\n2,5,8\noracle: agree\n", ""),
    (["veronese", "--n", "5", "--t", "2", "2", "--oracle"],
     0, "1,3\n1,4\n1,5\n2,4\n2,5\n3,5\noracle: agree\n", ""),
    (["next-lex", "--n", "13", "--t", "3", "2,6,10,13", "--oracle"],
     0, "2,7,10,13\noracle: agree\n", ""),
    (["count-lex", "--n", "11", "--t", "3", "2,6,10", "--oracle"], 0, "21\noracle: agree\n", ""),
    (["ft-vector", "--n", "8", "--t", "2", "{kk}", "--oracle"],
     0, "{1, 8, 21, 10, 0}\n", "oracle cross-check is not available for ft-vector\n"),
    (["check", "--n", "14", "--t", "3", "3,7,10,14", "--oracle"], 0, "true\n", ""),
    (["sieve", "--n", "14", "--t", "4", "3,7,10,14", "1,5,9,13", "--oracle"], 0, "1,5,9,13\n", ""),
    (["cq", "6", "4", "2", "--oracle"], 0, "30\n", ""),
    (["corners", "--n", "25", "--t", "3", "{real}", "--format", "json"],
     0, '{"result": {"corners": [[6, 2], [5, 4], [4, 5], [3, 7]], "values": [2, 1, 3, 2]}}\n', ""),
    (["realize-betti", "--n", "7", "--t", "2", "1,2=1", "--format", "json"],
     0, '{"result": {"basic": [[1, 4]], "generators": [[1, 3], [1, 4]]}}\n', ""),
    (["macaulay", "--n", "12", "--t", "1", "50", "2", "--format", "json"],
     0, '{"result": [[10, 2], [5, 1]]}\n', ""),
    (["ss-mon", "--n", "7", "--t", "2", "2,4,7", "--format", "json"],
     0, '{"result": [[1, 3, 5], [1, 3, 6], [1, 3, 7], [1, 4, 6], [1, 4, 7], [2, 4, 6], '
     '[2, 4, 7]]}\n', ""),
    (["ss-seg", "--n", "11", "--t", "2", "1,5,7", "2,4,8"],
     1, "", "error: segment start must dominate its end in the Borel order\n"),
    (["ss-seg", "--n", "90", "--t", "2", "9,22,40,55,72,88", "9,22,40,55,72,89"],
     0, "9,22,40,55,72,88\n9,22,40,55,72,89\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", TRANSCRIPTS, ids=[t[0][0] for t in TRANSCRIPTS])
def test_transcript(capsys, tmp_path, argv, code, out, err):
    files = {
        "kk": write_ideal(tmp_path / "kk.txt", KK_IDEAL_GENS),
        "real": write_ideal(tmp_path / "real.txt", REALIZE_GENERATORS),
    }
    assert run(capsys, *(a.format(**files) for a in argv)) == (code, out, err)


# The listings of the unit monomial: its sets and segments are {1}, which
# the size guards predict without --force.  The counts refuse it, and a lex
# segment with one unit end meets the kernel's own degree check.
UNIT_LISTINGS = [
    (["lex-mon", ""], 0, "1\n", ""),
    (["ss-mon", ""], 0, "1\n", ""),
    (["lex-seg", "", ""], 0, "1\n", ""),
    (["ss-seg", "", ""], 0, "1\n", ""),
    (["count-lex", ""], 1, "", "error: counting requires degree at least 1\n"),
    (["count-ss", ""], 1, "", "error: counting requires degree at least 1\n"),
    (["lex-seg", "", "2"], 1, "", "error: slex comparison requires equal degrees\n"),
    (["lex-seg", "2", ""], 1, "", "error: slex comparison requires equal degrees\n"),
]


@pytest.mark.parametrize("argv, code, out, err", UNIT_LISTINGS,
                         ids=[f"{t[0][0]}-{k}" for k, t in enumerate(UNIT_LISTINGS)])
def test_unit_monomial_listings(capsys, argv, code, out, err):
    name, *monomials = argv
    for force in ((), ("--force",)):  # a size guard lets the kernel answer
        assert run(capsys, name, "--n", "3", "--t", "1", *monomials, *force) == (code, out, err)


def guarded_calls(rng, ctx):
    """(name, argv, stdin, values) of seeded calls of the listing commands
    whose walks report their size, ``values`` as the command's converters
    give them.

    Every degree from 0 on, one segment across two degrees, and lex-ideal
    of up to 12 small closures and of their vectors, whole or cut short: a
    cut no lex ideal has, like the degrees, meets the kernel's own error.
    """
    calls = []
    for d in range(ctx.max_degree() + 1):
        chain = construct.t_veronese(d, ctx)
        u = rng.choice(chain)
        v = rng.choice(construct.t_ss_mon(u, ctx))
        top, bottom = sorted(rng.choice(chain) for _ in range(2))
        calls += [
            ("lex-mon", [text_of(u)], "", (u,)),
            ("ss-mon", [text_of(u)], "", (u,)),
            ("lex-seg", [text_of(top), text_of(bottom)], "", (top, bottom)),
            ("ss-seg", [text_of(v), text_of(u)], "", (v, u)),
            ("veronese", [str(d)], "", (d,)),
        ]
    if ctx.max_degree():
        top, bottom = (), rng.choice(construct.t_veronese(1, ctx))
        calls.append(("lex-seg", [text_of(top), text_of(bottom)], "", (top, bottom)))
    closures = small_closures(ctx.n, ctx.t)
    for ideal in rng.sample(closures, min(len(closures), 12)):
        f = kk.ft_vector(ideal)
        cut = f[:rng.randint(1, len(f))]
        calls += [
            ("lex-ideal", [], "".join(format_monomial(g) + "\n" for g in ideal.gens),
             (None, ideal)),
            ("lex-ideal", ["--f", ",".join(map(str, f))], "", (f, None)),
            ("lex-ideal", ["--f", ",".join(map(str, cut))], "", (cut, None)),
        ]
    return calls


@pytest.mark.parametrize("n, t", CLOSURE_RINGS)
def test_guard_predicts_the_lines_printed(capsys, monkeypatch, n, t):
    # a listing's own size, its walks', is the number of lines it prints with --force
    ctx = Context(n, t)
    printed = set()
    for name, argv, stdin, values in guarded_calls(random.Random(2600 + 10 * n + t), ctx):
        try:
            predicted = COMMANDS[name].kernel(*values, ctx).size()
        except core.TSpreadError:  # the kernel's own refusal prints nothing
            predicted = 0
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, _ = run(capsys, name, "--n", str(n), "--t", str(t), *argv, "--force")
        assert len(out.splitlines()) == predicted, (name, argv, stdin, code)
        printed |= {name} if predicted else set()
    assert printed == {"lex-mon", "ss-mon", "lex-seg", "ss-seg", "veronese", "lex-ideal"}


def test_lex_ideal_guard_counts_the_closure(capsys, monkeypatch, closure_40):
    # the n = 40, t = 2 closure's lex ideal: 1 221 531 generators, predicted
    # from the closure's ft-vector and listed under --force
    closed, _ = closure_40
    assert kk._walks_of_counts(kk.ft_vector(closed), closed.ctx).size() == 1221531
    lines = "".join(format_monomial(g) + "\n" for g in closed.gens)
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    assert run(capsys, "lex-ideal", "--n", "40", "--t", "2") == (
        1, "", "error: output would hold 1221531 monomials; pass --force to build it\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code, out, err = run(capsys, "lex-ideal", "--n", "40", "--t", "2", "--force")
    assert (code, out.count("\n"), err) == (0, 1221531, "")


@pytest.mark.parametrize(
    "n, t, gens",
    [
        (8, 2, KK_IDEAL_GENS),  # strongly stable: counted from its shapes
        (8, 1, ((1, 3), (2, 5))),  # not: the pivot recursion
        (9, 2, ((5,),)),  # counts no lex ideal has: the growth-bound refusal
    ],
    ids=["stable", "pivot", "growth-bound"],
)
def test_lex_ideal_counts_the_ideal_once(capsys, monkeypatch, n, t, gens):
    # the guard's ft-vector is the one the kernel reads: one count per call,
    # guarded or forced, and the output of the library's lex ideal
    ideal = MonomialIdeal(Context(n, t), gens)
    try:
        want = (0, "".join(format_monomial(g) + "\n" for g in kk.t_lex_ideal_of(ideal).gens), "")
    except core.InvalidFtVectorError as exc:
        want = (1, "", f"error: {exc}\n")
    counted = []
    ft_vector = kk.ft_vector
    monkeypatch.setattr(kk, "ft_vector", lambda ideal: counted.append(ideal) or ft_vector(ideal))
    for force in ((), ("--force",)):
        counted.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(text_of(g) + "\n" for g in gens)))
        assert run(capsys, "lex-ideal", "--n", str(n), "--t", str(t), *force) == want
        assert len(counted) == 1, force


# The ideal reader's paths, stdin to exit code, stdout and stderr byte for
# byte.  A bad line exits 2 with the command's usage and the message of the
# first bad line in input order, however many good lines come before it; an
# ideal whose lines are all monomials but that is no proper ideal, with the
# message of the ideal.
SLICE_40 = "".join(f"{format_monomial(m)}\n" for m in construct.t_veronese(3, Context(40, 2)))
IDEAL_TRANSCRIPTS = [
    (["betti", "--n", "40", "--t", "2"], SLICE_40 + "5,2\n1,a\n",
     2, "", "bad monomial '5,2': support must be strictly increasing, got (5, 2)"),
    (["ft-vector", "--n", "8", "--t", "2"], "1,3\n1,a\n0,3\n",
     2, "", "bad monomial '1,a': invalid literal for int() with base 10: 'a'"),
    (["lex-ideal", "--n", "8", "--t", "2"], "1,3\n2,4\n0,3\n",
     2, "", "bad monomial '0,3': indices of (0, 3) fall outside [1, 8]"),
    (["ss-ideal", "--n", "8", "--t", "2"], "1,3\n,\n",
     2, "", "bad ideal input: the unit monomial cannot generate a proper ideal"),
    (["corners", "--n", "8", "--t", "2"], "x_1*x_3\nx_5*x_2\n",
     2, "", "bad monomial 'x_5*x_2': support must be strictly increasing, got (5, 2)"),
    (["is-lex-ideal", "--n", "8", "--t", "2"], "x_1*x_3\nx_2*y\n",
     2, "", "bad monomial 'x_2*y': invalid literal for int() with base 10: 'y'"),
    (["ss-ideal", "--n", "8", "--t", "2"], "x_3*x_5\n\n  \nx_1*x_6*x_8\n",
     0, "1,3\n1,4\n1,5\n2,4\n2,5\n3,5\n1,6,8\n", ""),
    (["is-lex-ideal", "--n", "40", "--t", "2"], SLICE_40, 0, "true\n", ""),
]


@pytest.mark.parametrize(
    "argv, stdin, code, out, message", IDEAL_TRANSCRIPTS,
    ids=[f"{t[0][0]}-{t[2]}-{k}" for k, t in enumerate(IDEAL_TRANSCRIPTS)],
)
def test_ideal_transcript(capsys, monkeypatch, argv, stdin, code, out, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    if code == 2:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        got = (excinfo.value.code, *capsys.readouterr())
        assert got == (2, "", command_error(argv[0], message))
    else:
        assert run(capsys, *argv) == (code, out, message)


# The per-degree line templates against the renderer they replace, one
# string join a line, on seeded input to every listing command.
def joined(m):
    return ",".join(map(str, m)) if m else "1"


def reference_list(monomials):
    return monomials, map(joined, monomials)


def tuple_kernel(kernel):
    """``kernel`` with a listing it returns built as tuples, so that the
    result takes the renderer, as every listing did before the text walk."""
    def built(*args):
        result = kernel(*args)
        return result.members() if type(result) is construct._Walks else result

    return built


LISTING = sorted(
    name for name, row in COMMANDS.items() if row.render in (cli._monomial_list, cli._realized)
)
RENDER_CASES = 40


def text_of(m):
    return ",".join(map(str, m))  # "" parses back as the unit monomial


def listing_invocation(rng, name):
    """(argv, stdin) of a random valid call of listing command ``name``."""
    n, t = rng.randint(1, 12), rng.choice([1, 1, 2, 3, 5])
    ctx = Context(n, t)

    def spread(low=0):
        return rng.choice(construct.t_veronese(rng.randint(low, ctx.max_degree()), ctx))

    def ideal():
        return MonomialIdeal(ctx, [spread(1) for _ in range(rng.randint(1, 4))])

    argv, stdin = [name, "--n", str(n), "--t", str(t)], ""
    if name == "sieve":
        argv += [text_of(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 4)))))
                 for _ in range(rng.randint(1, 5))]
    elif name == "shadow":
        argv += [text_of(spread()) for _ in range(rng.randint(1, 4))]
    elif name in ("lex-mon", "ss-mon"):
        argv.append(text_of(spread()))
    elif name == "lex-seg":
        chain = construct.t_veronese(rng.randint(0, ctx.max_degree()), ctx)
        i, j = sorted(rng.randrange(len(chain)) for _ in range(2))
        argv += [text_of(chain[i]), text_of(chain[j])]
    elif name == "ss-seg":
        u = spread()
        argv += [text_of(rng.choice(construct.t_ss_mon(u, ctx))), text_of(u)]
    elif name == "veronese":
        argv.append(str(rng.randint(0, ctx.max_degree())))
    elif name in ("ss-ideal", "lex-ideal"):
        # lex-ideal reads a closure: only strongly stable ideals are sure to
        # have quotient counts some lex ideal shares
        gens = (ideal() if name == "ss-ideal" else construct.t_ss_ideal(ideal())).gens
        stdin = "".join(text_of(g) + "\n" for g in gens)
    elif name == "realize-betti":
        # few random closures have two corners, and only those give basic
        # monomials and generators of mixed degrees: take the first of 30
        for _ in range(30):
            config = extremal_corners(construct.t_ss_ideal(ideal()))
            if len(config.corners) > 1:
                break
        argv += [f"{k},{l}={a}" for (k, l), a in zip(config.corners, config.values)]
    else:
        raise AssertionError(f"no invocation for listing command {name}")
    return argv, stdin


@pytest.mark.parametrize("name", LISTING)
def test_line_templates_render_as_joined_indices(capsys, monkeypatch, name):
    rng = random.Random(f"render-{name}")
    outputs = []
    row = COMMANDS[name]

    def rendered(argv, stdin, reference):
        with monkeypatch.context() as patch:
            patch.setattr("sys.stdin", io.StringIO(stdin))
            if reference:
                patch.setattr(row, "kernel", tuple_kernel(row.kernel))
                if row.render is cli._monomial_list:
                    patch.setattr(row, "render", reference_list)
                patch.setattr(cli, "_monomial_list", reference_list)  # as _realized calls it
            return run(capsys, *argv)

    for _ in range(RENDER_CASES):
        argv, stdin = listing_invocation(rng, name)
        got = rendered(argv, stdin, False)
        assert got == rendered(argv, stdin, True), (argv, stdin)
        assert got[0] == 0, (argv, stdin, got)
        outputs.append((argv, got[1].splitlines()))
    # t = 1 and t >= 2 both rendered, and the unit monomial (input "", or
    # degree 0) and mixed degrees wherever the command can emit them; a line
    # "1" is the unit or x_1, so the unit is told by the input
    assert {argv[4] == "1" for argv, _ in outputs} == {True, False}
    if name in ("sieve", "lex-mon", "lex-seg", "ss-mon", "ss-seg", "veronese"):
        assert any("" in argv or argv[-1] == "0" for argv, _ in outputs)
    if name in ("sieve", "shadow", "ss-ideal", "lex-ideal", "realize-betti"):
        assert any(len({line.count(",") for line in lines if line[0].isdigit()}) > 1
                   for _, lines in outputs)


# the listings printed straight from the split walk (construct._Walks)
WALKED = ["lex-ideal", "lex-mon", "lex-seg", "ss-mon", "ss-seg", "veronese"]
MODES = [(), ("--oracle",), ("--force",), ("--format", "json"), ("--format", "json", "--oracle"),
         ("--oracle", "--force")]


@pytest.mark.parametrize("name", WALKED)
def test_listings_match_the_tuple_path_in_every_mode(capsys, monkeypatch, name):
    # A seeded differential: each listing command's exit status, stdout and
    # stderr against the same call with the listing built as tuples and
    # rendered line by line, in text and JSON, with and without --oracle
    # and --force.  Text without --oracle comes straight from the walk.
    rng = random.Random(f"walked-{name}")
    row = COMMANDS[name]
    seen = set()
    for k in range(RENDER_CASES):
        argv, stdin = listing_invocation(rng, name)
        argv += MODES[k % len(MODES)]
        got = {}
        for reference in (False, True):
            with monkeypatch.context() as patch:
                patch.setattr("sys.stdin", io.StringIO(stdin))
                if reference:
                    patch.setattr(row, "kernel", tuple_kernel(row.kernel))
                    patch.setattr(row, "render", reference_list)
                got[reference] = run(capsys, *argv)
        assert got[False] == got[True], (argv, stdin)
        assert got[False][0] == 0, (argv, got[False])
        seen.add((argv[4] == "1", "" in argv or argv[5:6] == ["0"]))
    assert {t1 for t1, _ in seen} == {True, False}  # t = 1 and t >= 2
    if name != "lex-ideal":
        assert {unit for _, unit in seen} == {True, False}  # degree 0 and up


# Fuzzing the exit-code contract: whatever the input, ``main`` returns 0 or 1
# or exits with status 2, and raises nothing else.  Each argument slot of a
# command draws from the malformed and valid values of its kind; ideals come
# from stdin (empty or undecodable) or from files.
MONOMIAL_TEXTS = ["5,2", "x", "", str(10**30), "1," + str(10**30), "0,3", "x_2*y", "1", "1,3",
                  "2,5,8", "1,4,7,10", "x_2*x_6"]
SLOT_VALUES = {
    "monomial": MONOMIAL_TEXTS,
    "vector": ["a,b", "1,x", "1.5", "", "1,,3", "1,12,50,20,15", "1,8,21,10,0", "1,3"],
    "corners": ["6,2", "6,2=x", "k,l=1", "2=1", "1,2,3=4", "1,2=0", "1,2=1", "3,2=1"],
    "int": ["x", "", "2.5", "-2", "0", "1", "3"],
}
SLOT_KIND = {"monomials": "monomial", "start": "monomial", "end": "monomial", "--f": "vector"}


@pytest.fixture(scope="module")
def ideal_sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("ideals")
    (root / "undecodable.txt").write_bytes(b"\xff\xfe")
    (root / "malformed.txt").write_text("1,3\n5,2\n")
    return [
        "-",
        str(root / "undecodable.txt"),
        str(root / "malformed.txt"),
        str(root / "missing.txt"),
        write_ideal(root / "kk.txt", KK_IDEAL_GENS),
    ]


@st.composite
def invocations(draw, name, ideal_sources):
    argv = [name]
    if draw(st.integers(0, 9)):  # now and then leave the ring out
        argv += ["--n", str(draw(st.integers(1, 12))), "--t", str(draw(st.integers(1, 4)))]
    for flag in ("--oracle", "--force"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.booleans()):
        argv += ["--format", "json"]
    for arg in COMMANDS[name].args:
        kind = SLOT_KIND.get(arg.name, arg.name)
        values = ideal_sources if kind == "ideal" else SLOT_VALUES.get(kind, SLOT_VALUES["int"])
        if arg.options.get("action") == "store_true":
            if draw(st.booleans()):
                argv.append(arg.name)
            continue
        nargs = arg.options.get("nargs")
        count = draw(st.integers(1, 3) if nargs == "+" else st.integers(0, 1))
        if nargs is None and not arg.name.startswith("--") and draw(st.integers(0, 9)):
            count = 1  # a required positional is mostly present
        for value in draw(st.lists(st.sampled_from(values), min_size=count, max_size=count)):
            argv += [arg.name, value] if arg.name.startswith("--") else [value]
    stdin = draw(st.sampled_from(["", "1,3\n2,5\n", b"\xff\xfe"]))
    return argv, stdin


def assert_exit_contract(argv, stdin):
    """``main`` returns 0 or 1, or exits with status 2; nothing else escapes."""
    if isinstance(stdin, bytes):
        stream = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    else:
        stream = io.StringIO(stdin)
    saved, sys.stdin = sys.stdin, stream
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1), argv
    except SystemExit as exc:
        assert exc.code == 2, argv
    finally:
        sys.stdin = saved


def parse_outcome(parse, argv):
    """(namespace or exit status, stdout, stderr) of parsing ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def assert_same_parse(argv):
    """The table parse reads ``argv`` exactly as argparse does, or leaves it
    to argparse; returns whether it read it."""
    table = cli._parse(list(argv))
    if table is not None:
        assert parse_outcome(_build_parser()[0].parse_args, argv) == (table, "", ""), argv
    return table is not None


# Arguments no command takes, or a second value where one is taken, and help.
EXTRA_ARGS = ["extra", "1,3", "--bogus", "--bogus=1", "-x", "--n", "--", "-h", "--format=json"]


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_exit_code_contract(ideal_sources, name, data):
    argv, stdin = data.draw(invocations(name, ideal_sources))
    assert_exit_contract(argv, stdin)
    assert_same_parse(argv)
    assert_same_parse(argv + data.draw(st.lists(st.sampled_from(EXTRA_ARGS), min_size=1, max_size=2)))


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["--help"], ["count"], ["nope", "--n", "3"], ["--n", "3", "count-ss"],
     ["--", "count-ss", "--n", "13", "--t", "2", "2,5,8,11"],
     ["-x", "count-ss", "--n", "13", "--t", "2", "2,5,8,11"],
     ["check", "--n", "9", "--t", "2", "1,3", "sieve"],
     *([name, "-h"] for name in sorted(COMMANDS))],
)
def test_parse_outside_one_command(argv):
    assert_same_parse(argv)


PLAIN_CALLS = [
    *(argv for argv, *_ in TRANSCRIPTS),
    *(argv for argv, *_ in IDEAL_TRANSCRIPTS),
    *([name, "--n", "3", "--t", "1", *monomials] for (name, *monomials), *_ in UNIT_LISTINGS),
    ["count-ss", "2,5,8,11", "--t", "2", "--n", "13", "--n", "13"],
    ["ss-ideal", "--n", "8", "-", "--t", "2", "--format", "json", "--format", "text"],
    ["lex-ideal", "--n", "8", "--t", "2", "--f", "1,8,21,10,0", "--force", "--oracle"],
    ["macaulay", "--solve", "--n", "12", "--t", "1", "50", "2", "--shift", "--shift"],
    ["cq", "+6", " 4", "2_0"],
    ["check", "--n", "9", "--t", "2", "1,3", "sieve"],
]


@pytest.mark.parametrize(
    "argv", PLAIN_CALLS, ids=[f"{argv[0]}-{k}" for k, argv in enumerate(PLAIN_CALLS)])
def test_table_parse_reads_plain_calls(argv):
    # the calls in the plain grammar never reach argparse, and read the same
    assert assert_same_parse(argv), argv


# Calls in the plain form that argparse refuses: each is left to it.
REFUSED_CALLS = [
    ["count-ss", "--n", "13", "--t", "2", "2,5", "--format", "xml"],
    ["count-ss", "--n", "x", "--n", "13", "--t", "2", "2,5"],
    ["count-ss", "--format", "xml", "--format", "json", "--n", "13", "--t", "2", "2,5"],
    ["count-ss", "2,5", "--n"],
    ["count-ss", "--n", "9", "--t", "2", "1,3", "2,4"],
    ["count-ss", "--n", "9", "--t", "2"],
    ["check", "1,3", "--n", "9", "--t", "2", "2,4"],
    ["lex-seg", "--n", "9", "--t", "2", "1,3"],
    ["ss-ideal", "--n", "9", "--t", "2", "a.txt", "b.txt"],
    ["cq", "6", "x"],
    ["cq"],
    ["veronese", "--n", "9", "--t", "2", "2.5"],
    ["macaulay", "--n", "12", "--t", "1", "50", "2", "--shift", "3"],
]


@pytest.mark.parametrize(
    "argv", REFUSED_CALLS, ids=[f"{argv[0]}-{k}" for k, argv in enumerate(REFUSED_CALLS)])
def test_table_parse_leaves_refusals_to_argparse(argv):
    assert cli._parse(argv) is None
    status, out, err = parse_outcome(_build_parser()[0].parse_args, argv)
    assert (status, out) == (2, "") and "error:" in err


def command_error(name, message):
    """The stderr of an exit-2 input error of command ``name``: its own usage,
    every argument declared, and the message under its own prog."""
    usage = _build_parser()[1][name].format_usage()
    return f"{usage}tspread {name}: error: {message}\n"


def test_usage_errors_after_parsing_show_full_usage(capsys):
    # the ring check and the converters report through the called command's
    # parser's error, whose usage names that command's arguments alone
    for argv, message in [
        (["count-ss", "2,5,8,11"], "count-ss requires --n and --t"),
        (["count-ss", "--n", "0", "--t", "1", "1"], "need at least one variable, got n=0"),
        (["is-ft", "--n", "5", "--t", "1", "a,b"],
         "bad vector 'a,b': invalid literal for int() with base 10: 'a'"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = command_error(argv[0], message)
        assert err.startswith(f"usage: tspread {argv[0]} [-h] [--n N] [--t T]")
        assert "check,sieve" not in err
        assert capsys.readouterr() == ("", err)


def test_exit_code_contract_past_the_digit_limit():
    assert_exit_contract(HUGE_COUNT, "")


# Import budget: what a ``tspread`` process loads before it parses anything,
# and what a call that succeeds loads besides.  ``-S`` keeps ``site`` (and
# whatever its ``.pth`` files import) out, so the modules counted are the
# package's own doing.  argparse (with gettext and the locale module its
# first message loads) is for help and errors only.
HEAVY_MODULES = ("dataclasses", "inspect", "json")
PARSER_MODULES = ("argparse", "gettext", "locale")


def python_without_site(code):
    """Stdout of ``code`` run by a fresh interpreter that skips ``site``."""
    root = str(Path(tspread.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": root}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


@pytest.mark.parametrize("module", ["tspread", "tspread.cli"])
def test_import_leaves_heavy_modules_out(module):
    code = f"import sys, {module}; print(','.join(m for m in {HEAVY_MODULES} if m in sys.modules))"
    assert python_without_site(code) == "\n"


def test_success_loads_no_parser_modules():
    code = (
        "import sys; from tspread.cli import main; "
        "status = main(['count-ss', '--n', '13', '--t', '2', '2,5,8,11']); "
        f"print(status, ','.join(m for m in {HEAVY_MODULES + PARSER_MODULES} if m in sys.modules))"
    )
    assert python_without_site(code) == "42\n0 \n"


def test_typing_stays_out_of_the_command_line():
    # annotations name typing's members only under TYPE_CHECKING, so neither
    # typing nor the re it imports is loaded, by the import or by a call
    # that succeeds: without site they were most of what an import cost
    code = (
        "import sys, tspread.cli; loaded = lambda: [m for m in ('typing', 're') if m in sys.modules]; "
        "before = loaded(); status = tspread.cli.main(['count-ss', '--n', '13', '--t', '2', '2,5,8,11']); "
        "print(status, before, loaded())"
    )
    assert python_without_site(code) == "42\n0 [] []\n"


def test_usage_error_loads_the_parser():
    # the check that the budget test can fail: an input error prints usage
    code = (
        "import sys; from tspread.cli import main\n"
        "try:\n    main(['count-ss', '2,5,8,11'])\n"
        "except SystemExit as exc:\n"
        f"    print(exc.code, all(m in sys.modules for m in {PARSER_MODULES[:2]}))"
    )
    assert python_without_site(code) == "2 True\n"


def test_json_output_in_a_fresh_process():
    code = (
        "from tspread.cli import main; "
        "main(['count-ss', '--n', '9', '--t', '2', '2,5,8', '--format', 'json', '--oracle'])"
    )
    assert python_without_site(code) == '{"result": 14, "oracle_agrees": true}\n'


def reader_leaves_early(*args):
    """The exit status and stderr of ``tspread ARGS | head -1``, and the line read."""
    root = str(Path(tspread.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "tspread.cli", *args]
    env = {**os.environ, "PYTHONPATH": root}
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        return proc.wait(timeout=60), proc.stderr.read(), line


def test_reader_leaving_early_ends_the_run_quietly():
    # ``tspread veronese --n 30 --t 2 5 | head -1``: 65 780 lines, far more
    # than a pipe buffers, so the writer meets the closed pipe while it
    # writes the text walk's blocks
    assert reader_leaves_early("veronese", "--n", "30", "--t", "2", "5") == (1, b"", b"1,3,5,7,9\n")


def test_reader_leaving_an_ss_listing_ends_the_run_quietly():
    # the same for a Borel set: 119 462 lines, a head's block at a time
    assert reader_leaves_early("ss-mon", "--n", "40", "--t", "2", "8,15,22,30,37") == (
        1, b"", b"1,3,5,7,9\n")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM (Linux)")
def test_forced_listing_streams_in_bounded_memory():
    # 1 702 840 lines (about 27 MB of text) to /dev/null in a fresh process:
    # memory follows the walk's table and one head's block, not the output.
    # Building the tuples and the whole text first peaked at 361 MB.  The
    # peak is the process's own VmHWM: its ru_maxrss would also count the
    # peak of the test process that spawned it, which Linux carries across exec.
    code = (
        "import sys; from tspread.cli import main; "
        "status = main(['ss-mon', '--n', '40', '--t', '1', '5,16,24,30,36,40', '--force']); "
        "sys.stdout.flush(); "
        "peak = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0]; "
        "print(status, peak.split()[1], file=sys.stderr)"
    )
    root = str(Path(tspread.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": root}
    with open(os.devnull, "w") as sink:
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, stdout=sink,
                              stderr=subprocess.PIPE, text=True, check=True, timeout=120)
    status, kilobytes = map(int, proc.stderr.split())
    assert status == 0
    assert kilobytes < 64 * 1024, kilobytes  # VmHWM is in kB
