import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KK_FT, KK_IDEAL_GENS, KK_LEX_GENS, REALIZE_GENERATORS
import tspread
from tspread import core, count
from tspread.cli import (
    COMMANDS,
    FORCE_LIMIT,
    _build_parser,
    _closure_size,
    _parse,
    _slices_size,
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

    def test_strongly_stable_guard_is_immediate(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "ss-mon", "--n", "200", "--t", "2", "20,60,100,140,180,199")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "output would hold 20535023166 monomials" in err

    @pytest.mark.parametrize(
        "argv, predicted",
        [
            (["ft-vector"], 2**40 - 41),
            (["is-lex-ideal"], 2**40 - 41),
            (["lex-ideal"], 2**40 - 41),
            (["lex-ideal", "--f", "1,40,780,9880,91390,10"], comb(40, 5) - 10 + comb(40, 6)),
        ],
    )
    def test_ideal_guards_are_immediate(self, capsys, monkeypatch, argv, predicted):
        # every slice from degree 2 up, or the segments of the vector
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2\n"))
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, "--n", "40", "--t", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and f"output would hold {predicted} monomials" in err

    def test_slice_guard_is_immediate_at_large_n(self, capsys, monkeypatch):
        # 2^20000 - 20001 subsets: every one but the empty one and the
        # variables; too many digits to print, so a power of ten bounds it
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
        start = time.perf_counter()
        code, _, err = run(capsys, "ft-vector", "--n", "20000", "--t", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "output would hold at least 10^6020 monomials" in err
        assert 10**6020 <= 2**20000 - 20001 < 10**6021

    def test_slice_guard_is_immediate_at_mid_degree(self, capsys, monkeypatch):
        # one generator of degree n/2: the slices from 10000 up hold more
        # than half of the 2^20000 subsets
        monkeypatch.setattr("sys.stdin", io.StringIO(",".join(map(str, range(1, 10001))) + "\n"))
        start = time.perf_counter()
        code, _, err = run(capsys, "ft-vector", "--n", "20000", "--t", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "output would hold at least 10^6020 monomials" in err

    def test_closure_guard(self, capsys, monkeypatch):
        # the n = 40 closure (258 985 monomials walked, 129 913 generators
        # out; built in test_construct) is below the limit, so not refused
        ctx = Context(40, 2)
        ideal = MonomialIdeal(ctx, [(5, 12, 20, 30, 38), (3, 9, 18, 27), (7, 15, 25, 33, 40)])
        assert _closure_size(ideal, ctx) == 258985 < FORCE_LIMIT
        monkeypatch.setattr("sys.stdin", io.StringIO("20,60,100,140,180,199\n"))
        start = time.perf_counter()
        code, _, err = run(capsys, "ss-ideal", "--n", "200", "--t", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "output would hold 20535023166 monomials" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lex-ideal", "--t", "1", "--f", "1,40,781,0,0,0"], "expected a valid ft-vector"),
            (["ft-vector", "--t", "2"], "expected a t-spread ideal"),
            (["ss-ideal", "--t", "2"], "expected a t-spread ideal"),
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

    def test_slice_predictor_matches_direct_sum(self):
        for n in range(1, 41):
            for t in range(1, 8):
                ctx = Context(n, t)
                top = ctx.max_degree()
                for low in range(1, top + 2):
                    gens = (core.max_mon(low, ctx),) if low <= top else ()
                    direct = sum(count.card_veronese(j, ctx) for j in range(low, top + 1))
                    assert _slices_size(MonomialIdeal(ctx, gens), ctx) == direct, (n, t, low)

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
]


@pytest.mark.parametrize("argv, code, out, err", TRANSCRIPTS, ids=[t[0][0] for t in TRANSCRIPTS])
def test_transcript(capsys, tmp_path, argv, code, out, err):
    files = {
        "kk": write_ideal(tmp_path / "kk.txt", KK_IDEAL_GENS),
        "real": write_ideal(tmp_path / "real.txt", REALIZE_GENERATORS),
    }
    assert run(capsys, *(a.format(**files) for a in argv)) == (code, out, err)


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
    """Parsing with the invoked command's parser alone changes nothing."""
    full = parse_outcome(lambda a: _build_parser().parse_args(a), argv)
    assert parse_outcome(_parse, argv) == full, argv


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
     *([name, "-h"] for name in sorted(COMMANDS))],
)
def test_parse_outside_one_command(argv):
    assert_same_parse(argv)


def test_usage_errors_after_parsing_show_full_usage(capsys):
    # the ring check and the converters report through the full parser
    usage = _build_parser().format_usage()
    for argv, message in [
        (["count-ss", "2,5,8,11"], "count-ss requires --n and --t"),
        (["count-ss", "--n", "0", "--t", "1", "1"], "need at least one variable, got n=0"),
        (["is-ft", "--n", "5", "--t", "1", "a,b"],
         "bad vector 'a,b': invalid literal for int() with base 10: 'a'"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr() == ("", f"{usage}tspread: error: {message}\n")


def test_exit_code_contract_past_the_digit_limit():
    assert_exit_contract(HUGE_COUNT, "")


# Import budget: what a ``tspread`` process loads before it parses anything.
# ``-S`` keeps ``site`` (and whatever its ``.pth`` files import) out, so the
# modules counted are the package's own doing.
HEAVY_MODULES = ("dataclasses", "inspect", "json")


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


def test_json_output_in_a_fresh_process():
    code = (
        "from tspread.cli import main; "
        "main(['count-ss', '--n', '9', '--t', '2', '2,5,8', '--format', 'json', '--oracle'])"
    )
    assert python_without_site(code) == '{"result": 14, "oracle_agrees": true}\n'
