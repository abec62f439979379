"""Self-test of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q

Checks that a seed fixes the operation list and its answers across
processes, that another seed changes the inputs, that every checker
rejects a corrupted answer, and that the metric names match
``BENCHMARK.json``.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tspread import BettiTable, CornerConfig, MonomialIdeal  # noqa: E402

WORKLOADS = run.WORKLOADS


def _build(workload, seed):
    wl = run._module(workload)
    if workload == "cli":
        return wl.build(seed, harness.child_env(ROOT))
    return wl.build(seed)


def _check_only(workload, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--check-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_ops_and_answers(workload):
    first, second = _check_only(workload, 7), _check_only(workload, 7)
    assert first == second
    assert first["failed"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs(workload):
    a = harness.sha(op.key() for op in _build(workload, 7))
    b = harness.sha(op.key() for op in _build(workload, 8))
    assert a != b


def _corrupt(r):
    if isinstance(r, bool):
        return not r
    if isinstance(r, int):
        return r + 1
    if r is None:
        return (1,)
    if isinstance(r, MonomialIdeal):
        gens = r.gens[:-1] if len(r.gens) > 1 else r.gens + ((r.ctx.n,),)
        return MonomialIdeal(r.ctx, gens)
    if isinstance(r, BettiTable):
        return BettiTable({**r.entries, (0, 99): 1})
    if isinstance(r, CornerConfig):
        return CornerConfig(r.corners, (r.values[0] + 1,) + r.values[1:])
    if isinstance(r, tuple) and len(r) == 3 and isinstance(r[1], bytes):
        return (r[0], r[1] + b"1\n", r[2])
    if isinstance(r, tuple) and len(r) == 2 and isinstance(r[1], MonomialIdeal):
        return (r[0], _corrupt(r[1]))
    if isinstance(r, tuple):
        return r[:-1] + (r[-1] + 1,)
    if isinstance(r, list):
        if not r:
            return [(1, 1)]
        if isinstance(r[-1], int):
            return r[:-1] + [r[-1] + 1]
        return r[:-1]
    raise TypeError(type(r).__name__)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_rejects_corrupted_answers(workload):
    seen = set()
    for op in _build(workload, 7):
        kind = (op.name, op.args[0][0] if workload == "cli" else None)
        if kind in seen:
            continue
        seen.add(kind)
        result, _ = harness.call_capped(op.fn, op.args, op.cap)
        assert harness.checked(op.check, result, op.cap), op.name
        assert not harness.checked(op.check, _corrupt(result), op.cap), op.name


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(x) for x in layers.catalogue()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {
        "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
        "peak_rss_mb": "MB", "ok_frac": "frac",
    }
