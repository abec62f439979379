"""Benchmark of the tspread library and command line.

    python3 bench/run.py --workload {count,segments,ideals,cli} --seed N \
        --seconds S --trace {0,1}

The package is taken from ``src/`` of the checkout holding this file,
never from an installed copy.  Each run

1. compiles ``src/tspread`` to bytecode, so every interpreter started later
   finds a warm ``__pycache__``;
2. measures ``setup_s``, the median wall time of fresh interpreters that
   import and warm ``tspread`` (``tspread.cli`` for the ``cli`` workload),
   started before, between and after the timed passes so that the median
   samples the whole run;
3. builds the workload's operation list from ``--seed``;
4. runs timed passes for ``--seconds`` and one pass with every answer
   checked (see ``harness.py``).

Every time reported is adjusted for the host's speed at the moment it was
taken (see ``harness.py``); the report prints raw pass times beside them.

The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines above it are a readable report.  ``--check-only`` runs the checked
pass alone and prints the operation-list and answer digests instead.
"""
from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("count", "segments", "ideals", "cli")
SETUP_RUNS = 5  # before and again after the timed passes; one between each
STARTUP_RUNS = 5


def _import_package(root):
    src = root / "src"
    if not (src / "tspread" / "__init__.py").is_file():
        sys.exit(f"error: no tspread package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import tspread

    if Path(tspread.__file__).resolve().parent != (src / "tspread").resolve():
        sys.exit(f"error: imported tspread from {tspread.__file__}, not from {src}")


def _module(name):
    return importlib.import_module(f"wl_{name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="tspread benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.monotonic()
    # One CPU for this process and every child it starts: the single client
    # waits on each operation anyway, and the host-speed calibration then
    # runs on the CPU the operations ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path(__file__).resolve().parent.parent
    _import_package(root)
    import harness
    import layers

    if not compileall.compile_dir(str(root / "src" / "tspread"), quiet=1):
        sys.exit("error: src/tspread does not compile")
    env = harness.child_env(root)
    wl = _module(args.workload)
    setup_times = []

    def sample_setup(runs=1):
        setup_times.extend(harness.child_times(wl.SETUP, env, runs))

    if not args.check_only:
        sample_setup(SETUP_RUNS)

    t0 = time.monotonic()
    ops = wl.build(args.seed, env) if args.workload == "cli" else wl.build(args.seed)
    build_s = time.monotonic() - t0

    if args.check_only:
        first = harness.run_pass(ops, started + harness.HARD_DEADLINE_S, verify=True)
        print(json.dumps({
            "ops": harness.sha(op.key() for op in ops),
            "answers": harness.sha(first.digests),
            "failed": [ops[i].name for i, ok in enumerate(first.ok) if not ok],
        }))
        return 0

    cli = args.workload == "cli"
    m = harness.measure(
        ops, args.seconds, bool(args.trace), started, in_process=not cli,
        between=None if args.trace else sample_setup,
    )
    sample_setup(SETUP_RUNS)
    e2e, samples = harness.end_to_end(m, statistics.median(setup_times))
    fail_frac = m["failed"] / m["attempted"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  ops/pass {len(ops)}  "
        f"input build {build_s:.2f} s  timed passes {len(m['timed'])}  "
        f"traced passes {len(m['traced'])}  latency samples {samples}",
        f"attempted {m['attempted']}  failed {m['failed']}  fail_frac {fail_frac:.6f}",
        "timed pass walls, adjusted (s): "
        + " ".join(f"{p.wall_ns / 1e9:.3f}" for p in m["timed"]),
        "timed pass walls, raw (s):      "
        + " ".join(f"{p.raw_wall_ns / 1e9:.3f}" for p in m["timed"]),
        f"calibration median {statistics.median(p.cal_ns for p in m['timed']) / 1e6:.4f} ms"
        f" (reference {harness.CAL_REF_NS / 1e6:.4f} ms)",
    ]
    lines += [f"  {name:12s} {value:.6g} {unit}" for name, (value, unit) in e2e.items()]
    failed_ops = sorted({ops[i].name for i, ok in enumerate(m["final"].ok) if not ok})
    if failed_ops:
        lines.append(f"FAILED checks: {', '.join(failed_ops)}")

    if args.trace:
        extra = None
        if cli:
            guard = [i for i, op in enumerate(ops) if op.work.get("guard")]
            extra = {
                "main_busy": wl.in_process(ops, started + harness.HARD_DEADLINE_S),
                "startup_ms": 1e3 * statistics.median(
                    harness.child_times(wl.SETUP, env, STARTUP_RUNS)
                ),
                "refusal_ms": statistics.mean(
                    p.ns[i] / 1e6 for p in m["traced"] for i in guard
                ) if guard else 0.0,
            }
        values = layers.compute(m, extra)
        units = {name: unit for name, unit, _ in layers.catalogue()}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        lines.append(
            f"tracing overhead {values['trace.overhead_s']:.6f} s per pass; "
            f"traced busy / untraced wall {values['trace.busy_share']:.4f}"
        )
        lines += [
            f"  {name} {values[name]:.6g} {units[name]}"
            for name in units if values[name]
        ]
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    print("\n".join(lines))
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
