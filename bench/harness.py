"""Timing loop, answer checking and trace aggregation shared by the workloads.

A workload is a fixed, seeded list of operations.  Each operation is one
call into one public function of ``tspread`` (or, for the ``cli``
workload, one ``tspread`` process).  A run is a closed loop with a single
client:

* timed passes repeat the list until ``--seconds`` have been spent;
* one pass checks each answer with the operation's own checker, outside
  the operation's timing, and every answer of every pass must reproduce
  the digest of the checked one (see ``measure``);
* with tracing on, untraced and traced passes alternate, so the tracing
  overhead is the difference between the two kinds.

Every pass starts from the same state: the ``functools`` caches found in
``tspread`` are emptied and the garbage collector has run, so each pass
does the work a fresh process would.  An operation that raises, answers
wrongly or runs past its cap counts as failed.

Times are adjusted for the speed of the host.  On a few cores of a shared
host the same pure-Python code runs up to twice as slow in phases lasting
seconds to minutes, in CPU time as much as in wall time.  So after every
operation, outside its timing, the benchmark times a fixed piece of its own
reference arithmetic (``calibrate``), and scales the operation's time by
``CAL_REF_NS`` over the median of the calibrations around it (the seven
nearest in process, the whole pass for ``cli``): the time the operation
would have taken on a host where the calibration takes ``CAL_REF_NS``.  The calibration calls nothing in ``tspread``, so any change
to the package shows in full in the adjusted times.  Reports print the raw
times too.
"""
from __future__ import annotations

import gc
import hashlib
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import ref

# A whole run must end well inside three minutes even when every operation
# regresses onto a pathological path: passes stop at this many seconds.
HARD_DEADLINE_S = 120.0
# Untraced runs pool at least this many latencies, so that ten or more lie
# beyond the 90th percentile, from at least this many passes, so that each
# operation's median time has three samples.
MIN_SAMPLES = 100
MIN_PASSES = 3
# Median of ``calibrate()`` between operations on the host the benchmark was
# written on (2 vCPUs of a shared x86-64 host, CPython 3), so adjusted times
# read close to that host's wall times.
CAL_REF_NS = 400_000
# Calibrations on each side of an operation whose median scales it.  A
# calibration tracks operations in its own process closely, so a narrow
# window follows the host's phases best there; it tracks a child process
# less well, so ``cli`` operations take the median of the whole pass.
CAL_WIDTH = 3


class OpTimeout(Exception):
    """An operation ran past its per-operation cap."""


@dataclass
class Op:
    """One call into the code under test.

    ``name`` is ``<module>.<function>``; ``work`` holds work counters known
    from the inputs, ``out_work`` derives more from the answer.  Both are
    evaluated outside the timing.
    """

    name: str
    fn: Callable[..., Any]
    args: tuple
    check: Callable[[Any], bool]
    work: dict = field(default_factory=dict)
    out_work: Callable[[Any], dict] | None = None
    cap: float = 10.0

    def key(self) -> str:
        """The operation and its inputs; environment mappings left out."""
        inputs = tuple(a for a in self.args if not isinstance(a, dict))
        return f"{self.name}{inputs!r}"


def _on_alarm(signum, frame):
    raise OpTimeout()


def call_capped(fn, args, cap, **kwargs):
    """Run ``fn(*args, **kwargs)`` under a wall-clock cap; returns (result, ns)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        t0 = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter_ns()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return result, t1 - t0


def calibrate() -> int:
    """Nanoseconds of a fixed piece of reference arithmetic, run once to warm
    up and then timed."""
    for _ in range(2):
        t0 = time.perf_counter_ns()
        ref.lex_range(5000, 150, 30, 2, 5)
        ref.borel_iter((3, 7, 11, 15), 2)
        t1 = time.perf_counter_ns()
    return t1 - t0


def speed_scales(cal, width=CAL_WIDTH):
    """Per sample, ``CAL_REF_NS`` over the median of the calibrations within
    ``width`` of it, or of all of them when ``width`` is None."""
    if width is None:
        return [CAL_REF_NS / statistics.median(cal)] * len(cal)
    return [
        CAL_REF_NS / statistics.median(cal[max(0, i - width): i + width + 1])
        for i in range(len(cal))
    ]


def checked(check, result, cap):
    """Apply a checker under the same cap; a raising checker rejects."""
    try:
        return bool(call_capped(check, (result,), cap)[0])
    except Exception:  # a crashing or slow check is a failed answer
        return False


def canon(x):
    """Hashable, process-independent form of an answer (no str, no None)."""
    if x is None:
        return (-1,)
    if isinstance(x, (bool, int)):
        return x
    if isinstance(x, bytes):
        return int.from_bytes(hashlib.blake2b(x, digest_size=8).digest(), "big")
    if isinstance(x, (list, tuple)):
        if x and isinstance(x[0], tuple) and all(isinstance(i, int) for i in x[0]):
            return tuple(x)
        return tuple(canon(e) for e in x)
    if hasattr(x, "gens") and hasattr(x, "ctx"):
        return (x.ctx.n, x.ctx.t, x.gens)
    if hasattr(x, "entries"):
        return tuple(sorted(x.entries.items()))
    if hasattr(x, "corners") and hasattr(x, "values"):
        return (x.corners, x.values)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> int:
    return hash(canon(x))


def sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def clear_caches() -> None:
    """Empty every functools cache found on the ``tspread`` modules."""
    for name, module in list(sys.modules.items()):
        if name == "tspread" or name.startswith("tspread."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@dataclass
class PassResult:
    """One pass; ``ns`` and ``wall_ns`` are adjusted for host speed."""

    ok: list[bool]
    ns: list[float]
    wall_ns: float
    digests: list[int]
    complete: bool
    agg: dict = field(default_factory=dict)
    raw_wall_ns: int = 0
    cal_ns: float = 0.0
    spent: list[float] = field(default_factory=list)


def _trace(agg, op, result):
    slot = agg.setdefault(op.name, {"calls": 0, "busy_ns": 0})
    slot["calls"] += 1
    extra = dict(op.work)
    if op.out_work is not None:
        extra.update(op.out_work(result))
    for k, v in extra.items():
        slot[k] = slot.get(k, 0) + v


def run_pass(ops, deadline, verify=False, trace=False, cal_width=CAL_WIDTH) -> PassResult:
    """One pass over ``ops``; stops early (incomplete) at ``deadline``.

    The pass wall time is the sum over operations of the operation itself
    plus, when tracing, the trace bookkeeping; checking, digesting and
    calibrating are left out.  Without ``verify`` an answer is only
    digested, for comparison with the checked pass.
    """
    clear_caches()
    gc.collect()
    res = PassResult([], [], 0, [], True)
    spent, cal = [], []
    for op in ops:
        if time.monotonic() > deadline:
            res.complete = False
            break
        try:
            result, ns = call_capped(op.fn, op.args, op.cap)
        except Exception:  # timeouts and unexpected errors both fail the op
            res.ok.append(False)
            res.ns.append(int(op.cap * 1e9))
            res.digests.append(None)
            spent.append(int(op.cap * 1e9))
            cal.append(calibrate())
            continue
        res.ns.append(ns)
        if trace:
            t0 = time.perf_counter_ns()
            _trace(res.agg, op, result)
            ns += time.perf_counter_ns() - t0
        spent.append(ns)
        cal.append(calibrate())
        res.digests.append(digest(result))
        res.ok.append(checked(op.check, result, op.cap) if verify else True)
        del result
    scales = speed_scales(cal, cal_width) if cal else []
    res.raw_wall_ns = sum(spent)
    res.spent = [x * k for x, k in zip(spent, scales)]
    res.wall_ns = sum(res.spent)
    res.ns = [x * k for x, k in zip(res.ns, scales)]
    res.cal_ns = statistics.median(cal) if cal else 0.0
    if trace:
        for op, x in zip(ops, res.ns):
            res.agg.setdefault(op.name, {"calls": 0, "busy_ns": 0})["busy_ns"] += x
    return res


def measure(ops, seconds, trace, started, in_process=True, between=None):
    """Timed passes for ``seconds`` seconds, around one checked pass.

    ``between``, when given, is called after every pass, outside the timing.

    In-process workloads run the checked pass last, after the peak memory
    is read, so that the checkers' own memory stays out of it.  The ``cli``
    workload, whose memory is that of its child processes, checks its first
    timed pass instead.  Every answer of every pass must reproduce the
    digest of the checked answer.
    """
    timed_deadline = started + HARD_DEADLINE_S - 40
    width = CAL_WIDTH if in_process else None
    passes, timed, traced = [], [], []
    t_start = time.monotonic()
    while all(p.complete for p in passes):
        elapsed = time.monotonic() - t_start
        enough = traced if trace else (
            len(timed) >= MIN_PASSES and sum(len(p.ns) for p in timed) >= MIN_SAMPLES
        )
        if timed and elapsed >= seconds and enough:
            break
        want_trace = trace and len(traced) < len(timed)
        verify = not in_process and not passes
        p = run_pass(ops, timed_deadline, verify=verify, trace=want_trace, cal_width=width)
        passes.append(p)
        if between is not None:
            between()
        if p.complete:
            (traced if want_trace else timed).append(p)
    if in_process:
        peak = peak_rss_mb(resource.RUSAGE_SELF)
        final = run_pass(ops, started + HARD_DEADLINE_S, verify=True)
        passes.append(final)
    else:
        peak = peak_rss_mb(resource.RUSAGE_CHILDREN)
        final = passes[0]
    failed = 0
    for p in passes:
        for i, ok in enumerate(p.ok):
            good = i < len(final.ok) and final.ok[i] and p.digests[i] == final.digests[i]
            failed += not (ok and good)
        failed += len(ops) - len(p.ok)
    return {
        "timed": timed or [final],
        "traced": traced,
        "final": final,
        "peak_mb": peak,
        "attempted": len(ops) * len(passes),
        "failed": failed,
    }


def list_wall_ns(passes):
    """Wall time of one pass over the list: the sum over operations of each
    operation's median time across ``passes``, so that a single slow sample
    does not move it."""
    return sum(statistics.median(col) for col in zip(*(p.spent for p in passes)))


def quantile(values, q):
    """Linear-interpolation quantile of ``values`` at ``q`` in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(m, setup_s):
    """The end-to-end metrics of one run, from its untraced timed passes."""
    ns = [x for p in m["timed"] for x in p.ns]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (list_wall_ns(m["timed"]) / 1e9, "s"),
        "op_p50_ms": (quantile(ns, 0.5) / 1e6, "ms"),
        "op_p90_ms": (quantile(ns, 0.9) / 1e6, "ms"),
        "peak_rss_mb": (m["peak_mb"], "MB"),
        "ok_frac": (1.0 - m["failed"] / m["attempted"], "frac"),
    }, len(ns)


def child_env(root):
    """Environment of child interpreters: ``tspread`` from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child_times(code, env, runs):
    """Wall times of ``runs`` fresh interpreters running ``code``, in seconds,
    each adjusted for host speed by the calibrations just before and after it.

    The cap is a signal, not a ``timeout=`` argument: with a timeout,
    ``subprocess`` polls for the child's exit with sleeps of up to 50 ms,
    which would round every measurement up to the next poll.
    """
    argv = [sys.executable, "-c", code]
    times = []
    for _ in range(runs):
        cal = [calibrate() for _ in range(CAL_WIDTH)]
        _, ns = call_capped(subprocess.run, (argv,), 30.0, env=env, check=True)
        cal += [calibrate() for _ in range(CAL_WIDTH)]
        times.append(ns * CAL_REF_NS / statistics.median(cal) / 1e9)
    return times
