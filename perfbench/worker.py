"""One round of a benchmark run in a fresh interpreter; started by run.py.

The round imports kummerwit from the checkout's ``src``, builds the
workload's field contexts, generates the seeded task batch and prints
``ready``: that is the set-up.  Then it runs the batch (or its first
``--tasks`` tasks) one task after another in this process, by mode:
``plain`` untraced, ``traced`` with spans, or ``counted`` with FF operation
counters.

Each task is one in-process ``kummerwit.cli.dispatch(argv)`` call with
stdout and stderr captured.  Before each task the round times ``reference``,
a fixed piece of pure-Python work that reads the machine's speed at that
moment.  After the loop the round reads its peak RSS, digests every output
and, with ``--check``, runs the output checks; then it prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class _Residue:
    """An element of F_7, boxed as the program boxes its field elements."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % 7

    def __add__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.v + other.v)

    def __mul__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.v * other.v)


def reference() -> None:
    """Fixed work in the program's style: a schoolbook product of two boxed
    polynomials, sums of integer tuples as in cyclotomic arithmetic, and a
    dict of tuple keys.  It never changes with the program, so its time
    tracks only the machine's speed."""
    a = [_Residue(i * i + 3) for i in range(20)]
    b = [_Residue(5 * i + 1) for i in range(20)]
    out = [_Residue(0)] * 39
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    vec = tuple(range(96))
    for k in range(16):
        vec = tuple((u + k * v) % 1_000_003 for u, v in zip(vec, reversed(vec)))
    table = {}
    for k in range(300):
        table[k, k % 7] = [k] * 3


def timed_reference(clock) -> float:
    """Time of one reference() call, with the collector off so that the
    program's heap does not add its collections to the reading."""
    gc.disable()
    try:
        t0 = clock()
        reference()
        return clock() - t0
    finally:
        gc.enable()


def run_task(dispatch, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = dispatch(list(argv))
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed task, not a failed benchmark
            return -1, traceback.format_exc()
    return rc, out.getvalue()


def check(tasks: list[dict], runs: list[tuple], pinned: list[str]) -> list:
    """Failures among runs of (latency, rc, stdout), task by task."""
    failures = []
    for i, (task, (_, rc, stdout)) in enumerate(zip(tasks, runs)):
        why = checks.semantic_failure(task, rc, stdout)
        if why is None and i < len(pinned) and pinned[i] != checks.digest(rc, stdout):
            why = "stdout digest differs from the pinned digest"
        if why is not None:
            failures.append([i, " ".join(task["argv"]), why])
    return failures


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("plain", "traced", "counted"))
    ap.add_argument("--tasks", type=int, default=0, help="run only this many (0: all)")
    ap.add_argument("--check", action="store_true", help="run the output checks")
    ap.add_argument("--no-pinned", action="store_true",
                    help="skip the pinned-digest comparison (used when pinning)")
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args()

    import kummerwit.cli
    from kummerwit.base_algebra import field_ctx
    for p, a in workloads.field_contexts(args.workload):
        field_ctx(p, a)
    tasks = workloads.generate(args.workload, args.seed)
    if args.tasks:
        tasks = tasks[:args.tasks]
    print("ready", flush=True)

    spans = ff_counts = None
    if args.mode == "traced":
        spans = tracing.Tracer()
        tracing.install_spans(spans)
    elif args.mode == "counted":
        ff_counts = Counter()
        tracing.install_counters(ff_counts)
    dispatch = kummerwit.cli.dispatch  # looked up after install: the "cli" span

    runs, refs = [], []
    clock = time.perf_counter
    start = clock()
    for i, task in enumerate(tasks):
        if spans is not None:
            spans.current_task = i
        refs.append(timed_reference(clock))
        t0 = clock()
        rc, stdout = run_task(dispatch, task["argv"])
        runs.append((clock() - t0, rc, stdout))
    wall = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    if args.check:
        pinned = [] if args.no_pinned else checks.pinned_digests(args.workload, args.seed)
        failures = check(tasks, runs, pinned)
    result = {"wall_s": wall, "latencies_s": [r[0] for r in runs], "refs_s": refs,
              "peak_rss_mb": peak_rss_mb,
              "digests": [checks.digest(rc, stdout) for _, rc, stdout in runs],
              "failures": failures}
    if spans is not None:
        result["spans"] = spans.summary()
        result["witness_cache_hit_ratio"] = tracing.witness_cache_hit_ratio()
        if args.spans_out:
            spans.write(args.spans_out)
    if ff_counts is not None:
        result["ff_counts"] = dict(ff_counts)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
