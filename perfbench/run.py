"""kummerwit benchmark: seeded CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload poly --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, a table
    python3 perfbench/run.py --pin                            # rewrite digests.json

Run from the root of a checkout; the program is imported from ``src``.
The seed fixes a batch of tasks.  ``--trace 0`` runs the batch in rounds
for ``--seconds`` seconds, each round in a fresh interpreter and in a closed
loop (one client, no think time, one process), and reports the end-to-end
metrics from each task's median round.  ``--trace 1`` runs the batch
untraced, with spans, untraced again and counting FF operations, and
reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Spans and per-task digests go to ``.perfbench/`` in the checkout.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3  # rounds per run, however long --seconds is
# Nominal time of worker.reference(), about its median on the machine the
# benchmark was defined on in a fast stretch: end-to-end times are reported
# as if each round's median reference time had been this
REF_S = 0.0006
DEADLINE_S = 170  # a run gives up (and prints no result) after this long

END_TO_END = [("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_p50_ms", "ms"),
              ("task_p90_ms", "ms"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    """The benchmark itself could not run (not a failed task)."""


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "cpu_count": os.cpu_count()}


def start_pass(workload: str, seed: int, mode: str, deadline: float, *extra: str) -> dict:
    """Run one round (worker.py) in a fresh interpreter; its set-up time and
    its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("KUMMERWIT_WORKERS", None)  # the task argv pins --workers 1
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
            raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} ran past the deadline") from None
    finally:
        if proc.poll() is None:  # past the deadline, interrupted or terminated
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def differing(first: dict, res: dict, name: str) -> list:
    """A failure for each task whose stdout differs from the first round's."""
    return [[i, "", f"{name} stdout differs from the first round"]
            for i, (a, b) in enumerate(zip(first["digests"], res["digests"])) if a != b]


def time_metrics(latencies: list[float], setups: list[float]) -> dict:
    """The end-to-end time metrics from per-task latencies and set-up times."""
    return {"setup_s": statistics.median(setups),
            "tasks_per_s": len(latencies) / sum(latencies),
            "task_p50_ms": statistics.median(latencies) * 1000,
            "task_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000}


def speed_scale(res: dict) -> float:
    """Factor that brings a round's times to the reference speed."""
    return REF_S / statistics.median(res["refs_s"])


def task_latencies(rounds: list[dict]) -> list[float]:
    """Each task's median over the rounds, at the reference speed."""
    scales = [speed_scale(res) for res in rounds]
    return [statistics.median(t * k for t, k in zip(times, scales))
            for times in zip(*(res["latencies_s"] for res in rounds))]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end metrics from untraced rounds of the batch.

    Rounds run until the next one would end after ``seconds``, and at least
    MIN_ROUNDS of them.  Every round starts cold in a fresh interpreter, so
    the rounds repeat the same work.  The machine's speed drifts by up to
    1.6 times, for seconds or for minutes, while the work done does not.
    So each round's times are scaled to the reference speed by the median
    time of worker.reference() in that round, and a task's latency is the
    median of its scaled rounds.  The wall-clock figures, from the same
    medians unscaled, go to the run record."""
    start = time.monotonic()
    rounds = [start_pass(workload, seed, "plain", deadline, "--check")]
    while True:
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
        rounds.append(start_pass(workload, seed, "plain", deadline))
    first = rounds[0]
    failures = first["failures"] + [f for k, res in enumerate(rounds[1:], 2)
                                    for f in differing(first, res, f"round {k}")]
    latencies = task_latencies(rounds)
    metrics = time_metrics(latencies, [res["setup_s"] * speed_scale(res) for res in rounds])
    metrics["peak_rss_mb"] = statistics.median(res["peak_rss_mb"] for res in rounds)
    p90 = metrics["task_p90_ms"] / 1000
    wall = time_metrics([statistics.median(times)
                         for times in zip(*(res["latencies_s"] for res in rounds))],
                        [res["setup_s"] for res in rounds])
    return {"metrics": metrics, "units": dict(END_TO_END),
            "attempted": len(latencies) * len(rounds), "failures": failures,
            "digests": first["digests"],
            "wall_clock_metrics": wall,
            "reference_ms": [statistics.median(res["refs_s"]) * 1000 for res in rounds],
            "latencies_ms": [round(x * 1000, 3) for x in latencies],
            "round_latencies_ms": [[round(x * 1000, 3) for x in res["latencies_s"]]
                                   for res in rounds],
            "round_wall_s": [res["wall_s"] for res in rounds],
            "setups_s": [res["setup_s"] for res in rounds],
            "samples": {"tasks": len(latencies), "beyond_p90": sum(x > p90 for x in latencies),
                        "rounds": len(rounds)}}


def measure_layers(workload: str, seed: int, deadline: float) -> dict:
    """Per-layer metrics from untraced, traced and counting rounds.

    The untraced round runs before and after the traced one, and the
    overhead is taken against their mean, so a drift in machine speed
    during the traced round does not read as tracing cost."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv.gz")
    before = start_pass(workload, seed, "plain", deadline, "--check")
    traced = start_pass(workload, seed, "traced", deadline, "--spans-out", spans_path)
    after = start_pass(workload, seed, "plain", deadline)
    counted = start_pass(workload, seed, "counted", deadline)
    failures = before["failures"]
    for name, res in (("traced", traced), ("untraced again", after), ("counting", counted)):
        failures += differing(before, res, f"{name} round")
    untraced_wall = (before["wall_s"] + after["wall_s"]) / 2
    metrics = tracer.per_layer_values(traced["spans"], counted["ff_counts"],
                                      traced["witness_cache_hit_ratio"],
                                      traced["wall_s"] - untraced_wall)
    return {"metrics": metrics, "units": dict(tracer.per_layer_names()),
            "attempted": len(before["digests"]), "failures": failures,
            "digests": before["digests"], "spans_file": os.path.relpath(spans_path, ROOT)}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out = measure_layers(workload, seed, deadline) if trace else measure(
        workload, seed, seconds, deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              **environment(), **out}
    with open(os.path.join(OUT_DIR, f"run-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return out


def result_line(out: dict) -> str:
    failed = len({f[0] for f in out["failures"]})
    return json.dumps({
        "correct": failed == 0, "attempted": out["attempted"], "failed": failed,
        "metrics": {k: {"value": v, "unit": out["units"][k]} for k, v in out["metrics"].items()},
    })


def print_table(results: dict[str, dict]):
    names = list(next(iter(results.values()))["metrics"])
    units = next(iter(results.values()))["units"]
    wls = list(results)
    print(f"{'metric':42s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in wls))
    rows = [(nm, units[nm], [results[w]["metrics"][nm] for w in wls]) for nm in names]
    rows.append(("failed_frac", "ratio",
                 [len({f[0] for f in results[w]["failures"]}) / results[w]["attempted"]
                  for w in wls]))
    if all("wall_clock_metrics" in results[w] for w in wls):
        rows += [(f"{nm} (wall clock)", units[nm],
                  [results[w]["wall_clock_metrics"][nm] for w in wls])
                 for nm in results[wls[0]]["wall_clock_metrics"]]
    for nm, unit, vals in rows:
        print(f"{nm:42s} {unit:6s} " + " ".join(f"{v:12.6g}" for v in vals))
    for w in wls:
        if "samples" in results[w]:
            s = results[w]["samples"]
            print(f"{w}: {s['tasks']} tasks in the batch, {s['beyond_p90']} beyond p90, "
                  f"{s['rounds']} rounds")
        for f in results[w]["failures"][:5]:
            print(f"{w}: FAILED task {f[0]}: {f[2]}: {f[1]}")


def pin():
    """Run every workload's batch at the pinned seed and store its digests."""
    pinned = {}
    for wl in workloads.WORKLOADS:
        res = start_pass(wl, checks.PINNED_SEED, "plain", time.monotonic() + DEADLINE_S,
                         "--check", "--no-pinned")
        if res["failures"]:
            raise BenchError(f"{wl}: {len(res['failures'])} tasks failed; nothing pinned")
        pinned[wl] = res["digests"]
        print(f"{wl}: pinned {len(pinned[wl])} digests")
    with open(checks.DIGESTS_FILE, "w") as fh:
        json.dump(pinned, fh, indent=0)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=checks.PINNED_SEED)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="rewrite digests.json and exit")
    args = ap.parse_args()
    # a terminated run unwinds like an interrupted one, stopping its round
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.exists(os.path.join(ROOT, "src", "kummerwit", "cli.py")):
        print(f"error: no kummerwit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            pin()
            return 0
        if args.workload != "all":
            print(result_line(run_workload(args.workload, args.seed, args.seconds, args.trace)))
            return 0
        results = {wl: run_workload(wl, args.seed, args.seconds, args.trace)
                   for wl in workloads.WORKLOADS}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print_table(results)
    print(json.dumps({wl: json.loads(result_line(out)) for wl, out in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
