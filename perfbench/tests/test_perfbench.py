"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench/tests -q"""

import json
import os
import sys
import time
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _pass(workload, mode, tasks, *extra):
    return run.start_pass(workload, 3, mode, time.monotonic() + 150, "--tasks", str(tasks), *extra)


def test_latencies_are_scaled_to_the_reference_speed():
    fast = {"latencies_s": [0.010, 0.030], "refs_s": [run.REF_S] * 3}
    slow = {"latencies_s": [0.024, 0.050], "refs_s": [2 * run.REF_S] * 3}
    lucky = {"latencies_s": [0.004, 0.010], "refs_s": [run.REF_S] * 3}
    assert run.task_latencies([fast, slow, lucky]) == pytest.approx([0.010, 0.025])


def test_rounds_that_differ_are_failures():
    first = {"digests": ["a", "b", "c"]}
    assert run.differing(first, {"digests": ["a", "b", "c"]}, "round 2") == []
    assert [f[0] for f in run.differing(first, {"digests": ["a", "x", "c"]}, "round 2")] == [1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [t["argv"] for t in workloads.generate(workload, 7)]
    again = [t["argv"] for t in workloads.generate(workload, 7)]
    other = [t["argv"] for t in workloads.generate(workload, 8)]
    assert first == again
    assert first != other
    assert len(first) == 100
    assert all(argv[:2] == ["--workers", "1"] for argv in first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_runs_the_same_mix(workload):
    def mix(seed):
        return Counter(t["kind"] for t in workloads.generate(workload, seed))
    assert mix(1) == mix(2) == mix(3)


def test_balance_scans_every_fresh_prime():
    def scanned(seed):
        return {t["meta"]["m"] for t in workloads.generate("balance", seed)
                if t["kind"] == "balanced" and t["meta"]["m"] in workloads._FRESH_PRIMES}
    assert len(workloads._FRESH_PRIMES) == 14
    assert scanned(1) == scanned(2) == set(workloads._FRESH_PRIMES)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.per_layer_names()


def test_point_check_uses_the_curve_equation():
    assert checks.point_on_curve("(1*s; 1*s^2+1*s)", 3, 2)
    assert checks.point_on_curve("(2*s^2+1/1*s+2; 1*s)", 3, 2) is False
    assert checks.point_on_curve("O", 5, 3)


def test_semantic_checks_reject_bad_output():
    task = workloads.generate("poly", 1)[0]
    assert checks.semantic_failure(task, 2, "") == "exit code 2"
    assert checks.semantic_failure(task, 0, "not json").startswith("unreadable output")


@pytest.mark.parametrize("workload,tasks", [("poly", 12), ("curve", 12), ("balance", 14)])
def test_traced_and_untraced_stdout_match(workload, tasks):
    plain = _pass(workload, "plain", tasks, "--check")
    traced = _pass(workload, "traced", tasks)
    counted = _pass(workload, "counted", tasks)
    assert plain["failures"] == []
    assert len(plain["digests"]) == tasks
    assert traced["digests"] == plain["digests"] == counted["digests"]


def test_balance_bypasses_base_algebra():
    traced = _pass("balance", "traced", 14)
    counted = _pass("balance", "counted", 14)
    values = tracer.per_layer_values(traced["spans"], counted["ff_counts"], 0.0, 0.0)
    poly_calls = {k: v for k, v in values.items() if k.startswith("poly.") and ".calls" in k}
    assert poly_calls and not any(poly_calls.values())
    assert values["characters.scan.calls"] > 0
    assert not any(values[f"fields.{c}.calls"] for c in ("ff_alloc", "ff_mul", "ff_addsub",
                                                          "ff_inv"))


def test_spans_catch_calls_made_inside_the_library():
    # stabilize reaches point_search through a module-level name inside
    # curve_ff, and the router calls is_balanced through rank_engine's import
    tasks = workloads.generate("curve", 3)
    n = next(i for i, t in enumerate(tasks) if t["kind"] == "stabilize") + 1
    calls = _pass("curve", "traced", n)["spans"]["calls"]
    stabilize = sum(t["kind"] == "stabilize" for t in tasks[:n])
    search = sum(t["kind"] == "search" for t in tasks[:n])
    assert calls["curve.search"] >= search + 2 * stabilize
    assert calls["cli"] == n
