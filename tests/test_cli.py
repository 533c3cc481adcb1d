import json
import pathlib
import re
import shlex
import time
from types import SimpleNamespace

import pytest

from kummerwit import curve_ff, family, kummer_local, rank_engine, witnesses
from kummerwit.base_algebra import (Poly, field_ctx, parse_place, parse_poly, parse_ratfunc,
                                    places)
from kummerwit.base_algebra.intarith import is_prime
from kummerwit.base_algebra.poly import DEGREE_MAX
from kummerwit.base_algebra.places import TOWER_DEGREE_MAX
from kummerwit.characters import BALANCE_MODULUS_MAX, UNIT_GROUP_MAX
from kummerwit.cli import build_parser, dispatch
from kummerwit.curve_ff import SEARCH_CANDIDATES_MAX, _candidate_count
from kummerwit.errors import WorkBound
from kummerwit.rank_engine import RANK_MODULUS_BITS_MAX, RANK_PRIME_MAX, find_q, find_r


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out.strip()
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_search_primes_golden(capsys):
    code, recs = run_cli(capsys, "search-primes", "-p", "3", "--count", "2")
    assert code == 0
    assert [(r["r"], r["q"]) for r in recs] == [(11, 7), (23, 5)]


def test_search_primes_byte_stable(capsys):
    dispatch(["search-primes", "-p", "3", "--count", "1"])
    first = capsys.readouterr().out
    dispatch(["search-primes", "-p", "3", "--count", "1"])
    second = capsys.readouterr().out
    assert first == second
    assert first.strip() == '{"p": 3, "q": 7, "r": 11, "schema": 1}'


def test_rank_record(capsys):
    code, recs = run_cli(capsys, "rank", "-p", "3", "-a", "1", "-q", "7",
                         "-r", "11", "-n", "0")
    assert code == 0
    assert recs[0]["rank"] == 1
    assert recs[0]["divisors"][1] == {"balanced": True, "e": 7,
                                      "excluded": False, "index": 1}


def test_balanced_modes(capsys):
    code, recs = run_cli(capsys, "balanced", "3", "11", "--mode", "both")
    assert code == 0
    assert recs[0]["balanced"] is False and recs[0]["fast"] is False
    assert recs[0]["witness_character"] is not None

    code, recs = run_cli(capsys, "balanced", "3", "7", "--mode", "fast")
    assert code == 0 and recs[0]["balanced"] is True

    code, recs = run_cli(capsys, "balanced", "3", "35", "--mode", "fast")
    assert code == 0 and recs[0]["balanced"] is None


def test_kummer_case_record(capsys):
    code, recs = run_cli(capsys, "kummer", "case", "-p", "7", "-l", "3",
                         "--place", "1*s", "--b", "3")
    assert code == 0
    assert recs[0]["case"] == "inert_degree_l"


def test_curve_subcommands(capsys):
    code, recs = run_cli(capsys, "curve", "j", "-p", "3", "-N", "1")
    assert code == 0 and "j" in recs[0]

    code, recs = run_cli(capsys, "curve", "search", "-p", "3", "-N", "2",
                         "--num-deg", "1", "--den-deg", "0")
    assert code == 0
    assert "(1*s; 1*s^2+1*s)" in recs[0]["points"]

    code, recs = run_cli(capsys, "curve", "mul", "-p", "3", "-N", "2", "-k", "2",
                         "--P", "(1*s; 1*s^2+1*s)")
    assert code == 0 and recs[0]["result"] == "(0; 0)"


def test_tower_records(capsys):
    code, recs = run_cli(capsys, "tower", "factor", "-p", "3",
                         "--place", "1*s+2", "-r", "11", "-n", "1")
    assert code == 0
    assert sorted((e["e"], e["f"]) for e in recs[0]["above"]) == [(1, 1), (1, 5), (1, 5)]

    code, recs = run_cli(capsys, "tower", "bounded", "-p", "3",
                         "--place", "inf", "-r", "11", "-l", "5", "--n-max", "3")
    assert code == 0 and recs[0]["bounded"] is True


def test_witness_subcommands(capsys):
    code, recs = run_cli(capsys, "witness", "inject", "-p", "3",
                         "--A", "0;1", "--B", "1*s;1*s+1;1*s^2")
    assert code == 0 and recs[0]["verified"] is True and recs[0]["disjunct"] == "tuple"

    code, recs = run_cli(capsys, "witness", "gamma-times", "-p", "3",
                         "--F1", "0;1", "--F2", "0;1*s")
    assert code == 0 and len(recs[0]["product_set"]) == 4

    code, recs = run_cli(capsys, "witness", "axioms", "-p", "3", "-n", "2", "-m", "3")
    assert code == 0 and recs[0]["passed"] is True


def test_family_subcommands(capsys):
    code, recs = run_cli(capsys, "family", "poly-powers", "-p", "3",
                         "--f", "1*s+1", "-n", "2")
    assert code == 0 and recs[0]["fbar"] == "1*s+2" and recs[0]["product"] == "1*s^2+2"

    code, recs = run_cli(capsys, "family", "grow", "-p", "3", "-N", "2",
                         "--point", "(1*s; 1*s^2+1*s)", "--target", "3")
    assert code == 0 and len(recs[0]["members"]) >= 3


def test_verify_quick(capsys):
    code, recs = run_cli(capsys, "verify", "--suite", "quick", "-p", "3")
    assert code == 0
    assert recs[0]["ok"] is True
    assert recs[0]["rank"] == {"C_a": 1, "bounded": True, "constant": True}


@pytest.mark.parametrize("suite", ["quick", "full"])
def test_verify_decides_the_rank_at_level_zero_only(capsys, monkeypatch, suite):
    """The rank stage computes the formula once, at n = 0; constancy at
    every level comes from two order-rule decisions (rank_constancy_check)."""
    levels = []
    formula = rank_engine.rank_formula

    def spy(p, a, q, r, n):
        levels.append(n)
        return formula(p, a, q, r, n)
    monkeypatch.setattr(rank_engine, "rank_formula", spy)
    code, recs = run_cli(capsys, "verify", "--suite", suite, "-p", "3")
    assert code == 0 and recs[0]["rank"]["constant"] is True and levels == [0]


def _verify_quick_record(capsys) -> dict:
    """The record of a passing quick verify at p = 3, without its "ok"."""
    code, recs = run_cli(capsys, "verify", "--suite", "quick", "-p", "3")
    assert code == 0 and recs[0].pop("ok") is True
    return recs[0]


def test_verify_rank_failure_stops_the_pipeline(capsys, monkeypatch):
    passing = _verify_quick_record(capsys)
    monkeypatch.setattr(rank_engine, "rank_constancy_check", lambda *args: (1, False, True))
    code, recs = run_cli(capsys, "verify", "--suite", "quick", "-p", "3")
    assert code == 1
    assert recs == [{"schema": 1, "p": 3, "suite": "quick", "r": passing["r"], "q": passing["q"],
                     "rank": {"C_a": 1, "constant": False, "bounded": True},
                     "failed_stage": "rank"}]


def test_verify_witness_failure_is_reported(capsys, monkeypatch):
    passing = _verify_quick_record(capsys)
    monkeypatch.setattr(witnesses, "axiom_instance_check",
                        lambda *args: SimpleNamespace(passed=False))
    code, recs = run_cli(capsys, "verify", "--suite", "quick", "-p", "3")
    assert code == 1
    assert recs == [{**passing, "axioms": False, "failed_stage": "witnesses"}]


def test_verify_library_error_names_its_stage(capsys, monkeypatch):
    passing = _verify_quick_record(capsys)

    def refuse(*args, **kwargs):
        raise WorkBound("search refused")
    monkeypatch.setattr(curve_ff, "point_search", refuse)
    code, recs = run_cli(capsys, "verify", "--suite", "quick", "-p", "3")
    assert code == 1
    assert recs == [{"schema": 1, "p": 3, "suite": "quick", "r": passing["r"], "q": passing["q"],
                     "rank": passing["rank"], "failed_stage": "WorkBound",
                     "detail": "search refused"}]


def test_family_short_of_target_is_an_error(capsys, monkeypatch):
    """A family below --target means the point is torsion: family grow exits
    2 with one error: line, and verify names DistinctnessFailure as its
    failed stage (reached on N = 5, r = 23, whose search finds non-torsion
    points)."""
    def short(lam, curve, bound):
        zero = Poly.zero(curve.ctx)
        return family.FamilyResult(lam, curve.N, bound, [zero], {zero: zero})
    monkeypatch.setattr(family, "family_members", short)
    assert dispatch(["family", "grow", "-p", "3", "-N", "2", "--point", "(1*s; 1*s^2+1*s)",
                     "--target", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: DistinctnessFailure: ") and err.count("\n") == 1
    monkeypatch.setattr(rank_engine, "find_r", lambda p, count: [23])
    code, recs = run_cli(capsys, "verify", "--suite", "quick", "-p", "3",
                         "--num-deg", "6", "--den-deg", "2")
    assert code == 1 and recs[0]["failed_stage"] == "DistinctnessFailure", recs


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["rank", "-p", "4", "-a", "1", "-q", "7", "-r", "11", "-n", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        dispatch(["no-such-command"])
    capsys.readouterr()
    # domain errors from the library surface as exit code 2
    code = dispatch(["balanced", "3", "9"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["search-primes", "-p", "3", "--count", "-1"],
    ["tower", "bounded", "-p", "3", "--place", "1*s+1", "-r", "5", "-l", "7", "--n-max", "-1"],
    ["balanced", "3", "2", "--mode", "fast"],
    ["balanced", "3", "-7", "--mode", "fast"],
    ["family", "members", "-p", "3", "-N", "2", "--deg-bound", "-1"],
])
def test_out_of_range_arguments_exit_2(capsys, argv):
    # each is refused before any work: no hang, no deep recursion, no null verdict
    assert dispatch(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["tower", "factor", "-p", "5", "--place", "1*s+1", "-r", "3", "-n", "8"],
    ["tower", "bounded", "-p", "5", "--place", "1*s+1", "-r", "3", "-l", "7", "--n-max", "8"],
])
def test_tower_work_bound_exit_2(capsys, argv):
    # degree 3^8 is above the cap: refused before composing, one error line
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: WorkBound: ") and err.count("\n") == 1, err


def test_balance_witness_work_bound_exit_2(capsys):
    # the coset count decides m = 10000019 (unbalanced); naming the witness
    # would build a unit group of 10^7 entries, so it is refused
    start = time.perf_counter()
    assert dispatch(["balanced", "3", "10000019"]) == 2
    assert time.perf_counter() - start < 10
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: WorkBound: ") and err.count("\n") == 1, err


def test_golden_and_benchmark_moduli_under_unit_group_cap():
    from perfbench import workloads
    from tests.test_golden_cli import GOLDEN
    argvs = [row["argv"] for row in GOLDEN]
    argvs += [task["argv"][2:] for seed in range(5) for task in workloads.generate("balance", seed)]
    moduli = [int(argv[2]) for argv in argvs if argv[0] == "balanced"]
    assert len(moduli) > 200 and max(moduli) <= UNIT_GROUP_MAX


def _golden_and_benchmark_argvs(workload: str) -> list[list[str]]:
    from perfbench import workloads
    from tests.test_golden_cli import GOLDEN
    tasks = [task for seed in range(5) for task in workloads.generate(workload, seed)]
    return [row["argv"] for row in GOLDEN] + [task["argv"][2:] for task in tasks]


def _balance_moduli(args) -> list[int]:
    """The largest modulus parsed args can hand is_balanced: m itself,
    q*r^n, of which every modulus the rank formula decides is a divisor, or
    for verify q*r, the larger of its two constancy decisions."""
    if args.command == "balanced":
        return [args.m]
    if args.command == "rank":
        return [args.q * args.r ** args.n]
    if args.command == "verify":
        r = find_r(args.p, 1)[0]
        return [find_q(args.p, r) * r]
    return []


def test_golden_and_benchmark_moduli_under_balance_cap(capsys):
    """is_balanced decides every modulus of the golden records, of perfbench
    seeds 0-4 and of test_balance_witness_work_bound_exit_2, and refuses
    the next one up before allocating."""
    argvs = _golden_and_benchmark_argvs("balance") + _golden_and_benchmark_argvs("curve")
    parser = build_parser()
    moduli = [m for argv in argvs for m in _balance_moduli(parser.parse_args(argv))]
    assert len(moduli) > 500 and max(moduli) < 10000019 == BALANCE_MODULUS_MAX
    start = time.perf_counter()
    assert dispatch(["balanced", "3", str(BALANCE_MODULUS_MAX + 2)]) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: WorkBound: ") and "balance cap" in err, err


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@pytest.mark.parametrize("p,q,r,n,cap", [
    (3, 7, 11, 1000, "512 bits"),                   # unbounded before the cap
    (3, 7, 11, 148, "512 bits"),                    # 7*11^148 has 515 bits
    (3, _next_prime(2 ** 40), 11, 0, "prime cap"),
    (3, 7, _next_prime(2 ** 40), 0, "prime cap"),
])
def test_rank_refuses_oversized_levels_at_once(capsys, p, q, r, n, cap):
    """rank exits 2 before any order is taken when q*r^n has more than
    RANK_MODULUS_BITS_MAX bits, or when q or r exceeds RANK_PRIME_MAX."""
    start = time.perf_counter()
    assert dispatch(["rank", "-p", str(p), "-a", "1", "-q", str(q), "-r", str(r),
                     "-n", str(n)]) == 2
    assert time.perf_counter() - start < 0.2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: WorkBound: ") and cap in err, err


@pytest.mark.parametrize("p,q,r,n", [
    (5, 3, _next_prime(10 ** 7 // 3), 1),
    (3, _next_prime(2 ** 39), _next_prime(_next_prime(2 ** 39) + 1), 1),
    (5, 3, 3333331, 23),
])
def test_rank_decides_levels_past_the_balance_cap(capsys, p, q, r, n):
    """Orders decide every divisor, so q*r above BALANCE_MODULUS_MAX (the
    first two) no longer bounds rank.  (5, 1, 3, 3333331, 23), with q*r just
    below it, took over 30 s by coset counts; its record is the one they
    gave: only e = 3 is balanced, with index 1, and every e > 3 has index 10."""
    start = time.perf_counter()
    code, recs = run_cli(capsys, "rank", "-p", str(p), "-a", "1", "-q", str(q), "-r", str(r),
                         "-n", str(n))
    assert code == 0 and time.perf_counter() - start < 0.5
    if r == 3333331:
        divisors = sorted(q ** i * r ** j for i in (0, 1) for j in range(n + 1))
        assert recs == [{"schema": 1, "p": 5, "a": 1, "q": 3, "r": r, "n": 23, "rank": 1,
                         "divisors": [{"e": e, "balanced": e == 3, "excluded": e == 1,
                                       "index": 0 if e == 1 else 1 if e == 3 else 10}
                                      for e in divisors]}]


def test_rank_cap_boundary(capsys):
    """7*11^147 has 512 bits, the most the cap allows, and is decided; the
    balance workload's largest q*r^n, 3*43^4, is far below it."""
    assert (7 * 11 ** 147).bit_length() == RANK_MODULUS_BITS_MAX
    assert RANK_PRIME_MAX == 2 ** 40 and (3 * 43 ** 4).bit_length() < 25
    code, recs = run_cli(capsys, "rank", "-p", "3", "-a", "1", "-q", "7", "-r", "11",
                         "-n", "147")
    assert code == 0 and recs[0]["rank"] == 1 and len(recs[0]["divisors"]) == 296


def _search_bounds(args) -> list[tuple[int, int, int]]:
    """(q, num_deg, den_deg) of every point search whose bounds parsed args
    fix: curve search, each stabilize level, family members and verify's
    search."""
    action = getattr(args, "action", None)
    if args.command not in ("curve", "family", "verify"):
        return []
    q = args.p ** getattr(args, "a", 1)
    if args.command == "verify" or (args.command, action) == ("curve", "search"):
        return [(q, args.num_deg, args.den_deg)]
    if (args.command, action) == ("curve", "stabilize"):
        return [(q, args.num_deg * args.r ** n, args.den_deg * args.r ** n)
                for n in range(args.n_max + 1)]
    if (args.command, action) == ("family", "members"):
        d = parse_poly(args.lam, field_ctx(args.p, args.a)).degree()
        return [(q, args.deg_bound - d + 2 * (d // 3), 2 * (d // 3))]
    return []


def test_golden_and_benchmark_searches_under_candidate_cap(capsys):
    """Every golden and perfbench (seeds 0-4) search stays under the
    candidate cap; family grow's bounds follow from its multiples, so its
    argvs are run."""
    argvs = _golden_and_benchmark_argvs("curve")
    parser = build_parser()
    bounds = [b for argv in argvs for b in _search_bounds(parser.parse_args(argv))]
    assert len(bounds) > 300
    assert max(_candidate_count(*b) for b in bounds) <= SEARCH_CANDIDATES_MAX
    grows = [argv for argv in argvs if argv[:2] == ["family", "grow"]]
    assert len(grows) > 40 and all(dispatch(argv) == 0 for argv in grows)


@pytest.mark.parametrize("argv", [
    ["curve", "search", "-p", "3", "-N", "5", "--num-deg", "20", "--den-deg", "6"],
    ["curve", "stabilize", "-p", "3", "-q", "5", "-r", "7", "--n-max", "2",
     "--num-deg", "1", "--den-deg", "0"],
    ["curve", "search", "-p", "3", "-N", "5", "--num-deg", "1000000000", "--den-deg", "0"],
    ["family", "members", "-p", "3", "-N", "2", "--lambda", "1*s", "--deg-bound", "40"],
])
def test_search_work_bound_exit_2(capsys, argv):
    # above SEARCH_CANDIDATES_MAX: refused at once (stabilize at level 2)
    start = time.perf_counter()
    assert dispatch(argv) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: WorkBound: ") and err.count("\n") == 1, err


def test_tower_factor_refuses_before_testing_irreducibility(capsys, monkeypatch):
    # 200 * 11 > TOWER_DEGREE_MAX: refused on the literal's degree alone
    def never(f):
        raise AssertionError("is_irreducible ran")
    monkeypatch.setattr(places, "is_irreducible", never)
    assert dispatch(["tower", "factor", "-p", "3", "--place", "1*s^200+1*s+2",
                     "-r", "11", "-n", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: WorkBound: ") and err.count("\n") == 1, err


def test_tower_work_bound_accepts_the_cap(capsys):
    code, recs = run_cli(capsys, "tower", "factor", "-p", "5", "--place", "1*s+1",
                         "-r", "3", "-n", "7")
    assert code == 0
    assert sum(a["e"] * a["f"] for a in recs[0]["above"]) == 3 ** 7 == TOWER_DEGREE_MAX


@pytest.mark.parametrize("argv", [
    ["kummer", "case", "-p", "7", "-l", "3", "--place", "1*s", "--b", "3/0"],
    ["curve", "mul", "-p", "3", "-N", "2", "--P", "(1*s/0;1)", "-k", "2"],
    ["family", "grow", "-p", "3", "-N", "2", "--point", "(1*s/0;1*s)", "--target", "2"],
])
def test_zero_denominator_literal_exit_2(capsys, argv):
    # bad input, not a verifier's false: one error line and no output
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert "zero denominator" in err


def test_tsv_format(capsys):
    code = dispatch(["--format", "tsv", "search-primes", "-p", "3", "--count", "1"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    fields = dict(part.split("=", 1) for part in out.split("\t"))
    assert json.loads(fields["r"]) == 11 and json.loads(fields["q"]) == 7


def test_workers_env_default(monkeypatch):
    from kummerwit.cli import build_parser
    monkeypatch.setenv("KUMMERWIT_WORKERS", "3")
    args = build_parser().parse_args(["search-primes", "-p", "3"])
    assert args.workers == 3
    monkeypatch.delenv("KUMMERWIT_WORKERS")
    args = build_parser().parse_args(["search-primes", "-p", "3"])
    assert args.workers == 1


def test_workers_out_of_range_rejected_before_work(capsys, monkeypatch):
    import os

    from kummerwit import curve_ff

    def no_work(*args, **kwargs):
        raise AssertionError("work started despite an invalid worker count")

    monkeypatch.setattr(curve_ff, "point_search", no_work)
    monkeypatch.setattr(curve_ff, "ProcessPoolExecutor", no_work)
    for workers in (0, (os.cpu_count() or 1) + 1):
        with pytest.raises(SystemExit) as exc:
            dispatch(["--workers", str(workers), "curve", "search", "-p", "3",
                      "-N", "5", "--num-deg", "2", "--den-deg", "1"])
        assert exc.value.code == 2
        assert f"--workers {workers}" in capsys.readouterr().err


def test_dispatch_reads_workers_env_on_every_call(capsys, monkeypatch):
    import os

    monkeypatch.setenv("KUMMERWIT_WORKERS", "1")
    assert dispatch(["balanced", "3", "7"]) == 0
    too_many = (os.cpu_count() or 1) + 1
    monkeypatch.setenv("KUMMERWIT_WORKERS", str(too_many))
    with pytest.raises(SystemExit) as exc:
        dispatch(["balanced", "3", "7"])
    assert exc.value.code == 2
    assert f"--workers {too_many}" in capsys.readouterr().err


def test_kummer_descend_cli(capsys):
    code, recs = run_cli(capsys, "kummer", "descend", "-p", "7", "-l", "3",
                         "--place", "1*s", "--vals", "b=1,x=2", "--label", "b")
    assert code == 0
    assert recs[0]["vals"] == {"b": 3, "x": 6} and recs[0]["e_total"] == 3

    # ambiguous valuation needs an explicit branch
    code, recs = run_cli(capsys, "kummer", "descend", "-p", "7", "-l", "3",
                         "--place", "1*s", "--vals", "b=3", "--label", "b",
                         "--case", "inert_degree_l")
    assert code == 0 and recs[0]["Q"] == 343


_LEMMA_INPUTS = {"x": [("x", "--x", "1*s"), ("b", "--in-b", "1*s+2"), ("c", "--c", "3")],
                 "d": [("x", "--x", "1*s"), ("d", "--d", "1*s+2"), ("a", "--a-elem", "3")]}


@pytest.mark.parametrize("missing", range(3))
@pytest.mark.parametrize("lemma", ["obstruction_x", "divisibility_x",
                                   "obstruction_d", "divisibility_d"])
def test_verify_lemma_missing_input_exit_2(capsys, lemma, missing):
    inputs = _LEMMA_INPUTS[lemma[-1]]
    label = inputs[missing][0]
    given = inputs[:missing] + inputs[missing + 1:]
    argv = ["kummer", "verify-lemma", "-p", "7", "-l", "3", "--place", "1*s+6",
            "--lemma", lemma]
    assert dispatch(argv + [part for _, flag, lit in inputs for part in (flag, lit)]) == 0
    capsys.readouterr()
    assert dispatch(argv + [part for _, flag, lit in given for part in (flag, lit)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {lemma} needs the inputs {label}\n", err
    ctx = field_ctx(7, 1)
    with pytest.raises(ValueError, match=f"needs the inputs {label}$"):
        kummer_local.verify_descent_lemma(
            lemma, {name: parse_ratfunc(lit, ctx) for name, _, lit in given}, 3,
            parse_place("1*s+6", ctx), ctx)


@pytest.mark.parametrize("flags, error", [
    (["--lemma", "divisibility_x", "--x", "1/1*s", "--in-b", "1*s+2", "--c", "3"],
     "PoleViolation: place is a pole of x"),
    (["--lemma", "divisibility_d", "--x", "1*s+1", "--d", "1/1*s", "--a-elem", "3"],
     "PoleViolation: place is a pole of d"),
    (["--lemma", "obstruction_x", "--x", "1*s", "--in-b", "0", "--c", "3"],
     "ZeroInput: b must be nonzero"),
    (["--lemma", "divisibility_d", "--x", "1*s", "--d", "1*s+2", "--a-elem", "0"],
     "ZeroInput: a must be nonzero"),
])
def test_verify_lemma_bad_input_exit_2(capsys, flags, error):
    argv = ["kummer", "verify-lemma", "-p", "7", "-l", "3", "--place", "1*s"]
    assert dispatch(argv + flags) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {error}\n", err


@pytest.mark.parametrize("flags", [
    ["--lemma", "obstruction_x", "--x", "1*s", "--in-b", "1*s", "--c", "1*s"],
    ["--lemma", "obstruction_d", "--x", "1*s^2", "--d", "1*s", "--a-elem", "1*s"],
])
def test_verify_lemma_unit_off_valuation_zero_exit_0(capsys, flags):
    """A unit of valuation -1 at infinity fails the hypotheses and gives a
    record, not an UntrackedLabel error."""
    code, recs = run_cli(capsys, "kummer", "verify-lemma", "-p", "7", "-l", "3",
                         "--place", "inf", *flags)
    assert code == 0
    assert recs[0]["hypotheses_hold"] is False and recs[0]["conclusion_holds"] is False
    assert recs[0]["hypotheses"]["unit_not_lth_power"] is False


def test_family_default_exponent_is_searched_q(capsys):
    code, recs = run_cli(capsys, "family", "members", "-p", "3",
                         "--lambda", "1", "--deg-bound", "0")
    assert code == 0 and recs[0]["curve_exponent"] == 7


def test_stabilize_refuses_before_it_searches(capsys, monkeypatch):
    # levels 0 and 1 are within the candidate cap and level 2 is not: nothing is searched
    def no_search(*args, **kwargs):
        raise AssertionError("point_search called before every level was checked")
    monkeypatch.setattr(curve_ff, "point_search", no_search)
    start = time.perf_counter()
    assert dispatch(["curve", "stabilize", "-p", "3", "-a", "1", "-q", "11", "-r", "2",
                     "--n-max", "2", "--num-deg", "6", "--den-deg", "2"]) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: WorkBound: ") and "(24, 8)" in err, err


def _dense_degrees(args, argv) -> list[int]:
    """Every degree the degree cap sees for parsed args: the exponents of the
    literals, the curve exponent of each curve, deg f * n of poly-powers."""
    out = [int(k) for text in argv for k in re.findall(r"s\^(\d+)", text)]
    if getattr(args, "N", None) is not None:
        out.append(args.N)
    if getattr(args, "action", None) == "stabilize":
        out += [args.q * args.r ** n for n in range(args.n_max + 1)]
    if getattr(args, "action", None) == "poly-powers":
        out.append(parse_poly(args.f, field_ctx(args.p, args.a or 1)).degree() * args.n)
    return out


def test_golden_and_benchmark_degrees_under_degree_cap():
    """Every golden and perfbench (seeds 0-4) degree stays under the cap, which
    also lets a printed 32P of the golden curve mul point parse back
    (deg y(32P) = 5,532)."""
    parser = build_parser()
    argvs = [argv for w in ("poly", "curve", "balance") for argv in _golden_and_benchmark_argvs(w)]
    degrees = [k for argv in argvs for k in _dense_degrees(parser.parse_args(argv), argv)]
    assert len(degrees) > 1000 and max(degrees) <= DEGREE_MAX
    assert DEGREE_MAX > 5532
    assert parse_poly(f"1*s^{DEGREE_MAX}+1", field_ctx(3, 1)).degree() == DEGREE_MAX


@pytest.mark.parametrize("argv", [
    ["curve", "torsion", "-p", "3", "-N", "1000000000"],
    ["curve", "j", "-p", "3", "-N", "1000000000"],
    ["family", "poly-powers", "-p", "3", "--f", "1*s+1", "-n", "1000000000"],
    ["family", "poly-powers", "-p", "3", "--f", "1*s^1000000000", "-n", "1"],
    ["curve", "search", "-p", "3", "-N", "10001", "--num-deg", "0", "--den-deg", "0"],
    ["curve", "stabilize", "-p", "3", "-q", "5", "-r", "2", "--n-max", "1000000000",
     "--num-deg", "0", "--den-deg", "0"],
])
def test_dense_degree_work_bound_exit_2(capsys, argv):
    # above DEGREE_MAX: refused before any dense tuple is allocated
    start = time.perf_counter()
    assert dispatch(argv) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: WorkBound: ") and "degree cap" in err, err


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output) for each kummerwit line of README's sh blocks,
    backslash continuations joined; shown output is the "# " lines under it."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    out = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("kummerwit "):
                out.append((shlex.split(line)[1:], []))
            elif line.startswith("# ") and out:
                out[-1][1].append(line[2:])
    return out


def test_readme_examples_found():
    examples = _readme_examples()
    assert len(examples) >= 11
    assert dict((argv[0], shown) for argv, shown in examples)["search-primes"] == [
        '{"p": 3, "q": 7, "r": 11, "schema": 1}', '{"p": 3, "q": 5, "r": 23, "schema": 1}']


@pytest.mark.parametrize("argv, shown", [pytest.param(*ex, id=" ".join(ex[0]))
                                          for ex in _readme_examples()])
def test_readme_example_runs(capsys, argv, shown):
    assert dispatch(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in shown if line not in out] == []
