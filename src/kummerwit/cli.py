"""kummerwit command-line interface.

One binary, machine-readable output: every subcommand emits JSON records
(one per line, keys sorted) or tab-separated key=value rows with --format
tsv.  All numbers are exact integers or exact literals in the polynomial
grammar; exit status is 0 on success, 1 when a verifier returned false,
2 on usage errors.

Subcommands: search-primes, rank, balanced, kummer, curve, family,
witness, tower, verify.  The worker count for search kernels comes from
--workers or the KUMMERWIT_WORKERS environment variable and must lie in
[1, os.cpu_count()].
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import characters as chars
from . import curve_ff, family, kummer_local, rank_engine, witnesses
from .base_algebra import (Poly, boundedness_probe, factor_place_in_tower,
                           field_ctx, format_place, format_point, format_poly,
                           format_ratfunc, parse_place, parse_point, parse_poly,
                           parse_ratfunc)
from .base_algebra.places import check_tower_factor
from .errors import KummerwitError

SCHEMA_VERSION = 1


def _emit(record: dict, fmt: str):
    record = {"schema": SCHEMA_VERSION, **record}
    if fmt == "tsv":
        row = "\t".join(f"{k}={json.dumps(record[k], sort_keys=True)}"
                        for k in sorted(record))
        print(row)
    else:
        print(json.dumps(record, sort_keys=True))


def _ctx(args):
    return field_ctx(args.p, args.a)


def _split_polys(text: str, ctx) -> list[Poly]:
    text = text.strip()
    if not text:
        return []
    return [parse_poly(part, ctx) for part in text.split(";")]


def _require_flags(args, action: str, **flags):
    missing = [name for name, value in flags.items() if value is None]
    if missing:
        raise ValueError(f"{action} requires {', '.join(missing)}")


# -- subcommand handlers -------------------------------------------------------


def cmd_search_primes(args) -> int:
    rs = rank_engine.find_r(args.p, args.count)
    for r in rs:
        q = rank_engine.find_q(args.p, r, ceiling=args.ceiling)
        _emit({"p": args.p, "r": r, "q": q}, args.format)
    return 0


def cmd_rank(args) -> int:
    rep = rank_engine.rank_formula(args.p, args.a, args.q, args.r, args.n)
    _emit(rep.as_record(), args.format)
    return 0


def cmd_balanced(args) -> int:
    record = {"x": args.x, "m": args.m, "mode": args.mode}
    fast = oracle = None
    if args.mode in ("fast", "both"):
        fast = chars.is_balanced_fast(args.x, args.m)
        record["fast"] = fast
    if args.mode in ("oracle", "both"):
        witness = chars.balance_witness(args.x, args.m)
        oracle = record["balanced"] = witness is None
    else:
        record["balanced"] = fast
        witness = chars.balance_witness(args.x, args.m) if fast is False else None
    record["witness_character"] = list(witness.exps) if witness else None
    _emit(record, args.format)
    if args.mode == "both" and fast is not None and fast != oracle:
        return 1
    return 0


def cmd_kummer(args) -> int:
    ctx = _ctx(args)
    if args.action == "case":
        _require_flags(args, "kummer case", **{"--b": args.b})
        place = parse_place(args.place, ctx)
        b = parse_ratfunc(args.b, ctx)
        case = kummer_local.kummer_case(b, place, args.l, ctx)
        _emit({"case": case.value, "norm_group": kummer_local.NORM_GROUPS[case],
               "b": format_ratfunc(b), "place": format_place(place), "l": args.l},
              args.format)
        return 0
    if args.action == "descend":
        _require_flags(args, "kummer descend",
                       **{"--vals": args.vals, "--label": args.label})
        vals = {}
        for pair in args.vals.split(","):
            label, _, v = pair.partition("=")
            vals[label.strip()] = int(v)
        residues = {}
        if args.residues:
            for pair in args.residues.split(","):
                label, _, lit = pair.partition("=")
                residues[label.strip()] = parse_poly(lit, ctx)
        place = parse_place(args.place, ctx)
        rf = kummer_local.ResidueField(ctx, place)
        state = kummer_local.PlaceState(rf, 1, 1, vals, residues)
        case = None
        if args.case:
            case = kummer_local.KummerCase(args.case)
        out = kummer_local.descend(state, args.label, args.l, case)
        _emit({"Q": out.Q, "e_total": out.e_total, "f_total": out.f_total,
               "vals": {k: v for k, v in sorted(out.vals.items())}}, args.format)
        return 0
    if args.action == "verify-lemma":
        _require_flags(args, "kummer verify-lemma", **{"--lemma": args.lemma})
        place = parse_place(args.place, ctx)
        inputs = {}
        for name in ("x", "b", "c", "d", "a"):
            lit = getattr(args, f"in_{name}")
            if lit:
                inputs[name] = parse_ratfunc(lit, ctx)
        verdict = kummer_local.verify_descent_lemma(args.lemma, inputs, args.l, place, ctx)
        rec = verdict.as_record()
        rec["place"] = format_place(place)
        _emit(rec, args.format)
        return 0 if (not verdict.hypotheses_hold or verdict.conclusion_holds) else 1
    # theta
    _require_flags(args, "kummer theta", **{"--S": args.S, "--theta-c": args.c,
                                            "--theta-x": args.x, "--theta-d": args.d})
    places = [parse_place(tok, ctx) for tok in args.S.split(";")]
    c = parse_ratfunc(args.c, ctx)
    x = parse_ratfunc(args.x, ctx)
    d = parse_ratfunc(args.d, ctx)
    theta, margin = kummer_local.s_local_conditions(c, x, d, args.l, places, ctx)
    _emit({"theta": theta, "b_margin": margin,
           "S": [format_place(pl) for pl in places]}, args.format)
    return 0


def cmd_curve(args) -> int:
    ctx = _ctx(args)
    if args.action == "stabilize":
        rep = curve_ff.stabilization_probe(args.p, args.a, args.q, args.r,
                                           args.n_max, (args.num_deg, args.den_deg),
                                           workers=args.workers)
        _emit(rep.as_record(), args.format)
        return 0
    curve = curve_ff.curve_make(ctx, args.N)
    if args.action == "search":
        pts = curve_ff.point_search(curve, args.num_deg, args.den_deg,
                                    workers=args.workers)
        _emit({"N": args.N, "bounds": [args.num_deg, args.den_deg],
               "points": [format_point(pt) for pt in pts]}, args.format)
        return 0
    if args.action == "j":
        _emit({"N": args.N, "j": format_ratfunc(curve_ff.j_invariant(curve))}, args.format)
        return 0
    if args.action == "torsion":
        pts = curve_ff.two_torsion(curve)
        rec = {"N": args.N, "two_torsion": [format_point(pt) for pt in pts]}
        if args.point:
            pt = parse_point(args.point, ctx)
            rec["point"] = format_point(pt)
            rec["is_torsion"] = curve_ff.is_torsion(pt, curve)
        _emit(rec, args.format)
        return 0
    if args.action == "add":
        _require_flags(args, "curve add", **{"--P": args.P, "--Q": args.Q})
        p1 = parse_point(args.P, ctx)
        p2 = parse_point(args.Q, ctx)
        out = curve_ff.ec_add(p1, p2, curve)
        _emit({"N": args.N, "sum": format_point(out)}, args.format)
        return 0
    # mul
    _require_flags(args, "curve mul", **{"--P": args.P})
    pt = parse_point(args.P, ctx)
    out = curve_ff.ec_mul(args.k, pt, curve)
    _emit({"N": args.N, "k": args.k, "result": format_point(out)}, args.format)
    return 0


def cmd_family(args) -> int:
    ctx = _ctx(args)
    if args.action == "poly-powers":
        _require_flags(args, "family poly-powers", **{"--f": args.f})
        f = parse_poly(args.f, ctx)
        fbar = family.polynomial_in_powers(f, args.n)
        _emit({"f": format_poly(f), "n": args.n, "fbar": format_poly(fbar),
               "product": format_poly(f * fbar)}, args.format)
        return 0
    if args.N is None:
        # default exponent: the q produced by the prime search for this p
        r = rank_engine.find_r(args.p, 1)[0]
        args.N = rank_engine.find_q(args.p, r)
    curve = curve_ff.curve_make(ctx, args.N)
    if args.action == "members":
        lam = parse_poly(args.lam, ctx)
        res = family.family_members(lam, curve, args.deg_bound)
        _emit(res.as_record(), args.format)
        return 0
    # grow
    _require_flags(args, "family grow", **{"--point": args.point})
    pt = parse_point(args.point, ctx)
    lam, res = family.family_grow(pt, curve, args.target)
    rec = res.as_record()
    rec["point"] = format_point(pt)
    rec["target"] = args.target
    _emit(rec, args.format)
    return 0


def cmd_witness(args) -> int:
    ctx = _ctx(args)
    if args.action == "coprime":
        elems = _split_polys(args.set, ctx)
        out = witnesses.coprime_element(elems, ctx)
        _emit({"set": [format_poly(e) for e in elems], "coprime": format_poly(out)},
              args.format)
        return 0
    if args.action == "shift":
        elems = _split_polys(args.set, ctx)
        a = parse_poly(args.a_elem, ctx)
        g = witnesses.comaximal_shift(elems, a)
        _emit({"set": [format_poly(e) for e in elems], "a": format_poly(a),
               "g": format_poly(g)}, args.format)
        return 0
    if args.action == "inject":
        set_a = _split_polys(args.A, ctx)
        set_b = _split_polys(args.B, ctx)
        w = witnesses.injection_witness(set_a, set_b, ctx)
        ok = witnesses.verify_injection(w, set_a, set_b)
        rec = w.as_record()
        rec["verified"] = ok
        _emit(rec, args.format)
        return 0 if ok else 1
    if args.action == "gamma-plus":
        f1 = _split_polys(args.F1, ctx)
        f2 = _split_polys(args.F2, ctx)
        f3 = _split_polys(args.F3, ctx)
        shift = witnesses.disjoint_shift(f1, f2, ctx)
        ok = witnesses.gamma_plus_check(f1, f2, f3, ctx)
        _emit({"holds": ok, "shift": format_poly(shift)}, args.format)
        return 0
    if args.action == "gamma-times":
        f1 = _split_polys(args.F1, ctx)
        f2 = _split_polys(args.F2, ctx)
        w = witnesses.gamma_times_witness(f1, f2, ctx)
        rec = w.as_record()
        rec["size_matches"] = len(w.product_set) == len(set(f1)) * len(set(f2))
        _emit(rec, args.format)
        return 0 if rec["size_matches"] else 1
    # axioms
    rep = witnesses.axiom_instance_check(args.n, args.m, ctx)
    _emit(rep.as_record(), args.format)
    return 0 if rep.passed else 1


def cmd_tower(args) -> int:
    ctx = _ctx(args)
    if args.action == "factor":
        # the checks need deg pi only, so they run before Place.finite tests irreducibility
        k = 1 if args.place.strip() == "inf" else parse_poly(args.place, ctx).degree()
        check_tower_factor(k, args.r, args.n, ctx)
        place = parse_place(args.place, ctx)
        out = factor_place_in_tower(place, args.r, args.n, ctx)
        _emit({"place": format_place(place), "r": args.r, "n": args.n,
               "above": [{"place": format_place(pl), "e": e, "f": f}
                         for pl, e, f in out]}, args.format)
        return 0
    place = parse_place(args.place, ctx)
    ok = boundedness_probe(place, args.r, args.l, args.n_max, ctx)
    _emit({"place": format_place(place), "r": args.r, "l": args.l,
           "n_max": args.n_max, "bounded": ok}, args.format)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    """One-shot pipeline: prime search, rank constancy, point search, family
    growth, witness suite.  Any stage failure short-circuits with a diagnostic.
    The rank stage's "constant" covers every level of the tower, read off
    one level-1 report (rank_constancy_check)."""
    p = args.p
    quick = args.suite == "quick"
    record: dict = {"p": p, "suite": args.suite}
    try:
        rs = rank_engine.find_r(p, 1 if quick else 2)
        record["r"] = rs
        q = rank_engine.find_q(p, rs[0])
        record["q"] = q
        c, constant, bounded = rank_engine.rank_constancy_check(p, 1, q, rs[0])
        record["rank"] = {"C_a": c, "constant": constant, "bounded": bounded}
        if not (constant and bounded):
            record["failed_stage"] = "rank"
            _emit(record, args.format)
            return 1
        ctx = field_ctx(p, 1)
        curve = curve_ff.curve_make(ctx, q)
        pts = curve_ff.point_search(curve, args.num_deg, args.den_deg,
                                    workers=args.workers)
        record["points_found"] = len(pts)
        nontorsion = [pt for pt in pts if not curve_ff.is_torsion(pt, curve)]
        if nontorsion:
            lam, res = family.family_grow(nontorsion[0], curve, 2)
            record["family"] = {"lambda": format_poly(lam), "members": len(res.members)}
        else:
            record["family"] = "skipped: no non-torsion point at bound"
        axioms = witnesses.axiom_instance_check(2, 3, ctx)
        record["axioms"] = axioms.passed
        if not axioms.passed:
            record["failed_stage"] = "witnesses"
            _emit(record, args.format)
            return 1
    except KummerwitError as exc:
        record["failed_stage"] = type(exc).__name__
        record["detail"] = str(exc)
        _emit(record, args.format)
        return 1
    record["ok"] = True
    _emit(record, args.format)
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="kummerwit", description=__doc__)
    top.add_argument("--format", choices=("json", "tsv"), default="json")
    top.add_argument("--workers", type=int,
                     default=os.environ.get("KUMMERWIT_WORKERS", "1"))
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search-primes", help="find (r, q) pairs for a base prime")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--ceiling", type=int, default=10_000)
    sp.set_defaults(func=cmd_search_primes)

    rk = sub.add_parser("rank", help="divisor-sum rank report")
    for flag in ("-p", "-a", "-q", "-r", "-n"):
        rk.add_argument(flag, type=int, required=True)
    rk.set_defaults(func=cmd_rank)

    ba = sub.add_parser("balanced", help="balanced-residue predicate")
    ba.add_argument("x", type=int)
    ba.add_argument("m", type=int)
    ba.add_argument("--mode", choices=("oracle", "fast", "both"), default="oracle")
    ba.set_defaults(func=cmd_balanced)

    ku = sub.add_parser("kummer", help="local Kummer analysis")
    ku.add_argument("action", choices=("case", "descend", "verify-lemma", "theta"))
    ku.add_argument("-p", type=int, required=True)
    ku.add_argument("-a", type=int, default=1)
    ku.add_argument("-l", type=int, default=3)
    ku.add_argument("--place", default="inf")
    ku.add_argument("--b", help="radicand for `case`")
    ku.add_argument("--vals", help="label=val,... for `descend`")
    ku.add_argument("--residues", help="label=poly,... for `descend`")
    ku.add_argument("--label", help="adjoined label for `descend`")
    ku.add_argument("--case", choices=[c.value for c in kummer_local.KummerCase],
                    help="branch selection when descend is ambiguous")
    ku.add_argument("--lemma", choices=("obstruction_x", "divisibility_x", "obstruction_d", "divisibility_d"))
    ku.add_argument("--x", dest="in_x")
    ku.add_argument("--in-b", dest="in_b")
    ku.add_argument("--c", dest="in_c")
    ku.add_argument("--d", dest="in_d")
    ku.add_argument("--a-elem", dest="in_a")
    ku.add_argument("--theta-c", dest="c")
    ku.add_argument("--theta-x", dest="x")
    ku.add_argument("--theta-d", dest="d")
    ku.add_argument("--S", help="semicolon-separated places")
    ku.set_defaults(func=cmd_kummer)

    cv = sub.add_parser("curve", help="curve family operations")
    cv.add_argument("action", choices=("search", "add", "mul", "torsion", "j", "stabilize"))
    cv.add_argument("-p", type=int, required=True)
    cv.add_argument("-a", type=int, default=1)
    cv.add_argument("-N", type=int, default=1)
    cv.add_argument("--num-deg", type=int, default=1)
    cv.add_argument("--den-deg", type=int, default=0)
    cv.add_argument("--P", help="point literal (x; y)")
    cv.add_argument("--Q", help="second point literal")
    cv.add_argument("-k", type=int, default=2)
    cv.add_argument("--point", help="point literal for torsion test")
    cv.add_argument("-q", type=int, default=0)
    cv.add_argument("-r", type=int, default=0)
    cv.add_argument("--n-max", type=int, default=0)
    cv.set_defaults(func=cmd_curve)

    fa = sub.add_parser("family", help="definable family operations")
    fa.add_argument("action", choices=("members", "grow", "poly-powers"))
    fa.add_argument("-p", type=int, required=True)
    fa.add_argument("-a", type=int, default=1)
    fa.add_argument("-N", type=int, default=None,
                    help="curve exponent; defaults to the q of search-primes")
    fa.add_argument("--lambda", dest="lam", default="1")
    fa.add_argument("--deg-bound", type=int, default=2)
    fa.add_argument("--point", help="point literal for grow")
    fa.add_argument("--target", type=int, default=1)
    fa.add_argument("--f", help="polynomial for poly-powers")
    fa.add_argument("-n", type=int, default=2)
    fa.set_defaults(func=cmd_family)

    wi = sub.add_parser("witness", help="comaximality and injection witnesses")
    wi.add_argument("action", choices=("coprime", "shift", "inject",
                                       "gamma-plus", "gamma-times", "axioms"))
    wi.add_argument("-p", type=int, required=True)
    wi.add_argument("-a", type=int, default=1)
    wi.add_argument("--set", default="")
    wi.add_argument("--a-elem", default="1*s")
    wi.add_argument("--A", default="")
    wi.add_argument("--B", default="")
    wi.add_argument("--F1", default="")
    wi.add_argument("--F2", default="")
    wi.add_argument("--F3", default="")
    wi.add_argument("-n", type=int, default=2)
    wi.add_argument("-m", type=int, default=3)
    wi.set_defaults(func=cmd_witness)

    tw = sub.add_parser("tower", help="place splitting in root towers")
    tw.add_argument("action", choices=("factor", "bounded"))
    tw.add_argument("-p", type=int, required=True)
    tw.add_argument("-a", type=int, default=1)
    tw.add_argument("--place", required=True)
    tw.add_argument("-r", type=int, required=True)
    tw.add_argument("-n", type=int, default=1)
    tw.add_argument("-l", type=int, default=5)
    tw.add_argument("--n-max", type=int, default=2)
    tw.set_defaults(func=cmd_tower)

    ve = sub.add_parser("verify", help="one-shot verification pipeline")
    ve.add_argument("--suite", choices=("quick", "full"), default="quick")
    ve.add_argument("-p", type=int, required=True)
    ve.add_argument("--num-deg", type=int, default=2)
    ve.add_argument("--den-deg", type=int, default=0)
    ve.set_defaults(func=cmd_verify)
    return top


@lru_cache(maxsize=1)
def _parser_for(workers_env: str | None) -> argparse.ArgumentParser:
    """build_parser() once per KUMMERWIT_WORKERS value, the --workers default."""
    return build_parser()


def dispatch(argv: list[str]) -> int:
    parser = _parser_for(os.environ.get("KUMMERWIT_WORKERS"))
    args = parser.parse_args(argv)
    p = getattr(args, "p", None)
    if p is not None and (p < 3 or p % 2 == 0):
        parser.error(f"-p {p}: p must be an odd prime")
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        parser.error(f"--workers {args.workers}: must be between 1 and {cpus}")
    try:
        return args.func(args)
    except KummerwitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
