"""Output checks for benchmark tasks.

A task fails when it exits non-zero, when a semantic check on its JSON
output fails, or when its stdout digest differs from the one pinned for the
default seed.  The semantic checks are independent of the program: curve
points over prime fields are re-checked with sympy, the rest with plain
integer arithmetic on the printed records.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

# Outputs are byte-stable, so the digests of the first tasks of each stream
# at this seed are pinned in digests.json (written by ``run.py --pin``).
PINNED_SEED = 0
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

_TERM = re.compile(r"^(\d+)(?:\*s(?:\^(\d+))?)?$")


def digest(rc: int, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()[:16]


def pinned_digests(workload: str, seed: int) -> list[str]:
    """Pinned digests of the workload's stream, task by task; [] for other seeds."""
    if seed != PINNED_SEED or not os.path.exists(DIGESTS_FILE):
        return []
    with open(DIGESTS_FILE) as fh:
        return json.load(fh).get(workload, [])


def _legendre(x: int, p: int) -> int:
    t = pow(x % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def _poly_terms(lit: str) -> dict[int, int]:
    """{exponent: coefficient} of a prime-field polynomial literal."""
    if lit == "0":
        return {}
    out: dict[int, int] = {}
    for term in lit.split("+"):
        m = _TERM.match(term)
        if m is None:
            raise ValueError(f"unexpected term {term!r}")
        k = 0 if "s" not in term else int(m.group(2) or 1)
        out[k] = out.get(k, 0) + int(m.group(1))
    return out


def _sympy_poly(lit: str, p: int):
    import sympy
    s = sympy.Symbol("s")
    terms = _poly_terms(lit)
    expr = sum((c * s ** k for k, c in terms.items()), sympy.Integer(0))
    return sympy.Poly(expr, s, modulus=p)


def point_on_curve(lit: str, p: int, n: int) -> bool:
    """Whether the point literal (x; y) satisfies y^2 = x(x+1)(x+s^N) over
    F_p(s), decided with sympy: for x = xn/xd and y = yn/yd this is
    yn^2 * xd^3 = yd^2 * xn * (xn + xd) * (xn + xd * s^N)."""
    if lit == "O":
        return True
    x_lit, y_lit = lit[1:-1].split("; ")
    xn, xd = (_sympy_poly(t, p) for t in (x_lit.split("/") + ["1"])[:2])
    yn, yd = (_sympy_poly(t, p) for t in (y_lit.split("/") + ["1"])[:2])
    s_n = _sympy_poly(f"1*s^{n}", p)
    return (yn ** 2 * xd ** 3 - yd ** 2 * xn * (xn + xd) * (xn + xd * s_n)).is_zero


def _points_ok(points: list[str], meta: dict, n: int) -> bool:
    if meta.get("a", 1) != 1:
        return True
    return all(point_on_curve(pt, meta["p"], n) for pt in points)


def _check_search_primes(records, meta, argv):
    count = int(argv[argv.index("--count") + 1])
    if len(records) != count:
        return False
    p = meta["p"]
    return all(r["p"] == p and r["r"] % 4 == 3 and _legendre(p, r["r"]) == 1
               and _legendre(p, r["q"]) == -1 and _legendre(r["q"], r["r"]) == -1
               for r in records)


def _check_rank(rec):
    return rec["rank"] == sum(d["index"] for d in rec["divisors"]
                              if d["balanced"] and not d["excluded"])


def _check_poly_powers(rec, meta):
    return all(k % meta["n"] == 0 for k in _poly_terms(rec["product"]))


def _check_factor(rec, meta):
    return sum(pl["e"] * pl["f"] for pl in rec["above"]) == meta["r"] ** meta["n"]


# kind -> predicate on (first record, all records, meta, argv)
_CHECKS = {
    "inject": lambda rec, recs, meta, argv: rec["verified"] is True,
    "gamma-times": lambda rec, recs, meta, argv: rec["size_matches"] is True,
    "shift": lambda rec, recs, meta, argv: rec["g"] != "0",
    "axioms": lambda rec, recs, meta, argv: rec["passed"] is True,
    "search": lambda rec, recs, meta, argv: _points_ok(rec["points"], meta, meta["N"]),
    "stabilize": lambda rec, recs, meta, argv: all(
        _points_ok(lv["points"], meta, lv["curve_exponent"]) for lv in rec["levels"]),
    "mul": lambda rec, recs, meta, argv: _points_ok([rec["result"]], meta, meta["N"]),
    "grow": lambda rec, recs, meta, argv: (
        len(rec["members"]) >= rec["target"] and _points_ok([rec["point"]], meta, meta["N"])),
    "verify": lambda rec, recs, meta, argv: rec.get("ok") is True,
    "factor": lambda rec, recs, meta, argv: _check_factor(rec, meta),
    "bounded": lambda rec, recs, meta, argv: rec["bounded"] is True,
    "lemma": lambda rec, recs, meta, argv: (
        rec["conclusion_holds"] or not rec["hypotheses_hold"]),
    "case": lambda rec, recs, meta, argv: rec["case"] in (
        "totally_ramified", "inert_degree_l", "split"),
    "poly-powers": lambda rec, recs, meta, argv: _check_poly_powers(rec, meta),
    "balanced": lambda rec, recs, meta, argv: (
        isinstance(rec["balanced"], bool) and rec["fast"] in (None, rec["balanced"])),
    "rank": lambda rec, recs, meta, argv: _check_rank(rec),
    "search-primes": lambda rec, recs, meta, argv: _check_search_primes(recs, meta, argv),
}


def semantic_failure(task: dict, rc: int, stdout: str) -> str | None:
    """Why the task's output is wrong, or None when every check passes."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
        ok = bool(records) and _CHECKS[task["kind"]](records[0], records, task["meta"],
                                                      task["argv"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None if ok else "semantic check failed"
