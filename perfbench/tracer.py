"""Outside-in tracing of kummerwit's layers, installed from the benchmark.

``install_spans`` wraps the public functions and operators of each layer so
that every call records a span (name, start, end, parent, task).  Module
functions are replaced in every ``kummerwit.*`` module that holds them,
because several modules bind them by ``from ... import``; operators are
replaced on their class.  Spans are kept in flat arrays in memory and
written out when the run ends.

``install_counters`` is the separate counting pass over the ``FF`` scalar
operations: they are far too frequent to span without distorting the
``Poly`` self times, so that pass counts calls and records no spans.

Both mutate the imported program for the rest of the process; each pass of
the benchmark runs in a fresh interpreter.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name) for module-level functions
FUNCTIONS = [
    ("kummerwit.base_algebra.poly", "poly_ext_gcd", "poly.ext_gcd"),
    ("kummerwit.base_algebra.poly", "poly_gcd", "poly.gcd"),
    ("kummerwit.base_algebra.poly", "crt", "poly.crt"),
    ("kummerwit.base_algebra.poly", "factor", "poly.factor"),
    ("kummerwit.base_algebra.poly", "is_irreducible", "poly.is_irreducible"),
    ("kummerwit.base_algebra.poly", "squarefree_decomposition", "poly.squarefree"),
    ("kummerwit.base_algebra.ratfunc", "ratfunc_sqrt", "ratfunc.sqrt"),
    ("kummerwit.base_algebra.ratfunc", "is_nth_power", "ratfunc.is_nth_power"),
    ("kummerwit.base_algebra.places", "valuation", "places.valuation"),
    ("kummerwit.base_algebra.places", "factor_place_in_tower", "places.tower_factor"),
    ("kummerwit.base_algebra.places", "boundedness_probe", "places.bounded_probe"),
    ("kummerwit.base_algebra.grammar", "parse_poly", "grammar.parse"),
    ("kummerwit.base_algebra.grammar", "parse_ratfunc", "grammar.parse"),
    ("kummerwit.base_algebra.grammar", "parse_place", "grammar.parse"),
    ("kummerwit.base_algebra.grammar", "parse_point", "grammar.parse"),
    ("kummerwit.base_algebra.grammar", "format_poly", "grammar.format"),
    ("kummerwit.base_algebra.grammar", "format_ratfunc", "grammar.format"),
    ("kummerwit.base_algebra.grammar", "format_place", "grammar.format"),
    ("kummerwit.base_algebra.grammar", "format_point", "grammar.format"),
    ("kummerwit.characters", "char_props", "characters.scan"),
    ("kummerwit.characters", "unit_group", "characters.unit_group"),
    ("kummerwit.characters", "is_balanced", "characters.oracle"),
    ("kummerwit.characters", "is_balanced_fast", "characters.fast"),
    ("kummerwit.rank_engine", "rank_formula", "rank.formula"),
    ("kummerwit.kummer_local", "verify_descent_lemma", "kummer.lemma"),
    ("kummerwit.kummer_local", "kummer_case", "kummer.case"),
    ("kummerwit.curve_ff", "point_search", "curve.search"),
    ("kummerwit.curve_ff", "ec_add", "curve.ec_add"),
    ("kummerwit.curve_ff", "is_on_curve", "curve.on_curve"),
    ("kummerwit.curve_ff", "stabilization_probe", "curve.stabilize"),
    ("kummerwit.family", "family_members", "family.members"),
    ("kummerwit.family", "membership_witness", "family.membership"),
    ("kummerwit.family", "family_grow", "family.grow"),
    ("kummerwit.family", "polynomial_in_powers", "family.poly_powers"),
    ("kummerwit.witnesses", "injection_witness", "witness.inject"),
    ("kummerwit.witnesses", "verify_injection", "witness.verify"),
    ("kummerwit.witnesses", "comaximal_shift", "witness.shift"),
    ("kummerwit.witnesses", "gamma_times_witness", "witness.gamma_times"),
    ("kummerwit.witnesses", "axiom_instance_check", "witness.axioms"),
    ("kummerwit.witnesses", "are_comaximal", "witness.comaximal"),
    ("kummerwit.cli", "dispatch", "cli"),
]

# (module, class, method, span name); None marks the degree-bucketed operators
METHODS = [
    ("kummerwit.base_algebra.poly", "Poly", "__mul__", None),
    ("kummerwit.base_algebra.poly", "Poly", "__divmod__", None),
    ("kummerwit.base_algebra.poly", "Poly", "powmod", "poly.powmod"),
    ("kummerwit.base_algebra.poly", "Poly", "evaluate", "poly.evaluate"),
    ("kummerwit.rank_engine", "BalanceRouter", "balanced", "rank.router"),
]

# FF operation -> counter, for the counting pass
FF_COUNTERS = {"__init__": "ff_alloc", "__mul__": "ff_mul", "__add__": "ff_addsub",
               "__sub__": "ff_addsub", "__neg__": "ff_addsub", "inv": "ff_inv"}


def degree_bucket(*polys) -> str:
    """small < 16 <= mid < 128 <= large, by the larger operand degree."""
    deg = max(len(f.coeffs) for f in polys) - 1
    return "small" if deg < 16 else "mid" if deg < 128 else "large"


class Tracer:
    """Spans in flat arrays: name id, parent span, task, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_task = -1
        self.counts: Counter = Counter()  # result-derived counts
        self.routers: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, orig, name: str | None, on_result=None):
        """orig wrapped in a span; name None buckets the span by degree."""
        fixed = None if name is None else self.name_id(name)
        stem = None if name is not None else (
            "poly.mul." if orig.__name__ == "__mul__" else "poly.divmod.")
        names, parents, tasks, starts, ends = (self.name, self.parent, self.task,
                                               self.start, self.end)
        stack, clock = self.stack, time.perf_counter

        def spanned(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(stem + degree_bucket(*args[:2]))
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            tasks.append(self.current_task)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        spanned.__name__ = orig.__name__
        return spanned

    # -- aggregation -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus derived counts."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            nm = self.names[self.name[i]]
            calls[nm] += 1
            self_s[nm] += self.end[i] - self.start[i] - child[i]
        search = self._ids.get("curve.search")
        sqrt_in_search = 0
        for i in range(n):
            if self.names[self.name[i]] == "ratfunc.sqrt":
                par = self.parent[i]
                while par >= 0 and self.name[par] != search:
                    par = self.parent[par]
                sqrt_in_search += par >= 0
        counts = dict(self.counts)
        counts["curve.sqrt_calls"] = sqrt_in_search
        counts["rank.router.oracle_calls"] = sum(r.oracle_calls for r in self.routers)
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": counts}

    def write(self, path: str):
        """All spans as gzip TSV: id, parent, task, name, start, end (seconds)."""
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\ttask\tname\tstart\tend\n")
            for i in range(len(self.name)):
                out.write(f"{i}\t{self.parent[i]}\t{self.task[i]}\t{self.names[self.name[i]]}"
                          f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def _replace_everywhere(orig, replacement):
    """Rebind every kummerwit.* module attribute that is orig."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("kummerwit"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def install_spans(tracer: Tracer):
    """Wrap every layer boundary in FUNCTIONS and METHODS with a span."""
    mods = sys.modules
    on_result = {
        "kummer.lemma": lambda v: tracer.counts.update({"kummer.branches": v.branch_count}),
        "curve.search": lambda pts: tracer.counts.update({"curve.points_found": len(pts)}),
        "characters.fast": lambda v: tracer.counts.update(
            {"characters.fast.decided": v is not None}),
    }
    for mod_name, attr, name in FUNCTIONS:
        orig = getattr(mods[mod_name], attr)
        _replace_everywhere(orig, tracer.wrap(orig, name, on_result.get(name)))
    for mod_name, cls_name, attr, name in METHODS:
        cls = getattr(mods[mod_name], cls_name)
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name))

    ratfunc = mods["kummerwit.base_algebra.ratfunc"].RatFunc
    plain_init = ratfunc.__init__
    reducing_init = tracer.wrap(plain_init, "ratfunc.reduce")

    def init(self, num, den=None, reduce=True):
        # only the reducing constructor does gcd work; span just that one
        (reducing_init if reduce else plain_init)(self, num, den, reduce)

    ratfunc.__init__ = init

    router = mods["kummerwit.rank_engine"].BalanceRouter
    router_init = router.__init__

    def register(self):
        router_init(self)
        tracer.routers.append(self)

    router.__init__ = register


def install_counters(counts: Counter):
    """Count FF allocations and arithmetic; records no spans."""
    ff = sys.modules["kummerwit.base_algebra.fields"].FF
    for attr, key in FF_COUNTERS.items():
        orig = getattr(ff, attr)

        def counted(*args, _orig=orig, _key=key, **kwargs):
            counts[_key] += 1
            return _orig(*args, **kwargs)

        setattr(ff, attr, counted)


def witness_cache_hit_ratio() -> float:
    info = sys.modules["kummerwit.characters"]._unbalanced_witness_exponents.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


# -- per-layer metric table ------------------------------------------------------------

_BUCKETS = ("small", "mid", "large")
_POLY_OPS = ("ext_gcd", "gcd", "crt", "powmod", "factor", "is_irreducible",
             "squarefree", "evaluate")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = [(f"fields.{c}.calls", "count") for c in ("ff_alloc", "ff_mul", "ff_addsub", "ff_inv")]
    for op in ("mul", "divmod"):
        out += [(f"poly.{op}.calls.{b}", "count") for b in _BUCKETS]
        out += [(f"poly.{op}.self_s.{b}", "s") for b in _BUCKETS]

    def both(*names):
        return [m for nm in names for m in ((f"{nm}.calls", "count"), (f"{nm}.self_s", "s"))]

    out += both(*(f"poly.{op}" for op in _POLY_OPS))
    out += both("ratfunc.reduce", "ratfunc.sqrt") + [("ratfunc.is_nth_power.calls", "count")]
    out += both("places.valuation", "places.tower_factor", "places.bounded_probe")
    out += [("grammar.parse.self_s", "s"), ("grammar.format.self_s", "s")]
    out += both("characters.scan") + [("characters.unit_group.self_s", "s")]
    out += both("characters.oracle") + [("characters.fast.calls", "count"),
                                        ("characters.fast.decided_ratio", "ratio"),
                                        ("characters.witness_cache.hit_ratio", "ratio")]
    out += both("rank.formula") + [("rank.router.calls", "count"),
                                   ("rank.router.oracle_calls", "count")]
    out += both("kummer.lemma", "kummer.case") + [("kummer.branches", "count")]
    out += both("curve.search", "curve.ec_add", "curve.on_curve")
    out += [("curve.stabilize.self_s", "s"), ("curve.sqrt_calls", "count"),
            ("curve.points_found", "count"), ("curve.sqrt_yield", "ratio")]
    out += both("family.members") + [("family.membership.calls", "count"),
                                     ("family.grow.self_s", "s"),
                                     ("family.poly_powers.self_s", "s")]
    out += both("witness.inject")
    out += [(f"witness.{nm}.self_s", "s") for nm in ("verify", "shift", "gamma_times", "axioms")]
    out += [("witness.comaximal.calls", "count"), ("cli.self_s", "s"), ("trace.overhead_s", "s")]
    return out


def per_layer_values(spans: dict, ff_counts: dict, hit_ratio: float,
                     overhead_s: float) -> dict[str, float]:
    """Every per-layer metric from a span summary and an FF count pass."""
    calls, self_s, counts = spans["calls"], spans["self_s"], spans["counts"]
    values: dict[str, float] = {}
    for metric, _ in per_layer_names():
        head, _, tail = metric.rpartition(".")
        if metric.startswith("fields."):
            values[metric] = ff_counts.get(metric.split(".")[1], 0)
        elif tail in _BUCKETS:  # poly.mul.calls.small -> span poly.mul.small
            stem, kind = head.rsplit(".", 1)
            values[metric] = (calls if kind == "calls" else self_s).get(f"{stem}.{tail}", 0)
        elif tail == "calls":
            values[metric] = calls.get(head, 0)
        elif tail == "self_s":
            values[metric] = self_s.get(head, 0.0)
        else:
            values[metric] = counts.get(metric, 0)
    fast = calls.get("characters.fast", 0)
    values["characters.fast.decided_ratio"] = (
        counts.get("characters.fast.decided", 0) / fast if fast else 0.0)
    values["characters.witness_cache.hit_ratio"] = hit_ratio
    sqrt_calls = counts.get("curve.sqrt_calls", 0)
    values["curve.sqrt_yield"] = counts.get("curve.points_found", 0) / sqrt_calls if sqrt_calls else 0.0
    values["trace.overhead_s"] = overhead_s
    return values
