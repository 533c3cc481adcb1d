"""Constructive comaximality witnesses over F_q[s] with independent verifiers.

The primitive predicates are NZU (neither zero nor a unit: degree >= 1) and
CM (comaximal: an extended-gcd certificate u*f + v*g = 1).  On top of them:

- coprime_element: a monic irreducible dividing no nonzero element of a set;
- comaximal_shift: g = a*c making every 1 + a_i*g a nonzero non-unit,
  comaximal with a, and pairwise comaximal;
- injection_witness: the seven-element tuple (g, m, c, d, u, g', m')
  whose clauses force an injection from A into B, plus the verifier that
  rechecks every clause and reconstructs the injection;
- the addition graph (disjoint shifted union, so cardinalities add) and the
  multiplication graph (the set {beta*y + alpha*x}, so cardinalities
  multiply);
- axiom_instance_check: finite-set instances of the five arithmetic axiom
  schemes, with k modelled by canonical k-element subsets of the ring.

Builders and verifiers are deliberately separate code paths.  A builder is
correct by the lemma in its docstring and does not re-check it; the verifier
rechecks the sentence, with only extended gcd and set operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from math import prod

from .base_algebra.fields import FieldCtx
from .base_algebra.grammar import format_poly
from .base_algebra.poly import Poly, all_polys, crt, irreducibles_stream, poly_ext_gcd
from .errors import SizeMismatch, UnitA, ZeroInA


def is_nzu(f: Poly) -> bool:
    """Neither zero nor a unit: in F_q[s] exactly the polynomials of degree >= 1."""
    return not f.is_constant()


def are_comaximal(f: Poly, g: Poly) -> bool:
    """(f) + (g) = R, certified by extended gcd: d = 1 and u*f + v*g = d,
    the identity checked here rather than trusted from poly_ext_gcd."""
    if f.is_zero() and g.is_zero():
        return False
    d, u, v = poly_ext_gcd(f, g)
    return d.is_one() and u * f + v * g == d


def divides(f: Poly, g: Poly) -> bool:
    """f | g (everything divides zero; zero divides only zero)."""
    if f.is_zero():
        return g.is_zero()
    return (g % f).is_zero()


def _irreducibles_avoiding(elements: list[Poly], ctx: FieldCtx):
    """The monic irreducibles dividing no nonzero member of the set, in
    irreducibles_stream order."""
    nonzero = [a for a in elements if not a.is_zero()]
    return (cand for cand in irreducibles_stream(ctx)
            if not any(divides(cand, a) for a in nonzero))


def coprime_element(elements: list[Poly], ctx: FieldCtx) -> Poly:
    """A monic irreducible dividing no nonzero member of the set, hence
    coprime to each: its only monic divisors are 1 and itself."""
    return next(_irreducibles_avoiding(elements, ctx))


def comaximal_shift(elements: list[Poly], a: Poly) -> Poly:
    """g = a*c with c = prod_{i<j} (a_i - a_j)^4, the product of the squared
    differences over ordered pairs.  Each t_i = 1 + a_i*g is a nonzero
    non-unit comaximal with a, and the t_i are pairwise comaximal:

    - a | g, so t_i = 1 mod every prime of a: t_i is comaximal with a.
    - A prime pi dividing t_i and t_j divides t_i - t_j = (a_i - a_j)*g.
      Every a_i - a_j divides c, so pi | g, and then t_i = 1 mod pi, a
      contradiction.
    - a is nonconstant (UnitA), and the a_i are nonzero (ZeroInA) and
      distinct, so c != 0 and deg t_i = deg(a_i*g) >= deg a >= 1.
    """
    items = sorted(set(elements), key=Poly.sort_key)
    if any(e.is_zero() for e in items):
        raise ZeroInA("the set must not contain zero")
    if a.is_zero() or a.is_constant():
        raise UnitA("a must be neither zero nor a unit")
    return prod(((ai - aj) ** 4 for ai, aj in combinations(items, 2)), start=a)


@dataclass
class InjectionWitness:
    """Witness tuple for the injection sentence over a pair of finite sets.

    disjunct is 'subset' when A is a subset of B (no construction needed)
    and 'tuple' when the seven-element construction below applies.
    """

    FIELDS = ("g", "m", "c", "d", "u", "g2", "m2")  # the fields of the tuple disjunct
    disjunct: str
    g: Poly | None = None
    m: Poly | None = None
    c: Poly | None = None
    d: Poly | None = None
    u: Poly | None = None
    g2: Poly | None = None
    m2: Poly | None = None

    def as_record(self) -> dict:
        rec = {"disjunct": self.disjunct}
        for name in self.FIELDS:
            val = getattr(self, name)
            if val is not None:
                rec[name] = format_poly(val)
        return rec


def _first_outside(exclude: set[Poly], ctx: FieldCtx) -> Poly:
    return next(e for e in all_polys(ctx) if e not in exclude)


def injection_witness(set_a: list[Poly], set_b: list[Poly], ctx: FieldCtx) -> InjectionWitness:
    """Build a witness that |A| <= |B| in the finite-set semantics.

    Follows the proof order: choose c, d outside A, B; u a nonzero non-unit
    multiple of all differences of A; g making the 1 + g(a_i - c) pairwise
    comaximal non-units; g' doing the same for u and the 1 + g'(b_i - d);
    m, m' by the Chinese Remainder Theorem.
    """
    a_items = sorted(set(set_a), key=Poly.sort_key)
    b_items = sorted(set(set_b), key=Poly.sort_key)
    if set(a_items) <= set(b_items):
        return InjectionWitness("subset")
    if len(a_items) > len(b_items):
        raise SizeMismatch(f"|A| = {len(a_items)} exceeds |B| = {len(b_items)}")
    one = Poly.one(ctx)
    s = Poly.gen(ctx)
    c = _first_outside(set(a_items), ctx)
    d = _first_outside(set(b_items), ctx)
    u = prod((ai - aj for ai, aj in combinations(a_items, 2)), start=one)
    if u.is_constant():
        u = u * s  # keep u a nonzero non-unit even when all differences are units
    b_images = b_items[: len(a_items)]
    g = comaximal_shift([ai - c for ai in a_items], s)
    g2 = comaximal_shift([bi - d for bi in b_images], u)
    m = crt([(bi, one + g * (ai - c)) for ai, bi in zip(a_items, b_images)])
    m2 = crt([(ai, one + g2 * (bi - d)) for ai, bi in zip(a_items, b_images)])
    return InjectionWitness("tuple", g=g, m=m, c=c, d=d, u=u, g2=g2, m2=m2)


def verify_injection(w: InjectionWitness, set_a: list[Poly], set_b: list[Poly]) -> bool:
    """Independent recheck of every clause, reconstructing the injection.

    For the tuple disjunct: no field missing; u != 0; c outside A; d outside
    B; each 1 + g(x - c) a nonzero non-unit; pairwise comaximal; all
    differences of A divide u; and every x in A has some y in B with
    1 + g(x-c) | m - y, 1 + g'(y-d) a non-unit dividing m' - x but not u.
    The proof of injectivity shows no y can serve two distinct x, so the
    matched-y sets must be nonempty and pairwise disjoint: their union has
    as many elements as their sizes add up to.  Each clause is checked once:
    the differences over unordered pairs (divisibility ignores sign), the
    link 1 + g'(y-d) with its two clauses free of x once per y, and m
    reduced once per modulus, since the modulus divides m - y exactly when
    y leaves the same remainder.
    """
    a_items = sorted(set(set_a), key=Poly.sort_key)
    b_items = sorted(set(set_b), key=Poly.sort_key)
    if w.disjunct == "subset":
        return set(a_items) <= set(b_items)
    if (any(getattr(w, name) is None for name in w.FIELDS) or w.u.is_zero()
            or w.c in set(a_items) or w.d in set(b_items)):
        return False
    one = Poly.one(w.u.ctx)
    moduli = [one + w.g * (x - w.c) for x in a_items]
    if not (all(is_nzu(t) for t in moduli)
            and all(are_comaximal(t1, t2) for t1, t2 in combinations(moduli, 2))
            and all(divides(x1 - x2, w.u) for x1, x2 in combinations(a_items, 2))):
        return False
    links = [(y, link) for y in b_items if is_nzu(link := one + w.g2 * (y - w.d))
             and not divides(link, w.u)]
    images = []
    for x, modulus in zip(a_items, moduli):
        r = w.m % modulus
        found = {y for y, link in links if y % modulus == r and divides(link, w.m2 - x)}
        if not found:
            return False
        images.append(found)
    return len(set().union(*images)) == sum(map(len, images))


# -- finite-set graphs of addition and multiplication ---------------------------------


def disjoint_shift(f1: list[Poly], f2: list[Poly], ctx: FieldCtx) -> Poly:
    """A monomial x with F1 and F2 + x disjoint, by increasing degree."""
    s1, s2 = set(f1), set(f2)
    k = 0
    while True:
        x = Poly.monomial(ctx, k)
        if not (s1 & {b + x for b in s2}):
            return x
        k += 1


def gamma_plus_check(f1: list[Poly], f2: list[Poly], f3: list[Poly],
                     ctx: FieldCtx) -> bool:
    """Finite-set semantics of the addition graph: |F1| + |F2| = |F3|.

    disjoint_shift gives x with F1 and F2 + x disjoint, and b -> b + x is
    injective, so the union has |F1| + |F2| elements; equipotence between
    finite sets is size equality.
    """
    s1, s2, s3 = set(f1), set(f2), set(f3)
    x = disjoint_shift(f1, f2, ctx)
    return len(s1 | {b + x for b in s2}) == len(s3)


@dataclass
class GammaTimesWitness:
    alpha: Poly
    beta: Poly
    product_set: list[Poly]

    def as_record(self) -> dict:
        return {"alpha": format_poly(self.alpha), "beta": format_poly(self.beta),
                "product_set": [format_poly(v) for v in self.product_set]}


def gamma_times_witness(f1: list[Poly], f2: list[Poly], ctx: FieldCtx) -> GammaTimesWitness:
    """alpha, beta: the first two monic irreducibles dividing no nonzero
    intra-set difference, so non-units comaximal with each other and with
    every difference.  The product set {beta*y + alpha*x} has |F1| * |F2|
    elements: beta*y + alpha*x = beta*y' + alpha*x' gives beta*(y - y') =
    alpha*(x' - x), so alpha | y - y', forcing y = y', and then x = x'."""
    s1 = sorted(set(f1), key=Poly.sort_key)
    s2 = sorted(set(f2), key=Poly.sort_key)
    if not s1 or not s2:
        raise ValueError("gamma_times_witness needs nonempty sets")
    diffs = [a - b for grp in (s1, s2) for a in grp for b in grp if a != b]
    alpha, beta = islice(_irreducibles_avoiding(diffs, ctx), 2)
    products = {beta * y + alpha * x for x in s1 for y in s2}
    return GammaTimesWitness(alpha, beta, sorted(products, key=Poly.sort_key))


# -- axiom instances over canonical finite sets -----------------------------------------


def delta_set(ctx: FieldCtx, k: int) -> list[Poly]:
    """The canonical k-element subset: the first k ring elements."""
    return list(islice(all_polys(ctx), k))


def psi_holds(set_a: list[Poly], set_b: list[Poly], ctx: FieldCtx) -> bool:
    """Truth of the injection sentence on a pair of finite sets, decided by
    running the builder and the independent verifier."""
    try:
        w = injection_witness(set_a, set_b, ctx)
    except SizeMismatch:
        return False
    return verify_injection(w, set_a, set_b)


_AXIOM_CAP = 8  # largest n and m an axiom instance may take


@lru_cache(maxsize=4 * (_AXIOM_CAP + 1) ** 2)  # every (k, n) pair for four fields
def _psi_delta(k: int, n: int, ctx: FieldCtx) -> bool:
    """psi on canonical sets, cached: the axiom loops reuse the same pairs."""
    return psi_holds(delta_set(ctx, k), delta_set(ctx, n), ctx)


@dataclass
class AxiomReport:
    entries: list[dict]

    @property
    def passed(self) -> bool:
        return all(e["passed"] for e in self.entries)

    def as_record(self) -> dict:
        return {"passed": self.passed, "entries": self.entries}


def axiom_instance_check(n: int, m: int, ctx: FieldCtx) -> AxiomReport:
    """Finite instances of the five axiom schemes at (n, m).

    Delta_k is modelled by the canonical k-element set; the order relation
    is the injection sentence, addition is the shifted disjoint union, and
    multiplication is the two-parameter product set.
    """
    if n < 0 or m < 0 or n > _AXIOM_CAP or m > _AXIOM_CAP:
        raise ValueError(f"instances must lie in [0, {_AXIOM_CAP}]")
    entries: list[dict] = []
    dn, dm = delta_set(ctx, n), delta_set(ctx, m)

    ok1 = gamma_plus_check(dn, dm, delta_set(ctx, n + m), ctx)
    entries.append({"axiom": "addition", "instance": [n, m], "passed": ok1})

    if n == 0 or m == 0:
        ok2 = n * m == 0
    else:
        ok2 = len(gamma_times_witness(dn, dm, ctx).product_set) == n * m
    entries.append({"axiom": "multiplication", "instance": [n, m], "passed": ok2})

    ok3 = True if n == m else not (_psi_delta(n, m, ctx) and _psi_delta(m, n, ctx))
    entries.append({"axiom": "distinctness", "instance": [n, m], "passed": ok3})

    ok4 = all(_psi_delta(k, n, ctx) == (k <= n) for k in range(_AXIOM_CAP + 1))
    entries.append({"axiom": "below-n-enumeration", "instance": [n], "passed": ok4})

    ok5 = all(_psi_delta(k, n, ctx) or _psi_delta(n, k, ctx) for k in range(_AXIOM_CAP + 1))
    entries.append({"axiom": "comparability", "instance": [n], "passed": ok5})
    return AxiomReport(entries)
