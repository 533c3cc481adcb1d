"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value below is either hand-derivable, frozen from an
independent oracle computed in this file, or cross-checked between two
independent code paths.

Known red: criterion 5 carries a small-multiple non-vanishing clause for
the search point (s, s(s+1)) on the N = 2 curve over F_3(s).  That point
has 2P = (0, 0) (confirmed independently by the duplication formula), hence
4P = O, so the clause fails as a matter of exact arithmetic.  It is kept
faithful and red rather than weakened; see test_criterion_05b.
"""

import math
import random
import time

import pytest

from kummerwit.base_algebra import (Place, Poly, RatFunc, all_polys,
                                    factor_place_in_tower, field_ctx,
                                    irreducibles, boundedness_probe)
from kummerwit.characters import is_balanced, is_balanced_fast
from kummerwit.curve_ff import (ECPoint, curve_make, ec_add, ec_mul, ec_neg,
                                is_on_curve, is_torsion, j_invariant,
                                point_search, two_torsion)
from kummerwit.errors import ZeroInput
from kummerwit.family import family_grow
from kummerwit.kummer_local import KummerCase, kummer_case, verify_descent_lemma
from kummerwit.rank_engine import BalanceRouter, find_q, find_r, rank_formula
from kummerwit.witnesses import (are_comaximal, axiom_instance_check,
                                 comaximal_shift, gamma_times_witness,
                                 injection_witness, is_nzu, verify_injection)
from tests.test_poly import rand_poly


def report(num: str, name: str, ok: bool) -> bool:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_rank_constancy():
    start = time.monotonic()
    router = BalanceRouter()
    ranks = [rank_formula(3, 1, 7, 11, n, router).rank for n in range(5)]
    ok = ranks == [1, 1, 1, 1, 1]
    ranks_a2 = [rank_formula(3, 2, 7, 11, n, router).rank for n in range(5)]
    ok &= ranks_a2 == [2, 2, 2, 2, 2]
    c_values = [rank_formula(3, a, 7, 11, 0, router).rank for a in range(1, 13)]
    ok &= all(c <= 6 for c in c_values)

    # the fast Legendre path must agree with the pure character-oracle path
    # wherever the exhaustive scan is desk-sized (divisors up to 77)
    class OracleOnly:
        def balanced(self, x, e):
            return is_balanced(x, e)

    for n in (0, 1):
        ok &= rank_formula(3, 1, 7, 11, n, OracleOnly()).rank == ranks[n]
        ok &= rank_formula(3, 2, 7, 11, n, OracleOnly()).rank == ranks_a2[n]
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    assert report("01", "rank constancy", ok), (ranks, ranks_a2, c_values, elapsed)


def test_criterion_02_balance_agreement():
    start = time.monotonic()
    mismatches = []
    for m in range(3, 61):
        for x in range(1, m):
            if x % 2 == 1 and math.gcd(x, m) == 1:
                fast = is_balanced_fast(x, m)
                if fast is not None and fast != is_balanced(x, m):
                    mismatches.append((x, m))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    assert report("02", "balance oracle/shortcut agreement", ok), (mismatches, elapsed)


def test_criterion_03_going_up():
    failures = []
    for z in range(3, 41, 2):
        for y in sorted({p for p in range(3, z + 1, 2)
                         if z % p == 0 and all(p % d for d in range(2, p))}):
            m = y * z
            if m > 200:
                continue
            for x in range(1, m):
                if math.gcd(x, m) != 1:
                    continue
                if not is_balanced(x, z) and is_balanced(x, m):
                    failures.append((x, y, z))
    assert report("03", "going-up propagation", not failures), failures


def test_criterion_04_prime_search():
    ok = find_r(3, 2) == [11, 23] and find_q(3, 11) == 7
    assert report("04", "prime search reproduction", ok)


def test_criterion_05_curve_suite():
    start = time.monotonic()
    ok = True
    # j-invariant against the closed form, reduced mod p
    for p in (3, 5, 7):
        ctx = field_ctx(p, 1)
        s = Poly.gen(ctx)
        one = Poly.one(ctx)
        closed = RatFunc(Poly.const(ctx, 256) * (s * s - s + one) ** 3,
                         (s * (s - one)) ** 2)
        ok &= j_invariant(curve_make(ctx, 1)) == closed

    ctx3 = field_ctx(3, 1)
    E2 = curve_make(ctx3, 2)
    ok &= len(two_torsion(E2)) == 4

    s = Poly.gen(ctx3)
    target = ECPoint.affine(RatFunc.from_poly(s),
                            RatFunc.from_poly(s * s + s))
    found = point_search(E2, 1, 0)
    ok &= target in found
    ok &= not is_torsion(target, E2)

    pool = list(two_torsion(E2)) + found + [ec_mul(2, target, E2),
                                            ec_mul(3, target, E2)]
    pool = [pt for pt in pool if is_on_curve(pt, E2)]
    rng = random.Random(42)
    for _ in range(100):
        a, b, c = (rng.choice(pool) for _ in range(3))
        ok &= ec_add(ec_add(a, b, E2), c, E2) == ec_add(a, ec_add(b, c, E2), E2)
        ok &= ec_add(a, b, E2) == ec_add(b, a, E2)
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    assert report("05", "curve suite (j, law, torsion, search)", ok), elapsed


def test_criterion_05b_small_multiples_nonvanishing():
    """The remaining clause of criterion 5: no multiple k*P vanishes for
    k <= 16.  This fails: P = (s, s(s+1)) on y^2 = x(x+1)(x+s^2) over F_3(s)
    satisfies 2P = (0,0) exactly (duplication formula: x(2P) =
    (x^2 - s^2)^2 / (4y^2) = 0), so 4P = O.  Kept faithful and red."""
    ctx3 = field_ctx(3, 1)
    E2 = curve_make(ctx3, 2)
    s = Poly.gen(ctx3)
    target = ECPoint.affine(RatFunc.from_poly(s), RatFunc.from_poly(s * s + s))
    vanishing = [k for k in range(1, 17) if ec_mul(k, target, E2).is_infinity]
    report("05b", "small multiples of the search point stay affine", not vanishing)
    assert not vanishing, (
        f"k*P = O for k in {vanishing}: the point (s, s(s+1)) on the N = 2 "
        "curve over F_3(s) is 4-torsion (2P = (0,0) by exact duplication), "
        "so this clause cannot hold; left red deliberately")


def test_criterion_06_family_growth():
    start = time.monotonic()
    ctx3 = field_ctx(3, 1)
    E2 = curve_make(ctx3, 2)
    s = Poly.gen(ctx3)
    point = ECPoint.affine(RatFunc.from_poly(s), RatFunc.from_poly(s * s + s))
    ok = True
    sN = Poly.monomial(ctx3, 2)
    for target in (1, 2, 3):
        lam, res = family_grow(point, E2, target)
        ok &= len(res.members) >= target
        for x in res.members:
            y = res.witnesses[x]
            ok &= y * y * lam == x * (x + lam) * (x + lam * sN)
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    assert report("06", "family growth", ok), elapsed


def test_criterion_07_witness_suite():
    ctx3 = field_ctx(3, 1)
    ctx7 = field_ctx(7, 1)
    rng = random.Random(2718)
    ok = True

    # 50 randomized injection witnesses verify
    for i in range(50):
        ctx = ctx3 if i % 2 else ctx7
        pool = list(all_polys(ctx, 3))
        na = rng.randrange(0, 6)
        nb = rng.randrange(na, 7)
        a_set = rng.sample(pool, na)
        b_set = rng.sample(pool, nb)
        ok &= verify_injection(injection_witness(a_set, b_set, ctx), a_set, b_set)

    # 50 randomized product-set witnesses have multiplying sizes
    for i in range(50):
        ctx = ctx3 if i % 2 else ctx7
        pool = list(all_polys(ctx, 2))
        f1 = rng.sample(pool, rng.randrange(1, 5))
        f2 = rng.sample(pool, rng.randrange(1, 5))
        w = gamma_times_witness(f1, f2, ctx)
        ok &= len(w.product_set) == len(set(f1)) * len(set(f2))

    # comaximal shift clauses certified by extended gcd
    for _ in range(20):
        items = [f for f in (rand_poly(ctx3, rng, 2, nonzero=True)
                             for _ in range(3))]
        a = rand_poly(ctx3, rng, 3, nonzero=True)
        if a.is_constant():
            continue
        g = comaximal_shift(items, a)
        one = Poly.one(ctx3)
        shifted = [one + ai * g for ai in set(items)]
        ok &= all(is_nzu(t) and are_comaximal(a, t) for t in shifted)
        ok &= all(are_comaximal(shifted[i], shifted[j])
                  for i in range(len(shifted)) for j in range(i + 1, len(shifted)))

    # axiom instances for all n, m <= 6
    for n in range(7):
        for m in range(7):
            ok &= axiom_instance_check(n, m, ctx3).passed
    assert report("07", "witness suite", ok)


def test_criterion_08_kummer_local_suite():
    start = time.monotonic()
    ctx7 = field_ctx(7, 1)
    ctx13 = field_ctx(13, 1)
    ok = True

    t = RatFunc.gen(ctx7)
    pt = Place.finite(Poly.gen(ctx7))
    ok &= kummer_case(t, pt, 3, ctx7) is KummerCase.TOTALLY_RAMIFIED
    ok &= kummer_case(t + RatFunc.one(ctx7), pt, 3, ctx7) is KummerCase.SPLIT
    ok &= kummer_case(RatFunc.const(ctx7, 3), pt, 3, ctx7) is KummerCase.INERT_DEGREE_L

    rng = random.Random(31415)
    checked = 0
    for ctx in (ctx7, ctx13):
        places = [Place.infinity()]
        for d in (1, 2):
            places.extend(Place.finite(pi) for pi in irreducibles(ctx, d))
        per_field = 0
        while per_field < 25:
            place = rng.choice(places)
            x = RatFunc(rand_poly(ctx, rng, 2, nonzero=True),
                        rand_poly(ctx, rng, 2, nonzero=True))
            b = RatFunc(rand_poly(ctx, rng, 2, nonzero=True),
                        rand_poly(ctx, rng, 2, nonzero=True))
            c = RatFunc(rand_poly(ctx, rng, 2, nonzero=True),
                        rand_poly(ctx, rng, 2, nonzero=True))
            from kummerwit.base_algebra import valuation
            for which, inputs, main in (
                    ("divisibility_x", {"x": x, "b": b, "c": c}, "x"),
                    ("divisibility_d", {"x": c, "d": x, "a": b}, "d")):
                if valuation(inputs[main], place) < 0:
                    continue
                try:
                    verdict = verify_descent_lemma(which, inputs, 3, place, ctx)
                except ZeroInput:
                    continue
                ok &= verdict.conclusion_holds
                per_field += 1
        checked += per_field
    ok &= checked >= 50

    # obstruction lemmas: conclusion on every branch whenever hypotheses hold
    confirmed = 0
    for ctx in (ctx7, ctx13):
        uniformizers = [RatFunc.gen(ctx).inv()]
        uniformizers += [RatFunc.from_poly(pi) for pi in irreducibles(ctx, 1)]
        places = [Place.infinity()]
        places += [Place.finite(pi) for pi in irreducibles(ctx, 1)]
        for place, rho in zip(places, uniformizers):
            for _ in range(12):
                vb = -rng.randrange(1, 3)
                unit = RatFunc.const(ctx, rng.randrange(1, ctx.p))
                x = unit * rho ** (2 * vb)
                b = rho ** vb
                a_elem = RatFunc.const(ctx, rng.randrange(2, ctx.p))
                for which, inputs in (("obstruction_x", {"x": x, "b": b, "c": a_elem}),
                                      ("obstruction_d", {"x": x, "d": b, "a": a_elem})):
                    try:
                        verdict = verify_descent_lemma(which, inputs, 3, place, ctx)
                    except ZeroInput:
                        continue
                    if verdict.hypotheses_hold:
                        ok &= verdict.conclusion_holds
                        confirmed += 1
    ok &= confirmed >= 20
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    assert report("08", "Kummer local suite", ok), (checked, confirmed, elapsed)


def test_criterion_09_tower_factorization():
    ctx3 = field_ctx(3, 1)
    t_minus_1 = Place.finite(Poly.from_ints(ctx3, [2, 1]))
    out = factor_place_in_tower(t_minus_1, 11, 1, ctx3)
    ok = sorted((e, f) for _, e, f in out) == [(1, 1), (1, 5), (1, 5)]
    ok &= sum(e * f for _, e, f in out) == 11

    places = [Place.infinity()]
    for d in (1, 2):
        places.extend(Place.finite(pi) for pi in irreducibles(ctx3, d))
    ok &= all(boundedness_probe(pl, 11, 5, 3, ctx3) for pl in places)
    assert report("09", "tower factorization and boundedness", ok)


def test_criterion_10_out_of_desk_scope():
    """The infinite-field interpretation, the full first-order integrality
    definition, the exact tower stabilization level, and unbounded-degree
    finiteness are not desk-reproducible; they are covered only by the
    property suites above."""
    assert report("10", "out-of-desk-scale items documented", True)
