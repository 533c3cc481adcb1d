import random
from dataclasses import replace
from itertools import combinations
from math import prod

import pytest

from kummerwit.base_algebra import Poly, all_polys, field_ctx, poly_ext_gcd
from kummerwit.base_algebra import poly as kernel
from kummerwit.base_algebra.grammar import parse_poly
from kummerwit.errors import SizeMismatch, UnitA, ZeroInA
from kummerwit.witnesses import (are_comaximal, axiom_instance_check,
                                 comaximal_shift, coprime_element, delta_set,
                                 disjoint_shift, divides, gamma_plus_check,
                                 gamma_times_witness, injection_witness,
                                 is_nzu, psi_holds, verify_injection)
from tests.test_poly import rand_poly


def test_coprime_element_examples(f3):
    s = Poly.gen(f3)
    one = Poly.one(f3)
    assert coprime_element([s], f3) == s + one
    assert coprime_element([Poly.zero(f3)], f3) == s
    quad = coprime_element([s, s + one, s + one + one], f3)
    assert repr(quad) == "1*s^2+1"


def test_coprime_element_property(f3, f7):
    rng = random.Random(3)
    for ctx in (f3, f7):
        for _ in range(20):
            elems = [rand_poly(ctx, rng, 3) for _ in range(rng.randrange(1, 5))]
            x = coprime_element(elems, ctx)
            assert is_nzu(x)
            for a in elems:
                if not a.is_zero():
                    assert not divides(x, a)
                    assert poly_ext_gcd(x, a)[0].is_one()


def test_comaximal_shift_examples(f3):
    s = Poly.gen(f3)
    one = Poly.one(f3)
    g = comaximal_shift([one], s)
    assert is_nzu(one + g) and are_comaximal(s, one + g)

    two = Poly.const(f3, 2)
    g = comaximal_shift([one, two], s)
    assert are_comaximal(one + g, one + two * g)

    with pytest.raises(ZeroInA):
        comaximal_shift([Poly.zero(f3), one], s)
    with pytest.raises(UnitA):
        comaximal_shift([one], two)
    with pytest.raises(UnitA):
        comaximal_shift([one], Poly.zero(f3))


def assert_shift_bullets(items, a, ctx):
    """The lemma of comaximal_shift, certified by extended gcd: each
    1 + a_i*g a nonzero non-unit comaximal with a, and pairwise comaximal."""
    g = comaximal_shift(items, a)
    shifted = [Poly.one(ctx) + ai * g for ai in items]
    assert all(is_nzu(t) and are_comaximal(a, t) for t in shifted)
    for t1, t2 in combinations(shifted, 2):
        assert are_comaximal(t1, t2)


def test_comaximal_shift_bullets_randomized(f3, f7, f9):
    """Small sets over F_3 and F_7, and the shapes of the witness inject
    slots over F_9 and F_{3^7}: up to 5 elements of degree 2 to 3."""
    rng = random.Random(21)
    for ctx in (f3, f7):
        nonzero_pool = [p for p in all_polys(ctx, 2) if not p.is_zero()]
        for _ in range(25):
            items = rng.sample(nonzero_pool, rng.randrange(1, 4))
            a = rand_poly(ctx, rng, 3, nonzero=True)
            if not a.is_constant():
                assert_shift_bullets(items, a, ctx)
    for ctx, cases in ((f9, 8), (field_ctx(3, 7), 3)):
        for size in range(1, 6):
            for _ in range(cases):
                items = {Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randrange(2, 4))]
                              + [rng.randrange(1, ctx.q)]) for _ in range(size)}
                a = Poly(ctx, [rng.randrange(ctx.q), rng.randrange(1, ctx.q)])
                assert_shift_bullets(sorted(items, key=Poly.sort_key), a, ctx)


def test_builders_take_no_certificate(f3, f7, f9, monkeypatch):
    """comaximal_shift, coprime_element and gamma_times_witness are correct
    by the lemmas in their docstrings and call no extended gcd: with
    poly_ext_gcd and are_comaximal raising, they return the same values."""
    import kummerwit.witnesses as witnesses
    rng = random.Random(77)
    cases = []
    for ctx in (f3, f7, f9):
        pool = [p for p in all_polys(ctx, 2) if not p.is_zero()]
        for _ in range(6):
            items = rng.sample(pool, rng.randrange(1, 5))
            other = rng.sample(pool, rng.randrange(1, 5))
            a = Poly.gen(ctx) * rand_poly(ctx, rng, 2, nonzero=True)
            cases.append((ctx, items, other, a))

    def build():
        return [(comaximal_shift(items, a), coprime_element(items + other, ctx),
                 gamma_times_witness(items, other, ctx)) for ctx, items, other, a in cases]

    expected = build()

    def refuse(*args):
        raise AssertionError("a builder asked for a certificate")

    monkeypatch.setattr(witnesses, "poly_ext_gcd", refuse)
    monkeypatch.setattr(witnesses, "are_comaximal", refuse)
    assert build() == expected


def test_are_comaximal_refuses_a_forged_certificate(f3, monkeypatch):
    """The Bezout identity is part of the verdict, not an assert that python
    -O strips: a certificate claiming d = 1 for s and s(s + 1), or cofactors
    that miss d, gives False rather than AssertionError."""
    import kummerwit.witnesses as witnesses
    s, one = Poly.gen(f3), Poly.one(f3)
    d, u, v = poly_ext_gcd(s, s + one)
    assert d.is_one() and are_comaximal(s, s + one)
    monkeypatch.setattr(witnesses, "poly_ext_gcd", lambda f, g: (one, u, v))
    assert are_comaximal(s, s * (s + one)) is False
    monkeypatch.setattr(witnesses, "poly_ext_gcd", lambda f, g: (d, u, v + one))
    assert are_comaximal(s, s + one) is False


def test_injection_witness_worked_examples(f3):
    s = Poly.gen(f3)
    zero, one = Poly.zero(f3), Poly.one(f3)
    a_set = [zero, one]
    b_set = [zero, one, s]
    w = injection_witness(a_set, b_set, f3)
    assert verify_injection(w, a_set, b_set)

    w_empty = injection_witness([], b_set, f3)
    assert w_empty.disjunct == "subset"
    assert verify_injection(w_empty, [], b_set)

    w_same = injection_witness(a_set, a_set, f3)
    assert w_same.disjunct == "subset"
    assert verify_injection(w_same, a_set, a_set)

    with pytest.raises(SizeMismatch):
        injection_witness(b_set, a_set, f3)


def test_injection_witness_tuple_path(f3):
    # disjoint sets exercise the seven-element construction
    s = Poly.gen(f3)
    a_set = [Poly.zero(f3), Poly.one(f3)]
    b_set = [s, s + Poly.one(f3), s * s]
    w = injection_witness(a_set, b_set, f3)
    assert w.disjunct == "tuple"
    assert verify_injection(w, a_set, b_set)
    # tampering with m must break verification
    w.m = w.m + Poly.one(f3)
    assert not verify_injection(w, a_set, b_set)


@pytest.mark.parametrize("name", ["g", "m", "c", "d", "u", "g2", "m2"])
def test_verify_injection_rejects_missing_field(f3, name):
    s = Poly.gen(f3)
    a_set = [Poly.zero(f3), Poly.one(f3)]
    b_set = [s, s + Poly.one(f3), s * s]
    w = injection_witness(a_set, b_set, f3)
    assert verify_injection(w, a_set, b_set)
    assert verify_injection(replace(w, **{name: None}), a_set, b_set) is False


def test_verify_injection_reduces_m_once_per_modulus(monkeypatch):
    """On the F_7, |A| = 5 input of the golden corpus the verifier divides m
    by each modulus 1 + g(x - c) once, and divides nothing else by a modulus
    (the per-(x, y) route divided m - y for every candidate y)."""
    ctx = field_ctx(7, 1)
    set_a = [parse_poly(t, ctx) for t in
             "6*s^2+4*s+6;6*s^2+4*s+3;4*s^2+6*s+1;6*s^2+4*s+5;2*s^2+3*s".split(";")]
    set_b = [parse_poly(t, ctx) for t in
             "6*s^2+4*s;3*s^2+3*s+4;6*s^2+4;1*s^2;4*s^2+3*s+2;5*s^2+1*s+4".split(";")]
    w = injection_witness(set_a, set_b, ctx)
    moduli = [(Poly.one(ctx) + w.g * (x - w.c)).coeffs
              for x in sorted(set_a, key=Poly.sort_key)]
    calls = []
    divmod_ = kernel._divmod
    monkeypatch.setattr(kernel, "_divmod",
                        lambda ctx, f, g, *rest: calls.append((f, g)) or divmod_(ctx, f, g, *rest))
    assert verify_injection(w, set_a, set_b)
    divisions = [(f, g) for f, g in calls if g in moduli and len(f) >= len(g)]
    assert divisions == [(w.m.coeffs, t) for t in moduli]


def test_injection_witness_randomized(f3, f7):
    rng = random.Random(31337)
    passed = 0
    for ctx in (f3, f7):
        pool = [p for p in all_polys(ctx, 3)]
        while passed < 25 or (ctx is f7 and passed < 50):
            na = rng.randrange(0, 6)
            nb = rng.randrange(na, 7)
            a_set = rng.sample(pool, na)
            b_set = rng.sample(pool, nb)
            w = injection_witness(a_set, b_set, ctx)
            assert verify_injection(w, a_set, b_set), (a_set, b_set)
            passed += 1
    assert passed >= 50


def test_gamma_plus(f3):
    s = Poly.gen(f3)
    zero, one = Poly.zero(f3), Poly.one(f3)
    x_set = [s, s + Poly.one(f3)]
    assert gamma_plus_check(x_set, [], x_set, f3)
    assert gamma_plus_check([], x_set, x_set, f3)
    assert gamma_plus_check([zero], [zero], [zero, s], f3)
    assert not gamma_plus_check([zero], [zero], [zero], f3)
    shift = disjoint_shift([zero], [zero], f3)
    assert shift == Poly.one(f3)  # already the monomial 1 separates {0} from {1}
    assert disjoint_shift([zero, one], [zero, one], f3) == s


def test_gamma_times_examples(f3):
    s = Poly.gen(f3)
    zero, one = Poly.zero(f3), Poly.one(f3)
    w = gamma_times_witness([zero, one], [zero, s], f3)
    assert len(w.product_set) == 4
    w = gamma_times_witness([zero], [zero, s, s * s], f3)
    assert len(w.product_set) == 3
    w = gamma_times_witness([zero], [zero], f3)
    assert len(w.product_set) == 1


def test_gamma_times_randomized(f3, f7):
    rng = random.Random(404)
    done = 0
    for ctx in (f3, f7):
        pool = [p for p in all_polys(ctx, 2)]
        while done < 25 or (ctx is f7 and done < 50):
            f1 = rng.sample(pool, rng.randrange(1, 5))
            f2 = rng.sample(pool, rng.randrange(1, 5))
            w = gamma_times_witness(f1, f2, ctx)
            assert len(w.product_set) == len(set(f1)) * len(set(f2))
            assert is_nzu(w.alpha) and is_nzu(w.beta) and are_comaximal(w.alpha, w.beta)
            for grp in (f1, f2):
                for x, y in combinations(grp, 2):
                    assert are_comaximal(w.alpha, x - y) and are_comaximal(w.beta, x - y)
            products = [w.beta * y + w.alpha * x for x in f1 for y in f2]
            assert len(set(products)) == len(products)
            done += 1
    assert done >= 50


def test_delta_sets_and_psi(f3):
    assert [repr(p) for p in delta_set(f3, 4)] == ["0", "1", "2", "1*s"]
    assert psi_holds(delta_set(f3, 2), delta_set(f3, 5), f3)
    assert not psi_holds(delta_set(f3, 5), delta_set(f3, 2), f3)
    assert psi_holds(delta_set(f3, 3), delta_set(f3, 3), f3)


def test_axiom_instances(f3):
    rep = axiom_instance_check(2, 3, f3)
    assert rep.passed
    assert [e["axiom"] for e in rep.entries] == [
        "addition", "multiplication", "distinctness",
        "below-n-enumeration", "comparability"]
    assert axiom_instance_check(0, 4, f3).passed
    assert axiom_instance_check(4, 4, f3).passed
    with pytest.raises(ValueError):
        axiom_instance_check(9, 0, f3)


def test_psi_delta_cache_is_bounded_and_reused(f3):
    from kummerwit.witnesses import _AXIOM_CAP, _psi_delta
    _psi_delta.cache_clear()
    axiom_instance_check(2, 3, f3)
    info = _psi_delta.cache_info()
    assert info.maxsize >= (_AXIOM_CAP + 1) ** 2
    assert info.hits > 0 and info.currsize <= info.maxsize


# -- the deleted computations, kept as oracles ----------------------------------------


def old_comaximal_shift(elements, a, ctx):
    """The former builder: c over ordered pairs, then the least power of s
    making every 1 + a_i*g nonconstant."""
    items = sorted(set(elements), key=Poly.sort_key)
    one = Poly.one(ctx)
    c = one
    for i, ai in enumerate(items):
        for j, aj in enumerate(items):
            if i != j:
                c = c * (ai - aj) ** 2
    power = 0
    while True:
        g = a * Poly.monomial(ctx, power) * c
        if all(is_nzu(one + ai * g) for ai in items):
            return g
        power += 1


def test_comaximal_shift_matches_power_loop_oracle(f3, f7, f9):
    rng = random.Random(1809)
    for ctx in (f3, f7, f9):
        nonzero = [p for p in all_polys(ctx, 2) if not p.is_zero()]
        cases = [[Poly.one(ctx)], [Poly.const(ctx, 2)],
                 [Poly.const(ctx, c) for c in (1, 2)]]  # constant differences
        cases += [rng.sample(nonzero, rng.randrange(1, 5)) for _ in range(12)]
        for items in cases:
            a = rand_poly(ctx, rng, 2, nonzero=True)
            if a.is_constant():
                a = a * Poly.gen(ctx)
            assert comaximal_shift(items, a) == old_comaximal_shift(items, a, ctx)


def old_verify_injection(w, set_a, set_b):
    """The former verifier: every clause for every ordered pair and every
    (x, y), with divides(1 + g(x - c), m - y) per pair, and pairwise
    disjointness of the matched-y sets."""
    a_items = sorted(set(set_a), key=Poly.sort_key)
    b_items = sorted(set(set_b), key=Poly.sort_key)
    if w.disjunct == "subset":
        return set(a_items) <= set(b_items)
    if w.u is None or w.u.is_zero():
        return False
    if w.c in set(a_items) or w.d in set(b_items):
        return False
    one = Poly.one(w.u.ctx)
    moduli = {x: one + w.g * (x - w.c) for x in a_items}
    if not all(is_nzu(t) for t in moduli.values()):
        return False
    mod_list = list(moduli.values())
    for i in range(len(mod_list)):
        for j in range(i + 1, len(mod_list)):
            if not are_comaximal(mod_list[i], mod_list[j]):
                return False
    for x1 in a_items:
        for x2 in a_items:
            if x1 != x2 and not divides(x1 - x2, w.u):
                return False
    matches = {}
    for x in a_items:
        found = []
        for y in b_items:
            link = one + w.g2 * (y - w.d)
            if (divides(moduli[x], w.m - y) and is_nzu(link)
                    and divides(link, w.m2 - x) and not divides(link, w.u)):
                found.append(y)
        if not found:
            return False
        matches[x] = found
    for i, x1 in enumerate(a_items):
        for x2 in a_items[i + 1:]:
            if set(matches[x1]) & set(matches[x2]):
                return False
    return True


# (p, a, |A|, degree) of the injection inputs in perfbench's poly workload, and F_5
_INJECT_SHAPES = [(7, 1, 5, 2), (3, 1, 4, 3), (3, 2, 2, 3), (7, 1, 3, 2), (3, 2, 2, 2),
                  (3, 1, 2, 3), (7, 1, 2, 3), (5, 1, 3, 2)]


def test_verify_injection_matches_per_pair_oracle():
    """Genuine witnesses on disjoint A, B with |B| = |A| + 1, as drawn and
    with every element of B raised to degree >= deg modulus, and every
    single-field tampering of each; m + the product of the moduli (still
    valid), m + 1, m + m and m' + 1; and B extended by an element of degree
    >= deg modulus congruent to an image: same verdict from both verifiers,
    so y mod the modulus against m's remainder agrees with divides(modulus,
    m - y)."""
    rng = random.Random(18)
    verdicts = set()
    for p, a, na, deg in _INJECT_SHAPES:
        ctx = field_ctx(p, a)
        items = rng.sample(list(all_polys(ctx, deg)), 2 * na + 1)
        zero, one, s = Poly.zero(ctx), Poly.one(ctx), Poly.gen(ctx)
        for raised in (False, True):
            set_a, set_b = items[:na], items[na:]
            if raised:  # g depends on A only, so the moduli keep their degree
                shift = s ** (injection_witness(set_a, set_b, ctx).g.degree() + 3)
                set_b = [y + shift for y in set_b]
            w = injection_witness(set_a, set_b, ctx)
            a_sorted = sorted(set_a, key=Poly.sort_key)
            b_sorted = sorted(set_b, key=Poly.sort_key)
            moduli = [one + w.g * (x - w.c) for x in a_sorted]
            tampered = [w, replace(w, g=w.g2, g2=w.g), replace(w, m=w.m2, m2=w.m),
                        replace(w, c=a_sorted[0]), replace(w, d=b_sorted[-1]),
                        replace(w, u=zero), replace(w, u=one),
                        replace(w, m=w.m + prod(moduli, start=one)), replace(w, m=w.m + one),
                        replace(w, m=w.m + w.m), replace(w, m2=w.m2 + one)]
            cases = [(t, set_a, set_b) for t in tampered]
            cases.append((w, set_a, b_sorted[1:]))  # the image of the first x dropped
            far = b_sorted[0] + moduli[0] * s  # congruent to the first x's image
            cases.append((w, set_a, set_b + [far]))
            for t, sa, sb in cases:
                got = verify_injection(t, sa, sb)
                assert got == old_verify_injection(t, sa, sb), (p, a, raised, t)
                verdicts.add(got)
            assert verify_injection(w, set_a, set_b)
            assert verify_injection(replace(w, m=w.m + prod(moduli, start=one)), set_a, set_b)
    assert verdicts == {True, False}
