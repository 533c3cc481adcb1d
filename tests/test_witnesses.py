import random

import pytest

from kummerwit.base_algebra import Poly, all_polys, poly_ext_gcd
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
    g = comaximal_shift([one], s, f3)
    assert is_nzu(one + g) and are_comaximal(s, one + g)

    two = Poly.const(f3, 2)
    g = comaximal_shift([one, two], s, f3)
    assert are_comaximal(one + g, one + two * g)

    with pytest.raises(ZeroInA):
        comaximal_shift([Poly.zero(f3), one], s, f3)
    with pytest.raises(UnitA):
        comaximal_shift([one], two, f3)
    with pytest.raises(UnitA):
        comaximal_shift([one], Poly.zero(f3), f3)


def test_comaximal_shift_bullets_randomized(f3, f7):
    rng = random.Random(21)
    for ctx in (f3, f7):
        nonzero_pool = [p for p in all_polys(ctx, 2) if not p.is_zero()]
        for _ in range(25):
            items = rng.sample(nonzero_pool, rng.randrange(1, 4))
            a = rand_poly(ctx, rng, 3, nonzero=True)
            if a.is_constant():
                continue
            g = comaximal_shift(items, a, ctx)
            one = Poly.one(ctx)
            shifted = [one + ai * g for ai in items]
            assert all(is_nzu(t) for t in shifted)
            assert all(are_comaximal(a, t) for t in shifted)
            for i in range(len(shifted)):
                for j in range(i + 1, len(shifted)):
                    assert are_comaximal(shifted[i], shifted[j])


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
            assert are_comaximal(w.alpha, w.beta)
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
