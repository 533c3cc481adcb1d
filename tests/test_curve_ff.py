import random

import pytest

from kummerwit.base_algebra import Poly, RatFunc, field_ctx, parse_point
from kummerwit.curve_ff import (CurveParams, ECPoint, curve_make, ec_add,
                                ec_mul, ec_neg, is_on_curve, is_torsion,
                                j_invariant, point_search, stabilization_probe,
                                two_torsion)
from kummerwit.errors import BadN, OffCurve
from kummerwit.family import family_grow


def sample_point(f3):
    s = Poly.gen(f3)
    return ECPoint.affine(RatFunc.from_poly(s),
                          RatFunc.from_poly(s * (s + Poly.one(f3))))


def test_curve_make_validation(f3, f7):
    assert curve_make(f3, 1).N == 1
    with pytest.raises(BadN):
        curve_make(f3, 3)
    with pytest.raises(BadN):
        curve_make(f7, 14)
    with pytest.raises(BadN):
        curve_make(f3, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_j_invariant_matches_closed_form(p):
    # 256 (t^2 - t + 1)^3 / (t^2 (t - 1)^2), reduced mod p
    ctx = field_ctx(p, 1)
    s = Poly.gen(ctx)
    one = Poly.one(ctx)
    closed = RatFunc(Poly.const(ctx, 256) * (s * s - s + one) ** 3,
                     (s * (s - one)) ** 2)
    assert j_invariant(curve_make(ctx, 1)) == closed


def test_j_invariant_nonconstant(f7):
    j = j_invariant(curve_make(f7, 2))
    assert not (j.num.is_constant() and j.den.is_constant())


def test_add_identity_and_torsion(f3):
    E2 = curve_make(f3, 2)
    zero = RatFunc.zero(f3)
    t00 = ECPoint.affine(zero, zero)
    assert ec_add(t00, t00, E2).is_infinity
    P = sample_point(f3)
    assert ec_add(P, ECPoint.infinity(), E2) == P
    assert ec_add(ECPoint.infinity(), P, E2) == P
    assert ec_add(P, ec_neg(P), E2).is_infinity


def test_duplication_fixture(f3):
    """2P for P = (s, s(s+1)) on the N = 2 curve, frozen from the duplication
    formula x(2P) = (x^2 - a4)^2 / (4 y^2); here x^2 = s^2 = a4 exactly."""
    E2 = curve_make(f3, 2)
    P = sample_point(f3)
    dbl = ec_mul(2, P, E2)
    zero = RatFunc.zero(f3)
    assert dbl == ECPoint.affine(zero, zero)
    a4 = RatFunc.from_poly(Poly.monomial(f3, 2))
    dup_x = (P.x * P.x - a4) ** 2 / (RatFunc.const(f3, 4) * P.y * P.y)
    assert dup_x == dbl.x


def test_group_law_commutative_associative(f3):
    E2 = curve_make(f3, 2)
    P = sample_point(f3)
    pool = list(two_torsion(E2)) + [P, ec_mul(2, P, E2), ec_mul(3, P, E2), ec_neg(P)]
    pool = [pt for pt in pool if is_on_curve(pt, E2)]
    rng = random.Random(15)
    count = 0
    while count < 120:
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert ec_add(a, b, E2) == ec_add(b, a, E2)
        assert ec_add(ec_add(a, b, E2), c, E2) == ec_add(a, ec_add(b, c, E2), E2)
        count += 1


def test_two_torsion_set(f3):
    E2 = curve_make(f3, 2)
    tors = two_torsion(E2)
    assert len(tors) == 4
    for pt in tors:
        assert is_on_curve(pt, E2)
        assert ec_mul(2, pt, E2).is_infinity
    P = sample_point(f3)
    assert not is_torsion(P, E2)
    assert is_torsion(ECPoint.affine(-RatFunc.one(f3), RatFunc.zero(f3)), E2)


def test_off_curve_rejected(f3):
    E2 = curve_make(f3, 2)
    bad = ECPoint.affine(RatFunc.one(f3), RatFunc.one(f3))
    with pytest.raises(OffCurve):
        ec_add(bad, bad, E2)
    with pytest.raises(OffCurve):
        is_torsion(bad, E2)
    with pytest.raises(OffCurve):
        ec_mul(3, bad, E2)
    with pytest.raises(OffCurve):
        family_grow(bad, E2, 2)


def test_point_search_worked_cases(f3, f7):
    E2 = curve_make(f3, 2)
    found = point_search(E2, 1, 0)
    literals = {repr(pt) for pt in found}
    assert {"(0; 0)", "(2; 0)", "(1*s; 1*s^2+1*s)", "(1*s; 2*s^2+2*s)"} <= literals
    for pt in found:
        assert is_on_curve(pt, E2)

    only_torsion = point_search(curve_make(f3, 1), 0, 0)
    assert {repr(pt) for pt in only_torsion} == {"(0; 0)", "(2; 0)"}

    assert len(point_search(curve_make(f7, 1), 0, 0)) <= 8


def test_point_search_monotone_in_bounds(f3):
    E2 = curve_make(f3, 2)
    small = set(point_search(E2, 1, 0))
    large = set(point_search(E2, 2, 1))
    assert small <= large
    # the third two-torsion point appears once the numerator bound reaches 2
    assert ECPoint.affine(-RatFunc.from_poly(Poly.monomial(f3, 2)),
                          RatFunc.zero(f3)) in large


def test_point_search_parallel_matches_serial(f3, f9):
    for curve, bounds in ((curve_make(f3, 2), (2, 1)), (curve_make(f9, 2), (1, 1))):
        serial = point_search(curve, *bounds)
        parallel = point_search(curve, *bounds, workers=2)
        assert serial == parallel and serial
        assert all(is_on_curve(pt, curve) for pt in parallel)
    assert (stabilization_probe(3, 1, 5, 2, 1, (1, 0), workers=2).as_record()
            == stabilization_probe(3, 1, 5, 2, 1, (1, 0)).as_record())


def test_small_multiples_on_lemma_scope_curve(f3):
    """On the N = 7 curve (the constructed odd prime exponent for p = 3) the
    two-torsion set certifies torsion: any other found point has no vanishing
    multiple up to 16."""
    E7 = curve_make(f3, 7)
    for pt in point_search(E7, 2, 1):
        if not is_torsion(pt, E7):
            for k in range(1, 17):
                assert not ec_mul(k, pt, E7).is_infinity


def test_mul_matches_repeated_addition(f3):
    """Double-and-add against repeated addition on a non-torsion point of the
    N = 5 curve (point_search finds it at bounds (6, 2))."""
    E5 = curve_make(f3, 5)
    P = parse_point("(2*s^5+1*s^4+1*s^3+2*s^2+2*s; 1*s^7+1*s^6+2*s^5+2*s^3+2*s^2+1*s)", f3)
    assert is_on_curve(P, E5) and not is_torsion(P, E5)
    acc = ECPoint.infinity()
    for k in range(1, 9):
        acc = ec_add(acc, P, E5)
        assert ec_mul(k, P, E5) == acc
    assert ec_mul(-6, P, E5) == ec_neg(ec_mul(6, P, E5))


def test_stabilization_probe_trivial_cases():
    rep = stabilization_probe(3, 1, 7, 11, 0, (1, 0))
    assert rep.n_est == 0 and len(rep.levels) == 1 and rep.heuristic
    rep = stabilization_probe(3, 1, 7, 11, 1, (0, 0))
    assert rep.n_est == 0  # constant points exist identically at every level


def test_stabilization_probe_small_tower():
    # r = 2 keeps the scaled bounds desk-sized; the machinery is generic in r
    rep = stabilization_probe(3, 1, 5, 2, 1, (1, 0))
    assert len(rep.levels) == 2
    assert rep.levels[1]["curve_exponent"] == 10
    assert rep.n_est in (0, 1)
    # determinism
    rep2 = stabilization_probe(3, 1, 5, 2, 1, (1, 0))
    assert rep.as_record() == rep2.as_record()
