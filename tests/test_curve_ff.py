import functools
import random

import pytest

from kummerwit.base_algebra import Poly, RatFunc, field_ctx, parse_point
from kummerwit import curve_ff
from kummerwit.base_algebra.poly import all_polys, polys_of_degree
from kummerwit.curve_ff import (CurveParams, ECPoint, _filtered_pairs, curve_make,
                                ec_add, ec_mul, ec_neg, is_on_curve, is_torsion,
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
    for curve, bounds in ((curve_make(f3, 2), (2, 1)), (curve_make(f3, 5), (2, 1)),
                          (curve_make(f9, 2), (1, 1))):
        serial = point_search(curve, *bounds)
        parallel = point_search(curve, *bounds, workers=2)
        assert serial == parallel and serial
        assert all(is_on_curve(pt, curve) for pt in parallel)
    assert (stabilization_probe(3, 1, 5, 2, 1, (1, 0), workers=2).as_record()
            == stabilization_probe(3, 1, 5, 2, 1, (1, 0)).as_record())


def test_point_search_rejects_worker_counts_out_of_range(f3, monkeypatch):
    import os

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started despite an invalid worker count")

    monkeypatch.setattr(curve_ff, "ProcessPoolExecutor", no_pool)
    for workers in (0, (os.cpu_count() or 1) + 1):
        with pytest.raises(ValueError, match="workers"):
            point_search(curve_make(f3, 2), 1, 0, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            stabilization_probe(3, 1, 5, 2, 1, (1, 0), workers=workers)


@pytest.mark.parametrize("stride", [2, 3])
@pytest.mark.parametrize("block", [4096, 10])
def test_shards_partition_the_raw_pairs(f3, stride, block, monkeypatch):
    """Over F_3 at bounds (2, 1) there are 27 numerators, an odd count, so the
    cut at raw index w_index * 27 + u_index starts each w row of a shard at
    alternating offsets; the shards still partition the filtered pairs, also
    when a shard holds the numerators 10 at a time (the 18 of degree 2 then
    come with their constant term fixed, 6 at a time)."""
    us = [u.coeffs for u in all_polys(f3, 2)]
    ws = [w.coeffs for d in (0, 1) for w in polys_of_degree(f3, d, monic=True)]
    assert len(us) == 27
    index = lambda pairs: [ws.index(w.coeffs) * 27 + us.index(u.coeffs) for u, w in pairs]
    everything = index(_filtered_pairs(f3, 5, 2, 1, 0, 1))
    assert everything == sorted(everything)
    monkeypatch.setattr(curve_ff, "_U_BLOCK", block)
    shards = [index(_filtered_pairs(f3, 5, 2, 1, i, stride)) for i in range(stride)]
    for i, shard in enumerate(shards):
        assert all(k % stride == i for k in shard)
    assert sorted(k for shard in shards for k in shard) == everything


def test_small_multiples_on_lemma_scope_curve():
    """On the N = 3 curve over F_5 (an odd prime exponent) the two-torsion set
    certifies torsion: the search finds a point outside it, and that point
    has no vanishing multiple up to 12."""
    E3 = curve_make(field_ctx(5, 1), 3)
    found = [pt for pt in point_search(E3, 3, 1) if not is_torsion(pt, E3)]
    assert found, "the search must find a non-torsion point"
    P = found[0]
    assert repr(P.x) == "4*s^3+4*s^2+1*s" and ec_neg(P) in found
    for k in range(1, 13):
        assert not ec_mul(k, P, E3).is_infinity


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


# -- the sample filter against the FF predicate it replaced ---------------------------


def ff_sample_filter(ctx, N):
    """The old prefilter on FF objects, as a predicate on (u, w, seen): at each
    sample c with w(c) != 0, w*u*(u+w)*(u+w*c^N) must be a square (zero
    counts as a square).  Evaluations and square tests are memoized."""
    elems = list(ctx.elements())
    samples = [(c, c ** N) for c in (elems if ctx.q <= 16 else elems[:8])]
    value = functools.cache(lambda f, c: f.evaluate(c))
    is_square = functools.cache(lambda x: x.is_square())

    def passes(u, w, seen):
        for c, cN in samples:
            wc = value(w, c)
            if not wc:
                seen.add("w(c) = 0")
                continue
            uc = value(u, c)
            if not c:
                seen.add("c = 0")
            if not uc + wc:
                seen.add("u(c) + w(c) = 0")
            if not is_square(wc * uc * (uc + wc) * (uc + wc * cN)):
                return False
        return True
    return passes


# (p, a, bounds, stride, Ns): every raw pair for p in {3, 5, 7, 13} and a in
# {1, 2}, with den_deg 1 (so that w(c) = 0 occurs) and num_deg 2 where the
# pair count allows (over F_3, c^2 = c^4, so a wrong power of c in a degree-2
# term shows only over larger fields); the fields with q > 16 take the
# 8-sample branch; F_27 takes every 14th pair from an offset, as a shard
# does; F_169 has 28,730 pairs and is checked at one N
FILTER_CASES = [(3, 1, (2, 1), 1, (2, 5)), (5, 1, (2, 1), 1, (2, 7)),
                (7, 1, (2, 1), 1, (2, 5)), (13, 1, (1, 1), 1, (2, 5)),
                (3, 2, (1, 1), 1, (2, 5)), (5, 2, (0, 1), 1, (2, 7)),
                (7, 2, (0, 1), 1, (2, 5)), (13, 2, (0, 1), 1, (5,)),
                (3, 3, (1, 1), 14, (2, 5))]


@pytest.mark.parametrize("p,a,bounds,stride,Ns", FILTER_CASES,
                         ids=[f"F{case[0]}^{case[1]}" for case in FILTER_CASES])
def test_log_filter_matches_ff_predicate(p, a, bounds, stride, Ns):
    ctx = field_ctx(p, a)
    num_deg, den_deg = bounds
    us = list(all_polys(ctx, num_deg))
    ws = [w for d in range(den_deg + 1) for w in polys_of_degree(ctx, d, monic=True)]
    raw = [(u, w) for w in ws for u in us]
    shard = stride // 2
    for N in Ns:
        seen: set[str] = set()
        passes = ff_sample_filter(ctx, N)
        want = [(u, w) for u, w in raw[shard::stride] if passes(u, w, seen)]
        assert list(_filtered_pairs(ctx, N, num_deg, den_deg, shard, stride)) == want, (p, a, N)
        assert seen == {"c = 0", "w(c) = 0", "u(c) + w(c) = 0"}, (p, a, N, seen)
        assert 0 < len(want) < len(raw[shard::stride])
