import random

import pytest

from kummerwit.base_algebra import Poly, RatFunc, field_ctx, parse_point
from kummerwit import curve_ff
from kummerwit.base_algebra.fields import FieldCtx
from kummerwit.base_algebra.poly import all_polys, poly_gcd, polys_of_degree
from kummerwit.base_algebra.ratfunc import poly_subs_monomial
from kummerwit.curve_ff import (CurveParams, ECPoint, curve_make,
                                ec_add, ec_mul, ec_neg, is_on_curve, is_torsion,
                                j_invariant, point_search, stabilization_probe,
                                two_torsion)
from kummerwit.errors import BadN, OffCurve, WorkBound
from kummerwit.family import family_grow
from tests.test_ratfunc import squarefree_sqrt


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


def generic_j(curve):
    """c4^3 / Delta from b2 = 4*a2, b4 = 2*a4 and b8 = -a4^2 of the model
    y^2 = x^3 + a2*x^2 + a4*x: the oracle for Legendre's formula."""
    const = lambda c: RatFunc.const(curve.ctx, c)  # noqa: E731
    a2, a4 = curve.a2(), curve.a4()
    b2, b4, b8 = const(4) * a2, const(2) * a4, -(a4 * a4)
    c4 = b2 * b2 - const(24) * b4
    disc = -(b2 * b2 * b8) - const(8) * b4 ** 3
    return c4 ** 3 / disc


def test_j_invariant_matches_generic_formula():
    """76 cases: p in {3, 5, 7, 11, 13} with a = 1, p in {3, 5} with a = 2,
    and every N <= 13 coprime to p."""
    cases = 0
    for p, a in [(p, 1) for p in (3, 5, 7, 11, 13)] + [(3, 2), (5, 2)]:
        ctx = field_ctx(p, a)
        for N in range(1, 14):
            if N % p:
                curve = curve_make(ctx, N)
                assert j_invariant(curve) == generic_j(curve), (p, a, N)
                cases += 1
    assert cases == 76


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


def test_point_search_parallel_matches_serial(f3, f7, f9):
    """Shards stride over the (b, a) pairs of the walk the leads rule and
    the sieve prune; the odd-N cases over F_3 at (4, 2) and F_9 at (2, 2)
    skip whole blocks, and the sieve drops candidates over F_7 at (3, 2)."""
    pruned = ((curve_make(f3, 7), (4, 2)), (curve_make(f9, 5), (2, 2)))
    for curve, bounds in pruned:
        leads = curve_ff._search_leads(curve)
        assert not all(leads(db, e, da) for db in range(bounds[1] // 2 + 1) for e in (0, 1)
                       for da in range((bounds[0] - e) // 2 + 1))
    sieved = (curve_make(f7, 4), (3, 2))
    leads = curve_ff._search_leads(sieved[0])
    assert (sum(1 for _ in curve_ff._candidates(f7, *sieved[1], leads, curve_ff._search_sieve(sieved[0])))
            < sum(1 for _ in curve_ff._candidates(f7, *sieved[1], leads)))
    for curve, bounds in ((curve_make(f3, 2), (2, 1)), (curve_make(f3, 5), (2, 1)),
                          (curve_make(f9, 2), (1, 1)), sieved) + pruned:
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


def all_levels_probe(p, a, q, r, n_max, bounds):
    """The former probe: every level's points lifted from every level below,
    level k by s -> s^(r^(n-k)); its levels records."""
    ctx = field_ctx(p, a)
    levels, below = [], []
    for n in range(n_max + 1):
        scale = r ** n
        pts = point_search(CurveParams(ctx, q * scale), bounds[0] * scale, bounds[1] * scale)
        lifted = {ECPoint.affine(poly_subs_monomial(pt.x, r ** (n - k)),
                                 poly_subs_monomial(pt.y, r ** (n - k)))
                  for k, level in enumerate(below) for pt in level}
        new = [pt for pt in pts if pt not in lifted]
        levels.append({"n": n, "curve_exponent": q * scale,
                       "bounds": [bounds[0] * scale, bounds[1] * scale],
                       "points": [repr(pt) for pt in sorted(pts, key=ECPoint.sort_key)],
                       "new_count": len(new) if n > 0 else len(pts)})
        below.append(pts)
    return levels


@pytest.mark.parametrize("args", [(3, 1, 5, 2, 2, (2, 0)), (5, 1, 2, 3, 2, (1, 0)),
                                  (3, 2, 5, 2, 2, (1, 0))])
def test_stabilization_probe_matches_all_levels_lifting(args):
    """Lifting level n - 1 alone gives the levels records that lifting every
    level below gives; each case has level-0 points that reach level 2."""
    levels = stabilization_probe(*args).levels
    assert levels == all_levels_probe(*args)
    assert len(levels[0]["points"]) > 0 and levels[2]["new_count"] < len(levels[2]["points"])


# -- the search against an exhaustive oracle ------------------------------------------


def exhaustive_search(curve, num_deg, den_deg):
    """Every coprime (u, w) within the bounds, w monic, decided by the
    squarefree-decomposition square root: the oracle for point_search."""
    ctx = curve.ctx
    points = set()
    for w in (w for d in range(den_deg + 1) for w in polys_of_degree(ctx, d, monic=True)):
        for u in all_polys(ctx, num_deg):
            if poly_gcd(u, w).is_one():
                x = RatFunc(u, w, reduce=False)
                y = squarefree_sqrt(RatFunc(u * (u + w) * (u + w.shift(curve.N)), w ** 3))
                if y is not None:
                    points |= {ECPoint.affine(x, y), ECPoint.affine(x, -y)}
    return sorted(points, key=ECPoint.sort_key)


# (p, a, bounds, Ns): N odd and even, below and above num_deg; over F_3 at
# bounds (3, 2) and N = 4 there are points with deg b = 1 and with e = 1,
# deg a = 1 (x = u/b^2, u = c*s^e*a^2); F_5 at N = 3 and F_9 at N = 4 also
# need deg b = 1; over F_5 at bounds (1, 2) and N = 3 the leads rule skips
# the whole branches (deg b, e) = (0, 1) and (1, 0), and points remain;
# F_{11^3} and F_1031 at (0, 0) are sieved in fields above 1024 elements
SEARCH_CASES = [(3, 1, (3, 2), (1, 2, 4, 5)), (5, 1, (2, 2), (1, 3)), (5, 1, (1, 2), (3, 7)),
                (7, 1, (1, 2), (2, 3)), (13, 1, (1, 1), (1, 2)),
                (3, 2, (0, 2), (1, 4)), (3, 2, (1, 1), (2,)), (5, 2, (0, 1), (1, 2)),
                (7, 2, (0, 1), (3,)), (13, 2, (0, 0), (1,)),
                (11, 3, (0, 0), (2,)), (1031, 1, (0, 0), (1, 2))]


@pytest.mark.parametrize("p,a,bounds,Ns", SEARCH_CASES,
                         ids=[f"F{c[0]}^{c[1]}-{c[2][0]}-{c[2][1]}" for c in SEARCH_CASES])
def test_search_matches_exhaustive_oracle(p, a, bounds, Ns):
    ctx = field_ctx(p, a)
    for N in Ns:
        curve = curve_make(ctx, N)
        found = point_search(curve, *bounds)
        assert found == exhaustive_search(curve, *bounds), (p, a, N)
        for pt in found:  # y's denominator is b^3 for x's b^2
            assert pt.y.den * pt.y.den == pt.x.den ** 3


# (p, a, bounds): the sweep of test_search_leads_drop_only_pointless_candidates
LEADS_SWEEP = [(3, 1, (8, 2)), (5, 1, (4, 2)), (7, 1, (3, 2)), (3, 2, (2, 2)), (13, 1, (2, 2))]


def test_search_leads_drop_only_pointless_candidates():
    """Every candidate of the unfiltered walk that the leads rule drops gets
    [] from _points_from_x, for odd and even N <= 12; the search walk is the
    unfiltered one with those dropped, in order.  The sweep drops leads at
    e = 0 and e = 1, skips whole blocks, and keeps c = -1 at both cancelling
    degrees, du = dw and du = dw + N."""
    dropped_e, skipped, cancelling = set(), 0, set()
    for p, a, bounds in LEADS_SWEEP:
        ctx = field_ctx(p, a)
        minus_one = -ctx.one()
        for N in (N for N in range(1, 13) if N % p):
            curve = curve_make(ctx, N)
            leads = curve_ff._search_leads(curve)
            kept = iter(curve_ff._candidates(ctx, *bounds, leads))
            nxt = next(kept)
            for u, w, b in curve_ff._candidates(ctx, *bounds):
                if (u, w, b) == nxt:
                    nxt = next(kept, None)
                else:
                    assert curve_ff._points_from_x(curve, u, w, b) == [], (p, a, N, u, w)
                    dropped_e.add(u.degree() % 2)  # u = c*s^e*a^2
            assert nxt is None
            for db in range(bounds[1] // 2 + 1):
                for e in (0, 1):
                    for da in range((bounds[0] - e) // 2 + 1):
                        du, dw = e + 2 * da, 2 * db
                        cs = leads(db, e, da)
                        skipped += not cs
                        if du in (dw, dw + N):
                            assert minus_one in cs
                            cancelling.add(du == dw)
    assert dropped_e == {0, 1} and skipped and len(cancelling) == 2


# (p, a, bounds) sieved beside LEADS_SWEEP: F_25, a field above the kernel's
# table fields (F_{11^3}) and a prime field above 1024 (F_1031)
SIEVE_SWEEP = LEADS_SWEEP + [(5, 2, (2, 0)), (11, 3, (0, 0)), (1031, 1, (0, 0))]


def test_search_sieve_drops_only_pointless_candidates():
    """Over SIEVE_SWEEP, for every N <= 12 prime to p, the sieved walk is
    the leads walk with candidates removed in order, each removed candidate
    gets [] from _points_from_x, and every field drops some."""
    dropping = set()
    for p, a, bounds in SIEVE_SWEEP:
        ctx = field_ctx(p, a)
        for N in (N for N in range(1, 13) if N % p):
            curve = curve_make(ctx, N)
            leads = curve_ff._search_leads(curve)
            kept = iter(curve_ff._candidates(ctx, *bounds, leads, curve_ff._search_sieve(curve)))
            nxt = next(kept)
            for u, w, b in curve_ff._candidates(ctx, *bounds, leads):
                if (u, w, b) == nxt:
                    nxt = next(kept, None)
                else:
                    assert curve_ff._points_from_x(curve, u, w, b) == [], (p, a, N, u, w)
                    dropping.add((p, a))
            assert nxt is None
    assert len(dropping) == len(SIEVE_SWEEP)


def test_search_over_cap_field_builds_no_tables():
    """Over F_q with q > SEARCH_CANDIDATES_MAX even bounds (0, 0) give q
    candidates, so the search refuses before FieldCtx.logs builds its
    O(q) tables; this bounds the fields whose tables a search builds."""
    ctx = FieldCtx(40009, 1)  # fresh, not field_ctx's cached context
    assert ctx.q > curve_ff.SEARCH_CANDIDATES_MAX
    with pytest.raises(WorkBound):
        point_search(curve_make(ctx, 1), 0, 0)
    assert ctx._logs is None


@pytest.mark.parametrize("p,a", [(3, 1), (7, 1), (13, 1), (3, 2), (5, 2), (11, 3), (1031, 1)])
def test_sieve_tables_match_evaluate(p, a):
    """The search's scalar tables against FF, keyed by the logarithms of
    FieldCtx.logs: the log of c*A is log c + log A mod q - 1; _sieve_lifts
    holds, at each place alpha with a nonzero value, the log of
    alpha^e * a(alpha)^2 by Poly.evaluate; _sieve_row marks the k with
    t(t + w)(t + v) a nonzero non-square at t = g^k; and _square_leads keeps
    the units c, in order, with c^i * (c + 1)^j a square or zero.  Over
    F_{11^3} (above the kernel's table fields) and F_1031, units, w, v and k
    are sampled."""
    ctx = field_ctx(p, a)
    log, exp, _ = ctx.logs()
    n, rng, small = ctx.q - 1, random.Random(p), ctx.q < 100
    elems = list(ctx.elements())
    units = elems[1:]
    sample = units if small else rng.sample(units, 40)
    for c in sample:
        for y in sample:
            assert log[(c * y).code] == (log[c.code] + log[y.code]) % n
    alphas = elems[:curve_ff.SIEVE_PLACES]
    for e in (0, 1):  # over F_{11^3}, da = 1 has about q^2 candidates, past the search cap
        for da in range(3 if small else 1 if a > 1 else 2):
            lifts = curve_ff._sieve_lifts(ctx, e, da)
            monic = list(polys_of_degree(ctx, da, monic=True))
            assert len(lifts) == len(monic)
            ms = range(len(monic)) if small else rng.sample(range(len(monic)), min(len(monic), 40))
            for m in ms:
                assert lifts[m] == [(i, log[v.code]) for i, x in enumerate(alphas)
                                    if (v := x ** e * monic[m].evaluate(x) ** 2)]
    one = ctx.one()
    for (i, j), cs in curve_ff._square_leads(ctx).items():
        assert cs == sorted(cs) and cs[0]
        kept = set(cs)
        for c in units if small else sample + [-one]:
            assert (c in kept) == (c ** i * (c + one) ** j).is_square(), (c, i, j)
    ws = elems if small else rng.sample(elems, 2) + [ctx.zero()]
    ks = range(n) if small else rng.sample(range(n), 60)
    for w in ws:
        for v in rng.sample(elems, min(ctx.q, 5 if small else 2)) + [ctx.zero(), w]:
            row = curve_ff._sieve_row(ctx, w.code, v.code)
            assert type(row) is bytes and len(row) == n
            assert [row[k] for k in ks] == [bool(f := t * (t + w) * (t + v)) and not f.is_square()
                                            for t in (elems[exp[k]] for k in ks)]


def test_candidate_count_matches_enumerator():
    """The closed form against len(_candidates), num_deg below 0 included,
    where the walk holds (0, 1, 1) alone; 425 at the golden p = 3, (6, 2)."""
    for p, a in ((3, 1), (5, 1), (3, 2)):
        ctx = field_ctx(p, a)
        for num_deg in range(-2, 5):
            for den_deg in range(3):
                walked = sum(1 for _ in curve_ff._candidates(ctx, num_deg, den_deg))
                assert curve_ff._candidate_count(ctx.q, num_deg, den_deg) == walked
    assert curve_ff._candidate_count(3, 6, 2) == 425
    assert curve_ff._candidate_count(3, 14, 4) > curve_ff.SEARCH_CANDIDATES_MAX


@pytest.mark.parametrize("p,a,N,bounds", [(3, 1, 2, (3, 2)), (3, 1, 5, (6, 2)), (5, 1, 3, (3, 2)),
                                          (7, 1, 4, (3, 2)), (3, 2, 2, (2, 2))])
def test_is_torsion_matches_two_torsion_membership(p, a, N, bounds):
    """O or y = 0 against membership in the four-point list, on searched
    points, their small multiples and the list itself."""
    curve = curve_make(field_ctx(p, a), N)
    pts = point_search(curve, *bounds)
    pts += [ec_mul(k, pt, curve) for pt in pts[:8] for k in (2, 3, 4)] + two_torsion(curve)
    assert any(is_torsion(pt, curve) for pt in pts) and not all(is_torsion(pt, curve) for pt in pts)
    for pt in pts:
        assert is_torsion(pt, curve) == (pt in two_torsion(curve)), pt
