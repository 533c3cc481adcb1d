import random
import time
from functools import lru_cache
from math import gcd

import pytest

from kummerwit.base_algebra import (Place, Poly, RatFunc, ResidueField,
                                    boundedness_probe, factor, factor_place_in_tower,
                                    field_ctx, irreducibles, is_irreducible,
                                    place_data, valuation)
from kummerwit.base_algebra.intarith import multiplicative_order
from kummerwit.base_algebra.poly import all_polys
from kummerwit.base_algebra.places import TOWER_DEGREE_MAX
from kummerwit.errors import BadEll, WorkBound, ZeroInput
from tests.test_ratfunc import rand_ratfunc


def test_place_validation(f3, f9):
    with pytest.raises(ValueError):
        Place.finite(Poly.from_ints(f3, [0, 1, 1]))  # s^2+s reducible
    s9 = Poly.gen(f9)
    with pytest.raises(ValueError):  # 2(s + 1)(s + z) over F_9, made monic first
        Place.finite(Poly.const(f9, 2) * (s9 + Poly.one(f9)) * (s9 + Poly.const(f9, (0, 1))))
    with pytest.raises(ValueError):
        Place.finite(Poly.zero(f3))
    pl = Place.finite(Poly.from_ints(f3, [2, 0, 2]))  # gets normalized monic
    assert pl.poly.is_monic()
    assert Place.infinity().is_infinite
    assert Place.infinity().residue_size(f3) == 3
    assert Place.finite(Poly.from_ints(f3, [1, 0, 1])).residue_size(f3) == 9


def test_place_data_worked_examples(f3, f7):
    t7 = RatFunc.gen(f7)
    pt = Place.finite(Poly.gen(f7))
    assert place_data(t7, pt, 3, f7) == (1, None, None)
    v, res, is_pow = place_data(t7 + RatFunc.one(f7), pt, 3, f7)
    assert (v, is_pow) == (0, True) and res == Poly.one(f7)
    v, res, is_pow = place_data(RatFunc.gen(f3), Place.infinity(), 2, f3)
    assert (v, res, is_pow) == (-1, None, None)
    with pytest.raises(ZeroInput):
        place_data(RatFunc.zero(f3), pt, 2, f3)


def test_valuation_additivity(f3, f7):
    rng = random.Random(13)
    for ctx in (f3, f7):
        places = [Place.infinity(), Place.finite(Poly.gen(ctx)),
                  Place.finite(Poly.gen(ctx) + Poly.one(ctx))]
        for _ in range(50):
            x = rand_ratfunc(ctx, rng, nonzero=True)
            y = rand_ratfunc(ctx, rng, nonzero=True)
            for pl in places:
                assert valuation(x * y, pl) == valuation(x, pl) + valuation(y, pl)


def test_residue_field_powers_against_brute_force(f3):
    # residue field of (s^2+1) over F_3 is F_9; compare l-th power sets directly
    pl = Place.finite(Poly.from_ints(f3, [1, 0, 1]))
    rf = ResidueField(f3, pl)
    elems = [Poly.from_ints(f3, [a, b]) for a in range(3) for b in range(3)]
    for ell in (2, 4):
        powers = set()
        for e in elems:
            powers.add(repr(rf.pow(e, ell)))
        for e in elems:
            assert rf.is_nth_power(e, ell) == (repr(e) in powers)


def test_is_nth_power_reduced_exponent_matches_unreduced(f3, f9):
    """The exponent (Q^e - 1)/g taken mod Q - 1 against the unreduced one."""
    f5, f7 = field_ctx(5, 1), field_ctx(7, 1)
    cases = [(f5, Place.infinity()), (f7, Place.finite(Poly.from_ints(f7, [2, 1]))),
             (f3, Place.finite(Poly.from_ints(f3, [1, 0, 1]))),
             (f9, Place.finite(next(iter(irreducibles(f9, 1)))))]
    for ctx, pl in cases:
        rf = ResidueField(ctx, pl)
        elems = list(all_polys(ctx, pl.degree() - 1))[1:]
        for ext in range(1, 5):
            big = rf.size ** ext - 1
            for n in (2, 3, 4, 5):
                for e in elems:
                    unreduced = rf.pow(e, big // gcd(n, big)).is_one()
                    assert rf.is_nth_power(e, n, ext_degree=ext) == unreduced, (pl, ext, n, e)


def test_is_nth_power_cubes_of_f7_inside_f343(f7):
    cubes = {y ** 3 for y in field_ctx(7, 3).elements()}
    subfield_cubes = {v.coeffs[0] for v in cubes if not any(v.coeffs[1:])}
    rf = ResidueField(f7, Place.finite(Poly.gen(f7)))
    for c in range(1, 7):
        assert rf.is_nth_power(Poly.const(f7, c), 3, ext_degree=3) == (c in subfield_cubes)


def test_is_nth_power_high_ext_degree_is_immediate():
    """At a degree-2 place over F_11 the exponent (121^125 - 1)/5 has about
    865 bits; reduced mod 120 every residue is decided at once."""
    f11 = field_ctx(11, 1)
    rf = ResidueField(f11, Place.finite(next(iter(irreducibles(f11, 2)))))
    elems = list(all_polys(f11, 1))[1:]
    start = time.perf_counter()
    verdicts = [rf.is_nth_power(e, 5, ext_degree=125) for e in elems]
    assert time.perf_counter() - start < 0.1
    assert all(verdicts)  # 5 | 1 + 121 + ... + 121^124, so 120 divides the exponent


def unit_part_oracle(rf, x):
    """ResidueField.unit_part by the longer route: the valuation v, then
    x * s^v at infinity or x / pi^v at pi, then num * den^(-1) mod pi with
    den^(-1) = den^(Q - 2) in F_Q."""
    v = valuation(x, rf.place)
    if rf.place.is_infinite:
        shifted = x * RatFunc.gen(rf.ctx) ** v
        assert shifted.num.degree() == shifted.den.degree()
        return v, Poly.const(rf.ctx, shifted.num.lc())
    pi = rf.place.poly
    shifted = x / RatFunc.from_poly(pi) ** v
    num, den = shifted.num % pi, shifted.den % pi
    return v, (num * rf.pow(den, rf.size - 2)) % pi


def test_unit_part_against_oracle(f3, f7, f9):
    """Random x = pi^k * num / den, k in [-3, 3], so pi divides the
    numerator or the denominator, at places of degree 1-3 and infinity."""
    rng = random.Random(23)
    signs = set()
    for ctx in (f3, f7, f9):
        places = [Place.infinity()] + [Place.finite(rng.choice(list(irreducibles(ctx, d))))
                                       for d in (1, 2, 3)]
        for pl in places:
            rf = ResidueField(ctx, pl)
            pi = RatFunc.gen(ctx).inv() if pl.is_infinite else RatFunc.from_poly(pl.poly)
            for _ in range(20):
                x = rand_ratfunc(ctx, rng, nonzero=True) * pi ** rng.randint(-3, 3)
                v, residue = rf.unit_part(x)
                assert (v, residue) == unit_part_oracle(rf, x), (pl, x)
                assert residue and residue.degree() < pl.degree()
                signs.add((v > 0) - (v < 0))
    assert signs == {-1, 0, 1}


def test_unit_part_of_zero_raises(f3, f9):
    for ctx, pl in ((f3, Place.infinity()), (f9, Place.finite(Poly.gen(f9)))):
        with pytest.raises(ZeroInput):
            ResidueField(ctx, pl).unit_part(RatFunc.zero(ctx))


def test_residue_reduction_is_ring_hom(f3):
    """The residue map is a ring homomorphism on valuation 0, and the unit
    part is multiplicative at any valuation."""
    pl = Place.finite(Poly.from_ints(f3, [1, 0, 1]))
    rf = ResidueField(f3, pl)
    rng = random.Random(8)
    homs = 0
    for _ in range(30):
        x = rand_ratfunc(f3, rng, nonzero=True)
        y = rand_ratfunc(f3, rng, nonzero=True)
        (vx, rx), (vy, ry) = rf.unit_part(x), rf.unit_part(y)
        assert rf.unit_part(x * y) == (vx + vy, (rx * ry) % pl.poly)
        if vx or vy or not x + y or valuation(x + y, pl):
            continue
        assert rf.unit_part(x + y)[1] == rx + ry
        homs += 1
    assert homs


def test_factor_place_in_tower_examples(f3):
    t_minus_1 = Place.finite(Poly.from_ints(f3, [2, 1]))
    out = factor_place_in_tower(t_minus_1, 11, 1, f3)
    assert sorted((e, f) for _, e, f in out) == [(1, 1), (1, 5), (1, 5)]
    assert sum(e * f for _, e, f in out) == 11
    # the factors multiply back to s^11 - 1
    prod = Poly.one(f3)
    for pl, e, _ in out:
        prod = prod * pl.poly ** e
    assert prod == Poly.monomial(f3, 11) - Poly.one(f3)

    inf = Place.infinity()
    assert factor_place_in_tower(inf, 11, 2, f3) == [(inf, 121, 1)]
    anyp = Place.finite(Poly.gen(f3))
    assert factor_place_in_tower(anyp, 7, 0, f3) == [(anyp, 1, 1)]


@pytest.mark.parametrize("r,n_top", [(2, 3), (5, 2), (11, 1)])
def test_tower_degree_sum(r, n_top):
    """factor_place_in_tower builds its places unchecked; verify each one:
    monic, irreducible, and prod pi_i^e_i = pi(s^(r^n))."""
    for ctx, degrees in ((field_ctx(3, 1), (1, 2)), (field_ctx(5, 1), (1, 2)),
                         (field_ctx(3, 2), (1,))):
        if r == ctx.p:
            continue
        places = [Place.infinity()]
        for d in degrees:
            places.extend(Place.finite(pi) for pi in irreducibles(ctx, d))
        for pl in places:
            for n in range(n_top + 1):
                out = factor_place_in_tower(pl, r, n, ctx)
                assert sum(e * f for _, e, f in out) == r ** n
                if pl.is_infinite:
                    assert out == [(pl, r ** n, 1)]
                    continue
                prod = Poly.one(ctx)
                for above, e, f in out:
                    assert above.poly.is_monic() and is_irreducible(above.poly)
                    assert above.poly.degree() == f * pl.poly.degree()
                    prod = prod * above.poly ** e
                assert prod == pl.poly.compose_monomial(r ** n)


def test_boundedness_probe(f3):
    t_minus_1 = Place.finite(Poly.from_ints(f3, [2, 1]))
    assert boundedness_probe(t_minus_1, 11, 5, 3, f3)
    assert boundedness_probe(Place.infinity(), 11, 5, 3, f3)
    with pytest.raises(BadEll):
        boundedness_probe(t_minus_1, 11, 11, 2, f3)  # l = r excluded
    with pytest.raises(BadEll):
        boundedness_probe(t_minus_1, 11, 3, 2, f3)   # l = p excluded
    with pytest.raises(ValueError):
        boundedness_probe(t_minus_1, 5, 7, -1, f3)
    with pytest.raises(BadEll):  # r is checked at level 0 too
        boundedness_probe(t_minus_1, 4, 5, 0, f3)


def test_boundedness_probe_all_small_places(f3):
    places = [Place.infinity()]
    for d in (1, 2):
        places.extend(Place.finite(pi) for pi in irreducibles(f3, d))
    assert all(boundedness_probe(pl, 11, 5, 3, f3) for pl in places)


def search_probe(place: Place, ell: int, n_max: int, split) -> bool:
    """The depth-first chain search that boundedness_probe ran before the
    tower lemma settled it; split(place) is the one-level
    factor_place_in_tower."""
    if n_max == 0:
        return True
    return any((e * f) % ell and search_probe(above, ell, n_max - 1, split)
               for above, e, f in split(place))


def test_boundedness_probe_matches_search_oracle():
    """The lemma and the probe against the search, over F_3, F_5 and F_9,
    r in {2, 3, 5, 7, 11}, every l < 14 outside {p, r}, n_max <= 2, and
    infinity and every place of degree <= 2: the least place above has
    e*f = 1 or a power of r, at infinity and s it is the one place above,
    with e = r, and above any other place it is finite and != s."""
    for p, a in ((3, 1), (5, 1), (3, 2)):
        ctx = field_ctx(p, a)
        places = [Place.infinity()] + [Place(pi) for d in (1, 2) for pi in irreducibles(ctx, d)]
        for r in (2, 3, 5, 7, 11):
            if r == p:
                continue
            cache = {}

            def split(pl):
                if pl not in cache:
                    cache[pl] = factor_place_in_tower(pl, r, 1, ctx)
                return cache[pl]

            ells = [ell for ell in (2, 3, 5, 7, 11, 13) if ell not in (p, r)]
            for pl in places:
                above = split(pl)
                least = min(e * f for _, e, f in above)
                while least % r == 0:
                    least //= r
                assert least == 1, (ctx, pl, r)
                if pl.is_infinite or pl.poly == Poly.gen(ctx):
                    assert above == [(pl, r, 1)]
                else:
                    assert all(e == 1 and not up.is_infinite and up.poly.coeffs[0]
                               for up, e, _ in above)
                for ell in ells:
                    for n_max in (0, 1, 2):
                        assert boundedness_probe(pl, r, ell, n_max, ctx)
                        assert search_probe(pl, ell, n_max, split), (ctx, pl, r, ell, n_max)


def _random_place(ctx, deg: int, rng: random.Random) -> Place:
    while True:
        pi = Poly(ctx, [rng.randrange(ctx.q) for _ in range(deg)] + [ctx.unit])
        if is_irreducible(pi):
            return Place(pi)


@lru_cache(maxsize=None)
def _tower_sweep():
    """[(ctx, place, r, n, oracle)]: the unrestricted factorization of
    pi(s^(r^n)) for p in {3, 5, 7, 11, 13}, a in {1, 2}, s and one random
    place of each degree 1 to 3, r in {2, 3, 5, 7, 11, 13} other than p,
    and every n >= 1 with degree <= 120 (<= 60 for a = 2, where a case above
    60 costs up to 0.5 s); then s and one place of degree 1 over F_{11^3},
    a field above _TABLE_MAX, to degree 9."""
    rng = random.Random(17)
    fields = [(field_ctx(p, a), (1, 2, 3)) for p in (3, 5, 7, 11, 13) for a in (1, 2)]
    fields.append((field_ctx(11, 3), (1,)))
    cases = []
    for ctx, place_degrees in fields:
        limit = (120, 60, 9)[ctx.a - 1]
        places = [Place(Poly.gen(ctx))]
        places += [_random_place(ctx, d, rng) for d in place_degrees]
        for pl in places:
            for r in (2, 3, 5, 7, 11, 13):
                n = 1
                while r != ctx.p and pl.degree() * r ** n <= limit:
                    oracle = factor(pl.poly.compose_monomial(r ** n))
                    cases.append((ctx, pl, r, n, oracle))
                    n += 1
    return cases


def tower_degrees(k: int, q: int, r: int, m: int) -> list[int]:
    """The degrees k*j, j = 1 or o*r^i <= m with o = ord_r(q^k), ascending,
    that a factor of pi(s^m) can have, deg pi = k, pi != s, r a prime other
    than p.

    Proof.  Let beta be a root and alpha = beta^m; F_q(alpha) = F_Q, Q = q^k,
    lies in F_q(beta), and j = [F_Q(beta) : F_Q] is the order of Q modulo
    ord(beta).  ord(beta) divides m*(Q - 1), so its part prime to r divides
    Q - 1 and j = ord_{r^c}(Q), r^c the r-part of ord(beta).  That is 1 for
    c = 0; else it is o*r^i, as the kernel of (Z/r^c)^x -> (Z/r)^x is an
    r-group (for r = 2, o = 1).  And j <= m, the degree of beta over F_Q."""
    j = multiplicative_order(pow(q, k, r), r)  # o
    degrees = [k] if j > 1 else []
    while j <= m:
        degrees.append(k * j)
        j *= r
    return degrees


def test_tower_degree_lemma_holds_for_every_factor():
    """Every factor degree of pi(s^(r^n)) lies in tower_degrees; the sweep
    takes in r | Q - 1 (o = 1), r = 2, and a field above _TABLE_MAX."""
    seen = set()
    for ctx, pl, r, n, oracle in _tower_sweep():
        k = pl.degree()
        allowed = tower_degrees(k, ctx.q, r, r ** n)
        assert allowed == sorted(allowed) and allowed[0] == k
        assert {g.degree() for g, _ in oracle} <= set(allowed), (ctx, pl, r, n)
        o = multiplicative_order(ctx.q ** k, r)
        seen.add("r=2" if r == 2 else "o=1" if o == 1 else "o>1")
        seen.add(("q", ctx.q > 1024))
    assert seen == {"r=2", "o=1", "o>1", ("q", True), ("q", False)}


def test_tower_split_cases_hold_level_by_level():
    """The module docstring's cases, read off the unrestricted factorizations
    of the sweep: each factor h of pi(s^(r^i)), deg h = k, has in
    pi(s^(r^(i+1))) the factors of h(s^r) that its case says, (a) one of
    degree k and (r - 1)/o of degree k*o, (b) r of degree k, (c) h(s^r)
    itself, and in (c) with r odd or Q = 1 mod 4, h(s^(r^j)) is a factor at
    every level above.  The sweep takes in each case, (c) two or more levels
    below the top, the r = 2 re-test with Q = 3 mod 4, a table field and a
    field above _TABLE_MAX."""
    towers = {}
    for ctx, pl, r, n, oracle in _tower_sweep():
        if pl.poly.coeffs[0]:  # pi = s has the one factor s at every level
            towers.setdefault((ctx, pl, r), [[pl.poly]]).append([g for g, _ in oracle])
    seen = set()
    for (ctx, pl, r), levels in towers.items():
        seen.add("prime" if ctx.a == 1 else "table" if ctx.q <= 1024 else "large")
        for i, level in enumerate(levels[:-1]):
            for h in level:
                k, big_q, up = h.degree(), ctx.q ** h.degree(), h.compose_monomial(r)
                above = [g for g in levels[i + 1] if not up % g]
                degrees = sorted(g.degree() for g in above)
                if (big_q - 1) % r:
                    o = multiplicative_order(big_q, r)
                    case, want = "a", [k] + [k * o] * ((r - 1) // o)
                elif Poly.gen(ctx).powmod((big_q - 1) // r, h).is_one():
                    case, want = "b", [k] * r
                else:
                    case, want = "c", [k * r]
                    if r == 2 and big_q % 4 == 3:
                        case = "c, tested again" if i + 2 < len(levels) else case
                    else:
                        for j in range(i + 1, len(levels)):
                            assert h.compose_monomial(r ** (j - i)) in levels[j], (ctx, pl, r, h)
                        case = "c, two levels or more" if i + 2 < len(levels) else case
                assert degrees == want, (ctx, pl, r, h, case)
                seen.add(case)
    assert seen == {"a", "b", "c", "c, tested again", "c, two levels or more",
                    "prime", "table", "large"}


def test_factor_place_in_tower_matches_unrestricted_split():
    """The level-by-level split against plain factor, kept as the oracle."""
    for ctx, pl, r, n, oracle in _tower_sweep():
        base = pl.degree()
        want = sorted(((Place(g), e, g.degree() // base) for g, e in oracle),
                      key=lambda t: t[0].poly.sort_key())
        assert factor_place_in_tower(pl, r, n, ctx) == want, (ctx, pl, r, n)


def test_tower_factor_s81_plus_1_over_f5():
    """The poly benchmark's p90 slot: s^81 + 1 over F_5 splits into
    places of residue degree 1, 2, 6, 18 and 54."""
    f5 = field_ctx(5, 1)
    out = factor_place_in_tower(Place.finite(Poly.from_ints(f5, [1, 1])), 3, 4, f5)
    assert [(e, f) for _, e, f in out] == [(1, 1), (1, 2), (1, 6), (1, 18), (1, 54)]
    assert tower_degrees(1, 5, 3, 81) == [1, 2, 6, 18, 54]


def test_tower_work_bound(f3):
    """deg(pi) * r^n (r^n_max for the probe) above TOWER_DEGREE_MAX is
    refused before any work; levels under it run (test_cli runs the cap)."""
    s_plus_1 = Place.finite(Poly.from_ints(f3, [1, 1]))
    quadratic = Place.finite(Poly.from_ints(f3, [1, 0, 1]))
    for place, r, n in ((s_plus_1, 2, 12), (quadratic, 7, 4), (s_plus_1, 5, 10 ** 9),
                        (Place.infinity(), 2, 40)):
        with pytest.raises(WorkBound):
            factor_place_in_tower(place, r, n, f3)
    with pytest.raises(WorkBound):
        boundedness_probe(s_plus_1, 2, 5, 12, f3)  # 4096
    assert TOWER_DEGREE_MAX == 2187
    assert factor_place_in_tower(Place.infinity(), 7, 3, f3) == [(Place.infinity(), 343, 1)]
    assert boundedness_probe(quadratic, 7, 5, 3, f3)  # 7^3 <= 2187 < 2 * 7^4
