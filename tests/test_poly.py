import math
import random
from itertools import islice

import pytest

from kummerwit.base_algebra import (FF, NEG_INF, Poly, all_polys, crt, factor,
                                    field_ctx, irreducibles, is_irreducible,
                                    poly_ext_gcd, poly_gcd,
                                    squarefree_decomposition)
from kummerwit.base_algebra.intarith import factorint
from kummerwit.base_algebra.poly import (_barrett, _ddf, _powmod, _pth_root, _rand_elem,
                                         poly_valuation)
from kummerwit.errors import BothZero, NotCoprime


def rand_poly(ctx, rng, max_deg, nonzero=False):
    while True:
        deg = rng.randrange(-1, max_deg + 1)
        if deg < 0:
            f = Poly.zero(ctx)
        else:
            coeffs = [rng.choice(list(ctx.elements())) for _ in range(deg)]
            lead = rng.choice([e for e in ctx.elements() if e])
            f = Poly(ctx, [c.code for c in coeffs + [lead]])
        if not nonzero or not f.is_zero():
            return f


def test_degree_sentinel(f3):
    zero = Poly.zero(f3)
    assert zero.degree() is NEG_INF
    assert NEG_INF < -10 and NEG_INF < 0 and not (NEG_INF > 5)
    assert NEG_INF == Poly.zero(f3).degree()
    assert Poly.one(f3).degree() == 0


def test_ring_axioms(f3, f9):
    for ctx in (f3, f9):
        rng = random.Random(5)
        for _ in range(60):
            f, g, h = (rand_poly(ctx, rng, 4) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + (-f) == Poly.zero(ctx)


def test_divmod_identity(f3, f9):
    for ctx in (f3, f9):
        rng = random.Random(17)
        for _ in range(60):
            f = rand_poly(ctx, rng, 6)
            g = rand_poly(ctx, rng, 3, nonzero=True)
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree() < g.degree()


def test_ext_gcd_examples(f3):
    s = Poly.gen(f3)
    one = Poly.one(f3)
    d, u, v = poly_ext_gcd(s, s + one)
    assert d == one and u * s + v * (s + one) == one

    f = Poly.from_ints(f3, [1, 2, 2])  # lc = 2
    d, u, v = poly_ext_gcd(f, Poly.zero(f3))
    assert d == f.monic() and v.is_zero()
    assert u == Poly.const(f3, 2)  # lc(f)^-1 = 2^-1 = 2 in F_3
    assert u * f == d

    d, _, _ = poly_ext_gcd(s ** 2, s ** 3)
    assert d == s ** 2

    with pytest.raises(BothZero):
        poly_ext_gcd(Poly.zero(f3), Poly.zero(f3))


def test_ext_gcd_property(f3, f9):
    for ctx in (f3, f9):
        rng = random.Random(23)
        for _ in range(50):
            f = rand_poly(ctx, rng, 5)
            g = rand_poly(ctx, rng, 5)
            if f.is_zero() and g.is_zero():
                continue
            d, u, v = poly_ext_gcd(f, g)
            assert u * f + v * g == d
            assert d.is_monic()
            for h in (f, g):
                if not h.is_zero():
                    assert (h % d).is_zero()


def test_crt_examples(f3):
    s = Poly.gen(f3)
    one = Poly.one(f3)
    m = crt([(Poly.zero(f3), s), (one, s + one)])
    assert m == Poly.from_ints(f3, [0, 2])  # 2s: m(0) = 0, m(-1) = 1
    assert (m % s).is_zero() and (m - one) % (s + one) == Poly.zero(f3)

    r = Poly.from_ints(f3, [1, 1, 1])
    f = Poly.from_ints(f3, [0, 1, 1])
    assert crt([(r, f)]) == r % f

    with pytest.raises(NotCoprime):
        crt([(one, s), (Poly.zero(f3), s)])


def test_valuation_needs_nonconstant_pi(f3):
    s, one = Poly.gen(f3), Poly.one(f3)
    f = (s + one) ** 3 * s
    assert poly_valuation(f, s + one) == 3 and poly_valuation(f, s) == 1
    for pi in (Poly.const(f3, 2), one, Poly.zero(f3)):  # pi^v divides f for every v
        with pytest.raises(ValueError):
            poly_valuation(f, pi)


def test_crt_property(f3):
    rng = random.Random(31)
    irred = list(irreducibles(f3, 1)) + list(irreducibles(f3, 2)) + list(irreducibles(f3, 3))
    for _ in range(40):
        moduli = rng.sample(irred, 3)
        residues = [rand_poly(f3, rng, 2) for _ in moduli]
        m = crt(list(zip(residues, moduli)))
        for r, mod in zip(residues, moduli):
            assert (m - r) % mod == Poly.zero(f3)
        assert m.degree() is NEG_INF or m.degree() < sum(mod.degree() for mod in moduli)


def test_irreducibles_enumeration(f3, f7):
    linear = list(irreducibles(f3, 1))
    assert [repr(p) for p in linear] == ["1*s", "1*s+1", "1*s+2"]
    quad = list(irreducibles(f3, 2))
    assert len(quad) == 3
    assert repr(quad[0]) == "1*s^2+1"
    assert len(list(irreducibles(f7, 1))) == 7
    # independent count: brute root test over all monic quadratics
    count = 0
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                count += 1
    assert count == len(quad)


def test_all_polys_order(f3, f9):
    # by degree, then lexicographic comparing low-degree coefficients first
    first = [repr(p) for p in list(all_polys(f3, 1))]
    assert first == ["0", "1", "2", "1*s", "2*s", "1*s+1", "2*s+1", "1*s+2", "2*s+2"]
    # F_9 = F_3[z]/(z^2+1); its elements order first coordinate slowest
    first = [repr(p) for p in all_polys(f9, 1)]
    assert len(first) == 1 + 8 + 9 * 8
    assert first[:10] == ["0", "[0,1]", "[0,2]", "[1,0]", "[1,1]", "[1,2]",
                          "[2,0]", "[2,1]", "[2,2]", "[0,1]*s"]
    assert first[-1] == "[2,2]*s+[2,2]"


def test_all_polys_unbounded_prefix(f3, f9):
    # the unbounded enumeration is the union of the bounded ones, in order
    for ctx, d in ((f3, 3), (f9, 2)):
        bounded = list(all_polys(ctx, d))
        for k in (1, 5, len(bounded)):
            assert list(islice(all_polys(ctx), k)) == bounded[:k]


def test_factor_roundtrip(f3, f9, f7):
    for ctx in (f3, f9, f7):
        rng = random.Random(41)
        irred_pool = list(irreducibles(ctx, 1)) + list(irreducibles(ctx, 2))
        for _ in range(25):
            chosen = rng.sample(irred_pool, rng.randrange(1, 4))
            mults = [rng.randrange(1, 4) for _ in chosen]
            f = Poly.one(ctx)
            for g, e in zip(chosen, mults):
                f = f * g ** e
            got = factor(f)
            assert got == sorted(zip(chosen, mults),
                                 key=lambda kv: (kv[0].sort_key(), kv[1]))


def test_factor_char_p_edge_cases(f3):
    s = Poly.gen(f3)
    one = Poly.one(f3)
    # (s+1)^3 has zero derivative
    assert factor((s + one) ** 3) == [(s + one, 3)]
    assert factor(s ** 9) == [(s, 9)]
    sq = Poly.from_ints(f3, [1, 0, 1])  # s^2+1 irreducible
    assert factor(sq ** 3 * s) == [(s, 1), (sq, 3)]
    # squarefree decomposition collects exact multiplicity classes
    parts = dict(squarefree_decomposition(s ** 2 * (s + one) ** 5))
    assert parts == {s: 2, s + one: 5}


def test_factor_deterministic_and_scaling(f3):
    f = Poly.from_ints(f3, [2, 1, 0, 2, 1, 1])
    assert factor(f, seed=0) == factor(f, seed=0)
    # lc is dropped from the monic factors but the product reconstructs up to lc
    prod = Poly.const(f3, 1)
    for g, e in factor(f):
        prod = prod * g ** e
    assert prod.scale(f.lc()) == f


def test_is_irreducible_against_factor(f3):
    rng = random.Random(53)
    for _ in range(40):
        f = rand_poly(f3, rng, 4, nonzero=True)
        if f.is_constant():
            assert not is_irreducible(f)
            continue
        fac = factor(f)
        assert is_irreducible(f) == (len(fac) == 1 and fac[0][1] == 1
                                     and fac[0][0] == f.monic())


def test_gcd_with_zero(f3):
    s = Poly.gen(f3)
    assert poly_gcd(s, Poly.zero(f3)) == s
    assert poly_gcd(Poly.zero(f3), s + Poly.one(f3)) == s + Poly.one(f3)


def rabin_is_irreducible(f):
    """Rabin's test, the oracle for is_irreducible: deg >= 1, s^(q^d) = s
    mod f, and gcd(s^(q^(d/ell)) - s, f) = 1 for each prime ell | d.  Before
    it, f of degree >= 2 is rejected when s divides it or when f has a root
    in F_q."""
    d = f.degree()
    if d is NEG_INF or d < 1:
        return False
    if d == 1:
        return True
    if not f.coeffs[0]:  # s divides f
        return False
    q, s = f.ctx.q, Poly.gen(f.ctx)
    powers = [s, s.powmod(q, f)]  # s^(q^k) mod f
    if not poly_gcd(powers[1] - s, f).is_one():  # a root in F_q
        return False
    for _ in range(2, d + 1):
        powers.append(powers[-1].powmod(q, f))
    if powers[d] != s % f:
        return False
    return all(poly_gcd(powers[d // ell] - s, f).is_one() for ell in factorint(d))


@pytest.mark.parametrize("p,a,max_deg", [(3, 1, 6), (5, 1, 3), (7, 1, 3), (3, 2, 2), (13, 1, 2)])
def test_is_irreducible_matches_rabin_on_every_poly(p, a, max_deg):
    ctx = field_ctx(p, a)
    for f in all_polys(ctx, max_deg):
        assert is_irreducible(f) == rabin_is_irreducible(f), f


def random_irreducible(ctx, rng, deg):
    while True:
        f = Poly(ctx, [rng.randrange(ctx.q) for _ in range(deg)] + [ctx.unit])
        if is_irreducible(f):
            return f


@pytest.mark.parametrize("p,a,degs", [(3, 1, (20, 40)), (7, 1, (20, 40)), (3, 2, (20, 30)),
                                      (257, 1, (20, 30))])
def test_is_irreducible_matches_rabin_high_degree(p, a, degs):
    """Random polynomials of degree 20-40, and products built from a random
    irreducible h and a small irreducible g: h^2, h^2 * g and h * g."""
    ctx = field_ctx(p, a)
    rng = random.Random(p * a)
    lo, hi = degs
    for _ in range(4):
        f = Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randrange(lo, hi + 1))]
                 + [rng.randrange(1, ctx.q)])
        assert is_irreducible(f) == rabin_is_irreducible(f), f
    h = random_irreducible(ctx, rng, rng.randrange(lo, hi + 1))
    g = next(irreducibles(ctx, 2))
    assert rabin_is_irreducible(h) and is_irreducible(h.scale(FF(ctx, rng.randrange(1, ctx.q))))
    for f in (h * h, h * h * g, h * g):
        assert not is_irreducible(f) and not rabin_is_irreducible(f)


# -- the factorization's former special cases, kept as oracles ---------------------


def edf_with_early_exits(f, d, rng):
    """_edf as it was before one gcd per try: it skipped a constant h, split on
    gcd(h, f) first, and skipped h^((q^d-1)/2) = 1."""
    n = f.degree()
    if n == d:
        return [f]
    ctx = f.ctx
    exponent = (ctx.q ** d - 1) // 2
    finv = _barrett(ctx, f.coeffs)
    while True:
        h = Poly(ctx, tuple(_rand_elem(ctx, rng) for _ in range(n)))
        if h.is_constant():
            continue
        g = poly_gcd(h, f)
        if not g.is_one() and g != f:
            break
        g = Poly(ctx, _powmod(ctx, h.coeffs, exponent, f.coeffs, finv)) - Poly.one(ctx)
        if not g:
            continue
        g = poly_gcd(g, f)
        if not g.is_one() and g != f:
            break
    return sorted(edf_with_early_exits(g, d, rng) + edf_with_early_exits(f // g, d, rng),
                  key=Poly.sort_key)


def factor_with_early_exits(f, seed):
    rng = random.Random(seed)
    out = [(irr, e) for g, e in squarefree_decomposition(f) for part, d in _ddf(g)
           for irr in edf_with_early_exits(part, d, rng)]
    return sorted(out, key=lambda kv: (kv[0].sort_key(), kv[1]))


@pytest.mark.parametrize("p,a", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_factor_matches_early_exit_edf(p, a):
    """factor against the early-exit _edf on random polynomials and on products
    of equal-degree irreducibles, where every split is an equal-degree one."""
    ctx = field_ctx(p, a)
    rng = random.Random(70 + 10 * p + a)
    pools = {d: list(islice(irreducibles(ctx, d), 12)) for d in (1, 2, 3)}
    cases = [rand_poly(ctx, rng, 10, nonzero=True) for _ in range(15)]
    cases += [math.prod(rng.sample(pool, min(4, len(pool))), start=Poly.one(ctx))
              for pool in pools.values() for _ in range(3)]
    for f in cases:
        for seed in (0, 1, 5):
            assert factor(f, seed) == factor_with_early_exits(f, seed), (f, seed)


def squarefree_with_branches(f):
    """squarefree_decomposition as it was with its vanishing-derivative branch,
    its constant-c case and its guarded tail call."""
    out = {}

    def accumulate(g, mult):
        if g.is_constant():
            return
        d = g.derivative()
        if d.is_zero():
            accumulate(_pth_root(g), mult * g.ctx.p)
            return
        c = poly_gcd(g, d)
        w = g // c
        i = 1
        while not w.is_one():
            y = poly_gcd(w, c) if not c.is_constant() else Poly.one(g.ctx)
            z = w // y
            if not z.is_constant():
                out[z.monic()] = out.get(z.monic(), 0) + i * mult
            w = y
            c = c // y
            i += 1
        if not c.is_constant():
            accumulate(_pth_root(c), mult * g.ctx.p)

    accumulate(f.monic(), 1)
    return sorted(out.items(), key=lambda kv: kv[0].sort_key())


@pytest.mark.parametrize("p,a", [(3, 1), (5, 1), (3, 2)])
def test_squarefree_matches_yun_with_branches(p, a):
    """Products with p-th-power and p^2-th-power parts, whole p-th powers and
    constants, against the former branches."""
    ctx = field_ctx(p, a)
    rng = random.Random(90 + p + a)
    for _ in range(30):
        parts = [rand_poly(ctx, rng, 3, nonzero=True) for _ in range(4)]
        exps = [rng.choice((1, 2, p, 2 * p, p + 1, p * p)) for _ in parts]
        f = math.prod((g ** e for g, e in zip(parts, exps)), start=Poly.one(ctx))
        for g in (f, f ** p, parts[0]):
            assert squarefree_decomposition(g) == squarefree_with_branches(g), g
