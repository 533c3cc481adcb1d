import random

import pytest

from kummerwit.base_algebra import (Place, Poly, RatFunc, ResidueField,
                                    boundedness_probe, factor_place_in_tower,
                                    field_ctx, irreducibles, is_irreducible,
                                    place_data, valuation)
from kummerwit.errors import BadEll, ZeroInput
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


def test_residue_reduction_is_ring_hom(f3):
    pl = Place.finite(Poly.from_ints(f3, [1, 0, 1]))
    rf = ResidueField(f3, pl)
    rng = random.Random(8)
    for _ in range(30):
        x = rand_ratfunc(f3, rng, nonzero=True)
        y = rand_ratfunc(f3, rng, nonzero=True)
        if valuation(x, pl) != 0 or valuation(y, pl) != 0:
            continue
        assert rf.reduce(x * y) == rf.mul(rf.reduce(x), rf.reduce(y))


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


def test_boundedness_probe_all_small_places(f3):
    places = [Place.infinity()]
    for d in (1, 2):
        places.extend(Place.finite(pi) for pi in irreducibles(f3, d))
    assert all(boundedness_probe(pl, 11, 5, 3, f3) for pl in places)
