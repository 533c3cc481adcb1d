"""Cross-cutting checks that exercise the less-travelled code paths:
extension-field reduction against a naive oracle, the branching tower walk,
unit parts at the infinite place, and mixed-monicity CRT inputs."""

import random

import pytest

from kummerwit.base_algebra import (Place, Poly, RatFunc, ResidueField, crt,
                                    field_ctx, poly_ext_gcd, valuation)
from kummerwit.kummer_local import (KummerCase, kummer_case,
                                    verify_descent_lemma)
from tests.test_poly import rand_poly


def test_extension_mul_against_naive_reduction():
    # multiply in F_{3^3} by schoolbook convolution + long division over F_3
    ctx = field_ctx(3, 3)
    mod = ctx.modulus
    rng = random.Random(9)

    def naive_mul(u, v):
        prod = [0] * 5
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                prod[i + j] += ui * vj
        for k in (4, 3):
            c = prod[k] % 3
            for j in range(4):
                prod[k - 3 + j] -= c * mod[j]
            prod[k] = 0
        return tuple(c % 3 for c in prod[:3])

    elems = list(ctx.elements())
    for _ in range(200):
        x, y = rng.choice(elems), rng.choice(elems)
        assert (x * y).coeffs == naive_mul(x.coeffs, y.coeffs)
        if x:
            assert (x * x.inv()) == ctx.one()


def test_field_axioms_degree_three():
    ctx = field_ctx(3, 3)
    rng = random.Random(10)
    elems = list(ctx.elements())
    for _ in range(80):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_kummer_case_at_infinity(f7):
    t = RatFunc.gen(f7)
    inf = Place.infinity()
    assert kummer_case(t, inf, 3, f7) is KummerCase.TOTALLY_RAMIFIED
    # v = -3 divisible by 3; unit part 4 is not a cube mod 7
    b = (t ** 3).scale(f7.elem(4))
    assert kummer_case(b, inf, 3, f7) is KummerCase.INERT_DEGREE_L
    # unit part 1 is a cube
    assert kummer_case(t ** 3 + RatFunc.one(f7), inf, 3, f7) is KummerCase.SPLIT


def test_reduce_unit_part_infinite_place(f7):
    rf = ResidueField(f7, Place.infinity())
    t = RatFunc.gen(f7)
    assert rf.unit_part((t ** 2).scale(f7.elem(5))) == (-2, Poly.const(f7, 5))
    assert rf.unit_part(t.inv().scale(f7.elem(3))) == (1, Poly.const(f7, 3))


def test_descent_walk_branches_on_ambiguity(f7):
    """A seed with valuation 3 at the place makes the first adjunction
    element have valuation -3: divisible by 3 but nonzero, so the walk must
    branch; the divisibility conclusion still holds on every branch."""
    pi = Poly.gen(f7) + Poly.one(f7)
    place = Place.finite(pi)
    x = RatFunc.from_poly(pi ** 3)
    verdict = verify_descent_lemma(
        "divisibility_x",
        {"x": x, "b": RatFunc.one(f7), "c": RatFunc.const(f7, 3)},
        3, place, f7)
    assert verdict.branch_count >= 2
    assert verdict.conclusion_holds


def test_crt_with_nonmonic_moduli(f3):
    rng = random.Random(12)
    s = Poly.gen(f3)
    m1 = (s + Poly.one(f3)).scale(f3.elem(2))      # non-monic linear
    m2 = Poly.from_ints(f3, [1, 0, 1]).scale(f3.elem(2))  # non-monic irreducible
    for _ in range(20):
        r1 = rand_poly(f3, rng, 0)
        r2 = rand_poly(f3, rng, 1)
        m = crt([(r1, m1), (r2, m2)])
        assert (m - r1) % m1 == Poly.zero(f3)
        assert (m - r2) % m2 == Poly.zero(f3)


def test_valuation_scaling_by_powers(f3):
    pl = Place.finite(Poly.from_ints(f3, [1, 0, 1]))
    x = RatFunc(Poly.from_ints(f3, [1, 0, 1]) ** 2, Poly.gen(f3))
    assert valuation(x, pl) == 2
    assert valuation(x ** 5, pl) == 10
    assert valuation(x.inv(), pl) == -2
