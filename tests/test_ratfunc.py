import itertools
import random

import pytest

from kummerwit.base_algebra import (FF, Poly, RatFunc, factor, field_ctx, is_nth_power,
                                    poly_gcd, ratfunc_sqrt, squarefree_decomposition)
from kummerwit.base_algebra.poly import _TABLE_MAX
from kummerwit.errors import ZeroInput
from tests.test_poly import rand_poly


def rand_ratfunc(ctx, rng, max_deg=3, nonzero=False):
    num = rand_poly(ctx, rng, max_deg, nonzero=nonzero)
    den = rand_poly(ctx, rng, max_deg, nonzero=True)
    return RatFunc(num, den)


def test_canonical_form(f3):
    s = Poly.gen(f3)
    one = Poly.one(f3)
    x = RatFunc(s * s + s, s.scale(f3.elem(2)))  # (s^2+s) / 2s
    assert x.den.is_monic()
    assert poly_gcd(x.num, x.den).is_one() or x.num.is_zero()
    assert x == RatFunc(s + one, Poly.const(f3, 2))
    zero = RatFunc(Poly.zero(f3), s)
    assert zero.den.is_one()


def test_field_axioms(f3, f9):
    for ctx in (f3, f9):
        rng = random.Random(7)
        for _ in range(40):
            x = rand_ratfunc(ctx, rng)
            y = rand_ratfunc(ctx, rng)
            z = rand_ratfunc(ctx, rng)
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert x - x == RatFunc.zero(ctx)
            if not y.is_zero():
                assert (x / y) * y == x


def test_sqrt_worked_examples(f3):
    s = Poly.gen(f3)
    one = Poly.one(f3)
    sq = RatFunc.from_poly((s * (s + one)) ** 2)
    root = ratfunc_sqrt(sq)
    assert root == RatFunc.from_poly(s * (s + one))  # monic-leading representative
    assert ratfunc_sqrt(RatFunc.gen(f3)) is None
    assert ratfunc_sqrt(RatFunc.from_poly(s * s).scale(f3.elem(2))) is None
    assert ratfunc_sqrt(RatFunc.zero(f3)) == RatFunc.zero(f3)


def test_sqrt_roundtrip_200():
    rng = random.Random(2024)
    for p, a in itertools.product((3, 5, 7, 13), (1, 2)):
        ctx = field_ctx(p, a)
        for _ in range(100):
            g = rand_ratfunc(ctx, rng, max_deg=3, nonzero=True)
            root = ratfunc_sqrt(g * g)
            assert root is not None
            assert root == g or root == -g
            assert root * root == g * g


def test_sqrt_none_cross_checked_by_full_factorization(f3, f7):
    # independent oracle: full factorization of num and den, deg <= 6
    rng = random.Random(99)
    for ctx in (f3, f7):
        for _ in range(80):
            f = rand_ratfunc(ctx, rng, max_deg=6, nonzero=True)
            root = ratfunc_sqrt(f)
            exps = []
            for part in (f.num, f.den):
                if not part.is_constant():
                    exps.extend(e for _, e in factor(part))
            odd_val = any(e % 2 for e in exps)
            lc_nonsquare = not f.leading_unit().is_square()
            if root is None:
                assert odd_val or lc_nonsquare
            else:
                assert not odd_val and not lc_nonsquare
                assert root * root == f


def squarefree_sqrt(f):
    """ratfunc_sqrt by squarefree decomposition of num and den (all
    exponents even) plus squareness of the leading unit: the oracle for the
    Newton square root."""
    ctx = f.ctx
    if f.is_zero():
        return RatFunc.zero(ctx)
    root_c = f.leading_unit().sqrt()
    if root_c is None:
        return None
    halves = []
    for part in (f.num, f.den):
        half = Poly.one(ctx)
        for g, e in squarefree_decomposition(part) if not part.is_constant() else []:
            if e % 2:
                return None
            half = half * g ** (e // 2)
        halves.append(half)
    root = RatFunc(halves[0].scale(root_c), halves[1], reduce=False)
    return min(root, -root, key=lambda g: g.num.coeffs[-1])  # least leading code


@pytest.mark.parametrize("p,a", [(7, 1), (5, 2), (3, 7)])
def test_sqrt_matches_squarefree_oracle(p, a):
    """Squares, squares times a unit or a linear factor, and p-th powers, over
    a prime field, a table field and a field above _TABLE_MAX."""
    ctx = field_ctx(p, a)
    assert (ctx.q <= _TABLE_MAX) == (a < 7)
    rng = random.Random(13 * p + a)
    s, unit = Poly.gen(ctx), FF(ctx, rng.randrange(1, ctx.q))
    outcomes = set()
    for _ in range(15):
        g = rand_ratfunc(ctx, rng, max_deg=4, nonzero=True)
        h = rand_ratfunc(ctx, rng, max_deg=2, nonzero=True)
        linear = RatFunc.from_poly(s - Poly.const(ctx, rng.randrange(p)))
        for f in (g * g, (g * g).scale(unit), g * g * linear, g ** p, (g * h) ** (2 * p)):
            root = ratfunc_sqrt(f)
            assert root == squarefree_sqrt(f)
            outcomes.add(root is None)
    assert outcomes == {True, False}


def test_is_nth_power(f7):
    t = RatFunc.gen(f7)
    assert is_nth_power(t ** 3, 3)
    assert not is_nth_power(t, 3)
    assert is_nth_power(RatFunc.const(f7, 1), 3)
    assert not is_nth_power(RatFunc.const(f7, 3), 3)  # 3 is not a cube mod 7
    assert is_nth_power(RatFunc.zero(f7), 5)


def test_v_infinity(f3):
    s = Poly.gen(f3)
    t = RatFunc.gen(f3)
    assert t.v_infinity() == -1
    assert t.inv().v_infinity() == 1
    assert RatFunc(s + Poly.one(f3), s).v_infinity() == 0
    with pytest.raises(ZeroInput):
        RatFunc.zero(f3).v_infinity()
