import random
import time

import pytest

from kummerwit.base_algebra import (Place, Poly, RatFunc, format_place,
                                    format_poly, format_ratfunc, parse_place,
                                    parse_poly, parse_ratfunc)
from kummerwit.base_algebra.grammar import format_point, parse_point
from kummerwit.base_algebra.poly import DEGREE_MAX
from kummerwit.curve_ff import ECPoint
from kummerwit.errors import WorkBound
from tests.test_poly import rand_poly
from tests.test_ratfunc import rand_ratfunc


def test_poly_literals(f3, f9):
    s = Poly.gen(f3)
    assert format_poly(Poly.zero(f3)) == "0"
    assert format_poly(s * s + Poly.const(f3, 2)) == "1*s^2+2"
    assert parse_poly("1*s^2+2", f3) == s * s + Poly.const(f3, 2)
    assert parse_poly("s^2+2", f3) == s * s + Poly.const(f3, 2)
    assert parse_poly(" 2*s + 1 ", f3) == Poly.from_ints(f3, [1, 2])
    assert parse_poly("0", f3) == Poly.zero(f3)
    # extension coefficients
    x = Poly(f9, (f9.elem([1, 2]).code, f9.elem([0, 1]).code))
    assert format_poly(x) == "[0,1]*s+[1,2]"
    assert parse_poly("[0,1]*s+[1,2]", f9) == x


def test_roundtrip_random(f3, f9):
    rng = random.Random(77)
    for ctx in (f3, f9):
        for _ in range(60):
            f = rand_poly(ctx, rng, 5)
            assert parse_poly(format_poly(f), ctx) == f
            x = rand_ratfunc(ctx, rng)
            assert parse_ratfunc(format_ratfunc(x), ctx) == x


def test_poly_literal_terms_add(f3, f9):
    # a repeated exponent adds, and terms may cancel to zero
    assert parse_poly("1*s+1*s", f3) == parse_poly("2*s", f3)
    assert parse_poly("1+2*s^3+1+1*s^3", f3) == Poly.from_ints(f3, [2])
    assert parse_poly("2*s^4+1*s^4", f3) == Poly.zero(f3)
    assert parse_poly("[1,1]*s+[0,2]*s", f9) == Poly.monomial(f9, 1, [1, 0])


def test_poly_literal_errors_in_term_order(f3):
    # the first bad term raises, whatever follows it
    with pytest.raises(ValueError, match="bad polynomial term 'x'"):
        parse_poly(f"1*s+x+1*s^{DEGREE_MAX + 1}", f3)
    with pytest.raises(WorkBound):
        parse_poly(f"1*s^{DEGREE_MAX + 1}+x", f3)
    with pytest.raises(ValueError, match="bad polynomial term '2\\*3'"):
        parse_poly("1*s+2*3", f3)
    # a term's coefficient is parsed before its exponent meets the cap
    with pytest.raises(ValueError, match="longer than a = 1"):
        parse_poly(f"[1,2]*s^{DEGREE_MAX + 1}", f3)


def test_dense_literal_at_degree_cap_round_trips_fast(f7):
    # one pass over the terms: adding one Poly per term would copy the
    # dense accumulator at each of the 10,001 terms
    rng = random.Random(5)
    f = Poly.from_ints(f7, [rng.randrange(1, 7) for _ in range(DEGREE_MAX + 1)])
    start = time.perf_counter()
    lit = format_poly(f)
    g = parse_poly(lit, f7)
    assert g == f and format_poly(g) == lit
    assert time.perf_counter() - start < 1


def test_ratfunc_literals(f3):
    s = Poly.gen(f3)
    x = RatFunc(s + Poly.one(f3), s * s)
    assert format_ratfunc(x) == "1*s+1/1*s^2"
    assert parse_ratfunc("1*s+1/1*s^2", f3) == x
    assert parse_ratfunc("1*s+1", f3) == RatFunc.from_poly(s + Poly.one(f3))
    for text in ("1*s/0", "0/0", "1/0*s^2"):  # a zero denominator is bad input
        with pytest.raises(ValueError, match="zero denominator"):
            parse_ratfunc(text, f3)


def test_place_literals(f3):
    assert format_place(Place.infinity()) == "inf"
    assert parse_place("inf", f3).is_infinite
    pl = Place.finite(Poly.from_ints(f3, [1, 0, 1]))
    assert parse_place(format_place(pl), f3) == pl


def test_point_literals(f3):
    s = Poly.gen(f3)
    pt = ECPoint.affine(RatFunc.from_poly(s), RatFunc.from_poly(s * s + s))
    lit = format_point(pt)
    assert lit == "(1*s; 1*s^2+1*s)"
    assert parse_point(lit, f3) == pt
    assert parse_point("O", f3).is_infinity
    assert format_point(ECPoint.infinity()) == "O"
