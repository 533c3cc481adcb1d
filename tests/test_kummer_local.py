import random

import pytest

from kummerwit.base_algebra import (Place, Poly, RatFunc, ResidueField,
                                    factor_place_in_tower, irreducibles,
                                    valuation)
from kummerwit.errors import (BadEll, LthPowerInput, PoleViolation,
                              UntrackedLabel, ZeroInput, ZetaMissing)
from kummerwit.kummer_local import (KummerCase, PlaceState, descend,
                                    kummer_case, s_local_conditions,
                                    state_from_elements, verify_descent_lemma)
from tests.test_places import unit_part_oracle
from tests.test_poly import rand_poly


def small_places(ctx, max_deg=2, include_inf=True):
    out = [Place.infinity()] if include_inf else []
    for d in range(1, max_deg + 1):
        out.extend(Place.finite(pi) for pi in irreducibles(ctx, d))
    return out


def test_kummer_case_worked_trio(f7):
    t = RatFunc.gen(f7)
    pt = Place.finite(Poly.gen(f7))
    assert kummer_case(t, pt, 3, f7) is KummerCase.TOTALLY_RAMIFIED
    assert kummer_case(t + RatFunc.one(f7), pt, 3, f7) is KummerCase.SPLIT
    assert kummer_case(RatFunc.const(f7, 3), pt, 3, f7) is KummerCase.INERT_DEGREE_L


def test_kummer_case_errors(f3, f7):
    t = RatFunc.gen(f7)
    pt = Place.finite(Poly.gen(f7))
    with pytest.raises(ZetaMissing):
        kummer_case(t, pt, 5, f7)  # 5 does not divide 6
    with pytest.raises(BadEll):
        kummer_case(RatFunc.gen(f3), Place.infinity(), 3, f3)  # l = p
    with pytest.raises(LthPowerInput):
        kummer_case(t ** 3, pt, 3, f7)


def test_kummer_case_partition(f7, f13):
    # exactly one case, cross-checked against a direct computation
    rng = random.Random(19)
    for ctx in (f7, f13):
        for pl in small_places(ctx, 1):
            for _ in range(25):
                num = rand_poly(ctx, rng, 2, nonzero=True)
                den = rand_poly(ctx, rng, 2, nonzero=True)
                b = RatFunc(num, den)
                try:
                    case = kummer_case(b, pl, 3, ctx)
                except LthPowerInput:
                    continue
                rf = ResidueField(ctx, pl)
                v, unit = unit_part_oracle(rf, b)
                if v % 3 != 0:
                    assert case is KummerCase.TOTALLY_RAMIFIED
                elif rf.is_nth_power(unit, 3):
                    assert case is KummerCase.SPLIT
                else:
                    assert case is KummerCase.INERT_DEGREE_L


def test_simulator_agrees_with_tower_factorization(f7, f13):
    """Adjoining an l-th root of s with l = r realizes one tower level, so the
    local case must match the shape of the place factorization."""
    for ctx in (f7, f13):
        s_fn = RatFunc.gen(ctx)
        for pl in small_places(ctx, 2, include_inf=False):
            case = kummer_case(s_fn, pl, 3, ctx)
            above = factor_place_in_tower(pl, 3, 1, ctx)
            if case is KummerCase.TOTALLY_RAMIFIED:
                assert [(e, f) for _, e, f in above] == [(3, 1)]
            elif case is KummerCase.SPLIT:
                assert sorted((e, f) for _, e, f in above) == [(1, 1)] * 3
            else:
                assert [(e, f) for _, e, f in above] == [(1, 3)]


def test_descend_worked_examples(f7):
    pt = Place.finite(Poly.gen(f7))
    rf = ResidueField(f7, pt)
    # ramified: v(b) = 1 scales every tracked valuation by l
    st = PlaceState(rf, 1, 1, {"b": 1, "x": -2}, {})
    out = descend(st, "b", 3)
    assert out.vals == {"b": 3, "x": -6} and out.Q == 7 and out.e_total == 3

    # split: residue already a cube, state unchanged
    st = state_from_elements(pt, f7, {"b": RatFunc.one(f7)})
    assert descend(st, "b", 3) == st

    # inert: residue 3 is not a cube in F_7 but becomes one in F_343
    st = state_from_elements(pt, f7, {"b": RatFunc.const(f7, 3)})
    assert not st.residue_is_lth_power("b", 3)
    out = descend(st, "b", 3)
    assert out.Q == 343 and out.f_total == 3
    assert out.residue_is_lth_power("b", 3)

    with pytest.raises(UntrackedLabel):
        descend(st, "missing", 3)
    # ambiguous split/inert requires an explicit branch
    amb = PlaceState(rf, 1, 1, {"b": 3}, {})
    with pytest.raises(ValueError):
        descend(amb, "b", 3)
    assert descend(amb, "b", 3, KummerCase.INERT_DEGREE_L).f_total == 3


def test_divisibility_x_worked_example(f7):
    t = RatFunc.gen(f7)
    place = Place.finite(Poly.gen(f7) - Poly.one(f7))
    verdict = verify_descent_lemma(
        "divisibility_x",
        {"x": t, "b": t + RatFunc.const(f7, 2), "c": RatFunc.const(f7, 3)},
        3, place, f7)
    assert verdict.hypotheses_hold and verdict.conclusion_holds


def test_obstruction_x_hypothesis_failure(f7):
    t = RatFunc.gen(f7)
    place = Place.finite(Poly.gen(f7) - Poly.one(f7))
    verdict = verify_descent_lemma(
        "obstruction_x", {"x": t, "b": t, "c": RatFunc.const(f7, 3)}, 3, place, f7)
    assert not verdict.hypotheses_hold
    assert verdict.hypothesis_report["v_x_negative"] is False


def test_obstruction_d_at_infinity(f7):
    t = RatFunc.gen(f7)
    verdict = verify_descent_lemma(
        "obstruction_d", {"x": t, "d": t, "a": RatFunc.const(f7, 3)},
        3, Place.infinity(), f7)
    assert verdict.hypotheses_hold and verdict.conclusion_holds
    # d = 1/t at infinity has positive valuation, so hypothesis (i) fails
    verdict2 = verify_descent_lemma(
        "obstruction_d", {"x": RatFunc.one(f7), "d": t.inv(), "a": RatFunc.const(f7, 3)},
        3, Place.infinity(), f7)
    assert not verdict2.hypotheses_hold


def test_obstruction_unit_off_valuation_zero_fails_both_sides(f7):
    """A unit of nonzero valuation has no tracked residue: the hypothesis
    unit_not_lth_power and the conclusion's residue clause are both false."""
    t = RatFunc.gen(f7)
    for which, inputs in (("obstruction_x", {"x": t, "b": t, "c": t}),
                          ("obstruction_d", {"x": t ** 2, "d": t, "a": t})):
        verdict = verify_descent_lemma(which, inputs, 3, Place.infinity(), f7)
        assert verdict.hypothesis_report["unit_not_lth_power"] is False
        assert not verdict.hypotheses_hold and not verdict.conclusion_holds
        assert verdict.branch_count == 1


def test_divisibility_pole_violation(f7):
    t = RatFunc.gen(f7)
    with pytest.raises(PoleViolation):
        verify_descent_lemma(
            "divisibility_x",
            {"x": t.inv(), "b": t, "c": RatFunc.const(f7, 3)},
            3, Place.finite(Poly.gen(f7)), f7)


def _random_units(ctx, rng, place):
    """A random rational function with valuation 0 at the place."""
    while True:
        num = rand_poly(ctx, rng, 2, nonzero=True)
        den = rand_poly(ctx, rng, 2, nonzero=True)
        x = RatFunc(num, den)
        if valuation(x, place) == 0:
            return x


def test_divisibility_randomized(f7, f13):
    """The divisibility conclusions are unconditional at non-pole places."""
    rng = random.Random(404)
    checked = 0
    for ctx in (f7, f13):
        places = small_places(ctx, 2)
        while checked < 25 or (ctx is f13 and checked < 50):
            place = rng.choice(places)
            num = rand_poly(ctx, rng, 2, nonzero=True)
            den = rand_poly(ctx, rng, 2, nonzero=True)
            x = RatFunc(num, den)
            b = RatFunc(rand_poly(ctx, rng, 2, nonzero=True),
                        rand_poly(ctx, rng, 2, nonzero=True))
            c = _random_units(ctx, rng, place)
            for which, inputs in (("divisibility_x", {"x": x, "b": b, "c": c}),
                                  ("divisibility_d", {"x": c, "d": x, "a": b})):
                main = "x" if which == "divisibility_x" else "d"
                if valuation(inputs[main], place) < 0:
                    continue
                try:
                    verdict = verify_descent_lemma(which, inputs, 3, place, ctx)
                except ZeroInput:
                    continue  # degenerate input (zero adjunction element etc.)
                assert verdict.conclusion_holds, (which, place, inputs)
                checked += 1
    assert checked >= 50


def test_obstruction_randomized_hypothesis_satisfying(f7, f13):
    """Whenever the obstruction hypotheses hold, the conclusion holds on
    every simulated branch."""
    rng = random.Random(777)
    confirmed = 0
    for ctx in (f7, f13):
        for place in small_places(ctx, 1):
            rf_gen = RatFunc.from_poly(
                place.poly) if not place.is_infinite else RatFunc.gen(ctx).inv()
            for _ in range(30):
                # prescribed valuations: vb < 0 not divisible by 3, and
                # vx = 2*vb guarantees the margin 3*vx < 2*vb
                vb = -rng.randrange(1, 3)
                vx = 2 * vb
                unit = RatFunc.const(ctx, rng.randrange(1, ctx.p))
                x = unit * rf_gen ** vx
                b = rf_gen ** vb
                a_elem = RatFunc.const(ctx, rng.randrange(2, ctx.p))
                for which, inputs in (("obstruction_x", {"x": x, "b": b, "c": a_elem}),
                                      ("obstruction_d", {"x": x, "d": b, "a": a_elem})):
                    try:
                        verdict = verify_descent_lemma(which, inputs, 3, place, ctx)
                    except ZeroInput:
                        continue
                    if verdict.hypotheses_hold:
                        assert verdict.conclusion_holds, (which, place)
                        confirmed += 1
    assert confirmed >= 20


def test_s_local_conditions(f7):
    t = RatFunc.gen(f7)
    one = RatFunc.one(f7)
    inf = [Place.infinity()]
    assert s_local_conditions(one + t.inv(), one, one, 3, inf, f7)[0] is True
    assert s_local_conditions(t, one, one, 3, inf, f7)[0] is False
    theta, margin = s_local_conditions(one + t.inv(), t.inv(), t, 3, inf, f7)
    assert margin is True
    assert s_local_conditions(one, t, t, 3, inf, f7)[0] is True  # c = 1 exactly
    with pytest.raises(ValueError):
        s_local_conditions(one, one, one, 3, [], f7)


def s_local_with_powers(c, x, d, ell, places, ctx):
    """s_local_conditions as it was, on the built powers d*x^l and d^l."""
    cm1 = c - RatFunc.one(ctx)
    lhs, rhs = d * x ** ell, d ** ell
    theta = margin = True
    for place in places:
        if not cm1.is_zero() and valuation(cm1, place) <= 0:
            theta = False
        if rhs.is_zero():
            margin = False
        elif not lhs.is_zero() and valuation(lhs, place) <= valuation(rhs, place):
            margin = False
    return theta, margin


def test_s_local_conditions_match_the_product_form(f7):
    """Sums of valuations against valuations of the products, with zeros."""
    rng = random.Random(211)
    places = small_places(f7, max_deg=1)
    one = Poly.one(f7)

    def rand_rf():
        if rng.random() < 0.2:
            return RatFunc.zero(f7)
        num = rand_poly(f7, rng, 3, nonzero=True)
        return RatFunc(num, rand_poly(f7, rng, 2, nonzero=True) if rng.random() < 0.5 else one)

    for _ in range(300):
        c, x, d = rand_rf(), rand_rf(), rand_rf()
        if rng.random() < 0.1:
            c = RatFunc.one(f7)
        S = rng.sample(places, rng.randrange(1, 4))
        ell = rng.choice((2, 3, 5))
        assert s_local_conditions(c, x, d, ell, S, f7) == s_local_with_powers(c, x, d, ell, S, f7)
