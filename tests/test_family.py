import itertools
import random

import pytest

from kummerwit import curve_ff, family
from kummerwit.base_algebra import (FF, Poly, RatFunc, all_polys, factor, field_ctx,
                                    irreducibles, parse_point)
from kummerwit.base_algebra.poly import poly_lcm, poly_valuation, polys_of_degree
from kummerwit.curve_ff import ECPoint, curve_make, ec_mul, is_torsion, point_search
from kummerwit.errors import DistinctnessFailure, TorsionPoint, ZeroInput
from kummerwit.family import (_minimal_poly_of_root_power, family_grow, family_members,
                              membership_witness, polynomial_in_powers)
from tests.test_curve_ff import sample_point
from tests.test_poly import rand_poly


def test_members_lambda_zero(f3):
    E2 = curve_make(f3, 2)
    res = family_members(Poly.zero(f3), E2, 4)
    assert res.members == [Poly.zero(f3)]
    assert res.exhaustive


def test_members_reject_negative_bound(f3):
    E2 = curve_make(f3, 2)
    for lam in (Poly.one(f3), Poly.zero(f3)):
        with pytest.raises(ValueError, match="deg_bound"):
            family_members(lam, E2, -1)


def test_zero_always_member(f3):
    E2 = curve_make(f3, 2)
    for lam_ints in ([1], [0, 1], [1, 2], [2, 0, 1]):
        lam = Poly.from_ints(f3, lam_ints)
        res = family_members(lam, E2, 1)
        assert Poly.zero(f3) in res.members
        assert res.witnesses[Poly.zero(f3)] == Poly.zero(f3)


def test_members_against_brute_force_y_search(f3):
    """Independent oracle: exhaustive search over polynomial y of bounded
    degree decides membership for deg x <= 1, lambda = 1, N = 2."""
    E2 = curve_make(f3, 2)
    lam = Poly.one(f3)
    s2 = Poly.monomial(f3, 2)
    res = family_members(lam, E2, 1)
    brute = []
    for x in all_polys(f3, 1):
        rhs = x * (x + lam) * (x + lam * s2)
        if any((y * y) == rhs for y in all_polys(f3, 4)):
            brute.append(x)
    assert res.members == sorted(brute, key=Poly.sort_key)


def test_scaled_point_membership(f3):
    """The scaled coordinates of the curve point (s, s(s+1)) satisfy the
    membership equation with lambda = s."""
    E2 = curve_make(f3, 2)
    s = Poly.gen(f3)
    res = family_members(s, E2, 2)
    assert s * s in res.members
    y = res.witnesses[s * s]
    s2 = Poly.monomial(f3, 2)
    assert y * y * s == (s * s) * (s * s + s) * (s * s + s * s2)


def test_members_reverify_and_nonmembers_fail(f3):
    E2 = curve_make(f3, 2)
    s = Poly.gen(f3)
    lam = s + Poly.one(f3)
    res = family_members(lam, E2, 2)
    sN = Poly.monomial(f3, 2)
    member_set = set(res.members)
    for x in all_polys(f3, 2):
        if x in member_set:
            y = res.witnesses[x]
            assert y * y * lam == x * (x + lam) * (x + lam * sN)
        else:
            assert membership_witness(x, lam, E2) is None


def test_members_monotone_in_bound(f3):
    E2 = curve_make(f3, 2)
    s = Poly.gen(f3)
    small = set(family_members(s, E2, 1).members)
    large = set(family_members(s, E2, 3).members)
    assert small <= large


# -- members against the exhaustive walk ----------------------------------------------


def exhaustive_members(lam, curve, deg_bound):
    """Every polynomial of degree <= deg_bound decided by membership_witness:
    the oracle for family_members, member -> witness."""
    found = {}
    for x in all_polys(curve.ctx, deg_bound):
        y = membership_witness(x, lam, curve)
        if y is not None:
            found[x] = y
    return found


# (p, a, N, lambda as codes from s^0 up, deg_bound): lambda of degree 0-4,
# with and without square and cube factors, some not monic, and lambda = 0;
# the cube cases over F_3 (s^3, (s+1)^3, 2s^3, s^4+s^3), F_5 ((s+3)^3, 4(s+1)^3),
# F_7 ((s+1)^3) and F_9 (s^3, code 5 * s^3) have members lambda*u/b^2 with
# deg b = 1: over F_5, 4s^3+2s^2 = (s+3)^3 * 4s^2/(s+3)^2; s(s+1)^2 and
# s^2(s+1)^2 over F_3 have a square factor but no cube factor
FAMILY_CASES = [(3, 1, 2, [], 3), (3, 1, 2, [2], 4), (3, 1, 1, [0, 1], 4),
                (3, 1, 2, [0, 1, 2, 1], 3), (3, 1, 1, [0, 1, 2, 1], 4),
                (3, 1, 2, [0, 0, 1, 2, 1], 4),
                (3, 1, 2, [1, 2, 1], 4), (3, 1, 4, [0, 0, 0, 1], 1),
                (3, 1, 4, [1, 0, 0, 1], 4), (3, 1, 4, [0, 0, 0, 2], 2),
                (3, 1, 5, [0, 0, 0, 0, 1], 4), (3, 1, 4, [0, 0, 0, 1, 1], 2),
                (3, 1, 2, [0, 1, 0, 0, 1], 5), (5, 1, 3, [2, 2, 4, 1], 3),
                (5, 1, 3, [4, 2, 2, 4], 2), (5, 1, 1, [0, 0, 1], 3),
                (5, 1, 2, [3, 0, 0, 3], 3), (7, 1, 4, [1, 3, 3, 1], 4),
                (7, 1, 1, [5], 2), (7, 1, 3, [1, 0, 1], 2),
                (3, 2, 4, [0, 0, 0, 1], 1), (3, 2, 4, [0, 0, 0, 5], 2),
                (3, 2, 2, [1, 0, 0, 1], 2), (3, 2, 1, [0, 7], 2)]


@pytest.mark.parametrize("p,a,N,lam_codes,deg_bound", FAMILY_CASES,
                         ids=[f"F{c[0]}^{c[1]}-N{c[2]}-{c[3]}-B{c[4]}" for c in FAMILY_CASES])
def test_members_match_exhaustive_walk(p, a, N, lam_codes, deg_bound):
    ctx = field_ctx(p, a)
    curve = curve_make(ctx, N)
    lam = Poly(ctx, lam_codes)
    res = family_members(lam, curve, deg_bound)
    expected = exhaustive_members(lam, curve, deg_bound)
    assert res.members == sorted(expected, key=Poly.sort_key)
    assert res.witnesses == expected


def test_members_decided_once_within_the_cube_bound(monkeypatch):
    """Each member's x/lambda in lowest terms has a denominator dividing
    c^2, c^3 the largest cube dividing lambda: only the points (X, Y) with
    Y.den dividing lambda are kept.  The witness is lambda*Y, so
    membership_witness, and its square root, is never called."""
    def no_root(*args):
        raise AssertionError("membership_witness called")
    monkeypatch.setattr(family, "membership_witness", no_root)
    for p, a, N, lam_codes, deg_bound in FAMILY_CASES:
        ctx = field_ctx(p, a)
        lam = Poly(ctx, lam_codes)
        if lam.is_zero():
            continue
        cube_root = Poly.one(ctx)
        for h, mult in factor(lam):
            cube_root = cube_root * h ** (mult // 3)
        res = family_members(lam, curve_make(ctx, N), deg_bound)
        assert res.members
        for x in res.members:
            assert not (cube_root * cube_root) % RatFunc(x, lam).den, (lam, x)


def test_members_with_no_numerator_room_search_nothing(f3, monkeypatch):
    """deg_bound below deg lambda - 2*floor(deg lambda / 3) leaves x = 0
    alone, found without walking a single b."""
    walked = []

    def spy(ctx, d, monic=False):
        for b in polys_of_degree(ctx, d, monic):
            walked.append(b)
            yield b
    monkeypatch.setattr(curve_ff, "polys_of_degree", spy)
    res = family_members(Poly.monomial(f3, 12), curve_make(f3, 2), 0)
    zero = Poly.zero(f3)
    assert (res.members, res.witnesses, walked) == ([zero], {zero: zero}, [])


@pytest.mark.parametrize("target", [1, 2, 3])
def test_family_grow_targets(f3, target):
    """The members hold the scaled multiples lambda*x(kP), k <= target, as
    family_grow's docstring proves, each with its witness."""
    E2 = curve_make(f3, 2)
    pt = sample_point(f3)
    lam, res = family_grow(pt, E2, target)
    assert len(res.members) >= target
    assert lam == Poly.one(f3)  # the sample point and its small multiples are integral
    sN = Poly.monomial(f3, 2)
    for x in res.members:
        y = res.witnesses[x]
        assert y * y * lam == x * (x + lam) * (x + lam * sN)
    for k in range(1, target + 1):
        kx = ec_mul(k, pt, E2).x
        assert lam // kx.den * kx.num in res.witnesses, k


def test_lambda_from_y_denominators(f3):
    """x.den divides y.den on the family_grow inputs of the tests and the
    golden records, and on the multiples of a non-torsion point on N = 3
    over F_5, so the lcm of the y-denominators is the old lcm of both."""
    f5 = field_ctx(5, 1)
    E3 = curve_make(f5, 3)
    cases = [(sample_point(f3), curve_make(f3, 2), 3),
             (parse_point("(1*s^2; 1*s^4+1*s^2)", f5), curve_make(f5, 4), 2),
             (next(pt for pt in point_search(E3, 3, 1) if not is_torsion(pt, E3)), E3, 6)]
    for pt, curve, target in cases:
        multiples = [ec_mul(k, pt, curve) for k in range(1, target + 1)]
        both = new = Poly.one(curve.ctx)
        for mp in multiples:
            both = poly_lcm(poly_lcm(both, mp.x.den), mp.y.den)
            new = poly_lcm(new, mp.y.den)
            assert not mp.y.den % mp.x.den
        assert new == both
    assert not new.is_constant()  # the non-torsion point's multiples have poles


def test_family_grow_rejects_torsion(f3):
    E2 = curve_make(f3, 2)
    zero = RatFunc.zero(f3)
    with pytest.raises(TorsionPoint):
        family_grow(ECPoint.affine(zero, zero), E2, 1)


def test_family_grow_collision_detection(f3):
    # the sample point has order 4, so asking for 4 multiples hits infinity
    E2 = curve_make(f3, 2)
    with pytest.raises(DistinctnessFailure):
        family_grow(sample_point(f3), E2, 4)


def test_polynomial_in_powers_worked_examples(f3):
    s = Poly.gen(f3)
    one = Poly.one(f3)
    assert polynomial_in_powers(s + one, 2) == s - one
    assert polynomial_in_powers(s * s, 3) == s
    assert polynomial_in_powers(Poly.const(f3, 2), 5) == one
    with pytest.raises(ZeroInput):
        polynomial_in_powers(Poly.zero(f3), 2)


def test_minimal_poly_of_root_power_properties(f3, f7):
    """q_h(alpha^n) must vanish in F_q[s]/(h), be monic irreducible, and have
    degree dividing deg h."""
    from kummerwit.base_algebra import is_irreducible, irreducibles
    from kummerwit.family import _minimal_poly_of_root_power
    for ctx in (f3, f7):
        for d in (1, 2, 3):
            for h in list(irreducibles(ctx, d))[:4]:
                for n in (2, 3, 5):
                    qh = _minimal_poly_of_root_power(h, n)
                    assert qh.is_monic()
                    assert qh.degree() >= 1 and d % qh.degree() == 0
                    assert is_irreducible(qh)
                    beta = Poly.gen(ctx).powmod(n, h)
                    acc = Poly.zero(ctx)
                    for i, coeff in enumerate(qh.coeffs):
                        acc = acc + (beta.powmod(i, h)).scale(FF(ctx, coeff))
                    assert (acc % h).is_zero()


@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_polynomial_in_powers_random(p, n):
    from kummerwit.base_algebra import field_ctx
    ctx = field_ctx(p, 1)
    rng = random.Random(1000 + p * n)
    for _ in range(34):
        f = rand_poly(ctx, rng, 5, nonzero=True)
        fbar = polynomial_in_powers(f, n)
        assert not fbar.is_zero() and fbar.is_monic()
        prod = f * fbar
        for i, coeff in enumerate(prod.coeffs):
            if i % n != 0:
                assert not coeff, (f, n)


def _solve_dependency(rows, ctx):
    """Coefficients c_0..c_k (c_k = 1) with sum c_i rows[i] = 0, if they exist
    with the last row pivotal; Gaussian elimination over F_q on FF entries."""
    k = len(rows) - 1
    d = len(rows[0])
    # solve rows[k] = sum_{i<k} x_i rows[i]
    mat = [[rows[i][j] for i in range(k)] + [rows[k][j]] for j in range(d)]
    pivots = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, d) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col].inv()
        mat[r] = [v * inv for v in mat[r]]
        for i in range(d):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    # consistent iff no row has zero coefficients but nonzero rhs
    if any(mat[i][k] for i in range(r, d)):
        return None
    solution = [ctx.zero()] * k
    for row_idx, col in enumerate(pivots):
        solution[col] = mat[row_idx][k]
    return [-c for c in solution] + [ctx.one()]


def elimination_minimal_poly(h, n):
    """The oracle: the first linear dependency among 1, beta, beta^2, ...
    (beta = s^n mod h) as coefficient vectors of length deg h."""
    ctx = h.ctx
    d = h.degree()
    beta = Poly.gen(ctx).powmod(n, h)
    rows = []
    cur = Poly.one(ctx)
    for _ in range(d + 1):
        rows.append([FF(ctx, c) for c in cur.coeffs] + [ctx.zero()] * (d - len(cur.coeffs)))
        dependency = _solve_dependency(rows, ctx)
        if dependency is not None:
            return Poly(ctx, [c.code for c in dependency]).monic()
        cur = (cur * beta) % h
    raise AssertionError("no dependency within the field degree")


@pytest.mark.parametrize("p,a,max_deg", [(3, 1, 5), (5, 1, 3), (7, 1, 3), (3, 2, 3)])
def test_minimal_poly_of_root_power_matches_elimination(p, a, max_deg):
    ctx = field_ctx(p, a)
    for d in range(1, max_deg + 1):
        for h in irreducibles(ctx, d):
            for n in range(1, 11):
                assert _minimal_poly_of_root_power(h, n) == elimination_minimal_poly(h, n), (h, n)


@pytest.mark.parametrize("p,a", [(3, 1), (5, 1), (3, 2)])
def test_root_power_multiplicity_formula(p, a):
    """h divides q_h(s^n) exactly n times for h = s and p^v_p(n) times
    otherwise, for n <= 30, against poly_valuation."""
    ctx = field_ctx(p, a)
    hs = [h for d in (1, 2) for h in list(irreducibles(ctx, d))[:5]]
    assert Poly.gen(ctx) in hs
    for h in hs:
        for n in range(1, 31):
            qh_n = _minimal_poly_of_root_power(h, n).compose_monomial(n)
            p_part = p ** next(v for v in itertools.count() if n % p ** (v + 1))
            assert poly_valuation(qh_n, h) == (n if h == Poly.gen(ctx) else p_part), (h, n)


def polynomial_in_powers_by_valuation(f, n):
    """polynomial_in_powers as it was: a constant-f branch, and each
    multiplicity read off by poly_valuation."""
    ctx = f.ctx
    if f.is_constant():
        return Poly.one(ctx)
    multiple = Poly.one(ctx)
    for h, mult in factor(f):
        qh_n = _minimal_poly_of_root_power(h, n).compose_monomial(n)
        multiple = multiple * qh_n ** -(-mult // poly_valuation(qh_n, h))
    quot, rem = divmod(multiple, f)
    assert rem.is_zero(), "f must divide the multiple"
    return quot.monic()


@pytest.mark.parametrize("p,a", [(3, 1), (5, 1), (3, 2)])
def test_polynomial_in_powers_matches_valuation_form(p, a):
    ctx = field_ctx(p, a)
    rng = random.Random(300 + p + a)
    s = Poly.gen(ctx)
    for _ in range(12):
        f = rand_poly(ctx, rng, 4, nonzero=True)
        for g in (f, f * s ** rng.randrange(1, 4), f ** p):
            for n in (1, 2, p, 2 * p, p * p, 7):
                assert polynomial_in_powers(g, n) == polynomial_in_powers_by_valuation(g, n), (g, n)
