"""Cross-checks of the int-list F_q[s] kernel (Kronecker multiply, long or
Newton division, Barrett powmod, gcds and CRT on int lists) against the boxed
schoolbook multiply and long division it replaced, kept here as the oracle,
and against sympy over prime fields.  The table fields (a > 1, at most
_TABLE_MAX elements), which compute on Zech logarithms, are also checked
against the long division on z-digit vectors that they replaced, and their
inverses against extended Euclid (FieldCtx._raw_inv).  FIELDS holds the
largest odd prime power with a > 1 below _TABLE_MAX (31^2) and the smallest
above it (11^3).

Operand lengths run from 1 to 301 (degree 0 to 300) and include, each +-1,
every length at which the multiply changes strategy: the schoolbook/Kronecker
cutoffs and every change of slot width.  Division shapes include, each +-1,
the quotient * divisor sizes at which _divmod leaves long division.  Some
operands cancel, so that sums of Zech logarithms reach 0.  All randomness is
seeded.
"""

import random

import pytest

from kummerwit.base_algebra import (Poly, crt, factor, field_ctx, is_irreducible,
                                    poly_ext_gcd, poly_gcd)
from kummerwit.base_algebra import poly as kernel

FIELDS = [(p, a) for p in (3, 5, 7, 13, 257) for a in (1, 2, 3)] + [(31, 2), (11, 3)]
FIELD_IDS = [f"F{p}^{a}" for p, a in FIELDS]


# -- the oracle: FF-per-coefficient schoolbook product and long division -------------


def boxed(f):
    return [f.ctx.decode(c) for c in f.coeffs]


def unboxed(ctx, elems):
    return Poly(ctx, [ctx.encode(c) for c in elems])


def oracle_mul(ctx, a, b):
    if not a or not b:
        return []
    out = [ctx.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return out


def oracle_divmod(ctx, a, b):
    dv = len(b) - 1
    if len(a) - 1 < dv:
        return [], list(a)
    rem = list(a)
    inv_lc = b[-1].inv()
    quo = [ctx.zero()] * (len(rem) - dv)
    for k in range(len(rem) - 1, dv - 1, -1):
        c = rem[k]
        if c:
            c = c * inv_lc
            quo[k - dv] = c
            for j in range(dv + 1):
                rem[k - dv + j] = rem[k - dv + j] - c * b[j]
    return quo, rem[:dv]


def oadd(f, g):
    a, b = boxed(f), boxed(g)
    a, b = a + [f.ctx.zero()] * (len(b) - len(a)), b + [f.ctx.zero()] * (len(a) - len(b))
    return unboxed(f.ctx, [x + y for x, y in zip(a, b)])


def omul(f, g):
    return unboxed(f.ctx, oracle_mul(f.ctx, boxed(f), boxed(g)))


def odivmod(f, g):
    quo, rem = oracle_divmod(f.ctx, boxed(f), boxed(g))
    return unboxed(f.ctx, quo), unboxed(f.ctx, rem)


def zvector_long_divmod(ctx, f, g):
    """Long division of code lists, a > 1, on z-digit vectors: remainder slots
    accumulate unreduced z-polynomials of degree < 2a - 1, each reduced when
    read as the next leading term and at the end."""
    a, dg, m = ctx.a, len(g) - 1, len(f) - len(g) + 1
    vec, reduce, pad = ctx._vec, ctx._reduce, [0] * (a - 1)
    inv, gv = ctx._raw_inv(vec(g[-1])), [vec(y) for y in g[:dg]]
    rem, quo = [list(vec(x)) + pad for x in f], [0] * m
    for k in range(m - 1, -1, -1):
        top = reduce(rem[k + dg])
        if any(top):
            c = ctx._raw_mul(top, inv)
            quo[k] = ctx._code(c)
            for acc, y in zip(rem[k:k + dg], gv):
                for i, ci in enumerate(c):
                    if ci:
                        for j, yj in enumerate(y, i):
                            acc[j] -= ci * yj
    return quo, kernel._trim([ctx._code(reduce(x)) for x in rem[:dg]])


def is_table_field(p, a):
    return a > 1 and p ** a <= kernel._TABLE_MAX


def negate_odd(f):
    """f(-s): f times g(s) = f(-s) has every odd coefficient 0, each a sum
    that cancels."""
    ctx, minus = f.ctx, -f.ctx.one()
    return Poly(ctx, [ctx.encode(minus * c) if i % 2 else ctx.encode(c)
                      for i, c in enumerate(boxed(f))])


# -- inputs ------------------------------------------------------------------------


def rand_poly(ctx, rng, length):
    """A polynomial with exactly `length` coefficients (zero for length 0)."""
    if length == 0:
        return Poly.zero(ctx)
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(length - 1)]
                + [rng.randrange(1, ctx.q)])


def sparse_codes(ctx, rng, length):
    """`length` codes, mostly zero, ending in a run of zeros that Poly trims."""
    codes = [rng.randrange(ctx.q) if rng.random() < 0.3 else 0 for _ in range(length)]
    return codes + [0] * rng.randrange(1, 4)


def cutoff_lengths(p, a):
    """Operand lengths at which _mul changes strategy, each +-1."""
    marks = {kernel._KRONECKER_MIN}
    if is_table_field(p, a):  # n x n leaves the log schoolbook at n = 2a * _LOG_SCHOOLBOOK
        marks.add(2 * a * kernel._LOG_SCHOOLBOOK)
    for width in (1, 2, 3):  # first length whose product slots outgrow `width` bytes
        marks.add(-(-256 ** width // (a * (p - 1) ** 2)))
    return sorted({n for m in marks for n in (m - 1, m, m + 1) if 1 <= n <= 301})


def long_division_shapes(ctx):
    """(quotient length, divisor length >= 2) with product at the cutoffs of
    _divmod's long division, each +-1: the factor pairs with the shortest and
    the longest quotient, and the most nearly square one."""
    shapes = set()
    cutoffs = {kernel._LONG_DIVISION_MAX, kernel._long_division_max(ctx)} - {0}
    for t in (c + d for c in cutoffs for d in (-1, 0, 1)):
        pairs = [(m, t // m) for m in range(1, t // 2 + 1) if t % m == 0]
        shapes |= {pairs[0], pairs[-1], min(pairs, key=lambda mn: abs(mn[0] - mn[1]))}
    return sorted(shapes)


def lengths(p, a):
    return sorted(set(cutoff_lengths(p, a)) | {1, 2, 3, 5, 17, 100, 301})


def ctx_of(p, a):
    return field_ctx(p, a)


# -- multiply and divide ---------------------------------------------------------------


@pytest.mark.parametrize("p,a", FIELDS, ids=FIELD_IDS)
def test_mul_matches_boxed_schoolbook(p, a):
    ctx = ctx_of(p, a)
    rng, cancel_rng = random.Random(1000 * p + a), random.Random(1500 * p + a)
    for n in lengths(p, a):
        f, g = rand_poly(ctx, rng, n), rand_poly(ctx, rng, n + rng.randrange(0, 20))
        assert f * g == omul(f, g) == g * f, (p, a, n)
    # all-maximal coefficients fill every product slot to its bound
    top = ctx.encode(-ctx.one())
    for n in cutoff_lengths(p, a):
        f = Poly(ctx, [top] * n)
        assert f * f == omul(f, f), (p, a, n)
    assert f * Poly.zero(ctx) == Poly.zero(ctx)
    for n in lengths(p, a):
        f, g = (Poly(ctx, sparse_codes(ctx, rng, k)) for k in (n, n + rng.randrange(0, 20)))
        assert f * g == omul(f, g), (p, a, n)
        if n > 50:
            continue
        # odd product coefficients cancel to 0, and so do sums and differences
        f = rand_poly(ctx, cancel_rng, n)
        assert f * negate_odd(f) == omul(f, negate_odd(f)), (p, a, n)
        assert f - f == f + -f == Poly.zero(ctx) == oadd(f, -f), (p, a, n)
        assert oadd(f, negate_odd(f)) == f + negate_odd(f), (p, a, n)


@pytest.mark.parametrize("p,a", FIELDS, ids=FIELD_IDS)
def test_divmod_matches_boxed_long_division(p, a):
    ctx = ctx_of(p, a)
    rng, cancel_rng = random.Random(2000 * p + a), random.Random(2200 * p + a)
    for n in lengths(p, a):
        g = rand_poly(ctx, rng, n)
        # quotient lengths around each Newton doubling, plus a long quotient
        for extra in {0, 1, 2, 3, 8, 9, min(n, 120)}:
            f = rand_poly(ctx, rng, n + extra)
            q, r = divmod(f, g)
            assert (q, r) == odivmod(f, g), (p, a, n, extra)
            if is_table_field(p, a):
                assert (list(q.coeffs), list(r.coeffs)) == zvector_long_divmod(
                    ctx, f.coeffs, g.coeffs), (p, a, n, extra)
        # an exact multiple: every remainder slot cancels to 0
        h = rand_poly(ctx, cancel_rng, cancel_rng.randrange(1, 12))
        assert divmod(omul(g, h), g) == (h, Poly.zero(ctx)), (p, a, n)
        short = rand_poly(ctx, rng, n - 1)
        assert divmod(short, g) == (Poly.zero(ctx), short)
        f, g = (Poly(ctx, sparse_codes(ctx, rng, k)) for k in (n + 9, n))
        if g:
            assert divmod(f, g) == odivmod(f, g), (p, a, n)
    # quotient length * divisor length at the long-division cutoff, each +-1
    for m, n in long_division_shapes(ctx):
        g = rand_poly(ctx, rng, n)
        f = rand_poly(ctx, rng, m + n - 1)
        assert divmod(f, g) == odivmod(f, g), (p, a, m, n)
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.one(ctx), Poly.zero(ctx))


@pytest.mark.parametrize("p,a", FIELDS, ids=FIELD_IDS)
def test_scale_and_evaluate_match_boxed(p, a):
    ctx = ctx_of(p, a)
    rng = random.Random(2500 * p + a)
    for n in (1, 2, 17, 301):
        f = rand_poly(ctx, rng, n)
        c = ctx.decode(rng.randrange(1, ctx.q))
        assert f.scale(c) == unboxed(ctx, [x * c for x in boxed(f)]), (p, a, n)
        acc = ctx.zero()
        for x in reversed(boxed(f)):
            acc = acc * c + x
        assert f.evaluate(c) == acc and f.evaluate(ctx.zero()) == boxed(f)[0], (p, a, n)
    # scaling by zero returns at once, whatever the length
    assert Poly(ctx, [ctx.unit] * 100_000).scale(ctx.zero()) == Poly.zero(ctx)


@pytest.mark.parametrize("p,a", FIELDS, ids=FIELD_IDS)
def test_powmod_matches_boxed_square_and_multiply(p, a):
    ctx = ctx_of(p, a)
    rng = random.Random(3000 * p + a)
    for n in (1, 2, 3, 9, 25):
        mod = rand_poly(ctx, rng, n)
        base = rand_poly(ctx, rng, rng.randrange(0, 2 * n + 2))
        for e in (0, 1, 2, ctx.q, rng.randrange(10 ** 6)):
            want, b, k = odivmod(Poly.one(ctx), mod)[1], odivmod(base, mod)[1], e
            while k:
                if k & 1:
                    want = odivmod(omul(want, b), mod)[1]
                b = odivmod(omul(b, b), mod)[1]
                k >>= 1
            assert base.powmod(e, mod) == want, (p, a, n, e)


# -- gcd family ----------------------------------------------------------------------


@pytest.mark.parametrize("p,a", FIELDS, ids=FIELD_IDS)
def test_ext_gcd_bezout_and_divisibility(p, a):
    ctx = ctx_of(p, a)
    rng = random.Random(4000 * p + a)
    for n in (1, 2, 8, 9, 60):
        common = rand_poly(ctx, rng, rng.randrange(1, 6))
        f = omul(common, rand_poly(ctx, rng, n))
        g = omul(common, rand_poly(ctx, rng, rng.randrange(1, n + 3)))
        for x, y in ((f, g), (g, f), (f, Poly.zero(ctx)), (Poly.zero(ctx), g)):
            d, u, v = poly_ext_gcd(x, y)
            assert d.is_monic() and d == poly_gcd(x, y)
            assert oadd(omul(u, x), omul(v, y)) == d, (p, a, n)
            for h in (x, y):
                assert odivmod(h, d)[1].is_zero()
            assert odivmod(d, common)[1].is_zero()


@pytest.mark.parametrize("p,a", FIELDS, ids=FIELD_IDS)
def test_crt_residues(p, a):
    ctx = ctx_of(p, a)
    rng = random.Random(5000 * p + a)
    for count, deg in ((2, 1), (3, 4), (4, 20)):
        moduli = []
        while len(moduli) < count:
            m = rand_poly(ctx, rng, deg + 1 + rng.randrange(3))
            if all(poly_gcd(m, other).is_one() for other in moduli):
                moduli.append(m)
        residues = [rand_poly(ctx, rng, rng.randrange(0, 2 * deg + 3)) for _ in moduli]
        x = crt(list(zip(residues, moduli)))
        for r, m in zip(residues, moduli):
            assert odivmod(x, m)[1] == odivmod(r, m)[1], (p, a, count, deg)
        assert x.is_zero() or x.degree() < sum(m.degree() for m in moduli)


@pytest.mark.parametrize("p,a", FIELDS, ids=FIELD_IDS)
def test_factor_round_trip(p, a):
    ctx = ctx_of(p, a)
    rng = random.Random(6000 * p + a)
    for n in (2, 3, 6, 13 if ctx.q < 100 else 7):
        f = rand_poly(ctx, rng, n)
        prod = Poly.const(ctx, f.lc())
        for g, e in factor(f, seed=n):
            assert g.is_monic() and is_irreducible(g)
            for _ in range(e):
                prod = omul(prod, g)
        assert prod == f, (p, a, n)


# -- prime fields: sympy as an independent implementation -------------------------------


def from_sympy(ctx, pol):
    return Poly.from_ints(ctx, [int(c) for c in reversed(pol.all_coeffs())])


@pytest.mark.parametrize("p", [3, 5, 7, 13, 257])
def test_prime_field_kernel_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    def to_sympy(f, x):
        return sympy.Poly(list(reversed(f.coeffs)) or [0], x, modulus=p)

    ctx, x = field_ctx(p, 1), sympy.Symbol("x")
    rng = random.Random(7000 + p)
    for n in lengths(p, 1):
        f, g = rand_poly(ctx, rng, n + rng.randrange(0, 50)), rand_poly(ctx, rng, n)
        sf, sg = to_sympy(f, x), to_sympy(g, x)
        assert f * g == from_sympy(ctx, sf * sg)
        q, r = divmod(f, g)
        assert (q, r) == (from_sympy(ctx, sf.quo(sg)), from_sympy(ctx, sf.rem(sg)))
        if n <= 100:  # sympy's gcdex takes seconds beyond
            su, sv, sd = sympy.gcdex(sf, sg)
            assert poly_ext_gcd(f, g) == tuple(from_sympy(ctx, t) for t in (sd, su, sv))
        e = rng.randrange(10 ** 9)
        dense = [int(c) % p for c in reversed(f.coeffs)]
        want = gf_pow_mod(dense, e, [int(c) for c in reversed(g.coeffs)], p, ZZ)
        assert f.powmod(e, g) == Poly.from_ints(ctx, list(reversed(want)))
    for n in (5, 17, 40):
        f = rand_poly(ctx, rng, n)
        _, pairs = to_sympy(f, x).factor_list()
        want = sorted(((from_sympy(ctx, h).monic(), k) for h, k in pairs),
                      key=lambda kv: (kv[0].sort_key(), kv[1]))
        assert factor(f) == want


# -- representation guards --------------------------------------------------------------


def test_polys_over_different_fields_differ():
    f3, f5, f9 = field_ctx(3, 1), field_ctx(5, 1), field_ctx(3, 2)
    assert Poly.one(f3) != Poly.one(f5)
    assert Poly.one(f3) != Poly.one(f9)
    assert Poly.gen(f3) != Poly.gen(f5)
    assert Poly.one(f3) == Poly.one(field_ctx(3, 1))


def test_codes_order_like_vectors():
    ctx = field_ctx(3, 2)
    elems = list(ctx.elements())
    assert [ctx.encode(x) for x in elems] == list(range(9))
    assert all(ctx.decode(ctx.encode(x)) == x for x in elems)
    assert Poly.one(ctx).coeffs == (3,) and Poly.from_ints(ctx, [2, 4]).coeffs == (6, 3)


def test_default_moduli_pinned():
    # the least monic irreducible in enumeration order: the early rejections
    # in is_irreducible must not change which one is found
    assert field_ctx(11, 5).modulus == (1, 0, 0, 0, 2, 1)
    assert field_ctx(3, 6).modulus == (1, 0, 0, 0, 1, 1, 1)
    assert field_ctx(7, 4).modulus == (1, 0, 0, 1, 1)
    assert field_ctx(13, 3).modulus == (1, 0, 4, 1)


def test_is_irreducible_early_rejections():
    ctx = field_ctx(5, 1)
    s, one = Poly.gen(ctx), Poly.one(ctx)
    assert not is_irreducible(s * (s * s + Poly.const(ctx, 2)))  # s divides it
    assert not is_irreducible((s + one) * (s ** 3 + s + one))   # root -1
    quad = s * s + Poly.const(ctx, 2)
    assert is_irreducible(quad)
    assert not is_irreducible(quad * quad)  # no roots: the split's first part is quad


@pytest.mark.parametrize("p,a", [f for f in FIELDS if is_table_field(*f)],
                         ids=[i for f, i in zip(FIELDS, FIELD_IDS) if is_table_field(*f)])
def test_table_inverse_matches_euclid(p, a):
    ctx = ctx_of(p, a)
    for c in range(1, ctx.q):
        assert kernel._inv(ctx, c) == ctx._code(ctx._raw_inv(ctx._vec(c))), (p, a, c)


@pytest.mark.parametrize("p,a", [(3, 2), (3, 6), (7, 3), (257, 2)])
def test_extension_inverse(p, a):
    ctx = field_ctx(p, a)
    rng = random.Random(p + a)
    for _ in range(30):
        x = ctx.decode(rng.randrange(1, ctx.q))
        assert x * x.inv() == ctx.one()
        assert x.inv() == x ** (ctx.q - 2)  # Fermat's little theorem


def test_random_element_stream_unchanged():
    # factor draws each element as a vector, first coordinate first
    ctx = field_ctx(3, 3)
    rng, ref = random.Random(9), random.Random(9)
    for _ in range(20):
        vec = tuple(ref.randrange(3) for _ in range(3))
        assert kernel._rand_elem(ctx, rng) == ctx.encode(ctx.elem(vec))
