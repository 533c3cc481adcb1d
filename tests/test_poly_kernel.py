"""Cross-checks of the int-list F_q[s] kernel (Kronecker multiply, long or
Newton division, Barrett powmod, gcds and CRT on int lists) against the boxed
schoolbook multiply and long division it replaced, kept here as the oracle
on the digit tuples of tests/field_oracle.py (independent of the kernel,
which FF runs on too), and against sympy over prime fields.  The table
fields (a > 1, at most _TABLE_MAX elements), which compute on Zech
logarithms, are also checked against the long division on z-digit vectors
that they replaced, and their inverses against the oracle's extended
Euclid.  Prime-field gcds and extended gcds, which run packed, are checked
against the Euclid on code lists that they replaced, for primes up to
2^31 - 1.  Monic square roots, read off by the coefficient recurrence, are
checked against the Newton iteration that still serves long roots.  FIELDS
holds the largest odd prime power with a > 1 below _TABLE_MAX (31^2) and
the smallest above it (11^3).

Operand lengths run from 1 to 301 (degree 0 to 300) and include, each +-1,
every length at which the multiply changes strategy: the schoolbook/Kronecker
cutoffs and every change of slot width.  Division shapes include, each +-1,
the quotient * divisor sizes at which _divmod leaves long division.  Some
operands cancel, so that sums of Zech logarithms reach 0.  All randomness is
seeded.
"""

import math
import random

import pytest

from kummerwit.base_algebra import (FF, Poly, crt, factor, field_ctx, is_irreducible,
                                    poly_ext_gcd, poly_gcd)
from kummerwit.base_algebra import poly as kernel

from kummerwit.errors import NotCoprime
from tests.field_oracle import TupleField

FIELDS = [(p, a) for p in (3, 5, 7, 13, 257) for a in (1, 2, 3)] + [(31, 2), (11, 3)]
FIELD_IDS = [f"F{p}^{a}" for p, a in FIELDS]


# -- the oracle: schoolbook product and long division on digit tuples ---------------


def boxed(f):
    """The coefficients of f as digit tuples (field_oracle)."""
    return [TupleField.of(f.ctx).vec(c) for c in f.coeffs]


def unboxed(ctx, elems):
    return Poly(ctx, [TupleField.of(ctx).code(c) for c in elems])


def oracle_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if any(x):
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def oracle_divmod(F, a, b):
    dv = len(b) - 1
    if len(a) - 1 < dv:
        return [], list(a)
    rem = list(a)
    inv_lc = F.inv(b[-1])
    quo = [F.zero] * (len(rem) - dv)
    for k in range(len(rem) - 1, dv - 1, -1):
        c = rem[k]
        if any(c):
            c = F.mul(c, inv_lc)
            quo[k - dv] = c
            for j in range(dv + 1):
                rem[k - dv + j] = F.sub(rem[k - dv + j], F.mul(c, b[j]))
    return quo, rem[:dv]


def oadd(f, g):
    F, a, b = TupleField.of(f.ctx), boxed(f), boxed(g)
    a, b = a + [F.zero] * (len(b) - len(a)), b + [F.zero] * (len(a) - len(b))
    return unboxed(f.ctx, [F.add(x, y) for x, y in zip(a, b)])


def omul(f, g):
    return unboxed(f.ctx, oracle_mul(TupleField.of(f.ctx), boxed(f), boxed(g)))


def odivmod(f, g):
    quo, rem = oracle_divmod(TupleField.of(f.ctx), boxed(f), boxed(g))
    return unboxed(f.ctx, quo), unboxed(f.ctx, rem)


def zvector_long_divmod(ctx, f, g):
    """Long division of code lists, a > 1, on z-digit vectors: remainder slots
    accumulate unreduced z-polynomials of degree < 2a - 1, each reduced when
    read as the next leading term and at the end."""
    F, a, dg, m = TupleField.of(ctx), ctx.a, len(g) - 1, len(f) - len(g) + 1
    vec, reduce, pad = F.vec, F.reduce, [0] * (a - 1)
    inv, gv = F.inv(vec(g[-1])), [vec(y) for y in g[:dg]]
    rem, quo = [list(vec(x)) + pad for x in f], [0] * m
    for k in range(m - 1, -1, -1):
        top = reduce(rem[k + dg])
        if any(top):
            c = F.mul(top, inv)
            quo[k] = F.code(c)
            for acc, y in zip(rem[k:k + dg], gv):
                for i, ci in enumerate(c):
                    if ci:
                        for j, yj in enumerate(y, i):
                            acc[j] -= ci * yj
    return quo, kernel._trim([F.code(reduce(x)) for x in rem[:dg]])


def is_table_field(p, a):
    return a > 1 and p ** a <= kernel._TABLE_MAX


def negate_odd(f):
    """f(-s): f times g(s) = f(-s) has every odd coefficient 0, each a sum
    that cancels."""
    F = TupleField.of(f.ctx)
    return unboxed(f.ctx, [F.neg(c) if i % 2 else c for i, c in enumerate(boxed(f))])


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
    top = (-ctx.one()).code
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
        c = FF(ctx, rng.randrange(1, ctx.q))
        F, cv = TupleField.of(ctx), c.coeffs
        assert f.scale(c) == unboxed(ctx, [F.mul(x, cv) for x in boxed(f)]), (p, a, n)
        acc = F.zero
        for x in reversed(boxed(f)):
            acc = F.add(F.mul(acc, cv), x)
        assert f.evaluate(c).coeffs == acc, (p, a, n)
        assert f.evaluate(ctx.zero()).coeffs == boxed(f)[0], (p, a, n)
    # scaling by zero returns at once, whatever the length
    assert Poly(ctx, [ctx.unit] * 100_000).scale(ctx.zero()) == Poly.zero(ctx)


@pytest.mark.parametrize("p,a", FIELDS, ids=FIELD_IDS)
def test_derivative_matches_boxed(p, a):
    # lengths around p, where exponents wrap to 0 mod p, and one long operand
    ctx = ctx_of(p, a)
    rng = random.Random(2700 * p + a)
    for n in sorted({0, 1, 2, p - 1, p, p + 1, 2 * p + 1, 301}):
        f = rand_poly(ctx, rng, n)
        want = [tuple(i * d % p for d in x) for i, x in enumerate(boxed(f))][1:]
        assert f.derivative() == unboxed(ctx, want), (p, a, n)


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


def list_gcd(ctx, f, g):
    """Euclid on code lists, one _divmod per step: the prime-field _gcd
    before its remainders were packed, kept as the oracle."""
    while g:
        f, g = g, kernel._divmod(ctx, f, g)[1]
    return kernel._mul(ctx, f, [kernel._inv(ctx, f[-1])])


def list_ext_gcd(ctx, f, g):
    """Extended Euclid on code lists, one _divmod per step and each cofactor
    in its own list: the prime-field _ext_gcd before its remainders were
    packed and its two cofactors carried as one, kept as the oracle."""
    r0, r1, u0, u1, v0, v1 = f, g, [ctx.unit], [], [], [ctx.unit]
    while r1:
        quo, rem = kernel._divmod(ctx, r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, kernel._addsub(ctx, u0, kernel._mul(ctx, quo, u1), -1)
        v0, v1 = v1, kernel._addsub(ctx, v0, kernel._mul(ctx, quo, v1), -1)
    scale = [kernel._inv(ctx, r0[-1])]
    return tuple(kernel._mul(ctx, x, scale) for x in (r0, u0, v0))


def division_route_v(ctx, f, g, d, u):
    """v = (d - u*f) / g by _divmod, the route poly_ext_gcd took before
    Euclid carried v, kept as the oracle (v = 0 for g = 0)."""
    if not g:
        return []
    quo, rem = kernel._divmod(ctx, kernel._addsub(ctx, d, kernel._mul(ctx, u, f), -1), g)
    assert rem == []
    return quo


# the primes of FIELDS, the largest prime below 2^16, and 2^31 - 1, whose
# packed Euclid slots take two 8-byte words
EUCLID_PRIMES = [3, 5, 7, 13, 257, 65521, 2 ** 31 - 1]


def euclid_pairs(ctx, rng):
    """(f, g) code lists: zero, constant and equal-degree operands, common
    factors of degree 0 to 10, long quotients first and in mid-sequence,
    and sparse operands whose remainders drop many degrees at once."""
    def poly(n):
        return list(rand_poly(ctx, rng, n).coeffs)

    pairs = [([], poly(1)), (poly(1), []), ([], poly(9)), (poly(9), []),
             (poly(1), poly(1)), (poly(1), poly(7)), (poly(7), poly(1))]
    pairs += [(poly(n), poly(n)) for n in (2, 3, 4, 5, 8, 31)]
    for deg in range(11):
        common = poly(deg + 1)
        pairs += [(kernel._mul(ctx, common, poly(rng.randrange(1, 30))),
                   kernel._mul(ctx, common, poly(rng.randrange(1, 30))))]
    pairs += [(poly(90), poly(3)), (poly(3), poly(90)), (poly(60), poly(35))]
    # f mod mid has degree 2, so a long quotient follows in mid-sequence
    mid = kernel._mul(ctx, poly(50), poly(3))
    pairs += [(kernel._addsub(ctx, kernel._mul(ctx, mid, poly(5)), poly(3), 1), mid)]
    for n in (81, 243):  # s^n + c against s^(n - 1) + c' s^k
        pairs += [([rng.randrange(1, ctx.q)] + [0] * (n - 1) + [1],
                   [0] * 5 + [rng.randrange(1, ctx.q)] + [0] * (n - 7) + [1])]
    return pairs


@pytest.mark.parametrize("p", EUCLID_PRIMES)
def test_packed_euclid_matches_list_euclid(p):
    ctx = field_ctx(p, 1)
    rng = random.Random(7000 + p)
    for f, g in euclid_pairs(ctx, rng):
        d, u, v = kernel._ext_gcd(ctx, f, g)
        assert (d, u, v) == list_ext_gcd(ctx, f, g), (p, len(f), len(g))
        assert kernel._gcd(ctx, f, g) == list_gcd(ctx, f, g) == d, (p, len(f), len(g))
        bezout = kernel._addsub(ctx, kernel._mul(ctx, u, f), kernel._mul(ctx, v, g), 1)
        assert bezout == d, (p, len(f), len(g))


def test_ext_gcd_takes_no_inverse_series(monkeypatch):
    """Two coprime dense polynomials of degree 83 over F_7 run Euclid packed
    from the first step, and v comes out of it: no inverse series, where
    the division (d - u*f) / g took one."""
    ctx = field_ctx(7, 1)
    rng = random.Random(83)
    f, g = rand_poly(ctx, rng, 84), rand_poly(ctx, rng, 84)
    while not poly_gcd(f, g).is_one():
        g = rand_poly(ctx, rng, 84)
    calls = []
    inv_series = kernel._inv_series
    monkeypatch.setattr(kernel, "_inv_series", lambda *args: calls.append(1) or inv_series(*args))
    d, u, v = poly_ext_gcd(f, g)
    assert d.is_one() and u * f + v * g == d
    assert calls == []


@pytest.mark.parametrize("p,a", FIELDS + [(3, 7)], ids=FIELD_IDS + ["F3^7"])
def test_ext_gcd_v_matches_division_route(p, a):
    """v read off Euclid's cofactor u + s^K v equals (d - u*f) / g, on
    prime fields (packed), table fields and extension fields above
    _TABLE_MAX (F_{11^3}, F_{3^7}; a _divmod per step)."""
    ctx = ctx_of(p, a)
    rng = random.Random(9000 + 31 * p + a)
    for f, g in euclid_pairs(ctx, rng):
        d, u, v = kernel._ext_gcd(ctx, f, g)
        assert v == division_route_v(ctx, f, g, d, u), (p, a, len(f), len(g))


@pytest.mark.parametrize("p", EUCLID_PRIMES)
def test_packed_euclid_reduces_slots_on_long_sequences(p, monkeypatch):
    """Euclid's sequence on operands of degree 200 runs long enough to
    overflow unreduced slots, for every slot width; the reductions (every
    _unpack_mod call but the last two) must keep it exact, on the remainders
    and on both halves of the cofactor u + s^K v, K = len g + 1."""
    ctx = field_ctx(p, 1)
    rng = random.Random(8000 + p)
    calls = []
    unpack = kernel._unpack_mod
    monkeypatch.setattr(kernel, "_unpack_mod", lambda *args: calls.append(1) or unpack(*args))
    for n in (200, 201):
        f, g = (list(rand_poly(ctx, rng, k).coeffs) for k in (n, 200))
        calls.clear()
        k = len(g) + 1
        r, w = kernel._packed_euclid(p, f, [1], g, [0] * k + [1])
        assert len(calls) > 2, (p, n)
        scale = [kernel._inv(ctx, r[-1])]
        got = tuple(kernel._mul(ctx, x, scale) for x in (r, kernel._trim(w[:k]), w[k:]))
        assert got == list_ext_gcd(ctx, f, g), (p, n)


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


def ext_gcd_crt(pairs):
    """crt by _ext_gcd, whose v it drops: the route crt took before its
    Euclid carried u alone, kept as the oracle, NotCoprime text included."""
    ctx, mod = pairs[0][1].ctx, pairs[0][1].coeffs
    res = kernel._divmod(ctx, pairs[0][0].coeffs, mod)[1]
    for r, m in pairs[1:]:
        m = m.coeffs
        d, u, _ = kernel._ext_gcd(ctx, kernel._divmod(ctx, mod, m)[1], m)
        if d != [ctx.unit]:
            raise NotCoprime(f"moduli {Poly(ctx, mod)!r} and {Poly(ctx, m)!r} "
                             f"share factor {Poly(ctx, d)!r}")
        t = kernel._divmod(ctx, kernel._mul(ctx, u, kernel._addsub(ctx, r.coeffs, res, -1)), m)[1]
        res = kernel._addsub(ctx, res, kernel._mul(ctx, mod, t), 1)
        mod = kernel._mul(ctx, mod, m)
    return Poly(ctx, res)


def crt_outcome(solve, pairs):
    try:
        return solve(pairs)
    except NotCoprime as exc:
        return str(exc)


@pytest.mark.parametrize("p,a", FIELDS + [(3, 7)], ids=FIELD_IDS + ["F3^7"])
def test_crt_matches_ext_gcd_route(p, a):
    """crt scales u by the inverse of Euclid's last remainder, a constant,
    and makes a shared factor monic only to name it: the same solution, or
    the same NotCoprime text, as the _ext_gcd route, on moduli that are not
    monic, with and without a shared factor (not monic either) of degree 1
    to 3 in the first and last modulus."""
    ctx = ctx_of(p, a)
    rng = random.Random(6000 * p + a)
    outcomes = set()
    for count, deg in ((2, 1), (3, 3), (4, 12)):
        for shared in (False, True):
            moduli = [rand_poly(ctx, rng, deg + 1 + rng.randrange(3)) for _ in range(count)]
            if shared:
                common = rand_poly(ctx, rng, 2 + rng.randrange(3))
                moduli[0], moduli[-1] = omul(moduli[0], common), omul(moduli[-1], common)
            residues = [rand_poly(ctx, rng, rng.randrange(0, 2 * deg + 3)) for _ in moduli]
            pairs = list(zip(residues, moduli))
            got = crt_outcome(crt, pairs)
            assert got == crt_outcome(ext_gcd_crt, pairs), (p, a, count, deg, shared)
            outcomes.add(type(got))
    assert outcomes == {Poly, str}


def test_crt_names_a_shared_factor_monic():
    """2s + 2 and s^2 - 1 over F_3 share s + 1, which Euclid leaves as a
    multiple that is not monic; the message names it monic, in either
    order."""
    ctx = field_ctx(3, 1)
    s, one, two = Poly.gen(ctx), Poly.one(ctx), Poly.const(ctx, 2)
    with pytest.raises(NotCoprime) as exc:
        crt([(one, two * s + two), (s, s * s - one)])
    assert str(exc.value) == "moduli 2*s+2 and 1*s^2+2 share factor 1*s+1"
    with pytest.raises(NotCoprime) as exc:
        crt([(one, s * s - one), (s, two * s + two)])
    assert str(exc.value) == "moduli 1*s^2+2 and 2*s+2 share factor 1*s+1"


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


# -- square roots ----------------------------------------------------------------------

SQRT_FIELDS = [(p, 1) for p in (3, 5, 7, 13, 257, 65521)] + [(3, 2), (5, 2), (3, 7)]


def sqrt_root_lengths(ctx):
    """Root lengths 1 to 4 and, each +-1, the first at which _sqrt_monic
    leaves the recurrence for Newton's iteration (n^2 >= _long_division_max);
    a field above _TABLE_MAX takes Newton at every length."""
    limit = kernel._long_division_max(ctx)
    first = math.isqrt(limit - 1) + 1 if limit else 1
    return sorted({1, 2, 3, 4} | {n for n in (first - 1, first, first + 1) if n >= 1})


@pytest.mark.parametrize("p,a", SQRT_FIELDS, ids=[f"F{p}^{a}" for p, a in SQRT_FIELDS])
def test_sqrt_monic_matches_newton(p, a):
    """Squares of a dense and a sparse monic root, each with one coefficient
    changed at every position below the leading one, and random monics of
    odd and even degree.  A change in the bottom half (reversed index k >= n)
    leaves the top half, hence the only candidate root, as it was, so the
    result is not a square and the recurrence stops at its check of r_k."""
    ctx = ctx_of(p, a)
    rng = random.Random(29 * p + a)
    newton = kernel._newton_sqrt_monic
    for n in sqrt_root_lengths(ctx):
        dense = [rng.randrange(ctx.q) for _ in range(n - 1)] + [ctx.unit]
        sparse = sparse_codes(ctx, rng, n - 1)[:n - 1] + [ctx.unit]
        for g in (dense, sparse):
            f = kernel._mul(ctx, g, g)
            assert kernel._sqrt_monic(ctx, f) == g == newton(ctx, f), (p, a, n)
            for j in range(len(f) - 1):
                changed = list(f)
                changed[j] = (f[j] + rng.randrange(1, ctx.q)) % ctx.q
                root = kernel._sqrt_monic(ctx, changed)
                assert root == newton(ctx, changed), (p, a, n, j)
                if j <= n - 2:
                    assert root is None, (p, a, n, j)
        odd_degree = [rng.randrange(ctx.q) for _ in range(2 * n - 1)] + [ctx.unit]
        assert kernel._sqrt_monic(ctx, odd_degree) is None
        even_degree = odd_degree[1:]
        root = kernel._sqrt_monic(ctx, even_degree)
        assert root == newton(ctx, even_degree)
        assert root is None or kernel._mul(ctx, root, root) == even_degree


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
    assert [x.code for x in elems] == list(range(9))
    assert all(FF(ctx, x.code) == x for x in elems)
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
    ctx, F = ctx_of(p, a), TupleField.of(ctx_of(p, a))
    for c in range(1, ctx.q):
        assert kernel._inv(ctx, c) == F.code(F.inv(F.vec(c))), (p, a, c)


@pytest.mark.parametrize("p,a", [(3, 2), (3, 6), (7, 3), (257, 2)])
def test_extension_inverse(p, a):
    ctx = field_ctx(p, a)
    rng = random.Random(p + a)
    for _ in range(30):
        x = FF(ctx, rng.randrange(1, ctx.q))
        assert x * x.inv() == ctx.one()
        assert x.inv() == x ** (ctx.q - 2)  # Fermat's little theorem


def test_random_element_stream_unchanged():
    # factor draws each element as a vector, first coordinate first
    ctx = field_ctx(3, 3)
    rng, ref = random.Random(9), random.Random(9)
    for _ in range(20):
        vec = tuple(ref.randrange(3) for _ in range(3))
        assert kernel._rand_elem(ctx, rng) == ctx.elem(vec).code
