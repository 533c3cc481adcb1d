import itertools
import random

import pytest

from kummerwit.base_algebra import Poly, field_ctx, is_irreducible
from kummerwit.base_algebra.fields import FF, power
from kummerwit.errors import CompositeP, ReducibleModulus

from tests.field_oracle import TupleField


def brute_least_irreducible_quadratic(p):
    # independent oracle: first monic quadratic with no root, lex order
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p != 0 for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError


def brute_least_irreducible_cubic(p):
    # independent oracle: a cubic is irreducible iff it has no root, lex order
    for c0 in range(p):
        for c1 in range(p):
            for c2 in range(p):
                if all((x ** 3 + c2 * x * x + c1 * x + c0) % p for x in range(p)):
                    return (c0, c1, c2, 1)
    raise AssertionError


def test_field_ctx_examples():
    ctx = field_ctx(3, 1)
    assert (ctx.p, ctx.a, ctx.q) == (3, 1, 3)
    ctx9 = field_ctx(3, 2)
    assert ctx9.modulus == brute_least_irreducible_quadratic(3) == (1, 0, 1)
    with pytest.raises(CompositeP):
        field_ctx(9, 1)
    with pytest.raises(CompositeP):
        field_ctx(2, 1)
    with pytest.raises(ReducibleModulus):
        field_ctx(3, 2, modulus=(0, 0, 1))  # s^2 is reducible


def test_least_irreducible_matches_brute_force():
    for p in (3, 5, 7):
        assert field_ctx(p, 2).modulus == brute_least_irreducible_quadratic(p)
        assert field_ctx(p, 3).modulus == brute_least_irreducible_cubic(p)


@pytest.mark.parametrize("p,a", [(3, 1), (3, 2), (7, 1), (5, 2), (3, 3)])
def test_field_ring_axioms(p, a):
    ctx = field_ctx(p, a)
    rng = random.Random(11)
    elems = list(ctx.elements())
    for _ in range(100):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == ctx.zero()
        if x:
            assert x * x.inv() == ctx.one()


def test_sqrt_full_sweep():
    # q = 3 mod 4 (F_7), and Tonelli-Shanks at 2-adic depths of q - 1 from 2 to 4 (F_7^2)
    for p, a in ((3, 2), (13, 1), (7, 1), (5, 1), (5, 2), (7, 2), (13, 2)):
        ctx = field_ctx(p, a)
        squares = {x * x for x in ctx.elements()}
        for c in ctx.elements():
            root = c.sqrt()
            if c in squares:
                assert root is not None and root * root == c
            else:
                assert root is None
        assert len(squares) == (ctx.q - 1) // 2 + 1


def test_nth_power_membership_against_direct_powering():
    ctx = field_ctx(7, 1)
    cubes = {x ** 3 for x in ctx.elements()}
    for c in ctx.elements():
        assert c.is_nth_power(3) == (c in cubes)
    assert sorted(v.coeffs[0] for v in cubes if v) == [1, 6]


def test_pow_matches_repeated_multiplication():
    # F_25 by square-and-multiply, prime fields by the built-in pow
    for p, a in ((5, 2), (3, 1), (13, 1), (257, 1), (65521, 1)):
        ctx = field_ctx(p, a)
        rng = random.Random(3)
        for _ in range(20):
            x = FF(ctx, rng.randrange(1, ctx.q))
            acc = ctx.one()
            for k in range(8):
                assert x ** k == acc
                acc = acc * x
            assert x ** (ctx.q - 1) == ctx.one()
            assert x ** -3 == (x * x * x).inv()
        zero = ctx.zero()
        assert zero ** 0 == ctx.one() and zero ** 1 == zero ** 7 == zero


class Counted:
    """A ring element standing for x^e that counts the products taken."""

    def __init__(self, e, log):
        self.e, self.log = e, log

    def __mul__(self, other):
        self.log.append(1)
        return Counted(self.e + other.e, self.log)


def test_power_squares_only_while_bits_remain():
    for n in range(65):
        log = []
        assert power(Counted(1, log), n, Counted(0, log)).e == n
        # one squaring per bit below the top, one product per further set bit
        assert len(log) == (n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0), n


def test_canonical_element_order():
    ctx = field_ctx(3, 2)
    elems = list(ctx.elements())
    assert [e.coeffs for e in elems[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert elems == sorted(elems)


def test_irreducibility_test_on_known_cases():
    # over F_3: s^2+1 irreducible, s^2+2 = (s+1)(s+2) reducible
    f3 = field_ctx(3, 1)
    assert is_irreducible(Poly.from_ints(f3, (1, 0, 1)))
    assert not is_irreducible(Poly.from_ints(f3, (2, 0, 1)))
    assert is_irreducible(Poly.from_ints(f3, (1, 2, 0, 1)))  # s^3+2s+1 has no root
    with pytest.raises(ReducibleModulus):
        field_ctx(3, 2, modulus=(2, 0, 1))
    assert field_ctx(3, 3, modulus=(1, 2, 0, 1)).modulus == (1, 2, 0, 1)


@pytest.mark.parametrize("p,a", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2),
                                 (7, 2), (11, 2), (3, 3), (5, 3)])
def test_log_tables_match_field_arithmetic(p, a):
    """The log, exp and Zech tables against FF mul and add on all pairs."""
    ctx = field_ctx(p, a)
    log, exp, zech = ctx.logs()
    assert ctx.logs() is ctx.logs()  # built once, kept on the context
    q, m = ctx.q, ctx.q - 1
    elems = [FF(ctx, c) for c in range(q)]
    # the base is the first element of order q - 1 in canonical order
    order = lambda x: next(k for k in range(1, q) if x ** k == ctx.one())
    first = next(x for x in elems[1:] if order(x) == m)
    assert exp[1] == first.code and sorted(exp) == list(range(1, q))
    assert log[0] is None and all(exp[log[c]] == c for c in range(1, q))
    for x in elems[1:]:
        lx = log[x.code]
        for y in elems[1:]:
            ly = log[y.code]
            assert exp[(lx + ly) % m] == (x * y).code
            z = zech[(ly - lx) % m]
            assert (x + y == ctx.zero()) if z is None else exp[(lx + z) % m] == (x + y).code


# -- FF and FieldCtx.logs against the digit-tuple oracle ----------------------------


def last_rootless(p, a):
    """The last monic polynomial of degree a <= 3 over F_p without a root, in
    the order of the default modulus search: irreducible, and not the default."""
    for low in itertools.product(range(p - 1, -1, -1), repeat=a):
        c = low + (1,)
        if all(sum(ci * x ** i for i, ci in enumerate(c)) % p for x in range(p)):
            return c


# every element of the fields up to 31^2, 200 seeded ones of F_{3^7} and
# F_{11^3} (above poly._TABLE_MAX); two fields with a supplied modulus
FF_CASES = [(3, 2, None), (5, 2, None), (3, 3, None), (7, 2, None), (31, 2, None),
            (3, 7, None), (11, 3, None), (5, 2, last_rootless(5, 2)),
            (11, 3, last_rootless(11, 3))]
FF_IDS = [f"F{p}^{a}" + ("-supplied" if m else "") for p, a, m in FF_CASES]


def oracle_case(p, a, modulus):
    ctx = field_ctx(p, a, modulus)
    if modulus is not None:
        assert ctx.modulus == modulus != field_ctx(p, a).modulus
    F, rng = TupleField.of(ctx), random.Random(100 * p + a)
    if ctx.q <= 31 ** 2:
        codes = list(range(ctx.q))
        assert [x.coeffs for x in ctx.elements()] == list(F.elements())
    else:
        codes = [0, ctx.unit] + sorted(rng.sample(range(1, ctx.q), 198))
    return ctx, F, rng, [FF(ctx, c) for c in codes]


@pytest.mark.parametrize("p,a,modulus", FF_CASES, ids=FF_IDS)
def test_ff_unary_matches_tuple_oracle(p, a, modulus):
    ctx, F, _, elems = oracle_case(p, a, modulus)
    q = ctx.q
    assert sorted(elems) == sorted(elems, key=lambda x: x.coeffs)
    for x in elems:
        u = F.vec(x.code)
        assert x.coeffs == u and x == ctx.elem(u) and hash(x) == hash(ctx.elem(list(u)))
        assert repr(x) == (str(u[0]) if a == 1 else "[" + ",".join(map(str, u)) + "]")
        assert (-x).coeffs == F.neg(u)
        for n in (-3, 0, 1, 2, (q - 1) // 2, q - 2, 10 ** 6 + 3):
            if n >= 0 or x:
                assert (x ** n).coeffs == F.pow(u, n), (x, n)
        if x:
            assert x.inv().coeffs == F.inv(u)
        assert x.is_square() == F.is_square(u)
        for n in (2, 3, 4, 5, 6, 8):
            assert x.is_nth_power(n) == F.is_nth_power(u, n), (x, n)
        root = x.sqrt()
        assert (None if root is None else root.coeffs) == F.sqrt(u), x
    zero = ctx.zero()
    for bad in (zero.inv, lambda: zero ** -3, lambda: ctx.one() / zero):
        with pytest.raises(ZeroDivisionError):
            bad()
    with pytest.raises(AttributeError):
        ctx.one().coeffs = F.one


@pytest.mark.parametrize("p,a,modulus", FF_CASES, ids=FF_IDS)
def test_ff_binary_matches_tuple_oracle(p, a, modulus):
    # all pairs up to F_49, else each element with three seeded partners
    ctx, F, rng, elems = oracle_case(p, a, modulus)
    for x in elems:
        u = x.coeffs
        for y in elems if ctx.q <= 49 else rng.sample(elems, 3):
            v = y.coeffs
            assert (x + y).coeffs == F.add(u, v) and (x - y).coeffs == F.sub(u, v)
            assert (x * y).coeffs == F.mul(u, v), (x, y)
            if y:
                assert (x / y).coeffs == F.mul(u, F.inv(v)), (x, y)
            assert (x < y) == (u < v) and (x == y) == (u == v)


@pytest.mark.parametrize("p,a,modulus", [(3, 2, None), (3, 3, None), (5, 3, None), (31, 2, None),
                                         (3, 7, None), (5, 2, last_rootless(5, 2))],
                         ids=["F3^2", "F3^3", "F5^3", "F31^2", "F3^7", "F5^2-supplied"])
def test_log_tables_match_tuple_oracle(p, a, modulus):
    """The same base g (exp[1]) and identical log, exp and Zech lists; equal
    fields share them, and a field with another modulus does not."""
    ctx = field_ctx(p, a, modulus)
    assert ctx.logs() == TupleField.of(ctx).logs()
    assert field_ctx(p, a, modulus).logs() is ctx.logs()
    if modulus is not None:
        assert field_ctx(p, a).logs() != ctx.logs()


@pytest.mark.parametrize("p,a", [(3, 1), (7, 1), (11, 1), (19, 1), (3, 3)])
def test_sqrt_matches_three_mod_four_branch(p, a):
    """For q = 3 mod 4 Tonelli-Shanks returns what the former branch did: the
    root x^((q+1)/4) of a square, None for a non-square, on every element."""
    ctx = field_ctx(p, a)
    assert ctx.q % 4 == 3
    for x in ctx.elements():
        r = x ** ((ctx.q + 1) // 4)
        assert x.sqrt() == (r if r * r == x else None), x


def test_field_ctx_is_built_once_per_field():
    assert field_ctx(3, 2) is field_ctx(3, 2)
    assert field_ctx(3, 2)._prime is field_ctx(3, 1)
    supplied = field_ctx(5, 2, last_rootless(5, 2))
    assert supplied is field_ctx(5, 2, last_rootless(5, 2)) and supplied != field_ctx(5, 2)
