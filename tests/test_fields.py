import random

import pytest

from kummerwit.base_algebra import Poly, field_ctx, is_irreducible
from kummerwit.base_algebra.fields import FF, power
from kummerwit.errors import CompositeP, ReducibleModulus


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
            x = ctx.decode(rng.randrange(1, ctx.q))
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
    elems = [ctx.decode(c) for c in range(q)]
    # the base is the first element of order q - 1 in canonical order
    order = lambda x: next(k for k in range(1, q) if x ** k == ctx.one())
    first = next(x for x in elems[1:] if order(x) == m)
    assert exp[1] == ctx.encode(first) and sorted(exp) == list(range(1, q))
    assert log[0] is None and all(exp[log[c]] == c for c in range(1, q))
    for x in elems[1:]:
        lx = log[ctx.encode(x)]
        for y in elems[1:]:
            ly = log[ctx.encode(y)]
            assert exp[(lx + ly) % m] == ctx.encode(x * y)
            z = zech[(ly - lx) % m]
            assert (x + y == ctx.zero()) if z is None else exp[(lx + z) % m] == ctx.encode(x + y)
