"""Cross-validation against sympy as a fully independent implementation.

These tests only cover ground sympy can stand on (prime fields, integer
cyclotomics, Legendre symbols); the library's own dual-route checks cover
the extension-field and function-field layers.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from kummerwit.base_algebra import Poly, factor, field_ctx, poly_gcd
from kummerwit.characters import cyclotomic_polynomial, legendre_symbol
from tests.test_poly import rand_poly


def to_sympy(f, x, p):
    expr = 0
    for i, c in enumerate(f.coeffs):
        expr += c * x ** i
    return sympy.Poly(expr, x, modulus=p)


def from_sympy(pol, ctx):
    coeffs = [int(v) % ctx.p for v in reversed(pol.all_coeffs())]
    return Poly.from_ints(ctx, coeffs)


@pytest.mark.parametrize("p", [3, 7, 13])
def test_factorization_matches_sympy(p):
    ctx = field_ctx(p, 1)
    x = sympy.symbols("x")
    rng = random.Random(60 + p)
    for _ in range(25):
        f = rand_poly(ctx, rng, 7, nonzero=True)
        if f.is_constant():
            continue
        ours = {(repr(g), e) for g, e in factor(f)}
        _, sympy_factors = to_sympy(f, x, p).factor_list()
        theirs = set()
        for pol, e in sympy_factors:
            g = from_sympy(pol, ctx).monic()
            theirs.add((repr(g), e))
        assert ours == theirs, f


@pytest.mark.parametrize("p", [3, 7])
def test_gcd_matches_sympy(p):
    ctx = field_ctx(p, 1)
    x = sympy.symbols("x")
    rng = random.Random(61 + p)
    for _ in range(30):
        f = rand_poly(ctx, rng, 6, nonzero=True)
        g = rand_poly(ctx, rng, 6, nonzero=True)
        ours = poly_gcd(f, g)
        theirs = from_sympy(to_sympy(f, x, p).gcd(to_sympy(g, x, p)), ctx).monic()
        assert ours == theirs


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.symbols("x")
    for n in (1, 2, 3, 4, 6, 12, 15, 30, 60, 105, 120, 330):
        ours = cyclotomic_polynomial(n)
        theirs = tuple(int(v) for v in
                       reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))
        assert ours == theirs, n


def test_legendre_symbol_matches_sympy():
    from sympy.functions.combinatorial.numbers import legendre_symbol as sympy_legendre
    for m in (3, 7, 11, 23, 101):
        for a in range(0, m):
            assert legendre_symbol(a, m) == int(sympy_legendre(a, m))
