"""Digit-tuple arithmetic in F_{p^a}, kept as an oracle independent of the
kernel that FF and Poly share.

An element is a tuple of a residues, the coefficients of z^0, ..., z^(a-1)
(FF.coeffs), and its code reads them as base-p digits, first most
significant.  Products go by schoolbook and reduction by the monic modulus,
inverses by extended Euclid in F_p[z] against the modulus, powers by
square-and-multiply, square roots by Tonelli-Shanks.  Only plain ints are
used here: nothing calls kummerwit's arithmetic.
"""

import itertools
from math import gcd

from kummerwit.base_algebra.intarith import factorint


class TupleField:
    """F_{p^a} with the given modulus (coefficients low to high, monic; for
    a = 1 the unused modulus z of FieldCtx)."""

    def __init__(self, p, a, modulus):
        self.p, self.a, self.q, self.modulus = p, a, p ** a, tuple(modulus)
        self.zero, self.one = (0,) * a, (1,) + (0,) * (a - 1)

    @classmethod
    def of(cls, ctx):
        return cls(ctx.p, ctx.a, ctx.modulus)

    def code(self, u):
        n = 0
        for c in u:
            n = n * self.p + c
        return n

    def vec(self, n):
        return tuple(n // self.p ** (self.a - 1 - i) % self.p for i in range(self.a))

    def elements(self):
        """All elements in code order."""
        return itertools.product(range(self.p), repeat=self.a)

    def add(self, u, v):
        return tuple((x + y) % self.p for x, y in zip(u, v))

    def sub(self, u, v):
        return tuple((x - y) % self.p for x, y in zip(u, v))

    def neg(self, u):
        return tuple(-x % self.p for x in u)

    def mul(self, u, v):
        prod = [0] * (2 * self.a - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                prod[i + j] += x * y
        return self.reduce(prod)

    def reduce(self, prod):
        """The element of a z-polynomial of degree < 2a - 1 (a list, overwritten)."""
        p, a, mod = self.p, self.a, self.modulus
        for k in range(len(prod) - 1, a - 1, -1):
            c = prod[k] % p
            for j in range(a):
                prod[k - a + j] -= c * mod[j]
        return tuple(c % p for c in prod[:a])

    def inv(self, u):
        """Extended Euclid in F_p[z]: s * u = r mod the modulus along the
        remainder sequence, until r is a nonzero constant."""
        if not any(u):
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        if self.a == 1:
            return (pow(u[0], p - 2, p),)
        r0, r1, s0, s1 = _strip(list(self.modulus)), _strip(list(u)), [], [1]
        while len(r1) > 1:
            quo, rem = _poly_divmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(quo, s1, p), p)
        c = pow(r1[0], p - 2, p)
        s = [x * c % p for x in s1]
        return tuple(s + [0] * (self.a - len(s)))

    def pow(self, u, n):
        if n < 0:
            return self.pow(self.inv(u), -n)
        result = self.one
        while n:
            if n & 1:
                result = self.mul(result, u)
            u, n = self.mul(u, u), n >> 1
        return result

    def is_square(self, u):
        return not any(u) or self.pow(u, (self.q - 1) // 2) == self.one

    def is_nth_power(self, u, n):
        if not any(u):
            return True
        return self.pow(u, (self.q - 1) // gcd(n, self.q - 1)) == self.one

    def sqrt(self, u):
        """Tonelli-Shanks with c = z^m for the first non-square z in code
        order; None for a non-square."""
        q = self.q
        if not any(u):
            return self.zero
        if q % 4 == 3:
            r = self.pow(u, (q + 1) // 4)
            return r if self.mul(r, r) == u else None
        e, m = 0, q - 1
        while m % 2 == 0:
            e, m = e + 1, m // 2
        z = next(x for x in self.elements() if any(x) and not self.is_square(x))
        c, t, r = self.pow(z, m), self.pow(u, m), self.pow(u, (m + 1) // 2)
        while t != self.one:
            i, t2 = 0, t
            while t2 != self.one:
                t2, i = self.mul(t2, t2), i + 1
            if i == e:
                return None
            b = self.pow(c, 1 << (e - i - 1))
            r, c = self.mul(r, b), self.mul(b, b)
            t, e = self.mul(t, c), i
        return r

    def logs(self):
        """(log, exp, zech) as FieldCtx.logs defines them, by repeated products."""
        q, m = self.q, self.q - 1
        cofactors = [m // ell for ell in factorint(m)]
        g = next(x for x in itertools.islice(self.elements(), 1, None)
                 if all(self.pow(x, e) != self.one for e in cofactors))
        exp, x = [], self.one
        for _ in range(m):
            exp.append(self.code(x))
            x = self.mul(x, g)
        log = [None] * q
        for k, c in enumerate(exp):
            log[c] = k
        one = self.one
        zech = [log[self.code(self.add(one, self.vec(c)))] for c in exp]
        return log, exp, zech


def _strip(f):
    while f and not f[-1]:
        f.pop()
    return f


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return _strip(out)


def _poly_sub(f, g, p):
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _strip([(x - y) % p for x, y in zip(f, g)])


def _poly_divmod(f, g, p):
    """(quotient, remainder) of low-to-high lists over F_p, g stripped and nonzero."""
    rem, dg = list(f), len(g) - 1
    quo = [0] * max(len(f) - dg, 0)
    inv = pow(g[-1], p - 2, p)
    for k in range(len(f) - 1, dg - 1, -1):
        c = rem[k] * inv % p
        quo[k - dg] = c
        for j, y in enumerate(g):
            rem[k - dg + j] = (rem[k - dg + j] - c * y) % p
    return _strip(quo), _strip(rem[:dg])
