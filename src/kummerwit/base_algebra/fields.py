"""Exact arithmetic in finite fields F_{p^a}, p an odd prime.

An element of F_{p^a} is a coefficient vector of length a over F_p in the
power basis of z modulo the field modulus, stored as a tuple of ints in
[0, p).  Equality is structural, and the tuple order (first coordinate
compared first) is the canonical element order used everywhere determinism
matters.

The field context owns p, a and the modulus.  When no modulus is supplied,
it is the first monic irreducible of degree a over F_p in the canonical
order of poly.irreducibles (constant coefficient slowest), so test vectors
are stable; a supplied modulus is checked with poly.is_irreducible.  For
a = 1 the modulus is the identity convention z and is unused.

Poly stores elements as codes (encode, decode): the vector as base-p digits,
first coordinate most significant.  FF inversion for a > 1 (_raw_inv) is
extended Euclid in F_p[z] on poly's int-list kernel.

FieldCtx.logs gives discrete logarithms over codes to the base g, the first
element of order q - 1 in canonical order, with Zech logarithms
Z(k) = log(1 + g^k), so that g^i + g^j = g^(i + Z(j - i)) (Lidl and
Niederreiter, Finite Fields, ch. 2 and 9).  The tables hold O(q) ints; they
are built on first use and kept on the context.  Their one reader is poly's
kernel, which does every coefficient product, sum and inverse of the
extension fields up to poly._TABLE_MAX elements on them.  FF.sqrt keeps the
power of a non-square that Tonelli-Shanks needs on the context the same way
(Cohen, A Course in Computational Algebraic Number Theory, 1.5.1).
"""

from __future__ import annotations

import itertools
from math import gcd

from ..errors import CompositeP, ReducibleModulus
from .intarith import factorint, is_prime


class FieldCtx:
    """The field F_q, q = p^a, with an explicit monic irreducible modulus."""

    __slots__ = ("p", "a", "q", "modulus", "unit", "_weights", "_one", "_zero", "_logs",
                 "_prime", "_shanks")

    def __init__(self, p: int, a: int, modulus: tuple[int, ...] | None = None):
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise CompositeP(f"p = {p} is not an odd prime")
        if a < 1:
            raise ValueError(f"extension degree a = {a} must be >= 1")
        self.p = p
        self.a = a
        self.q = p ** a
        self._weights = [p ** (a - 1 - i) for i in range(a)]  # of a code's digits
        self.unit = self._weights[0]  # the code of 1
        if a == 1:
            # identity convention: modulus "z", never used in arithmetic
            self.modulus = (0, 1)
            self._prime = self
        else:
            from .poly import Poly, irreducibles, is_irreducible
            self._prime = prime_field = FieldCtx(p, 1)  # _raw_inv's Euclid runs over it
            if modulus is None:
                modulus = next(irreducibles(prime_field, a)).coeffs
            else:
                modulus = tuple(c % p for c in modulus)
                if len(modulus) != a + 1 or modulus[-1] != 1:
                    raise ReducibleModulus(f"modulus must be monic of degree {a}")
                if not is_irreducible(Poly.from_ints(prime_field, modulus)):
                    raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._zero = FF(self, (0,) * a)
        self._one = FF(self, (1,) + (0,) * (a - 1))
        self._logs = self._shanks = None

    def __eq__(self, other):
        return (isinstance(other, FieldCtx) and self.p == other.p
                and self.a == other.a and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.a, self.modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, a={self.a})"

    # -- constructors ---------------------------------------------------------

    def zero(self) -> "FF":
        return self._zero

    def one(self) -> "FF":
        return self._one

    def elem(self, coeffs) -> "FF":
        """Element from an int (prime subfield) or a coefficient sequence."""
        if isinstance(coeffs, FF):
            if coeffs.ctx is not self and coeffs.ctx != self:
                raise ValueError("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            return FF(self, (coeffs % self.p,) + (0,) * (self.a - 1))
        vec = tuple(int(c) % self.p for c in coeffs)
        if len(vec) > self.a:
            raise ValueError(f"coefficient vector longer than a = {self.a}")
        vec += (0,) * (self.a - len(vec))
        return FF(self, vec)

    def encode(self, x: "FF") -> int:
        """The code of x: its vector read as base-p digits, first most significant."""
        return self._code(x.coeffs)

    def decode(self, n: int) -> "FF":
        """The element with code n."""
        return FF(self, self._vec(n))

    def _code(self, vec) -> int:
        n = 0
        for c in vec:
            n = n * self.p + c
        return n

    def _vec(self, n: int) -> tuple[int, ...]:
        return tuple([n // w % self.p for w in self._weights])

    def logs(self) -> tuple[list, list, list]:
        """(log, exp, zech) over codes, built on the first call.  With m = q - 1
        and g the first element of order m: exp[k] is the code of g^k for
        0 <= k < m, log[code] its k (None for 0), and zech[k] = log(1 + g^k)
        (None for k = m/2, where 1 + g^k = 0).  poly's kernel reads them for
        table fields (a > 1, q <= poly._TABLE_MAX) and for no other field."""
        if self._logs is None:
            q, m, unit = self.q, self.q - 1, self.unit
            one, cofactors = self.one(), [m // ell for ell in factorint(m)]
            g = next(x for x in map(self.decode, range(1, q))
                     if all(x ** e != one for e in cofactors))
            exp, x, g = [unit], one.coeffs, g.coeffs
            for _ in range(m - 1):
                x = self._raw_mul(x, g)
                exp.append(self._code(x))
            log = [None] * q
            for k, c in enumerate(exp):
                log[c] = k
            # adding 1 adds 1 mod p to a code's first digit, whose weight is unit
            self._logs = (log, exp, [log[(c + unit) % q] for c in exp])
        return self._logs

    def elements(self):
        """All field elements in canonical order (first coordinate slowest)."""
        for vec in itertools.product(range(self.p), repeat=self.a):
            yield FF(self, vec)

    # -- raw kernels (tuples in, tuples out) -----------------------------------

    def _raw_mul(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        p, a = self.p, self.a
        if a == 1:
            return (u[0] * v[0] % p,)
        prod = [0] * (2 * a - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    prod[i + j] += ui * vj
        return self._reduce(prod)

    def _reduce(self, prod: list[int]) -> tuple[int, ...]:
        """The vector of a z-polynomial of degree < 2a - 1 (a list of ints,
        overwritten) reduced by the monic modulus and mod p."""
        p, a, mod = self.p, self.a, self.modulus
        for k in range(len(prod) - 1, a - 1, -1):
            c = prod[k] % p
            if c:
                for j in range(a):
                    prod[k - a + j] -= c * mod[j]
        return tuple(c % p for c in prod[:a])

    def _raw_inv(self, u: tuple[int, ...]) -> tuple[int, ...]:
        p, a = self.p, self.a
        if all(c == 0 for c in u):
            raise ZeroDivisionError("inverse of zero field element")
        if a == 1:
            return (pow(u[0], p - 2, p),)
        # s*u + t*modulus = 1 in F_p[z]; the modulus is irreducible
        from .poly import _ext_gcd, _trim
        _, s = _ext_gcd(self._prime, _trim(list(u)), list(self.modulus))
        return tuple(s) + (0,) * (a - len(s))


class FF:
    """An element of F_{p^a}: immutable coefficient tuple plus its context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def __add__(self, other: "FF") -> "FF":
        p = self.ctx.p
        return FF(self.ctx, tuple((x + y) % p for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FF") -> "FF":
        p = self.ctx.p
        return FF(self.ctx, tuple((x - y) % p for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FF":
        p = self.ctx.p
        return FF(self.ctx, tuple(-x % p for x in self.coeffs))

    def __mul__(self, other: "FF") -> "FF":
        return FF(self.ctx, self.ctx._raw_mul(self.coeffs, other.coeffs))

    def inv(self) -> "FF":
        return FF(self.ctx, self.ctx._raw_inv(self.coeffs))

    def __truediv__(self, other: "FF") -> "FF":
        return self * other.inv()

    def __pow__(self, n: int) -> "FF":
        ctx = self.ctx
        if n < 0:
            return self.inv() ** (-n)
        if ctx.a == 1:
            return FF(ctx, (pow(self.coeffs[0], n, ctx.p),))
        return power(self, n, ctx.one())

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FF) and self.coeffs == other.coeffs \
            and self.ctx.p == other.ctx.p and self.ctx.modulus == other.ctx.modulus

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.modulus, self.coeffs))

    def __lt__(self, other: "FF") -> bool:
        return self.coeffs < other.coeffs

    def __repr__(self):
        if self.ctx.a == 1:
            return str(self.coeffs[0])
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    # -- multiplicative structure ------------------------------------------------

    def is_square(self) -> bool:
        q = self.ctx.q
        return not self or self ** ((q - 1) // 2) == self.ctx.one()

    def is_nth_power(self, n: int) -> bool:
        """Whether the element lies in (F_q^x)^n (zero counts as a power)."""
        if not self:
            return True
        q = self.ctx.q
        g = gcd(n, q - 1)
        return self ** ((q - 1) // g) == self.ctx.one()

    def sqrt(self):
        """A square root, or None.  Tonelli-Shanks in the cyclic group F_q^x,
        which meets a non-square as an element of order 2^e at its first
        step, so no separate Euler test runs (for q = 3 mod 4 the candidate
        root is squared)."""
        ctx = self.ctx
        if not self:
            return ctx.zero()
        q, one = ctx.q, ctx.one()
        if q % 4 == 3:
            r = self ** ((q + 1) // 4)
            return r if r * r == self else None
        if ctx._shanks is None:  # q - 1 = 2^e * m with m odd, and c = z^m for a non-square z
            e = ((q - 1) & (1 - q)).bit_length() - 1
            z = next(x for x in ctx.elements() if x and not x.is_square())
            ctx._shanks = (e, (q - 1) >> e, z ** ((q - 1) >> e))
        e, m, c = ctx._shanks
        t = self ** m
        r = self ** ((m + 1) // 2)
        while t != one:
            # find least i with t^(2^i) = 1; i = e only for a non-square, at the first pass
            i, t2 = 0, t
            while t2 != one:
                t2 = t2 * t2
                i += 1
            if i == e:
                return None
            b = c ** (1 << (e - i - 1))
            r = r * b
            c = b * b
            t = t * c
            e = i
        return r


def power(x, n: int, one):
    """x^n for n >= 0 by square-and-multiply (shared by FF and Poly): one
    squaring per bit below the top and one product per further set bit."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return one if result is None else result
        x = x * x


def field_ctx(p: int, a: int, modulus=None) -> FieldCtx:
    """Validated field context; accepts a modulus as Poly or coefficient tuple."""
    if hasattr(modulus, "coeffs"):  # a Poly: its codes are residues over F_p
        if modulus.ctx.a != 1:
            raise ReducibleModulus("modulus must have prime-field coefficients")
        modulus = modulus.coeffs
    return FieldCtx(p, a, modulus)
