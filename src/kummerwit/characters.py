"""Dirichlet characters mod m with exact values in Z[zeta], and the
balanced-residue predicate.

A character is stored in log form: a decomposition of (Z/m)^x into cyclic
factors with generators g_i of orders d_i, plus one exponent per generator;
chi(g_i) = zeta^(e_i * lambda/d_i) where lambda = lcm(d_i) is the group
exponent.  Values are materialized into the exact ring Z[zeta_lambda] only
when sums must be tested against zero; the ring is Z[x]/(Phi_lambda) with
integer coefficient vectors and reduction by the integer cyclotomic
polynomial, so the nonzero test is exact.

x is *balanced* mod m exactly when no odd character chi mod m with nonzero
half-interval sum sum_{0<k<m/2} chi(k) has chi(x) = 1; is_balanced decides
this by exhaustive scan, is_balanced_fast by the Legendre shortcuts
(non-residue mod an odd prime; residue mod a prime = 3 mod 4; and descent
through m = y*z with y an odd prime dividing z).

The scan tests one character per cyclic subgroup <chi> and gives its
verdict to every generator chi^j.  This is exact: chi^j = chi^j' for a
j' = j mod ord chi prime to lambda, and the automorphism zeta -> zeta^j'
maps chi(-1) and the half sum of chi to those of chi^j', so it keeps
oddness and fixes 0 (Washington, Introduction to Cyclotomic Fields, ch. 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod

from .base_algebra.intarith import euler_phi, factorint, is_prime, multiplicative_order
from .errors import BadModulus, NotCoprime


# -- exact cyclotomic integers ---------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n = prod_{d | n} (x^d - 1)^mu(n/d),
    low-to-high; all multiplications come first, so each division is exact."""
    primes = sorted(factorint(n))
    binomials = [(len(s) % 2, n // prod(s)) for k in range(len(primes) + 1)
                 for s in itertools.combinations(primes, k)]  # (mu(n/d) == -1, d)
    poly = [1]
    for divide, d in sorted(binomials):
        if divide:  # q * (x^d - 1) = poly gives q_i = q_{i-d} - poly_i
            out = [-c for c in poly[:len(poly) - d]]
            for i in range(d, len(out)):
                out[i] += out[i - d]
        else:
            out = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly):
                out[i + d] += c
        poly = out
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_reduction_table(n: int) -> list[tuple[int, ...]]:
    """x^j mod Phi_n as integer vectors for 0 <= j < n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        # multiply by x and reduce by the monic Phi_n
        nxt = [0] + cur[:deg - 1]
        lead = cur[deg - 1]
        if lead:
            for i in range(deg):
                nxt[i] -= lead * phi[i]
        cur = nxt
    return rows


@dataclass(frozen=True)
class Cyclotomic:
    """Element of Z[zeta_n] in the power basis modulo Phi_n."""

    conductor: int
    coeffs: tuple[int, ...]

    @classmethod
    def zero(cls, n: int) -> "Cyclotomic":
        return cls(n, (0,) * _phi_degree(n))

    @classmethod
    def root_power(cls, n: int, k: int) -> "Cyclotomic":
        """zeta_n^k reduced mod Phi_n."""
        return cls(n, _power_reduction_table(n)[k % n])

    @classmethod
    def integer(cls, n: int, v: int) -> "Cyclotomic":
        deg = _phi_degree(n)
        return cls(n, (v,) + (0,) * (deg - 1))

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        assert self.conductor == other.conductor
        return Cyclotomic(self.conductor,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, tuple(-a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational_integer(self) -> bool:
        return not any(self.coeffs[1:])


def _phi_degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


# -- the unit group and its characters --------------------------------------------


@lru_cache(maxsize=None)
def unit_group(m: int):
    """((generators, orders), lambda, dlog table) for (Z/m)^x.

    Generators come from the standard structure of (Z/p^k)^x, lifted by the
    Chinese Remainder Theorem; construction is verified by checking that the
    generated products enumerate all phi(m) units without collision.
    """
    if m < 3:
        raise BadModulus(f"modulus {m} must be >= 3")
    comps: list[tuple[int, int, int]] = []  # (prime power, generator mod it, order)
    for p, k in sorted(factorint(m).items()):
        pk = p ** k
        if p == 2:
            if k == 2:
                comps.append((4, 3, 2))
            elif k >= 3:
                comps.append((pk, pk - 1, 2))
                comps.append((pk, 5, 2 ** (k - 2)))
        else:
            g = _primitive_root(p, k)
            comps.append((pk, g, euler_phi(pk)))
    gens: list[int] = []
    orders: list[int] = []
    for pk, g, order in comps:
        other = m // pk
        if other == 1:
            lifted = g % m
        else:
            # lifted = g mod pk, 1 mod m/pk
            inv = pow(other, -1, pk)
            lifted = (1 + other * inv * (g - 1)) % m
        gens.append(lifted)
        orders.append(order)
    # dlog table doubles as the construction check
    dlog: dict[int, tuple[int, ...]] = {}
    for exps in itertools.product(*(range(d) for d in orders)):
        val = 1
        for g, e in zip(gens, exps):
            val = val * pow(g, e, m) % m
        if val in dlog:
            raise ArithmeticError(f"unit group construction collision mod {m}")
        dlog[val] = exps
    if len(dlog) != euler_phi(m):
        raise ArithmeticError(f"unit group construction incomplete mod {m}")
    for g, d in zip(gens, orders):
        if multiplicative_order(g, m) != d:
            raise ArithmeticError(f"generator order mismatch mod {m}")
    exponent = lcm(*orders) if orders else 1
    return tuple(zip(gens, orders)), exponent, dlog


def _primitive_root(p: int, k: int) -> int:
    target = p - 1
    g = next(x for x in range(2, p) if multiplicative_order(x, p) == target)
    if k == 1:
        return g
    # g or g + p generates (Z/p^k)^x
    if multiplicative_order(g, p * p) == p * (p - 1):
        return g
    return g + p


class Character:
    """A Dirichlet character mod m in log form."""

    __slots__ = ("m", "gens", "exps", "order_lcm", "_dlog")

    def __init__(self, m: int, gens, exps, order_lcm: int, dlog):
        self.m = m
        self.gens = gens              # tuple of (generator, order)
        self.exps = tuple(exps)       # one exponent per generator, e_i < d_i
        self.order_lcm = order_lcm    # lambda: the unit group exponent
        self._dlog = dlog

    def value_exponent(self, k: int):
        """e with chi(k) = zeta_lambda^e, or None when gcd(k, m) > 1."""
        k %= self.m
        if gcd(k, self.m) != 1:
            return None
        vec = self._dlog[k]
        lam = self.order_lcm
        total = 0
        for e_i, (_, d_i), a_i in zip(self.exps, self.gens, vec):
            total += e_i * a_i * (lam // d_i)
        return total % lam

    def value(self, k: int) -> Cyclotomic:
        e = self.value_exponent(k)
        if e is None:
            return Cyclotomic.zero(self.order_lcm)
        return Cyclotomic.root_power(self.order_lcm, e)

    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exps)

    def __eq__(self, other):
        return isinstance(other, Character) and self.m == other.m and self.exps == other.exps

    def __hash__(self):
        return hash((self.m, self.exps))

    def __repr__(self):
        return f"Character(m={self.m}, exps={self.exps})"


def characters_enum(m: int):
    """All phi(m) characters mod m, the principal one first."""
    gens, exponent, dlog = unit_group(m)
    orders = [d for _, d in gens]
    for exps in itertools.product(*(range(d) for d in orders)):
        yield Character(m, gens, exps, exponent, dlog)


def char_props(chi: Character) -> tuple[bool, Cyclotomic]:
    """(odd, half_sum): chi(-1) = -1, and sum_{0<k<m/2} chi(k) in Z[zeta]."""
    lam = chi.order_lcm
    e_minus1 = chi.value_exponent(chi.m - 1)
    odd = lam % 2 == 0 and e_minus1 == lam // 2
    counts = [0] * lam
    for k in range(1, (chi.m + 1) // 2):
        if 2 * k == chi.m:
            break
        e = chi.value_exponent(k)
        if e is not None:
            counts[e] += 1
    table = _power_reduction_table(lam)
    deg = _phi_degree(lam)
    acc = [0] * deg
    for e, c in enumerate(counts):
        if c:
            row = table[e]
            for i in range(deg):
                acc[i] += c * row[i]
    return odd, Cyclotomic(lam, tuple(acc))


@lru_cache(maxsize=None)
def _unbalanced_witness_exponents(m: int):
    """The odd characters mod m with nonzero half sum, in enumeration order.

    x is not balanced mod m exactly when one of these characters sends x
    to 1; caching them makes repeated balance queries for one modulus cheap.
    """
    orders = [d for _, d in unit_group(m)[0]]
    pending: dict[tuple[int, ...], bool] = {}
    witnesses = []
    for chi in characters_enum(m):
        verdict = pending.pop(chi.exps, None)
        if verdict is None:
            odd, half = char_props(chi)
            verdict = odd and not half.is_zero()
            order = lcm(*(d // gcd(e, d) for e, d in zip(chi.exps, orders)))
            for j in range(2, order):
                if gcd(j, order) == 1:
                    pending[tuple(j * e % d for e, d in zip(chi.exps, orders))] = verdict
        if verdict:
            witnesses.append(chi)
    return tuple(witnesses)


def is_balanced(x: int, m: int) -> bool:
    """Exhaustive character scan for the balanced predicate."""
    return balance_witness(x, m) is None


def balance_witness(x: int, m: int):
    """An odd character with nonzero half sum and chi(x) = 1, if one exists."""
    if m < 3:
        raise BadModulus(f"modulus {m} must be >= 3")
    if gcd(x, m) != 1:
        raise NotCoprime(f"gcd({x}, {m}) > 1")
    for chi in _unbalanced_witness_exponents(m):
        if chi.value_exponent(x) == 0:
            return chi
    return None


def legendre_symbol(x: int, m: int) -> int:
    """Euler's criterion; m must be an odd prime."""
    if m < 3 or m % 2 == 0 or not is_prime(m):
        raise BadModulus(f"{m} is not an odd prime")
    t = pow(x % m, (m - 1) // 2, m)
    if t == m - 1:
        return -1
    return t  # 0 or 1


def is_balanced_fast(x: int, m: int, below=None):
    """Legendre shortcuts: Some(verdict) when one applies, None otherwise.

    - m an odd prime and (x/m) = -1: balanced;
    - m a prime = 3 mod 4 and (x/m) = 1: not balanced;
    - m = y*z with y an odd prime dividing z and x not balanced mod z:
      not balanced.

    below(x, z) decides the smaller modulus z: is_balanced_fast itself by
    default; BalanceRouter passes its cached, oracle-backed decision.
    Coprimality is checked here.
    """
    if gcd(x, m) != 1:
        raise NotCoprime(f"gcd({x}, {m}) > 1")
    if m >= 3 and m % 2 == 1 and is_prime(m):
        sym = legendre_symbol(x, m)
        if sym == -1:
            return True
        if m % 4 == 3 and sym == 1:
            return False
        return None
    below = below or is_balanced_fast
    for y in sorted(factorint(m)):
        if y != 2 and m % (y * y) == 0:
            z = m // y
            if z % 2 == 1 and below(x, z) is False:
                return False
    return None
