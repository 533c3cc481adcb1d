"""Dirichlet characters mod m with exact values in Z[zeta], and the
balanced-residue predicate.

A character is stored in log form: a decomposition of (Z/m)^x into cyclic
factors with generators g_i of orders d_i, plus one exponent per generator;
chi(g_i) = zeta^(e_i * lambda/d_i) where lambda = lcm(d_i) is the group
exponent.  Values are materialized into the exact ring Z[zeta_n] =
Z[x]/(Phi_n) only when sums must be tested against zero: chi(k) with n =
lambda, a half sum with n = ord chi, the smallest ring holding the values
of chi (Z[zeta_d] embeds in Z[zeta_lambda], so zero-ness is the same).  One
long division by the integer cyclotomic polynomial gives the unique
coordinates, so the test is exact.

x is *balanced* mod m exactly when no odd character chi mod m with nonzero
half sum sum_{0<k<m/2} chi(k) has chi(x) = 1, that is, when every coset of
<x> in (Z/m)^x holds as many units below m/2 as above it.  With f(a) = +1
for a unit a < m/2 and -1 for a > m/2, and F(c) the sum of f over a coset c:
    f is odd, so sum_a f(a) chi(a) = (1 - chi(-1)) * (half sum of chi);
    for chi(x) = 1 the left side is sum_c F(c) chi(c), F's Fourier coefficient;
    so F = 0 on (Z/m)^x/<x> exactly when no odd such chi has nonzero half sum
(orthogonality; Washington, Introduction to Cyclotomic Fields, ch. 3-4).
is_balanced counts cosets in integers; balance_witness builds Z[zeta] only
to name a witness for an unbalanced x; is_balanced_fast tries the Legendre
shortcuts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, mul

from .base_algebra.intarith import euler_phi, factorint, is_prime, multiplicative_order
from .errors import BadModulus, NotCoprime, WorkBound

# The largest modulus whose unit group (a dlog table of phi(m) entries) is
# built: at m = 100003, naming a balance witness took 0.17 s and +25 MB
# (Python 3.11, one core of a 2-CPU machine).
UNIT_GROUP_MAX = 100_003
# The largest modulus is_balanced decides, marking a bytearray of m entries:
# at m = 10000019, is_balanced(3, m) took 1.3-1.5 s and +9 MB (same machine).
BALANCE_MODULUS_MAX = 10_000_019
_MODULI_CACHED = 32  # moduli per cache, above the 24 of a perfbench balance batch


# -- exact cyclotomic integers ---------------------------------------------------


@lru_cache(maxsize=8 * _MODULI_CACHED)  # conductors: divisors of lambda(m)
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


def _cyclotomic_remainder(vec, n: int) -> tuple[int, ...]:
    """The integer vector vec (low-to-high) mod the monic Phi_n: its phi(n)
    power-basis coordinates.  Exponents are first folded mod n (Phi_n
    divides x^n - 1), then one long division runs over Phi_n's nonzero terms."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    terms = [(i, c) for i, c in enumerate(phi[:deg]) if c]
    rem = [0] * n
    for start in range(0, len(vec), n):
        chunk = vec[start:start + n]
        rem[:len(chunk)] = map(add, rem, chunk)
    for top in range(n - 1, deg - 1, -1):
        lead = rem[top]
        if lead:
            base = top - deg
            for i, c in terms:
                rem[base + i] -= lead * c
    return tuple(rem[:deg])


@dataclass(frozen=True)
class Cyclotomic:
    """Element of Z[zeta_n] in the power basis modulo Phi_n."""

    conductor: int
    coeffs: tuple[int, ...]

    @classmethod
    def zero(cls, n: int) -> "Cyclotomic":
        return cls.integer(n, 0)

    @classmethod
    def root_power(cls, n: int, k: int) -> "Cyclotomic":
        """zeta_n^k reduced mod Phi_n."""
        return cls(n, _cyclotomic_remainder([0] * (k % n) + [1], n))

    @classmethod
    def integer(cls, n: int, v: int) -> "Cyclotomic":
        return cls(n, _cyclotomic_remainder([v], n))

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        if self.conductor != other.conductor:
            raise ValueError(f"conductors {self.conductor} and {other.conductor} differ")
        return Cyclotomic(self.conductor,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, tuple(-a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational_integer(self) -> bool:
        return not any(self.coeffs[1:])


# -- the unit group and its characters --------------------------------------------


@lru_cache(maxsize=_MODULI_CACHED)
def unit_group(m: int):
    """((generators, orders), lambda, dlog table) for (Z/m)^x.

    (Z/m)^x is the product, by the Chinese Remainder Theorem, of the groups
    (Z/p^k)^x over the prime powers p^k || m.  For odd p that group is
    cyclic of order phi(p^k), generated by a primitive root g mod p, or by
    g + p when g^(p-1) = 1 mod p^2 (_primitive_root); (Z/4)^x = <3>, and
    (Z/2^k)^x = <-1> x <5> with orders 2 and 2^(k-2) for k >= 3.  Each
    generator is lifted to 1 modulo the other prime powers, so the
    products g_1^e_1 ... g_j^e_j, 0 <= e_i < d_i, run over the phi(m) units
    once each: the dlog table has no collision and misses no unit.
    Raises WorkBound above UNIT_GROUP_MAX.
    """
    if m < 3:
        raise BadModulus(f"modulus {m} must be >= 3")
    if m > UNIT_GROUP_MAX:
        raise WorkBound(f"modulus {m} exceeds the unit group cap {UNIT_GROUP_MAX}")
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
    # g lifted to g mod pk and 1 mod m/pk; at m = pk (m // pk = 1) the lift is g itself
    gens = [(1 + m // pk * pow(m // pk, -1, pk) * (g - 1)) % m for pk, g, _ in comps]
    orders = [order for _, _, order in comps]
    # running products, one multiplication per entry, each generator's
    # exponent in turn
    dlog: dict[int, tuple[int, ...]] = {1: ()}
    for g, d in zip(gens, orders):
        table: dict[int, tuple[int, ...]] = {}
        for val, exps in dlog.items():
            for e in range(d):
                table[val] = exps + (e,)
                val = val * g % m
        dlog = table
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

    def order(self) -> int:
        """ord chi, the least d with chi^d principal; chi takes values in mu_d."""
        return lcm(*(d // gcd(e, d) for e, (_, d) in zip(self.exps, self.gens)))

    def is_odd(self) -> bool:
        """chi(-1) = -1."""
        return 2 * self.value_exponent(self.m - 1) == self.order_lcm

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
    """(odd, half_sum): chi(-1) = -1, and sum_{0<k<m/2} chi(k) in Z[zeta_d],
    d = ord chi: counted in d slots and reduced by one division by Phi_d."""
    d = chi.order()
    step = chi.order_lcm // d
    counts = [0] * d
    for k in range(1, (chi.m + 1) // 2):
        e = chi.value_exponent(k)
        if e is not None:
            counts[e // step] += 1
    return chi.is_odd(), Cyclotomic(d, _cyclotomic_remainder(counts, d))


@lru_cache(maxsize=_MODULI_CACHED)
def _unbalanced_witness_exponents(m: int):
    """The odd characters mod m in enumeration order: balance_witness's
    candidates, kept so that repeated unbalanced queries share one list.
    chi(-1) = zeta_lambda^(sum e_i * a_i * lambda/d_i) with a = dlog[m - 1],
    so oddness is read off the exponents before any Character is built."""
    gens, exponent, dlog = unit_group(m)
    weights = [a * (exponent // d) for a, (_, d) in zip(dlog[m - 1], gens)]
    return tuple(Character(m, gens, exps, exponent, dlog)
                 for exps in itertools.product(*(range(d) for _, d in gens))
                 if 2 * (sum(map(mul, exps, weights)) % exponent) == exponent)


def is_balanced(x: int, m: int) -> bool:
    """Coset count: every coset of <x> in (Z/m)^x holds as many units below
    m/2 as above it.  Raises WorkBound above BALANCE_MODULUS_MAX."""
    if m < 3:
        raise BadModulus(f"modulus {m} must be >= 3")
    if m > BALANCE_MODULUS_MAX:
        raise WorkBound(f"modulus {m} exceeds the balance cap {BALANCE_MODULUS_MAX}")
    if gcd(x, m) != 1:
        raise NotCoprime(f"gcd({x}, {m}) > 1")
    seen = bytearray(m)  # marks non-units, then each coset as it is walked
    for p in factorint(m):
        seen[::p] = b"\1" * len(range(0, m, p))
    for a in range(1, m):
        count, b = 0, a
        while not seen[b]:
            seen[b] = 1
            count += 1 if 2 * b < m else -1
            b = b * x % m
        if count:
            return False
    return True


def balance_witness(x: int, m: int):
    """None when x is balanced mod m; otherwise the first odd character in
    enumeration order with chi(x) = 1 and nonzero half sum."""
    if is_balanced(x, m):
        return None
    return next(chi for chi in _unbalanced_witness_exponents(m)
                if chi.value_exponent(x) == 0 and not char_props(chi)[1].is_zero())


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

    The ladder lemma behind the third: take an odd chi mod z with chi(x) =
    1 and a nonzero half sum (module docstring).  It lifts to chi' mod yz,
    chi'(k) = chi(k mod z), and the units agree because y | z.  The range
    0 < k < yz/2 is (y - 1)/2 full periods of length z, each summing to 0
    (chi is not principal), plus one half period, which sums to chi's half
    sum.  So chi' is odd, chi'(x) = 1 and its half sum is nonzero: x is
    unbalanced mod yz.

    below(x, z) decides the smaller modulus z: is_balanced_fast itself by
    default; BalanceRouter passes its cached, oracle-backed decision.
    The modulus and coprimality are checked here.
    """
    if m < 3:
        raise BadModulus(f"modulus {m} must be >= 3")
    if gcd(x, m) != 1:
        raise NotCoprime(f"gcd({x}, {m}) > 1")
    if m % 2 == 1 and is_prime(m):
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
