"""Prime search and the divisor-sum rank formula for y^2 = x(x+1)(x+t^q)
over F_{p^a}(t^(1/r^n)).

The rank is the sum of the index phi(e)/ord(p^a mod e) over the divisors e =
q^i * r^j > 2 of q*r^n (i in {0, 1}) with p balanced mod e, which orders alone
decide.  rank_formula validates its parameters and refuses oversized ones
(WorkBound) before any order is taken.

The lemma (Washington, Introduction to Cyclotomic Fields, ch. 4).  For odd m
and an odd chi mod m induced from the primitive chi_f, Moebius inversion over
the primes l | m outside f and the period argument of the ladder lemma
(is_balanced_fast; m/d is an odd multiple of f) give the half sum
    S_m(chi) = S_f(chi_f) * prod_{l | m, l outside f} (1 - chi_f(l)),
with S_f(chi_f) = -(2 - conj(chi_f(2))) * B_{1,chi_f} != 0.  So x is balanced
mod m exactly when every odd chi with chi(x) = 1 has a prime l | m outside its
conductor with chi_f(l) = 1.

The rule.  In G = (Z/m)^x, m >= 3, let odd(K) = [G : K]/2, the number of odd
characters trivial on the subgroup K, when -1 is not in K, and 0 otherwise.  Of
the odd(<p>) odd chi mod e with chi(p) = 1, those with both components
nontrivial have no Euler factor, those of conductor q have 1 - chi(r), and
those of conductor r^k have 1 - chi(q).  So p is balanced mod e exactly when
    odd(<p> in (Z/e)^x) = odd(<p, r> in (Z/q)^x) + odd(<p, q> in (Z/r^j)^x),
the right side counting only when i = 1 and j >= 1.  Orders decide each term:
-1 is in <p> exactly when every component order of p is even, all with one
2-adic valuation; in the cyclic (Z/q)^x and (Z/r^j)^x a subgroup holds -1
exactly when its order is even; and ord(x mod r^j) = o * r^max(0, j - v),
where o = ord(x mod r) and v = v_r(x^o - 1), by lifting the exponent (Ireland
& Rosen, ch. 4): v_l(y^m - 1) = v + v_l(m) for an odd prime l and v_l(y - 1) =
v >= 1.  Indeed 1 + y + ... + y^(m-1) is m mod l, and y = 1 + l^v * t, l not
dividing t, gives y^l - 1 = l^(v+1) * t mod l^(v+2), as l | C(l, 2) and 3v >=
v + 2; induct on v_l(m).  So the order mod l^j, the least multiple o*m of o
with v + v_l(m) >= j, has m = l^max(0, j - v).

rank_constancy_check answers for every level at once: the rank is the same at
every level exactly when p is unbalanced mod r and mod q*r (its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .base_algebra.intarith import factorint, is_prime, primes_from
from .characters import is_balanced, is_balanced_fast, legendre_symbol
from .errors import BadModulus, NotCoprime, SearchExhausted, WorkBound

# The most bits q*r^n may have: it bounds the report (2n + 2 divisors).  With
# no cap the record of (3, 1, 7, 11, n) held 41 KB / 0.76 MB / 2.9 MB at n =
# 147 / 800 / 1600, decided in 3 / 26 / 70 ms, and four triples at 507-512 bits
# took 1-4 ms (Python 3.11, one core of a 2-CPU machine).
RANK_MODULUS_BITS_MAX = 512
# The largest q or r: q - 1 and r - 1 are factored by trial division, which
# grows with sqrt(q); a q with (q - 1)/2 prime took 0.03 s near 10^12 or 2^40,
# at n = 0 and in rank_constancy_check, and 0.3 s near 10^14 (same machine).
RANK_PRIME_MAX = 2 ** 40


def find_r(p: int, count: int) -> list[int]:
    """First `count` primes r != p with r = 3 mod 4 and (p/r) = 1, ascending."""
    if not is_prime(p) or p % 2 == 0:
        raise BadModulus(f"p = {p} must be an odd prime")
    if count < 0:
        raise ValueError("count must be >= 0")
    out: list[int] = []
    for r in primes_from(3):
        if len(out) == count:
            break
        if r % 4 == 3 and legendre_symbol(p, r) == 1:  # (p/p) = 0 rules out r = p
            out.append(r)
    return out


def find_q(p: int, r: int, ceiling: int = 10_000) -> int:
    """Least odd prime q outside {p, r} with (p/q) = -1 and (q/r) = -1."""
    for q in primes_from(3):
        if q > ceiling:
            raise SearchExhausted(f"no valid q below {ceiling}")
        # the symbol is 0 at its own modulus, so q = p and q = r fail here
        if legendre_symbol(p, q) == -1 and legendre_symbol(q, r) == -1:
            return q


class BalanceRouter:
    """Shortcut-first balance decisions, cached per (x, e): the tests' reference
    for the rank path's order rule, kept while perfbench's tracer patches it."""

    def __init__(self):
        self.cache: dict[tuple[int, int], bool] = {}
        self.oracle_calls = 0

    def balanced(self, x: int, e: int) -> bool:
        key = (x % e, e)
        if key in self.cache:
            return self.cache[key]
        verdict = is_balanced_fast(x, e, below=self.balanced)
        if verdict is None:
            self.oracle_calls += 1
            verdict = is_balanced(x, e)
        self.cache[key] = verdict
        return verdict


@dataclass
class DivisorEntry:
    e: int
    balanced: bool
    index: int
    excluded: bool  # e <= 2 never contributes

    def as_record(self) -> dict:
        return {"e": self.e, "balanced": self.balanced,
                "index": self.index, "excluded": self.excluded}


@dataclass
class RankReport:
    p: int
    a: int
    q: int
    r: int
    n: int
    divisors: list[DivisorEntry]
    rank: int

    def as_record(self) -> dict:
        return {"p": self.p, "a": self.a, "q": self.q, "r": self.r, "n": self.n,
                "divisors": [d.as_record() for d in self.divisors], "rank": self.rank}


def _validate_params(p: int, a: int, q: int, r: int, n: int):
    if not is_prime(p) or p % 2 == 0:
        raise BadModulus(f"p = {p} must be an odd prime")
    if a < 1:
        raise ValueError("a must be >= 1")
    if not is_prime(q) or q % 2 == 0 or not is_prime(r) or r % 2 == 0 or q == r:
        raise BadModulus(f"q = {q} and r = {r} must be distinct odd primes")
    if n < 0:
        raise ValueError("n must be >= 0")


def _check_work(q: int, r: int, n: int):
    """WorkBound for a level too large to report: q - 1 and r - 1 are
    factored by trial division, and the report holds 2n + 2 divisors."""
    if q > RANK_PRIME_MAX or r > RANK_PRIME_MAX:
        raise WorkBound(f"q = {q} or r = {r} exceeds the prime cap {RANK_PRIME_MAX}")
    # r >= 3, so n >= RANK_MODULUS_BITS_MAX alone gives too many bits
    if n >= RANK_MODULUS_BITS_MAX or (q * r ** n).bit_length() > RANK_MODULUS_BITS_MAX:
        raise WorkBound(f"q*r^n for n = {n} exceeds the cap of "
                        f"{RANK_MODULUS_BITS_MAX} bits")


def _orders(xs, ell: int, n: int) -> list[list[int]]:
    """[ord(x mod ell^j) for j = 0..n] for each x in xs (module docstring)."""
    factors = factorint(ell - 1) if n else {}  # n = 0 asks only ord(x mod 1)
    out = []
    for x in xs:
        o = ell - 1
        for f in factors:
            while o % f == 0 and pow(x, o // f, ell) == 1:
                o //= f
        d, row = pow(x, o, ell ** n) - 1, [1]
        for j in range(1, n + 1):  # past j = v_ell(x^o - 1), one more ell per level
            o *= ell if d % ell ** j else 1
            row.append(o)
        out.append(row)
    return out


def _odd(group: int, *orders: int) -> int:
    """odd(<x>) in a group of order `group`, x's components of these orders."""
    holds = orders[0] % 2 == 0 and len({o & -o for o in orders}) == 1  # -1 in <x>
    return 0 if holds else group // lcm(*orders) // 2


def _divisor_entries(p: int, a: int, q: int, r: int, n: int) -> list[DivisorEntry]:
    """One entry per divisor of q*r^n, ascending, by the module docstring's rule."""
    (_, p_q), (_, r_q) = _orders((p, r), q, 1)
    p_r, q_r = _orders((p, q), r, n)
    entries = [DivisorEntry(1, False, 0, True)]  # e <= 2 never contributes
    for i, j in [(i, j) for i in (0, 1) for j in range(n + 1)][1:]:
        phi_r = (r - 1) * r ** (j - 1) if j else 1
        comps = ([(q - 1, p_q)] if i else []) + ([(phi_r, p_r[j])] if j else [])
        phi, order = prod(g for g, _ in comps), lcm(*(o for _, o in comps))
        euler = _odd(q - 1, lcm(p_q, r_q)) + _odd(phi_r, lcm(p_r[j], q_r[j])) if i and j else 0
        balanced = _odd(phi, *(o for _, o in comps)) == euler
        index = phi // (order // gcd(order, a))  # ord(p^a) = ord(p)/gcd(ord(p), a)
        entries.append(DivisorEntry(q ** i * r ** j, balanced, index, False))
    return sorted(entries, key=lambda d: d.e)


def rank_formula(p: int, a: int, q: int, r: int, n: int) -> RankReport:
    """Divisor-sum rank over the tower level F_{p^a}(t^(r^-n)): each divisor
    e > 2 of q*r^n with p balanced mod e contributes phi(e)/ord(p^a mod e)."""
    _validate_params(p, a, q, r, n)
    if gcd(p, q * r) != 1:
        raise NotCoprime(f"p = {p} divides q*r^n")
    _check_work(q, r, n)
    entries = _divisor_entries(p, a, q, r, n)
    return RankReport(p, a, q, r, n, entries, sum(d.index for d in entries if d.balanced))


def rank_constancy_check(p: int, a: int, q: int, r: int) -> tuple[int, bool, bool]:
    """(C, constant, bounded): C is the rank at n = 0, constant says the rank
    is C at every level n >= 0, bounded says C <= q - 1.

    Level n adds only the divisors r^n and q*r^n to those of level n - 1,
    each adding phi(e)/ord(p^a mod e) >= 1 exactly when p is balanced mod e.
    By the ladder lemma (is_balanced_fast) with y = r, p unbalanced mod r
    and mod q*r is unbalanced mod every r^j and q*r^j, j >= 1.  So the rank
    is constant at every level exactly when p is unbalanced mod r and mod
    q*r, whatever a is, and for every n_max >= 1 the level loop up to n_max
    agrees.  One level-1 report, within level 0's caps (q*r < 2^81), gives C
    (entries 1 and q) and constancy (entries r and q*r)."""
    divisors = rank_formula(p, a, q, r, 1).divisors
    c = sum(d.index for d in divisors if d.balanced and d.e % r)
    constant = not any(d.balanced for d in divisors if d.e % r == 0)
    return c, constant, c <= q - 1
