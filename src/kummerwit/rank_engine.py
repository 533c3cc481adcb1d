"""Prime search and the divisor-sum rank formula for y^2 = x(x+1)(x+t^q)
over F_{p^a}(t^(1/r^n)).

The rank equals the sum, over divisors e > 2 of q*r^n with p balanced
mod e, of the index phi(e)/ord(p^a mod e).  Balance checks route through
the Legendre shortcuts first, then propagate not-balanced verdicts up
prime-power ladders (m = y*z with y | z, is_balanced_fast asking the router
about z), and only then fall back to the coset count of is_balanced;
results are cached per (x, e).  rank_formula validates the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .base_algebra.intarith import (euler_phi, is_prime, multiplicative_order,
                                    primes_from)
from .characters import is_balanced, is_balanced_fast, legendre_symbol
from .errors import BadModulus, NotCoprime, SearchExhausted


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
    """Balance decisions with shortcut-first routing and a per-(x, e) cache."""

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


def rank_formula(p: int, a: int, q: int, r: int, n: int,
                 router: BalanceRouter | None = None) -> RankReport:
    """Divisor-sum rank over the tower level F_{p^a}(t^(r^-n)): each divisor
    e > 2 of q*r^n with p balanced mod e contributes phi(e)/ord(p^a mod e)."""
    _validate_params(p, a, q, r, n)
    if gcd(p, q * r) != 1:
        raise NotCoprime(f"p = {p} divides q*r^n")
    router = router or BalanceRouter()
    divisors = sorted(q ** i * r ** j for i in (0, 1) for j in range(n + 1))
    entries: list[DivisorEntry] = []
    rank = 0
    for e in divisors:
        if e <= 2:
            entries.append(DivisorEntry(e, False, 0, True))
            continue
        bal = router.balanced(p, e)
        index = euler_phi(e) // multiplicative_order(pow(p, a, e), e)
        entries.append(DivisorEntry(e, bal, index, False))
        if bal:
            rank += index
    return RankReport(p, a, q, r, n, entries, rank)


def rank_constancy_check(p: int, a: int, q: int, r: int, n_max: int,
                         router: BalanceRouter | None = None) -> tuple[int, bool, bool]:
    """(C, ok_constant, ok_bound): C is the rank at n = 0, ok_constant says the
    rank is the same for all 0 <= n <= n_max, ok_bound says C <= q - 1."""
    router = router or BalanceRouter()
    ranks = [rank_formula(p, a, q, r, n, router).rank for n in range(n_max + 1)]
    c = ranks[0]
    return c, all(v == c for v in ranks), c <= q - 1
