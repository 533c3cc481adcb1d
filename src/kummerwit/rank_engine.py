"""Prime search and the divisor-sum rank formula for y^2 = x(x+1)(x+t^q)
over F_{p^a}(t^(1/r^n)).

The rank equals the sum, over divisors e > 2 of q*r^n with p balanced
mod e, of the index phi(e)/ord(p^a mod e).  Balance checks route through
the Legendre shortcuts first, then propagate not-balanced verdicts up
prime-power ladders (m = y*z with y | z, is_balanced_fast asking the router
about z), and only then fall back to the coset count of is_balanced;
results are cached per (x, e).  rank_formula validates the parameters and
refuses oversized ones (WorkBound) before any balance decision.

rank_constancy_check answers for every level of the tower at once: the
rank at level n is the rank at level 0 for all n exactly when p is
unbalanced mod r and mod q*r (the proof is in its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .base_algebra.intarith import (euler_phi, is_prime, multiplicative_order,
                                    primes_from)
from .characters import (BALANCE_MODULUS_MAX, is_balanced, is_balanced_fast,
                         legendre_symbol)
from .errors import BadModulus, NotCoprime, SearchExhausted, WorkBound

# The most bits q*r^n may have: at 509-512 bits rank_formula decided four
# triples in 0.23-0.43 s, and with no cap rank_formula(3, 1, 7, 11, n) took
# 0.13 / 1.1 / 12.4 / 142 s at n = 100 / 200 / 400 / 800 (Python 3.11, one
# core of a 2-CPU machine): the ladder decides every divisor, so no other
# cap is met.
RANK_MODULUS_BITS_MAX = 512
# The largest q or r: phi(q) and ord(p^a mod q) factor q and q - 1 by trial
# division, which grows with sqrt(q); at n = 0 a prime q near 10^12 or 2^40
# took 0.09-0.11 s, and one near 10^14 took 1.1 s (same machine).
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


def _check_work(q: int, r: int, n: int):
    """WorkBound for a level whose divisors are too large to decide.  Above
    level 0, q*r is a squarefree composite divisor, which neither Legendre
    shortcut nor the ladder decides, so only the coset count, capped at
    BALANCE_MODULUS_MAX, can; refusing it here spares the trial division of
    q*r that comes first."""
    if q > RANK_PRIME_MAX or r > RANK_PRIME_MAX:
        raise WorkBound(f"q = {q} or r = {r} exceeds the prime cap {RANK_PRIME_MAX}")
    # r >= 3, so n >= RANK_MODULUS_BITS_MAX alone gives too many bits
    if n >= RANK_MODULUS_BITS_MAX or (q * r ** n).bit_length() > RANK_MODULUS_BITS_MAX:
        raise WorkBound(f"q*r^n for n = {n} exceeds the cap of "
                        f"{RANK_MODULUS_BITS_MAX} bits")
    if n and q * r > BALANCE_MODULUS_MAX:
        raise WorkBound(f"modulus q*r = {q * r} exceeds the balance cap {BALANCE_MODULUS_MAX}")


def rank_formula(p: int, a: int, q: int, r: int, n: int,
                 router: BalanceRouter | None = None) -> RankReport:
    """Divisor-sum rank over the tower level F_{p^a}(t^(r^-n)): each divisor
    e > 2 of q*r^n with p balanced mod e contributes phi(e)/ord(p^a mod e)."""
    _validate_params(p, a, q, r, n)
    if gcd(p, q * r) != 1:
        raise NotCoprime(f"p = {p} divides q*r^n")
    _check_work(q, r, n)
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


def rank_constancy_check(p: int, a: int, q: int, r: int,
                         router: BalanceRouter | None = None) -> tuple[int, bool, bool]:
    """(C, constant, bounded): C is the rank at n = 0, constant says the rank
    is C at every level n >= 0, bounded says C <= q - 1.

    Level n adds only the divisors r^n and q*r^n to those of level n - 1,
    and each contributes its index phi(e)/ord(p^a mod e) >= 1 exactly when
    p is balanced mod e.  By the ladder lemma (is_balanced_fast) with y = r,
    p unbalanced mod r and mod q*r is unbalanced mod every r^j and q*r^j,
    j >= 1.  So the rank is constant at every level exactly when p is
    unbalanced mod r and mod q*r, which is when rank(1) = rank(0), whatever
    a is: for every n_max >= 1 the level loop up to n_max gives the same
    answer.  Level 1's caps apply (WorkBound)."""
    router = router or BalanceRouter()
    c = rank_formula(p, a, q, r, 0, router).rank
    _check_work(q, r, 1)
    constant = not (router.balanced(p, r) or router.balanced(p, q * r))
    return c, constant, c <= q - 1
