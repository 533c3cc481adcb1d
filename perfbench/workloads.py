"""Seeded task batches for the four benchmark workloads.

A task is one ``kummerwit`` command line (argv, ``--workers 1`` first) plus
the facts the output checks need.  A batch is a few cycles of fixed slots,
and one round of a run executes the whole batch.  Each slot fixes the sizes
that set a task's cost (field, set sizes, degrees, tower level, modulus
cost class); the seed draws the concrete inputs within them (coefficients,
places, curve exponents among equal-cost ones, moduli, query values).  So
every seed runs the same mix of task kinds and costs while the inputs
themselves differ.  Inputs are valid by construction (plain integer
arithmetic here, never a call into the program), so no operation is
expected to fail.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("poly", "curve", "balance")

# Every batch has 100 tasks, so 10 of them lie beyond the p90.  One round of
# a batch takes 2 to 3 s on the machine the benchmark was defined on, so a
# 36 s run makes ten or more rounds.


# -- integer helpers -----------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def legendre(x: int, p: int) -> int:
    t = pow(x % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


# -- literals in the CLI grammar -------------------------------------------------


def coeff_lit(c, a: int) -> str:
    return str(c) if a == 1 else "[" + ",".join(str(v) for v in c) + "]"


def poly_lit(coeffs: list, a: int = 1) -> str:
    """Canonical literal of a polynomial given low-to-high coefficients
    (ints for a = 1, length-a lists otherwise)."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not (any(c) if a > 1 else c):
            continue
        cs = coeff_lit(c, a)
        terms.append(cs if k == 0 else f"{cs}*s" if k == 1 else f"{cs}*s^{k}")
    return "+".join(terms) or "0"


def _rand_coeff(rng: random.Random, p: int, a: int, nonzero: bool = False):
    while True:
        c = rng.randrange(p) if a == 1 else [rng.randrange(p) for _ in range(a)]
        if not nonzero or (any(c) if a > 1 else c):
            return c


def _rand_poly(rng: random.Random, p: int, a: int, max_deg: int,
               min_deg: int = 0, monic: bool = False) -> list:
    deg = rng.randint(min_deg, max_deg)
    coeffs = [_rand_coeff(rng, p, a) for _ in range(deg)]
    top = (1 if a == 1 else [1] + [0] * (a - 1)) if monic else _rand_coeff(rng, p, a, True)
    return coeffs + [top]


def _distinct_polys(rng: random.Random, p: int, a: int, count: int, deg: int) -> list[str]:
    """count distinct polynomials of degree exactly deg."""
    seen: list[str] = []
    while len(seen) < count:
        lit = poly_lit(_rand_poly(rng, p, a, deg, deg), a)
        if lit not in seen:
            seen.append(lit)
    return seen


def _irreducible_quadratic(rng: random.Random, p: int) -> list[int]:
    """Monic s^2 + b*s + c with a non-square discriminant mod p."""
    while True:
        b, c = rng.randrange(p), rng.randrange(p)
        if legendre(b * b - 4 * c, p) == -1:
            return [c, b, 1]


def _place(rng: random.Random, p: int, deg: int) -> str:
    if deg == 1:
        return poly_lit([rng.randrange(p), 1])
    return poly_lit(_irreducible_quadratic(rng, p))


def _task(kind: str, argv: list[str], **meta) -> dict:
    return {"kind": kind, "argv": ["--workers", "1", *argv], "meta": meta}



# -- poly: CRT over F_q[s] and place splitting in root towers -------------------

# The batch, slot by slot with its count.  Each slot fixes what sets a task's
# cost; classes by best-round latency on the machine the benchmark was
# defined on:
# - 5 tasks of 0.1 to 0.5 s: tower factor of pi(s^243), pi(s^125) and
#   pi(s^121), powmod and factor at degree >= 100; witness inject at
#   |A| = 5 and 4, CRT and extended gcd at degree up to the hundreds;
# - 11 tower factor tasks of 45 to 60 ms, pi(s^81) and pi(s^25) at places
#   of degree 2, holding the p90;
# - 84 tasks of 3 to 45 ms, holding the median.
# A factor slot is (p, place degree, r, n); in each, every place costs within
# about 10% of the others, so a slot deals its places from a shuffled deck.
# An inject slot is (p, a, |A|, degree), |B| = |A| + 1, every element of A
# and B of exactly that degree: with degrees drawn from 0..3 one slot's cost
# varied fourfold between inputs, with the degree fixed by 10 to 20%.
_FACTOR_SLOTS = [((5, 1, 3, 5), 1), ((3, 1, 5, 3), 1), ((3, 1, 11, 2), 1),
                 ((5, 1, 3, 4), 8), ((7, 2, 5, 2), 3), ((5, 1, 7, 2), 3)]
_INJECT_SLOTS = [((7, 1, 5, 2), 1), ((3, 1, 4, 3), 1), ((3, 2, 2, 3), 4),
                 ((7, 1, 3, 2), 5), ((3, 2, 2, 2), 5), ((3, 1, 2, 3), 5), ((7, 1, 2, 3), 5)]
_GAMMA_SLOTS = [((3, 1, 2, 2), 3), ((3, 2, 2, 2), 3)]  # (p, a, |F1|, |F2|), degree 2
_SHIFT_SLOTS = [((3, 1), 2), ((7, 1), 2)]  # (p, a): three elements of degree 2
_AXIOM_SLOTS = [((3, 1, 6, 6), 2), ((7, 1, 4, 4), 2), ((3, 2, 3, 6), 2),
                ((7, 1, 2, 3), 2)]  # (p, a, n, m): fixed instances
# (p, r, n_max) for bounded; gcd(r, p^2 - 1) = 1 makes s -> s^r bijective on
# the residue fields of places of degree <= 2, so a chain with e*f = 1 exists
# at every level
_BOUNDED_SLOTS = [((7, 5, 3), 6)]
_LEMMAS_PER_BATCH, _CASES_PER_BATCH, _POLY_POWERS_PER_BATCH = 13, 12, 8
# (p, l) with l | p - 1, so zeta_l lies in F_p
_KUMMER_FIELDS = [(3, 2), (5, 2), (7, 3), (13, 3), (11, 5)]
_LEMMAS = ("obstruction_x", "divisibility_x", "obstruction_d", "divisibility_d")


def _inject(rng, p, a, na, deg):
    # A and B disjoint, so the seven-element tuple is always built
    pool = _distinct_polys(rng, p, a, 2 * na + 1, deg)
    set_a, set_b = pool[:na], pool[na:]
    return _task("inject", ["witness", "inject", "-p", str(p), "-a", str(a),
                            "--A", ";".join(set_a), "--B", ";".join(set_b)], p=p, a=a)


def _gamma_times(rng, p, a, n1, n2):
    f1 = _distinct_polys(rng, p, a, n1, 2)
    f2 = _distinct_polys(rng, p, a, n2, 2)
    return _task("gamma-times", ["witness", "gamma-times", "-p", str(p), "-a", str(a),
                                 "--F1", ";".join(f1), "--F2", ";".join(f2)], p=p, a=a)


def _shift(rng, p, a):
    elems = _distinct_polys(rng, p, a, 3, 2)
    a_elem = _distinct_polys(rng, p, a, 1, 2)[0]
    return _task("shift", ["witness", "shift", "-p", str(p), "-a", str(a),
                           "--set", ";".join(elems), "--a-elem", a_elem], p=p, a=a)


def _axioms(rng, p, a, n, m):
    return _task("axioms", ["witness", "axioms", "-p", str(p), "-a", str(a),
                            "-n", str(n), "-m", str(m)], p=p, a=a)


def _all_places(p: int, deg: int) -> list[str]:
    """Every monic irreducible of degree 1 or 2 over F_p, except s itself."""
    if deg == 1:
        return [poly_lit([c, 1]) for c in range(1, p)]
    return [poly_lit([c, b, 1]) for b in range(p) for c in range(p)
            if legendre(b * b - 4 * c, p) == -1]


def _bounded(rng, p, r, n_max):
    ell = rng.choice([x for x in (3, 5, 11) if x not in (p, r)])
    place = _place(rng, p, rng.randint(1, 2))
    return _task("bounded", ["tower", "bounded", "-p", str(p), "--place", place, "-r", str(r),
                             "-l", str(ell), "--n-max", str(n_max)], p=p)


def _lemma(rng):
    """x and the second seed have degree >= 1 with deg x >= deg seed, and the
    unit has degree >= 1: then w = seed*x^l + seed^l, c + 1/c and the three
    adjoined elements are nonzero, and no finite place is a pole of x."""
    p, ell = rng.choice(_KUMMER_FIELDS)
    which = rng.choice(_LEMMAS)
    x = _rand_poly(rng, p, 1, 3, min_deg=1)
    seed = _rand_poly(rng, p, 1, len(x) - 1, min_deg=1)
    unit = _rand_poly(rng, p, 1, 2, min_deg=1)
    place = _place(rng, p, rng.randint(1, 2))
    flags = (["--x", poly_lit(x), "--in-b", poly_lit(seed), "--c", poly_lit(unit)]
             if which.endswith("_x") else
             ["--x", poly_lit(x), "--d", poly_lit(seed), "--a-elem", poly_lit(unit)])
    return _task("lemma", ["kummer", "verify-lemma", "-p", str(p), "-l", str(ell),
                           "--place", place, "--lemma", which, *flags], p=p)


def _case(rng):
    """b = (s + c) * g / h with g(-c) and h(-c) nonzero has valuation 1 at
    s + c, so b is not an l-th power."""
    p, ell = rng.choice(_KUMMER_FIELDS)
    c = rng.randrange(p)

    def coprime_to_place(max_deg, min_deg=0, monic=False):
        while True:
            f = _rand_poly(rng, p, 1, max_deg, min_deg, monic)
            if sum(fi * (-c) ** i for i, fi in enumerate(f)) % p:
                return f

    g = coprime_to_place(2)
    b = [0] * (len(g) + 1)
    for i, gi in enumerate(g):
        b[i] += gi * c
        b[i + 1] += gi
    lit = poly_lit([v % p for v in b])
    if rng.random() < 0.5:
        lit += "/" + poly_lit(coprime_to_place(2, min_deg=1, monic=True))
    place = "inf" if rng.random() < 0.2 else _place(rng, p, rng.randint(1, 2))
    return _task("case", ["kummer", "case", "-p", str(p), "-l", str(ell), "--place", place,
                          "--b", lit], p=p)


def _poly_powers(rng):
    p = rng.choice([3, 5, 7])
    f = poly_lit(_rand_poly(rng, p, 1, 4, min_deg=1))
    n = rng.randint(2, 12)
    return _task("poly-powers", ["family", "poly-powers", "-p", str(p), "--f", f,
                                 "-n", str(n)], p=p, n=n)


def _each(slots, make):
    return [make(*slot) for slot, count in slots for _ in range(count)]


def _poly_batch(rng):
    decks: dict[tuple, list] = {}

    def factor(p, place_deg, r, n):
        deck = decks.setdefault((p, place_deg, r, n), [])
        if not deck:
            deck += _all_places(p, place_deg)
            rng.shuffle(deck)
        return _task("factor", ["tower", "factor", "-p", str(p), "--place", deck.pop(),
                                "-r", str(r), "-n", str(n)], p=p, r=r, n=n)

    tasks = _each(_FACTOR_SLOTS, factor)
    tasks += _each(_INJECT_SLOTS, lambda *slot: _inject(rng, *slot))
    tasks += _each(_GAMMA_SLOTS, lambda *slot: _gamma_times(rng, *slot))
    tasks += _each(_SHIFT_SLOTS, lambda *slot: _shift(rng, *slot))
    tasks += _each(_AXIOM_SLOTS, lambda *slot: _axioms(rng, *slot))
    tasks += _each(_BOUNDED_SLOTS, lambda *slot: _bounded(rng, *slot))
    tasks += [_lemma(rng) for _ in range(_LEMMAS_PER_BATCH)]
    tasks += [_case(rng) for _ in range(_CASES_PER_BATCH)]
    tasks += [_poly_powers(rng) for _ in range(_POLY_POWERS_PER_BATCH)]
    rng.shuffle(tasks)
    return tasks


# -- curve: scalar F_q work in point search and the group law ------------------

# The batch, slot by slot with its count.  A search slot is (p, a, num_deg,
# den_deg, N choices): the cost depends on N, so each slot draws N from
# values whose costs lie within about 15% of each other.  A stabilize slot
# is (p, r, n_max, q choices); level n multiplies the search bounds by r^n,
# so r and n stay small.  Classes by best-round latency on the machine the
# benchmark was defined on:
# - 3 stabilize tasks of 110 to 130 ms;
# - 12 searches over F_9 of 65 to 75 ms, holding the p90;
# - 20 searches and stabilize tasks of 30 to 60 ms;
# - 35 of 15 to 30 ms, holding the median, and 32 of 3 to 10 ms.
_SEARCH_SLOTS = [((3, 2, 2, 0, (1, 5, 7, 11)), 12),
                 ((3, 1, 4, 0, (8, 10)), 2), ((5, 1, 2, 1, (3, 7, 9, 11)), 2),
                 ((3, 1, 3, 1, (1, 2, 5, 7, 11)), 2), ((5, 1, 3, 0, (1, 2, 3, 4, 8, 9, 11)), 3),
                 ((7, 1, 1, 1, (3, 4, 6, 8, 9, 10, 11)), 3), ((3, 1, 4, 0, (5, 7, 11)), 3),
                 ((7, 1, 2, 0, (2, 3, 5, 9, 11)), 8), ((3, 1, 2, 1, (1, 5, 7, 11)), 8)]
_STABILIZE_SLOTS = [((7, 3, 1, (5, 11, 13)), 3), ((5, 3, 1, (7, 11, 13)), 3),
                    ((7, 2, 1, (3, 5, 11, 13)), 5), ((5, 2, 1, (3, 7, 11, 13)), 6)]
_GROW_SLOTS = [((3, 3), 4), ((5, 2), 4)]  # (p, target)
_MUL_SLOTS = [((3,), 5), ((5,), 5), ((7,), 5)]  # (p,)
_VERIFY_SLOTS = [((3,), 9), ((5,), 8)]  # (p,)


def _search(rng, p, a, num, den, n_choices):
    n = rng.choice(n_choices)
    return _task("search", ["curve", "search", "-p", str(p), "-a", str(a), "-N", str(n),
                            "--num-deg", str(num), "--den-deg", str(den)], p=p, a=a, N=n)


def _stabilize(rng, p, r, n_max, q_choices):
    q = rng.choice(q_choices)
    return _task("stabilize", ["curve", "stabilize", "-p", str(p), "-a", "1", "-q", str(q),
                               "-r", str(r), "--n-max", str(n_max),
                               "--num-deg", "1", "--den-deg", "0"], p=p, a=1, q=q, r=r)


def _known_point(rng, p, max_k):
    """A point on y^2 = x(x+1)(x+s^N), N = 2k: x = e*s^k, y = +-s^k(s^k + e)
    for e = +-1, since then x(x+1)(x+s^2k) = (s^k (s^k + e))^2."""
    k = rng.choice([k for k in range(1, max_k + 1) if (2 * k) % p])
    e = rng.choice([1, p - 1])
    sign = rng.choice([1, p - 1])
    x = [0] * k + [e]
    y = [0] * k + [sign * e % p] + [0] * (k - 1) + [sign]
    return 2 * k, f"({poly_lit(x)}; {poly_lit(y)})"


def _mul(rng, p):
    n, pt = _known_point(rng, p, 4)
    k = rng.randint(2, 9)
    return _task("mul", ["curve", "mul", "-p", str(p), "-N", str(n), "--P", pt, "-k", str(k)],
                 p=p, a=1, N=n)


def _grow(rng, p, target):
    # the known points have order 4 (2P = (0, 0)), so growth stops at target 3
    # family_members enumerates every polynomial of degree <= k, so k <= 2
    n, pt = _known_point(rng, p, 2)
    return _task("grow", ["family", "grow", "-p", str(p), "-N", str(n), "--point", pt,
                          "--target", str(target)], p=p, a=1, N=n)


def _verify(p):
    return _task("verify", ["verify", "--suite", "full", "-p", str(p)], p=p, a=1)


def _curve_batch(rng):
    tasks = _each(_SEARCH_SLOTS, lambda *slot: _search(rng, *slot))
    tasks += _each(_STABILIZE_SLOTS, lambda *slot: _stabilize(rng, *slot))
    tasks += _each(_GROW_SLOTS, lambda *slot: _grow(rng, *slot))
    tasks += _each(_MUL_SLOTS, lambda *slot: _mul(rng, *slot))
    tasks += _each(_VERIFY_SLOTS, _verify)
    rng.shuffle(tasks)
    return tasks


# -- balance: pure integer and cyclotomic work ---------------------------------

# (p, q, r) as search-primes reports them, from the triples whose rank report
# calls the character oracle, from a cold cache, on a modulus that takes at
# most about 20 ms; others take 50 ms to a second there.
_RANK_TRIPLES = [(3, 7, 11), (3, 5, 23), (5, 7, 11), (5, 3, 19), (5, 3, 31), (7, 5, 3),
                 (11, 3, 7), (11, 3, 19), (11, 3, 43), (13, 5, 3), (13, 5, 23),
                 (17, 3, 19), (17, 3, 43), (19, 11, 3), (23, 3, 7), (23, 3, 19)]


def _scan_cost(m: int) -> float:
    """Cost model of a fresh prime modulus m: phi(m) * phi(lambda(m)), the
    characters scanned times the degree of their values, times m^(2/3) for
    the growth of their coefficients.  From 150 to 350 a fresh prime's scan
    takes 0.13 to 0.17 us per unit of this."""
    def phi(n):
        out, d = n, 2
        while d * d <= n:
            if n % d == 0:
                out -= out // d
                while n % d == 0:
                    n //= d
            d += 1
        return out - out // n if n > 1 else out
    return (m - 1) * phi(m - 1) * m ** (2 / 3)


# Fresh primes in three classes by the cost of their scan: five of 150 to
# 180 ms, four of 80 to 95 ms and five of 55 to 65 ms.  Every batch scans all
# fourteen, because a sample of them moved a batch's cost by a tenth; the
# nine dearer ones lie beyond the p90, so the p90 falls among the last five.
_PRIME_CLASSES = [(950_000, 1_200_000), (540_000, 620_000), (400_000, 460_000)]
_FRESH_PRIMES = [m for m in range(151, 400, 2) if is_prime(m)
                 and any(lo <= _scan_cost(m) <= hi for lo, hi in _PRIME_CLASSES)]
# composites whose scan takes 15 to 50 ms
_COMPOSITES = [m for m in range(151, 223, 2) if not is_prime(m)]


def _balanced(rng, m):
    x = rng.choice([x for x in range(2, min(m, 60)) if gcd(x, m) == 1])
    return _task("balanced", ["balanced", str(x), str(m), "--mode", "both"], x=x, m=m)


def _balance_batch(rng, cycles=10):
    """Each of the ten cycles of ten tasks opens with fresh moduli, each
    paying a full character scan: one or two of the fresh primes and a
    composite.  Repeats on moduli seen earlier in the batch hit the witness
    cache, so the cache's working set grows through the batch.  Two rank
    reports and one search-primes follow."""
    primes = rng.sample(_FRESH_PRIMES, len(_FRESH_PRIMES))
    composites = rng.sample(_COMPOSITES, cycles)
    tasks, seen = [], []
    for i in range(cycles):
        fresh = primes[i::cycles] + [composites[i]]
        seen += fresh
        rest = [_balanced(rng, rng.choice(seen)) for _ in range(7 - len(fresh))]
        for p, q, r in rng.sample(_RANK_TRIPLES, 2):
            rest.append(_task("rank", ["rank", "-p", str(p), "-a", "1", "-q", str(q),
                                       "-r", str(r), "-n", str(rng.randint(0, 4))], p=p))
        p = rng.choice([3, 5, 7, 11, 13])
        rest.append(_task("search-primes", ["search-primes", "-p", str(p),
                                            "--count", str(rng.randint(1, 4))], p=p))
        rng.shuffle(rest)
        tasks += [_balanced(rng, m) for m in fresh] + rest
    return tasks


# -- entry point -------------------------------------------------------------------

_BATCHES = {"poly": _poly_batch, "curve": _curve_batch, "balance": _balance_batch}


def generate(workload: str, seed: int) -> list[dict]:
    """The task batch of a workload for a seed: same seed, same tasks."""
    return _BATCHES[workload](random.Random(f"{workload}:{seed}"))


def field_contexts(workload: str) -> list[tuple[int, int]]:
    """The (p, a) fields a workload's tasks run over (none for balance)."""
    return {"poly": [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2)],
            "curve": [(3, 1), (5, 1), (7, 1), (3, 2)],
            "balance": []}[workload]
