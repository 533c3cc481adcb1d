"""Small exact integer-arithmetic helpers (primality, factorization, orders).

Everything here is plain int arithmetic; no floats anywhere.
"""

from __future__ import annotations

import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24, strong-probable beyond."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are desk-sized)."""
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, k in factorint(n).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def multiplicative_order(x: int, m: int) -> int:
    """Order of x in (Z/m)^x; raises if gcd(x, m) != 1."""
    x %= m
    if math.gcd(x, m) != 1:
        raise ValueError(f"{x} is not a unit mod {m}")
    if m == 1:
        return 1
    order = euler_phi(m)
    for p in factorint(order):
        while order % p == 0 and pow(x, order // p, m) == 1:
            order //= p
    return order


def primes_from(start: int):
    """Yield primes >= start, ascending, forever."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1
