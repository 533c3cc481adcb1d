import itertools
import math
import random
from functools import lru_cache

import pytest

from kummerwit import characters
from kummerwit.characters import (Character, Cyclotomic, balance_witness,
                                  char_props, characters_enum,
                                  cyclotomic_polynomial, is_balanced,
                                  is_balanced_fast, legendre_symbol, unit_group)
from kummerwit.base_algebra.intarith import factorint, multiplicative_order
from kummerwit.errors import BadModulus, NotCoprime, WorkBound


def legendre_character(m):
    """The character k -> (k/m) for an odd prime m, found by value match."""
    for chi in characters_enum(m):
        if chi.is_principal():
            continue
        if all(chi.value_exponent(k * k % m) == 0 for k in range(1, m)):
            return chi
    raise AssertionError


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert min(cyclotomic_polynomial(105)) == -2


@lru_cache(maxsize=None)
def recursive_cyclotomic(n):
    """Phi_n as x^n - 1 exactly divided by every Phi_d, d a proper divisor."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = recursive_cyclotomic(d)
        out = [0] * (len(num) - len(den) + 1)
        for k in range(len(out) - 1, -1, -1):
            c, r = divmod(num[k + len(den) - 1], den[-1])
            assert r == 0
            out[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
        assert not any(num)
        num = out
    return tuple(num)


def int_poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_cyclotomic_polynomials_match_recursive_division():
    for n in range(1, 401):
        assert cyclotomic_polynomial(n) == recursive_cyclotomic(n), n


def test_cyclotomic_polynomials_multiply_to_binomial():
    for n in range(1, 201):
        total = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                total = int_poly_mul(total, cyclotomic_polynomial(d))
        assert total == [-1] + [0] * (n - 1) + [1], n


def test_cyclotomic_root_sums():
    # sum of all n-th roots of unity vanishes for n > 1
    for n in (2, 3, 6, 10, 12, 30):
        total = Cyclotomic.zero(n)
        for k in range(n):
            total = total + Cyclotomic.root_power(n, k)
        assert total.is_zero()
    # zeta_n^n = 1
    assert Cyclotomic.root_power(12, 12) == Cyclotomic.integer(12, 1)


def test_cyclotomic_add_refuses_mixed_conductors():
    """A sum of elements of different cyclotomic fields raises, under python
    -O too, rather than zipping coefficient tuples of different lengths."""
    with pytest.raises(ValueError, match="conductors 3 and 5 differ"):
        Cyclotomic.integer(3, 1) + Cyclotomic.root_power(5, 1)
    with pytest.raises(ValueError, match="conductors 12 and 6 differ"):
        Cyclotomic.zero(12) + Cyclotomic.zero(6)


@lru_cache(maxsize=None)
def power_reduction_table(n):
    """x^j mod Phi_n as integer vectors for 0 <= j < n, built one
    multiplication by x at a time, independently of the long division."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        lead = cur[deg - 1]
        cur = [0] + cur[:deg - 1]
        for i in range(deg):
            cur[i] -= lead * phi[i]
    return rows


def reduce_by_table(vec, n):
    table = power_reduction_table(n)
    acc = [0] * len(table[0])
    for j, c in enumerate(vec):
        if c:
            for i, r in enumerate(table[j % n]):
                acc[i] += c * r
    return tuple(acc)


def test_cyclotomic_remainder_matches_power_reduction_table():
    rng = random.Random(8)
    for n in range(1, 301):
        table = power_reduction_table(n)
        for k in range(2 * n):
            assert characters._cyclotomic_remainder([0] * k + [1], n) == table[k % n], (n, k)
        for _ in range(2):
            vec = [rng.randint(-9, 9) for _ in range(rng.randint(0, 2 * n))]
            assert characters._cyclotomic_remainder(vec, n) == reduce_by_table(vec, n), (n, vec)


def test_enumeration_counts():
    assert len(list(characters_enum(7))) == 6
    assert len(list(characters_enum(11))) == 10
    group8 = list(characters_enum(8))
    assert len(group8) == 4
    assert sorted(d for _, d in group8[0].gens) == [2, 2]  # C2 x C2
    assert next(iter(characters_enum(7))).is_principal()
    with pytest.raises(BadModulus):
        list(characters_enum(2))


def test_unit_group_verified_structure():
    """The structure theorem unit_group's docstring states, checked on every
    m below 2000: the dlog table's keys are the phi(m) units, every exponent
    tuple appears (so each once), and each generator has its stated order."""
    for m in range(3, 2000):
        gens, exponent, dlog = unit_group.__wrapped__(m)
        assert sorted(dlog) == [k for k in range(1, m) if math.gcd(k, m) == 1], m
        orders = [d for _, d in gens]
        assert sorted(dlog.values()) == sorted(itertools.product(*map(range, orders))), m
        assert all(multiplicative_order(g, m) == d for g, d in gens), m
        assert exponent == math.lcm(*orders)


def test_unit_group_cap_and_bounded_caches():
    with pytest.raises(WorkBound):
        unit_group(characters.UNIT_GROUP_MAX + 2)
    with pytest.raises(WorkBound):  # the witness list is built on the unit group
        characters._unbalanced_witness_exponents(10000019)
    for cache in (cyclotomic_polynomial, unit_group, characters._unbalanced_witness_exponents):
        assert cache.cache_info().maxsize >= 24  # the moduli of a perfbench balance batch


def test_character_multiplicativity_and_orthogonality():
    rng = random.Random(5)
    for m in (7, 8, 12, 15):
        units = [k for k in range(1, m) if math.gcd(k, m) == 1]
        for chi in characters_enum(m):
            lam = chi.order_lcm
            assert chi.value_exponent(1) == 0
            for _ in range(100):
                a, b = rng.choice(units), rng.choice(units)
                ea, eb, eab = (chi.value_exponent(v) for v in (a, b, a * b % m))
                assert eab == (ea + eb) % lam
            total = Cyclotomic.zero(lam)
            for k in range(m):
                total = total + chi.value(k) if math.gcd(k, m) == 1 else total
            assert total.is_zero() == (not chi.is_principal())


def test_char_props_worked_examples():
    principal = next(iter(characters_enum(7)))
    odd, _ = char_props(principal)
    assert not odd

    chi11 = legendre_character(11)
    odd, hs = char_props(chi11)
    assert odd
    assert hs.is_rational_integer() and not hs.is_zero()
    assert hs.coeffs[0] == 3  # 1 - 1 + 1 + 1 + 1 over the residues of 1..5

    odd13, _ = char_props(legendre_character(13))
    assert not odd13  # 13 = 1 mod 4


def test_oddness_matches_cyclotomic_evaluation():
    # independent route: chi(-1) materialized in the ring must equal -1
    for m in (7, 9, 11, 12, 15, 16):
        for chi in characters_enum(m):
            odd, _ = char_props(chi)
            val = chi.value(m - 1)
            minus_one = -Cyclotomic.integer(chi.order_lcm, 1)
            assert odd == (val == minus_one)


def test_legendre_half_sums_nonzero_up_to_100():
    for m in range(3, 101):
        if m % 4 == 3 and all(m % d for d in range(2, m)):
            odd, hs = char_props(legendre_character(m))
            assert odd
            assert hs.is_rational_integer() and not hs.is_zero()


def is_witness(chi):
    odd, half = char_props(chi)
    return odd and not half.is_zero()


def power_exps(chi, j):
    return tuple(j * e % d for e, (_, d) in zip(chi.exps, chi.gens))


def character_order(chi):
    return math.lcm(*(d // math.gcd(e, d) for e, (_, d) in zip(chi.exps, chi.gens)))


def lambda_wide_char_props(chi):
    """(odd, half sum) with the half sum accumulated in Z[zeta_lambda],
    lambda the group exponent, rather than in the character's own ring."""
    lam = chi.order_lcm
    counts = [0] * lam
    for k in range(1, (chi.m + 1) // 2):
        e = chi.value_exponent(k)
        if e is not None:
            counts[e] += 1
    return chi.value_exponent(chi.m - 1) == lam // 2 and lam % 2 == 0, reduce_by_table(counts, lam)


def test_char_props_matches_lambda_wide_half_sum():
    for m in list(range(3, 121)) + [215, 281, 283]:
        for chi in characters_enum(m):
            odd, half = char_props(chi)
            old_odd, old_half = lambda_wide_char_props(chi)
            d, lam = chi.order(), chi.order_lcm
            assert half.conductor == d and odd == chi.is_odd() == old_odd, (m, chi)
            # zeta_d -> zeta_lambda^(lambda/d) embeds Z[zeta_d] in Z[zeta_lambda]
            embedded = [0] * lam
            for i, c in enumerate(half.coeffs):
                embedded[i * (lam // d)] = c
            assert reduce_by_table(embedded, lam) == old_half, (m, chi)


def test_coset_count_and_witness_match_per_character_scan():
    # the first odd character with nonzero half sum and chi(x) = 1, from
    # is_witness alone, decides and names every coprime (x, m), m < 300
    for m in range(3, 300):
        odd = tuple(chi for chi in characters_enum(m) if chi.is_odd())
        assert characters._unbalanced_witness_exponents(m) == odd, m
        witnesses = [chi for chi in odd if is_witness(chi)]
        for x in range(1, m):
            if math.gcd(x, m) == 1:
                expected = next((chi for chi in witnesses if chi.value_exponent(x) == 0), None)
                assert is_balanced(x, m) == (expected is None), (x, m)
                assert balance_witness(x, m) == expected, (x, m)


def test_is_balanced_needs_no_characters(monkeypatch):
    def forbidden(*args):
        raise AssertionError("is_balanced built character machinery")

    monkeypatch.setattr(characters, "unit_group", forbidden)
    monkeypatch.setattr(characters, "char_props", forbidden)
    assert is_balanced(3, 5929) is False
    assert is_balanced(57, 355) is True
    assert is_balanced(65, 128) is True
    assert is_balanced(2, 1009) is True


def test_galois_conjugates_share_parity_and_half_sum_vanishing():
    for m in (11, 15, 16, 21, 35):
        by_exps = {chi.exps: chi for chi in characters_enum(m)}
        for chi in by_exps.values():
            odd, half = char_props(chi)
            order = character_order(chi)
            for j in range(1, order):
                if math.gcd(j, order) == 1:
                    odd_j, half_j = char_props(by_exps[power_exps(chi, j)])
                    assert (odd_j, half_j.is_zero()) == (odd, half.is_zero()), (m, chi, j)


def test_is_balanced_large_moduli():
    # 3 is not balanced mod 847 = 7 * 11^2 or mod 1331 = 11^3; the fast path
    # decides 1331 by descent to 11 and leaves 847 open
    for m in (847, 1331):
        assert is_balanced(3, m) is False
        assert is_balanced_fast(3, m) in (False, None)
    assert is_balanced_fast(3, 1331) is False


def test_is_balanced_worked_examples():
    assert is_balanced(3, 7) is True
    assert is_balanced(3, 11) is False
    assert is_balanced(3, 77) is False
    with pytest.raises(NotCoprime):
        is_balanced(3, 9)
    with pytest.raises(BadModulus):
        is_balanced(1, 2)
    w = balance_witness(3, 11)
    assert w is not None and char_props(w)[0]


def test_is_balanced_fast_worked_examples():
    assert is_balanced_fast(3, 7) is True
    assert is_balanced_fast(3, 11) is False
    assert is_balanced_fast(3, 35) is None
    assert is_balanced_fast(3, 121) is False
    with pytest.raises(NotCoprime):
        is_balanced_fast(5, 35)
    for m in (2, 1, 0, -7):
        with pytest.raises(BadModulus):
            is_balanced_fast(3, m)


def test_fast_oracle_agreement_small():
    for m in range(3, 41):
        for x in range(1, m):
            if x % 2 == 1 and math.gcd(x, m) == 1:
                fast = is_balanced_fast(x, m)
                if fast is not None:
                    assert fast == is_balanced(x, m), (x, m)


def test_going_up_spot_checks():
    # not balanced mod z propagates to y*z when the odd prime y divides z
    cases = [(3, 11, 11), (3, 11, 77), (7, 3, 9)]
    for x, y, z in cases:
        if math.gcd(x, y * z) != 1:
            continue
        if not is_balanced(x, z):
            assert not is_balanced(x, y * z)


def test_legendre_symbol():
    assert legendre_symbol(3, 11) == 1
    assert legendre_symbol(3, 7) == -1
    assert legendre_symbol(7, 7) == 0
    with pytest.raises(BadModulus):
        legendre_symbol(2, 9)


def test_unit_group_lift_matches_prime_power_branch():
    """One CRT lift: at m = p^k the formula gives g itself, as the former
    other == 1 branch did; elsewhere g mod p^k and 1 mod m/p^k."""
    for m in range(3, 2000):
        gens = unit_group(m)[0]
        comps = []
        for p, k in sorted(factorint(m).items()):
            pk = p ** k
            if p == 2 and k > 1:
                comps += [(4, 3, 2)] if k == 2 else [(pk, pk - 1, 2), (pk, 5, pk // 4)]
            elif p > 2:
                comps.append((pk, characters._primitive_root(p, k), pk - pk // p))
        old = [g % m if m == pk else (1 + m // pk * pow(m // pk, -1, pk) * (g - 1)) % m
               for pk, g, _ in comps]
        assert gens == tuple(zip(old, [order for *_, order in comps])), m
    for x in range(1, 20):  # m = 1 needs no case
        assert multiplicative_order(x, 1) == 1


def test_primitive_root_lifts_to_g_plus_p():
    """5, the least primitive root mod 40487, has order 40486 mod 40487^2, so
    the generator mod p^k is 5 + p; unit_group never reaches this branch."""
    p = 40487
    assert characters._primitive_root(p, 1) == 5
    assert multiplicative_order(5, p * p) == p - 1
    assert characters._primitive_root(p, 2) == 5 + p
    assert multiplicative_order(5 + p, p * p) == p * (p - 1)
