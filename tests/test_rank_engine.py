from math import gcd

import pytest

from kummerwit.base_algebra.intarith import is_prime
from kummerwit.characters import is_balanced, legendre_symbol
from kummerwit.errors import BadModulus, NotCoprime, SearchExhausted
from kummerwit.rank_engine import (BalanceRouter, find_q, find_r,
                                   rank_constancy_check, rank_formula)


def test_legendre_examples():
    assert legendre_symbol(3, 11) == 1
    assert legendre_symbol(3, 7) == -1
    assert legendre_symbol(7, 7) == 0
    with pytest.raises(BadModulus):
        legendre_symbol(1, 8)


def test_find_r_examples():
    assert find_r(3, 2) == [11, 23]
    assert find_r(5, 1) == [11]
    assert find_r(3, 0) == []
    with pytest.raises(ValueError):
        find_r(3, -1)
    # every returned r satisfies both defining conditions
    for r in find_r(7, 4):
        assert r % 4 == 3 and legendre_symbol(7, r) == 1 and r != 7


def test_find_q_examples():
    assert find_q(3, 11) == 7
    assert find_q(3, 23) == 5
    # derived by the modular-exponentiation oracle:
    # q = 3 fails (3/11) = 1, q = 7 passes both conditions
    assert legendre_symbol(5, 7) == -1 and legendre_symbol(7, 11) == -1
    assert find_q(5, 11) == 7
    for p, r in ((3, 11), (5, 11), (3, 23)):
        q = find_q(p, r)
        assert legendre_symbol(p, q) == -1 and legendre_symbol(q, r) == -1
    with pytest.raises(SearchExhausted):
        find_q(3, 11, ceiling=5)


def test_rank_formula_base_cases():
    rep = rank_formula(3, 1, 7, 11, 0)
    assert rep.rank == 1
    by_e = {d.e: d for d in rep.divisors}
    assert by_e[1].excluded and not by_e[7].excluded
    assert by_e[7].balanced and by_e[7].index == 1

    rep2 = rank_formula(3, 1, 7, 11, 2)
    assert rep2.rank == 1
    assert [d.e for d in rep2.divisors] == [1, 7, 11, 77, 121, 847]
    assert all(not d.balanced for d in rep2.divisors if d.e != 7)


def test_rank_formula_index_values():
    # index = phi(e)/ord(p^a mod e); at e = 7: ord(3) = 6, ord(9) = 3, ord(3^6) = 1
    assert rank_formula(3, 1, 7, 11, 0).rank == 1
    assert rank_formula(3, 2, 7, 11, 0).rank == 2
    assert rank_formula(3, 6, 7, 11, 0).rank == 6


def test_rank_errors():
    with pytest.raises(NotCoprime):
        rank_formula(3, 1, 3, 11, 0)  # q = p propagates the coprimality failure
    with pytest.raises(BadModulus):
        rank_formula(3, 1, 7, 7, 0)
    with pytest.raises(BadModulus):
        rank_formula(4, 1, 7, 11, 0)


def test_rank_monotone_in_a_along_divisibility():
    router = BalanceRouter()
    ranks = {a: rank_formula(3, a, 7, 11, 1, router).rank for a in (1, 2, 3, 6)}
    for a in (1, 2, 3):
        assert ranks[a] <= ranks[6]
    assert ranks[1] <= ranks[2] and ranks[1] <= ranks[3]


class OracleOnly:
    """Every balance decision by the coset count alone: no shortcut, no ladder."""

    def balanced(self, x, e):
        return is_balanced(x, e)


def test_rank_constancy_check():
    router = BalanceRouter()
    assert rank_constancy_check(3, 1, 7, 11, router) == (1, True, True)
    assert rank_constancy_check(3, 2, 7, 11, router) == (2, True, True)
    assert rank_constancy_check(3, 6, 7, 11) == (6, True, True)
    # (3/5) = -1, so 3 is balanced mod 5 and level 1 adds phi(5)/ord(3 mod 5) = 1
    assert [rank_formula(3, 1, 7, 5, n).rank for n in (0, 1)] == [1, 2]
    assert rank_constancy_check(3, 1, 7, 5) == (1, False, True)


def _levels_constant(p, q, r, n_max):
    """The level loop: the rank is the same at every level 0..n_max."""
    router = OracleOnly()
    ranks = [rank_formula(p, 1, q, r, n, router).rank for n in range(n_max + 1)]
    return all(v == ranks[0] for v in ranks)


def test_constancy_matches_level_loop_on_the_coset_count():
    """Two balance decisions give the level loop's verdict, up to the
    largest n with q*r^n <= 10^4, on every triple with q, r < 40; the loop
    decides every divisor by the coset count, with no ladder.  Each decision
    is the only balanced one somewhere, so neither can be dropped."""
    small = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    triples = only_qr = only_r = 0
    for p in (3, 5, 7, 11, 13):
        for q in small:
            for r in small:
                if len({p, q, r}) < 3:
                    continue
                n_max = 0
                while q * r ** (n_max + 1) <= 10 ** 4:
                    n_max += 1
                c, constant, bounded = rank_constancy_check(p, 1, q, r)
                assert constant == _levels_constant(p, q, r, n_max), (p, q, r)
                assert (c, bounded) == (rank_formula(p, 1, q, r, 0).rank, c <= q - 1)
                bal_r, bal_qr = is_balanced(p, r), is_balanced(p, q * r)
                only_qr += bal_qr and not bal_r
                only_r += bal_r and not bal_qr
                triples += 1
    assert (triples, only_qr, only_r) == (450, 20, 214)


def test_ladder_lemma_on_the_coset_count():
    """x unbalanced mod z gives x unbalanced mod y*z for every odd prime y
    dividing z: the lemma is_balanced_fast proves, checked without it."""
    checked = 0
    for z in range(3, 100, 2):
        for y in (y for y in range(3, z + 1, 2) if z % y == 0 and is_prime(y)):
            for x in range(1, 20):
                if gcd(x, z) == 1 and not is_balanced(x, z):
                    assert not is_balanced(x, y * z), (x, y, z)
                    checked += 1
    assert checked > 500


def test_fast_routing_equals_pure_oracle_for_small_divisors():
    # same rank whether balance is decided by the shortcut router or by the
    # character oracle alone, on tuples whose divisors stay below 200
    for p, a, q, r, n in ((3, 1, 5, 7, 1), (3, 1, 5, 11, 1),
                          (5, 1, 3, 7, 1), (3, 1, 13, 11, 1)):
        assert rank_formula(p, a, q, r, n).rank == \
            rank_formula(p, a, q, r, n, OracleOnly()).rank


def test_shared_router_matches_oracle_up_to_500():
    # one router across every odd m <= 500: its cache and the ladder's
    # decisions on z (twice at 225 and 441) must agree with the oracle
    router = BalanceRouter()
    for m in range(3, 501, 2):
        for x in range(1, m):
            if gcd(x, m) == 1:
                assert router.balanced(x, m) == is_balanced(x, m), (x, m)


def test_router_cache_and_goingup_propagation():
    router = BalanceRouter()
    rank_formula(3, 1, 7, 11, 4, router)
    # only the base composite 77 should have needed the full character scan
    assert router.oracle_calls == 1
    assert router.cache[(3 % 847, 847)] is False
    assert router.cache[(3 % 14641, 14641)] is False
