from math import gcd

import pytest

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


def test_rank_constancy_check():
    router = BalanceRouter()
    assert rank_constancy_check(3, 1, 7, 11, 4, router) == (1, True, True)
    assert rank_constancy_check(3, 2, 7, 11, 3, router) == (2, True, True)
    assert rank_constancy_check(3, 6, 7, 11, 2, router) == (6, True, True)


def test_fast_routing_equals_pure_oracle_for_small_divisors():
    # same rank whether balance is decided by the shortcut router or by the
    # character oracle alone, on tuples whose divisors stay below 200
    class OracleOnly:
        def balanced(self, x, e):
            return is_balanced(x, e)

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
