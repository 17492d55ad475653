import math

import numpy as np
import pytest

from disclab.errors import ConfigurationError, DomainError, OutOfRangeError
from disclab import factorint as fi
from disclab import multfn as mf


@pytest.fixture(scope="module")
def tables():
    return fi.build_tables(10**6)


def brute_spf(n):
    for p in range(2, n + 1):
        if n % p == 0:
            return p
    return n


def test_spf_small_examples(tables):
    assert int(tables.spf[2]) == 2
    assert int(tables.spf[91]) == 7
    assert int(tables.spf[97]) == 97
    assert int(tables.spf[999983]) == 999983  # prime near the table edge


def test_spf_agrees_with_trial_division(tables):
    for n in range(2, 10**4 + 1):
        assert int(tables.spf[n]) == brute_spf(n)


def test_factor_reconstructs(tables):
    for n in range(1, 10**5 + 1, 97):
        fa = fi.factor(n, tables)
        prod = 1
        for p, e in fa.factors:
            prod *= p**e
        assert prod == n
    # exhaustive on a smaller range
    for n in range(1, 2001):
        fa = fi.factor(n, tables)
        prod = 1
        for p, e in fa.factors:
            prod *= p**e
        assert prod == n
        assert all(fi.is_prime(p) for p, _ in fa.factors)


def test_factor_known_values(tables):
    assert fi.factor(999999, tables).factors == ((3, 3), (7, 1), (11, 1), (13, 1), (37, 1))
    assert fi.factor(1, tables).factors == ()
    assert fi.factor(2**19, tables).factors == ((2, 19),)


def test_factor_out_of_range(tables):
    with pytest.raises(OutOfRangeError):
        fi.factor(0, tables)
    with pytest.raises(OutOfRangeError):
        fi.factor(tables.limit + 1, tables)


def test_zero_has_no_factorization():
    # factor(0, tables) above is a table lookup out of range; these take any
    # integer and refuse 0 as outside their domain
    for fn in (fi.phi, fi.divisors, fi.omega, fi.moebius, fi.as_factored,
               mf.primes_model().h_of):
        with pytest.raises(DomainError):
            fn(0)


def test_build_tables_limit_validation():
    with pytest.raises(ConfigurationError):
        fi.build_tables(1)
    with pytest.raises(ConfigurationError):
        fi.build_tables(fi.MAX_TABLE_LIMIT + 1)


def test_spf_window_matches_direct(tables):
    lo, hi = 999000, 1000000
    win = fi.spf_window(lo, hi)
    assert np.array_equal(win, tables.spf[lo:hi].astype(np.int64))
    win2 = fi.spf_window(1, 500)
    for i, n in enumerate(range(1, 500)):
        assert win2[i] == (1 if n == 1 else brute_spf(n))


def test_factor_general_beyond_table(tables):
    n = 10**12 + 39  # 93199 * 10729961
    fa = fi.factor_general(n, tables)
    prod = 1
    for p, e in fa.factors:
        prod *= p**e
        assert fi.is_prime(p)
    assert prod == n
    semiprime = 1000003 * 1000033
    fa2 = fi.factor_general(semiprime)
    assert fa2.factors == ((1000003, 1), (1000033, 1))


def test_phi_moebius_omega(tables):
    def phi_brute(n):
        return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)

    for n in range(1, 301):
        fa = fi.factor(n, tables)
        assert fi.phi(fa) == phi_brute(n)
    assert fi.moebius(fi.factor(30, tables)) == -1
    assert fi.moebius(fi.factor(12, tables)) == 0
    assert fi.moebius(fi.factor(1, tables)) == 1
    assert fi.omega(fi.factor(360, tables)) == 3
    # moebius * identity convolution: sum_{d|n} mu(d) = [n == 1]
    for n in range(1, 200):
        total = sum(fi.moebius(fi.factor(d, tables)) for d in fi.divisors(n))
        assert total == (1 if n == 1 else 0)


def brute_kronecker_odd_prime(a, p):
    # count solutions of x^2 = a (mod p): 1 + (a|p)
    count = sum(1 for x in range(p) if (x * x - a) % p == 0)
    return count - 1


def test_kronecker_against_square_counts(tables):
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29]:
        for a in range(-30, 31):
            assert fi.kronecker(a, p) == brute_kronecker_odd_prime(a, p)


def test_kronecker_special_values():
    assert all(fi.kronecker(a, 1) == 1 for a in range(-20, 21))
    assert fi.kronecker(1, 0) == 1 and fi.kronecker(-1, 0) == 1 and fi.kronecker(5, 0) == 0
    # (a|2) by the mod-8 rule
    for a, want in [(1, 1), (3, -1), (5, -1), (7, 1), (9, 1), (2, 0)]:
        assert fi.kronecker(a, 2) == want
    # multiplicativity in the bottom argument
    for a in range(-15, 16):
        for m in range(1, 20):
            for n in range(1, 20):
                assert fi.kronecker(a, m * n) == fi.kronecker(a, m) * fi.kronecker(a, n)


def test_kronecker_negative_bottom():
    for a in range(-25, 26):
        if a == 0:
            continue
        sign = 1 if a > 0 else -1
        for n in range(1, 30):
            assert fi.kronecker(a, -n) == sign * fi.kronecker(a, n)


def test_kronecker_chi_d_is_periodic():
    # (4d | .) for d = -4 is the nontrivial character mod 4
    for n in range(1, 100, 2):
        want = 1 if n % 4 == 1 else -1
        assert fi.kronecker(-16, n) == want