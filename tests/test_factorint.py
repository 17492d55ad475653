import math

import numpy as np
import pytest

from disclab.errors import DomainError, OutOfRangeError
from disclab import factorint as fi
from disclab import multfn as mf


def brute_spf(n):
    """Smallest prime factor of n >= 2 by trial division."""
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n


def assert_factors(n, fs):
    prod = 1
    for p, e in fs:
        assert fi.is_prime(p) and e >= 1, (n, fs)
        prod *= p**e
    assert prod == n
    assert [p for p, _ in fs] == sorted({p for p, _ in fs}), (n, fs)


def test_factor_reconstructs():
    for n in list(range(1, 2001)) + list(range(2001, 10**5 + 1, 97)):
        assert_factors(n, fi.factors_of(n))


def test_factor_known_values():
    assert fi.factors_of(999999) == ((3, 3), (7, 1), (11, 1), (13, 1), (37, 1))
    assert fi.factors_of(1) == ()
    assert fi.factors_of(2**19) == ((2, 19),)
    assert fi.factors_of(-12) == ((2, 2), (3, 1))
    fa = fi.as_factored(360)
    assert fi.factors_of(fa) is fa.factors


def test_factors_of_beyond_trial_division():
    # trial division stops at 10**4 and Brent's rho splits the rest: the
    # triple's batched gcd reaches n and is retried one step at a time, and
    # 10243**2 and 10141 * 10313 fail on the first seed and need a second
    p = 1000003
    for n, want in [
        (10**12 + 39, ((10**12 + 39, 1),)),  # prime
        (p * 1000033, ((p, 1), (1000033, 1))),
        (p**2, ((p, 2),)),
        (p**3, ((p, 3),)),
        (10007 * 10009 * 10037, ((10007, 1), (10009, 1), (10037, 1))),
        (10243**2, ((10243, 2),)),
        (10141 * 10313, ((10141, 1), (10313, 1))),
    ]:
        assert fi.factors_of(n) == want, n
        assert_factors(n, want)


def test_zero_has_no_factorization():
    for fn in (fi.phi, fi.divisors, fi.factors_of, fi.as_factored, mf.primes_model().h_of):
        with pytest.raises(DomainError):
            fn(0)


def test_spf_window_matches_direct():
    square = 1009**2
    for lo, hi in [(1, 500), (2, 500), (10**9 - 1000, 10**9), (square - 300, square + 1)]:
        win = fi.spf_window(lo, hi)
        assert len(win) == hi - lo and win.dtype == np.int64
        for i, n in enumerate(range(lo, hi)):
            if n == 1:
                assert win[i] == 1
                continue
            assert win[i] == brute_spf(n), n
            assert (win[i] == n) == fi.is_prime(n), n
    assert fi.spf_window(square - 300, square + 1)[-1] == 1009


def plain_sieve(limit):
    """Primes up to limit from one boolean array over [0, limit]."""
    if limit < 2:
        return []
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def test_prime_window_matches_is_prime():
    # the windows of test_spf_window_matches_direct, closed at hi - 1
    square = 1009**2
    for lo, hi in [(2, 499), (10**9 - 1000, 10**9 - 1), (square - 300, square)]:
        win = fi.prime_window(lo, hi)
        assert win.dtype == np.int64
        assert win.tolist() == [n for n in range(lo, hi + 1) if fi.is_prime(n)], (lo, hi)


def test_prime_window_edges():
    assert fi.prime_window(2, 2).tolist() == [2]
    assert fi.prime_window(2, 3).tolist() == [2, 3]
    assert fi.prime_window(3, 3).tolist() == [3]
    for n in (4, 9, 1009**2):
        assert fi.prime_window(n, n).tolist() == []
    assert fi.prime_window(1009, 1009).tolist() == [1009]
    empty = fi.prime_window(10, 9)
    assert empty.dtype == np.int64 and len(empty) == 0
    with pytest.raises(OutOfRangeError):
        fi.prime_window(1, 10)


def test_prime_window_odd_index_edges():
    # the bools index odd integers only, and 2 is added on its own: even and
    # odd lo, and hi and lo on either side of a sieving prime's square
    primes = plain_sieve(1009**2 + 1)
    for p in (2, 3, 5, 7, 31, 1009):
        square = p * p
        for hi in (square - 1, square, square + 1):
            for lo in {2, 3, 4, max(2, square - 1), square, square + 1}:
                want = [n for n in primes if lo <= n <= hi]
                assert fi.prime_window(lo, hi).tolist() == want, (lo, hi)


def test_iter_primes_matches_plain_sieve():
    for limit in (0, 1, 2, 3, 4, 1000, 31623):
        got = fi.iter_primes(limit)
        assert got == plain_sieve(limit), limit
        assert all(type(p) is int for p in got), limit


def test_phi_matches_gcd_count():
    def phi_brute(n):
        return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)

    for n in range(1, 301):
        assert fi.phi(n) == phi_brute(n)
        assert fi.phi(fi.as_factored(n)) == phi_brute(n)


def brute_kronecker_odd_prime(a, p):
    # count solutions of x^2 = a (mod p): 1 + (a|p)
    count = sum(1 for x in range(p) if (x * x - a) % p == 0)
    return count - 1


def test_kronecker_against_square_counts():
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