"""Integer factorization, the boolean prime-window sieve, multiplicative
basics, and the Kronecker symbol.

Factorizations are carried around as tuples of (prime, exponent) pairs so the
layers above can evaluate multiplicative functions without re-factoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRangeError, require_integers

Factorization = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FactoredInteger:
    """An integer together with its prime factorization (primes ascending)."""

    value: int
    factors: Factorization

    def __post_init__(self):
        n = 1
        for p, e in self.factors:
            n *= p**e
        if n != abs(self.value) or self.value == 0:
            raise ValueError(f"inconsistent factorization for {self.value}: {self.factors}")


def spf_window(lo: int, hi: int) -> np.ndarray:
    """Smallest prime factor for each n in [lo, hi), sieved by the primes up
    to sqrt(hi - 1).

    Entries equal to the element itself mark primes (or lo == 1).
    """
    if not (1 <= lo < hi):
        raise OutOfRangeError(f"bad window [{lo}, {hi})")
    out = np.zeros(hi - lo, dtype=np.int64)
    for p in iter_primes(math.isqrt(hi - 1)):
        start = ((lo + p - 1) // p) * p
        if start < p * p:
            start = p * p
        block = out[start - lo :: p]
        block[block == 0] = p
    vals = np.arange(lo, hi, dtype=np.int64)
    mask = out == 0
    out[mask] = vals[mask]
    return out


def prime_window(lo: int, hi: int) -> np.ndarray:
    """The primes in [lo, hi], lo >= 2, ascending as int64 (empty if hi < lo).

    One bool per odd integer marks the composites: each odd prime
    p <= isqrt(hi), itself sieved here, strikes its odd multiples from
    max(p*p, the first odd multiple of p >= lo), which sit p bools apart.
    The prime 2 is added on its own.
    """
    if lo < 2:
        raise OutOfRangeError(f"prime window needs lo >= 2, got {lo}")
    first = lo | 1  # the first odd integer >= lo, 2 * i + first at bool i
    composite = np.zeros(max((hi - first) // 2 + 1, 0), dtype=bool)
    sieving = prime_window(3, math.isqrt(hi)).tolist() if hi >= 9 else []
    for p in sieving:
        start = max(p * p, -(-first // p) * p)
        if start % 2 == 0:
            start += p
        composite[(start - first) // 2 :: p] = True
    odd = np.flatnonzero(~composite) * 2 + first
    return np.concatenate([np.array([2], dtype=np.int64), odd]) if lo == 2 <= hi else odd


def iter_primes(limit: int) -> list[int]:
    """Primes up to limit, as Python ints."""
    return prime_window(2, limit).tolist()


# deterministic Miller-Rabin bases valid for all n < 3.3 * 10**24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def _factor(n: int) -> Factorization:
    """The factorization of n >= 1: trial division, then Brent's rho."""
    counts = {}
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    p, bound = 7, 10**4
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    wi = 0
    while p <= bound and p * p <= m:
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
        p += wheel[wi]
        wi = (wi + 1) % 8
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        d = _brent_rho(v)
        stack.append(d)
        stack.append(v // d)
    return tuple(sorted(counts.items()))


def factors_of(n) -> Factorization:
    """The prime factorization of a FactoredInteger or of a nonzero
    integer's absolute value; a float is refused, not truncated."""
    if isinstance(n, FactoredInteger):
        return n.factors
    (n,) = require_integers(n=n)
    if n == 0:
        raise DomainError("expected a nonzero integer")
    return _factor(abs(n))


def as_factored(n) -> FactoredInteger:
    """Coerce a nonzero int (possibly negative) to a FactoredInteger."""
    if isinstance(n, FactoredInteger):
        return n
    return FactoredInteger(value=int(n), factors=factors_of(n))


def phi(n) -> int:
    """Euler totient from a factorization (or a plain integer)."""
    out = 1
    for p, e in factors_of(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def divisors(n) -> list:
    """All positive divisors, ascending."""
    ds = [1]
    for p, e in factors_of(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n.

    Extends the Jacobi symbol by (a|2), (a|-1), and (a|0) in the usual way.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        t = 0
        while n % 2 == 0:
            n //= 2
            t += 1
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0

