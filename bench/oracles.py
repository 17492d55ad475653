"""Independent arithmetic for the benchmark's correctness checks.

Nothing here imports disclab: the sieves, totients, divisor-switched sums and
local densities are written from their definitions so that a fault in the
program cannot also hide in its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def primes_upto(n: int) -> np.ndarray:
    """Primes p <= n by the sieve of Eratosthenes."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    composite = np.zeros(n + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(n) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite).astype(np.int64)


def von_mangoldt(n: int) -> np.ndarray:
    """w[m] = log p when m is a power of the prime p, else 0, for 0 <= m <= n."""
    w = np.zeros(n + 1, dtype=np.float64)
    ps = primes_upto(n)
    w[ps] = np.log(ps.astype(np.float64))
    for p in ps[ps <= math.isqrt(n)].tolist():
        pk = p * p
        while pk <= n:
            w[pk] = math.log(p)
            pk *= p
    return w


def two_squares(n: int) -> np.ndarray:
    """w[m] = 1 when m = u^2 + v^2 with integers u, v, else 0; w[0] = 0."""
    w = np.zeros(n + 1, dtype=np.int64)
    for u in range(math.isqrt(n) + 1):
        v = np.arange(u, math.isqrt(n - u * u) + 1, dtype=np.int64)
        w[u * u + v * v] = 1
    w[0] = 0
    return w


def twin_weights(n: int) -> np.ndarray:
    """w[m] = Lambda(m) Lambda(m + 2) for 0 <= m <= n."""
    lam = von_mangoldt(n + 2)
    return lam[: n + 1] * lam[2:]


def totients(n: int) -> np.ndarray:
    """phi[m] for 0 <= m <= n (phi[0] = 0)."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in primes_upto(n).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def totients_range(lo: int, hi: int) -> np.ndarray:
    """phi(m) for lo <= m <= hi, by dividing out every prime up to sqrt(hi);
    what is left above 1 is one prime factor."""
    phi = np.arange(lo, hi + 1, dtype=np.int64)
    rest = phi.copy()
    for p in primes_upto(math.isqrt(hi)).tolist():
        first = (-lo) % p
        phi[first::p] -= phi[first::p] // p
        multiples = rest[first::p]
        while True:
            divisible = multiples % p == 0
            if not divisible.any():
                break
            multiples[divisible] //= p
    big = rest > 1
    phi[big] -= phi[big] // rest[big]
    return phi


def progression_total(w: np.ndarray, a: int, q_lo: int, q_hi: int, keep=None):
    """Sum over moduli q in [q_lo, q_hi] (with keep[q - q_lo] true) of the
    weights w[n], 1 <= n < len(w), with n = a mod q.

    Moduli up to sqrt(x) are summed one progression at a time; larger ones
    are regrouped by the cofactor r of n = a + q r, so each r is one strided
    slice over all the large moduli at once.  Integer weights give an exact
    int; float weights an fsum of per-slice sums.  Needs |a| < sqrt(x).
    """
    x = len(w) - 1
    root = math.isqrt(x)
    if abs(a) >= root:
        raise ValueError(f"|a| = {abs(a)} must stay below sqrt(x) = {root}")
    integer = np.issubdtype(w.dtype, np.integer)
    mask = np.ones(q_hi - q_lo + 1, dtype=bool) if keep is None else np.asarray(keep, bool)
    parts = []
    for q in range(q_lo, min(q_hi, root) + 1):
        if mask[q - q_lo]:
            parts.append(w[a % q or q :: q].sum())
    lo = max(q_lo, root + 1)
    if lo <= q_hi:
        big = mask[lo - q_lo :]
        if a > 0:
            # r = 0: n = a itself lies in a mod q for every q > a
            parts.append(w[a] * int(big.sum()))
        r = 1
        while True:
            top = min(q_hi, (x - a) // r)
            if top < lo:
                break
            seg = w[a + r * lo : a + r * top + 1 : r]
            parts.append(seg[big[: top - lo + 1]].sum())
            r += 1
    if integer:
        return sum(int(v) for v in parts)
    return math.fsum(float(v) for v in parts)


def coprime_mask(base: int, q_lo: int, q_hi: int) -> np.ndarray:
    """keep[q - q_lo] = gcd(q, base) == 1."""
    qs = np.arange(q_lo, q_hi + 1, dtype=np.int64)
    return np.gcd(qs, abs(base)) == 1


# ----------------------------------------------------------------------------
# local densities, from each model's definition


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _vp(n: int, p: int) -> int:
    n, e = abs(n), 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def two_squares_density(a: int, q: int) -> Fraction:
    """Share of the sums of two squares that lie in a mod q (a odd, a > 0).

    At an odd prime p the indicator has h(p^e) = 1/p for p = 3 mod 4 and e
    odd, else 1; with f = v_p(a), a class mod p^e takes h(p^e)/p^e when
    e <= f and (h(p^f) - h(p^(f+1))/p) / (p^(e-1)(p-1)) above.  At 2, the
    classes 1 mod 4 of the odd part carry all the mass above 2^(f+1).
    """

    def h(p, e):
        return Fraction(1, p) if p % 4 == 3 and e % 2 == 1 else Fraction(1)

    out = Fraction(1)
    for p, e in factorize(q):
        f = _vp(a, p)
        if p == 2:
            odd = a // 2**f
            if e <= f + 1:
                out *= Fraction(1, 2**e)
            else:
                out *= Fraction(1, 2 ** (e - 1)) if odd % 4 == 1 else 0
        elif e <= f:
            out *= h(p, e) / p**e
        else:
            out *= (h(p, f) - h(p, f + 1) / p) / (p ** (e - 1) * (p - 1))
    return out


def twin_density(q: int) -> Fraction:
    """1/(q gamma(q)) for the pair {n, n + 2}: gamma(q) is the product over
    p | q of (1 - nu(p)/p), nu(p) the number of roots of n(n + 2) mod p."""
    out = Fraction(1, q)
    for p, _ in factorize(q):
        nu = len({0, (-2) % p})
        out /= Fraction(p - nu, p)
    return out


# ----------------------------------------------------------------------------
# constants


def c5(p_max: int) -> tuple[float, float]:
    """C5 = 1/2 (log 2 pi + 1 + gamma + sum_p log p / (p (p - 1))) from the
    prime sum up to p_max, and a bound on the part of the sum cut off."""
    ps = primes_upto(p_max).astype(np.float64)
    prime_sum = math.fsum((np.log(ps) / (ps * (ps - 1))).tolist())
    value = 0.5 * (math.log(2 * math.pi) + 1 + float(np.euler_gamma) + prime_sum)
    return value, (math.log(p_max) + 1) / (p_max - 1)
