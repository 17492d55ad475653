"""Linear-form tuples: admissibility, local root counts, and the truncated
density constant.

A tuple H is a list of distinct forms L_i(n) = a_i*n + b_i with a_i >= 1.
nu(p) counts the residues x mod p killing the product of the forms, and the
density constant is the Euler product of (1 - nu(p)/p)(1 - 1/p)^(-k).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, DomainError, OutOfRangeError, require_integers
from .factorint import as_factored, factors_of, iter_primes


@dataclass(frozen=True)
class KTuple:
    """Distinct linear forms (a_i, b_i), a_i >= 1."""

    forms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.forms:
            raise DomainError("tuple needs at least one form")
        seen = set()
        for a, b in self.forms:
            require_integers(coefficient=a, offset=b)
            if a < 1:
                raise DomainError(f"form coefficient must be >= 1, got {a}")
            if (a, b) in seen:
                raise DomainError(f"duplicate form ({a}, {b})")
            seen.add((a, b))

    @property
    def k(self) -> int:
        return len(self.forms)

    def label(self) -> str:
        return ";".join(f"{a},{b}" for a, b in self.forms)


TWIN = KTuple(((1, 0), (1, 2)))


def parse_tuple(text: str) -> KTuple:
    """Parse "a1,b1;a2,b2;..." into a KTuple; each part is two integers."""
    forms = []
    for part in text.split(";"):
        try:
            a, b = map(int, part.split(","))
        except ValueError:
            raise DomainError(f"malformed tuple component {part!r}") from None
        forms.append((a, b))
    return KTuple(tuple(forms))


def P_of(n: int, H: KTuple) -> int:
    """Product of the forms at n; exact integer."""
    out = 1
    for a, b in H.forms:
        out *= a * n + b
    return out


def nu_H(H: KTuple, p: int) -> int:
    """#{x mod p : P(x;H) = 0 mod p} via the root set of each form."""
    if p < 2:
        raise DomainError(f"p must be prime, got {p}")
    roots = set()
    for a, b in H.forms:
        if a % p == 0:
            if b % p == 0:
                return p  # form vanishes identically mod p
            continue  # no root from this form
        roots.add((-b * pow(a, -1, p)) % p)
    return len(roots)


def nu_H_brute(H: KTuple, p: int) -> int:
    """Independent enumeration: p minus the count of x avoiding every form."""
    free = 0
    for x in range(p):
        if all((a * x + b) % p != 0 for a, b in H.forms):
            free += 1
    return p - free


def is_admissible(H: KTuple) -> bool:
    """True iff nu(p) < p for every prime p.

    Only p <= k can fail: with gcd(a_i, b_i) = 1 each form has at most one
    root mod p, so nu(p) <= k < p for p > k; a common factor of some
    (a_i, b_i) would instead force nu(p) = p at its prime divisors.
    """
    for a, b in H.forms:
        if math.gcd(a, b) != 1:
            return False
    for p in iter_primes(max(H.k, 2)):
        if p <= H.k and nu_H(H, p) >= p:
            return False
    return True


def deviating_primes(H: KTuple) -> list[int]:
    """The only primes where nu(p) can differ from k, in increasing order:
    those dividing some a_i or some resultant a_i*b_j - a_j*b_i (nonzero for
    an admissible tuple)."""
    pairs = itertools.combinations(H.forms, 2)
    values = [a for a, _ in H.forms] + [a * d - c * b for (a, b), (c, d) in pairs]
    return sorted({p for n in values for p, _ in as_factored(n).factors})


def singular_series(H: KTuple, P_max: int) -> tuple[float, float]:
    """Truncated density constant and a rigorous bound on the cut tail.

    Returns (value, tail_bound) with value = prod_{p <= P_max} of
    (1 - nu(p)/p)(1 - 1/p)^(-k) and |true - value| <= tail_bound.
    """
    if not is_admissible(H):
        raise DomainError(f"inadmissible tuple {H.label()}")
    k = H.k
    if P_max < max(100, 2 * k):
        raise ConfigurationError(f"P_max={P_max} too small; need >= max(100, 2k)")
    logs = []
    for p in iter_primes(P_max):
        nu = nu_H(H, p)
        logs.append(math.log1p(-nu / p) - k * math.log1p(-1 / p))
    value = math.exp(math.fsum(logs))
    # Tail: for p > P_max >= 2k with nu(p) = k the log-factor is
    # O(k^2/p^2); summed over p > P_max this is below k*k/P_max.  The
    # finitely many larger primes where nu(p) < k are all deviating primes;
    # each contributes at most 2k/p.
    tau = k * k / P_max
    for p in deviating_primes(H):
        if p > P_max:
            tau += 2 * k / p
    tail_bound = value * math.expm1(tau)
    return value, tail_bound


def modified_tuple(H: KTuple, q: int, a: int) -> KTuple:
    """Reindex n = q*m + a: forms become (q*a_i, a*a_i + b_i).

    Requires gcd(q, a*a_i + b_i) = 1 for every form, which guarantees the
    new tuple picks up no root at primes dividing q and keeps nu unchanged
    away from q and the leading coefficients.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if not is_admissible(H):
        raise DomainError(f"inadmissible tuple {H.label()}")
    new_forms = []
    for ai, bi in H.forms:
        c = ai * a + bi
        g = math.gcd(q, c)
        if g != 1:
            raise DomainError(f"gcd(q={q}, {ai}*{a}+{bi}={c}) = {g} != 1")
        new_forms.append((q * ai, c))
    out = KTuple(tuple(new_forms))
    assert is_admissible(out)
    return out


def gamma_H(H: KTuple, q: int) -> Fraction:
    """prod over p | q of (1 - nu(p)/p), exact."""
    if q < 1:
        raise OutOfRangeError(f"modulus must be positive, got {q}")
    out = Fraction(1)
    for p, _ in factors_of(q):
        out *= Fraction(p - nu_H(H, p), p)
    return out
