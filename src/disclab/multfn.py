"""Multiplicative densities for sequences in arithmetic progressions.

A sequence model is one SequenceModel: a prime-power function h with mean
value k, plus the finitely many "bad" primes where the h-recipe breaks.  The
progression density g_a(q) is multiplicative in q and depends on a only
through the exponents v_p(a).  At a good prime it follows from h through the
local difference h(p^f) - h(p^(f+1))/p (local_diff); at a bad prime it comes
from the model's own table g_bad, and gamma(p) is 1 there.  The Euler
products of bias walk only the model's tail_primes when it lists them.  All
arithmetic here is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ModelError
from .factorint import FactoredInteger, as_factored, factors_of, iter_primes
from . import quadform as qf


@dataclass(frozen=True)
class SequenceModel:
    """One density model, everything needed to evaluate g_a everywhere.

    h(p, e) gives h on prime powers, e >= 1 (h(1) = 1 by convention); k is
    its mean value; h_prime_vec(P) gives h(p) as floats on a float64 array
    of good primes, none dividing a, for the bulk sieves; P may also hold
    1, whose values are dropped.  At each of the bad_primes, g_a(p^e) is
    g_bad(p, e, a) with the signed a, and gamma(p) is 1.  tail_primes, when
    known, is the finite set of primes p at which the Euler factor
    (1 - h(p)/p) / (1 - 1/p)^k differs from 1; bias.mu_k walks only these.
    None means the factor may differ from 1 anywhere.
    """

    label: str
    h: Callable[[int, int], Fraction]
    k: Fraction
    h_prime_vec: Callable[[np.ndarray], np.ndarray]
    bad_primes: frozenset = frozenset()
    g_bad: Optional[Callable[[int, int, int], Fraction]] = None
    tail_primes: Optional[frozenset] = None

    def h_pp(self, p: int, e: int) -> Fraction:
        if e == 0:
            return Fraction(1)
        return self.h(p, e)

    def h_of(self, d) -> Fraction:
        """h(d) as a product over the prime powers of d."""
        out = Fraction(1)
        for p, e in factors_of(d):
            out *= self.h_pp(p, e)
        return out


def local_diff(model: SequenceModel, p: int, f: int) -> Fraction:
    """h(p^f) - h(p^(f+1))/p at a good prime p.  Zero at p^f || a marks a
    memory prime (omega_h); at f = 0 it is the 1 - h(p)/p of the Euler
    products."""
    return model.h_pp(p, f) - model.h_pp(p, f + 1) / p


def g_local(model: SequenceModel, p: int, e: int, a) -> Fraction:
    """g_a(p^e): the local progression density at one prime power."""
    if e == 0:
        return Fraction(1)
    if p in model.bad_primes:
        if model.g_bad is None:
            raise ModelError(f"model {model.label} has no table for bad prime {p}")
        a_val = a.value if isinstance(a, FactoredInteger) else int(a)
        return model.g_bad(p, e, a_val)
    f = dict(factors_of(a)).get(p, 0)
    if e <= f:
        return model.h_pp(p, e) / p**e
    return local_diff(model, p, f) / (p ** (e - 1) * (p - 1))


def g_a(model: SequenceModel, a, q) -> Fraction:
    """Density of the sequence in the class a mod q, relative to its full count.

    Multiplicative over the prime powers of q; for negative a the class is
    taken through |a|'s exponents (the residue class determines the answer at
    good primes, and bad-prime tables receive the signed a).
    """
    a = as_factored(a)
    out = Fraction(1)
    for p, e in factors_of(q):
        out *= g_local(model, p, e, a)
        if out == 0:
            return out
    return out


def gamma_local(model: SequenceModel, p: int) -> Fraction:
    if p in model.bad_primes:
        return Fraction(1)
    hp = model.h_pp(p, 1)
    if hp >= p:
        raise ModelError(f"model {model.label} needs h(p) < p; h({p}) = {hp}")
    return Fraction(p - 1, p) / (1 - hp / p)


def gamma_q(model: SequenceModel, q) -> Fraction:
    """gamma(q) = prod over distinct p | q of (1 - 1/p)/(1 - h(p)/p), with
    factor 1 at the bad primes."""
    out = Fraction(1)
    for p, _e in factors_of(q):
        out *= gamma_local(model, p)
    return out


def f_a(model: SequenceModel, a, q) -> Fraction:
    """f_a(q) = g_a(q) * q * gamma(q); equals 1 for gcd(a, q) = 1 at good primes."""
    qv = q.value if isinstance(q, FactoredInteger) else int(q)
    return g_a(model, a, q) * qv * gamma_q(model, q)


def omega_h(model: SequenceModel, a) -> int:
    """Number of p^f || a (f >= 1, p good) with local_diff(p, f) = 0."""
    count = 0
    for p, f in factors_of(a):
        if p not in model.bad_primes and local_diff(model, p, f) == 0:
            count += 1
    return count


# ----------------------------------------------------------------------------
# concrete models

# largest roughness bound whose tail primes rough_model lists
_TAIL_SET_MAX = 10**6


def primes_model() -> SequenceModel:
    """Von Mangoldt weights: h(1) = 1 and h vanishes on higher prime powers."""

    def h(p, e):
        return Fraction(0)

    # k = 0 and h(p) = 0: every Euler factor is exactly 1
    return SequenceModel(
        "primes", h, Fraction(0), lambda P: np.zeros(len(P)), tail_primes=frozenset()
    )


def _two_squares_g2(p: int, e: int, a: int) -> Fraction:
    """Density table at p = 2 for the sum-of-two-squares indicator.

    Write a = 2^f * a'.  Mass splits by the exact power of 2 and, above that,
    only classes with a' = 1 (mod 4) are hit, uniformly.
    """
    assert p == 2
    f = 0
    aa = abs(a)
    while aa % 2 == 0:
        aa //= 2
        f += 1
    a_odd = a >> f if a > 0 else -((-a) >> f)
    if e <= f + 1:
        return Fraction(1, 2**e)
    if a_odd % 4 == 1:
        return Fraction(1, 2 ** (e - 1))
    return Fraction(0)


def two_squares_model() -> SequenceModel:
    """Indicator of n = x^2 + y^2; the prime 2 needs its own density table."""

    def h(p, e):
        if p == 2:
            return Fraction(1)
        if p % 4 == 3 and e % 2 == 1:
            return Fraction(1, p)
        return Fraction(1)

    return SequenceModel(
        "two_squares",
        h,
        Fraction(1, 2),
        lambda P: np.where(P.astype(np.int64) % 4 == 1, 1.0, 1.0 / P),  # float % is slow
        bad_primes=frozenset({2}),
        g_bad=_two_squares_g2,
    )


def rough_model(y: int) -> SequenceModel:
    """Indicator of integers free of prime factors below y."""
    if y < 2:
        raise DomainError(f"roughness bound must be >= 2, got {y}")

    def h(p, e):
        return Fraction(1) if p >= y else Fraction(0)

    # k = 1: the Euler factor is p/(p - 1) below y and exactly 1 from y on.
    # Past _TAIL_SET_MAX (the default P_trunc of bias.mu_k) the set holds
    # every prime the default walk visits: it would save nothing and cost
    # memory growing with y.
    tail = frozenset(iter_primes(y - 1)) if y <= _TAIL_SET_MAX else None
    return SequenceModel(
        f"rough_{y}", h, Fraction(1), lambda P: np.where(P >= y, 1.0, 0.0), tail_primes=tail
    )


def quadform_model(form: qf.BinaryQuadraticForm) -> SequenceModel:
    """Values of a positive definite form counted with multiplicity.

    Good-prime h follows the character chi = (4*disc | .); primes dividing
    2*disc take their densities from the closed-form solution counts.
    """
    d = form.disc
    bad = frozenset(p for p, _ in factors_of(2 * d))

    def h(p, e):
        if p in bad:
            raise DomainError(f"h undefined at bad prime {p} for form {form}")
        chi = form.chi(p)
        if chi == 1:
            return Fraction(e + 1) - Fraction(e, p)
        return Fraction(1, p) if e % 2 == 1 else Fraction(1)

    def g_bad(p, e, a):
        return Fraction(qf.Ra_closed_pp(form, a, p, e), p ** (2 * e))

    period = 4 * abs(d)
    chi_table = np.array([qf.kronecker(4 * d, r) for r in range(period)], dtype=np.int64)

    def h_vec(P):
        chi = chi_table[P.astype(np.int64) % period]
        return np.where(chi == 1, 2.0 - 1.0 / P, 1.0 / P)

    return SequenceModel(
        f"quadform_{form.label()}", h, Fraction(1), h_vec, bad_primes=bad, g_bad=g_bad
    )
