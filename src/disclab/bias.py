"""Predicted average discrepancies.

The central object is a closed form for the average bias of a sequence in
progressions a mod q: a Gamma-regularized power of log M times two local
products over the primes dividing a, times an Euler product over the
remaining primes up to P_trunc.  That product's factor (1 - h(p)/p) /
(1 - 1/p)^k is exactly 1 wherever h(p) = p (1 - (1 - 1/p)^k): at every prime
for primes (k = 0, h(p) = 0) and at every p >= y for rough(y) (k = 1,
h(p) = 1).  A model that lists its other primes in tail_primes has only those
visited; a model that lists none (a fractional k) is walked over every prime
up to P_trunc.  Family-specific front ends reproduce the five worked
predictions with their own normalizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad as _quad
from scipy.special import digamma as _digamma

from .errors import ConfigurationError, DomainError, ResourceError, UnsupportedError
from .factorint import as_factored, iter_primes, kronecker
from .ktuples import TWIN, KTuple, P_of, is_admissible, nu_H
from .multfn import SequenceModel, omega_h
from .quadform import BinaryQuadraticForm, r_d, rho_a
from . import sequences as sq


# Secondary constant for primes at a = +-1 (Fiorilli, "Residue classes
# containing an unexpected number of primes", Duke Math. J. 2012):
# mu(+-1, M) = -1/2 log M - C5 with
# C5 = 1/2 (log 2 pi + 1 + gamma + sum_p log p / (p (p - 1))).
C5 = 2.0852296710712832


@dataclass(frozen=True)
class BiasPrediction:
    """Leading term of a predicted average, with its bookkeeping.

    leading_value is the numeric prediction after the family's normalizer;
    logM_exponent records the power of log M it carries; zero marks the
    Gamma-pole (or otherwise vanishing) case.  secondary is the constant term
    that follows the leading one in the same normalization, or None where it
    has not been derived (everywhere except primes at a = +-1, where it is
    -C5).
    """

    leading_value: float
    logM_exponent: Fraction
    normalization: str
    conditional_on: str | None
    zero: bool
    tail_bound: float = 0.0
    secondary: float | None = None

    def __post_init__(self):
        if self.zero != (self.leading_value == 0.0):
            raise DomainError("zero flag inconsistent with leading_value")


def _require_generic(model: SequenceModel):
    if model.bad_primes:
        raise UnsupportedError(
            f"model {model.label} has bad primes {sorted(model.bad_primes)}; "
            "use predict_example for its family"
        )


def _local_diff(model: SequenceModel, p: int, f: int) -> Fraction:
    return model.h_pp(p, f) - model.h_pp(p, f + 1) / p


def _is_memory_prime(model: SequenceModel, p: int, f: int) -> bool:
    return f >= 1 and model.h_pp(p, f) == model.h_pp(p, f + 1) / p


def _euler_tail(model: SequenceModel, afac, P_trunc: int, acc):
    """acc times the Euler factors (1 - h(p)/p) / (1 - 1/p)^k over the primes
    p <= P_trunc that do not divide a, with the summed |log factor| over the
    last octave (P_trunc/2, P_trunc] as a proxy for the truncated tail.

    Exact (acc a Fraction) for integer k, float for fractional k.  Only the
    model's tail_primes are visited when it lists them; the factor is exactly
    1 at every other prime, so leaving those out changes no bit.
    """
    k = model.k
    integer_k = k.denominator == 1
    declared = model.h.tail_primes
    if declared is None:
        primes = iter_primes(P_trunc)
    else:
        primes = sorted(p for p in declared if p <= P_trunc)
    drift = 0.0
    for p in primes:
        if afac.value % p == 0:
            continue
        diff = 1 - model.h_pp(p, 1) / p
        base = Fraction(p - 1, p)
        if integer_k:
            factor = diff / base**k.numerator
            if factor == 1:
                continue
            fl = abs(math.log(float(factor)))
        else:
            factor = float(diff) / float(base) ** float(k)
            if factor == 1.0:
                continue
            fl = abs(math.log(factor))
        acc *= factor
        if 2 * p > P_trunc:
            drift += fl  # drift over the last octave, as a tail proxy
    return acc, drift


def mu_k(
    model: SequenceModel, a, M: float, P_trunc: int = 10**6
) -> BiasPrediction:
    """General closed form for the average bias at shift a and scale M.

    Exact rational arithmetic everywhere the density model is rational; the
    only floats are log p, log M, and Gamma at fractional arguments, so
    integer-density families reproduce their closed forms bit for bit.
    """
    _require_generic(model)
    if M <= 1:
        raise DomainError(f"M must be > 1, got {M}")
    if P_trunc < 10**3:
        raise ConfigurationError(f"P_trunc={P_trunc} too small")
    afac = as_factored(a)
    k = model.k
    omega = omega_h(model, afac)
    s = 2 - k - omega  # Gamma argument
    power = 1 - k - omega
    norm = "A(x)/M over q <= x/M (or A(x)/2M dyadic)"
    if k.denominator == 1 and s <= 0:
        return BiasPrediction(0.0, power, norm, None, True)

    rat = Fraction(-1, 2)
    log_primes: list[int] = []
    float_part = 1.0
    integer_k = k.denominator == 1
    for p, f in afac.factors:
        if _is_memory_prime(model, p, f):
            # geometric memory: this prime raises the order of the bias
            tower = 1 + sum(model.h_pp(p, j) for j in range(1, f + 1))
            base = Fraction(p - 1, p)
            if integer_k:
                rat *= tower * base ** (1 - k.numerator)
            else:
                rat *= tower
                float_part *= float(base) ** float(1 - k)
            log_primes.append(p)
        else:
            diff = _local_diff(model, p, f)
            base = Fraction(p - 1, p)
            if integer_k:
                rat *= diff / base**k.numerator
            else:
                rat *= diff
                float_part /= float(base) ** float(k)
    # remaining primes: the walk visits the model's tail_primes up to P_trunc
    # (every prime if it lists none); elsewhere h(p) = p (1 - (1 - 1/p)^k), so
    # the factor (1 - h(p)/p) / (1 - 1/p)^k is exactly 1
    if integer_k:
        rat, tail = _euler_tail(model, afac, P_trunc, rat)
        rat /= math.factorial(s.numerator - 1)  # Gamma at a positive integer
        value = float(rat)
    else:
        float_part, tail = _euler_tail(model, afac, P_trunc, float_part)
        value = float(rat) / math.gamma(float(s))
    for p in log_primes:
        value *= math.log(p)
    value *= float_part
    value *= math.log(M) ** float(power)
    return BiasPrediction(value, power, norm, None, value == 0.0, tail)


def mu_specialized(model: SequenceModel, a, M: float, P_trunc: int = 10**6) -> BiasPrediction:
    """Integer-density shortcuts: the three-case k=0 form, the single-product
    k=1 form, and the identically-zero k >= 2 form."""
    _require_generic(model)
    if M <= 1:
        raise DomainError(f"M must be > 1, got {M}")
    k = model.k
    if k.denominator != 1:
        raise UnsupportedError(f"density exponent {k} is not an integer; use mu_k")
    afac = as_factored(a)
    kn = k.numerator
    omega = omega_h(model, afac)
    norm = "A(x)/M over q <= x/M (or A(x)/2M dyadic)"
    if kn >= 2 or omega >= 2 - kn:
        return BiasPrediction(0.0, Fraction(1 - kn - omega), norm, None, True)

    def other_primes(skip: int | None) -> tuple[Fraction, float]:
        out = Fraction(1)
        for p, f in afac.factors:
            if p == skip or _is_memory_prime(model, p, f):
                continue
            out *= _local_diff(model, p, f) / Fraction(p - 1, p) ** kn
        return _euler_tail(model, afac, P_trunc, out)

    if kn == 0 and omega == 1:
        p0, f0 = next(
            (p, f) for p, f in afac.factors if _is_memory_prime(model, p, f)
        )
        tower = 1 + sum(model.h_pp(p0, j) for j in range(1, f0 + 1))
        rest, drift = other_primes(p0)
        rat = Fraction(-1, 2) * Fraction(p0 - 1, p0) * tower * rest
        value = float(rat)
        value *= math.log(p0)
        value *= math.log(M) ** 0.0
        return BiasPrediction(value, Fraction(0), norm, None, value == 0.0, drift)
    # remaining cases carry no memory prime: omega = 0 with k in {0, 1}
    rest, drift = other_primes(None)
    rat = Fraction(-1, 2) * rest
    value = float(rat)
    value *= math.log(M) ** float(1 - kn)
    return BiasPrediction(value, Fraction(1 - kn), norm, None, value == 0.0, drift)


def area_unit_region(form: BinaryQuadraticForm) -> float:
    """Area of {x, y >= 0 : Q(x,y) <= 1} by numeric integration."""
    alpha, beta, gamma = form.alpha, form.beta, form.gamma
    d = form.disc
    xmax = math.sqrt(4 * gamma / abs(d))

    def ylen(x: float) -> float:
        disc = d * x * x + 4 * gamma
        if disc <= 0:
            return 0.0
        root = math.sqrt(disc)
        yhi = (-beta * x + root) / (2 * gamma)
        ylo = (-beta * x - root) / (2 * gamma)
        return max(0.0, yhi - max(ylo, 0.0)) if yhi > 0 else 0.0

    val, _err = _quad(ylen, 0.0, xmax, limit=200)
    return val


def L_one_chi(d: int) -> float:
    """L(1, chi) for the quadratic character attached to discriminant d,
    evaluated by the finite digamma sum over one period (no truncation)."""
    if d >= 0:
        raise DomainError(f"need a negative discriminant, got {d}")
    P = 4 * abs(d)
    rs = np.arange(1, P + 1, dtype=np.float64)
    chi = np.array([kronecker(4 * d, r) for r in range(1, P + 1)], dtype=np.float64)
    if abs(chi.sum()) > 1e-12:
        raise DomainError(f"character mod {P} is principal; bad discriminant {d}")
    return float(-(chi * _digamma(rs / P)).sum() / P)


def _rough_density(y: int, x: int) -> float:
    """Exact count of y-rough n <= x, divided by x."""
    if x > 10**8:
        raise ResourceError(f"x={x} too large for an exact rough-density count")
    total = 0
    lo = 1
    while lo <= x:
        hi = min(lo + sq.MAX_WINDOW - 1, x)
        total += sq.count_A(sq.sieve(sq.Rough(y), lo, hi))
        lo = hi + 1
    return total / x


def predict_example(
    family: str,
    a: int,
    M: float,
    x: float | None = None,
    *,
    form: BinaryQuadraticForm | None = None,
    tuple: KTuple | None = None,
    y: int | None = None,
) -> BiasPrediction:
    """Closed-form prediction for one of the five worked families, stated in
    the family's own normalization."""
    if a == 0:
        raise DomainError("a must be nonzero")
    if M <= 1:
        raise DomainError(f"M must be > 1, got {M}")
    if family == "primes":
        norm = "1/((phi(a)/a)(x/M)); q <= x/M with gcd(q,a)=1"
        fac = as_factored(a).factors
        if abs(a) == 1:
            return BiasPrediction(
                -0.5 * math.log(M), Fraction(1), norm, None, False, secondary=-C5
            )
        if len(fac) == 1:
            return BiasPrediction(-0.5 * math.log(fac[0][0]), Fraction(0), norm, None, False)
        return BiasPrediction(0.0, Fraction(0), norm, None, True)

    if family == "quadform":
        if form is None:
            raise DomainError("quadform family needs form=")
        d = form.disc
        if math.gcd(a, 2 * d) != 1:
            raise DomainError(f"need gcd(a, 2d) = 1; a={a}, d={d}")
        norm = "1/(x/M); q <= x/M"
        C_Q = area_unit_region(form) / (2 * L_one_chi(d))
        rho = rho_a(form, a, 4 * abs(d))
        value = -C_Q * float(rho) * r_d(d, abs(a))
        if value == 0.0:
            value = 0.0  # normalize the sign of zero
        return BiasPrediction(value, Fraction(0), norm, None, value == 0.0)

    if family == "two_squares":
        if a % 4 != 1:
            raise DomainError(f"need a = 1 mod 4, got {a}")
        if x is None or x <= M:
            raise DomainError("two_squares prediction needs x > M")
        norm = "1/(x/2M); x/2M < q <= x/M"
        l_a = sum(
            1 for p, f in as_factored(a).factors if p % 4 == 3 and f % 2 == 1
        )
        if l_a > 0:
            # below the square-root-of-log order: leading term vanishes
            return BiasPrediction(0.0, Fraction(1, 2) - l_a, norm, None, True)
        value = -1 / (2 * math.pi) * math.sqrt(math.log(M) / math.log(x))
        return BiasPrediction(value, Fraction(1, 2), norm, None, False)

    if family in ("twin", "ktuple"):
        H = TWIN if family == "twin" else tuple
        if H is None:
            raise DomainError("ktuple family needs tuple=")
        if not is_admissible(H):
            raise DomainError(f"inadmissible tuple {H.label()}")
        P = P_of(a, H)
        if P == 0:
            raise DomainError("P(a;H) = 0: shift lands on a form root")
        norm = "1/((phi(P)/P)(x/2M)); x/2M < q <= x/M with gcd(q,P)=1"
        cond = "Hardy-Littlewood"
        fac = as_factored(P).factors
        omega = len(fac)
        k = H.k
        if omega > k:
            return BiasPrediction(0.0, Fraction(0), norm, cond, True)
        value = -1.0 / (2 * math.factorial(k - omega))
        for p, _ in fac:
            value *= (p - nu_H(H, p)) / (p - 1) * math.log(p)
        value *= math.log(M) ** (k - omega)
        return BiasPrediction(value, Fraction(k - omega), norm, cond, value == 0.0)

    if family == "rough":
        if y is None or y < 2:
            raise DomainError("rough family needs y >= 2")
        if x is None or x <= max(M, 16):
            raise DomainError("rough prediction needs x > max(M, 16)")
        norm = "1/((phi(a)/a)(x/2M)); x/2M < q <= x/M with gcd(q,a)=1"
        small = math.log(y) <= math.log(M) ** 0.4
        llx = math.log(math.log(math.log(x)))
        large = y >= math.log(x) ** llx and y <= math.sqrt(x)
        if small:
            if abs(a) == 1:
                return BiasPrediction(-0.5, Fraction(0), norm, None, False)
            return BiasPrediction(0.0, Fraction(0), norm, None, True)
        if large:
            dens = _rough_density(y, int(x))
            fac = as_factored(a).factors
            if abs(a) == 1:
                return BiasPrediction(dens * math.log(M), Fraction(1), norm, None, False)
            if len(fac) == 1:
                v = dens * math.log(fac[0][0])
                return BiasPrediction(v, Fraction(0), norm, None, False)
            return BiasPrediction(0.0, Fraction(0), norm, None, True)
        raise UnsupportedError(
            f"y={y} is in the intermediate range at M={M}, x={x}: no prediction"
        )

    raise DomainError(f"unknown family {family!r}")


def predict_s5(family: str, a: int, M: float, R: float) -> float:
    """Expected value of M * S5 (harness.s5_sums) for primes at a = +-1.

    Here g_a(q) = 1/phi(q).  The Dirichlet series of 1/phi is F(s + 1), with
    F(s) = sum n/phi(n) n^-s = zeta(s) zeta(s + 1) H(s), H(0) = 1, so that

        sum_{n <= T} n/phi(n) = A T - 1/2 log T - K + E(T),

    A = zeta(2) zeta(3) / zeta(6), E of mean zero, and K = 1/2 (log 2 pi +
    gamma + sum_p log p / (p (p - 1))) from the double pole at s = 0.  The
    smoothed sum is a Mellin integral against T^s / (s (s + 1)); its double
    poles at s = 0 and s = -1 give

        sum_{r <= T} (1 - r/T) / phi(r)
            = A log T + B - A + (1/2 log T + C5) / T + ...,   C5 = K + 1/2.

    In S5 = S_R - S_M - S_tail the A log and B terms cancel against the sharp
    tail over x/R < q <= x/M, which leaves

        M * S5 = -1/2 log M - C5 + (M/R) (1/2 log R + C5) + O(M R / x),

    that is leading + secondary + an R-truncation term.  The O(M R / x) part
    is not included.  Other families and shifts raise UnsupportedError: their
    secondary terms are not derived here.
    """
    if family != "primes" or abs(a) != 1:
        raise UnsupportedError(
            f"no M*S5 prediction for family {family!r} at a={a}; only primes at a = +-1"
        )
    if not 1 < M <= R:
        raise DomainError(f"need 1 < M <= R, got M={M}, R={R}")
    pred = predict_example(family, a, M)
    return pred.leading_value + pred.secondary + (M / R) * (0.5 * math.log(R) + C5)
