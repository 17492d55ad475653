"""Predicted average discrepancies.

The central object is a closed form for the average bias of a sequence in
progressions a mod q: a Gamma-regularized power of log M times two local
products over the primes dividing a, times an Euler product over the
remaining primes up to P_trunc.  That product's factor (1 - h(p)/p) /
(1 - 1/p)^k is exactly 1 wherever h(p) = p (1 - (1 - 1/p)^k): at every prime
for primes (k = 0, h(p) = 0) and at every p >= y for rough(y) (k = 1,
h(p) = 1).  A model that lists its other primes in tail_primes has only those
visited; a model that lists none (a fractional k) is walked over every prime
up to P_trunc.  Each family's predict (sequences) states its worked
prediction with its own normalizer, from the constants and closed forms here;
predict_example reaches it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, DomainError, UnsupportedError, require_integers
from .factorint import as_factored, iter_primes, kronecker
from .multfn import SequenceModel, local_diff, omega_h
from .quadform import BinaryQuadraticForm
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


def _require_generic(model: SequenceModel, a, M: float, P_trunc: int):
    """The refusals mu_k and mu_specialized share, made before any work."""
    if model.bad_primes:
        raise UnsupportedError(
            f"model {model.label} has bad primes {sorted(model.bad_primes)}; "
            "use its family's predict"
        )
    if not (math.isfinite(M) and M > 1):
        raise DomainError(f"M must be finite and > 1, got {M}")
    if P_trunc < 10**3:
        raise ConfigurationError(f"P_trunc={P_trunc} too small")
    if a == 0:
        raise DomainError("a must be nonzero")


def _euler_tail(model: SequenceModel, afac, P_trunc: int, acc):
    """acc times the Euler factors (1 - h(p)/p) / (1 - 1/p)^k over the primes
    p <= P_trunc that do not divide a, with the summed |log factor| over the
    last octave (P_trunc/2, P_trunc] as a proxy for the truncated tail.

    Exact (acc a Fraction) for integer k, float for fractional k.  Only the
    model's tail_primes are visited when it lists them; the factor is exactly
    1 at every other prime, so leaving those out changes no bit.
    """
    k = model.k
    # the power of (p - 1)/p, exact for integer k; for fractional k a float,
    # by which a Fraction divides as float(diff) / power
    if k.denominator == 1:
        power = lambda base: base**k.numerator
    else:
        power = lambda base: float(base) ** float(k)
    declared = model.tail_primes
    if declared is None:
        primes = iter_primes(P_trunc)
    else:
        primes = sorted(p for p in declared if p <= P_trunc)
    drift = 0.0
    for p in primes:
        if afac.value % p == 0:
            continue
        factor = local_diff(model, p, 0) / power(Fraction(p - 1, p))
        if factor == 1:
            continue
        acc *= factor
        if 2 * p > P_trunc:
            drift += abs(math.log(factor))  # drift over the last octave, as a tail proxy
    return acc, drift


def mu_k(
    model: SequenceModel, a, M: float, P_trunc: int = 10**6
) -> BiasPrediction:
    """General closed form for the average bias at shift a and scale M.

    Exact rational arithmetic everywhere the density model is rational; the
    only floats are log p, log M, and Gamma at fractional arguments, so
    integer-density families reproduce their closed forms bit for bit.
    """
    _require_generic(model, a, M, P_trunc)
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
        diff = local_diff(model, p, f)
        base = Fraction(p - 1, p)
        if diff == 0:
            # geometric memory: this prime raises the order of the bias
            tower = 1 + sum(model.h_pp(p, j) for j in range(1, f + 1))
            if integer_k:
                rat *= tower * base ** (1 - k.numerator)
            else:
                rat *= tower
                float_part *= float(base) ** float(1 - k)
            log_primes.append(p)
        else:
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
    _require_generic(model, a, M, P_trunc)
    k = model.k
    if k.denominator != 1:
        raise UnsupportedError(f"density exponent {k} is not an integer; use mu_k")
    afac = as_factored(a)
    kn = k.numerator
    omega = omega_h(model, afac)
    norm = "A(x)/M over q <= x/M (or A(x)/2M dyadic)"
    if kn >= 2 or omega >= 2 - kn:
        return BiasPrediction(0.0, Fraction(1 - kn - omega), norm, None, True)

    # the product over the primes of a that carry no memory, then the tail
    rest = Fraction(1)
    for p, f in afac.factors:
        diff = local_diff(model, p, f)
        if diff != 0:
            rest *= diff / Fraction(p - 1, p) ** kn
    rest, drift = _euler_tail(model, afac, P_trunc, rest)
    if kn == 0 and omega == 1:
        p0, f0 = next(
            (p, f) for p, f in afac.factors if local_diff(model, p, f) == 0
        )
        tower = 1 + sum(model.h_pp(p0, j) for j in range(1, f0 + 1))
        rat = Fraction(-1, 2) * Fraction(p0 - 1, p0) * tower * rest
        value = float(rat)
        value *= math.log(p0)
        value *= math.log(M) ** 0.0
        return BiasPrediction(value, Fraction(0), norm, None, value == 0.0, drift)
    # remaining cases carry no memory prime: omega = 0 with k in {0, 1}
    rat = Fraction(-1, 2) * rest
    value = float(rat)
    value *= math.log(M) ** float(1 - kn)
    return BiasPrediction(value, Fraction(1 - kn), norm, None, value == 0.0, drift)


def area_unit_region(form: BinaryQuadraticForm) -> float:
    """Area of {x, y >= 0 : Q(x,y) <= 1}, in closed form.

    In polar coordinates the area is 1/2 int_0^{pi/2} dtheta / Q(cos, sin);
    t = tan theta turns it into 1/2 int_0^inf dt / (alpha + beta t + gamma t^2)
    = (pi/2 - atan(beta / sqrt D)) / sqrt D with D = 4 alpha gamma - beta^2 =
    -disc.  atan2(sqrt D, beta) is that numerator without the cancellation
    at large beta.
    """
    root = math.sqrt(-form.disc)
    return math.atan2(root, form.beta) / root


def L_one_chi(d: int) -> float:
    """L(1, chi) for the quadratic character chi = kronecker(4d, .) mod
    P = 4|d|, in closed form.

    Gauss's digamma theorem, L(1, chi) = -1/P sum_r chi(r) psi(r/P), folds
    for an odd character (d < 0) by psi(1 - x) - psi(x) = pi cot(pi x) into
    the half period (pi/P) sum_{1 <= r < P/2} chi(r) cot(pi r/P), with no
    truncation.
    """
    if d >= 0:
        raise DomainError(f"need a negative discriminant, got {d}")
    P = 4 * abs(d)
    chi = [kronecker(4 * d, r) for r in range(P)]
    if sum(chi) != 0:
        raise DomainError(f"character mod {P} is principal; bad discriminant {d}")
    terms = (
        c * math.cos(math.pi * r / P) / math.sin(math.pi * r / P)
        for r, c in enumerate(chi[: P // 2])
        if c
    )
    return math.pi / P * math.fsum(terms)


def predict_example(
    family: str, a: int, M: float, x: float | None = None, **params
) -> BiasPrediction:
    """Closed-form prediction for a family by name, stated in the family's
    own normalization; the family is sequences.family_named(family, **params),
    so its parameter is a keyword named after its field, built or as text."""
    require_integers(a=a)
    if a == 0:
        raise DomainError("a must be nonzero")
    if not (math.isfinite(M) and M > 1):
        raise DomainError(f"M must be finite and > 1, got {M}")
    return sq.family_named(family, **params).predict(a, M, x)


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
