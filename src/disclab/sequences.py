"""Sequence families and windowed sieves.

Five weighted sequences share one interface (Family, registered by name in
FAMILIES): prime powers with log weights, values of a positive definite
quadratic form, the sum-of-two-squares indicator, products of log-prime
weights over a linear-form tuple, and integers free of small prime factors.
Each is its window, its density model and its worked closed-form prediction
(Family.predict); its weights have no description outside the window.
A sieve materializes one window [lo, hi] as sparse (support, weight) arrays;
counting helpers sum them over divisibility or residue conditions.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import tempfile
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, ClassVar, Optional

import numpy as np

from . import bias
from . import multfn as mf
from .errors import (
    ConfigurationError, DomainError, ResourceError, UnsupportedError, require_integers,
    require_window,
)
from .factorint import as_factored, coprime_mask, iter_primes, prime_window
# kept for bench/run.py --trace 1, which wraps it by name, until ROADMAP item 6's benchmark change
from .factorint import spf_window  # noqa: F401
from .ktuples import TWIN, KTuple, P_of, is_admissible, nu_H, parse_tuple
from .quadform import BinaryQuadraticForm, parse_form, r_d, rho_a

# widest dense window a single sieve call may allocate
MAX_WINDOW = 6 * 10**7
# largest n any window may reach
MAX_TABLE_LIMIT = 10**9

# values per block of array_fsum: bounds its temporaries at 2 MB each
_FSUM_BLOCK = 2**18

_CACHE_MAGIC = b"DLSW"
_CACHE_VERSION = 1


class Family:
    """One weighted sequence, described once.

    A family defines window(lo, hi), its support and weights over a window
    sieve() has checked, and the one description of a(n): a run reads a
    single weight from the dense array it sums.  model() is its
    multiplicative density, and predict(a, M, x=None, A_x=None) its worked
    closed form as a bias.BiasPrediction in its own normalization (a != 0
    and finite M > 1 checked by the caller; A_x, the exact count A(x) where
    the caller holds its window, spares a form that needs it a sieve).  Its
    dataclass field, if any, is its parameter, named as its command-line
    flag and its keyword in family_named, which reads text with parse.
    Class attributes declare the rest: integer_weights; indicator (0/1
    weights, for which check_Ad_identity holds); filters, the coprimality
    filters its runs take (harness.ExperimentConfig refuses the rest when
    it is built); and routes, (filter, mode) -> "predict" (predict) or
    "mu_k" (bias.mu_k on model()).  A filter that a "predict" route takes
    normalizes averages by (phi(b)/b) x/M, b the filter's base (1, |a| or
    |P(a;H)|), instead of A(x)/M.
    """

    name: ClassVar[str]
    integer_weights: ClassVar[bool]
    indicator: ClassVar[bool] = False
    filters: ClassVar[tuple[str, ...]] = ("none", "a")
    routes: ClassVar[dict] = {}
    parse: ClassVar[Optional[Callable]] = None

    def label(self) -> str:
        return self.name

    def model(self) -> Optional[mf.SequenceModel]:
        """The multiplicative density model, or None (tuples)."""
        return None


@dataclass(frozen=True)
class PrimesLambda(Family):
    name = "primes"
    integer_weights = False
    routes = {("a", "full"): "predict", ("none", "full"): "mu_k", ("none", "dyadic"): "mu_k"}

    def window(self, lo, hi):
        return _lambda_window(lo, hi)

    def model(self):
        return mf.primes_model()

    def predict(self, a, M, x=None, A_x=None):
        norm = "1/((phi(a)/a)(x/M)); q <= x/M with gcd(q,a)=1"
        fac = as_factored(a).factors
        if abs(a) == 1:
            return bias.BiasPrediction(
                -0.5 * math.log(M), Fraction(1), norm, None, False, secondary=-bias.C5
            )
        if len(fac) == 1:
            return bias.BiasPrediction(-0.5 * math.log(fac[0][0]), Fraction(0), norm, None, False)
        return bias.BiasPrediction(0.0, Fraction(0), norm, None, True)


@dataclass(frozen=True)
class QuadFormMult(Family):
    form: BinaryQuadraticForm

    name = "quadform"
    integer_weights = True
    routes = {("none", "full"): "predict"}
    parse = staticmethod(parse_form)

    def label(self) -> str:
        return f"quadform_{self.form.label()}"

    def window(self, lo, hi):
        counts = _form_counts(self.form, lo, hi)
        idx = np.nonzero(counts)[0]
        return idx + lo, counts[idx].astype(np.int64)

    def model(self):
        return mf.quadform_model(self.form)

    def predict(self, a, M, x=None, A_x=None):
        d = self.form.disc
        if math.gcd(a, 2 * d) != 1:
            raise DomainError(f"need gcd(a, 2d) = 1; a={a}, d={d}")
        norm = "1/(x/M); q <= x/M"
        C_Q = bias.area_unit_region(self.form) / (2 * bias.L_one_chi(d))
        rho = rho_a(self.form, a, 4 * abs(d))
        value = -C_Q * float(rho) * r_d(d, abs(a))
        if value == 0.0:
            value = 0.0  # normalize the sign of zero
        return bias.BiasPrediction(value, Fraction(0), norm, None, value == 0.0)


@dataclass(frozen=True)
class SumTwoSquares(Family):
    name = "two_squares"
    integer_weights = True
    indicator = True
    routes = {("none", "dyadic"): "predict"}

    def window(self, lo, hi):
        # one bool per integer, marked at each u^2 + v^2 with u <= v
        hit = np.zeros(hi - lo + 1, dtype=bool)
        squares = np.arange(math.isqrt(hi) + 1, dtype=np.int64) ** 2
        for u in range(math.isqrt(hi // 2) + 1):
            uu = u * u
            vmin = max(u, math.isqrt(lo - uu - 1) + 1 if lo > uu else 0)
            hit[squares[vmin : math.isqrt(hi - uu) + 1] + (uu - lo)] = True
        support = np.flatnonzero(hit) + lo
        return support, np.ones(len(support), dtype=np.int64)

    def model(self):
        return mf.two_squares_model()

    def predict(self, a, M, x=None, A_x=None):
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
            return bias.BiasPrediction(0.0, Fraction(1, 2) - l_a, norm, None, True)
        value = -1 / (2 * math.pi) * math.sqrt(math.log(M) / math.log(x))
        return bias.BiasPrediction(value, Fraction(1, 2), norm, None, False)


@dataclass(frozen=True)
class KTupleWeight(Family):
    tuple: KTuple

    name = "ktuple"
    integer_weights = False
    filters = ("P",)
    routes = {("P", "dyadic"): "predict"}
    parse = staticmethod(parse_tuple)

    def __post_init__(self):
        if not is_admissible(self.tuple):
            raise DomainError(f"inadmissible tuple {self.tuple.label()}")

    def label(self) -> str:
        return f"ktuple_{self.tuple.label()}"

    def window(self, lo, hi):
        """n in [lo, hi] where every form is a prime power, weighted by the
        product of their log-prime weights in form order.

        Every form's range is checked before any sieve.  Forms that share a
        coefficient and whose value ranges overlap share one _lambda_window
        over the hull (up to MAX_WINDOW wide); each form reads the hull's
        membership as a strided view, and the views are ANDed.
        """
        forms = self.tuple.forms
        for a, b in forms:
            vlo, vhi = a * lo + b, a * hi + b
            if vhi < 2:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            try:
                require_window(max(vlo, 2), vhi, MAX_WINDOW, MAX_TABLE_LIMIT)
            except ResourceError as exc:
                raise ResourceError(
                    f"form {a}n+{b} needs values up to {vhi}; shrink the window"
                ) from exc
        # values below 2 carry no weight: every form is >= 2 from n0 on
        n0 = max([lo] + [-((b - 2) // a) for a, b in forms])
        count = hi - n0 + 1
        hulls = []  # [coefficient, value lo, value hi, offsets]
        for a, b in sorted(forms):
            vlo, vhi = a * n0 + b, a * hi + b
            last = hulls[-1] if hulls else None
            if last and last[0] == a and vlo <= last[2] + 1 and vhi - last[1] < MAX_WINDOW:
                last[2] = vhi
                last[3].append(b)
            else:
                hulls.append([a, vlo, vhi, [b]])
        member = np.ones(count, dtype=bool)
        primes = {}  # form -> the (support, weights) of its hull
        for a, vlo, vhi, offsets in hulls:
            sieved = _lambda_window(vlo, vhi)
            marked = np.zeros(vhi - vlo + 1, dtype=bool)
            marked[sieved[0] - vlo] = True
            for b in offsets:
                start = a * n0 + b - vlo
                member &= marked[start : start + a * (count - 1) + 1 : a]
                primes[a, b] = sieved
        ns = np.flatnonzero(member) + n0
        weights = None
        for a, b in forms:
            support, wts = primes[a, b]
            w = wts[np.searchsorted(support, a * ns + b)]
            weights = w if weights is None else weights * w
        return ns, weights

    def P(self, a):
        return P_of(a, self.tuple)

    def predict(self, a, M, x=None, A_x=None):
        H = self.tuple
        P = P_of(a, H)
        if P == 0:
            raise DomainError("P(a;H) = 0: shift lands on a form root")
        norm = "1/((phi(P)/P)(x/2M)); x/2M < q <= x/M with gcd(q,P)=1"
        cond = "Hardy-Littlewood"
        fac = as_factored(P).factors
        omega = len(fac)
        k = H.k
        if omega > k:
            return bias.BiasPrediction(0.0, Fraction(0), norm, cond, True)
        value = -1.0 / (2 * math.factorial(k - omega))
        for p, _ in fac:
            value *= (p - nu_H(H, p)) / (p - 1) * math.log(p)
        value *= math.log(M) ** (k - omega)
        return bias.BiasPrediction(value, Fraction(k - omega), norm, cond, value == 0.0)


@dataclass(frozen=True)
class Rough(Family):
    y: int

    name = "rough"
    integer_weights = True
    indicator = True
    routes = {("a", "dyadic"): "predict", ("none", "full"): "mu_k", ("none", "dyadic"): "mu_k"}

    @staticmethod
    def parse(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise DomainError(f"roughness bound must be an integer, got {text!r}") from None

    def __post_init__(self):
        require_integers(y=self.y)
        if self.y < 2:
            raise DomainError(f"roughness bound must be >= 2, got {self.y}")

    def label(self) -> str:
        return f"rough_{self.y}"

    def window(self, lo, hi):
        idx = np.nonzero(coprime_mask(lo, hi, iter_primes(min(self.y - 1, hi))))[0]
        return idx + lo, np.ones(len(idx), dtype=np.int64)

    def model(self):
        return mf.rough_model(self.y)

    def density(self, x: int) -> float:
        """Exact count of y-rough n <= x, divided by x."""
        if x > 10**8:
            raise ResourceError(f"x={x} too large for an exact rough-density count")
        total = 0
        lo = 1
        while lo <= x:
            hi = min(lo + MAX_WINDOW - 1, x)
            total += count_A(sieve(self, lo, hi))
            lo = hi + 1
        return total / x

    def predict(self, a, M, x=None, A_x=None):
        if x is None or x <= max(M, 16):
            raise DomainError("rough prediction needs x > max(M, 16)")
        y = self.y
        norm = "1/((phi(a)/a)(x/2M)); x/2M < q <= x/M with gcd(q,a)=1"
        small = math.log(y) <= math.log(M) ** 0.4
        llx = math.log(math.log(math.log(x)))
        large = y >= math.log(x) ** llx and y <= math.sqrt(x)
        if small:
            if abs(a) == 1:
                return bias.BiasPrediction(-0.5, Fraction(0), norm, None, False)
            return bias.BiasPrediction(0.0, Fraction(0), norm, None, True)
        if large:
            dens = self.density(int(x)) if A_x is None else A_x / int(x)
            fac = as_factored(a).factors
            if abs(a) == 1:
                return bias.BiasPrediction(dens * math.log(M), Fraction(1), norm, None, False)
            if len(fac) == 1:
                v = dens * math.log(fac[0][0])
                return bias.BiasPrediction(v, Fraction(0), norm, None, False)
            return bias.BiasPrediction(0.0, Fraction(0), norm, None, True)
        raise UnsupportedError(
            f"y={y} is in the intermediate range at M={M}, x={x}: no prediction"
        )


# by --kind name, in the order the command line offers them
FAMILIES = {
    f.name: f for f in (PrimesLambda, SumTwoSquares, Rough, QuadFormMult, KTupleWeight)
}

# further names a closed form is asked for by: twin is the ktuple family at TWIN
ALIASES = {"twin": KTupleWeight(TWIN)}


def family_named(name: str, **params) -> Family:
    """The one builder of a family by FAMILIES or ALIASES name, from the
    keyword named after its field (form=, tuple= or y=), as text for its
    parse or already built; keywords it has no field for are ignored."""
    if name in ALIASES:
        return ALIASES[name]
    if name not in FAMILIES:
        raise DomainError(f"unknown family {name!r}")
    family = FAMILIES[name]
    values = []
    for field in fields(family):
        value = params.get(field.name)
        if value is None:
            raise DomainError(f"the {name} family needs its {field.name}")
        values.append(family.parse(value) if isinstance(value, str) else value)
    return family(*values)


@dataclass(frozen=True, eq=False)
class SievedWindow:
    """Sparse weights of one sequence over [lo, hi]; arrays are parallel."""

    kind_label: str
    lo: int
    hi: int
    support: np.ndarray  # int64, strictly increasing, within [lo, hi]
    weights: np.ndarray  # int64 or float64, positive

    def __post_init__(self):
        if self.lo > self.hi or self.lo < 1:
            raise DomainError(f"bad window [{self.lo}, {self.hi}]")
        if self.support.shape != self.weights.shape:
            raise DomainError("support/weights length mismatch")
        if len(self.support):
            if self.support[0] < self.lo or self.support[-1] > self.hi:
                raise DomainError("support outside window")
            if (self.support[1:] <= self.support[:-1]).any():
                raise DomainError("support not strictly increasing")
            if np.any(self.weights <= 0):
                raise DomainError("nonpositive weight on support")

    @functools.cached_property
    def dense_dtype(self) -> np.dtype:
        """The dtype of the window's dense arrays (dense_weights): float64
        for float weights, else the narrowest that holds the largest weight,
        uint8 for an indicator.  Found on first use and kept, so the filled
        segments of a report scan the weights once."""
        if self.weights.dtype.kind in "iu":
            return np.min_scalar_type(int(self.weights.max(initial=0)))
        return self.weights.dtype


def _lambda_window(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and log-prime weights of prime powers in [lo, hi].

    The few higher powers (about 450 below 1e9) are merged into the primes
    at their searchsorted places."""
    primes = prime_window(max(lo, 2), hi)
    weights = primes.astype(np.float64)
    np.log(weights, out=weights)
    powers = []
    for p in iter_primes(math.isqrt(hi)):
        pe = p * p
        while pe <= hi:
            if pe >= lo:
                powers.append((pe, math.log(p)))
            pe *= p
    if not powers:
        return primes, weights
    powers.sort()
    extra_n = np.array([n for n, _ in powers], dtype=np.int64)
    extra_w = np.array([lp for _, lp in powers], dtype=np.float64)
    at = np.searchsorted(primes, extra_n)
    return np.insert(primes, at, extra_n), np.insert(weights, at, extra_w)


def _form_counts(form: BinaryQuadraticForm, lo: int, hi: int) -> np.ndarray:
    """Representation counts over x, y >= 0 for each n in [lo, hi], in int32
    (fewer than 2^31 pairs reach MAX_TABLE_LIMIT).

    One np.add.at per row x, whose values climb the window in y.  Counts of
    half the bytes of int64 took x^2 + y^2 on [1, 1e7] from 260-330 to
    234-248 ms (alternated calls, one process); np.bincount over rows
    batched to 2^20 values took 490 ms, as each batch's counts are as long
    as the window."""
    alpha, beta, gamma = form.alpha, form.beta, form.gamma
    counts = np.zeros(hi - lo + 1, dtype=np.int32)
    one = np.int32(1)  # an increment of the counts' own dtype keeps add.at's fast loop
    # smallest eigenvalue of the Gram matrix bounds Q below by
    # lam * (x^2 + y^2), giving a finite x range
    lam = ((alpha + gamma) - math.sqrt((alpha - gamma) ** 2 + beta * beta)) / 2
    xmax = math.isqrt(int(hi / lam)) + 1
    d = form.disc
    for x in range(xmax + 1):
        disc = d * x * x + 4 * gamma * hi
        if disc < 0:
            continue
        ymax = int((-beta * x + math.isqrt(disc)) // (2 * gamma))
        if ymax < 0:
            continue
        ys = np.arange(0, ymax + 1, dtype=np.int64)
        vals = alpha * x * x + beta * x * ys + gamma * ys * ys
        good = vals[(vals >= lo) & (vals <= hi)]
        np.add.at(counts, good - lo, one)
    return counts


def sieve(kind: Family, lo: int, hi: int) -> SievedWindow:
    """Materialize the weights of one family over [lo, hi]."""
    lo, hi = require_window(lo, hi, MAX_WINDOW, MAX_TABLE_LIMIT)
    support, weights = kind.window(lo, hi)
    return SievedWindow(kind.label(), lo, hi, support, weights)


def array_fsum(values: np.ndarray) -> float:
    """math.fsum(values) of a float64 array, bit for bit, in numpy passes.

    Each block of _FSUM_BLOCK values is split without error, as in Rump,
    Ogita and Oishi's AccSum (SIAM J. Sci. Comput., 2008): with sigma a
    power of two at least 2^m max|p|, 2^m above the block's length, the
    parts q = (sigma + p) - sigma are multiples of 2^-53 sigma whose numpy
    sum is exact, and p - q, at most 2^-53 sigma, is split again until it is
    zero.  fsum of the exact part sums is the correctly rounded total, which
    is fsum's result.  Where fsum decides otherwise, values go to math.fsum
    itself: a nan or inf, a total of zero (its sign), and magnitudes whose
    sum could overflow (fsum raises on intermediate overflow).
    """
    n = len(values)
    if n == 0 or not np.isfinite(values).all():
        return math.fsum(values)
    # every |value| < 2^top, so sigma and every sum below stay under 2^1022
    top = math.frexp(max(float(values.max()), -float(values.min())))[1]
    if top + n.bit_length() > 1022:
        return math.fsum(values)
    parts = []
    # one buffer each for |p|, the parts q and the rest p - q, reused by every pass
    magnitude, q_buf, rest = (np.empty(min(n, _FSUM_BLOCK)) for _ in range(3))
    for start in range(0, n, _FSUM_BLOCK):
        p = values[start : start + _FSUM_BLOCK]
        k = len(p)
        m = k.bit_length()
        while (high := float(np.abs(p, out=magnitude[:k]).max())) > 0.0:
            sigma = math.ldexp(1.0, math.frexp(high)[1] + m)
            q = np.add(sigma, p, out=q_buf[:k])
            q -= sigma
            parts.append(float(q.sum()))
            p = np.subtract(p, q, out=rest[:k])
    total = math.fsum(parts)
    return total if total != 0.0 else math.fsum(values)


def _reduce(values) -> float | int:
    if values.dtype.kind in "iu":
        return int(values.sum(dtype=np.int64))
    return array_fsum(values)


def count_A(window: SievedWindow) -> float | int:
    return _reduce(window.weights)


def count_A_upto(window: SievedWindow, t) -> float | int:
    """Sum of weights over n <= t within the window."""
    idx = np.searchsorted(window.support, math.floor(t), side="right")
    return _reduce(window.weights[:idx])


def count_Ad(window: SievedWindow, d: int) -> float | int:
    return count_Aqa(window, d, 0)


def count_Aqa(window: SievedWindow, q: int, a: int) -> float | int:
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    return _reduce(window.weights[window.support % q == a % q])


def dense_weights(
    window: SievedWindow,
    size: int | None = None,
    lo: int = 0,
    out: np.ndarray | None = None,
    step: int = 1,
) -> np.ndarray:
    """Dense array w with w[(n - lo) // step] = weight(n) for the n = lo mod
    step in [lo, size], for strided slice sums: step 1 holds every n, step
    2 the plane of those with lo's parity, half as long.

    The dtype is window.dense_dtype: float weights stay float64, and
    integer weights take the narrowest dtype that holds the largest, so a
    strided pass reads fewer bytes; sum them in int64.  Given out, an
    earlier result of the same window at least as long, the array is its
    prefix, filled in place.
    """
    size = window.hi if size is None else size
    dtype = window.dense_dtype
    length = (size - lo) // step + 1
    if out is None:
        out = np.zeros(length, dtype=dtype)
    elif out.dtype != dtype or len(out) < length:
        raise ConfigurationError(f"buffer of {len(out)} {out.dtype} for [{lo}, {size}] in {dtype}")
    else:
        out = out[:length]
        out[:] = 0
    start = np.searchsorted(window.support, lo)
    end = np.searchsorted(window.support, size, side="right")
    at, weights = window.support[start:end] - lo, window.weights[start:end]
    if step > 1:
        on = at % step == 0
        at, weights = at[on] // step, weights[on]
    out[at] = weights
    return out


def window_over(kind: Family, x: int, window: SievedWindow | None = None) -> SievedWindow:
    """The window a run or an identity over [1, x] reads for kind, and the one
    place a window is refused for it.  In order: [1, x] must pass the
    sieve's window rule (a numpy integer x runs as an int), refused before
    any work; with no window given, [1, x] is sieved; a given window must
    carry kind's label, cover exactly [1, x] and hold kind's weight type (a
    cache whose weight-type byte flipped between 0 and 1 loads, read in the
    other type)."""
    (x,) = require_integers(x=x)
    require_window(1, x, MAX_WINDOW, MAX_TABLE_LIMIT)
    if window is None:
        return sieve(kind, 1, x)
    if window.kind_label != kind.label() or (window.lo, window.hi) != (1, x):
        raise ConfigurationError(
            f"window {window.kind_label} [{window.lo}, {window.hi}] does not "
            f"cover exactly [1, {x}] for {kind.label()}"
        )
    if (window.weights.dtype == np.int64) != kind.integer_weights:
        raise ConfigurationError(
            f"window {window.kind_label} has {window.weights.dtype} weights; "
            f"{kind.label()} needs {'int64' if kind.integer_weights else 'float64'}"
        )
    return window


def check_Ad_identity(
    kind: Family, x: int, d: int, window: SievedWindow | None = None
) -> tuple[bool, int, int]:
    """Exact identity: the count of multiples of d equals the plain count at
    a rescaled cutoff h(d)/d * x.  Integer families only.

    Pass a precomputed window over exactly [1, x] (window_over) to amortize
    the sieve over many d values."""
    require_integers(d=d)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not kind.indicator:
        raise UnsupportedError(f"identity only for indicator families, not {kind.label()}")
    scale = kind.model().h_of(d) / d
    window = window_over(kind, x, window)
    lhs = count_Ad(window, d)
    rhs = count_A_upto(window, scale * x) if scale else 0
    return lhs == rhs, lhs, rhs


def save_window(window: SievedWindow, path: str):
    """Little-endian binary cache: header + sorted 64-bit records.

    The file is written next to path under a temporary name and renamed onto
    it, so an interrupted write leaves whatever was at path before."""
    label = window.kind_label.encode("utf-8")
    float_weights = window.weights.dtype != np.int64
    header = struct.pack(
        "<4sII", _CACHE_MAGIC, _CACHE_VERSION, len(label)
    ) + label + struct.pack("<qqQB", window.lo, window.hi, len(window.support), int(float_weights))
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            window.support.astype("<i8", copy=False).tofile(fh)
            window.weights.astype("<f8" if float_weights else "<i8", copy=False).tofile(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_window(path: str) -> SievedWindow:
    """Read a cache written by save_window; a malformed file raises
    DomainError before any record is read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[:4] != _CACHE_MAGIC:
            raise DomainError(f"{path}: not a sieve cache")
        _, version, label_len = struct.unpack("<4sII", head)
        if version != _CACHE_VERSION:
            raise UnsupportedError(f"{path}: cache version {version}")
        header = 12 + label_len + 25
        if size < header:
            raise DomainError(f"{path}: {size} bytes, shorter than its {header}-byte header")
        try:
            label = fh.read(label_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: label is not UTF-8") from exc
        lo, hi, count, float_weights = struct.unpack("<qqQB", fh.read(25))
        if float_weights not in (0, 1):
            raise DomainError(f"{path}: weight-type flag {float_weights} is neither 0 nor 1")
        if size != header + 16 * count:
            raise DomainError(
                f"{path}: {size} bytes, but the header promises {header + 16 * count}"
            )
        support = np.fromfile(fh, "<i8", count).astype(np.int64, copy=False)
        weights = np.fromfile(fh, "<f8" if float_weights else "<i8", count)
        weights = weights.astype(np.float64 if float_weights else np.int64, copy=False)
    return SievedWindow(label, lo, hi, support, weights)
