"""Sequence families and windowed sieves.

Five weighted sequences share one interface (Family, registered by name in
FAMILIES): prime powers with log weights, values of a positive definite
quadratic form, the sum-of-two-squares indicator, products of log-prime
weights over a linear-form tuple, and integers free of small prime factors.
A sieve materializes one window [lo, hi] as sparse (support, weight) arrays;
counting helpers sum them over divisibility or residue conditions.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from . import multfn as mf
from .errors import ConfigurationError, DomainError, ResourceError, UnsupportedError
from .factorint import MAX_TABLE_LIMIT, as_factored, iter_primes, spf_window
from .ktuples import KTuple, P_of, is_admissible, parse_tuple
from .quadform import BinaryQuadraticForm, parse_form

# widest dense window a single sieve call may allocate
MAX_WINDOW = 6 * 10**7

_CACHE_MAGIC = b"DLSW"
_CACHE_VERSION = 1


class Family:
    """One weighted sequence, described once.

    A family defines window(lo, hi), its support and weights over a window
    sieve() has checked.  Its dataclass field, if any, is its parameter; the
    field's name is also its command-line flag (read by parse) and its
    keyword in bias.predict_example, whose family is name.  Class attributes
    declare the rest: integer_weights; indicator (0/1 weights, for which
    check_Ad_identity holds); required_filter, the one coprimality filter
    its runs take; norm_filters, the filters under which averages are
    normalized by (phi(b)/b) x/M, b the filter's base (1, |a| or |P(a;H)|),
    instead of A(x)/M; and routes, (filter, mode) -> "example"
    (bias.predict_example) or "mu_k" (bias.mu_k on model()).
    """

    name: ClassVar[str]
    integer_weights: ClassVar[bool]
    indicator: ClassVar[bool] = False
    required_filter: ClassVar[Optional[str]] = None
    norm_filters: ClassVar[tuple] = ()
    routes: ClassVar[dict] = {}
    parse: ClassVar[Optional[Callable]] = None

    def label(self) -> str:
        return self.name

    def weight(self, n: int) -> float | int:
        """a(n) for n >= 1; an indicator family's is 1 exactly where h(n) = 1."""
        return int(self.model().h_of(n) == 1)

    def model(self) -> Optional[mf.SequenceModel]:
        """The multiplicative density model, or None (tuples)."""
        return None

    def P(self, a: int) -> int:
        """P(a; H), the base of the 'P' filter."""
        raise DomainError("filter 'P' only applies to tuple weights")


@dataclass(frozen=True)
class PrimesLambda(Family):
    name = "primes"
    integer_weights = False
    norm_filters = ("a",)
    routes = {("a", "full"): "example", ("none", "full"): "mu_k", ("none", "dyadic"): "mu_k"}

    def window(self, lo, hi):
        return _lambda_window(lo, hi)

    def weight(self, n):
        fac = as_factored(n).factors
        return math.log(fac[0][0]) if len(fac) == 1 else 0.0

    def model(self):
        return mf.primes_model()


@dataclass(frozen=True)
class QuadFormMult(Family):
    form: BinaryQuadraticForm

    name = "quadform"
    integer_weights = True
    norm_filters = ("none",)
    routes = {("none", "full"): "example"}
    parse = staticmethod(parse_form)

    def label(self) -> str:
        return f"quadform_{self.form.label()}"

    def window(self, lo, hi):
        counts = _form_counts(self.form, lo, hi)
        idx = np.nonzero(counts)[0]
        return idx + lo, counts[idx]

    def weight(self, n):
        w = sieve(self, n, n).weights
        return int(w[0]) if len(w) else 0

    def model(self):
        return mf.quadform_model(self.form)


@dataclass(frozen=True)
class SumTwoSquares(Family):
    name = "two_squares"
    integer_weights = True
    indicator = True
    norm_filters = ("none",)
    routes = {("none", "dyadic"): "example"}

    def window(self, lo, hi):
        idx = np.nonzero(_form_counts(BinaryQuadraticForm(1, 0, 1), lo, hi))[0]
        return idx + lo, np.ones(len(idx), dtype=np.int64)

    def model(self):
        return mf.two_squares_model()


@dataclass(frozen=True)
class KTupleWeight(Family):
    tuple: KTuple

    name = "ktuple"
    integer_weights = False
    required_filter = "P"
    norm_filters = ("P",)
    routes = {("P", "dyadic"): "example"}
    parse = staticmethod(parse_tuple)

    def __post_init__(self):
        if not is_admissible(self.tuple):
            raise DomainError(f"inadmissible tuple {self.tuple.label()}")

    def label(self) -> str:
        return f"ktuple_{self.tuple.label()}"

    def window(self, lo, hi):
        common = None
        weights = None
        for a, b in self.tuple.forms:
            vlo, vhi = a * lo + b, a * hi + b
            if vhi < 2:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            if vhi > MAX_TABLE_LIMIT or vhi - max(vlo, 2) + 1 > MAX_WINDOW:
                raise ResourceError(
                    f"form {a}n+{b} needs values up to {vhi}; shrink the window"
                )
            vsup, vwts = _lambda_window(max(vlo, 2), vhi)
            keep = (vsup - b) % a == 0
            ns = (vsup[keep] - b) // a
            inside = ns >= lo
            ns, ws = ns[inside], vwts[keep][inside]
            if common is None:
                common, weights = ns, ws
            else:
                common, ia, ib = np.intersect1d(common, ns, assume_unique=True, return_indices=True)
                weights = weights[ia] * ws[ib]
            if len(common) == 0:
                break
        return common.astype(np.int64), weights

    def weight(self, n):
        out = 1.0
        for a, b in self.tuple.forms:
            out *= weight_at(PrimesLambda(), a * n + b)
            if out == 0.0:
                return 0.0
        return out

    def P(self, a):
        return P_of(a, self.tuple)


@dataclass(frozen=True)
class Rough(Family):
    y: int

    name = "rough"
    integer_weights = True
    indicator = True
    norm_filters = ("a",)
    routes = {("a", "dyadic"): "example", ("none", "full"): "mu_k", ("none", "dyadic"): "mu_k"}
    parse = staticmethod(int)

    def __post_init__(self):
        if self.y < 2:
            raise DomainError(f"roughness bound must be >= 2, got {self.y}")

    def label(self) -> str:
        return f"rough_{self.y}"

    def window(self, lo, hi):
        keep = np.ones(hi - lo + 1, dtype=bool)
        for p in iter_primes(min(self.y - 1, hi)):
            start = ((lo + p - 1) // p) * p
            keep[start - lo :: p] = False
        idx = np.nonzero(keep)[0]
        return idx + lo, np.ones(len(idx), dtype=np.int64)

    def model(self):
        return mf.rough_model(self.y)


# by --kind name, in the order the command line offers them
FAMILIES = {
    f.name: f for f in (PrimesLambda, SumTwoSquares, Rough, QuadFormMult, KTupleWeight)
}


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
            if np.any(np.diff(self.support) <= 0):
                raise DomainError("support not strictly increasing")
            if np.any(self.weights <= 0):
                raise DomainError("nonpositive weight on support")


def _check_window(lo: int, hi: int):
    if not (1 <= lo <= hi):
        raise DomainError(f"bad window [{lo}, {hi}]")
    if hi > MAX_TABLE_LIMIT:
        raise ResourceError(f"hi={hi} beyond supported limit {MAX_TABLE_LIMIT}")
    if hi - lo + 1 > MAX_WINDOW:
        raise ResourceError(
            f"window width {hi - lo + 1} exceeds {MAX_WINDOW}; sieve in pieces"
        )


def _lambda_window(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and log-prime weights of prime powers in [lo, hi]."""
    lo = max(lo, 2)
    if lo > hi:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    spf = spf_window(lo, hi + 1)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    primes_mask = spf == ns
    sup = [ns[primes_mask]]
    wts = [np.log(sup[0].astype(np.float64))]
    extra_n, extra_w = [], []
    for p in iter_primes(math.isqrt(hi)):
        pe = p * p
        lp = math.log(p)
        while pe <= hi:
            if pe >= lo:
                extra_n.append(pe)
                extra_w.append(lp)
            pe *= p
    if extra_n:
        sup.append(np.array(extra_n, dtype=np.int64))
        wts.append(np.array(extra_w, dtype=np.float64))
    support = np.concatenate(sup)
    weights = np.concatenate(wts)
    order = np.argsort(support, kind="stable")
    return support[order], weights[order]


def _form_counts(form: BinaryQuadraticForm, lo: int, hi: int) -> np.ndarray:
    """Representation counts over x, y >= 0 for each n in [lo, hi]."""
    alpha, beta, gamma = form.alpha, form.beta, form.gamma
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
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
        np.add.at(counts, good - lo, 1)
    return counts


def sieve(kind: Family, lo: int, hi: int) -> SievedWindow:
    """Materialize the weights of one family over [lo, hi]."""
    _check_window(lo, hi)
    support, weights = kind.window(lo, hi)
    return SievedWindow(kind.label(), lo, hi, support, weights)


def weight_at(kind: Family, n: int) -> float | int:
    """Exact single weight a(n); zero for n <= 0 by convention."""
    if n <= 0:
        return 0 if kind.integer_weights else 0.0
    return kind.weight(n)


def _reduce(values) -> float | int:
    if values.dtype == np.int64:
        return int(values.sum())
    return math.fsum(values)


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


def count_Astar(window: SievedWindow, q: int, a: int) -> float | int:
    """Like count_Aqa but with n <= |a| excluded."""
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    mask = (window.support % q == a % q) & (window.support > abs(a))
    return _reduce(window.weights[mask])


def dense_weights(window: SievedWindow, size: int | None = None) -> np.ndarray:
    """Dense array w with w[n] = weight(n), for strided slice sums."""
    size = window.hi if size is None else size
    out = np.zeros(size + 1, dtype=window.weights.dtype)
    keep = window.support <= size
    out[window.support[keep]] = window.weights[keep]
    return out


def check_Ad_identity(
    kind: Family, x: int, d: int, window: SievedWindow | None = None
) -> tuple[bool, int, int]:
    """Exact identity: the count of multiples of d equals the plain count at
    a rescaled cutoff h(d)/d * x.  Integer families only.

    Pass a precomputed window covering [1, x] to amortize the sieve over
    many d values."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not kind.indicator:
        raise UnsupportedError(f"identity only for indicator families, not {kind.label()}")
    scale = kind.model().h_of(d) / d
    if window is None:
        window = sieve(kind, 1, x)
    elif window.kind_label != kind.label() or window.lo != 1 or window.hi != x:
        raise ConfigurationError("window must cover exactly [1, x] for this family")
    lhs = count_Ad(window, d)
    rhs = count_A_upto(window, scale * x) if scale else 0
    return lhs == rhs, lhs, rhs


def save_window(window: SievedWindow, path: str):
    """Little-endian binary cache: header + sorted 64-bit records."""
    label = window.kind_label.encode("utf-8")
    float_weights = window.weights.dtype != np.int64
    header = struct.pack(
        "<4sII", _CACHE_MAGIC, _CACHE_VERSION, len(label)
    ) + label + struct.pack("<qqQB", window.lo, window.hi, len(window.support), int(float_weights))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(window.support.astype("<i8").tobytes())
        fh.write(window.weights.astype("<f8" if float_weights else "<i8").tobytes())


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
        if size != header + 16 * count:
            raise DomainError(
                f"{path}: {size} bytes, but the header promises {header + 16 * count}"
            )
        support = np.frombuffer(fh.read(8 * count), dtype="<i8").astype(np.int64)
        dtype = "<f8" if float_weights else "<i8"
        weights = np.frombuffer(fh.read(8 * count), dtype=dtype)
        weights = weights.astype(np.float64 if float_weights else np.int64)
    return SievedWindow(label, lo, hi, support, weights)
