"""Empirical discrepancy runs and the exact identities behind them.

Three workhorses: empirical_average sums A(x;q,a) minus its model term over a
q-range and normalizes per family; s5_sums evaluates the smoothed/sharp sum
combination S5, for which S5*M tends to the predicted bias mu in ratio as M
grows (the difference does not vanish: for primes at a = +-1,
M*S5 - mu_leading tends to -C5, and bias.predict_s5 gives the full expected
value); divisor_switch_check verifies the exact count-swapping identity used
to control large moduli.
Everything reduces floats in a fixed order so repeated runs are bit-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import bias
from . import multfn as mf
from . import sequences as sq
from .errors import ConfigurationError, DomainError, ResourceError, UnsupportedError
from .factorint import as_factored, iter_primes, phi
from .ktuples import KTuple, nu_H

MAX_DENSE = sq.MAX_WINDOW
_BLOCK = 10**7

_FILTERS = ("none", "a", "P")
_MODES = ("full", "dyadic")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: sq.Family
    a: int
    x: int
    M: float
    mode: str = "full"
    coprime_filter: str = "none"

    def __post_init__(self):
        if self.a == 0:
            raise DomainError("a must be nonzero")
        if self.x < 1:
            raise DomainError(f"x must be >= 1, got {self.x}")
        if not self.M > 1:
            raise DomainError(f"M must be > 1, got {self.M}")
        if self.mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.coprime_filter not in _FILTERS:
            raise ConfigurationError(
                f"coprime_filter must be one of {_FILTERS}, got {self.coprime_filter!r}"
            )

    @property
    def config_hash(self) -> str:
        text = "|".join(
            [
                self.kind.label(),
                str(self.a),
                str(self.x),
                repr(float(self.M)),
                self.mode,
                self.coprime_filter,
            ]
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def q_range(self) -> tuple[int, int]:
        hi = int(self.x / self.M)
        lo = int(self.x / (2 * self.M)) + 1 if self.mode == "dyadic" else 1
        return lo, hi


@dataclass(frozen=True)
class DiscrepancyReport:
    empirical_sum: float
    normalized_avg: float
    predicted: Optional[bias.BiasPrediction]
    ratio: float
    q_count: int
    runtime_ms: int
    provenance: dict


class S5Sums(NamedTuple):
    S_R: float
    S_M: float
    S_tail: float
    S5: float


# ----------------------------------------------------------------------------
# local-density arrays


def g_range(model: mf.SequenceModel, a, lo: int, hi: int) -> np.ndarray:
    """g_a(q) for q in [lo, hi], one float per q.

    Multiplicative sieve: every prime power p^e <= hi strides its multiples
    with the exact local ratio, leftover cofactors are primes above sqrt(hi)
    and get the bulk h(p) rule (or a per-value fallback).
    """
    if lo < 1 or hi < lo:
        raise DomainError(f"bad range [{lo}, {hi}]")
    if hi - lo + 1 > _BLOCK + 1:
        raise ResourceError(f"g_range window [{lo}, {hi}] too wide; use blocks")
    afac = as_factored(a)
    n = hi - lo + 1
    G = np.ones(n, dtype=np.float64)
    C = np.arange(lo, hi + 1, dtype=np.int64)
    root = math.isqrt(hi)
    cache: dict[tuple[int, int], Fraction] = {}

    def gl(p: int, e: int) -> Fraction:
        key = (p, e)
        if key not in cache:
            cache[key] = mf.g_local(model, p, e, afac)
        return cache[key]

    def stride(p: int):
        pe = p
        e = 1
        while pe <= hi:
            start = ((lo + pe - 1) // pe) * pe
            if start > hi:
                return
            prev = Fraction(1) if e == 1 else gl(p, e - 1)
            ratio = 0.0 if prev == 0 else float(gl(p, e) / prev)
            idx = np.arange(start - lo, n, pe, dtype=np.int64)
            G[idx] *= ratio
            C[idx] //= p
            e += 1
            pe *= p

    for p in iter_primes(root):
        stride(p)
    # primes above sqrt(hi) that still need exact local values: divisors of a
    # and the model's bad primes
    explicit = {p for p, _ in afac.factors} | set(model.bad_primes)
    for p in sorted(explicit):
        if p > root and p <= hi:
            stride(p)
    mask = C > 1
    if mask.any():
        P = C[mask]
        Pf = P.astype(np.float64)
        if model.h_prime_vec is not None:
            hp = model.h_prime_vec(P)
            G[mask] *= (1.0 - hp / Pf) / (Pf - 1.0)
        else:
            vals, inverse = np.unique(P, return_inverse=True)
            if len(vals) > 10**6:
                raise ResourceError(
                    f"{len(vals)} distinct large primes and no bulk h rule for "
                    f"model {model.label}"
                )
            table = np.array([float(gl(int(p), 1)) for p in vals])
            G[mask] *= table[inverse]
    return G


def ktuple_term_range(H: KTuple, lo: int, hi: int) -> np.ndarray:
    """1/(q * gamma_H(q)) for q in [lo, hi]; the tuple analog of g_range."""
    if lo < 1 or hi < lo:
        raise DomainError(f"bad range [{lo}, {hi}]")
    if hi - lo + 1 > _BLOCK + 1:
        raise ResourceError(f"window [{lo}, {hi}] too wide; use blocks")
    n = hi - lo + 1
    G = np.ones(n, dtype=np.float64)
    C = np.arange(lo, hi + 1, dtype=np.int64)
    root = math.isqrt(hi)
    k = H.k

    def stride(p: int):
        nu = nu_H(H, p)
        if nu >= p:
            raise DomainError(f"tuple covers every class mod {p}")
        pe, e = p, 1
        while pe <= hi:
            start = ((lo + pe - 1) // pe) * pe
            if start > hi:
                return
            ratio = 1.0 / (p - nu) if e == 1 else 1.0 / p
            idx = np.arange(start - lo, n, pe, dtype=np.int64)
            G[idx] *= ratio
            C[idx] //= p
            e += 1
            pe *= p

    deviating = {p for a_i, _ in H.forms for p, _ in as_factored(a_i).factors}
    for a_i, b_i in H.forms:
        for a_j, b_j in H.forms:
            res = a_i * b_j - a_j * b_i
            if res != 0:
                deviating |= {p for p, _ in as_factored(res).factors}
    for p in iter_primes(root):
        stride(p)
    for p in sorted(deviating):
        if p > root and p <= hi:
            stride(p)
    mask = C > 1
    if mask.any():
        # leftover primes avoid every a_i and resultant, so nu is exactly k
        G[mask] *= 1.0 / (C[mask].astype(np.float64) - k)
    return G


def _term_array(cfg: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    model = cfg.kind.model()
    if model is None:
        return ktuple_term_range(cfg.kind.tuple, lo, hi)
    return g_range(model, cfg.a, lo, hi)


def _filter_base(cfg: ExperimentConfig) -> int:
    """The integer whose prime factors the coprimality filter removes from q."""
    if cfg.coprime_filter == "none":
        return 1
    if cfg.coprime_filter == "a":
        return abs(cfg.a)
    return abs(cfg.kind.P(cfg.a))


def _filter_mask(cfg: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    mask = np.ones(hi - lo + 1, dtype=bool)
    base = _filter_base(cfg)
    if base == 0:
        raise DomainError("P(a;H) = 0: the filter is undefined")
    if base == 1:
        return mask
    for p, _ in as_factored(base).factors:
        start = ((lo + p - 1) // p) * p
        if start <= hi:
            mask[start - lo :: p] = False
    return mask


# ----------------------------------------------------------------------------
# empirical averages


def _normalizer(cfg: ExperimentConfig, A_x: float) -> float:
    if cfg.coprime_filter in cfg.kind.norm_filters:
        span = cfg.x / cfg.M if cfg.mode == "full" else cfg.x / (2 * cfg.M)
        base = _filter_base(cfg)
        return phi(base) / base * span
    return A_x / cfg.M if cfg.mode == "full" else A_x / (2 * cfg.M)


def _prediction(cfg: ExperimentConfig) -> Optional[bias.BiasPrediction]:
    kind = cfg.kind
    route = kind.routes.get((cfg.coprime_filter, cfg.mode))
    try:
        if route == "example":
            # a family's fields are the keywords of its closed form
            return bias.predict_example(kind.name, cfg.a, cfg.M, cfg.x, **vars(kind))
        if route == "mu_k":
            return bias.mu_k(kind.model(), cfg.a, cfg.M)
    except (DomainError, UnsupportedError):
        return None
    return None


def _slice_sum_terms(
    w: np.ndarray, a: int, qs: np.ndarray, G: np.ndarray, pm: float, A_x: float
) -> list[float]:
    out = []
    for q, g in zip(qs.tolist(), G.tolist()):
        start = a % q
        if start == 0:
            start = q
        out.append(float(w[start::q].sum()) - pm - g * A_x)
    return out


def empirical_average(
    cfg: ExperimentConfig,
    window: Optional[sq.SievedWindow] = None,
    threads: int = 1,
    subtract_point_mass: bool = True,
) -> DiscrepancyReport:
    """Average of A(x;q,a) - a(a) - g_a(q) A(x) over the configured q-range.

    Float terms are reduced with fsum in q-order, independent of thread count.
    """
    t0 = time.perf_counter()
    if cfg.kind.required_filter not in (None, cfg.coprime_filter):
        raise UnsupportedError(
            f"{cfg.kind.name} runs need coprime_filter={cfg.kind.required_filter!r}"
        )
    if cfg.x > MAX_DENSE:
        raise ResourceError(f"x={cfg.x} above dense-array budget {MAX_DENSE}")
    if window is None:
        window = sq.sieve(cfg.kind, 1, cfg.x)
    elif window.kind_label != cfg.kind.label() or window.lo != 1 or window.hi < cfg.x:
        raise ConfigurationError("window does not cover this configuration")
    w = sq.dense_weights(window, size=cfg.x)
    integer = np.issubdtype(w.dtype, np.integer)
    A_xf = float(sq.count_A_upto(window, cfg.x))
    wf = w.astype(np.float64) if integer else w

    q_lo, q_hi = cfg.q_range()
    pm = 0.0
    if subtract_point_mass and 0 < cfg.a <= cfg.x:
        pm = float(sq.weight_at(cfg.kind, cfg.a))

    if q_hi < q_lo:
        terms: list[float] = []
        q_count = 0
    else:
        G = _term_array(cfg, q_lo, q_hi)
        mask = _filter_mask(cfg, q_lo, q_hi)
        qs = np.arange(q_lo, q_hi + 1, dtype=np.int64)[mask]
        Gm = G[mask]
        q_count = len(qs)
        if threads <= 1 or q_count < 1024:
            terms = _slice_sum_terms(wf, cfg.a, qs, Gm, pm, A_xf)
        else:
            bounds = np.linspace(0, q_count, threads * 4 + 1, dtype=np.int64)
            chunks = [
                (qs[i:j], Gm[i:j]) for i, j in zip(bounds[:-1], bounds[1:]) if j > i
            ]
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(
                    pool.map(
                        lambda c: _slice_sum_terms(wf, cfg.a, c[0], c[1], pm, A_xf),
                        chunks,
                    )
                )
            terms = [t for part in parts for t in part]
    empirical = math.fsum(terms)
    norm = _normalizer(cfg, A_xf)
    normalized = empirical / norm if norm != 0 else math.nan
    predicted = _prediction(cfg)
    if predicted is not None and predicted.leading_value != 0.0:
        ratio = normalized / predicted.leading_value
    else:
        ratio = math.nan
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    prov = {
        "config_hash": cfg.config_hash,
        "kind": cfg.kind.label(),
        "a": cfg.a,
        "x": cfg.x,
        "M": float(cfg.M),
        "mode": cfg.mode,
        "coprime_filter": cfg.coprime_filter,
    }
    return DiscrepancyReport(empirical, normalized, predicted, ratio, q_count, runtime_ms, prov)


# ----------------------------------------------------------------------------
# the smoothed-minus-sharp sum of the bias expansion


def s5_sums(model: mf.SequenceModel, a, M: float, R: float, x: int) -> S5Sums:
    """S_R - S_M - S_tail where S_T smooths g_a(r)(1 - r/T) and the tail
    runs the unsmoothed sum over x/R < q <= x/M.  Direct summation throughout;
    the tail is walked in fixed-size blocks."""
    if not 1 < M <= R:
        raise DomainError(f"need 1 < M <= R, got M={M}, R={R}")
    if R**2 > x:
        raise DomainError(f"R={R} above sqrt(x) at x={x}")
    Rn, Mn = int(R), int(M)
    GR = g_range(model, a, 1, Rn)
    S_R = math.fsum(g * (1.0 - r / R) for r, g in enumerate(GR.tolist(), start=1))
    S_M = math.fsum(
        g * (1.0 - r / M) for r, g in enumerate(GR[:Mn].tolist(), start=1)
    )
    lo = int(x / R) + 1
    hi = int(x / M)
    parts = []
    blo = lo
    while blo <= hi:
        bhi = min(blo + _BLOCK - 1, hi)
        parts.append(float(np.sum(g_range(model, a, blo, bhi))))
        blo = bhi + 1
    S_tail = math.fsum(parts)
    return S5Sums(S_R, S_M, S_tail, S_R - S_M - S_tail)


# ----------------------------------------------------------------------------
# exact identity checks


def divisor_switch_check(
    kind: sq.Family, a: int, x: int, M: float, window: sq.SievedWindow | None = None
) -> tuple[float, float, bool]:
    """Both sides of the large-modulus count swap n = a + qr.

    Direct side sums A*(x;q,a) over x/M < q <= x; switched side regroups the
    same terms by the cofactor r.  Weighted families compare fsum against
    fsum of the identical multiset, so equality is still exact.
    """
    if a <= 0:
        raise DomainError(f"the identity is stated for a > 0, got a={a}")
    if M <= 0:
        raise DomainError(f"M must be positive, got M={M}")
    if x > MAX_DENSE:
        raise ResourceError(f"x={x} above dense-array budget {MAX_DENSE}")
    if window is None:
        window = sq.sieve(kind, 1, x)
    elif window.kind_label != kind.label() or window.lo != 1 or window.hi < x:
        raise ConfigurationError("window does not cover [1, x] for this family")
    w = sq.dense_weights(window, x)
    G = int(x / M)
    integer = np.issubdtype(w.dtype, np.integer)

    def side(slices) -> tuple[float, int]:
        if integer:
            total = 0
            for s in slices:
                total += int(s.sum())
            return float(total), total
        arrs = [s for s in slices if len(s)]
        if not arrs:
            return 0.0, 0
        cat = np.concatenate(arrs)
        return math.fsum(cat.tolist()), 0

    direct_slices = (w[a + q :: q] for q in range(G + 1, x + 1) if a + q <= x)

    def switched_slices():
        r = 1
        while a + r * (G + 1) <= x:
            yield w[a + r * (G + 1) :: r]
            r += 1

    direct, di = side(direct_slices)
    switched, si = side(switched_slices())
    equal = (di == si) if integer else (direct == switched)
    return direct, switched, equal


# ----------------------------------------------------------------------------
# export

CSV_HEADER = "config_hash,kind,a,x,M,mode,coprime_filter,empirical_sum,normalized_avg,predicted,ratio,q_count,runtime_ms"


def _fmt(v: float) -> str:
    return "%.12g" % v


def report_to_dict(report: DiscrepancyReport) -> dict:
    pred = report.predicted
    return {
        "provenance": report.provenance,
        "empirical_sum": report.empirical_sum,
        "normalized_avg": report.normalized_avg,
        "predicted": None
        if pred is None
        else {
            "leading_value": pred.leading_value,
            "logM_exponent": str(pred.logM_exponent),
            "normalization": pred.normalization,
            "conditional_on": pred.conditional_on,
            "zero": pred.zero,
            "tail_bound": pred.tail_bound,
            "secondary": pred.secondary,
        },
        "ratio": report.ratio,
        "q_count": report.q_count,
        "runtime_ms": report.runtime_ms,
    }


def report_from_dict(data: dict) -> DiscrepancyReport:
    pred = data["predicted"]
    prediction = None
    if pred is not None:
        prediction = bias.BiasPrediction(
            leading_value=pred["leading_value"],
            logM_exponent=Fraction(pred["logM_exponent"]),
            normalization=pred["normalization"],
            conditional_on=pred["conditional_on"],
            zero=pred["zero"],
            tail_bound=pred["tail_bound"],
            secondary=pred.get("secondary"),  # absent from older exports
        )
    return DiscrepancyReport(
        empirical_sum=data["empirical_sum"],
        normalized_avg=data["normalized_avg"],
        predicted=prediction,
        ratio=data["ratio"],
        q_count=data["q_count"],
        runtime_ms=data["runtime_ms"],
        provenance=data["provenance"],
    )


def compare_and_export(report: DiscrepancyReport, path: str, format: str = "csv") -> str:
    """Deterministic single-report export; runtime_ms is the one volatile field."""
    if format not in ("csv", "json"):
        raise ConfigurationError(f"format must be csv or json, got {format!r}")
    prov = report.provenance
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        pred = report.predicted.leading_value if report.predicted is not None else math.nan
        writer.writerow(
            [
                prov["config_hash"],
                prov["kind"],
                prov["a"],
                prov["x"],
                _fmt(prov["M"]),
                prov["mode"],
                prov["coprime_filter"],
                _fmt(report.empirical_sum),
                _fmt(report.normalized_avg),
                _fmt(pred),
                _fmt(report.ratio),
                report.q_count,
                report.runtime_ms,
            ]
        )
        text = buf.getvalue()
    else:
        text = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path