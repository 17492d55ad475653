"""Empirical discrepancy runs.

Two workhorses: empirical_average sums A(x;q,a) minus its model term over a
q-range and normalizes per family; s5_sums evaluates the smoothed/sharp sum
combination S5, for which S5*M tends to the predicted bias mu in ratio as M
grows (the difference does not vanish: for primes at a = +-1,
M*S5 - mu_leading tends to -C5, and bias.predict_s5 gives the full expected
value).  Large moduli are summed by their cofactor, the divisor switch;
verify.divisor_switch_check holds those slices to the exact identity.
Everything reduces floats in a fixed order so repeated runs are bit-identical,
at every thread count: empirical_average hands each thread a contiguous
q-range of sums formed in a fixed order, and s5_sums sums its tail in fixed
blocks of _TAIL_BLOCK moduli on a pool of one thread per core, from one
LocalRatios table built before the pool starts, and reduces the blocks with
fsum in order.
"""

from __future__ import annotations

import collections
import csv
import hashlib
import io
import itertools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import bias
from . import multfn as mf
from . import sequences as sq
from .errors import ConfigurationError, DomainError, ResourceError, UnsupportedError
from .factorint import as_factored, iter_primes, phi
from .ktuples import KTuple, deviating_primes, is_admissible, nu_H

_BLOCK = 10**7  # widest window of g_range and ktuple_term_range
_TAIL_BLOCK = 2**20  # moduli per block of the s5 tail, at every thread count
_TAIL_MAX_BLOCKS = 2**20  # about 1.1e12 moduli: some 7 hours on 2 cores
_TAIL_IN_FLIGHT = 4  # tail blocks per worker submitted and not yet reduced

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
        if not 1 <= self.x < math.inf:
            raise DomainError(f"x must be finite and >= 1, got {self.x}")
        if not (math.isfinite(self.M) and self.M > 1):
            raise DomainError(f"M must be finite and > 1, got {self.M}")
        if self.mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.coprime_filter not in _FILTERS:
            raise ConfigurationError(
                f"coprime_filter must be one of {_FILTERS}, got {self.coprime_filter!r}"
            )
        lo, hi = self.q_range()
        if hi >= lo:  # a q-range the term kernel cannot take is refused before any sieve
            _check_window(lo, hi)

    def provenance(self) -> dict:
        """config_hash, then the six fields it hashes, in export order."""
        run = {
            "kind": self.kind.label(),
            "a": self.a,
            "x": self.x,
            "M": float(self.M),
            "mode": self.mode,
            "coprime_filter": self.coprime_filter,
        }
        text = "|".join(map(str, run.values()))
        return {"config_hash": hashlib.sha256(text.encode()).hexdigest()[:12], **run}

    @property
    def config_hash(self) -> str:
        return self.provenance()["config_hash"]

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


def _check_window(lo: int, hi: int) -> None:
    if lo < 1 or hi < lo:
        raise DomainError(f"bad range [{lo}, {hi}]")
    if hi - lo + 1 > _BLOCK + 1:
        raise ResourceError(f"window [{lo}, {hi}] too wide; use blocks")
    if hi >= 2**53:
        raise ResourceError(f"window [{lo}, {hi}] reaches 2^53, past exact float cofactors")


def _multiplicative_sieve(lo: int, hi: int, ratio, extra, leftover) -> np.ndarray:
    """Product of local factors of each q in [lo, hi], one float per q.

    Every prime power p^e <= hi with p <= sqrt(hi), or p in extra, strides
    its multiples with ratio(p, e), the factor p^e adds over p^(e-1), and
    multiplies p into D, the strided part of q.  What is left of q, the
    float P = q / D (exact below 2^53, as D divides q), is 1 or one prime
    above sqrt(hi).  leftover(P, out) writes its factor for every P into
    out, the spent D, and may overwrite P; the entries at P = 1 are reset
    to 1 and the rest multiply in.
    """
    n = hi - lo + 1
    G = np.ones(n, dtype=np.float64)
    D = np.ones(n, dtype=np.float64)
    root = math.isqrt(hi)
    above = (p for p in sorted(extra) if root < p <= hi)
    for p in itertools.chain(iter_primes(root), above):
        pe, e = p, 1
        while pe <= hi:
            start = ((lo + pe - 1) // pe) * pe
            if start > hi:
                break
            G[start - lo :: pe] *= ratio(p, e)
            D[start - lo :: pe] *= p
            e += 1
            pe *= p
    P = np.arange(lo, hi + 1, dtype=np.float64)
    P /= D
    one = P == 1
    with np.errstate(divide="ignore", invalid="ignore"):  # P = 1 divides by zero
        L = leftover(P, D)
    np.copyto(L, 1.0, where=one)
    G *= L
    return G


class LocalRatios:
    """The local factors of g_a for blocks of moduli in [lo, hi], built once.

    ratios[p][e - 1] is g_a(p^e) / g_a(p^(e-1)) as a float, from the exact
    Fractions, for every p^e with a multiple in [lo, hi] and p <= sqrt(hi)
    or p among extra: the divisors of a and the model's bad primes.  Those
    are the powers the sieve strides in any block inside [lo, hi].  All
    Fraction arithmetic happens here; sieve only reads the table, so one
    table serves every block of a tail and every thread at once.
    """

    def __init__(self, model: mf.SequenceModel, a, lo: int, hi: int):
        afac = as_factored(a)
        self.model, self.a, self.lo, self.hi = model, afac.value, lo, hi
        self.extra = {p for p, _ in afac.factors} | set(model.bad_primes)
        primes = set(iter_primes(math.isqrt(hi))) | {p for p in self.extra if p <= hi}
        touched = (p for p in sorted(primes) if (lo + p - 1) // p * p <= hi)
        self.ratios = {p: self._powers(p, afac) for p in touched}

    def _powers(self, p: int, afac) -> tuple[float, ...]:
        out, prev, pe, e = [], Fraction(1), p, 1
        while pe <= self.hi and (self.lo + pe - 1) // pe * pe <= self.hi:
            g = mf.g_local(self.model, p, e, afac)
            out.append(0.0 if prev == 0 else float(g / prev))
            prev, pe, e = g, pe * p, e + 1
        return tuple(out)

    def sieve(self, a, lo: int, hi: int) -> np.ndarray:
        """g_a(q) for q in [lo, hi] within the table's range."""
        if as_factored(a).value != self.a or lo < self.lo or hi > self.hi:
            raise DomainError(
                f"table for a={self.a} on [{self.lo}, {self.hi}] used for a={a} on [{lo}, {hi}]"
            )

        def leftover(P: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.divide(self.model.h_prime_vec(P), P, out=out)
            np.subtract(1.0, out, out=out)
            P -= 1.0
            return np.divide(out, P, out=out)

        ratios = self.ratios
        return _multiplicative_sieve(lo, hi, lambda p, e: ratios[p][e - 1], self.extra, leftover)


def g_range(model: mf.SequenceModel | LocalRatios, a, lo: int, hi: int) -> np.ndarray:
    """g_a(q) for q in [lo, hi], one float per q.

    Prime powers carry the exact local ratio; divisors of a and the model's
    bad primes above sqrt(hi) are strided exactly too, and the other
    leftover primes get the model's bulk h(p) rule, h_prime_vec.  model is
    a SequenceModel, whose table is built for [lo, hi] alone, or a
    LocalRatios table already built for a on a range that holds [lo, hi]
    (s5_sums passes one per tail); the output is the same.
    """
    _check_window(lo, hi)
    table = model if isinstance(model, LocalRatios) else LocalRatios(model, a, lo, hi)
    return table.sieve(a, lo, hi)


def ktuple_term_range(H: KTuple, lo: int, hi: int) -> np.ndarray:
    """1/(q * gamma_H(q)) for q in [lo, hi]; the tuple analog of g_range."""
    _check_window(lo, hi)
    if not is_admissible(H):
        raise DomainError(f"inadmissible tuple {H.label()}")
    return _multiplicative_sieve(
        lo,
        hi,
        lambda p, e: 1.0 / (p - nu_H(H, p)) if e == 1 else 1.0 / p,
        deviating_primes(H),
        lambda P, out: np.divide(1.0, np.subtract(P, H.k, out=out), out=out),
    )


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


def _prediction(
    cfg: ExperimentConfig, A_x: float | int | None = None
) -> bias.BiasPrediction:
    """The closed form on the family's route for this filter and mode; A_x,
    the exact A(x) of a run that holds its window, saves a family that needs
    it a sieve of its own.  A missing route or a refused shift raises."""
    kind = cfg.kind
    route = kind.routes.get((cfg.coprime_filter, cfg.mode))
    if route == "predict":
        return kind.predict(cfg.a, cfg.M, cfg.x, A_x)
    if route == "mu_k":
        return bias.mu_k(kind.model(), cfg.a, cfg.M)
    raise UnsupportedError("no closed form for this mode/filter combination")


def prediction_refusal(cfg: ExperimentConfig) -> Optional[str]:
    """Why a run of cfg carries no prediction, in the closed form's own words;
    None where it has one."""
    try:
        _prediction(cfg)
    except (DomainError, UnsupportedError) as exc:
        return str(exc)
    return None


def _slice_sums(w: np.ndarray, a: int, lo: int, hi: int, keep: np.ndarray) -> np.ndarray:
    """For each q in [lo, hi] with keep[q - lo], in q-order: the sum of w[n]
    over 1 <= n <= x = len(w) - 1 with n = a mod q, in w's dtype.

    A modulus q <= Q0 = max(isqrt(x), |a|) sums its own strided slice.  Above
    Q0 the terms are n = a + rq, grouped by the cofactor r >= 1 (and n = a
    once, for a > 0): each r adds one strided slice into a per-q accumulator,
    so about 2 sqrt(x) numpy calls replace one per modulus.  Each sum is
    formed in a fixed order, r ascending, so it does not depend on [lo, hi].
    The slices come from _cofactor_slices, which verify.divisor_switch_check
    holds to a per-modulus gather of the same terms.
    """
    x = len(w) - 1
    q0 = max(math.isqrt(x), abs(a))
    small = [w[a % q or q :: q].sum() for q in range(lo, min(hi, q0) + 1) if keep[q - lo]]
    sums = np.array(small, dtype=w.dtype)
    big_lo = max(lo, q0 + 1)
    if big_lo > hi:
        return sums
    acc = np.zeros(hi - big_lo + 1, dtype=w.dtype)
    if a > 0:
        acc += w[a]
    for s in _cofactor_slices(w, a, big_lo, hi):
        acc[: len(s)] += s
    return np.concatenate([sums, acc[keep[big_lo - lo :]]])


def _cofactor_slices(w: np.ndarray, a: int, lo: int, hi: int):
    """For r = 1, 2, ...: the terms w[a + r*q] over lo <= q <= hi with
    a + r*q <= x = len(w) - 1, in q-order, as one strided view per r."""
    x = len(w) - 1
    r = 1
    while a + r * lo <= x:
        top = min(hi, (x - a) // r)
        yield w[a + r * lo : a + r * top + 1 : r]
        r += 1


def _dense_window(
    kind: sq.Family, x: int, window: Optional[sq.SievedWindow]
) -> sq.SievedWindow:
    """The window a run over [1, x] sums: refused above the dense-array
    budget before any work, sieved when none is given, else checked to
    cover [1, x] for kind with kind's weight type."""
    if x > sq.MAX_WINDOW:
        raise ResourceError(f"x={x} above dense-array budget {sq.MAX_WINDOW}")
    if window is None:
        return sq.sieve(kind, 1, x)
    if window.kind_label != kind.label() or window.lo != 1 or window.hi < x:
        raise ConfigurationError(
            f"window {window.kind_label} [{window.lo}, {window.hi}] does not "
            f"cover [1, {x}] for {kind.label()}"
        )
    sq.check_weight_type(kind, window)
    return window


def _chunks(lo: int, hi: int, n: int) -> list[tuple[int, int]]:
    """[lo, hi] cut into at most n contiguous ranges of about equal work: a
    modulus q costs about x/q terms, so the cuts are spaced geometrically."""
    cuts = np.unique(np.geomspace(lo, hi + 1, n + 1).round().astype(np.int64))
    return [(int(i), int(j) - 1) for i, j in zip(cuts[:-1], cuts[1:])]


def empirical_average(
    cfg: ExperimentConfig,
    window: Optional[sq.SievedWindow] = None,
    threads: int = 1,
) -> DiscrepancyReport:
    """Average of A(x;q,a) - a(a) - g_a(q) A(x) over the configured q-range.

    The per-q counts come from _slice_sums, integer families in integers;
    threads > 1 hands each worker a contiguous range of moduli.  Each count
    is formed in a fixed order and the float terms are reduced with fsum, so
    the report is the same at every thread count.
    """
    t0 = time.perf_counter()
    if cfg.kind.required_filter not in (None, cfg.coprime_filter):
        raise UnsupportedError(
            f"{cfg.kind.name} runs need coprime_filter={cfg.kind.required_filter!r}"
        )
    window = _dense_window(cfg.kind, cfg.x, window)
    w = sq.dense_weights(window, size=cfg.x)
    A_x = sq.count_A_upto(window, cfg.x)
    A_xf = float(A_x)

    q_lo, q_hi = cfg.q_range()
    # a(a), read from the array the slice sums add, so the term removed is the one counted
    pm = float(w[cfg.a]) if 0 < cfg.a <= cfg.x else 0.0

    if q_hi < q_lo:
        terms = np.empty(0)
    else:
        G = _term_array(cfg, q_lo, q_hi)
        mask = _filter_mask(cfg, q_lo, q_hi)

        def part(bounds: tuple[int, int]) -> np.ndarray:
            lo, hi = bounds
            return _slice_sums(w, cfg.a, lo, hi, mask[lo - q_lo : hi - q_lo + 1])

        if threads <= 1 or q_hi - q_lo < 1024:
            sums = part((q_lo, q_hi))
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                sums = np.concatenate(list(pool.map(part, _chunks(q_lo, q_hi, threads))))
        terms = sums.astype(np.float64) - pm - G[mask] * A_xf
    q_count = len(terms)
    empirical = math.fsum(terms.tolist())
    norm = _normalizer(cfg, A_xf)
    normalized = empirical / norm if norm != 0 else math.nan
    try:
        predicted = _prediction(cfg, A_x)
    except (DomainError, UnsupportedError):
        predicted = None
    if predicted is not None and predicted.leading_value != 0.0:
        ratio = normalized / predicted.leading_value
    else:
        ratio = math.nan
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return DiscrepancyReport(
        empirical, normalized, predicted, ratio, q_count, runtime_ms, cfg.provenance()
    )


# ----------------------------------------------------------------------------
# the smoothed-minus-sharp sum of the bias expansion


def _map_in_order(pool: ThreadPoolExecutor, fn, items, depth: int):
    """pool.map(fn, items) read lazily: yields the results in item order and
    keeps at most depth calls submitted and not yet yielded."""
    pending = collections.deque()
    for item in items:
        if len(pending) == depth:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def s5_sums(model: mf.SequenceModel, a, M: float, R: float, x: int) -> S5Sums:
    """S_R - S_M - S_tail where S_T smooths g_a(r)(1 - r/T) and the tail
    runs the unsmoothed sum over x/R < q <= x/M.  Direct summation throughout.

    The tail is cut into fixed blocks of _TAIL_BLOCK moduli, which one
    worker per core sums with one LocalRatios table built before they
    start.  Blocks are submitted as the reduction reads them, at most
    _TAIL_IN_FLIGHT per worker ahead, so memory does not grow with the
    tail.  The block sums are reduced with fsum in block order, and the
    blocks do not depend on the worker count, so S_tail has the same bits
    on every machine.  A tail that reaches 2^53 or needs more than
    _TAIL_MAX_BLOCKS blocks is refused before any table or block.
    """
    if not 1 < M <= R:
        raise DomainError(f"need 1 < M <= R, got M={M}, R={R}")
    if R**2 > x:
        raise DomainError(f"R={R} above sqrt(x) at x={x}")
    lo = int(x / R) + 1
    hi = int(x / M)
    if hi >= lo and (hi >= 2**53 or hi - lo >= _TAIL_MAX_BLOCKS * _TAIL_BLOCK):
        raise ResourceError(
            f"s5 tail [{lo}, {hi}] reaches 2^53 or needs more than "
            f"{_TAIL_MAX_BLOCKS} blocks of {_TAIL_BLOCK} moduli"
        )
    Rn, Mn = int(R), int(M)
    GR = g_range(model, a, 1, Rn)
    S_R = math.fsum(g * (1.0 - r / R) for r, g in enumerate(GR.tolist(), start=1))
    S_M = math.fsum(
        g * (1.0 - r / M) for r, g in enumerate(GR[:Mn].tolist(), start=1)
    )
    starts = range(lo, hi + 1, _TAIL_BLOCK)
    S_tail = 0.0
    if starts:
        table = LocalRatios(model, a, lo, hi)

        def block_sum(b: int) -> float:
            # through g_range, so a wrapper of it (a tracer, a check) sees every block
            return float(np.sum(g_range(table, a, b, min(b + _TAIL_BLOCK - 1, hi))))

        workers = min(os.cpu_count() or 1, len(starts))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            S_tail = math.fsum(_map_in_order(pool, block_sum, starts, _TAIL_IN_FLIGHT * workers))
    return S5Sums(S_R, S_M, S_tail, S_R - S_M - S_tail)


# ----------------------------------------------------------------------------
# export

CSV_HEADER = "config_hash,kind,a,x,M,mode,coprime_filter,empirical_sum,normalized_avg,predicted,ratio,q_count,runtime_ms"


def _fmt(v) -> str:
    return "%.12g" % v if isinstance(v, float) else str(v)


def report_to_dict(report: DiscrepancyReport) -> dict:
    data = asdict(report)
    if report.predicted is not None:
        data["predicted"]["logM_exponent"] = str(report.predicted.logM_exponent)
    return data


def report_from_dict(data: dict) -> DiscrepancyReport:
    pred = data["predicted"]
    if pred is not None:
        # older exports have no secondary; BiasPrediction defaults it to None
        exponent = Fraction(pred["logM_exponent"])
        pred = bias.BiasPrediction(**{**pred, "logM_exponent": exponent})
    return DiscrepancyReport(**{**data, "predicted": pred})


def compare_and_export(report: DiscrepancyReport, path: str, format: str = "csv") -> str:
    """Deterministic single-report export; runtime_ms is the one volatile field."""
    if format not in ("csv", "json"):
        raise ConfigurationError(f"format must be csv or json, got {format!r}")
    if format == "csv":
        pred = report.predicted.leading_value if report.predicted is not None else math.nan
        row = {**report.provenance, **vars(report), "predicted": pred}
        columns = CSV_HEADER.split(",")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerow(_fmt(row[k]) for k in columns)
        text = buf.getvalue()
    else:
        text = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path