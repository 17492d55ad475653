"""Empirical discrepancy runs.

Two workhorses: empirical_average sums A(x;q,a) minus its model term over a
q-range and normalizes per family; s5_sums evaluates the smoothed/sharp sum
combination S5, for which S5*M tends to the predicted bias mu in ratio as M
grows (the difference does not vanish: for primes at a = +-1,
M*S5 - mu_leading tends to -C5, and bias.predict_s5 gives the full expected
value).  Large moduli are summed by their cofactor, the divisor switch;
verify.divisor_switch_check holds those slices to the exact identity.
Both read g_a(q) from one multiplicative-sieve kernel, which fills any
window in pieces of _PIECE moduli with the same bits as one pass.
Everything reduces floats in a fixed order so repeated runs are bit-identical,
at every thread count: empirical_average hands its threads contiguous
q-ranges of sums formed in a fixed order, and s5_sums sums its tail in fixed
blocks of _TAIL_BLOCK moduli, one piece each, on a pool of one thread per
core, from one LocalRatios table built before the pool starts, and reduces
the blocks with fsum in order.
"""

from __future__ import annotations

import bisect
import collections
import copy
import csv
import hashlib
import io
import itertools
import json
import math
import numbers
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bias
from . import multfn as mf
from . import sequences as sq
from .errors import (
    ConfigurationError, DomainError, ResourceError, UnsupportedError, require_integers,
    require_window,
)
from .factorint import as_factored, coprime_mask, divisors, factors_of, iter_primes, phi
from .ktuples import KTuple, deviating_primes, is_admissible, nu_H

_BLOCK = 10**7
# the term kernel's window budget: _BLOCK + 1 moduli, below 2^53, where q / D stops being exact
_KERNEL = (_BLOCK + 1, 2**53 - 1)
# moduli per piece of the multiplicative kernel, its unit of work: a piece's G
# and D are 4 MB each, and an s5 tail worker holds one of each, so the
# closed-forms bench's peak RSS fell 73.4 -> 57.2 MB from blocks of 2^20.
# Nine 2^20 spans of the tail from q = 10001 (primes, one thread, 2-core Xeon)
# took 274 ms (median) in pieces of 2^19, 276 in 2^20 and 283 in 2^18
_PIECE = 2**19
# primes above this have fewer than 128 multiples per piece, and all of their
# powers go to one np.multiply.at per piece.  A tail of 16 * 2^20 moduli
# ending at q = 1e9 took 592 ms (median) on 2 workers at this cut, 781 at 2^14
# and 926 unbatched.  A cut of 2^10 took 531 ms there but reaches the bench's
# tails (q <= 1e7), where alternated bench runs read run_s 0.255-0.267 s
# against 0.225-0.244: multiply.at does not overlap across workers as strides do
_BATCH_ABOVE = 2**12
_TAIL_BLOCK = _PIECE  # moduli per block of the s5 tail, at every thread count
_TAIL_MAX_BLOCKS = 2**21  # about 1.1e12 moduli: some 7 hours on 2 cores
_TAIL_IN_FLIGHT = 4  # tail blocks per worker submitted and not yet reduced
_CHUNKS_PER_THREAD = 4  # q-ranges per thread of empirical_average's pool
_SEGMENT = 2**22  # integers per dense segment of an empirical average: 32 MB of float weights
_EVEN_PROBE = 2**12  # support points _plane probes for even points before its whole scan
_TILE_POWERS = ((2, 4), (3, 2), (5, 1), (7, 1))  # p and the cap of p^e in the cofactor tile
_TILE_PERIOD = math.prod(p**k for p, k in _TILE_POWERS)  # 5040
_LEFTOVER_CHUNK = 2**16  # moduli per pass of the sieve's leftover; its arrays stay in L2

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
        """Every refusal the fields decide, made before any work."""
        a, x = require_integers(a=self.a, x=self.x)  # a numpy integer runs as an int
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "x", x)
        if a == 0:
            raise DomainError("a must be nonzero")
        require_window(1, x, sq.MAX_WINDOW, sq.MAX_TABLE_LIMIT)
        if not (math.isfinite(self.M) and self.M > 1):
            raise DomainError(f"M must be finite and > 1, got {self.M}")
        if self.mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.coprime_filter not in _FILTERS:
            raise ConfigurationError(
                f"coprime_filter must be one of {_FILTERS}, got {self.coprime_filter!r}"
            )
        if self.coprime_filter not in self.kind.filters:
            filters = " or ".join(map(repr, self.kind.filters))
            raise UnsupportedError(f"{self.kind.name} runs need coprime_filter={filters}")
        lo, hi = self.q_range()
        if hi >= lo:
            require_window(lo, hi, *_KERNEL)

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


def _cofactor_tile() -> np.ndarray:
    """tile[t] = the product of p^min(v_p(t), k) over (p, k) in
    _TILE_POWERS, for t = 0 .. 2 * _TILE_PERIOD - 1: the small primes' part
    of the strided cofactor of every q = t mod the period, over two periods,
    so that one period starts at any offset."""
    tile = np.ones(2 * _TILE_PERIOD, dtype=np.float64)
    for p, k in _TILE_POWERS:
        for j in range(1, k + 1):
            tile[:: p**j] *= p
    return tile


_TILE = _cofactor_tile()


def _buffer(buf: Optional[np.ndarray], n: int) -> np.ndarray:
    """The first n floats of buf, or n fresh ones."""
    if buf is None:
        return np.empty(n)
    if buf.dtype != np.float64 or buf.ndim != 1 or len(buf) < n:
        raise ConfigurationError(f"buffer of {buf.shape} {buf.dtype} for {n} float64")
    return buf[:n]


def _multiplicative_sieve(
    lo: int, hi: int, ratio, extra, leftover, out=None, scratch=None
) -> np.ndarray:
    """Product of local factors of each q in [lo, hi], one float per q,
    written into out[: hi - lo + 1] when given.

    Every prime power p^e <= hi with p <= sqrt(hi), or p in extra, strides
    its multiples with ratio(p, e), the factor p^e adds over p^(e-1), and
    multiplies p into D, the strided part of q.  What is left of q, the
    float P = q / D (exact below 2^53, as D divides q), is 1 or one prime
    above sqrt(hi).  leftover(P, out) writes its factor for every P into
    out, the spent D, and may overwrite P; the entries at P = 1 are reset
    to 1 and the rest multiply in.

    The window is filled in pieces of _PIECE moduli, each with the one
    piece of D in scratch (or a fresh one).  Every piece takes the primes up
    to sqrt(hi) of the whole window, so a modulus gets the same factors, in
    the same order, whatever piece it falls in.

    The bits of G do not depend on how D and the leftover are laid out.
    D is a product of integers, each partial product a divisor of q below
    2^53, so it is exact in any order: once sqrt(hi) reaches the tile's
    primes, D starts from the periodic _TILE, which holds p^e for e up to
    each prime's cap, and only the higher powers stride D.  G takes every
    ratio(p, e) p ascending and e ascending within p; that order sets G's
    bits.  Primes up to _BATCH_ABOVE stride G one power at a time.  The
    powers of the larger primes, which come after them, go to one
    np.multiply.at per piece, their multiples concatenated in (p, e) order:
    multiply.at applies repeated indices in index order, so each modulus
    still takes its ratios p ascending and e ascending.  The leftover is
    elementwise, so it runs in chunks of _LEFTOVER_CHUNK moduli that stay
    in cache.
    """
    n = hi - lo + 1
    G = _buffer(out, n)
    D = _buffer(scratch, min(n, _PIECE))
    root = math.isqrt(hi)
    caps = dict(_TILE_POWERS) if root >= _TILE_POWERS[-1][0] else {}
    above = (p for p in sorted(extra) if root < p <= hi)
    primes = list(itertools.chain(iter_primes(root), above))
    cut = bisect.bisect_right(primes, _BATCH_ABOVE)
    batch = _batched_powers(primes[cut:], lo, hi, ratio)
    for c in range(0, n, _PIECE):
        m = min(_PIECE, n - c)
        _sieve_piece(G[c : c + m], D[:m], lo + c, primes[:cut], caps, ratio, batch, leftover)
    return G


def _batched_powers(primes: list[int], lo: int, hi: int, ratio):
    """The powers p^e of primes with a multiple in [lo, hi], in (p, e)
    order, as arrays of p^e, p and ratio(p, e); None for no primes."""
    if not primes:
        return None
    base = pe = np.array(primes, dtype=np.int64)
    bases, powers, exps, e = [], [], [], 1
    while len(pe):
        has = (lo + pe - 1) // pe * pe <= hi  # p^(e+1) has a multiple only where p^e has
        bases.append(base[has])
        powers.append(pe[has])
        exps.append(np.full(int(has.sum()), e))
        more = has & (base <= hi // pe)  # p^(e+1) <= hi, with no int64 overflow
        base, pe, e = base[more], pe[more] * base[more], e + 1
    p, pe, e = (np.concatenate(v) for v in (bases, powers, exps))
    order = np.lexsort((e, p))
    p, pe, e = p[order], pe[order], e[order]
    r = np.array([ratio(pi, ei) for pi, ei in zip(p.tolist(), e.tolist())], dtype=np.float64)
    return pe, p.astype(np.float64), r


def _sieve_piece(G, D, lo: int, strided, caps, ratio, batch, leftover) -> None:
    """_multiplicative_sieve over the piece [lo, lo + len(G)): G and D are
    its slices, strided the primes up to _BATCH_ABOVE and batch the
    _batched_powers of the rest."""
    m = len(G)
    hi = lo + m - 1
    G.fill(1.0)
    if caps:
        k = min(m, _TILE_PERIOD)
        D[:k] = _TILE[lo % _TILE_PERIOD :][:k]
        while k < m:  # k stays a multiple of the period
            step = min(k, m - k)
            D[k : k + step] = D[:step]
            k += step
    else:
        D.fill(1.0)
    for p in strided:
        cap = caps.get(p, 0)
        pe, e = p, 1
        while pe <= hi:
            start = ((lo + pe - 1) // pe) * pe
            if start > hi:
                break
            G[start - lo :: pe] *= ratio(p, e)
            if e > cap:
                D[start - lo :: pe] *= p
            e += 1
            pe *= p
    if batch is not None:
        pe, p, r = batch
        first = (-lo) % pe  # offset of each power's first multiple in the piece
        hit = np.flatnonzero(first < m)
        first, pe = first[hit], pe[hit]
        counts = (m - 1 - first) // pe + 1
        # idx lists each power's multiples in turn: offset + rank * p^e
        idx = np.arange(int(counts.sum()))
        idx -= np.repeat(np.cumsum(counts) - counts, counts)
        idx *= np.repeat(pe, counts)
        idx += np.repeat(first, counts)
        np.multiply.at(G, idx, np.repeat(r[hit], counts))
        np.multiply.at(D, idx, np.repeat(p[hit], counts))
    with np.errstate(divide="ignore", invalid="ignore"):  # P = 1 divides by zero
        for c in range(0, m, _LEFTOVER_CHUNK):
            d = D[c : c + _LEFTOVER_CHUNK]
            P = np.arange(lo + c, lo + c + len(d), dtype=np.float64)
            P /= d
            one = np.flatnonzero(P == 1)
            L = leftover(P, d)
            L[one] = 1.0
            G[c : c + len(d)] *= L


class LocalRatios:
    """The local factors of g_a for blocks of moduli in [lo, hi], built once.

    ratios[p][e - 1] is g_a(p^e) / g_a(p^(e-1)) as a float, from the exact
    Fractions, for every p^e with a multiple in [lo, hi] and p <= sqrt(hi)
    or p among extra: the divisors of a and the model's bad primes.  Those
    are the powers the sieve strides in any block inside [lo, hi].  All
    Fraction arithmetic happens here; sieve only reads the table, so one
    table serves every block of a tail and every thread at once.
    """

    G = D = None  # the buffers of a copy from with_buffers

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

    def with_buffers(self, n: int) -> LocalRatios:
        """A copy of the table, sharing its ratios, that owns a G of n
        floats and one kernel piece of D.  Every sieve on the copy fills
        them and returns a view of G, good until its next call: the
        buffers of one s5 tail worker, reused block after block."""
        mine = copy.copy(self)
        mine.G, mine.D = np.empty(n), np.empty(min(n, _PIECE))
        return mine

    def sieve(self, a, lo: int, hi: int) -> np.ndarray:
        """g_a(q) for q in [lo, hi] within the table's range: written into
        the table's own G if it has one, else into a fresh array."""
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
        return _multiplicative_sieve(
            lo, hi, lambda p, e: ratios[p][e - 1], self.extra, leftover, self.G, self.D
        )


def g_range(model: mf.SequenceModel | LocalRatios, a, lo: int, hi: int) -> np.ndarray:
    """g_a(q) for q in [lo, hi], one float per q.

    Prime powers carry the exact local ratio; divisors of a and the model's
    bad primes above sqrt(hi) are strided exactly too, and the other
    leftover primes get the model's bulk h(p) rule, h_prime_vec.  model is
    a SequenceModel, whose table is built for [lo, hi] alone, or a
    LocalRatios table already built for a on a range that holds [lo, hi]
    (s5_sums passes one per tail); the output is the same.  A table with
    its own buffers (LocalRatios.with_buffers) returns a prefix of its G,
    with the values of a fresh call.
    """
    lo, hi = require_window(lo, hi, *_KERNEL)
    table = model if isinstance(model, LocalRatios) else LocalRatios(model, a, lo, hi)
    return table.sieve(a, lo, hi)


def ktuple_term_range(H: KTuple, lo: int, hi: int) -> np.ndarray:
    """1/(q * gamma_H(q)) for q in [lo, hi]; the tuple analog of g_range."""
    lo, hi = require_window(lo, hi, *_KERNEL)
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
    if hi < lo:
        return np.empty(0)
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
    base = abs(cfg.kind.P(cfg.a))
    if base == 0:
        raise DomainError("P(a;H) = 0: the filter is undefined")
    return base


def _filter_mask(cfg: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    return coprime_mask(lo, hi, [p for p, _ in factors_of(_filter_base(cfg))])


# ----------------------------------------------------------------------------
# empirical averages


def _normalizer(cfg: ExperimentConfig, A_x: float) -> float:
    if any(f == cfg.coprime_filter and r == "predict" for (f, _), r in cfg.kind.routes.items()):
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


def _slice_sums(
    window: sq.SievedWindow, x: int, a: int, lo: int, hi: int, keep: np.ndarray, threads: int = 1
) -> np.ndarray:
    """For each q in [lo, hi] with keep[q - lo], in q-order: the sum of the
    window's weights over 1 <= n <= x with n = a mod q, in int64 for integer
    weights and in float64 otherwise.

    [1, x] is walked by _segments, which owns the walk, in segments of
    _SEGMENT integers, upward in n: whole, or for primes, twin and
    rough(y >= 3) (_plane) the plane of its odd n, with the few even points
    added term by term.  Each segment adds its terms into a per-q
    accumulator (_segment_sums) before the next one is drawn;
    threads > 1 hands one pool _CHUNKS_PER_THREAD contiguous ranges of
    moduli per thread, mapped over every segment in turn.  A modulus above
    Q0 adds its terms r-ascending, an even point in its cofactor's turn,
    the order of one dense pass, so its sum has the bits of that pass at
    any segment size and either plane; a float sum at q <= Q0 is the
    in-order sum of its segments' numpy sums and even points.  No sum
    depends on [lo, hi] or the thread count.
    """
    dtype = np.int64 if window.weights.dtype.kind in "iu" else np.float64
    acc = np.zeros(max(hi - lo + 1, 0), dtype=dtype)
    if hi < lo:
        return acc
    q0 = max(math.isqrt(x), abs(a))
    several = threads > 1 and hi - lo >= 1024
    bounds = _chunks(lo, hi, _CHUNKS_PER_THREAD * threads if several else 1)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for p0, step, plane, points in _segments(window, x, a, _SEGMENT):

            def part(b: tuple[int, int]) -> None:
                i, j = b[0] - lo, b[1] - lo + 1
                _segment_sums(acc[i:j], plane, p0, step, a, q0, b[0], b[1], keep[i:j], points)

            list(pool.map(part, bounds))
    return acc[keep]


def _segments(window: sq.SievedWindow, x: int, a: int, size: int):
    """The one walk over [1, x], read by _slice_sums and
    verify.divisor_switch_check: per segment of size integers, upward in n,
    (p0, step, plane, points), plane[j] the weight of n = p0 + step*j (odd
    n at _plane's step 2), points the segment's even points off the plane.
    Each plane is a prefix of one buffer that sequences.dense_weights
    refills, so it and its views are valid until the next segment is drawn.
    """
    step, evens = _plane(window, x, a)
    buf = None
    for n0 in range(1, x + 1, size):
        top = min(n0 + size - 1, x)
        p0 = n0 + (1 - n0) % step  # odd at step 2
        plane = sq.dense_weights(window, top, lo=p0, out=buf, step=step)
        buf = plane if buf is None else buf
        yield p0, step, plane, [p for p in evens if n0 <= p[0] <= top]


def _plane(window: sq.SievedWindow, x: int, a: int) -> tuple[int, list]:
    """The step of the dense plane _segments walks for a window over
    [1, x], and the points that plane leaves out.

    A window with at most x.bit_length() even points n <= x (primes: the
    powers of 2; twin: n = 2; rough(y >= 3): none) is read from its odd n
    only, step 2, and each even point comes back as (n, its weight as a
    one-element array, the divisors of |n - a|, or () at n = a).  Any other
    window is read whole, step 1, with no points left out."""
    support = window.support[: np.searchsorted(window.support, x, side="right")]
    # two_squares, the forms and rough(2) show their even points in the first
    # few thousand; the plane's windows are scanned whole (1.3 ms for primes at 1e7)
    for part in (support[:_EVEN_PROBE], support):
        even = np.flatnonzero((part & 1) == 0)
        if len(even) > x.bit_length():
            return 1, []
    return 2, [
        (n, window.weights[i : i + 1], divisors(n - a) if n != a else ())
        for i, n in zip(even.tolist(), support[even].tolist())
    ]


def _segment_sums(
    acc: np.ndarray,
    plane: np.ndarray,
    n0: int,
    s: int,
    a: int,
    q0: int,
    lo: int,
    hi: int,
    keep: np.ndarray,
    evens: list,
) -> None:
    """acc[q - lo] += the terms n = a mod q of the segment that starts at
    n0 >= 1, for each q in [lo, hi] (q <= q0 only where keep[q - lo]): the
    plane's n = n0 + s*j, plus the even points (_plane) of the segment,
    when the plane's step s is 2.

    A modulus q <= Q0 = max(isqrt(x), |a|) sums its own strided view of the
    plane, the n = a mod lcm(q, s) that the plane holds, one indexed add
    for them all, and then the even points at its multiples.  Above Q0 the
    terms are n = a + rq, grouped by the cofactor r >= 1 (and n = a once,
    for a > 0, in its segment): each r adds one strided view, from
    _cofactor_slices, into a q-range of acc, so about 2 sqrt(x) numpy calls
    replace one per modulus.
    """
    for n, w, _ in evens:
        if n == a:  # a term of every modulus, the first of each above Q0
            acc += w
    d = a - n0
    small_hi = min(hi, q0)
    small = [q for q in range(lo, small_hi + 1) if keep[q - lo]]
    if small:
        parts = []
        for q in small:
            g = math.gcd(q, s)
            m = q // g  # the view's stride, lcm(q, s) / s
            if d % g:  # n = a mod q has the parity the plane leaves out
                parts.append(0)
            else:
                parts.append(plane[d // g * pow(s // g, -1, m) % m :: m].sum(dtype=acc.dtype))
        acc[np.array(small) - lo] += parts
        for n, w, divs in evens:
            for q in divs[bisect.bisect_left(divs, lo) : bisect.bisect_right(divs, small_hi)]:
                acc[q - lo] += w[0]
    big_lo = max(lo, q0 + 1)
    if big_lo > hi:
        return
    if d >= 0 and d % s == 0 and d // s < len(plane):
        acc[big_lo - lo :] += plane[d // s]
    for q, step, v in _cofactor_slices(plane, n0, s, a, big_lo, hi, evens):
        acc[q - lo : q - lo + step * len(v) : step] += v


def _cofactor_slices(plane: np.ndarray, n0: int, s: int, a: int, lo: int, hi: int, evens: list):
    """For r = 1, 2, ...: the terms n = a + r*q over lo <= q <= hi that the
    plane holds, n = n0 + s*j with 0 <= j < len(plane), as (the first such
    q, the step between their q, one strided view in q-order) per r with
    any; and, in r's turn, each even point n = a + r*q of evens at its
    moduli q in [lo, hi], as (q, 1, its weight).

    At step s = 1 the plane holds every n of the segment and each r takes
    every q in its range.  At s = 2 (odd n only) an odd r takes every
    other q, a view of stride r into an acc stride of 2; an even r takes
    every q, a view of stride r/2, when a is odd, and none when a is even.
    """
    last = n0 + s * (len(plane) - 1)
    points = sorted(
        ((n - a) // q, q, w)
        for n, w, divs in evens
        if n > a
        for q in divs[bisect.bisect_left(divs, lo) : bisect.bisect_right(divs, hi)]
    )
    k = 0
    for r in range(max(1, -(-(n0 - a) // hi)), (last - a) // lo + 1):
        while k < len(points) and points[k][0] < r:
            _, q, w = points[k]
            yield q, 1, w
            k += 1
        first, top = max(lo, -(-(n0 - a) // r)), min(hi, (last - a) // r)
        step = s // math.gcd(r, s)
        first += (a + r * first - n0) % step  # a step of 2 needs the plane's parity
        i = a + r * first - n0
        if first <= top and i % s == 0:
            yield first, step, plane[i // s : (a + r * top - n0) // s + 1 : r * step // s]
    for _, q, w in points[k:]:
        yield q, 1, w


def _chunks(lo: int, hi: int, n: int) -> list[tuple[int, int]]:
    """[lo, hi] cut into at most n contiguous ranges, spaced geometrically,
    so each holds about as many terms (a modulus q has about x/q of them).
    A term's cost is not even: at x = 1e7 (primes, a = 1, 2-core box) the
    eight ranges of [1, 5e5] took 32 to 156 ms each, least at q <= 4, most
    just below sqrt(x), so a pool is handed more ranges than threads."""
    cuts = np.unique(np.geomspace(lo, hi + 1, n + 1).round().astype(np.int64))
    return [(int(i), int(j) - 1) for i, j in zip(cuts[:-1], cuts[1:])]


def empirical_average(
    cfg: ExperimentConfig,
    window: sq.SievedWindow | Callable[[], Optional[sq.SievedWindow]] | None = None,
    threads: int = 1,
) -> DiscrepancyReport:
    """Average of A(x;q,a) - a(a) - g_a(q) A(x) over the configured q-range.

    cfg refused what its fields decide, a filter its family does not take
    among them, when it was built.  The rest comes before the work it
    spares, in this order: a thread count that is not an integer >= 1, a
    'P' filter whose base is 0 (_filter_mask), a shift at which the model
    has no density (_term_array), both asked for an empty q-range too, and
    only then the window.  window is a SievedWindow over exactly [1, x], or
    None to sieve one, or a callable with no arguments that returns either;
    it is called only once the run is known not to be refused, so a refused
    run costs no sieve and no cache load.  sq.window_over refuses a window
    that does not serve the run.

    The per-q counts come from _slice_sums, which sums the window one dense
    segment at a time, integer families in integers; threads > 1 hands its
    pool _CHUNKS_PER_THREAD contiguous ranges of moduli per thread, each
    taken by the next free worker.  Each count is formed in a fixed order
    and the float terms are reduced with fsum's bits (sequences.array_fsum),
    so the report is the same at every thread count.
    """
    t0 = time.perf_counter()
    if not isinstance(threads, numbers.Integral) or threads < 1:
        raise ConfigurationError(f"threads must be an integer >= 1, got {threads!r}")
    threads = int(threads)  # a numpy integer runs as an int
    q_lo, q_hi = cfg.q_range()
    # filter, then densities, then window, for an empty q-range too: a refusal spares what follows
    mask = _filter_mask(cfg, q_lo, q_hi)
    G = _term_array(cfg, q_lo, q_hi)
    window = sq.window_over(cfg.kind, cfg.x, window() if callable(window) else window)
    A_x = sq.count_A_upto(window, cfg.x)
    A_xf = float(A_x)

    # a(a), read as the slice sums read it, from a dense array of the window
    pm = float(sq.dense_weights(window, cfg.a, lo=cfg.a)[0]) if 0 < cfg.a <= cfg.x else 0.0

    sums = _slice_sums(window, cfg.x, cfg.a, q_lo, q_hi, mask, threads)
    # (sums - pm) - G A(x), formed in place
    terms = sums.astype(np.float64, copy=False)
    terms -= pm
    G = G[mask]
    terms -= np.multiply(G, A_xf, out=G)
    q_count = len(terms)
    empirical = sq.array_fsum(terms)
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

    The tail is cut into fixed blocks of _TAIL_BLOCK moduli, one kernel
    piece each, which one worker per core sums with one LocalRatios table
    built before they start.  Each worker fills its own G and D, made once
    per call (LocalRatios.with_buffers), block after block.  Blocks are
    submitted as the reduction reads them, at most _TAIL_IN_FLIGHT per
    worker ahead, so memory does not grow with the tail.  The block sums
    are reduced with fsum in block order, and the blocks do not depend on
    the worker count, so S_tail has the same bits on every machine.  A
    tail that reaches 2^53 or needs more than _TAIL_MAX_BLOCKS blocks is
    refused before any table or block, as is a non-integer a or x.
    """
    a, x = require_integers(a=a, x=x)
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
    S_R = sq.array_fsum(GR * (1.0 - np.arange(1, Rn + 1) / R))
    S_M = sq.array_fsum(GR[:Mn] * (1.0 - np.arange(1, Mn + 1) / M))
    starts = range(lo, hi + 1, _TAIL_BLOCK)
    S_tail = 0.0
    if starts:
        table = LocalRatios(model, a, lo, hi)
        own = threading.local()  # a worker's copy of the table, with its buffers

        def block_sum(b: int) -> float:
            if not hasattr(own, "table"):
                own.table = table.with_buffers(_TAIL_BLOCK)
            # through g_range, so a wrapper of it (a tracer, a check) sees every block
            return float(np.sum(g_range(own.table, a, b, min(b + _TAIL_BLOCK - 1, hi))))

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