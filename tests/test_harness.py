import csv
import dataclasses
import itertools
import json
import math
import re
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from disclab import bias, cli
from disclab import harness as h
from disclab import ktuples as kt
from disclab import multfn as mf
from disclab import sequences as sq
from disclab import verify as vf
from disclab.errors import ConfigurationError, DomainError, ResourceError, UnsupportedError
from disclab.factorint import iter_primes, phi
from disclab.quadform import BinaryQuadraticForm


def test_g_range_matches_exact_local_products():
    cases = [
        (mf.primes_model(), 7, 1, 1500),
        (mf.primes_model(), -12, 1, 1500),
        (mf.two_squares_model(), 21, 1, 1500),
        (mf.rough_model(10), -9, 1, 1500),
        (mf.quadform_model(BinaryQuadraticForm(1, 0, 1)), 5, 1, 1500),
        (mf.primes_model(), 30, 1000, 1500),
        (mf.rough_model(10), 7, 997, 1009),
        # bad prime 23 above sqrt(400)
        (mf.quadform_model(BinaryQuadraticForm(2, 1, 3)), 1, 200, 400),
        # the divisor 1009 of a above sqrt(4000)
        (mf.primes_model(), 3 * 1009, 2001, 4000),
    ]
    for model, a, lo, hi in cases:
        G = h.g_range(model, a, lo, hi)
        for q in range(lo, hi + 1):
            exact = float(mf.g_a(model, a, q))
            if exact == 0.0:
                assert G[q - lo] == 0.0
            else:
                assert G[q - lo] == pytest.approx(exact, rel=1e-12)


def test_g_range_windowed_agrees_with_full():
    model = mf.two_squares_model()
    full = h.g_range(model, 5, 1, 4000)
    part = h.g_range(model, 5, 2001, 4000)
    assert np.array_equal(full[2000:], part)


def test_ktuple_term_range_matches_gamma():
    cases = [
        (kt.TWIN, 1, 1200),
        (kt.KTuple(((1, 0), (1, 4), (1, 6))), 1, 1200),
        (kt.TWIN, 1000, 1200),
        # the deviating prime 31 (nu = 1) above sqrt(400)
        (kt.KTuple(((1, 0), (1, 62))), 200, 400),
    ]
    for H, lo, hi in cases:
        T = h.ktuple_term_range(H, lo, hi)
        for q in range(lo, hi + 1):
            exact = float(Fraction(1, q) / kt.gamma_H(H, q))
            assert T[q - lo] == pytest.approx(exact, rel=1e-12)
    # nu(2) = 2: refused on every window, not only where 2 is strided
    for lo, hi in ((1, 2), (10, 10)):
        with pytest.raises(DomainError):
            h.ktuple_term_range(kt.KTuple(((1, 0), (1, 1))), lo, hi)


def _oracle_sieve(lo, hi, ratio, extra, leftover):
    """The kernel before float cofactors: an int64 cofactor divided down by
    every strided prime, and leftover applied to a gather of the q whose
    cofactor is above 1."""
    G = np.ones(hi - lo + 1)
    C = np.arange(lo, hi + 1, dtype=np.int64)
    root = math.isqrt(hi)
    for p in itertools.chain(iter_primes(root), (p for p in sorted(extra) if root < p <= hi)):
        pe, e = p, 1
        while pe <= hi and (lo + pe - 1) // pe * pe <= hi:
            start = (lo + pe - 1) // pe * pe
            G[start - lo :: pe] *= ratio(p, e)
            C[start - lo :: pe] //= p
            pe, e = pe * p, e + 1
    mask = C > 1
    if mask.any():
        G[mask] *= leftover(C[mask].astype(np.float64))
    return G


_ORACLE_WINDOWS = [
    (1, 1),
    (1, 2),
    (1, 5000),
    (2001, 4000),
    (10001, 10000 + 2**20),
    (10**9 - 2**20 + 1, 10**9),
    # sqrt(hi) below the cofactor tile's largest prime 7: D strides from ones
    (30, 48),
    # across the multiple 3 * 5040 of the tile's period
    (3 * 5040 - 100, 3 * 5040 + 100),
    # longer than the period, from mid-period
    (7 * 5040 + 2521, 9 * 5040 + 1000),
    # 2^21, a power of 2 above the tile's cap 2^4
    (2**21 - 2000, 2**21 + 2000),
    # three leftover chunks and a partial fourth, from mid-period
    (10**8 + 17, 10**8 + 16 + 3 * 2**16 + 4321),
    # three kernel pieces and a partial fourth, from mid-period, with the
    # primes 4099 .. 5591 above the batch cut
    (5952 * 5040 + 2521, 5952 * 5040 + 2520 + 3 * 2**19 + 4321),
    # around 4099^2: the square of a batched prime has multiples
    (4099**2 - 2000, 4099**2 + 2000),
    # around 4099^2 * 4111, whose batched ratios differ in bits when taken
    # e-major instead of p-major
    (4099**2 * 4111 - 2000, 4099**2 * 4111 + 2000),
]


@pytest.mark.parametrize("lo,hi", _ORACLE_WINDOWS)
def test_g_range_same_bits_as_integer_cofactor_oracle(lo, hi):
    models = [
        mf.primes_model(),
        mf.two_squares_model(),
        mf.rough_model(7),
        mf.rough_model(3),
        mf.quadform_model(BinaryQuadraticForm(1, 0, 1)),
        # bad prime 23
        mf.quadform_model(BinaryQuadraticForm(2, 1, 3)),
    ]
    # on the small windows the divisor 1009 of a lies above sqrt(hi), and
    # on (30, 48), which takes no tile, so does the divisor 7 of a = -7
    shifts = (1, -3, 3 * 1009, -7) if hi <= 5000 else (1, -3)
    for model, a in itertools.product(models, shifts):
        table = h.LocalRatios(model, a, lo, hi)
        want = _oracle_sieve(
            lo,
            hi,
            lambda p, e: table.ratios[p][e - 1],
            table.extra,
            lambda P: (1.0 - model.h_prime_vec(P) / P) / (P - 1.0),
        )
        assert h.g_range(model, a, lo, hi).tobytes() == want.tobytes(), (model.label, a)


@pytest.mark.parametrize("lo,hi", _ORACLE_WINDOWS)
def test_ktuple_term_range_same_bits_as_integer_cofactor_oracle(lo, hi):
    for H in (kt.TWIN, kt.KTuple(((1, 0), (1, 2), (1, 6))), kt.KTuple(((2, 1), (1, 4)))):
        want = _oracle_sieve(
            lo,
            hi,
            lambda p, e: 1.0 / (p - kt.nu_H(H, p)) if e == 1 else 1.0 / p,
            kt.deviating_primes(H),
            lambda P: 1.0 / (P - H.k),
        )
        assert h.ktuple_term_range(H, lo, hi).tobytes() == want.tobytes(), H.label()


def test_g_range_fills_a_given_buffer_with_the_bits_of_a_fresh_call():
    # a window of two pieces with batched primes, then a shorter one into
    # the same, now stale, buffers of a table's own
    model = mf.primes_model()
    for a, lo, hi in ((1, 10**9 - 2**20 + 1, 10**9), (3 * 1009, 2001, 4000)):
        fresh = h.g_range(model, a, lo, hi)
        table = h.LocalRatios(model, a, lo, hi).with_buffers(2**20)
        for _ in range(2):
            got = h.g_range(table, a, lo, hi)
            assert got.base is table.G and got.tobytes() == fresh.tobytes()
    with pytest.raises(ConfigurationError):
        h.g_range(h.LocalRatios(model, 1, 1, 100).with_buffers(99), 1, 1, 100)


def test_window_refused_at_the_float_cofactor_bound(monkeypatch):
    # at 2^53 q / D stops being exact; refused before any prime is listed
    def no_primes(*args):
        raise AssertionError("sieved past 2^53")

    monkeypatch.setattr(h, "iter_primes", no_primes)
    with pytest.raises(ResourceError):
        h.g_range(mf.primes_model(), 1, 2**53, 2**53)
    with pytest.raises(ResourceError):
        h.ktuple_term_range(kt.TWIN, 2**53, 2**53)


def test_run_removes_the_term_it_counted():
    # 285343 is prime, and np.log and math.log round its log apart: the
    # point mass is the dense array's w[a], the very term the slice sums add.
    # Twin weighs a at 0 (5 divides a + 2), so its case has nothing to round.
    a, x, M = 285343, 3 * 10**5, 20.0
    cases = [
        (sq.PrimesLambda(), "none"),
        (sq.PrimesLambda(), "a"),
        (sq.KTupleWeight(kt.TWIN), "P"),
    ]
    for kind, filt in cases:
        cfg = h.ExperimentConfig(kind=kind, a=a, x=x, M=M, coprime_filter=filt)
        win = sq.sieve(kind, 1, x)
        w = sq.dense_weights(win, size=x)
        lo, hi = cfg.q_range()
        keep = h._filter_mask(cfg, lo, hi)
        sums = h._slice_sums(win, x, a, lo, hi, keep).astype(np.float64)
        G = h._term_array(cfg, lo, hi)[keep]
        terms = sums - w[a] - G * float(sq.count_A_upto(win, x))
        report = h.empirical_average(cfg, window=win)
        assert report.empirical_sum == math.fsum(terms.tolist()), (kind, filt)


def test_config_refuses_a_q_range_the_kernel_cannot_take(monkeypatch, capsys):
    # x/M = 13333333 moduli, past the term kernel's widest window: refused
    # when the config is built, before any sieve
    def no_sieve(*args):
        raise AssertionError("sieved before the q-range was checked")

    monkeypatch.setattr(sq, "sieve", no_sieve)
    with pytest.raises(ResourceError):
        h.ExperimentConfig(kind=sq.Rough(7), a=1, x=2 * 10**7, M=1.5)
    argv = ["discrepancy", "--kind", "rough", "--y", "7", "--a", "1",
            "--x", "20000000", "--M", "1.5"]
    assert cli.main(argv) == 3
    assert "too wide" in capsys.readouterr().err
    # an empty q-range still runs
    h.ExperimentConfig(kind=sq.Rough(7), a=1, x=1, M=1.5)


def test_config_validation():
    with pytest.raises(DomainError):
        h.ExperimentConfig(kind=sq.PrimesLambda(), a=0, x=100, M=5.0)
    for M in (1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=100, M=M)
    for x in (0, math.nan, math.inf):
        with pytest.raises(DomainError):
            h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=x, M=5.0)
    with pytest.raises(ConfigurationError):
        h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=100, M=5.0, mode="half")
    with pytest.raises(ConfigurationError):
        h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=100, M=5.0, coprime_filter="q")
    cfg = h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=10**6, M=10.0)
    assert len(cfg.config_hash) == 12


def test_config_refuses_non_integer_bounds():
    # x = 1e4 or a = 1.5 once got a config_hash and failed inside numpy
    for a, x in ((1, 1e4), (1.5, 10**4), (1.0, 10**4), (1, 10**4 + 0.5)):
        with pytest.raises(DomainError):
            h.ExperimentConfig(kind=sq.PrimesLambda(), a=a, x=x, M=5.0)
    # numpy integers pass, and run as the same ints
    cfg = h.ExperimentConfig(kind=sq.PrimesLambda(), a=np.int64(-1), x=np.int32(10**4), M=5.0)
    assert type(cfg.a) is int and type(cfg.x) is int
    want = h.ExperimentConfig(kind=sq.PrimesLambda(), a=-1, x=10**4, M=5.0)
    assert cfg == want
    reports = [dataclasses.replace(h.empirical_average(c), runtime_ms=0) for c in (cfg, want)]
    assert repr(reports[0]) == repr(reports[1])
    json.dumps(h.report_to_dict(reports[0]))


def test_g_range_refuses_non_integer_bounds(monkeypatch):
    model = mf.primes_model()
    want = h.g_range(model, 1, 1, 100)
    assert h.g_range(model, 1, np.int64(1), np.uint32(100)).tobytes() == want.tobytes()

    def no_primes(*args):
        raise AssertionError("sieved a non-integer window")

    monkeypatch.setattr(h, "iter_primes", no_primes)
    for lo, hi in ((1, 100.0), (1.0, 100), (1, 99.5)):
        with pytest.raises(DomainError):
            h.g_range(model, 1, lo, hi)
        with pytest.raises(DomainError):
            h.ktuple_term_range(kt.TWIN, lo, hi)


def test_primes_full_average_is_negative():
    cfg = h.ExperimentConfig(
        kind=sq.PrimesLambda(), a=1, x=10**6, M=10.0, mode="full", coprime_filter="a"
    )
    rep = h.empirical_average(cfg)
    assert rep.normalized_avg < 0
    assert rep.predicted is not None
    assert rep.predicted.leading_value == -0.5 * math.log(10.0)
    assert rep.q_count == 10**5


def test_empty_range_reports_zero():
    cfg = h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=100, M=200.0)
    rep = h.empirical_average(cfg)
    assert rep.empirical_sum == 0.0
    assert rep.normalized_avg == 0.0
    assert rep.q_count == 0


def test_two_squares_dyadic_ordering():
    reps = {}
    for a in (1, 21):
        cfg = h.ExperimentConfig(kind=sq.SumTwoSquares(), a=a, x=10**6, M=10.0, mode="dyadic")
        reps[a] = h.empirical_average(cfg)
    assert abs(reps[21].normalized_avg) < abs(reps[1].normalized_avg)
    assert reps[1].predicted.leading_value < 0
    assert reps[21].predicted.zero


def _sum_with_point_mass(kind, a, x, M, point_mass):
    """fsum over q <= x/M of A(x;q,a) - point_mass - g_a(q) A(x), from
    count_Aqa and the exact g_a."""
    window = sq.sieve(kind, 1, x)
    A_x = sq.count_A(window)
    return math.fsum(
        sq.count_Aqa(window, q, a) - point_mass - float(mf.g_a(kind.model(), a, q)) * A_x
        for q in range(1, int(x / M) + 1)
    )


def test_point_mass_bookkeeping():
    # a = 4 is a prime power, so each modulus subtracts a(4) = log 2 once
    cfg = h.ExperimentConfig(
        kind=sq.PrimesLambda(), a=4, x=10**4, M=10.0, mode="full", coprime_filter="none"
    )
    want = _sum_with_point_mass(cfg.kind, 4, cfg.x, cfg.M, math.log(2))
    assert h.empirical_average(cfg).empirical_sum == pytest.approx(want, rel=1e-12)


def test_negative_a_has_no_point_mass():
    cfg = h.ExperimentConfig(
        kind=sq.PrimesLambda(), a=-4, x=10**4, M=10.0, coprime_filter="none"
    )
    want = _sum_with_point_mass(cfg.kind, -4, cfg.x, cfg.M, 0.0)
    assert h.empirical_average(cfg).empirical_sum == pytest.approx(want, rel=1e-12)


def test_coprime_filter_counts():
    cfg = h.ExperimentConfig(
        kind=sq.PrimesLambda(), a=6, x=10**4, M=10.0, coprime_filter="a"
    )
    rep = h.empirical_average(cfg)
    expected = sum(1 for q in range(1, 1001) if math.gcd(q, 6) == 1)
    assert rep.q_count == expected


def test_ktuple_requires_its_filter():
    with pytest.raises(UnsupportedError):
        h.empirical_average(
            h.ExperimentConfig(kind=sq.KTupleWeight(kt.TWIN), a=-1, x=10**4, M=10.0)
        )
    with pytest.raises(DomainError):
        # P(0; twin) = 0: filter undefined
        h.empirical_average(
            h.ExperimentConfig(
                kind=sq.KTupleWeight(kt.TWIN), a=0 - 2, x=10**4, M=10.0,
                mode="dyadic", coprime_filter="P",
            )
        )


def test_twin_run_carries_conditional_prediction():
    cfg = h.ExperimentConfig(
        kind=sq.KTupleWeight(kt.TWIN), a=-1, x=10**5, M=10.0,
        mode="dyadic", coprime_filter="P",
    )
    rep = h.empirical_average(cfg)
    assert rep.predicted.conditional_on == "Hardy-Littlewood"
    assert rep.predicted.leading_value == pytest.approx(-math.log(10.0) ** 2 / 4, rel=1e-12)


def _per_q_sums(w, a, lo, hi, keep):
    """The oracle: one strided slice per modulus, summed by numpy, integer
    weights of any width in int64."""
    dtype = np.int64 if w.dtype.kind in "iu" else np.float64
    sums = [w[a % q or q :: q].sum(dtype=dtype) for q in range(lo, hi + 1) if keep[q - lo]]
    return np.array(sums, dtype=dtype)


def _int64_dense(window, size=None, lo=0, out=None, step=1, dense_weights=sq.dense_weights):
    """sequences.dense_weights copied to int64, a fresh array each call."""
    return dense_weights(window, size, lo, step=step).astype(np.int64)


def test_divisor_switched_sums_match_per_q_loop():
    # sqrt(x) = 141.5 and x/M = 4002, so a = 500 lies between them
    x, M = 20011, 5.0
    both = ("none", "a")
    cases = [
        (sq.PrimesLambda(), both),
        (sq.SumTwoSquares(), both),
        (sq.KTupleWeight(kt.TWIN), ("P",)),
        (sq.Rough(7), both),
        (sq.QuadFormMult(BinaryQuadraticForm(1, 0, 1)), both),
    ]
    for kind, filters in cases:
        win = sq.sieve(kind, 1, x)
        w = sq.dense_weights(win, size=x)
        A_x = float(sq.count_A(win))
        for a, mode, filt in itertools.product(
            (1, -1, 3, -4, 30, 500, x + 3), ("full", "dyadic"), filters
        ):
            cfg = h.ExperimentConfig(kind=kind, a=a, x=x, M=M, mode=mode, coprime_filter=filt)
            lo, hi = cfg.q_range()
            keep = h._filter_mask(cfg, lo, hi)
            got = h._slice_sums(win, x, a, lo, hi, keep)
            want = _per_q_sums(w, a, lo, hi, keep)
            assert got.dtype == (np.int64 if kind.integer_weights else np.float64)
            assert len(got) == len(want) == keep.sum()
            if kind.integer_weights:
                assert np.array_equal(got, want), (kind, a, mode, filt)
                # the narrow dense array sums as its int64 copy does
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(sq, "dense_weights", _int64_dense)
                    wide = h._slice_sums(win, x, a, lo, hi, keep)
                assert np.array_equal(got, wide), (kind, a, mode, filt)
            else:
                # weights are positive, so want is the summed magnitude
                assert np.all(np.abs(got - want) <= 1e-12 * want), (kind, a, mode, filt)
            # the report sums the same terms, alike at every thread count
            try:
                G = h._term_array(cfg, lo, hi)[keep]
            except DomainError:  # x^2 + y^2 has no density at even a
                with pytest.raises(DomainError):
                    h.empirical_average(cfg, window=win)
                continue
            pm = float(w[a]) if 0 < a <= x else 0.0
            terms = [float(s) - pm - g * A_x for s, g in zip(want.tolist(), G.tolist())]
            reps = [h.empirical_average(cfg, window=win, threads=t) for t in (1, 2, 4)]
            assert len({repr(dataclasses.replace(r, runtime_ms=0)) for r in reps}) == 1
            if kind.integer_weights:
                assert reps[0].empirical_sum == math.fsum(terms)
            else:
                magnitude = math.fsum(abs(t) for t in terms)
                assert abs(reps[0].empirical_sum - math.fsum(terms)) <= 1e-12 * magnitude
    # an empty q-range, and a range in two pieces cut on either side of sqrt(x)
    win = sq.sieve(sq.PrimesLambda(), 1, x)
    assert len(h._slice_sums(win, x, 1, 10, 9, np.ones(0, dtype=bool))) == 0
    keep = np.ones(4002, dtype=bool)
    whole = h._slice_sums(win, x, 1, 1, 4002, keep)
    for cut in (100, 142, 143, 2000):
        parts = [
            h._slice_sums(win, x, 1, 1, cut - 1, keep[: cut - 1]),
            h._slice_sums(win, x, 1, cut, 4002, keep[cut - 1 :]),
        ]
        assert np.array_equal(np.concatenate(parts), whole)


def _dense_pass_sums(w, a, lo, hi):
    """The sums above Q0 as one pass over the whole dense array forms them,
    the route before segments: w[a] first, for a > 0, then one strided slice
    per cofactor r, r ascending."""
    x = len(w) - 1
    big_lo = max(lo, max(math.isqrt(x), abs(a)) + 1)
    acc = np.zeros(max(hi - big_lo + 1, 0), dtype=np.int64 if w.dtype.kind in "iu" else np.float64)
    if big_lo > hi:
        return acc
    if a > 0:
        acc += w[a]
    r = 1
    while a + r * big_lo <= x:
        top = min(hi, (x - a) // r)
        acc[: top - big_lo + 1] += w[a + r * big_lo : a + r * top + 1 : r]
        r += 1
    return acc


@pytest.mark.parametrize("segment", [2503, 4099])
def test_segmented_sums_match_the_dense_pass(monkeypatch, segment):
    # 8 or 5 segments, neither dividing x, both shorter than the n-range of
    # the cofactor r = 1; sqrt(x) = 141.5 and x/M = 4002, so a = 500 lies
    # between them, and a = x + 3 puts every q below Q0
    monkeypatch.setattr(h, "_SEGMENT", segment)
    x, M = 20011, 5.0
    both = ("none", "a")
    cases = [
        (sq.PrimesLambda(), both),
        (sq.SumTwoSquares(), both),
        (sq.KTupleWeight(kt.TWIN), ("P",)),
        (sq.Rough(7), both),
        (sq.QuadFormMult(BinaryQuadraticForm(1, 0, 1)), both),
    ]
    for kind, filters in cases:
        win = sq.sieve(kind, 1, x)
        w = sq.dense_weights(win, size=x)
        for a, mode, filt in itertools.product(
            (1, -1, 3, -4, 30, 500, x + 3), ("full", "dyadic"), filters
        ):
            case = (kind, a, mode, filt)
            cfg = h.ExperimentConfig(kind=kind, a=a, x=x, M=M, mode=mode, coprime_filter=filt)
            lo, hi = cfg.q_range()
            keep = h._filter_mask(cfg, lo, hi)
            got = h._slice_sums(win, x, a, lo, hi, keep)
            want = _per_q_sums(w, a, lo, hi, keep)
            if kind.integer_weights:
                assert np.array_equal(got, want), case
            else:
                assert np.all(np.abs(got - want) <= 1e-12 * want), case
            # above Q0 each sum keeps the bits of the dense pass
            big_lo = max(lo, max(math.isqrt(x), abs(a)) + 1)
            above = _dense_pass_sums(w, a, lo, hi)[keep[big_lo - lo :]]
            assert above.tobytes() == got[len(got) - len(above) :].tobytes(), case
            cut = (lo + hi) // 2
            parts = [
                h._slice_sums(win, x, a, lo, cut, keep[: cut - lo + 1]),
                h._slice_sums(win, x, a, cut + 1, hi, keep[cut - lo + 1 :]),
            ]
            assert np.concatenate(parts).tobytes() == got.tobytes(), case
            # the pool's threads share the accumulator, each its own q-ranges;
            # switching threads often would show a lost or misplaced add
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                reps = [h.empirical_average(cfg, window=win, threads=t) for t in (1, 2, 4)]
            except DomainError:  # x^2 + y^2 has no density at even a
                continue
            finally:
                sys.setswitchinterval(switch)
            assert len({repr(dataclasses.replace(r, runtime_ms=0)) for r in reps}) == 1, case


def _plane_agrees(monkeypatch, win, x, a, lo, hi, case):
    """_slice_sums from the window's plane against the per-q oracle, against
    the dense pass above Q0, byte for byte, and against step 1, the whole
    segments, under the same rules."""
    keep = np.ones(hi - lo + 1, dtype=bool)
    w = sq.dense_weights(win, size=x)
    got = h._slice_sums(win, x, a, lo, hi, keep)
    with monkeypatch.context() as mp:
        mp.setattr(h, "_plane", lambda *args: (1, []))
        whole = h._slice_sums(win, x, a, lo, hi, keep)
    want = _per_q_sums(w, a, lo, hi, keep)
    big = max(lo, max(math.isqrt(x), abs(a)) + 1) - lo
    above = _dense_pass_sums(w, a, lo, hi).tobytes()
    assert above == got[big:].tobytes() == whole[big:].tobytes(), case
    if got.dtype == np.int64:
        assert np.array_equal(got, want) and np.array_equal(whole, want), case
    else:
        assert np.all(np.abs(got - want) <= 1e-12 * want), case
        assert np.all(np.abs(got - whole) <= 1e-12 * want), case


@pytest.mark.parametrize("segment", [2503, 4096])
def test_odd_plane_sums_match_the_dense_pass(monkeypatch, segment):
    # primes hold the 14 powers of 2 up to x = 20011 (bit_length 15) as their
    # even points, twin n = 2 and rough(7) none; sqrt(x) = 141.5 and x/M = 4002.
    # At even a an even modulus meets only powers of 2.  At a = 1 the powers
    # 2^12 and 2^14 fall above Q0 (4095 = 3^2 5 7 13 and 16383 = 3 43 127 have
    # divisors such as 195, 1365 and 381), each in its cofactor's turn; at
    # a = -38 and -33 seven sums (q = 531, 689, 1043, 2067; 151, 1175, 1645)
    # take other bits if their power of 2 comes after every other term
    monkeypatch.setattr(h, "_SEGMENT", segment)
    x, M = 20011, 5.0
    cases = [
        (sq.PrimesLambda(), (2, 4, -2, 1, -1, 30, 4096, -38, -33), 14),
        (sq.KTupleWeight(kt.TWIN), (1, -3, 2, 4), 1),
        (sq.Rough(7), (1, 2, -4, 35), 0),
    ]
    for kind, shifts, n_even in cases:
        win = sq.sieve(kind, 1, x)
        for a in shifts:
            step, evens = h._plane(win, x, a)
            assert step == 2 and len(evens) == n_even, (kind, a)
            _plane_agrees(monkeypatch, win, x, a, 1, int(x / M), (kind, a, segment))
            _plane_agrees(monkeypatch, win, x, a, 2000, int(x / M), (kind, a, segment))
    rough = sq.sieve(sq.Rough(7), 1, x)
    assert sq.dense_weights(rough, 100, lo=1, step=2).dtype == np.uint8


def test_plane_takes_windows_with_at_most_bit_length_even_points(monkeypatch):
    # the primes' 14 even points up to x = 20011, plus one (15 = bit_length)
    # or two more: the first window is read from its plane, the second whole,
    # and both agree with the oracles
    monkeypatch.setattr(h, "_SEGMENT", 4099)
    x = 20011
    primes = sq.sieve(sq.PrimesLambda(), 1, x)
    for extra, step in (((6,), 2), ((6, 10), 1)):
        n = np.array(extra, dtype=np.int64)
        at = np.searchsorted(primes.support, n)
        win = sq.SievedWindow(
            "primes", 1, x, np.insert(primes.support, at, n), np.insert(primes.weights, at, 0.5)
        )
        for a in (1, 2, -3, 6):
            assert h._plane(win, x, a)[0] == step
            _plane_agrees(monkeypatch, win, x, a, 1, 4002, (extra, a))
    # even points past x do not count: 2^14 is left out at x = 10^4
    step, evens = h._plane(primes, 10**4, 1)
    assert step == 2 and [n for n, _, _ in evens] == [2**e for e in range(1, 14)]


def test_slice_sums_hold_counts_past_the_dense_dtype():
    # the dense arrays are uint8 here; these classes hold more than 255
    # points both at q <= Q0, summed slice by slice, and above Q0, in the
    # cofactor accumulator, so a sum kept in w's dtype would wrap
    x2y2 = sq.QuadFormMult(BinaryQuadraticForm(1, 0, 1))
    for kind, x in ((x2y2, 20011), (sq.SumTwoSquares(), 2 * 10**5)):
        win = sq.sieve(kind, 1, x)
        w = sq.dense_weights(win, size=x)
        cfg = h.ExperimentConfig(kind=kind, a=5, x=x, M=5.0)
        lo, hi = cfg.q_range()
        keep = np.ones(hi - lo + 1, dtype=bool)
        got = h._slice_sums(win, x, 5, lo, hi, keep)
        want = _per_q_sums(w, 5, lo, hi, keep)
        q0 = math.isqrt(x)
        assert w.dtype == np.uint8 and want[:q0].max() > 255 and want[q0:].max() > 255
        assert got.dtype == np.int64 and np.array_equal(got, want), kind
        G = h._term_array(cfg, lo, hi)
        terms = want.astype(np.float64) - float(w[5]) - G * float(sq.count_A(win))
        assert h.empirical_average(cfg, window=win).empirical_sum == math.fsum(terms.tolist())


def test_rough_report_sieves_once(monkeypatch):
    # rough(50) at x = 1e5 is in the large-y regime, where the closed form
    # needs the density A(x)/x that the run's own window already holds
    kind = sq.Rough(50)
    cfg = h.ExperimentConfig(kind=kind, a=1, x=10**5, M=10.0, mode="dyadic", coprime_filter="a")
    want = kind.predict(1, 10.0, 10**5)
    calls = []
    sieve = sq.sieve
    monkeypatch.setattr(sq, "sieve", lambda *args: calls.append(args) or sieve(*args))
    rep = h.empirical_average(cfg)
    assert calls == [(kind, 1, 10**5)]
    assert repr(rep.predicted) == repr(want)


def test_thread_count_does_not_change_floats():
    # the pool takes more q-ranges than threads, cut where the thread count
    # says; no cut may move a bit of the report
    x = 10**6
    cfgs = [
        h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=x, M=10.0, coprime_filter="a"),
        h.ExperimentConfig(kind=sq.SumTwoSquares(), a=5, x=x, M=10.0, mode="dyadic"),
    ]
    for cfg in cfgs:
        win = sq.sieve(cfg.kind, 1, x)
        reps = {
            repr(dataclasses.replace(h.empirical_average(cfg, window=win, threads=t), runtime_ms=0))
            for t in (1, 2, 3, 4, 7)
        }
        assert len(reps) == 1, cfg.kind


def test_slice_sums_do_not_depend_on_the_cut():
    # random cuts of [lo, hi], on either side of Q0 = 447, summed piece by
    # piece and concatenated, equal one pass, bit for bit
    rng = np.random.default_rng(16)
    x = 2 * 10**5
    for kind in (sq.PrimesLambda(), sq.SumTwoSquares()):
        win = sq.sieve(kind, 1, x)
        for a, lo, hi in ((1, 1, 20000), (-4, 300, 9000), (500, 2, 40000)):
            keep = rng.random(hi - lo + 1) < 0.8
            whole = h._slice_sums(win, x, a, lo, hi, keep)
            for _ in range(3):
                cuts = np.unique(rng.integers(lo + 1, hi + 1, size=int(rng.integers(1, 9))))
                bounds = list(zip([lo, *cuts.tolist()], [*(cuts - 1).tolist(), hi]))
                parts = [h._slice_sums(win, x, a, i, j, keep[i - lo : j - lo + 1]) for i, j in bounds]
                assert np.array_equal(np.concatenate(parts), whole), (kind, a, bounds)


def test_dyadic_windows_telescope_to_full():
    x, M, J = 12800, 25.0, 5
    kind = sq.SumTwoSquares()
    win = sq.sieve(kind, 1, x)
    full = h.empirical_average(
        h.ExperimentConfig(kind=kind, a=3, x=x, M=M), window=win
    ).empirical_sum
    parts = []
    for j in range(J):
        parts.append(
            h.empirical_average(
                h.ExperimentConfig(kind=kind, a=3, x=x, M=M * 2**j, mode="dyadic"),
                window=win,
            ).empirical_sum
        )
    head = h.empirical_average(
        h.ExperimentConfig(kind=kind, a=3, x=x, M=M * 2**J), window=win
    ).empirical_sum
    assert math.fsum(parts) + head == pytest.approx(full, rel=1e-12)


def test_resource_guard(monkeypatch):
    # refused before any sieve
    def no_sieve(*args):
        raise AssertionError("sieved past the dense-array budget")

    monkeypatch.setattr(sq, "sieve", no_sieve)
    x = sq.MAX_WINDOW + 1
    with pytest.raises(ResourceError):
        h.empirical_average(h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=x, M=10.0))
    with pytest.raises(ResourceError):
        vf.divisor_switch_check(sq.PrimesLambda(), 3, x, 20.0)


def test_refused_shift_costs_no_window(monkeypatch):
    # empirical_average refuses what the term array or the filter refuses,
    # with the same error, before it asks for its window: the forms at a
    # prime of 2d dividing a (x^2 + 2y^2, d = 8 mod 16, at every a), and
    # twin's P filter at a = -2, also at x = 10, M = 20, whose q-range is
    # empty.  Every other shift asks for the window.
    class AskedForWindow(Exception):
        pass

    def window():
        raise AskedForWindow

    def no_sieve(*args):
        raise AssertionError("sieved for a refused shift")

    monkeypatch.setattr(sq, "sieve", no_sieve)
    forms = [BinaryQuadraticForm(*abc) for abc in ((1, 0, 1), (2, 1, 3), (1, 0, 2))]
    kinds = [sq.QuadFormMult(f) for f in forms] + [sq.KTupleWeight(kt.TWIN), sq.PrimesLambda()]
    refused = 0
    grid = itertools.product(
        ((1000, 10.0), (10, 10.0), (10, 20.0)), kinds, range(-6, 50), ("full", "dyadic")
    )
    for (x, M), kind, a, mode in grid:
        if a == 0:
            continue
        filt = "P" if isinstance(kind, sq.KTupleWeight) else "none"
        cfg = h.ExperimentConfig(kind=kind, a=a, x=x, M=M, mode=mode, coprime_filter=filt)
        lo, hi = cfg.q_range()
        try:
            h._term_array(cfg, lo, hi)
            h._filter_mask(cfg, lo, hi)
        except (DomainError, UnsupportedError) as exc:
            refused += 1
            with pytest.raises(type(exc), match=re.escape(str(exc))) as got:
                h.empirical_average(cfg, window=window)
            assert got.type is type(exc)
        else:
            with pytest.raises(AskedForWindow):
                h.empirical_average(cfg, window=window)
    assert refused > 100
    cfg = h.ExperimentConfig(kind=sq.QuadFormMult(forms[0]), a=6, x=1000, M=10.0)
    with pytest.raises(DomainError, match="shares the prime 2"):
        h.empirical_average(cfg)


def test_window_must_cover_the_run():
    x = 1000
    kind = sq.PrimesLambda()
    cfg = h.ExperimentConfig(kind=kind, a=1, x=x, M=10.0)
    for win in (
        sq.sieve(sq.SumTwoSquares(), 1, x),  # another family
        sq.sieve(kind, 2, x),
        sq.sieve(kind, 1, x - 1),
        sq.sieve(kind, 1, x + 1),  # a window covers exactly [1, x]
    ):
        with pytest.raises(ConfigurationError):
            h.empirical_average(cfg, window=win)
        with pytest.raises(ConfigurationError):
            vf.divisor_switch_check(kind, 3, x, 20.0, window=win)


def test_thread_count_must_be_a_positive_integer(monkeypatch):
    # refused before any density or window; a numpy integer runs as an int
    x = 20000
    kind = sq.PrimesLambda()
    cfg = h.ExperimentConfig(kind=kind, a=1, x=x, M=10.0)
    win = sq.sieve(kind, 1, x)
    want = dataclasses.replace(h.empirical_average(cfg, window=win, threads=2), runtime_ms=0)
    got = h.empirical_average(cfg, window=win, threads=np.int64(2))
    assert repr(dataclasses.replace(got, runtime_ms=0)) == repr(want)

    def no_work(*args):
        raise AssertionError("worked for a refused thread count")

    monkeypatch.setattr(h, "_term_array", no_work)
    for threads in (0, -2, 1.5, 2.0, "2", None):
        with pytest.raises(ConfigurationError, match="threads"):
            h.empirical_average(cfg, window=no_work, threads=threads)


def test_identities_take_integer_bounds():
    # x and a (or d) as numpy integers run as ints; a float one is refused
    kind = sq.PrimesLambda()
    x = 10**4
    win = sq.sieve(kind, 1, x)
    want = vf.divisor_switch_check(kind, 3, x, 20.0)
    assert want[2]
    assert vf.divisor_switch_check(kind, 3, np.int64(x), 20.0) == want
    assert vf.divisor_switch_check(kind, np.int32(3), np.int64(x), 20.0, window=win) == want
    for a, bad_x in ((3, 10000.0), (3.0, x)):
        for given in (None, win):
            with pytest.raises(DomainError, match="must be an integer"):
                vf.divisor_switch_check(kind, a, bad_x, 20.0, window=given)
    squares = sq.SumTwoSquares()
    assert sq.check_Ad_identity(squares, np.int64(x), 3) == sq.check_Ad_identity(squares, x, 3)
    for bad_x, d in ((10000.0, 3), (x, 2.5)):
        with pytest.raises(DomainError, match="must be an integer"):
            sq.check_Ad_identity(squares, bad_x, d, window=sq.sieve(squares, 1, x))


def test_window_weight_type_must_match_the_family(tmp_path):
    # a cache whose weight-type byte flipped between 0 and 1 still loads, as
    # weights reread in the other type; a run or an identity over it must
    # refuse it
    x = 1000
    for kind in (sq.SumTwoSquares(), sq.PrimesLambda()):
        path = tmp_path / f"{kind.label()}.bin"
        sq.save_window(sq.sieve(kind, 1, x), str(path))
        data = bytearray(path.read_bytes())
        flag = 12 + len(kind.label()) + 24
        data[flag] ^= 1
        path.write_bytes(bytes(data))
        win = sq.load_window(str(path))
        assert (win.weights.dtype == np.int64) != kind.integer_weights
        cfg = h.ExperimentConfig(kind=kind, a=1, x=x, M=10.0)
        with pytest.raises(ConfigurationError, match="weights"):
            h.empirical_average(cfg, window=win)
        with pytest.raises(ConfigurationError, match="weights"):
            vf.divisor_switch_check(kind, 3, x, 20.0, window=win)
        if kind.indicator:
            with pytest.raises(ConfigurationError, match="weights"):
                sq.check_Ad_identity(kind, x, 3, window=win)


def test_s5_degenerate_and_monotone_tail():
    model = mf.primes_model()
    s = h.s5_sums(model, 1, 64.0, 64.0, 10**6)
    assert s.S5 == 0.0 and s.S_tail == 0.0
    tails = [h.s5_sums(model, 1, M, 900.0, 10**6).S_tail for M in (50.0, 100.0, 200.0)]
    assert tails[0] > tails[1] > tails[2] > 0


def _check_s5_tail(model, a, M, R, x):
    """S_tail on 1, 2 and 4 cores is one value: the fsum of the per-block
    sums of g_range, in block order, and the sum of one g_range within 1e-12."""
    lo, hi = int(x / R) + 1, int(x / M)
    tails = []
    with pytest.MonkeyPatch.context() as m:
        for cores in (1, 2, 4):
            m.setattr(h.os, "cpu_count", lambda: cores)
            tails.append(h.s5_sums(model, a, M, R, x).S_tail)
    assert len({repr(t) for t in tails}) == 1, (model.label, a, tails)
    blocks = range(lo, hi + 1, h._TAIL_BLOCK)
    per_block = [
        float(np.sum(h.g_range(model, a, b, min(b + h._TAIL_BLOCK - 1, hi)))) for b in blocks
    ]
    assert tails[0] == math.fsum(per_block), (model.label, a)
    whole = float(np.sum(h.g_range(model, a, lo, hi)))
    assert tails[0] == pytest.approx(whole, rel=1e-12), (model.label, a)


def test_s5_tail_same_bits_at_every_thread_count(monkeypatch):
    # x/R < q <= x/M is three full blocks and a partial fourth; 60042 = 6 *
    # 10007 has a prime factor above sqrt(x/M), which only the table's extra
    # primes carry, and two_squares has the bad prime 2
    M, R, x = 5.0, 100.0, 10**7
    assert 3 * h._TAIL_BLOCK < x / M - x / R < 4 * h._TAIL_BLOCK
    cases = [
        (mf.primes_model(), 1),
        (mf.primes_model(), 6),
        (mf.primes_model(), 60042),
        (mf.rough_model(7), 1),
        (mf.two_squares_model(), 5),
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for model, a in cases:
            _check_s5_tail(model, a, M, R, x)
        # 88 blocks, where a sum in any other order or precision than fsum
        # of the blocks in order would show in the last bits
        monkeypatch.setattr(h, "_TAIL_BLOCK", 2**10)
        for model, a in cases[:2]:
            _check_s5_tail(model, a, 10.0, 100.0, 10**6)
    finally:
        sys.setswitchinterval(switch)


def test_s5_tail_keeps_a_few_blocks_in_flight(monkeypatch):
    # 1906 tail blocks over 1e6 < q <= 1e9, each g_range a constant.  The
    # first block is held until no other block has started for 0.1 s: the
    # reduction cannot read past it, so only blocks already submitted run.
    M, R, x = 10.0, 1e4, 10**10
    lo, hi = int(x / R) + 1, int(x / M)
    starts = list(range(lo, hi + 1, h._TAIL_BLOCK))
    started, held_with = [], []
    lock = threading.Lock()

    def constant_g_range(model, a, b, e):
        if not isinstance(model, h.LocalRatios):
            return np.ones(e - b + 1)  # the smoothed sums up to R
        with lock:
            started.append(b)
        if b == lo:
            seen, deadline = -1, time.monotonic() + 10
            while len(started) != seen and time.monotonic() < deadline:
                seen = len(started)
                time.sleep(0.1)
            held_with.append(seen)
        return np.array([float(e - b + 1)])

    monkeypatch.setattr(h.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(h, "g_range", constant_g_range)
    assert h.s5_sums(mf.primes_model(), 1, M, R, x).S_tail == hi - lo + 1
    assert sorted(started) == starts and len(starts) == 1906
    assert 2 <= held_with[0] <= 2 * h._TAIL_IN_FLIGHT, held_with


def test_local_ratios_cover_their_range():
    primes = mf.primes_model()
    table = h.LocalRatios(primes, 6, 500, 1000)
    assert np.array_equal(h.g_range(table, 6, 600, 1000), h.g_range(primes, 6, 600, 1000))
    for a, lo, hi in ((5, 500, 1000), (6, 499, 1000), (6, 500, 1001)):
        with pytest.raises(DomainError):
            h.g_range(table, a, lo, hi)
    # a narrow window far out holds only the powers with a multiple in it
    lo, hi = 10**9, 10**9 + 999
    table = h.LocalRatios(primes, 1, lo, hi)
    touched = {}
    for p in iter_primes(math.isqrt(hi)):
        powers = [e for e in range(1, 31) if (lo + p**e - 1) // p**e * p**e <= hi]
        if powers:
            touched[p] = len(powers)
    assert {p: len(r) for p, r in table.ratios.items()} == touched


def test_s5_matches_fraction_oracle():
    model = mf.primes_model()
    a, M, R, x = 3, 20.0, 100.0, 10**4
    s = h.s5_sums(model, a, M, R, x)
    S_R = math.fsum(float(mf.g_a(model, a, r)) * (1 - r / R) for r in range(1, 101))
    S_M = math.fsum(float(mf.g_a(model, a, r)) * (1 - r / M) for r in range(1, 21))
    S_tail = math.fsum(float(mf.g_a(model, a, q)) for q in range(101, 501))
    assert s.S_R == pytest.approx(S_R, rel=1e-12)
    assert s.S_M == pytest.approx(S_M, rel=1e-12)
    assert s.S_tail == pytest.approx(S_tail, rel=1e-12)
    assert s.S5 == pytest.approx(S_R - S_M - S_tail, rel=1e-9)


def test_s5_smoothed_sums_match_the_generator_form():
    # S_R and S_M as fsum over one generator term per r, bit for bit, at
    # non-integer and integer M and R
    model = mf.primes_model()
    for a, M, R, x in ((1, 2.5, 999.5, 10**6), (3, 10, 1000, 10**6), (-1, 20.0, 1e4, 10**8)):
        s = h.s5_sums(model, a, M, R, x)
        G = h.g_range(model, a, 1, int(R)).tolist()
        S_R = math.fsum(g * (1.0 - r / R) for r, g in enumerate(G, start=1))
        S_M = math.fsum(g * (1.0 - r / M) for r, g in enumerate(G[: int(M)], start=1))
        assert (s.S_R.hex(), s.S_M.hex()) == (S_R.hex(), S_M.hex()), (a, M, R)


def test_s5_matches_primes_prediction():
    # residuals are O(M*R/x) <= 0.01; dropping C5 would shift the prediction
    # by 2.09, dropping the R term by 0.067 at M=100 and 0.67 at M=1000
    model = mf.primes_model()
    R, x = 1e4, 10**9
    for M in (100.0, 1000.0):
        s = h.s5_sums(model, 1, M, R, x)
        assert abs(M * s.S5 - bias.predict_s5("primes", 1, M, R)) < 0.03


def test_s5_range_validation():
    model = mf.primes_model()
    with pytest.raises(DomainError):
        h.s5_sums(model, 1, 100.0, 50.0, 10**6)
    with pytest.raises(DomainError):
        h.s5_sums(model, 1, 10.0, 2000.0, 10**6)


def test_s5_refuses_a_tail_past_its_bounds(monkeypatch, capsys):
    # at x = 1e17 the tail reaches 2^53; at x = 1e14 it needs about 1.9e7
    # blocks, past 2^21.  Both are refused before any table or block list.
    # The block bound is inclusive: 90000 moduli are 88 blocks of 2^10.
    monkeypatch.setattr(h, "_TAIL_BLOCK", 2**10)
    monkeypatch.setattr(h, "_TAIL_MAX_BLOCKS", 88)
    h.s5_sums(mf.primes_model(), 1, 10.0, 100.0, 10**6)
    monkeypatch.setattr(h, "_TAIL_MAX_BLOCKS", 87)
    with pytest.raises(ResourceError):
        h.s5_sums(mf.primes_model(), 1, 10.0, 100.0, 10**6)
    monkeypatch.undo()

    def no_primes(*args):
        raise AssertionError("built a table before the tail was checked")

    monkeypatch.setattr(h, "iter_primes", no_primes)
    for x in (10**17, 10**14):
        with pytest.raises(ResourceError):
            h.s5_sums(mf.primes_model(), 1, 10.0, 1e4, x)
        argv = ["s5", "--kind", "primes", "--a", "1", "--M", "10", "--R", "1e4", "--x", str(x)]
        assert cli.main(argv) == 3
        assert "s5 tail" in capsys.readouterr().err


def test_divisor_switch_exact():
    kinds = (
        sq.PrimesLambda(),
        sq.SumTwoSquares(),
        sq.Rough(7),
        sq.KTupleWeight(kt.TWIN),
        sq.QuadFormMult(BinaryQuadraticForm(1, 0, 1)),
    )
    for kind, x in itertools.product(kinds, (10, 997, 10**4)):
        win = sq.sieve(kind, 1, x)
        w = sq.dense_weights(win, x)
        G = int(x / 20.0)
        # a = x - G - 1 leaves one term, n = x; a = x - G none at all
        cases = [(a, 20.0) for a in (1, 3, 5, x - G - 1, x - G, x, x + 3)]
        for a, M in cases + [(3, 3.0), (3, 0.5)]:
            # the oracle: one strided slice per modulus q > x/M
            slices = [w[a + q :: q] for q in range(int(x / M) + 1, x + 1)]
            want = math.fsum(np.concatenate([w[:0]] + slices).tolist())
            d, s, eq = vf.divisor_switch_check(kind, a, x, M, window=win)
            assert eq and d == s == want, (kind, x, a, M)
    d, s, eq = vf.divisor_switch_check(sq.SumTwoSquares(), 5, 10**5, 50.0)
    assert eq and d == s and d == int(d)
    with pytest.raises(DomainError):
        vf.divisor_switch_check(sq.PrimesLambda(), -3, 10**4, 20.0)
    for M in (math.nan, math.inf):
        with pytest.raises(DomainError):
            vf.divisor_switch_check(sq.PrimesLambda(), 3, 1000, M)


def test_divisor_switch_checks_the_production_slices(monkeypatch):
    # the switched side is harness's own cofactor slices over harness's own
    # segments: lose one or count one twice in either and the check must
    # see it, as the production sums do against the per-q oracle
    real_slices, real_segments = h._cofactor_slices, h._segments

    def dropped(*args):
        slices = list(real_slices(*args))
        return slices[:1] + slices[2:]

    def repeated(*args):
        slices = list(real_slices(*args))
        return slices + slices[1:2]

    def segment_dropped(*args):
        for i, seg in enumerate(real_segments(*args)):
            if i != 1:
                yield seg

    def segment_repeated(*args):
        for i, seg in enumerate(real_segments(*args)):
            yield seg
            if i == 1:
                yield seg

    # primes are walked on their odd-n plane with the powers of 2 as even
    # points, two_squares on whole segments
    x, a, M = 10**4, 3, 20.0
    steps = {sq.SumTwoSquares(): 1, sq.PrimesLambda(): 2}
    windows = {kind: sq.sieve(kind, 1, x) for kind in steps}
    for kind, step in steps.items():
        assert h._plane(windows[kind], x, a)[0] == step
    for fake in (dropped, repeated):
        with monkeypatch.context() as mp:
            mp.setattr(h, "_cofactor_slices", fake)
            for kind in steps:
                d, s, eq = vf.divisor_switch_check(kind, a, x, M)
                assert not eq and d != s, (fake.__name__, kind)
    monkeypatch.setattr(h, "_SEGMENT", 4099)
    hi = int(x / M)
    keep = np.ones(hi, dtype=bool)
    for fake in (segment_dropped, segment_repeated):
        with monkeypatch.context() as mp:
            mp.setattr(h, "_segments", fake)
            for kind, win in windows.items():
                d, s, eq = vf.divisor_switch_check(kind, a, x, M)
                assert not eq and d != s, (fake.__name__, kind)
                want = _per_q_sums(sq.dense_weights(win, x), a, 1, hi, keep)
                got = h._slice_sums(win, x, a, 1, hi, keep)
                assert not np.array_equal(got, want), (fake.__name__, kind)


def test_export_csv_deterministic(tmp_path):
    for cfg in (
        h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=10**4, M=10.0, coprime_filter="a"),
        h.ExperimentConfig(
            kind=sq.KTupleWeight(kt.TWIN), a=-1, x=10**4, M=10.0,
            mode="dyadic", coprime_filter="P",
        ),
    ):
        rep = h.empirical_average(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        h.compare_and_export(rep, str(p1))
        h.compare_and_export(rep, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        header, row = p1.read_text().splitlines()
        assert header == h.CSV_HEADER
        fields = next(csv.reader([row]))
        assert len(fields) == 13
        assert fields[:7] == [rep.provenance["config_hash"], cfg.kind.label(),
                              str(cfg.a), str(cfg.x), "10", cfg.mode, cfg.coprime_filter]
        # a rerun of the same config differs at most in runtime_ms
        rep2 = h.empirical_average(cfg)
        assert dataclasses.replace(rep, runtime_ms=0) == dataclasses.replace(rep2, runtime_ms=0)
    # the twin label holds commas, so the writer quotes it
    assert f',"{cfg.kind.label()}",' in row


def test_export_json_roundtrip(tmp_path):
    path = tmp_path / "r.json"
    for cfg in (
        h.ExperimentConfig(kind=sq.SumTwoSquares(), a=5, x=10**4, M=10.0, mode="dyadic"),
        h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=10**4, M=10.0, coprime_filter="a"),
    ):
        rep = h.empirical_average(cfg)
        h.compare_and_export(rep, str(path), format="json")
        back = h.report_from_dict(json.loads(path.read_text()))
        assert back == rep
    assert back.predicted.secondary == -bias.C5
    # older exports have no secondary
    data = json.loads(path.read_text())
    del data["predicted"]["secondary"]
    older = h.report_from_dict(data)
    assert older.predicted.secondary is None
    assert older == dataclasses.replace(
        rep, predicted=dataclasses.replace(rep.predicted, secondary=None)
    )
    with pytest.raises(ConfigurationError):
        h.compare_and_export(rep, str(path), format="xml")


def test_normalizers_follow_the_family():
    x, M = 10**4, 10.0
    win = sq.sieve(sq.PrimesLambda(), 1, x)
    cfg = h.ExperimentConfig(kind=sq.PrimesLambda(), a=6, x=x, M=M, coprime_filter="a")
    rep = h.empirical_average(cfg, window=win)
    assert rep.normalized_avg == rep.empirical_sum / (phi(6) / 6 * (x / M))
    cfg2 = h.ExperimentConfig(kind=sq.PrimesLambda(), a=6, x=x, M=M)
    rep2 = h.empirical_average(cfg2, window=win)
    A_x = float(sq.count_A(win))
    assert rep2.normalized_avg == rep2.empirical_sum / (A_x / M)


def test_a_float_shift_is_refused_not_truncated():
    # each of these once ran as if a were 2, 1, 2, 3 and 1, or at x = 1e6
    model = mf.primes_model()
    calls = [
        lambda: bias.predict_example("primes", 2.9, 10.0),
        lambda: bias.predict_example("primes", 1.5, 10.0),
        lambda: bias.predict_example("rough", 1.0, 10.0, 1e4, y=3),
        lambda: h.g_range(model, 2.5, 1, 10),
        lambda: bias.mu_k(model, 3.7, 10.0),
        lambda: h.s5_sums(model, 1.5, 10.0, 100.0, 10**6),
        lambda: h.s5_sums(model, 1, 10.0, 100.0, 10**6 + 0.5),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="must be an integer"):
            call()
    # a numpy integer shift runs as the same int
    assert h.g_range(model, np.int64(6), 1, 100).tobytes() == h.g_range(model, 6, 1, 100).tobytes()
    assert bias.mu_k(model, np.int32(3), 10.0) == bias.mu_k(model, 3, 10.0)


def test_each_window_bound_refuses_one_past_its_edge(monkeypatch):
    # errors.require_window under both budgets, with the work each guards
    # patched to count its calls: the edge runs, one past it is refused
    # before any work
    calls = []

    def counted(lo, hi, *rest):
        calls.append((lo, hi))
        return np.empty(0, np.int64), np.empty(0)

    monkeypatch.setattr(sq, "_lambda_window", counted)
    monkeypatch.setattr(h, "_multiplicative_sieve", lambda lo, hi, *rest: counted(lo, hi)[1])
    monkeypatch.setattr(h, "iter_primes", lambda limit: [])  # LocalRatios at 2^53 lists none

    def edge(call, ok, over, match="too wide"):
        n = len(calls)
        call(*ok)
        assert len(calls) > n, ok
        n = len(calls)
        with pytest.raises(ResourceError, match=match):
            call(*over)
        assert len(calls) == n, over

    kind = sq.PrimesLambda()
    W, top = sq.MAX_WINDOW, sq.MAX_TABLE_LIMIT
    edge(lambda lo, hi: sq.sieve(kind, lo, hi), (1, W), (1, W + 1))
    edge(lambda lo, hi: sq.sieve(kind, lo, hi), (top, top), (top + 1, top + 1), "ends past")
    edge(lambda x: sq.window_over(kind, x), (W,), (W + 1,))
    model, kernel_top = mf.primes_model(), 2**53 - 1
    for term in (lambda lo, hi: h.g_range(model, 1, lo, hi),
                 lambda lo, hi: h.ktuple_term_range(kt.TWIN, lo, hi)):
        edge(term, (1, h._BLOCK + 1), (1, h._BLOCK + 2))
        edge(term, (kernel_top, kernel_top), (kernel_top + 1, kernel_top + 1), "ends past")

    # a config takes the sieve's rule on [1, x] and the kernel's on its
    # q-range, and sieves nothing either way
    def config(x, M=10.0, kind=kind):
        h.ExperimentConfig(kind=kind, a=1, x=x, M=M)
        calls.append(x)  # built: counted as the run it allows

    edge(config, (W,), (W + 1,))
    edge(lambda x: config(x, 2.0, sq.Rough(7)), (2 * h._BLOCK + 2,), (2 * h._BLOCK + 4,))
    # twin's runs take the 'P' filter, refused when the config is built
    with pytest.raises(UnsupportedError, match="coprime_filter='P'"):
        h.ExperimentConfig(kind=sq.KTupleWeight(kt.TWIN), a=-1, x=10**4, M=10.0)

    # each form's values of a tuple window: n + 2 on [1, hi] spans [3, hi + 2]
    monkeypatch.setattr(sq, "MAX_WINDOW", 1000)
    twin = sq.KTupleWeight(kt.TWIN)
    edge(twin.window, (1, 1000), (1, 1001), "form 1n\\+2")
    edge(twin.window, (top - 12, top - 2), (top - 11, top - 1), "form 1n\\+2")


def test_config_takes_exactly_the_family_filters():
    # each family states the filters it takes once; the config refuses the
    # rest when it is built, before any density or window
    kinds = [sq.PrimesLambda(), sq.SumTwoSquares(), sq.Rough(7),
             sq.QuadFormMult(BinaryQuadraticForm(1, 0, 1)), sq.KTupleWeight(kt.TWIN)]
    assert set(sq.FAMILIES) == {type(kind).name for kind in kinds}
    for kind, filt in itertools.product(kinds, h._FILTERS):
        build = lambda: h.ExperimentConfig(kind=kind, a=1, x=10**4, M=10.0, coprime_filter=filt)
        if filt in kind.filters:
            assert build().coprime_filter == filt
        else:
            want = " or ".join(map(repr, kind.filters))
            with pytest.raises(UnsupportedError, match=re.escape(f"coprime_filter={want}")):
                build()


@pytest.mark.parametrize("mode", ["full", "dyadic"])
def test_empty_tuple_filter_costs_no_kernel_call(monkeypatch, mode):
    # P(-2; twin) = 0: the filter is refused before the term kernel runs
    calls = []
    kernel = h._multiplicative_sieve

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(h, "_multiplicative_sieve", counted)
    cfg = h.ExperimentConfig(kind=sq.KTupleWeight(kt.TWIN), a=-2, x=10**4, M=10.0,
                             mode=mode, coprime_filter="P")
    with pytest.raises(DomainError, match=re.escape("P(a;H) = 0")):
        h.empirical_average(cfg, window=lambda: pytest.fail("asked for a window"))
    assert calls == []
