"""Numbered end-to-end acceptance checks.

Each test prints a single PASS/FAIL line (stream them with -s; pytest also
shows the captured line for any failing test).  The smoothed-sum convergence
check dominates the runtime at a few minutes; everything else is seconds.
"""

import math
import os
import time
from fractions import Fraction

from disclab import bias
from disclab import factorint as fi
from disclab import harness as hn
from disclab import multfn as mf
from disclab import sequences as sq
from disclab import verify as vf

_THREADS = min(4, os.cpu_count() or 1)


def _emit(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")


def _criterion(n: int, *props, budget: float = math.inf) -> None:
    """Run verify properties on their depth-2 grids as one criterion."""
    results = [vf.check(prop, depth=2) for prop in props]
    dt = sum(r.seconds for r in results)
    ok = all(r.ok for r in results) and dt < budget
    counts = "; ".join(f"{r.name} {r.cases} cases, {r.failed} failures" for r in results)
    _emit(n, ok, f"{counts}; {dt:.1f} s")
    assert ok, [text for r in results for text in r.failures]


def test_01_residue_counts_closed_equals_brute():
    _criterion(1, vf.ra_closed_equals_brute, budget=60.0)


def test_02_residue_mass_identity():
    _criterion(2, vf.mass_identity)


def test_03_normalization_identity():
    _criterion(3, vf.normalization_identity)


def test_04_structural_identities():
    _criterion(4, vf.divisor_switch_grid, vf.count_scaling_identity)


def test_05_mu_closed_form_reproduction():
    model = mf.primes_model()
    shifts = [1, -1]
    for p in fi.iter_primes(100):
        for e in (1, 2, 3):
            shifts += [p**e, -(p**e)]
    composites = [6, 10, 12, 15, 18, 20, 21, 24, 28, 30, 33, 35, 36, 40, 42, 44, 45, 48, 50, 60]
    assert len(composites) == 20
    shifts += composites
    bad = []
    for M in (50.0, 1000.0):
        for a in shifts:
            gen = bias.mu_k(model, a, M, P_trunc=1000)
            three_case = bias.mu_specialized(model, a, M, P_trunc=1000)
            if (
                gen.leading_value != three_case.leading_value
                or gen.logM_exponent != three_case.logM_exponent
                or gen.zero != three_case.zero
            ):
                bad.append(("route", a, M))
                continue
            fac = fi.as_factored(a).factors
            if abs(a) == 1:
                expect = -0.5 * math.log(M)
            elif len(fac) == 1:
                p = fac[0][0]
                expect = float(Fraction(-(p - 1), 2 * p)) * math.log(p)
            else:
                expect = 0.0
            if gen.leading_value != expect:
                bad.append(("value", a, M, gen.leading_value, expect))
    for a in (1, 7, -12):
        lo = bias.mu_k(model, a, 50.0, P_trunc=10**3)
        hi = bias.mu_k(model, a, 50.0, P_trunc=10**5)
        if lo.leading_value != hi.leading_value:
            bad.append(("trunc", a))
    ok = not bad
    _emit(
        5,
        ok,
        f"general closed form == three-case values bit for bit for {len(shifts)} shifts "
        f"x 2 scales, {len(bad)} mismatches",
    )
    assert ok, bad[:5]


def test_06_smoothed_sum_convergence():
    model = mf.primes_model()
    R, x = 10**5, 10**10
    t0 = time.perf_counter()
    s_main = hn.s5_sums(model, 1, 1000.0, R, x)
    s_small = hn.s5_sums(model, 1, 10.0, R, x)
    dt = time.perf_counter() - t0
    # M*S5 against leading + secondary + R-truncation term (bias.predict_s5)
    pred_main = bias.predict_s5("primes", 1, 1000.0, R)
    ratio_main = s_main.S5 * 1000.0 / pred_main
    ratio_small = s_small.S5 * 10.0 / bias.predict_s5("primes", 1, 10.0, R)
    leading_only = s_main.S5 * 1000.0 / (-0.5 * math.log(1000.0))
    residual = s_main.S5 * 1000.0 - pred_main
    in_band = 0.5 <= ratio_main <= 1.5
    closer = abs(ratio_main - 1.0) < abs(ratio_small - 1.0)
    under_budget = dt < 600.0
    ok = in_band and closer and under_budget
    _emit(
        6,
        ok,
        f"M*S5/prediction = {ratio_main:.6f} at M=1000 (target band [0.5, 1.5]), "
        f"{ratio_small:.6f} at M=10, M=1000 closer to 1: {closer}; "
        f"leading-only S5*M/(-log(M)/2) = {leading_only:.6f}, "
        f"residual M*S5 - prediction = {residual:.6f} at M=1000, {dt:.0f} s",
    )
    assert under_budget
    assert closer
    assert in_band, (
        f"ratio {ratio_main:.10f} of M*S5 to -1/2 log M - C5 + (M/R)(1/2 log R + C5) "
        f"lies outside the [0.5, 1.5] band at M=1000, R=1e5, x=1e10; the prediction "
        f"leaves out only an O(M*R/x) = O(0.01) remainder and the mean-zero error of "
        f"the smoothed sums, so a miss this wide points at s5_sums or predict_s5"
    )


def test_07_prime_bias_sign_and_ordering():
    kind = sq.PrimesLambda()
    win = sq.sieve(kind, 1, 10**7)
    na = {}
    for a in (1, 30):
        cfg = hn.ExperimentConfig(
            kind=kind, a=a, x=10**7, M=20, mode="full", coprime_filter="a"
        )
        na[a] = hn.empirical_average(cfg, window=win, threads=_THREADS).normalized_avg
    ok = na[1] < 0 and abs(na[1]) > abs(na[30])
    _emit(
        7,
        ok,
        f"normalized_avg(a=1) = {na[1]:.4f} (negative), "
        f"normalized_avg(a=30) = {na[30]:.4f}, |a=1| larger: {abs(na[1]) > abs(na[30])}",
    )
    assert ok


def test_08_two_squares_bias_ordering():
    kind = sq.SumTwoSquares()
    win = sq.sieve(kind, 1, 10**7)
    na = {}
    for a in (5, 21):
        cfg = hn.ExperimentConfig(
            kind=kind, a=a, x=10**7, M=10, mode="dyadic", coprime_filter="none"
        )
        na[a] = hn.empirical_average(cfg, window=win, threads=_THREADS).normalized_avg
    ok = abs(na[5]) > abs(na[21])
    _emit(
        8,
        ok,
        f"dyadic normalized_avg: |a=5| = {abs(na[5]):.4f} > |a=21| = {abs(na[21]):.4f}: {ok}",
    )
    assert ok


def test_09_gauss_ramanujan_identities():
    _criterion(9, vf.gauss_sum_identities, vf.ramanujan_closed_vs_direct)


def test_10_tuple_local_counts():
    _criterion(
        10,
        vf.nu_rootset_equals_brute,
        vf.modified_tuple_nu_identity,
        vf.singular_series_tail_honesty,
    )
