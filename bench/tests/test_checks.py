"""The benchmark's checks at small sizes: they pass on the program as it is,
and they fail once one output is perturbed."""

import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import oracles
import workloads
from disclab import bias, harness, sequences

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def first_round(work):
    work.prepare()
    return [op.run() for op in work.ops()]


# ----------------------------------------------------------------------------
# oracles against brute force


def test_progression_total_matches_brute_force():
    rng = np.random.default_rng(0)
    x = 400
    for w in (rng.integers(0, 3, x + 1), rng.random(x + 1)):
        w[0] = 0
        for a in (1, 3, -1, -3):
            keep = oracles.coprime_mask(3, 1, 60)
            brute = [w[n] for q in range(1, 61) if keep[q - 1] for n in range(1, x + 1) if (n - a) % q == 0]
            got = oracles.progression_total(w, a, 1, 60, keep)
            if w.dtype.kind == "i":
                assert got == sum(int(v) for v in brute)
            else:
                assert got == pytest.approx(math.fsum(brute), rel=1e-13)


def test_totients_and_sieves_match_definitions():
    phi = oracles.totients(300)
    assert [int(v) for v in phi[1:13]] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert np.array_equal(oracles.totients_range(100, 300), phi[100:])
    lam = oracles.von_mangoldt(30)
    assert {n for n in range(31) if lam[n]} == {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29}
    sums = oracles.two_squares(30)
    brute = {u * u + v * v for u in range(6) for v in range(6)} - {0}
    assert {n for n in range(31) if sums[n]} == {n for n in brute if n <= 30}


def test_local_densities_match_counts():
    # the share of sums of two squares up to N in a mod q tends to the
    # density with an error of order 1/log N, a few per cent here
    N = 2 * 10**6
    w = oracles.two_squares(N)
    for a, q in ((5, 12), (5, 9), (21, 8), (13, 49), (9, 27)):
        share = w[a % q :: q].sum() / w.sum()
        assert share == pytest.approx(float(oracles.two_squares_density(a, q)), rel=0.1)
    assert oracles.twin_density(6) == 1 / (6 * (1 - 1 / 2) * (1 - 2 / 3))


# ----------------------------------------------------------------------------
# each workload's check, then one perturbed output


def test_discrepancy_check(monkeypatch):
    work = workloads.DiscrepancyPrimes(3, x=3 * 10**5, threads=2)
    assert work.check(first_round(work)) == []

    real_mask = harness._filter_mask

    def drop_q2(cfg, lo, hi):
        mask = real_mask(cfg, lo, hi)
        mask[2 - lo] = False
        return mask

    monkeypatch.setattr(harness, "_filter_mask", drop_q2)
    failures = work.check(first_round(work))
    assert any(f.startswith("empirical_sum") for f in failures)
    assert any(f.startswith("q_count") for f in failures)


def test_s5_check(monkeypatch):
    work = workloads.S5Primes(4, x=10**7, R=10**3)
    assert work.check(first_round(work)) == []

    monkeypatch.setattr(bias, "C5", 0.0)
    failures = work.check(first_round(work))
    assert any("predict_s5" in f for f in failures)


def test_s5_check_sees_a_missing_tail_modulus(monkeypatch):
    work = workloads.S5Primes(4, x=10**7, R=10**3)
    real = harness.g_range

    def one_short(model, a, lo, hi):
        g = real(model, a, lo, hi)
        if lo > work.R:
            g[0] = 0.0
        return g

    monkeypatch.setattr(harness, "g_range", one_short)
    failures = work.check(first_round(work))
    assert any("S_tail" in f for f in failures)


def test_cached_windows_check(tmp_path, monkeypatch):
    work = workloads.CachedWindows(5, str(tmp_path), x=4 * 10**5)
    assert work.check(first_round(work)) == []

    real_load = sequences.load_window

    def one_weight_changed(path):
        # n - a is then itself a modulus of the dyadic range, so every
        # report counts n (twin n are 2 mod 3, so n - a avoids the filter)
        window = real_load(path)
        weights = window.weights.copy()
        weights[np.searchsorted(window.support, work.x // (2 * work.M) + 100)] += 1
        return replace(window, weights=weights)

    monkeypatch.setattr(sequences, "load_window", one_weight_changed)
    failures = work.check(first_round(work))
    assert any("loaded window differs" in f for f in failures)
    assert any("summed counts" in f for f in failures)
    assert any("summed weights" in f for f in failures)


def test_predict_grid_check(monkeypatch):
    work = workloads.PredictGrid(6, P_trunc=10**3)
    assert work.check(first_round(work)) == []

    real = bias.mu_specialized

    def one_ulp_off(*args, **kwargs):
        pred = real(*args, **kwargs)
        return replace(pred, leading_value=math.nextafter(pred.leading_value, 0.0))

    monkeypatch.setattr(bias, "mu_specialized", one_ulp_off)
    failures = work.check(first_round(work))
    assert any(f.startswith("mu_specialized") and "closed form" in f for f in failures)
    assert any(f.startswith("mu_k primes") and "other routine" in f for f in failures)


def test_combined_checks_each_part(monkeypatch):
    work = workloads.Combined(workloads.PredictGrid(1, P_trunc=10**3),
                              workloads.PredictGrid(2, P_trunc=10**3))
    assert len(work.ops()) == 2 * len(work.parts[0].ops())
    assert work.check(first_round(work)) == []

    real = bias.predict_example
    monkeypatch.setattr(bias, "predict_example", lambda f, *a, **kw: replace(
        real(f, *a, **kw), leading_value=-1.0, zero=False) if f == "rough" else real(f, *a, **kw))
    failures = work.check(first_round(work))
    assert sum(f.startswith("predict_example rough") for f in failures) == 2


def test_seed_picks_inputs_from_fixed_pools():
    assert workloads.PredictGrid(7).shifts == workloads.PredictGrid(7).shifts
    shifts = {workloads.PredictGrid(s).shifts for s in range(20)}
    assert len(shifts) > 1
    for unit, pp in shifts:
        assert unit in workloads.PredictGrid.UNITS and pp in workloads.PredictGrid.PRIME_POWERS


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed-forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("family", ["twin", "quadform"])
def test_predict_grid_check_sees_one_ulp_in_a_family_prediction(monkeypatch, family):
    work = workloads.PredictGrid(6, P_trunc=10**3)
    real = bias.predict_example

    def one_ulp_off(f, *args, **kwargs):
        pred = real(f, *args, **kwargs)
        if f != family:
            return pred
        return replace(pred, leading_value=math.nextafter(pred.leading_value, 0.0))

    monkeypatch.setattr(bias, "predict_example", one_ulp_off)
    failures = work.check(first_round(work))
    assert [f for f in failures if f.startswith(f"predict_example {family}")]
