import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from disclab import bias
from disclab import harness as h
from disclab import ktuples as kt
from disclab import multfn as mf
from disclab import sequences as sq
from disclab.errors import ConfigurationError, DomainError, ResourceError, UnsupportedError
from disclab.factorint import phi
from disclab.quadform import BinaryQuadraticForm


def test_g_range_matches_exact_local_products():
    cases = [
        (mf.primes_model(), 7),
        (mf.primes_model(), -12),
        (mf.two_squares_model(), 21),
        (mf.rough_model(10), -9),
        (mf.quadform_model(BinaryQuadraticForm(1, 0, 1)), 5),
    ]
    for model, a in cases:
        G = h.g_range(model, a, 1, 1500)
        for q in range(1, 1501):
            exact = float(mf.g_a(model, a, q))
            if exact == 0.0:
                assert G[q - 1] == 0.0
            else:
                assert G[q - 1] == pytest.approx(exact, rel=1e-12)


def test_g_range_windowed_agrees_with_full():
    model = mf.two_squares_model()
    full = h.g_range(model, 5, 1, 4000)
    part = h.g_range(model, 5, 2001, 4000)
    assert np.array_equal(full[2000:], part)


def test_ktuple_term_range_matches_gamma():
    for H in (kt.TWIN, kt.KTuple(((1, 0), (1, 4), (1, 6)))):
        T = h.ktuple_term_range(H, 1, 1200)
        for q in range(1, 1201):
            exact = float(Fraction(1, q) / kt.gamma_H(H, q))
            assert T[q - 1] == pytest.approx(exact, rel=1e-12)


def test_config_validation():
    with pytest.raises(DomainError):
        h.ExperimentConfig(kind=sq.PrimesLambda(), a=0, x=100, M=5.0)
    with pytest.raises(DomainError):
        h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=100, M=1.0)
    with pytest.raises(ConfigurationError):
        h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=100, M=5.0, mode="half")
    with pytest.raises(ConfigurationError):
        h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=100, M=5.0, coprime_filter="q")
    cfg = h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=10**6, M=10.0)
    assert len(cfg.config_hash) == 12


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


def test_point_mass_bookkeeping():
    # dropping the a(a) subtraction shifts the sum by weight(a) * q_count
    cfg = h.ExperimentConfig(
        kind=sq.PrimesLambda(), a=4, x=10**4, M=10.0, mode="full", coprime_filter="none"
    )
    with_pm = h.empirical_average(cfg, subtract_point_mass=True)
    without = h.empirical_average(cfg, subtract_point_mass=False)
    shift = math.log(2) * with_pm.q_count
    assert without.empirical_sum - with_pm.empirical_sum == pytest.approx(shift, rel=1e-12)


def test_negative_a_has_no_point_mass():
    cfg = h.ExperimentConfig(
        kind=sq.PrimesLambda(), a=-4, x=10**4, M=10.0, coprime_filter="none"
    )
    on = h.empirical_average(cfg, subtract_point_mass=True)
    off = h.empirical_average(cfg, subtract_point_mass=False)
    assert on.empirical_sum == off.empirical_sum


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


def test_thread_count_does_not_change_floats():
    cfg = h.ExperimentConfig(
        kind=sq.PrimesLambda(), a=1, x=10**6, M=10.0, coprime_filter="a"
    )
    win = sq.sieve(cfg.kind, 1, cfg.x)
    r1 = h.empirical_average(cfg, window=win, threads=1)
    r4 = h.empirical_average(cfg, window=win, threads=4)
    assert r1.empirical_sum == r4.empirical_sum
    assert r1.normalized_avg == r4.normalized_avg


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


def test_resource_guard():
    with pytest.raises(ResourceError):
        h.empirical_average(
            h.ExperimentConfig(kind=sq.PrimesLambda(), a=1, x=sq.MAX_WINDOW + 1, M=10.0)
        )


def test_s5_degenerate_and_monotone_tail():
    model = mf.primes_model()
    s = h.s5_sums(model, 1, 64.0, 64.0, 10**6)
    assert s.S5 == 0.0 and s.S_tail == 0.0
    tails = [h.s5_sums(model, 1, M, 900.0, 10**6).S_tail for M in (50.0, 100.0, 200.0)]
    assert tails[0] > tails[1] > tails[2] > 0


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


def test_divisor_switch_exact():
    d, s, eq = h.divisor_switch_check(sq.PrimesLambda(), 3, 10**4, 20.0)
    assert eq and d == s
    d, s, eq = h.divisor_switch_check(sq.SumTwoSquares(), 5, 10**5, 50.0)
    assert eq and d == s and d == int(d)
    d, s, eq = h.divisor_switch_check(sq.PrimesLambda(), 3, 10**4, 0.5)
    assert eq and d == 0.0 and s == 0.0
    with pytest.raises(DomainError):
        h.divisor_switch_check(sq.PrimesLambda(), -3, 10**4, 20.0)


def test_export_csv_deterministic(tmp_path):
    cfg = h.ExperimentConfig(
        kind=sq.PrimesLambda(), a=1, x=10**4, M=10.0, coprime_filter="a"
    )
    rep = h.empirical_average(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    h.compare_and_export(rep, str(p1))
    h.compare_and_export(rep, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.splitlines()[0] == h.CSV_HEADER
    # a rerun of the same config differs at most in runtime_ms
    rep2 = h.empirical_average(cfg)
    assert dataclasses.replace(rep, runtime_ms=0) == dataclasses.replace(rep2, runtime_ms=0)


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
