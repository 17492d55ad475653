import dataclasses
import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from disclab import bias, ktuples
from disclab import multfn as mf
from disclab import sequences as sq
from disclab.errors import ConfigurationError, DomainError, UnsupportedError
from disclab.factorint import as_factored, iter_primes, kronecker
from disclab.quadform import BinaryQuadraticForm


PRIMES = mf.primes_model()
ROUGH7 = mf.rough_model(7)
X2Y2 = BinaryQuadraticForm(1, 0, 1)


def _half_model():
    # fractional mean density: split/inert dichotomy without a bad prime
    def h(p, e):
        if p == 2 or p % 4 == 1:
            return Fraction(1)
        return Fraction(1) if e % 2 == 0 else Fraction(1, p)

    def h_vec(P):
        return np.where((P == 2) | (P % 4 == 1), 1.0, 1.0 / P)

    return mf.SequenceModel("half", h, Fraction(1, 2), h_vec)


HALF = _half_model()


def test_mu_primes_closed_forms_exact():
    """The three prime-counting cases come out bit-for-bit."""
    for M in (10.0, 100.0, 1000.0):
        v = bias.mu_k(PRIMES, 1, M)
        assert v.leading_value == -0.5 * math.log(M)
        assert v.logM_exponent == 1 and not v.zero and v.tail_bound == 0.0
        assert bias.mu_k(PRIMES, -1, M).leading_value == v.leading_value
    for p in (2, 3, 5, 97):
        for e in (1, 2, 3):
            for sign in (1, -1):
                v = bias.mu_k(PRIMES, sign * p**e, 100.0)
                expected = float(Fraction(-(p - 1), 2 * p)) * math.log(p)
                assert v.leading_value == expected
                assert v.logM_exponent == 0
    for a in (6, 12, -30, 210, 9973 * 2):
        v = bias.mu_k(PRIMES, a, 100.0)
        assert v.leading_value == 0.0 and v.zero


def test_mu_matches_specialized():
    for model in (PRIMES, ROUGH7):
        for a in list(range(1, 120)) + [-1, -7, -30, 143, 211]:
            for M in (10.0, 1000.0):
                v1 = bias.mu_k(model, a, M, P_trunc=2000)
                v2 = bias.mu_specialized(model, a, M, P_trunc=2000)
                assert v1.tail_bound == 0.0 and v2.tail_bound == 0.0
                assert v1.leading_value == v2.leading_value, (model.label, a, M)
                assert v1.logM_exponent == v2.logM_exponent
                assert v1.zero == v2.zero


DECLARING = [PRIMES] + [mf.rough_model(y) for y in (2, 3, 7, 10, 30)]
TAIL_SHIFTS = [s * a for a in range(1, 31) for s in (1, -1)] + [143, 211, 9973 * 2]


def _undeclared(model):
    """The same model with tail_primes removed: the tail walks every prime."""
    return dataclasses.replace(model, tail_primes=None)


def test_tail_primes_are_where_the_euler_factor_is_not_1():
    for model in DECLARING:
        kn = model.k.numerator
        for p in iter_primes(10**5):
            factor = (1 - model.h_pp(p, 1) / p) / Fraction(p - 1, p) ** kn
            assert (factor != 1) == (p in model.tail_primes), (model.label, p)


@pytest.mark.parametrize("P_trunc, shifts, Ms", [
    (10**3, TAIL_SHIFTS, (10.0, 1000.0)),
    # the full walk costs 0.08 s per call here, so a sample of the shifts
    (10**5, (1, -3, 9, 143, 211, 9973 * 2), (1000.0,)),
])
def test_declared_tail_matches_full_walk(P_trunc, shifts, Ms):
    drifts = 0
    # rough(700) has tail primes in the last octave of P_trunc = 1e3, where
    # they feed tail_bound
    for model in DECLARING + [mf.rough_model(700)]:
        full = _undeclared(model)
        for a in shifts:
            for M in Ms:
                for mu in (bias.mu_k, bias.mu_specialized):
                    v = mu(model, a, M, P_trunc)
                    assert v == mu(full, a, M, P_trunc), (model.label, a, M, mu.__name__)
                    drifts += v.tail_bound > 0.0
    # rough(700) at a = +-1, per M and routine
    assert drifts == (2 * len(Ms) * 2 if P_trunc == 10**3 else 0)


def test_pole_semantics():
    """Zero exactly when the Gamma argument 2 - k - omega_h hits a pole."""
    for model in (PRIMES, ROUGH7):
        k = model.k
        for a in range(1, 800):
            omega = mf.omega_h(model, as_factored(a))
            v = bias.mu_k(model, a, 50.0, P_trunc=1000)
            assert v.zero == (omega >= 2 - k), (model.label, a)
            assert v.zero == (v.leading_value == 0.0)


def test_fractional_k_never_zero():
    for a in (1, 3, 21, 9, 3 * 7 * 11, 2 * 3 * 7):
        v = bias.mu_k(HALF, a, 100.0, P_trunc=5000)
        assert not v.zero and v.leading_value != 0.0
        assert v.logM_exponent == Fraction(1, 2) - mf.omega_h(HALF, as_factored(a))
    with pytest.raises(UnsupportedError):
        bias.mu_specialized(HALF, 1, 100.0)


def test_fractional_k_truncation_stability():
    v1 = bias.mu_k(HALF, 1, 100.0, P_trunc=10**4)
    v2 = bias.mu_k(HALF, 1, 100.0, P_trunc=10**5)
    assert v1.tail_bound > 0.0
    assert abs(v1.leading_value - v2.leading_value) <= 10 * (
        v1.tail_bound + v2.tail_bound
    )
    assert abs(v1.leading_value - v2.leading_value) < 0.01 * abs(v2.leading_value)


def test_mu_monotone_in_M():
    grid = [math.e, 5.0, 20.0, 100.0, 1000.0, 10**6]
    for model, a in ((PRIMES, 1), (PRIMES, -1), (HALF, 1)):
        vals = [
            abs(bias.mu_k(model, a, M, P_trunc=1000).leading_value) for M in grid
        ]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:])), (model.label, a)


def test_mu_validation():
    # both routines refuse the same inputs, up front
    for mu in (bias.mu_k, bias.mu_specialized):
        with pytest.raises(UnsupportedError):
            mu(mf.two_squares_model(), 1, 100.0)
        with pytest.raises(UnsupportedError):
            mu(mf.quadform_model(X2Y2), 1, 100.0)
        for M in (1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                mu(PRIMES, 1, M)
        with pytest.raises(ConfigurationError):
            mu(PRIMES, 1, 10.0, P_trunc=10)
        with pytest.raises(DomainError):
            mu(PRIMES, 0, 100.0)


def test_area_unit_region():
    assert bias.area_unit_region(X2Y2) == pytest.approx(math.pi / 4, abs=1e-10)
    assert bias.area_unit_region(BinaryQuadraticForm(1, 0, 2)) == pytest.approx(
        math.pi / (4 * math.sqrt(2)), abs=1e-10
    )
    # polar integration gives pi/(3 sqrt 3) for the cross-term form
    assert bias.area_unit_region(BinaryQuadraticForm(1, 1, 1)) == pytest.approx(
        math.pi / (3 * math.sqrt(3)), abs=1e-10
    )
    # the negative cross term widens the quadrant's region to twice that
    assert bias.area_unit_region(BinaryQuadraticForm(1, -1, 1)) == pytest.approx(
        2 * math.pi / (3 * math.sqrt(3)), abs=1e-10
    )


def test_area_unit_region_matches_quadrature():
    """The closed form against 1/2 int_0^{pi/2} dtheta / Q(cos, sin) at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30

    @functools.cache
    def cos_sin(t):  # every form's quadrature visits the same nodes
        return mpmath.cos(t), mpmath.sin(t)

    def inverse_q(alpha, beta, gamma):
        def f(t):
            c, s = cos_sin(t)
            return 1 / (alpha * c * c + beta * c * s + gamma * s * s)
        return f

    worst = 0.0
    for alpha in range(1, 8):
        for gamma in range(1, 8):
            for beta in range(-7, 8):
                if 4 * alpha * gamma <= beta * beta:
                    continue
                want = mpmath.quad(inverse_q(alpha, beta, gamma), [0, mpmath.pi / 2]) / 2
                got = bias.area_unit_region(BinaryQuadraticForm(alpha, beta, gamma))
                worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-15


def test_L_one_chi():
    assert bias.L_one_chi(-4) == pytest.approx(math.pi / 4, abs=1e-9)
    assert bias.L_one_chi(-8) == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-9)
    # period 12 character: the conductor-3 value times (1 + 1/2)
    assert bias.L_one_chi(-3) == pytest.approx(math.pi / (2 * math.sqrt(3)), abs=1e-9)
    assert bias.L_one_chi(-20) == pytest.approx(math.pi / math.sqrt(5), abs=1e-9)
    for d in (0, 1, 4, 5, 12):
        with pytest.raises(DomainError):
            bias.L_one_chi(d)


def test_L_one_chi_matches_digamma_sum():
    """The half-period cot sum against -1/P sum_r chi(r) psi(r/P) over the full
    period at 30 digits, chi = kronecker(4d, .) and P = 4|d|."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    worst = 0.0
    for d in list(range(-399, -2)) + [-1003, -4003, -10007]:
        P = 4 * abs(d)
        terms = []
        for r in range(1, P):
            c = kronecker(4 * d, r)
            if c:
                terms.append(c * mpmath.digamma(mpmath.mpf(r) / P))
        want = -mpmath.fsum(terms) / P
        worst = max(worst, float(abs(bias.L_one_chi(d) - want) / want))
    assert worst <= 1e-15


def test_import_path_loads_no_scipy():
    """A fresh interpreter imports the package, the CLI and every layer it runs
    without scipy."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import disclab, disclab.cli, disclab.harness, disclab.bias, disclab.sequences\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_quadform_prediction():
    v = bias.predict_example("quadform", 1, 100.0, form=X2Y2)
    assert v.leading_value == pytest.approx(-1.0, abs=1e-9)
    assert v.logM_exponent == 0 and v.conditional_on is None
    v5 = bias.predict_example("quadform", 5, 100.0, form=X2Y2)
    assert v5.leading_value == pytest.approx(-2.0, abs=1e-9)
    v3 = bias.predict_example("quadform", 3, 100.0, form=X2Y2)
    assert v3.leading_value == 0.0 and v3.zero
    w = bias.predict_example("quadform", 1, 100.0, form=BinaryQuadraticForm(1, 0, 5))
    assert w.leading_value == pytest.approx(-0.5, abs=1e-9)
    assert bias.predict_example("quadform", 3, 100.0, form=BinaryQuadraticForm(1, 0, 5)).zero
    with pytest.raises(DomainError):
        bias.predict_example("quadform", 2, 100.0, form=X2Y2)
    with pytest.raises(DomainError):
        bias.predict_example("quadform", 1, 100.0)


def test_two_squares_prediction():
    M, x = 100.0, 1e7
    v = bias.predict_example("two_squares", 5, M, x)
    want = -math.sqrt(math.log(M) / math.log(x)) / (2 * math.pi)
    assert v.leading_value == pytest.approx(want, rel=1e-12)
    assert v.logM_exponent == Fraction(1, 2)
    v9 = bias.predict_example("two_squares", 9, M, x)
    assert v9.leading_value == v.leading_value  # 9 = 3^2 is a sum of two squares
    v21 = bias.predict_example("two_squares", 21, M, x)
    assert v21.leading_value == 0.0 and v21.zero
    assert v21.logM_exponent == Fraction(-3, 2)
    vm3 = bias.predict_example("two_squares", -3, M, x)  # -3 = 1 mod 4, |a| = 3
    assert vm3.zero
    with pytest.raises(DomainError):
        bias.predict_example("two_squares", 3, M, x)
    with pytest.raises(DomainError):
        bias.predict_example("two_squares", -1, M, x)
    with pytest.raises(DomainError):
        bias.predict_example("two_squares", 5, M)


def test_twin_prediction_table():
    M = 100.0
    v = bias.predict_example("twin", -1, M)
    assert v.leading_value == pytest.approx(-math.log(M) ** 2 / 4)
    assert v.logM_exponent == 2 and v.conditional_on == "Hardy-Littlewood"
    for a in (1, -3):
        v = bias.predict_example("twin", a, M)
        assert v.leading_value == pytest.approx(-math.log(3) / 4 * math.log(M))
    for a in (2, -4):
        v = bias.predict_example("twin", a, M)
        assert v.leading_value == pytest.approx(-math.log(2) / 2 * math.log(M))
    v3 = bias.predict_example("twin", 3, M)
    assert v3.leading_value == pytest.approx(
        -0.5 * (math.log(3) / 2) * (3 * math.log(5) / 4)
    )
    assert v3.logM_exponent == 0
    v13 = bias.predict_example("twin", 13, M)  # omega(3*5*13) = 3 > k
    assert v13.zero
    # P(a) = P(-a-2), so mirrored shifts predict the same bits
    for a in range(1, 10):
        assert bias.predict_example("twin", a, M) == bias.predict_example("twin", -a - 2, M)
    for a in (0, -2):
        with pytest.raises(DomainError):
            bias.predict_example("twin", a, M)


def test_ktuple_prediction_general():
    triple = ktuples.KTuple(((1, 0), (1, 2), (1, 6)))
    v = bias.predict_example("ktuple", -1, 100.0, tuple=triple)
    # P = (-1)(1)(5) keeps omega below k, leaving one log M power per slot
    assert v.logM_exponent == 2
    nu5 = ktuples.nu_H(triple, 5)
    want = (
        -1
        / (2 * math.factorial(2))
        * (5 - nu5)
        / 4
        * math.log(5)
        * math.log(100.0) ** 2
    )
    assert v.leading_value == pytest.approx(want)
    with pytest.raises(DomainError):
        bias.predict_example("ktuple", 1, 100.0)
    with pytest.raises(DomainError):
        bias.predict_example(
            "ktuple", 1, 100.0, tuple=ktuples.KTuple(((1, 0), (1, 2), (1, 4)))
        )


def test_primes_prediction_normalizer():
    M = 1000.0
    v = bias.predict_example("primes", 1, M)
    assert v.leading_value == -0.5 * math.log(M)
    assert bias.mu_k(PRIMES, 1, M).leading_value == v.leading_value
    for a in (9, -49, 2):
        p = abs(a) if abs(a) in (2,) else {9: 3, -49: 7}.get(a)
        v = bias.predict_example("primes", a, M)
        assert v.leading_value == pytest.approx(-0.5 * math.log(p))
        mu = bias.mu_k(PRIMES, a, M)
        # displayed constant carries a phi(a)/a renormalization, absorbing (1 - 1/p)
        assert v.leading_value == pytest.approx(mu.leading_value / (1 - 1 / p))
    assert bias.predict_example("primes", 30, M).zero


def test_primes_secondary_term():
    for a in (1, -1):
        v = bias.predict_example("primes", a, 1000.0)
        assert v.secondary == -bias.C5
    for a in (9, 30):
        assert bias.predict_example("primes", a, 1000.0).secondary is None
    assert bias.mu_k(PRIMES, 1, 1000.0).secondary is None
    M, R = 100.0, 1e4
    expected = -0.5 * math.log(M) - bias.C5 + (M / R) * (0.5 * math.log(R) + bias.C5)
    assert bias.predict_s5("primes", -1, M, R) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(UnsupportedError):
        bias.predict_s5("primes", 7, M, R)
    with pytest.raises(UnsupportedError):
        bias.predict_s5("rough", 1, M, R)
    with pytest.raises(DomainError):
        bias.predict_s5("primes", 1, M, 50.0)


def test_c5_matches_prime_sum():
    """C5 = 1/2 (log 2 pi + 1 + gamma + sum_p log p / (p (p - 1))).  The sum
    over p > P is below (log P + 1)/(P - 1), so the head up to P brackets it."""
    P = 10**6
    head = math.fsum(math.log(p) / (p * (p - 1)) for p in iter_primes(P))
    lo = 0.5 * (math.log(2 * math.pi) + 1 + np.euler_gamma + head)
    hi = lo + 0.5 * (math.log(P) + 1) / (P - 1)
    assert lo <= bias.C5 <= hi


def test_rough_prediction_small_regime():
    M = 1e6
    for a in (1, -1):
        v = bias.predict_example("rough", a, M, 1e9, y=5)
        assert v.leading_value == -0.5 and v.logM_exponent == 0
    v = bias.predict_example("rough", 7, M, 1e9, y=5)
    assert v.zero


def test_rough_prediction_large_regime():
    y, x, M = 50, 10**6, 10.0
    dens = sq.count_A(sq.sieve(sq.Rough(y), 1, x)) / x
    v = bias.predict_example("rough", 1, M, x, y=y)
    assert v.leading_value == pytest.approx(dens * math.log(M), rel=1e-12)
    assert v.leading_value > 0  # sign flips for very rough sequences
    v49 = bias.predict_example("rough", 49, M, x, y=y)
    assert v49.leading_value == pytest.approx(dens * math.log(7), rel=1e-12)
    assert bias.predict_example("rough", 6, M, x, y=y).zero


def test_rough_prediction_intermediate_refused():
    with pytest.raises(UnsupportedError):
        bias.predict_example("rough", 1, 10.0, 1e12, y=30)


def test_predict_validation():
    with pytest.raises(DomainError):
        bias.predict_example("no-such-family", 1, 100.0)
    with pytest.raises(DomainError):
        bias.predict_example("primes", 0, 100.0)
    for M in (1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            bias.predict_example("primes", 1, M)
    with pytest.raises(DomainError):
        bias.predict_example("rough", 1, 100.0, 1e6)