import math
from fractions import Fraction

import pytest

from disclab.errors import ModelError
from disclab import multfn as mf
from disclab import quadform as qf
from disclab.factorint import build_tables, divisors, factor, phi

X2Y2 = qf.BinaryQuadraticForm(1, 0, 1)


@pytest.fixture(scope="module")
def tables():
    return build_tables(10**4)


@pytest.fixture(scope="module")
def models():
    return {
        "primes": mf.primes_model(),
        "two_squares": mf.two_squares_model(),
        "rough7": mf.rough_model(7),
        "quadform": mf.quadform_model(X2Y2),
    }


def test_primes_model_g_values(models):
    m = models["primes"]
    # 1/phi(q) on coprime classes
    assert mf.g_a(m, 1, 10) == Fraction(1, 4)
    assert mf.g_a(m, 3, 10) == Fraction(1, 4)
    # vanishes when the class shares a factor with the modulus
    assert mf.g_a(m, 12, 8) == 0
    assert mf.g_a(m, 5, 10) == 0


def test_primes_gamma_is_phi_over_q(models):
    m = models["primes"]
    for q in range(2, 200):
        assert mf.gamma_q(m, q) == Fraction(phi(q), q)


def test_quadform_gamma_example(models):
    m = models["quadform"]
    # chi(5) = 1 for disc -4, so gamma(5) = (1 - 1/5)^(-1) reciprocal structure
    assert m.h_pp(5, 1) == Fraction(9, 5)
    assert mf.gamma_q(m, 5) == Fraction(5, 4)
    assert mf.gamma_q(m, 3) == Fraction(3, 4)  # chi(3) = -1
    assert mf.gamma_q(m, 2) == 1  # bad-prime override


def test_two_squares_g_odd_prime_cases(models):
    m = models["two_squares"]
    # a = 21 = 3 * 7; at p = 3 (f = 1, odd) classes above 3^1 die
    assert mf.g_local(m, 3, 2, 21) == 0
    # divisibility by 3 forces divisibility by 9, so the 0-class density is 1/9
    assert mf.g_local(m, 3, 1, 21) == Fraction(1, 9)
    # p = 5 (1 mod 4) splits: every class mod 5^e gets exactly 1/5^e
    assert mf.g_local(m, 5, 1, 1) == Fraction(1, 5)
    assert mf.g_local(m, 5, 2, 1) == Fraction(1, 25)
    assert mf.g_local(m, 5, 1, 5) == Fraction(1, 5)


def test_two_squares_2adic_table(models):
    m = models["two_squares"]
    assert mf.g_local(m, 2, 1, 1) == Fraction(1, 2)
    assert mf.g_local(m, 2, 2, 1) == Fraction(1, 2)
    assert mf.g_local(m, 2, 3, 1) == Fraction(1, 4)
    assert mf.g_local(m, 2, 2, 3) == 0
    assert mf.g_local(m, 2, 3, -3) == Fraction(1, 4)  # -3 = 1 (mod 4)
    assert mf.g_local(m, 2, 1, 2) == Fraction(1, 2)
    assert mf.g_local(m, 2, 2, 2) == Fraction(1, 4)
    assert mf.g_local(m, 2, 3, 6) == 0  # 6 = 2 * 3 with 3 = 3 (mod 4)
    assert mf.g_local(m, 2, 3, 10) == Fraction(1, 4)  # 10 = 2 * 5


def test_two_squares_2adic_matches_sieve_density():
    """The 2-adic table must reproduce the true class densities."""
    m = mf.two_squares_model()
    x = 3 * 10**5
    sq = bytearray(x + 1)
    i = 0
    while i * i <= x:
        j = 0
        while i * i + j * j <= x:
            sq[i * i + j * j] = 1
            j += 1
        i += 1
    total = sum(sq[1:])  # n = 0 excluded
    for e in [1, 2, 3]:
        q = 2**e
        for a in range(1, q + 1):
            count = sum(sq[a::q]) if a <= x else 0
            dens = count / total
            model = float(mf.g_local(m, 2, e, a))
            assert abs(dens - model) < 0.02, (q, a, dens, model)


def test_rough_model_values(models):
    m = models["rough7"]
    assert mf.g_a(m, 1, 4) == Fraction(1, 2)  # 1/phi(4), since 2 < 7
    assert mf.g_a(m, 2, 4) == 0  # class forces 2 | n
    assert mf.g_a(m, 1, 7) == Fraction(1, 7)  # 7-rough numbers can be 0 mod 7
    assert mf.g_a(m, 7, 7) == Fraction(1, 7)
    assert mf.gamma_q(m, 6) == Fraction(1, 3)
    assert mf.gamma_q(m, 7) == 1


def test_multiplicativity(models):
    for name, m in models.items():
        for q1 in range(2, 40):
            for q2 in range(2, 40):
                if math.gcd(q1, q2) != 1:
                    continue
                for a in [1, 3, 7, -5]:
                    if name == "quadform" and math.gcd(a, 8) != 1:
                        continue
                    assert mf.g_a(m, a, q1 * q2) == mf.g_a(m, a, q1) * mf.g_a(m, a, q2)


def test_f_a_is_one_on_coprime_good_classes(models):
    for name, m in models.items():
        for q in range(1, 150):
            if any(q % p == 0 for p in m.bad_primes):
                continue
            for a in [1, -1, 11, 13]:
                if math.gcd(a, q) != 1:
                    continue
                assert mf.f_a(m, a, q) == 1, (name, a, q)


def test_f_a_equals_g_q_gamma(models, tables):
    for name, m in models.items():
        for q in range(1, 120):
            for a in [1, 5, 9, -7]:
                if name == "quadform" and math.gcd(a, 8) != 1:
                    continue
                qfi = factor(q, tables)
                assert mf.f_a(m, a, qfi) == mf.g_a(m, a, qfi) * q * mf.gamma_q(m, qfi)


def normalization_sum(model, q, tables):
    return sum(
        phi(factor(q // d, tables)) * mf.g_a(model, d, factor(q, tables)) for d in divisors(q)
    )


def test_normalization_identity_small(models, tables):
    """sum over d | q of phi(q/d) g_d(q) = 1 for q coprime to the bad primes."""
    for name, m in models.items():
        for q in range(1, 500):
            if any(q % p == 0 for p in m.bad_primes):
                continue
            assert normalization_sum(m, q, tables) == 1, (name, q)


def test_two_squares_full_partition_at_2():
    """At the bad prime the partition runs over all residues, not gcd classes."""
    m = mf.two_squares_model()
    for e in range(1, 7):
        q = 2**e
        assert sum(mf.g_local(m, 2, e, a) for a in range(1, q + 1)) == 1


def test_omega_h_examples(models):
    # primes model: every prime power divisor satisfies the memory condition
    m = models["primes"]
    assert mf.omega_h(m, 1) == 0
    assert mf.omega_h(m, 9) == 1
    assert mf.omega_h(m, 12) == 2
    # quad-form model with chi(5)=1: 5^f never satisfies it
    q = models["quadform"]
    assert mf.omega_h(q, 5) == 0
    assert mf.omega_h(q, 9) == 0  # chi(3) = -1, f = 2 even
    assert mf.omega_h(q, 3) == 1  # chi(3) = -1, f = 1 odd
    # rough model: only primes below y count
    r = models["rough7"]
    assert mf.omega_h(r, 6) == 2
    assert mf.omega_h(r, 11) == 0
    assert mf.omega_h(r, 22) == 1


def test_h_of_two_squares(models):
    m = models["two_squares"]
    assert m.h_of(3) == Fraction(1, 3)
    assert m.h_of(9) == 1
    assert m.h_of(21) == Fraction(1, 21)
    assert m.h_of(2) == 1
    assert m.h_of(10) == 1


def test_model_violation_detected():
    bad = mf.SequenceModel(
        h=mf.PrimePowerFn(
            eval=lambda p, e: Fraction(p), average_k=Fraction(1), bad_primes=frozenset(), label="bad"
        ),
        label="bad",
    )
    with pytest.raises(ModelError):
        mf.gamma_q(bad, 6)