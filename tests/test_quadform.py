import math

import numpy as np
import pytest

from disclab.errors import DomainError, UnsupportedError
from disclab import quadform as qf

X2Y2 = qf.BinaryQuadraticForm(1, 0, 1)
X2XYY2 = qf.BinaryQuadraticForm(1, 1, 1)
X2XY3Y2 = qf.BinaryQuadraticForm(1, 1, 3)
TWOX2XY3Y2 = qf.BinaryQuadraticForm(2, 1, 3)
# p | alpha and p | gamma at p = 3 exercises the substitution case
CASE3 = qf.BinaryQuadraticForm(3, 1, 3)

ALL_FORMS = [X2Y2, X2XYY2, X2XY3Y2, TWOX2XY3Y2, CASE3]


def test_discriminants():
    assert X2Y2.disc == -4
    assert X2XYY2.disc == -3
    assert X2XY3Y2.disc == -11
    assert TWOX2XY3Y2.disc == -23
    assert all(f.disc % 16 in {1, 5, 9, 12, 13} for f in ALL_FORMS)


def test_form_validation():
    with pytest.raises(DomainError):
        qf.BinaryQuadraticForm(1, 5, 1)  # disc > 0
    with pytest.raises(DomainError):
        qf.BinaryQuadraticForm(-1, 0, -1)


def test_brute_small_example():
    # x^2 + y^2 = 1 (mod 5) over 1..5 squared: (1,5),(2,1),(3,4),(4,2),(5,...)
    assert qf.Ra_brute(X2Y2, 1, 5) == 4
    assert qf.Ra_brute(X2Y2, 3, 3) == 1


def test_mass_identity_brute():
    for form in ALL_FORMS:
        for q in [1, 2, 3, 4, 8, 12, 30, 49, 97]:
            assert int(qf.Ra_brute_all(form, q).sum()) == q * q


def test_closed_equals_brute_sweep():
    for form in ALL_FORMS:
        two_d = 2 * abs(form.disc)
        for q in range(1, 61):
            hist = qf.Ra_brute_all(form, q)
            for a in range(-12, 13):
                if a == 0 or math.gcd(a, two_d) != 1:
                    continue
                assert qf.Ra_closed(form, a, q) == int(hist[a % q]), (form, a, q)


def test_closed_2adic_values():
    # for x^2 + y^2: R_a(2) = 2, and R_a(2^e) = 2^(e+1) or 0 by a mod 4
    assert qf.Ra_closed_pp(X2Y2, 1, 2, 1) == 2
    for e in range(2, 6):
        assert qf.Ra_closed_pp(X2Y2, 1, 2, e) == 2 ** (e + 1)
        assert qf.Ra_closed_pp(X2Y2, 3, 2, e) == 0
        assert qf.Ra_closed_pp(X2Y2, -3, 2, e) == 2 ** (e + 1)  # -3 = 1 (mod 4)


def test_closed_refusals():
    with pytest.raises(DomainError):
        qf.Ra_closed(X2Y2, 2, 4)  # gcd(a, 2d) > 1
    with pytest.raises(DomainError):
        qf.Ra_closed(X2XY3Y2, 11, 11)
    xxyy2 = qf.BinaryQuadraticForm(1, 0, 2)  # disc -8: no 2-adic rule
    assert qf.Ra_closed(xxyy2, 1, 9) == int(qf.Ra_brute_all(xxyy2, 9)[1])
    with pytest.raises(UnsupportedError):
        qf.Ra_closed(xxyy2, 1, 2)
    imprimitive = qf.BinaryQuadraticForm(2, 0, 2)
    with pytest.raises(UnsupportedError):
        qf.Ra_closed(imprimitive, 1, 3)


def test_hensel_stability():
    # for p coprime to 2*disc*a the normalized count is constant in e
    for form in ALL_FORMS:
        for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
            if (2 * form.disc) % p == 0:
                continue
            a = 1
            base = qf.Ra_closed_pp(form, a, p, 1) / p
            for e in range(2, 5):
                assert qf.Ra_closed_pp(form, a, p, e) / p**e == base


def test_rho_example():
    # rho_1(16) for x^2+y^2 equals 2
    assert qf.rho_a(X2Y2, 1, 16) == 2


def test_r_d_product_vs_divisor_sum():
    for d in [-4, -3, -11, -23]:
        for n in range(1, 200):
            if math.gcd(n, 2 * abs(d)) != 1:
                continue
            assert qf.r_d(d, n) == qf.r_d_divisor_sum(d, n), (d, n)


def test_r_d_zero_cases():
    # 21 = 3 * 7, both inert for d = -4, odd exponents
    assert qf.r_d(-4, 21) == 0
    assert qf.r_d(-4, 9) == 1
    assert qf.r_d(-4, 5) == 2
    assert qf.r_d(-4, 25) == 3


def test_gauss_sum_identities():
    # g(1;q)^2 = (-1|q) q for odd q, and g(m;q) = (m|q) g(1;q) for gcd(m,q)=1
    from disclab.factorint import kronecker

    assert abs(qf.gauss_sum(1, 3) ** 2 - (-3)) < 1e-9
    for q in range(3, 60, 2):
        g1 = qf.gauss_sum(1, q)
        assert abs(g1 * g1 - kronecker(-1, q) * q) < 1e-9
        for m in range(1, q):
            if math.gcd(m, q) == 1:
                assert abs(qf.gauss_sum(m, q) - kronecker(m, q) * g1) < 1e-9


def test_ramanujan_closed_vs_direct():
    assert qf.ramanujan_closed(4, 2) == -2
    for q in range(1, 80):
        for a in range(-10, 11):
            assert qf.ramanujan_closed(q, a) == qf.ramanujan_direct(q, a), (q, a)


def test_ramanujan_at_zero_is_phi():
    from disclab.factorint import phi

    for q in range(1, 60):
        assert qf.ramanujan_closed(q, 0) == phi(q)