from fractions import Fraction

import pytest

from disclab.errors import ConfigurationError, DomainError, OutOfRangeError
from disclab import ktuples as kt
from disclab.factorint import iter_primes

TRIPLE = kt.KTuple(((1, 0), (1, 2), (1, 6)))
SKEW = kt.KTuple(((2, 1), (4, 1)))

TWIN_CONSTANT = 1.3203236316937392  # 2 * prod_{p>2} (1 - 1/(p-1)^2)


def test_nu_twin_values():
    assert kt.nu_H(kt.TWIN, 2) == 1
    for p in iter_primes(97):
        if p > 2:
            assert kt.nu_H(kt.TWIN, p) == 2


def test_nu_single_form():
    h = kt.KTuple(((1, 0),))
    for p in iter_primes(50):
        assert kt.nu_H(h, p) == 1


def test_nu_cross_check_brute():
    for h in [kt.TWIN, TRIPLE, SKEW, kt.KTuple(((1, 0), (2, 3)))]:
        for p in iter_primes(97):
            assert kt.nu_H(h, p) == kt.nu_H_brute(h, p), (h.label(), p)


def test_nu_degenerate_form_mod_p():
    # form 3n+3 vanishes identically mod 3
    h = kt.KTuple(((3, 3), (1, 1)))
    assert kt.nu_H(h, 3) == 3
    assert kt.nu_H_brute(h, 3) == 3


def test_P_of():
    for a in range(-10, 11):
        assert kt.P_of(a, kt.TWIN) == a * (a + 2)
    assert kt.P_of(1, kt.TWIN) == 3
    assert kt.P_of(-1, kt.TWIN) == -1
    assert kt.P_of(2, TRIPLE) == 2 * 4 * 8


def test_is_admissible():
    assert kt.is_admissible(kt.TWIN)
    assert not kt.is_admissible(kt.KTuple(((1, 0), (1, 1))))
    assert kt.is_admissible(kt.KTuple(((2, 1),)))
    assert kt.is_admissible(TRIPLE)
    assert not kt.is_admissible(kt.KTuple(((1, 0), (1, 2), (1, 4))))  # nu(3)=3
    assert not kt.is_admissible(kt.KTuple(((2, 2), (1, 1))))  # gcd(2,2)=2
    assert kt.is_admissible(SKEW)


def test_ktuple_validation():
    with pytest.raises(DomainError):
        kt.KTuple(())
    with pytest.raises(DomainError):
        kt.KTuple(((0, 1),))
    with pytest.raises(DomainError):
        kt.KTuple(((1, 2), (1, 2)))


def test_parse_tuple():
    assert kt.parse_tuple("1,0;1,2") == kt.TWIN
    assert kt.parse_tuple("2,1") == kt.KTuple(((2, 1),))
    with pytest.raises(DomainError):
        kt.parse_tuple("1;2")


def test_singular_series_single_form_is_one():
    v, tail = kt.singular_series(kt.KTuple(((1, 0),)), 1000)
    assert v == 1.0
    assert tail >= 0


def test_singular_series_twin_constant():
    v, tail = kt.singular_series(kt.TWIN, 10**5)
    assert abs(v - TWIN_CONSTANT) < 1e-5
    assert abs(v - TWIN_CONSTANT) < tail


def test_singular_series_tail_honesty():
    for h in [kt.TWIN, TRIPLE]:
        v1, t1 = kt.singular_series(h, 10**5)
        v2, _ = kt.singular_series(h, 2 * 10**5)
        assert abs(v2 - v1) < t1, h.label()


def test_singular_series_errors():
    with pytest.raises(DomainError):
        kt.singular_series(kt.KTuple(((1, 0), (1, 1))), 1000)
    with pytest.raises(ConfigurationError):
        kt.singular_series(kt.TWIN, 50)


def test_modified_tuple_twin_example():
    h = kt.modified_tuple(kt.TWIN, 5, 1)
    assert h.forms == ((5, 1), (5, 3))
    assert kt.nu_H(h, 5) == 0
    assert kt.is_admissible(h)


def test_modified_tuple_shift_only():
    h = kt.modified_tuple(kt.TWIN, 1, 7)
    assert h.forms == ((1, 7), (1, 9))
    for p in iter_primes(50):
        assert kt.nu_H(h, p) == kt.nu_H(kt.TWIN, p)


def test_modified_tuple_precondition():
    with pytest.raises(DomainError):
        kt.modified_tuple(kt.TWIN, 3, 1)  # gcd(3, 1+2) = 3
    with pytest.raises(DomainError):
        kt.modified_tuple(kt.TWIN, 4, 2)  # gcd(4, 2) = 2


def test_modified_nu_identity_grid():
    """nu is preserved away from q and the leading coefficients, killed at p | q."""
    primes = iter_primes(23)
    for h in [kt.TWIN, TRIPLE]:
        for q in range(1, 13):
            for a in range(-6, 7):
                try:
                    ht = kt.modified_tuple(h, q, a)
                except DomainError:
                    continue
                for p in primes:
                    if q % p == 0:
                        assert kt.nu_H(ht, p) == 0, (h.label(), q, a, p)
                    else:
                        assert kt.nu_H(ht, p) == kt.nu_H(h, p), (h.label(), q, a, p)


def test_singular_series_ratio_under_modification():
    """Removing the local factors at p | q rescales the constant by
    prod_{p|q} (1 - nu(p)/p)^(-1)."""
    cases = [(5, 1, Fraction(5, 3)), (3, 2, Fraction(3, 1)), (7, 3, Fraction(7, 5))]
    v, t = kt.singular_series(kt.TWIN, 10**5)
    for q, a, expected in cases:
        ht = kt.modified_tuple(kt.TWIN, q, a)
        vt, tt = kt.singular_series(ht, 10**5)
        assert abs(vt / v - float(expected)) < (t + tt + 1e-9), (q, a)


def test_gamma_H():
    assert kt.gamma_H(kt.TWIN, 15) == Fraction(1, 5)
    assert kt.gamma_H(kt.TWIN, 2) == Fraction(1, 2)
    assert kt.gamma_H(kt.TWIN, 1) == 1
    assert kt.gamma_H(TRIPLE, 5) == Fraction(2, 5)


def test_moduli_below_one_are_refused():
    from disclab import quadform as qf

    form = qf.BinaryQuadraticForm(1, 0, 1)
    for call in (
        lambda: qf.Ra_closed(form, 1, 0),
        lambda: qf.ramanujan_closed(0, 1),
        lambda: kt.gamma_H(kt.TWIN, 0),
        lambda: kt.gamma_H(kt.TWIN, -6),
    ):
        with pytest.raises(OutOfRangeError):
            call()
