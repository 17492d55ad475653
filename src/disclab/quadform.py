"""Solution counting for binary quadratic forms modulo q, plus related sums.

R_a(q) counts pairs 1 <= x, y <= q with Q(x,y) = a (mod q).  The closed form
is assembled prime power by prime power; whenever a case falls outside the
proven tables we refuse rather than guess.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, OutOfRangeError, UnsupportedError, require_integers
from .factorint import factors_of, kronecker

BRUTE_CAP = 5000

# discriminant classes (mod 16) with a proven rule at p = 2
_SUPPORTED_D_MOD16 = {1, 5, 9, 12, 13}


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """Q(x, y) = alpha*x^2 + beta*x*y + gamma*y^2, positive definite."""

    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        require_integers(alpha=self.alpha, beta=self.beta, gamma=self.gamma)
        if self.disc >= 0:
            raise DomainError(f"form {self} is not definite (disc {self.disc} >= 0)")
        if self.alpha <= 0:
            raise DomainError(f"form {self} is not positive definite")

    @property
    def disc(self) -> int:
        return self.beta * self.beta - 4 * self.alpha * self.gamma

    @property
    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.alpha, self.beta), self.gamma) == 1

    def value(self, x: int, y: int) -> int:
        return self.alpha * x * x + self.beta * x * y + self.gamma * y * y

    def chi(self, n: int) -> int:
        """The Kronecker symbol (4*disc | n) attached to the form."""
        return kronecker(4 * self.disc, n)

    def label(self) -> str:
        return f"{self.alpha},{self.beta},{self.gamma}"


def parse_form(text: str) -> BinaryQuadraticForm:
    try:
        alpha, beta, gamma = map(int, text.split(","))
    except ValueError:  # not three parts, or a part that is not an integer
        raise DomainError(f"form must be 'alpha,beta,gamma' in integers, got {text!r}") from None
    return BinaryQuadraticForm(alpha, beta, gamma)


@functools.lru_cache(maxsize=256)
def _residue_histogram(form: BinaryQuadraticForm, q: int) -> np.ndarray:
    """Counts of Q(x,y) mod q over the full grid 1 <= x, y <= q."""
    ys = np.arange(1, q + 1, dtype=np.int64)
    gy2 = (form.gamma * ys * ys) % q
    hist = np.zeros(q, dtype=np.int64)
    for x in range(1, q + 1):
        vals = (form.alpha * x * x + form.beta * x * ys + gy2) % q
        hist += np.bincount(vals, minlength=q)
    return hist


def Ra_brute(form: BinaryQuadraticForm, a: int, q: int) -> int:
    """Exact count of Q(x,y) = a (mod q) on 1..q squared, by enumeration."""
    if not (1 <= q <= BRUTE_CAP):
        raise OutOfRangeError(f"brute force capped at q <= {BRUTE_CAP}, got {q}")
    return int(_residue_histogram(form, q)[a % q])


def Ra_brute_all(form: BinaryQuadraticForm, q: int) -> np.ndarray:
    """R_a(q) for every residue a mod q at once (index = a mod q)."""
    if not (1 <= q <= BRUTE_CAP):
        raise OutOfRangeError(f"brute force capped at q <= {BRUTE_CAP}, got {q}")
    return _residue_histogram(form, q).copy()


def _vp(n: int, p: int) -> int:
    n = abs(n)
    e = 0
    while n % p == 0 and n > 0:
        n //= p
        e += 1
    return e


def _fa_good_prime(chi: int, e: int, f: int, p: int) -> Fraction:
    """Local factor at p not dividing 2*disc; f = v_p(a)."""
    if f == 0:
        return Fraction(1)
    if chi == 1:
        if e <= f:
            return Fraction(e + 1) + Fraction(1, p - 1)
        return Fraction(f + 1)
    # chi == -1
    if e <= f:
        return Fraction(1, p + 1) if e % 2 == 1 else Fraction(p, p + 1)
    return Fraction(0) if f % 2 == 1 else Fraction(1)


def Ra_closed_pp(form: BinaryQuadraticForm, a: int, p: int, e: int) -> int:
    """R_a(p^e) in closed form.  Raises UnsupportedError outside proven cases."""
    if e == 0:
        return 1
    if not form.is_primitive:
        raise UnsupportedError(f"closed form needs a primitive form, got {form}")
    d = form.disc
    if p == 2:
        if d % 16 not in _SUPPORTED_D_MOD16:
            raise UnsupportedError(f"no rule at p=2 for disc {d} (mod 16 = {d % 16})")
        if a % 2 == 0:
            raise DomainError(f"a={a} shares the prime 2 with 2*disc")
        if form.beta % 2 == 0:
            if e == 1:
                return 2
            if form.alpha % 2 == 1:
                s = kronecker(-4, form.alpha * a)
            else:
                s = kronecker(-4, form.gamma * a)
            return (1 + s) * 2**e
        # beta odd: disc odd
        if (form.alpha * form.gamma) % 2 == 0:
            return 2 ** (e - 1)
        return 3 * 2 ** (e - 1)
    if d % p == 0:
        # odd prime dividing the discriminant
        if a % p == 0:
            raise DomainError(f"a={a} shares the prime {p} with 2*disc")
        if form.alpha % p != 0:
            s = kronecker(form.alpha * a, p)
        elif form.gamma % p != 0:
            s = kronecker(form.gamma * a, p)
        else:
            # p | alpha, p | gamma forces p | disc - beta^2, impossible here
            raise UnsupportedError(f"degenerate form {form} at p={p}")
        return (1 + s) * p**e
    # p odd, coprime to 2*disc
    chi = form.chi(p)
    f = _vp(a, p)
    val = _fa_good_prime(chi, e, f, p) * (p**e) * (1 - Fraction(chi, p))
    assert val.denominator == 1, (form, a, p, e, val)
    return int(val)


def Ra_closed(form: BinaryQuadraticForm, a: int, q: int) -> int:
    """R_a(q) assembled multiplicatively from prime-power closed forms."""
    if q < 1:
        raise OutOfRangeError(f"modulus must be positive, got {q}")
    if a == 0:
        raise DomainError("a must be a nonzero integer")
    out = 1
    for p, e in factors_of(q):
        out *= Ra_closed_pp(form, a, p, e)
    return out


def rho_a(form: BinaryQuadraticForm, a: int, q: int) -> Fraction:
    """Local density rho_a(q) = R_a(q)/q."""
    return Fraction(Ra_closed(form, a, q), q)


def r_d(d: int, n: int) -> int:
    """Multiplicative divisor-type count sum_{m | n} (4d | m) for gcd(n, 2d) = 1."""
    if n == 0:
        raise DomainError("n must be nonzero")
    n = abs(n)
    if math.gcd(n, 2 * abs(d)) != 1:
        raise DomainError(f"r_d needs gcd(n, 2d) = 1, got n={n}, d={d}")
    out = 1
    for p, e in factors_of(n):
        chi = kronecker(4 * d, p)
        if chi == 1:
            out *= e + 1
        elif chi == -1 and e % 2 == 1:
            return 0
    return out


def r_d_divisor_sum(d: int, n: int) -> int:
    """Oracle for r_d by literal divisor enumeration."""
    n = abs(n)
    if math.gcd(n, 2 * abs(d)) != 1:
        raise DomainError(f"r_d needs gcd(n, 2d) = 1, got n={n}, d={d}")
    total = 0
    for m in range(1, n + 1):
        if n % m == 0:
            total += kronecker(4 * d, m)
    return total


def gauss_sum(m: int, q: int) -> complex:
    """Quadratic Gauss sum sum_{n=1..q} e(m n^2 / q), computed directly."""
    if q < 1:
        raise OutOfRangeError(f"modulus must be positive, got {q}")
    n = np.arange(1, q + 1, dtype=np.int64)
    red = (m * n * n) % q
    return complex(np.exp(2j * np.pi * red / q).sum())


def ramanujan_closed(q: int, a: int) -> int:
    """Ramanujan sum c_q(a), the product over p^e || q of phi(p^e) if p^e | a,
    -p^(e-1) if only p^(e-1) | a, and 0 otherwise."""
    if q < 1:
        raise OutOfRangeError(f"modulus must be positive, got {q}")
    val = 1
    for p, e in factors_of(q):
        below = p ** (e - 1)
        if a % (below * p) == 0:
            val *= below * (p - 1)
        elif a % below == 0:
            val *= -below
        else:
            return 0
    return val


def ramanujan_direct(q: int, a: int) -> int:
    """c_q(a) by direct summation over units mod q, rounded from the real part."""
    if q < 1:
        raise OutOfRangeError(f"modulus must be positive, got {q}")
    m = np.arange(1, q + 1, dtype=np.int64)
    units = np.gcd(m, q) == 1
    red = (m[units] * a) % q
    total = np.exp(2j * np.pi * red / q).sum()
    val = float(total.real)
    rounded = round(val)
    if abs(val - rounded) > 1e-6 or abs(float(total.imag)) > 1e-6:
        raise ArithmeticError(f"direct Ramanujan sum not near an integer: {total}")
    return int(rounded)
