"""Property suites behind the verify subcommand.

Each property is a generator over an exhaustive grid of one exact identity or
oracle agreement; depth 1 is the quick grid and depth 2 the grid of the
acceptance checks, which call these same properties.  check runs one and
reports (cases, failures, seconds), with printable counterexamples.  Suites
group properties by module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import harness as hn
from . import ktuples as kt
from . import multfn as mf
from . import quadform as qf
from . import sequences as sq
from .errors import ConfigurationError, DomainError, UnsupportedError, require_integers
from .factorint import as_factored, divisors, iter_primes, kronecker, phi

_MAX_DUMP = 5


@dataclass
class PropertyResult:
    name: str
    cases: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # the first _MAX_DUMP counterexamples
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failed == 0


def check(prop, depth: int = 1) -> PropertyResult:
    """Run one property; prop(depth) yields (ok, counterexample_text) pairs."""
    t0 = time.perf_counter()
    res = PropertyResult(name=prop.__name__)
    for ok, text in prop(depth):
        res.cases += 1
        if not ok:
            res.failed += 1
            if len(res.failures) < _MAX_DUMP:
                res.failures.append(text)
    res.seconds = time.perf_counter() - t0
    return res


# ----------------------------------------------------------------------------
# quadform suite

_FORMS = [
    qf.BinaryQuadraticForm(1, 0, 1),
    qf.BinaryQuadraticForm(2, 1, 3),
    qf.BinaryQuadraticForm(1, 0, 5),
    qf.BinaryQuadraticForm(1, 1, 1),
]


def ra_closed_equals_brute(depth: int):
    q_max, a_max = (60, 20) if depth == 1 else (300, 50)
    for form in _FORMS:
        d = form.disc
        for q in range(1, q_max + 1):
            hist = qf.Ra_brute_all(form, q)
            for a in range(-a_max, a_max + 1):
                if math.gcd(a, 2 * d) != 1:
                    continue
                text = f"form={form.label()} a={a} q={q}"
                try:
                    closed = qf.Ra_closed(form, a, q)
                except UnsupportedError as exc:
                    yield False, f"{text}: closed form refused: {exc}"
                    continue
                brute = int(hist[a % q])
                yield closed == brute, f"{text}: closed={closed} brute={brute}"


def mass_identity(depth: int):
    for form in _FORMS[:2]:
        for q in range(1, (60 if depth == 1 else 200) + 1):
            total = int(qf.Ra_brute_all(form, q).sum())
            yield total == q * q, f"form={form.label()} q={q}: mass={total} != {q*q}"


def rd_product_vs_divisor_sum(depth: int):
    for d in (-4, -20):
        for n in range(1, 301):
            if math.gcd(n, 2 * d) != 1:
                continue
            lhs = qf.r_d(d, n)
            rhs = qf.r_d_divisor_sum(d, n)
            yield lhs == rhs, f"d={d} n={n}: multiplicative={lhs} divisor-sum={rhs}"


def gauss_sum_identities(depth: int):
    for q in range(1, 100, 2):
        g1 = qf.gauss_sum(1, q)
        ok = abs(g1 * g1 - kronecker(-1, q) * q) < 1e-9
        yield ok, f"q={q}: g(1;q)^2 = {g1*g1}, expected {kronecker(-1, q) * q}"
        for m in range(2, q):
            if math.gcd(m, q) == 1:
                lhs = qf.gauss_sum(m, q)
                rhs = kronecker(m, q) * g1
                yield abs(lhs - rhs) < 1e-9, f"q={q} m={m}: {lhs} vs {rhs}"


def ramanujan_closed_vs_direct(depth: int):
    q_max, a_max = (120, 30) if depth == 1 else (500, 500)
    for q in range(1, q_max + 1):
        direct = [qf.ramanujan_direct(q, r) for r in range(q)]
        for a in range(-a_max, a_max + 1):
            lhs = qf.ramanujan_closed(q, a)
            yield lhs == direct[a % q], f"q={q} a={a}: closed={lhs} direct={direct[a % q]}"


# ----------------------------------------------------------------------------
# multfn suite


def normalization_identity(depth: int):
    q_max = 600 if depth == 1 else 10**4
    fac = [None] + [as_factored(n) for n in range(1, q_max + 1)]
    models = [mf.primes_model(), mf.quadform_model(_FORMS[0]), mf.rough_model(10)]
    for m in models:
        for q in range(1, q_max + 1):
            if any(q % p == 0 for p in m.bad_primes):
                continue
            total = sum(phi(fac[q // d]) * mf.g_a(m, fac[d], fac[q]) for d in divisors(fac[q]))
            yield total == 1, f"model={m.label} q={q}: sum={total} != 1"


def f_unit_on_coprime_classes(depth: int):
    m = mf.primes_model()
    for q in range(1, 201):
        for a in (1, -1, 7, -13, 100):
            if math.gcd(a, q) != 1:
                continue
            val = mf.f_a(m, a, q)
            yield val == 1, f"a={a} q={q}: f={val} != 1"


def g_partition_of_unity(depth: int):
    for m in (mf.primes_model(), mf.two_squares_model(), mf.rough_model(10)):
        for q in range(1, 121):
            total = sum(mf.g_a(m, a if a else q, q) for a in range(q))
            yield total == 1, f"model={m.label} q={q}: partition mass={total}"


# ----------------------------------------------------------------------------
# ktuples suite

_TRIPLE = kt.KTuple(((1, 0), (1, 2), (1, 6)))
_QUAD = kt.KTuple(((1, 0), (1, 2), (1, 6), (1, 8)))


def nu_rootset_equals_brute(depth: int):
    for H in (kt.TWIN, _TRIPLE, _QUAD):
        for p in iter_primes(50):
            lhs, rhs = kt.nu_H(H, p), kt.nu_H_brute(H, p)
            yield lhs == rhs, f"H={H.label()} p={p}: root-set={lhs} brute={rhs}"
    for p in iter_primes(50):
        nu = kt.nu_H(kt.TWIN, p)
        want = 1 if p == 2 else 2
        yield nu == want, f"twin p={p}: nu={nu} expected {want}"


def modified_tuple_nu_identity(depth: int):
    primes = list(iter_primes(50))
    for H in (kt.TWIN, _TRIPLE):
        for q in range(1, 31):
            for a in range(-10, 11):
                try:
                    ht = kt.modified_tuple(H, q, a)
                except DomainError:
                    continue
                for p in primes:
                    got = kt.nu_H(ht, p)
                    want = 0 if q % p == 0 else kt.nu_H(H, p)
                    yield got == want, (
                        f"H={H.label()} q={q} a={a} p={p}: nu={got} expected {want}"
                    )


def singular_series_tail_honesty(depth: int):
    for H in (kt.TWIN, _TRIPLE):
        v1, t1 = kt.singular_series(H, 10**4)
        v2, t2 = kt.singular_series(H, 10**6)
        yield abs(v2 - v1) <= t1 and t2 < t1, (
            f"H={H.label()}: |{v2} - {v1}| = {abs(v2-v1)} against bound {t1}, "
            f"bound at 1e6 {t2}"
        )


# ----------------------------------------------------------------------------
# identities suite (cross-module exact checks)


def divisor_switch_check(
    kind: sq.Family, a: int, x: int, M: float, window: sq.SievedWindow | None = None
) -> tuple[float, float, bool]:
    """Both sides of the large-modulus count swap n = a + qr, over the window
    sq.window_over gives for [1, x]: window, if given, covers exactly [1, x].

    The direct side gathers A*(x;q,a), the terms n = a + kq with k >= 1,
    modulus by modulus over x/M < q <= x - a.  The switched side is the
    cofactor slices harness._slice_sums adds, which group the same terms by
    r, over three segments of [1, x] from harness._segments, the walk the
    production sums read, each segment's views joined before the next is
    drawn and refills the plane.
    Integer families sum in int64 over the narrow dense array; weighted
    families compare fsum against fsum of the identical multiset, so
    equality is still exact.
    """
    a, x = require_integers(a=a, x=x)  # a numpy integer runs as an int: x.bit_length() in _plane
    if a <= 0:
        raise DomainError(f"the identity is stated for a > 0, got a={a}")
    if not (math.isfinite(M) and M > 0):
        raise DomainError(f"M must be finite and positive, got M={M}")
    window = sq.window_over(kind, x, window)
    w = sq.dense_weights(window, x)
    G = int(x / M)
    q = np.arange(G + 1, x - a + 1, dtype=np.int64)
    K = (x - a) // q
    # k runs 1..K_q within each modulus's stretch of the gather
    k = np.arange(1, K.sum() + 1) - np.repeat(np.cumsum(K) - K, K)
    direct = w[a + np.repeat(q, K) * k]
    switched = [w[:0]]
    for p0, step, plane, points in hn._segments(window, x, a, x // 3 + 1):
        views = hn._cofactor_slices(plane, p0, step, a, G + 1, x, points)
        switched.append(np.concatenate([w[:0], *(v for _, _, v in views)]))
    d, s = sq._reduce(direct), sq._reduce(np.concatenate(switched))
    return float(d), float(s), d == s


def divisor_switch_grid(depth: int):
    xs = (10**4, 10**5) if depth == 1 else (10**4, 10**5, 10**6)
    for kind in (sq.PrimesLambda(), sq.SumTwoSquares(), sq.Rough(7)):
        for x in xs:
            win = sq.sieve(kind, 1, x)
            for a in (1, 3, 5):
                for M in (10.0, 50.0):
                    d, s, eq = divisor_switch_check(kind, a, x, M, window=win)
                    yield eq, f"{kind.label()} a={a} x={x} M={M}: {d} != {s}"


def count_scaling_identity(depth: int):
    grid = ((10**5, 30), (10**4, 20)) if depth == 1 else ((10**6, 100), (10**5, 50))
    for kind, (x, d_max) in zip((sq.SumTwoSquares(), sq.Rough(7)), grid):
        win = sq.sieve(kind, 1, x)
        for d in range(1, d_max + 1):
            ok, lhs, rhs = sq.check_Ad_identity(kind, x, d, window=win)
            yield ok, f"{kind.label()} x={x} d={d}: {lhs} != {rhs}"


def dyadic_telescoping(depth: int):
    x, M, J = 6400, 25.0, 4
    kind = sq.SumTwoSquares()
    win = sq.sieve(kind, 1, x)
    full = hn.empirical_average(
        hn.ExperimentConfig(kind=kind, a=3, x=x, M=M), window=win
    ).empirical_sum
    parts = [
        hn.empirical_average(
            hn.ExperimentConfig(kind=kind, a=3, x=x, M=M * 2**j, mode="dyadic"),
            window=win,
        ).empirical_sum
        for j in range(J)
    ]
    head = hn.empirical_average(
        hn.ExperimentConfig(kind=kind, a=3, x=x, M=M * 2**J), window=win
    ).empirical_sum
    lhs = math.fsum(parts) + head
    yield abs(lhs - full) <= 1e-12 * max(1.0, abs(full)), f"telescoped {lhs} vs full {full}"


SUITES = {
    "quadform": (
        ra_closed_equals_brute,
        mass_identity,
        rd_product_vs_divisor_sum,
        gauss_sum_identities,
        ramanujan_closed_vs_direct,
    ),
    "multfn": (normalization_identity, f_unit_on_coprime_classes, g_partition_of_unity),
    "ktuples": (nu_rootset_equals_brute, modified_tuple_nu_identity, singular_series_tail_honesty),
    "identities": (divisor_switch_grid, count_scaling_identity, dyadic_telescoping),
}


def run_suites(names, depth: int = 1) -> list[tuple[str, PropertyResult]]:
    out = []
    for name in names:
        if name not in SUITES:
            raise ConfigurationError(f"unknown suite {name!r}; have {sorted(SUITES)}")
        out += [(name, check(prop, depth)) for prop in SUITES[name]]
    return out
