"""Property suites behind the verify subcommand.

Each property runs an exhaustive small-grid check of one exact identity or
oracle agreement and reports (cases, failures, seconds).  Failures carry a
printable counterexample.  Suites group properties by module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import harness as hn
from . import ktuples as kt
from . import multfn as mf
from . import quadform as qf
from . import sequences as sq
from .errors import ConfigurationError, DomainError, UnsupportedError
from .factorint import divisors, iter_primes, kronecker, phi

_MAX_DUMP = 5


@dataclass
class PropertyResult:
    name: str
    cases: int
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _run(name: str, gen) -> PropertyResult:
    """gen yields (ok, counterexample_text) pairs."""
    t0 = time.perf_counter()
    res = PropertyResult(name=name, cases=0)
    for ok, text in gen:
        res.cases += 1
        if not ok and len(res.failures) < _MAX_DUMP:
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


def _ra_closed_vs_brute(q_max: int, a_max: int):
    for form in _FORMS:
        d = form.disc
        for q in range(1, q_max + 1):
            hist = qf.Ra_brute_all(form, q)
            for a in range(-a_max, a_max + 1):
                if math.gcd(a, 2 * d) != 1:
                    continue
                try:
                    closed = qf.Ra_closed(form, a, q)
                except UnsupportedError:
                    continue
                brute = int(hist[a % q])
                yield closed == brute, (
                    f"form={form.label()} a={a} q={q}: closed={closed} brute={brute}"
                )


def _mass_identity(q_max: int):
    for form in _FORMS[:2]:
        for q in range(1, q_max + 1):
            total = int(qf.Ra_brute_all(form, q).sum())
            yield total == q * q, f"form={form.label()} q={q}: mass={total} != {q*q}"


def _rd_product_vs_divisor_sum(n_max: int):
    for d in (-4, -20):
        for n in range(1, n_max + 1):
            if math.gcd(n, 2 * d) != 1:
                continue
            lhs = qf.r_d(d, n)
            rhs = qf.r_d_divisor_sum(d, n)
            yield lhs == rhs, f"d={d} n={n}: multiplicative={lhs} divisor-sum={rhs}"


def _gauss_identities(q_max: int):
    for q in range(3, q_max + 1, 2):
        g1 = qf.gauss_sum(1, q)
        ok = abs(g1 * g1 - kronecker(-1, q) * q) < 1e-9
        yield ok, f"q={q}: g(1;q)^2 = {g1*g1}, expected {kronecker(-1, q) * q}"
        for m in range(2, q):
            if math.gcd(m, q) == 1:
                lhs = qf.gauss_sum(m, q)
                rhs = kronecker(m, q) * g1
                yield abs(lhs - rhs) < 1e-9, f"q={q} m={m}: {lhs} vs {rhs}"


def _ramanujan_exact(q_max: int, a_max: int):
    for q in range(1, q_max + 1):
        for a in range(-a_max, a_max + 1):
            lhs = qf.ramanujan_closed(q, a)
            rhs = qf.ramanujan_direct(q, a)
            yield lhs == rhs, f"q={q} a={a}: closed={lhs} direct={rhs}"


def suite_quadform(depth: int = 1) -> list[PropertyResult]:
    q1, a1 = (60, 20) if depth == 1 else (300, 50)
    return [
        _run("ra_closed_equals_brute", _ra_closed_vs_brute(q1, a1)),
        _run("mass_identity", _mass_identity(60 if depth == 1 else 200)),
        _run("rd_product_vs_divisor_sum", _rd_product_vs_divisor_sum(300)),
        _run("gauss_sum_identities", _gauss_identities(99)),
        _run("ramanujan_closed_vs_direct", _ramanujan_exact(120, 30)),
    ]


# ----------------------------------------------------------------------------
# multfn suite


def _norm_identity(q_max: int):
    models = [mf.primes_model(), mf.quadform_model(_FORMS[0]), mf.rough_model(10)]
    for m in models:
        for q in range(1, q_max + 1):
            if any(q % p == 0 for p in m.bad_primes):
                continue
            total = sum(phi(q // d) * mf.g_a(m, d, q) for d in divisors(q))
            yield total == 1, f"model={m.label} q={q}: sum={total} != 1"


def _unit_on_coprime(q_max: int):
    m = mf.primes_model()
    for q in range(1, q_max + 1):
        for a in (1, -1, 7, -13, 100):
            if math.gcd(a, q) != 1:
                continue
            val = mf.f_a(m, a, q)
            yield val == 1, f"a={a} q={q}: f={val} != 1"


def _g_mass_partition(q_max: int):
    for m in (mf.primes_model(), mf.two_squares_model(), mf.rough_model(10)):
        for q in range(1, q_max + 1):
            total = sum(mf.g_a(m, a if a else q, q) for a in range(q))
            yield total == 1, f"model={m.label} q={q}: partition mass={total}"


def suite_multfn(depth: int = 1) -> list[PropertyResult]:
    qn = 600 if depth == 1 else 10**4
    return [
        _run("normalization_identity", _norm_identity(qn)),
        _run("f_unit_on_coprime_classes", _unit_on_coprime(200)),
        _run("g_partition_of_unity", _g_mass_partition(120)),
    ]


# ----------------------------------------------------------------------------
# ktuples suite

_TRIPLE = kt.KTuple(((1, 0), (1, 2), (1, 6)))
_QUAD = kt.KTuple(((1, 0), (1, 2), (1, 6), (1, 8)))


def _nu_vs_brute(p_max: int):
    for H in (kt.TWIN, _TRIPLE, _QUAD):
        for p in iter_primes(p_max):
            lhs, rhs = kt.nu_H(H, p), kt.nu_H_brute(H, p)
            yield lhs == rhs, f"H={H.label()} p={p}: root-set={lhs} brute={rhs}"


def _modified_nu(q_max: int, a_max: int, p_max: int):
    primes = list(iter_primes(p_max))
    for H in (kt.TWIN, _TRIPLE):
        for q in range(1, q_max + 1):
            for a in range(-a_max, a_max + 1):
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


def _tail_honesty():
    for H in (kt.TWIN, _TRIPLE):
        v1, t1 = kt.singular_series(H, 10**4)
        v2, t2 = kt.singular_series(H, 10**6)
        yield abs(v2 - v1) <= t1, (
            f"H={H.label()}: |{v2} - {v1}| = {abs(v2-v1)} exceeds bound {t1}"
        )


def suite_ktuples(depth: int = 1) -> list[PropertyResult]:
    return [
        _run("nu_rootset_equals_brute", _nu_vs_brute(50)),
        _run("modified_tuple_nu_identity", _modified_nu(30, 10, 50)),
        _run("singular_series_tail_honesty", _tail_honesty()),
    ]


# ----------------------------------------------------------------------------
# identities suite (cross-module exact checks)


def _divisor_switch_grid(xs):
    kinds = [sq.PrimesLambda(), sq.SumTwoSquares(), sq.Rough(7)]
    for kind in kinds:
        for a in (1, 3, 5):
            for x in xs:
                for M in (10.0, 50.0):
                    d, s, eq = hn.divisor_switch_check(kind, a, x, M)
                    yield eq, f"{kind.label()} a={a} x={x} M={M}: {d} != {s}"


def _ad_scaling():
    for d in range(1, 31):
        ok, lhs, rhs = sq.check_Ad_identity(sq.SumTwoSquares(), 10**5, d)
        yield ok, f"two_squares d={d}: {lhs} != {rhs}"
    for d in range(1, 21):
        ok, lhs, rhs = sq.check_Ad_identity(sq.Rough(7), 10**4, d)
        yield ok, f"rough(7) d={d}: {lhs} != {rhs}"


def _dyadic_telescoping():
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


def suite_identities(depth: int = 1) -> list[PropertyResult]:
    xs = (10**4, 10**5) if depth == 1 else (10**4, 10**5, 10**6)
    return [
        _run("divisor_switch_grid", _divisor_switch_grid(xs)),
        _run("count_scaling_identity", _ad_scaling()),
        _run("dyadic_telescoping", _dyadic_telescoping()),
    ]


SUITES = {
    "quadform": suite_quadform,
    "multfn": suite_multfn,
    "ktuples": suite_ktuples,
    "identities": suite_identities,
}


def run_suites(names, depth: int = 1) -> list[tuple[str, PropertyResult]]:
    out = []
    for name in names:
        if name not in SUITES:
            raise ConfigurationError(f"unknown suite {name!r}; have {sorted(SUITES)}")
        for res in SUITES[name](depth):
            out.append((name, res))
    return out
