"""The workloads: their inputs, their operations and their checks.

Four parts each cover one way of using disclab; the two workloads the
benchmark runs each combine two parts into one round (see WORKLOADS).  A part
is built from a seed, which picks its shifts and the moduli it spot-checks
from fixed pools whose members cost the same.  prepare() is the one-time
preparation a user pays before the first operation; ops() is the fixed list
of operations one round runs; check() compares the first round's outputs with
the independent computations in oracles.py and returns one message per
failed check.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles
from disclab import bias, harness, ktuples, multfn, quadform, sequences


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    # the part of the result that must repeat bit for bit in every round
    key: Callable[[object], tuple]


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def _fail(failures: list[str], ok: bool, message: str):
    if not ok:
        failures.append(message)


def _report_key(report) -> tuple:
    return (report.empirical_sum, report.normalized_avg, report.ratio, report.q_count)


class Workload:
    def prepare(self):
        """One-time preparation; timed into setup_s."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def op(self, name: str, run) -> Op:
        return Op(name, run, self.key)

    def key(self, result) -> tuple:
        """The part of an operation's result that must repeat bit for bit."""
        raise NotImplementedError

    def check(self, results: list) -> list[str]:
        raise NotImplementedError

    def summary(self, results: list) -> list[str]:
        """One line per operation: what it computed, to read runs against."""
        raise NotImplementedError


def _report_line(name, report) -> str:
    pred = report.predicted.leading_value if report.predicted else math.nan
    return (f"{name}: q_count {report.q_count}, normalized {report.normalized_avg:.6g}, "
            f"predicted {pred:.6g}, ratio {report.ratio:.6g}")


# ----------------------------------------------------------------------------


class DiscrepancyPrimes(Workload):
    """Uncached `disclab discrepancy --kind primes --mode full --filter a`."""

    SHIFTS = (1, -1)
    M = 20

    def __init__(self, seed: int, x: int = 10**7, threads: int | None = None):
        rng = random.Random(seed)
        self.a = rng.choice(self.SHIFTS)
        self.x = x
        # the CLI default: every core
        self.threads = threads or os.cpu_count() or 1
        self.cfg = harness.ExperimentConfig(
            kind=sequences.PrimesLambda(), a=self.a, x=x, M=self.M, mode="full", coprime_filter="a"
        )

    def ops(self):
        def run():
            window = sequences.sieve(self.cfg.kind, 1, self.x)
            return harness.empirical_average(self.cfg, window=window, threads=self.threads)

        return [self.op(f"discrepancy a={self.a}", run)]

    def key(self, result):
        return _report_key(result)

    def summary(self, results):
        return [_report_line(f"primes a={self.a} x={self.x} M={self.M}", results[0])]

    def check(self, results):
        report, = results
        failures: list[str] = []
        # sieved again here, after the rounds, so that the benchmark holds no
        # window of its own while peak_rss_mb is measured
        window = sequences.sieve(self.cfg.kind, 1, self.x)
        x, a, Q = self.x, self.a, self.x // self.M
        lam = oracles.von_mangoldt(x)
        psi = math.fsum(lam.tolist())
        psi_prog = float(sequences.count_A_upto(window, x))
        _fail(failures, _close(psi_prog, psi, 1e-9 * psi),
              f"psi(x): program {psi_prog!r}, own sieve {psi!r}")
        _fail(failures, report.q_count == Q, f"q_count {report.q_count} != floor(x/M) = {Q}")
        # a = +-1, so the filter keeps every modulus and g(q) = 1/phi(q)
        total = oracles.progression_total(lam, a, 1, Q)
        point = lam[a] if 0 < a <= x else 0.0
        g_sum = math.fsum((1.0 / oracles.totients(Q)[1:]).tolist())
        want = math.fsum([total, -Q * point, -psi * g_sum])
        tol = 1e-11 * (total + psi * g_sum + Q * point)
        _fail(failures, _close(report.empirical_sum, want, tol),
              f"empirical_sum {report.empirical_sum!r} != divisor-switched {want!r} (tol {tol:.3g})")
        one = harness.empirical_average(self.cfg, window=window, threads=1)
        _fail(failures, one.empirical_sum == report.empirical_sum,
              f"threads=1 gives {one.empirical_sum!r}, threads={self.threads} {report.empirical_sum!r}")
        return failures


# ----------------------------------------------------------------------------


class S5Primes(Workload):
    """The `disclab s5 --kind primes` path at two scales M."""

    SHIFTS = (1, -1)
    BAND = 0.05  # |M*S5 - expected| allowed; the O(M R / x) term is left out
    BLOCK = 1000  # moduli per spot-checked tail block
    BLOCKS = 4
    Ms = (10, 100)

    def __init__(self, seed: int, x: int = 10**8, R: int = 10**4):
        rng = random.Random(seed)
        self.a = rng.choice(self.SHIFTS)
        self.x, self.R = x, R
        self.model = multfn.primes_model()
        lo, hi = x // R + 1, x // max(self.Ms)
        starts = range(lo, hi - self.BLOCK + 2, self.BLOCK)
        self.block_starts = sorted(rng.sample(starts, min(self.BLOCKS, len(starts))))

    def ops(self):
        def op(M):
            def run():
                sums = harness.s5_sums(self.model, self.a, M, self.R, self.x)
                mu = bias.mu_k(self.model, self.a, M)
                return sums, mu, bias.predict_s5("primes", self.a, M, self.R)

            return self.op(f"s5 a={self.a} M={M}", run)

        return [op(M) for M in self.Ms]

    def key(self, result):
        sums, mu, expected = result
        return tuple(sums) + (mu.leading_value, expected)

    def summary(self, results):
        return [
            f"s5 a={self.a} M={M} R={self.R} x={self.x}: M*S5 {M * sums.S5:.6g}, "
            f"expected {expected:.6g}, residual {M * sums.S5 - expected:.4g}, "
            f"ratio to the leading term {M * sums.S5 / mu.leading_value:.6g}"
            for M, (sums, mu, expected) in zip(self.Ms, results)
        ]

    def check(self, results):
        failures: list[str] = []
        x, R, a = self.x, self.R, self.a
        c5, c5_cut = oracles.c5(10**6)
        _fail(failures, abs(bias.C5 - c5) <= c5_cut, f"bias.C5 {bias.C5!r} vs prime sum {c5!r}")
        inv_phi = 1.0 / oracles.totients(R)[1:]

        def smoothed(T):
            return math.fsum((inv_phi[: int(T)] * (1.0 - np.arange(1, int(T) + 1) / T)).tolist())

        residuals = []
        for M, (sums, mu, expected) in zip(self.Ms, results):
            for label, got, want in (("S_R", sums.S_R, smoothed(R)), ("S_M", sums.S_M, smoothed(M))):
                _fail(failures, _close(got, want, 1e-12 * abs(want) + 1e-15),
                      f"M={M}: {label} {got!r} != own 1/phi sum {want!r}")
            lo, hi = int(x / R) + 1, int(x / M)
            tail = math.fsum(
                float(np.sum(1.0 / oracles.totients_range(b, min(b + 10**6 - 1, hi))))
                for b in range(lo, hi + 1, 10**6)
            )
            _fail(failures, _close(sums.S_tail, tail, 1e-12 * tail),
                  f"M={M}: S_tail {sums.S_tail!r} != own 1/phi sum {tail!r}")
            _fail(failures, sums.S5 == sums.S_R - sums.S_M - sums.S_tail, f"M={M}: S5 != S_R - S_M - S_tail")
            own = -0.5 * math.log(M) - c5 + (M / R) * (0.5 * math.log(R) + c5)
            _fail(failures, _close(expected, own, 2 * c5_cut),
                  f"M={M}: predict_s5 {expected!r} != -1/2 log M - C5 + (M/R)(1/2 log R + C5) = {own!r}")
            residuals.append(abs(M * sums.S5 - own))
            _fail(failures, residuals[-1] <= self.BAND,
                  f"M={M}: |M*S5 - expected| = {residuals[-1]:.4g} above {self.BAND}")
            _fail(failures, mu.leading_value == -0.5 * math.log(M),
                  f"M={M}: mu_k {mu.leading_value!r} != -1/2 log M")
        _fail(failures, residuals == sorted(residuals, reverse=True),
              f"residuals {residuals} do not shrink as M grows")
        for b in self.block_starts:
            got = harness.g_range(self.model, a, b, b + self.BLOCK - 1)
            want = 1.0 / oracles.totients_range(b, b + self.BLOCK - 1)
            bad = np.flatnonzero(np.abs(got - want) > 1e-12 * want)
            _fail(failures, len(bad) == 0, f"g_range != 1/phi at q = {(b + bad[:3]).tolist()}")
        return failures


# ----------------------------------------------------------------------------


class CachedWindows(Workload):
    """Reports from windows saved once and loaded for every report."""

    RESIDUE_SHIFTS = (5, 13, 17, 29)  # a = 1 mod 4 with no prime 3 mod 4
    ZERO_SHIFTS = (21, 33, 57, 77)  # a = 1 mod 4 with two primes 3 mod 4
    TWIN_SHIFTS = (1, -3)  # a (a + 2) = 3 for both
    SAMPLES = 8
    M = 20

    def __init__(self, seed: int, directory: str, x: int = 10**7):
        rng = random.Random(seed)
        self.x = x
        M = self.M
        two, twin = sequences.SumTwoSquares(), sequences.KTupleWeight(ktuples.TWIN)
        self.kinds = {"two_squares": two, "twin": twin}
        self.paths = {k: os.path.join(directory, f"{k}.sieve") for k in self.kinds}
        self.reports = [
            ("two_squares", harness.ExperimentConfig(
                kind=two, a=rng.choice(self.RESIDUE_SHIFTS), x=x, M=M, mode="dyadic")),
            ("two_squares", harness.ExperimentConfig(
                kind=two, a=rng.choice(self.ZERO_SHIFTS), x=x, M=M, mode="dyadic")),
            ("twin", harness.ExperimentConfig(
                kind=twin, a=rng.choice(self.TWIN_SHIFTS), x=x, M=M, mode="dyadic",
                coprime_filter="P")),
        ]
        q_lo, q_hi = self.reports[0][1].q_range()
        self.samples = sorted(rng.sample(range(q_lo, q_hi + 1), self.SAMPLES))

    def prepare(self):
        for name, kind in self.kinds.items():
            sequences.save_window(sequences.sieve(kind, 1, self.x), self.paths[name])

    def ops(self):
        def op(name, cfg):
            def run():
                window = sequences.load_window(self.paths[name])
                return harness.empirical_average(cfg, window=window, threads=1)

            return self.op(f"{name} a={cfg.a}", run)

        return [op(name, cfg) for name, cfg in self.reports]

    def key(self, result):
        return _report_key(result)

    def summary(self, results):
        return [_report_line(f"{name} a={cfg.a} x={self.x} M={self.M}", report)
                for (name, cfg), report in zip(self.reports, results)]

    def check(self, results):
        failures: list[str] = []
        x = self.x
        own = {"two_squares": oracles.two_squares(x), "twin": oracles.twin_weights(x)}
        # the windows are loaded again here, after the rounds, so that the
        # benchmark holds no window of its own while peak_rss_mb is measured
        for (name, cfg), report in zip(self.reports, results):
            tag = f"{name} a={cfg.a}"
            w = own[name]
            window = sequences.load_window(self.paths[name])
            support = np.flatnonzero(w)
            same = (
                window.kind_label == self.kinds[name].label() and (window.lo, window.hi) == (1, x)
                and np.array_equal(window.support, support)
                and (np.array_equal(window.weights, w[support]) if name == "two_squares"
                     else np.allclose(window.weights, w[support], rtol=1e-13, atol=0))
            )
            _fail(failures, same, f"{tag}: loaded window differs from the own sieve")
            q_lo, q_hi = cfg.q_range()
            keep = oracles.coprime_mask(cfg.a * (cfg.a + 2) if name == "twin" else 1, q_lo, q_hi)
            _fail(failures, report.q_count == int(keep.sum()),
                  f"{tag}: q_count {report.q_count} != {int(keep.sum())}")
            point = w[cfg.a] if 0 < cfg.a <= x else 0
            count = oracles.progression_total(w, cfg.a, q_lo, q_hi, keep)
            # the slice sums alone: the same report with every density set to 0
            counts_only = _without_densities(cfg, window)
            if name == "two_squares":
                want = count - int(keep.sum()) * int(point)
                _fail(failures, counts_only == want,
                      f"{tag}: summed counts {counts_only!r} != divisor-switched count {want}")
                dens = [float(oracles.two_squares_density(cfg.a, q)) for q in self.samples]
                prog = harness.g_range(multfn.two_squares_model(), cfg.a, q_lo, q_hi)
            else:
                want = count - int(keep.sum()) * float(point)
                _fail(failures, _close(counts_only, want, 1e-11 * count),
                      f"{tag}: summed weights {counts_only!r} != divisor-switched sum {want!r}")
                dens = [float(oracles.twin_density(q)) for q in self.samples]
                prog = harness.ktuple_term_range(ktuples.TWIN, q_lo, q_hi)
            got = [float(prog[q - q_lo]) for q in self.samples]
            bad = [q for q, g, d in zip(self.samples, got, dens) if not _close(g, d, 1e-12 * d)]
            _fail(failures, not bad, f"{tag}: density differs from its local factors at q = {bad}")
            A_x = float(w[1:].sum()) if name == "two_squares" else math.fsum(w[1:].tolist())
            g_part = A_x * math.fsum(prog[keep].tolist())
            total = math.fsum([counts_only, -g_part])
            _fail(failures, _close(report.empirical_sum, total, 1e-11 * (abs(count) + g_part)),
                  f"{tag}: empirical_sum {report.empirical_sum!r} != counts - A(x) sum g = {total!r}")
            pred = report.predicted.leading_value
            _fail(failures, pred == self._closed_form(name, cfg),
                  f"{tag}: prediction {pred!r} != closed form {self._closed_form(name, cfg)!r}")
        return failures

    def _closed_form(self, name: str, cfg) -> float:
        if name == "twin":
            return _twin_closed_form(cfg.M)
        if cfg.a in self.ZERO_SHIFTS:
            return 0.0
        return -1 / (2 * math.pi) * math.sqrt(math.log(cfg.M) / math.log(cfg.x))


def _twin_closed_form(M) -> float:
    """The twin prediction at P(a) = a (a + 2) = 3: one prime, nu(3) = 2 and
    k = 2, in the program's order of operations, so it compares bit for bit."""
    value = -1.0 / (2 * math.factorial(1))
    value *= (3 - 2) / (3 - 1) * math.log(3)
    return value * math.log(M) ** 1


def _without_densities(cfg, window) -> float:
    """empirical_sum of the report with g(q) = 0 for every modulus: the sum of
    A(x; q, a) minus the point mass, which is exact for integer weights."""
    def zeros(*args):
        lo, hi = args[-2:]
        return np.zeros(hi - lo + 1)

    saved = harness.g_range, harness.ktuple_term_range
    harness.g_range = harness.ktuple_term_range = zeros
    try:
        return harness.empirical_average(cfg, window=window, threads=1).empirical_sum
    finally:
        harness.g_range, harness.ktuple_term_range = saved


# ----------------------------------------------------------------------------


class PredictGrid(Workload):
    """Closed forms: Euler-tail products and the worked family predictions."""

    UNITS = (1, -1)
    PRIME_POWERS = (3, 9, 5, 25, 7, 49, 11, 121, 13, 169)
    ROUGH_Y = 7
    X = 10**9  # the x of the x-dependent family predictions
    M = 20

    def __init__(self, seed: int, P_trunc: int = 10**6):
        rng = random.Random(seed)
        self.shifts = (rng.choice(self.UNITS), rng.choice(self.PRIME_POWERS))
        self.P_trunc = P_trunc
        self.primes = multfn.primes_model()

    def ops(self):
        M, P = self.M, self.P_trunc
        unit, pp = self.shifts
        # one Euler tail per closed-form case and routine: the check computes
        # the other two pairings once, outside the timed rounds
        ops = [
            self.op(f"mu_k primes a={unit}", lambda: bias.mu_k(self.primes, unit, M, P)),
            self.op(f"mu_specialized primes a={pp}",
                    lambda: bias.mu_specialized(self.primes, pp, M, P)),
            self.op(f"mu_k rough_{self.ROUGH_Y} a=1",
               lambda: bias.mu_k(multfn.rough_model(self.ROUGH_Y), 1, M, P)),
        ]
        examples = [
            ("primes", self.shifts[1], {}),
            ("primes", 15, {}),
            ("two_squares", 5, {"x": self.X}),
            ("twin", 1, {}),
            ("quadform", 1, {"form": quadform.BinaryQuadraticForm(1, 0, 1)}),
            ("rough", 1, {"x": self.X, "y": 3}),
        ]
        for family, a, kw in examples:
            ops.append(self.op(f"predict_example {family} a={a}",
                          lambda f=family, a=a, kw=kw: bias.predict_example(f, a, M, **kw)))
        return ops

    def key(self, result):
        return (result.leading_value, result.tail_bound)

    def summary(self, results):
        return [f"{op.name} M={self.M}: {r.leading_value!r}" for op, r in zip(self.ops(), results)]

    def check(self, results):
        failures: list[str] = []
        M = self.M
        values = {op.name: r.leading_value for op, r in zip(self.ops(), results)}

        def expect(name, want, tol=0.0):
            got = values[name]
            _fail(failures, _close(got, want, tol) if tol else got == want,
                  f"{name}: {got!r} != closed form {want!r}")

        unit, pp = self.shifts
        p = oracles.factorize(pp)[0][0]
        expect(f"mu_k primes a={unit}", -0.5 * math.log(M))
        expect(f"mu_specialized primes a={pp}",
               float(Fraction(-(p - 1), 2 * p)) * math.log(p))
        for name, other in (
            (f"mu_k primes a={unit}", bias.mu_specialized(self.primes, unit, M, self.P_trunc)),
            (f"mu_specialized primes a={pp}", bias.mu_k(self.primes, pp, M, self.P_trunc)),
        ):
            _fail(failures, other.leading_value == values[name],
                  f"{name}: {values[name]!r} but the other routine gives {other.leading_value!r}")
        rough = Fraction(-1, 2)
        for q in oracles.primes_upto(self.ROUGH_Y - 1).tolist():
            rough *= Fraction(q, q - 1)
        expect(f"mu_k rough_{self.ROUGH_Y} a=1", float(rough))
        expect(f"predict_example primes a={pp}", -0.5 * math.log(p))
        expect("predict_example primes a=15", 0.0)
        expect("predict_example two_squares a=5",
               -1 / (2 * math.pi) * math.sqrt(math.log(M) / math.log(self.X)))
        expect("predict_example twin a=1", _twin_closed_form(M))
        expect("predict_example rough a=1", -0.5)
        # x^2 + y^2 at a = 1: -C_Q rho_1(16) r(1) with C_Q = area / (2 L(1, chi_-4)),
        # rho_1(16) the share of pairs mod 16 with u^2 + v^2 = 1, and r(1) = 1
        form = quadform.BinaryQuadraticForm(1, 0, 1)
        area, L = bias.area_unit_region(form), bias.L_one_chi(-4)
        _fail(failures, _close(area, math.pi / 4, 1e-9), f"area of x^2 + y^2 <= 1 in the quadrant {area!r} != pi/4")
        _fail(failures, _close(L, math.pi / 4, 1e-12), f"L(1, chi_-4) {L!r} != pi/4")
        rho = sum((u * u + v * v - 1) % 16 == 0 for u in range(16) for v in range(16)) / 16
        expect("predict_example quadform a=1", -(area / (2 * L)) * rho * 1)
        expect("predict_example quadform a=1", -0.5 * rho, 1e-9)
        return failures


# ----------------------------------------------------------------------------


class Combined(Workload):
    """Several parts run as one workload: one round runs every part's
    operations, and each part checks its own share of the outputs."""

    def __init__(self, *parts: Workload):
        self.parts = parts

    def prepare(self):
        for part in self.parts:
            part.prepare()

    def ops(self):
        return [op for part in self.parts for op in part.ops()]

    def _split(self, results):
        out, i = [], 0
        for part in self.parts:
            n = len(part.ops())
            out.append((part, results[i : i + n]))
            i += n
        return out

    def check(self, results):
        return [f for part, res in self._split(results) for f in part.check(res)]

    def summary(self, results):
        return [line for part, res in self._split(results) for line in part.summary(res)]


# Two workloads of 5 to 7 s per round, so that a run of 50 s holds seven to
# ten rounds: the machine's speed drifts by tens of per cent over a minute, and
# four workloads of 25 s runs gave run-to-run spreads of up to 0.24.  The
# first sieves and sums (it stresses sequences and the harness slice sums);
# the second runs no sieve and no slice sums (g_range tails and Euler tails).
WORKLOADS = {
    "discrepancy": lambda seed, directory: Combined(
        DiscrepancyPrimes(seed), CachedWindows(seed, directory)),
    "closed-forms": lambda seed, directory: Combined(S5Primes(seed), PredictGrid(seed)),
}
