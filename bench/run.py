"""disclab benchmark: one workload, one process.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds the workload's inputs from the seed, sets up three times, then runs
whole rounds of the workload's fixed operation list until the next round
would pass --seconds, and checks the first round's outputs against the
independent computations in oracles.py (later rounds must repeat them bit
for bit).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: setup_s, run_s and peak_rss_mb.
--trace 1 alternates untraced and traced rounds, reports the per-layer
metrics from spans recorded around disclab's public functions, and writes
the spans to bench/out/trace-<workload>-seed<N>.json.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 3

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path[:0] = [{src!r}, {bench!r}]\n"
    "import workloads\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(names, argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import disclab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "disclab", "__init__.py")):
        sys.exit(f"error: no disclab sources under {SRC}")
    sys.path[:0] = [SRC, BENCH]
    import disclab
    import workloads

    if os.path.dirname(os.path.abspath(disclab.__file__)) != os.path.join(SRC, "disclab"):
        sys.exit(f"error: disclab imported from {disclab.__file__}, not from {SRC}")
    return workloads


def import_seconds() -> list[float]:
    """Import time of disclab and the workloads in two fresh interpreters."""
    code = IMPORT_PROBE.format(src=SRC, bench=BENCH)
    out = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        out.append(float(done.stdout.split()[-1]))
    return out


# ----------------------------------------------------------------------------
# tracing


def _width(args, kwargs, result):
    return {"n": int(args[-1]) - int(args[-2]) + 1}


def _dense(args, kwargs, result):
    # empirical_average takes a float copy of integer weights as well
    extra = result.nbytes if result.dtype.kind in "iu" else 0
    return {"bytes": int(result.nbytes + extra)}


def _file(args, kwargs, result):
    return {"bytes": os.path.getsize(args[-1])}


def _qcount(args, kwargs, result):
    return {"q": result.q_count}


def install_tracer():
    from disclab import bias, harness, multfn, sequences
    from tracer import Tracer

    t = Tracer()
    t.span(sequences, "sieve", "sequences.sieve", _width)
    t.span(sequences, "spf_window", "sequences.spf_window")
    t.span(sequences, "dense_weights", "sequences.dense_weights", _dense)
    t.span(sequences, "save_window", "sequences.save_window", _file)
    t.span(sequences, "load_window", "sequences.load_window", _file)
    t.span(harness, "empirical_average", "harness.empirical_average", _qcount)
    t.span(harness, "g_range", "harness.g_range", _width)
    t.span(harness, "ktuple_term_range", "harness.ktuple_term_range")
    t.span(harness, "s5_sums", "harness.s5_sums")
    for name in ("mu_k", "mu_specialized", "predict_example", "predict_s5"):
        t.span(bias, name, f"bias.{name}")
    t.count(multfn, "g_local", "multfn.g_local")
    t.count(multfn.SequenceModel, "h_pp", "multfn.h_pp")
    return t


PER_LAYER = (
    ("sequences.sieve_s", "s"),
    ("sequences.sieve_n_per_s", "1/s"),
    ("sequences.spf_window_s", "s"),
    ("sequences.dense_weights_s", "s"),
    ("sequences.dense_bytes", "B"),
    ("sequences.save_window_s", "s"),
    ("sequences.load_window_s", "s"),
    ("sequences.cache_bytes", "B"),
    ("harness.empirical_average_s", "s"),
    ("harness.empirical_average_self_s", "s"),
    ("harness.q_count", "count"),
    ("harness.self_ns_per_q", "ns"),
    ("harness.g_range_s", "s"),
    ("harness.g_range_calls", "count"),
    ("harness.g_range_moduli", "count"),
    ("harness.g_range_moduli_per_s", "1/s"),
    ("harness.ktuple_term_range_s", "s"),
    ("harness.s5_sums_self_s", "s"),
    ("bias.mu_k_s", "s"),
    ("bias.mu_k_calls", "count"),
    ("bias.mu_specialized_s", "s"),
    ("bias.predict_example_s", "s"),
    ("bias.predict_s5_s", "s"),
    ("multfn.g_local_calls", "count"),
    ("multfn.h_pp_calls", "count"),
    ("process.cpu_s", "s"),
    ("process.cpu_per_wall", "ratio"),
    ("tracing.overhead_s", "s"),
)


def _phase_totals(tracer, phase: str) -> dict[str, float]:
    """Busy time, self time, calls and sizes per span name in one phase."""
    spans = [s for s in tracer.spans if s.phase == phase]
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for s in spans:
        add(s.name + "_s", s.end - s.start)
        add(s.name + "_self_s", s.end - s.start - child_time.get(s.id, 0.0))
        add(s.name + "_calls", 1)
        for k, v in s.sizes.items():
            add(f"{s.name}.{k}", v)
    for (ph, name), n in tracer.counts.items():
        if ph == phase:
            add(name + "_calls", n)
    return out


def per_layer_metrics(tracer, setup_phases, traced_rounds, plain_rounds) -> dict[str, float]:
    """Each figure is the median over traced set-ups plus the median over
    traced rounds of its per-phase total, so it reads per set-up plus per
    round; rates divide those two figures."""
    setups = [_phase_totals(tracer, p) for p in setup_phases]
    rounds = [_phase_totals(tracer, r["phase"]) for r in traced_rounds]

    def fig(key):
        total = 0.0
        for group in (setups, rounds):
            if group:
                total += statistics.median(g.get(key, 0.0) for g in group)
        return total

    def rate(num, den):
        d = fig(den)
        return fig(num) / d if d else 0.0

    q = fig("harness.empirical_average.q")
    self_s = fig("harness.empirical_average_self_s")
    plain_wall = statistics.median(r["wall"] for r in plain_rounds)
    return {
        "sequences.sieve_s": fig("sequences.sieve_s"),
        "sequences.sieve_n_per_s": rate("sequences.sieve.n", "sequences.sieve_s"),
        "sequences.spf_window_s": fig("sequences.spf_window_s"),
        "sequences.dense_weights_s": fig("sequences.dense_weights_s"),
        "sequences.dense_bytes": fig("sequences.dense_weights.bytes"),
        "sequences.save_window_s": fig("sequences.save_window_s"),
        "sequences.load_window_s": fig("sequences.load_window_s"),
        "sequences.cache_bytes": fig("sequences.load_window.bytes"),
        "harness.empirical_average_s": fig("harness.empirical_average_s"),
        "harness.empirical_average_self_s": self_s,
        "harness.q_count": q,
        "harness.self_ns_per_q": self_s / q * 1e9 if q else 0.0,
        "harness.g_range_s": fig("harness.g_range_s"),
        "harness.g_range_calls": fig("harness.g_range_calls"),
        "harness.g_range_moduli": fig("harness.g_range.n"),
        "harness.g_range_moduli_per_s": rate("harness.g_range.n", "harness.g_range_s"),
        "harness.ktuple_term_range_s": fig("harness.ktuple_term_range_s"),
        "harness.s5_sums_self_s": fig("harness.s5_sums_self_s"),
        "bias.mu_k_s": fig("bias.mu_k_s"),
        "bias.mu_k_calls": fig("bias.mu_k_calls"),
        "bias.mu_specialized_s": fig("bias.mu_specialized_s"),
        "bias.predict_example_s": fig("bias.predict_example_s"),
        "bias.predict_s5_s": fig("bias.predict_s5_s"),
        "multfn.g_local_calls": fig("multfn.g_local_calls"),
        "multfn.h_pp_calls": fig("multfn.h_pp_calls"),
        "process.cpu_s": statistics.median(r["cpu"] for r in plain_rounds),
        "process.cpu_per_wall": statistics.median(r["cpu"] / r["wall"] for r in plain_rounds),
        "tracing.overhead_s": statistics.median(r["wall"] for r in traced_rounds) - plain_wall,
    }


# ----------------------------------------------------------------------------


def run_round(ops, tracer, phase, keep):
    """One pass over the operation list; a failed operation yields None.
    Each result is passed through keep(op, result) before it is stored."""
    results, failed = [], 0
    with tracer.recording(phase) if tracer else contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            try:
                results.append(keep(op, op.run()))
            except Exception:
                print(f"operation {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
                results.append(None)
                failed += 1
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"phase": phase, "traced": tracer is not None, "wall": wall, "cpu": cpu,
            "results": results, "failed": failed}


def main(argv=None) -> int:
    workloads = import_program()
    args = parse_args(list(workloads.WORKLOADS), argv)
    imports = [time.perf_counter() - T_START]
    if not args.trace:
        imports += import_seconds()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    tracer = install_tracer() if args.trace else None
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = work.ops()

        setup_phases, prepare_s = [], []
        for i in range(SETUP_REPEATS):
            setup_phases.append(f"setup-{i}")
            with tracer.recording(setup_phases[-1]) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                work.prepare()
                prepare_s.append(time.perf_counter() - t0)

        rounds = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            # the first round's outputs are checked; later rounds keep only
            # what must repeat, so memory does not grow with the round count
            keep = (lambda op, r: r) if not rounds else (lambda op, r: op.key(r))
            rounds.append(run_round(ops, tracer if traced else None, f"round-{len(rounds)}", keep))
            if args.trace and len(rounds) < 2:
                continue
            longest = max(r["wall"] for r in rounds[-2:])
            if time.perf_counter() + longest > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        first = rounds[0]["results"]
        failures = []
        if any(r is None for r in first):
            failures.append("an operation of the first round failed, so it was not checked")
        else:
            for line in work.summary(first):
                print(line)
            failures += work.check(first)
        for r in rounds[1:]:
            for op, res, ref in zip(ops, r["results"], first):
                if res is not None and ref is not None and res != op.key(ref):
                    failures.append(f"{r['phase']}: {op.name} differs from the first round")
        for text in failures:
            print(f"check failed: {text}", file=sys.stderr)

        if args.trace:
            traced = [r for r in rounds if r["traced"]]
            plain = [r for r in rounds if not r["traced"]]
            values = per_layer_metrics(tracer, setup_phases, traced, plain)
            units = dict(PER_LAYER)
            path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(path, workload=args.workload, seed=args.seed, seconds=args.seconds)
            print(f"spans written: {os.path.relpath(path, ROOT)}")
        else:
            values = {
                "setup_s": statistics.median(imports) + statistics.median(prepare_s),
                "run_s": statistics.median(r["wall"] for r in rounds),
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    finally:
        if tracer is not None:
            tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} operations")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": len(rounds) * len(ops),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
