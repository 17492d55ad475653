"""Batch front-end: predict, run experiments, verify oracles.

Every run echoes a manifest line: the subcommand and every parameter it
parsed (each flag dest, sorted, '-' where unset), content-hashed, so reports
can be traced back to their inputs.  The parser is the one table of flags.
A config file's [defaults] section becomes the subcommand's defaults: keys
are flag dests with case kept (M, R, coprime_filter), each cast and checked
against the choices as its flag is; explicit flags win, and keys the
subcommand does not have are ignored.

Exit codes: 0 success, 1 verification failure, 2 bad usage or bad parameter,
3 resource budget exceeded, 141 (128 + SIGPIPE) standard output closed early.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import os
import sys
from dataclasses import fields

from . import bias
from . import harness as hn
from . import quadform as qf
from . import sequences as sq
from . import verify as vf
from .errors import (
    ConfigurationError,
    DisclabError,
    ResourceError,
    UnsupportedError,
)
from .harness import _fmt

# the flags that carry a family's parameter, named after its field
_KIND_FLAGS = {
    "form": {"help": "quadratic form 'alpha,beta,gamma'"},
    "tuple": {"help": "linear forms 'a1,b1;a2,b2;...'"},
    "y": {"type": int, "help": "roughness cutoff"},
}


def integer(text: str) -> int:
    """An integer flag value, also in a float spelling such as 1e9 when its
    value is a whole number; 1.5 is refused."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not a whole number")
    return int(value)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="disclab")
    top.add_argument("--config", help="ini file; [defaults] section seeds flag values")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="closed-form bias prediction for one family")
    p.add_argument("--family", choices=(*sq.FAMILIES, *sq.ALIASES))
    p.add_argument("--a", type=int)
    p.add_argument("--M", type=float)
    p.add_argument("--x", type=integer)
    for flag, opts in _KIND_FLAGS.items():
        p.add_argument(f"--{flag}", **opts)

    d = sub.add_parser("discrepancy", help="empirical average of A(x;q,a) minus its model term")
    _kind_flags(d)
    d.add_argument("--a", type=int)
    d.add_argument("--x", type=integer)
    d.add_argument("--M", type=float)
    d.add_argument("--mode", choices=hn._MODES, default="full")
    d.add_argument("--filter", dest="coprime_filter", choices=hn._FILTERS, default="none")
    d.add_argument("--out", help="report path (.json for json, else csv)")
    d.add_argument("--threads", type=int)

    s = sub.add_parser("s5", help="smoothed/sharp sum combination of the bias expansion")
    _kind_flags(s, flags=("form", "y"))
    s.add_argument("--a", type=int)
    s.add_argument("--M", type=float)
    s.add_argument("--R", type=float)
    s.add_argument("--x", type=integer)

    q = sub.add_parser("quadform", help="representation counts R_a(q) of a quadratic form")
    q.add_argument("--form", required=True)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--q", type=int, required=True)
    q.add_argument("--brute", action="store_true", help="also enumerate and compare")

    c = sub.add_parser("sieve-cache", help="sieve a window once and cache it for reuse")
    _kind_flags(c)
    c.add_argument("--x", type=integer)
    c.add_argument("--dir", help="cache directory (default $DISCLAB_CACHE_DIR or .)")

    v = sub.add_parser("verify", help="run oracle/identity property suites")
    v.add_argument("suite", nargs="?", default="all",
                   choices=("all", "quadform", "multfn", "ktuples", "identities"))
    v.add_argument("--deep", action="store_true", help="the acceptance checks' grids")
    return top


def _kind_flags(p: argparse.ArgumentParser, flags=tuple(_KIND_FLAGS)):
    """--kind and the given parameter flags; a family is offered where its flag is."""
    kinds = [name for name, fam in sq.FAMILIES.items() if all(f.name in flags for f in fields(fam))]
    p.add_argument("--kind", choices=kinds)
    for flag in flags:
        p.add_argument(f"--{flag}", **_KIND_FLAGS[flag])


def _config_defaults(path: str, command: str, sub: argparse.ArgumentParser) -> dict:
    """The [defaults] values of an ini file for the subcommand's flags, keyed
    and cast as the subcommand's own actions say; other keys are ignored."""
    config = configparser.ConfigParser(interpolation=None)  # a '%' is literal
    config.optionxform = str  # keys are dests, case kept (M, R)
    try:
        read = config.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"config file {path!r}: {exc}") from None
    if not read:
        raise ConfigurationError(f"config file {path!r} not readable")
    if not config.has_section("defaults"):
        return {}
    file_vals = config["defaults"]
    values = {}
    for action in sub._actions:
        key = action.dest
        if key not in file_vals:
            continue
        try:
            if action.nargs == 0:  # a switch such as --brute
                value = file_vals.getboolean(key)
            else:
                value = (action.type or str)(file_vals[key])
        except ValueError as exc:
            raise ConfigurationError(
                f"config file sets {key} = {file_vals[key]!r}: {exc}"
            ) from None
        if action.choices and value not in action.choices:
            raise ConfigurationError(
                f"config file sets {key} = {value!r}; {command} takes "
                f"one of {', '.join(action.choices)}"
            )
        values[key] = value
    return values


def _manifest(args: argparse.Namespace) -> str:
    parts = [f"command={args.command}"]
    for k, v in sorted(vars(args).items()):
        if k not in ("command", "config"):
            parts.append(f"{k}={'-' if v is None else _fmt(v)}")
    parts.append("determinism=seed-free")
    body = " ".join(parts)
    digest = hashlib.sha256(body.encode()).hexdigest()[:12]
    return f"manifest {digest}: {body}"


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigurationError(f"--{name.replace('_', '-')} is required here")


def _family(args) -> sq.Family:
    _require(args, "kind")
    return sq.family_named(args.kind, **vars(args))


def _print_prediction(pred: bias.BiasPrediction):
    print(f"value = {_fmt(pred.leading_value)}")
    print(f"logM_exponent = {pred.logM_exponent}")
    print(f"class = {'bounded' if pred.zero else 'leading'}")
    print(f"normalization = {pred.normalization}")
    print(f"conditional_on = {pred.conditional_on or '-'}")
    print(f"tail_bound = {_fmt(pred.tail_bound)}")
    print(f"secondary = {'-' if pred.secondary is None else _fmt(pred.secondary)}")


def cmd_predict(args) -> int:
    _require(args, "family", "a", "M")
    params = {flag: getattr(args, flag) for flag in _KIND_FLAGS}
    pred = bias.predict_example(args.family, args.a, args.M, args.x, **params)
    _print_prediction(pred)
    return 0


def _cache_path(kind: sq.Family, x: int, directory: str) -> str:
    safe = kind.label().replace(";", "+").replace(",", "_")
    return os.path.join(directory, f"{safe}.x{x}.sieve")


def _window_for(kind: sq.Family, x: int):
    """The cached window of kind over exactly [1, x], or None, for the run to
    sieve: a cache of another family or another range is ignored."""
    cache_dir = os.environ.get("DISCLAB_CACHE_DIR")
    if cache_dir:
        path = _cache_path(kind, x, cache_dir)
        if os.path.exists(path):
            win = sq.load_window(path)
            if win.kind_label == kind.label() and (win.lo, win.hi) == (1, x):
                return win
    return None


def cmd_discrepancy(args) -> int:
    kind = _family(args)
    _require(args, "a", "x", "M")
    threads = (os.cpu_count() or 1) if args.threads is None else args.threads
    cfg = hn.ExperimentConfig(
        kind=kind, a=args.a, x=args.x, M=args.M,
        mode=args.mode, coprime_filter=args.coprime_filter,
    )
    # the cache is read only once the run is known not to be refused
    report = hn.empirical_average(cfg, window=lambda: _window_for(kind, args.x), threads=threads)
    print(f"q_count = {report.q_count}")
    print(f"empirical_sum = {_fmt(report.empirical_sum)}")
    print(f"normalized_avg = {_fmt(report.normalized_avg)}")
    if report.predicted is None:
        print(f"predicted = - ({hn.prediction_refusal(cfg)})")
    else:
        print(f"predicted = {_fmt(report.predicted.leading_value)}")
        print(f"ratio = {_fmt(report.ratio)}")
        if report.predicted.conditional_on:
            print(f"conditional_on = {report.predicted.conditional_on}")
    if args.out:
        fmt = "json" if args.out.endswith(".json") else "csv"
        hn.compare_and_export(report, args.out, format=fmt)
        print(f"report written: {args.out}")
    return 0


def cmd_s5(args) -> int:
    kind = _family(args)
    _require(args, "a", "M", "R", "x")
    if "mu_k" not in kind.routes.values():
        raise UnsupportedError(f"s5 compares with bias.mu_k, which does not cover {kind.label()}")
    model = kind.model()
    sums = hn.s5_sums(model, args.a, args.M, args.R, args.x)
    print(f"S_R = {_fmt(sums.S_R)}")
    print(f"S_M = {_fmt(sums.S_M)}")
    print(f"S_tail = {_fmt(sums.S_tail)}")
    print(f"S5 = {_fmt(sums.S5)}")
    pred = bias.mu_k(model, args.a, args.M)
    print(f"mu_over_M = {_fmt(pred.leading_value / args.M)}")
    if pred.leading_value != 0.0:
        print(f"ratio = {_fmt(sums.S5 * args.M / pred.leading_value)}")
    try:
        # leading + secondary + R-truncation term, against M*S5
        expected = bias.predict_s5(kind.name, args.a, args.M, args.R)
    except UnsupportedError:
        return 0
    secondary = kind.predict(args.a, args.M).secondary
    print(f"secondary = {_fmt(secondary)}")
    print(f"predicted = {_fmt(expected)}")
    print(f"residual = {_fmt(sums.S5 * args.M - expected)}")
    print(f"ratio_predicted = {_fmt(sums.S5 * args.M / expected)}")
    return 0


def cmd_quadform(args) -> int:
    form = qf.parse_form(args.form)
    closed = qf.Ra_closed(form, args.a, args.q)
    print(f"R_a(q) = {closed}")
    print(f"rho_a(q) = {qf.rho_a(form, args.a, args.q)}")
    if args.brute:
        brute = qf.Ra_brute(form, args.a, args.q)
        print(f"brute = {brute}")
        print(f"match = {closed == brute}")
        if closed != brute:
            return 1
    return 0


def cmd_sieve_cache(args) -> int:
    kind = _family(args)
    _require(args, "x")
    directory = args.dir or os.environ.get("DISCLAB_CACHE_DIR") or "."
    os.makedirs(directory, exist_ok=True)
    window = sq.sieve(kind, 1, args.x)
    path = _cache_path(kind, args.x, directory)
    sq.save_window(window, path)
    print(f"cache written: {path} ({len(window.support)} entries)")
    return 0


def cmd_verify(args) -> int:
    names = list(vf.SUITES) if args.suite == "all" else [args.suite]
    depth = 2 if args.deep else 1
    results = vf.run_suites(names, depth=depth)
    bad = 0
    for suite, res in results:
        status = "ok  " if res.ok else "FAIL"
        print(f"{status} {suite}.{res.name}: {res.cases} cases, "
              f"{res.failed} failures ({res.seconds:.2f} s)")
        for text in res.failures:
            print(f"      counterexample: {text}")
        bad += res.failed
    print(f"{len(results)} properties, {bad} failing cases")
    return 0 if bad == 0 else 1


_DISPATCH = {
    "predict": cmd_predict,
    "discrepancy": cmd_discrepancy,
    "s5": cmd_s5,
    "quadform": cmd_quadform,
    "sieve-cache": cmd_sieve_cache,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file values become the subcommand's defaults, so flags still win
            subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            sub = subs.choices[args.command]
            sub.set_defaults(**_config_defaults(args.config, args.command, sub))
            args = parser.parse_args(argv)
        print(_manifest(args))
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed early (`| head`): drop the rest without a traceback,
        # and point its descriptor at the null device so the flush at exit
        # cannot raise again (a writer without a descriptor has nothing to flush)
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 141
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DisclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
