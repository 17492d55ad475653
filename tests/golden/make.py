"""A fixed grid of exact disclab outputs, and the script that records it.

grid() runs every call of the grid and returns {key: value}, each value in
a form JSON holds exactly: a float as float.hex, an array as its dtype and
the SHA-256 of its bytes, a Fraction as text, and a refusal as
{"raises": the exception's class name}.  tests/test_golden.py compares it
with golden.json.  The file records the bits of the code that wrote it,
right or wrong: it detects a change, it is not an oracle.  A change that
moves bits on purpose rewrites the file and lists each moved key.

    PYTHONPATH=src python tests/golden/make.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from fractions import Fraction

import numpy as np

from disclab import bias, harness as hn, multfn as mf, sequences as sq
from disclab.errors import DisclabError
from disclab.ktuples import TWIN, KTuple
from disclab.quadform import BinaryQuadraticForm

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

X = 20011  # a prime, so isqrt(X) = 141 < |a| for the larger shifts
SHIFTS = (1, -1, 2, -2, 3, 5, 6, 9, 15, -7, 211, 20014)
TRIPLE = KTuple(((1, 0), (1, 2), (1, 6)))
FAMILIES = (
    sq.PrimesLambda(),
    sq.SumTwoSquares(),
    sq.Rough(2),
    sq.Rough(7),
    sq.QuadFormMult(BinaryQuadraticForm(1, 0, 1)),
    sq.QuadFormMult(BinaryQuadraticForm(2, 1, 3)),
    sq.KTupleWeight(TWIN),
    sq.KTupleWeight(TRIPLE),
)
# (predict_example name, its keyword parameters) for every family and alias
PREDICTED = (
    ("primes", {}),
    ("two_squares", {}),
    ("rough", {"y": 2}),
    ("rough", {"y": 7}),
    ("rough", {"y": 50}),
    ("quadform", {"form": "1,0,1"}),
    ("quadform", {"form": "2,1,3"}),
    ("twin", {}),
    ("ktuple", {"tuple": "1,0;1,2;1,6"}),
)
PREDICT_SHIFTS = (1, -1, 2, -2, 3, 5, 9, 13, 15, 21, 30)
MODELS = (mf.primes_model(), mf.rough_model(7), mf.rough_model(50))
KERNEL_TOP = 10**5


def encode(value):
    """value in the exact JSON form the module docstring describes."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "sha256": hashlib.sha256(value.tobytes()).hexdigest()}
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"no golden encoding for {type(value).__name__}")


def outcome(call):
    """call()'s encoded result, or the name of the disclab refusal it raised."""
    try:
        return encode(call())
    except DisclabError as exc:
        return {"raises": type(exc).__name__}


def _report(kind, window, a, M, mode, coprime_filter):
    cfg = hn.ExperimentConfig(kind, a, X, M, mode, coprime_filter)
    report = encode(hn.empirical_average(cfg, window))
    del report["runtime_ms"]
    return report


def grid() -> dict:
    values = {}
    for kind in FAMILIES:
        window = sq.sieve(kind, 1, X)
        for top in (X, KERNEL_TOP):
            win = window if top == X else sq.sieve(kind, 1, top)
            values[f"window {kind.label()} [1, {top}]"] = encode((win.support, win.weights))
        for a in SHIFTS:
            for M in (10.0, 20.0):
                for mode in hn._MODES:
                    for filt in hn._FILTERS:
                        key = f"report {kind.label()} a={a} M={M:g} {mode} {filt}"
                        values[key] = outcome(lambda: _report(kind, window, a, M, mode, filt))
        model = kind.model()
        for a in (1,) if model is None else (1, 2, 5, -7):  # a tuple's terms do not depend on a
            key = f"kernel {kind.label()} a={a} [1, {KERNEL_TOP}]"
            if model is None:
                values[key] = outcome(lambda: hn.ktuple_term_range(kind.tuple, 1, KERNEL_TOP))
            else:
                values[key] = outcome(lambda: hn.g_range(model, a, 1, KERNEL_TOP))
    for name, params in PREDICTED:
        label = ",".join([name, *map(str, params.values())])
        for a in PREDICT_SHIFTS:
            for M in (10.0, 1000.0):
                for x in (None, 10**6, 10**9):
                    key = f"predict {label} a={a} M={M:g} x={x}"
                    values[key] = outcome(lambda: bias.predict_example(name, a, M, x, **params))
    for model in MODELS:
        for a in PREDICT_SHIFTS:
            for M in (10.0, 1000.0):
                for fn in (bias.mu_k, bias.mu_specialized):
                    key = f"{fn.__name__} {model.label} a={a} M={M:g}"
                    values[key] = outcome(lambda: fn(model, a, M))
    return values


def main():
    values = grid()
    # one line per key, so a diff of the file names each moved key
    lines = ",\n".join(
        f"{json.dumps(k)}: {json.dumps(values[k], sort_keys=True)}" for k in sorted(values)
    )
    with open(PATH, "w") as fh:
        fh.write(f'{{"numpy": {json.dumps(np.__version__)},\n"values": {{\n{lines}\n}}}}\n')
    print(f"{PATH}: {len(values)} values")


if __name__ == "__main__":
    main()
