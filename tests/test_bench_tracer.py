"""bench/run.py --trace 1 wraps disclab functions by name: each name it
wraps must still exist, and close() must put every original back."""

import importlib.util
import os

from disclab import bias, harness, multfn, sequences

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_bench_tracer_installs_and_closes(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    owners = (bias, harness, multfn, multfn.SequenceModel, sequences)
    before = [dict(vars(o)) for o in owners]
    tracer = run.install_tracer()
    try:
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.close()
    assert [dict(vars(o)) for o in owners] == before
