"""The committed grid of exact outputs (tests/golden) is recomputed and
compared key by key, bit for bit."""

import importlib.util
import json
import os

import numpy as np

_MAKE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "make.py")
_spec = importlib.util.spec_from_file_location("golden_make", _MAKE)
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


def test_golden_grid_is_unchanged():
    with open(make.PATH) as fh:
        stored = json.load(fh)
    # float bits may move with numpy itself: a mismatch is a failure, never a looser compare
    assert stored["numpy"] == np.__version__, (
        f"golden.json was written with numpy {stored['numpy']}, this is numpy "
        f"{np.__version__}; rerun tests/golden/make.py and review the moved keys"
    )
    old, new = stored["values"], make.grid()
    moved = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    shown = "\n".join(f"{k}: {old.get(k)} -> {new.get(k)}" for k in moved[:10])
    assert not moved, f"{len(moved)} of {len(new)} golden values moved:\n{shown}"


def test_golden_encoding_tells_one_ulp_apart():
    x = 0.1
    assert make.encode(x) != make.encode(np.nextafter(x, 1.0))
    a = np.arange(4, dtype=np.float64)
    b = a.copy()
    b[3] = np.nextafter(b[3], 4.0)
    assert make.encode(a) != make.encode(b)
    assert make.encode(a) != make.encode(a.astype(np.float32))
