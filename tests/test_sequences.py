import math
import struct

import numpy as np
import pytest

from disclab.errors import ConfigurationError, DomainError, ResourceError, UnsupportedError
from disclab import sequences as sq
from disclab.factorint import factors_of, iter_primes, spf_window
from disclab.ktuples import TWIN, KTuple
from disclab.quadform import BinaryQuadraticForm

X2Y2 = BinaryQuadraticForm(1, 0, 1)


def brute_two_squares(n: int) -> bool:
    i = 0
    while i * i <= n:
        r = n - i * i
        s = math.isqrt(r)
        if s * s == r:
            return True
        i += 1
    return False


def von_mangoldt(n: int) -> float:
    """Lambda(n) for n >= 1 from the factorization of n."""
    fac = factors_of(n) if n > 1 else ()
    return math.log(fac[0][0]) if len(fac) == 1 else 0.0


def test_lambda_window_small():
    w = sq.sieve(sq.PrimesLambda(), 1, 10)
    assert list(w.support) == [2, 3, 4, 5, 7, 8, 9]
    expected = [math.log(p) for p in [2, 3, 2, 5, 7, 2, 3]]
    assert np.allclose(w.weights, expected, rtol=0, atol=1e-15)
    assert abs(sq.count_A(w) - 7.83201) < 1e-4


def test_lambda_window_matches_von_mangoldt():
    w = sq.sieve(sq.PrimesLambda(), 500, 1500)
    dense = sq.dense_weights(w, 1500)
    for n in range(500, 1501):
        assert dense[n] == pytest.approx(von_mangoldt(n), abs=1e-12)


def lambda_window_by_spf(lo, hi):
    """_lambda_window with its primes read off the smallest-prime-factor
    window as spf == n, the sieve it had before the boolean prime window."""
    lo = max(lo, 2)
    spf = spf_window(lo, hi + 1)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    sup = [ns[spf == ns]]
    wts = [np.log(sup[0].astype(np.float64))]
    for p in iter_primes(math.isqrt(hi)):
        pe = p * p
        while pe <= hi:
            if pe >= lo:
                sup.append(np.array([pe], dtype=np.int64))
                wts.append(np.array([math.log(p)], dtype=np.float64))
            pe *= p
    support = np.concatenate(sup)
    order = np.argsort(support, kind="stable")
    return support[order], np.concatenate(wts)[order]


def same_bytes(got, want):
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_lambda_window_same_bytes_as_spf_reference(monkeypatch):
    square = 1009**2
    for lo, hi in [(1, 10**5), (10**8, 10**8 + 10**5), (square - 10**4, square)]:
        assert same_bytes(sq._lambda_window(lo, hi), lambda_window_by_spf(lo, hi)), (lo, hi)
    tuples = [TWIN, KTuple(((1, 0), (1, 2), (1, 6))), KTuple(((2, 1), (1, 4)))]
    got = [sq.KTupleWeight(H).window(1, 10**5) for H in tuples]
    monkeypatch.setattr(sq, "_lambda_window", lambda_window_by_spf)
    for H, window in zip(tuples, got):
        assert len(window[0]) > 100
        assert same_bytes(window, sq.KTupleWeight(H).window(1, 10**5)), H.label()


def test_lambda_window_edges_same_bytes_as_spf_reference():
    # even and odd lo, and hi on either side of a square, where the prime
    # powers merge into the odd-only prime window
    for p in (2, 3, 7, 1009):
        for hi in (p * p - 1, p * p, p * p + 1):
            for lo in (1, 2, 3, 4):
                if lo <= hi:
                    got = sq._lambda_window(lo, hi)
                    assert same_bytes(got, lambda_window_by_spf(lo, hi)), (lo, hi)


def two_squares_by_counts(lo, hi):
    """SumTwoSquares.window as the nonzero representation counts of x^2 + y^2,
    the route it had before the boolean marks."""
    support = np.flatnonzero(sq._form_counts(X2Y2, lo, hi)) + lo
    return support, np.ones(len(support), dtype=np.int64)


def ktuple_by_intersection(H, lo, hi):
    """KTupleWeight.window with one prime window per form, intersected form by
    form, the route it had before the shared sieves; it checks each form's
    range just before that form's sieve and stops at an empty intersection."""
    common = weights = None
    for a, b in H.forms:
        vlo, vhi = a * lo + b, a * hi + b
        if vhi < 2:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if vhi > sq.MAX_TABLE_LIMIT or vhi - max(vlo, 2) + 1 > sq.MAX_WINDOW:
            raise ResourceError(f"form {a}n+{b} needs values up to {vhi}; shrink the window")
        vsup, vwts = sq._lambda_window(max(vlo, 2), vhi)
        keep = (vsup - b) % a == 0
        ns = (vsup[keep] - b) // a
        inside = ns >= lo
        ns, ws = ns[inside], vwts[keep][inside]
        if common is None:
            common, weights = ns, ws
        else:
            common, ia, ib = np.intersect1d(common, ns, assume_unique=True, return_indices=True)
            weights = weights[ia] * ws[ib]
        if len(common) == 0:
            break
    return common.astype(np.int64), weights


BYTE_WINDOWS = [(1, 1), (2, 3), (1, 10), (17, 54321), (999, 1000), (1, 2 * 10**6),
                (10**8, 10**8 + 10**5)]
BYTE_TUPLES = [TWIN, KTuple(((1, 0), (1, 2), (1, 6))), KTuple(((2, 1), (1, 4))),
               KTuple(((1, 0), (2, 1))), KTuple(((3, 2), (5, 4), (1, 0))),
               # values below 2 at the window's start; one coefficient, two hulls
               KTuple(((1, -1), (1, 1))), KTuple(((1, 0), (1, 100)))]


def test_two_squares_window_same_bytes_as_counts():
    for lo, hi in BYTE_WINDOWS:
        got = sq.SumTwoSquares().window(lo, hi)
        assert same_bytes(got, two_squares_by_counts(lo, hi)), (lo, hi)


def test_ktuple_window_same_bytes_as_intersection():
    for H in BYTE_TUPLES:
        for lo, hi in BYTE_WINDOWS:
            got = sq.KTupleWeight(H).window(lo, hi)
            assert same_bytes(got, ktuple_by_intersection(H, lo, hi)), (H.label(), lo, hi)
            assert len(got[0]) or hi - lo < 10**4


def test_ktuple_forms_share_a_sieve_only_where_their_ranges_overlap(monkeypatch):
    # twin shares one sieve of [2, 902]; (1,0;1,100) on [1, 10] has disjoint
    # ranges, and (1,0;1,200) on [1, 900] would need a hull wider than MAX_WINDOW
    monkeypatch.setattr(sq, "MAX_WINDOW", 1000)
    cases = [(TWIN, 1, 900), (KTuple(((1, 0), (1, 100))), 1, 10), (KTuple(((1, 0), (1, 200))), 1, 900)]
    want = [ktuple_by_intersection(H, lo, hi) for H, lo, hi in cases]
    widths = []
    real = sq._lambda_window

    def recorded(lo, hi):
        widths.append(hi - lo + 1)
        return real(lo, hi)

    monkeypatch.setattr(sq, "_lambda_window", recorded)
    for (H, lo, hi), window in zip(cases, want):
        assert same_bytes(sq.KTupleWeight(H).window(lo, hi), window), H.label()
    assert widths == [901, 9, 9, 899, 899]


def test_ktuple_refusals_come_before_any_sieve(monkeypatch):
    cases = [
        (KTuple(((2, 1), (1, 4))), 1, 3 * 10**7 + 1),  # the first form is too wide
        (KTuple(((3, 2), (5, 4), (1, 0))), 2 * 10**8 - 100, 2 * 10**8),  # 5n+4 passes 1e9
        (KTuple(((1, 0), (2, 1))), 5 * 10**8 - 1000, 5 * 10**8),  # 2n+1 passes 1e9
    ]
    messages = []
    for H, lo, hi in cases:
        with pytest.raises(ResourceError) as want:
            ktuple_by_intersection(H, lo, hi)
        messages.append(str(want.value))

    def no_sieve(lo, hi):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(sq, "_lambda_window", no_sieve)
    for (H, lo, hi), message in zip(cases, messages):
        with pytest.raises(ResourceError) as got:
            sq.KTupleWeight(H).window(lo, hi)
        assert str(got.value) == message
    # a form whose values all lie below 2 empties the window before any sieve
    empty = sq.KTupleWeight(KTuple(((1, -1), (1, 1)))).window(1, 1)
    assert same_bytes(empty, (np.empty(0, np.int64), np.empty(0, np.float64)))


def test_quadform_weights():
    kind = sq.QuadFormMult(X2Y2)
    w = sq.sieve(kind, 1, 100)
    dense = sq.dense_weights(w)
    assert dense[25] == 4  # (0,5),(5,0),(3,4),(4,3)
    assert dense[1] == 2
    assert dense[3] == 0
    # brute force cross-check
    for n in range(1, 101):
        count = sum(
            1
            for x in range(0, 11)
            for y in range(0, 11)
            if x * x + y * y == n
        )
        assert dense[n] == count, n


def test_two_squares_window():
    w = sq.sieve(sq.SumTwoSquares(), 1, 10)
    assert list(w.support) == [1, 2, 4, 5, 8, 9, 10]
    assert sq.count_A(w) == 7
    big = sq.sieve(sq.SumTwoSquares(), 1, 2000)
    dense = sq.dense_weights(big)
    for n in range(1, 2001):
        assert bool(dense[n]) == brute_two_squares(n), n


def test_rough_window():
    w = sq.sieve(sq.Rough(5), 1, 30)
    assert list(w.support) == [1, 5, 7, 11, 13, 17, 19, 23, 25, 29]
    assert sq.count_A(w) == 10


def test_ktuple_window():
    kind = sq.KTupleWeight(TWIN)
    w = sq.sieve(kind, 1, 50)
    dense = sq.dense_weights(w)
    for n in range(1, 51):
        expected = von_mangoldt(n) * von_mangoldt(n + 2)
        assert dense[n] == pytest.approx(expected, abs=1e-12), n
    # twin pairs give the bulk of the support
    assert dense[3] == pytest.approx(math.log(3) * math.log(5))
    assert dense[6] == 0


def test_ktuple_with_coefficients():
    h = KTuple(((2, 1), (4, 1)))
    w = sq.sieve(sq.KTupleWeight(h), 1, 200)
    dense = sq.dense_weights(w)
    for n in range(1, 201):
        expected = von_mangoldt(2 * n + 1) * von_mangoldt(4 * n + 1)
        assert dense[n] == pytest.approx(expected, abs=1e-12), n


def test_family_named_builds_from_text_or_values():
    # the one builder: text goes through the family's parse, built values pass
    triple = KTuple(((1, 0), (1, 2), (1, 6)))
    for name, field, text, value in (("quadform", "form", "1,0,1", BinaryQuadraticForm(1, 0, 1)),
                                     ("ktuple", "tuple", "1,0;1,2;1,6", triple),
                                     ("rough", "y", "5", 5)):
        built = sq.family_named(name, **{field: value})
        assert sq.family_named(name, **{field: text}) == built
        assert sq.family_named(name, **{field: text}, a=1, nosuch="x") == built
        with pytest.raises(DomainError, match=f"needs its {field}"):
            sq.family_named(name)
        with pytest.raises(DomainError, match=f"needs its {field}"):
            sq.family_named(name, **{field: None})
    assert sq.family_named("primes", form="1,0,1", y="x") == sq.PrimesLambda()
    assert sq.family_named("twin", tuple="1,x") == sq.KTupleWeight(TWIN)
    for name, field, text in (("quadform", "form", "a,b,c"), ("quadform", "form", "1,0"),
                              ("quadform", "form", "1,0,1,2"), ("quadform", "form", "1.5,0,1"),
                              ("ktuple", "tuple", "1,x;1,2"), ("ktuple", "tuple", "1;2"),
                              ("ktuple", "tuple", "1,0;1,2,3"), ("rough", "y", "x"),
                              ("rough", "y", "5.0")):
        with pytest.raises(DomainError):
            sq.family_named(name, **{field: text})
    with pytest.raises(DomainError, match="unknown family"):
        sq.family_named("nosuch", y=5)


def test_sieve_refuses_non_integer_bounds(monkeypatch):
    # 1e4 once reached numpy and failed there with a TypeError
    want = sq.sieve(sq.PrimesLambda(), 1, 10**4)
    got = sq.sieve(sq.PrimesLambda(), np.int64(1), np.uint16(10**4))
    assert got.weights.tobytes() == want.weights.tobytes()

    def no_window(*args):
        raise AssertionError("sieved a non-integer window")

    monkeypatch.setattr(sq.PrimesLambda, "window", no_window)
    for lo, hi in ((1, 1e4), (1.0, 10**4), (1, 10**4 - 0.5)):
        with pytest.raises(DomainError):
            sq.sieve(sq.PrimesLambda(), lo, hi)


def test_window_validation():
    with pytest.raises(DomainError):
        sq.sieve(sq.PrimesLambda(), 0, 10)
    with pytest.raises(DomainError):
        sq.sieve(sq.PrimesLambda(), 10, 5)
    with pytest.raises(ResourceError):
        sq.sieve(sq.PrimesLambda(), 1, sq.MAX_TABLE_LIMIT + 1)
    with pytest.raises(ResourceError):
        sq.sieve(sq.PrimesLambda(), 1, sq.MAX_WINDOW + 5)
    with pytest.raises(DomainError):
        sq.Rough(1)
    with pytest.raises(DomainError):
        sq.KTupleWeight(KTuple(((1, 0), (1, 1))))


def test_partial_window_matches_full():
    for kind in [sq.PrimesLambda(), sq.SumTwoSquares(), sq.Rough(7)]:
        full = sq.sieve(kind, 1, 3000)
        lo = sq.sieve(kind, 1, 1399)
        hiw = sq.sieve(kind, 1400, 3000)
        merged = np.concatenate([lo.support, hiw.support])
        assert np.array_equal(full.support, merged)
        assert np.allclose(
            full.weights, np.concatenate([lo.weights, hiw.weights]), rtol=0, atol=0
        )


def test_partition_invariant():
    x = 10**5
    lam = sq.sieve(sq.PrimesLambda(), 1, x)
    ts = sq.sieve(sq.SumTwoSquares(), 1, x)
    for q in [1, 2, 3, 10, 97, 100]:
        total = math.fsum(sq.count_Aqa(lam, q, a) for a in range(1, q + 1))
        assert abs(total - sq.count_A(lam)) < 1e-9 * sq.count_A(lam)
        assert sum(sq.count_Aqa(ts, q, a) for a in range(1, q + 1)) == sq.count_A(ts)


def test_count_Ad_equals_residue_zero():
    w = sq.sieve(sq.SumTwoSquares(), 1, 10**4)
    for d in [1, 2, 3, 5, 9, 12]:
        assert sq.count_Ad(w, d) == sq.count_Aqa(w, d, d)  # d mod d == 0


def test_count_A_upto():
    w = sq.sieve(sq.SumTwoSquares(), 1, 1000)
    assert sq.count_A_upto(w, 10) == 7
    assert sq.count_A_upto(w, 1000) == sq.count_A(w)
    assert sq.count_A_upto(w, 0) == 0


def test_dense_weights_narrow_integer_windows_only():
    # windows keep int64 and float64; only the dense array narrows, and the
    # counts over it stay exact in int64
    ts = sq.sieve(sq.SumTwoSquares(), 1, 1000)
    lam = sq.sieve(sq.PrimesLambda(), 1, 1000)
    heavy = sq.SievedWindow("heavy", 1, 10, np.array([2, 7]), np.array([1, 300]))
    assert ts.weights.dtype == heavy.weights.dtype == np.int64
    assert sq.dense_weights(ts).dtype == np.uint8
    assert sq.dense_weights(sq.sieve(sq.QuadFormMult(X2Y2), 1, 1000)).dtype == np.uint8
    assert sq.dense_weights(heavy).dtype == np.uint16 and sq.dense_weights(heavy)[7] == 300
    assert sq.dense_weights(lam).dtype == np.float64
    empty = sq.SievedWindow("empty", 1, 5, np.array([], np.int64), np.array([], np.int64))
    assert sq.dense_weights(empty).dtype == np.uint8
    assert sq._reduce(np.ones(300, dtype=np.uint8)) == 300
    assert type(sq._reduce(sq.dense_weights(ts))) is int


def _as_fsum(values: np.ndarray):
    """array_fsum(values) returns what math.fsum returns, by repr, or raises
    what it raises."""
    try:
        want = math.fsum(values.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            sq.array_fsum(values)
        return
    assert repr(sq.array_fsum(values)) == repr(want), values


def test_array_fsum_random_exponents(monkeypatch):
    rng = np.random.default_rng(1)

    def spread(n):
        return rng.standard_normal(n) * np.exp2(rng.integers(-1000, 1001, n).astype(np.float64))

    for n in (1, 2, 3, 17, 1000):
        for _ in range(20):
            _as_fsum(spread(n))
    # more than one block, at the real block size and at a small one
    _as_fsum(spread(sq._FSUM_BLOCK + 1000))
    monkeypatch.setattr(sq, "_FSUM_BLOCK", 16)
    for n in (15, 16, 17, 100, 1000):
        for _ in range(20):
            _as_fsum(spread(n))


def test_array_fsum_cancellation_and_ties(monkeypatch):
    rng = np.random.default_rng(2)
    for block in (sq._FSUM_BLOCK, 7):
        monkeypatch.setattr(sq, "_FSUM_BLOCK", block)
        for _ in range(30):
            big = rng.standard_normal(200) * 10.0 ** rng.integers(-20, 300, 200)
            small = rng.standard_normal(5) * 10.0 ** rng.integers(-300, 0, 5)
            _as_fsum(rng.permutation(np.concatenate([big, -big, small])))
        for values in (
            [1e100, 1.0, -1e100],
            [1.0, 2.0**-53],  # a tie, to even: 1.0
            [1.0 + 2.0**-52, 2.0**-53],  # a tie, to even: up
            [1.0, 2.0**-53, 2.0**-106],  # just past the tie: up
            [1.0, 2.0**-53, -(2.0**-106)],
            [-1.0, -(2.0**-53), 1e-300, -1e-300],
            [2.0**60, 1.0, -(2.0**60), 2.0**-60],
        ):
            _as_fsum(np.array(values))


def test_array_fsum_zeros_and_subnormals():
    rng = np.random.default_rng(3)
    tiny = 2.0**-1074
    for values in ([], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.5, -1.5], [tiny] * 7):
        _as_fsum(np.array(values, dtype=np.float64))
    for _ in range(30):
        _as_fsum(rng.integers(-(2**52), 2**52, 50) * tiny)
        mixed = [rng.integers(-9, 9, 20) * tiny, rng.standard_normal(3) * 2.0**-1000]
        _as_fsum(np.concatenate(mixed))


def test_array_fsum_specials_and_overflow():
    inf, nan, big = math.inf, math.nan, 1e308
    for values in (
        [nan], [1.0, nan], [inf], [1.0, -inf], [inf, inf], [inf, -inf], [nan, inf],
        [big, big],  # overflows
        [big, big, -big],  # finite total, but fsum overflows on the way
        [big, -big, 1.0],  # no overflow: 1.0
        [8.98e307, 8.98e307],  # below the largest float
        [1.7976931348623157e308, 1e292],  # rounds to infinity: fsum raises
    ):
        _as_fsum(np.array(values))


def test_Ad_identity_two_squares():
    kind = sq.SumTwoSquares()
    for d in [1, 2, 3, 4, 6, 9, 21, 49, 100]:
        ok, lhs, rhs = sq.check_Ad_identity(kind, 10**4, d)
        assert ok, (d, lhs, rhs)


def test_Ad_identity_rough():
    kind = sq.Rough(5)
    for d in [1, 5, 7, 11, 35, 49, 2, 10]:
        ok, lhs, rhs = sq.check_Ad_identity(kind, 10**4, d)
        assert ok, (d, lhs, rhs)
    # d = 2 has a small factor: both sides must vanish
    ok, lhs, rhs = sq.check_Ad_identity(kind, 10**4, 2)
    assert ok and lhs == 0 and rhs == 0


def test_Ad_identity_refuses_lambda():
    with pytest.raises(UnsupportedError):
        sq.check_Ad_identity(sq.PrimesLambda(), 100, 3)


def test_cache_roundtrip(tmp_path):
    for kind in [sq.PrimesLambda(), sq.SumTwoSquares(), sq.QuadFormMult(X2Y2)]:
        w = sq.sieve(kind, 1, 5000)
        path = tmp_path / f"{w.kind_label}.bin"
        sq.save_window(w, str(path))
        back = sq.load_window(str(path))
        assert back.kind_label == w.kind_label
        assert (back.lo, back.hi) == (w.lo, w.hi)
        assert np.array_equal(back.support, w.support)
        assert back.weights.dtype == w.weights.dtype
        assert np.array_equal(back.weights, w.weights)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    sq.save_window(sq.sieve(sq.SumTwoSquares(), 1, 1000), str(path))
    data = path.read_bytes()
    flag = 12 + len("two_squares") + 24  # the weight-type byte: 0 int64, 1 float64
    assert data[flag] == 0
    # not a cache, two headers cut short, a record missing, 16 bytes too many,
    # a weight-type byte that is neither 0 nor 1
    for bad in (b"not a cache at all", data[:5], data[:20], data[:-8], data + bytes(16),
                data[:flag] + b"\x02" + data[flag + 1 :], data[:flag] + b"\xff" + data[flag + 1 :]):
        path.write_bytes(bad)
        with pytest.raises(DomainError):
            sq.load_window(str(path))


def save_window_by_tobytes(window, path):
    """save_window as a header from struct and the records from tobytes copies,
    the writer it had before writing the arrays in place."""
    label = window.kind_label.encode("utf-8")
    float_weights = window.weights.dtype != np.int64
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", b"DLSW", 1, len(label)) + label)
        fh.write(struct.pack("<qqQB", window.lo, window.hi, len(window.support), int(float_weights)))
        fh.write(window.support.astype("<i8").tobytes())
        fh.write(window.weights.astype("<f8" if float_weights else "<i8").tobytes())


def test_cache_same_bytes_as_tobytes_writer(tmp_path):
    windows = [sq.sieve(sq.SumTwoSquares(), 17, 54321), sq.sieve(sq.PrimesLambda(), 1, 10**5),
               sq.sieve(sq.KTupleWeight(TWIN), 999, 1000)]  # int64, float64, empty
    for w in windows:
        got, want = tmp_path / "got.bin", tmp_path / "want.bin"
        sq.save_window(w, str(got))
        save_window_by_tobytes(w, str(want))
        assert got.read_bytes() == want.read_bytes(), w.kind_label
        back = sq.load_window(str(got))
        assert same_bytes((back.support, back.weights), (w.support, w.weights))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["got.bin", "want.bin"]


class _FailingWrite(np.ndarray):
    """Weights whose write raises, after the header and support are out."""

    def tofile(self, *args, **kwargs):
        raise OSError("disk full")

    tobytes = tofile


def test_save_window_interrupted_keeps_the_earlier_cache(tmp_path):
    path = tmp_path / "two_squares.sieve"
    sq.save_window(sq.sieve(sq.SumTwoSquares(), 1, 1000), str(path))
    before = path.read_bytes()
    w = sq.sieve(sq.PrimesLambda(), 1, 10**4)
    failing = sq.SievedWindow(w.kind_label, 1, 10**4, w.support, w.weights.view(_FailingWrite))
    with pytest.raises(OSError, match="disk full"):
        sq.save_window(failing, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_dense_weights_prefix_matches_mask():
    w = sq.sieve(sq.SumTwoSquares(), 17, 54321)
    lam = sq.sieve(sq.PrimesLambda(), 17, 54321)
    for window in (w, lam):
        at = int(window.support[100])
        for size in (10, 17, 22, 1000, at, at + 1, window.hi - 1, window.hi, window.hi + 5):
            keep = window.support <= size
            want = np.zeros(size + 1, dtype=sq.dense_weights(window).dtype)
            want[window.support[keep]] = window.weights[keep]
            assert same_bytes([sq.dense_weights(window, size)], [want]), size
    # 22 lies between the support points 20 and 25 of two_squares
    assert list(w.support[2:4]) == [20, 25]


def test_dense_weights_fills_a_sub_range_in_place():
    # lo at, between and around support points, and a buffer reused from a
    # longer fill: every fill is the whole array's [lo, size], in its dtype
    w = sq.sieve(sq.SumTwoSquares(), 17, 54321)
    lam = sq.sieve(sq.PrimesLambda(), 17, 54321)
    for window in (w, lam):
        whole = sq.dense_weights(window)
        at = int(window.support[100])
        buf = sq.dense_weights(window, 9999, lo=0)
        bounds = [(0, 10), (17, 22), (20, 25), (21, 24), (at, at), (at + 1, at + 5000)]
        bounds += [(at - 3, at + 9000), (window.hi - 9999, window.hi), (window.hi, window.hi + 5)]
        for lo, size in bounds:
            want = np.zeros(size - lo + 1, dtype=whole.dtype)
            inside = whole[lo : size + 1]
            want[: len(inside)] = inside
            assert same_bytes([sq.dense_weights(window, size, lo=lo)], [want]), (lo, size)
            got = sq.dense_weights(window, size, lo=lo, out=buf)
            assert same_bytes([got], [want]) and np.shares_memory(got, buf), (lo, size)
        with pytest.raises(ConfigurationError):
            sq.dense_weights(window, 10**4, lo=0, out=buf)
        with pytest.raises(ConfigurationError):
            sq.dense_weights(window, 10, lo=0, out=buf.astype(np.int64))


def test_dense_weights_fills_a_plane_at_step_2():
    # step 2 holds the n of lo's parity, whatever it is: every other entry of
    # the step-1 fill, in a fresh array or a reused buffer
    w = sq.sieve(sq.SumTwoSquares(), 17, 54321)
    lam = sq.sieve(sq.PrimesLambda(), 17, 54321)
    for window in (w, lam):
        at = int(window.support[100])
        buf = sq.dense_weights(window, 9999, lo=0, step=2)
        for lo, size in ((0, 10), (17, 22), (20, 25), (21, 24), (at, at), (at + 1, at + 5000),
                         (at - 3, at + 9000), (window.hi - 9999, window.hi)):
            want = sq.dense_weights(window, size, lo=lo)[::2]
            assert same_bytes([sq.dense_weights(window, size, lo=lo, step=2)], [want]), (lo, size)
            got = sq.dense_weights(window, size, lo=lo, out=buf, step=2)
            assert same_bytes([got], [want]) and np.shares_memory(got, buf), (lo, size)
        assert len(sq.dense_weights(window, 40, lo=41, step=2)) == 0
        with pytest.raises(ConfigurationError):
            sq.dense_weights(window, 2 * 10**4 + 2, lo=0, out=buf, step=2)


def test_sieved_window_refuses_bad_support_and_weights():
    ok = np.array([2, 3, 5]), np.array([1, 1, 1])
    sq.SievedWindow("ok", 1, 10, *ok)
    for support, weights in (
        (np.array([2, 3, 3]), ok[1]),  # repeated
        (np.array([2, 5, 3]), ok[1]),  # decreasing
        (ok[0], np.array([1, 0, 1])),  # a zero weight
        (ok[0], np.array([1.0, -0.5, 1.0])),
    ):
        with pytest.raises(DomainError):
            sq.SievedWindow("bad", 1, 10, support, weights)
