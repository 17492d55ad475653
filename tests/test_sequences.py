import math

import numpy as np
import pytest

from disclab.errors import DomainError, ResourceError, UnsupportedError
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
