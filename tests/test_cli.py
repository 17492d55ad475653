import io
import json
import math
import os
import sys

import pytest

from disclab import bias, cli
from disclab import ktuples as kt
from disclab.quadform import BinaryQuadraticForm


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_predict_primes_a1(capsys):
    code, out = run(capsys, "predict", "--family", "primes", "--a", "1", "--M", "100")
    assert code == 0
    assert "value = -2.30258509299" in out
    assert "logM_exponent = 1" in out
    assert "class = leading" in out


def test_predict_twin_shift(capsys):
    code, out = run(capsys, "predict", "--family", "twin", "--a", "-1", "--M", "100")
    assert code == 0
    assert "value = %.12g" % (-math.log(100.0) ** 2 / 4) in out
    assert "conditional_on = Hardy-Littlewood" in out
    # any tuple through --tuple, the ktuple family's field
    code, out = run(capsys, "predict", "--family", "ktuple", "--tuple", "1,0;1,2;1,6",
                    "--a", "-1", "--M", "100")
    triple = kt.KTuple(((1, 0), (1, 2), (1, 6)))
    want = bias.predict_example("ktuple", -1, 100.0, tuple=triple).leading_value
    assert code == 0
    assert "value = %.12g" % want in out and "logM_exponent = 2" in out


def test_predict_quadform_form(capsys):
    # --form text is the form predict_example is given built
    code, out = run(capsys, "predict", "--family", "quadform", "--form", "1,0,1",
                    "--a", "1", "--M", "100")
    form = BinaryQuadraticForm(1, 0, 1)
    want = bias.predict_example("quadform", 1, 100.0, form=form).leading_value
    assert code == 0
    assert "value = %.12g" % want in out and "logM_exponent = 0" in out


def test_predict_bounded_class(capsys):
    code, out = run(capsys, "predict", "--family", "primes", "--a", "30", "--M", "100")
    assert code == 0
    assert "value = 0" in out
    assert "class = bounded" in out
    code, out = run(capsys, "predict", "--family", "rough", "--y", "5", "--x", "1000000000",
                    "--a", "7", "--M", "1e6")
    assert code == 0
    assert "value = 0" in out and "class = bounded" in out
    # --x takes a float spelling of a whole number; the manifest is the same
    code, short = run(capsys, "predict", "--family", "rough", "--y", "5", "--x", "1e9",
                      "--a", "7", "--M", "1e6")
    assert code == 0 and short == out


def test_manifest_is_deterministic(capsys):
    _, out1 = run(capsys, "predict", "--family", "primes", "--a", "1", "--M", "100")
    _, out2 = run(capsys, "predict", "--family", "primes", "--a", "1", "--M", "100")
    assert out1.splitlines()[0] == out2.splitlines()[0]
    assert out1.splitlines()[0].startswith("manifest ")
    # every parameter is in the manifest, so different runs differ
    _, out1 = run(capsys, "quadform", "--form", "1,0,1", "--a", "13", "--q", "300")
    _, out2 = run(capsys, "quadform", "--form", "2,1,3", "--a", "5", "--q", "7")
    assert out1.splitlines()[0] != out2.splitlines()[0]
    assert "form=1,0,1" in out1.splitlines()[0] and "q=300" in out1.splitlines()[0]


def test_usage_errors_exit_2(capsys):
    code, _ = run(capsys, "predict", "--family", "primes", "--a", "1")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--family", "nosuch", "--a", "1", "--M", "10"])
    assert exc.value.code == 2
    code, _ = run(capsys, "predict", "--family", "two_squares", "--a", "3", "--M", "10", "--x", "1000")
    assert code == 2  # dyadic route only covers a = 1 mod 4
    code, _ = run(capsys, "predict", "--family", "quadform", "--a", "1", "--M", "10")
    assert code == 2  # the quadform family needs its --form
    # missing or malformed family text, on every subcommand that takes it
    for command in (["discrepancy", "--kind", "quadform", "--a", "1", "--x", "1000", "--M", "10"],
                    ["discrepancy", "--kind", "quadform", "--form", "a,b,c",
                     "--a", "1", "--x", "1000", "--M", "10"],
                    ["predict", "--family", "ktuple", "--tuple", "1,x;1,2",
                     "--a", "1", "--M", "10"],
                    ["quadform", "--form", "a,b,c", "--a", "1", "--q", "7"]):
        code, _ = run(capsys, *command)
        assert code == 2, command
    for M in ("nan", "inf"):
        code, _ = run(capsys, "predict", "--family", "primes", "--a", "1", "--M", M)
        assert code == 2
        code, _ = run(capsys, "discrepancy", "--kind", "primes", "--a", "1", "--x", "10000", "--M", M)
        assert code == 2
    for command in (["predict", "--family", "primes", "--a", "1", "--M", "10"],
                    ["discrepancy", "--kind", "primes", "--a", "1", "--M", "10"],
                    ["s5", "--kind", "primes", "--a", "1", "--M", "10", "--R", "100"],
                    ["sieve-cache", "--kind", "primes"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--x", "1.5"])
        assert exc.value.code == 2


def test_resource_exit_3(capsys):
    code, _ = run(capsys, "discrepancy", "--kind", "primes", "--a", "1",
                  "--x", "70000000", "--M", "10")
    assert code == 3


def test_discrepancy_writes_csv(tmp_path, capsys):
    out_path = str(tmp_path / "r.csv")
    code, out = run(capsys, "discrepancy", "--kind", "primes", "--a", "1",
                    "--x", "10000", "--M", "10", "--filter", "a", "--out", out_path)
    assert code == 0
    assert f"report written: {out_path}" in out
    lines = open(out_path).read().splitlines()
    assert lines[0] == ("config_hash,kind,a,x,M,mode,coprime_filter,empirical_sum,"
                        "normalized_avg,predicted,ratio,q_count,runtime_ms")
    assert len(lines) == 2
    assert lines[1].split(",")[1:7] == ["primes", "1", "10000", "10", "full", "a"]


def test_discrepancy_json_and_no_out(tmp_path, capsys):
    out_path = str(tmp_path / "r.json")
    code, _ = run(capsys, "discrepancy", "--kind", "two_squares", "--a", "5",
                  "--x", "10000", "--M", "10", "--mode", "dyadic", "--out", out_path)
    assert code == 0
    data = json.loads(open(out_path).read())
    assert data["provenance"]["kind"] == "two_squares"
    code, out = run(capsys, "discrepancy", "--kind", "two_squares", "--a", "5",
                    "--x", "10000", "--M", "10", "--mode", "dyadic")
    assert code == 0 and "normalized_avg" in out


def test_discrepancy_says_why_no_prediction(capsys):
    args = ["discrepancy", "--kind", "two_squares", "--x", "10000", "--M", "10"]
    # (none, dyadic) is a two_squares route, whose closed form refuses a = 3
    code, out = run(capsys, *args, "--a", "3", "--mode", "dyadic")
    assert code == 0
    assert "predicted = - (need a = 1 mod 4, got 3)" in out
    # full mode is not
    code, out = run(capsys, *args, "--a", "5")
    assert code == 0
    assert "predicted = - (no closed form for this mode/filter combination)" in out


def test_config_file_defaults_and_flag_priority(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[defaults]\nkind = primes\na = 1\nx = 10000\nM = 10\n")
    code, out = run(capsys, "--config", str(ini), "discrepancy", "--M", "50")
    assert code == 0
    first = out.splitlines()[0]
    assert "M=50" in first and "x=10000" in first and "kind=primes" in first
    # keys keep their case, so M and R come from the file too; '%' is literal
    report = tmp_path / "r%1.csv"
    ini.write_text(ini.read_text() + f"out = {report}\n")
    code, out = run(capsys, "--config", str(ini), "discrepancy")
    assert code == 0
    assert "M=10 " in out.splitlines()[0] and report.exists()
    ini.write_text("[defaults]\nkind = primes\na = 1\nx = 1000000\nM = 20\nR = 100\n")
    code, out = run(capsys, "--config", str(ini), "s5")
    assert code == 0
    assert "M=20 R=100 " in out.splitlines()[0] and "S5 = " in out
    # a switch reads as a boolean
    for text, brute in (("yes", True), ("false", False)):
        ini.write_text(f"[defaults]\nbrute = {text}\n")
        code, out = run(capsys, "--config", str(ini), "quadform", "--form", "1,0,1",
                        "--a", "5", "--q", "36")
        assert code == 0
        assert f"brute={brute} " in out.splitlines()[0]
        assert ("match = True" in out) == brute
    code, _ = run(capsys, "--config", str(tmp_path / "absent.ini"),
                  "discrepancy", "--M", "50")
    assert code == 2


def test_config_values_checked_against_choices(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    # s5 offers no ktuple kind, so the file may not pick one
    ini.write_text("[defaults]\nkind = ktuple\n")
    code = cli.main(["--config", str(ini), "s5", "--a", "1", "--M", "10",
                     "--R", "100", "--x", "100000"])
    err = capsys.readouterr().err
    assert code == 2
    assert "kind = 'ktuple'" in err and "--tuple" not in err
    ini.write_text("[defaults]\nmode = half\n")
    code = cli.main(["--config", str(ini), "discrepancy", "--kind", "primes",
                     "--a", "1", "--x", "10000", "--M", "10"])
    assert code == 2
    assert "mode = 'half'" in capsys.readouterr().err
    # a value its flag's type does not parse, and a file with no section,
    # exit 2 instead of raising
    for text, named in (("[defaults]\na = abc\n", "a = 'abc'"),
                        ("a = 1\n", "no section headers")):
        ini.write_text(text)
        code = cli.main(["--config", str(ini), "discrepancy", "--kind", "primes",
                         "--x", "10000", "--M", "10"])
        assert code == 2
        assert named in capsys.readouterr().err


def test_threads_below_one_refused(capsys):
    for threads in ("0", "-3"):
        code, out = run(capsys, "discrepancy", "--kind", "primes", "--a", "1",
                        "--x", "10000", "--M", "10", "--threads", threads)
        assert code == 2
        assert "q_count" not in out


def test_malformed_cache_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DISCLAB_CACHE_DIR", str(tmp_path))
    # a header cut after its first 20 bytes
    (tmp_path / "two_squares.x1000.sieve").write_bytes(b"DLSW\x01\0\0\0\x0b\0\0\0two_squa")
    code, out = run(capsys, "discrepancy", "--kind", "two_squares", "--a", "5",
                    "--x", "1000", "--M", "10", "--mode", "dyadic")
    assert code == 2
    assert "q_count" not in out


def test_sieve_cache_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DISCLAB_CACHE_DIR", str(tmp_path))
    code, out = run(capsys, "sieve-cache", "--kind", "two_squares", "--x", "20000")
    assert code == 0 and "cache written:" in out
    assert os.path.exists(tmp_path / "two_squares.x20000.sieve")
    code, cached = run(capsys, "discrepancy", "--kind", "two_squares", "--a", "5",
                       "--x", "20000", "--M", "10", "--mode", "dyadic")
    monkeypatch.delenv("DISCLAB_CACHE_DIR")
    code2, fresh = run(capsys, "discrepancy", "--kind", "two_squares", "--a", "5",
                       "--x", "20000", "--M", "10", "--mode", "dyadic")
    pick = lambda text: [l for l in text.splitlines() if l.startswith(("empirical", "normalized"))]
    assert pick(cached) == pick(fresh)


def test_cached_window_must_end_at_x(tmp_path, capsys, monkeypatch):
    # a [1, 2x] window saved under x's cache name is not read as x's: the run
    # sieves [1, x] afresh and reports what a run without a cache reports
    from disclab import sequences as sq

    x = 2000
    argv = ("discrepancy", "--kind", "two_squares", "--a", "5", "--x", str(x), "--M", "10",
            "--mode", "dyadic")
    code, fresh = run(capsys, *argv)
    kind = sq.SumTwoSquares()
    sq.save_window(sq.sieve(kind, 1, 2 * x), str(tmp_path / f"two_squares.x{x}.sieve"))
    monkeypatch.setenv("DISCLAB_CACHE_DIR", str(tmp_path))
    sieved = []
    sieve = sq.sieve
    monkeypatch.setattr(sq, "sieve", lambda *args: sieved.append(args[1:]) or sieve(*args))
    code, cached = run(capsys, *argv)
    assert code == 0 and sieved == [(1, x)]
    pick = lambda text: [l for l in text.splitlines() if l.startswith(("empirical", "normalized"))]
    assert pick(cached) == pick(fresh)
    # a window that ends at x is read, and nothing is sieved
    sq.save_window(sieve(kind, 1, x), str(tmp_path / f"two_squares.x{x}.sieve"))
    code, cached = run(capsys, *argv)
    assert code == 0 and sieved == [(1, x)]
    assert pick(cached) == pick(fresh)


def test_refused_shift_exits_2_before_any_window(tmp_path, capsys, monkeypatch):
    # x^2 + y^2 has no density at even a, 2x^2 + xy + 3y^2 (d = -23) none at
    # a = 23: both are refused with exit 2 before any sieve or cache load
    from disclab import sequences as sq

    def no_window(*args):
        raise AssertionError("a window was sieved or loaded for a refused shift")

    (tmp_path / "quadform_1_0_1.x1000.sieve").write_bytes(b"")
    monkeypatch.setenv("DISCLAB_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(sq, "sieve", no_window)
    monkeypatch.setattr(sq, "load_window", no_window)
    for form, a in (("1,0,1", "2"), ("1,0,1", "-4"), ("2,1,3", "23")):
        code = cli.main(["discrepancy", "--kind", "quadform", "--form", form, "--a", a,
                         "--x", "1000", "--M", "10"])
        captured = capsys.readouterr()
        assert code == 2 and "shares the prime" in captured.err, (form, a)
        assert "q_count" not in captured.out


def test_s5_command(capsys):
    code, out = run(capsys, "s5", "--kind", "primes", "--a", "1", "--M", "20",
                    "--R", "100", "--x", "1000000")
    assert code == 0
    assert "S5 = " in out and "ratio = " in out
    lines = dict(l.split(" = ", 1) for l in out.splitlines()[1:])
    assert lines["secondary"] == "%.12g" % -bias.C5
    expected = bias.predict_s5("primes", 1, 20.0, 100.0)
    assert lines["predicted"] == "%.12g" % expected
    residual = float(lines["residual"])
    assert residual == pytest.approx(float(lines["S5"]) * 20.0 - expected, abs=1e-9)
    assert abs(residual) < 0.03
    code, out = run(capsys, "s5", "--kind", "primes", "--a", "3", "--M", "20",
                    "--R", "100", "--x", "1000000")
    assert code == 0
    assert "ratio = " in out and "predicted = " not in out


def test_s5_refuses_families_without_mu_k_up_front(capsys):
    for kind in (["--kind", "two_squares"], ["--kind", "quadform", "--form", "1,0,1"]):
        code, out = run(capsys, "s5", *kind, "--a", "5", "--M", "10",
                        "--R", "1000", "--x", "100000000")
        assert code == 2
        assert "S_R =" not in out


def test_quadform_command(capsys):
    code, out = run(capsys, "quadform", "--form", "1,0,1", "--a", "5", "--q", "36", "--brute")
    assert code == 0
    assert "R_a(q) = 96" in out and "match = True" in out


def test_verify_command(capsys):
    code, out = run(capsys, "verify", "ktuples")
    assert code == 0
    assert "0 failing cases" in out
    assert "modified_tuple_nu_identity" in out


def _broken_pipe(*_):
    raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("method", ["write", "flush"])
def test_closed_stdout_exits_quietly(capsys, monkeypatch, method):
    # the reader of stdout has gone (`| head`): unbuffered output fails on
    # write, block-buffered output only when flushed
    out = io.StringIO()
    setattr(out, method, _broken_pipe)
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["verify", "ktuples"]) == 141
    assert capsys.readouterr().err == ""


def test_refusals_print_no_result(capsys):
    # the brute count's cap is refused before the closed form is printed
    code, out = run(capsys, "quadform", "--form", "1,0,1", "--a", "5", "--q", "6001", "--brute")
    assert code == 2 and "R_a(q)" not in out
    # a filter the family does not take is refused when the run's config is built
    code = cli.main(["discrepancy", "--kind", "primes", "--a", "1", "--x", "10000",
                     "--M", "10", "--filter", "P"])
    captured = capsys.readouterr()
    assert code == 2 and "q_count" not in captured.out
    assert "primes runs need coprime_filter='none' or 'a'" in captured.err
