import io
import json
import math
import os
import sys

import pytest

from disclab import bias, cli


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


def test_predict_bounded_class(capsys):
    code, out = run(capsys, "predict", "--family", "primes", "--a", "30", "--M", "100")
    assert code == 0
    assert "value = 0" in out
    assert "class = bounded" in out


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
