import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trigonal import cli
from trigonal.cli import BENCH_HEADER, main
from trigonal.errors import LiftingFailed
from trigonal.curve import write_curve_file
from trigonal.poly import poly_str


def run_cli(args):
    """Run the CLI in-process, capturing stdout; returns (status, text)."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(args)
    return status, buf.getvalue()


def run_subprocess(args, timeout=60):
    """Run ``python -m trigonal.cli`` with ``args`` in a child process that
    finds the package in src, as this process does through conftest.py,
    whether or not the caller set PYTHONPATH.  A child that outlives
    ``timeout`` seconds fails the test instead of hanging the suite."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "trigonal.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def assert_typed_rejection(proc, message):
    assert proc.returncode == 2
    assert "error:" in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_decide_veronese_exit_zero(tmp_path, fermat_quintic):
    path = tmp_path / "quintic.curve"
    path.write_text("f = x^5 + y^5 + z^5\n")
    status, out = run_cli(["decide", str(path), "--seed", "3"])
    assert status == 0
    data = json.loads(out)
    assert data["case"] == "Veronese" and data["trigonal"] is False


def test_decide_trigonal_exit_zero(tmp_path, proj5):
    path = tmp_path / "proj5.curve"
    path.write_text(write_curve_file(proj5))
    jf = tmp_path / "report.json"
    status, out = run_cli(["decide", str(path), "--seed", "3",
                           "--json-out", str(jf)])
    assert status == 0
    data = json.loads(out)
    assert data["trigonal"] is True and data["verified_degree"] == 3
    assert json.loads(jf.read_text()) == data


def test_decide_cusp_exit_two(tmp_path):
    path = tmp_path / "cusp.curve"
    path.write_text("f = y^2*z - x^3\n")
    status, _ = run_cli(["decide", str(path)])
    assert status == 2


def test_decide_four_lines_exit_two(tmp_path, capsys):
    for field in ("Q", "Fp 101"):
        path = tmp_path / "lines.curve"
        path.write_text(f"f = x^2*y*z + x*y^2*z + x*y*z^2\nfield = {field}\n")
        status, _ = run_cli(["decide", str(path)])
        assert status == 2
        assert "negative genus" in capsys.readouterr().err


def test_decide_low_genus_exit_two(tmp_path):
    path = tmp_path / "cubic.curve"
    path.write_text("f = x^3 + y^3 + z^3\n")
    status, _ = run_cli(["decide", str(path)])
    assert status == 2


def test_decide_hyperelliptic_exit_two(tmp_path, hyper5):
    path = tmp_path / "hyper.curve"
    path.write_text(write_curve_file(hyper5))
    status, _ = run_cli(["decide", str(path)])
    assert status == 2


def test_decide_over_prime_fields(tmp_path, sqrt2_sextic):
    path = tmp_path / "klein.curve"
    path.write_text("f = x^3*y + y^3*z + z^3*x\nfield = Fp 10007\n")
    status, out = run_cli(["decide", str(path)])
    assert status == 0
    assert json.loads(out)["case"] == "Genus3"
    # its two nodes lie over F_{149^2}, so the singular locus is not rational
    path = tmp_path / "sqrt2.curve"
    path.write_text(f"f = {poly_str(sqrt2_sextic)}\nfield = Fp 149\n")
    status, _ = run_cli(["decide", str(path)])
    assert status == 2


def test_decide_over_a_strong_pseudoprime_exits_two(tmp_path, capsys):
    # 3317044064679887385961981 passes Miller-Rabin to every base 2-41; the
    # ring of integers mod it is not a field
    path = tmp_path / "pseudo.curve"
    path.write_text("f = x^3*y + y^3*z + z^3*x\nfield = Fp 3317044064679887385961981\n")
    status, out = run_cli(["decide", str(path)])
    assert status == 2 and not out
    assert "not an odd prime" in capsys.readouterr().err


def test_decide_parse_error_exit_two(tmp_path):
    path = tmp_path / "bad.curve"
    path.write_text("f = x^4 + w^4\n")
    status, _ = run_cli(["decide", str(path)])
    assert status == 2


def test_decide_with_point_flag(tmp_path, klein):
    path = tmp_path / "klein.curve"
    path.write_text("f = x^3*y + y^3*z + z^3*x\n")
    status, out = run_cli(["decide", str(path), "--point", "0:0:1"])
    assert status == 0
    data = json.loads(out)
    assert data["case"] == "Genus3" and data["verified_degree"] == 3


def test_decide_echoes_the_validated_point(tmp_path):
    """The report's input point is the curve's validated base point, so a
    --point that is not normalized is echoed normalized."""
    path = tmp_path / "klein.curve"
    path.write_text("f = x^3*y + y^3*z + z^3*x\n")
    status, out = run_cli(["decide", str(path), "--point", "0:0:2"])
    assert status == 0
    data = json.loads(out)
    assert data["input"]["point"] == "0:0:1" and data["verified_degree"] == 3


def test_generate_round_trip(tmp_path):
    out = tmp_path / "c.curve"
    status, _ = run_cli(["generate", "projection", "--degree", "6",
                         "--seed", "4", "--out", str(out)])
    assert status == 0
    text = out.read_text()
    assert "# genus = 7" in text
    status, rep = run_cli(["decide", str(out), "--seed", "1"])
    assert status == 0
    assert json.loads(rep)["trigonal"] is True


def test_generate_m1_genus_line(tmp_path):
    out = tmp_path / "m1.curve"
    status, _ = run_cli(["generate", "m1", "--deg-x", "3", "--seed", "2",
                         "--out", str(out)])
    assert status == 0
    assert "# genus = 4" in out.read_text()


def test_bench_csv_shape_and_determinism(tmp_path):
    spec = tmp_path / "bench.spec"
    spec.write_text("method=m1 params=deg_x=3 n=3 height=5\n"
                    "method=projection params=d=5 n=2 height=5\n")
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    for out in (out1, out2):
        status, _ = run_cli(["bench", str(spec), "--out", str(out),
                             "--seed", "9"])
        assert status == 0
    rows1 = list(csv.reader(out1.read_text().splitlines()))
    rows2 = list(csv.reader(out2.read_text().splitlines()))
    assert rows1[0] == BENCH_HEADER
    assert len(rows1) == 6
    # identical except the seconds column
    sec = BENCH_HEADER.index("seconds")
    for a, b in zip(rows1, rows2):
        assert a[:sec] == b[:sec] and a[sec + 1:] == b[sec + 1:]
    # accepted m1 rows have genus 4; projection rows genus 5
    for row in rows1[1:]:
        if row[0] == "m1" and row[6] == "True":
            assert row[3] == "4" and row[7] == "True"
        if row[0] == "projection" and row[6] == "True":
            assert row[3] == "5" and row[7] == "True"


def test_bench_empty_spec_gives_header_only(tmp_path):
    spec = tmp_path / "empty.spec"
    spec.write_text("# nothing\n")
    out = tmp_path / "b.csv"
    status, _ = run_cli(["bench", str(spec), "--out", str(out)])
    assert status == 0
    assert out.read_text().strip() == ",".join(BENCH_HEADER)


def test_bench_internal_failure_exits_three(tmp_path, monkeypatch):
    # a broken invariant is not a rejected sample: the run stops with exit 3
    def broken(*args, **kwargs):
        raise LiftingFailed("forced lifting failure")

    monkeypatch.setattr(cli, "decide", broken)
    spec = tmp_path / "bench.spec"
    spec.write_text("method=projection params=d=5 n=2 height=5\n")
    status, _ = run_cli(["bench", str(spec), "--out", str(tmp_path / "b.csv"),
                         "--seed", "9"])
    assert status == 3


def test_cli_subprocess_entry_point(tmp_path, proj5):
    """The installed console script behaves like main()."""
    path = tmp_path / "c.curve"
    path.write_text(write_curve_file(proj5))
    proc = run_subprocess(["decide", str(path), "--seed", "3"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trigonal"] is True


KLEIN = "f = x^3*y + y^3*z + z^3*x\n"


@pytest.mark.parametrize("text, flags", [
    (KLEIN, ["--point", "1:a:1"]),
    (KLEIN, ["--point", "1/0:0:1"]),
    (KLEIN, ["--point", "1/2/3:0:1"]),
    (KLEIN + "point = (1/0:0:1)\n", []),
    (KLEIN + "sing = (1/0:0:1) mult 2\n", []),
], ids=["flag-letter", "flag-zero-denominator", "flag-two-slashes",
        "file-point", "file-sing"])
def test_bad_point_coordinates_are_parse_errors(tmp_path, text, flags):
    """--point, point = and sing = share one parser: a coordinate that is
    not an integer or a fraction with a nonzero denominator exits 2."""
    path = tmp_path / "c.curve"
    path.write_text(text)
    assert_typed_rejection(run_subprocess(["decide", str(path), *flags]),
                           "bad coordinate")


@pytest.mark.parametrize("args, spec, message", [
    (["generate", "m1", "--deg-x", "3", "--height", "0"], None,
     "height must be at least 1"),
    (["generate", "projection", "--degree", "5", "--height", "-3"], None,
     "height must be at least 1"),
    (["generate", "m1", "--deg-x", "3", "--height", "-1"], None,
     "height must be at least 1"),
    (["bench"], "method=m1 params=deg_x=3 n=1 height=0\n",
     "height must be at least 1"),
    (["bench"], "# jobs\nmethod=m1 n=x\n", "n='x' is not an integer (line 2)"),
    (["bench"], "method=m1 n=1 height=x\n", "height='x' is not an integer (line 1)"),
    (["bench"], "method=m1 params=deg_x=abc n=1\n",
     "deg_x='abc' is not an integer (line 1)"),
    (["generate", "m2", "--deg", "2"], None, "invalid choice: 'm2'"),
    (["bench"], "method=m2 n=1\n", "unknown method 'm2' (line 1)"),
    (["bench"], "method=projection n=1 heigth=9\n", "unknown field 'heigth' (line 1)"),
    (["bench"], "\nmethod=m1 n=1 n=2\n", "a second field 'n' (line 2)"),
    (["bench"], "method=projection params=deg=7 n=1\n",
     "unknown params key 'deg' (line 1)"),
    (["bench"], "method=m1 params=d=7 n=1\n", "unknown params key 'd' (line 1)"),
    (["bench"], "method=projection params=d=7,d=8 n=1\n",
     "a second params key 'd' (line 1)"),
], ids=["m1-zero", "projection-negative", "m1-negative", "bench-zero",
        "bench-n", "bench-height", "bench-params", "generate-m2", "bench-m2",
        "bench-unknown-field", "bench-repeated-field", "bench-unknown-param",
        "bench-other-method-param", "bench-repeated-param"])
def test_bad_heights_and_bench_fields_are_typed_errors(tmp_path, args, spec, message):
    """Every generator draws its coefficients through one height check, and
    every bench field but the method must be an integer.  A height of 0 once
    looped forever drawing a nonzero leading coefficient.  ``m2`` is neither
    a generator nor a bench method.  A misspelt or repeated field or params
    key once ran the job with the default or the last value."""
    if spec is not None:
        path = tmp_path / "bench.spec"
        path.write_text(spec)
        args = args + [str(path), "--out", str(tmp_path / "b.csv")]
    assert_typed_rejection(run_subprocess(args, timeout=20), message)


@pytest.mark.parametrize("line, message", [
    ("f = x^5", "a second 'f' line (line 2)"),
    ("point = (1:0:0)", "a second 'point' line (line 3)"),
    ("field = Fp 101", "a second 'field' line (line 3)"),
], ids=["f", "point", "field"])
def test_a_repeated_curve_file_key_is_a_parse_error(tmp_path, line, message):
    """A second f, point or field line is refused with its line number
    rather than silently overriding the first.  Only sing lines may repeat."""
    path = tmp_path / "c.curve"
    path.write_text(f"f = x^4+y^4+z^4\n{line}\n{line}\n")
    assert_typed_rejection(run_subprocess(["decide", str(path)]), message)


@pytest.mark.parametrize("command", ["decide", "bench"])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, command):
    """A stray non-UTF-8 byte in a curve file or a bench spec is refused
    with its line number, not a UnicodeDecodeError traceback."""
    path = tmp_path / "input.txt"
    path.write_bytes(b"# comment\nf = x^4 + y^4 + z^4 \xff\n")
    assert_typed_rejection(run_subprocess([command, str(path)]),
                           "not UTF-8: invalid start byte (line 2)")
