"""The scripts under scripts/: each runs end to end on tiny arguments."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from crossratio.cli import format_report, main

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
    )


def assert_one_error_line(done, code=2):
    assert done.returncode == code
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1


def without_timestamp(data: bytes) -> bytes:
    """The bytes of a JSON report with its one timestamp line masked."""
    masked, count = re.subn(rb'(?m)^  "timestamp": ".*",$', b'  "timestamp": "-",', data)
    assert count == 1
    return masked


def test_run_full_verification(tmp_path):
    done = run_script(
        "run_full_verification.py", "--fields", "rational", "gf:5", "quaternion",
        "--samples", "2", "--out-dir", "reports", cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    written = sorted(p.name for p in (tmp_path / "reports").iterdir())
    assert written == ["gf_5.json", "quaternion.json", "rational.json"]
    for name in written:
        data = (tmp_path / "reports" / name).read_bytes()
        report = json.loads(data)
        assert report["passed"] is True and report["samples"] == 2
        # the file `crossratio verify --out` writes for the same run, byte
        # for byte but for the timestamp, and printed as `verify` prints it
        argv = ["verify", "--field", report["field"], "--seed", "42", "--samples", "2"]
        assert main([*argv, "--format", "json", "--out", str(tmp_path / "cli.json")]) == 0
        assert without_timestamp(data) == without_timestamp((tmp_path / "cli.json").read_bytes())
        assert format_report(report) in done.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("--fields", "gf:4"),
        ("--fields", "gf:3"),
        ("--samples", "0"),
        # a bad name anywhere in the list stops the run before the first report
        ("--fields", "rational", "gf:4", "--samples", "2"),
    ],
    ids=["non-prime", "too-small", "no-samples", "bad-second-field"],
)
def test_run_full_verification_bad_argument_exits_2_and_writes_nothing(tmp_path, argv):
    done = run_script("run_full_verification.py", *argv, "--out-dir", "reports", cwd=tmp_path)
    assert_one_error_line(done)
    assert list(tmp_path.iterdir()) == []


def test_run_full_verification_out_dir_is_a_file_exits_5(tmp_path):
    (tmp_path / "afile").write_text("")
    done = run_script(
        "run_full_verification.py", "--fields", "gf:5", "--samples", "2", "--out-dir", "afile",
        cwd=tmp_path,
    )
    assert_one_error_line(done, 5)
    assert list(tmp_path.iterdir()) == [tmp_path / "afile"]
    assert (tmp_path / "afile").read_text() == ""


def test_run_full_verification_write_failure_keeps_earlier_reports(tmp_path):
    (tmp_path / "reports" / "gf_5.json").mkdir(parents=True)
    done = run_script(
        "run_full_verification.py", "--fields", "rational", "gf:5", "--samples", "2",
        "--out-dir", "reports", cwd=tmp_path,
    )
    assert done.returncode == 5
    assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1
    assert "== gf:5" not in done.stdout
    report = json.loads((tmp_path / "reports" / "rational.json").read_text())
    assert report["passed"] is True and report["samples"] == 2
