"""Command-line surface: literals, subcommands, exit codes, outputs.

Exit code contract: 0 ok, 1 failed verification, 2 parse/config,
3 precondition, 4 infinite solution set, 5 I/O.
"""

import argparse
import ast
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossratio
from crossratio import cli
from crossratio.cli import build_parser, main
from crossratio.fields import DivisionByZeroError, FieldMismatchError, PreconditionError, field_by_name
from crossratio.plane import (
    AuxiliaryPointError,
    DegenerateConfigurationError,
    HypothesisViolationError,
    IdenticalLinesError,
    IdenticalPointsError,
    NotOnLineError,
)
from crossratio.ratio import CrossRatioArgumentError, InfiniteSolutionError, InvalidRatioPointError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=30):
    """Run the CLI in a fresh interpreter, so a hang fails the test instead of stalling it."""
    src = str(pathlib.Path(crossratio.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "crossratio", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": src},
    )


# ---------------------------------------------------------------- eval


def test_eval_rational(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "rational", "2", "3", "1", "0")
    assert code == 0 and out.strip() == "3/4"


def test_eval_quaternion(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "quaternion", "i", "j", "k", "0")
    assert code == 0 and out.strip() == "1/2+1/2i-1/2j-1/2k"


def test_eval_degenerate_pair(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "rational", "2", "2", "1", "0")
    assert code == 0 and out.strip() == "1"


def test_eval_infinity_literal(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "rational", "3", "5", "1", "inf")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run_cli(capsys, "eval", "--field", "rational", "2", "3", "1", "2")
    assert code == 0 and out.strip() == "inf"


def test_eval_two_infinities_is_a_precondition_failure(capsys):
    code, _, err = run_cli(capsys, "eval", "--field", "rational", "inf", "inf", "1", "0")
    assert code == 3 and "error" in err


def test_eval_three_equal_is_a_precondition_failure(capsys):
    code, _, err = run_cli(capsys, "eval", "--field", "rational", "2", "2", "2", "0")
    assert code == 3


def test_eval_json_is_compact(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "rational", "2", "3", "1", "0", "--format", "json")
    assert code == 0 and out == '{"field": "rational", "result": "3/4"}\n'


def test_eval_bad_literal(capsys):
    code, _, err = run_cli(capsys, "eval", "--field", "rational", "2", "x", "1", "0")
    assert code == 2


def test_python_dash_m_runs_the_cli():
    done = run_process("eval", "--field", "rational", "2", "3", "1", "0")
    assert done.returncode == 0 and done.stdout == "3/4\n"
    done = run_process("eval", "--field", "rational", "2", "x", "1", "0")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1


def test_nonprime_field_selector(capsys):
    code, _, err = run_cli(capsys, "eval", "--field", "gf:4", "2", "3", "1", "0")
    assert code == 2


@pytest.mark.parametrize(
    "field, literal, message",
    [
        ("rational", "٣", "invalid rational literal: '٣'"),  # ARABIC-INDIC DIGIT THREE
        ("rational", "1/٣", "invalid rational literal: '1/٣'"),
        ("quaternion", "٣i", "invalid quaternion literal: '٣i'"),
        ("gf:١٠١", "1", "invalid GF modulus: '١٠١'"),
        ("gf:7", "²", "invalid GF(7) literal: '²'"),  # SUPERSCRIPT TWO
    ],
    ids=["rational", "denominator", "quaternion", "gf-modulus", "gf"],
)
def test_literals_take_only_ascii_digits(capsys, field, literal, message):
    code, out, err = run_cli(capsys, "eval", "--field", field, "--", literal, "2", "3", "4")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_eval_over_a_61_bit_mersenne_prime_field():
    done = run_process("eval", "--field", f"gf:{2**61 - 1}", "1", "2", "3", "4")
    assert done.returncode == 0 and done.stdout.strip().isdigit()


@pytest.mark.parametrize(
    "modulus",
    [
        2**89 - 1,  # prime, but above the range the primality test is exact in
        399165290221 * 798330580441,  # strong pseudoprime to every prime base up to 37
    ],
)
def test_unusable_large_modulus_is_a_config_error(modulus):
    done = run_process("eval", "--field", f"gf:{modulus}", "1", "2", "3", "4")
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int/str digit limit"
)
def test_eval_result_longer_than_the_int_str_digit_limit(capsys):
    # ~2100-digit operands parse fine; the exact result has over 4300 digits,
    # Python's default limit for converting an int to a decimal string.
    rng = random.Random(4300)
    a, b, c = (Fraction(rng.getrandbits(7000) | 1, rng.getrandbits(6900) | 1) for _ in range(3))
    literals = [f"{x.numerator}/{x.denominator}" for x in (a, b, c)]
    limit = sys.get_int_max_str_digits()
    try:
        code, out, err = run_cli(capsys, "eval", "--field", "rational", "--", *literals, "0")
        sys.set_int_max_str_digits(0)
        expected = (c - a) / (c - b) * (b / a)  # cr(A,B;C,0) over a commutative field
        assert len(str(expected.numerator)) > 4300
        assert (code, err) == (0, "") and out == f"{expected}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_gf_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "gf:7", "2", "3", "1", "0")
    assert code == 0
    # oracle: ((3-0)*(2-1)) * inverse((2-0)*(3-1)) mod 7
    expected = (3 * 1 * pow(2 * 2, 5, 7)) % 7
    assert out.strip() == str(expected)


# ---------------------------------------------------------------- solve


def test_solve_example(capsys):
    code, out, _ = run_cli(capsys, "solve", "--field", "rational", "3/4", "2", "3", "1")
    assert code == 0 and out.strip() == "0"


def test_solve_round_trips_through_eval(capsys):
    code, out, _ = run_cli(capsys, "solve", "--field", "quaternion", "2+i", "i", "j", "k")
    assert code == 0
    d = out.strip()
    code, out, _ = run_cli(capsys, "eval", "--field", "quaternion", "i", "j", "k", d)
    assert code == 0 and out.strip() == "2+i"


def test_solve_json_is_compact(capsys):
    code, out, _ = run_cli(capsys, "solve", "--field", "rational", "3/4", "2", "3", "1", "--format", "json")
    assert code == 0 and out == '{"field": "rational", "result": "0"}\n'


def test_solve_rejects_zero_and_one(capsys):
    for bad in ("0", "1"):
        code, _, err = run_cli(capsys, "solve", "--field", "rational", bad, "2", "3", "1")
        assert code == 3


def test_solve_infinite_solution_set_has_its_own_exit(capsys):
    # ratio value equal to the three-point ratio of (A,B,C): every D works
    code, _, err = run_cli(capsys, "solve", "--field", "rational", "2", "5", "3", "1")
    assert code == 4


# ---------------------------------------------------------------- verify


def test_verify_text_report(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--field", "gf:101", "--seed", "3", "--samples", "5"
    )
    assert code == 0
    assert "suite passed" in out
    assert "PASS" in out and "SKIP" in out and "FAIL" not in out


# sha256 of the `verify --format text` bytes: SKIP lines (quaternion),
# exhaustive PASS lines (gf:5), and FAIL and witness lines (a failing report)
TEXT_DIGESTS = {
    ("quaternion", "5"): "87da1744c0e2652ef43172a78659a61690461c519a12b085d0d0c95ff81ec6d1",
    ("gf:5", "25"): "588f1e4e48557c9eb09eff578780236da2358c1b23697e8c706125a681651010",
}


@pytest.mark.parametrize("case", TEXT_DIGESTS, ids=lambda case: case[0])
def test_verify_text_is_pinned(capsys, case):
    field, samples = case
    code, out, _ = run_cli(capsys, "verify", "--field", field, "--seed", "7", "--samples", samples)
    assert code == 0 and sha256(out) == TEXT_DIGESTS[case]


def test_failing_verify_text_is_pinned(capsys, broken_ratios):
    code, out, _ = run_cli(capsys, "verify", "--field", "rational", "--seed", "7", "--samples", "12")
    assert code == 1
    assert sha256(out) == "eed1b5cbefd989aed4f7c1dd61c613d670854a2c08a7d95c4d355bfa97b9646a"


@pytest.mark.parametrize(
    "field, seed, raised",
    [
        ("gf:5", "7", {"ratio2_laws", "ratio3_laws", "cr_permutation_trio"}),
        ("gf:101", "2", {"ratio2_laws", "ratio3_laws"}),
    ],
)
def test_verify_reports_a_raising_law_as_a_failing_check(capsys, broken_ratios, field, seed, raised):
    # the mutant sends some divisors to zero over GF(p); those laws fail with exit 1, not exit 3
    code, out, err = run_cli(
        capsys, "verify", "--field", field, "--seed", seed, "--samples", "25", "--format", "json"
    )
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
    assert {check["name"] for check in checks if "raised" in check} == raised
    assert all(not check["passed"] for check in checks if check["name"] in raised)


def test_verify_json_report_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--field", "rational", "--seed", "3", "--samples", "4",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert {"field", "seed", "samples", "timestamp", "passed", "checks"} <= set(report)
    for rec in report["checks"]:
        assert {"name", "skipped", "passed", "samples_run", "witnesses"} <= set(rec)


def test_verify_is_deterministic_modulo_timestamp(capsys):
    args = ("verify", "--field", "gf:5", "--seed", "9", "--samples", "4", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    a, b = json.loads(first), json.loads(second)
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_verify_writes_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "verify", "--field", "gf:5", "--seed", "1", "--samples", "3",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["passed"] is True


def without_timestamp(data: bytes) -> bytes:
    """The bytes of a JSON report with its one timestamp line masked."""
    masked, count = re.subn(rb'(?m)^  "timestamp": ".*",$', b'  "timestamp": "-",', data)
    assert count == 1
    return masked


def test_verify_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    argv = ("verify", "--field", "quaternion", "--seed", "42", "--samples", "2", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "quaternion.json"
    code, printed, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and printed == ""
    assert without_timestamp(target.read_bytes()) == without_timestamp(out.encode())


def test_verify_unwritable_output_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "verify", "--field", "gf:5", "--seed", "1", "--samples", "3",
        "--out", "/nonexistent-dir/report.json",
    )
    assert code == 5
    # --out naming an existing directory fails the same way and writes nothing into it
    code, out, err = run_cli(
        capsys, "verify", "--field", "gf:5", "--samples", "2", "--out", str(tmp_path)
    )
    assert code == 5 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("--field", "gf:2"),
        ("--field", "gf:3"),
        ("--field", "gf:4"),
        ("--field", "nope"),
        ("--samples", "0"),
    ],
    ids=["gf:2", "gf:3", "gf:4", "nope", "no-samples"],
)
def test_verify_over_a_tiny_field_is_a_config_error(tmp_path, capsys, argv):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


# ---------------------------------------------------------------- construct


def test_construct_add(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct", "add", "--field", "rational",
        "--O", "0,0", "--I", "1,0", "--A", "2,0", "--B", "3,0", "--aux", "0,1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "5,0"
    assert any("P1" in line for line in lines)
    assert sum(1 for line in lines if line.startswith("line ")) >= 3


def test_construct_mul(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct", "mul", "--field", "rational",
        "--O", "0,0", "--I", "1,0", "--A", "2,0", "--B", "3,0", "--aux", "0,1",
    )
    assert code == 0 and out.strip().splitlines()[-1] == "6,0"


def test_construct_default_aux(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct", "add", "--field", "quaternion",
        "--O", "0,0", "--I", "1,0", "--A", "i,0", "--B", "j,0",
    )
    assert code == 0 and out.strip().splitlines()[-1] == "i+j,0"


def test_construct_point_literal_needs_two_coordinates(capsys):
    code, out, err = run_cli(
        capsys,
        "construct", "add", "--O", "1,2,3", "--I", "1,0", "--A", "2,0", "--B", "3,0",
    )
    assert code == 2 and out == ""
    assert err == "error: point literal must be 'x,y', got '1,2,3'\n"


def test_construct_aux_on_axis(capsys):
    code, _, err = run_cli(
        capsys,
        "construct", "add", "--field", "rational",
        "--O", "0,0", "--I", "1,0", "--A", "2,0", "--B", "3,0", "--aux", "4,0",
    )
    assert code == 3


def test_construct_svg(tmp_path, capsys):
    target = tmp_path / "figure.svg"
    code, _, _ = run_cli(
        capsys,
        "construct", "mul", "--field", "rational",
        "--O", "0,0", "--I", "1,0", "--A", "2,0", "--B", "3,0", "--aux", "0,1",
        "--svg", str(target),
    )
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg") and "</svg>" in body
    for label in ("O", "I", "A", "B", "B1", "P1", "C"):
        assert f">{label}<" in body


# The exact `construct` outputs: the trace's labels, line order, points and
# coordinate.  A refactor of the ruler constructions must leave these bytes.

SLANTED = (
    "--field", "rational",
    "--O", "1,1", "--I", "3,2", "--A", "9,5", "--B=-3,-1", "--aux", "0,1",
)
QUATERNION_UNITS = ("--field", "quaternion", "--O", "0,0", "--I", "1,0", "--A", "i,0", "--B", "j,0")


def bignum_quaternion_chart():
    """A slanted quaternion chart, its operands and aux, with 256-bit coefficients.

    The coefficients come from a fixed seed; A and B are O + t*(I - O) for
    two drawn t, computed with Element operators.
    """
    rng = random.Random(20261020)
    field = field_by_name("quaternion")

    def element():
        return field.element(
            tuple(Fraction(rng.getrandbits(257) - 2**256, rng.getrandbits(256) | 1) for _ in range(4))
        )

    o, i, aux = ((element(), element()) for _ in range(3))
    a, b = ((o[0] + t * (i[0] - o[0]), o[1] + t * (i[1] - o[1])) for t in (element(), element()))
    points = {"O": o, "I": i, "A": a, "B": b, "aux": aux}
    return ("--field", "quaternion", *(f"--{name}={x},{y}" for name, (x, y) in points.items()))


BIGNUM_QUATERNION = bignum_quaternion_chart()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "op, expected",
    [
        (
            "add",
            "line [axis]: y = x*(1/2) + (1/2)\n"
            "line [O-B1]: y = x*(0) + (1)\n"
            "line [axis parallel through B1]: y = x*(1/2) + (1)\n"
            "line [O-B1 parallel through A]: y = x*(0) + (5)\n"
            "line [B-B1]: y = x*(2/3) + (1)\n"
            "line [B-B1 parallel through P1]: y = x*(2/3) + (-1/3)\n"
            "P1 = 8,5\n"
            "C has coordinate 2\n"
            "5,3\n",
        ),
        (
            "mul",
            "line [axis]: y = x*(1/2) + (1/2)\n"
            "line [I-B1]: y = x*(1/3) + (1)\n"
            "line [O-B1]: y = x*(0) + (1)\n"
            "line [I-B1 parallel through A]: y = x*(1/3) + (2)\n"
            "line [B-B1]: y = x*(2/3) + (1)\n"
            "line [B-B1 parallel through P1]: y = x*(2/3) + (3)\n"
            "P1 = -3,1\n"
            "C has coordinate -8\n"
            "-15,-7\n",
        ),
    ],
)
def test_construct_text_is_pinned(capsys, op, expected):
    code, out, _ = run_cli(capsys, "construct", op, *SLANTED)
    assert code == 0 and out == expected


@pytest.mark.parametrize(
    "op, args, digest",
    [
        ("add", SLANTED, "c0a7eba3c778a4cfa1d3d8aa316148d43af4f19775e20cf9db915b5b5b23b964"),
        ("mul", SLANTED, "0b4c744a6a27fb4d8393de330303652b927e3ee8161625144a4469c06e6ca47d"),
        ("add", QUATERNION_UNITS, "26d260e25c36cf161904b3143cbf717b7c9443007c4928b602adfcb60d4ec68d"),
        ("mul", QUATERNION_UNITS, "05b325979aa785c1a0486a7cb849e9a04ab4868a89bfd63b05c2aec6fb741ed9"),
        ("add", BIGNUM_QUATERNION, "1c1efe75eb11c39e7e00452eb5944e6c76d6fe19f67361690be02076aecb225e"),
        ("mul", BIGNUM_QUATERNION, "f22f4095eecdf214f0d14cb129524705bfdcb37e01801bdc94acfe878b607c66"),
    ],
)
def test_construct_json_is_pinned(capsys, op, args, digest):
    code, out, _ = run_cli(capsys, "construct", op, *args, "--format", "json")
    assert code == 0 and sha256(out) == digest


# sha256 of the SVG figure of `construct OP --O 0,0 --I 1,0 --A 2,0 --B 3,0 --aux 0,1`.
SVG_DIGESTS = {
    "add": "88abda1eccd3bc9ebe9d2799a583805a17417722013af2c40f05674805cbc911",
    "mul": "51ffc4ef0b7c825b331299c7b7bfccd81a18435d85a683affcc71295b5b57818",
}


@pytest.mark.parametrize("op, digest", SVG_DIGESTS.items())
def test_construct_svg_is_pinned(tmp_path, capsys, op, digest):
    target = tmp_path / "figure.svg"
    code, _, _ = run_cli(
        capsys,
        "construct", op, "--O", "0,0", "--I", "1,0", "--A", "2,0", "--B", "3,0", "--aux", "0,1",
        "--svg", str(target),
    )
    assert code == 0 and sha256(target.read_text()) == digest


def test_construct_svg_needs_rational_plane(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "construct", "add", "--field", "quaternion",
        "--O", "0,0", "--I", "1,0", "--A", "i,0", "--B", "j,0",
        "--svg", str(tmp_path / "x.svg"),
    )
    assert code == 3


@pytest.mark.parametrize(
    "points",
    [
        # 10^400 does not convert to a float
        ("--O=0,0", f"--I=1{'0' * 400},0", "--A=2,0", "--B=3,0"),
        # each coordinate converts, but the view spans 2*10^308, which is inf
        (f"--O=-1{'0' * 308},0", f"--I=1{'0' * 308},0", "--A=0,0", "--B=1,0"),
        # past int's default 4300-digit str limit, which main lifts: still exit 3
        ("--O=0,0", "--I=1,0", f"--A=1{'0' * 4999},0", "--B=3,0"),
    ],
    ids=["coordinate-overflow", "view-overflow", "5000-digit-operand"],
)
def test_construct_svg_out_of_float_range(tmp_path, capsys, points):
    target = tmp_path / "figure.svg"
    code, out, err = run_cli(
        capsys, "construct", "add", "--field", "rational", *points, "--svg", str(target)
    )
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("literal", ["x", "1/0"])
def test_construct_svg_bad_literal_exits_2_and_writes_nothing(tmp_path, capsys, literal):
    target = tmp_path / "figure.svg"
    code, out, err = run_cli(
        capsys, "construct", "add", "--field", "rational",
        "--O=0,0", "--I=1,0", f"--A={literal},0", "--B=3,0", "--svg", str(target),
    )
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_construct_svg_to_a_directory_exits_5_and_writes_nothing(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "construct", "add", "--field", "rational",
        "--O=0,0", "--I=1,0", "--A=2,0", "--B=3,0", "--aux=0,1", "--svg", str(tmp_path),
    )
    assert code == 5
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("aux", [(), ("--aux=0,5",)], ids=["default-aux", "given-aux"])
def test_construct_identical_base_points_exit_3_and_write_nothing(tmp_path, capsys, aux):
    target = tmp_path / "figure.svg"
    code, out, err = run_cli(
        capsys, "construct", "add", "--field", "rational",
        "--O=1,1", "--I=1,1", "--A=2,0", "--B=3,0", *aux, "--svg", str(target),
    )
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not target.exists()


# ---------------------------------------------------------------- desargues


def test_desargues_tally(capsys):
    code, out, _ = run_cli(
        capsys, "desargues", "--field", "rational", "--count", "3", "--seed", "7"
    )
    assert code == 0
    assert "3/3 pass" in out


def test_desargues_config_hash_is_stable(capsys):
    args = ("desargues", "--field", "rational", "--count", "1", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    line = [l for l in first.splitlines() if l.startswith("config-hash:")]
    assert line and first == second


def test_desargues_modes_give_different_configs(capsys):
    _, par, _ = run_cli(
        capsys, "desargues", "--field", "gf:101", "--count", "2", "--seed", "1",
        "--mode", "parallel", "--format", "json",
    )
    _, con, _ = run_cli(
        capsys, "desargues", "--field", "gf:101", "--count", "2", "--seed", "1",
        "--mode", "concurrent", "--format", "json",
    )
    assert json.loads(par)["config_hash"] != json.loads(con)["config_hash"]
    assert json.loads(con)["passes"] == 2


def test_desargues_tamper_flag_is_detected(capsys):
    code, out, _ = run_cli(
        capsys,
        "desargues", "--field", "rational", "--count", "2", "--seed", "7",
        "--flip-c-prime",
    )
    assert code == 1
    assert "0/2 pass" in out
    # the tampered configuration is validated again and fails a hypothesis clause
    assert "config 0: hypothesis violated: " in out


def test_desargues_tamper_flag_alias(capsys):
    code, out, _ = run_cli(
        capsys,
        "desargues", "--field", "rational", "--count", "1", "--seed", "7",
        "--flip-C'",
    )
    assert code == 1


DESARGUES_GOLDEN = [
    (
        ("--field", "gf:101", "--count", "2", "--seed", "1", "--mode", "concurrent"),
        0,
        "2/2 pass\nconfig-hash: ec3b89a82febce91\n",
    ),
    (
        ("--field", "quaternion", "--count", "2", "--seed", "7", "--mode", "concurrent"),
        0,
        "2/2 pass\nconfig-hash: eb73bcb1a0cca731\n",
    ),
    # the failure lines pin the order in which the hypothesis clauses are checked
    (
        ("--field", "gf:5", "--count", "3", "--seed", "4", "--flip-c-prime"),
        1,
        "0/3 pass\n"
        "config-hash: 1864627a8fbc489f\n"
        "config 0: hypothesis violated: vertices A', B', C' must be pairwise distinct\n"
        "config 1: hypothesis violated: vertices A', B', C' must be pairwise distinct\n"
        "config 2: hypothesis violated: the lines AA', BB', CC', AC, A'C' must be pairwise distinct\n",
    ),
    # over gf:5 the generator rejects draws on every branch: collinear A, B, C, a degenerate
    # dilation, a zero translation (seed 1 only), and a line, meet or clause that raises
    (
        ("--field", "gf:5", "--count", "20", "--seed", "3", "--mode", "concurrent"),
        0,
        "20/20 pass\nconfig-hash: c9da98a54470a56e\n",
    ),
    (
        ("--field", "gf:5", "--count", "20", "--seed", "3", "--mode", "parallel"),
        0,
        "20/20 pass\nconfig-hash: 7213a27a4c643697\n",
    ),
    (
        ("--field", "gf:5", "--count", "20", "--seed", "1", "--mode", "parallel"),
        0,
        "20/20 pass\nconfig-hash: 68616fa85621c48b\n",
    ),
]


@pytest.mark.parametrize("args, code, expected", DESARGUES_GOLDEN)
def test_desargues_text_output_is_pinned(capsys, args, code, expected):
    assert run_cli(capsys, "desargues", *args) == (code, expected, "")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_desargues_count_must_be_positive(capsys, count):
    code, out, err = run_cli(capsys, "desargues", "--field", "rational", "--count", count)
    assert code == 2 and out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------- parser


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--seed", "1", "2", "3", "1", "0"),
        ("eval", "--samples", "5", "2", "3", "1", "0"),
        ("solve", "--seed", "1", "3/4", "2", "3", "1"),
        ("construct", "add", "--samples", "5", "--O", "0,0", "--I", "1,0", "--A", "2,0", "--B", "3,0"),
        ("desargues", "--samples", "5", "--count", "1"),
    ],
)
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- exit codes by class
# main() maps an error to its exit code by class, whichever handler raised it.


@pytest.mark.parametrize(
    "error, code",
    [
        (CrossRatioArgumentError, 3),
        (InvalidRatioPointError, 3),
        (DivisionByZeroError, 3),
        (FieldMismatchError, 3),
        (IdenticalPointsError, 3),
        (IdenticalLinesError, 3),
        (NotOnLineError, 3),
        (AuxiliaryPointError, 3),
        (DegenerateConfigurationError, 3),
        (HypothesisViolationError, 3),
        (PreconditionError, 3),
        (InfiniteSolutionError, 4),
        (ValueError, 2),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else None,
)
def test_exit_code_follows_the_error_class(monkeypatch, capsys, error, code):
    def handler(args):
        raise error("boom")

    parsed = argparse.Namespace(handler=handler)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: parsed)
    assert main(["eval"]) == code
    assert capsys.readouterr() == ("", "error: boom\n")


class LateInfiniteSolutionError(InfiniteSolutionError):
    """A subclass defined outside the package keeps its base's exit code."""


def test_exit_code_is_a_class_attribute(monkeypatch, capsys):
    codes = {
        CrossRatioArgumentError: 3,
        InvalidRatioPointError: 3,
        DivisionByZeroError: 3,
        FieldMismatchError: 3,
        IdenticalPointsError: 3,
        IdenticalLinesError: 3,
        NotOnLineError: 3,
        AuxiliaryPointError: 3,
        DegenerateConfigurationError: 3,
        HypothesisViolationError: 3,
        PreconditionError: 3,
        InfiniteSolutionError: 4,
        LateInfiniteSolutionError: 4,
    }
    assert {error: error.exit_code for error in codes} == codes
    assert not hasattr(ValueError, "exit_code")  # plain ValueError exits 2 by its own except

    def handler(args):
        raise LateInfiniteSolutionError("boom")

    parsed = argparse.Namespace(handler=handler)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: parsed)
    assert main(["eval"]) == 4
    assert capsys.readouterr() == ("", "error: boom\n")


def test_division_by_zero_is_still_a_zero_division_error():
    assert issubclass(DivisionByZeroError, ZeroDivisionError)


# ---------------------------------------------------------------- parser reuse
# main() reuses one parser across calls, so no option may leak into the next call.


def test_desargues_tamper_flag_does_not_leak_into_the_next_call(capsys):
    args = ("desargues", "--field", "rational", "--count", "1", "--format", "json")
    first = run_cli(capsys, *args)
    flipped = run_cli(capsys, *args, "--flip-c-prime")
    third = run_cli(capsys, *args)
    assert (first[0], flipped[0], third[0]) == (0, 1, 0)
    assert first[1] == third[1]


def test_verify_seed_does_not_leak_into_the_next_call(capsys):
    args = ("verify", "--field", "gf:5", "--samples", "2", "--format", "json")
    code, out, _ = run_cli(capsys, *args, "--seed", "9")
    assert code == 0 and json.loads(out)["seed"] == 9
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(out)["seed"] == 0


def test_out_path_does_not_leak_into_the_next_call(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run_cli(capsys, "eval", "--out", str(target), "2", "3", "1", "0")
    assert code == 0 and out == "" and target.read_text() == "3/4\n"
    code, out, _ = run_cli(capsys, "eval", "5", "3", "1", "0")
    assert code == 0 and out == "6/5\n"
    assert target.read_text() == "3/4\n"


def test_help_is_the_parser_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


# ---------------------------------------------------------------- one parse per request
# main() hands an argv that starts with a subcommand name straight to that
# subcommand's parser and every other argv to the whole parser; either way it
# must parse, print and exit exactly as the whole parser does.

PARSE_CORPUS = [
    # shaped like the benchmark's requests
    ["eval", "--field", "rational", "--format", "json", "--", "-3/4", "5/6", "inf", "-7/8"],
    ["eval", "--field", "quaternion", "--format", "text", "--", "-1/2+3i", "j", "-k", "1+i"],
    ["solve", "--field", "rational", "--format", "text", "--", "-1/2", "3", "-4/6", "5"],
    ["solve", "--field", "quaternion", "--format", "json", "--", "1+i", "-j", "k", "1+j"],
    [
        "construct", "mul", "--field", "quaternion", "--format", "json",
        "--O=1+i,1", "--I=3,2+j", "--A=1+i-j+2k,1-i+k", "--B=5-i,3+2j", "--aux=-1/2,1",
    ],
    ["construct", "add", "--O", "0,0", "--I", "1,0", "--A", "2,0", "--B", "3,0", "--svg", "sum.svg"],
    ["desargues", "--field", "gf:5", "--count", "3", "--seed", "4", "--flip-C'"],
    ["desargues", "--field", "rational", "--count", "2", "--mode", "concurrent", "--format", "json"],
    ["verify", "--field", "gf:5", "--seed", "12", "--samples", "3", "--format", "json"],
    ["verify", "--field", "quaternion", "--seed", "4294967295", "--samples", "3"],
    # edge cases
    [],
    ["-h"],
    ["--help"],
    ["--help", "eval"],
    ["frobnicate"],
    ["EVAL", "2", "3", "1", "0"],
    ["--", "eval", "2", "3", "1", "0"],
    ["eval"],
    ["eval", "-h"],
    ["verify", "--help"],
    ["eval", "1", "2", "3", "4", "5"],
    ["eval", "2", "3", "1", "0", "extra"],
    ["eval", "-1", "2", "3", "4"],
    ["eval", "--", "--", "1", "2", "3"],
    ["eval", "--fie", "gf:5", "1", "2", "3", "4"],
    ["eval", "--f", "gf:5", "1", "2", "3", "4"],
    ["eval", "--format", "xml", "1", "2", "3", "4"],
    ["eval", "--seed", "1", "2", "3", "1", "0"],
    ["verify", "--samples", "x"],
    ["verify", "--field"],
    ["construct", "sub", "--O", "0,0", "--I", "1,0", "--A", "2,0", "--B", "3,0"],
    ["construct", "add", "--O", "0,0"],
    ["desargues", "--flip", "--count", "1"],
    ["desargues", "--mode", "skew"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        outcome = ("parsed", parse(list(argv)))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_one_pass_parse_matches_the_whole_parser(capsys, argv):
    got = _parse_outcome(cli._parse_args, argv, capsys)
    assert got == _parse_outcome(build_parser().parse_args, argv, capsys)


def test_a_subcommand_request_skips_the_top_level_parser(monkeypatch, capsys):
    def whole_parse(argv):
        raise AssertionError(f"top-level parse of {argv}")

    monkeypatch.setattr(cli._parser(), "parse_args", whole_parse)
    assert main(["eval", "--field", "rational", "--", "-2", "3", "1", "0"]) == 0
    assert main(["verify", "--field", "gf:5", "--samples", "1", "--format", "json"]) == 0
    capsys.readouterr()
    with pytest.raises(AssertionError, match="top-level parse"):
        main(["eval", "2", "3", "1", "0", "extra"])


@pytest.mark.parametrize(
    "argv", [["eval", "--", "inf", "inf", "--", "0"], ["solve", "--", "1", "2", "3", "--"]]
)
def test_a_second_double_dash_exits_2(capsys, argv):
    # argparse before 3.12 gives the positional that meets it [], later ones the text '--'
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2 and capsys.readouterr().out == ""


def test_main_reads_sys_argv_when_argv_is_none(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["crossratio", "eval", "--field", "rational", "2", "3", "1", "0"])
    assert main() == 0
    assert capsys.readouterr() == ("3/4\n", "")
    monkeypatch.setattr(sys, "argv", ["crossratio", "eval", "2", "3", "1", "0", "extra"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("crossratio: error: unrecognized arguments: extra\n")


# ---------------------------------------------------------------- fuzzed argv
# Each choice is usually a usable value and one time in four an odd one: a
# zero or non-prime modulus, an upper-case selector, non-ASCII digits, a zero
# denominator, a dangling sign, empty text.
FUZZ_FIELDS = (("rational", "quaternion", "gf:5", "gf:7"), ("gf:0", "gf:4", "GF:5", "gf:٥", "gf:", ""))
FUZZ_LITERALS = (
    ("0", "1", "2", "-2", "3/4", "-7/8", "inf"),
    ("1/0", "0/0", "i+", "+", "-", "٣", "1/٤", "²", "1e3", "nan", "", " "),
)
QUATERNION_LITERALS = ("i", "-j", "1+k", "1/2-i+3k")


def _pick(draw, choices):
    usual, odd = choices
    return draw(st.sampled_from(odd if draw(st.integers(0, 3)) == 3 else usual))


def _fuzz_options(draw, fields, out_dir):
    options = ["--field", _pick(draw, fields)]
    if draw(st.booleans()):
        options += ["--format", _pick(draw, (("text", "json"), ("xml",)))]
    if draw(st.booleans()):
        options += ["--out", str(out_dir / "out.txt")]
    return options


@st.composite
def fuzz_argv(draw, out_dir):
    command = draw(st.sampled_from(("eval", "solve", "construct", "desargues", "verify")))
    if command in ("eval", "solve"):
        argv = [command, *_fuzz_options(draw, FUZZ_FIELDS, out_dir)]
        argv += [] if draw(st.integers(0, 3)) == 3 else ["--"]
        usual = FUZZ_LITERALS[0] + (QUATERNION_LITERALS if argv[2] == "quaternion" else ())
        literals = [draw(st.sampled_from(usual)) for _ in range(_pick(draw, ((4,), (3, 5))))]
        if draw(st.booleans()):  # at most one odd literal, so the usual ones reach the arithmetic
            literals[draw(st.integers(0, len(literals) - 1))] = draw(st.sampled_from(FUZZ_LITERALS[1]))
        argv += literals
    elif command == "construct":
        argv = [command, _pick(draw, (("add", "mul"), ("sub", "")))]
        argv += _fuzz_options(draw, FUZZ_FIELDS, out_dir)
        names = ["O", "I", "A", "B"] + (["aux"] if draw(st.booleans()) else [])
        for name in names:
            # mostly on the x axis, where O, I, A and B make a valid construction
            y = _pick(draw, (("0",), FUZZ_LITERALS[0] + FUZZ_LITERALS[1]))
            argv.append(f"--{name}={_pick(draw, FUZZ_LITERALS)},{y}")
        if draw(st.booleans()):
            argv += ["--svg", str(out_dir / "figure.svg")]
    elif command == "desargues":
        argv = [command, *_fuzz_options(draw, FUZZ_FIELDS, out_dir)]
        argv += ["--count", _pick(draw, (("1", "2"), ("-1", "0", "x", "")))]
        argv += ["--seed", str(draw(st.integers(0, 2**32)))]
        argv += ["--mode", _pick(draw, (("parallel", "concurrent"), ("skew",)))]
        argv += ["--flip-C'"] if draw(st.booleans()) else []
    else:
        fields = (("gf:5",), ("gf:0", "GF:5", "gf:3", "gf:4"))
        argv = [command, *_fuzz_options(draw, fields, out_dir)]
        argv += ["--samples", _pick(draw, (("1", "2"), ("-1", "0", "x")))]
        argv += ["--seed", str(draw(st.integers(0, 2**32)))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("-h", "extra", "--", ""))))
    return argv


def test_fuzzed_argv_ends_in_an_exit_code(tmp_path, capsys):
    def cwd_listing():  # hypothesis keeps its example database here
        return {path.name for path in pathlib.Path.cwd().iterdir()} - {".hypothesis"}

    before = cwd_listing()

    @settings(max_examples=150)
    @given(fuzz_argv(tmp_path))
    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
        else:
            assert code in range(6), argv
        capsys.readouterr()

    run()
    assert cwd_listing() == before
    assert {path.name for path in tmp_path.iterdir()} <= {"figure.svg", "out.txt"}


# ---------------------------------------------------------------- cold start

# Runs in a fresh interpreter.  Modules already loaded before the import
# (site may preload some) are not charged to the CLI.
IMPORT_GUARD = """
import contextlib, io, json, sys
preloaded = set(sys.modules)
import crossratio.cli
crossratio.cli.build_parser()
lazy = (
    "crossratio.verify", "crossratio.plane", "crossratio.ratio", "crossratio.gf", "crossratio.quaternion",
    "dataclasses", "hashlib", "datetime", "fractions", "decimal",
)
loaded = [name for name in lazy if name in sys.modules and name not in preloaded]
answers = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = crossratio.cli.main(argv)
    answers.append([code, out.getvalue()])
print(json.dumps({"loaded": loaded, "answers": answers}))
"""


def test_import_loads_no_subcommand_dependencies(tmp_path):
    figure = tmp_path / "figure.svg"
    requests = [
        ["desargues", "--field", "rational", "--count", "3", "--seed", "7", "--format", "json"],
        [
            "construct", "add", "--O", "0,0", "--I", "1,0", "--A", "2,0", "--B", "3,0",
            "--aux", "0,1", "--svg", str(figure),
        ],
        ["verify", "--field", "gf:5", "--seed", "7", "--samples", "25"],
    ]
    src = str(pathlib.Path(crossratio.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, json.dumps(requests)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    (des_code, des_out), (con_code, con_out), (ver_code, ver_out) = result["answers"]
    assert des_code == 0
    assert sha256(des_out) == "b40b9e9ec4776848e3685b238964595d61bd16859406ac23aedb6f6169110bc5"
    assert con_code == 0 and con_out == (
        "line [axis]: y = x*(0) + (0)\n"
        "line [O-B1]: x = 0\n"
        "line [axis parallel through B1]: y = x*(0) + (1)\n"
        "line [O-B1 parallel through A]: x = 2\n"
        "line [B-B1]: y = x*(-1/3) + (1)\n"
        "line [B-B1 parallel through P1]: y = x*(-1/3) + (5/3)\n"
        "P1 = 2,1\n"
        "C has coordinate 5\n"
        "5,0\n"
    )
    assert sha256(figure.read_text()) == SVG_DIGESTS["add"]
    assert ver_code == 0 and sha256(ver_out) == TEXT_DIGESTS[("gf:5", "25")]


# Runs one request in a fresh interpreter, without importing json itself.
# Prints the watched modules loaded by the import (with build_parser) and
# then by the request, leaving out those loaded before the import.
SUBCOMMAND_GUARD = """
import contextlib, io, sys
watched = (
    "crossratio.plane", "crossratio.ratio", "crossratio.gf", "crossratio.quaternion",
    "fractions", "decimal", "json",
)
preloaded = set(sys.modules)
def loaded():
    return [name for name in watched if name in sys.modules and name not in preloaded]
import crossratio.cli
crossratio.cli.build_parser()
at_import = loaded()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = crossratio.cli.main(sys.argv[1:])
print(repr((at_import, loaded(), code, out.getvalue())))
"""


@pytest.mark.parametrize(
    "argv, loaded, out",
    [
        (
            ["eval", "--field", "quaternion", "i", "j", "k", "1+i"],
            ["crossratio.ratio", "crossratio.quaternion"],
            "1/2+1/2i-1/2j+3/2k\n",
        ),
        (["eval", "--field", "gf:7", "2", "3", "1", "0"], ["crossratio.ratio", "crossratio.gf"], "6\n"),
        (["solve", "--field", "rational", "2", "3", "1", "0"], ["crossratio.ratio"], "-3\n"),
        (
            ["solve", "--field", "rational", "--format", "json", "2", "3", "1", "0"],
            ["crossratio.ratio", "json"],
            '{"field": "rational", "result": "-3"}\n',
        ),
        (
            ["construct", "add", "--O", "0,0", "--I", "1,0", "--A", "2,0", "--B", "3,0"],
            ["crossratio.plane"],
            "line [axis]: y = x*(0) + (0)\n"
            "line [O-B1]: x = 0\n"
            "line [axis parallel through B1]: y = x*(0) + (1)\n"
            "line [O-B1 parallel through A]: x = 2\n"
            "line [B-B1]: y = x*(-1/3) + (1)\n"
            "line [B-B1 parallel through P1]: y = x*(-1/3) + (5/3)\n"
            "P1 = 2,1\n"
            "C has coordinate 5\n"
            "5,0\n",
        ),
    ],
    ids=["eval-quaternion", "eval-gf", "solve-rational", "solve-json", "construct"],
)
def test_each_subcommand_loads_only_what_it_uses(argv, loaded, out):
    src = str(pathlib.Path(crossratio.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SUBCOMMAND_GUARD, *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    at_import, after, code, got = ast.literal_eval(proc.stdout)
    assert (at_import, after, code, got) == ([], loaded, 0, out)


def test_package_root_loads_no_submodule():
    src = str(pathlib.Path(crossratio.__file__).parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, crossratio; print([m for m in sys.modules if m.startswith('crossratio.')])",
        ],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Runs in a fresh interpreter: the family modules loaded by importing fields,
# then what the benchmark's two aliases resolve to and what another name raises.
FAMILY_GUARD = """
import sys
import crossratio.fields as fields
print(["crossratio.gf" in sys.modules, "crossratio.quaternion" in sys.modules])
import crossratio.gf as gf, crossratio.quaternion as quaternion
print([fields.GaloisField is gf.GaloisField, fields.QuaternionField is quaternion.QuaternionField])
try:
    fields.Nope
except AttributeError as exc:
    print(exc)
"""


def test_fields_loads_no_family_module():
    src = str(pathlib.Path(crossratio.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FAMILY_GUARD],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "[False, False]\n[True, True]\nmodule 'crossratio.fields' has no attribute 'Nope'\n"
    )
