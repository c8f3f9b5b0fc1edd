"""Exact answers for the benchmark's requests, independent of crossratio.fields.

Rationals are Fractions and quaternions are 4-tuples of Fractions.  Every
eval/solve/construct answer is recomputed here and compared with the
program's output string by string, in the canonical literal grammar:

    rational   := '-'? digits ('/' digits)?
    quaternion := term (('+'|'-') term)*,  term := rational unit? | unit

A verify reply is accepted only when it reports ``passed: true``, runs the
full sample count on every sampled check and carries no witnesses (a
witness-search check must carry the witness it found).
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import NamedTuple

INF = "inf"
_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")
_QUAT_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)([ijk])?|([ijk]))")
_UNITS = ("", "i", "j", "k")


class Rationals:
    @staticmethod
    def add(x, y):
        return x + y

    @staticmethod
    def sub(x, y):
        return x - y

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def inv(x):
        return 1 / x

    @staticmethod
    def parse(text: str) -> Fraction:
        m = _RATIONAL_RE.fullmatch(text)
        if not m or m.group(2) == "0":
            raise ValueError(f"not a rational literal: {text!r}")
        return Fraction(int(m.group(1)), int(m.group(2) or 1))

    @staticmethod
    def format(x: Fraction) -> str:
        return str(x)


class Quaternions:
    @staticmethod
    def add(x, y):
        return tuple(a + b for a, b in zip(x, y))

    @staticmethod
    def sub(x, y):
        return tuple(a - b for a, b in zip(x, y))

    @staticmethod
    def mul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    @staticmethod
    def inv(x):
        norm = sum(c * c for c in x)
        a, b, c, d = x
        return (a / norm, -b / norm, -c / norm, -d / norm)

    @staticmethod
    def parse(text: str):
        if not text:
            raise ValueError("empty quaternion literal")
        parts = [Fraction(0)] * 4
        pos = 0
        while pos < len(text):
            m = _QUAT_TERM_RE.match(text, pos)
            if not m or (pos and not m.group(1)):
                raise ValueError(f"not a quaternion literal: {text!r}")
            coeff = Fraction(1) if m.group(4) else Rationals.parse(m.group(2))
            unit = m.group(4) or m.group(3) or ""
            parts[_UNITS.index(unit)] += -coeff if m.group(1) == "-" else coeff
            pos = m.end()
        return tuple(parts)

    @staticmethod
    def format(x) -> str:
        terms = []
        for coeff, unit in zip(x, _UNITS):
            if coeff == 0:
                continue
            if unit and abs(coeff) == 1:
                body = unit if coeff > 0 else "-" + unit
            else:
                body = f"{coeff}{unit}"
            terms.append(body if not terms or body.startswith("-") else "+" + body)
        return "".join(terms) or "0"


ALGEBRAS = {"rational": Rationals, "quaternion": Quaternions}


def cross_ratio(K, a, b, c, d):
    """c(A,B;C,D) = [(A-D)^-1 (B-D)] [(B-C)^-1 (A-C)] for distinct points.

    At most one argument may be INF; its slot takes the documented reduced
    formula.  Coinciding finite points are outside what the benchmark sends.
    """
    points = (a, b, c, d)
    finite = [p for p in points if p is not INF]
    if len(finite) < 3 or any(finite[i] == q for i in range(len(finite)) for q in finite[i + 1:]):
        raise ValueError("the oracle handles distinct points with at most one at infinity")
    mul, sub, inv = K.mul, K.sub, K.inv
    if a is INF:
        return mul(sub(b, d), inv(sub(b, c)))
    if b is INF:
        return mul(inv(sub(a, d)), sub(a, c))
    if c is INF:
        return mul(inv(sub(a, d)), sub(b, d))
    if d is INF:
        return mul(inv(sub(b, c)), sub(a, c))
    return mul(mul(inv(sub(a, d)), sub(b, d)), mul(inv(sub(b, c)), sub(a, c)))


def point_at(K, o, i, t):
    """The point with coordinate t on the axis o -> 0, i -> 1: o + t (i - o)."""
    return tuple(K.add(oc, K.mul(t, K.sub(ic, oc))) for oc, ic in zip(o, i))


def coordinate(K, o, i, p):
    """Inverse of point_at for an axis point p."""
    axis = 0 if o[0] != i[0] else 1
    return K.mul(K.sub(p[axis], o[axis]), K.inv(K.sub(i[axis], o[axis])))


def parse_point(K, text: str):
    x, y = text.split(",")
    return (K.parse(x), K.parse(y))


def format_point(K, p) -> str:
    return f"{K.format(p[0])},{K.format(p[1])}"


def _options(argv: list[str]) -> tuple[dict, list[str]]:
    """Split a generated argv into --option values and positionals."""
    opts, positional = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            positional.extend(tokens)
        elif token.startswith("--"):
            key, eq, value = token[2:].partition("=")
            opts[key] = value if eq else next(tokens)
        else:
            positional.append(token)
    return opts, positional


def report_sha256(report: dict) -> str:
    """Digest of a verify report in canonical JSON, timestamp removed."""
    body = {k: v for k, v in report.items() if k != "timestamp"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class Reply(NamedTuple):
    """The verdict on one reply; sha is the report digest of a verify reply."""

    ok: bool
    reason: str = ""
    sha: str | None = None


def check(argv: list[str], code, stdout: str, svg_text: str | None = None) -> Reply:
    """Judge one reply; any exception while judging counts as a wrong answer."""
    if code != 0:
        return Reply(False, f"exit code {code}")
    try:
        return _CHECKERS[argv[0]](argv, stdout, svg_text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError, json.JSONDecodeError) as exc:
        return Reply(False, f"unreadable answer: {exc!r}")


def _result_text(opts: dict, stdout: str) -> str:
    if opts.get("format") == "json":
        return json.loads(stdout)["result"]
    return stdout.strip()


def _check_eval(argv, stdout, svg_text):
    opts, literals = _options(argv)
    K = ALGEBRAS[opts["field"]]
    points = [INF if lit == INF else K.parse(lit) for lit in literals]
    want = K.format(cross_ratio(K, *points))
    got = _result_text(opts, stdout)
    return Reply(got == want, f"eval gave {got}, expected {want}")


def _check_solve(argv, stdout, svg_text):
    opts, literals = _options(argv)
    K = ALGEBRAS[opts["field"]]
    r, a, b, c = (K.parse(lit) for lit in literals)
    got = _result_text(opts, stdout)
    d = K.parse(got)
    ok = K.format(d) == got and cross_ratio(K, a, b, c, d) == r
    return Reply(ok, f"solve gave D={got}, and cr(A,B;C,D) != R")


def _check_construct(argv, stdout, svg_text):
    opts, (op,) = _options(argv)
    K = ALGEBRAS[opts["field"]]
    o, i, pa, pb = (parse_point(K, opts[key]) for key in ("O", "I", "A", "B"))
    a, b = coordinate(K, o, i, pa), coordinate(K, o, i, pb)
    value = K.add(a, b) if op == "add" else K.mul(a, b)
    answer = json.loads(stdout)
    want = (op, K.format(value), format_point(K, point_at(K, o, i, value)))
    got = (answer["op"], answer["value"], answer["result"])
    if got != want:
        return Reply(False, f"construct gave {got}, expected {want}")
    figure = svg_text or ""
    if "svg" in opts and not (figure.startswith("<svg") and figure.endswith("</svg>\n")):
        return Reply(False, "construct wrote no complete SVG figure")
    return Reply(True)


def _check_desargues(argv, stdout, svg_text):
    opts, _ = _options(argv)
    answer = json.loads(stdout)
    count = int(opts["count"])
    ok = answer["count"] == count and answer["passes"] == count and not answer["failures"]
    return Reply(ok, f"desargues passed {answer['passes']} of {count}")


def _check_verify(argv, stdout, svg_text):
    opts, _ = _options(argv)
    report = json.loads(stdout)
    samples = int(opts["samples"])
    problems = []
    if (report["field"], report["seed"], report["samples"]) != (opts["field"], int(opts["seed"]), samples):
        problems.append("report echoes another request")
    if report["passed"] is not True:
        problems.append("suite not passed")
    for rec in report["checks"]:
        if rec["skipped"]:
            continue
        if rec["passed"] is not True:
            problems.append(f"{rec['name']} not passed")
        if rec["kind"] == "witness-search":
            if len(rec["witnesses"]) != 1:
                problems.append(f"{rec['name']} found no witness")
            continue
        if rec["failures"] or rec["witnesses"]:
            problems.append(f"{rec['name']} carries witnesses")
        if rec["strategy"] == "sampled" and rec["samples_run"] != samples:
            problems.append(f"{rec['name']} ran {rec['samples_run']} of {samples} samples")
        if rec["samples_run"] < 1:
            problems.append(f"{rec['name']} passed vacuously")
    return Reply(not problems, "; ".join(problems), report_sha256(report))


_CHECKERS = {
    "eval": _check_eval,
    "solve": _check_solve,
    "construct": _check_construct,
    "desargues": _check_desargues,
    "verify": _check_verify,
}
