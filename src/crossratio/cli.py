"""Command-line surface for the cross-ratio calculus and plane constructions.

Subcommands: eval, solve, verify, construct, desargues.  Every subcommand
takes --field, --format and --out; verify also takes --seed and --samples,
desargues --seed.  Results are exact at any size: the CLI lifts Python's
limit on the digits of an int printed in decimal.  Exit codes are
stable: 0 success, 2 unparseable input or bad configuration, 3 violated
precondition (any fields.PreconditionError), 4 a fourth point that exists
only at infinity (ratio.InfiniteSolutionError), 5 I/O failure.  main reads
codes 3 and 4 from the error's class attribute exit_code.  A verification
or Desargues run that completes but finds failures exits 1.

Bad configuration includes a GF modulus of gf.PRIME_TEST_LIMIT (about
3.3e24) or more, a `verify` field too small to give some check any valid
input (gf:2 and gf:3), and a `desargues --count` below 1.

`main(argv)` may be called repeatedly in one process: it parses with one
parser, built on its first call and reused after, since argparse leaves a
parser unchanged while parsing.  `build_parser()` returns a fresh parser.
An argv that starts with a subcommand name goes straight to that
subcommand's parser, where the top-level parser would send it, so it is
scanned once.  Any other argv, or one that leaves arguments unrecognized,
is parsed by the whole parser, so help, usage lines, error messages and
exit codes are argparse's own.

Importing this module and calling build_parser() load only fields and svg
from the package, and neither json nor fractions.  Each subcommand imports
what it uses when it runs: eval and solve the ratio layer, construct the
plane layer, desargues the plane layer and hashlib, and verify the
verification engine, which loads ratio and plane.  A --field gf:P loads
gf and --field quaternion loads quaternion; verify loads both.  json loads
only for --format json, and fractions only where a field takes or returns
a Fraction.  This keeps a one-shot process short.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .fields import Field, PreconditionError, RationalField, field_by_name
from .svg import render_construction


def _parse_xy(field: Field, text: str) -> tuple:
    """The two coordinates of a point literal 'x,y'."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point literal must be 'x,y', got {text!r}")
    return field.parse(parts[0]), field.parse(parts[1])


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as sink:
            sink.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload, out: str | None, indent: int | None = None) -> None:
    import json  # loaded only for --format json

    _emit(json.dumps(payload, indent=indent), out)


def _cmd_eval(args) -> int:
    from .ratio import ExtendedPoint, cross_ratio

    field = field_by_name(args.field)
    points = [
        ExtendedPoint(field, None if lit.strip() == "inf" else field.parse(lit))
        for lit in (args.A, args.B, args.C, args.D)
    ]
    result = cross_ratio(*points)
    if args.fmt == "json":
        _emit_json({"field": field.name, "result": str(result)}, args.out)
    else:
        _emit(str(result), args.out)
    return 0


def _cmd_solve(args) -> int:
    from .ratio import solve_fourth_point

    field = field_by_name(args.field)
    r, a, b, c = (field.parse(lit) for lit in (args.R, args.A, args.B, args.C))
    d = solve_fourth_point(r, a, b, c)
    if args.fmt == "json":
        _emit_json({"field": field.name, "result": str(d)}, args.out)
    else:
        _emit(str(d), args.out)
    return 0


def format_report(report: dict) -> str:
    """The text form of a run_suite report: one line per check, then the verdict."""
    lines = [f"field={report['field']} seed={report['seed']} samples={report['samples']}"]
    for check in report["checks"]:
        if check["skipped"]:
            lines.append(f"SKIP {check['name']}: {check['reason']}")
        elif check["passed"]:
            lines.append(
                f"PASS {check['name']} "
                f"({check['strategy']}, {check['samples_run']} samples, "
                f"{check['redraws']} redraws)"
            )
        else:
            raised = f", {check['raised']} raised" if "raised" in check else ""
            lines.append(
                f"FAIL {check['name']}: {check['failures']} failures "
                f"in {check['samples_run']} samples{raised}"
            )
            for witness in check["witnesses"]:
                joined = ", ".join(witness["inputs"])
                lines.append(
                    f"     witness: {joined} | lhs={witness['lhs']} rhs={witness['rhs']}"
                )
    lines.append("suite passed" if report["passed"] else "suite FAILED")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    from .verify import run_suite

    field = field_by_name(args.field)
    report = run_suite(field, args.seed, args.samples)
    if args.fmt == "json":
        _emit_json(report, args.out, indent=2)
    else:
        _emit(format_report(report), args.out)
    return 0 if report["passed"] else 1


def _cmd_construct(args) -> int:
    from .plane import (
        Chart,
        DegenerateConfigurationError,
        PlanePoint,
        construct_product,
        construct_sum,
        default_aux,
    )

    field = field_by_name(args.field)
    o, i, a, b = (PlanePoint(*_parse_xy(field, lit)) for lit in (args.O, args.I, args.A, args.B))
    aux = PlanePoint(*_parse_xy(field, args.aux)) if args.aux else None
    chart = Chart(o, i)
    build = construct_sum if args.op == "add" else construct_product
    trace = build(chart, a, b, default_aux(chart) if aux is None else aux)
    value = chart.coordinate(trace.result)
    if args.svg is not None:
        if not isinstance(field, RationalField):
            raise DegenerateConfigurationError(
                "SVG output is limited to the rational plane"
            )
        figure = render_construction(trace)  # before open(), so a failure leaves no file
        with open(args.svg, "w", encoding="utf-8") as sink:
            sink.write(figure)
    if args.fmt == "json":
        points = {name: str(p) for name, p in trace.points.items()}
        payload = {
            "op": trace.kind,
            "field": field.name,
            "points": points,
            "lines": [[label, str(line)] for label, line in trace.lines],
            "result": points["C"],  # trace.result is point C, already formatted
            "value": str(value),
        }
        _emit_json(payload, args.out, indent=2)
    else:
        lines = []
        for label, line in trace.lines:
            lines.append(f"line [{label}]: {line}")
        lines.append(f"P1 = {trace.points['P1']}")
        lines.append(f"C has coordinate {value}")
        lines.append(str(trace.result))
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_desargues(args) -> int:
    import hashlib

    from .plane import (
        GenerationFailureError,
        HypothesisViolationError,
        PlanePoint,
        check_desargues,
        generate_desargues_config,
    )

    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    field = field_by_name(args.field)
    passes = 0
    failures = []
    canonicals = []
    for index in range(args.count):
        sub_seed = f"{args.seed}:{index}"
        try:
            cfg, ok = generate_desargues_config(field, sub_seed, args.mode)
        except GenerationFailureError as exc:
            failures.append(f"config {index}: {exc}")
            continue
        if args.flip_c_prime:
            one = cfg.c_prime.field.one
            cfg = cfg._replace(c_prime=PlanePoint(cfg.c_prime.x + one, cfg.c_prime.y + one))
        canonicals.append(cfg.canonical())
        try:
            # the generator's verdict is for the configuration it drew, not the tampered one
            if args.flip_c_prime:
                ok = check_desargues(cfg)
        except HypothesisViolationError as exc:
            failures.append(f"config {index}: {exc}")
            continue
        if ok:
            passes += 1
        else:
            failures.append(f"config {index}: conclusion fails: {cfg.canonical()}")
    digest = hashlib.sha256("\n".join(canonicals).encode()).hexdigest()[:16]
    if args.fmt == "json":
        payload = {
            "field": field.name,
            "mode": args.mode,
            "count": args.count,
            "passes": passes,
            "failures": failures,
            "config_hash": digest,
        }
        _emit_json(payload, args.out, indent=2)
    else:
        lines = [f"{passes}/{args.count} pass", f"config-hash: {digest}"]
        lines.extend(failures)
        _emit("\n".join(lines), args.out)
    return 0 if passes == args.count else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="rational", help="rational | gf:P | quaternion")
    common.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    common.add_argument("--out", default=None, help="write output to this path")

    parser = argparse.ArgumentParser(
        prog="crossratio",
        description="Exact cross-ratio calculus and plane constructions over skew fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="cross-ratio of four points")
    for name in "ABCD":
        p_eval.add_argument(name, help="element literal, or 'inf' in one slot")
    p_eval.set_defaults(handler=_cmd_eval)

    p_solve = sub.add_parser("solve", parents=[common], help="fourth point for a ratio value")
    for name in "RABC":
        p_solve.add_argument(name, help="element literal")
    p_solve.set_defaults(handler=_cmd_solve)

    p_verify = sub.add_parser("verify", parents=[common], help="run the identity suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.set_defaults(handler=_cmd_verify)

    p_construct = sub.add_parser(
        "construct", parents=[common], help="trace a ruler construction on an axis"
    )
    p_construct.add_argument("op", choices=("add", "mul"))
    p_construct.add_argument("--O", required=True, help="axis zero point 'x,y'")
    p_construct.add_argument("--I", required=True, help="axis unit point 'x,y'")
    p_construct.add_argument("--A", required=True, help="first operand point 'x,y'")
    p_construct.add_argument("--B", required=True, help="second operand point 'x,y'")
    p_construct.add_argument("--aux", default=None, help="auxiliary off-axis point 'x,y'")
    p_construct.add_argument("--svg", default=None, help="write an SVG figure here")
    p_construct.set_defaults(handler=_cmd_construct)

    p_des = sub.add_parser(
        "desargues", parents=[common], help="generate and check perspective triangles"
    )
    p_des.add_argument("--seed", type=int, default=0)
    p_des.add_argument("--count", type=int, default=200)
    p_des.add_argument("--mode", choices=("parallel", "concurrent"), default="parallel")
    p_des.add_argument(
        "--flip-c-prime",
        "--flip-C'",
        dest="flip_c_prime",
        action="store_true",
        help="negative control: corrupt C' before checking",
    )
    p_des.set_defaults(handler=_cmd_desargues)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


@functools.cache
def _subcommands() -> dict:
    """Each subcommand's name mapped to its parser: the choices of the cached
    parser's add_subparsers action."""
    return next(action.choices for action in _parser()._actions if action.dest == "command")


def _parse_args(argv) -> argparse.Namespace:
    """What _parser().parse_args(argv) returns, in one argparse pass where it can.

    The top-level parser hands everything after a leading subcommand name
    to that subcommand's parser, so such an argv goes straight there.  Any
    other argv (empty, help, a leading '--', an unknown name) or one that
    leaves unrecognized arguments is parsed by the whole parser, whose
    usage, messages and exit codes it then gets.
    """
    sub = _subcommands().get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact results may run past the default 4300 digits
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if [] in vars(args).values():
            # argparse before 3.12 fills the positional that meets a second '--' with []
            raise ValueError("a second '--' is not a literal")
        return args.handler(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
