#!/usr/bin/env python3
"""Emit SVG figures of the ruler constructions for a worked example.

Draws the three-step sum and product constructions over the rational
plane and writes one SVG per operation.  Exit codes follow the CLI's: 0
success, 2 an unparseable operand, 3 a figure that cannot be drawn (a
coordinate out of float range), 5 a figure that cannot be written (say,
--out-dir names an existing file).  Both figures are rendered before the
output directory is created, so a failure to parse or draw writes nothing.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from crossratio.fields import RationalField
from crossratio.plane import (
    Chart,
    DegenerateConfigurationError,
    construct_sum_and_product,
    point,
)
from crossratio.svg import render_construction


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", default="2", help="coordinate of the first operand")
    parser.add_argument("--b", default="3", help="coordinate of the second operand")
    parser.add_argument("--out-dir", default="figures")
    args = parser.parse_args()

    field = RationalField()
    try:
        a = point(field, field.parse(args.a), 0)
        b = point(field, field.parse(args.b), 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    chart = Chart(point(field, 0, 0), point(field, 1, 0))
    aux = point(field, 0, 1)

    try:
        both = construct_sum_and_product(chart, a, b, aux)
        figures = [(label, built, render_construction(built)) for label, built in zip(("sum", "product"), both)]
    except DegenerateConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    out_dir = pathlib.Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, built, figure in figures:
            target = out_dir / f"{label}.svg"
            target.write_text(figure)
            value = chart.coordinate(built.result)
            print(f"{label}: C = {built.result} (coordinate {value}) -> {target}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
