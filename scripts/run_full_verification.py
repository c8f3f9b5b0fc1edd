#!/usr/bin/env python3
"""Run the whole identity suite over every field and summarize the outcome.

Writes one JSON report per field, the report that `crossratio verify
--format json` prints for the same field, seed and samples, and once it is
written prints it as `crossratio verify` does, between a `== field
(elapsed)` header and a `report -> path` line.  Exit
status: 0 every non-skipped check passed, 1 at least one failed somewhere,
2 a bad argument (an unknown or non-prime field, a field too small to give
some check any input, or fewer than one sample), 5 a report that cannot be
written (say, --out-dir names an existing file); 2 and 5 are reported as
one `error:` line.  Every field name is resolved before anything is
written, and the output directory is created only once the first report is
complete.  A write failure stops the run and keeps the reports already
written.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from crossratio.cli import format_report
from crossratio.fields import field_by_name
from crossratio.verify import run_suite

DEFAULT_FIELDS = ["rational", "gf:5", "gf:101", "quaternion"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fields", nargs="*", default=DEFAULT_FIELDS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--out-dir", default="verification_reports")
    args = parser.parse_args()

    try:
        return run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


def run(args) -> int:
    fields = [field_by_name(name) for name in args.fields]
    out_dir = pathlib.Path(args.out_dir)
    all_passed = True
    for name, field in zip(args.fields, fields):
        started = time.time()
        report = run_suite(field, seed=args.seed, samples=args.samples)
        elapsed = time.time() - started
        all_passed &= report["passed"]

        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"{name.replace(':', '_')}.json"
        target.write_text(json.dumps(report, indent=2) + "\n")

        print(f"== {name}  ({elapsed:.1f}s)")
        print(format_report(report))
        print(f"report -> {target}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
