#!/usr/bin/env python3
"""Decide empirically which conjugated form the inverse-points law takes.

For invertible collinear points the cross-ratio of the inverses is a
conjugate of a cross-ratio of the original points: A * X * A^-1.  Two
candidate argument orders for X are plausible a priori; over quaternions
only one can survive random sampling.  This script reports the match
counts for both candidates and the surviving form.  Exit status: 0 when
form_abcd survives, 1 otherwise, 2 a bad argument (an unknown or
non-prime field, a field too small to give the check any input, or fewer
than one sample), reported as one `error:` line.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from crossratio.fields import field_by_name
from crossratio.verify import resolve_conjugation_form


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--field", default="quaternion")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--samples", type=int, default=1000)
    args = parser.parse_args()

    try:
        out = resolve_conjugation_form(
            seed=args.seed, samples=args.samples, field=field_by_name(args.field)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out, indent=2))
    print(
        f"\ncr(A^-1,B^-1;C^-1,D^-1) = A * cr(A,B;C,D) * A^-1  "
        f"matched {out['form_abcd_matches']}/{out['samples']}"
    )
    print(
        f"cr(A^-1,B^-1;C^-1,D^-1) = A * cr(A,C;B,D) * A^-1  "
        f"matched {out['form_acbd_matches']}/{out['samples']}"
    )
    print(f"surviving form: {out['resolved']}")
    return 0 if out["resolved"] == "form_abcd" else 1


if __name__ == "__main__":
    sys.exit(main())
