"""Compare two result files written by run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both runs and their ratio, then every verify request
the two runs share whose report digest differs (a refactor should leave
them byte-identical).  Refuses, with exit code 2, to compare runs made on
different Python versions or CPU counts.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("python", "nproc")


def compare(before: dict, after: dict) -> tuple[list[str], int]:
    """Report lines and exit code for two loaded result files."""
    for key in MUST_MATCH:
        if before["stamp"][key] != after["stamp"][key]:
            return [f"refusing to compare: {key} {before['stamp'][key]} vs {after['stamp'][key]}"], 2
    lines = [f"{'metric':48s} {'before':>14s} {'after':>14s} {'after/before':>12s}"]
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            continue
        ratio = f"{new['value'] / old['value']:12.4f}" if old["value"] else f"{'-':>12s}"
        lines.append(f"{name:48s} {old['value']:14.6g} {new['value']:14.6g} {ratio} {old['unit']}")
    old_reports = {json.dumps(r["argv"]): r["report_sha256"] for r in before["verify_reports"]}
    shared = differ = 0
    for report in after["verify_reports"]:
        key = json.dumps(report["argv"])
        if key in old_reports:
            shared += 1
            if old_reports[key] != report["report_sha256"]:
                differ += 1
                lines.append(f"report differs: {' '.join(report['argv'])}")
    lines.append(f"verify reports: {shared} shared, {differ} differ")
    return lines, 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    loaded = []
    for path in argv:
        with open(path, encoding="utf-8") as source:
            loaded.append(json.load(source))
    lines, code = compare(*loaded)
    print("\n".join(lines), file=sys.stderr if code else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
