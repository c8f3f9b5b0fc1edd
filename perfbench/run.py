"""Layered benchmark of the crossratio command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a crossratio checkout.  One client sends one
request at a time (a closed loop) to `crossratio.cli.main(argv)` in this
process, with stdout captured, and checks every answer with the exact
oracle in `oracle.py`.

--trace 0 measures for S seconds and reports the end-to-end metrics: setup
time (median of fresh interpreters importing crossratio.cli and building the
parser), throughput (requests per second spent inside main; checking the
answers is not counted), median latency, tail latency (the highest
percentile with ten samples beyond it) and peak RSS.  --trace 1 runs a
fixed number of requests twice, untraced and then traced, and reports the
per-layer metrics of the traced pass together with the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full result, stamped with the Python version, CPU count,
platform, git commit and seed, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import oracle
import workloads
from tracer import Tracer

OUT_DIR = os.path.join("perfbench", "out")
SETUP_RUNS = 9
WARMUP_SECONDS = 1.0
TAIL_BEYOND = 10
# Requests in each pass of a traced run: a fixed count, so every call count repeats.
TRACE_REQUESTS = {"verify-quaternion": 4, "verify-gf": 6, "requests-bignum": 320}
SHOWN_FAILURES = 5

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import crossratio.cli
crossratio.cli.build_parser()
print(time.perf_counter() - t0)
"""


def stamp(args) -> dict:
    """Where and what was measured; compare.py refuses to mix Python versions or CPU counts."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_sha() -> str:
    """HEAD of the checkout's own .git, if it has one; never looks above it."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(".git", name), encoding="utf-8") as loose:
                return loose.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as packed:
            for line in packed:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(src: str) -> float:
    """Median time for a fresh interpreter to import crossratio.cli and build its parser."""
    times = []
    for attempt in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, src],
            capture_output=True, text=True, timeout=120, check=True,
        )
        if attempt:  # the first run also writes the bytecode cache
            times.append(float(done.stdout))
    return statistics.median(times)


class Client:
    """Sends one request at a time to crossratio.cli.main and judges each answer."""

    def __init__(self, cli, svg_path: str):
        self.cli = cli
        self.svg_path = svg_path
        self.attempted = 0
        self.failures: list[str] = []
        self.out_bytes = 0
        self.reports: list[dict] = []

    def send(self, argv: list[str]) -> float:
        """Run one request, check it, and return its latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception as exc:  # a traceback is a failed request, not a dead benchmark
                code = f"uncaught {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        stdout = out.getvalue()
        self.out_bytes += len(stdout.encode())
        svg_text = None
        if "--svg" in argv and os.path.exists(self.svg_path):
            with open(self.svg_path, encoding="utf-8") as figure:
                svg_text = figure.read()
            os.remove(self.svg_path)
        reply = oracle.check(argv, code, stdout, svg_text)
        self.attempted += 1
        if not reply.ok:
            self.failures.append(f"{' '.join(argv)[:200]} -> {reply.reason[:300]} {err.getvalue()[:200]}")
        if reply.sha is not None:
            self.reports.append({"argv": argv, "report_sha256": reply.sha})
        return latency


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def timed_run(workload: str, seed: int, seconds: float, client: Client, src: str):
    setup_s = setup_seconds(src)
    stream = workloads.requests(workload, seed, client.svg_path)
    warm_until = time.perf_counter() + WARMUP_SECONDS
    while True:
        client.send(next(stream))
        if time.perf_counter() >= warm_until:
            break
    latencies = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        latencies.append(client.send(next(stream)))
    tail_s, percentile, beyond = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "timed_requests": len(latencies),
        "latency_tail_percentile": percentile,
        "latency_tail_samples_beyond": beyond,
    }
    return metrics, notes


def traced_run(workload: str, seed: int, client: Client):
    count = TRACE_REQUESTS[workload]
    argvs = list(itertools.islice(workloads.requests(workload, seed, client.svg_path), count))
    client.send(argvs[0])  # warm-up, untimed

    def one_pass(tracer=None):
        t0 = time.perf_counter()
        for index, argv in enumerate(argvs):
            if tracer is not None:
                tracer.request_id = index
            client.send(argv)
        return time.perf_counter() - t0

    untraced_s = one_pass()
    tracer = Tracer()
    tracer.install()
    bytes_before = client.out_bytes
    try:
        traced_s = one_pass(tracer)
    finally:
        tracer.uninstall()
    from crossratio.verify import CHECKS

    metrics = tracer.metrics(CHECKS)
    metrics["cli.out_bytes"] = (client.out_bytes - bytes_before, "byte")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    notes = {
        "traced_requests": count,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.start),
        "missing_trace_targets": tracer.missing,
    }
    return metrics, notes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "crossratio", "cli.py")):
        print("error: src/crossratio not found; run from the root of a crossratio checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from crossratio import cli

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    client = Client(cli, os.path.join(OUT_DIR, f"{tag}.svg"))
    if args.trace:
        metrics, notes, tracer = traced_run(args.workload, args.seed, client)
        tracer.write(os.path.join(OUT_DIR, f"{tag}.spans.tsv.gz"))
    else:
        metrics, notes = timed_run(args.workload, args.seed, args.seconds, client, src)

    summary = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    # failed_frac is 0 whenever the program is right, so it travels as
    # attempted/failed in the summary line rather than as a metric there.
    failed_frac = len(client.failures) / client.attempted
    result = dict(
        summary,
        stamp=stamp(args),
        failed_frac=failed_frac,
        notes=notes,
        failures=client.failures,
        verify_reports=client.reports,
    )
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as sink:
        json.dump(result, sink, indent=1)

    for failure in client.failures[:SHOWN_FAILURES]:
        print(f"FAILED {failure}")
    for name, (value, unit) in {**metrics, "failed_frac": (failed_frac, "ratio")}.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    for name, value in notes.items():
        print(f"{name:48s} {value}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
