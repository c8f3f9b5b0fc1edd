"""Tests of the benchmark's own parts: request streams, oracle, tracer, comparison.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import itertools
import json
import pathlib
import sys

import pytest

import compare
import oracle
import run
import workloads
from tracer import FIELD_METHODS, Tracer, self_times


def _stream(workload, seed, count=40, svg_path="fig.svg"):
    return list(itertools.islice(workloads.requests(workload, seed, svg_path), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv_stream(workload):
    assert _stream(workload, 7) == _stream(workload, 7)
    assert _stream(workload, 7) != _stream(workload, 8)


def test_bignum_cycle_mix_is_exact():
    kinds = [argv[0] for argv in _stream("requests-bignum", 1, 2 * len(workloads.BIGNUM_CYCLE))]
    assert kinds.count("eval") == kinds.count("solve") == 12
    assert kinds.count("construct") == 6 and kinds.count("desargues") == 2


def test_self_time_on_hand_built_tree():
    # root 0..10 has children 1..4 and 5..9; the second has a child 6..8.
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    assert list(self_times(parent, start, end)) == [3.0, 3.0, 2.0, 2.0]


def test_tracer_metrics_use_self_time_per_layer():
    tracer = Tracer()
    outer = tracer._wrap("ratio.cross_ratio", lambda: inner())
    inner = tracer._wrap("fields.mul", lambda: None)
    outer()
    metrics = tracer.metrics([])
    assert metrics["ratio.cross_ratio.calls"] == (1, "count")
    assert metrics["fields.mul.calls"] == (1, "count")
    assert list(tracer.parent) == [-1, 0]
    total = tracer.end[0] - tracer.start[0]
    assert metrics["ratio.self_s"][0] + metrics["fields.self_s"][0] == pytest.approx(total)


def _namespaces():
    import crossratio.fields as fields

    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "crossratio"]
    owners += [getattr(fields, cls) for cls, _, _ in FIELD_METHODS]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_traced_run_restores_every_patched_name(tmp_path):
    from crossratio import cli, ratio, verify

    before = _namespaces()
    original = verify.cross_ratio
    client = run.Client(cli, str(tmp_path / "fig.svg"))
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.cross_ratio is not original and ratio.cross_ratio is verify.cross_ratio
        for argv in _stream("requests-bignum", 2, 16, client.svg_path):
            client.send(argv)
        client.send(["verify", "--field", "rational", "--seed", "0", "--samples", "1", "--format", "json"])
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert client.failures == [] and not tracer.missing
    metrics = tracer.metrics(verify.CHECKS)
    assert metrics["cli.main.calls"][0] == 17
    assert metrics["verify.run_check.calls"][0] > 0 and metrics["svg.render.calls"][0] == 1


@pytest.mark.parametrize(
    "argv, reply",
    [
        (["eval", "--field", "rational", "--", "2", "3", "1", "0"], "3/4"),
        (["eval", "--field", "quaternion", "--", "i", "j", "k", "0"], "1/2+1/2i-1/2j-1/2k"),
        (["solve", "--field", "rational", "--", "3/4", "2", "3", "1"], "0"),
    ],
)
def test_oracle_agrees_with_readme_examples(argv, reply):
    assert oracle.check(argv, 0, reply + "\n").ok
    assert not oracle.check(argv, 0, "1/3\n").ok
    assert not oracle.check(argv, 3, reply + "\n").ok


def test_oracle_parses_and_formats_canonically():
    Q = oracle.Quaternions
    for text in ("1/2+1/2i-1/2j-1/2k", "-i", "3k", "0", "-7/3+j"):
        assert Q.format(Q.parse(text)) == text
    assert oracle.cross_ratio(Q, *(Q.parse(t) for t in "ijk0")) == Q.parse("1/2+1/2i-1/2j-1/2k")


def test_oracle_judges_verify_reports():
    from crossratio import cli

    out = io.StringIO()
    argv = ["verify", "--field", "gf:5", "--seed", "3", "--samples", "2", "--format", "json"]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    report = json.loads(out.getvalue())
    good = oracle.check(argv, 0, json.dumps(report))
    assert good.ok and len(good.sha) == 64
    later = dict(report, timestamp="another time")
    assert oracle.check(argv, 0, json.dumps(later)).sha == good.sha
    sampled = next(i for i, c in enumerate(report["checks"]) if c["strategy"] == "sampled")
    for change in ({"samples_run": 1}, {"witnesses": [{"inputs": [], "lhs": "1", "rhs": "2"}]}):
        bad = json.loads(json.dumps(report))
        bad["checks"][sampled].update(change)
        assert not oracle.check(argv, 0, json.dumps(bad)).ok


def test_tail_has_ten_samples_beyond():
    latencies = [float(i) for i in range(100)]
    value, percentile, beyond = run.tail(latencies)
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert sum(x > value for x in latencies) == 10


def test_compare_refuses_other_python_or_cpu_count():
    def result(python, nproc):
        return {
            "stamp": {"python": python, "nproc": nproc},
            "metrics": {"latency_p50_ms": {"value": 2.0, "unit": "ms"}},
            "verify_reports": [{"argv": ["verify"], "report_sha256": python}],
        }

    assert compare.compare(result("3.11.7", 2), result("3.12.1", 2))[1] == 2
    assert compare.compare(result("3.11.7", 2), result("3.11.7", 4))[1] == 2
    lines, code = compare.compare(result("3.11.7", 2), result("3.11.7", 2))
    assert code == 0 and lines[-1] == "verify reports: 1 shared, 0 differ"


def test_benchmark_json_names_every_reported_metric(tmp_path, monkeypatch):
    from crossratio import cli

    spec = json.loads((pathlib.Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "WARMUP_SECONDS", 0.0)
    monkeypatch.setitem(run.TRACE_REQUESTS, "requests-bignum", 3)
    client = run.Client(cli, str(tmp_path / "fig.svg"))
    timed, _ = run.timed_run("requests-bignum", 1, 0.2, client, str(pathlib.Path(cli.__file__).parents[1]))
    traced, _, _ = run.traced_run("requests-bignum", 1, client)
    assert list(timed) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced) == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in {**timed, **traced}.items())
    assert client.failures == []
