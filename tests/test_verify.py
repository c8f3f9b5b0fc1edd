"""Deterministic seeded verification engine: records, skips, strategies."""

import hashlib
import json
import random

import pytest

from conftest import GF5, GF7, GF101, QUATERNION, RATIONAL, swapped_inverse_form_matches
from crossratio import verify
from crossratio.fields import DivisionByZeroError, field_by_name
from crossratio.gf import GaloisField
from crossratio.plane import Chart, point
from crossratio.verify import (
    CHECKS,
    CheckDef,
    UnknownCheckError,
    WITNESS_CAP,
    run_check,
    run_suite,
)

RECORD_KEYS = {
    "name",
    "kind",
    "skipped",
    "strategy",
    "samples_run",
    "redraws",
    "passed",
    "failures",
    "witnesses",
}


def strip_timestamp(report):
    return {k: v for k, v in report.items() if k != "timestamp"}


# ---------------------------------------------------------------- run_check


def test_unknown_check_rejected():
    with pytest.raises(UnknownCheckError):
        run_check("no_such_check", RATIONAL, 10, 0)


def test_invalid_sample_count_rejected():
    with pytest.raises(ValueError):
        run_check("field_axioms", RATIONAL, 0, 0)


def test_run_check_record_shape():
    rec = run_check("cr_inverse_swap", RATIONAL, 25, 4)
    assert set(rec) == RECORD_KEYS
    assert rec["passed"] and rec["failures"] == 0 and rec["witnesses"] == []
    assert rec["samples_run"] == 25
    assert rec["strategy"] == "sampled"


def test_run_check_is_deterministic():
    args = ("cr_complement", QUATERNION, 30, 99)
    assert run_check(*args) == run_check(*args)


# ---------------------------------------------------------------- strategies


def test_small_prime_fields_enumerate_exhaustively():
    rec = run_check("cr_inverse_swap", GF5, 1000, 0)
    assert rec["strategy"] == "exhaustive"
    assert rec["samples_run"] == 5 * 4 * 3 * 2  # ordered distinct 4-tuples
    assert rec["passed"]


ENUMERABLE = [name for name, check in CHECKS.items() if check.enumerate_inputs is not None]


@pytest.mark.parametrize("field", [GF5, GF7], ids=lambda f: f.name)
@pytest.mark.parametrize("name", ENUMERABLE)
def test_draw_and_enumerator_cover_the_same_domain(name, field):
    # auto switches between the two by field size, so they must agree on the domain
    check = CHECKS[name]
    tuples = list(check.enumerate_inputs(field))
    assert len(set(tuples)) == len(tuples)  # no repeats
    rng = random.Random(f"domain:{name}")
    drawn = [check.draw(field, rng) for _ in range(2000)]
    accepted = [inputs for inputs in drawn if inputs is not None]
    assert accepted
    assert set(accepted) <= set(tuples)


@pytest.mark.parametrize(
    "name, strategy",
    [
        ("ratio3_laws", "exhaustive"),  # three distinct nonzero points: none over GF(3)
        ("cr_inverse_swap", "exhaustive"),  # four distinct points: none over GF(3)
        ("cr_inverse_points_conjugation", "sampled"),  # no enumerator: every draw is rejected
    ],
)
def test_check_without_valid_inputs_is_an_error(name, strategy):
    # one case per NoValidInputError site: an empty enumeration, and REDRAW_CAP rejected draws
    gf3 = GaloisField(3)
    assert verify._can_enumerate(CHECKS[name], gf3) == (strategy == "exhaustive")
    with pytest.raises(ValueError) as exc:
        run_check(name, gf3, 10, 0)
    assert exc.type is verify.NoValidInputError


# ---------------------------------------------------------------- witness search


def test_noncommutativity_witness_absent_over_rationals():
    # The search is out of scope over Q, so it does not run.  It evaluates
    # cr_commutative_symmetry's law on that check's draw, and the law holds
    # over Q (acceptance criterion 04), so no witness exists there anyway.
    rec = run_check("cr_noncommutativity_witness", RATIONAL, 100, 2)
    assert rec["kind"] == "witness-search" and rec["skipped"] is True
    assert rec["passed"] is None and rec["samples_run"] == 0 and rec["witnesses"] == []
    search, law = CHECKS["cr_noncommutativity_witness"], CHECKS["cr_commutative_symmetry"]
    assert search.evaluate is law.evaluate
    for index in range(20):
        draws = [check.draw(RATIONAL, random.Random(index)) for check in (search, law)]
        assert draws[0] == draws[1]


def test_noncommutativity_witness_found_over_quaternions():
    rec = run_check("cr_noncommutativity_witness", QUATERNION, 100, 2)
    assert rec["passed"] is True
    assert rec["samples_run"] <= 100
    wit = rec["witnesses"][0]
    assert set(wit) == {"inputs", "lhs", "rhs"}
    assert wit["lhs"] != wit["rhs"]


def test_check_def_defaults():
    def draw(field, rng):
        return ()

    def evaluate(field, inputs):
        return []

    check = CheckDef(name="probe", description="a probe", draw=draw, evaluate=evaluate)
    assert (check.name, check.description, check.draw, check.evaluate) == (
        "probe", "a probe", draw, evaluate
    )
    assert (check.scope, check.kind, check.enumerate_inputs) == ("all", "equality", None)
    positional = CheckDef("probe", "a probe", "quaternion", "witness-search", draw, evaluate, list)
    assert (positional.scope, positional.kind, positional.enumerate_inputs) == (
        "quaternion", "witness-search", list
    )


# ---------------------------------------------------------------- failing checks


def test_failing_check_reports_capped_witnesses():
    name = "always_unequal_probe"
    CHECKS[name] = CheckDef(
        name=name,
        description="probe: zero never equals one",
        draw=lambda field, rng: (field.random_element(rng),),
        evaluate=lambda field, xs: [
            {"inputs": [str(xs[0])], "lhs": str(field.zero), "rhs": str(field.one)}
        ],
    )
    try:
        rec = run_check(name, RATIONAL, 40, 0)
        assert rec["passed"] is False
        assert rec["failures"] == 40
        assert len(rec["witnesses"]) == WITNESS_CAP
        suite = run_suite(RATIONAL, seed=0, samples=5)
        assert suite["passed"] is False
    finally:
        del CHECKS[name]


@pytest.mark.parametrize("kind", ["equality", "witness-search"])
def test_a_raising_evaluator_fails_its_sample(monkeypatch, kind):
    # every other draw raises and is redrawn; every evaluation raises and
    # fails its sample, with the formatted inputs and the error in its witness
    draws = []

    def draw(field, rng):
        draws.append(None)
        if len(draws) % 2:
            raise DivisionByZeroError("the draw divided by zero")
        return (Chart(point(field, 0, 0), point(field, 1, 2)), field.one, (field.zero, field.one))

    def evaluate(field, inputs):
        raise DivisionByZeroError("cannot invert zero in rational")

    name = "raising_probe"
    monkeypatch.setitem(CHECKS, name, CheckDef(name, "probe", kind=kind, draw=draw, evaluate=evaluate))
    rec = run_check(name, RATIONAL, 3, 0)
    assert set(rec) == RECORD_KEYS | {"raised"}
    assert rec["passed"] is False
    assert (rec["samples_run"], rec["redraws"], rec["failures"], rec["raised"]) == (3, 3, 3, 3)
    assert rec["witnesses"] == 3 * [
        {
            "inputs": ["chart(O=0,0, I=1,2)", "1", "(0, 1)"],
            "lhs": "DivisionByZeroError: cannot invert zero in rational",
            "rhs": "no error",
        }
    ]


# ---------------------------------------------------------------- run_suite


def test_suite_shape_and_skips():
    report = run_suite(QUATERNION, seed=5, samples=8)
    assert {"field", "seed", "samples", "timestamp", "passed", "checks"} <= set(report)
    assert report["field"] == "quaternion" and report["passed"] is True
    by_name = {rec["name"]: rec for rec in report["checks"]}
    assert len(by_name) == len(report["checks"])  # unique names
    for skip_name in ("ratio3_inverse_commutative", "cr_commutative_symmetry"):
        assert by_name[skip_name]["skipped"] is True
        assert by_name[skip_name]["reason"]
        assert by_name[skip_name]["passed"] is None
    assert by_name["norm_multiplicativity"]["skipped"] is False


@pytest.mark.parametrize("field", [RATIONAL, GF5, QUATERNION], ids=lambda f: f.name)
def test_suite_records_have_exactly_the_record_keys(field):
    for rec in run_suite(field, seed=5, samples=4)["checks"]:
        expected = RECORD_KEYS | {"reason"} if rec["skipped"] else RECORD_KEYS
        assert set(rec) == expected, rec["name"]


def test_suite_skips_on_commutative_fields():
    report = run_suite(GF101, seed=5, samples=8)
    by_name = {rec["name"]: rec for rec in report["checks"]}
    assert by_name["norm_multiplicativity"]["skipped"] is True
    assert by_name["cr_noncommutativity_witness"]["skipped"] is True
    assert by_name["ratio3_inverse_commutative"]["skipped"] is False
    assert report["passed"] is True


def test_suite_is_deterministic_modulo_timestamp():
    a = run_suite(RATIONAL, seed=31, samples=12)
    b = run_suite(RATIONAL, seed=31, samples=12)
    assert strip_timestamp(a) == strip_timestamp(b)
    assert json.dumps(strip_timestamp(a)) == json.dumps(strip_timestamp(b))


def test_suite_reports_are_json_serializable():
    report = run_suite(GF5, seed=1, samples=6)
    parsed = json.loads(json.dumps(report))
    assert parsed["passed"] is True


def test_applicability_matrix():
    rec = run_check("norm_multiplicativity", RATIONAL, 3, 0)
    assert rec["skipped"] is True and rec["reason"] == "defined for quaternions only"
    rec = run_check("cr_commutative_symmetry", QUATERNION, 3, 0)
    assert rec["skipped"] is True and rec["reason"] == "holds only over a commutative field"
    rec = run_check("cr_noncommutativity_witness", GF5, 3, 0)
    assert rec["skipped"] is True and rec["reason"] == "needs a noncommutative field"
    rec = run_check("cr_inverse_swap", GF5, 3, 0)
    assert rec["skipped"] is False and "reason" not in rec


@pytest.mark.parametrize(
    "name, field",
    [
        ("norm_multiplicativity", GF5),
        ("norm_multiplicativity", RATIONAL),
        ("cr_commutative_symmetry", QUATERNION),
        ("ratio3_inverse_commutative", QUATERNION),
        ("cr_noncommutativity_witness", RATIONAL),
    ],
    ids=lambda value: getattr(value, "name", value),
)
def test_run_check_skips_out_of_scope_as_run_suite_does(name, field):
    # run_check decides scope for every caller, so it returns the suite's skip record
    by_name = {rec["name"]: rec for rec in run_suite(field, seed=0, samples=3)["checks"]}
    rec = run_check(name, field, 3, 0)
    assert rec == by_name[name]
    assert rec["skipped"] is True and rec["strategy"] == "none" and rec["passed"] is None


# ---------------------------------------------------------------- inverse-points law


@pytest.mark.parametrize(
    "field, samples, matches",
    [(GF101, 1000, 8), (RATIONAL, 200, 0)],
    ids=["gf:101", "rational"],
)
def test_swapped_inverse_points_form_matches_iff_half(field, samples, matches):
    # the helper asserts the iff per draw; over gf:101 the draws reach
    # X = 1/2, so both of its branches are taken
    assert swapped_inverse_form_matches(field, 20260816, samples) == matches


def test_conjugation_collapses_for_central_first_point():
    rec = run_check("cr_central_collapse", QUATERNION, 50, 3)
    assert rec["passed"]


# ---------------------------------------------------------------- golden reports
#
# sha256 of the `verify --format json` bytes (the report without its
# timestamp).  Any refactor of the engine must leave these unchanged.


def report_digest(field, seed, samples):
    report = run_suite(field_by_name(field), seed, samples)
    report.pop("timestamp")
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


# Test ids name the (field, seed, samples) case, not its digest, so a
# re-taken digest does not rename the test.
PASSING_DIGESTS = {
    ("rational", 7, 25): "be241c3c6d7a6214fa65d68231031f2e9b3ff236b1f57a7dfef2486d3db30ae0",
    ("gf:5", 7, 25): "85e600a161e7973c30582734af146a9205a9de1637622e0868e8753e2086d8ca",
    ("gf:7", 7, 25): "13e2d755e020eef43b1ef69cf46f67f86a9e1b908acd6ea273d7d7999ec1bcea",
    ("gf:101", 7, 25): "38767ee2108c9c0653ac4f27f0b4a1db9efa4a3285b9c915066d784a1c27d19f",
    ("quaternion", 7, 5): "620a5f57e65f1fe2b53311f79c24eff65a6fad8f450ff0787b1e1dcb24d3fa40",
}

FAILING_DIGESTS = {
    ("rational", 7, 12): "d87dd11b3c1cb4b66555e458dedbc2026bfb2661ca74a98f1615cead03e46555",
    ("quaternion", 7, 4): "ccabfd0b748fce539d94f77af3e303994b548d98a58eadbffe22b34ac5b36549",
    # ratio2_laws, ratio3_laws and cr_permutation_trio raise DivisionByZeroError here
    ("gf:5", 7, 25): "bd12d53d7469cde2a0f9f8c87c08738227ce2862b181c63901da876011cf2c5b",
}


def case_id(case):
    return "-".join(map(str, case))


@pytest.mark.parametrize("case", PASSING_DIGESTS, ids=case_id)
def test_passing_report_bytes_are_pinned(case):
    assert report_digest(*case) == PASSING_DIGESTS[case]


@pytest.mark.parametrize("case", FAILING_DIGESTS, ids=case_id)
def test_failing_report_bytes_are_pinned(broken_ratios, case):
    assert report_digest(*case) == FAILING_DIGESTS[case]
