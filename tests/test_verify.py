"""Deterministic seeded verification engine: records, skips, strategies."""

import hashlib
import json
import random

import pytest

from conftest import GF5, GF7, GF101, QUATERNION, RATIONAL
from crossratio import ratio, verify
from crossratio.verify import (
    CHECKS,
    CheckDef,
    CheckSpec,
    UnknownCheckError,
    WITNESS_CAP,
    applicable,
    resolve_conjugation_form,
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
        run_check(CheckSpec("no_such_check", "rational", 10, 0))


def test_invalid_sample_count_rejected():
    with pytest.raises(ValueError):
        run_check(CheckSpec("field_axioms", "rational", 0, 0))


def test_run_check_record_shape():
    rec = run_check(CheckSpec("cr_inverse_swap", "rational", 25, 4))
    assert RECORD_KEYS <= set(rec)
    assert rec["passed"] and rec["failures"] == 0 and rec["witnesses"] == []
    assert rec["samples_run"] == 25
    assert rec["strategy"] == "sampled"


def test_run_check_is_deterministic():
    spec = CheckSpec("cr_complement", "quaternion", 30, 99)
    assert run_check(spec) == run_check(spec)


def test_field_accepts_instance_or_selector():
    by_name = run_check(CheckSpec("ratio2_laws", "gf:101", 20, 1))
    by_instance = run_check(CheckSpec("ratio2_laws", GF101, 20, 1))
    assert by_name == by_instance


# ---------------------------------------------------------------- strategies


def test_small_prime_fields_enumerate_exhaustively():
    rec = run_check(CheckSpec("cr_inverse_swap", "gf:5", 1000, 0))
    assert rec["strategy"] == "exhaustive"
    assert rec["samples_run"] == 5 * 4 * 3 * 2  # ordered distinct 4-tuples
    assert rec["passed"]


def test_sampled_and_exhaustive_agree_on_gf5():
    names = [
        "cr_inverse_swap",
        "cr_negation_invariance",
        "cr_alternative_formula",
        "cr_complement",
        "cr_permutation_trio",
        "cr_ratio_factorization",
        "cr_commutative_symmetry",
    ]
    for name in names:
        sampled = run_check(CheckSpec(name, "gf:5", 300, 8), strategy="sampled")
        full = run_check(CheckSpec(name, "gf:5", 300, 8), strategy="exhaustive")
        assert sampled["passed"] == full["passed"] is True, name


def test_exhaustive_strategy_needs_enumerable_field():
    with pytest.raises(ValueError):
        run_check(CheckSpec("cr_inverse_swap", "rational", 10, 0), strategy="exhaustive")
    with pytest.raises(ValueError):
        run_check(CheckSpec("cr_inverse_swap", "gf:101", 10, 0), strategy="exhaustive")


@pytest.mark.parametrize(
    "name",
    [
        "cr_inverse_points_conjugation",
        "cr_noncommutativity_witness",
        "norm_multiplicativity",  # an enumeration over GF(p) would call field.norm
    ],
)
def test_exhaustive_strategy_needs_an_enumerator(name):
    with pytest.raises(ValueError):
        run_check(CheckSpec(name, "gf:5", 10, 0), strategy="exhaustive")


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
        ("ratio3_laws", "auto"),  # three distinct nonzero points: none over GF(3)
        ("cr_inverse_swap", "exhaustive"),  # four distinct points: none over GF(3)
        ("cr_inverse_swap", "sampled"),  # every draw is rejected
    ],
)
def test_check_without_valid_inputs_is_an_error(name, strategy):
    with pytest.raises(ValueError) as exc:
        run_check(CheckSpec(name, "gf:3", 10, 0), strategy=strategy)
    assert exc.type is verify.NoValidInputError


# ---------------------------------------------------------------- witness search


def test_noncommutativity_witness_absent_over_rationals():
    rec = run_check(CheckSpec("cr_noncommutativity_witness", "rational", 100, 2))
    assert rec["kind"] == "witness-search"
    assert rec["passed"] is False  # no witness can exist
    assert rec["samples_run"] == 100


def test_noncommutativity_witness_found_over_quaternions():
    rec = run_check(CheckSpec("cr_noncommutativity_witness", "quaternion", 100, 2))
    assert rec["passed"] is True
    assert rec["samples_run"] <= 100
    wit = rec["witnesses"][0]
    assert set(wit) == {"inputs", "lhs", "rhs"}
    assert wit["lhs"] != wit["rhs"]


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
        rec = run_check(CheckSpec(name, "rational", 40, 0))
        assert rec["passed"] is False
        assert rec["failures"] == 40
        assert len(rec["witnesses"]) == WITNESS_CAP
        suite = run_suite("rational", seed=0, samples=5)
        assert suite["passed"] is False
    finally:
        del CHECKS[name]


# ---------------------------------------------------------------- run_suite


def test_suite_shape_and_skips():
    report = run_suite("quaternion", seed=5, samples=8)
    assert {"field", "seed", "samples", "timestamp", "passed", "checks"} <= set(report)
    assert report["field"] == "quaternion" and report["passed"] is True
    by_name = {rec["name"]: rec for rec in report["checks"]}
    assert len(by_name) == len(report["checks"])  # unique names
    for skip_name in ("ratio3_inverse_commutative", "cr_commutative_symmetry"):
        assert by_name[skip_name]["skipped"] is True
        assert by_name[skip_name]["reason"]
        assert by_name[skip_name]["passed"] is None
    assert by_name["norm_multiplicativity"]["skipped"] is False
    # the pinned conjugation form is part of the suite report
    details = by_name["cr_inverse_points_conjugation"]["details"]
    assert details["pinned_form"] == "A * cr(A,B;C,D) * A^-1"
    assert details["form_abcd_matches"] == 8
    assert details["form_acbd_matches"] == 0


def test_suite_skips_on_commutative_fields():
    report = run_suite("gf:101", seed=5, samples=8)
    by_name = {rec["name"]: rec for rec in report["checks"]}
    assert by_name["norm_multiplicativity"]["skipped"] is True
    assert by_name["cr_noncommutativity_witness"]["skipped"] is True
    assert by_name["ratio3_inverse_commutative"]["skipped"] is False
    assert report["passed"] is True


def test_suite_is_deterministic_modulo_timestamp():
    a = run_suite("rational", seed=31, samples=12)
    b = run_suite("rational", seed=31, samples=12)
    assert strip_timestamp(a) == strip_timestamp(b)
    assert json.dumps(strip_timestamp(a)) == json.dumps(strip_timestamp(b))


def test_suite_reports_are_json_serializable():
    report = run_suite("gf:5", seed=1, samples=6)
    parsed = json.loads(json.dumps(report))
    assert parsed["passed"] is True


def test_applicability_matrix():
    assert applicable(CHECKS["norm_multiplicativity"], RATIONAL) == (
        False,
        "defined for quaternions only",
    )
    ok, reason = applicable(CHECKS["cr_commutative_symmetry"], QUATERNION)
    assert not ok and reason
    ok, reason = applicable(CHECKS["cr_inverse_swap"], GF5)
    assert ok and reason is None


# ---------------------------------------------------------------- conjugation resolver


def test_conjugation_resolver_pins_the_statement_form():
    out = resolve_conjugation_form(seed=17, samples=60)
    assert out["field"] == "quaternion"
    assert out["form_abcd_matches"] == 60
    assert out["form_acbd_matches"] < 60
    assert out["resolved"] == "form_abcd"


def test_conjugation_resolver_same_answer_over_commutative_fields():
    # conjugation is trivial over a field, but the two candidate forms are
    # different argument permutations, so only one can match there too
    out = resolve_conjugation_form(seed=17, samples=40, field=RATIONAL)
    assert out["form_abcd_matches"] == 40
    assert out["form_acbd_matches"] == 0
    assert out["resolved"] == "form_abcd"


def test_conjugation_collapses_for_central_first_point():
    rec = run_check(CheckSpec("cr_central_collapse", "quaternion", 50, 3))
    assert rec["passed"]


# ---------------------------------------------------------------- golden reports
#
# sha256 of the `verify --format json` bytes (the report without its
# timestamp).  Any refactor of the engine must leave these unchanged.


def report_digest(field, seed, samples):
    report = run_suite(field, seed, samples)
    report.pop("timestamp")
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


@pytest.mark.parametrize(
    "field, seed, samples, digest",
    [
        ("rational", 7, 25, "b672140e3776c390b96bb7be50fcea01f9f12d06b9a3ef6f1af9859f660fa119"),
        ("gf:5", 7, 25, "901b354c15c60b952a7478a2bd57775f34e5b94f8587e74a5f407959bbb242a4"),
        ("gf:7", 7, 25, "bb0d093e9cac7069476f385a9b33742b95c8cec36cc79371ceb1438f6b604434"),
        ("gf:101", 7, 25, "86429dbcef892fcf9d59c4e3144cb8affd15de914ab889f781c072e2772cedea"),
        ("quaternion", 7, 5, "9f6fda2f251e5ae8a393699d4575042383985947cfafc3833b02343b12fc3ec4"),
    ],
)
def test_passing_report_bytes_are_pinned(field, seed, samples, digest):
    assert report_digest(field, seed, samples) == digest


@pytest.fixture
def broken_ratios(monkeypatch):
    """Corrupt the ratio functions the checks call, so witnesses get recorded."""
    monkeypatch.setattr(verify, "cross_ratio", lambda *args: -ratio.cross_ratio(*args))
    monkeypatch.setattr(verify, "ratio2", lambda *args: ratio.ratio2(*args) + args[0].field.one)
    monkeypatch.setattr(verify, "ratio3", lambda *args: ratio.ratio3(*args) + args[0].field.one)


@pytest.mark.parametrize(
    "field, seed, samples, digest",
    [
        ("rational", 7, 12, "6024d4097e24b3c8961a765d1bd39b473ea75b32ebd696b910995a3001306e0a"),
        ("quaternion", 7, 4, "4ba08646bbc63d6e56b09d3e6041ed649abca169a6b11745131d5374d306b0f8"),
    ],
)
def test_failing_report_bytes_are_pinned(broken_ratios, field, seed, samples, digest):
    assert report_digest(field, seed, samples) == digest
