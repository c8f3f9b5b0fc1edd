"""Acceptance gate: ten numbered criteria, each run at full stated scale.

Every criterion reports one PASS/FAIL line in the terminal summary.  All
comparisons are exact; there are no tolerances anywhere in this file.
"""

import json
import random

import pytest

from conftest import (
    GF5,
    GF101,
    MAIN_FIELDS,
    QUATERNION,
    RATIONAL,
    criterion,
    swapped_inverse_form_matches,
)
from crossratio.plane import (
    DesarguesConfig,
    HypothesisViolationError,
    PlanePoint,
    check_desargues,
    generate_desargues_config,
)
from crossratio.ratio import (
    InfiniteSolutionError,
    cross_ratio,
    solve_fourth_point,
)
from crossratio.verify import run_check, run_suite

SEED = 20260816

IDENTITY_CHECKS = (
    "cr_inverse_swap",
    "cr_negation_invariance",
    "cr_alternative_formula",
    "cr_complement",
    "cr_permutation_trio",
    "cr_ratio_factorization",
    "cr_infinity_reductions",
)

RATIO_LAW_CHECKS = ("ratio2_laws", "ratio3_laws", "ratio_map_bijectivity")

AXIOM_CHECKS = ("field_axioms", "multiplicative_inverse_laws", "no_zero_divisors")


def assert_clean(record, samples):
    assert record["passed"] is True, record["name"]
    assert record["failures"] == 0 and record["witnesses"] == []
    if record["strategy"] == "sampled":
        assert record["samples_run"] == samples


@criterion("criterion 01: degenerate coincidence table, 6 cases x 20 x 3 fields")
def test_criterion_01_degenerate_table():
    cases = [
        ("AABC", "one"),
        ("ABAC", "zero"),
        ("ABCA", "inf"),
        ("ABBC", "inf"),
        ("ABCB", "zero"),
        ("ABCC", "one"),
    ]
    for field in MAIN_FIELDS:
        rng = random.Random(f"{SEED}:degenerate:{field.name}")
        for pattern, expected in cases:
            done = 0
            while done < 20:
                draw = {ch: field.random_element(rng) for ch in "ABC"}
                if len(set(draw.values())) != 3:
                    continue
                done += 1
                got = cross_ratio(*(draw[ch] for ch in pattern))
                if expected == "inf":
                    assert got.is_infinity
                elif expected == "one":
                    assert got == field.one
                else:
                    assert got == field.zero


@criterion("criterion 02: cross-ratio identity suites, 1000/1000 x 3 fields + exhaustive gf:5")
def test_criterion_02_identity_suites():
    for field in MAIN_FIELDS:
        for name in IDENTITY_CHECKS:
            assert_clean(run_check(name, field, 1000, SEED), 1000)
    for name in IDENTITY_CHECKS:
        record = run_check(name, GF5, 1000, SEED)
        assert record["strategy"] == "exhaustive"
        assert_clean(record, 1000)


@criterion("criterion 03: inverse-points conjugation + central collapse 1000/1000; swap iff X = 1/2")
def test_criterion_03_conjugation_form():
    assert_clean(run_check("cr_inverse_points_conjugation", QUATERNION, 1000, SEED), 1000)
    assert swapped_inverse_form_matches(QUATERNION, SEED, 1000) < 1000
    assert_clean(run_check("cr_central_collapse", QUATERNION, 1000, SEED), 1000)


@criterion("criterion 04: symmetry laws; witness <= 100 samples; 1000 conditioned pairs")
def test_criterion_04_symmetry_laws():
    sym = run_check("cr_commutative_symmetry", GF5, 1000, SEED)
    assert sym["strategy"] == "exhaustive"
    assert_clean(sym, 1000)
    assert_clean(run_check("cr_commutative_symmetry", RATIONAL, 1000, SEED), 1000)

    witness = run_check("cr_noncommutativity_witness", QUATERNION, 100, SEED)
    assert witness["passed"] is True
    assert witness["samples_run"] <= 100
    assert witness["witnesses"]

    for field in (RATIONAL, QUATERNION):
        assert_clean(run_check("cr_commuting_ratios_symmetry", field, 1000, SEED), 1000)


@criterion("criterion 05: two- and three-point ratio laws, 1000/1000 per field")
def test_criterion_05_ratio_laws():
    for field in MAIN_FIELDS:
        for name in RATIO_LAW_CHECKS:
            assert_clean(run_check(name, field, 1000, SEED), 1000)
    for field in (RATIONAL, GF101):
        assert_clean(run_check("ratio3_inverse_commutative", field, 1000, SEED), 1000)
    # the commutative-only law must be skipped, not run, over quaternions
    report = run_suite(QUATERNION, seed=SEED, samples=2)
    skipped = {r["name"]: r for r in report["checks"]}["ratio3_inverse_commutative"]
    assert skipped["skipped"] is True and skipped["reason"]


@criterion("criterion 06: fourth-point solving round-trips, 1000 per field, stable re-solve")
def test_criterion_06_solve_round_trip():
    for field in MAIN_FIELDS:
        rng = random.Random(f"{SEED}:solve:{field.name}")
        done = 0
        while done < 1000:
            a, b, c = (field.random_element(rng) for _ in range(3))
            if len({a, b, c}) != 3:
                continue
            r = field.random_element(rng, nonzero=True)
            if r == field.one:
                continue
            try:
                d = solve_fourth_point(r, a, b, c)
            except InfiniteSolutionError:
                continue
            done += 1
            assert cross_ratio(a, b, c, d) == r
            assert solve_fourth_point(r, a, b, c) == d


@criterion("criterion 07: ruler arithmetic agrees with field arithmetic, 500 + 10 aux per case")
def test_criterion_07_geometric_agreement():
    for field in MAIN_FIELDS:
        assert_clean(run_check("geometric_add_agreement", field, 500, SEED), 500)
        assert_clean(run_check("geometric_mul_agreement", field, 500, SEED), 500)
        assert_clean(run_check("aux_point_independence", field, 500, SEED), 500)


@criterion("criterion 08: 200 generated configurations per field and mode + tamper control")
def test_criterion_08_desargues():
    for field in MAIN_FIELDS:
        # each sample draws and checks one configuration per mode
        assert_clean(run_check("desargues_axiom_holds", field, 200, SEED), 200)
        for mode in ("parallel", "concurrent"):
            cfg, _ = generate_desargues_config(field, seed=SEED, mode=mode)
            moved = PlanePoint(cfg.c_prime.x + field.one, cfg.c_prime.y + field.one)
            tampered = DesarguesConfig(
                a=cfg.a, b=cfg.b, c=cfg.c,
                a_prime=cfg.a_prime, b_prime=cfg.b_prime, c_prime=moved, center=cfg.center,
            )
            try:
                detected = check_desargues(tampered) is False
            except HypothesisViolationError:
                detected = True
            assert detected, (field.name, mode)


@criterion("criterion 09: skew-field axiom suite, 1000 per field + difference of inverses")
def test_criterion_09_field_axioms():
    for field in MAIN_FIELDS:
        for name in AXIOM_CHECKS:
            assert_clean(run_check(name, field, 1000, SEED), 1000)
        assert_clean(run_check("difference_of_inverses", field, 1000, SEED), 1000)
    assert_clean(run_check("norm_multiplicativity", QUATERNION, 1000, SEED), 1000)


@criterion("criterion 10: identical reports for identical (field, seed, samples)")
def test_criterion_10_determinism():
    for field in (RATIONAL, GF101):
        first = run_suite(field, seed=SEED, samples=40)
        second = run_suite(field, seed=SEED, samples=40)
        first.pop("timestamp"), second.pop("timestamp")
        assert json.dumps(first) == json.dumps(second)
