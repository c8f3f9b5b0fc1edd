"""Seeded exact verification of the field, ratio, cross-ratio and plane laws.

Every check evaluates algebraic identities with exact arithmetic on inputs
drawn from a deterministic per-sample stream (seeded by "seed:check:index"),
so a report is reproducible from (field, seed, samples) alone.  Draws that
violate a check's preconditions are redrawn and counted, never evaluated;
a draw rejects a candidate only by raising fields.PreconditionError, its
own or one a library call raises on that candidate.  A failing sample
is recorded as a witness carrying the formatted inputs and both sides of
the identity; witness lists are capped, full failure counts are not.  An
evaluator that raises fields.PreconditionError (the base of every library
error the CLI maps to exit 3 or 4) on a valid input fails that sample too:
its witness has the exception's class and message as one side, so a wrong
library is reported as a failing check, not as the user's broken
precondition.  Other exceptions, programming errors among them, propagate.
Most checks are universally quantified equalities; the
noncommutativity check is an existence search whose pass criterion is that
a witness IS found.  On small prime fields, checks with a registered
enumerator run exhaustively over all valid tuples instead of sampling.
A check's scope says which fields its law holds over (any skew field, or
only commutative, only noncommutative, only the quaternions); run_check
records a check outside the field's scope as a skip with its reason, so
every caller gets the same record.  Both runners take a Field instance.
Each check is a CheckDef named tuple in CHECKS, registered in report order.
A check that gets no valid input at all (an empty enumeration, or
REDRAW_CAP rejected draws in a row) raises NoValidInputError rather than
passing vacuously.
"""

from __future__ import annotations

import datetime
import functools
import itertools
import random
from collections import namedtuple

from .fields import Field, PreconditionError, commutes
from .gf import GaloisField
from .plane import (
    Chart,
    GenerationFailureError,
    construct_product,
    construct_sum,
    construct_sum_and_product,
    generate_desargues_config,
    intersect,
    line_through,
    parallel,
    parallel_through,
    point,
    random_point,
)
from .quaternion import QuaternionField
from .ratio import (
    ExtendedPoint,
    cross_ratio,
    cross_ratio_alt,
    ratio2,
    ratio3,
    solve_fourth_point,
)

WITNESS_CAP = 10
REDRAW_CAP = 1000
EXHAUSTIVE_MAX_MODULUS = 7


class UnknownCheckError(ValueError):
    """Requested check name is not registered."""


class NoValidInputError(ValueError):
    """The field offers a check no input tuple that meets its preconditions."""


# scope: all | commutative | noncommutative | quaternion; kind: equality | witness-search;
# draw(field, rng) -> inputs tuple (raises PreconditionError to redraw); evaluate(field,
# inputs) -> list of witness dicts; enumerate_inputs(field) -> every valid inputs tuple
# of a small field.
CheckDef = namedtuple(
    "CheckDef",
    "name description scope kind draw evaluate enumerate_inputs",
    defaults=("all", "equality", None, None, None),
)


CHECKS: dict[str, CheckDef] = {}


def _register(name: str, description: str, **fields):
    """Register the decorated function as the evaluator of check `name`.

    Registration order is report order.  The function is returned as it
    is, so one evaluator can serve two checks.
    """

    def decorate(evaluate):
        CHECKS[name] = CheckDef(name, description, evaluate=evaluate, **fields)
        return evaluate

    return decorate


def _witness(inputs: list[str], lhs, rhs) -> dict:
    return {"inputs": inputs, "lhs": str(lhs), "rhs": str(rhs)}


def _labeled(names, values) -> list[str]:
    return [f"{n}={v}" for n, v in zip(names, values)]


def _law(names, values, lhs, rhs, law: str | None = None) -> list[dict]:
    """No witness when lhs == rhs, else one naming the law and the labeled inputs.

    An element equals the finite extended point holding it, so either side
    may be a cross-ratio.  The inputs are formatted only for a witness.
    """
    if lhs != rhs:
        tags = _labeled(names, values)
        return [_witness(tags if law is None else [f"law={law}", *tags], lhs, rhs)]
    return []


def _format_input(value) -> str:
    """One input of a check as text: a chart as its base points, a tuple item by item."""
    if isinstance(value, Chart):
        return f"chart(O={value.o}, I={value.i})"
    if isinstance(value, tuple):
        return f"({', '.join(map(_format_input, value))})"
    return str(value)


def _raised(inputs, exc: PreconditionError) -> dict:
    """The witness of an evaluator that raised on a valid input."""
    return _witness(list(map(_format_input, inputs)), f"{type(exc).__name__}: {exc}", "no error")


def _sample_rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{index}")


def _skip_reason(check: CheckDef, field: Field) -> str | None:
    """Why the check's scope excludes the field, or None when it applies."""
    if check.scope == "commutative" and not field.commutative:
        return "holds only over a commutative field"
    if check.scope == "noncommutative" and field.commutative:
        return "needs a noncommutative field"
    if check.scope == "quaternion" and not isinstance(field, QuaternionField):
        return "defined for quaternions only"
    return None


def _can_enumerate(check: CheckDef, field: Field) -> bool:
    return (
        check.enumerate_inputs is not None
        and isinstance(field, GaloisField)
        and field.p <= EXHAUSTIVE_MAX_MODULUS
    )


def _draw_valid(check: CheckDef, field: Field, seed: int, index: int):
    """Inputs of sample `index` and the number of rejected draws before them.

    A draw that raises PreconditionError is rejected and redrawn.  Redraws
    continue the sample's own stream, so the result depends only on
    (seed, check, index).
    """
    rng = _sample_rng(seed, check.name, index)
    for tries in range(REDRAW_CAP):
        try:
            return check.draw(field, rng), tries
        except PreconditionError:
            pass
    raise NoValidInputError(
        f"{check.name}: no precondition-satisfying draw over {field} "
        f"after {REDRAW_CAP} redraws"
    )


def _record(check: CheckDef, strategy: str, reason: str | None = None) -> dict:
    """A check's report entry before any sample has run; a reason marks a skip."""
    record = {"name": check.name, "kind": check.kind, "skipped": reason is not None}
    if reason is not None:
        record["reason"] = reason
    record.update(
        {
            "strategy": strategy,
            "samples_run": 0,
            "redraws": 0,
            "passed": None,
            "failures": 0,
            "witnesses": [],
        }
    )
    return record


def run_check(name: str, field: Field, samples: int, seed: int) -> dict:
    """Run one named check, exhaustively where it can and sampled otherwise.

    A check whose scope excludes the field is not run: its record is a skip
    with strategy "none", a reason and `passed` None.  A check with an
    enumerator runs over every valid tuple when the field is a prime field
    of modulus at most EXHAUSTIVE_MAX_MODULUS; any other run draws
    `samples` samples.  An equality check counts every failing sample and
    keeps up to WITNESS_CAP witnesses; a witness-search check stops at its
    first witness and passes only if it found one.  A sample whose evaluator
    raises PreconditionError fails in both kinds; the record then also holds
    `raised`, the number of such samples, since the witness cap can hide
    their witnesses.
    """
    if name not in CHECKS:
        raise UnknownCheckError(f"unknown check: {name!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check = CHECKS[name]
    reason = _skip_reason(check, field)
    if reason is not None:
        return _record(check, "none", reason)
    if _can_enumerate(check, field):
        record = _record(check, "exhaustive")
        tuples = zip(check.enumerate_inputs(field), itertools.repeat(0))
    else:
        record = _record(check, "sampled")
        tuples = map(functools.partial(_draw_valid, check, field, seed), range(samples))
    search = check.kind == "witness-search"
    raised = 0
    for inputs, redraws in tuples:
        record["redraws"] += redraws
        record["samples_run"] += 1
        try:
            found = check.evaluate(field, inputs)
        except PreconditionError as exc:
            raised += 1
            record["failures"] += 1
            record["witnesses"] += [_raised(inputs, exc)][: WITNESS_CAP - len(record["witnesses"])]
            continue
        if not search:
            record["failures"] += len(found)
            record["witnesses"] += found[: WITNESS_CAP - len(record["witnesses"])]
        elif found:
            record["witnesses"] += found[:1]
            break
    if record["samples_run"] == 0:
        raise NoValidInputError(
            f"{check.name}: no input tuple over {field} meets its preconditions"
        )
    record["passed"] = record["failures"] == 0 and (bool(record["witnesses"]) or not search)
    if raised:
        record["raised"] = raised
    return record


def run_suite(field: Field, seed: int, samples: int = 1000) -> dict:
    """Run every check over the field; skips are recorded, not lost."""
    records = [run_check(name, field, samples, seed) for name in CHECKS]
    return {
        "field": field.name,
        "seed": seed,
        "samples": samples,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "passed": all(r["passed"] for r in records if not r["skipped"]),
        "checks": records,
    }


# ---------------------------------------------------------------- draws


def _tuples(count: int, nonzero: bool = False, distinct: bool = False) -> dict:
    """The `draw` and `enumerate_inputs` of one domain of element `count`-tuples."""

    def draw(field, rng):
        out = []
        for _ in range(count):
            x = field.random_element(rng, nonzero=nonzero)
            if distinct and x in out:
                raise PreconditionError("the elements must be distinct")
            out.append(x)
        return tuple(out)

    def enumerate_inputs(field):
        elems = field.elements()
        if nonzero:
            elems = [e for e in elems if not e.is_zero]
        if distinct:
            return itertools.permutations(elems, count)
        return itertools.product(elems, repeat=count)

    return {"draw": draw, "enumerate_inputs": enumerate_inputs}


_draw_distinct_triple = _tuples(3, distinct=True)["draw"]


def _draw_scalar_int(rng, nonzero=False):
    while True:
        k = rng.randint(-20, 20)
        if not (nonzero and k == 0):
            return k


# ---------------------------------------------------------------- field checks


@_register(
    "field_axioms",
    "ring axioms with two-sided distributivity and additive inverses",
    **_tuples(3),
)
def _eval_field_axioms(field, xs):
    x, y, z = xs
    return [
        *_law("xyz", xs, (x + y) + z, x + (y + z), law="add-associative"),
        *_law("xyz", xs, x + y, y + x, law="add-commutative"),
        *_law("xyz", xs, x + field.zero, x, law="add-identity"),
        *_law("xyz", xs, x + (-x), field.zero, law="add-inverse"),
        *_law("xyz", xs, (x * y) * z, x * (y * z), law="mul-associative"),
        *_law("xyz", xs, field.one * x, x, law="mul-identity-left"),
        *_law("xyz", xs, x * field.one, x, law="mul-identity-right"),
        *_law("xyz", xs, x * (y + z), x * y + x * z, law="left-distributive"),
        *_law("xyz", xs, (x + y) * z, x * z + y * z, law="right-distributive"),
    ]


@_register(
    "multiplicative_inverse_laws",
    "x^-1 is two-sided, involutive, and reverses products",
    **_tuples(2, nonzero=True),
)
def _eval_inverse_laws(field, xs):
    x, y = xs
    return [
        *_law("xy", xs, x.inv().inv(), x, law="double-inverse"),
        *_law("xy", xs, x * x.inv(), field.one, law="right-inverse"),
        *_law("xy", xs, x.inv() * x, field.one, law="left-inverse"),
        *_law(
            "xy", xs, (x * y).inv(), y.inv() * x.inv(), law="product-inverse-antihomomorphism"
        ),
    ]


@_register("no_zero_divisors", "products of nonzero elements are nonzero", **_tuples(2, nonzero=True))
def _eval_no_zero_divisors(field, xs):
    x, y = xs
    if (x * y).is_zero:
        return [_witness(_labeled("xy", xs), x * y, "nonzero product expected")]
    return []


@_register(
    "difference_of_inverses",
    "x^-1 - y^-1 = y^-1 (y - x) x^-1 for nonzero x, y",
    **_tuples(2, nonzero=True),
)
def _eval_difference_of_inverses(field, xs):
    x, y = xs
    return _law("xy", xs, x.inv() - y.inv(), y.inv() * (y - x) * x.inv())


@_register(
    "norm_multiplicativity",
    "quaternion norm is multiplicative over exact rationals",
    scope="quaternion",
    draw=_tuples(2)["draw"],
)
def _eval_norm_multiplicativity(field, xs):
    x, y = xs
    return _law("xy", xs, field.norm(x * y), field.norm(x) * field.norm(y))


def _draw_center_membership(field, rng):
    x = field.random_element(rng)
    scalar = field.element(_draw_scalar_int(rng))
    probes = tuple(field.random_element(rng) for _ in range(50))
    return (x, scalar, probes)


@_register(
    "center_membership",
    "is_central agrees with commuting against basis plus 50 probes",
    draw=_draw_center_membership,
)
def _eval_center_membership(field, inputs):
    x, scalar, probes = inputs
    fails = []
    for candidate, tag in ((x, "random"), (scalar, "scalar")):
        expected = all(commutes(candidate, s) for s in field.basis()) and all(
            commutes(candidate, s) for s in probes
        )
        got = field.is_central(candidate)
        if got != expected:
            fails.append(
                _witness([f"candidate({tag})={candidate}"], got, f"probe says {expected}")
            )
    return fails


# ---------------------------------------------------------------- ratio checks


@_register(
    "ratio2_laws",
    "two-point ratio arithmetic laws and the symmetry criterion",
    **_tuples(3, nonzero=True),
)
def _eval_ratio2_laws(field, xs):
    a, b, c = xs
    fails = [
        *_law("ABC", xs, ratio2(a + b, c), ratio2(a, c) + ratio2(b, c), law="sum-splits"),
        *_law("ABC", xs, ratio2(a * b, c), ratio2(a, c) * b, law="product-in-first-slot"),
        *_law("ABC", xs, ratio2(a, b * c), c.inv() * ratio2(a, b), law="product-in-second-slot"),
        *_law("ABC", xs, ratio2(a, b).inv(), ratio2(b, a), law="inverse-swaps-arguments"),
    ]
    for u, v, tag in ((a, b, "generic"), (b, b, "equal"), (-b, b, "negated")):
        symmetric = ratio2(u, v) == ratio2(v, u)
        trivial = u == v or u == -v
        if symmetric != trivial:
            fails.append(
                _witness(
                    [f"law=symmetry-iff-{tag}", f"A={u}", f"B={v}"],
                    f"symmetric={symmetric}",
                    f"A=+-B is {trivial}",
                )
            )
    return fails


@_register(
    "ratio3_laws",
    "three-point ratio laws: negation, inversion, argument swap",
    **_tuples(3, nonzero=True, distinct=True),
)
def _eval_ratio3_laws(field, xs):
    a, b, c = xs
    return [
        *_law("ABC", xs, ratio3(-a, -b, -c), ratio3(a, b, c), law="negation-invariance"),
        *_law("ABC", xs, ratio3(a, b, c).inv(), ratio3(b, a, c), law="inverse-swaps-arguments"),
        *_law(
            "ABC",
            xs,
            ratio3(a.inv(), b.inv(), c.inv()),
            b * ratio3(a, b, c) * a.inv(),
            law="inverse-points-conjugation",
        ),
    ]


@_register(
    "ratio3_inverse_commutative",
    "commutative form of the inverse-points ratio law",
    scope="commutative",
    **_tuples(3, nonzero=True, distinct=True),
)
def _eval_ratio3_inverse_commutative(field, xs):
    a, b, c = xs
    lhs = ratio3(a.inv(), b.inv(), c.inv())
    return _law("ABC", xs, lhs, ratio3(a, b, c) * ratio3(b, a, field.zero))


def _draw_bijectivity(field, rng):
    b = field.random_element(rng, nonzero=True)
    x1 = field.random_element(rng)
    x2 = field.random_element(rng)
    if x1 == x2:
        raise PreconditionError("X1 and X2 must be distinct")
    r = field.random_element(rng)
    return (b, x1, x2, r)


@_register(
    "ratio_map_bijectivity",
    "X -> ratio2(X, B) is injective and onto (X = B*R solves it)",
    draw=_draw_bijectivity,
)
def _eval_bijectivity(field, inputs):
    b, x1, x2, r = inputs
    fails = []
    if ratio2(x1, b) == ratio2(x2, b):
        fails.append(
            _witness(
                [f"B={b}", f"X1={x1}", f"X2={x2}"],
                ratio2(x1, b),
                "distinct images expected",
            )
        )
    if ratio2(b * r, b) != r:
        fails.append(_witness([f"B={b}", f"R={r}"], ratio2(b * r, b), r))
    return fails


# ---------------------------------------------------------------- cross-ratio checks


@_register(
    "cr_inverse_swap",
    "swapping the last two points inverts the cross-ratio",
    **_tuples(4, distinct=True),
)
def _eval_cr_inverse_swap(field, xs):
    a, b, c, d = xs
    return _law("ABCD", xs, cross_ratio(a, b, d, c), cross_ratio(a, b, c, d).value.inv())


@_register(
    "cr_negation_invariance",
    "negating all four points leaves the cross-ratio unchanged",
    **_tuples(4, distinct=True),
)
def _eval_cr_negation_invariance(field, xs):
    # -1 is central, so both bracket factors of the defining product are
    # unchanged when every point is negated.
    a, b, c, d = xs
    return _law("ABCD", xs, cross_ratio(-a, -b, -c, -d), cross_ratio(a, b, c, d))


@_register(
    "cr_alternative_formula",
    "inverse-difference formula agrees with the defining product",
    **_tuples(4, distinct=True),
)
def _eval_cr_alternative_formula(field, xs):
    return _law("ABCD", xs, cross_ratio(*xs), cross_ratio_alt(*xs))


@_register(
    "cr_complement",
    "one minus the cross-ratio swaps the middle points",
    **_tuples(4, distinct=True),
)
def _eval_cr_complement(field, xs):
    a, b, c, d = xs
    return _law("ABCD", xs, field.one - cross_ratio(a, b, c, d).value, cross_ratio(a, c, b, d))


@_register(
    "cr_permutation_trio",
    "the three rewiring identities for permuted last points",
    **_tuples(4, distinct=True),
)
def _eval_cr_permutation_trio(field, xs):
    # Distinct 4-tuples give cross-ratio values outside {0, 1}, so every
    # inverse below exists; see the uniqueness argument in the ratio module.
    a, b, c, d = xs
    x = cross_ratio(a, b, c, d).value
    one = field.one
    return [
        *_law("ABCD", xs, cross_ratio(a, d, b, c), one - x.inv(), law="swap-to-BC"),
        *_law("ABCD", xs, cross_ratio(a, c, d, b), (one - x).inv(), law="swap-to-DB"),
        *_law("ABCD", xs, cross_ratio(a, d, c, b), (x - one).inv() * x, law="swap-to-CB"),
    ]


@_register(
    "cr_inverse_points_conjugation",
    "inverting all points conjugates the cross-ratio by A",
    draw=_tuples(4, nonzero=True, distinct=True)["draw"],
)
def _eval_cr_inverse_points_conjugation(field, xs):
    a, b, c, d = xs
    lhs = cross_ratio(a.inv(), b.inv(), c.inv(), d.inv())
    return _law("ABCD", xs, lhs, a * cross_ratio(a, b, c, d).value * a.inv())


def _draw_central_first(field, rng):
    if field.commutative:
        a = field.random_element(rng, nonzero=True)
    else:
        a = field.element(_draw_scalar_int(rng, nonzero=True))
    rest = []
    for _ in range(3):
        x = field.random_element(rng, nonzero=True)
        if x == a or x in rest:
            raise PreconditionError("the elements must be distinct")
        rest.append(x)
    return (a, *rest)


@_register(
    "cr_central_collapse",
    "with central A the inverse-points conjugation disappears",
    draw=_draw_central_first,
    enumerate_inputs=_tuples(4, nonzero=True, distinct=True)["enumerate_inputs"],
)
def _eval_central_collapse(field, xs):
    a, b, c, d = xs
    return _law("ABCD", xs, cross_ratio(a.inv(), b.inv(), c.inv(), d.inv()), cross_ratio(*xs))


@_register(
    "cr_noncommutativity_witness",
    "search for a tuple whose two argument orders disagree",
    scope="noncommutative",
    kind="witness-search",
    draw=_tuples(4, distinct=True)["draw"],
)
@_register(
    "cr_commutative_symmetry",
    "over a commutative field both argument orders agree",
    scope="commutative",
    **_tuples(4, distinct=True),
)
def _eval_cr_commutative_symmetry(field, xs):
    a, b, c, d = xs
    return _law("ABCD", xs, cross_ratio(a, b, c, d), cross_ratio(b, a, d, c))


def _draw_commuting_ratios(field, rng):
    a, b, c = _draw_distinct_triple(field, rng)
    r2 = ratio3(a, b, c)
    alpha = field.element(_draw_scalar_int(rng))
    beta = field.element(_draw_scalar_int(rng))
    r1 = alpha + beta * r2
    if r1.is_zero or r1 == field.one:
        raise PreconditionError("r1 must not be 0 or 1")
    d = (a * r1 - b) * (r1 - field.one).inv()
    if d in (a, b, c):
        raise PreconditionError("D must be distinct from A, B, C")
    return (a, b, c, d)


@_register(
    "cr_commuting_ratios_symmetry",
    "commuting ratio points force both argument orders to agree",
    draw=_draw_commuting_ratios,
)
def _eval_commuting_ratios(field, xs):
    a, b, c, d = xs
    if not commutes(ratio3(b, a, d), ratio3(a, b, c)):
        return [_witness(_labeled("ABCD", xs), "ratio points do not commute", "conditioned draw")]
    return _eval_cr_commutative_symmetry(field, xs)


@_register(
    "cr_ratio_factorization",
    "the cross-ratio factors as r(B,A;D) * r(A,B;C)",
    **_tuples(4, distinct=True),
)
def _eval_cr_factorization(field, xs):
    a, b, c, d = xs
    return _law("ABCD", xs, cross_ratio(a, b, c, d), ratio3(b, a, d) * ratio3(a, b, c))


@_register(
    "cr_infinity_reductions",
    "one infinite argument reduces to the documented quotient form",
    **_tuples(4, distinct=True),
)
def _eval_cr_infinity_reductions(field, xs):
    a, b, c, d = xs
    inf = ExtendedPoint.infinity(field)
    return [
        *_law(
            "ABCD", xs, cross_ratio(inf, b, c, d), (b - d) * (b - c).inv(), law="first-infinite"
        ),
        *_law(
            "ABCD", xs, cross_ratio(a, inf, c, d), (a - d).inv() * (a - c), law="second-infinite"
        ),
        *_law(
            "ABCD", xs, cross_ratio(a, b, inf, d), (a - d).inv() * (b - d), law="third-infinite"
        ),
        *_law("ABCD", xs, cross_ratio(a, b, c, inf), ratio3(a, b, c), law="fourth-infinite"),
    ]


def _draw_solve_roundtrip(field, rng):
    triple = _draw_distinct_triple(field, rng)
    r = field.random_element(rng)
    if r.is_zero or r == field.one:
        raise PreconditionError("the cross-ratio must not be 0 or 1")
    solve_fourth_point(r, *triple)  # InfiniteSolutionError: a rejected draw
    return (r, *triple)


@_register(
    "solve_fourth_point_roundtrip",
    "solving for D reproduces the requested cross-ratio, uniquely",
    draw=_draw_solve_roundtrip,
)
def _eval_solve_roundtrip(field, inputs):
    r, a, b, c = inputs
    tags = [f"R={r}"] + _labeled("ABC", (a, b, c))
    d = solve_fourth_point(r, a, b, c)
    fails = []
    if d in (a, b, c):
        fails.append(_witness(tags, d, "a fourth point distinct from A, B, C"))
    fails += _law("RABCD", (r, a, b, c, d), cross_ratio(a, b, c, d), r)
    if solve_fourth_point(r, a, b, c) != d:
        fails.append(_witness(tags, "re-solve differs", d))
    return fails


# ---------------------------------------------------------------- plane checks


def _draw_incidence(field, rng):
    p = random_point(field, rng)
    q = random_point(field, rng)
    r = random_point(field, rng)
    s = random_point(field, rng)
    if p == q or r == s:
        raise PreconditionError("P, Q and R, S must be distinct pairs")
    return (p, q, r, s)


@_register(
    "plane_incidence_axioms",
    "unique joins, Playfair parallels, and a non-collinear triple",
    draw=_draw_incidence,
)
def _eval_incidence(field, inputs):
    p, q, r, s = inputs
    tags = [f"P={p}", f"Q={q}", f"R={r}", f"S={s}"]
    fails = []
    line = line_through(p, q)
    if not (line.contains(p) and line.contains(q)):
        fails.append(_witness(tags, line, "line through both points"))
    if line_through(q, p) != line:
        fails.append(_witness(tags, line_through(q, p), line))
    shifted = parallel_through(line, r)
    if not shifted.contains(r):
        fails.append(_witness(tags, shifted, f"line through {r}"))
    if not parallel(line, shifted):
        fails.append(_witness(tags, shifted, f"parallel to {line}"))
    if parallel_through(line, p) != line:
        fails.append(_witness(tags, parallel_through(line, p), line))
    other = line_through(r, s)
    if parallel(line, other):
        if line != other and intersect(line, other) is not None:
            fails.append(_witness(tags, intersect(line, other), "no intersection"))
    else:
        cross = intersect(line, other)
        if cross is None or not (line.contains(cross) and other.contains(cross)):
            fails.append(_witness(tags, cross, "a common point on both lines"))
    corner = point(field, 0, 0), point(field, 1, 0), point(field, 0, 1)
    if line_through(corner[0], corner[1]).contains(corner[2]):
        fails.append(_witness(tags, "collinear", "three non-collinear points"))
    return fails


def _draw_axis(field, rng) -> Chart:
    """A chart on two random base points; Chart raises when they coincide."""
    return Chart(random_point(field, rng), random_point(field, rng))


def _draw_chart(field, rng):
    return (_draw_axis(field, rng), field.random_element(rng))


@_register(
    "coordinate_chart_roundtrip",
    "a chart's point_at and coordinate are mutually inverse on its axis",
    draw=_draw_chart,
)
def _eval_chart(field, inputs):
    chart, t = inputs
    values = (chart.o, chart.i, t)
    p = chart.point_at(t)
    return [
        *_law("OIt", values, chart.coordinate(p), t),
        *_law("OIt", values, chart.point_at(chart.coordinate(p)), p),
        *_law("OIt", values, chart.coordinate(chart.o), field.zero),
        *_law("OIt", values, chart.coordinate(chart.i), field.one),
    ]


def _draw_geometric(field, rng):
    chart = _draw_axis(field, rng)
    aux = random_point(field, rng)
    if chart.axis.contains(aux):
        raise PreconditionError("the auxiliary point must lie off the axis")
    a = field.random_element(rng)
    b = field.random_element(rng)
    return (chart, a, b, aux)


_GEOMETRIC_NAMES = ("O", "I", "a", "b", "aux")


@_register(
    "geometric_add_agreement",
    "the addition construction realizes coordinate addition",
    draw=_draw_geometric,
)
def _eval_geometric_add(field, inputs):
    chart, a, b, aux = inputs
    result = construct_sum(chart, chart.point_at(a), chart.point_at(b), aux).result
    return _law(_GEOMETRIC_NAMES, (chart.o, chart.i, a, b, aux), chart.coordinate(result), a + b)


@_register(
    "geometric_mul_agreement",
    "the multiplication construction realizes the left-to-right product",
    draw=_draw_geometric,
)
def _eval_geometric_mul(field, inputs):
    chart, a, b, aux = inputs
    result = construct_product(chart, chart.point_at(a), chart.point_at(b), aux).result
    return _law(_GEOMETRIC_NAMES, (chart.o, chart.i, a, b, aux), chart.coordinate(result), a * b)


def _draw_aux_family(field, rng):
    chart = _draw_axis(field, rng)
    auxes = []
    tries = 0
    while len(auxes) < 10:
        candidate = random_point(field, rng)
        tries += 1
        if tries > 500:
            raise PreconditionError("too few auxiliary points off the axis")
        if chart.axis.contains(candidate) or candidate in auxes:
            continue
        auxes.append(candidate)
    a = field.random_element(rng)
    b = field.random_element(rng)
    return (chart, a, b, tuple(auxes))


@_register(
    "aux_point_independence",
    "construction results do not depend on the auxiliary point",
    draw=_draw_aux_family,
)
def _eval_aux_independence(field, inputs):
    chart, a, b, auxes = inputs
    pa, pb = chart.point_at(a), chart.point_at(b)
    sums, products = set(), set()
    for aux in auxes:
        built_sum, built_product = construct_sum_and_product(chart, pa, pb, aux)
        sums.add(built_sum.result)
        products.add(built_product.result)
    fails = []
    for results, kind in ((sums, "sums"), (products, "products")):
        if len(results) != 1:
            tags = _labeled(("O", "I", "a", "b"), (chart.o, chart.i, a, b))
            fails.append(_witness(tags, f"{len(results)} distinct {kind}", "1"))
    return fails


def _draw_desargues(field, rng):
    return (rng.getrandbits(32),)


@_register(
    "desargues_axiom_holds",
    "generated perspective triangles always satisfy the conclusion",
    draw=_draw_desargues,
)
def _eval_desargues(field, inputs):
    (sub_seed,) = inputs
    fails = []
    for mode in ("parallel", "concurrent"):
        tags = [f"seed={sub_seed}", f"mode={mode}"]
        try:
            cfg, holds = generate_desargues_config(field, sub_seed, mode)
        except GenerationFailureError as exc:
            fails.append(_witness(tags, str(exc), "a valid configuration"))
            continue
        if not holds:
            fails.append(_witness(tags + [cfg.canonical()], "sides not parallel", "parallel"))
    return fails
