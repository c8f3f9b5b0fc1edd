"""Two-, three-, and four-point ratio calculus with the point at infinity.

The defining product for four points is c = [(A-D)^-1 (B-D)][(B-C)^-1 (A-C)].
Commutative-field values are cross-checked against a plain Fraction oracle,
quaternion values against the standalone product-table oracle.
"""

import collections
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import GF5, GF7, GF101, QUATERNION, RATIONAL, element_strategy, field_and_elements
from crossratio import cli
from crossratio.fields import (
    DivisionByZeroError, Element, FieldMismatchError, RationalField, commutes, conjugate_by
)
from crossratio.gf import GaloisField
from crossratio.ratio import (
    CrossRatioArgumentError,
    ExtendedPoint,
    InfiniteSolutionError,
    InvalidRatioPointError,
    cross_ratio,
    cross_ratio_alt,
    ratio2,
    ratio3,
    solve_fourth_point,
)
from test_fields import I_Q, J_Q, K_Q, QUATERNION_COEFFS, q_inv, q_mul, quaternion_tuples


def fraction_cross_ratio(a, b, c, d):
    # independent oracle for commutative fields: the defining product collapses
    # to ((b-d)*(a-c)) / ((a-d)*(b-c))
    return Fraction(b - d, a - d) * Fraction(a - c, b - c)


# ---------------------------------------------------------------- extended points


def test_extended_point_semantics(field):
    fin = ExtendedPoint.finite(field.element(3))
    inf = ExtendedPoint.infinity(field)
    assert not fin.is_infinity and inf.is_infinity
    assert fin != inf
    assert str(inf) == "inf"
    assert fin == field.element(3)  # comparable against raw elements
    assert -inf == inf


def test_finite_point_hashes_like_its_element(field):
    # equal objects must hash equally, or a set holds a point and its element twice
    for x in (field.zero, field.one, field.element(3)):
        assert hash(ExtendedPoint.finite(x)) == hash(x)
        assert len({x, ExtendedPoint.finite(x)}) == 1
    inf = ExtendedPoint.infinity(field)
    assert len({inf, ExtendedPoint.infinity(field), field.zero}) == 2


def test_extended_point_rejects_a_foreign_or_non_element_value(capsys):
    # neither a GF(11) payload nor a bare int may reach GF(7) arithmetic
    with pytest.raises(FieldMismatchError):
        ExtendedPoint(GF7, GaloisField(11).element(10))
    with pytest.raises(TypeError):
        ExtendedPoint(GF7, 3)
    # an equal field built separately is the same field, as everywhere else
    assert ExtendedPoint(GF7, GaloisField(7).element(3)) == GF7.element(3)
    fin, inf = ExtendedPoint.finite(GF7.element(3)), ExtendedPoint.infinity(GF7)
    assert fin.field is GF7 and fin.value == GF7.element(3)
    assert inf.field is GF7 and inf.value is None
    assert cli.main(["eval", "--field", "gf:7", "--", "inf", "2", "3", "3"]) == 0
    assert cli.main(["eval", "--field", "gf:7", "--", "1", "inf", "2", "1"]) == 0
    assert capsys.readouterr().out.split() == ["1", "inf"]


# ---------------------------------------------------------------- ratio2 / ratio3


def test_ratio2_examples():
    six, three = RATIONAL.element(6), RATIONAL.element(3)
    assert ratio2(six, three) == RATIONAL.element(2)
    assert ratio2(three, three) == RATIONAL.one
    assert ratio2(RATIONAL.zero, three) == RATIONAL.zero
    with pytest.raises(DivisionByZeroError):
        ratio2(six, RATIONAL.zero)


def test_ratio3_examples():
    five, three, one = (RATIONAL.element(n) for n in (5, 3, 1))
    assert ratio3(five, three, one) == RATIONAL.element(2)
    assert ratio3(three, five, one) == RATIONAL.element(Fraction(1, 2))
    assert ratio3(five, five, one) == RATIONAL.one
    assert ratio3(one, three, one) == RATIONAL.zero
    with pytest.raises(DivisionByZeroError):
        ratio3(five, three, three)


@given(field_and_elements(2, nonzero=True))
def test_ratio2_is_left_division(fx):
    fld, (a, b) = fx
    assert ratio2(a, b) == b.inv() * a
    assert ratio2(a, b).inv() == ratio2(b, a) if not a.is_zero else True


@given(field_and_elements(3, distinct=True))
def test_ratio3_is_left_divided_difference(fx):
    fld, (a, b, c) = fx
    assert ratio3(a, b, c) == (b - c).inv() * (a - c)
    assert ratio3(a, b, c).inv() == ratio3(b, a, c)


# ---------------------------------------------------------------- cross ratio values


def test_cross_ratio_rational_example():
    a, b, c, d = (RATIONAL.element(n) for n in (2, 3, 1, 0))
    expected = fraction_cross_ratio(2, 3, 1, 0)
    assert expected == Fraction(3, 4)
    assert cross_ratio(a, b, c, d) == RATIONAL.element(expected)
    assert cross_ratio_alt(a, b, c, d) == RATIONAL.element(expected)


def test_cross_ratio_quaternion_example():
    i, j, k = (QUATERNION.element(u) for u in (I_Q, J_Q, K_Q))
    got = cross_ratio(i, j, k, QUATERNION.zero)
    # oracle evaluation of [(A-D)^-1 (B-D)][(B-C)^-1 (A-C)] with D = 0, C = k
    zero = (Fraction(0),) * 4
    sub = lambda p, q: tuple(x - y for x, y in zip(p, q))
    left = q_mul(q_inv(sub(I_Q, zero)), sub(J_Q, zero))
    right = q_mul(q_inv(sub(J_Q, K_Q)), sub(I_Q, K_Q))
    expected = q_mul(left, right)
    assert expected == (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2))
    assert got == QUATERNION.element(expected)
    assert cross_ratio_alt(i, j, k, QUATERNION.zero) == QUATERNION.element(expected)
    assert str(got.value) == "1/2+1/2i-1/2j-1/2k"


@given(field_and_elements(4, distinct=True, fields=(RATIONAL, GF101)))
def test_cross_ratio_matches_commutative_oracle(fx):
    fld, (a, b, c, d) = fx
    got = cross_ratio(a, b, c, d)
    expected = ((b - d) * (a - c)) * ((a - d) * (b - c)).inv()
    assert got == ExtendedPoint.finite(expected)


@given(field_and_elements(4, distinct=True))
def test_alternative_formula_agrees(fx):
    fld, (a, b, c, d) = fx
    assert cross_ratio(a, b, c, d) == ExtendedPoint.finite(cross_ratio_alt(a, b, c, d))


# ---------------------------------------------------------------- degenerate table


COINCIDENCE_CASES = [
    # (pattern, expected) with expected one of "one", "zero", "inf"
    ("AABC", "one"),   # A = B
    ("ABAC", "zero"),  # A = C
    ("ABCA", "inf"),   # A = D
    ("ABBC", "inf"),   # B = C
    ("ABCB", "zero"),  # B = D
    ("ABCC", "one"),   # C = D
]


def expand_pattern(pattern, x, y, z):
    lookup = {"A": x, "B": y, "C": z}
    return [lookup[ch] for ch in pattern]


@pytest.mark.parametrize("pattern,expected", COINCIDENCE_CASES)
def test_coincidence_table(field, rng, pattern, expected):
    triples = [tuple(field.element(n) for n in (1, 2, 3))]
    while len(triples) < 5:
        draw = tuple(field.random_element(rng) for _ in range(3))
        if len(set(draw)) == 3:
            triples.append(draw)
    for x, y, z in triples:
        got = cross_ratio(*expand_pattern(pattern, x, y, z))
        if expected == "inf":
            assert got.is_infinity
        elif expected == "one":
            assert got == field.one
        else:
            assert got == field.zero


# ---------------------------------------------------------------- infinity handling


@given(field_and_elements(3, distinct=True))
def test_one_infinite_argument_reduces_to_ratio_forms(fx):
    fld, (a, b, c) = fx
    inf = ExtendedPoint.infinity(fld)
    fa, fb, fc = (ExtendedPoint.finite(x) for x in (a, b, c))
    # each reduced form drops the pair of factors containing the infinite point
    assert cross_ratio(fa, fb, fc, inf) == ratio3(a, b, c)
    assert cross_ratio(fa, fb, inf, fc) == (a - c).inv() * (b - c)
    assert cross_ratio(fa, inf, fb, fc) == (a - c).inv() * (a - b)
    assert cross_ratio(inf, fa, fb, fc) == (a - c) * (a - b).inv()


def test_infinite_argument_example():
    a, b, c = (RATIONAL.element(n) for n in (3, 5, 1))
    got = cross_ratio(a, b, c, ExtendedPoint.infinity(RATIONAL))
    assert got == ratio3(a, b, c) == RATIONAL.element(Fraction(1, 2))


def test_infinite_argument_can_yield_infinity():
    # denominator of the reduced form vanishes when the second and third
    # points coincide
    a, b = RATIONAL.element(2), RATIONAL.element(5)
    got = cross_ratio(ExtendedPoint.infinity(RATIONAL), a, a, b)
    assert got.is_infinity


def test_two_infinite_arguments_rejected(field):
    inf = ExtendedPoint.infinity(field)
    x, y = field.element(1), field.element(2)
    with pytest.raises(CrossRatioArgumentError):
        cross_ratio(inf, inf, x, y)


def test_three_equal_arguments_rejected(field):
    x, y = field.element(1), field.element(2)
    with pytest.raises(CrossRatioArgumentError):
        cross_ratio(x, x, x, y)
    with pytest.raises(CrossRatioArgumentError):
        cross_ratio(x, x, x, x)


# ---------------------------------------------------------------- case split vs reference


def reference_cross_ratio(a, b, c, d):
    """The list-and-count case analysis that the six-coincidence split replaced."""
    points = tuple(x if isinstance(x, ExtendedPoint) else ExtendedPoint.finite(x) for x in (a, b, c, d))
    field = points[0].field
    for p in points[1:]:
        if p.field != field:
            raise FieldMismatchError(f"mixing elements of {field} and {p.field}")

    infinite = [i for i, p in enumerate(points) if p.is_infinity]
    if len(infinite) > 1:
        raise CrossRatioArgumentError("at most one cross-ratio argument may be infinite")

    finite = [p.value for p in points if not p.is_infinity]
    if max(finite.count(v) for v in finite) >= 3:
        raise CrossRatioArgumentError("no three cross-ratio arguments may coincide")

    if infinite:
        ea, eb, ec, ed = (p.value for p in points)
        if infinite[0] == 0:
            num, den = eb - ed, eb - ec  # c_r(inf,B;C,D) = (B-D)(B-C)^-1
        elif infinite[0] == 1:
            den, num = ea - ed, ea - ec  # c_r(A,inf;C,D) = (A-D)^-1(A-C)
        elif infinite[0] == 2:
            den, num = ea - ed, eb - ed  # c_r(A,B;inf,D) = (A-D)^-1(B-D)
        else:
            den, num = eb - ec, ea - ec  # c_r(A,B;C,inf) = (B-C)^-1(A-C)
        if den.is_zero:
            return ExtendedPoint.infinity(field)  # 0^-1 = inf convention
        if infinite[0] == 0:
            return ExtendedPoint.finite(num * den.inv())
        return ExtendedPoint.finite(den.inv() * num)

    ea, eb, ec, ed = (p.value for p in points)
    if ea == eb or ec == ed:
        return ExtendedPoint.finite(field.one)
    if ea == ec or eb == ed:
        return ExtendedPoint.finite(field.zero)
    if ea == ed or eb == ec:
        return ExtendedPoint.infinity(field)
    value = ((ea - ed).inv() * (eb - ed)) * ((eb - ec).inv() * (ea - ec))
    return ExtendedPoint.finite(value)


def outcome(fn, points):
    """The result of fn(*points), or the class and message of what it raised."""
    try:
        return fn(*points)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def assert_agrees_with_reference(points):
    got, want = outcome(cross_ratio, points), outcome(reference_cross_ratio, points)
    if isinstance(want, ExtendedPoint):
        assert isinstance(got, ExtendedPoint) and got.is_infinity == want.is_infinity
        assert got == want and str(got) == str(want)
    else:
        assert got == want


@pytest.mark.parametrize("fld", [GF5, GF7], ids=lambda f: f.name)
def test_cross_ratio_matches_reference_on_every_tuple(fld):
    # every 4-tuple over GF(p) and inf: 6^4 tuples for p = 5, 8^4 for p = 7;
    # gf:7 passes its finite points wrapped, to cover both argument types
    wrap = ExtendedPoint.finite if fld is GF7 else (lambda x: x)
    line = [ExtendedPoint.infinity(fld)] + [wrap(x) for x in fld.elements()]
    tuples = list(itertools.product(line, repeat=4))
    assert len(tuples) == (fld.p + 1) ** 4
    for points in tuples:
        assert_agrees_with_reference(points)


# A pattern names each argument: a letter picks one of four distinct elements,
# "*" is the point at infinity.  All 5^4 patterns cover AABC, ABCA, AAAB, one
# or two infinite points and four distinct points.
PATTERNS = ["".join(p) for p in itertools.product("ABCD*", repeat=4)]


@given(field_and_elements(4, distinct=True, fields=(RATIONAL, QUATERNION)), st.sampled_from(PATTERNS))
def test_cross_ratio_matches_reference_on_coincidence_patterns(fx, pattern):
    fld, xs = fx
    lookup = dict(zip("ABCD", xs), **{"*": ExtendedPoint.infinity(fld)})
    assert_agrees_with_reference([lookup[ch] for ch in pattern])


@pytest.mark.parametrize("fld", [RATIONAL, QUATERNION], ids=lambda f: f.name)
def test_cross_ratio_matches_reference_on_every_pattern(fld):
    xs = [fld.element(n) for n in (2, 5, -3, 7)]
    if fld is QUATERNION:  # an injective affine map off the real line
        xs = [x * fld.element((1, 1, 0, 2)) + fld.element((0, 1, -1, 0)) for x in xs]
    lookup = dict(zip("ABCD", xs), **{"*": ExtendedPoint.infinity(fld)})
    for pattern in PATTERNS:
        assert_agrees_with_reference([lookup[ch] for ch in pattern])


def counted(name):
    """RationalField's kernel `name`, counting its calls in self.calls."""
    def kernel(self, *args):
        self.calls[name] += 1
        return getattr(RationalField, name)(self, *args)
    return kernel


class CountingRational(RationalField):
    """Rationals whose arithmetic kernels count their calls."""

    _add, _sub, _mul, _inv, _ldiv, _rdiv = map(counted, ("_add", "_sub", "_mul", "_inv", "_ldiv", "_rdiv"))

    def __init__(self):
        self.calls = collections.Counter()


def expected_kernel_calls(pattern):
    """The kernel calls cross_ratio makes on a pattern of PATTERNS that it accepts."""
    letters = pattern.replace("*", "")
    if len(set(letters)) < len(letters):
        return {}  # a coincidence decides 0, 1 or inf before any arithmetic
    if pattern[0] == "*":
        return {"_sub": 2, "_rdiv": 1}
    if "*" in pattern:
        return {"_sub": 2, "_ldiv": 1}
    return {"_sub": 4, "_ldiv": 2, "_mul": 1}


def test_kernel_calls_of_every_ratio_branch():
    # A difference with the infinite argument drops out and costs nothing; a
    # rejected tuple costs nothing either.
    fld = CountingRational()
    xs = [fld.element(n) for n in (2, 5, -3, 7)]
    lookup = dict(zip("ABCD", xs), **{"*": ExtendedPoint.infinity(fld)})
    wrong = {}
    for pattern in PATTERNS:
        fld.calls.clear()
        try:
            cross_ratio(*(lookup[ch] for ch in pattern))
            want = expected_kernel_calls(pattern)
        except CrossRatioArgumentError:
            want = {}
        if fld.calls != want:
            wrong[pattern] = dict(fld.calls)
    assert wrong == {}

    a, b, c = xs[:3]
    fld.calls.clear()
    ratio3(a, b, c)
    assert fld.calls == {"_sub": 2, "_ldiv": 1}
    fld.calls.clear()
    solve_fourth_point(fld.element(Fraction(3, 4)), a, b, c)
    assert fld.calls == {"_sub": 4, "_ldiv": 1, "_mul": 2, "_rdiv": 1}


# ---------------------------------------------------------------- payloads vs Element formulas

# The ratio functions, commutes and conjugate_by compute on field payloads.
# These are the same formulas written with Element operators: the reference
# they must agree with, result for result and error for error.


def reference_ratio2(a, b):
    if b.is_zero:
        raise DivisionByZeroError("ratio of two points needs a nonzero second point")
    return b.inv() * a


def reference_ratio3(a, b, c):
    if b == c:
        raise DivisionByZeroError("ratio of three points needs B != C")
    return (b - c).inv() * (a - c)


def reference_cross_ratio_alt(a, b, c, d):
    if len({a, b, c, d}) != 4:
        raise CrossRatioArgumentError("inverse-difference form needs four distinct points")
    ab = (a - b).inv()
    return (ab - (a - d).inv()) * (ab - (a - c).inv()).inv()


def reference_solve_fourth_point(r, a, b, c):
    if r.is_zero or r == r.field.one:
        raise InvalidRatioPointError("the target ratio value must differ from 0 and 1")
    if len({a, b, c}) != 3:
        raise CrossRatioArgumentError("the three given points must be pairwise distinct")
    s = r * reference_ratio3(a, b, c).inv()
    if s == s.field.one:
        raise InfiniteSolutionError("the fourth point for this value lies at infinity")
    return (a * s - b) * (s - s.field.one).inv()


def reference_commutes(x, y):
    return x * y == y * x


def reference_conjugate_by(p, q):
    return q.inv() * p * q


def assert_same_outcome(fn, reference, args):
    """fn and reference return equal values of one type, or raise the same class and message."""
    got, want = outcome(fn, args), outcome(reference, args)
    assert type(got) is type(want)
    assert got == want and str(got) == str(want)
    return got


def assert_every_function_agrees(r, a, b, c, d):
    """Each payload function against its reference, on arguments drawn from r, a, b, c, d."""
    for x, y in ((a, b), (b, a), (a, a), (d, a)):
        assert_same_outcome(ratio2, reference_ratio2, (x, y))
        assert_same_outcome(commutes, reference_commutes, (x, y))
        assert_same_outcome(conjugate_by, reference_conjugate_by, (x, y))
    for args in ((a, b, c), (b, c, a), (a, b, b), (a, b, a)):
        assert_same_outcome(ratio3, reference_ratio3, args)
    for args in ((a, b, c, d), (d, c, b, a), (a, b, c, c)):
        assert_same_outcome(cross_ratio_alt, reference_cross_ratio_alt, args)
        assert_agrees_with_reference(args)
    # r as drawn, then the values that make the solver raise: 0, 1, and
    # r(A,B;C), whose fourth point lies at infinity
    r3 = outcome(reference_ratio3, (a, b, c))
    targets = [r, a.field.zero, a.field.one] + ([r3] if isinstance(r3, Element) else [])
    for target in targets:
        for args in ((target, a, b, c), (target, a, b, b)):
            assert_same_outcome(solve_fourth_point, reference_solve_fourth_point, args)


DIFFERENTIAL_FIELDS = {
    "rational": (RATIONAL, element_strategy(RATIONAL)),
    "gf7": (GF7, element_strategy(GF7)),
    "gf101": (GF101, element_strategy(GF101)),
    "quaternion": (QUATERNION, element_strategy(QUATERNION)),
    "quaternion-256-bit": (
        QUATERNION,
        quaternion_tuples(QUATERNION_COEFFS["256-bit"]).map(QUATERNION.element),
    ),
}


@pytest.mark.parametrize("name", DIFFERENTIAL_FIELDS)
@given(data=st.data())
def test_ratio_functions_match_the_element_formulas(name, data):
    fld, elements = DIFFERENTIAL_FIELDS[name]
    # arguments from a pool of four draws plus 0 and 1, so coincidences,
    # zero divisors and the values 0 and 1 come up often
    pool = data.draw(st.lists(elements, min_size=4, max_size=4)) + [fld.zero, fld.one]
    r, a, b, c, d = (data.draw(st.sampled_from(pool)) for _ in range(5))
    assert_every_function_agrees(r, a, b, c, d)


def test_ratio_functions_match_the_element_formulas_on_gf5():
    elements = GF5.elements()
    outcomes = []
    for x, y in itertools.product(elements, repeat=2):
        outcomes.append(assert_same_outcome(ratio2, reference_ratio2, (x, y)))
        outcomes.append(assert_same_outcome(commutes, reference_commutes, (x, y)))
        outcomes.append(assert_same_outcome(conjugate_by, reference_conjugate_by, (x, y)))
    for args in itertools.product(elements, repeat=3):
        outcomes.append(assert_same_outcome(ratio3, reference_ratio3, args))
    for args in itertools.product(elements, repeat=4):
        outcomes.append(assert_same_outcome(cross_ratio_alt, reference_cross_ratio_alt, args))
        outcomes.append(assert_same_outcome(solve_fourth_point, reference_solve_fourth_point, args))
    # every error the functions can raise on one field came up
    raised = {result[0] for result in outcomes if isinstance(result, tuple)}
    assert raised == {
        DivisionByZeroError,
        CrossRatioArgumentError,
        InvalidRatioPointError,
        InfiniteSolutionError,
    }


# ---------------------------------------------------------------- solving


def test_solve_fourth_point_example():
    r = RATIONAL.element(Fraction(3, 4))
    a, b, c = (RATIONAL.element(n) for n in (2, 3, 1))
    assert solve_fourth_point(r, a, b, c) == RATIONAL.zero


def test_solve_rejects_degenerate_ratio_values():
    a, b, c = (RATIONAL.element(n) for n in (2, 3, 1))
    with pytest.raises(InvalidRatioPointError):
        solve_fourth_point(RATIONAL.zero, a, b, c)
    with pytest.raises(InvalidRatioPointError):
        solve_fourth_point(RATIONAL.one, a, b, c)


def test_solve_reports_infinite_solution_set():
    # r equal to the three-point ratio of (A,B,C) leaves the fourth point free
    a, b, c = (RATIONAL.element(n) for n in (5, 3, 1))
    with pytest.raises(InfiniteSolutionError):
        solve_fourth_point(ratio3(a, b, c), a, b, c)


@given(field_and_elements(4, distinct=True))
def test_solve_round_trips_through_cross_ratio(fx):
    fld, (a, b, c, d) = fx
    r = cross_ratio(a, b, c, d)
    assume(not r.is_infinity)
    assume(not r.value.is_zero and r.value != fld.one)
    got = solve_fourth_point(r.value, a, b, c)
    assert got == d
    assert solve_fourth_point(r.value, a, b, c) == got  # resolving is stable


# ---------------------------------------------------------------- negation / inversion


def test_negate_all_examples():
    pts = tuple(RATIONAL.element(n) for n in (2, 3, 1, 0))
    assert tuple(-x for x in pts) == tuple(RATIONAL.element(n) for n in (-2, -3, -1, 0))
    zeros = (RATIONAL.zero,) * 4
    assert tuple(-x for x in zeros) == zeros
    assert (-ExtendedPoint.infinity(RATIONAL)).is_infinity


def test_invert_all_examples():
    pts = tuple(GF7.element(n) for n in (2, 3, 4, 5))
    expected = tuple(GF7.element(pow(n, 5, 7)) for n in (2, 3, 4, 5))
    assert tuple(x.inv() for x in pts) == expected
    assert [x.value for x in expected] == [4, 5, 2, 3]

    i, j, k = (QUATERNION.element(u) for u in (I_Q, J_Q, K_Q))
    assert tuple(x.inv() for x in (i, j, k, i)) == (-i, -j, -k, -i)

    ones = (RATIONAL.one,) * 4
    assert tuple(x.inv() for x in ones) == ones
