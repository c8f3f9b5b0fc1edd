"""Element arithmetic over the three coordinate fields.

Derived example values are recomputed here through standalone oracles
(plain Fraction arithmetic, a hand-coded quaternion product table, and
modular exponentiation) rather than trusted from the implementation.
"""

import math
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import crossratio
from conftest import GF5, GF7, GF101, QUATERNION, RATIONAL, field_and_elements
from crossratio.fields import (
    RANDOM_COEFF_BOUND,
    DivisionByZeroError,
    Element,
    FieldMismatchError,
    GaloisField,
    QuaternionField,
    _is_prime,
    _randbelow,
    commutes,
    conjugate_by,
    field_by_name,
)
from crossratio.plane import Chart, PlaneLine, PlanePoint, intersect, line_through, parallel_through
from crossratio.ratio import ExtendedPoint, cross_ratio, cross_ratio_alt, ratio2, ratio3, solve_fourth_point


# ---------------------------------------------------------------- oracles


def q_add(p, q):
    return tuple(x + y for x, y in zip(p, q))


def q_sub(p, q):
    return tuple(x - y for x, y in zip(p, q))


def q_neg(p):
    return tuple(-x for x in p)


def q_mul(p, q):
    # product table oracle: i*i = -1, i*j = k, j*i = -k, cyclically
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def q_norm(p):
    return sum(x * x for x in p)


def q_inv(p):
    n = q_norm(p)
    return (p[0] / n, -p[1] / n, -p[2] / n, -p[3] / n)


def q_str(p):
    # canonical spelling: nonzero terms in 1, i, j, k order; a unit coefficient of 1 is dropped
    terms = []
    for coeff, unit in zip(p, ("", "i", "j", "k")):
        if coeff == 0:
            continue
        if unit and coeff in (1, -1):
            body = unit if coeff == 1 else "-" + unit
        else:
            body = f"{coeff}{unit}"
        terms.append(body if not terms or body.startswith("-") else "+" + body)
    return "".join(terms) or "0"


def q_parse(text):
    # sum of signed terms, each a rational times at most one unit; whitespace is ignored
    parts = [Fraction(0)] * 4
    for term in re.findall(r"[+-]?[^+-]+", re.sub(r"\s+", "", text)):
        unit = term[-1] if term[-1] in "ijk" else ""
        coeff = term[: len(term) - len(unit)]
        if coeff in ("", "+", "-"):
            coeff += "1"
        parts[("", "i", "j", "k").index(unit)] += Fraction(coeff)
    return tuple(parts)


def q_parts(x):
    # the payload (a, b, c, d, n) read back as the four coefficients a/n, b/n, c/n, d/n
    *numerators, n = x.value
    return tuple(Fraction(part, n) for part in numerators)


def assert_reduced(x):
    # the unique payload: four ints over a positive int denominator, in lowest terms
    assert all(type(part) is int for part in x.value)
    assert x.value[4] > 0 and math.gcd(*x.value) == 1


def r_value(x):
    # the payload (n, d) read back as the Fraction n/d
    return Fraction(*x.value)


def assert_rational_payload(got, want):
    # the unique payload: two ints, n over a positive d in lowest terms, which is Fraction's own form
    assert all(type(part) is int for part in got)
    assert got == (want.numerator, want.denominator)


def mod_inv(a, p):
    return pow(a, p - 2, p)


I_Q = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
J_Q = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
K_Q = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))


# ---------------------------------------------------------------- construction


def test_field_by_name_round_trips():
    for name in ("rational", "gf:5", "gf:101", "quaternion"):
        assert field_by_name(name).name == name


@pytest.mark.parametrize("bad", ["gf:4", "gf:1", "gf:0", "gf:x", "octonion", ""])
def test_field_by_name_rejects_bad_selectors(bad):
    with pytest.raises(ValueError):
        field_by_name(bad)


def test_nonprime_modulus_rejected():
    for n in (4, 6, 9, 100):
        with pytest.raises(ValueError):
            GaloisField(n)


def test_primality_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**4) if _is_prime(n)] == [n for n in range(10**4) if trial(n)]


def test_identity_elements(field):
    x = field.element(3)
    assert field.zero + x == x
    assert field.one * x == x
    assert x * field.one == x
    assert x + (-x) == field.zero


def test_mixing_fields_raises():
    with pytest.raises(FieldMismatchError):
        RATIONAL.element(1) + GF5.element(1)
    with pytest.raises(FieldMismatchError):
        GF5.element(2) * GF7.element(2)


# Field checks take `is` as a shortcut and fall back to `==`: two separately
# built equal fields must still mix at every site that compares fields.
@pytest.mark.parametrize(
    "f, g",
    [
        (GaloisField(7), GaloisField(7)),
        (field_by_name("rational"), RATIONAL),
        (QuaternionField(), QUATERNION),
    ],
    ids=["gf7", "rational", "quaternion"],
)
def test_equal_field_instances_mix(f, g):
    assert f is not g and f == g and hash(f) == hash(g)
    x, y = f.element(3), g.element(3)
    assert x == y and y == x and hash(x) == hash(y)  # Element.__eq__, __hash__
    assert x + y == g.element(6) and x - y == g.zero and x * y == g.element(9)  # _check_elements
    assert g.element(x) is x  # Field.element
    assert PlanePoint(x, g.one).y == f.one  # PlanePoint.__init__
    fx, gy = ExtendedPoint.finite(x), ExtendedPoint.finite(y)
    assert fx == gy and hash(fx) == hash(gy)  # ExtendedPoint.__eq__
    assert ExtendedPoint.infinity(f) == ExtendedPoint.infinity(g)
    mixed = cross_ratio(f.element(2), g.element(5), ExtendedPoint.finite(f.one), g.zero)  # _same_field
    assert mixed == cross_ratio(*(g.element(n) for n in (2, 5, 1, 0)))
    assert cross_ratio(ExtendedPoint.infinity(f), g.element(2), f.element(5), g.one).value == (
        (g.element(2) - g.one) * (g.element(2) - g.element(5)).inv()
    )
    # the other ratio functions, commutes and conjugate_by
    a, b, c = f.element(2), g.element(5), f.element(-1)
    assert ratio2(a, b) == g.element(2) * g.element(5).inv()
    assert ratio3(a, b, c) == (g.element(5) - g.element(-1)).inv() * g.element(3)
    assert cross_ratio_alt(a, b, c, g.element(7)) == cross_ratio(*(g.element(n) for n in (2, 5, -1, 7))).value
    assert solve_fourth_point(cross_ratio(a, b, c, g.element(7)).value, a, b, c) == f.element(7)
    assert commutes(a, b) and conjugate_by(a, b) == f.element(2)
    # the plane primitives, on both line kinds
    p, q = PlanePoint(f.one, f.element(2)), PlanePoint(g.element(3), g.element(5))
    line, vertical = line_through(p, q), PlaneLine.vertical(f.element(4))
    assert line.contains(p) and line.contains(q) and line == line_through(q, p)
    assert vertical.contains(PlanePoint(g.element(4), g.zero))
    assert parallel_through(vertical, q) == PlaneLine.vertical(g.element(3))
    assert parallel_through(line, PlanePoint(g.zero, g.zero)).contains(PlanePoint(f.zero, f.zero))
    meet = intersect(line, PlaneLine.vertical(g.element(4)))
    assert meet.x == f.element(4) and line.contains(meet)
    assert intersect(PlaneLine.sloped(g.zero, g.zero), line).y == f.zero
    assert intersect(vertical, PlaneLine.vertical(g.one)) is None
    for chart in (Chart(p, q), Chart(p, PlanePoint(g.one, g.element(7)))):  # sloped, vertical axis
        assert chart.point_at(g.zero) == p and chart.coordinate(chart.i) == f.one
        assert chart.coordinate(chart.point_at(g.element(3))) == f.element(3)


@pytest.mark.parametrize(
    "f, g",
    [(GaloisField(7), GaloisField(11)), (RATIONAL, GF7)],
    ids=["gf7-gf11", "rational-gf7"],
)
def test_different_fields_do_not_mix(f, g):
    x, y = f.element(3), g.element(3)  # equal payloads, different fields
    assert x != y and y != x  # Element.__eq__
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(FieldMismatchError):  # _check_elements
            getattr(x, op)(y)
    with pytest.raises(FieldMismatchError):  # Field.element
        g.element(x)
    with pytest.raises(FieldMismatchError):  # PlanePoint.__init__
        PlanePoint(x, g.one)
    assert ExtendedPoint.finite(x) != ExtendedPoint.finite(y)  # ExtendedPoint.__eq__
    assert ExtendedPoint.infinity(f) != ExtendedPoint.infinity(g)
    with pytest.raises(FieldMismatchError):  # _same_field
        cross_ratio(f.element(1), f.element(2), f.element(4), y)
    with pytest.raises(FieldMismatchError):
        cross_ratio(ExtendedPoint.infinity(g), f.element(2), f.element(4), f.element(5))
    with pytest.raises(FieldMismatchError):
        cross_ratio(f.element(2), f.element(2), ExtendedPoint.infinity(g), f.element(5))
    # every ratio function, commutes and conjugate_by: the field check comes
    # before the value checks, so B = 0, B = C, a repeated point and R in
    # {0, 1} raise FieldMismatchError when the fields differ
    one, two, four = f.element(1), f.element(2), f.element(4)
    mixed_calls = [
        (ratio2, x, y),
        (ratio2, y, x),
        (ratio2, x, g.zero),
        (ratio3, one, two, y),
        (ratio3, y, one, two),
        (ratio3, one, y, y),
        (cross_ratio_alt, one, two, four, y),
        (cross_ratio_alt, one, one, two, y),
        (solve_fourth_point, y, two, x, one),  # R from another field
        (solve_fourth_point, g.zero, two, x, one),
        (solve_fourth_point, g.one, two, x, one),
        (solve_fourth_point, x, g.element(2), x, one),  # A from another field
        (solve_fourth_point, x, two, two, g.one),
        (commutes, x, y),
        (commutes, y, x),
        (conjugate_by, x, y),
        (conjugate_by, x, g.zero),
    ]
    for fn, *args in mixed_calls:
        with pytest.raises(FieldMismatchError):
            fn(*args)
    # every plane primitive, on both line kinds: the field check comes
    # before the branch on the line's kind
    q = PlanePoint(y, g.one)
    with pytest.raises(FieldMismatchError):
        line_through(PlanePoint(x, f.one), q)
    with pytest.raises(FieldMismatchError):  # PlaneLine.sloped
        PlaneLine.sloped(x, y)
    vertical, sloped = PlaneLine.vertical(x), PlaneLine.sloped(f.one, x)
    for line in (vertical, sloped):
        with pytest.raises(FieldMismatchError):
            parallel_through(line, q)
        with pytest.raises(FieldMismatchError):
            line.contains(q)
        for other in (PlaneLine.vertical(y), PlaneLine.sloped(g.element(2), y)):
            with pytest.raises(FieldMismatchError):
                intersect(line, other)
            with pytest.raises(FieldMismatchError):
                intersect(other, line)
    o = PlanePoint(x, f.zero)
    for chart in (Chart(o, PlanePoint(x, f.one)), Chart(o, PlanePoint(f.zero, f.one))):
        with pytest.raises(FieldMismatchError):
            chart.point_at(g.one)
        with pytest.raises(FieldMismatchError):
            chart.coordinate(q)


def test_ratio_functions_reject_non_elements():
    a, b, c, d = (GF7.element(n) for n in (1, 2, 4, 5))
    for bad in (3, ExtendedPoint.finite(GF7.element(3))):
        calls = [
            (ratio2, bad, b),
            (ratio2, a, bad),
            (ratio3, bad, b, c),
            (ratio3, a, bad, c),
            (ratio3, a, b, bad),
            (cross_ratio_alt, bad, b, c, d),
            (cross_ratio_alt, a, b, c, bad),
            (solve_fourth_point, bad, a, b, c),
            (solve_fourth_point, d, bad, b, c),
            (solve_fourth_point, d, a, b, bad),
            (commutes, bad, b),
            (commutes, a, bad),
            (conjugate_by, bad, b),
            (conjugate_by, a, bad),
        ]
        for fn, *args in calls:
            with pytest.raises(TypeError, match=f"^expected a field element, got {type(bad).__name__}$"):
                fn(*args)
    for args in ((3, b, c, d), (a, b, c, 3)):
        with pytest.raises(TypeError, match="^expected an element or extended point, got int$"):
            cross_ratio(*args)


# ---------------------------------------------------------------- examples


def test_rational_examples():
    half, third = RATIONAL.element(Fraction(1, 2)), RATIONAL.element(Fraction(1, 3))
    assert half + third == RATIONAL.element(Fraction(1, 2) + Fraction(1, 3))
    assert RATIONAL.element(Fraction(3, 2)).inv() == RATIONAL.element(Fraction(2, 3))


@given(
    st.fractions(min_value=-40, max_value=40, max_denominator=24),
    st.fractions(min_value=-40, max_value=40, max_denominator=24).filter(bool),
)
def test_rational_division_kernels_match_fraction(b, a):
    pa, pb = RATIONAL.element(a).value, RATIONAL.element(b).value
    assert Fraction(*RATIONAL._ldiv(pa, pb)) == Fraction(1, 1) / a * b
    assert Fraction(*RATIONAL._rdiv(pb, pa)) == b * (Fraction(1, 1) / a)


def rationals(bound):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound))


RATIONAL_SCALES = pytest.mark.parametrize("bound", [RANDOM_COEFF_BOUND, 2**256], ids=["desk", "256-bit"])


@RATIONAL_SCALES
@given(data=st.data())
def test_rational_kernels_match_fraction_oracle(bound, data):
    x, y = data.draw(rationals(bound)), data.draw(rationals(bound))
    px, py = (x.numerator, x.denominator), (y.numerator, y.denominator)
    assert_rational_payload(RATIONAL._add(px, py), x + y)
    assert_rational_payload(RATIONAL._sub(px, py), x - y)
    assert_rational_payload(RATIONAL._neg(px), -x)
    assert_rational_payload(RATIONAL._mul(px, py), x * y)
    assert RATIONAL._is_zero(px) == (x == 0)
    assert RATIONAL._format(px) == str(x)
    # every nonzero divisor twice, once with each sign
    for z in (y, -y) if y else ():
        pz = (z.numerator, z.denominator)
        assert_rational_payload(RATIONAL._inv(pz), 1 / z)
        assert_rational_payload(RATIONAL._ldiv(pz, px), 1 / z * x)
        assert_rational_payload(RATIONAL._rdiv(px, pz), x / z)


@RATIONAL_SCALES
@given(data=st.data())
def test_rational_parse_matches_fraction_oracle(bound, data):
    # unreduced spellings, '-0', and no denominator at all
    sign = data.draw(st.sampled_from(["", "-"]))
    n, d = data.draw(st.integers(0, bound)), data.draw(st.none() | st.integers(1, bound))
    text = f"{sign}{n}" if d is None else f"{sign}{n}/{d}"
    want = Fraction(-n if sign else n, d or 1)
    assert_rational_payload(RATIONAL._parse(text), want)
    assert str(RATIONAL.parse(" ".join(text))) == str(want)


@given(st.integers(0, 2**32))
def test_rational_random_matches_fraction_draws(seed):
    bound = RANDOM_COEFF_BOUND
    ours, old = random.Random(seed), random.Random(seed)
    for _ in range(5):
        want = Fraction(old.randint(-bound, bound), old.randint(1, bound))
        assert_rational_payload(RATIONAL._random(ours), want)
        assert ours.getstate() == old.getstate()


def test_rational_coercion_is_canonical():
    assert str(RATIONAL.element(True)) == "1"
    assert str(RATIONAL.element(False)) == "0"
    assert str(RATIONAL.element(Fraction(6, -4))) == "-3/2"
    assert_rational_payload(RATIONAL.element(True).value, Fraction(1))
    assert_rational_payload(RATIONAL.element(Fraction(6, -4)).value, Fraction(-3, 2))
    with pytest.raises(TypeError, match="^cannot make a rational from float$"):
        RATIONAL.element(0.5)


def test_quaternion_coercion_is_canonical():
    # an int, a bool included, becomes the int it equals; a Fraction is read in lowest terms
    for x in (QUATERNION.element(True), QUATERNION.one):
        assert str(x) == "1" and x.value == (1, 0, 0, 0, 1)
        assert all(type(part) is int for part in x.value)
    assert QUATERNION.zero.value == (0, 0, 0, 0, 1)
    x = QUATERNION.element(Fraction(6, -4))
    assert str(x) == "-3/2" and x.value == (-3, 0, 0, 0, 2)
    assert_reduced(x)
    with pytest.raises(TypeError, match="^cannot make a quaternion from float$"):
        QUATERNION.element(0.5)


# Runs in a fresh interpreter: whether fractions is loaded at startup, after
# importing fields, after int, literal and format work, and after the
# expression in argv[1].
FRACTIONS_GUARD = """
import sys
loaded = ["fractions" in sys.modules]
from crossratio.fields import QuaternionField, RationalField
q, r = QuaternionField(), RationalField()
loaded.append("fractions" in sys.modules)
str(q.one * q.element(True) + q.zero + q.parse("2/4+i+i")), str(r.parse("-6/9") + r.element(3))
loaded.append("fractions" in sys.modules)
eval(sys.argv[1])
loaded.append("fractions" in sys.modules)
print(loaded)
"""


@pytest.mark.parametrize("step", ["q.element((1, 2, 3, 4))", "q.norm(q.parse('1+i'))"])
def test_fractions_loads_only_where_a_fraction_comes_in_or_goes_out(step):
    src = str(pathlib.Path(crossratio.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FRACTIONS_GUARD, step],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    if loaded.startswith("[True"):
        pytest.skip("this interpreter loads fractions at startup")
    assert loaded == "[False, False, False, True]"


def test_gf_division_kernels_match_mul_and_inv_exhaustively():
    for a in range(7):
        for b in range(1, 7):
            assert GF7._ldiv(b, a) == GF7._mul(GF7._inv(b), a)
            assert GF7._rdiv(a, b) == GF7._mul(a, GF7._inv(b))


def test_gf_examples():
    assert -GF7.element(3) == GF7.element(4)
    assert GF5.element(3) * GF5.element(4) == GF5.element((3 * 4) % 5)
    # inverse against the modular exponentiation oracle
    for a in range(1, 7):
        assert GF7.element(a).inv() == GF7.element(mod_inv(a, 7))


def test_quaternion_examples():
    i, j, k = (QUATERNION.element(u) for u in (I_Q, J_Q, K_Q))
    assert q_parts(i * j) == q_mul(I_Q, J_Q) == K_Q
    assert q_parts(j * i) == q_mul(J_Q, I_Q)
    assert j * i == -k
    assert q_parts(j - k) == (0, 0, 1, -1)
    assert i + j == QUATERNION.element((0, 1, 1, 0))
    assert i.inv() == -i
    assert q_parts(i.inv()) == q_inv(I_Q)


def test_quaternion_sum_reduces_by_the_shared_denominator_factor():
    q = QUATERNION.parse
    # equal denominators (g = 6) and numerators (6, 0, 0, 0) sharing h = 6 with g
    assert (q("1/6+1/6i") + q("5/6-1/6i")).value == (1, 0, 0, 0, 1)
    # numerator content 4 but only h = 2 shared with the denominators' g = 2
    assert (q("1/2") + q("3/2")).value == (2, 0, 0, 0, 1)
    # coprime denominators (g = 1): nothing to reduce
    assert (q("1/2i") + q("1/3j")).value == (0, 3, 2, 0, 6)


def test_quaternion_inverse_reduces_by_content_and_norm_factor():
    q = QUATERNION.parse
    # content 2, norm 12, gcd(n, norm) = 3: the factor is 6
    assert q("2/3+2/3i+2/3j").inv().value == (1, -1, -1, 0, 2)
    assert q("2/3+2/3i+2/3j").inv() == q("1/2-1/2i-1/2j")
    assert q("-5/7").inv().value == (-7, 0, 0, 0, 5)  # scalar: content |a|, norm a^2
    assert q("i").inv().value == (0, -1, 0, 0, 1)


def test_quaternion_format_examples():
    q = QUATERNION.parse
    assert str(q("i")) == "i" and str(q("-i")) == "-i"
    assert str(q("-k")) == "-k" and str(q("1-j")) == "1-j"
    # over the shared denominator 2, the i, j and k coefficients reduce to 1, -1 and 3
    x = QUATERNION.element((Fraction(1, 2), 1, -1, 3))
    assert x.value == (1, 2, -2, 6, 2) and str(x) == "1/2+i-j+3k"
    # a numerator of +-1 over a denominator above 1 is no unit coefficient
    assert str(q("1/2+1/2i-1/2j")) == "1/2+1/2i-1/2j"
    assert str(q("-4/2")) == "-2" and str(QUATERNION.zero) == "0"


def test_inverse_of_zero_raises(field):
    with pytest.raises(DivisionByZeroError):
        field.zero.inv()


# ---------------------------------------------------------------- axioms


@given(field_and_elements(3))
def test_additive_group_axioms(fx):
    fld, (x, y, z) = fx
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x - y == x + (-y)


@given(field_and_elements(3))
def test_multiplicative_axioms(fx):
    fld, (x, y, z) = fx
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x


@given(field_and_elements(2, nonzero=True))
def test_inverses_both_sides(fx):
    fld, (x, y) = fx
    assert x * x.inv() == fld.one
    assert x.inv() * x == fld.one
    assert not (x * y).is_zero  # no zero divisors


@given(field_and_elements(1))
def test_parse_format_round_trip(fx):
    fld, (x,) = fx
    assert fld.parse(str(x)) == x


def test_parse_fixed_literals():
    assert RATIONAL.parse("-3/4") == RATIONAL.element(Fraction(-3, 4))
    assert GF101.parse("100") == GF101.element(-1)
    assert QUATERNION.parse("1/2+1/2i-1/2j-1/2k") == QUATERNION.element(
        (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2))
    )
    assert QUATERNION.parse("-i") == -QUATERNION.element(I_Q)
    with pytest.raises(ValueError):
        RATIONAL.parse("1/0")
    with pytest.raises(ValueError):
        QUATERNION.parse("1+q")


@given(st.tuples(*(st.fractions(max_denominator=20, min_value=-20, max_value=20) for _ in range(8))))
def test_quaternion_matches_product_oracle(coeffs):
    p, q = coeffs[:4], coeffs[4:]
    assert q_parts(QUATERNION.element(p) * QUATERNION.element(q)) == q_mul(p, q)


@given(st.tuples(*(st.fractions(max_denominator=12, min_value=-12, max_value=12) for _ in range(8))))
def test_quaternion_norm_is_multiplicative(coeffs):
    p, q = coeffs[:4], coeffs[4:]
    x, y = QUATERNION.element(p), QUATERNION.element(q)
    assert QUATERNION.norm(x * y) == q_norm(p) * q_norm(q)


# ---------------------------------------------------------------- quaternion payload vs oracle

# Desk-scale coefficients (which often share a denominator), the 256-bit
# numerators and denominators of the benchmark's bignum requests, and the
# 2048-bit size that the coordinates of their quaternion constructions reach.
QUATERNION_COEFFS = {
    "small": st.fractions(min_value=-6, max_value=6, max_denominator=6),
    "256-bit": st.builds(Fraction, st.integers(-(2**256), 2**256), st.integers(1, 2**256)),
    "2048-bit": st.builds(Fraction, st.integers(-(2**2048), 2**2048), st.integers(1, 2**2048)),
}


def quaternion_tuples(coeff):
    return st.tuples(coeff, coeff, coeff, coeff)


@pytest.mark.parametrize("size", QUATERNION_COEFFS)
@given(data=st.data())
def test_quaternion_ops_match_fraction_oracle(size, data):
    p, q = data.draw(st.tuples(*[quaternion_tuples(QUATERNION_COEFFS[size])] * 2))
    x, y = QUATERNION.element(p), QUATERNION.element(q)
    results = [
        (x, p),
        (x + y, q_add(p, q)),
        (x - y, q_sub(p, q)),
        (x + x, q_add(p, p)),
        (x - x, (0, 0, 0, 0)),
        (-x, q_neg(p)),
        (x * y, q_mul(p, q)),
    ]
    if any(p):
        results.append((x.inv(), q_inv(p)))
        results.append((Element(QUATERNION, QUATERNION._ldiv(x.value, y.value)), q_mul(q_inv(p), q)))
    if any(q):
        results.append((Element(QUATERNION, QUATERNION._rdiv(x.value, y.value)), q_mul(p, q_inv(q))))
    for got, want in results:
        assert q_parts(got) == want
        assert_reduced(got)
    # _sub subtracts directly; it must give the payload of adding the negation
    for u, v in ((x, y), (y, x), (x, x)):
        assert QUATERNION._sub(u.value, v.value) == QUATERNION._add(u.value, QUATERNION._neg(v.value))
    assert QUATERNION.norm(x) == q_norm(p)
    assert str(x) == q_str(p)
    assert QUATERNION.parse(q_str(p)) == x


@pytest.mark.parametrize("size", QUATERNION_COEFFS)
@given(data=st.data())
def test_quaternion_equality_and_hash_match_oracle(size, data):
    quat = quaternion_tuples(QUATERNION_COEFFS[size])
    p = data.draw(quat)
    q = data.draw(st.one_of(st.just(p), quat))
    z = data.draw(quat.filter(any))
    x = QUATERNION.element(p)
    # reach q by a detour, so its payload is reduced from a different unreduced form
    zq = QUATERNION.element(z)
    y = (QUATERNION.element(q) * zq) * zq.inv() + zq - zq
    assert (x == y) == (p == q)
    if p == q:
        assert hash(x) == hash(y)


@given(
    st.lists(
        st.tuples(
            st.sampled_from("+-"),
            st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=50).map(str),
                st.tuples(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=12))
                .map(lambda nd: f"{nd[0]}/{nd[1]}"),
            ),
            st.sampled_from(["", "i", "j", "k"]),
        ).filter(lambda term: term[1] is not None or term[2]),
        min_size=1,
        max_size=6,
    )
)
def test_quaternion_parse_matches_oracle(terms):
    # spellings str() never makes: repeated units, a leading '+', explicit 1 and 0
    # coefficients, and unreduced ones such as 2/4 and 0/7
    text = "".join(sign + ("" if coeff is None else coeff) + unit for sign, coeff, unit in terms)
    x = QUATERNION.parse(text)
    assert q_parts(x) == q_parse(text)
    assert_reduced(x)


@pytest.mark.parametrize(
    "text, payload",
    [
        ("2/4i", (0, 1, 0, 0, 2)),
        ("0/7j", (0, 0, 0, 0, 1)),
        ("-6/9", (-2, 0, 0, 0, 3)),
        ("2/4+i+i", (1, 4, 0, 0, 2)),
        ("i-i+3/6k-1/4k", (0, 0, 0, 1, 4)),
        ("-0/3+4/8-2/4", (0, 0, 0, 0, 1)),
    ],
)
def test_quaternion_parse_reduces_unreduced_spellings(text, payload):
    assert QUATERNION.parse(text).value == payload


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0i", "zero denominator in literal: '1/0'"),
        ("", "empty quaternion literal"),
        ("i+", "invalid quaternion literal: 'i+'"),
        ("1++i", "invalid quaternion literal: '1++i'"),
        ("\u0661", "invalid quaternion literal: '\u0661'"),  # ARABIC-INDIC DIGIT ONE
        ("1.5i", "invalid quaternion literal: '1.5i'"),
    ],
    ids=["zero-denominator", "empty", "trailing-sign", "double-sign", "arabic-indic-one", "decimal-point"],
)
def test_quaternion_parse_error_messages(text, message):
    with pytest.raises(ValueError) as exc:
        QUATERNION.parse(text)
    assert str(exc.value) == message


def test_random_quaternion_is_four_rational_draws():
    for seed in range(20):
        rng = random.Random(seed)
        want = tuple(r_value(RATIONAL.random_element(rng)) for _ in range(4))
        x = QUATERNION.random_element(random.Random(seed))
        assert q_parts(x) == want
        assert_reduced(x)


# ---------------------------------------------------------------- centrality


def test_commutes_examples():
    i, j = QUATERNION.element(I_Q), QUATERNION.element(J_Q)
    assert not commutes(i, j)
    assert commutes(i, i)
    assert commutes(RATIONAL.element(2), RATIONAL.element(3))


def test_is_central_examples():
    assert QUATERNION.is_central(QUATERNION.element(Fraction(3, 2)))
    assert not QUATERNION.is_central(QUATERNION.element(I_Q))
    for x in GF5.elements():
        assert GF5.is_central(x)


def test_central_means_commutes_with_everything(rng):
    # brute-force oracle: central iff it commutes with 50 random draws and the basis
    for _ in range(20):
        x = QUATERNION.random_element(rng)
        brute = all(commutes(x, QUATERNION.random_element(rng)) for _ in range(50))
        brute = brute and all(commutes(x, e) for e in QUATERNION.basis())
        assert QUATERNION.is_central(x) == brute


def test_conjugate_by_examples():
    i, j = QUATERNION.element(I_Q), QUATERNION.element(J_Q)
    assert conjugate_by(i, j) == -i
    assert q_parts(conjugate_by(i, j)) == q_mul(q_mul(q_inv(J_Q), I_Q), J_Q)
    assert conjugate_by(i, QUATERNION.one) == i
    scalar = QUATERNION.element(Fraction(7, 3))
    assert conjugate_by(scalar, i) == scalar
    with pytest.raises(DivisionByZeroError):
        conjugate_by(i, QUATERNION.zero)


# ---------------------------------------------------------------- randomness


def test_random_element_is_seed_deterministic(field):
    import random as _random

    a = field.random_element(_random.Random(123))
    b = field.random_element(_random.Random(123))
    assert a == b


def test_random_rational_stays_desk_scale(rng):
    for _ in range(200):
        x = RATIONAL.random_element(rng)
        n, d = x.value
        assert abs(n) <= 10**6 and d <= 10**6


# The draws run random.Random.randrange's rejection loop on getrandbits
# directly.  The randint/randrange forms they replaced are the oracle: each
# draw must return the same payload and leave the generator in the same state.
MERSENNE_61 = 2**61 - 1


@pytest.mark.parametrize("n", [2, 5, 101, 1000, 2001, MERSENNE_61])
def test_randbelow_matches_randrange(n):
    for seed in range(8):
        ours, oracle = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert _randbelow(ours.getrandbits, n, n.bit_length()) == oracle.randrange(n)
            assert ours.getstate() == oracle.getstate()


def old_draw(fld, rng):
    """The value the old randint/randrange form drew: rationals as Fractions, quaternions as q_parts."""
    if isinstance(fld, GaloisField):
        return rng.randrange(fld.p)
    bound = RANDOM_COEFF_BOUND
    draws = 4 if fld is QUATERNION else 1
    terms = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(draws)]
    return tuple(terms) if fld is QUATERNION else terms[0]


@pytest.mark.parametrize(
    "fld", [GaloisField(2), GF5, GF101, GaloisField(MERSENNE_61), RATIONAL, QUATERNION], ids=lambda f: f.name
)
def test_random_element_matches_the_randint_draws(fld):
    for seed in (0, 1, 7, 977, 20260816):
        ours, old = random.Random(seed), random.Random(seed)
        for _ in range(40):
            x = fld.random_element(ours)
            got = q_parts(x) if fld is QUATERNION else r_value(x) if fld is RATIONAL else x.value
            assert got == old_draw(fld, old)
            assert ours.getstate() == old.getstate()


def test_gf_enumeration():
    assert [x.value for x in GF5.elements()] == [0, 1, 2, 3, 4]
    assert len(GF101.elements()) == 101
