"""One conformance suite for every field family.

Each family is a row of ROWS: the field, its oracle, Hypothesis strategies of
its values at the scales the package meets, spellings of its literals, and
every value when the field is small enough to enumerate.  The slow,
independent oracle is Fraction for the rationals, a product table over
Fraction coefficients for the quaternions, and plain % with Fermat inverses
for GF(p); its payload() gives the canonical payload each kernel must return.
Every test below is parametrized over the rows, so a new family is one more row.
"""

import math
import operator
import random
import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossratio.fields import RANDOM_COEFF_BOUND, RationalField
from crossratio.gf import GaloisField
from crossratio.quaternion import QuaternionField

Oracle = namedtuple("Oracle", "zero add sub neg mul inv payload spell read draw")
Row = namedtuple("Row", "field oracle scales spellings elements")


def fractions_up_to(bound):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound))


def fraction_draw(rng):
    # the randint form of RationalField's draw: the numerator, then the denominator
    bound = RANDOM_COEFF_BOUND
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


# ---------------------------------------------------------------- the rationals: Fraction

FRACTIONS = Oracle(
    zero=Fraction(0), add=operator.add, sub=operator.sub, neg=operator.neg, mul=operator.mul, inv=lambda x: 1 / x,
    payload=lambda x: (x.numerator, x.denominator),  # Fraction's own form is the canonical one
    spell=str, read=Fraction, draw=fraction_draw,
)

# unreduced spellings, '-0', and no denominator at all
RATIONAL_SPELLINGS = st.builds(
    lambda sign, n, d: f"{sign}{n}" if d is None else f"{sign}{n}/{d}",
    st.sampled_from(["", "-"]),
    st.integers(0, 2**256),
    st.none() | st.integers(1, 2**256),
)


# ---------------------------------------------------------------- the quaternions: a product table


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


def q_inv(p):
    n = sum(x * x for x in p)
    return (p[0] / n, -p[1] / n, -p[2] / n, -p[3] / n)


def q_payload(p):
    # four ints over one positive denominator, in lowest terms
    n = math.lcm(*(x.denominator for x in p))
    parts = [int(x * n) for x in p] + [n]
    g = math.gcd(*parts)
    return tuple(part // g for part in parts)


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


QUATERNIONS = Oracle(
    zero=(Fraction(0),) * 4,
    add=lambda p, q: tuple(x + y for x, y in zip(p, q)),
    sub=lambda p, q: tuple(x - y for x, y in zip(p, q)),
    neg=lambda p: tuple(-x for x in p),
    mul=q_mul, inv=q_inv, payload=q_payload, spell=q_str, read=q_parse,
    draw=lambda rng: tuple(fraction_draw(rng) for _ in range(4)),
)

I_Q = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
J_Q = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
K_Q = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))

# spellings str() never makes: repeated units, a leading '+', explicit 1 and 0
# coefficients, and unreduced ones such as 2/4 and 0/7
QUATERNION_TERMS = st.tuples(
    st.sampled_from("+-"),
    st.just("") | st.integers(0, 50).map(str) | st.builds("{}/{}".format, st.integers(0, 50), st.integers(1, 12)),
    st.sampled_from(["", "i", "j", "k"]),
).filter(lambda term: term[1] or term[2])
QUATERNION_SPELLINGS = st.lists(QUATERNION_TERMS, min_size=1, max_size=6).map(
    lambda terms: "".join(map("".join, terms))
)


# ---------------------------------------------------------------- GF(p): plain %


def gf_row(p):
    oracle = Oracle(
        zero=0, add=lambda x, y: (x + y) % p, sub=lambda x, y: (x - y) % p, neg=lambda x: -x % p,
        mul=lambda x, y: x * y % p, inv=lambda x: pow(x, p - 2, p),  # Fermat: x^(p-1) = 1 for x != 0
        payload=lambda x: x, spell=str, read=lambda text: int(text) % p, draw=lambda rng: rng.randrange(p),
    )
    spellings = st.text("0123456789", min_size=1, max_size=40)  # any ASCII digits, reduced mod p
    return Row(GaloisField(p), oracle, {"residues": st.integers(0, p - 1)}, spellings, range(p) if p <= 7 else None)


# ---------------------------------------------------------------- the table

# Desk-scale coefficients (which often share a denominator), the 256-bit
# numerators and denominators of the benchmark's bignum requests, and the
# 2048-bit size that the coordinates of their quaternion constructions reach.
# A row's first scale is conftest.element_strategy's.
RATIONAL_SCALES = {"desk": fractions_up_to(RANDOM_COEFF_BOUND), "256-bit": fractions_up_to(2**256)}
QUATERNION_SCALES = {
    name: st.tuples(coeff, coeff, coeff, coeff)
    for name, coeff in [
        ("small", st.fractions(min_value=-6, max_value=6, max_denominator=6)),
        ("256-bit", fractions_up_to(2**256)),
        ("2048-bit", fractions_up_to(2**2048)),
    ]
}

ROWS = {
    row.field.name: row
    for row in [
        Row(RationalField(), FRACTIONS, RATIONAL_SCALES, RATIONAL_SPELLINGS, None),
        Row(QuaternionField(), QUATERNIONS, QUATERNION_SCALES, QUATERNION_SPELLINGS, None),
        *(gf_row(p) for p in (2, 5, 7, 101, 2**61 - 1)),
    ]
}


def over_rows(keep=lambda row: True):
    return pytest.mark.parametrize("row", [pytest.param(row, id=name) for name, row in ROWS.items() if keep(row)])


over_scales = pytest.mark.parametrize(
    "row, scale", [pytest.param(row, scale, id=f"{name}-{scale}") for name, row in ROWS.items() for scale in row.scales]
)


@pytest.fixture(autouse=True, scope="module")
def unlimited_int_str_digits():
    """Lift the int-to-str digit limit, so a failing 2048-bit row shows its payloads.

    Only this module lifts it: test_cli needs the default limit in force to
    show that main lifts it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------- checks, one row's values at a time


def assert_payload(got, want):
    # equal, and made of plain ints: a Fraction or bool part compares equal but is no canonical payload
    assert got == want
    assert {type(part) for part in (got if isinstance(got, tuple) else [got])} == {int}


def check_kernels(row, x, y):
    """Every kernel's payload against the oracle's; y, then -y, is the divisor when nonzero."""
    f, o = row.field, row.oracle
    px, py = o.payload(x), o.payload(y)
    assert f._is_zero(px) == (x == o.zero)
    cases = [
        (f._neg(px), o.neg(x)),
        (f._add(px, py), o.add(x, y)),
        (f._add(px, px), o.add(x, x)),
        (f._sub(px, py), o.sub(x, y)),
        (f._sub(px, px), o.sub(x, x)),
        (f._mul(px, py), o.mul(x, y)),
        (f._mul(py, px), o.mul(y, x)),
    ]
    if y != o.zero:
        iy = o.inv(y)
        wants = (iy, o.mul(iy, x), o.mul(x, iy))
        for sign in (lambda v: v, o.neg):  # -y's inverse and quotients are the negated ones
            pz = o.payload(sign(y))
            cases += zip((f._inv(pz), f._ldiv(pz, px), f._rdiv(px, pz)), map(sign, wants))
    for got, want in cases:
        assert_payload(got, o.payload(want))


def check_canonical(row, x, y, z):
    """x coerces to its canonical payload, and y reached by a detour through nonzero z equals it iff y == x."""
    f = row.field
    direct = f.element(x)
    assert_payload(direct.value, row.oracle.payload(x))
    w = f.element(z)
    detour = (f.element(y) * w) * w.inv() + w - w
    assert (direct == detour) == (x == y)
    assert (direct.value == detour.value) == (x == y)
    if x == y:
        assert hash(direct) == hash(detour)


def check_spelling(row, x):
    """format gives the oracle's spelling, and parse reads it back."""
    f = row.field
    text = row.oracle.spell(x)
    element = f.element(x)
    assert f._format(element.value) == str(element) == text
    assert f.parse(text) == element


def check_axioms(row, x, y, z):
    """The skew-field axioms on three values, through the Element operators."""
    f = row.field
    x, y, z = f.element(x), f.element(y), f.element(z)
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert x + f.zero == x and x + (-x) == f.zero and x - y == x + (-y)
    assert (x * y) * z == x * (y * z) and x * f.one == x == f.one * x
    assert x * (y + z) == x * y + x * z and (y + z) * x == y * x + z * x
    assert x * y == y * x or not f.commutative
    for w in (x, y):
        if not w.is_zero:
            assert w * w.inv() == f.one == w.inv() * w
    assert (x * y).is_zero == (x.is_zero or y.is_zero)  # no zero divisors


# ---------------------------------------------------------------- the suite


@over_scales
@given(data=st.data())
def test_kernels_match_the_oracle(row, scale, data):
    values = row.scales[scale]
    check_kernels(row, data.draw(values), data.draw(values))


@over_scales
@given(data=st.data())
def test_equal_values_have_equal_payloads_and_hashes(row, scale, data):
    values = row.scales[scale]
    x = data.draw(values)
    y = data.draw(st.just(x) | values)
    z = data.draw(values.filter(lambda v: v != row.oracle.zero))
    check_canonical(row, x, y, z)


@over_scales
@given(data=st.data())
def test_format_spells_the_oracle_and_parse_reads_it_back(row, scale, data):
    check_spelling(row, data.draw(row.scales[scale]))


@over_rows()
@given(data=st.data())
def test_parse_reads_a_spelling_as_the_oracle_does(row, data):
    text = data.draw(row.spellings)
    want = row.oracle.payload(row.oracle.read(text))
    assert_payload(row.field._parse(text), want)
    assert row.field.parse(" ".join(text)).value == want  # whitespace is ignored


# The draws run random.Random.randrange's rejection loop on getrandbits
# directly.  The randint/randrange forms they replaced are the oracle: each
# draw must return the same payload and leave the generator in the same state.
@over_rows()
def test_random_element_matches_the_randint_draws(row):
    for seed in (0, 1, 7, 977, 20260816):
        ours, old = random.Random(seed), random.Random(seed)
        for _ in range(40):
            assert_payload(row.field.random_element(ours).value, row.oracle.payload(row.oracle.draw(old)))
            assert ours.getstate() == old.getstate()


@over_rows(lambda row: row.elements is None)
@given(data=st.data())
def test_ring_axioms(row, data):
    values = next(iter(row.scales.values()))
    check_axioms(row, data.draw(values), data.draw(values), data.draw(values))


@over_rows(lambda row: row.elements is not None)
def test_small_field_kernels_and_axioms_on_every_value(row):
    f, o = row.field, row.oracle
    assert [x.value for x in f.elements()] == [o.payload(v) for v in row.elements]
    for x, y in product(row.elements, repeat=2):
        check_kernels(row, x, y)
    for x, y, z in product(row.elements, repeat=3):
        check_axioms(row, x, y, z)


# ---------------------------------------------------------------- every family fails under a mutant kernel


def conforms(row):
    """Whether every check holds on a dozen of the row's own desk-scale draws."""
    o = row.oracle
    rng = random.Random(0)
    xs = [o.draw(rng) for _ in range(12)]
    z = next(x for x in xs if x != o.zero)
    try:
        for x, y in zip(xs, xs[1:]):
            check_kernels(row, x, y)
            check_canonical(row, x, y, z)
            check_spelling(row, x)
            check_axioms(row, x, y, z)
    except Exception:  # a wrong payload and a kernel that raises both break conformance
        return False
    return True


# _add without its final reduction: the cross-multiplied sum over the
# product of the denominators, or the residue sum before % p
UNREDUCED_SUMS = {
    RationalField: lambda self, a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1]),
    GaloisField: lambda self, a, b: a + b,
    QuaternionField: lambda self, x, y: (*(s * y[4] + t * x[4] for s, t in zip(x[:4], y[:4])), x[4] * y[4]),
}

# mutant name -> (the kernel it replaces, the family's replacement)
MUTANTS = {
    "ldiv-computes-rdiv": ("_ldiv", lambda family: family._rdiv),
    "sub-computes-add": ("_sub", lambda family: family._add),
    "add-skips-its-reduction": ("_add", UNREDUCED_SUMS.get),
}


@pytest.mark.parametrize("mutant", MUTANTS)
@pytest.mark.parametrize("family", [RationalField, GaloisField, QuaternionField], ids=lambda cls: cls.__name__)
def test_a_mutant_kernel_fails_a_row_of_its_family(family, mutant, monkeypatch):
    # GF(2) cannot tell _sub from _add, so the claim is per family, not per row
    rows = [row for row in ROWS.values() if type(row.field) is family]
    assert all(conforms(row) for row in rows)
    kernel, mutate = MUTANTS[mutant]
    monkeypatch.setattr(family, kernel, mutate(family))
    assert not all(conforms(row) for row in rows)
