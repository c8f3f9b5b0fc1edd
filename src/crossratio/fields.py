"""Exact arithmetic in concrete skew fields behind one element type.

Supported fields: the rationals, prime fields GF(p), and the rational
quaternions (a genuinely noncommutative division ring).  All arithmetic is
arbitrary-precision and exact; floating point never appears.  Elements carry
a reference to their field instance and refuse to combine across unequal
fields; equal instances mix, and `is` is tested first only as a shortcut.

This module holds Element, Field, the error classes, RationalField and
field_by_name.  Each other family lives in its own module, which
field_by_name imports only when a selector names it: crossratio.gf holds
GaloisField and crossratio.quaternion holds QuaternionField.  So a process
over the rationals compiles neither.

The module also owns the element literal grammar shared with the CLI:

    rational   := '-'? digits ('/' digits)?
    gfp        := digits                       (reduced mod p from context)
    quaternion := sign? term (sign term)* ;  sign := '+' | '-'
    term       := digits ('/' digits)? unit? | unit ;  unit := 'i' | 'j' | 'k'

Digits are ASCII 0-9 only.  Whitespace is ignored.  ``str(field.parse(s))``
is the canonical spelling of ``s``.

Each field computes on payloads through its kernels _add, _sub, _neg, _mul,
_inv, _ldiv (x^-1 * y) and _rdiv (x * y^-1), and each kernel returns the
canonical payload.  Every division in this package goes through _ldiv or
_rdiv, called only on a divisor its branch has proven nonzero; _inv serves
Element.inv and the inverse terms of ratio.cross_ratio_alt.

Payloads are plain ints and tuples of ints, so equal elements have equal
payloads: a rational is (n, d) with d > 0 and gcd(n, d) == 1, a GF(p)
element a residue in [0, p), and a quaternion (a, b, c, d, n) over one
positive denominator in lowest terms.  Rational and quaternion kernels
reduce with gcds on the smallest operands that suffice (Knuth, TAOCP vol. 2,
4.5.1): a sum or difference splits the gcd of the denominators and reduces
only by a divisor of it, a rational product or quotient cross-cancels
before it multiplies, and a quaternion quotient cancels its scalar
denominators first.  The docstrings of RationalField here and of
quaternion.QuaternionField list each kernel's gcds.  Fraction appears only
at the edges: coercion takes one and QuaternionField.norm returns one, and
only these two load the fractions module.  Rational and quaternion
literals are read as ints: a quaternion literal sums each unit's
coefficients over a common denominator.
"""
from __future__ import annotations

import math
import re

# Bound on random numerators/denominators: keeps bignum growth desk-scale.
RANDOM_COEFF_BOUND = 1000


# randint(-bound, bound) and randint(1, bound): widths and their bit lengths
_NUMERATOR_WIDTH = 2 * RANDOM_COEFF_BOUND + 1
_NUMERATOR_BITS = _NUMERATOR_WIDTH.bit_length()
_DENOMINATOR_BITS = RANDOM_COEFF_BOUND.bit_length()


def _random_fraction_terms(getrandbits) -> tuple[int, int]:
    """(rng.randint(-bound, bound), rng.randint(1, bound)), drawn in that order.

    The two _randbelow loops are written out: a quaternion draw runs them
    four times, and the calls alone would double its cost.
    """
    r = getrandbits(_NUMERATOR_BITS)
    while r >= _NUMERATOR_WIDTH:
        r = getrandbits(_NUMERATOR_BITS)
    s = getrandbits(_DENOMINATOR_BITS)
    while s >= RANDOM_COEFF_BOUND:
        s = getrandbits(_DENOMINATOR_BITS)
    return r - RANDOM_COEFF_BOUND, s + 1


class PreconditionError(ValueError):
    """Base of every error raised for input that breaks a stated precondition.

    The CLI exits with the class's exit_code: 3 here, and 4 for
    ratio.InfiniteSolutionError.
    """

    exit_code = 3


class FieldMismatchError(PreconditionError):
    """Binary operation applied to elements of unequal fields."""


class DivisionByZeroError(PreconditionError, ZeroDivisionError):
    """Multiplicative inverse of the zero element was requested."""


class Element:
    """One exact element of a skew field, tagged with its field instance."""

    __slots__ = ("field", "value", "_text")

    def __init__(self, field: "Field", value):
        self.field = field
        self.value = value

    @property
    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def inv(self) -> "Element":
        """Multiplicative inverse; raises DivisionByZeroError on zero."""
        if self.is_zero:
            raise DivisionByZeroError(f"cannot invert zero in {self.field}")
        return Element(self.field, self.field._inv(self.value))

    # The binary ops call _check_elements only off the common path of an
    # Element of the very same field instance, saving a Python call per operation.
    def __add__(self, other):
        if other.__class__ is not Element or other.field is not self.field:
            _check_elements((self, other))
        return Element(self.field, self.field._add(self.value, other.value))

    def __sub__(self, other):
        if other.__class__ is not Element or other.field is not self.field:
            _check_elements((self, other))
        return Element(self.field, self.field._sub(self.value, other.value))

    def __neg__(self):
        return Element(self.field, self.field._neg(self.value))

    def __mul__(self, other):
        if other.__class__ is not Element or other.field is not self.field:
            _check_elements((self, other))
        return Element(self.field, self.field._mul(self.value, other.value))

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.value == other.value and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash(self.value)  # equal elements have equal payloads

    def __str__(self):
        # Formatted once: a line shares its slope Element with its parallels.
        try:
            return self._text
        except AttributeError:
            self._text = text = self.field._format(self.value)
            return text

    def __repr__(self):
        return f"<{self.field}: {self.field._format(self.value)}>"


class Field:
    """A concrete skew field instance.  Subclasses define the payload ops."""

    name: str
    commutative: bool

    @property
    def zero(self) -> Element:
        return Element(self, self._coerce(0))

    @property
    def one(self) -> Element:
        return Element(self, self._coerce(1))

    def element(self, raw) -> Element:
        """Coerce an int, a Fraction or 4 quaternion coefficients to an Element; parse() reads literals."""
        if isinstance(raw, Element):
            if raw.field is not self and raw.field != self:
                raise FieldMismatchError(f"element of {raw.field} is not in {self}")
            return raw
        return Element(self, self._coerce(raw))

    def parse(self, text: str) -> Element:
        return Element(self, self._parse(_WHITESPACE_RE.sub("", text)))

    def random_element(self, rng, nonzero: bool = False) -> Element:
        while True:
            value = self._random(rng)
            if not (nonzero and self._is_zero(value)):
                return Element(self, value)

    def basis(self) -> list[Element]:
        """Spanning elements whose centralizer determines the center."""
        return [self.one]

    def is_central(self, x: Element) -> bool:
        """Whether x commutes with every element; noncommutative fields override this."""
        return self.commutative

    def __str__(self):
        return self.name

    def __repr__(self):
        return self.name


class RationalField(Field):
    """The field of rationals, stored as reduced pairs of arbitrary-precision ints.

    Payload is a 2-tuple of ints (n, d) standing for n/d, with d > 0 and
    gcd(n, d) == 1, so zero is (0, 1).  That form is unique, so equal
    rationals have equal payloads.  Each kernel takes its gcds on the
    smallest operands that suffice (Knuth, TAOCP vol. 2, 4.5.1):

    - sum and difference: split g = gcd(d1, d2); a factor common to the new
      numerator and denominator divides g, so the second gcd is against g;
    - product: cross-cancel, gcd(n1, d2) and gcd(n2, d1);
    - quotients x^-1 * y (_ldiv) and x * y^-1 (_rdiv): cross-cancel the two
      numerators and the two denominators, then move the sign to the
      numerator;
    - inverse: swap numerator and denominator, moving the sign, with no gcd;
    - parse and random draw: one gcd of the literal's or the draw's two ints;
    - format: what str(Fraction) prints, with no gcd and no Fraction built.
    """

    name = "rational"
    commutative = True

    def _coerce(self, raw):
        if isinstance(raw, int):
            return (int(raw), 1)  # int(): a bool becomes the int it equals
        from fractions import Fraction

        if isinstance(raw, Fraction):
            return (raw.numerator, raw.denominator)
        raise TypeError(f"cannot make a rational from {type(raw).__name__}")

    def _is_zero(self, a):
        return a[0] == 0

    def _add(self, a, b):
        n1, d1 = a
        n2, d2 = b
        g = math.gcd(d1, d2)
        if g == 1:
            return (n1 * d2 + n2 * d1, d1 * d2)
        s = d1 // g
        t = n1 * (d2 // g) + n2 * s
        # The sum is t / (s * d2).  A prime of s divides n2 * s but neither
        # n1 nor d2 // g, so it cannot divide t; likewise for d2 // g.  So
        # the common factor divides g.
        h = math.gcd(t, g)
        if h == 1:
            return (t, s * d2)
        return (t // h, s * (d2 // h))

    def _sub(self, a, b):
        # _add with b negated, written out: see _add for why h divides g
        n1, d1 = a
        n2, d2 = b
        g = math.gcd(d1, d2)
        if g == 1:
            return (n1 * d2 - n2 * d1, d1 * d2)
        s = d1 // g
        t = n1 * (d2 // g) - n2 * s
        h = math.gcd(t, g)
        if h == 1:
            return (t, s * d2)
        return (t // h, s * (d2 // h))

    def _neg(self, a):
        return (-a[0], a[1])

    def _mul(self, a, b):
        n1, d1 = a
        n2, d2 = b
        g1 = math.gcd(n1, d2)
        g2 = math.gcd(n2, d1)
        return ((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))

    def _inv(self, a):
        n, d = a
        return (-d, -n) if n < 0 else (d, n)

    def _ldiv(self, a, b):
        # b / a: _rdiv with the operands swapped, written out
        n1, d1 = b
        n2, d2 = a
        g1 = math.gcd(n1, n2)
        g2 = math.gcd(d1, d2)
        n, d = (n1 // g1) * (d2 // g2), (d1 // g2) * (n2 // g1)
        return (-n, -d) if d < 0 else (n, d)

    def _rdiv(self, a, b):
        # (n1/d1) / (n2/d2) = (n1 * d2) / (d1 * n2), cross-cancelled
        n1, d1 = a
        n2, d2 = b
        g1 = math.gcd(n1, n2)
        g2 = math.gcd(d1, d2)
        n, d = (n1 // g1) * (d2 // g2), (d1 // g2) * (n2 // g1)
        return (-n, -d) if d < 0 else (n, d)

    def _random(self, rng):
        n, d = _random_fraction_terms(rng.getrandbits)
        g = math.gcd(n, d)
        return (n // g, d // g)

    def _format(self, a):
        n, d = a
        return str(n) if d == 1 else f"{n}/{d}"

    def _parse(self, text):
        n, d = _parse_rational(text)
        g = math.gcd(n, d)
        return (n // g, d // g)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.name)


_WHITESPACE_RE = re.compile(r"\s+")
# re.ASCII: \d is [0-9] only, so no other script's digits get through to int().
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$", re.ASCII)


def _parse_rational(text: str) -> tuple[int, int]:
    """The numerator and positive denominator of a rational literal, not reduced."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"invalid rational literal: {text!r}")
    num, den = m.group(1), m.group(2)
    if den is None:
        return int(num), 1
    d = int(den)
    if d == 0:
        raise ValueError(f"zero denominator in literal: {text!r}")
    return int(num), d


def field_by_name(name: str) -> Field:
    """Resolve a field selector: 'rational', 'gf:P' (P prime), or 'quaternion'."""
    if name == "rational":
        return RationalField()
    if name == "quaternion":
        from .quaternion import QuaternionField

        return QuaternionField()
    if name.startswith("gf:"):
        body = name[3:]
        if not (body.isascii() and body.isdigit()):
            raise ValueError(f"invalid GF modulus: {body!r}")
        from .gf import GaloisField

        return GaloisField(int(body))
    raise ValueError(f"unknown field selector: {name!r}")


def __getattr__(name: str):
    """GaloisField and QuaternionField, read off this module by the benchmark only.

    perfbench/tracer.py (FIELD_METHODS) and perfbench's own tests look both
    classes up on crossratio.fields.  Nothing in the package or its tests
    reads them here: import each from its own module.  Once the tracer
    reads them from crossratio.gf and crossratio.quaternion, delete this.
    """
    if name == "GaloisField":
        from .gf import GaloisField

        return GaloisField
    if name == "QuaternionField":
        from .quaternion import QuaternionField

        return QuaternionField
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _same_field(xs) -> Field:
    """The field of xs[0], which every later x in xs must equal (`is`, then `==`)."""
    field = xs[0].field
    for x in xs[1:]:
        if x.field is not field and x.field != field:
            raise FieldMismatchError(f"mixing elements of {field} and {x.field}")
    return field


def _check_elements(xs) -> None:
    """TypeError for a non-Element among xs, then FieldMismatchError through _same_field.

    Callers test the common case, Elements of one field instance, inline and
    call this only off it.
    """
    for x in xs:
        if not isinstance(x, Element):
            raise TypeError(f"expected a field element, got {type(x).__name__}")
    _same_field(xs)


def commutes(x: Element, y: Element) -> bool:
    """Whether x*y == y*x."""
    if not (x.__class__ is y.__class__ is Element and x.field is y.field):
        _check_elements((x, y))
    f = x.field
    return f._mul(x.value, y.value) == f._mul(y.value, x.value)


def conjugate_by(p: Element, q: Element) -> Element:
    """The conjugate q^-1 * p * q; q must be nonzero."""
    if not (p.__class__ is q.__class__ is Element and p.field is q.field):
        _check_elements((q, p))  # q first: a mismatch names q's field first, as in q^-1 * p
    f = q.field
    qv = q.value
    if f._is_zero(qv):
        raise DivisionByZeroError(f"cannot invert zero in {f}")
    return Element(f, f._mul(f._ldiv(qv, p.value), qv))
