"""Ratio and cross-ratio calculus for collinear points over a skew field.

Points of the line are identified with elements of the field.  The 2-point
ratio is r(A:B) = B^-1 * A, the 3-point ratio is r(A,B;C) = (B-C)^-1 (A-C),
and the cross-ratio of four points is the product

    c_r(A,B;C,D) = [(A-D)^-1 (B-D)] * [(B-C)^-1 (A-C)],

kept in exactly this factor order: in a noncommutative field any other
arrangement is a different point.  The codomain is the line extended by a
single point at infinity, written ``inf``, which absorbs the 0^-1 cases
arising when two of the four arguments coincide.
"""

from __future__ import annotations

from .fields import DivisionByZeroError, Element, Field, FieldMismatchError


class CrossRatioArgumentError(ValueError):
    """Argument tuple outside the cross-ratio's domain."""


class InvalidRatioPointError(ValueError):
    """A ratio value of 0 or 1 admits no nondegenerate fourth point."""


class InfiniteSolutionError(ValueError):
    """The unique fourth point exists only at infinity."""


class ExtendedPoint:
    """A field element or the point at infinity, tagged with its field."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: Element | None):
        self.field = field
        self.value = value  # None encodes infinity

    @classmethod
    def finite(cls, x: Element) -> "ExtendedPoint":
        return cls(x.field, x)

    @classmethod
    def infinity(cls, field: Field) -> "ExtendedPoint":
        return cls(field, None)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __neg__(self) -> "ExtendedPoint":
        if self.is_infinity:
            return self
        return ExtendedPoint.finite(-self.value)

    def __eq__(self, other):
        if isinstance(other, ExtendedPoint):
            same_field = self.field is other.field or self.field == other.field
            return same_field and self.value == other.value
        if isinstance(other, Element):
            return not self.is_infinity and self.value == other
        return NotImplemented

    def __hash__(self):
        # A finite point equals its element, so it must hash like it.
        return hash((self.field, None)) if self.is_infinity else hash(self.value)

    def __str__(self):
        return "inf" if self.is_infinity else str(self.value)

    def __repr__(self):
        return f"<{self.field}: {self}>"


def _finite_value(x: Element | ExtendedPoint) -> Element | None:
    """The element x stands for, or None for the point at infinity."""
    if isinstance(x, Element):
        return x
    if isinstance(x, ExtendedPoint):
        return x.value
    raise TypeError(f"expected an element or extended point, got {type(x).__name__}")


def _same_field(points: tuple[Element | ExtendedPoint, ...]) -> Field:
    field = points[0].field
    for p in points[1:]:
        if p.field is not field and p.field != field:
            raise FieldMismatchError(f"mixing elements of {field} and {p.field}")
    return field


def ratio2(a: Element, b: Element) -> Element:
    """2-point ratio r(A:B) = B^-1 * A; requires B != 0."""
    if b.is_zero:
        raise DivisionByZeroError("ratio of two points needs a nonzero second point")
    return b.inv() * a


def ratio3(a: Element, b: Element, c: Element) -> Element:
    """3-point ratio r(A,B;C) = (B-C)^-1 (A-C); requires B != C."""
    if b == c:
        raise DivisionByZeroError("ratio of three points needs B != C")
    return (b - c).inv() * (a - c)


def cross_ratio(
    a: Element | ExtendedPoint,
    b: Element | ExtendedPoint,
    c: Element | ExtendedPoint,
    d: Element | ExtendedPoint,
) -> ExtendedPoint:
    """Cross-ratio c_r(A,B;C,D) of four collinear points, at most one infinite.

    Every case is decided by the six coincidences ab, ac, ad, bc, bd, cd
    (ab means A = B; the point at infinity equals no argument), in order:
    two infinite arguments, or three coincident ones (ab and (bc or bd), or
    cd and (ac or bc)), are rejected; a single infinite argument selects its
    reduced formula, which is inf when the inverted difference vanishes (bc
    for an infinite A or D, ad for an infinite B or C); otherwise ab or cd
    gives 1, then ac or bd gives 0, then ad or bc gives inf, and only four
    distinct finite points reach the defining product.
    """
    ea, eb, ec, ed = map(_finite_value, (a, b, c, d))  # None is infinity
    field = _same_field((a, b, c, d))
    if (ea is None) + (eb is None) + (ec is None) + (ed is None) > 1:
        raise CrossRatioArgumentError("at most one cross-ratio argument may be infinite")
    # An element never equals None, so a pair with the infinite point is False.
    ab, ac, ad, bc, bd, cd = ea == eb, ea == ec, ea == ed, eb == ec, eb == ed, ec == ed
    if (ab and (bc or bd)) or (cd and (ac or bc)):
        raise CrossRatioArgumentError("no three cross-ratio arguments may coincide")

    if ea is None:  # c_r(inf,B;C,D) = (B-D)(B-C)^-1
        num, den = eb - ed, eb - ec
        return ExtendedPoint.infinity(field) if bc else ExtendedPoint.finite(num * den.inv())
    if eb is None:  # c_r(A,inf;C,D) = (A-D)^-1(A-C)
        den, num, vanishes = ea - ed, ea - ec, ad
    elif ec is None:  # c_r(A,B;inf,D) = (A-D)^-1(B-D)
        den, num, vanishes = ea - ed, eb - ed, ad
    elif ed is None:  # c_r(A,B;C,inf) = (B-C)^-1(A-C)
        den, num, vanishes = eb - ec, ea - ec, bc
    elif ab or cd:
        return ExtendedPoint.finite(field.one)
    elif ac or bd:
        return ExtendedPoint.finite(field.zero)
    elif ad or bc:
        return ExtendedPoint.infinity(field)
    else:
        return ExtendedPoint.finite(((ea - ed).inv() * (eb - ed)) * ((eb - ec).inv() * (ea - ec)))
    # 0^-1 = inf convention
    return ExtendedPoint.infinity(field) if vanishes else ExtendedPoint.finite(den.inv() * num)


def cross_ratio_alt(a: Element, b: Element, c: Element, d: Element) -> Element:
    """Inverse-difference form of the cross-ratio, for distinct finite points.

    Evaluates [(A-B)^-1 - (A-D)^-1] * [(A-B)^-1 - (A-C)^-1]^-1, which agrees
    with cross_ratio on every tuple of four pairwise distinct points.
    """
    if len({a, b, c, d}) != 4:
        raise CrossRatioArgumentError("inverse-difference form needs four distinct points")
    ab = (a - b).inv()
    return (ab - (a - d).inv()) * (ab - (a - c).inv()).inv()


def solve_fourth_point(r: Element, a: Element, b: Element, c: Element) -> Element:
    """The unique finite D with cross_ratio(A,B;C,D) = R.

    Requires R outside {0, 1} and A, B, C pairwise distinct.  Writing
    S = R * r(A,B;C)^-1, the defining relation r(B,A;D) = S unwinds to
    D = (A*S - B) * (S - 1)^-1; S = 1 means the solution escaped to
    infinity and raises InfiniteSolutionError.
    """
    if r.is_zero or r == r.field.one:
        raise InvalidRatioPointError("the target ratio value must differ from 0 and 1")
    if len({a, b, c}) != 3:
        raise CrossRatioArgumentError("the three given points must be pairwise distinct")
    s = r * ratio3(a, b, c).inv()
    if s == s.field.one:
        raise InfiniteSolutionError("the fourth point for this value lies at infinity")
    return (a * s - b) * (s - s.field.one).inv()
