"""Ratio and cross-ratio calculus for collinear points over a skew field.

Points of the line are identified with elements of the field.  The 2-point
ratio is r(A:B) = B^-1 * A, the 3-point ratio is r(A,B;C) = (B-C)^-1 (A-C),
and the cross-ratio of four points is the product

    c_r(A,B;C,D) = [(A-D)^-1 (B-D)] * [(B-C)^-1 (A-C)],

kept in exactly this factor order: in a noncommutative field any other
arrangement is a different point.  The codomain is the line extended by a
single point at infinity, written ``inf``, which absorbs the 0^-1 cases
arising when two of the four arguments coincide.

ratio2, ratio3, cross_ratio, cross_ratio_alt and solve_fourth_point compute
on the field payloads, through the field's own _sub and _mul, and divide in
one step through its _ldiv (x^-1 * y) and _rdiv (x * y^-1); only the inverse
terms of cross_ratio_alt call _inv.  Each wraps only the value it returns in
an Element or ExtendedPoint, and checks its arguments once, before it looks
at their values: a non-Element (for cross_ratio, neither an Element nor an
ExtendedPoint) raises TypeError, and then unequal fields raise
FieldMismatchError.  So a call that mixes fields raises FieldMismatchError
even where its values alone would raise DivisionByZeroError or a domain
error.  Every coincidence and zero test is then decided on payloads, which
is exact because equal elements of a field have equal payloads, and every
divisor, like every value given to _inv, is one its branch has proven
nonzero.
"""

from __future__ import annotations

from .fields import (
    DivisionByZeroError, Element, Field, PreconditionError, _check_elements, _same_field
)


class CrossRatioArgumentError(PreconditionError):
    """Argument tuple outside the cross-ratio's domain."""


class InvalidRatioPointError(PreconditionError):
    """A ratio value of 0 or 1 admits no nondegenerate fourth point."""


class InfiniteSolutionError(PreconditionError):
    """The unique fourth point exists only at infinity."""

    exit_code = 4


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


def _payload(x: Element | ExtendedPoint):
    """The payload of the element x stands for, or None for the point at infinity."""
    if isinstance(x, Element):
        return x.value
    if isinstance(x, ExtendedPoint):
        return None if x.value is None else x.value.value
    raise TypeError(f"expected an element or extended point, got {type(x).__name__}")


def ratio2(a: Element, b: Element) -> Element:
    """2-point ratio r(A:B) = B^-1 * A; requires B != 0."""
    if not (a.__class__ is b.__class__ is Element and a.field is b.field):
        _check_elements((b, a))  # B first: a mismatch names B's field first, as in B^-1 * A
    f = b.field
    pb = b.value
    if f._is_zero(pb):
        raise DivisionByZeroError("ratio of two points needs a nonzero second point")
    return Element(f, f._ldiv(pb, a.value))


def ratio3(a: Element, b: Element, c: Element) -> Element:
    """3-point ratio r(A,B;C) = (B-C)^-1 (A-C); requires B != C."""
    if not (a.__class__ is b.__class__ is c.__class__ is Element and a.field is b.field is c.field):
        _check_elements((a, b, c))
    f = a.field
    pb, pc = b.value, c.value
    if pb == pc:
        raise DivisionByZeroError("ratio of three points needs B != C")
    # B - C is nonzero: the test above took B == C
    return Element(f, f._ldiv(f._sub(pb, pc), f._sub(a.value, pc)))


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
    pa, pb, pc, pd = _payload(a), _payload(b), _payload(c), _payload(d)  # None is infinity
    f = a.field
    if b.field is not f or c.field is not f or d.field is not f:
        f = _same_field((a, b, c, d))
    if (pa is None) + (pb is None) + (pc is None) + (pd is None) > 1:
        raise CrossRatioArgumentError("at most one cross-ratio argument may be infinite")
    # No payload equals None, so a pair with the infinite point is False.
    ab, ac, ad, bc, bd, cd = pa == pb, pa == pc, pa == pd, pb == pc, pb == pd, pc == pd
    if (ab and (bc or bd)) or (cd and (ac or bc)):
        raise CrossRatioArgumentError("no three cross-ratio arguments may coincide")

    sub, ldiv = f._sub, f._ldiv
    if pa is None:  # c_r(inf,B;C,D) = (B-D)(B-C)^-1
        if bc:
            return ExtendedPoint(f, None)
        # B - C is nonzero: bc is False
        return ExtendedPoint(f, Element(f, f._rdiv(sub(pb, pd), sub(pb, pc))))
    if pb is None:  # c_r(A,inf;C,D) = (A-D)^-1(A-C)
        vanishes, den, num = ad, (pa, pd), (pa, pc)
    elif pc is None:  # c_r(A,B;inf,D) = (A-D)^-1(B-D)
        vanishes, den, num = ad, (pa, pd), (pb, pd)
    elif pd is None:  # c_r(A,B;C,inf) = (B-C)^-1(A-C)
        vanishes, den, num = bc, (pb, pc), (pa, pc)
    elif ab or cd:
        return ExtendedPoint(f, f.one)
    elif ac or bd:
        return ExtendedPoint(f, f.zero)
    elif ad or bc:
        return ExtendedPoint(f, None)
    else:
        # A - D and B - C are nonzero: ad and bc are both False
        left = ldiv(sub(pa, pd), sub(pb, pd))
        return ExtendedPoint(f, Element(f, f._mul(left, ldiv(sub(pb, pc), sub(pa, pc)))))
    if vanishes:  # 0^-1 = inf convention
        return ExtendedPoint(f, None)
    # the divisor is nonzero: vanishes is False
    return ExtendedPoint(f, Element(f, ldiv(sub(*den), sub(*num))))


def cross_ratio_alt(a: Element, b: Element, c: Element, d: Element) -> Element:
    """Inverse-difference form of the cross-ratio, for distinct finite points.

    Evaluates [(A-B)^-1 - (A-D)^-1] * [(A-B)^-1 - (A-C)^-1]^-1, which agrees
    with cross_ratio on every tuple of four pairwise distinct points.
    """
    if not (
        a.__class__ is b.__class__ is c.__class__ is d.__class__ is Element
        and a.field is b.field is c.field is d.field
    ):
        _check_elements((a, b, c, d))
    f = a.field
    pa, pb, pc, pd = a.value, b.value, c.value, d.value
    if len({pa, pb, pc, pd}) != 4:
        raise CrossRatioArgumentError("inverse-difference form needs four distinct points")
    sub, inv = f._sub, f._inv
    # Every inverted value and the divisor are nonzero: A - B, A - C and A - D
    # since the points are distinct, and (A-B)^-1 - (A-C)^-1 since it vanishes
    # only if B = C.
    ab = inv(sub(pa, pb))
    return Element(f, f._rdiv(sub(ab, inv(sub(pa, pd))), sub(ab, inv(sub(pa, pc)))))


def solve_fourth_point(r: Element, a: Element, b: Element, c: Element) -> Element:
    """The unique finite D with cross_ratio(A,B;C,D) = R.

    Requires R outside {0, 1} and A, B, C pairwise distinct.  Writing
    S = R * r(A,B;C)^-1, the defining relation r(B,A;D) = S unwinds to
    D = (A*S - B) * (S - 1)^-1; S = 1 means the solution escaped to
    infinity and raises InfiniteSolutionError.
    """
    if not (
        r.__class__ is a.__class__ is b.__class__ is c.__class__ is Element
        and r.field is a.field is b.field is c.field
    ):
        _check_elements((r, a, b, c))
    f = r.field
    one = f._coerce(1)
    pr = r.value
    if f._is_zero(pr) or pr == one:
        raise InvalidRatioPointError("the target ratio value must differ from 0 and 1")
    if len({a.value, b.value, c.value}) != 3:
        raise CrossRatioArgumentError("the three given points must be pairwise distinct")
    # r(A,B;C) = (B-C)^-1 (A-C) is nonzero, since A != C
    s = f._rdiv(pr, ratio3(a, b, c).value)
    if s == one:
        raise InfiniteSolutionError("the fourth point for this value lies at infinity")
    # S - 1 is nonzero: the test above took S == 1
    return Element(f, f._rdiv(f._sub(f._mul(a.value, s), b.value), f._sub(s, one)))
