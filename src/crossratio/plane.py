"""Incidence geometry of the coordinatized affine plane over a skew field.

The plane is K^2 for a skew field K.  Lines are vertical, {(c, y)}, or
sloped, {(x, x*m + b)}, with the slope multiplying x on the RIGHT; over a
noncommutative field the two possible conventions give different
coordinatizations, and every formula here is tied to this one.  A Chart
fixes an axis line with base points O (zero) and I (one); it builds the
axis once and maps coordinates to axis points and back.  On a chart, the
classical ruler constructions add and multiply axis points using only
parallels and intersections, and the results agree with the field
arithmetic of the coordinates.  construct_sum_and_product builds both on
one auxiliary point, checking the operands and drawing the lines O-aux and
B-aux once.  The module also ships a checker and a seeded generator for
Desargues configurations (two triangles in parallel or central perspective
with two pairs of parallel sides).  check_desargues is the one checker: it
draws nine lines once, raises on the first violated hypothesis clause and
returns whether the conclusion AC parallel to A'C' holds.  The generator
returns each configuration with that verdict, as (cfg, holds).  With the
auxiliary point off the axis, every intersection a construction asks for
exists.  Construction traces and DesarguesConfigs are named tuples.

A PlaneLine stores its slope, the point it was drawn through (its base
point) and the direction payloads (u, v) it was drawn along, with v =
u*slope.  line_through(p, q) stores p and q - p, and parallel_through
copies the slope and direction of its line and stores its own point, with
no field arithmetic.  contains tests y - y0 = (x - x0)*m against the base
point (x0, y0), and intersect solves on the difference of the two base
points, so neither reads an intercept.  The intercept b = y0 - x0*m is
derived the first time str, ==, hash or the SVG renderer asks for it, and
then cached, so printed lines, line equality and hashes are those of the
equation y = x*m + b.  A Chart reads the axis direction, I - O, for
point_at and coordinate.

The primitives that every construction and check runs through
(line_through, parallel_through, intersect, PlaneLine.contains,
Chart.point_at and Chart.coordinate) compute on the field payloads, through
the field's own _add, _sub and _mul, and divide in one step through its
_ldiv (a slope u^-1 v) or _rdiv (a meet or a coordinate),
called only on a divisor the branch has proven nonzero.  They wrap only the
values they return in Elements.  So each one checks its arguments' fields
itself, before it looks at the line's kind: a call that mixes unequal fields
raises FieldMismatchError, on a vertical line as on a sloped one.
PlaneLine.sloped(m, b) raises it too when m and b come from unequal fields.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .fields import Element, Field, FieldMismatchError, PreconditionError, _check_elements


class IdenticalPointsError(PreconditionError):
    """Two points required to be distinct coincide."""


class IdenticalLinesError(PreconditionError):
    """Two lines required to be distinct coincide."""


class NotOnLineError(PreconditionError):
    """A point required to lie on a line does not."""


class AuxiliaryPointError(PreconditionError):
    """The construction's auxiliary point lies on the axis."""


class DegenerateConfigurationError(PreconditionError):
    """A configuration or figure the plane cannot build or draw."""


class HypothesisViolationError(DegenerateConfigurationError):
    """A Desargues configuration violates a named hypothesis clause."""


class GenerationFailureError(RuntimeError):
    """The configuration generator exhausted its retry budget."""


class PlanePoint:
    """A point of K^2; both coordinates must come from the same field."""

    __slots__ = ("x", "y")

    def __init__(self, x: Element, y: Element):
        if x.field is not y.field and x.field != y.field:
            raise FieldMismatchError("point coordinates must share a field")
        self.x = x
        self.y = y

    @property
    def field(self) -> Field:
        return self.x.field

    def __str__(self):
        return f"{self.x},{self.y}"

    def __eq__(self, other):
        if other.__class__ is not PlanePoint:
            return NotImplemented
        # A tuple compares identical coordinates without calling Element.__eq__
        return (self.x, self.y) == (other.x, other.y)

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"PlanePoint({self.x}, {self.y})"


def point(field: Field, x, y) -> PlanePoint:
    """Build a PlanePoint coercing raw coordinate values into the field."""
    return PlanePoint(field.element(x), field.element(y))


def _shift(p: PlanePoint, dx: Element, dy: Element) -> PlanePoint:
    return PlanePoint(p.x + dx, p.y + dy)


class PlaneLine:
    """A line of the plane: x = intercept, or y = x*slope + intercept.

    A line stores its slope (None for a vertical line), the point it was
    drawn through (its base point) and the direction payloads (u, v) it was
    drawn along, with v = u*slope, so the line is {base + t*(u, v)}.
    line_through(p, q) stores p and q - p; parallel_through copies the
    slope and direction and stores its own point.  The intercept, y0 -
    x0*slope from the base point (x0, y0), or x0 for a vertical line, is
    derived the first time str, ==, hash or the SVG renderer reads it, and
    then cached; two lines with equal slope and intercept are one line.
    """

    __slots__ = ("slope", "base", "u", "v", "_intercept")

    def __init__(self, slope: Element | None, base: PlanePoint, u, v):
        self.slope = slope  # None encodes a vertical line
        self.base = base
        self.u = u
        self.v = v

    @classmethod
    def vertical(cls, c: Element) -> "PlaneLine":
        """The line x = c, drawn through (c, 0) along (0, 1)."""
        f = c.field
        return cls(None, PlanePoint(c, f.zero), f._coerce(0), f._coerce(1))

    @classmethod
    def sloped(cls, m: Element, b: Element) -> "PlaneLine":
        """The line y = x*m + b, drawn through (0, b) along (1, m)."""
        f = b.field
        if m.field is not f and m.field != f:
            raise FieldMismatchError(f"no line with a slope over {m.field} and an intercept over {f}")
        return cls(m, PlanePoint(f.zero, b), f._coerce(1), m.value)

    @property
    def is_vertical(self) -> bool:
        return self.slope is None

    @property
    def intercept(self) -> Element:
        """x0 of a vertical line, else y0 - x0*slope; derived once from the base point."""
        try:
            return self._intercept
        except AttributeError:
            pass
        x0, y0 = self.base.x, self.base.y
        if self.slope is None:
            b = x0
        else:
            f = x0.field
            b = Element(f, f._sub(y0.value, f._mul(x0.value, self.slope.value)))
        self._intercept = b
        return b

    def contains(self, p: PlanePoint) -> bool:
        x0, y0 = self.base.x, self.base.y
        f = x0.field
        if p.x.field is not f and p.x.field != f:
            raise FieldMismatchError(f"point over {p.x.field} tested against a line over {f}")
        if self.slope is None:
            return p.x.value == x0.value
        # y - y0 = (x - x0)*m
        return f._sub(p.y.value, y0.value) == f._mul(f._sub(p.x.value, x0.value), self.slope.value)

    def __eq__(self, other):
        if not isinstance(other, PlaneLine):
            return NotImplemented
        return self.slope == other.slope and self.intercept == other.intercept

    def __hash__(self):
        return hash((self.slope, self.intercept))

    def __str__(self):
        if self.is_vertical:
            return f"x = {self.intercept}"
        return f"y = x*({self.slope}) + ({self.intercept})"

    def __repr__(self):
        return f"PlaneLine<{self}>"


def line_through(p: PlanePoint, q: PlanePoint) -> PlaneLine:
    """The unique line incident with two distinct points."""
    f = p.x.field
    if q.x.field is not f and q.x.field != f:
        raise FieldMismatchError(f"no line through points over {f} and {q.x.field}")
    px, py, qx, qy = p.x.value, p.y.value, q.x.value, q.y.value
    if px == qx and py == qy:
        raise IdenticalPointsError("no unique line through a repeated point")
    u, v = f._sub(qx, px), f._sub(qy, py)
    if px == qx:
        return PlaneLine(None, p, u, v)
    # u is nonzero: the branch above took every p.x == q.x
    return PlaneLine(Element(f, f._ldiv(u, v)), p, u, v)


def parallel_through(l: PlaneLine, p: PlanePoint) -> PlaneLine:
    """The unique line through p with the same direction as l."""
    f = p.x.field
    g = l.base.x.field
    if g is not f and g != f:
        raise FieldMismatchError(f"no parallel to a line over {g} through a point over {f}")
    return PlaneLine(l.slope, p, l.u, l.v)


def parallel(l1: PlaneLine, l2: PlaneLine) -> bool:
    """Whether two lines have the same direction (equal lines included)."""
    return l1.slope == l2.slope


def intersect(l1: PlaneLine, l2: PlaneLine) -> PlanePoint | None:
    """The common point of two distinct lines, or None when parallel."""
    p, q = l1.base, l2.base
    f = p.x.field
    if q.x.field is not f and q.x.field != f:
        raise FieldMismatchError(f"no intersection of lines over {f} and {q.x.field}")
    m1, m2 = l1.slope, l2.slope
    if m1 == m2:
        # parallel lines are one line when one holds the other's base point
        if l1.contains(q):
            raise IdenticalLinesError("intersection of a line with itself is the line")
        return None
    if m1 is None or m2 is None:
        # the branch above took the pair of vertical lines
        x, sloped = (p.x, l2) if m1 is None else (q.x, l1)
        s = sloped.base
        y = f._add(s.y.value, f._mul(f._sub(x.value, s.x.value), sloped.slope.value))
        return PlanePoint(x, Element(f, y))
    # P + t*(u1, v1) lies on y - Qy = (x - Qx)*m2 when, with w = P - Q,
    # t*(v1 - u1*m2) = wx*m2 - wy.  v1 - u1*m2 = u1*(m1 - m2) is nonzero:
    # the first branch took every pair of equal slopes.  Moving along the
    # direction keeps the quotient m1 = u1^-1 v1 out of the products.
    m2 = m2.value
    u, v = l1.u, l1.v
    px, py = p.x.value, p.y.value
    wx, wy = f._sub(px, q.x.value), f._sub(py, q.y.value)
    t = f._rdiv(f._sub(f._mul(wx, m2), wy), f._sub(v, f._mul(u, m2)))
    return PlanePoint(Element(f, f._add(px, f._mul(t, u))), Element(f, f._add(py, f._mul(t, v))))


class Chart:
    """A coordinate chart: the axis through O and I, with O at 0 and I at 1.

    The axis is built once, when the chart is; that is also the check that
    the base points differ (IdenticalPointsError).  A point of the axis has
    coordinate t when it is O + t*(I - O), with t on the LEFT; I - O is the
    axis's direction (u, v).
    """

    __slots__ = ("o", "i", "axis")

    def __init__(self, o: PlanePoint, i: PlanePoint):
        self.o = o
        self.i = i
        self.axis = line_through(o, i)

    def point_at(self, t: Element) -> PlanePoint:
        """The axis point with coordinate t."""
        o, axis = self.o, self.axis
        f = o.x.field
        if t.__class__ is not Element or t.field is not f:
            _check_elements((o.x, t))  # the TypeError or FieldMismatchError of Element's operators
        t = t.value
        return PlanePoint(
            Element(f, f._add(o.x.value, f._mul(t, axis.u))),
            Element(f, f._add(o.y.value, f._mul(t, axis.v))),
        )

    def coordinate(self, p: PlanePoint) -> Element:
        """The coordinate of an axis point p."""
        o, axis = self.o, self.axis
        if not axis.contains(p):  # also the field check
            raise NotOnLineError(f"{p} is not on the axis through {o} and {self.i}")
        f = o.x.field
        if axis.is_vertical:
            along, base, unit = p.y.value, o.y.value, axis.v
        else:
            along, base, unit = p.x.value, o.x.value, axis.u
        # unit is nonzero: O != I, and the axis is vertical exactly when
        # their x agree, so they differ in the coordinate read here
        return Element(f, f._rdiv(f._sub(along, base), unit))


class Construction(namedtuple("Construction", "kind points lines result")):
    """A ruler construction trace: kind, labeled points, labeled lines, result."""

    __slots__ = ()


def _ruler(chart: Chart, a, b, aux, kinds: tuple[str, ...]) -> tuple[Construction, ...]:
    """The sum ("add") and/or product ("mul") constructions on one chart.

    The operands are checked against the axis once, before any line is
    drawn, and the lines O-B1 and B-B1 are drawn once for every kind: a
    trace of each kind holds the same two line objects.  P1 is where the
    parallel to the guide line through A meets the target line; the two
    constructions differ only in those two lines.
    """
    axis = chart.axis
    if not axis.contains(a):
        raise NotOnLineError("operand A must lie on the axis")
    if not axis.contains(b):
        raise NotOnLineError("operand B must lie on the axis")
    if axis.contains(aux):
        raise AuxiliaryPointError("the auxiliary point must not lie on the axis")
    o_aux = ("O-B1", line_through(chart.o, aux))
    transfer = line_through(b, aux)
    built = []
    for kind in kinds:
        if kind == "add":
            guide, target = o_aux, ("axis parallel through B1", parallel_through(axis, aux))
        else:
            guide, target = ("I-B1", line_through(chart.i, aux)), o_aux
        guide_label, guide_line = guide
        through_a = parallel_through(guide_line, a)
        # no meet is parallel: aux is off the axis, so O-aux, I-aux, B-aux cross it, O-aux != I-aux
        p1 = intersect(through_a, target[1])
        through_p1 = parallel_through(transfer, p1)
        c = intersect(through_p1, axis)
        built.append(
            Construction(
                kind=kind,
                points={"O": chart.o, "I": chart.i, "A": a, "B": b, "B1": aux, "P1": p1, "C": c},
                lines=[
                    ("axis", axis),
                    guide,
                    target,
                    (f"{guide_label} parallel through A", through_a),
                    ("B-B1", transfer),
                    ("B-B1 parallel through P1", through_p1),
                ],
                result=c,
            )
        )
    return tuple(built)


def construct_sum(chart: Chart, a, b, aux) -> Construction:
    """Ruler construction of the axis point with coordinate coord(a)+coord(b).

    Steps: P1 is the intersection of the axis-parallel through the auxiliary
    point with the parallel to line O-aux through A; the result C is where
    the parallel to line B-aux through P1 meets the axis again.
    """
    return _ruler(chart, a, b, aux, ("add",))[0]


def construct_product(chart: Chart, a, b, aux) -> Construction:
    """Ruler construction of the axis point with coordinate coord(a)*coord(b).

    Steps: P1 is the intersection of the parallel to line I-aux through A
    with line O-aux; the result C is where the parallel to line B-aux
    through P1 meets the axis.
    """
    return _ruler(chart, a, b, aux, ("mul",))[0]


def construct_sum_and_product(chart: Chart, a, b, aux) -> tuple[Construction, Construction]:
    """Both ruler constructions on one auxiliary point, as (sum, product).

    Each trace equals what construct_sum and construct_product return, but
    the operands are checked once and the lines O-B1 and B-B1 are drawn
    once, so both traces hold the same two line objects.
    """
    return _ruler(chart, a, b, aux, ("add", "mul"))


def default_aux(chart: Chart) -> PlanePoint:
    """A deterministic auxiliary point off the chart's axis: O + (0, 1), or O + (1, 0)."""
    o = chart.o
    field = o.field
    # O + (0, 1) is on the axis exactly when the axis is vertical
    if chart.axis.is_vertical:
        return _shift(o, field.one, field.zero)
    return _shift(o, field.zero, field.one)


class DesarguesConfig(
    namedtuple("DesarguesConfig", "a b c a_prime b_prime c_prime center", defaults=(None,))
):
    """Two triangles in parallel or central perspective.

    center is None for the parallel (translation-like) form and the common
    point of the three vertex-joining lines for the central form.
    """

    __slots__ = ()

    def canonical(self) -> str:
        parts = [
            f"A={self.a}", f"B={self.b}", f"C={self.c}",
            f"A'={self.a_prime}", f"B'={self.b_prime}", f"C'={self.c_prime}",
        ]
        parts.append("mode=parallel" if self.center is None else f"center={self.center}")
        return " ".join(parts)


def check_desargues(cfg: DesarguesConfig) -> bool:
    """Whether AC is parallel to A'C', once every hypothesis clause holds.

    The clauses are checked in order and the first violated one raises
    HypothesisViolationError.  Each of the nine lines is drawn once; the
    conclusion reads AC and A'C' from the "five distinct lines" clause.
    """

    def fail(clause: str):
        raise HypothesisViolationError(f"hypothesis violated: {clause}")

    a, b, c, a2, b2, c2, center = cfg
    if len({a, b, c}) != 3:
        fail("vertices A, B, C must be pairwise distinct")
    if len({a2, b2, c2}) != 3:
        fail("vertices A', B', C' must be pairwise distinct")
    if a == a2 or b == b2 or c == c2:
        fail("corresponding vertices must be distinct (A!=A', B!=B', C!=C')")

    join_a, join_b, join_c = line_through(a, a2), line_through(b, b2), line_through(c, c2)
    side_ac, side_ac2 = line_through(a, c), line_through(a2, c2)
    five = [join_a, join_b, join_c, side_ac, side_ac2]
    if len(set(five)) != 5:
        fail("the lines AA', BB', CC', AC, A'C' must be pairwise distinct")

    if center is None:
        if not (parallel(join_a, join_b) and parallel(join_b, join_c)):
            fail("the lines AA', BB', CC' must be mutually parallel")
    else:
        for join in (join_a, join_b, join_c):
            if not join.contains(center):
                fail("the lines AA', BB', CC' must pass through the center")

    # no distinctness clause: AB = A'B' makes AA' = BB', failing the five-lines clause; BC alike
    if not parallel(line_through(a, b), line_through(a2, b2)):
        fail("sides AB and A'B' must be parallel")
    if not parallel(line_through(b, c), line_through(b2, c2)):
        fail("sides BC and B'C' must be parallel")
    return parallel(side_ac, side_ac2)


def random_point(field: Field, rng: random.Random) -> PlanePoint:
    return PlanePoint(field.random_element(rng), field.random_element(rng))


def _draw_config(field: Field, rng: random.Random, mode: str) -> DesarguesConfig:
    # A rejected draw raises PreconditionError, its own or a library call's.
    # No intersect below returns None: its two lines are parallel only when
    # they are one line (in parallel mode, L(a2 || AB) || L(b || AA') forces
    # AA' = AB, so both lines are AB), and then it raises IdenticalLinesError,
    # as line_through(a, b) raises IdenticalPointsError when a == b.
    a, b, c = (random_point(field, rng) for _ in range(3))
    side_ab = line_through(a, b)
    if side_ab.contains(c):
        raise DegenerateConfigurationError("A, B, C must not be collinear")
    side_bc = line_through(b, c)
    if mode == "parallel":
        dx, dy = field.random_element(rng), field.random_element(rng)
        if dx.is_zero and dy.is_zero:
            raise DegenerateConfigurationError("the translation must be nonzero")
        a2 = _shift(a, dx, dy)
        join = line_through(a, a2)
        b2 = intersect(parallel_through(side_ab, a2), parallel_through(join, b))
        c2 = intersect(parallel_through(side_bc, b2), parallel_through(join, c))
        return DesarguesConfig(a, b, c, a2, b2, c2, center=None)
    p = random_point(field, rng)
    alpha = field.random_element(rng)
    if alpha.is_zero or alpha == field.one or p in (a, b, c):
        raise DegenerateConfigurationError("the dilation must be proper and centered off A, B, C")
    a2 = PlanePoint(p.x + alpha * (a.x - p.x), p.y + alpha * (a.y - p.y))
    b2 = intersect(parallel_through(side_ab, a2), line_through(p, b))
    c2 = intersect(parallel_through(side_bc, b2), line_through(p, c))
    return DesarguesConfig(a, b, c, a2, b2, c2, center=p)


GENERATION_RETRIES = 100


def generate_desargues_config(
    field: Field, seed: int | str, mode: str = "parallel"
) -> tuple[DesarguesConfig, bool]:
    """Seeded random configuration satisfying every hypothesis clause.

    Returns (cfg, holds), where holds is check_desargues(cfg), the verdict of
    the check that accepted cfg.  Rejection-samples up to GENERATION_RETRIES
    times, redrawing on any PreconditionError, as verify's draws do; the
    stream depends only on (field name, mode, seed).
    """
    if mode not in ("parallel", "concurrent"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(f"desargues:{field}:{mode}:{seed}")
    for _ in range(GENERATION_RETRIES):
        try:
            cfg = _draw_config(field, rng, mode)
            return cfg, check_desargues(cfg)
        except PreconditionError:
            pass
    raise GenerationFailureError(
        f"no valid {mode} configuration over {field} after {GENERATION_RETRIES} draws"
    )
