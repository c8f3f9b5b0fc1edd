"""Affine incidence over K^2: lines, charts, ruler constructions, Desargues.

Lines are {(x, x*m + b)} with the slope multiplied on the right of x, so
every solve below uses one-sided inverses that stay valid over quaternions.
"""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import GF7, GF101, QUATERNION, RATIONAL, element_strategy, field_and_elements
from crossratio import plane
from crossratio.plane import (
    AuxiliaryPointError,
    Chart,
    DesarguesConfig,
    GenerationFailureError,
    HypothesisViolationError,
    IdenticalLinesError,
    IdenticalPointsError,
    NotOnLineError,
    PlaneLine,
    PlanePoint,
    check_desargues,
    construct_product,
    construct_sum,
    construct_sum_and_product,
    default_aux,
    generate_desargues_config,
    intersect,
    line_through,
    parallel,
    parallel_through,
    point,
)
from crossratio.fields import FieldMismatchError
from crossratio.gf import GaloisField
from test_conformance import I_Q, J_Q, ROWS


def rp(x, y):
    return point(RATIONAL, x, y)


# ---------------------------------------------------------------- value semantics


def test_plane_point_is_a_value():
    p, q = rp(1, 2), rp(1, 2)
    assert p is not q and p == q and not p != q
    assert hash(p) == hash((p.x, p.y)) == hash(q)
    assert p != rp(2, 1) and len({p, q, rp(2, 1)}) == 2
    assert (p == (p.x, p.y)) is False  # not a tuple
    with pytest.raises(FieldMismatchError, match="^point coordinates must share a field$"):
        PlanePoint(RATIONAL.one, GF7.one)


def test_construction_traces_compare_by_value():
    chart = Chart(rp(0, 0), rp(1, 0))
    a, b, aux = rp(2, 0), rp(3, 0), rp(0, 1)
    first, second = construct_sum(chart, a, b, aux), construct_sum(chart, a, b, aux)
    assert first is not second and first == second and not first != second
    assert first != construct_product(chart, a, b, aux)
    assert first != construct_sum(chart, a, b, rp(1, 1))


# ---------------------------------------------------------------- lines


def test_line_through_examples():
    assert line_through(rp(0, 0), rp(0, 5)) == PlaneLine.vertical(RATIONAL.zero)
    axis = line_through(rp(0, 0), rp(1, 0))
    assert axis == PlaneLine.sloped(RATIONAL.zero, RATIONAL.zero)
    steep = line_through(rp(1, 1), rp(3, 5))
    assert steep == PlaneLine.sloped(RATIONAL.element(2), RATIONAL.element(-1))
    with pytest.raises(IdenticalPointsError):
        line_through(rp(1, 1), rp(1, 1))


def test_sloped_line_needs_one_field():
    # a GF(7) slope with a GF(11) intercept was once built, and held (2, 2) over GF(11)
    gf7, gf11 = GaloisField(7), GaloisField(11)
    with pytest.raises(
        FieldMismatchError, match=r"^no line with a slope over gf:7 and an intercept over gf:11$"
    ):
        PlaneLine.sloped(gf7.element(5), gf11.element(3))
    # equal fields that are distinct instances still make a line
    line = PlaneLine.sloped(gf7.element(5), GaloisField(7).element(3))
    assert line.contains(point(gf7, 1, 1)) and not line.contains(point(gf7, 2, 2))


@given(field_and_elements(4))
def test_line_through_contains_both_endpoints(fx):
    fld, (x1, y1, x2, y2) = fx
    p, q = PlanePoint(x1, y1), PlanePoint(x2, y2)
    assume(p != q)
    l = line_through(p, q)
    assert l.contains(p) and l.contains(q)


def test_parallel_through_examples():
    assert parallel_through(
        PlaneLine.vertical(RATIONAL.zero), rp(3, 1)
    ) == PlaneLine.vertical(RATIONAL.element(3))
    steep = PlaneLine.sloped(RATIONAL.element(2), RATIONAL.element(-1))
    assert parallel_through(steep, rp(1, 1)) == steep  # point already incident
    assert parallel_through(steep, rp(0, 0)) == PlaneLine.sloped(
        RATIONAL.element(2), RATIONAL.zero
    )


def test_intersect_examples():
    got = intersect(PlaneLine.vertical(RATIONAL.element(2)), PlaneLine.sloped(RATIONAL.zero, RATIONAL.element(3)))
    assert got == rp(2, 3)
    assert intersect(PlaneLine.sloped(RATIONAL.zero, RATIONAL.one), PlaneLine.sloped(RATIONAL.zero, RATIONAL.element(2))) is None
    got = intersect(
        PlaneLine.sloped(RATIONAL.one, RATIONAL.zero),
        PlaneLine.sloped(RATIONAL.element(-1), RATIONAL.element(4)),
    )
    assert got == rp(2, 2)
    with pytest.raises(IdenticalLinesError):
        intersect(PlaneLine.vertical(RATIONAL.one), PlaneLine.vertical(RATIONAL.one))


@given(field_and_elements(6))
def test_intersection_point_lies_on_both_lines(fx):
    fld, (x1, y1, x2, y2, x3, y3) = fx
    p, q, r = PlanePoint(x1, y1), PlanePoint(x2, y2), PlanePoint(x3, y3)
    assume(p != q and p != r and q != r)
    l1, l2 = line_through(p, q), line_through(p, r)
    assume(l1 != l2)
    got = intersect(l1, l2)
    assert got == p
    assert l1.contains(got) and l2.contains(got)


@given(field_and_elements(4))
def test_playfair_parallel_is_unique_and_idempotent(fx):
    fld, (x1, y1, x2, y2) = fx
    p, q = PlanePoint(x1, y1), PlanePoint(x2, y2)
    assume(p != q)
    l = line_through(p, q)
    r = PlanePoint(x1 + fld.one, y1 - fld.one)
    shifted = parallel_through(l, r)
    assert shifted.contains(r)
    assert parallel(shifted, l)
    assert parallel_through(shifted, r) == shifted
    # a second parallel through the same point must be the same line
    if shifted != l:
        assert intersect(shifted, l) is None


def test_three_noncollinear_points_exist(field):
    o, i, up = (
        PlanePoint(field.zero, field.zero),
        PlanePoint(field.one, field.zero),
        PlanePoint(field.zero, field.one),
    )
    assert not line_through(o, i).contains(up)


# ---------------------------------------------------------------- charts


def test_coordinatize_examples():
    o, i = rp(0, 0), rp(1, 0)
    chart = Chart(o, i)
    assert chart.coordinate(o) == RATIONAL.zero
    assert chart.coordinate(i) == RATIONAL.one
    assert chart.coordinate(rp(5, 0)) == RATIONAL.element(5)
    with pytest.raises(NotOnLineError):
        chart.coordinate(rp(5, 1))


def test_chart_needs_distinct_base_points():
    with pytest.raises(IdenticalPointsError):
        Chart(rp(1, 2), rp(1, 2))


@given(field_and_elements(5))
def test_chart_coordinate_of_an_off_axis_point_is_refused(fx):
    fld, (x1, y1, x2, y2, t) = fx
    o, i = PlanePoint(x1, y1), PlanePoint(x2, y2)
    assume(o != i)
    chart = Chart(o, i)
    on = chart.point_at(t)
    # one step across the axis: sideways off a vertical axis, upwards off any other
    step = (fld.one, fld.zero) if chart.axis.is_vertical else (fld.zero, fld.one)
    with pytest.raises(NotOnLineError):
        chart.coordinate(PlanePoint(on.x + step[0], on.y + step[1]))


@given(field_and_elements(5))
def test_chart_round_trip(fx):
    fld, (x1, y1, x2, y2, t) = fx
    o, i = PlanePoint(x1, y1), PlanePoint(x2, y2)
    assume(o != i)
    chart = Chart(o, i)
    p = chart.point_at(t)
    assert chart.axis.contains(p)
    assert chart.coordinate(p) == t


def test_chart_round_trip_on_vertical_axis():
    chart = Chart(rp(2, 0), rp(2, 1))
    t = RATIONAL.element(7)
    p = chart.point_at(t)
    assert p == rp(2, 7)
    assert chart.coordinate(p) == t


# ---------------------------------------------------------------- payloads vs Element formulas

# The primitives compute on field payloads from each line's base point and
# direction.  These are the slope-intercept formulas written with Element
# operators: the reference they must agree with.


def ref_line_through(p, q):
    if p == q:
        raise IdenticalPointsError("no unique line through a repeated point")
    if p.x == q.x:
        return PlaneLine.vertical(p.x)
    m = (q.x - p.x).inv() * (q.y - p.y)
    return PlaneLine.sloped(m, p.y - p.x * m)


def ref_parallel_through(l, p):
    if l.is_vertical:
        return PlaneLine.vertical(p.x)
    return PlaneLine.sloped(l.slope, p.y - p.x * l.slope)


def ref_contains(l, p):
    if l.is_vertical:
        return p.x == l.intercept
    return p.y == p.x * l.slope + l.intercept


def ref_intersect(l1, l2):
    if l1 == l2:
        raise IdenticalLinesError("intersection of a line with itself is the line")
    if parallel(l1, l2):
        return None
    if l1.is_vertical:
        return PlanePoint(l1.intercept, l1.intercept * l2.slope + l2.intercept)
    if l2.is_vertical:
        return PlanePoint(l2.intercept, l2.intercept * l1.slope + l1.intercept)
    x = (l2.intercept - l1.intercept) * (l1.slope - l2.slope).inv()
    return PlanePoint(x, x * l1.slope + l1.intercept)


def ref_point_at(o, i, t):
    return PlanePoint(o.x + t * (i.x - o.x), o.y + t * (i.y - o.y))


def ref_coordinate(o, i, p):
    axis = ref_line_through(o, i)
    if not ref_contains(axis, p):
        raise NotOnLineError(f"{p} is not on the axis through {o} and {i}")
    if axis.is_vertical:
        return (p.y - o.y) * (i.y - o.y).inv()
    return (p.x - o.x) * (i.x - o.x).inv()


def assert_same_line(got, ref):
    """got is ref's line: equal, with equal hash and the same printed equation."""
    assert got == ref and hash(got) == hash(ref) and str(got) == str(ref)


def outcome(fn, *args):
    """What a call returns, or the class and message of the error it raises."""
    try:
        return fn(*args)
    except (IdenticalPointsError, IdenticalLinesError, NotOnLineError) as exc:
        return type(exc), str(exc)


DIFFERENTIAL_ELEMENTS = {
    "rational": element_strategy(RATIONAL),
    "gf7": element_strategy(GF7),
    "gf101": element_strategy(GF101),
    "quaternion": element_strategy(QUATERNION),
    "quaternion-256-bit": ROWS["quaternion"].scales["256-bit"].map(QUATERNION.element),
}


@pytest.mark.parametrize("name", DIFFERENTIAL_ELEMENTS)
@given(data=st.data())
def test_primitives_match_the_element_formulas(name, data):
    elements = DIFFERENTIAL_ELEMENTS[name]
    # coordinates from a pool of three, so repeated points, vertical lines,
    # parallels and repeated lines come up often
    pool = data.draw(st.lists(elements, min_size=3, max_size=3))
    coordinate = st.sampled_from(pool)
    p, q, r, s = (PlanePoint(data.draw(coordinate), data.draw(coordinate)) for _ in range(4))
    t = data.draw(elements)
    assert outcome(line_through, p, p) == outcome(ref_line_through, p, p)
    lines = [ref_parallel_through(PlaneLine.vertical(p.x), p)]
    for a, b in ((p, q), (r, s), (p, r)):
        got = outcome(line_through, a, b)
        ref = outcome(ref_line_through, a, b)
        assert got == ref
        if isinstance(got, PlaneLine):
            assert_same_line(got, ref)
            # the same line reached by other routes, each from fresh objects
            by_equation = (
                PlaneLine.vertical(got.intercept)
                if got.is_vertical
                else PlaneLine.sloped(got.slope, got.intercept)
            )
            for twin in (line_through(b, a), parallel_through(parallel_through(got, s), b), by_equation):
                assert_same_line(twin, got)
            lines.append(got)
    for line in list(lines):
        for a in (p, q, r, s):
            assert line.contains(a) == ref_contains(line, a)
        shifted = parallel_through(line, s)
        assert_same_line(shifted, ref_parallel_through(line, s))
        lines.append(shifted)
    # every ordered pair, a line with itself included: a point, None for
    # parallels, IdenticalLinesError for one line twice
    for l1 in lines:
        for l2 in lines:
            assert outcome(intersect, l1, l2) == outcome(ref_intersect, l1, l2)
    for o, i in ((p, q), (q, p), (p, PlanePoint(p.x, q.y))):
        if o == i:
            continue
        chart = Chart(o, i)
        assert chart.point_at(t) == ref_point_at(o, i, t)
        for a in (o, i, r, s, chart.point_at(t)):
            assert outcome(chart.coordinate, a) == outcome(ref_coordinate, o, i, a)


# ---------------------------------------------------------------- constructions


def test_geometric_add_example_trace():
    chart = Chart(rp(0, 0), rp(1, 0))
    built = construct_sum(chart, rp(2, 0), rp(3, 0), rp(0, 1))
    assert built.result == rp(5, 0)
    assert chart.coordinate(built.result) == RATIONAL.element(5)
    assert set(built.points) >= {"O", "I", "A", "B", "B1", "P1", "C"}
    assert len(built.lines) >= 3


def test_geometric_mul_example_trace():
    chart = Chart(rp(0, 0), rp(1, 0))
    built = construct_product(chart, rp(2, 0), rp(3, 0), rp(0, 1))
    assert built.result == rp(6, 0)
    assert chart.coordinate(built.result) == RATIONAL.element(6)


def test_geometric_identities():
    o, i, aux = rp(0, 0), rp(1, 0), rp(0, 1)
    chart = Chart(o, i)
    a, b = rp(7, 0), rp(3, 0)
    assert construct_sum(chart, a, o, aux).result == a  # adding zero
    assert construct_product(chart, i, b, aux).result == b  # multiplying by one


def test_aux_point_must_leave_the_axis():
    chart = Chart(rp(0, 0), rp(1, 0))
    with pytest.raises(AuxiliaryPointError):
        construct_sum(chart, rp(2, 0), rp(3, 0), rp(4, 0))
    with pytest.raises(AuxiliaryPointError):
        construct_product(chart, rp(2, 0), rp(3, 0), rp(4, 0))


def test_operands_must_sit_on_the_axis():
    chart = Chart(rp(0, 0), rp(1, 0))
    with pytest.raises(NotOnLineError):
        construct_sum(chart, rp(2, 1), rp(3, 0), rp(0, 1))


def test_default_aux_is_valid(field):
    for o, i in [
        (PlanePoint(field.zero, field.zero), PlanePoint(field.one, field.zero)),
        (PlanePoint(field.zero, field.zero), PlanePoint(field.zero, field.one)),
        (PlanePoint(field.one, field.one), PlanePoint(field.element(2), field.element(3))),
    ]:
        chart = Chart(o, i)
        assert not chart.axis.contains(default_aux(chart))


def test_default_aux_is_o_plus_0_1_unless_the_axis_is_vertical(field):
    one, two, three = field.one, field.element(2), field.element(3)
    o = PlanePoint(one, two)
    for i, shift in [
        (PlanePoint(three, two), (field.zero, one)),  # horizontal axis
        (PlanePoint(two, three + two), (field.zero, one)),  # slanted axis
        (PlanePoint(one, three), (one, field.zero)),  # vertical axis
    ]:
        assert default_aux(Chart(o, i)) == PlanePoint(o.x + shift[0], o.y + shift[1])


@given(field_and_elements(4))
def test_construction_matches_field_arithmetic(fx):
    fld, (ta, tb, off, toff) = fx
    chart = Chart(PlanePoint(fld.zero, fld.zero), PlanePoint(fld.one, fld.zero))
    a, b = chart.point_at(ta), chart.point_at(tb)
    aux = PlanePoint(toff, off + fld.one) if not (off + fld.one).is_zero else PlanePoint(toff, fld.one)
    assume(not chart.axis.contains(aux))
    assert chart.coordinate(construct_sum(chart, a, b, aux).result) == ta + tb
    assert chart.coordinate(construct_product(chart, a, b, aux).result) == ta * tb


def test_construction_on_slanted_axis():
    # O and I need not sit on the horizontal axis
    chart = Chart(rp(1, 1), rp(3, 2))
    a, b = chart.point_at(RATIONAL.element(4)), chart.point_at(RATIONAL.element(-2))
    aux = default_aux(chart)
    s = construct_sum(chart, a, b, aux).result
    m = construct_product(chart, a, b, aux).result
    assert chart.coordinate(s) == RATIONAL.element(2)
    assert chart.coordinate(m) == RATIONAL.element(-8)


def test_quaternion_construction_agreement(rng):
    fld = QUATERNION
    chart = Chart(PlanePoint(fld.zero, fld.zero), PlanePoint(fld.one, fld.zero))
    i_unit, j_unit = fld.element(I_Q), fld.element(J_Q)
    a, b = chart.point_at(i_unit), chart.point_at(j_unit)
    aux = PlanePoint(fld.zero, fld.one)
    got = construct_product(chart, a, b, aux).result
    # the ruler construction realizes the product in left-to-right operand order
    assert chart.coordinate(got) == i_unit * j_unit


def test_aux_independence_spot_check(field, rng):
    chart = Chart(PlanePoint(field.zero, field.zero), PlanePoint(field.one, field.zero))
    a, b = chart.point_at(field.element(2)), chart.point_at(field.element(3))
    auxes, attempts = [], 0
    while len(auxes) < 6 and attempts < 500:
        attempts += 1
        cand = PlanePoint(field.random_element(rng), field.random_element(rng))
        if not chart.axis.contains(cand) and cand not in auxes:
            auxes.append(cand)
    sums = {construct_sum(chart, a, b, aux).result for aux in auxes}
    prods = {construct_product(chart, a, b, aux).result for aux in auxes}
    assert len(sums) == 1 and len(prods) == 1


@given(field_and_elements(8), st.booleans())
def test_sum_and_product_share_one_ruler(fx, vertical):
    fld, (x1, y1, x2, y2, ta, tb, ax, ay) = fx
    o, i = PlanePoint(x1, y1), PlanePoint(x1 if vertical else x2, y2)
    assume(o != i and (o.x == i.x) == vertical)
    chart = Chart(o, i)
    a, b, aux = chart.point_at(ta), chart.point_at(tb), PlanePoint(ax, ay)
    assume(not chart.axis.contains(aux))
    both = construct_sum_and_product(chart, a, b, aux)
    assert both == (construct_sum(chart, a, b, aux), construct_product(chart, a, b, aux))
    built_sum, built_product = (dict(built.lines) for built in both)
    assert built_sum["O-B1"] is built_product["O-B1"]
    assert built_sum["B-B1"] is built_product["B-B1"]
    # the operand checks come first, in order, as in the single constructions
    step = (fld.one, fld.zero) if vertical else (fld.zero, fld.one)
    off_a, off_b = (PlanePoint(p.x + step[0], p.y + step[1]) for p in (a, b))
    for args, error, message in (
        ((off_a, off_b, aux), NotOnLineError, "operand A must lie on the axis"),
        ((a, off_b, aux), NotOnLineError, "operand B must lie on the axis"),
        ((a, b, chart.point_at(ax)), AuxiliaryPointError, "the auxiliary point must not lie on the axis"),
    ):
        for build in (construct_sum_and_product, construct_sum, construct_product):
            with pytest.raises(error) as raised:
                build(chart, *args)
            assert type(raised.value) is error and str(raised.value) == message


# ---------------------------------------------------------------- Desargues


def parallel_mode_example():
    # translated triangle: every corresponding side pair is parallel and distinct
    return DesarguesConfig(
        a=rp(0, 0), b=rp(1, 0), c=rp(1, 1),
        a_prime=rp(2, 1), b_prime=rp(3, 1), c_prime=rp(3, 2),
    )


def concurrent_mode_example():
    # central dilation about the origin with factor 2
    return DesarguesConfig(
        a=rp(1, 0), b=rp(0, 1), c=rp(1, 1),
        a_prime=rp(2, 0), b_prime=rp(0, 2), c_prime=rp(2, 2),
        center=rp(0, 0),
    )


def test_desargues_parallel_mode_example():
    cfg = parallel_mode_example()
    assert cfg.center is None
    assert check_desargues(cfg)


def test_desargues_concurrent_mode_example():
    cfg = concurrent_mode_example()
    assert cfg.center is not None
    assert check_desargues(cfg)


def test_desargues_rejects_equal_vertices():
    cfg = parallel_mode_example()
    broken = DesarguesConfig(
        a=cfg.a, b=cfg.b, c=cfg.a,
        a_prime=cfg.a_prime, b_prime=cfg.b_prime, c_prime=cfg.c_prime, center=cfg.center,
    )
    with pytest.raises(HypothesisViolationError, match="pairwise distinct"):
        check_desargues(broken)


def test_desargues_rejects_shared_side_line():
    # second triangle translated along its own BC side: BC and B'C' coincide
    cfg = DesarguesConfig(
        a=rp(0, 0), b=rp(1, 0), c=rp(1, 1),
        a_prime=rp(0, 2), b_prime=rp(1, 2), c_prime=rp(1, 3),
    )
    with pytest.raises(HypothesisViolationError):
        check_desargues(cfg)


def test_desargues_rejects_wrong_mode_data():
    cfg = parallel_mode_example()
    # skew the A join so the three vertex joins are no longer parallel
    broken = DesarguesConfig(
        a=cfg.a, b=cfg.b, c=cfg.c,
        a_prime=rp(2, 0), b_prime=cfg.b_prime, c_prime=cfg.c_prime, center=cfg.center,
    )
    with pytest.raises(HypothesisViolationError):
        check_desargues(broken)


def test_desargues_rejects_a_vertex_that_is_its_own_image():
    broken = parallel_mode_example()._replace(a_prime=rp(0, 0))
    with pytest.raises(HypothesisViolationError) as raised:
        check_desargues(broken)
    assert str(raised.value) == (
        "hypothesis violated: corresponding vertices must be distinct (A!=A', B!=B', C!=C')"
    )


def test_desargues_rejects_sides_ab_that_are_not_parallel():
    # B' slides along BB', so the joins stay parallel but A'B' turns
    broken = parallel_mode_example()._replace(b_prime=rp(5, 2))
    with pytest.raises(HypothesisViolationError) as raised:
        check_desargues(broken)
    assert str(raised.value) == "hypothesis violated: sides AB and A'B' must be parallel"


def test_desargues_collinear_a_b_a2_b2_fail_the_five_lines_clause():
    # AB = A'B' makes AA' = BB', so the five-lines clause fires before the side clauses
    broken = parallel_mode_example()._replace(a_prime=rp(2, 0), b_prime=rp(3, 0), c_prime=rp(3, 1))
    with pytest.raises(HypothesisViolationError) as raised:
        check_desargues(broken)
    assert str(raised.value) == (
        "hypothesis violated: the lines AA', BB', CC', AC, A'C' must be pairwise distinct"
    )


@pytest.mark.parametrize("example", [parallel_mode_example, concurrent_mode_example])
def test_desargues_check_draws_nine_lines(example, monkeypatch):
    drawn = []

    def counting_line_through(p, q):
        drawn.append((p, q))
        return line_through(p, q)

    monkeypatch.setattr(plane, "line_through", counting_line_through)
    assert check_desargues(example())
    assert len(drawn) == 9


def test_desargues_tamper_is_detected(field):
    cfg, _ = generate_desargues_config(field, seed=11, mode="parallel")
    moved = PlanePoint(cfg.c_prime.x + field.one, cfg.c_prime.y + field.one)
    tampered = DesarguesConfig(
        a=cfg.a, b=cfg.b, c=cfg.c,
        a_prime=cfg.a_prime, b_prime=cfg.b_prime, c_prime=moved, center=cfg.center,
    )
    try:
        assert check_desargues(tampered) is False
    except HypothesisViolationError:
        pass  # a moved vertex may instead break a hypothesis clause


@pytest.mark.parametrize("mode", ["parallel", "concurrent"])
def test_generated_configs_satisfy_the_axiom(field, mode):
    for seed in range(12):
        cfg, holds = generate_desargues_config(field, seed=seed, mode=mode)
        assert (cfg.center is None) == (mode == "parallel")
        assert holds and check_desargues(cfg)


def test_generation_is_deterministic(field):
    a, _ = generate_desargues_config(field, seed=3, mode="concurrent")
    b, _ = generate_desargues_config(field, seed=3, mode="concurrent")
    assert a.canonical() == b.canonical()


def test_generation_failure_is_reported():
    # the 4-point plane cannot host three distinct parallel vertex joins
    with pytest.raises(GenerationFailureError):
        generate_desargues_config(GaloisField(2), seed=0, mode="parallel")


def test_generation_rejects_unknown_mode():
    with pytest.raises(ValueError):
        generate_desargues_config(RATIONAL, seed=0, mode="skew")
