import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parporo.cli import run
from parporo.geometry import ParabolicRectangle, Root, new_geometry
from parporo.intervals import Interval
from parporo.sets import (BoxUnion, Freeness, HalfSpaceTime, IFSFractal, IFSMap,
                          PointCloud, SpatialHyperplane, _gap_span_weight, _sup_bracket,
                          cantor_times_time, distance_to_set, integer_grid,
                          parabolic_distance, rectangle_free, set_from_json, set_to_json,
                          single_point, sup_distance_bracket)

from oracles import exact_cylinders, exact_gap, exact_sup, reference_dist_box_range


QUARTERS = st.integers(-12, 12).map(lambda k: k / 4)


@given(n=st.integers(0, 2), size=st.sampled_from((1, 3, 12, 13, 20)), p=st.sampled_from((2.0, 1.5)),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_cloud_and_box_distances_are_the_least_metric_distance(n, size, p, data):
    # the clouds' and box unions' distance is a gap to the point as a box:
    # the least parabolic distance to a member, bit for bit except where a
    # large cloud's numpy powers round otherwise
    coords = st.tuples(*[QUARTERS] * (n + 1))
    pts = data.draw(st.lists(coords, min_size=size, max_size=size))
    pt = data.draw(coords)
    want = min(parabolic_distance(z, pt, p) for z in pts)
    got = PointCloud(tuple(pts)).distance(pt, p)
    assert got.lo == got.hi
    if size <= 12:
        assert got.lo == want
    else:
        assert math.isclose(got.lo, want, rel_tol=2.0 ** -50)
    boxes = BoxUnion(tuple((tuple((v, v) for v in z[:-1]), (z[-1], z[-1])) for z in pts))
    assert boxes.distance(pt, p) == Interval.point(want)


@given(x=st.floats(-4.0, 4.0), t=st.floats(-4.0, 4.0), value=QUARTERS,
       p=st.sampled_from((2.0, 1.5, math.e, 1.1)))
@example(x=0.125, t=-0.5, value=0.125, p=2.0)
@settings(max_examples=300, deadline=None)
def test_point_distances_are_the_closed_forms(x, t, value, p):
    # a point's gap and span from the box bound equal the closed forms bit
    # for bit; the IFS bracket holds the exact distance
    pt = (x, t)
    want = abs(x - value)
    assert distance_to_set(pt, SpatialHyperplane(0, value), p) == Interval.point(want)
    future = max(0.0, value - t) ** (1.0 / p)
    past = max(0.0, t - value) ** (1.0 / p)
    assert distance_to_set(pt, HalfSpaceTime(value, future=True), p) == Interval.point(future)
    assert distance_to_set(pt, HalfSpaceTime(value, future=False), p) == Interval.point(past)
    # E lies in the depth-10 cells and holds their ends, so off the cells
    # the exact distance is the gap to them; on a cell it lies below the
    # gap to the depth-10 points
    e = Fraction(x)
    below = exact_gap(CELLS, e, e)
    above = below if below > 0 else exact_gap(POINTS, e, e)
    d = distance_to_set(pt, CANTOR, p)
    assert d.lo <= above + ROUNDING and d.hi >= below - ROUNDING


def test_metric_examples():
    assert parabolic_distance((0.0, 0.0), (0.0, 0.0), 2.0) == 0.0
    assert parabolic_distance((1.0, 0.0), (0.0, -4.0), 2.0) == 2.0
    assert parabolic_distance((0.0, 0.0), (3.0, -8.0), 2.0) == 3.0


coords = st.integers(-50, 50).map(lambda k: k / 8)
points2 = st.tuples(coords, coords)


@given(a=points2, b=points2, c=points2, p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=300, deadline=None)
def test_metric_axioms(a, b, c, p):
    dab = parabolic_distance(a, b, p)
    assert dab == parabolic_distance(b, a, p)
    assert dab >= 0.0
    assert (dab == 0.0) == (a == b)
    assert dab <= parabolic_distance(a, c, p) + parabolic_distance(c, b, p) + 1e-12


def test_metric_triangle_inequality_bulk():
    # 1e5 seeded triples; rational-grid inputs keep the comparisons sharp
    rng = random.Random(2024)
    for _ in range(100_000):
        p = rng.choice([1.5, 2.0, 2.7])
        a = (rng.randint(-80, 80) / 16, rng.randint(-80, 80) / 16)
        b = (rng.randint(-80, 80) / 16, rng.randint(-80, 80) / 16)
        c = (rng.randint(-80, 80) / 16, rng.randint(-80, 80) / 16)
        assert parabolic_distance(a, b, p) <= (parabolic_distance(a, c, p)
                                               + parabolic_distance(c, b, p)
                                               + 1e-12)


def test_distance_to_set_examples():
    E = single_point(1)
    assert distance_to_set((1.0, 0.0), E, 2.0).lo == 1.0
    plane = SpatialHyperplane(0, 0.0)
    for t in (-3.0, 0.0, 11.0):
        iv = distance_to_set((0.3, t), plane, 2.0)
        assert iv.lo == iv.hi == pytest.approx(0.3)
    half = HalfSpaceTime(0.0, future=True)
    assert distance_to_set((5.0, -4.0), half, 2.0).lo == pytest.approx(2.0)
    assert distance_to_set((5.0, 1.0), half, 2.0).hi == 0.0


def test_boxunion_distance():
    E = BoxUnion(((((0.0, 1.0),), (0.0, 2.0)),))
    assert distance_to_set((2.0, 1.0), E, 2.0).lo == pytest.approx(1.0)
    assert distance_to_set((0.5, -1.0), E, 2.0).lo == pytest.approx(1.0)
    assert distance_to_set((0.5, 1.0), E, 2.0).lo == 0.0


def test_rectangle_free_halfopen_boundaries():
    p = 2.0
    # x-interval [-1/4, 0): the plane x=0 is excluded by the half-open face
    rect = ParabolicRectangle(center=(-0.125,), top_time=0.0, side=0.25)
    assert rectangle_free(SpatialHyperplane(0, 0.0), rect, p) is Freeness.EMPTY
    rect2 = ParabolicRectangle(center=(0.125,), top_time=0.0, side=0.25)
    assert rectangle_free(SpatialHyperplane(0, 0.0), rect2, p) is Freeness.NONEMPTY

    unit = ParabolicRectangle(center=(0.0,), top_time=0.0, side=1.0)
    # (0, 0) sits on the excluded top face
    assert rectangle_free(PointCloud(((0.0, 0.0),)), unit, p) is Freeness.EMPTY
    assert rectangle_free(PointCloud(((0.0, -0.5),)), unit, p) is Freeness.NONEMPTY
    # closed E-boxes touching the included lower face do intersect
    touch = BoxUnion(((((-2.0, 2.0),), (-2.0, -1.0)),))
    assert rectangle_free(touch, unit, p) is Freeness.NONEMPTY
    above = BoxUnion(((((-2.0, 2.0),), (0.0, 1.0)),))
    assert rectangle_free(above, unit, p) is Freeness.EMPTY


def test_halfspace_freeness():
    p = 2.0
    unit = ParabolicRectangle(center=(0.0,), top_time=0.0, side=1.0)
    assert rectangle_free(HalfSpaceTime(0.0, future=True), unit, p) is Freeness.EMPTY
    assert rectangle_free(HalfSpaceTime(-0.25, future=True), unit, p) is Freeness.NONEMPTY
    assert rectangle_free(HalfSpaceTime(-1.0, future=False), unit, p) is Freeness.NONEMPTY
    assert rectangle_free(HalfSpaceTime(-1.5, future=False), unit, p) is Freeness.EMPTY


def test_one_lipschitz_sampled():
    rng = random.Random(3)
    models = [
        single_point(1),
        integer_grid(1, spatial_extent=3, time_depth=3),
        SpatialHyperplane(0, 0.25),
        HalfSpaceTime(0.5, future=True),
        BoxUnion(((((0.0, 1.0),), (0.0, 1.0)), (((-2.0, -1.0),), (-1.0, 0.0)))),
    ]
    for model in models:
        for _ in range(200):
            a = (rng.uniform(-4, 4), rng.uniform(-4, 4))
            b = (rng.uniform(-4, 4), rng.uniform(-4, 4))
            da = distance_to_set(a, model, 2.0).mid
            db = distance_to_set(b, model, 2.0).mid
            assert abs(da - db) <= parabolic_distance(a, b, 2.0) + 1e-9


def test_oracle_consistency_free_rect_distance():
    # free rectangle => the center clears half the smaller of (l_x, l_t^{1/p})
    p = 2.0
    rng = random.Random(11)
    model = integer_grid(1, spatial_extent=4, time_depth=4)
    checked = 0
    for _ in range(300):
        side = rng.choice([0.25, 0.5, 0.75])
        rect = ParabolicRectangle(
            center=(rng.uniform(-3, 3),), top_time=rng.uniform(-3, 3), side=side)
        if rectangle_free(model, rect, p) is Freeness.EMPTY:
            checked += 1
            center = rect.center_point(p)
            inradius = 0.5 * min(rect.l_x, rect.l_t(p) ** (1 / p))
            assert distance_to_set(center, model, p).hi >= inradius - 1e-12
    assert checked > 20


def test_sup_distance_brackets_exact_models():
    p = 2.0
    unit = ParabolicRectangle(center=(0.0,), top_time=0.0, side=1.0)
    sup, ok = sup_distance_bracket(SpatialHyperplane(0, 0.0), unit.box(p), p)
    assert ok and sup.lo == sup.hi == pytest.approx(0.5)
    sup, ok = sup_distance_bracket(single_point(1), unit.box(p), p)
    assert ok
    # farthest point of the closure from the origin: corner (1/2, -1), dist = 1
    assert sup.lo == sup.hi == pytest.approx(1.0)


def test_sup_distance_bracket_branch_and_bound():
    p = 2.0
    model = PointCloud(((-0.5, 0.0), (0.5, 0.0)))
    unit = ParabolicRectangle(center=(0.0,), top_time=0.5, side=1.0)
    sup, ok = sup_distance_bracket(model, unit.box(p), p, tol=1e-9)
    assert ok
    # max over [-1/2,1/2) x [-1/2, 1/2) of min distance to the two points:
    # attained at (0, -1/2): max(1/2, sqrt(1/2)) = sqrt(1/2)
    assert sup.lo == pytest.approx(math.sqrt(0.5), abs=1e-8)
    assert sup.width <= 1e-8


def test_cantor_distance_and_freeness():
    p = 2.0
    cantor = cantor_times_time(p)
    iv = distance_to_set((0.5, 3.0), cantor, p)
    # nearest Cantor points to 1/2 are 1/3 and 2/3
    assert iv.lo <= 1 / 6 + 1e-9 <= iv.hi + 2e-9
    assert iv.width < 1e-9
    inside_gap = ParabolicRectangle(center=(0.5,), top_time=0.0, side=0.1, gamma=0.0)
    assert rectangle_free(cantor, inside_gap, p) is Freeness.EMPTY
    hit = ParabolicRectangle(center=(0.0,), top_time=0.0, side=0.5)
    assert rectangle_free(cantor, hit, p) is Freeness.NONEMPTY


def test_cantor_unknown_under_tiny_cap():
    p = 2.0
    shallow = cantor_times_time(p, depth_cap=2)
    deep = cantor_times_time(p, depth_cap=30)
    # slivers inside the scale-2 cell [2/9, 1/3], which holds no scale-2
    # witness: one in its removed middle third (7/27, 8/27), one around
    # 3/10 = 0.(0220) in base 3, a point of the Cantor set
    gap = ParabolicRectangle(center=(0.2778,), top_time=0.0, side=1e-4)
    hit = ParabolicRectangle(center=(0.300001,), top_time=0.0, side=1e-4)
    for sliver, verdict in ((gap, Freeness.EMPTY), (hit, Freeness.NONEMPTY)):
        assert rectangle_free(shallow, sliver, p) is Freeness.UNKNOWN
        assert rectangle_free(deep, sliver, p) is verdict


def test_box_union_cell_weight_diverges_on_solid_boxes_only():
    # a cell that touches a solid box meets E in positive measure; one that
    # touches a degenerate slab gets a lower bound only
    cell = (((0.5, 1.5),), (0.5, 1.5))
    solid = BoxUnion(((((0.0, 1.0),), (0.0, 1.0)),))
    slab = BoxUnion(((((1.0, 1.0),), (0.0, 1.0)),))
    assert solid.cell_weight(cell, 0.5, 2.0)[1:] == (math.inf, True, False)
    assert slab.cell_weight(cell, 0.5, 2.0)[1:] == (math.inf, False, True)
    # apart from E both are finite
    far = (((3.0, 4.0),), (0.0, 1.0))
    for model in (solid, slab):
        lo, hi, diverged, lower_only = model.cell_weight(far, 0.5, 2.0)
        assert 0.0 < lo <= hi < math.inf and not diverged and not lower_only


def test_membership_frequency_of_null_models():
    rng = random.Random(5)
    models = [single_point(1), SpatialHyperplane(0, 0.123),
              integer_grid(1, spatial_extent=2, time_depth=2)]
    for model in models:
        hits = 0
        for _ in range(2000):
            pt = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if distance_to_set(pt, model, 2.0).hi == 0.0:
                hits += 1
        assert hits == 0


@pytest.mark.parametrize("name", ["hyperplane", "point", "halfspace", "grid",
                                  "cantor", "layered"])
def test_set_json_roundtrip(name, request):
    model = request.getfixturevalue(
        {"hyperplane": "hyperplane", "point": "origin_point",
         "halfspace": "halfspace", "grid": "coarse_grid",
         "cantor": "cantor_set", "layered": "layered_grid"}[name])
    blob = json.dumps(set_to_json(model, 2.0))
    again, p = set_from_json(json.loads(blob))
    assert p == 2.0
    assert type(again) is type(model)
    blob2 = json.dumps(set_to_json(again, 2.0))
    assert blob == blob2


def test_point_cloud_rejects_non_finite_coordinates():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            PointCloud(((0.0, 0.0), (0.5, bad)))
        with pytest.raises(ValueError, match="finite"):
            PointCloud(((bad, 0.0),))
    for text in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="finite"):
            set_from_json({"type": "points", "coords": [["0", "0"], ["1", text]]})


MIXED_BOXES = {"type": "boxes", "boxes": [{"spatial": [["0", "1"]], "temporal": ["0", "1"]},
                                          {"spatial": [["0", "1"], ["2", "3"]],
                                           "temporal": ["0", "1"]}]}
MIXED_MAPS = {"type": "ifs", "p": "2", "maps": [{"ratio": "1/3", "shift": ["0"]},
                                                {"ratio": "1/3", "shift": ["2/3", "0"]}]}


def test_members_of_mixed_spatial_dimension_are_refused(capsys):
    # a one-axis box beside a two-axis box, and IFS shifts of lengths 1 and
    # 2: no query could read both, so neither model constructs
    with pytest.raises(ValueError, match="share a spatial dimension"):
        BoxUnion(((((0.0, 1.0),), (0.0, 1.0)), (((0.0, 1.0), (2.0, 3.0)), (0.0, 1.0))))
    with pytest.raises(ValueError, match="share a spatial dimension"):
        IFSFractal((IFSMap(1 / 3, (0.0,)), IFSMap(1 / 3, (2 / 3, 0.0))), 2.0)
    for set_def in (MIXED_BOXES, MIXED_MAPS):
        with pytest.raises(ValueError, match="share a spatial dimension"):
            set_from_json(set_def)
        # the CLI reports the input error with exit 1
        for n in ("1", "2"):
            assert run(["porosity", "--set", json.dumps(set_def), "--n", n, "--samples", "1",
                        "--cap", "1"]) == 1
            assert "share a spatial dimension" in capsys.readouterr().err


FACES = [-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]


@st.composite
def clouds_and_boxes(draw):
    """A cloud on a coarse grid (so times repeat) and a box whose faces are
    mostly point coordinates, so points sit exactly on its faces."""
    n = draw(st.sampled_from([0, 1, 2]))
    size = draw(st.one_of(st.integers(1, 12), st.integers(13, 40)))
    points = [tuple(draw(st.sampled_from(FACES)) for _ in range(n + 1))
              for _ in range(size)]

    def face(axis):
        return draw(st.one_of(st.sampled_from([pt[axis] for pt in points]),
                              st.sampled_from(FACES)))

    bounds = tuple((face(j), face(j)) for j in range(n))
    return points, (bounds, (face(n), face(n)))


@given(case=clouds_and_boxes())
@settings(max_examples=400, deadline=None)
def test_point_cloud_meets_box_matches_brute_force(case):
    points, box = case
    bounds, (tlo, thi) = box
    model = PointCloud(tuple(points))
    inside = any(tlo <= pt[-1] < thi and all(lo <= x < hi for (lo, hi), x in zip(bounds, pt))
                 for pt in model.points)
    assert model.meets_box(box) is (Freeness.NONEMPTY if inside else Freeness.EMPTY)


def test_set_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        set_from_json({"type": "blob"})


# (model, spatial dimension, sup attained at a box corner)
SPAN_MODELS = [
    (single_point(1, at=(0.25, -0.5)), 1, True),
    (single_point(2, at=(0.25, -0.125, -0.5)), 2, True),
    (PointCloud(((0.1, -0.3), (-0.2, -0.6), (0.4, -0.1))), 1, False),
    (integer_grid(1, spatial_extent=2, time_depth=3, spacing=0.5), 1, False),
    (BoxUnion(((((-0.5, 0.25),), (-1.0, -0.25)),)), 1, True),
    (BoxUnion(((((-0.5, 0.25),), (-1.0, -0.25)), (((0.5, 0.5),), (-2.0, 0.0)))), 1, False),
    (BoxUnion(((((-0.5, 0.25), (0.0, 1.0)), (-1.0, -0.25)),)), 2, True),
    (HalfSpaceTime(-0.5, future=True), 1, True),
    (HalfSpaceTime(-0.5, future=False), 1, True),
    (SpatialHyperplane(0, 0.125), 1, True),
    (SpatialHyperplane(1, -0.375), 2, True),
    (cantor_times_time(2.0, depth_cap=6), 1, False),
]
sides = st.one_of(st.integers(-20, 1).map(lambda k: 2.0 ** k), st.just(3.0))


@st.composite
def models_and_boxes(draw):
    model, n, exact = draw(st.sampled_from(SPAN_MODELS))
    bounds = []
    for _ in range(n):
        lo = draw(st.floats(-2.0, 2.0))
        bounds.append((lo, lo + draw(sides)))
    tlo = draw(st.floats(-2.0, 1.0))
    box = (tuple(bounds), (tlo, tlo + draw(sides)))
    p = draw(st.sampled_from([2.0, 1.5, math.e, 1.1]))
    return model, exact, box, p


@given(case=models_and_boxes())
@example(case=(SPAN_MODELS[-1][0], False, (((0.49, 0.51),), (0.0, 0.25)), 2.0))
@example(case=(SPAN_MODELS[-1][0], False, (((0.125, 0.1875),), (0.0, 2.0 ** -20)), 1.1))
@settings(max_examples=400, deadline=None)
def test_sup_bracket_matches_the_per_model_reference(case):
    # one model protocol: the shared sup bracket (span above, probe points
    # below) equals each model's own worked-out bracket; the IFS sup comes
    # from the root box only, so it may be tighter but never below a probe
    model, exact, box, p = case
    inf_ref, sup_ref = reference_dist_box_range(model, box, p)
    inf, sup_hi = model.dist_box_gap_span(box, p)
    sup = _sup_bracket(model, box, p)
    if isinstance(model, IFSFractal):
        # exact reference brackets: the model's must overlap them
        below, above = model._inf_bracket(box[0])
        assert inf == below
        assert _overlaps(below, above, *inf_ref)
        assert _overlaps(sup.lo, sup.hi, *sup_ref)
        return
    assert inf.hex() == inf_ref.lo.hex()
    assert (sup.lo.hex(), sup.hi.hex()) == (sup_ref.lo.hex(), sup_ref.hi.hex())
    if exact:
        assert sup.width == 0.0


# ---------------------------------------------------------------------------
# the Cantor set against its exact cylinders
# ---------------------------------------------------------------------------

# float rounding of IFS cells and faces is not outward yet: it may move a
# bound by a few ulps, far below what a wrong cylinder rule moves it
ROUNDING = Fraction(2) ** -46


def _overlaps(lo, hi, exact_lo, exact_hi):
    return lo <= exact_hi + ROUNDING and hi >= exact_lo - ROUNDING


CANTOR = cantor_times_time(2.0)
CELLS, POINTS = exact_cylinders(CANTOR)


@st.composite
def cantor_boxes(draw):
    """A spatial interval centred on an exact depth-10 point, inside a
    removed gap between two depth-10 cells, or anywhere near the set."""
    kind = draw(st.sampled_from(["point", "gap", "any"]))
    if kind == "point":
        x, _ = draw(st.sampled_from(POINTS))
        h = Fraction(2) ** -draw(st.integers(12, 40))
        lo, hi = float(x - h), float(x + h)
    elif kind == "gap":
        k = draw(st.integers(0, len(CELLS) - 2))
        left, right = CELLS[k][1], CELLS[k + 1][0]
        f = sorted(draw(st.integers(1, 63)) for _ in range(2))
        lo, hi = (float(left + (right - left) * v / 64) for v in f)
    else:
        lo = draw(st.floats(-0.5, 1.5))
        hi = lo + 2.0 ** -draw(st.integers(-1, 30))
    return ((lo, hi),), (draw(st.floats(-2.0, 1.0)), 1.0)


@given(box=cantor_boxes(), q=st.sampled_from([0.3, 1.0, 2.5]))
@settings(max_examples=300, deadline=None)
def test_cantor_queries_match_the_exact_cylinders(box, q):
    # every exact point f_w(0) of a word w of length <= 10 is a depth-10
    # point (append zeros), and the depth-10 cells cover the set
    ((lo, hi),), _ = box
    a, b = Fraction(lo), Fraction(hi)
    verdict = CANTOR.meets_box(box)
    if a + ROUNDING < b - ROUNDING and exact_gap(POINTS, a + ROUNDING, b - ROUNDING) == 0:
        assert verdict is not Freeness.EMPTY
    if verdict is Freeness.NONEMPTY:
        assert exact_gap(CELLS, a - ROUNDING, b + ROUNDING) == 0
    below, above = CANTOR._inf_bracket(box[0])
    assert _overlaps(below, above, exact_gap(CELLS, a, b), exact_gap(POINTS, a, b))
    assert CANTOR.dist_box_gap_span(box, 2.0)[0] == below
    for x in (lo, hi, (lo + hi) / 2):
        d = CANTOR.distance((x, 0.0), 2.0)
        e = Fraction(x)
        assert _overlaps(d.lo, d.hi, exact_gap(CELLS, e, e), exact_gap(POINTS, e, e))
    assert CANTOR.cell_weight(box, q, 2.0) == \
        _gap_span_weight(box, q, *CANTOR.dist_box_gap_span(box, 2.0))


def test_a_box_over_the_whole_cantor_set_stops_at_the_root(monkeypatch):
    # the root's witness lies in the box, so neither the inf bracket nor
    # freeness refines a cylinder
    calls = 0
    children = IFSFractal._children

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return children(self, *args)

    monkeypatch.setattr(IFSFractal, "_children", counting)
    box = (((-1.0, 2.0),), (0.0, 1.0))
    assert CANTOR._inf_bracket(box[0]) == (0.0, 0.0)
    assert CANTOR.meets_box(box) is Freeness.NONEMPTY
    assert calls == 0
    # the sup bound reads the distance 1/6 at the box's centre 1/2, plus
    # the reach 3/2: below the root-box bound 2, and above the sup 1
    inf, sup = CANTOR.dist_box_gap_span(box, 2.0)
    assert inf == 0.0 and 1.0 <= sup < 2.0
    assert CANTOR.cell_weight(box, 0.3, 2.0)[1:] == (math.inf, False, True)


@given(box=cantor_boxes())
@settings(max_examples=40, deadline=None)
def test_cantor_sup_bracket_converges_and_holds_the_exact_sup(box):
    # the sup bound shrinks with the box, so branch and bound converges
    # well inside its budget; the true sup lies between the sups of the
    # distances to the depth-10 cells (which cover E) and to the depth-10
    # points (which lie in E), and the bracket must meet that range
    sup, converged = sup_distance_bracket(CANTOR, box, 2.0, tol=1e-9, max_cells=2000)
    assert converged
    ((lo, hi),), _ = box
    a, b = Fraction(lo), Fraction(hi)
    assert _overlaps(sup.lo, sup.hi, exact_sup(CELLS, a, b), exact_sup(POINTS, a, b))


# ---------------------------------------------------------------------------
# time invariance: the free search tests one cell per spatial column
# ---------------------------------------------------------------------------


def test_time_invariance_is_declared_on_the_product_sets():
    models = (PointCloud, BoxUnion, HalfSpaceTime, SpatialHyperplane, IFSFractal)
    assert {m.__name__ for m in models if m.time_invariant} == \
        {"SpatialHyperplane", "IFSFractal"}


# every model of the declaration tests, the Cantor set at three caps
DECLARED_MODELS = [(model, n) for model, n, _exact in SPAN_MODELS] \
    + [(cantor_times_time(2.0, depth_cap=cap), 1) for cap in (1, 2, 24)]
DECLARED_GEOMETRIES = {n: new_geometry(n, 2.0) for n in (1, 2)}


def test_unknown_answers_are_declared_on_the_capped_walk_only():
    models = (PointCloud, BoxUnion, HalfSpaceTime, SpatialHyperplane, IFSFractal)
    assert {type(model) for model, _n in DECLARED_MODELS} == set(models)
    assert {m.__name__ for m in models if m.answers_unknown} == {"IFSFractal"}
    # not vacuous: at model cap 1, the interval [0.25, 0.5) meets the
    # depth-1 cylinder [0, 1/3] but holds no witness
    capped = cantor_times_time(2.0, depth_cap=1)
    assert capped.meets_box((((0.25, 0.5),), (0.0, 1.0))) is Freeness.UNKNOWN
    root = Root(DECLARED_GEOMETRIES[1], (Fraction(0),), Fraction(0), Fraction(1))
    assert capped.meets_run(root.address(1, (3,), 0), 16) is Freeness.UNKNOWN


@given(data=st.data(), which=st.integers(0, len(DECLARED_MODELS) - 1))
@settings(max_examples=300, deadline=None)
def test_a_model_that_declares_no_unknown_answers_none(data, which):
    # the declaration the hole search relies on when it stops at its hole
    model, n = DECLARED_MODELS[which]
    bounds = []
    for _ in range(n):
        lo = data.draw(QUARTERS)
        bounds.append((lo, lo + data.draw(sides)))
    t_lo = data.draw(st.floats(-2.0, 1.0))
    box = (tuple(bounds), (t_lo, t_lo + data.draw(sides)))
    root = Root(DECLARED_GEOMETRIES[n],
                tuple(data.draw(st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1, 2))))
                      for _ in range(n)),
                data.draw(st.sampled_from((Fraction(0), Fraction(-1, 2)))),
                data.draw(st.sampled_from((Fraction(1), Fraction(3, 7)))),
                data.draw(st.sampled_from((Fraction(0), Fraction(1, 8)))))
    level = data.draw(st.integers(0, 3))
    addr = root.address(level, tuple(data.draw(st.integers(0, (1 << root.geom.d * level) - 1))
                                     for _ in range(n)),
                        data.draw(st.integers(-4, root.slab_count(level) + 4)))
    verdicts = {model.meets_box(box), model.meets_run(addr, data.draw(st.integers(1, 40)))}
    if not type(model).answers_unknown:
        assert Freeness.UNKNOWN not in verdicts


INVARIANT_MODELS = [(model, n) for model, n in DECLARED_MODELS if model.time_invariant]
time_bounds = st.one_of(
    st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)).map(lambda t: (t[0], t[0] + t[1])),
    st.just((-math.inf, math.inf)), st.just((0.0, 0.0)), st.just((1.0, -1.0)))


@given(data=st.data(), which=st.integers(0, len(INVARIANT_MODELS) - 1),
       windows=st.lists(time_bounds, min_size=2, max_size=4))
@settings(max_examples=300, deadline=None)
def test_time_invariant_models_ignore_temporal_bounds(data, which, windows):
    # the contract the column search relies on: one verdict per spatial box,
    # whatever the temporal window, empty and reversed windows included
    model, n = INVARIANT_MODELS[which]
    bounds = []
    for _ in range(n):
        lo = data.draw(st.floats(-1.5, 1.5))
        bounds.append((lo, lo + data.draw(sides)))
    verdicts = {model.meets_box((tuple(bounds), window)) for window in windows}
    assert len(verdicts) == 1


grid_coords = st.integers(-20, 12).map(lambda k: k / 8)


def _sub_interval(draw, lo, hi):
    """A subinterval of [lo, hi] whose ends are the interval's own ends,
    eighths inside it, or floats anywhere inside it."""
    def inner(a, b):
        inside = [v / 8 for v in range(math.ceil(a * 8), math.floor(b * 8) + 1)]
        return draw(st.one_of(st.just(a), st.just(b), st.floats(a, b),
                              st.sampled_from(inside or [a])))
    sub_lo = inner(lo, hi)
    return sub_lo, inner(sub_lo, hi)


@given(data=st.data(), which=st.integers(0, len(SPAN_MODELS) - 1))
@settings(max_examples=600, deadline=None)
def test_meets_box_is_monotone_under_inclusion(data, which):
    # the contract the run search relies on: a box E misses has no sub-box
    # E meets; faces fall on eighths, so they often touch the sets' points,
    # box faces and planes
    model, n, _exact = SPAN_MODELS[which]
    bounds = []
    for _ in range(n):
        lo = data.draw(grid_coords)
        bounds.append((lo, lo + data.draw(st.integers(0, 12)) / 8))
    t_lo = data.draw(grid_coords)
    box = (tuple(bounds), (t_lo, t_lo + data.draw(st.integers(0, 12)) / 8))
    sub = (tuple(_sub_interval(data.draw, lo, hi) for lo, hi in bounds),
           _sub_interval(data.draw, *box[1]))
    if model.meets_box(box) is Freeness.EMPTY:
        assert model.meets_box(sub) is Freeness.EMPTY
