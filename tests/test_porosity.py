import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parporo import chains, porosity
from parporo.cli import run
from parporo.geometry import DyadicAddress, Root, new_geometry
from parporo.improvement import HarnessConfig, characterization_harness, tower_partition
from parporo.intervals import Interval
from parporo.porosity import (HoleResult, admissible_collection, admissible_cut,
                              complementary_collection, free_collection,
                              hole_esssup_bracket, hole_of_translate, maximal_hole,
                              porosity_curve, search_for_cuts)
from parporo.sampling import SamplerConfig, draw_roots
from parporo.sets import (BoxUnion, Freeness, HalfSpaceTime, PointCloud,
                          SpatialHyperplane, cantor_times_time,
                          rectangle_free, single_point)


from oracles import (brute_force_hole, brute_force_maximal_free, reference_maximal_free,
                     reference_maximal_hole, reference_run_walk)

REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# hyperplane fixture: frozen enumeration values
# ---------------------------------------------------------------------------


def test_maximal_hole_hyperplane(unit_root, hyperplane):
    hole = maximal_hole(hyperplane, unit_root.address(), 2)
    assert hole.address is not None
    assert hole.address.level == 1
    assert hole.side == Fraction(1, 4)
    assert hole.measure == Fraction(1, 64)
    assert not hole.depth_cap_hit and not hole.unknown_present


def test_maximal_hole_far_set(unit_root):
    far = PointCloud(((10.0, -1e6),))
    hole = maximal_hole(far, unit_root.address(), 3)
    assert hole.address.key() == unit_root.address().key()
    assert hole.measure == 1


def test_maximal_hole_dense_grid_flags_cap(unit_root):
    # grid finer than the depth-cap resolution: no certified hole
    pts = []
    step = 1 / 40  # below the level-1 spatial resolution 1/4... cap at depth 1
    x = -0.5 + step / 3
    while x < 0.5:
        t = -1 + step / 3
        while t < 0.0:
            pts.append((x, t))
            t += 1 / 20
        x += step
    dense = PointCloud(tuple(pts))
    hole = maximal_hole(dense, unit_root.address(), 1)
    assert hole.address is None
    assert hole.measure == 0
    assert hole.depth_cap_hit


def test_free_collection_hyperplane_cap2(unit_root, hyperplane):
    rep = free_collection(hyperplane, unit_root.address(), 2)
    assert rep.covered_fraction == Fraction(15, 16)
    lvl1 = [a for a in rep.rectangles if a.level == 1]
    lvl2 = [a for a in rep.rectangles if a.level == 2]
    assert len(lvl1) == 48 and len(lvl2) == 768
    # pairwise disjoint, exactly
    for i, a in enumerate(rep.rectangles[:80]):
        for b in rep.rectangles[i + 1:80]:
            assert not a.intersects(b)


def test_free_collection_trivial_cases(unit_root):
    free_root = free_collection(PointCloud(((9.0, 9.0),)), unit_root.address(), 2)
    assert [a.key() for a in free_root.rectangles] == [unit_root.address().key()]
    assert free_root.covered_fraction == 1

    from parporo.sets import BoxUnion
    blob = BoxUnion(((((-2.0, 2.0),), (-2.0, 1.0)),))
    covered = free_collection(blob, unit_root.address(), 2)
    assert covered.rectangles == ()
    assert covered.covered_fraction == 0


def test_admissible_collection_hyperplane(unit_root, hyperplane):
    # delta small: every free cell within the cap qualifies
    small = admissible_collection(hyperplane, unit_root.address(),
                                  Fraction(1, 10 ** 6), 2, 2)
    assert small.covered_fraction == Fraction(15, 16)
    assert small.depth_cap_hit  # deeper cells would still qualify
    # delta near one: only the maximal-size class
    top = admissible_collection(hyperplane, unit_root.address(),
                                Fraction(99, 100), 2, 2)
    assert top.covered_fraction == Fraction(3, 4)
    assert all(a.level == 1 for a in top.rectangles)
    assert not top.depth_cap_hit


def test_admissible_free_root_qualifies(unit_root):
    far = PointCloud(((10.0, -1e6),))
    rep = admissible_collection(far, unit_root.address(), Fraction(1, 2), 3, 2)
    assert [a.key() for a in rep.rectangles] == [unit_root.address().key()]
    assert rep.covered_fraction == 1


def test_complementary_collection_hyperplane(unit_root, hyperplane):
    delta = Fraction(99, 100)
    adm = admissible_collection(hyperplane, unit_root.address(), delta, 2, 2)
    comp = complementary_collection(hyperplane, unit_root.address(), delta, 2, 2,
                                    admissible=adm)
    # complements of the three free columns: the 16 level-1 cells of the
    # column containing the hyperplane
    assert len(comp.rectangles) == 16
    assert all(a.level == 1 for a in comp.rectangles)
    assert comp.covered_fraction == Fraction(1, 4)
    for a in comp.rectangles:
        assert not any(a.intersects(f) for f in adm.rectangles)
        assert any(a.parent().intersects(f) for f in adm.rectangles)


def test_complementary_trivial_cases(unit_root):
    far = PointCloud(((10.0, -1e6),))
    adm = admissible_collection(far, unit_root.address(), Fraction(1, 2), 2, 2)
    comp = complementary_collection(far, unit_root.address(), Fraction(1, 2), 2, 2,
                                    admissible=adm)
    assert comp.rectangles == ()  # admissible union covers the root

    from parporo.sets import BoxUnion
    blob = BoxUnion(((((-2.0, 2.0),), (-2.0, 1.0)),))
    adm2 = admissible_collection(blob, unit_root.address(), Fraction(1, 2), 2, 2)
    comp2 = complementary_collection(blob, unit_root.address(), Fraction(1, 2), 2, 2,
                                     admissible=adm2)
    assert comp2.rectangles == ()  # no admissible cells: vacuous


def test_oracle_equivalence_randomized():
    rng = random.Random(20240811)
    agreements = 0
    for trial in range(50):
        p = rng.choice([1.6, 2.0])
        g = new_geometry(1, p, 2)
        root = Root(g, (Fraction(rng.randint(-8, 8), 4),),
                    Fraction(rng.randint(-8, 8), 4),
                    rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]),
                    rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 2)]))
        if rng.random() < 0.5:
            model = SpatialHyperplane(0, rng.uniform(-1.5, 1.5))
        else:
            pts = tuple((rng.uniform(-2, 2), rng.uniform(-3, 1))
                        for _ in range(rng.randint(1, 6)))
            model = PointCloud(pts)
        depth = 3
        fast = maximal_hole(model, root.address(), depth)
        slow = brute_force_hole(model, root.address(), depth)
        if slow is None:
            assert fast.address is None
        else:
            assert fast.address is not None
            assert fast.address.key() == slow.key()
            assert fast.measure == slow.measure_fraction()
        agreements += 1
    assert agreements == 50


def test_free_collection_matches_brute_force(unit_root, hyperplane):
    fast = free_collection(hyperplane, unit_root.address(), 2)
    slow = brute_force_maximal_free(hyperplane, unit_root.address(), 2)
    assert sorted(a.key() for a in fast.rectangles) == sorted(a.key() for a in slow)


def test_delta_monotonicity(unit_root, hyperplane):
    # F_delta grows as delta decreases, as address sets
    keys = None
    for delta in [Fraction(9, 10), Fraction(1, 10), Fraction(1, 1000)]:
        rep = admissible_collection(hyperplane, unit_root.address(), delta, 2, 3)
        fresh = {a.key() for a in rep.rectangles}
        if keys is not None:
            assert keys <= fresh
        keys = fresh


def test_porosity_scan_deterministic_and_monotone(hyperplane, geom12):
    config = SamplerConfig(seed=9, samples=10)
    deltas = [Fraction(1, 2), Fraction(1, 128), Fraction(1, 8192)]
    roots = draw_roots(geom12, config)
    reports = porosity_curve(hyperplane, roots, deltas, 15, 3)
    cs = [rep.empirical_c for rep in reports]
    assert cs == sorted(cs)  # nondecreasing as delta decreases
    again = porosity_curve(hyperplane, roots, deltas, 15, 3)
    assert [r.empirical_c for r in again] == cs
    assert [r.witness_index for r in again] == [r.witness_index for r in reports]


def test_porosity_scan_far_set(geom12):
    far = PointCloud(((50.0, -1e9),))
    rep = porosity_curve(far, draw_roots(geom12, SamplerConfig(seed=1, samples=5)),
                         [Fraction(1, 2)], 15, 2)[0]
    assert rep.empirical_c == 1


def test_hole_esssup_bracket_window(unit_root, hyperplane):
    # sup over the root of dist to the plane is 1/2 exactly
    sup, ok = hole_esssup_bracket(hyperplane, unit_root.address())
    assert ok and sup.lo == sup.hi == pytest.approx(0.5)
    # window of the hole proposition: [l_x(M)/2, 2^d l_x(M)] = [1/8, 1]
    hole = maximal_hole(hyperplane, unit_root.address(), 2)
    window = Interval(float(hole.side) / 2, float(hole.side) * 4)
    assert window.overlaps(sup)


def test_hole_esssup_covered_rect():
    g = new_geometry(1, 2.0)
    root = Root(g, (Fraction(0),), Fraction(0), Fraction(1), Fraction(0))
    from parporo.sets import BoxUnion
    blob = BoxUnion(((((-2.0, 2.0),), (-2.0, 1.0)),))
    sup, ok = hole_esssup_bracket(blob, root.address())
    assert ok and sup.hi == 0.0


# ---------------------------------------------------------------------------
# one search kernel: the hole is the first free level of the free search
# ---------------------------------------------------------------------------


def _hole_of_search(search):
    """The maximal hole read off a free search: the first member of its
    first level that has one."""
    for level, count in enumerate(search.level_counts):
        if count:
            best = search.rectangles[0]
            return HoleResult(best, best.measure_fraction(), best.l_x(),
                              unknown_present=any(search.unknown_levels[:level + 1]))
    return HoleResult(None, Fraction(0), Fraction(0), search.depth_cap_hit,
                      search.unknown_present)


# (model, (center, top time) of the unit roots searched, caps); the face of
# the half space crosses the root with top time 1/3, and the Cantor models
# meet UNKNOWN verdicts below their own caps
UNIT_ROOTS = ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)),
              (Fraction(0), Fraction(1, 3)))
KERNEL_CASES = [
    ("hyperplane", UNIT_ROOTS, range(4)),
    ("origin_point", UNIT_ROOTS, range(4)),
    ("coarse_grid", UNIT_ROOTS, range(4)),
    ("halfspace", UNIT_ROOTS, range(4)),
    (1, UNIT_ROOTS[1:2], range(4)),
    (2, UNIT_ROOTS[1:2], range(4)),
]


@pytest.mark.parametrize("model, roots, caps", KERNEL_CASES,
                         ids=["hyperplane", "point", "grid", "halfspace",
                              "cantor-cap1", "cantor-cap2"])
def test_hole_is_first_level_of_free_search(request, geom12, model, roots, caps):
    cantor = isinstance(model, int)
    model = cantor_times_time(depth_cap=model) if cantor else request.getfixturevalue(model)
    seen = []
    for center, top in roots:
        base = Root(geom12, (center,), top, Fraction(1), Fraction(0)).address()
        for cap in caps:
            hole = maximal_hole(model, base, cap)
            search = porosity._maximal_free(model, base, cap)
            assert hole == _hole_of_search(search)
            seen.append((hole, search))
    assert any(hole.address is None for hole, _search in seen)
    assert any(hole.address is not None for hole, _search in seen)
    if cantor:
        assert any(search.unknown_present for _hole, search in seen)


def _count_search_work(monkeypatch):
    """Levels of the runs the kernel tests, and of the cells it subdivides
    through ``children()`` and ``spatial_children()``; ``runs`` lists each
    tested run as (spatial, temporal, slab count)."""
    tested, expanded, columns, runs = [], [], [], []
    real_freeness = porosity._freeness
    real_children = DyadicAddress.children
    real_spatial = DyadicAddress.spatial_children

    def counting_freeness(model, addr, run):
        tested.append(addr.level)
        runs.append((addr.spatial, addr.temporal, run))
        return real_freeness(model, addr, run)

    def counting_children(addr):
        expanded.append(addr.level)
        return real_children(addr)

    def counting_spatial(addr):
        columns.append(addr.level)
        return real_spatial(addr)

    monkeypatch.setattr(porosity, "_freeness", counting_freeness)
    monkeypatch.setattr(DyadicAddress, "children", counting_children)
    monkeypatch.setattr(DyadicAddress, "spatial_children", counting_spatial)
    return tested, expanded, columns, runs


def test_maximal_hole_stops_at_the_hole_level(monkeypatch, unit_root, origin_point):
    # a time-dependent set: each level-1 column is one run of 16 slabs; the
    # search takes them by (temporal, spatial) and column 0, the least, is
    # free, so it is the only level-1 run tested
    tested, expanded, columns, runs = _count_search_work(monkeypatch)
    hole = maximal_hole(origin_point, unit_root.address(), 3)
    assert hole.address.key() == (1, (0,), 0)
    # no level-1 cell is subdivided
    assert columns == [0] and expanded == []
    assert tested == [0, 1]
    assert runs == [((0,), 0, 1), ((0,), 0, 16)]


def test_free_collection_bisects_lower_half_first(monkeypatch, unit_root, origin_point):
    # the full walk of level 1: only the run holding the point (-0.5 lies on
    # slab 8's lower face) is bisected, lower half first, down to single slabs
    tested, expanded, columns, runs = _count_search_work(monkeypatch)
    search = free_collection(origin_point, unit_root.address(), 1)
    assert search.level_counts == (0, 63)
    assert columns == [0] and expanded == []
    assert tested == [0] + [1] * 12
    assert [r for r in runs if r[0] == (2,)] == [
        ((2,), 0, 16), ((2,), 0, 8), ((2,), 8, 8), ((2,), 8, 4), ((2,), 8, 2),
        ((2,), 8, 1), ((2,), 9, 1), ((2,), 10, 2), ((2,), 12, 4)]


def test_maximal_hole_tests_one_cell_per_column(monkeypatch, unit_root, hyperplane):
    # a time-invariant set: one cell per spatial column, so the hole's one
    # run stands for the 16 cells of column 0, and the full walk's 4
    # level-1 runs for 64 cells
    tested, expanded, columns, _runs = _count_search_work(monkeypatch)
    hole = maximal_hole(hyperplane, unit_root.address(), 3)
    assert hole.address.key() == (1, (0,), 0)
    assert columns == [0] and expanded == []
    assert tested == [0, 1]
    tested.clear()
    search = free_collection(hyperplane, unit_root.address(), 1)
    assert search.level_counts == (0, 48)
    assert tested == [0] + [1] * (1 << unit_root.geom.d)


def test_stopping_report_freeness_tests(monkeypatch, capsys):
    # the layered stopping report: one hole search per address, the root
    # translate's included, each stopping at its hole, and one admissible
    # search of the root, which walks all its levels
    tested, _expanded, columns, _runs = _count_search_work(monkeypatch)
    holes, validated = [], []
    real_hole = porosity.maximal_hole
    real_validation = DyadicAddress.__post_init__

    def counting_validation(addr):
        validated.append(addr.key())
        real_validation(addr)

    def counting_hole(model, addr, depth_cap):
        start = len(tested)
        hole = real_hole(model, addr, depth_cap)
        holes.append((addr.key(), len(tested) - start))
        return hole

    monkeypatch.setattr(chains, "maximal_hole", counting_hole)
    monkeypatch.setattr(DyadicAddress, "__post_init__", counting_validation)
    monkeypatch.chdir(REPO)
    assert run(["stopping", "--set", "fixtures/layered.json", "--delta", "1/64",
                "--cap", "3"]) == 0
    capsys.readouterr()
    assert len(holes) == len({key for key, _count in holes}) == 115
    assert sum(count for _key, count in holes) == 4437
    assert len(tested) == 6180
    # children are built only for the parents a search reaches, and only
    # the root address is validated: every other one is derived from it
    assert len(columns) == 134
    assert validated == [(0, (0,), 0)]


# ---------------------------------------------------------------------------
# columns and slab multiplicities against the full walk
# ---------------------------------------------------------------------------


QUOTIENT_GEOMS = {p: new_geometry(1, p) for p in (2.0, 1.5, math.e)}


@st.composite
def invariant_searches(draw):
    """A time-invariant model, a base at levels 0-2 with its temporal index
    translated (negative ones included) and a search cap; the plane lies on
    a lattice face of the base or anywhere near it."""
    p = draw(st.sampled_from(sorted(QUOTIENT_GEOMS)))
    g = QUOTIENT_GEOMS[p]
    root = Root(g, (Fraction(draw(st.integers(-2, 6)), 4),),
                Fraction(draw(st.integers(-8, 8)), 4),
                draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)])),
                Fraction(draw(st.integers(0, 8)), 16))
    level = draw(st.integers(0, 2))
    base = root.address(level, (draw(st.integers(0, (1 << (g.d * level)) - 1)),),
                        draw(st.integers(-3, 20)))
    (lo, hi), = base.spatial_intervals()
    kind = draw(st.sampled_from(["face", "plane", "cantor"]))
    if kind == "face":
        face = draw(st.integers(level, level + 3))
        steps = draw(st.integers(0, 1 << (g.d * (face - level))))
        model = SpatialHyperplane(0, float(lo + steps * root.l_x_at(face)))
    elif kind == "plane":
        model = SpatialHyperplane(0, draw(st.floats(float(lo) - 0.25, float(hi) + 0.25)))
    else:
        model = cantor_times_time(p, depth_cap=draw(st.integers(1, 2)))
    # the full walk grows with K per level: cap 3 only where it stays small
    cap = draw(st.integers(0, 3 if kind != "cantor" and p == 2.0 else 2))
    return model, base, cap


def _root_at(p, center, gamma0=Fraction(0)):
    return Root(QUOTIENT_GEOMS[p], (center,), Fraction(0), Fraction(1), gamma0)


@given(case=invariant_searches())
@example(case=(SpatialHyperplane(0, 0.0),
               _root_at(2.0, Fraction(0)).address(1, (2,), -2), 2))
@example(case=(SpatialHyperplane(0, 0.1),
               _root_at(1.5, Fraction(0), Fraction(1, 4)).address(1, (4,), 5), 2))
@example(case=(cantor_times_time(math.e, depth_cap=2),
               _root_at(math.e, Fraction(1, 2), Fraction(3, 16)).address(0, (0,), -3), 2))
@settings(max_examples=60, deadline=None)
def test_column_search_matches_the_full_walk(case):
    model, base, cap = case
    assert model.time_invariant
    search = porosity._maximal_free(model, base, cap)
    ref = reference_maximal_free(model, base, cap)
    assert [a.key() for a in search.rectangles] == [a.key() for a in ref.members]
    assert len(search.rectangles) == len(ref.members)
    assert search.level_counts == ref.level_counts
    assert search.unknown_levels == ref.unknown_levels
    assert search.depth_cap_hit == ref.depth_cap_hit
    assert search.total_measure == ref.total_measure
    assert maximal_hole(model, base, cap) == reference_maximal_hole(model, base, cap)


def _exact_time(root, offset):
    """The absolute time ``offset`` l_t(root) past the root's lower face,
    worked out from the exact offset instead of a realized face."""
    return root.t_lo_float() + float(offset) * root.l_t_root_float()


@st.composite
def dependent_searches(draw):
    """A point cloud, box union or half space near a base at levels 0-2 with
    its temporal index translated (negative ones included), and a search
    cap.  Coordinates fall on lattice faces, worked out exactly or read off
    a realized cell, or anywhere near the base."""
    p = draw(st.sampled_from(sorted(QUOTIENT_GEOMS)))
    g = QUOTIENT_GEOMS[p]
    root = Root(g, (Fraction(draw(st.integers(-2, 6)), 4),),
                Fraction(draw(st.integers(-8, 8)), 4),
                draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)])),
                Fraction(draw(st.integers(0, 8)), 16))
    level = draw(st.integers(0, 2))
    base = root.address(level, (draw(st.integers(0, (1 << (g.d * level)) - 1)),),
                        draw(st.integers(-3, 20)))
    (x_lo, x_hi), = base.spatial_intervals()
    t_lo, t_hi = base.temporal_offsets()
    kind = draw(st.sampled_from(["points", "boxes", "future", "past"]))
    # a half space meets a whole band of cells: keep the band and the walk thin
    cap = draw(st.integers(0, 2 if kind in ("future", "past") and p != 2.0 else 3))

    def x_coord():
        if draw(st.booleans()):
            face = draw(st.integers(level, level + 3))
            steps = draw(st.integers(0, 1 << (g.d * (face - level))))
            return float(x_lo + steps * root.l_x_at(face))
        margin = (x_hi - x_lo) / 8
        return draw(st.floats(float(x_lo - margin), float(x_hi + margin)))

    def t_coord(lo, hi):
        """A time between offsets ``lo`` and ``hi`` (in l_t(root) units)."""
        how = draw(st.sampled_from(["exact", "realized", "any"]))
        if how == "any":
            return draw(st.floats(_exact_time(root, lo), _exact_time(root, hi)))
        face = level + draw(st.integers(0, 3))
        K = root.slab_count(face)
        slab = draw(st.integers(math.ceil(lo * K), math.floor(hi * K)))
        if how == "exact":
            return _exact_time(root, Fraction(slab, K))
        return DyadicAddress(root, face, (0,), slab).realize().t_lo(p)

    deep = Fraction(1, root.slab_count(level + cap))
    if kind == "points":
        around = (t_lo - deep, t_hi + deep)
        model = PointCloud(tuple((x_coord(), t_coord(*around))
                                 for _ in range(draw(st.integers(1, 4)))))
    elif kind == "boxes":
        boxes = []
        for _ in range(draw(st.integers(1, 2))):
            x = x_coord()
            t = t_coord(t_lo - deep, t_hi + deep)
            wide = float(root.l_x_at(level + 2)) * draw(st.integers(0, 2))
            long = float(root.l_t_fraction_of(level + 2) * root.l_t_root_float()) \
                * draw(st.integers(0, 2))
            boxes.append((((x, x + wide),), (t, t + long)))
        model = BoxUnion(tuple(boxes))
    elif kind == "future":
        model = HalfSpaceTime(t_coord(t_hi - 2 * deep, t_hi + deep), future=True)
    else:
        model = HalfSpaceTime(t_coord(t_lo - deep, t_lo + 2 * deep), future=False)
    return model, base, cap


def _past_through_a_face():
    """E = {t <= t0} with t0 a level-2 face inside a translated level-1 base,
    worked out from the exact offset."""
    root = _root_at(1.5, Fraction(0), Fraction(1, 4))
    base = root.address(1, (3,), -2)
    t0 = _exact_time(root, Fraction(base.temporal * root.k_at(1) + 3, root.slab_count(2)))
    return HalfSpaceTime(t0, future=False), base, 2


@given(case=dependent_searches())
@example(case=(PointCloud(((0.0, -0.5),)), _root_at(2.0, Fraction(0)).address(), 3))
@example(case=_past_through_a_face())
@example(case=(BoxUnion(((((0.25, 0.5),), (-0.5, -0.4375)),)),
               _root_at(math.e, Fraction(1, 2)).address(), 3))
@settings(max_examples=80, deadline=None)
def test_run_search_matches_the_full_walk(case):
    # slab runs on time-dependent sets: a run E misses is free slab by
    # slab, and bisection finds the rest, so the walk keeps every member,
    # count and flag of the full walk, faces that E touches included
    model, base, cap = case
    assert not model.time_invariant
    search = porosity._maximal_free(model, base, cap)
    ref = reference_maximal_free(model, base, cap)
    assert [a.key() for a in search.rectangles] == [a.key() for a in ref.members]
    assert search.level_counts == ref.level_counts
    assert search.unknown_levels == ref.unknown_levels
    assert search.depth_cap_hit == ref.depth_cap_hit
    assert search.total_measure == ref.total_measure
    assert maximal_hole(model, base, cap) == reference_maximal_hole(model, base, cap)


def _near_face(draw, lo, hi, neighbour_lo):
    """A coordinate on a half-open interval's lower or upper face, on the
    next interval's lower face, one float below any of them, or inside."""
    face = draw(st.sampled_from((lo, hi, neighbour_lo, 0.5 * (lo + hi))))
    return math.nextafter(face, -math.inf) if draw(st.booleans()) else face


@st.composite
def ordered_holes(draw):
    """A point cloud with points on and next to the faces of lattice cells
    (rounded column faces that neighbours share included), or the Cantor
    set at a model cap of 1 or 2, and a base at level 0 or 1."""
    p = draw(st.sampled_from((2.0, 1.5)))
    g = QUOTIENT_GEOMS[p]
    root = Root(g, (draw(st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1, 2)))),),
                draw(st.sampled_from((Fraction(0), Fraction(3, 7)))),
                draw(st.sampled_from((Fraction(1), Fraction(3, 7)))),
                draw(st.sampled_from((Fraction(0), Fraction(1, 8)))))
    level = draw(st.integers(0, 1))
    base = root.address(level, (draw(st.integers(0, (1 << g.d * level) - 1)),),
                        draw(st.integers(-1, 1)))
    cap = draw(st.integers(1, 2 if p == 2.0 else 1))
    if draw(st.booleans()):
        return cantor_times_time(p, depth_cap=draw(st.integers(1, 2))), base, cap
    points = []
    for _ in range(draw(st.integers(1, 5))):
        level = base.level + draw(st.integers(1, cap))
        cells = 1 << (g.d * level)
        width = 1 << (g.d * (level - base.level))
        spatial = base.spatial[0] * width + draw(st.integers(0, width - 1))
        slabs = root.slab_count(level) // root.slab_count(base.level)
        addr = root.address(level, (spatial,),
                            base.temporal * slabs + draw(st.integers(0, slabs - 1)))
        (x_lo, x_hi), = addr.run_box(1)[0]
        x_next = (root.address(level, (spatial + 1,), addr.temporal).run_box(1)[0][0][0]
                  if spatial + 1 < cells else x_hi)
        t_lo, t_hi = addr.run_faces(1)
        t_next = addr._with_temporal(addr.temporal + 1).run_faces(1)[0]
        points.append((_near_face(draw, x_lo, x_hi, x_next),
                       _near_face(draw, t_lo, t_hi, t_next)))
    return PointCloud(tuple(points)), base, cap


def _stack_first_is_not_least():
    # column 0 meets the point in slab 0, so the full walk's stack bisects
    # it and meets its free slab 1 first; column 1 is free from slab 0
    root = _root_at(2.0, Fraction(0))
    return PointCloud(((-0.4, -1 + 1 / 32),)), root.address(), 2


def _on_a_shared_face():
    # a point on the overlap of two columns' rounded faces lies in both
    root = Root(QUOTIENT_GEOMS[2.0], (Fraction(1, 3),), Fraction(3, 7), Fraction(3, 7),
                Fraction(1, 8))
    left, right = root.address(2, (3,), 5), root.address(2, (4,), 5)
    assert right.run_box(1)[0][0][0] < left.run_box(1)[0][0][1]
    return PointCloud(((right.run_box(1)[0][0][0], left.run_faces(1)[0]),)), \
        root.address(), 2


@given(case=ordered_holes())
@example(case=_stack_first_is_not_least())
@example(case=_on_a_shared_face())
# level 1: columns 0 and 1 miss the Cantor set, column 2 holds the witness
# 0 and column 3 meets a cylinder at the cap, an UNKNOWN after the hole
@example(case=(cantor_times_time(2.0, depth_cap=1), _root_at(2.0, Fraction(0)).address(), 2))
@example(case=(cantor_times_time(2.0, depth_cap=2), _root_at(2.0, Fraction(0)).address(), 2))
@settings(max_examples=120, deadline=None)
def test_maximal_hole_is_the_least_free_cell_of_the_full_walk(case):
    # the hole search stops at its first free run: it must be the full
    # walk's least free cell by (temporal, spatial), with the full walk's
    # flags, an UNKNOWN verdict after the hole included
    model, base, cap = case
    hole = maximal_hole(model, base, cap)
    ref = reference_maximal_hole(model, base, cap)
    assert (hole.address, hole.measure, hole.side) == (ref.address, ref.measure, ref.side)
    assert (hole.depth_cap_hit, hole.unknown_present) == \
        (ref.depth_cap_hit, ref.unknown_present)


WALK_ROOTS = {(n, p): Root(new_geometry(n, p), (Fraction(1, 3), Fraction(-2, 7))[:n],
                           Fraction(3, 7), Fraction(1), Fraction(1, 8))
              for n, p in ((1, 2.0), (1, 1.5), (2, 2.0))}


@st.composite
def lazy_walks(draw):
    """A random point cloud at n = 1 or 2, the time-invariant hyperplane or
    the Cantor set, which answers UNKNOWN; a base at level 0 or 1 and a
    search cap."""
    kind = draw(st.sampled_from(["points", "hyperplane", "cantor"]))
    n = draw(st.sampled_from((1, 2))) if kind == "points" else 1
    p = 2.0 if n == 2 else draw(st.sampled_from((2.0, 1.5)))
    root = WALK_ROOTS[n, p]
    level = draw(st.integers(0, 1))
    base = root.address(level, tuple(draw(st.integers(0, (1 << root.geom.d * level) - 1))
                                     for _ in range(n)), draw(st.integers(-2, 2)))
    cap = draw(st.integers(1, 2))
    if kind == "hyperplane":
        (lo, hi), = base.spatial_intervals()
        return SpatialHyperplane(0, draw(st.floats(float(lo), float(hi)))), base, cap
    if kind == "cantor":
        return cantor_times_time(p, depth_cap=draw(st.integers(1, 2))), base, cap
    spatial, (t_lo, t_hi) = base.run_box(1)
    points = [tuple(draw(st.floats(lo, hi)) for lo, hi in spatial) + (draw(st.floats(t_lo, t_hi)),)
              for _ in range(draw(st.integers(1, 6)))]
    return PointCloud(tuple(points)), base, cap


def _record_walk(walk, model, base, cap, first_free):
    """Every level's (free, unknown, rest) as keys, and the runs tested."""
    tested = []
    real = porosity._freeness

    def recording(model, addr, run):
        tested.append((addr.key(), run))
        return real(model, addr, run)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(porosity, "_freeness", recording)
        levels = [([(a.key(), m) for a, m in free], unknown, [(a.key(), m) for a, m in rest])
                  for free, unknown, rest in walk(model, base, cap, first_free=first_free)]
    return levels, tested


@given(case=lazy_walks(), first_free=st.booleans())
@example(case=(cantor_times_time(2.0, depth_cap=1), WALK_ROOTS[1, 2.0].address(), 2),
         first_free=True)
# two neighbouring level-1 cells of one slab hold a point each, so their
# level-2 children interleave in (temporal, spatial) order
@example(case=(PointCloud(((0.0, -0.7, -0.55), (0.0, -0.4, -0.55))),
               WALK_ROOTS[2, 2.0].address(), 2), first_free=False)
@settings(max_examples=80, deadline=None)
def test_lazy_walk_tests_what_the_eager_walk_tested(case, first_free):
    # children made only when their parent comes off the heap: the same
    # runs are tested in the same order, with the same levels, as when
    # every level's frontier is built in full
    model, base, cap = case
    got = _record_walk(porosity._walk, model, base, cap, first_free)
    want = _record_walk(reference_run_walk, model, base, cap, first_free)
    assert got == want


def test_hole_of_translate_integer_vs_real(unit_root, hyperplane):
    # time-independent set: holes agree across translations
    a = hole_of_translate(hyperplane, unit_root.address(), 3, 2)
    b = hole_of_translate(hyperplane, unit_root.address(), 2.5, 2)
    assert a.measure == b.measure == Fraction(1, 64)


# ---------------------------------------------------------------------------
# one search per root: level cuts against fresh searches
# ---------------------------------------------------------------------------


def _assert_cuts_match_fresh(model, base, deltas, cap, hole):
    search = search_for_cuts(model, base, hole, deltas, cap)
    fresh_at = [porosity._maximal_free(model, base, i) for i in range(search.depth + 1)]
    for levels, fresh in enumerate(fresh_at):
        cut = search.to_depth(levels)
        assert cut == fresh
        assert all(a is b for a, b in zip(cut.rectangles, search.rectangles))
    for delta in deltas:
        adm = admissible_cut(search, hole, delta, cap)
        assert adm == admissible_collection(model, base, delta, None, cap, hole=hole)
        fresh = fresh_at[_cut_levels(base, hole, delta, cap)]
        for field in ("rectangles", "total_measure", "covered_fraction"):
            assert getattr(adm, field) == getattr(fresh, field)
        assert adm.unknown_present == (fresh.unknown_present or hole.unknown_present)
    return search


def _cut_levels(base, hole, delta, cap):
    """Deepest level within the cap whose cells reach the threshold."""
    if hole.measure == 0:
        return cap
    measures = [base.root.measure_fraction_at(base.level + i) for i in range(cap + 1)]
    return max(i for i, m in enumerate(measures) if m >= delta * hole.measure)


DELTAS = [Fraction(99, 100), Fraction(1, 2), Fraction(1, 128), Fraction(1, 8192)]


@pytest.mark.parametrize("p, cap", [(2.0, 3), (1.5, 2)])
def test_cuts_match_fresh_searches_hyperplane(hyperplane, p, cap):
    g = new_geometry(1, p)
    base = Root(g, (Fraction(1, 8),), Fraction(0), Fraction(1), Fraction(1, 4)).address()
    hole = hole_of_translate(hyperplane, base, 3, cap)
    search = _assert_cuts_match_fresh(hyperplane, base, DELTAS, cap, hole)
    assert search.depth == cap and search.depth_cap_hit


@pytest.mark.parametrize("fixture", ["origin_point", "coarse_grid"])
def test_cuts_match_fresh_searches_point_sets(unit_root, fixture, request):
    model = request.getfixturevalue(fixture)
    base = unit_root.address()
    hole = hole_of_translate(model, base, 15, 3)
    _assert_cuts_match_fresh(model, base, DELTAS, 3, hole)


def test_cut_without_hole_is_the_full_search(unit_root, hyperplane):
    # no certified hole: the cut is the whole capped search and flags the cap
    no_hole = HoleResult(None, Fraction(0), Fraction(0), depth_cap_hit=True)
    base = unit_root.address()
    search = _assert_cuts_match_fresh(hyperplane, base, [Fraction(1, 2)], 2, no_hole)
    adm = admissible_cut(search, no_hole, Fraction(1, 2), 2)
    assert adm.rectangles == search.rectangles and adm.depth_cap_hit

    pts = [(-0.5 + i / 40 + 1 / 120, -1 + j / 20 + 1 / 120)
           for i in range(40) for j in range(20)]
    dense = PointCloud(tuple(pts))
    hole = hole_of_translate(dense, base, 0, 1)
    assert hole.measure == 0 and hole.depth_cap_hit
    _assert_cuts_match_fresh(dense, base, [Fraction(1, 2)], 1, hole)


def test_cut_keeps_unknowns_below_it_out():
    # the base [-1/8, 7/8): of its level-1 cells, [1/8, 3/8) holds the
    # depth-2 witness 2/9 = f_0(f_1(0)) but no depth-1 witness, so it is
    # UNKNOWN at model cap 1 and NONEMPTY at cap 2; [3/8, 5/8) lies in the
    # gap (1/3, 2/3) and is the hole.  At level 2, [1/4, 5/16) holds
    # 1/4 = 0.(02) in base 3 but no witness of depth <= 2: UNKNOWN at cap 2
    g = new_geometry(1, 2.0)
    base = Root(g, (Fraction(3, 8),), Fraction(0), Fraction(1), Fraction(0)).address()
    shallow_model = cantor_times_time(depth_cap=1)
    search = porosity._maximal_free(shallow_model, base, 1)
    assert search.unknown_levels == (False, True)
    assert not search.to_depth(0).unknown_present
    assert search.to_depth(0) == porosity._maximal_free(shallow_model, base, 0)

    # the cut at delta 1/2 stops one level above the only UNKNOWN verdicts
    model = cantor_times_time(depth_cap=2)
    hole = hole_of_translate(model, base, 15, 2)
    assert not hole.unknown_present
    search = _assert_cuts_match_fresh(model, base, [Fraction(1, 2), Fraction(1, 1000)],
                                      2, hole)
    assert search.unknown_levels == (False, False, True)
    assert not admissible_cut(search, hole, Fraction(1, 2), 2).unknown_present


def test_shallow_search_that_ran_out_serves_deeper_cuts(unit_root):
    far = PointCloud(((10.0, -1e6),))
    search = porosity._maximal_free(far, unit_root.address(), 0)
    assert not search.depth_cap_hit
    assert search.to_depth(2) == porosity._maximal_free(far, unit_root.address(), 2)


def test_one_search_per_root(monkeypatch, hyperplane, geom12, unit_root):
    searched = []
    holes = []
    real = porosity._maximal_free
    real_hole = porosity.maximal_hole

    def counting(model, root_addr, depth_cap):
        searched.append(root_addr.root)
        return real(model, root_addr, depth_cap)

    def counting_holes(model, root_addr, depth_cap):
        holes.append(root_addr.root)
        return real_hole(model, root_addr, depth_cap)

    monkeypatch.setattr(porosity, "_maximal_free", counting)
    monkeypatch.setattr(porosity, "maximal_hole", counting_holes)
    roots = draw_roots(geom12, SamplerConfig(seed=9, samples=6))
    curve = porosity_curve(hyperplane, roots, DELTAS[1:], 15, 3)
    assert searched == roots

    # a shallower curve's searches are cut where they serve, searched again
    # where a deeper cut meets non-free cells they left behind
    shallow = porosity_curve(hyperplane, roots, [Fraction(1, 2)], 15, 3)
    searched.clear()
    again = porosity_curve(hyperplane, roots, DELTAS[1:], 15, 3,
                           searches=shallow[0].searches)
    assert again == curve
    assert searched == [s.base.root for s in shallow[0].searches if s.depth_cap_hit]
    assert 0 < len(searched) < len(roots)

    searched.clear()
    tower_partition(hyperplane, unit_root.address(), DELTAS[1:], 15, 3)
    assert searched == [unit_root]

    # both curves of the harness: theta does not change the plane's holes,
    # and each curve finds one hole per root (the cross check's first hole
    # is the cross curve's)
    searched.clear()
    holes.clear()
    characterization_harness(hyperplane, geom12, HarnessConfig(samples=4, depth_cap=2))
    assert len(searched) == 4 and len({id(r) for r in searched}) == 4
    assert len(holes) == 8 and all(holes.count(r) == 2 for r in searched)
