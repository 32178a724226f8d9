"""Point clouds answer lattice runs from the sorted times of a column.

``PointCloud.meets_run(addr, run)`` must give the verdict of
``meets_box(addr.run_box(run))`` bit for bit: membership is half open on
the same float faces, a point on the overlap of two neighbouring columns'
rounded faces lies in both, and a point in no column lies in none.  The
searches reach it through ``porosity._freeness`` and never build a box.
Each column is found once per spatial grid.
"""

import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parporo import porosity, sets
from parporo.cli import run
from parporo.geometry import Root, new_geometry
from parporo.porosity import porosity_curve
from parporo.sampling import SamplerConfig, draw_roots
from parporo.sets import Freeness, PointCloud

from oracles import reference_walk

REPO = Path(__file__).resolve().parent.parent
GEOMETRIES = {(n, p): new_geometry(n, p) for n in (1, 2) for p in (2.0, 1.5, math.e)}
CENTERS = (Fraction(0), Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2))
SIDES = (Fraction(1), Fraction(3, 7), Fraction(1, 2), Fraction(5, 3))
TOPS = st.one_of(st.sampled_from((Fraction(0), Fraction(3, 7), Fraction(13, 10),
                                  Fraction(-5, 3))),
                 st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))


def box_verdict(cloud, addr, run_):
    return cloud.meets_box(addr.run_box(run_))


def near_face(draw, lo, hi, neighbour_lo):
    """A coordinate on or next to the faces of a half-open interval: its
    lower face, its upper face and the neighbour's lower face (which may
    lie below it when the rounded faces overlap), one float below each,
    or the middle."""
    face = draw(st.sampled_from((lo, hi, neighbour_lo, 0.5 * (lo + hi))))
    return math.nextafter(face, -math.inf) if draw(st.booleans()) else face


@st.composite
def clouds_on_faces(draw):
    n = draw(st.sampled_from((1, 2)))
    p = draw(st.sampled_from((2.0, 1.5, math.e)))
    geom = GEOMETRIES[n, p]
    root = Root(geom, tuple(draw(st.sampled_from(CENTERS)) for _ in range(n)),
                draw(TOPS), draw(st.sampled_from(SIDES)),
                draw(st.sampled_from((Fraction(0), Fraction(1, 8), Fraction(3, 8)))))
    sources, points = [], []
    for _ in range(draw(st.integers(1, 4))):
        level = draw(st.integers(0, 2))
        cells = 1 << (geom.d * level)
        spatial = tuple(draw(st.integers(0, cells - 1)) for _ in range(n))
        temporal = draw(st.integers(-2, root.slab_count(level) + 1))
        addr = root.address(level, spatial, temporal)
        (bounds, (tlo, thi)) = addr.run_box(1)
        xs = []
        for axis, (lo, hi) in enumerate(bounds):
            if spatial[axis] + 1 < cells:
                step = tuple(s + (j == axis) for j, s in enumerate(spatial))
                neighbour = root.address(level, step, temporal).run_box(1)[0][axis][0]
            else:
                neighbour = hi
            xs.append(near_face(draw, lo, hi, neighbour))
        # the upper face of a slab is truncated when gamma > 0
        t_next = addr._with_temporal(temporal + 1).run_faces(1)[0]
        sources.append(addr)
        points.append((*xs, near_face(draw, tlo, thi, t_next)))
    return root, PointCloud(tuple(points)), sources


def queries(root, sources):
    """Runs at the sources' levels and one level either side, in the
    sources' columns and their neighbours, from one to K slabs long."""
    geom = root.geom
    for addr in sources:
        for level in (addr.level - 1, addr.level, addr.level + 1):
            if not 0 <= level <= 3:
                continue
            cells = 1 << (geom.d * level)
            slabs = root.slab_count(level)
            if level < addr.level:
                home = addr.ancestor(level)
            elif level > addr.level:
                home = addr.spatial_children()[-1]
            else:
                home = addr
            lengths = sorted({1, 2, 3, slabs // 2 + 1, slabs})
            for offset in ((0,) * geom.n, *(tuple(int(j == axis) * step
                                                  for j in range(geom.n))
                                            for axis in range(geom.n) for step in (-1, 1))):
                spatial = tuple(s + o for s, o in zip(home.spatial, offset))
                if not all(0 <= s < cells for s in spatial):
                    continue
                for length in lengths:
                    for start in (home.temporal - length + 1, home.temporal - 1,
                                  home.temporal, home.temporal + 1):
                        yield root.address(level, spatial, start), length


@given(case=clouds_on_faces())
@settings(max_examples=150, deadline=None)
def test_meets_run_is_meets_box_on_the_run_box(case):
    root, cloud, sources = case
    for addr, length in queries(root, sources):
        assert cloud.meets_run(addr, length) is box_verdict(cloud, addr, length), \
            (addr, length)


def overlapping_faces(root, level):
    """Columns ``s`` whose rounded upper face lies above column ``s + 1``'s
    lower face at ``level``, along the first axis."""
    cells = 1 << (root.geom.d * level)
    faces = [root.address(level, (s,), 0).run_box(1)[0][0] for s in range(cells)]
    return [s for s in range(cells - 1) if faces[s + 1][0] < faces[s][1]]


def test_a_point_on_overlapping_faces_lies_in_both_columns():
    root = Root(GEOMETRIES[1, 2.0], (Fraction(1, 3),), Fraction(3, 7), Fraction(3, 7),
                Fraction(1, 8))
    overlaps = overlapping_faces(root, 2)
    assert overlaps, "the rounded faces of this root should overlap somewhere"
    s = overlaps[0]
    left, right = root.address(2, (s,), 5), root.address(2, (s + 1,), 5)
    x = right.run_box(1)[0][0][0]
    t = left.run_faces(1)[0]  # on the slab's lower face, which is inside it
    cloud = PointCloud(((x, t),))
    for addr in (left, right):
        assert box_verdict(cloud, addr, 1) is Freeness.NONEMPTY
        assert cloud.meets_run(addr, 1) is Freeness.NONEMPTY
    for start in range(2, 7):
        for length in (1, 2, 3):
            for addr in (left._with_temporal(start), right._with_temporal(start)):
                assert cloud.meets_run(addr, length) is box_verdict(cloud, addr, length)


def test_a_point_outside_every_column_lies_in_none():
    root = Root(GEOMETRIES[1, 2.0], (Fraction(0),), Fraction(0), Fraction(1))
    cloud = PointCloud(((0.5, -0.5), (-0.5 - 2 ** -40, -0.5), (7.0, -0.5)))
    # x = 0.5 is the root's upper spatial face: outside, as is everything
    # beyond it and below the lower face
    for level in range(3):
        for s in range(1 << (root.geom.d * level)):
            assert cloud._column_times(root.address(level, (s,))) == []
    # points inside land in their column, its times sorted
    inside = PointCloud(((0.25, -0.5), (-0.25, -0.75), (0.3, -0.9), (0.25, -1.0)))
    assert [inside._column_times(root.address(1, (s,))) for s in range(4)] == \
        [[], [-0.75], [], [-1.0, -0.9, -0.5]]


def test_exact_coordinates_are_read_as_floats():
    # a point given exactly just below a column's lower face rounds onto it,
    # so the box test, which reads the float, puts it in that column
    root = Root(GEOMETRIES[1, 2.0], (Fraction(0),), Fraction(0), Fraction(1))
    column = root.address(1, (1,), 0)
    face = column.run_box(1)[0][0][0]
    x = Fraction(face) - Fraction(1, 2 ** 80)
    assert face != 0 and float(x) == face
    cloud = PointCloud(((x, column.run_faces(1)[0]), (0, 0)))
    for s in range(4):
        addr = root.address(1, (s,), 0)
        for length in (1, 2):
            assert cloud.meets_run(addr, length) is box_verdict(cloud, addr, length)
    assert cloud.meets_run(column, 1) is Freeness.NONEMPTY


def test_the_index_rejects_a_cloud_of_another_dimension(monkeypatch, capsys):
    root = Root(GEOMETRIES[2, 2.0], (Fraction(0), Fraction(0)), Fraction(0), Fraction(1))
    with pytest.raises(ValueError, match="dimension"):
        PointCloud(((0.0, 0.0),)).meets_run(root.address(), 1)
    # a one-dimensional cloud searched on a two-dimensional lattice is an
    # input error, not a report
    monkeypatch.chdir(REPO)
    assert run(["porosity", "--set", "fixtures/point.json", "--n", "2", "--samples", "2",
                "--cap", "1"]) == 1
    assert "dimension" in capsys.readouterr().err


STOPPING = ["stopping", "--set", "fixtures/layered.json", "--delta", "1/64", "--cap", "3"]


def no_box(self, box):
    raise AssertionError("a point cloud search tested a box")


def count_columns(monkeypatch):
    """Record each column found."""
    builds = []
    find = PointCloud._column_times

    def counting(self, addr):
        origins, w = addr.root.column_grid(addr.level)
        builds.append((origins, w, addr.spatial))
        return find(self, addr)

    monkeypatch.setattr(PointCloud, "_column_times", counting)
    return builds


def test_a_stopping_report_finds_each_column_once(monkeypatch, capsys):
    builds = count_columns(monkeypatch)
    monkeypatch.setattr(PointCloud, "meets_box", no_box)
    monkeypatch.chdir(REPO)
    assert run(STOPPING) == 0
    capsys.readouterr()
    assert builds
    assert len({origins for origins, _w, _s in builds}) == 1
    assert len(builds) == len(set(builds))


def test_roots_that_differ_in_time_share_their_columns(monkeypatch, layered_grid):
    cloud = PointCloud(layered_grid.points)
    root = Root(new_geometry(1, 2.0), (Fraction(1, 3),), Fraction(3, 7), Fraction(3, 7),
                Fraction(1, 8))
    later = root.translated(0.5)
    assert later.top_time != root.top_time and later.column_grid(2) == root.column_grid(2)
    builds = count_columns(monkeypatch)
    for base in (root, later):
        for addr, length in queries(base, [base.address(2, (1,), 3)]):
            assert cloud.meets_run(addr, length) is box_verdict(cloud, addr, length)
        if base is root:
            found = len(builds)
    assert found and len(builds) == found


def test_a_scan_finds_each_column_of_each_grid_once(monkeypatch, layered_grid):
    # roots on distinct spatial grids, searched one after the other: the
    # cloud finds each column of a root's grid once
    geom = new_geometry(1, 2.0)
    roots = draw_roots(geom, SamplerConfig(seed=7, samples=12))
    assert len({root.column_grid(0)[0] for root in roots}) == len(roots)
    builds = count_columns(monkeypatch)
    porosity_curve(PointCloud(layered_grid.points), roots, [Fraction(1, 64)], 3, 2)
    assert len({origins for origins, _w, _s in builds}) == len(roots)
    repeats = Counter(builds)
    assert max(repeats.values()) == 1, repeats.most_common(3)


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_walk_on_a_point_cloud_tests_no_box(monkeypatch, layered_grid, p):
    geom = new_geometry(1, p)
    cloud = PointCloud(layered_grid.points)
    root = Root(geom, (Fraction(1, 3),), Fraction(3, 7), Fraction(3, 7), Fraction(1, 8))
    want = [(sorted((a.key() for a in free)), unknown, len(rest))
            for free, unknown, rest in reference_walk(cloud, root.address(), 2)]
    monkeypatch.setattr(PointCloud, "meets_box", no_box)
    got = []
    for free, unknown, rest in porosity._walk(cloud, root.address(), 2):
        cells = [addr._with_temporal(t).key() for addr, length in free
                 for t in range(addr.temporal, addr.temporal + length)]
        got.append((sorted(cells), unknown,
                    sum(length for _addr, length in rest)))
    assert got == want


def test_point_cloud_reports_match_the_box_search(monkeypatch, layered_grid):
    # the roots share one cloud: a search that read another root's columns
    # would change a covered fraction
    geom = new_geometry(1, 2.0)
    roots = draw_roots(geom, SamplerConfig(seed=5, samples=12))
    deltas = [Fraction(1, 2), Fraction(1, 64)]

    def covered():
        cloud = PointCloud(layered_grid.points)
        reports = porosity_curve(cloud, roots, deltas, 3, 2)
        return [[(s["covered"], s["hole"]) for s in rep.samples] for rep in reports]

    runs = covered()
    monkeypatch.setattr(PointCloud, "meets_run", sets._RunAsBox.meets_run)
    boxes = covered()
    assert len({c for rep in boxes for c, _hole in rep}) > 2  # not all free or all met
    assert runs == boxes
