import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parporo.geometry import ParabolicRectangle, Root, new_geometry, translate
from parporo.sampling import SamplerConfig, draw_roots
from parporo.sets import (BoxUnion, HalfSpaceTime, PointCloud, SpatialHyperplane,
                          _split_box, cantor_times_time, single_point)
from oracles import halton_array, reference_integrate, reference_split_box
from parporo.weights import (WeightSpec, a1_ratio, a1_scan, annular_constant,
                             average_weight, essinf_weight, integrate_weight)


def unit_rect():
    return ParabolicRectangle(center=(0.0,), top_time=0.0, side=1.0)


SPEC = WeightSpec(beta=1 / 6, n=1, p=2.0)  # q = 1/2


def test_weight_spec_exponent():
    assert SPEC.q == pytest.approx(0.5)
    assert SPEC.integrable_near_null_sets
    assert not WeightSpec(beta=0.5, n=1, p=2.0).integrable_near_null_sets
    with pytest.raises(ValueError):
        WeightSpec(beta=-0.1, n=1, p=2.0)


def test_hyperplane_closed_form_integral(hyperplane):
    res = integrate_weight(hyperplane, unit_rect(), SPEC, tol=1e-7)
    assert res.converged and not res.diverged
    expected = 2.0 * math.sqrt(2.0)  # 2 * int_0^{1/2} x^{-1/2} dx
    assert res.value.width <= 1e-6
    assert res.value.lo <= expected <= res.value.hi
    avg, _ = average_weight(hyperplane, unit_rect(), SPEC, tol=1e-7)
    assert avg.mid == pytest.approx(expected, abs=1e-6)


def test_free_rect_bracket_monotonicity():
    # rectangle at distance D from a point: |R| (D+diam)^{-q} <= I <= |R| D^{-q}
    E = single_point(1, at=(4.0, 0.0))
    rect = unit_rect()
    res = integrate_weight(E, rect, SPEC, tol=1e-6)
    p = 2.0
    d_inf = 3.5  # nearest point of the closure: x = 1/2
    diam = rect.diam_p(p)
    measure = rect.measure(p)
    assert res.value.hi <= measure * d_inf ** -SPEC.q + 1e-9
    assert res.value.lo >= measure * (d_inf + diam) ** -SPEC.q - 1e-9


def test_essinf_hyperplane(hyperplane):
    upper = translate(unit_rect(), 2.0, 2.0)
    iv, ok = essinf_weight(hyperplane, upper, SPEC)
    assert ok
    assert iv.lo == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert iv.width <= 1e-12


def test_essinf_far_point():
    E = single_point(1, at=(10.0, 0.0))
    iv, ok = essinf_weight(E, unit_rect(), SPEC)
    assert ok
    # sup dist in [9.5, 10.5+] => essinf w within the matching bracket
    assert 10.0 ** -0.5 * 0.9 <= iv.lo <= iv.hi <= 9.0 ** -0.5


def test_a1_ratio_hyperplane_anchor(unit_root, hyperplane):
    out = a1_ratio(hyperplane, unit_root, 2.0, SPEC, tol=1e-7)
    assert not out.unbounded and out.converged
    assert out.ratio.lo <= 2.0 <= out.ratio.hi
    assert out.ratio.width <= 1e-6
    # time-independent weight: any positive translation gives the same ratio
    out5 = a1_ratio(hyperplane, unit_root, 5.0, SPEC, tol=1e-7)
    assert out5.ratio.mid == pytest.approx(2.0, abs=1e-6)


def test_a1_ratio_far_set_near_one(geom12):
    root = Root(geom12, (Fraction(0),), Fraction(0), Fraction(1), Fraction(0))
    E = single_point(1, at=(60.0, 0.0))
    out = a1_ratio(E, root, 2.0, SPEC, tol=1e-6)
    assert not out.unbounded
    assert out.ratio.lo <= 1.0 + 0.05
    assert 0.9 <= out.ratio.mid <= 1.1


def test_bracket_soundness_quasi_monte_carlo():
    # a million-point low-discrepancy estimate lands inside every bracket
    import numpy as np
    rng = random.Random(77)
    p = 2.0
    N = 10 ** 6
    u = halton_array(N, 2)
    v = halton_array(N, 3)
    for trial in range(100):
        npts = rng.randint(1, 4)
        pts = tuple((rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 1.0))
                    for _ in range(npts))
        E = PointCloud(pts)
        q = rng.uniform(0.2, 0.9)
        spec = WeightSpec(beta=q / 3.0, n=1, p=p)
        rect = ParabolicRectangle(center=(rng.uniform(-1, 1),),
                                  top_time=rng.uniform(-1, 1),
                                  side=rng.choice([0.5, 1.0]))
        res = integrate_weight(E, rect, spec, tol=1e-2, max_cells=4000)
        xlo, xhi = rect.spatial_bounds()[0]
        tlo, thi = rect.t_lo(p), rect.t_hi(p)
        x = xlo + u * (xhi - xlo)
        t = tlo + v * (thi - tlo)
        d = np.full(N, np.inf)
        for zx, zt in pts:
            d = np.minimum(d, np.maximum(np.abs(x - zx), np.abs(t - zt) ** 0.5))
        w = np.where(d > 0, d ** -spec.q, 0.0)
        estimate = float(w.mean()) * rect.measure(p)
        assert res.value.lo - 1e-9 <= estimate <= res.value.hi + 1e-9, (
            trial, estimate, res.value)


def test_refinement_monotonicity(hyperplane):
    E = PointCloud(((0.2, -0.3), (-0.4, 0.1)))
    rect = unit_rect()
    spec = WeightSpec(beta=0.15, n=1, p=2.0)
    prev = None
    for tol in (1e-1, 5e-2, 2.5e-2, 1.25e-2):
        res = integrate_weight(E, rect, spec, tol=tol, max_cells=20000)
        if prev is not None:
            assert res.value.width <= prev + 1e-12
        prev = res.value.width


def test_annular_constant_value():
    assert annular_constant(1, 2.0, 1 / 6) == pytest.approx(10.2426, abs=1e-3)
    with pytest.raises(ValueError):
        annular_constant(1, 2.0, 0.5)


def test_annular_bound_on_free_rectangles():
    rng = random.Random(123)
    alpha = 1 / 6
    C = annular_constant(1, 2.0, alpha)
    spec = WeightSpec(beta=alpha, n=1, p=2.0)
    for _ in range(30):
        side = rng.choice([0.5, 1.0, 2.0])
        rect = ParabolicRectangle(center=(rng.uniform(-2, 2),),
                                  top_time=rng.uniform(-2, 2), side=side)
        kind = rng.random()
        if kind < 0.4:
            # E touching the lower-left corner region, rectangle stays free
            E = single_point(1, at=(rect.spatial_bounds()[0][0],
                                    rect.t_lo(2.0) - 1e-9))
        elif kind < 0.7:
            E = SpatialHyperplane(0, rect.spatial_bounds()[0][0])
        else:
            E = HalfSpaceTime(rect.t_lo(2.0), future=False)
        res = integrate_weight(E, rect, spec, tol=1e-3, max_cells=20000)
        assert math.isfinite(res.value.hi)
        assert res.value.hi <= C * rect.measure(2.0) ** (1 - alpha) * (1 + 1e-9)


def test_divergent_exponent_flags(unit_root, hyperplane):
    hot = WeightSpec(beta=0.5, n=1, p=2.0)  # q = 3/2 >= 1 across the plane
    res = integrate_weight(hyperplane, unit_rect(), hot, tol=1e-3)
    assert res.diverged
    assert math.isinf(res.value.hi)
    assert res.value.lo > 0


def test_positive_measure_overlap_diverges():
    E = HalfSpaceTime(-0.5, future=True)
    res = integrate_weight(E, unit_rect(), SPEC, tol=1e-3)
    assert res.diverged and math.isinf(res.value.hi)


def test_a1_scan_deterministic(geom12, hyperplane):
    config = SamplerConfig(seed=3, samples=6)
    roots = draw_roots(geom12, config)
    rep1 = a1_scan(hyperplane, roots, 2.0, SPEC, tol=1e-3)
    rep2 = a1_scan(hyperplane, roots, 2.0, SPEC, tol=1e-3)
    assert rep1.sup_ratio.lo == rep2.sup_ratio.lo
    assert rep1.sup_ratio.hi == rep2.sup_ratio.hi
    assert rep1.witness_index == rep2.witness_index
    assert math.isfinite(rep1.sup_ratio.hi)
    assert not rep1.any_unbounded


def test_a1_scan_flags_divergence(geom12, hyperplane):
    hot = WeightSpec(beta=0.5, n=1, p=2.0)
    rep = a1_scan(hyperplane, draw_roots(geom12, SamplerConfig(seed=5, samples=8)),
                  2.0, hot, tol=1e-2)
    assert rep.any_unbounded  # some sampled rectangle crosses the plane


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_hyperplane_closed_form_is_mirror_symmetric(q):
    # the plane x = 0 is a mirror for the weight, on either side of it
    plane = SpatialHyperplane(0, 0.0)
    spec = WeightSpec(beta=q / 3, n=1, p=2.0)
    for x in (0.75, 3.0):
        right = integrate_weight(plane, ParabolicRectangle((x,), 0.0, 1.0), spec)
        left = integrate_weight(plane, ParabolicRectangle((-x,), 0.0, 1.0), spec)
        assert right.converged and left.converged
        assert left.value == right.value
        assert left.value.lo > 0.0


def test_hyperplane_log_closed_form_left_of_the_plane(geom12):
    # q = 1: the cell [-3.5, -2.5] x [-1, 0) carries ln(3.5 / 2.5) * 1
    root = Root(geom12, (Fraction(-3),), Fraction(0), Fraction(1))
    res = integrate_weight(SpatialHyperplane(0, 0.0), root.rectangle(),
                           WeightSpec(beta=1 / 3, n=1, p=2.0))
    assert res.converged and not res.diverged
    assert res.value.lo <= math.log(3.5 / 2.5) * 1.0 <= res.value.hi


@pytest.mark.parametrize("x", [-0.75, 0.75])
def test_hyperplane_closed_form_above_q_one(x):
    # q = 3/2 off the plane: |u| runs over [1/4, 5/4], the integral of
    # |u|^(-3/2) there is 2 (4^(1/2) - (4/5)^(1/2)), times a unit time length
    res = integrate_weight(SpatialHyperplane(0, 0.0), ParabolicRectangle((x,), 0.0, 1.0),
                           WeightSpec(beta=0.5, n=1, p=2.0))
    assert res.converged and not res.diverged
    assert res.value.lo <= 2.0 * (2.0 - math.sqrt(0.8)) <= res.value.hi


COORDS = st.integers(-8, 8).map(lambda k: k / 4)
# clouds of 12 and 13 points sit on either side of the plain-float pass
CLOUD_SIZES = {"point": 1, "cloud3": 3, "cloud12": 12, "cloud13": 13, "cloud20": 20}
KINDS = (*CLOUD_SIZES, "hyperplane", "past", "future", "boxes-null", "boxes", "cantor")


@st.composite
def weight_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    n = 1 if kind == "cantor" else draw(st.sampled_from((1, 2)))
    p = draw(st.sampled_from((2.0, 1.5)))

    def point():
        return tuple(draw(COORDS) for _ in range(n + 1))

    def box(null):
        lo = [draw(COORDS) for _ in range(n + 1)]
        ext = [draw(st.integers(1, 6)) / 4 for _ in range(n + 1)]
        if null:
            ext[draw(st.integers(0, n))] = 0.0
        return (tuple((a, a + e) for a, e in zip(lo[:-1], ext[:-1])),
                (lo[-1], lo[-1] + ext[-1]))

    if kind in CLOUD_SIZES:
        model = PointCloud(tuple(point() for _ in range(CLOUD_SIZES[kind])))
    elif kind == "hyperplane":
        model = SpatialHyperplane(draw(st.integers(0, n - 1)), draw(COORDS))
    elif kind in ("past", "future"):
        model = HalfSpaceTime(draw(COORDS), future=kind == "future")
    elif kind == "cantor":
        model = cantor_times_time(p, depth_cap=draw(st.sampled_from((6, 24))))
    else:
        model = BoxUnion(tuple(box(kind == "boxes-null")
                               for _ in range(draw(st.integers(1, 3)))))
    rect = ParabolicRectangle(center=tuple(draw(COORDS) for _ in range(n)),
                              top_time=draw(COORDS),
                              side=draw(st.sampled_from((0.5, 1.0, 2.0))),
                              gamma=draw(st.sampled_from((0.0, 0.25))))
    q = draw(st.sampled_from((0.3, 0.75, 1.0, 1.4, 2.5)))
    spec = WeightSpec(beta=q / (n + p), n=n, p=p)
    tol = draw(st.sampled_from((1e-1, 1e-2, 1e-3)))
    return model, rect, spec, tol, draw(st.integers(0, 60))


def diverging_cloud_case(size, n, p, q):
    """A cloud whose first point lies in the unit rectangle, at q >= n + p:
    the cells that touch it carry an infinite integral."""
    rng = random.Random(size)
    pts = ((0.0,) * n + (-0.5,),
           *(tuple(rng.uniform(-3.0, 3.0) for _ in range(n + 1)) for _ in range(size - 1)))
    return (PointCloud(pts), ParabolicRectangle((0.0,) * n, 0.0, 1.0),
            WeightSpec(beta=q / (n + p), n=n, p=p), 1e-2, 40)


def a1_point_case(center, top, side, gamma, max_cells=20000):
    """The benchmark's a1 integrals: the point (0, -1/2), beta = 0.1, p = 2
    and tol = 1e-2 over a root's rectangle, thousands of cells deep."""
    return (single_point(1, at=(0.0, -0.5)),
            ParabolicRectangle((center,), top, side, gamma=gamma),
            WeightSpec(beta=0.1, n=1, p=2.0), 1e-2, max_cells)


@given(case=weight_cases())
@example(case=a1_point_case(-0.0625, -0.375, 0.5, 0.25))   # 8,698 leaves
@example(case=a1_point_case(0.0, 0.0, 1.5, 0.0))           # 4,617 leaves
# the budget runs out, as on one root of CLI seed 2 at 20,000 cells
@example(case=a1_point_case(1.3125, 0.875, 1.5, 0.25, max_cells=2000))
@example(case=diverging_cloud_case(1, 1, 2.0, 3.0))
@example(case=diverging_cloud_case(12, 2, 1.5, 4.0))
@example(case=diverging_cloud_case(13, 1, 1.5, 4.0))
@settings(max_examples=300, deadline=None)
def test_integrator_matches_reference_bit_for_bit(case):
    model, rect, spec, tol, max_cells = case
    got = integrate_weight(model, rect, spec, tol=tol, max_cells=max_cells)
    want = reference_integrate(model, rect, spec, tol=tol, max_cells=max_cells)
    assert got.value.lo.hex() == want.value.lo.hex()
    assert got.value.hi.hex() == want.value.hi.hex()
    assert (got.cells, got.converged, got.diverged, got.lower_only) == \
        (want.cells, want.converged, want.diverged, want.lower_only)


side_lengths = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 4.0))


@given(n=st.integers(0, 3), data=st.data(), p=st.sampled_from((2.0, 1.5, math.e)))
@settings(max_examples=400, deadline=None)
def test_split_box_matches_the_reference_split(n, data, p):
    # widths are often tied, so the first widest axis must be the one split
    bounds = []
    for _ in range(n):
        lo = data.draw(COORDS)
        bounds.append((lo, lo + data.draw(side_lengths)))
    t_lo = data.draw(COORDS)
    box = (tuple(bounds), (t_lo, t_lo + data.draw(side_lengths)))
    got, want = _split_box(box, p), reference_split_box(box, p)
    assert repr(got) == repr(want)


class _StubModel:
    """A model whose every cell bound is the given bracket."""

    def __init__(self, lo, hi):
        self.bracket = (lo, hi, False, False)

    def cell_weight(self, box, q, p):
        return self.bracket


def test_integrator_rejects_nan_and_empty_cell_brackets():
    with pytest.raises(ValueError, match="NaN"):
        integrate_weight(_StubModel(math.nan, 1.0), unit_rect(), SPEC)
    with pytest.raises(ValueError, match="NaN"):
        integrate_weight(_StubModel(0.0, math.nan), unit_rect(), SPEC)
    with pytest.raises(ValueError, match=r"empty interval \[2.0, 1.0\]"):
        integrate_weight(_StubModel(2.0, 1.0), unit_rect(), SPEC)


@pytest.mark.parametrize("center,top", [((math.nan,), 0.0), ((math.nan,), math.nan),
                                        ((0.0,), math.nan), ((math.inf,), 0.0)])
def test_weights_refuse_non_finite_rectangles(center, top):
    rect = ParabolicRectangle(center, top, 1.0)
    for model in (single_point(1, at=(5.0, 0.0)), SpatialHyperplane(0, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            integrate_weight(model, rect, SPEC)
        with pytest.raises(ValueError, match="finite"):
            essinf_weight(model, rect, SPEC)
