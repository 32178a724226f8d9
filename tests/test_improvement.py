import math
import random
from fractions import Fraction

import pytest

from parporo.geometry import Root, default_parameters, new_geometry
from parporo.improvement import (HarnessConfig, alpha_fit,
                                 characterization_harness, default_delta_grid,
                                 tower_partition)
from parporo.porosity import admissible_collection
from parporo.sampling import SamplerConfig, draw_roots, scan_roots
from parporo.sets import PointCloud


@pytest.mark.parametrize("samples", [1, 2, 12])
def test_scan_roots_are_a_first_root_then_the_seeded_draw(unit_root, samples):
    # the CLI scans and the harness both take these: one sample is the first
    # root alone, and the rest are a prefix of the seed's one random stream
    roots = scan_roots(unit_root, SamplerConfig(seed=3, samples=samples))
    drawn = draw_roots(unit_root.geom, SamplerConfig(seed=3, samples=12))
    assert len(roots) == samples and roots[0] is unit_root
    assert list(map(repr, roots[1:])) == list(map(repr, drawn[:samples - 1]))


def test_tower_partition_hyperplane(unit_root, hyperplane):
    deltas = [Fraction(1, 2), Fraction(1, 128), Fraction(1, 8192)]
    tower = tower_partition(hyperplane, unit_root.address(), deltas, 15, 3)
    # cumulative layers reproduce the admissible collection at each delta
    for i, d in enumerate(deltas):
        rep = admissible_collection(hyperplane, unit_root.address(), d, 15, 3)
        assert tower.cumulative_keys(i) == {a.key() for a in rep.rectangles}
    # all layer members pairwise disjoint across layers (exact address check)
    flat = [a for layer in tower.layers for a in layer]
    for i, a in enumerate(flat[:60]):
        for b in flat[i + 1:60]:
            assert not a.intersects(b)
    # residual after three admitted levels: (1/4)^3 of the root
    assert tower.residual == Fraction(1, 64)


def test_tower_layer_measures_bounded_by_defect(unit_root, hyperplane):
    # layer i measure is at most the uncovered fraction at the previous delta
    deltas = [Fraction(1, 2), Fraction(1, 128), Fraction(1, 8192)]
    tower = tower_partition(hyperplane, unit_root.address(), deltas, 15, 3)
    reps = [admissible_collection(hyperplane, unit_root.address(), d, 15, 3)
            for d in deltas]
    for i in range(1, len(deltas)):
        defect = 1 - reps[i - 1].covered_fraction
        assert tower.layer_measures[i] <= defect


def test_tower_rejects_non_decreasing(unit_root, hyperplane):
    with pytest.raises(ValueError):
        tower_partition(hyperplane, unit_root.address(),
                        [Fraction(1, 2), Fraction(1, 2)], 15, 2)


def test_tower_single_delta(unit_root, hyperplane):
    tower = tower_partition(hyperplane, unit_root.address(), [Fraction(1, 2)],
                            15, 2)
    rep = admissible_collection(hyperplane, unit_root.address(), Fraction(1, 2),
                                15, 2)
    assert tower.cumulative_keys(0) == {a.key() for a in rep.rectangles}


def test_alpha_fit_recovers_power_law():
    # K delta^alpha with K=2, alpha=1/2; deltas small enough that every
    # defect stays below one
    points = [(2.0 ** -i, 2.0 * (2.0 ** -i) ** 0.5) for i in range(3, 23)]
    fit = alpha_fit(points)
    assert fit.alpha_hat == pytest.approx(0.5, abs=1e-12)
    assert fit.K_hat == pytest.approx(2.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.eta_hat == pytest.approx(0.5)


def test_alpha_fit_constant_defect_reports_zero():
    points = [(2.0 ** -i, 0.25) for i in range(1, 8)]
    fit = alpha_fit(points)
    assert fit.alpha_hat == pytest.approx(0.0, abs=1e-12)


def test_alpha_fit_flooring_and_validation():
    with pytest.raises(ValueError):
        alpha_fit([(0.5, 0.1)])
    with pytest.raises(ValueError):
        alpha_fit([(0.5, 0.1), (0.5, 0.2), (0.5, 0.3)])
    fit = alpha_fit([(0.5, 0.2), (0.25, 0.0), (0.125, 0.05)])
    assert fit.floored == 1


def test_harness_hyperplane_consistent(geom12, hyperplane):
    config = HarnessConfig(seed=0, samples=8, depth_cap=3, a1_samples=4,
                           a1_tol=5e-2)
    report = characterization_harness(hyperplane, geom12, config)
    assert report["verdict"] == "consistent", report
    assert float(report["alpha_hat"]) > 0
    assert float(report["r2"]) >= 0.9
    lo, hi = (float(v) for v in report["a1_sup"])
    assert math.isfinite(hi) and hi >= lo >= 1.0 - 1e-9


def test_harness_hyperplane_exact_at_cap_8(geom12, hyperplane):
    # the defect at the j-th grid delta is exactly 4^-(j+1), which is
    # K * delta^(1/3) with K = 2^(-5/3)
    rep = characterization_harness(hyperplane, geom12, HarnessConfig(depth_cap=8))
    assert [row["c"] for row in rep["porosity_curve"]] == \
        [str(1 - Fraction(1, 4 ** (j + 1))) for j in range(8)]
    assert abs(float(rep["alpha_hat"]) - 1 / 3) <= 1e-9
    assert abs(float(rep["K_hat"]) - 2 ** (-5 / 3)) <= 1e-9
    assert rep["verdict"] == "consistent"


def test_harness_point_consistent(geom12, origin_point):
    config = HarnessConfig(seed=1, samples=8, depth_cap=3, a1_samples=4,
                           a1_tol=5e-2)
    report = characterization_harness(origin_point, geom12, config)
    assert report["verdict"] == "consistent", report
    assert float(report["alpha_hat"]) > 0


def test_harness_seed_stability(geom12, hyperplane):
    cfg_a = HarnessConfig(seed=0, samples=8, depth_cap=3, a1_samples=3,
                          a1_tol=5e-2)
    cfg_b = HarnessConfig(seed=1234, samples=8, depth_cap=3, a1_samples=3,
                          a1_tol=5e-2)
    ra = characterization_harness(hyperplane, geom12, cfg_a)
    rb = characterization_harness(hyperplane, geom12, cfg_b)
    assert abs(float(ra["alpha_hat"]) - float(rb["alpha_hat"])) < 0.1


def test_harness_inconclusive_below_resolution(geom12):
    # a grid finer than the cap resolution starves the porosity stage
    pts = []
    x = -0.6 + 1e-3
    while x < 0.6:
        t = -1.2 + 1e-3
        while t < 0.2:
            pts.append((x, t))
            t += 1 / 23
        x += 1 / 23
    dense = PointCloud(tuple(pts))
    config = HarnessConfig(seed=0, samples=4, depth_cap=1, a1_samples=2,
                           a1_tol=1e-1)
    report = characterization_harness(dense, geom12, config)
    assert report["verdict"] == "inconclusive"
    assert "porosity" in report["starved_stages"]


def test_default_delta_grid_moves_cutoff(geom12):
    grid = default_delta_grid(geom12, 4)
    assert all(b < a for a, b in zip(grid, grid[1:]))
    assert grid[0] == Fraction(1, 2)
    assert grid[1] / grid[0] == Fraction(1, 64)
