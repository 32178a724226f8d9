"""Tower partitions, power-law fitting of the porosity defect, and the
end-to-end consistency harness.

The exponent is estimated by regressing ``log(1 - c)`` on ``log(delta)``
over scan output; the harness chains porosity scans, the fit, a distance-
weight ratio scan, and a cross-translation comparison into a single
verdict.  The verdict is a consistency statement about the computed
quantities, never a proof claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .geometry import Geometry, Root, default_parameters
from .porosity import (CollectionReport, Members, PorosityReport, admissible_cut,
                       hole_of_translate, porosity_curve, search_for_cuts)
from .sampling import SamplerConfig, draw_roots, scan_roots
from .sets import ClosedSetModel
from .weights import A1ScanReport, WeightSpec, a1_scan


@dataclass(frozen=True)
class TowerPartition:
    """Admissible collections peeled into layers along a decreasing delta
    sequence: layer 0 is the coarsest collection, layer i adds exactly the
    rectangles admitted by delta_i but not delta_{i-1}."""

    base_report: CollectionReport
    deltas: tuple[Fraction, ...]
    layers: tuple[Members, ...]         # layer i: addresses new at delta_i
    layer_measures: tuple[Fraction, ...]
    residual: Fraction                  # 1 - covered fraction at the last delta
    depth_cap_hit: bool
    unknown_present: bool

    def cumulative_keys(self, upto: int) -> set:
        keys = set()
        for layer in self.layers[:upto + 1]:
            keys.update(a.key() for a in layer)
        return keys


def tower_partition(model: ClosedSetModel, root_addr, delta_seq: Sequence[Fraction],
                    theta, depth_cap: int) -> TowerPartition:
    """Layers of the admissible collections along a strictly decreasing
    delta sequence.  One search, level cuts: the hole and the free search
    are computed once, and each delta's collection is a cut of the search."""
    deltas = [Fraction(d) for d in delta_seq]
    if not deltas:
        raise ValueError("need at least one delta")
    if any(not 0 < d < 1 for d in deltas):
        raise ValueError("deltas must lie in (0, 1)")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta sequence must be strictly decreasing")

    hole = hole_of_translate(model, root_addr, theta, depth_cap)
    search = search_for_cuts(model, root_addr, hole, deltas, depth_cap)
    reports = [admissible_cut(search, hole, d, depth_cap) for d in deltas]
    # each cut is a level prefix of the one before it: layer i is the levels
    # between cut i-1 and cut i, and its measure the difference of the totals
    layers = []
    measures = []
    done, covered = 0, Fraction(0)
    for rep in reports:
        levels = rep.rectangles.levels
        layers.append(Members(levels[done:]))
        measures.append(rep.total_measure - covered)
        done, covered = len(levels), rep.total_measure
    last = reports[-1]
    return TowerPartition(
        base_report=last,
        deltas=tuple(deltas),
        layers=tuple(layers),
        layer_measures=tuple(measures),
        residual=1 - last.covered_fraction,
        depth_cap_hit=any(r.depth_cap_hit for r in reports),
        unknown_present=any(r.unknown_present for r in reports),
    )


@dataclass(frozen=True)
class AlphaFit:
    alpha_hat: float
    K_hat: float
    eta_hat: float
    r_squared: float
    floored: int      # samples clamped at the defect floor
    points: tuple[tuple[float, float], ...]


# zero defects are clamped to this floor in the exponent fit
_DEFECT_FLOOR = 1e-12


def alpha_fit(points: Sequence[tuple]) -> AlphaFit:
    """Least squares ``log(1-c) = log K + alpha log delta``.

    Zero defects (fully covered samples) are clamped to ``_DEFECT_FLOOR``
    and counted rather than dropped.
    """
    if len(points) < 3:
        raise ValueError("need at least three (delta, 1-c) points")
    floored = 0
    xs, ys = [], []
    kept = []
    for delta, defect in points:
        d = float(delta)
        v = float(defect)
        if not 0 < d < 1:
            raise ValueError(f"delta {d} outside (0, 1)")
        if v <= 0:
            v = _DEFECT_FLOOR
            floored += 1
        if v >= 1:
            v = 1.0 - 1e-15
        xs.append(math.log(d))
        ys.append(math.log(v))
        kept.append((d, v))
    xs_a = np.asarray(xs)
    ys_a = np.asarray(ys)
    if np.allclose(xs_a, xs_a[0]):
        raise ValueError("degenerate fit: all deltas equal")
    slope, intercept = np.polyfit(xs_a, ys_a, 1)
    pred = slope * xs_a + intercept
    ss_res = float(np.sum((ys_a - pred) ** 2))
    ss_tot = float(np.sum((ys_a - ys_a.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    ds = sorted((float(d) for d, _ in points), reverse=True)
    eta = min((b / a for a, b in zip(ds, ds[1:])), default=1.0)
    return AlphaFit(alpha_hat=float(slope), K_hat=float(math.exp(intercept)),
                    eta_hat=eta, r_squared=r2, floored=floored,
                    points=tuple(kept))


# ---------------------------------------------------------------------------
# end-to-end harness
# ---------------------------------------------------------------------------


_CROSS_THETA = 2.0    # the second translation of the cross check
_MIN_R2 = 0.9         # fit quality a consistent verdict needs
_AGREEMENT = 0.25     # tolerated |c1 - c2| in the cross check
_BETA_HEADROOM = 0.9  # beta capped at headroom / (n+p)


@dataclass(frozen=True)
class HarnessConfig:
    seed: int = 0
    samples: int = 12
    depth_cap: int = 4
    a1_samples: int = 8
    a1_tol: float = 5e-2
    a1_max_cells: int = 8000


def default_delta_grid(geom: Geometry, depth_cap: int) -> tuple[Fraction, ...]:
    """Deltas that move the admissibility cutoff one level per step."""
    level_ratio = Fraction(1, (1 << (geom.d * geom.n)) * geom.k_ceil)
    return tuple(Fraction(1, 2) * level_ratio ** j for j in range(max(3, depth_cap)))


def characterization_harness(model: ClosedSetModel, geom: Geometry,
                             config: HarnessConfig = HarnessConfig()) -> dict:
    """Porosity curve -> exponent fit -> ratio scan -> cross-translation check.

    Returns a JSON-ready report with verdict ``consistent``,
    ``inconsistent``, or ``inconclusive`` (cap-starved, with the starving
    stage named).
    """
    from .serialize import interval_json, number_str

    params = default_parameters(geom)
    deltas = default_delta_grid(geom, config.depth_cap)
    # the randomized scan may overestimate the covered fraction; the
    # canonical unit root keeps an auditable witness in every report
    roots = scan_roots(Root(geom, (Fraction(0),) * geom.n, Fraction(0), Fraction(1),
                            Fraction(0)),
                       SamplerConfig(seed=config.seed, samples=config.samples))

    starved: list[str] = []

    # stage 1: porosity curve at the stopping translation
    curve = porosity_curve(model, roots, deltas, params.Phi, config.depth_cap)
    if any(rep.depth_cap_hit for rep in curve):
        starved.append("porosity")
    points = [(float(rep.delta), float(1 - rep.empirical_c)) for rep in curve]

    # stage 2: exponent fit
    fit = alpha_fit(points)

    # stage 3: ratio scan at beta below the fitted exponent
    beta = min(fit.alpha_hat / 2 if fit.alpha_hat > 0 else 0.0,
               _BETA_HEADROOM / (geom.n + geom.p))
    a1_report: Optional[A1ScanReport] = None
    if beta > 0:
        spec = WeightSpec(beta=beta, n=geom.n, p=geom.p)
        a1_roots = draw_roots(geom, SamplerConfig(seed=config.seed,
                                                  samples=config.a1_samples))
        a1_report = a1_scan(model, a1_roots, params.Phi, spec, tol=config.a1_tol,
                            max_cells=config.a1_max_cells)
        if not a1_report.all_converged:
            starved.append("a1")

    # stage 4: cross-translation consistency after threshold recalibration
    cross = _cross_theta_check(model, roots, deltas, params.Phi, config.depth_cap,
                               curve)
    if cross.get("starved"):
        starved.append("cross_theta")

    finite_a1 = a1_report is not None and math.isfinite(a1_report.sup_ratio.hi) \
        and not a1_report.any_unbounded
    consistent = (fit.alpha_hat > 0 and fit.r_squared >= _MIN_R2
                  and finite_a1 and cross["agrees"])
    if starved:
        verdict = "inconclusive"
    elif consistent:
        verdict = "consistent"
    else:
        verdict = "inconsistent"

    return {
        "verdict": verdict,
        "starved_stages": starved,
        "porosity_curve": [{"delta": number_str(rep.delta),
                            "c": number_str(rep.empirical_c)} for rep in curve],
        "alpha_hat": number_str(fit.alpha_hat),
        "K_hat": number_str(fit.K_hat),
        "eta_hat": number_str(fit.eta_hat),
        "r2": number_str(fit.r_squared),
        "defect_floored": fit.floored,
        "beta_used": number_str(beta),
        "a1_sup": interval_json(a1_report.sup_ratio) if a1_report else None,
        "a1_unbounded": a1_report.any_unbounded if a1_report else None,
        "cross_theta": cross,
        "config": {
            "seed": config.seed, "samples": config.samples,
            "depth_cap": config.depth_cap,
            "deltas": [number_str(d) for d in deltas],
            "theta_main": number_str(params.Phi),
            "theta_cross": number_str(_CROSS_THETA),
        },
    }


def _cross_theta_check(model: ClosedSetModel, roots: Sequence[Root],
                       deltas: Sequence[Fraction], theta_main, depth_cap: int,
                       main: Sequence[PorosityReport]) -> dict:
    """Compare the main defect curve ``main`` (at ``theta_main``) with the
    curve at ``_CROSS_THETA`` after rescaling deltas by the ratio of the
    witnessed hole measures.  The cross curve cuts the main curve's
    searches and reuses the first root's cross hole; a root is searched
    again only when a cut lies deeper than a search that stopped above the
    cap with non-free cells left.
    """
    from .serialize import number_str

    holes_main = [s["hole"] for s in main[0].samples]
    base = roots[0]
    hole_cross = hole_of_translate(model, base.address(), _CROSS_THETA, depth_cap)
    hole_main = holes_main[0]
    if hole_main == 0 or hole_cross.measure == 0:
        factor = Fraction(1)
    else:
        factor = hole_main / hole_cross.measure
    rescaled = []
    for d in deltas:
        d2 = d * factor
        if d2 >= 1:
            d2 = Fraction(1, 2) + d2 / (2 * (1 + d2))  # clamp into (0, 1)
        rescaled.append(d2)
    cross = porosity_curve(model, roots, rescaled, _CROSS_THETA, depth_cap,
                           searches=main[0].searches,
                           holes=[hole_cross] + [None] * (len(roots) - 1))
    diffs = [abs(float(a.empirical_c) - float(b.empirical_c))
             for a, b in zip(main, cross)]
    agrees = all(d <= _AGREEMENT for d in diffs)
    return {
        "theta_main": number_str(theta_main),
        "theta_cross": number_str(_CROSS_THETA),
        "recalibration": number_str(factor),
        "max_c_gap": number_str(max(diffs) if diffs else 0.0),
        "agrees": agrees,
        "starved": any(r.depth_cap_hit for r in main + cross),
    }
