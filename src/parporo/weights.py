"""Certified integration of parabolic distance weights and A1-type ratios.

The weight is ``dist_p(., E)^(-q)`` with ``q = beta*(n+p)``.  Integrals are
bracketed by adaptive box subdivision: on a cell at positive distance the
integrand is monotone in the distance bracket; on cells touching E the
upper bound is closed with model-specific formulas (one-dimensional
antiderivatives for hyperplanes and temporal half spaces, a parabolic-ball
layer-cake bound for point clouds).  Where no closure exists the result is
a flagged lower bound, never a silent guess.

Cells travel through the refinement as plain float pairs ``(lo, hi)``
that every cell bound checks for NaN and order; ``Interval`` objects are
formed only where the leaves' certified sum is taken.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import ParabolicRectangle, Root
from .intervals import Interval, _down, _up, interval_sum
from .sampling import run_indexed
from .sets import (Box, BoxUnion, ClosedSetModel, HalfSpaceTime, PointCloud,
                   SpatialHyperplane, sup_distance_bracket)


@dataclass(frozen=True)
class WeightSpec:
    """Distance-weight exponent: ``w = dist_p(., E)^(-beta*(n+p))``."""

    beta: float
    n: int
    p: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @property
    def q(self) -> float:
        return self.beta * (self.n + self.p)

    @property
    def integrable_near_null_sets(self) -> bool:
        # q < 1 covers every built-in singular closure (codimension >= 1)
        return self.q < 1.0


@dataclass(frozen=True)
class IntegrationResult:
    value: Interval
    converged: bool
    diverged: bool
    lower_only: bool
    cells: int

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value.hi)


def _box_measure(box: Box) -> float:
    bounds, (tlo, thi) = box
    m = thi - tlo
    for lo, hi in bounds:
        m *= hi - lo
    return m


def _finite_box(rect: ParabolicRectangle, p: float) -> Box:
    """The rectangle's box, refused unless every bound is finite: the
    distance bounds of sub-boxes assume finite faces."""
    box = rect.box(p)
    bounds, (tlo, thi) = box
    if not all(math.isfinite(v) for pair in (*bounds, (tlo, thi)) for v in pair):
        raise ValueError("rectangle bounds must be finite")
    return box


def _pow_neg(base: float, q: float) -> float:
    if base == 0.0:
        return math.inf
    return base ** (-q)


# ---------------------------------------------------------------------------
# per-cell bounds
# ---------------------------------------------------------------------------


def _primitive_abs(u: float, q: float) -> float:
    """Antiderivative ``sign(u) F(|u|)`` of |u|^(-q) on either side of the
    origin, with ``F(r) = r^(1-q) / (1-q)`` (``log r`` at q = 1); it passes
    through the origin for q < 1."""
    r = abs(u)
    f = math.log(r) if q == 1.0 else r ** (1.0 - q) / (1.0 - q)
    return math.copysign(1.0, u) * f


def _around_product(a: float, b: float) -> tuple[float, float]:
    """``Interval.around(a) * Interval.around(b)`` as a float pair."""
    alo, ahi, blo, bhi = _down(a), _up(a), _down(b), _up(b)
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return _down(min(products)), _up(max(products))


def _cell_exact_hyperplane(model: SpatialHyperplane, box: Box, q: float
                           ) -> Optional[tuple[float, float]]:
    bounds, (tlo, thi) = box
    lo, hi = bounds[model.axis]
    touches = lo <= model.value <= hi
    if q >= 1.0 and touches:
        return None  # genuinely divergent across the plane
    cross = thi - tlo
    for j, (blo, bhi) in enumerate(bounds):
        if j != model.axis:
            cross *= bhi - blo
    ulo, uhi = lo - model.value, hi - model.value
    line = _primitive_abs(uhi, q) - _primitive_abs(ulo, q)
    return _around_product(max(line, 0.0), cross)


def _cell_exact_halfspace(model: HalfSpaceTime, box: Box, q: float, p: float
                          ) -> Optional[tuple[float, float]]:
    bounds, (tlo, thi) = box
    cross = 1.0
    for lo, hi in bounds:
        cross *= hi - lo
    s = q / p
    gap_lo = (model.t0 - thi) if model.future else (tlo - model.t0)
    gap_hi = (model.t0 - tlo) if model.future else (thi - model.t0)
    if gap_hi <= 0:
        return None  # cell inside E: infinite weight on positive measure
    if gap_lo < 0:
        return None  # straddles the face: positive-measure intersection with E
    if gap_lo == 0.0 and s >= 1.0:
        return None  # non-integrable singularity on the face
    if s == 1.0:
        line = math.log(gap_hi) - math.log(gap_lo)
    else:
        line = (gap_hi ** (1.0 - s) - gap_lo ** (1.0 - s)) / (1.0 - s)
    return _around_product(max(line, 0.0), cross)


def _pointcloud_singular_upper(model: PointCloud, box: Box, q: float, p: float,
                               n: int) -> Optional[float]:
    """Layer-cake closure: sum of per-point bounds, valid for q < n + p.

    Uses ``|{dist_p(., z) <= r}| = 2^(n+1) r^(n+p)`` twice: the plain ball
    integral up to the cell's sup distance, and the sharper variant with
    layer measures clipped at |cell|; the minimum of the two is sound.
    """
    if q >= n + p:
        return None
    s = n + p
    factor = s / (s - q)
    measure = _box_measure(box)
    gaps, spans = model._gap_span_arrays(box, p)
    clipped = measure ** (1.0 - q / s) * (2.0 ** (n + 1)) ** (q / s) * factor
    near_total = 0.0
    far_gap = math.inf
    for g, sp in zip(gaps, spans):
        if g > 0.0:
            far_gap = min(far_gap, float(g))
        else:
            ball = (2.0 ** (n + 1)) * factor * float(sp) ** (s - q)
            near_total += min(ball, clipped)
    far_part = 0.0 if math.isinf(far_gap) else measure * _pow_neg(far_gap, q)
    return near_total + far_part


def _bound_cell(model: ClosedSetModel, box: Box, spec: WeightSpec
                ) -> tuple[float, float, bool, bool]:
    """``(lo, hi, diverged, lower_only)`` for the integral over one cell.

    Raises ``ValueError`` on a NaN endpoint or ``lo > hi``, as an
    ``Interval`` would.
    """
    q = spec.q
    p = spec.p
    diverged = lower_only = False
    if isinstance(model, SpatialHyperplane):
        exact = _cell_exact_hyperplane(model, box, q)
        if exact is not None:
            lo, hi = exact
        else:
            _, sup_hi = model.dist_box_gap_span(box, p)
            lo, hi, diverged = _box_measure(box) * _pow_neg(sup_hi, q), math.inf, True
    elif isinstance(model, HalfSpaceTime):
        exact = _cell_exact_halfspace(model, box, q, p)
        if exact is not None:
            lo, hi = exact
        else:
            # straddling or inside the half space, or a non-integrable face
            # singularity: the integral is genuinely infinite
            lo, hi, diverged = 0.0, math.inf, True
    else:
        inf_lo, sup_hi = model.dist_box_gap_span(box, p)
        measure = _box_measure(box)
        lo = measure * _pow_neg(sup_hi, q) if sup_hi > 0 else 0.0
        if inf_lo > 0.0:
            hi = measure * _pow_neg(inf_lo, q)
        elif isinstance(model, PointCloud):
            # cell touches E
            hi = _pointcloud_singular_upper(model, box, q, p, spec.n)
            if hi is None:
                hi, diverged = math.inf, True
            else:
                lo = min(lo, hi)
        else:
            hi = math.inf
            diverged = isinstance(model, BoxUnion) and not model.is_null
            lower_only = not diverged
    if not lo <= hi:
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return lo, hi, diverged, lower_only


# ---------------------------------------------------------------------------
# adaptive integration
# ---------------------------------------------------------------------------


def integrate_weight(model: ClosedSetModel, rect: ParabolicRectangle,
                     spec: WeightSpec, tol: float = 1e-6,
                     max_cells: int = 40000) -> IntegrationResult:
    """Bracket ``\\int_rect dist_p(., E)^(-q)`` by adaptive subdivision.

    Widest-contribution-first refinement with a deterministic tie order;
    stops when the bracket's relative width reaches ``tol`` or the cell
    budget runs out (flagged via ``converged``).  Cells are bounded by
    ``_bound_cell`` and kept as float pairs: the heap holds
    ``(-width, counter, box, lo, hi)`` and settled cells ``(box, lo, hi)``;
    the leaves become ``Interval``s only for their certified sum.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    from .sets import _split_box

    p = spec.p
    heap: list[tuple[float, int, Box, float, float]] = []
    settled: list[tuple[Box, float, float]] = []
    counter = 0
    diverged = False
    lower_only = False
    # running endpoint sums steer the refinement; the certified bracket is
    # re-summed once at the end in a worker-independent order
    run_lo = 0.0
    run_hi = 0.0
    pending = [_finite_box(rect, p)]
    processed = 0
    while True:
        for box in pending:
            lo, hi, cell_diverged, cell_lower_only = _bound_cell(model, box, spec)
            diverged |= cell_diverged
            lower_only |= cell_lower_only
            run_lo += lo
            run_hi += hi
            width = hi - lo
            if cell_diverged or cell_lower_only or not math.isfinite(width) or width <= 0:
                settled.append((box, lo, hi))
            else:
                heapq.heappush(heap, (-width, counter, box, lo, hi))
            counter += 1
        if not heap or processed >= max_cells:
            break
        scale = max(abs(run_lo + run_hi) * 0.5, 1e-300)
        if math.isfinite(run_hi) and run_hi - run_lo <= 0.9 * tol * scale:
            break
        _, _, box, lo, hi = heapq.heappop(heap)
        run_lo -= lo
        run_hi -= hi
        pending = _split_box(box, p)
        processed += 1

    leaves = settled + [(box, lo, hi) for _, _, box, lo, hi in heap]
    leaves.sort(key=lambda leaf: (leaf[0][1][0], leaf[0][0]))
    total = interval_sum([Interval(lo, hi) for _, lo, hi in leaves])
    scale = max(abs(total.mid), 1e-300)
    converged = math.isfinite(total.hi) and total.width <= tol * scale
    return IntegrationResult(value=total, converged=converged,
                             diverged=diverged, lower_only=lower_only,
                             cells=len(leaves))


def average_weight(model: ClosedSetModel, rect: ParabolicRectangle,
                   spec: WeightSpec, tol: float = 1e-6,
                   max_cells: int = 40000) -> tuple[Interval, IntegrationResult]:
    res = integrate_weight(model, rect, spec, tol=tol, max_cells=max_cells)
    measure = Interval.around(rect.measure(spec.p))
    if math.isfinite(res.value.hi):
        return res.value / measure, res
    lo = res.value.lo / measure.hi
    return Interval(lo, math.inf), res


def essinf_weight(model: ClosedSetModel, rect: ParabolicRectangle,
                  spec: WeightSpec, tol: float = 1e-9,
                  max_cells: int = 20000) -> tuple[Interval, bool]:
    """``essinf w = (sup dist)^(-q)`` over the rectangle, outward rounded.

    The distance function is continuous, so sup and essential sup agree.
    """
    sup, converged = sup_distance_bracket(model, _finite_box(rect, spec.p), spec.p,
                                          tol=tol, max_cells=max_cells)
    if sup.hi == 0.0:
        return Interval(math.inf, math.inf), converged
    return sup.powf(-spec.q), converged


@dataclass(frozen=True)
class RatioResult:
    ratio: Interval
    average: Interval
    essinf: Interval
    unbounded: bool
    converged: bool


def a1_ratio(model: ClosedSetModel, root: Root, theta: float, spec: WeightSpec,
             tol: float = 1e-7, max_cells: int = 40000) -> RatioResult:
    """(average of w over R) / (essinf of w over R^theta) as a bracket."""
    rect = root.rectangle()
    from .geometry import translate
    upper = translate(rect, float(theta), spec.p)
    avg, res = average_weight(model, rect, spec, tol=tol, max_cells=max_cells)
    inf_iv, inf_conv = essinf_weight(model, upper, spec,
                                     tol=tol * max(1.0, rect.side),
                                     max_cells=max_cells)
    converged = res.converged and inf_conv
    if inf_iv.lo <= 0.0 or not math.isfinite(avg.hi):
        lo = 0.0 if not math.isfinite(inf_iv.hi) or inf_iv.hi <= 0.0 \
            else avg.lo / inf_iv.hi
        return RatioResult(Interval(lo, math.inf), avg, inf_iv,
                           unbounded=True, converged=False)
    return RatioResult(avg / inf_iv, avg, inf_iv, unbounded=False,
                       converged=converged)


@dataclass(frozen=True)
class A1ScanReport:
    beta: float
    theta: float
    samples: tuple[dict, ...]
    sup_ratio: Interval
    witness_index: int
    any_unbounded: bool
    all_converged: bool


def a1_scan(model: ClosedSetModel, roots: Sequence[Root], theta: float,
            spec: WeightSpec, tol: float = 1e-5, max_cells: int = 20000,
            threads: int = 1) -> A1ScanReport:
    """Sup of the ratio upper bounds over the roots' rectangles plus witness."""

    def per_root(root: Root) -> RatioResult:
        return a1_ratio(model, root, theta, spec, tol=tol, max_cells=max_cells)

    results = run_indexed(list(roots), per_root, threads)
    from .porosity import _root_descriptor
    from .serialize import interval_json
    samples = tuple({
        "root": _root_descriptor(root),
        "ratio": interval_json(r.ratio),
        "unbounded": r.unbounded,
        "converged": r.converged,
    } for root, r in zip(roots, results))
    witness = max(range(len(results)), key=lambda i: (results[i].ratio.hi, -i))
    sup_lo = max(r.ratio.lo for r in results)
    sup_hi = max(r.ratio.hi for r in results)
    return A1ScanReport(
        beta=spec.beta, theta=float(theta), samples=samples,
        sup_ratio=Interval(sup_lo, sup_hi), witness_index=witness,
        any_unbounded=any(r.unbounded for r in results),
        all_converged=all(r.converged for r in results))


def annular_constant(n: int, p: float, alpha: float) -> float:
    """Series constant bounding ``\\int_R w`` over E-free rectangles:
    ``C1^(-a) * (n+p) * sum_{i>=1} 2^((a-1) i)`` with ``a = alpha*(n+p)``
    and ``C1 = 1/2``."""
    a = alpha * (n + p)
    if a >= 1.0:
        raise ValueError("alpha*(n+p) must be below 1 for the series to converge")
    ratio = 2.0 ** (a - 1.0)
    series = ratio / (1.0 - ratio)  # geometric sum from i = 1
    return (0.5 ** (-a)) * (n + p) * series
