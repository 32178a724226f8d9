"""Certified integration of parabolic distance weights and A1-type ratios.

The weight is ``dist_p(., E)^(-q)`` with ``q = beta*(n+p)``.  Integrals are
bracketed by adaptive box subdivision.  Each cell is bounded by the model's
own ``cell_weight`` (see ``sets``): closed forms for hyperplanes and
temporal half spaces, a parabolic-ball layer-cake bound where a cell
touches a point cloud, and otherwise the distance bracket, monotone in the
integrand on a cell at positive distance.  Where no closure exists (a cell
that touches the IFS attractor) the result is a flagged lower bound, never
a silent guess; this module knows no model class.

Cells travel through the refinement, and into the leaves' certified sum,
as plain float pairs ``(lo, hi)``, checked for NaN and order as each cell is
bounded; the only ``Interval`` of an integral is its total.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

from .geometry import ParabolicRectangle, Root
from .intervals import Interval, interval_sum
from .sets import AxisBounds, Box, ClosedSetModel, _split_box, sup_distance_bracket


@dataclass(frozen=True)
class WeightSpec:
    """Distance-weight exponent: ``w = dist_p(., E)^(-beta*(n+p))``."""

    beta: float
    n: int
    p: float
    # the exponent, worked out once: every bound cell reads it
    q: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "q", self.beta * (self.n + self.p))

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


def _finite_box(rect: ParabolicRectangle, p: float) -> Box:
    """The rectangle's box, refused unless every bound is finite: the
    distance bounds of sub-boxes assume finite faces."""
    box = rect.box(p)
    bounds, (tlo, thi) = box
    if not all(math.isfinite(v) for pair in (*bounds, (tlo, thi)) for v in pair):
        raise ValueError("rectangle bounds must be finite")
    return box


# ---------------------------------------------------------------------------
# adaptive integration
# ---------------------------------------------------------------------------


def integrate_weight(model: ClosedSetModel, rect: ParabolicRectangle,
                     spec: WeightSpec, tol: float = 1e-6,
                     max_cells: int = 40000) -> IntegrationResult:
    """Bracket ``\\int_rect dist_p(., E)^(-q)`` by adaptive subdivision.

    Widest-contribution-first refinement with a deterministic tie order;
    stops when the bracket's relative width reaches ``tol`` or the cell
    budget runs out (flagged via ``converged``).  Each cell takes one
    ``model.cell_weight`` call, refused on a NaN or ``lo > hi`` as an
    ``Interval`` would be.  The heap holds ``(-width, counter, bounds,
    (tlo, thi), lo, hi)``; a leaf is ``(tlo, x0, bounds, index, lo, hi)``:
    ``x0``, the first lower face, settles ``tlo`` ties fast and keeps the
    order, as ``bounds`` starts with it; ``index`` runs over the settled
    cells and then the heap's.  Both have six items, so a leaf reuses its
    heap entry's memory.  The certified sum runs over the sorted leaves.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")

    p, q = spec.p, spec.q
    cell_weight, split, push, pop = model.cell_weight, _split_box, heapq.heappush, heapq.heappop
    inf, isnan, isfinite = math.inf, math.isnan, math.isfinite
    stop = 0.9 * tol
    heap: list[tuple[float, int, AxisBounds, tuple[float, float], float, float]] = []
    settled: list[tuple[float, float, AxisBounds, int, float, float]] = []
    counter = 0
    diverged = lower_only = False
    # running endpoint sums steer the refinement; the certified bracket is
    # re-summed once at the end in the leaves' sorted order
    run_lo = run_hi = 0.0
    pending = [_finite_box(rect, p)]
    processed = 0
    while True:
        for box in pending:
            lo, hi, cell_diverged, cell_lower_only = cell_weight(box, q, p)
            if not lo <= hi:
                if isnan(lo) or isnan(hi):
                    raise ValueError("interval endpoints must not be NaN")
                raise ValueError(f"empty interval [{lo}, {hi}]")
            run_lo += lo
            run_hi += hi
            width = hi - lo
            bounds, span = box
            if cell_diverged or cell_lower_only or not 0.0 < width < inf:
                # only settled cells carry a flag
                diverged |= cell_diverged
                lower_only |= cell_lower_only
                tlo = span[0]
                settled.append((tlo, bounds[0][0] if bounds else tlo, bounds,
                                len(settled), lo, hi))
            else:
                push(heap, (-width, counter, bounds, span, lo, hi))
            counter += 1
        if not heap or processed >= max_cells:
            break
        # max(|run_lo + run_hi| / 2, 1e-300), NaN kept as max keeps it
        scale = abs(run_lo + run_hi) * 0.5
        if scale < 1e-300:
            scale = 1e-300
        if isfinite(run_hi) and run_hi - run_lo <= stop * scale:
            break
        _, _, bounds, span, lo, hi = pop(heap)
        run_lo -= lo
        run_hi -= hi
        pending = split((bounds, span), p)
        processed += 1

    # the heap's cells become leaves one by one, so both are never held
    leaves, base = settled, len(settled)
    while heap:
        _, _, bounds, (tlo, _), lo, hi = heap.pop()
        leaves.append((tlo, bounds[0][0] if bounds else tlo, bounds, base + len(heap),
                       lo, hi))
    leaves.sort()
    total = interval_sum((lo, hi) for _, _, _, _, lo, hi in leaves)
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
            spec: WeightSpec, tol: float = 1e-5, max_cells: int = 20000
            ) -> A1ScanReport:
    """Sup of the ratio upper bounds over the roots' rectangles plus witness."""

    results = [a1_ratio(model, root, theta, spec, tol=tol, max_cells=max_cells)
               for root in roots]
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
