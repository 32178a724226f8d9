"""Independent brute-force oracles used to cross-check the search code.

These deliberately avoid the library's pruned searches: they enumerate
every address level by level and re-derive maximality directly from the
definitions.
"""

import bisect
import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from parporo import porosity
from parporo.geometry import DyadicAddress, ParabolicRectangle
from parporo.intervals import Interval, interval_sum
from parporo.porosity import HoleResult
from parporo.sets import (BoxUnion, Freeness, HalfSpaceTime, IFSFractal, PointCloud,
                          SpatialHyperplane, _axis_gap, _axis_span, _box_measure,
                          _box_probe_points, _pow_neg, _primitive_abs,
                          parabolic_distance, rectangle_free)
from parporo.weights import IntegrationResult


def exact_realize(addr):
    """``DyadicAddress.realize`` worked out from the exact lattice values:
    each bound is ``float()`` of its Fraction or mpmath value."""
    root = addr.root
    w = float(root.l_x_at(addr.level))
    centers = []
    for c, s in zip(root.center, addr.spatial):
        origin = float(c - root.side / 2)
        centers.append(origin + (s + 0.5) * w)
    lo, _hi = addr.temporal_offsets()
    t_lo = root.t_lo_float() + float(lo) * root.l_t_root_float()
    gamma = float(addr.gamma())
    return ParabolicRectangle(
        center=tuple(centers),
        top_time=t_lo + w ** root.geom.p,
        side=w,
        gamma=min(max(gamma, 0.0), 0.5),
    )


def enumerate_addresses(root_addr, depth):
    frontier = [root_addr]
    for _ in range(depth):
        frontier = [c for a in frontier for c in a.children()]
        yield from frontier


def brute_force_hole(model, root_addr, depth):
    """Exhaustive maximal-hole search: every address to ``depth``, no pruning."""
    p = root_addr.root.geom.p
    if rectangle_free(model, root_addr.realize(), p) is Freeness.EMPTY:
        return root_addr
    best = None
    for addr in enumerate_addresses(root_addr, depth):
        if best is not None and addr.level > best.level:
            break
        if rectangle_free(model, addr.realize(), p) is Freeness.EMPTY:
            key = (addr.level, addr.temporal, addr.spatial)
            if best is None or key < (best.level, best.temporal, best.spatial):
                best = addr
    return best


def brute_force_maximal_free(model, root_addr, depth):
    """Free cells whose parent is not free, by direct enumeration."""
    p = root_addr.root.geom.p
    if rectangle_free(model, root_addr.realize(), p) is Freeness.EMPTY:
        return [root_addr]
    out = []
    for addr in enumerate_addresses(root_addr, depth):
        if rectangle_free(model, addr.realize(), p) is not Freeness.EMPTY:
            continue
        if rectangle_free(model, addr.parent().realize(), p) is Freeness.EMPTY:
            continue
        out.append(addr)
    return out


# ---------------------------------------------------------------------------
# free search: every cell of every non-free cell's children, one test each
# ---------------------------------------------------------------------------


def reference_walk(model, root_addr, depth_cap):
    """The search kernel without columns: per level, the free cells in
    (temporal, spatial) order, whether a verdict was UNKNOWN, and the
    non-free cells, whose ``children()`` form the next level."""
    if depth_cap < 0:
        raise ValueError("depth_cap must be nonnegative")
    p = root_addr.root.geom.p
    frontier = [root_addr]
    for rel in range(depth_cap + 1):
        if rel:
            frontier = [child for addr in frontier for child in addr.children()]
        free, rest = [], []
        unknown = False
        for addr in frontier:
            state = rectangle_free(model, addr.realize(), p)
            if state is Freeness.EMPTY:
                free.append(addr)
            else:
                unknown |= state is Freeness.UNKNOWN
                rest.append(addr)
        free.sort(key=lambda a: (a.temporal, a.spatial))
        yield free, unknown, rest
        frontier = rest


def reference_run_walk(model, root_addr, depth_cap, first_free=False):
    """``porosity._walk`` with every level's frontier built in full: each
    non-free run's spatial children are made before the level's heap runs.
    Runs are tested through ``porosity._freeness`` in the same
    (temporal, spatial) order and with the same stop."""
    root = root_addr.root
    frontier = [(root_addr, 1)]
    for rel in range(depth_cap + 1):
        if rel:
            k = root.k_at(root_addr.level + rel - 1)
            frontier = [(child, run * k) for addr, run in frontier
                        for child in addr.spatial_children()]
        free, rest, unknown = [], [], False
        queue = [(addr.temporal, addr.spatial, addr, run) for addr, run in frontier]
        heapq.heapify(queue)
        while queue:
            temporal, spatial, addr, run = heapq.heappop(queue)
            state = porosity._freeness(model, addr, run)
            if state is Freeness.EMPTY:
                free.append((addr, run))
            elif model.time_invariant or run == 1:
                unknown |= state is Freeness.UNKNOWN
                rest.append((addr, run))
            else:
                half = run // 2
                upper = temporal + half
                heapq.heappush(queue, (upper, spatial,
                                       DyadicAddress(root, addr.level, spatial, upper),
                                       run - half))
                heapq.heappush(queue, (temporal, spatial, addr, half))
            if first_free and free and (unknown or not model.answers_unknown):
                break
        yield free, unknown, rest
        frontier = rest


@dataclass(frozen=True)
class ReferenceSearch:
    members: tuple
    level_counts: tuple
    unknown_levels: tuple
    depth_cap_hit: bool
    total_measure: Fraction


def reference_maximal_free(model, root_addr, depth_cap):
    """Every level's free cells from ``reference_walk``, with the counts,
    flags and exact measure of ``porosity._maximal_free``."""
    members, counts, flags = [], [], []
    for free, unknown, rest in reference_walk(model, root_addr, depth_cap):
        members += free
        counts.append(len(free))
        flags.append(unknown)
    total = sum((root_addr.root.measure_fraction_at(root_addr.level + rel) * count
                 for rel, count in enumerate(counts)), Fraction(0))
    return ReferenceSearch(tuple(members), tuple(counts), tuple(flags), bool(rest), total)


def reference_maximal_hole(model, root_addr, depth_cap):
    """The first free cell of the first level of ``reference_walk`` that has one."""
    unknown_present = False
    for free, unknown, rest in reference_walk(model, root_addr, depth_cap):
        unknown_present |= unknown
        if free:
            best = free[0]
            return HoleResult(best, best.measure_fraction(), best.l_x(),
                              depth_cap_hit=False, unknown_present=unknown_present)
    return HoleResult(None, Fraction(0), Fraction(0), depth_cap_hit=bool(rest),
                      unknown_present=unknown_present)


def reference_verify_disjoint(partition, admissible):
    """``chains.verify_disjoint_from_admissible`` as a scan of every
    (member, admissible rectangle) pair."""
    for k in sorted(partition.groups):
        for member in partition.groups[k]:
            for adm in admissible.rectangles:
                if member.intersects(adm):
                    return False, (member, adm)
    return True, None


def halton(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton_array(count: int, base: int):
    """Vectorized van der Corput sequence for indices 1..count."""
    import numpy as np
    idx = np.arange(1, count + 1, dtype=np.int64)
    out = np.zeros(count, dtype=np.float64)
    f = 1.0
    while idx.any():
        f /= base
        out += f * (idx % base)
        idx //= base
    return out


# ---------------------------------------------------------------------------
# weight integrator: one frozen cell and one Interval per bound cell
# ---------------------------------------------------------------------------


def _reference_gaps_spans(model, box, p):
    """Per-point ``(gaps, spans)`` of a point cloud: generator maxima for
    small clouds; for large clouds numpy arrays over the points sorted by
    time, with numpy's own powers, as the model takes them."""
    bounds, (tlo, thi) = box
    inv = 1.0 / p
    if len(model.points) > 12:
        import numpy as np
        arr = np.asarray(model.points, dtype=float)
        arr = arr[np.argsort(arr[:, -1], kind="stable")]
        xs, ts = arr[:, :-1], arr[:, -1]
        lo = np.asarray([b[0] for b in bounds])
        hi = np.asarray([b[1] for b in bounds])
        gaps = np.maximum(np.maximum(lo - xs, xs - hi), 0.0)
        spans = np.maximum(np.abs(lo - xs), np.abs(hi - xs))
        sp_gap = gaps.max(axis=1) if gaps.shape[1] else np.zeros(len(ts))
        sp_span = spans.max(axis=1) if spans.shape[1] else np.zeros(len(ts))
        t_gap = np.maximum(np.maximum(tlo - ts, ts - thi), 0.0)
        t_span = np.maximum(np.abs(tlo - ts), np.abs(thi - ts))
        return np.maximum(sp_gap, t_gap ** inv), np.maximum(sp_span, t_span ** inv)
    gaps, spans = [], []
    for *zx, zt in model.points:
        inf_sp = max((_axis_gap(lo, hi, x) for (lo, hi), x in zip(bounds, zx)),
                     default=0.0)
        sup_sp = max((_axis_span(lo, hi, x) for (lo, hi), x in zip(bounds, zx)),
                     default=0.0)
        gaps.append(max(inf_sp, _axis_gap(tlo, thi, zt) ** inv))
        spans.append(max(sup_sp, _axis_span(tlo, thi, zt) ** inv))
    return gaps, spans


def _reference_gap_span(model, box, p):
    gaps, spans = _reference_gaps_spans(model, box, p)
    return float(min(gaps)), float(min(spans))


@functools.lru_cache(maxsize=None)
def exact_cylinders(model, depth=10):
    """The ``2^depth`` cylinders of a one-dimensional IFS model, worked out
    in ``Fraction``s of the model's own float coefficients: the sorted cells
    ``f_w(hull)`` (the hull of the attractor runs between the smallest and
    the largest fixed point) and the sorted attractor points ``f_w(z)``,
    ``z`` the first map's fixed point (0 for the Cantor maps).  Cells and
    points are both lists of closed intervals."""
    maps = [(Fraction(m.ratio), Fraction(m.shift[0])) for m in model.maps]
    fixed = [s / (1 - r) for r, s in maps]
    words = [(Fraction(1), Fraction(0))]
    for _ in range(depth):
        words = [(r * mr, r * ms + s) for r, s in words for mr, ms in maps]
    cells = sorted((r * min(fixed) + s, r * max(fixed) + s) for r, s in words)
    return cells, [(x, x) for x in sorted(r * fixed[0] + s for r, s in words)]


def exact_gap(intervals, a, b):
    """Exact distance between ``[a, b]`` and the union of sorted disjoint
    closed intervals."""
    i = bisect.bisect_right(intervals, (b, math.inf))
    left = a - intervals[i - 1][1] if i else math.inf
    right = intervals[i][0] - b if i < len(intervals) else math.inf
    return max(0, min(left, right))


def exact_sup(intervals, a, b):
    """Exact sup over ``[a, b]`` of the distance to the union of sorted
    disjoint closed intervals: at an end of ``[a, b]`` or at the middle of
    a gap between two intervals, clipped to ``[a, b]``."""
    xs = [a, b]
    for (_, h), (l, _) in zip(intervals, intervals[1:]):
        if h < b and l > a:
            xs.append(min(max((h + l) / 2, a), b))
    return max(exact_gap(intervals, x, x) for x in xs)


def _nearest_point(closed_box, pt):
    """The point of a closed space-time box nearest to ``pt`` on every axis."""
    bounds, times = closed_box
    return tuple(min(max(v, lo), hi) for v, (lo, hi) in zip(pt, (*bounds, times)))


def reference_dist_box_range(model, box, p):
    """Certified ``(inf, sup)`` brackets of dist_p(., E) over the box closure,
    worked out per model: closed forms for the half spaces and the
    hyperplane; for clouds and box unions the inf and the span, with the
    farthest probe point as the sup's lower witness, its distance the least
    metric distance to a point of the cloud or to the nearest point of a
    box.  For a one-dimensional IFS both are exact ``Fraction`` pairs from
    ``exact_cylinders``: the distance to the cells (which cover E) below,
    the distance to the points (which lie in E) above."""
    bounds, (tlo, thi) = box
    inv = 1.0 / p
    if isinstance(model, IFSFractal):
        (a, b), = ((Fraction(lo), Fraction(hi)) for lo, hi in bounds)
        cells, points = exact_cylinders(model)
        return ((exact_gap(cells, a, b), exact_gap(points, a, b)),
                (exact_sup(cells, a, b), exact_sup(points, a, b)))
    if isinstance(model, HalfSpaceTime):
        if model.future:
            inf_g, sup_g = max(0.0, model.t0 - thi), max(0.0, model.t0 - tlo)
        else:
            inf_g, sup_g = max(0.0, tlo - model.t0), max(0.0, thi - model.t0)
        return Interval.point(inf_g ** inv), Interval.point(sup_g ** inv)
    if isinstance(model, SpatialHyperplane):
        lo, hi = bounds[model.axis]
        return (Interval.point(_axis_gap(lo, hi, model.value)),
                Interval.point(_axis_span(lo, hi, model.value)))
    if isinstance(model, PointCloud):
        inf, sup_hi = _reference_gap_span(model, box, p)
        sup_lo = max(min(parabolic_distance(pt, z, p) for z in model.points)
                     for pt in _box_probe_points(box))
    else:
        singles = [model._box_range_single(b, box, p) for b in model.boxes]
        inf, sup_hi = min(s[0] for s in singles), min(s[1] for s in singles)
        sup_lo = max(min(parabolic_distance(pt, _nearest_point(b, pt), p) for b in model.boxes)
                     for pt in _box_probe_points(box))
    return Interval.point(inf), Interval(min(sup_lo, sup_hi), sup_hi)


def _reference_hyperplane(model, box, q):
    bounds, (tlo, thi) = box
    lo, hi = bounds[model.axis]
    if q >= 1.0 and lo <= model.value <= hi:
        return None
    cross = thi - tlo
    for j, (blo, bhi) in enumerate(bounds):
        if j != model.axis:
            cross *= bhi - blo
    line = _primitive_abs(hi - model.value, q) - _primitive_abs(lo - model.value, q)
    return Interval.around(max(line, 0.0)) * Interval.around(cross)


def _reference_pointcloud_upper(model, box, q, p, n):
    """The layer-cake closure of a cell that touches a point cloud: per
    point, the ball bound ``2^(n+1) s/(s-q) span^(s-q)`` (``s = n + p``)
    capped by the bound with layers clipped at |cell|; points at positive
    gap add |cell| times the nearest gap's weight."""
    s = n + p
    if q >= s:
        return None
    measure = _box_measure(box)
    factor = s / (s - q)
    capped = measure ** (1.0 - q / s) * (2.0 ** (n + 1)) ** (q / s) * factor
    gaps, spans = _reference_gaps_spans(model, box, p)
    near = [min((2.0 ** (n + 1)) * factor * float(sp) ** (s - q), capped)
            for g, sp in zip(gaps, spans) if not g > 0.0]
    far = [float(g) for g in gaps if g > 0.0]
    return sum(near, 0.0) + (measure * _pow_neg(min(far), q) if far else 0.0)


def _reference_halfspace(model, box, q, p):
    bounds, (tlo, thi) = box
    cross = 1.0
    for lo, hi in bounds:
        cross *= hi - lo
    s = q / p
    gap_lo = (model.t0 - thi) if model.future else (tlo - model.t0)
    gap_hi = (model.t0 - tlo) if model.future else (thi - model.t0)
    if gap_hi <= 0 or gap_lo < 0 or (gap_lo == 0.0 and s >= 1.0):
        return None
    if s == 1.0:
        line = math.log(gap_hi) - math.log(gap_lo)
    else:
        line = (gap_hi ** (1.0 - s) - gap_lo ** (1.0 - s)) / (1.0 - s)
    return Interval.around(max(line, 0.0)) * Interval.around(cross)


@dataclass(frozen=True)
class _Cell:
    box: tuple
    bracket: Interval
    diverged: bool
    lower_only: bool


def _reference_cell(model, box, spec):
    q, p = spec.q, spec.p
    if isinstance(model, SpatialHyperplane):
        exact = _reference_hyperplane(model, box, q)
        if exact is not None:
            return _Cell(box, exact, False, False)
        _, sup_iv = reference_dist_box_range(model, box, p)
        lo = _box_measure(box) * _pow_neg(sup_iv.hi, q)
        return _Cell(box, Interval(lo, math.inf), True, False)
    if isinstance(model, HalfSpaceTime):
        exact = _reference_halfspace(model, box, q, p)
        if exact is not None:
            return _Cell(box, exact, False, False)
        return _Cell(box, Interval(0.0, math.inf), True, False)
    if isinstance(model, PointCloud):
        inf_lo, sup_hi = _reference_gap_span(model, box, p)
    else:
        inf_lo, sup_hi = model.dist_box_gap_span(box, p)
    measure = _box_measure(box)
    lo = measure * _pow_neg(sup_hi, q) if sup_hi > 0 else 0.0
    if inf_lo > 0.0:
        return _Cell(box, Interval(lo, measure * _pow_neg(inf_lo, q)), False, False)
    if isinstance(model, PointCloud):
        hi = _reference_pointcloud_upper(model, box, q, p, spec.n)
        if hi is not None:
            return _Cell(box, Interval(min(lo, hi), hi), False, False)
        return _Cell(box, Interval(lo, math.inf), True, False)
    if isinstance(model, BoxUnion) and not all(
            any(lo == hi for lo, hi in ebounds) or etlo == ethi
            for ebounds, (etlo, ethi) in model.boxes):
        # a cell that touches a solid box meets E in positive measure
        return _Cell(box, Interval(lo, math.inf), True, False)
    return _Cell(box, Interval(lo, math.inf), False, True)


def reference_split_box(box, p):
    """``sets._split_box`` from a widths list: the first widest spatial
    axis is halved unless the time side is parabolically longer."""
    bounds, (tlo, thi) = box
    widths = [hi - lo for lo, hi in bounds]
    t_eff = (thi - tlo) ** (1.0 / p)
    if widths and max(widths) >= t_eff:
        j = widths.index(max(widths))
        lo, hi = bounds[j]
        mid = 0.5 * (lo + hi)
        left = tuple((mid, hi) if i == j else b for i, b in enumerate(bounds))
        right = tuple((lo, mid) if i == j else b for i, b in enumerate(bounds))
        return (right, (tlo, thi)), (left, (tlo, thi))
    mid = 0.5 * (tlo + thi)
    return (bounds, (tlo, mid)), (bounds, (mid, thi))


def reference_integrate(model, rect, spec, tol=1e-6, max_cells=40000):
    """``weights.integrate_weight`` with a frozen ``_Cell`` and an
    ``Interval`` per bound cell: the same refinement, tie order and leaf
    order, so its result must agree bit for bit."""
    heap, settled = [], []
    counter = 0
    diverged = lower_only = False
    run_lo = run_hi = 0.0

    def push(cell):
        nonlocal counter, diverged, lower_only, run_lo, run_hi
        diverged |= cell.diverged
        lower_only |= cell.lower_only
        run_lo += cell.bracket.lo
        run_hi += cell.bracket.hi
        width = cell.bracket.width
        if cell.diverged or cell.lower_only or not math.isfinite(width) or width <= 0:
            settled.append(cell)
        else:
            heapq.heappush(heap, (-width, counter, cell))
        counter += 1

    push(_reference_cell(model, rect.box(spec.p), spec))
    processed = 0
    while heap and processed < max_cells:
        scale = max(abs(run_lo + run_hi) * 0.5, 1e-300)
        if math.isfinite(run_hi) and run_hi - run_lo <= 0.9 * tol * scale:
            break
        _, _, cell = heapq.heappop(heap)
        run_lo -= cell.bracket.lo
        run_hi -= cell.bracket.hi
        for half in reference_split_box(cell.box, spec.p):
            push(_reference_cell(model, half, spec))
        processed += 1

    leaves = settled + [c for _, _, c in heap]
    leaves.sort(key=lambda c: (c.box[1][0], c.box[0]))
    total = interval_sum([(c.bracket.lo, c.bracket.hi) for c in leaves])
    scale = max(abs(total.mid), 1e-300)
    converged = math.isfinite(total.hi) and total.width <= tol * scale
    return IntegrationResult(value=total, converged=converged, diverged=diverged,
                             lower_only=lower_only, cells=len(leaves))
