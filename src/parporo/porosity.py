"""Maximal free dyadic subrectangles, admissible collections, and porosity scans.

Hole measures are exact rationals in units of the lattice root's measure,
so admissibility thresholds compare exactly.  One kernel, ``_walk``, holds
the only search loop: breadth first, level by level, with pruning at free
rectangles.  The maximal free collection is every level's free cells.  The
maximal hole is the least free cell, by (temporal, spatial) index, of the
first level that has one; its search tests that level's runs in that
order and stops at the first free one, so it never walks the rest of the
level, nor any level below.  Depth caps always surface in the result
instead of silently truncating.

Slab runs: the kernel's unit of work is a run, a cell together with the
next ``m - 1`` slabs of its spatial column, tested once by the model's
``meets_run``, the verdict on the run's box (``DyadicAddress.run_box``).
A spatial child of a run at level ``L`` is the run of the ``m * k_L`` slabs
under it.  ``meets_run`` is monotone under inclusion and the run box
contains every slab's box, so a run E misses is free slab by slab; a run E
meets is bisected in time until the halves are free or single slabs.  On a
time-invariant set (``model.time_invariant``, a product ``F x R``) every
slab of a run gets the same verdict, so a non-free run is never bisected
and a level ``L`` below a level-``b`` base holds one run of
``K_{b+L} / K_b`` slabs per spatial column.  Member addresses are built
only when a consumer reads them.

One search, level cuts: the maximal free collection of a root depends on
neither delta nor theta, and cells on one level share a measure, so every
admissible collection is a cut of it at the level ``delta * |M(R^theta)|``
fixes.  Each root is searched once, as deep as its deepest cut needs.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterator, Optional, Sequence

from .geometry import DyadicAddress, Root
from .intervals import Interval
from .sets import ClosedSetModel, Freeness, sup_distance_bracket


@dataclass(frozen=True)
class HoleResult:
    """A largest E-free dyadic subrectangle found under the depth cap.

    ``measure`` is |hole| / |lattice root| (zero when nothing was found);
    with ``unknown_present`` the measure is only a certified lower bound.
    """

    address: Optional[DyadicAddress]
    measure: Fraction
    side: Fraction
    depth_cap_hit: bool = False
    unknown_present: bool = False


class _FreeLevel:
    """The free cells of one search level, held as free slab runs: each run
    is its cell at the first slab and its slab count."""

    __slots__ = ("runs", "count", "_cells")

    def __init__(self, runs: Sequence[tuple[DyadicAddress, int]]):
        self.runs = tuple(runs)
        self.count = sum(run for _addr, run in self.runs)
        self._cells: Optional[tuple[DyadicAddress, ...]] = None

    def __len__(self) -> int:
        return self.count

    def cells(self) -> tuple[DyadicAddress, ...]:
        """The members in (temporal, spatial) order; built once."""
        if self._cells is None:
            order = sorted((t, addr.spatial, addr) for addr, run in self.runs
                           for t in range(addr.temporal, addr.temporal + run))
            self._cells = tuple(addr if t == addr.temporal else addr._with_temporal(t)
                                for t, _spatial, addr in order)
        return self._cells


class Members(SequenceABC):
    """The members of a free search in (level, temporal, spatial) order.

    Its length is known from the free runs alone; the addresses of a level
    are built on first read, and a cut of the search shares them.  Compares equal to any sequence with the same members.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: Sequence[_FreeLevel]):
        self.levels = tuple(levels)

    def __len__(self) -> int:
        return sum(len(level) for level in self.levels)

    def __iter__(self) -> Iterator[DyadicAddress]:
        for level in self.levels:
            yield from level.cells()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        if index < 0:
            index += len(self)
        if index >= 0:
            for level in self.levels:
                if index < len(level):
                    return level.cells()[index]
                index -= len(level)
        raise IndexError("member index out of range")

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Members, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Members({len(self)} in {len(self.levels)} levels)"


@dataclass(frozen=True)
class CollectionReport:
    """Pairwise disjoint dyadic rectangles plus exact coverage bookkeeping."""

    base: DyadicAddress
    rectangles: Sequence[DyadicAddress]
    total_measure: Fraction       # in units of |lattice root|
    covered_fraction: Fraction    # total relative to |base|
    depth_cap_hit: bool = False
    unknown_present: bool = False


@dataclass(frozen=True)
class FreeSearch(CollectionReport):
    """Maximal E-free subrectangles of ``base`` down to ``depth`` levels below it.

    ``rectangles`` (a ``Members``) are sorted by (level, temporal, spatial),
    so a shallower search is a prefix; ``level_counts[i]`` is the number of
    members and ``unknown_levels[i]`` whether a verdict was UNKNOWN ``i``
    levels below the base, and ``depth_cap_hit`` that non-free cells remain
    at the deepest level searched.
    """

    level_counts: tuple[int, ...] = ()
    unknown_levels: tuple[bool, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.unknown_levels) - 1

    def to_depth(self, levels: int) -> "FreeSearch":
        """What ``_maximal_free(model, base, levels)`` returns, cut from this
        search and sharing its addresses.  Deeper than the search only works
        once the search ran out of non-free cells."""
        if levels > self.depth and self.depth_cap_hit:
            raise ValueError(f"a search {self.depth} levels deep with non-free cells "
                             f"left cannot be cut {levels} levels deep")
        flags = (self.unknown_levels + (False,) * levels)[:levels + 1]
        return _free_search(self.base, self.rectangles.levels[:levels + 1], flags,
                            any(self.level_counts[levels + 1:]) or self.depth_cap_hit)


def _free_search(base: DyadicAddress, levels: Sequence[_FreeLevel],
                 unknown_levels: tuple[bool, ...], cap_hit: bool) -> FreeSearch:
    counts = tuple(len(level) for level in levels)
    counts += (0,) * (len(unknown_levels) - len(counts))
    total = sum((base.root.measure_fraction_at(base.level + rel) * count
                 for rel, count in enumerate(counts) if count), Fraction(0))
    return FreeSearch(base=base, rectangles=Members(levels), total_measure=total,
                      covered_fraction=total / base.measure_fraction(),
                      depth_cap_hit=cap_hit, unknown_present=any(unknown_levels),
                      level_counts=counts, unknown_levels=unknown_levels)


@dataclass(frozen=True)
class PorosityReport:
    delta: Fraction
    theta: float
    depth_cap: int
    samples: tuple[dict, ...]
    empirical_c: Fraction
    witness_index: int
    depth_cap_hit: bool
    unknown_present: bool
    # per-root free searches the samples were cut from, shared by every
    # report of one curve
    searches: tuple[FreeSearch, ...] = field(default=(), repr=False, compare=False)


def _freeness(model: ClosedSetModel, addr: DyadicAddress, run: int) -> Freeness:
    return model.meets_run(addr, run)


def _walk(model: ClosedSetModel, root_addr: DyadicAddress, depth_cap: int,
          first_free: bool = False
          ) -> Iterator[tuple[list[tuple[DyadicAddress, int]], bool,
                              list[tuple[DyadicAddress, int]]]]:
    """Per level down to ``depth_cap`` below ``root_addr``: the free runs,
    whether a verdict was UNKNOWN, and the non-free runs, whose spatial
    children are built only when the next level reaches them.

    A run ``(addr, m)`` is the ``m`` slabs of ``addr``'s spatial column from
    ``addr`` on; the root is ``(root_addr, 1)``, and a spatial child of
    ``(addr, m)`` is ``(child at addr.temporal * k, m * k)``.  Each run is
    tested once, through the module-global ``_freeness``, which asks the
    model's ``meets_run``: a point cloud answers from its column's times, the
    other models test the run's box.  A run E misses is free.  A run E
    meets stays non-free when it is a single slab or the set is
    time-invariant, and only such a verdict counts as UNKNOWN; any other
    run is bisected in time into a lower half, at the run's own first
    slab, and an upper half, an address moved in time without
    re-validation.  UNKNOWN runs count as non-free and are descended into.

    Which runs are tested does not depend on the order they are tested in.
    The walk takes them from a heap by the (temporal, spatial) index of
    their first slab, and a half never comes before the run it halves, so
    the first free run tested starts at the least free cell of its level.
    With ``first_free`` the caller stops there: that level's free runs
    start with that run, and its non-free runs are the ones tested so far.
    A model that never answers UNKNOWN stops testing at that run; one that
    may (``model.answers_unknown``) goes on until it sees an UNKNOWN
    verdict, so the level's flag is the full walk's.

    Children are built only when the walk reaches them.  A non-free run of
    the level above goes on the heap once, keyed at its first child's
    ``(temporal * k, spatial * 2^d)``, the least key of its children; when
    it comes off the heap, its spatial children take its place.  The heap
    therefore pops runs in the order of a heap filled with every child (at
    n >= 2 the children of neighbouring parents interleave, and the heap
    sorts them), and a search that stops early never builds the children
    of parents it did not reach.  Invariant: keys are unique within a
    level.  The runs of a level are disjoint, a halved run's halves start
    at distinct slabs, and a parent shares its key only with its first
    child, which is pushed after the parent left the heap; so the heap
    never compares addresses.
    """
    if depth_cap < 0:
        raise ValueError("depth_cap must be nonnegative")
    invariant = model.time_invariant
    drain = model.answers_unknown
    root = root_addr.root
    split = 1 << root.geom.d
    # heap entries: (temporal, spatial, address, slab count, expand), where
    # an entry to expand is a parent keyed at its first child
    queue = [(root_addr.temporal, root_addr.spatial, root_addr, 1, False)]
    for rel in range(depth_cap + 1):
        free: list[tuple[DyadicAddress, int]] = []
        rest: list[tuple[DyadicAddress, int]] = []
        unknown = False
        while queue:
            temporal, spatial, addr, run, expand = heappop(queue)
            if expand:
                for child in addr.spatial_children():
                    heappush(queue, (temporal, child.spatial, child, run, False))
                continue
            state = _freeness(model, addr, run)
            if state is Freeness.EMPTY:
                free.append((addr, run))
            elif invariant or run == 1:
                unknown |= state is Freeness.UNKNOWN
                rest.append((addr, run))
            else:
                half = run // 2
                upper = temporal + half
                heappush(queue, (upper, spatial, addr._with_temporal(upper), run - half,
                                 False))
                heappush(queue, (temporal, spatial, addr, half, False))
            if first_free and free and (unknown or not drain):
                break
        yield free, unknown, rest
        if rel < depth_cap:
            k = root.k_at(root_addr.level + rel)
            queue = [(addr.temporal * k, tuple(s * split for s in addr.spatial), addr,
                      run * k, True) for addr, run in rest]
            heapify(queue)


def maximal_hole(model: ClosedSetModel, root_addr: DyadicAddress,
                 depth_cap: int) -> HoleResult:
    """A free rectangle of maximal spatial side: the least free cell, by
    (temporal, spatial) index, of the first level of the search that has
    one.  The search walks in that order and stops at that cell.

    UNKNOWN rectangles count as non-free, which keeps the result a certified
    lower bound; ``unknown_present`` covers the levels down to the hole's,
    each level's whole walk included.
    """
    unknown_present = False
    for free, unknown, rest in _walk(model, root_addr, depth_cap, first_free=True):
        unknown_present |= unknown
        if free:
            best = free[0][0]
            return HoleResult(best, best.measure_fraction(), best.l_x(),
                              depth_cap_hit=False, unknown_present=unknown_present)
    return HoleResult(None, Fraction(0), Fraction(0),
                      depth_cap_hit=bool(rest), unknown_present=unknown_present)


def free_collection(model: ClosedSetModel, root_addr: DyadicAddress,
                    depth_cap: int) -> FreeSearch:
    """Maximal E-free dyadic subrectangles: free rectangles whose parent is not free."""
    return _maximal_free(model, root_addr, depth_cap)


def _maximal_free(model: ClosedSetModel, root_addr: DyadicAddress,
                  depth_cap: int) -> FreeSearch:
    levels: list[_FreeLevel] = []
    unknown_levels: list[bool] = []
    for free, unknown, rest in _walk(model, root_addr, depth_cap):
        levels.append(_FreeLevel(free))
        unknown_levels.append(unknown)
    return _free_search(root_addr, levels, tuple(unknown_levels), bool(rest))


def hole_of_translate(model: ClosedSetModel, base: DyadicAddress, theta,
                      depth_cap: int) -> HoleResult:
    """Maximal hole of the base rectangle translated by ``theta`` own lengths.

    Integer translations stay inside the extended lattice and are exact;
    real translations anchor a fresh lattice at the shifted rectangle.
    """
    if float(theta) == int(theta):
        return maximal_hole(model, base.translated(int(theta)), depth_cap)
    root = base.root
    geom = root.geom
    if base.level == 0:
        shifted = root.translated(float(theta) + base.temporal)
        return maximal_hole(model, shifted.address(), depth_cap)
    # non-integer translation of a deeper cell: anchor a lattice at the cell
    intervals = base.spatial_intervals()
    center = tuple((lo + hi) / 2 for lo, hi in intervals)
    rect = base.realize()
    lt = rect.l_t(geom.p)
    gamma = min(Fraction(float(base.gamma())), Fraction(1, 2))
    sub = Root(geom, center, rect.top_time + float(theta) * lt, base.l_x(), gamma)
    inner = maximal_hole(model, sub.address(), depth_cap)
    scale = base.measure_fraction()
    return HoleResult(inner.address, inner.measure * scale, inner.side,
                      inner.depth_cap_hit, inner.unknown_present)


def _cut_level(root_addr: DyadicAddress, hole: HoleResult, delta: Fraction,
               depth_cap: int) -> tuple[int, bool]:
    """Levels below ``root_addr`` whose cells measure at least
    ``delta * hole.measure`` (at most ``depth_cap``), and whether the cut is
    cap-starved: the threshold lies past the cap, or the hole is uncertain."""
    if hole.measure == 0:
        return depth_cap, True  # a deeper hole could still set a threshold
    threshold = delta * hole.measure
    root = root_addr.root
    levels = 0
    while levels <= depth_cap and \
            root.measure_fraction_at(root_addr.level + levels + 1) >= threshold:
        levels += 1
    return min(levels, depth_cap), levels > depth_cap or hole.depth_cap_hit


def search_for_cuts(model: ClosedSetModel, root_addr: DyadicAddress,
                    hole: HoleResult, deltas: Sequence[Fraction], depth_cap: int,
                    reuse: Optional[FreeSearch] = None) -> FreeSearch:
    """One free search of ``root_addr`` deep enough for every delta's cut;
    ``reuse`` instead when it is deep enough or ran out of non-free cells."""
    levels = max(_cut_level(root_addr, hole, d, depth_cap)[0] for d in deltas)
    if reuse is not None and (levels <= reuse.depth or not reuse.depth_cap_hit):
        return reuse
    return _maximal_free(model, root_addr, levels)


def admissible_cut(search: FreeSearch, hole: HoleResult, delta: Fraction,
                   depth_cap: int) -> CollectionReport:
    """Maximal free rectangles with |P| >= delta * |M(R^theta)|, cut from the
    search of the base; ``hole`` is the maximal hole of R^theta."""
    levels, cap_hit = _cut_level(search.base, hole, delta, depth_cap)
    cut = search.to_depth(levels)
    return CollectionReport(cut.base, cut.rectangles, cut.total_measure,
                            cut.covered_fraction, depth_cap_hit=cap_hit,
                            unknown_present=cut.unknown_present or hole.unknown_present)


def admissible_collection(model: ClosedSetModel, root_addr: DyadicAddress,
                          delta: Fraction, theta, depth_cap: int,
                          hole: Optional[HoleResult] = None) -> CollectionReport:
    """Maximal free rectangles with |P| >= delta * |M(R^theta)|.

    Because all rectangles on one level share a measure, the threshold is a
    pure level cutoff; the search never descends past it, which makes the
    reported coverage exact whenever the cutoff is within the cap.
    """
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if hole is None:
        hole = hole_of_translate(model, root_addr, theta, depth_cap)
    search = search_for_cuts(model, root_addr, hole, [delta], depth_cap)
    return admissible_cut(search, hole, delta, depth_cap)


def complementary_collection(model: ClosedSetModel, root_addr: DyadicAddress,
                             delta: Fraction, theta, depth_cap: int,
                             admissible: Optional[CollectionReport] = None
                             ) -> CollectionReport:
    """Maximal dyadic rectangles disjoint from the admissible union whose
    parent meets it."""
    if admissible is None:
        admissible = admissible_collection(model, root_addr, delta, theta, depth_cap)
    member_keys = {m.key() for m in admissible.rectangles}
    ancestors: set = set()
    for m in admissible.rectangles:
        for lvl in range(root_addr.level, m.level):
            ancestors.add(m.ancestor(lvl).key())
    out: list[DyadicAddress] = []
    if not member_keys or root_addr.key() not in ancestors:
        # admissible union empty, or the base itself is admissible: no complement
        return CollectionReport(root_addr, (), Fraction(0), Fraction(0),
                                admissible.depth_cap_hit, admissible.unknown_present)
    stack = [root_addr]
    while stack:
        addr = stack.pop()
        for child in addr.children():
            key = child.key()
            if key in member_keys:
                continue
            if key in ancestors:
                stack.append(child)
            else:
                out.append(child)
    total = sum((m.measure_fraction() for m in out), Fraction(0))
    out.sort(key=lambda a: (a.level, a.temporal, a.spatial))
    return CollectionReport(
        base=root_addr,
        rectangles=tuple(out),
        total_measure=total,
        covered_fraction=total / root_addr.measure_fraction(),
        depth_cap_hit=admissible.depth_cap_hit,
        unknown_present=admissible.unknown_present,
    )


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def _root_descriptor(root: Root) -> dict:
    from .serialize import number_str
    return {
        "center": [number_str(c) for c in root.center],
        "top_time": number_str(root.top_time),
        "side": number_str(root.side),
        "gamma0": number_str(root.gamma0),
    }


def porosity_curve(model: ClosedSetModel, roots: Sequence[Root],
                   deltas: Sequence[Fraction], theta, depth_cap: int,
                   searches: Optional[Sequence[FreeSearch]] = None,
                   holes: Optional[Sequence[Optional[HoleResult]]] = None
                   ) -> list[PorosityReport]:
    """Covered fractions per root for each delta; one report per delta.

    One search, level cuts: each root's hole and free search are computed
    once, and every delta's admissible collection is a cut of that search;
    ``searches`` (one per root, say another curve's) are cut instead when
    deep enough, and ``holes`` (one per root, ``None`` where unknown) are
    the roots' maximal holes at ``theta`` when the caller already has them.
    The roots are searched one after the other, in sample order.
    """
    deltas = [Fraction(d) for d in deltas]
    if not deltas or any(not 0 < d < 1 for d in deltas):
        raise ValueError("deltas must lie in (0, 1)")
    reuse = searches or [None] * len(roots)
    known = holes or [None] * len(roots)

    computed = []
    for root, old, hole in zip(roots, reuse, known, strict=True):
        base = root.address()
        if hole is None:
            hole = hole_of_translate(model, base, theta, depth_cap)
        computed.append((root, hole, search_for_cuts(model, base, hole, deltas,
                                                     depth_cap, old)))
    found = tuple(search for _root, _hole, search in computed)
    reports = []
    for d in deltas:
        samples = []
        cap_hit = False
        unknown = False
        for root, hole, search in computed:
            rep = admissible_cut(search, hole, d, depth_cap)
            cap_hit |= rep.depth_cap_hit
            unknown |= rep.unknown_present
            samples.append({
                "root": _root_descriptor(root),
                "covered": rep.covered_fraction,
                "hole": hole.measure,
                "depth_cap_hit": rep.depth_cap_hit,
            })
        values = [s["covered"] for s in samples]
        witness = min(range(len(values)), key=lambda i: (values[i], i))
        reports.append(PorosityReport(
            delta=d, theta=float(theta), depth_cap=depth_cap,
            samples=tuple(samples), empirical_c=values[witness],
            witness_index=witness, depth_cap_hit=cap_hit, unknown_present=unknown,
            searches=found))
    return reports


def hole_esssup_bracket(model: ClosedSetModel, addr: DyadicAddress,
                        tol: float = 1e-9, max_cells: int = 20000
                        ) -> tuple[Interval, bool]:
    """Bracket on the essential sup of dist_p(., E) over the rectangle.

    The distance function is continuous, so the essential sup equals the
    sup over the closure; exact for single-formula models, branch-and-bound
    otherwise with a flagged wide bracket at the cell cap.
    """
    return sup_distance_bracket(model, addr.run_box(), addr.root.geom.p, tol=tol,
                                max_cells=max_cells)
