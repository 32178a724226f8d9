"""Stopping-time machinery over forward-in-time parent chains, plus the
constructive doubling-chain builder.

The stopping time of a dyadic rectangle counts forward-parent steps until
a translated ancestor contains a free dyadic rectangle of measure at least
``Lambda``; translations are searched on the integer sublattice of
``[phi - theta0, Phi - theta0]`` (the grid can only delay stopping, and
every structural law proved for the continuum search uses integer
witnesses, so the laws are checked as stated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import mpmath

from .geometry import DyadicAddress, Geometry, Root, StoppingParams, _to_fraction
from .porosity import CollectionReport, HoleResult, hole_of_translate, maximal_hole
from .sets import ClosedSetModel


class HoleCache:
    """Memo for maximal-hole queries keyed by address and depth cap."""

    def __init__(self, model: ClosedSetModel, depth_cap: int):
        self.model = model
        self.depth_cap = depth_cap
        self._memo: dict = {}

    def hole(self, addr: DyadicAddress) -> HoleResult:
        key = addr.key()
        hit = self._memo.get(key)
        if hit is None:
            hit = maximal_hole(self.model, addr, self.depth_cap)
            self._memo[key] = hit
        return hit

    def hole_of_translate(self, addr: DyadicAddress, theta) -> HoleResult:
        """The hole of ``addr`` translated by ``theta`` own lengths: integer
        translations stay in the lattice and are memoized, real ones anchor
        a fresh lattice through ``porosity.hole_of_translate``."""
        if float(theta) == int(theta):
            return self.hole(addr.translated(int(theta)))
        return hole_of_translate(self.model, addr, theta, self.depth_cap)


def _cache_for(model: ClosedSetModel, depth_cap: int,
               cache: Optional[HoleCache]) -> HoleCache:
    """``cache``, or a new one when none is given; a cache holds the holes of
    one model at one depth cap, so any other is refused."""
    if cache is None:
        return HoleCache(model, depth_cap)
    if cache.model is not model or cache.depth_cap != depth_cap:
        raise ValueError("hole cache was built for another model or depth cap")
    return cache


def theta_grid_for(params: StoppingParams, density: int = 1) -> list[float]:
    """Search translations: the integer sublattice of
    ``[phi - theta0, Phi - theta0]`` refined ``density`` times per unit.

    Every structural law's witness is an integer, so density 1 suffices for
    verification; finer grids can only lower the reported stopping times.
    """
    if density < 1:
        raise ValueError("density must be at least 1")
    lo, hi = params.phi - params.theta0, params.Phi - params.theta0
    if density == 1:
        return [float(t) for t in range(lo, hi + 1)]
    steps = (hi - lo) * density
    return [lo + i / density for i in range(steps + 1)]


@dataclass(frozen=True)
class StoppingOutcome:
    tau: Optional[int]
    witness_theta: Optional[float]
    witness_measure: Fraction
    certified: bool  # False when cap-limited holes may hide a smaller tau


def stopping_time(model: ClosedSetModel, addr: DyadicAddress, Lambda: Fraction,
                  params: StoppingParams, depth_cap: int,
                  theta_grid: Optional[Sequence[float]] = None,
                  cache: Optional[HoleCache] = None) -> StoppingOutcome:
    """Smallest k with a Lambda-sized hole in a translated k-th forward parent.

    A qualifying k is genuine (holes are certified lower bounds); a
    non-qualifying k may be a false negative under the depth cap, which is
    what ``certified`` reports.
    """
    if addr.level < 1:
        raise ValueError("stopping time requires a rectangle below the root level")
    Lambda = Fraction(Lambda)
    if Lambda <= 0:
        raise ValueError("Lambda must be positive")
    grid = list(theta_grid) if theta_grid is not None else list(params.theta_range())
    lo, hi = params.phi - params.theta0, params.Phi - params.theta0
    for theta in grid:
        if not lo <= float(theta) <= hi:
            raise ValueError(f"search translation {theta} outside [{lo}, {hi}]")
    cache = _cache_for(model, depth_cap, cache)
    any_cap_limited = False
    current = addr
    for k in range(1, addr.level + 1):
        current = current.forward_parent(params)
        best: Optional[tuple[Fraction, float]] = None
        for theta in grid:
            hole = cache.hole_of_translate(current, theta)
            any_cap_limited |= hole.depth_cap_hit or hole.unknown_present
            if best is None or hole.measure > best[0]:
                best = (hole.measure, float(theta))
        if best is not None and best[0] >= Lambda:
            return StoppingOutcome(tau=k, witness_theta=best[1],
                                   witness_measure=best[0], certified=True)
    return StoppingOutcome(tau=None, witness_theta=None,
                           witness_measure=Fraction(0),
                           certified=not any_cap_limited)


@dataclass(frozen=True)
class StoppingPartition:
    """Chain elements grouped by stopping time, with exact union measures."""

    root_addr: DyadicAddress
    Lambda: Fraction
    params: StoppingParams
    depth_cap: int
    base: tuple[DyadicAddress, ...]
    groups: dict[int, tuple[DyadicAddress, ...]]
    union_measures: dict[int, Fraction]
    tau_by_key: dict
    certified: bool

    def max_index(self) -> int:
        return max(self.groups, default=0)


def _union_measure(members: Sequence[DyadicAddress]) -> Fraction:
    """Measure of the union: by nestedness only maximal members contribute."""
    total = Fraction(0)
    keys = {m.key() for m in members}
    for m in members:
        covered = False
        probe = m
        while probe.level > 0:
            probe = probe.parent()
            if probe.key() in keys:
                covered = True
                break
        if not covered:
            total += m.measure_fraction()
    return total


def stopping_partition(model: ClosedSetModel, root_addr: DyadicAddress,
                       base: Iterable[DyadicAddress], Lambda: Fraction,
                       params: StoppingParams, depth_cap: int,
                       theta_grid: Optional[Sequence[float]] = None,
                       cache: Optional[HoleCache] = None) -> StoppingPartition:
    """Sort the forward-parent chains of ``base`` by their stopping times.

    Every chain element's stopping time is computed independently (no use
    of the consecutive-index identity), so the structural laws remain
    testable against this output.  ``cache`` (one of ``model`` at
    ``depth_cap``) may already hold holes the caller searched.
    """
    Lambda = Fraction(Lambda)
    cache = _cache_for(model, depth_cap, cache)
    base = sorted(base, key=lambda a: (a.level, a.temporal, a.spatial))
    tau_by_key: dict = {}
    members: dict[int, dict] = {}
    certified = True

    def tau_of(addr: DyadicAddress) -> Optional[int]:
        nonlocal certified
        key = addr.key()
        if key in tau_by_key:
            return tau_by_key[key]
        out = stopping_time(model, addr, Lambda, params, depth_cap,
                            theta_grid=theta_grid, cache=cache)
        certified &= out.certified or out.tau is not None
        tau_by_key[key] = out.tau
        return out.tau

    for p0 in base:
        if p0.level < 1:
            raise ValueError("base rectangles must lie strictly below the root")
        tau0 = tau_of(p0)
        if tau0 is None:
            continue
        chain = p0
        for i in range(tau0):
            t = tau_of(chain)
            if t is not None:
                members.setdefault(t, {})[chain.key()] = chain
            if i < tau0 - 1:
                chain = chain.forward_parent(params)
    groups = {k: tuple(sorted(v.values(), key=lambda a: (a.level, a.temporal, a.spatial)))
              for k, v in members.items()}
    unions = {k: _union_measure(v) for k, v in groups.items()}
    return StoppingPartition(
        root_addr=root_addr, Lambda=Lambda, params=params, depth_cap=depth_cap,
        base=tuple(base), groups=groups, union_measures=unions,
        tau_by_key=tau_by_key, certified=certified)


def verify_nesting(partition: StoppingPartition) -> tuple[bool, Optional[tuple]]:
    """Forward parents of S_{k+1} land in S_k; returns a violating pair if any."""
    for k in range(1, partition.max_index()):
        upper = partition.groups.get(k + 1, ())
        lower = {m.key() for m in partition.groups.get(k, ())}
        for q in upper:
            fp = q.forward_parent(partition.params)
            if fp.key() not in lower:
                return False, (q, fp)
    return True, None


def verify_disjoint_from_admissible(partition: StoppingPartition,
                                    admissible: CollectionReport
                                    ) -> tuple[bool, Optional[tuple]]:
    """No chain element's body intersects an admissible rectangle's body.

    Lattice bodies are nested or disjoint, so a member meets an admissible
    rectangle exactly when one is an ancestor of the other or they are
    equal: two key lookups per member and ancestor level instead of a scan
    of every pair.  The pair returned is the first of that scan, in group,
    member and admissible order.
    """
    adm_keys = {adm.key() for adm in admissible.rectangles}
    adm_levels = {key[0] for key in adm_keys}
    # every admissible rectangle with its ancestors, itself included
    covering = {adm.ancestor(level).key() for adm in admissible.rectangles
                for level in range(adm.level + 1)}
    for k in sorted(partition.groups):
        for member in partition.groups[k]:
            if member.key() in covering or any(
                    member.ancestor(level).key() in adm_keys
                    for level in adm_levels if level < member.level):
                return False, next((member, adm) for adm in admissible.rectangles
                                   if member.intersects(adm))
    return True, None


@dataclass(frozen=True)
class DecayReport:
    lam: Fraction
    ratios: dict[int, Fraction]       # |U S_{k+1}| / |U S_1|
    passed: bool
    lambda_hat: Optional[float]       # tightest observed per-step rate


def decay_check(partition: StoppingPartition, geom: Geometry) -> DecayReport:
    """Exponential decay of union measures with lam = 1 - 1/(2^{dn} ceil(2^{dp}))."""
    lam = 1 - Fraction(1, (1 << (geom.d * geom.n)) * geom.k_ceil)
    s1 = partition.union_measures.get(1, Fraction(0))
    ratios: dict[int, Fraction] = {}
    passed = True
    lambda_hat: Optional[float] = None
    for k in range(1, partition.max_index()):
        upper = partition.union_measures.get(k + 1, Fraction(0))
        if upper == 0:
            continue
        if s1 == 0:
            passed = False
            continue
        ratio = upper / s1
        ratios[k] = ratio
        if ratio > lam ** k:
            passed = False
        rate = float(ratio) ** (1.0 / k)
        lambda_hat = rate if lambda_hat is None else max(lambda_hat, rate)
    return DecayReport(lam=lam, ratios=ratios, passed=passed, lambda_hat=lambda_hat)


def doubling_sigma(model: ClosedSetModel, bases: Iterable[DyadicAddress],
                   params: StoppingParams, psi, depth_cap: int,
                   cache: Optional[HoleCache] = None
                   ) -> tuple[Optional[float], list[Fraction]]:
    """Measured single-step doubling factor of the maximal hole.

    Walks each base's forward-parent chain, recording the per-step ratios
    ``|M(pi_i^+ P)| / |M(pi_{i+1}^+ P)|`` and, on the final step, the ratio
    against the ``psi``-translated ancestor.  Returns the minimum observed
    ratio (an empirical stand-in for the existence constant, reported not
    assumed) together with all ratios.  By construction the multi-step
    inequality ``|M(P)| >= sigma_hat^j |M(pi_j^+ P^psi)|`` then holds for
    every walked chain.
    """
    cache = _cache_for(model, depth_cap, cache)
    ratios: list[Fraction] = []
    for base in bases:
        prev = cache.hole(base).measure
        cur = base
        for step in range(base.level):
            cur = cur.forward_parent(params)
            hole = cache.hole_of_translate(cur, psi if step == base.level - 1 else 0)
            if prev > 0 and hole.measure > 0:
                ratios.append(prev / hole.measure)
            prev = hole.measure
    if not ratios:
        return None, ratios
    return float(min(ratios)), ratios


# ---------------------------------------------------------------------------
# doubling-chain construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainPlan:
    """Concrete chain of rectangles linking a deep cell of a first-layer
    child to a cell of the psi-translated root.

    Spatial data is exact (absolute rationals); temporal data is exact in
    units of the root's temporal length.  Corrections are constant over the
    first ``n2`` steps and zero afterwards, so checks run in O(1).
    """

    geom_n: int
    geom_d: int
    geom_p: float
    psi: Fraction
    theta: Fraction
    c0: Fraction
    eps_max: float
    m: int
    n1: int
    n2: int
    n3: int
    L_x: Fraction                      # absolute spatial side of chain cells
    L_t: Fraction                      # temporal side in l_t(root) units
    base_corner: tuple[Fraction, ...]  # lower corner of Q_0, absolute
    base_offset: Fraction              # lower-face offset of Q_0, root units
    target_corner: tuple[Fraction, ...]
    target_offset: Fraction
    y: tuple[Fraction, ...]
    s: Fraction
    xi_head: tuple[Fraction, ...]
    tau_head: Fraction

    def xi(self, i: int) -> tuple[Fraction, ...]:
        if not 0 <= i < self.n1:
            raise IndexError("correction index out of range")
        return self.xi_head if i < self.n2 else tuple(Fraction(0) for _ in self.xi_head)

    def tau(self, i: int) -> Fraction:
        if not 0 <= i < self.n1:
            raise IndexError("correction index out of range")
        return self.tau_head if i < self.n2 else Fraction(0)

    def step_position(self, i: int) -> tuple[tuple[Fraction, ...], Fraction]:
        """Lower corner and face offset of Q_i."""
        h = min(i, self.n2)
        corner = tuple(c + h * x for c, x in zip(self.base_corner, self.xi_head))
        offset = self.base_offset + i * self.theta * self.L_t + h * self.tau_head
        return corner, offset

    def checks(self) -> dict[str, bool]:
        """Every construction postcondition, evaluated exactly."""
        with mpmath.workprec(96):
            eps = _epsilon(self.c0, self.geom_n)
            lx = mpmath.mpf(self.L_x.numerator) / self.L_x.denominator
            lt = mpmath.mpf(self.L_t.numerator) / self.L_t.denominator
            xi_ok = all(
                abs(mpmath.mpf(x.numerator) / x.denominator) < eps * lx
                for x in self.xi_head)
            tau_ok = (self.tau_head >= 0 and
                      mpmath.mpf(self.tau_head.numerator) / self.tau_head.denominator
                      < eps * lt) if self.tau_head != 0 else True

        sum_xi = tuple(self.n2 * x for x in self.xi_head)
        sum_tau = self.n2 * self.tau_head
        cell = self.L_x ** self.geom_n * self.L_t
        deficit = cell - (self.L_t - self.tau_head) * math.prod(
            self.L_x - abs(x) for x in self.xi_head)
        final_corner, final_offset = self.step_position(self.n1)
        final_offset = final_offset + self.theta * self.L_t  # the last translation
        return {
            "order": self.n2 <= self.n1 <= self.n3,
            "xi_bound": bool(xi_ok),
            "tau_bound": bool(tau_ok),
            "xi_sum": sum_xi == self.y,
            "tau_sum": (self.n1 + 1) * self.theta * self.L_t + sum_tau == self.s,
            "window": (self.n1 + 1) * self.theta * self.L_t <= self.s
                      < (self.n1 + 2) * self.theta * self.L_t,
            "overlap": deficit < (self.c0 / 2) * cell,
            "alignment": final_corner == self.target_corner
                         and final_offset == self.target_offset,
        }

    def all_ok(self) -> bool:
        return all(self.checks().values())


def _epsilon(c0: Fraction, n: int) -> mpmath.mpf:
    """``1 - (1 - c0/2)^(1/(n+1))`` at the current mpmath precision."""
    return 1 - mpmath.power(1 - mpmath.mpf(c0.numerator) / c0.denominator / 2,
                            mpmath.mpf(1) / (n + 1))


def epsilon_max(c0, n: int) -> float:
    """Largest proportional per-step correction: 1 - (1 - c0/2)^(1/(n+1))."""
    with mpmath.workprec(96):
        return float(_epsilon(_to_fraction(c0), n))


def doubling_chain(root: Root, child_spatial: tuple[int, ...], child_temporal: int,
                   psi, c0, theta_window: tuple[float, float], theta=4,
                   base_spatial: Optional[tuple[int, ...]] = None,
                   base_temporal: Optional[int] = None,
                   target_spatial: Optional[tuple[int, ...]] = None,
                   target_temporal: Optional[int] = None) -> ChainPlan:
    """Build the chain from a depth-m cell of a first-layer child to a cell
    of the psi-translated root, with per-step corrections small enough to
    keep consecutive rectangles overlapping.

    ``child_*`` select the first-layer child P; optional ``base_*`` and
    ``target_*`` pick the depth-(m+1) cells (defaults: lowest cell of P and
    the central cell of the translated root).
    """
    geom = root.geom
    psi = _to_fraction(psi)
    c0 = _to_fraction(c0)
    theta = _to_fraction(theta)
    theta1, theta2 = (_to_fraction(theta_window[0]), _to_fraction(theta_window[1]))
    if not (1 < theta1 <= psi <= theta2):
        raise ValueError("need 1 < theta1 <= psi <= theta2")
    if not 0 < c0 < 1:
        raise ValueError("c0 must lie in (0, 1)")
    if theta <= 1:
        raise ValueError("per-step lag theta must exceed 1")

    if not 0 <= child_temporal < root.k_at(0):
        raise ValueError("the first-layer child must lie inside the root rectangle")
    child = DyadicAddress(root, 1, child_spatial, child_temporal)

    with mpmath.workprec(geom.precision_bits):
        eps = _epsilon(c0, geom.n)
        th = mpmath.mpf(theta.numerator) / theta.denominator
        th1 = mpmath.mpf(theta1.numerator) / theta1.denominator
        c1 = (2 ** geom.d) / eps * mpmath.power(4 * th / (th1 - 1), 1 / mpmath.mpf(geom.p))
        n2 = max(int(mpmath.ceil(mpmath.power(c1, geom.p / (geom.p - 1)))) + 1,
                 int(mpmath.ceil(th / eps)))
        m = max(0, int(mpmath.ceil(
            mpmath.log(2 * (n2 + 1) * th / (th1 - 1), 2) / (geom.d * geom.p))) - 1)

    level = m + 1
    root.ensure_depth(level)
    K = root.slab_count(level)
    L_x = root.l_x_at(level)
    L_t = Fraction(1, K)

    # base cell: depth-m cell of the first-layer child
    cells = 1 << (geom.d * level)
    if base_spatial is None:
        base_spatial = tuple(s << (geom.d * m) for s in child.spatial)
    if base_temporal is None:
        base_temporal = child.temporal * (K // root.slab_count(1))
    base = DyadicAddress(root, level, base_spatial, base_temporal)
    if base.ancestor(1).key() != child.key():
        raise ValueError("base cell does not lie inside the selected child")

    # target cell of the psi-translated root, indexed like a depth-(m+1) cell
    if target_spatial is None:
        target_spatial = (cells // 2,) * geom.n
    if target_temporal is None:
        target_temporal = K // 2
    if not all(0 <= sidx < cells for sidx in target_spatial):
        raise ValueError("target spatial index outside the root cube")
    if not 0 <= target_temporal < K:
        raise ValueError("target temporal index outside the translated root")

    base_corner = tuple(lo for lo, _ in base.spatial_intervals())
    base_offset = base.temporal_offsets()[0]
    target_corner = tuple(lo for lo, _ in root.address(level, target_spatial)
                          .spatial_intervals())
    target_offset = psi + Fraction(target_temporal, K)

    y = tuple(tc - bc for tc, bc in zip(target_corner, base_corner))
    s = target_offset - base_offset

    n1 = int(s // (theta * L_t)) - 1
    with mpmath.workprec(geom.precision_bits):
        th2 = mpmath.mpf(theta2.numerator) / theta2.denominator
        n3 = max(int(mpmath.ceil(mpmath.power(2, (m + 1) * geom.d * geom.p + 1)
                                 * (th2 + 1) / th)) - 1, n2 + 1)
    if not n2 <= n1:
        raise ArithmeticError(
            f"no admissible step count: N1={n1} < N2={n2}; inputs violate the "
            "construction's preconditions")

    xi_head = tuple(yk / n2 for yk in y)
    tau_head = s / n2 - Fraction(n1 + 1, n2) * theta * L_t

    plan = ChainPlan(
        geom_n=geom.n, geom_d=geom.d, geom_p=geom.p,
        psi=psi, theta=theta, c0=c0, eps_max=epsilon_max(c0, geom.n),
        m=m, n1=n1, n2=n2, n3=n3, L_x=L_x, L_t=L_t,
        base_corner=base_corner, base_offset=base_offset,
        target_corner=target_corner, target_offset=target_offset,
        y=y, s=s, xi_head=xi_head, tau_head=tau_head)
    return plan


# ---------------------------------------------------------------------------
# interim-space bound
# ---------------------------------------------------------------------------


def interim_bound(delta, sigma: float, params: StoppingParams, geom: Geometry,
                  partition: Optional[StoppingPartition] = None,
                  ) -> tuple[float, Optional[bool]]:
    """Translation bound ``(4 theta0 2^dp/(2^dp - 1) + 2) * delta^(-dp ln2/ln sigma)``
    and, when a partition is given, whether its chains stay below it.

    ``sigma`` is the measured single-step doubling factor of the maximal
    hole (an empirical stand-in for the existence constant).
    """
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    with mpmath.workprec(geom.precision_bits):
        two_dp = geom.two_dp
        prefactor = 4 * params.theta0 * two_dp / (two_dp - 1) + 2
        exponent = -geom.d * geom.p * mpmath.log(2) / mpmath.log(sigma)
        d = mpmath.mpf(delta.numerator) / delta.denominator
        bound = float(prefactor * mpmath.power(d, exponent))
    if partition is None:
        return bound, None
    psi = Fraction(bound)
    contained = True
    for k in partition.groups:
        for member in partition.groups[k]:
            lo, hi = member.temporal_offsets()
            if lo < 0 or hi > 1 + psi:
                contained = False
    return bound, contained
