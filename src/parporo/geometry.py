"""Exact construction and navigation of parabolic dyadic space-time lattices.

A lattice is anchored at a root rectangle ``Q(x, L) x [t - L^p, t - g0*L^p)``.
Each refinement step splits every spatial edge into ``2^d`` parts and the
temporal edge into ``k`` parts, where ``k`` alternates between
``floor(2^(d*p))`` and ``ceil(2^(d*p))`` so that the per-level truncation
parameter stays inside ``[0, 1/2]``.

All address arithmetic is exact: temporal positions are integer counts of
level slabs (slab width is ``l_t(root) / K_i`` with ``K_i`` the product of
the per-level division counts), spatial positions are integer cell indices,
and exact bounds (``spatial_intervals``, ``temporal_offsets``) are
``fractions.Fraction`` multiples of the root's side and temporal length.
``2^(d*p)`` itself is evaluated with mpmath at a configurable precision; the
division-count branch refuses to choose when the truncation parameter is too
close to the branch threshold to certify.

Float faces are decided here and nowhere else.  Each root keeps one
per-level table, filled level by level in ``Root.ensure_depth`` as the
recursion is extended (each entry is ``float()`` of its exact value), and a
level that nothing has built yet is filled on its first read.  Two methods
read it: ``DyadicAddress.column_bounds`` gives a cell's spatial faces,
around the center ``origin + (s + 0.5) * w``, and ``DyadicAddress.run_faces``
the temporal faces of a run of slabs, from the slab start
``t_lo + (j / K) * l_t``.  ``run_box``, ``realize`` and the point-cloud
columns of ``sets`` take their faces from these two.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

RationalLike = Fraction | int

LOG2_9 = math.log2(9.0)


class AmbiguousBranchError(ValueError):
    """Truncation parameter indistinguishable from the division-count threshold."""


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# global parameters
# ---------------------------------------------------------------------------


class Geometry:
    """Global lattice parameters: dimension n, exponent p > 1, division rate d.

    The division rate must satisfy ``d*p >= log2(9)``; ``d = 4`` works for
    every ``p > 1``.  Derived constants ``k_floor <= 2^(d*p) <= k_ceil`` are
    computed once at ``precision_bits`` bits.
    """

    def __init__(self, n: int, p: float, d: Optional[int] = None,
                 precision_bits: int = 128):
        if n < 1 or int(n) != n:
            raise ValueError(f"spatial dimension must be a positive integer, got {n}")
        p = float(p)
        if not p > 1.0:
            raise ValueError(f"parabolic exponent must exceed 1, got {p}")
        if precision_bits < 16:
            raise ValueError("precision_bits too small for certified branching")
        if d is None:
            d = max(1, math.ceil(LOG2_9 / p))
            while d * p < LOG2_9:  # guard the float ceil at the boundary
                d += 1
        if d < 1 or int(d) != d:
            raise ValueError(f"division rate must be a positive integer, got {d}")
        if d * p < LOG2_9:
            raise ValueError(
                f"division rate too small: d*p = {d * p:.6g} < log2(9) = {LOG2_9:.6g}")

        self.n = int(n)
        self.p = p
        self.d = int(d)
        self.precision_bits = int(precision_bits)

        with mpmath.workprec(self.precision_bits):
            self._two_dp = mpmath.power(2, mpmath.mpf(self.d) * mpmath.mpf(self.p))
            self.k_floor = int(mpmath.floor(self._two_dp))
            self.k_ceil = int(mpmath.ceil(self._two_dp))
        # ceil(2^dp) <= 2*2^dp holds whenever 2^dp >= 1
        assert self.k_floor <= self.k_ceil <= 2 * self.k_floor

    @property
    def two_dp(self) -> mpmath.mpf:
        """``2^(d*p)`` at the working precision."""
        return self._two_dp

    @property
    def dp_is_integral(self) -> bool:
        return self.k_floor == self.k_ceil

    def division_count(self, gamma: "mpmath.mpf | Fraction") -> int:
        """Number of temporal subdivisions for a rectangle with truncation gamma.

        ``ceil`` below the threshold ``1 - (2^dp + 1)/2^(dp+1)``, ``floor``
        above; refuses when gamma cannot be certified on either side.
        """
        if self.dp_is_integral:
            return self.k_floor
        with mpmath.workprec(self.precision_bits):
            g = mpmath.mpf(gamma.numerator) / gamma.denominator \
                if isinstance(gamma, Fraction) else mpmath.mpf(gamma)
            threshold = 1 - (self._two_dp + 1) / (2 * self._two_dp)
            tol = mpmath.power(2, -(self.precision_bits // 2))
            if abs(g - threshold) < tol:
                raise AmbiguousBranchError(
                    f"truncation parameter {mpmath.nstr(g, 25)} within 2^-{self.precision_bits // 2} "
                    "of the division threshold; refusing to pick a branch")
            return self.k_ceil if g <= threshold else self.k_floor

    def __repr__(self) -> str:
        return f"Geometry(n={self.n}, p={self.p}, d={self.d})"


def new_geometry(n: int, p: float, d: Optional[int] = None,
                 precision_bits: int = 128) -> Geometry:
    return Geometry(n, p, d, precision_bits=precision_bits)


# ---------------------------------------------------------------------------
# stopping parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoppingParams:
    """Forward time-lag and search-translation bounds ``(theta0, phi, Phi)``.

    Instances are validated against a geometry with ``check_parameters``
    before use; ``default_parameters`` returns the canonical choice
    ``(4, 2, k_ceil - 1)``.
    """

    theta0: int
    phi: int
    Phi: int

    def __post_init__(self):
        for name, v in (("theta0", self.theta0), ("phi", self.phi), ("Phi", self.Phi)):
            if int(v) != v or v < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {v}")

    def theta_range(self) -> range:
        """Integer search translations ``[phi - theta0, Phi - theta0]``."""
        return range(self.phi - self.theta0, self.Phi - self.theta0 + 1)


def _ceil_mpf(x: mpmath.mpf) -> int:
    return int(mpmath.ceil(x))


def check_parameters(theta0: int, phi: int, Phi: int, geom: Geometry) -> bool:
    """Evaluate the five admissibility inequalities for (theta0, phi, Phi)."""
    if min(theta0, phi, Phi) < 2:
        return False
    with mpmath.workprec(geom.precision_bits):
        two_dp = geom.two_dp
        c2 = _ceil_mpf(2 * mpmath.mpf(theta0) / (two_dp - 1))
        c4 = _ceil_mpf(4 * mpmath.mpf(theta0) / (two_dp - 1))
    conds = (
        phi <= Phi - theta0 - c2,
        phi <= theta0 <= Phi,
        Phi >= geom.k_ceil - 1,
        phi <= geom.k_floor - 1 - theta0 - c2,
        phi - theta0 <= -c4,
    )
    return all(conds)


def default_parameters(geom: Geometry) -> StoppingParams:
    params = StoppingParams(theta0=4, phi=2, Phi=geom.k_ceil - 1)
    if not check_parameters(params.theta0, params.phi, params.Phi, geom):
        raise ValueError(
            f"default stopping parameters fail the admissibility conditions for {geom}")
    return params


# ---------------------------------------------------------------------------
# continuous rectangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParabolicRectangle:
    """Half-open space-time box ``Q(center, side) x [top - side^p, top - gamma*side^p)``.

    ``gamma`` only shapes the temporal extent; the body is half open on
    every upper face.
    """

    center: tuple[float, ...]
    top_time: float
    side: float
    gamma: float = 0.0

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("side must be positive")
        if not 0.0 <= self.gamma <= 0.5:
            raise ValueError(f"gamma must lie in [0, 1/2], got {self.gamma}")

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def l_x(self) -> float:
        return self.side

    def l_t(self, p: float) -> float:
        return (1.0 - self.gamma) * self.side ** p

    def t_lo(self, p: float) -> float:
        return self.top_time - self.side ** p

    def t_hi(self, p: float) -> float:
        return self.top_time - self.gamma * self.side ** p

    def spatial_bounds(self) -> tuple[tuple[float, float], ...]:
        h = 0.5 * self.side
        return tuple((c - h, c + h) for c in self.center)

    def box(self, p: float) -> tuple[tuple[tuple[float, float], ...], tuple[float, float]]:
        return self.spatial_bounds(), (self.t_lo(p), self.t_hi(p))

    def measure(self, p: float) -> float:
        return self.side ** self.n * self.l_t(p)

    def center_point(self, p: float) -> tuple[float, ...]:
        return self.center + (0.5 * (self.t_lo(p) + self.t_hi(p)),)

    def diam_p(self, p: float) -> float:
        return max(self.side, self.l_t(p) ** (1.0 / p))


def translate(rect: ParabolicRectangle, theta: float, p: float) -> ParabolicRectangle:
    """Shift a rectangle forward in time by ``theta`` temporal side lengths."""
    return ParabolicRectangle(
        center=rect.center,
        top_time=rect.top_time + theta * rect.l_t(p),
        side=rect.side,
        gamma=rect.gamma,
    )


def plus_theta(gamma: float) -> float:
    """Translation that realizes the upper rectangle of the A1 pair: (1+g)/(1-g)."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    return (1.0 + gamma) / (1.0 - gamma)


# ---------------------------------------------------------------------------
# lattice roots
# ---------------------------------------------------------------------------


class _Levels(dict):
    """A root's per-level table, keyed by level.  ``Root.ensure_depth`` fills
    it as it extends the recursion, so a read of a level that nothing has
    built yet extends it first.  The root is held weakly: a table in a cycle
    with its root would keep every dropped root until a garbage collection."""

    __slots__ = ("root",)

    def __init__(self, root: "Root"):
        super().__init__()
        self.root = weakref.ref(root)

    def __missing__(self, level: int):
        if level < 0:
            raise ValueError("level must be nonnegative")
        self.root().ensure_depth(level)
        return self[level]


class Root:
    """Root rectangle of a lattice plus its truncation/division recursion.

    ``center`` and ``side`` are exact rationals so that spatial bounds
    (``DyadicAddress.spatial_intervals``) are exact.  ``top_time`` may be a
    rational or a float (absolute times are only consumed by distance
    oracles); temporal bookkeeping within the time strip is exact regardless.
    """

    def __init__(self, geom: Geometry, center: Sequence[RationalLike],
                 top_time, side: RationalLike, gamma0: RationalLike = 0):
        center = tuple(_to_fraction(c) for c in center)
        if len(center) != geom.n:
            raise ValueError(f"center must have {geom.n} coordinates")
        side = _to_fraction(side)
        if side <= 0:
            raise ValueError("side must be positive")
        gamma0 = _to_fraction(gamma0)
        if not 0 <= gamma0 <= Fraction(1, 2):
            raise ValueError(f"gamma0 must lie in [0, 1/2], got {gamma0}")

        self.geom = geom
        self.center = center
        self.top_time = top_time if isinstance(top_time, Fraction) else float(top_time)
        self.side = side
        self.gamma0 = gamma0

        # the floats every face is built from: the lower spatial face per
        # axis, the lower temporal face and the temporal length
        self._origins = tuple(float(c - side / 2) for c in center)
        self._t_lo = float(self.top_time) - float(side) ** geom.p
        self._l_t = float(1 - gamma0) * float(side) ** geom.p
        # the recursion: gamma_i (mpf) and cumulative slab count K_i per
        # level, k_i per extension; and the per-level table, its float
        # entries (l_x, clamped gamma, l_x^p, K_i) then its exact ones
        # (l_x, |P| / |root|)
        self._gammas: list = []
        self._K: list[int] = []
        self._ks: list[int] = []
        self._levels = _Levels(self)
        with mpmath.workprec(geom.precision_bits):
            self._add_level(mpmath.mpf(gamma0.numerator) / gamma0.denominator, 1)

    # -- recursion ----------------------------------------------------------

    def ensure_depth(self, depth: int) -> None:
        if len(self._ks) >= depth:
            return
        geom = self.geom
        with mpmath.workprec(geom.precision_bits):
            while len(self._ks) < depth:
                gamma = self._gammas[-1]
                k = geom.division_count(gamma)
                nxt = 1 - (1 - gamma) * geom.two_dp / k
                if nxt < 0 or nxt > mpmath.mpf(1) / 2:
                    # Proposition-level invariant; numerically unreachable at
                    # the working precision unless inputs were corrupted.
                    raise ArithmeticError(
                        f"truncation parameter left [0, 1/2] at level {len(self._ks) + 1}")
                self._add_level(nxt, self._K[-1] * k)
                self._ks.append(k)

    def _add_level(self, gamma: mpmath.mpf, K: int) -> None:
        """Append the next level's recursion entries and its table row."""
        geom = self.geom
        level = len(self._K)
        self._gammas.append(gamma)
        self._K.append(K)
        l_x = self.side / (1 << (geom.d * level))
        w = float(l_x)
        self._levels[level] = (w, min(max(float(gamma), 0.0), 0.5), w ** geom.p, K,
                               l_x, Fraction(1, (1 << (geom.d * geom.n * level)) * K))

    def column_grid(self, level: int) -> tuple[tuple[float, ...], float]:
        """The floats that place level-``level`` spatial columns: the root's
        lower face per axis and the cell side; equal grids give equal
        ``DyadicAddress.column_bounds``."""
        return self._origins, self._levels[level][0]

    def gamma_at(self, level: int) -> mpmath.mpf:
        self.ensure_depth(level)
        return self._gammas[level]

    def k_at(self, level: int) -> int:
        """Temporal division count applied to a level-``level`` rectangle."""
        self.ensure_depth(level + 1)
        return self._ks[level]

    def slab_count(self, level: int) -> int:
        """K_level: number of level slabs per root temporal length."""
        self.ensure_depth(level)
        return self._K[level]

    # -- root body ----------------------------------------------------------

    def l_t_fraction_of(self, level: int) -> Fraction:
        """l_t at ``level`` in units of l_t(root), exact."""
        return Fraction(1, self.slab_count(level))

    def l_x_at(self, level: int) -> Fraction:
        return self._levels[level][4]

    def measure_fraction_at(self, level: int) -> Fraction:
        """|P| / |root| for any level-``level`` rectangle, exact."""
        return self._levels[level][5]

    def l_t_root_float(self) -> float:
        return self._l_t

    def t_lo_float(self) -> float:
        return self._t_lo

    def _slab_top(self, temporal: int, K: int, w_p: float) -> float:
        """Float top of slab ``temporal`` of a level with ``K`` slabs per root
        temporal length and ``w_p = l_x^p``: its float start plus ``w_p``."""
        return self._t_lo + (temporal / K) * self._l_t + w_p

    def _center(self, spatial: tuple[int, ...], w: float) -> tuple[float, ...]:
        """Float center of spatial column ``spatial`` of cell side ``w``."""
        return tuple(o + (s + 0.5) * w for o, s in zip(self._origins, spatial))

    def rectangle(self) -> ParabolicRectangle:
        return ParabolicRectangle(
            center=tuple(float(c) for c in self.center),
            top_time=float(self.top_time),
            side=float(self.side),
            gamma=float(self.gamma0),
        )

    def address(self, level: int = 0, spatial: Optional[tuple[int, ...]] = None,
                temporal: int = 0) -> "DyadicAddress":
        if spatial is None:
            spatial = (0,) * self.geom.n
        return DyadicAddress(self, level, tuple(spatial), temporal)

    def translated(self, theta: float) -> "Root":
        """Fresh lattice anchored at the root shifted by ``theta * l_t(root)``,
        its top time a float.

        Used for non-integer translations; integer translations stay inside
        this root's extended lattice via ``DyadicAddress.translated``.
        """
        return Root(self.geom, self.center, float(self.top_time) + float(theta) * self._l_t,
                    self.side, self.gamma0)

    def __repr__(self) -> str:
        return (f"Root(n={self.geom.n}, p={self.geom.p}, d={self.geom.d}, "
                f"center={tuple(map(str, self.center))}, top={self.top_time}, "
                f"side={self.side}, gamma0={self.gamma0})")


# ---------------------------------------------------------------------------
# dyadic addresses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DyadicAddress:
    """Exact handle for a rectangle in the extended lattice of a root.

    ``spatial[j]`` indexes the level cell along axis j inside the root cube
    (so it lies in ``[0, 2^(d*level))``); ``temporal`` counts level slabs
    from the root's lower face and may be any integer (the lattice extends
    over the whole time strip).

    ``DyadicAddress(...)`` validates the level and the spatial indices, and
    every address built from outside goes through it.  Navigation
    (``spatial_children``, ``parent``, ``ancestor``, translations) derives
    addresses from a valid one through ``_derived``, which fills the slots
    without validating: indices derived from valid ones are in range by
    construction.  Both give equal, equally hashed addresses of this type.
    """

    root: Root
    level: int
    spatial: tuple[int, ...]
    temporal: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if len(self.spatial) != self.root.geom.n:
            raise ValueError("spatial index dimension mismatch")
        cells = 1 << (self.root.geom.d * self.level)
        for s in self.spatial:
            if not 0 <= s < cells:
                raise ValueError(
                    f"spatial index {s} outside [0, {cells}) at level {self.level}; "
                    "the extended lattice is temporal-only")

    # -- identity ------------------------------------------------------------

    def key(self) -> tuple[int, tuple[int, ...], int]:
        return (self.level, self.spatial, self.temporal)

    # -- navigation -----------------------------------------------------------

    def children(self) -> list["DyadicAddress"]:
        """All level+1 cells partitioning this one, spatial-major then temporal."""
        k = self.root.k_at(self.level)
        return [child._with_temporal(child.temporal + j)
                for child in self.spatial_children() for j in range(k)]

    def spatial_children(self) -> list["DyadicAddress"]:
        """One level+1 cell per spatial child, in ``children()`` order, each
        at the first child slab (temporal index ``temporal * k``)."""
        root, level = self.root, self.level + 1
        split = 1 << root.geom.d
        t_first = self.temporal * root.k_at(self.level)
        bases = tuple(s * split for s in self.spatial)
        return [_derived(root, level, tuple(b + o for b, o in zip(bases, combo)), t_first)
                for combo in itertools.product(range(split), repeat=len(bases))]

    def parent(self) -> "DyadicAddress":
        if self.level == 0:
            raise ValueError("level-0 rectangle has no parent")
        d = self.root.geom.d
        k = self.root.k_at(self.level - 1)
        return _derived(self.root, self.level - 1,
                        tuple(s >> d for s in self.spatial),
                        self.temporal // k)  # floor division: valid across the whole strip

    def forward_parent(self, params: StoppingParams) -> "DyadicAddress":
        """Dyadic parent translated ``theta0`` parent slabs forward in time."""
        up = self.parent()
        return up._with_temporal(up.temporal + params.theta0)

    def ancestor(self, level: int) -> "DyadicAddress":
        if level > self.level:
            raise ValueError("ancestor level exceeds address level")
        if level == self.level:
            return self
        if level < 0:
            raise ValueError("level must be nonnegative")
        d = self.root.geom.d
        shift = d * (self.level - level)
        ratio = self.root.slab_count(self.level) // self.root.slab_count(level)
        return _derived(self.root, level,
                        tuple(s >> shift for s in self.spatial),
                        self.temporal // ratio)

    def translated(self, theta: int) -> "DyadicAddress":
        """Integer time translation by ``theta`` OWN temporal side lengths."""
        if int(theta) != theta:
            raise ValueError("address translation requires an integer theta")
        return self._with_temporal(self.temporal + int(theta))

    def _with_temporal(self, temporal: int) -> "DyadicAddress":
        """The cell of this spatial column at slab ``temporal``, which may be
        any integer."""
        return _derived(self.root, self.level, self.spatial, temporal)

    # -- relations -------------------------------------------------------------

    def contains_address(self, other: "DyadicAddress") -> bool:
        if other.level < self.level:
            return False
        return other.ancestor(self.level).key() == self.key()

    def intersects(self, other: "DyadicAddress") -> bool:
        """Exact body intersection test; lattice bodies are nested or disjoint."""
        if self.level <= other.level:
            return other.ancestor(self.level).key() == self.key()
        return self.ancestor(other.level).key() == other.key()

    # -- exact realization -------------------------------------------------------

    def measure_fraction(self) -> Fraction:
        """|P| in units of |root|, exact."""
        return self.root.measure_fraction_at(self.level)

    def l_x(self) -> Fraction:
        return self.root.l_x_at(self.level)

    def temporal_offsets(self) -> tuple[Fraction, Fraction]:
        """Exact [low, high) face offsets from the root lower face, in l_t(root) units."""
        K = self.root.slab_count(self.level)
        return Fraction(self.temporal, K), Fraction(self.temporal + 1, K)

    def spatial_intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Exact half-open spatial intervals in absolute coordinates."""
        w = self.root.l_x_at(self.level)
        out = []
        for c, s in zip(self.root.center, self.spatial):
            origin = c - self.root.side / 2
            out.append((origin + s * w, origin + (s + 1) * w))
        return tuple(out)

    def realize(self) -> ParabolicRectangle:
        """Float rectangle for distance/measure queries, with the center of
        ``column_bounds`` and the slab start of ``run_faces``."""
        root = self.root
        w, gamma, w_p, K, _l_x, _share = root._levels[self.level]
        return ParabolicRectangle(
            center=root._center(self.spatial, w),
            top_time=root._slab_top(self.temporal, K, w_p),
            side=w,
            gamma=gamma,
        )

    def column_bounds(self) -> tuple[tuple[float, float], ...]:
        """Float ``[lo, hi)`` per axis of this cell's spatial column."""
        root = self.root
        w = root._levels[self.level][0]
        h = 0.5 * w
        return tuple((c - h, c + h) for c in root._center(self.spatial, w))

    def run_box(self, run: int = 1
                ) -> tuple[tuple[tuple[float, float], ...], tuple[float, float]]:
        """Float box of ``run`` consecutive slabs from this cell on: the
        first slab's lower face to the last slab's upper face.

        ``run_box(1)`` is ``realize().box(p)`` bit for bit.  Both faces are
        monotone in the temporal index, so the box contains the realized
        box of every slab of the run.
        """
        return self.column_bounds(), self.run_faces(run)

    def run_faces(self, run: int = 1) -> tuple[float, float]:
        """The temporal faces of ``run_box(run)``: the float lower face of
        the first slab and upper face of the last."""
        root = self.root
        _w, gamma, w_p, K, _l_x, _share = root._levels[self.level]
        top = root._slab_top(self.temporal, K, w_p)
        last_top = top if run == 1 else root._slab_top(self.temporal + run - 1, K, w_p)
        return top - w_p, last_top - gamma * w_p

    def gamma(self) -> mpmath.mpf:
        return self.root.gamma_at(self.level)

    def __repr__(self) -> str:
        return f"Addr(level={self.level}, spatial={self.spatial}, temporal={self.temporal})"


_new_address = object.__new__
_set_root, _set_level, _set_spatial, _set_temporal = (
    DyadicAddress.root.__set__, DyadicAddress.level.__set__,
    DyadicAddress.spatial.__set__, DyadicAddress.temporal.__set__)


def _derived(root: Root, level: int, spatial: tuple[int, ...],
             temporal: int) -> DyadicAddress:
    """The trusted constructor: an address derived from a valid one, its
    slots filled through their descriptors without ``__post_init__``."""
    new = _new_address(DyadicAddress)
    _set_root(new, root)
    _set_level(new, level)
    _set_spatial(new, spatial)
    _set_temporal(new, temporal)
    return new


# ---------------------------------------------------------------------------
# recursion tables and dumps
# ---------------------------------------------------------------------------


def gamma_sequence(geom: Geometry, gamma0, depth: int) -> list[tuple[float, int]]:
    """Truncation recursion: entry ``i`` is ``(gamma_{i+1}, k_i)``, the new
    truncation parameter and the division count that produced it."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    root = Root(geom, (Fraction(0),) * geom.n, Fraction(0), Fraction(1), gamma0)
    root.ensure_depth(depth)
    return [(float(root.gamma_at(i + 1)), root.k_at(i)) for i in range(depth)]


def chain_gap_bound(geom: Geometry, theta0: int) -> mpmath.mpf:
    """Strict upper bound ``2*theta0*2^dp/(2^dp - 1)`` on lower-face chain gaps,
    in units of the ancestor's temporal length."""
    with mpmath.workprec(geom.precision_bits):
        return 2 * mpmath.mpf(theta0) * geom.two_dp / (geom.two_dp - 1)


def lattice_dump(root: Root, depth: int) -> list[dict]:
    """JSON-ready listing of every address down to ``depth``.

    Spatial bounds and slab offsets are exact fraction strings; absolute
    times are decimal strings (exact only when the root's time data is).
    """
    from .serialize import fraction_str, number_str

    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rows = []
    stack: list[DyadicAddress] = [root.address()]
    while stack:
        addr = stack.pop()
        t_lo, t_hi = addr.run_faces()
        rows.append({
            "level": addr.level,
            "spatial": list(addr.spatial),
            "temporal": addr.temporal,
            "l_x": fraction_str(addr.l_x()),
            "l_t": fraction_str(addr.root.l_t_fraction_of(addr.level)) + "*l_t(root)",
            "t_lo": number_str(t_lo),
            "t_hi": number_str(t_hi),
        })
        if addr.level < depth:
            stack.extend(reversed(addr.children()))
    rows.sort(key=lambda r: (r["level"], r["temporal"], tuple(r["spatial"])))
    return rows
