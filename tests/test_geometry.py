import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_realize
from parporo.geometry import (AmbiguousBranchError, DyadicAddress, ParabolicRectangle, Root,
                              StoppingParams, chain_gap_bound, check_parameters,
                              default_parameters, gamma_sequence, lattice_dump,
                              new_geometry, plus_theta, translate)


def test_default_division_rate():
    assert new_geometry(1, 2.0).d == 2
    assert new_geometry(1, 1.5, 4).d == 4  # d = 4 is admissible for every p > 1
    assert new_geometry(2, 3.0).d == 2


def test_division_rate_rejections():
    with pytest.raises(ValueError):
        new_geometry(1, 1.05, 2)  # 2.1 < log2(9) = 3.1699...
    with pytest.raises(ValueError):
        new_geometry(1, 1.0)
    with pytest.raises(ValueError):
        new_geometry(0, 2.0)


def test_division_count_constants():
    g = new_geometry(1, 1.1, 4)
    # 2^4.4 = 21.112...
    assert (g.k_floor, g.k_ceil) == (21, 22)
    assert g.k_floor <= g.two_dp <= g.k_ceil
    assert g.k_ceil <= 2 * g.k_floor


def test_gamma_sequence_integer_case():
    g = new_geometry(1, 2.0)
    assert gamma_sequence(g, 0, 3) == [(0.0, 16), (0.0, 16), (0.0, 16)]
    # truncation is preserved verbatim when 2^dp is an integer
    seq = gamma_sequence(g, Fraction(1, 4), 3)
    assert all(k == 16 for _, k in seq)
    assert all(abs(gm - 0.25) < 1e-15 for gm, _ in seq)


def test_gamma_sequence_fractional_case():
    g = new_geometry(1, 1.1, 4)
    (g1, k0), = gamma_sequence(g, 0, 1)
    assert k0 == 22
    assert abs(g1 - 0.040358) < 5e-7


def test_gamma_sequence_rejects_out_of_range():
    g = new_geometry(1, 2.0)
    with pytest.raises(ValueError):
        gamma_sequence(g, Fraction(3, 5), 1)


def test_gamma_sequence_stays_in_range_randomized():
    # ten thousand truncation parameters across randomized draws
    rng = random.Random(7)
    produced = 0
    for _ in range(2000):
        p = 1.0 + 2.0 * rng.random() + 1e-6
        d = rng.choice([2, 3, 4])
        if d * p < math.log2(9):
            d = 4
        g = new_geometry(1, p, d)
        gamma0 = Fraction(rng.randint(0, 8), 16)
        for gm, k in gamma_sequence(g, gamma0, 5):
            assert -1e-30 <= gm <= 0.5 + 1e-30
            assert k in (g.k_floor, g.k_ceil)
            produced += 1
    assert produced == 10_000


def test_ambiguous_branch_refusal():
    g = new_geometry(1, 1.1, 4, precision_bits=64)
    with mpmath.workprec(64):
        threshold = 1 - (g.two_dp + 1) / (2 * g.two_dp)
        with pytest.raises(AmbiguousBranchError):
            g.division_count(threshold + mpmath.mpf(2) ** -40)
    # the integer case has no branch to get wrong
    gi = new_geometry(1, 2.0)
    assert gi.division_count(Fraction(15, 32)) == 16


def test_children_counts(unit_root):
    addr = unit_root.address()
    kids = addr.children()
    assert len(kids) == 64  # 2^(dn) * k = 4 * 16
    child = kids[0]
    assert child.l_x() == Fraction(1, 4)
    assert unit_root.l_t_fraction_of(1) == Fraction(1, 16)
    grandkids = [c for kid in kids for c in kid.children()]
    assert len(grandkids) == 64 ** 2


def test_children_partition_parent_exactly(unit_root):
    addr = unit_root.address().children()[37]
    kids = addr.children()
    assert all(k.parent().key() == addr.key() for k in kids)
    # spatial intervals per axis tile the parent's interval
    plo, phi = addr.spatial_intervals()[0]
    xs = sorted({iv for k in kids for iv in k.spatial_intervals()[0]})
    assert xs[0] == plo and xs[-1] == phi
    # temporal offsets tile the parent's slab
    tlo, thi = addr.temporal_offsets()
    offs = sorted({o for k in kids for o in k.temporal_offsets()})
    assert offs[0] == tlo and offs[-1] == thi
    total = sum((k.measure_fraction() for k in kids), Fraction(0))
    assert total == addr.measure_fraction()


def test_parent_requires_positive_level(unit_root):
    with pytest.raises(ValueError):
        unit_root.address().parent()
    # navigation skips validation, yet refuses a negative ancestor level
    with pytest.raises(ValueError):
        unit_root.address(1, (2,), 3).ancestor(-1)


def test_forward_parent_is_translated_parent(unit_root):
    params = StoppingParams(4, 2, 15)
    child = unit_root.address().children()[5]
    fp = child.forward_parent(params)
    assert fp.level == 0
    assert fp.temporal == child.parent().temporal + 4
    # lower-face gap equals theta0 parent slabs
    gap = fp.temporal_offsets()[0] - child.parent().temporal_offsets()[0]
    assert gap == Fraction(4, 1) * unit_root.l_t_fraction_of(0)


def test_realize_root_is_root(unit_root):
    rect = unit_root.address().realize()
    assert rect.center == (0.0,)
    assert rect.top_time == 0.0
    assert rect.side == 1.0
    assert rect.t_lo(2.0) == -1.0 and rect.t_hi(2.0) == 0.0


def test_realize_level1_slabs(unit_root):
    for j in (0, 7, 15):
        addr = DyadicAddress(unit_root, 1, (2,), j)
        rect = addr.realize()
        assert rect.t_lo(2.0) == pytest.approx(-1 + j / 16, abs=1e-15)
        assert rect.t_hi(2.0) == pytest.approx(-1 + (j + 1) / 16, abs=1e-15)


def test_realize_level2_exact_measure(unit_root):
    addr = DyadicAddress(unit_root, 2, (5,), 37)
    assert addr.l_x() == Fraction(1, 16)
    assert unit_root.l_t_fraction_of(2) == Fraction(1, 256)
    assert addr.measure_fraction() == Fraction(1, 4096)


def test_translate_rectangle(unit_root):
    rect = unit_root.address().realize()
    assert translate(rect, 0.0, 2.0) == rect
    up = translate(rect, 2.0, 2.0)
    assert up.t_lo(2.0) == pytest.approx(1.0)
    # R-plus correspondence: theta = (1+g)/(1-g)
    assert plus_theta(1 / 3) == pytest.approx(2.0)
    assert plus_theta(0.0) == 1.0


def test_extended_lattice_is_temporal_only(unit_root):
    DyadicAddress(unit_root, 1, (0,), -23)  # any integer slab is fine
    with pytest.raises(ValueError):
        DyadicAddress(unit_root, 1, (4,), 0)  # spatial index out of the root cube
    with pytest.raises(ValueError):
        DyadicAddress(unit_root, 1, (-1,), 0)


def test_parent_floor_division_across_strip(unit_root):
    below = DyadicAddress(unit_root, 1, (1,), -1)
    assert below.parent().temporal == -1
    assert DyadicAddress(unit_root, 1, (1,), -16).parent().temporal == -1
    assert DyadicAddress(unit_root, 1, (1,), -17).parent().temporal == -2


# ---------------------------------------------------------------------------
# lattice invariants over a grid of geometries
# ---------------------------------------------------------------------------

INVARIANT_GRID = [
    (1, 2.0, 2, Fraction(0)),
    (1, 1.1, 4, Fraction(1, 4)),
    (1, 1.5, 3, Fraction(1, 2)),
    (2, 2.0, 2, Fraction(1, 4)),
    (1, math.e, 2, Fraction(0)),
]


def _root_for(n, p, d, gamma0):
    g = new_geometry(n, p, d)
    return Root(g, (Fraction(1, 3),) * n, Fraction(1, 7), Fraction(3, 2), gamma0)


@pytest.mark.parametrize("n,p,d,gamma0", INVARIANT_GRID)
def test_level_similarity_and_scale(n, p, d, gamma0):
    root = _root_for(n, p, d, gamma0)
    g = root.geom
    with mpmath.workprec(96):
        for level in range(0, 5):
            gm = root.gamma_at(level)
            assert 0 <= gm <= mpmath.mpf(1) / 2
            # dyadic-scale window for the temporal length
            ratio = mpmath.mpf(1) / root.slab_count(level)
            lo = mpmath.mpf(1) / 2 * mpmath.power(2, -level * d * p)
            hi = 2 * mpmath.power(2, -level * d * p)
            assert lo <= ratio * (1 + mpmath.mpf(2) ** -60)
            assert ratio <= hi * (1 + mpmath.mpf(2) ** -60)


@pytest.mark.parametrize("n,p,d,gamma0", INVARIANT_GRID)
def test_parent_comparability(n, p, d, gamma0):
    # 1/2 <= 2^{d(n+p)i} |P| / |pi_i P| <= 2, uniformly over levels
    root = _root_for(n, p, d, gamma0)
    g = root.geom
    with mpmath.workprec(96):
        for level in range(1, 6):
            for i in range(1, level + 1):
                ratio = Fraction(root.slab_count(level - i), root.slab_count(level))
                value = mpmath.power(2, d * p * i) * ratio.numerator / ratio.denominator
                assert mpmath.mpf(1) / 2 <= value <= 2


def test_covering_exhaustive_small(unit_root):
    # all level-2 cells with temporal index in [0, K_2): disjoint, sum to |root|
    cells = []
    for kid in unit_root.address().children():
        cells.extend(kid.children())
    assert len(cells) == 4096
    seen = set()
    total = Fraction(0)
    for c in cells:
        box = (c.spatial_intervals(), c.temporal_offsets())
        assert box not in seen
        seen.add(box)
        total += c.measure_fraction()
    assert total == 1
    xs = sorted({iv[0] for iv, in (c.spatial_intervals() for c in cells)})
    assert len(xs) == 16


def test_nestedness_exact(unit_root):
    kids = unit_root.address().children()
    a = kids[3]
    for b in kids[3].children():
        assert a.intersects(b) and a.contains_address(b)
    assert not kids[3].intersects(kids[4])
    deep = kids[7].children()[13]
    assert not deep.intersects(kids[8])
    assert deep.intersects(unit_root.address())


def test_chain_gap_bound_to_depth_five(unit_root):
    params = StoppingParams(4, 2, 15)
    bound = chain_gap_bound(unit_root.geom, params.theta0)
    with mpmath.workprec(96):
        for m in (1, 2, 3, 4, 5):
            K = unit_root.slab_count(m)
            if K <= 65536:
                ts = range(K)
            else:  # all extremal floor-division remainder patterns
                ts = sorted(set(range(4096)) | set(range(K - 4096, K))
                            | set(range(K // 2, K // 2 + 4096)))
            for t in ts:
                addr = DyadicAddress(unit_root, m, (0,), t)
                cur = addr
                for j in range(1, m + 1):
                    cur = cur.forward_parent(params)
                    gap = abs(cur.temporal_offsets()[0] - addr.temporal_offsets()[0])
                    # in units of l_t(pi_j^+ P): multiply by K_{m-j}
                    scaled = gap * unit_root.slab_count(m - j)
                    assert mpmath.mpf(scaled.numerator) / scaled.denominator < bound


def test_check_parameters_examples():
    g8 = new_geometry(1, 2.0, 4)  # dp = 8
    assert check_parameters(4, 2, 255, g8)
    assert not check_parameters(4, 2, 3, g8)   # needs Phi >= ceil(2^dp) - 1
    assert not check_parameters(4, 5, 255, g8)  # phi must not exceed theta0
    g = new_geometry(1, 2.0)
    params = default_parameters(g)
    assert (params.theta0, params.phi, params.Phi) == (4, 2, 15)


def test_default_parameters_hold_at_small_dp():
    # dp barely above log2(9)
    g = new_geometry(1, 1.586, 2)
    params = default_parameters(g)
    assert check_parameters(params.theta0, params.phi, params.Phi, g)


def test_lattice_dump_shape(unit_root):
    rows = lattice_dump(unit_root, 1)
    assert len(rows) == 65
    root_row = [r for r in rows if r["level"] == 0][0]
    assert root_row["l_x"] == "1"
    assert root_row["t_lo"] == "-1.0"
    lvl1 = [r for r in rows if r["level"] == 1]
    assert {r["temporal"] for r in lvl1} == set(range(16))
    assert all(r["l_x"] == "1/4" for r in lvl1)


# ---------------------------------------------------------------------------
# realize against the exact lattice values
# ---------------------------------------------------------------------------

REALIZE_GEOMS = {(n, p): new_geometry(n, p) for n in (1, 2) for p in (2.0, 1.5, math.e)}
fractions = st.builds(Fraction, st.integers(-64, 64), st.integers(1, 16))


@st.composite
def lattice_cells(draw):
    """A fresh root and a few cells of it at levels 0-4, slabs anywhere on
    the time strip: below the root, inside it, and past it."""
    n = draw(st.sampled_from([1, 2]))
    p = draw(st.sampled_from([2.0, 1.5, math.e]))
    top = draw(st.one_of(fractions, st.floats(-1e3, 1e3, allow_nan=False)))
    root = Root(REALIZE_GEOMS[n, p], tuple(draw(fractions) for _ in range(n)), top,
                Fraction(draw(st.integers(1, 64)), draw(st.integers(1, 16))),
                Fraction(draw(st.integers(0, 8)), 16))
    cells = []
    for level in draw(st.lists(st.integers(0, 4), min_size=1, max_size=6)):
        side = 1 << (root.geom.d * level)
        K = root.slab_count(level)
        spatial = tuple(draw(st.integers(0, side - 1)) for _ in range(n))
        cells.append(DyadicAddress(root, level, spatial, draw(st.integers(-2 * K, 2 * K))))
    return cells


def _float_bits(rect):
    return ([c.hex() for c in rect.center], rect.top_time.hex(), rect.side.hex(),
            rect.gamma.hex())


@given(cells=lattice_cells())
@settings(max_examples=300, deadline=None)
def test_realize_matches_exact_values_bit_for_bit(cells):
    for addr in cells:
        fast = addr.realize()  # fills the root's float table on first use
        assert _float_bits(fast) == _float_bits(exact_realize(addr))


def _box_bits(box):
    bounds, (t_lo, t_hi) = box
    return [(lo.hex(), hi.hex()) for lo, hi in bounds], t_lo.hex(), t_hi.hex()


@given(cells=lattice_cells(), runs=st.lists(st.integers(2, 48), min_size=6, max_size=6))
@settings(max_examples=300, deadline=None)
def test_run_box_spans_its_slabs(cells, runs):
    # a one-slab run is the realized box bit for bit; a longer run spans its
    # first slab's lower face to its last slab's upper face, and every
    # slab's realized box lies inside it
    for addr, run in zip(cells, runs):
        p = addr.root.geom.p
        assert _box_bits(addr.run_box(1)) == _box_bits(addr.realize().box(p))
        bounds, (t_lo, t_hi) = addr.run_box(run)
        slabs = [DyadicAddress(addr.root, addr.level, addr.spatial, addr.temporal + j)
                 for j in range(run)]
        assert t_lo.hex() == _box_bits(slabs[0].run_box(1))[1]
        assert t_hi.hex() == _box_bits(slabs[-1].run_box(1))[2]
        for slab in slabs:
            slab_bounds, (s_lo, s_hi) = slab.realize().box(p)
            assert slab_bounds == bounds
            assert t_lo <= s_lo and s_hi <= t_hi


def _bits(value):
    """``value`` with every float as its hex string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, ParabolicRectangle):
        return _bits(dataclasses.astuple(value))
    return value


def _cell(root, level, temporal):
    cells = 1 << (root.geom.d * level)
    return DyadicAddress(root, level, (cells - 1, cells // 3), temporal)


LEVEL_READERS = {
    "column_grid": lambda root, level: root.column_grid(level),
    "l_x_at": lambda root, level: root.l_x_at(level),
    "measure_fraction_at": lambda root, level: root.measure_fraction_at(level),
    "run_box": lambda root, level: _cell(root, level, -3).run_box(4),
    "run_faces": lambda root, level: _cell(root, level, 11).run_faces(2),
    "realize": lambda root, level: _cell(root, level, 2).realize(),
}


@pytest.mark.parametrize("first", sorted(LEVEL_READERS))
def test_a_fresh_root_answers_a_level_nothing_has_built(first):
    # a non-dyadic root at p = 1.5, read first at level 5: the answers, and
    # then those of every reader at every level, are those of a root whose
    # levels were built one by one
    geom = new_geometry(2, 1.5)

    def fresh():
        return Root(geom, (Fraction(1, 3), Fraction(-2, 7)), Fraction(3, 7), Fraction(3, 7),
                    Fraction(1, 8))

    built = fresh()
    for level in range(6):
        built.ensure_depth(level)
    root = fresh()
    assert root._ks == []
    assert _bits(LEVEL_READERS[first](root, 5)) == _bits(LEVEL_READERS[first](built, 5))
    for level in range(6):
        for read in LEVEL_READERS.values():
            assert _bits(read(root, level)) == _bits(read(built, level))
    with pytest.raises(ValueError, match="nonnegative"):
        root.l_x_at(-1)


def test_realize_on_warm_root_enters_no_mpmath(monkeypatch):
    geom = new_geometry(1, 1.5)  # non-integral 2^dp: the branch runs mpmath
    root = Root(geom, (Fraction(1, 3),), Fraction(1, 7), Fraction(3, 2), Fraction(1, 4))
    entered = []
    real = mpmath.workprec

    def counting(*args, **kwargs):
        entered.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mpmath, "workprec", counting)
    root.ensure_depth(3)
    assert entered  # extending the recursion does work at precision
    entered.clear()
    rng = random.Random(5)
    for i in range(100):
        level = i % 4
        K = root.slab_count(level)
        addr = DyadicAddress(root, level, (rng.randrange(1 << (geom.d * level)),),
                             rng.randrange(-K, 2 * K))
        addr.realize()
    assert entered == []


# n = 3 at p = 2 keeps a cell's 64 spatial children and 16 slabs small
NAVIGATION_ROOTS = {
    n: Root(new_geometry(n, 1.5 if n < 3 else 2.0),
            (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2))[:n], Fraction(3, 7),
            Fraction(3, 7), Fraction(1, 8))
    for n in (1, 2, 3)}


def _assert_same_address(got, want):
    assert type(got) is DyadicAddress
    assert got == want and want == got
    assert got.key() == want.key()
    assert hash(got) == hash(want)
    assert got.root is want.root


@given(n=st.sampled_from((1, 2, 3)), level=st.integers(0, 3), data=st.data(),
       shift=st.integers(-300, 300))
@settings(max_examples=200, deadline=None)
def test_derived_addresses_equal_validated_ones(n, level, data, shift):
    # navigation derives addresses from a valid one without re-validating
    # them; each must be the address the validated constructor builds
    root = NAVIGATION_ROOTS[n]
    geom = root.geom
    cells = 1 << (geom.d * level)
    spatial = tuple(data.draw(st.integers(0, cells - 1)) for _ in range(n))
    addr = root.address(level, spatial, data.draw(st.integers(-50, 50)))
    validated = DyadicAddress(root, level, spatial, addr.temporal + shift)
    for got in (addr._with_temporal(addr.temporal + shift), addr.translated(shift)):
        _assert_same_address(got, validated)
        assert got.run_box(2) == validated.run_box(2)
    # spatial children, in order, at the first child slab; children are
    # moved through their slabs from them
    k, split = root.k_at(level), 1 << geom.d
    offsets = list(itertools.product(range(split), repeat=n))
    want = [DyadicAddress(root, level + 1, tuple(s * split + o for s, o in zip(spatial, off)),
                          addr.temporal * k) for off in offsets]
    kids = addr.spatial_children()
    assert len(kids) == len(want)
    for got, w in zip(kids, want):
        _assert_same_address(got, w)
    if n < 3:
        full = addr.children()
        assert len(full) == len(want) * k
        for i, got in enumerate(full):
            w = want[i // k]
            _assert_same_address(got, DyadicAddress(root, level + 1, w.spatial,
                                                    w.temporal + i % k))
    # ancestors at every level, the parent and the forward parent
    for up in range(level + 1):
        ratio = root.slab_count(level) // root.slab_count(up)
        want = DyadicAddress(root, up, tuple(s >> (geom.d * (level - up)) for s in spatial),
                             addr.temporal // ratio)
        _assert_same_address(addr.ancestor(up), want)
        if up == level - 1:
            _assert_same_address(addr.parent(), want)
            params = StoppingParams(4, 2, geom.k_ceil - 1)
            _assert_same_address(addr.forward_parent(params),
                                 DyadicAddress(root, up, want.spatial,
                                               want.temporal + params.theta0))


def test_derived_addresses_carry_no_dict():
    root = NAVIGATION_ROOTS[1]
    addr = root.address(2, (5,), 3)
    params = StoppingParams(4, 2, root.geom.k_ceil - 1)
    for got in (addr, addr.translated(1), addr.parent(), addr.ancestor(0),
                addr.forward_parent(params), addr.spatial_children()[-1],
                addr.children()[-1]):
        assert not hasattr(got, "__dict__")

    def traced_bytes(build):
        """Least traced growth over three builds of 10,000 addresses kept."""
        sizes = []
        for _ in range(3):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = build()
                assert len(kept) == 10_000
                sizes.append(tracemalloc.get_traced_memory()[0] - before)
            finally:
                tracemalloc.stop()
        return min(sizes)

    derived = traced_bytes(lambda: [addr._with_temporal(t) for t in range(10_000)])
    validated = traced_bytes(lambda: [DyadicAddress(root, 2, (5,), t) for t in range(10_000)])
    # up to a kilobyte of interpreter bookkeeping varies from build to
    # build; an instance dict per address would add about 640 kB
    assert derived <= validated + 1024
