"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from oracles import brute_force_hole, halton
from parporo.chains import (decay_check, doubling_chain, epsilon_max,
                            stopping_partition, verify_disjoint_from_admissible,
                            verify_nesting)
from parporo.geometry import (DyadicAddress, ParabolicRectangle, Root,
                              StoppingParams, chain_gap_bound, default_parameters,
                              new_geometry)
from parporo.cli import run
from parporo.improvement import HarnessConfig, characterization_harness
from parporo.porosity import (admissible_collection, complementary_collection,
                              free_collection, hole_esssup_bracket,
                              hole_of_translate, maximal_hole, porosity_curve)
from parporo.sampling import SamplerConfig, draw_roots
from parporo.sets import (Freeness, HalfSpaceTime, PointCloud, SpatialHyperplane,
                          rectangle_free, single_point)
from parporo.weights import (WeightSpec, a1_ratio, a1_scan, annular_constant,
                             integrate_weight)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
LOG2_9 = math.log2(9.0)

GRID_N = (1, 2)
GRID_D = (2, 3, 4)
GRID_P = (1.1, 1.5, 2.0, math.e)
GRID_GAMMA0 = (Fraction(0), Fraction(1, 4), Fraction(1, 2))


def _report(num: int, name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"criterion {num:02d} {name}: {status}{tail}")
    assert ok, f"criterion {num} {name} failed{tail}"


def _valid_grid():
    for n in GRID_N:
        for d in GRID_D:
            for p in GRID_P:
                if d * p < LOG2_9:
                    continue  # below the admissible division rate
                for gamma0 in GRID_GAMMA0:
                    yield n, d, p, gamma0


# ---------------------------------------------------------------------------
# criterion 1: lattice exactness
# ---------------------------------------------------------------------------


def _verify_child_tiling(addr: DyadicAddress, sample_budget=128) -> bool:
    """Children exactly tile the parent: per-axis interval tiling plus exact
    measure accounting, materializing at most ``sample_budget`` children."""
    root = addr.root
    geom = root.geom
    k = root.k_at(addr.level)
    split = 1 << geom.d
    # per-axis spatial tiling: index arithmetic is the interval map
    plo, phi = addr.spatial_intervals()[0]
    w_child = root.l_x_at(addr.level + 1)
    base = addr.spatial[0] * split
    if not (base * w_child + (root.center[0] - root.side / 2) == plo):
        return False
    if (base + split) * w_child + (root.center[0] - root.side / 2) != phi:
        return False
    # temporal tiling: k slabs of width 1/K_{level+1} fill the parent slab
    K_child = root.slab_count(addr.level + 1)
    tlo, thi = addr.temporal_offsets()
    if Fraction(addr.temporal * k, K_child) != tlo:
        return False
    if Fraction(addr.temporal * k + k, K_child) != thi:
        return False
    # exact measure accounting
    child_measure = root.measure_fraction_at(addr.level + 1)
    count = (split ** geom.n) * k
    if count * child_measure != addr.measure_fraction():
        return False
    # sampled children: realized bodies inside the parent, parent() inverts
    rng = random.Random(17)
    spatial_choices = [0, split - 1] + [rng.randrange(split)
                                        for _ in range(min(4, split))]
    temporal_choices = sorted({0, k - 1, k // 2,
                               *(rng.randrange(k) for _ in range(8))})
    checked = 0
    for so in spatial_choices:
        for to in temporal_choices:
            child = DyadicAddress(
                root, addr.level + 1,
                tuple(s * split + so for s in addr.spatial),
                addr.temporal * k + to)
            if child.parent().key() != addr.key():
                return False
            clo, chi = child.temporal_offsets()
            if not (tlo <= clo < chi <= thi):
                return False
            for (pl, ph), (cl, ch) in zip(addr.spatial_intervals(),
                                          child.spatial_intervals()):
                if not (pl <= cl < ch <= ph):
                    return False
            checked += 1
            if checked >= sample_budget:
                return True
    return True


def test_criterion_1_lattice_exactness():
    start = time.monotonic()
    ok = True
    detail = ""
    for n, d, p, gamma0 in _valid_grid():
        geom = new_geometry(n, p, d)
        root = Root(geom, (Fraction(1, 3),) * n, Fraction(1, 7), Fraction(3, 2),
                    gamma0)
        root.ensure_depth(5)
        with mpmath.workprec(96):
            for level in range(0, 5):
                gm = root.gamma_at(level)
                if not (0 <= gm <= mpmath.mpf(1) / 2):
                    ok, detail = False, f"gamma out of range at {(n, d, p)}"
                # dyadic-scale window (similarity: one check covers the level)
                ratio = mpmath.mpf(1) / root.slab_count(level)
                if not (mpmath.mpf(1) / 2 * mpmath.power(2, -level * d * p)
                        <= ratio <= 2 * mpmath.power(2, -level * d * p)):
                    ok, detail = False, f"temporal scale at {(n, d, p, level)}"
            # comparability for every ancestor step (levels share measures)
            for level in range(1, 5):
                for i in range(1, level + 1):
                    frac = Fraction(root.slab_count(level - i),
                                    root.slab_count(level))
                    value = mpmath.power(2, d * p * i) \
                        * frac.numerator / frac.denominator
                    if not (mpmath.mpf(1) / 2 <= value <= 2):
                        ok, detail = False, f"comparability at {(n, d, p, level, i)}"
        # covering: exact count x measure identity per level
        for level in range(0, 5):
            count = (1 << (d * n * level)) * root.slab_count(level)
            if count * root.measure_fraction_at(level) != 1:
                ok, detail = False, f"covering identity at {(n, d, p, level)}"
        # child tiling at every level (first, middle, last parents)
        for level in range(0, 4):
            K = root.slab_count(level)
            cells = 1 << (d * level)
            for spatial in {(0,) * n, (cells - 1,) * n, (cells // 2,) * n}:
                for t in {0, K - 1, K // 2}:
                    addr = DyadicAddress(root, level, spatial, t)
                    if not _verify_child_tiling(addr):
                        ok, detail = False, f"child tiling at {(n, d, p, level)}"
        # full materialization where the lattice is small enough
        if (1 << (d * n * 2)) * root.slab_count(2) <= 5000:
            cells = [c for kid in root.address().children()
                     for c in kid.children()]
            keys = {(c.spatial, c.temporal) for c in cells}
            total = sum((c.measure_fraction() for c in cells), Fraction(0))
            if len(keys) != len(cells) or total != 1:
                ok, detail = False, f"level-2 materialization at {(n, d, p)}"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(1, "lattice-exactness", ok, detail or f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: chain-gap bound
# ---------------------------------------------------------------------------


def test_criterion_2_chain_gap():
    start = time.monotonic()
    theta0 = 4
    violations = 0
    total = 0
    for _, d, p, gamma0 in _valid_grid():
        geom = new_geometry(1, p, d)
        root = Root(geom, (Fraction(0),), Fraction(0), Fraction(1), gamma0)
        root.ensure_depth(4)
        with mpmath.workprec(geom.precision_bits):
            bound = chain_gap_bound(geom, theta0)
            for m in range(1, 5):
                K = root.slab_count(m)
                if K <= 65536:
                    ts = range(K)
                else:
                    mid = K // 2
                    ts = set(range(2048)) | set(range(K - 2048, K)) \
                        | set(range(mid, mid + 2048))
                for j in range(1, m + 1):
                    Kj = root.slab_count(m - j)
                    stride = K // Kj
                    # strict bound, scaled to integers: gap * K < bound * stride
                    rhs_floor = int(mpmath.floor(bound * stride))
                    for t in ts:
                        cur = t
                        lvl = m
                        for _ in range(j):
                            cur = cur // root.k_at(lvl - 1) + theta0
                            lvl -= 1
                        lhs = cur * (K // root.slab_count(lvl)) - t
                        total += 1
                        if lhs > rhs_floor:
                            violations += 1
    elapsed = time.monotonic() - start
    _report(2, "chain-gap-bound", violations == 0 and total > 10 ** 5,
            f"{total} chains, {violations} violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: maximal-hole oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_hole_oracle():
    rng = random.Random(31337)
    agree = 0
    for _ in range(50):
        p = rng.choice([1.6, 2.0])
        g = new_geometry(1, p, 2)
        root = Root(g, (Fraction(rng.randint(-8, 8), 4),),
                    Fraction(rng.randint(-8, 8), 4),
                    rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]),
                    rng.choice(GRID_GAMMA0))
        if rng.random() < 0.5:
            model = SpatialHyperplane(0, rng.uniform(-1.5, 1.5))
        else:
            model = PointCloud(tuple(
                (rng.uniform(-2, 2), rng.uniform(-3, 1))
                for _ in range(rng.randint(1, 6))))
        fast = maximal_hole(model, root.address(), 3)
        slow = brute_force_hole(model, root.address(), 3)
        if slow is None:
            agree += fast.address is None
        else:
            agree += (fast.address is not None
                      and fast.address.key() == slow.key()
                      and fast.measure == slow.measure_fraction())
    _report(3, "hole-oracle-equivalence", agree == 50, f"{agree}/50 agree")


# ---------------------------------------------------------------------------
# criterion 4: sup-distance window over free collections
# ---------------------------------------------------------------------------


def test_criterion_4_hole_window():
    g = new_geometry(1, 2.0)
    root = Root(g, (Fraction(0),), Fraction(0), Fraction(1), Fraction(0))
    # fixtures whose nearest-set structure is unique inside the root, so the
    # sup bracket certifies the 1e-6 width (clouds with equidistant ridge
    # patches cannot reach that width and are exercised at coarse tolerance
    # elsewhere)
    wide_grid = PointCloud(tuple((4.0 * i, -1.0 * m) for i in (-1, 0, 1)
                                 for m in range(0, 3)))
    cases = [
        (SpatialHyperplane(0, 0.0), 3),
        (single_point(1, at=(0.0, -0.5)), 3),
        (HalfSpaceTime(-0.25, future=True), 3),
        (wide_grid, 2),
    ]
    checked = 0
    ok = True
    for model, cap in cases:
        if rectangle_free(model, root.rectangle(), 2.0) is not Freeness.NONEMPTY:
            ok = False
            continue
        rep = free_collection(model, root.address(), cap)
        for member in rep.rectangles:
            lx = float(member.l_x())
            sup, conv = hole_esssup_bracket(model, member, tol=1e-6 * lx / 4,
                                            max_cells=60000)
            window_lo, window_hi = 0.5 * lx, (2 ** g.d) * lx
            if not conv or sup.width > 1e-6 * lx:
                ok = False
            if sup.hi < window_lo or sup.lo > window_hi:
                ok = False
            checked += 1
    _report(4, "hole-sup-window", ok and checked > 1000, f"{checked} members")


# ---------------------------------------------------------------------------
# criterion 5: closed-form ratio anchor
# ---------------------------------------------------------------------------


def test_criterion_5_closed_form_anchor():
    start = time.monotonic()
    g = new_geometry(1, 2.0)
    root = Root(g, (Fraction(0),), Fraction(0), Fraction(1), Fraction(0))
    spec = WeightSpec(beta=1 / 6, n=1, p=2.0)
    out = a1_ratio(SpatialHyperplane(0, 0.0), root, 2.0, spec, tol=1e-7)
    elapsed = time.monotonic() - start
    ok = (abs(out.average.mid - 2.828427) < 1e-5
          and abs(out.essinf.mid - 1.414213) < 1e-5
          and abs(out.ratio.mid - 2.0) < 1e-5
          and not out.unbounded and elapsed < 5.0)
    _report(5, "closed-form-anchor", ok,
            f"avg={out.average.mid:.6f} inf={out.essinf.mid:.6f} "
            f"ratio={out.ratio.mid:.6f} {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 6: annular estimate
# ---------------------------------------------------------------------------


def test_criterion_6_annular_estimate():
    rng = random.Random(606)
    assert annular_constant(1, 2.0, 1 / 6) == pytest.approx(10.2426, abs=1e-3)
    violations = 0
    for trial in range(100):
        n, p = rng.choice([(1, 2.0), (1, 2.0), (1, 2.5), (2, 2.0)])
        alpha = 1 / (2 * (n + p)) if rng.random() < 0.5 else 1 / 6 / (n + p) * 3
        C = annular_constant(n, p, alpha)
        spec = WeightSpec(beta=alpha, n=n, p=p)
        side = rng.choice([0.5, 1.0, 2.0])
        rect = ParabolicRectangle(
            center=tuple(rng.uniform(-2, 2) for _ in range(n)),
            top_time=rng.uniform(-2, 2), side=side)
        kind = rng.random()
        if kind < 0.4:
            E = single_point(n, at=(rect.spatial_bounds()[0][0],)
                             + tuple(c for c in rect.center[1:])
                             + (rect.t_lo(p) - 1e-9,))
        elif kind < 0.7:
            E = SpatialHyperplane(0, rect.spatial_bounds()[0][0])
        else:
            E = HalfSpaceTime(rect.t_lo(p), future=False)
        res = integrate_weight(E, rect, spec, tol=3e-3, max_cells=8000)
        if not math.isfinite(res.value.hi):
            violations += 1
            continue
        if res.value.hi > C * rect.measure(p) ** (1 - alpha) * (1 + 1e-9):
            violations += 1
    _report(6, "annular-estimate", violations == 0, f"{violations} violations")


# ---------------------------------------------------------------------------
# criterion 7: stopping machinery
# ---------------------------------------------------------------------------


def test_criterion_7_stopping_machinery(layered_grid, hyperplane):
    g = new_geometry(1, 2.0)
    params = default_parameters(g)
    root = Root(g, (Fraction(0),), Fraction(0), Fraction(1), Fraction(0))
    base = root.address()
    ok = True
    notes = []
    for model, cap, delta in ((layered_grid, 4, Fraction(1, 64)),
                              (hyperplane, 3, Fraction(99, 100))):
        adm = admissible_collection(model, base, delta, params.Phi, cap)
        comp = complementary_collection(model, base, delta, params.Phi, cap,
                                        admissible=adm)
        hole = hole_of_translate(model, base, params.Phi, cap)
        lam = delta * hole.measure
        part = stopping_partition(model, base, comp.rectangles, lam, params, cap)
        grouped = {m.key() for v in part.groups.values() for m in v}
        a_ok = all(b.key() in grouped for b in comp.rectangles)
        b_ok, _ = verify_nesting(part)
        c_ok, _ = verify_disjoint_from_admissible(part, adm)
        decay = decay_check(part, g)
        d_ok = decay.passed and decay.lam == Fraction(63, 64)
        ok = ok and a_ok and b_ok and c_ok and d_ok and part.certified
        notes.append(f"groups={sorted(part.groups)}")
    _report(7, "stopping-machinery", ok, "; ".join(notes))


# ---------------------------------------------------------------------------
# criterion 8: chain plans
# ---------------------------------------------------------------------------


def test_criterion_8_chain_plans():
    assert epsilon_max(Fraction(1, 2), 1) == pytest.approx(0.1339746, abs=1e-6)
    rng = random.Random(808)
    failures = 0
    for trial in range(200):
        n = rng.choice([1, 1, 1, 2])
        p = rng.choice([1.7, 2.0, 2.5, 3.0])
        d = rng.choice([2, 3]) if p >= 1.6 else 3
        g = new_geometry(n, p, d)
        root = Root(g, (Fraction(rng.randint(-4, 4), 4),) * n,
                    Fraction(rng.randint(-4, 4), 4),
                    rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]),
                    rng.choice(GRID_GAMMA0))
        theta1 = Fraction(rng.randint(5, 12), 4)
        theta2 = theta1 + Fraction(rng.randint(0, 8), 4)
        psi = theta1 + (theta2 - theta1) * Fraction(rng.randint(0, 4), 4)
        child_sp = tuple(rng.randrange(1 << g.d) for _ in range(n))
        child_t = rng.randrange(root.k_at(0))
        plan = doubling_chain(root, child_sp, child_t, psi=psi,
                              c0=Fraction(rng.randint(1, 9), 10),
                              theta_window=(theta1, theta2),
                              theta=Fraction(rng.randint(2, 6)))
        checks = plan.checks()
        if not all(checks.values()):
            failures += 1
    _report(8, "chain-plan-construction", failures == 0, f"{failures} failures")


# ---------------------------------------------------------------------------
# criterion 9: end-to-end consistency
# ---------------------------------------------------------------------------


def test_criterion_9_end_to_end(hyperplane, origin_point):
    start = time.monotonic()
    g = new_geometry(1, 2.0)
    base = dict(samples=8, depth_cap=4, a1_samples=4, a1_tol=5e-2,
                a1_max_cells=4000)
    r_hyp = characterization_harness(hyperplane, g, HarnessConfig(seed=0, **base))
    r_hyp2 = characterization_harness(hyperplane, g,
                                      HarnessConfig(seed=1234, **base))
    r_pt = characterization_harness(origin_point, g, HarnessConfig(seed=0, **base))
    elapsed = time.monotonic() - start
    ok = True
    for rep in (r_hyp, r_hyp2, r_pt):
        ok &= rep["verdict"] == "consistent"
        ok &= float(rep["alpha_hat"]) > 0
        ok &= float(rep["r2"]) >= 0.9
        lo, hi = (float(v) for v in rep["a1_sup"])
        ok &= math.isfinite(hi)
    ok &= abs(float(r_hyp["alpha_hat"]) - float(r_hyp2["alpha_hat"])) < 0.1
    ok &= elapsed < 120.0
    _report(9, "end-to-end-consistency", ok,
            f"alpha={float(r_hyp['alpha_hat']):.3f}/"
            f"{float(r_hyp2['alpha_hat']):.3f}/{float(r_pt['alpha_hat']):.3f} "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 10: determinism across worker counts and repeated scans
# ---------------------------------------------------------------------------


def _porosity_json(model, geom, cap=3):
    roots = draw_roots(geom, SamplerConfig(seed=10, samples=8))
    reports = porosity_curve(model, roots,
                             [Fraction(1, 2), Fraction(1, 128)], 15, cap)
    from parporo.serialize import fraction_str
    return json.dumps([{
        "delta": fraction_str(rep.delta),
        "c": fraction_str(rep.empirical_c),
        "witness": rep.witness_index,
        "samples": [[str(s["covered"]), str(s["hole"])] for s in rep.samples],
    } for rep in reports], sort_keys=True)


def _a1_json(model, geom):
    roots = draw_roots(geom, SamplerConfig(seed=10, samples=6))
    spec = WeightSpec(beta=1 / 6, n=1, p=2.0)
    rep = a1_scan(model, roots, 2.0, spec, tol=1e-3)
    return json.dumps({
        "sup": [repr(rep.sup_ratio.lo), repr(rep.sup_ratio.hi)],
        "witness": rep.witness_index,
        "samples": list(rep.samples),
    }, sort_keys=True)


def _cli_json(capsys, argv):
    code = run(argv)
    report = json.loads(capsys.readouterr().out)
    report.pop("timestamp")
    return code, json.dumps(report, sort_keys=True)


def test_criterion_10_determinism(hyperplane, layered_grid, capsys):
    # --threads is accepted and ignored: a report is the same at any count
    hyperplane_json = str(FIXTURES / "hyperplane.json")
    commands = (["porosity", "--set", hyperplane_json, "--samples", "8", "--cap", "3",
                 "--seed", "10"],
                ["a1", "--set", hyperplane_json, "--samples", "6", "--tol", "1e-3",
                 "--seed", "10"])
    cli_ok = all(_cli_json(capsys, [*argv, "--threads", "1"])
                 == _cli_json(capsys, [*argv, "--threads", "4"]) for argv in commands)
    # each scan twice on one model object: the second call must not read
    # state the first left behind, such as a cloud's held columns
    g = new_geometry(1, 2.0)
    cloud = PointCloud(layered_grid.points)
    scans = (lambda: _porosity_json(hyperplane, g), lambda: _porosity_json(cloud, g, cap=2),
             lambda: _a1_json(hyperplane, g))
    repeat_ok = all(scan() == scan() for scan in scans)
    _report(10, "determinism", cli_ok and repeat_ok)
