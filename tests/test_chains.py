import math
import random
from fractions import Fraction

import pytest

from parporo.chains import (ChainPlan, HoleCache, StoppingPartition, decay_check,
                            doubling_chain, epsilon_max, interim_bound, stopping_partition,
                            stopping_time, verify_disjoint_from_admissible,
                            verify_nesting)
from parporo.geometry import (DyadicAddress, Root, StoppingParams,
                              default_parameters, new_geometry)
from parporo.porosity import (CollectionReport, admissible_collection,
                              complementary_collection, hole_of_translate)
from parporo.sets import PointCloud

from oracles import reference_verify_disjoint


@pytest.fixture(scope="module")
def layered_setup(layered_grid):
    g = new_geometry(1, 2.0)
    root = Root(g, (Fraction(0),), Fraction(0), Fraction(1), Fraction(0))
    params = default_parameters(g)
    cap = 4
    delta = Fraction(1, 64)
    base = root.address()
    adm = admissible_collection(layered_grid, base, delta, params.Phi, cap)
    comp = complementary_collection(layered_grid, base, delta, params.Phi, cap,
                                    admissible=adm)
    hole = hole_of_translate(layered_grid, base, params.Phi, cap)
    lam = delta * hole.measure
    part = stopping_partition(layered_grid, base, comp.rectangles, lam, params, cap)
    return g, root, params, cap, lam, adm, comp, part


def test_stopping_time_far_set(unit_root):
    params = default_parameters(unit_root.geom)
    far = PointCloud(((500.0, -1e9),))
    addr = unit_root.address().children()[0]
    out = stopping_time(far, addr, Fraction(1, 100), params, 2)
    assert out.tau == 1
    assert out.witness_measure >= Fraction(1, 100)


def test_stopping_time_oversized_threshold(unit_root, hyperplane):
    params = default_parameters(unit_root.geom)
    addr = unit_root.address().children()[0]
    # nothing can beat the root measure
    out = stopping_time(hyperplane, addr, Fraction(2), params, 2)
    assert out.tau is None


def test_stopping_time_bounded_by_level(unit_root, hyperplane):
    # Lambda at most the hole of the Phi-translate: tau is defined and <= m
    params = default_parameters(unit_root.geom)
    hole = hole_of_translate(hyperplane, unit_root.address(), params.Phi, 3)
    lam = hole.measure  # the largest admissible threshold
    cache = HoleCache(hyperplane, 3)
    for m in (1, 2, 3):
        addr = unit_root.address()
        for _ in range(m):
            addr = addr.children()[17 % len(addr.children())]
        out = stopping_time(hyperplane, addr, lam, params, 3, cache=cache)
        assert out.tau is not None and out.tau <= m


def test_a_hole_cache_of_another_model_or_cap_is_refused(unit_root, hyperplane):
    params = default_parameters(unit_root.geom)
    addr = unit_root.address().children()[0]
    for cache in (HoleCache(PointCloud(((5.0, 5.0),)), 2), HoleCache(hyperplane, 3)):
        with pytest.raises(ValueError, match="another model or depth cap"):
            stopping_time(hyperplane, addr, Fraction(1, 64), params, 2, cache=cache)
        with pytest.raises(ValueError, match="another model or depth cap"):
            stopping_partition(hyperplane, unit_root.address(), [addr], Fraction(1, 64),
                               params, 2, cache=cache)


def test_stopping_grid_rejects_out_of_range(unit_root, hyperplane):
    params = default_parameters(unit_root.geom)
    addr = unit_root.address().children()[0]
    with pytest.raises(ValueError):
        stopping_time(hyperplane, addr, Fraction(1, 2), params, 2,
                      theta_grid=[params.Phi])  # outside [phi-theta0, Phi-theta0]


def test_stopping_denser_grid_never_raises_tau(unit_root, hyperplane):
    # a finer translation grid can only find holes earlier
    from parporo.chains import theta_grid_for
    params = default_parameters(unit_root.geom)
    assert len(theta_grid_for(params)) == 14
    addr = unit_root.address().children()[5].children()[9]
    lam = Fraction(1, 128)
    coarse = stopping_time(hyperplane, addr, lam, params, 2)
    fine = stopping_time(hyperplane, addr, lam, params, 2,
                         theta_grid=theta_grid_for(params, density=2))
    assert coarse.tau is not None and fine.tau is not None
    assert fine.tau <= coarse.tau


def test_consecutive_index_law(layered_setup, layered_grid):
    g, root, params, cap, lam, adm, comp, part = layered_setup
    cache = HoleCache(layered_grid, cap)
    checked = 0
    for base in comp.rectangles:
        out = stopping_time(layered_grid, base, lam, params, cap, cache=cache)
        if out.tau is None or out.tau < 2:
            continue
        cur = base
        for i in range(1, out.tau):
            cur = cur.forward_parent(params)
            again = stopping_time(layered_grid, cur, lam, params, cap, cache=cache)
            assert again.tau == out.tau - i
            checked += 1
    assert checked >= 10  # the fixture provides plenty of depth-2 chains


def test_partition_covers_base(layered_setup):
    *_, comp, part = layered_setup
    in_groups = {m.key() for v in part.groups.values() for m in v}
    assert all(b.key() in in_groups for b in comp.rectangles)


def test_partition_nesting_and_disjointness(layered_setup):
    g, root, params, cap, lam, adm, comp, part = layered_setup
    ok, pair = verify_nesting(part)
    assert ok, pair
    ok, pair = verify_disjoint_from_admissible(part, adm)
    assert ok, pair
    assert part.certified
    assert set(part.groups) == {1, 2}
    assert len(part.groups[2]) > 0


def test_partition_negative_control(layered_setup):
    # injecting an admissible rectangle into a group must trip the checker
    g, root, params, cap, lam, adm, comp, part = layered_setup
    from dataclasses import replace
    bad_member = adm.rectangles[0]
    corrupted = replace(
        part, groups={**part.groups,
                      1: part.groups.get(1, ()) + (bad_member,)})
    ok, pair = verify_disjoint_from_admissible(corrupted, adm)
    assert not ok
    assert pair[0].key() == bad_member.key()


def _pair_keys(result):
    ok, pair = result
    return ok, pair and (pair[0].key(), pair[1].key())


def test_disjointness_lookup_matches_the_pairwise_scan(layered_setup):
    # planted members: an admissible rectangle itself, an ancestor of one,
    # a descendant of one, and a complementary cell clear of all of them
    g, root, params, cap, lam, adm, comp, part = layered_setup
    from dataclasses import replace
    assert _pair_keys(verify_disjoint_from_admissible(part, adm)) == (True, None)
    assert _pair_keys(reference_verify_disjoint(part, adm)) == (True, None)
    rng = random.Random(7)
    deep = [a for a in adm.rectangles if a.level >= 2]
    planted = [rng.choice(adm.rectangles), rng.choice(deep).parent(),
               rng.choice(deep).ancestor(1), rng.choice(adm.rectangles).children()[5],
               rng.choice(comp.rectangles)]
    verdicts = []
    for bad in planted:
        for k in (1, 2, 3):
            members = list(part.groups.get(k, ()))
            members.insert(rng.randrange(len(members) + 1), bad)
            corrupted = replace(part, groups={**part.groups, k: tuple(members)})
            expected = _pair_keys(reference_verify_disjoint(corrupted, adm))
            assert _pair_keys(verify_disjoint_from_admissible(corrupted, adm)) == expected
            verdicts.append(expected[0])
    assert verdicts == [False] * 12 + [True] * 3


def test_disjointness_lookup_matches_the_pairwise_scan_on_random_cells(unit_root):
    # random groups and admissible cells on levels 0-3, both verdicts
    rng = random.Random(11)
    base = unit_root.address()
    params = default_parameters(unit_root.geom)

    def cells(count):
        out = []
        for _ in range(count):
            level = rng.randrange(4)
            out.append(DyadicAddress(unit_root, level, (rng.randrange(1 << (2 * level)),),
                                     rng.randrange(-2, unit_root.slab_count(level) + 2)))
        return tuple(out)

    verdicts = set()
    for _ in range(300):
        groups = {k: cells(rng.randrange(4)) for k in range(1, rng.randrange(2, 4))}
        part = StoppingPartition(base, Fraction(1, 2), params, 3, (), groups, {}, {}, True)
        adm = CollectionReport(base, cells(rng.randrange(6)), Fraction(0), Fraction(0))
        expected = _pair_keys(reference_verify_disjoint(part, adm))
        assert _pair_keys(verify_disjoint_from_admissible(part, adm)) == expected
        verdicts.add(expected[0])
    assert verdicts == {True, False}


def test_proper_subset_law(layered_setup):
    # members of one group sharing a dyadic parent never exhaust its children
    g, root, params, cap, lam, adm, comp, part = layered_setup
    grouped_parents = 0
    for k, members in part.groups.items():
        by_parent = {}
        for m in members:
            if m.level >= 1:
                by_parent.setdefault(m.parent().key(), []).append(m)
        for parent_key, siblings in by_parent.items():
            level = siblings[0].level
            family = (1 << (g.d * g.n)) * root.k_at(level - 1)
            assert len(siblings) < family
            grouped_parents += 1
    assert grouped_parents > 0


def test_forward_parents_pairwise_disjoint(layered_setup):
    g, root, params, cap, lam, adm, comp, part = layered_setup
    checked = False
    for k in sorted(part.groups):
        upper = part.groups.get(k + 1, ())
        parents = {}
        for q in upper:
            fp = q.forward_parent(params)
            parents[fp.key()] = fp
        fps = list(parents.values())
        for i, a in enumerate(fps):
            for b in fps[i + 1:]:
                assert not a.intersects(b)
                checked = True
    assert checked


def test_doubling_sigma_measurement(layered_setup, layered_grid):
    from parporo.chains import doubling_sigma
    g, root, params, cap, lam, adm, comp, part = layered_setup
    sigma_hat, ratios = doubling_sigma(layered_grid, comp.rectangles, params,
                                       psi=2, depth_cap=cap)
    assert sigma_hat is not None and ratios
    # internally consistent by construction: every walked chain satisfies
    # the multi-step inequality with the measured minimum
    assert all(r >= Fraction(sigma_hat).limit_denominator(10 ** 12) * 0
               for r in ratios)
    assert min(float(r) for r in ratios) == pytest.approx(sigma_hat)
    # a usable sigma feeds the interim bound
    from parporo.chains import interim_bound
    bound, contained = interim_bound(lam, min(sigma_hat, 0.99), params, g,
                                     partition=part)
    assert contained is True


def test_decay_values_and_check(layered_setup):
    g, *_rest, part = layered_setup
    report = decay_check(part, g)
    assert report.lam == Fraction(63, 64)
    assert report.passed
    assert report.ratios  # the two-level fixture produces a real ratio
    for k, ratio in report.ratios.items():
        assert ratio <= report.lam ** k
    g4 = new_geometry(1, 2.0, 4)
    lam4 = 1 - Fraction(1, (1 << 4) * g4.k_ceil)
    assert lam4 == Fraction(4095, 4096)


def test_decay_trivial_when_single_group(unit_root, hyperplane):
    params = default_parameters(unit_root.geom)
    delta = Fraction(99, 100)
    base = unit_root.address()
    adm = admissible_collection(hyperplane, base, delta, params.Phi, 3)
    comp = complementary_collection(hyperplane, base, delta, params.Phi, 3,
                                    admissible=adm)
    hole = hole_of_translate(hyperplane, base, params.Phi, 3)
    part = stopping_partition(hyperplane, base, comp.rectangles,
                              delta * hole.measure, params, 3)
    assert set(part.groups) == {1}
    report = decay_check(part, unit_root.geom)
    assert report.passed and not report.ratios


# ---------------------------------------------------------------------------
# doubling chains
# ---------------------------------------------------------------------------


def test_epsilon_max_anchor():
    assert epsilon_max(Fraction(1, 2), 1) == pytest.approx(0.1339746, abs=1e-6)
    assert epsilon_max(Fraction(1, 2), 2) == pytest.approx(1 - 0.75 ** (1 / 3), abs=1e-9)


def test_doubling_chain_canonical(unit_root):
    plan = doubling_chain(unit_root, (1,), 3, psi=2, c0=Fraction(1, 2),
                          theta_window=(2, 2), theta=4)
    checks = plan.checks()
    assert all(checks.values()), checks
    assert plan.n2 <= plan.n1 <= plan.n3
    # spot-check the step walk against the compact form
    c0, o0 = plan.step_position(0)
    assert c0 == plan.base_corner and o0 == plan.base_offset
    c1, o1 = plan.step_position(1)
    assert tuple(b + x for b, x in zip(plan.base_corner, plan.xi_head)) == c1
    assert o1 == plan.base_offset + plan.theta * plan.L_t + plan.tau_head


def test_doubling_chain_zero_spatial_offset(unit_root):
    # pick the target column directly above the base cell: y = 0
    plan = doubling_chain(unit_root, (0,), 0, psi=2, c0=Fraction(1, 2),
                          theta_window=(2, 2), theta=4,
                          target_spatial=None, target_temporal=None)
    base_col = plan.base_corner[0]
    # rebuild with the aligned target column
    g = unit_root.geom
    level = plan.m + 1
    cells = 1 << (g.d * level)
    idx = int((base_col - (unit_root.center[0] - unit_root.side / 2))
              / unit_root.l_x_at(level))
    aligned = doubling_chain(unit_root, (0,), 0, psi=2, c0=Fraction(1, 2),
                             theta_window=(2, 2), theta=4,
                             target_spatial=(idx,), target_temporal=0)
    assert aligned.y == (Fraction(0),)
    assert all(x == 0 for x in aligned.xi_head)
    assert aligned.all_ok()


def test_doubling_chain_randomized():
    rng = random.Random(42)
    for trial in range(60):
        n = rng.choice([1, 1, 2])
        p = rng.choice([1.7, 2.0, 2.5])
        g = new_geometry(n, p, 2)
        root = Root(g, (Fraction(rng.randint(-4, 4), 4),) * n,
                    Fraction(rng.randint(-4, 4), 4),
                    rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]),
                    rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 2)]))
        theta1 = Fraction(rng.randint(5, 12), 4)
        theta2 = theta1 + Fraction(rng.randint(0, 8), 4)
        psi_nom = rng.randint(0, 4)
        psi = theta1 + (theta2 - theta1) * Fraction(psi_nom, 4)
        k0 = root.k_at(0)
        child_sp = tuple(rng.randrange(1 << g.d) for _ in range(n))
        child_t = rng.randrange(k0)
        c0 = Fraction(rng.randint(1, 9), 10)
        plan = doubling_chain(root, child_sp, child_t, psi=psi, c0=c0,
                              theta_window=(theta1, theta2),
                              theta=Fraction(rng.randint(2, 6)))
        checks = plan.checks()
        assert all(checks.values()), (trial, checks, plan)


def test_doubling_chain_input_validation(unit_root):
    with pytest.raises(ValueError):
        doubling_chain(unit_root, (0,), 0, psi=1, c0=Fraction(1, 2),
                       theta_window=(1, 2))
    with pytest.raises(ValueError):
        doubling_chain(unit_root, (0,), 0, psi=2, c0=Fraction(3, 2),
                       theta_window=(2, 2))
    with pytest.raises(ValueError):
        doubling_chain(unit_root, (0,), 99, psi=2, c0=Fraction(1, 2),
                       theta_window=(2, 2))


# ---------------------------------------------------------------------------
# interim bound
# ---------------------------------------------------------------------------


def test_interim_bound_values(geom12):
    params = default_parameters(geom12)
    bound, contained = interim_bound(Fraction(1), 0.5, params, geom12)
    assert bound == pytest.approx(4 * 4 * 16 / 15 + 2)  # 19.0666...
    assert contained is None
    smaller, _ = interim_bound(Fraction(1, 4), 0.5, params, geom12)
    assert smaller < bound


def test_interim_bound_containment(layered_setup, layered_grid):
    # fed the measured doubling factor, the translation bound covers the chains
    from parporo.chains import doubling_sigma
    g, root, params, cap, lam, adm, comp, part = layered_setup
    sigma_hat, _ = doubling_sigma(layered_grid, comp.rectangles, params,
                                  psi=2, depth_cap=cap)
    bound, contained = interim_bound(Fraction(1, 64), min(sigma_hat, 0.99),
                                     params, g, partition=part)
    assert contained is True


def test_interim_bound_rejects_bad_sigma(geom12):
    params = default_parameters(geom12)
    with pytest.raises(ValueError):
        interim_bound(Fraction(1, 2), 1.5, params, geom12)
