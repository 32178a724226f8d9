"""Independent brute-force oracles used to cross-check the search code.

These deliberately avoid the library's pruned searches: they enumerate
every address level by level and re-derive maximality directly from the
definitions.
"""

from parporo.geometry import ParabolicRectangle
from parporo.sets import Freeness, rectangle_free


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
