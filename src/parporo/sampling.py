"""Seeded, rational root sampling shared by the scan operations.

Roots are drawn with exact rational centers, sides, and truncation
parameters so downstream lattice arithmetic stays exact; a fixed seed
makes every scan reproducible.  A scan searches its roots one after the
other, in sample order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Geometry, Root

# centers and top times lie on the grid Z / _CENTER_GRID within [-2, 2]
_CENTER_GRID = 16
_SIDES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
_GAMMA0S = (Fraction(0), Fraction(1, 4), Fraction(1, 2))


@dataclass(frozen=True)
class SamplerConfig:
    """Seed and count of randomized root rectangles."""

    seed: int = 0
    samples: int = 20

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")


def draw_roots(geom: Geometry, config: SamplerConfig) -> list[Root]:
    rng = random.Random(config.seed)
    q = _CENTER_GRID
    lo, hi = -2 * q, 2 * q
    roots = []
    for _ in range(config.samples):
        center = tuple(Fraction(rng.randint(lo, hi), q) for _ in range(geom.n))
        top = Fraction(rng.randint(lo, hi), q)
        side = rng.choice(_SIDES)
        gamma0 = rng.choice(_GAMMA0S)
        roots.append(Root(geom, center, top, side, gamma0))
    return roots


def scan_roots(first: Root, config: SamplerConfig) -> list[Root]:
    """``first``, then seeded roots up to ``config.samples`` in all; one
    sample draws none.  ``draw_roots`` reads one random stream in order, so
    these are the first ``samples - 1`` roots it draws for the seed."""
    if config.samples == 1:
        return [first]
    return [first, *draw_roots(first.geom, SamplerConfig(config.seed, config.samples - 1))]
