"""Maximal free rectangles and coverage around a spatial hyperplane.

The set E = {x = 0} cuts the unit root into columns.  The largest E-free
dyadic subrectangle sits one level down (side 1/4, measure 1/64), three of
the four columns are free, and the leftover column keeps surrendering a
3/4 share per level, so the covered fraction climbs 3/4, 15/16, 63/64, ...
"""

from fractions import Fraction

from parporo import Root, new_geometry
from parporo.porosity import (admissible_collection, complementary_collection,
                              free_collection, maximal_hole)
from parporo.sets import SpatialHyperplane

geom = new_geometry(1, 2.0)
root = Root(geom, (Fraction(0),), Fraction(0), Fraction(1), Fraction(0))
E = SpatialHyperplane(0, 0.0)

hole = maximal_hole(E, root.address(), depth_cap=3)
print(f"maximal hole: level {hole.address.level}, side {hole.side}, "
      f"measure {hole.measure} of |root|")

for cap in (1, 2, 3):
    rep = free_collection(E, root.address(), cap)
    print(f"cap {cap}: {len(rep.rectangles):>5} maximal free rectangles, "
          f"covered fraction {rep.covered_fraction}")

# admissibility thresholds turn the same search into the delta-filtered
# collections: delta close to 1 keeps only the largest size class
for delta in (Fraction(99, 100), Fraction(1, 100), Fraction(1, 10000)):
    rep = admissible_collection(E, root.address(), delta, theta=15, depth_cap=3)
    print(f"delta = {str(delta):>8}: covered {rep.covered_fraction} "
          f"({len(rep.rectangles)} rectangles)")

# the complementary collection: maximal cells disjoint from the admissible
# union whose parent meets it -- the staging ground for the stopping time
adm = admissible_collection(E, root.address(), Fraction(99, 100), 15, 3)
comp = complementary_collection(E, root.address(), Fraction(99, 100), 15, 3,
                                admissible=adm)
levels = sorted({a.level for a in comp.rectangles})
print(f"complementary rectangles: {len(comp.rectangles)} at levels {levels}, "
      f"covering {comp.covered_fraction} of the root")
