"""Certified ratio bounds for a singular distance weight.

For E = {x = 0} and the weight dist(., E)^(-1/2) on the unit root, the
average over the root and the essential infimum over the 2-lag translate
both have closed forms: 2*sqrt(2) and sqrt(2).  The adaptive integrator
reproduces the ratio 2 inside a bracket a few ulps wide; a point mass
gives a genuinely two-sided bracket instead, certified against refinement.
"""

from fractions import Fraction

from parporo import Root, new_geometry
from parporo.sets import SpatialHyperplane, single_point
from parporo.weights import WeightSpec, a1_ratio, annular_constant, integrate_weight

geom = new_geometry(1, 2.0)
root = Root(geom, (Fraction(0),), Fraction(0), Fraction(1), Fraction(0))
spec = WeightSpec(beta=Fraction(1, 6), n=1, p=2.0)  # exponent q = 1/2

plane = SpatialHyperplane(0, 0.0)
out = a1_ratio(plane, root, theta=2.0, spec=spec, tol=1e-7)
print("hyperplane weight, theta = 2:")
print(f"  average over R      = {out.average}")
print(f"  essinf over R^theta = {out.essinf}")
print(f"  ratio               = {out.ratio}  (closed form: exactly 2)")

point = single_point(1, at=(0.0, -0.5))
res = integrate_weight(point, root.rectangle(), spec, tol=1e-2)
print("\npoint mass at (0, -1/2):")
print(f"  integral bracket = {res.value}  ({res.cells} cells, "
      f"converged={res.converged})")

# the layer-cake closure keeps the bracket sound however E touches the box
touching = single_point(1, at=(-0.5, -1.0))
res2 = integrate_weight(touching, root.rectangle(), spec, tol=1e-3)
alpha = 1 / 6
C = annular_constant(1, 2.0, alpha)
bound = C * root.rectangle().measure(2.0) ** (1 - alpha)
print("\npoint mass on the corner (rectangle stays free):")
print(f"  integral bracket = {res2.value}")
print(f"  annular bound    = {bound:.6f}  (series constant C = {C:.4f})")
assert res2.value.hi <= bound
