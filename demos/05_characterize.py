"""End-to-end consistency run: porosity curve -> exponent fit -> ratio scan.

For the hyperplane the covered fraction follows an exact power law in the
admissibility threshold (defect = delta^(1/3) on the default grid), the
fitted exponent is positive with a clean fit, the distance weight at half
that exponent has a finite ratio bracket, and two different translations
agree after recalibration -- so the verdict comes out "consistent".
"""

import json

from parporo import new_geometry
from parporo.improvement import HarnessConfig, characterization_harness
from parporo.sets import SpatialHyperplane, single_point

geom = new_geometry(1, 2.0)

for name, model in (("hyperplane x=0", SpatialHyperplane(0, 0.0)),
                    ("point (0,-1/2)", single_point(1, at=(0.0, -0.5)))):
    report = characterization_harness(
        model, geom, HarnessConfig(seed=0, samples=8, depth_cap=3,
                                   a1_samples=4))
    print(f"=== {name} ===")
    print("porosity curve:",
          [(row["delta"], row["c"]) for row in report["porosity_curve"]])
    print(f"alpha_hat = {float(report['alpha_hat']):.4f}  "
          f"K_hat = {float(report['K_hat']):.3f}  r2 = {float(report['r2']):.4f}")
    print(f"beta used = {report['beta_used']}  "
          f"ratio sup bracket = {report['a1_sup']}")
    print(f"cross-translation gap = {report['cross_theta']['max_c_gap']}")
    print(f"verdict: {report['verdict']}\n")
