"""Write the golden reports and the a1 soundness reference.

    python3 perfbench/make_golden.py            # golden reports only
    python3 perfbench/make_golden.py --reference  # also the a1 reference (minutes)

Run it only when a report is meant to change, and say why in the change.
Golden reports are the stdout of one ``parporo`` call with the timestamp
line removed, plus the exit code: every pool seed of each workload (the
one report of ``stopping-layered``) and the eight README CLI examples.  The a1
reference holds each pool sample's ratio bracket from the public
``a1_ratio`` at a far larger cell budget than the workload's.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from run import _spawn  # noqa: E402
from workloads import (GOLDEN, REFERENCE, WORKLOADS, argv,  # noqa: E402
                       golden_name, golden_path, golden_record, rel_width)

README_EXAMPLES = {
    "readme-maxhole": ["maxhole", "--set", "fixtures/hyperplane.json", "--n", "1", "--p", "2",
                       "--d", "2", "--cap", "2"],
    "readme-porosity": ["porosity", "--set", "fixtures/hyperplane.json", "--samples", "8",
                        "--cap", "3", "--format", "csv"],
    "readme-a1": ["a1", "--set", "fixtures/hyperplane.json", "--beta", "0.1666667",
                  "--theta", "2", "--samples", "1"],
    "readme-chain": ["chain", "--psi", "2", "--c0", "1/2", "--theta1", "2", "--theta2", "2"],
    "readme-stopping": ["stopping", "--set", "fixtures/layered.json", "--delta", "1/64",
                        "--cap", "3"],
    "readme-tower": ["tower", "--set", "fixtures/hyperplane.json", "--deltas",
                     "1/2,1/128,1/8192", "--cap", "3"],
    "readme-characterize": ["characterize", "--set", "fixtures/point.json", "--samples", "6",
                            "--cap", "3"],
    "readme-lattice": ["lattice", "--depth", "2"],
}

# reference budget: 10x the workload's cell budget and a 10x tighter tolerance
REFERENCE_TOL = 1e-3
REFERENCE_CELLS = 200_000


def golden_runs() -> dict[str, list[str]]:
    runs = dict(README_EXAMPLES)
    for workload in WORKLOADS.values():
        seeds = workload.pool or (None,)
        for seed in seeds:
            runs[golden_name(workload, seed)] = argv(workload, seed)
    return runs


def run_cli(args: list[str]) -> dict:
    result = _spawn({"argv": args, "set": "fixtures/hyperplane.json", "n": 1, "p": 2.0}, 600)
    if "error" in result:
        raise RuntimeError(f"{args}: {result['error']}")
    return result


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, args in golden_runs().items():
        result = run_cli(args)
        record = golden_record(args, result["exit_code"], result["stdout"])
        golden_path(name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: exit {result['exit_code']}, {len(result['stdout'])} bytes", flush=True)


def _root(geom, desc: dict):
    from parporo.geometry import Root
    return Root(geom, [Fraction(c) for c in desc["center"]], Fraction(desc["top_time"]),
                Fraction(desc["side"]), Fraction(desc["gamma0"]))


def write_reference() -> None:
    from parporo.geometry import new_geometry
    from parporo.sets import set_from_json
    from parporo.weights import WeightSpec, a1_ratio

    model, _ = set_from_json(json.loads((BENCH.parent / "fixtures/point.json").read_text()))
    geom = new_geometry(1, 2.0)
    spec = WeightSpec(beta=0.1, n=1, p=2.0)
    out = {"tol": REFERENCE_TOL, "max_cells": REFERENCE_CELLS}
    for seed in WORKLOADS["a1-point"].pool:
        golden = json.loads(golden_path(golden_name(WORKLOADS["a1-point"], seed))
                            .read_text())
        result = json.loads(golden["stdout"])["result"]
        samples = []
        for i, sample in enumerate(result["samples"]):
            ref = a1_ratio(model, _root(geom, sample["root"]), 2.0, spec,
                           tol=REFERENCE_TOL, max_cells=REFERENCE_CELLS)
            lo, hi = map(float, sample["ratio"])
            if not (lo <= ref.ratio.hi and ref.ratio.lo <= hi):
                raise RuntimeError(f"seed {seed} sample {i}: golden {sample['ratio']} "
                                   f"misses reference {ref.ratio}")
            samples.append({"root": sample["root"],
                            "ratio": [repr(ref.ratio.lo), repr(ref.ratio.hi)],
                            "converged": ref.converged})
        out[str(seed)] = {"exit_code": golden["exit_code"],
                          "all_converged": result["all_converged"],
                          "sup_rel_width": rel_width(result["sup_ratio"]),
                          "samples": samples}
        print(f"a1 reference seed {seed}: {sum(s['converged'] for s in samples)}"
              f"/{len(samples)} converged", flush=True)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reference", action="store_true",
                        help="also recompute the a1 soundness reference")
    args = parser.parse_args()
    write_golden()
    if args.reference:
        write_reference()
    return 0


if __name__ == "__main__":
    sys.exit(main())
