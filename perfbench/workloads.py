"""The four benchmark workloads: their CLI commands, the inputs each seed
selects, and the checks that decide whether a report is correct.

A workload's seed never reaches the program directly.  A seeded workload
holds a fixed pool of CLI ``--seed`` values, each with a golden report, and
a run reports every seed of the pool once, starting at ``S mod len(pool)``,
then goes on through the pool in turn, and its times are averaged per seed
first (``run.Run.pool_mean``).  So every report of every run is checked
against a stored report, and the work of a run does not depend on which
inputs the code under test would draw.

* ``characterize-hyperplane`` and ``porosity-p1.5``: four CLI seeds of equal
  work.  Their drawn roots hold the same number of roots that meet the plane
  (3 of 11; 0 of 5), and that number sets the work of a report: a meeting
  root is searched to the depth cap, a missing one is free at level 0.
* ``a1-point``: CLI seeds 0 to 3.  Its cost per root is heavy-tailed (one root
  near the point can take a quarter of a report), so only averages over
  a fixed pool measure the same work in every run.
* ``stopping-layered`` takes no seed: its fixture is built around the unit
  root.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
GOLDEN = BENCH / "golden"
REFERENCE = BENCH / "reference" / "a1-point.json"

GOLDEN_MAX_BYTES = 64 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]     # CLI arguments without --seed and --threads
    set_file: str             # fixture, relative to the checkout
    p: float                  # geometry that set-up builds (n is 1 throughout)
    pool: tuple[int, ...] = ()  # fixed CLI seeds, each reported in every run; () is unseeded


WORKLOADS = {w.name: w for w in (
    Workload(
        "characterize-hyperplane",
        ("characterize", "--set", "fixtures/hyperplane.json", "--samples", "12",
         "--cap", "3"),
        "fixtures/hyperplane.json", 2.0, pool=(0, 2, 3, 7)),
    Workload(
        "stopping-layered",
        ("stopping", "--set", "fixtures/layered.json", "--delta", "1/64", "--cap", "3"),
        "fixtures/layered.json", 2.0),
    Workload(
        "a1-point",
        ("a1", "--set", "fixtures/point.json", "--beta", "0.1", "--theta", "2",
         "--samples", "32", "--tol", "1e-2"),
        "fixtures/point.json", 2.0, pool=(0, 1, 2, 3)),
    Workload(
        "porosity-p1.5",
        ("porosity", "--set", "fixtures/hyperplane.json", "--p", "1.5", "--samples", "6",
         "--cap", "3"),
        "fixtures/hyperplane.json", 1.5, pool=(0, 1, 6, 22)),
)}


def argv(workload: Workload, cli_seed: Optional[int], threads: int = 1) -> list[str]:
    seed = [] if cli_seed is None else ["--seed", str(cli_seed)]
    return [*workload.args, *seed, "--threads", str(threads)]


# -- inputs ---------------------------------------------------------------------


def cli_seeds(workload: Workload, seed: int) -> Iterator[Optional[int]]:
    """CLI seeds of the reports of one run, in order (endless)."""
    pool = workload.pool
    if not pool:
        return itertools.repeat(None)
    return (pool[(seed + k) % len(pool)] for k in itertools.count())


# -- correctness ----------------------------------------------------------------

# the envelope's keys are sorted, so the timestamp is its last key
_TIMESTAMP = re.compile(r',\n  "timestamp": "[^"]*"\n')


def strip_timestamp(text: str) -> str:
    """The report with its timestamp removed; still valid JSON."""
    return _TIMESTAMP.sub("\n", text, count=1)


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


def golden_name(workload: Workload, cli_seed: Optional[int]) -> str:
    return workload.name if cli_seed is None else f"{workload.name}-seed{cli_seed}"


def load_golden(name: str) -> Optional[dict]:
    path = golden_path(name)
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def golden_record(args: list[str], exit_code: int, stdout: str) -> dict:
    """What a golden file stores; reports too large to keep are kept as a hash."""
    text = strip_timestamp(stdout)
    record = {"argv": args, "exit_code": exit_code}
    if len(text) > GOLDEN_MAX_BYTES:
        record["stdout_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    else:
        record["stdout"] = text
    return record


def check_golden(golden: dict, exit_code, stdout: str) -> Optional[str]:
    """Byte-for-byte comparison of a report (timestamp removed) and its exit code."""
    if exit_code != golden["exit_code"]:
        return f"exit code {exit_code}, golden {golden['exit_code']}"
    if golden_record(golden["argv"], exit_code, stdout) != golden:
        return "report differs from the golden report"
    return None


def check(workload: Workload, cli_seed: Optional[int], exit_code,
          stdout: str) -> Optional[str]:
    """None when the report is correct, else the reason it is not."""
    if workload.name == "a1-point":
        return _check_a1(cli_seed, exit_code, stdout)
    golden = load_golden(golden_name(workload, cli_seed))
    if golden is None:
        return f"no golden report for CLI seed {cli_seed}"
    return check_golden(golden, exit_code, stdout)


def rel_width(bracket) -> float:
    lo, hi = float(bracket[0]), float(bracket[1])
    mid = 0.5 * (lo + hi)
    return (hi - lo) / mid if mid > 0 and math.isfinite(hi) else math.inf


def _check_a1(cli_seed: int, exit_code, stdout: str) -> Optional[str]:
    """Soundness against high-budget reference brackets.

    Two certified brackets of one number overlap, so every reported sample
    bracket must meet its reference.  Brackets may tighten, but the sup
    bracket may not widen past the golden report's, and a seed whose golden
    report converged must still converge.
    """
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[str(cli_seed)]
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError):
        return f"report is not a JSON report (exit code {exit_code})"
    expected_exit = 0 if result["all_converged"] else 2
    if exit_code != expected_exit:
        return f"exit code {exit_code} but all_converged is {result['all_converged']}"
    if reference["all_converged"] and not result["all_converged"]:
        return "a sample no longer converges"
    if result["any_unbounded"]:
        return "a ratio is unbounded"
    if len(result["samples"]) != len(reference["samples"]):
        return "sample count differs from the reference"
    for i, (sample, ref) in enumerate(zip(result["samples"], reference["samples"])):
        if sample["root"] != ref["root"]:
            return f"sample {i} root differs from the reference"
        lo, hi = map(float, sample["ratio"])
        ref_lo, ref_hi = map(float, ref["ratio"])
        if not (lo <= hi and lo <= ref_hi and ref_lo <= hi):
            return f"sample {i} bracket {sample['ratio']} misses reference {ref['ratio']}"
    if rel_width(result["sup_ratio"]) > reference["sup_rel_width"] * (1 + 1e-9):
        return "sup_ratio bracket is wider than the golden report's"
    return None
