"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default test run;
they start report processes and take a few minutes.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(BENCH)]

from make_golden import README_EXAMPLES, golden_runs  # noqa: E402
from run import Run, _spawn  # noqa: E402
from workloads import (WORKLOADS, argv, check, check_golden, golden_name,  # noqa: E402
                       load_golden)

CONFIG = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=CHECKOUT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_shape():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    names = [w["name"] for w in CONFIG["workloads"]]
    names += [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in CONFIG["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in CONFIG["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])


def test_workload_names_match():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)


def test_end_to_end_names_printed():
    result = _bench("--workload", "porosity-p1.5", "--seed", "0", "--seconds", "0",
                    "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in CONFIG["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_names_printed():
    result = _bench("--workload", "a1-point", "--seed", "0", "--seconds", "0",
                    "--trace", "1")
    assert result["correct"] and result["attempted"] == 3
    assert list(result["metrics"]) == [m["name"] for m in CONFIG["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["weights.integrate.leaves"] > 0
    assert metrics["weights.a1_rel_width"] > 0
    assert metrics["geometry.children.calls"] == 0  # a1 does no lattice work


@pytest.mark.parametrize("name", sorted(golden_runs()))
def test_golden_reports(name):
    """Every golden report is reproduced: byte for byte, or for a1-point
    against its soundness reference."""
    golden = load_golden(name)
    assert golden is not None, f"missing golden report {name}"
    result = _spawn({"argv": golden["argv"], "set": "fixtures/hyperplane.json",
                     "n": 1, "p": 2.0}, 300)
    assert "error" not in result, result["error"]
    if name in README_EXAMPLES:
        reason = check_golden(golden, result["exit_code"], result["stdout"])
    else:
        workload = next(w for w in WORKLOADS.values()
                        if name.startswith(w.name) and golden_name(w, _seed(name)) == name)
        reason = check(workload, _seed(name), result["exit_code"], result["stdout"])
    assert reason is None, reason


def _seed(name: str):
    match = re.search(r"-seed(\d+)$", name)
    return int(match.group(1)) if match else None


def test_speed_probe_samples_and_restores_the_signal():
    from worker import SpeedProbe
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 5 and all(t > 0 for t in speed.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pool_mean_weighs_every_cli_seed_alike():
    run = Run(WORKLOADS["a1-point"], 0)
    run.reports = [{"cli_seed": 0, "x": 1.0}, {"cli_seed": 0, "x": 3.0},
                   {"cli_seed": 1, "x": 4.0}, {"cli_seed": 2, "error": "failed"}]
    assert run.pool_mean("x") == 3.0


def test_checks_reject_wrong_reports():
    stopping = WORKLOADS["stopping-layered"]
    golden = load_golden(golden_name(stopping, None))
    assert check(stopping, None, golden["exit_code"], golden["stdout"]) is None
    assert check(stopping, None, 2, golden["stdout"]) is not None
    altered = golden["stdout"].replace('"certified": true', '"certified": false')
    assert altered != golden["stdout"]
    assert check(stopping, None, golden["exit_code"], altered) is not None

    a1 = WORKLOADS["a1-point"]
    golden = load_golden(golden_name(a1, 0))
    report = json.loads(golden["stdout"])
    assert check(a1, 0, golden["exit_code"], golden["stdout"]) is None
    lo, hi = map(float, report["result"]["samples"][3]["ratio"])
    report["result"]["samples"][3]["ratio"] = [repr(hi * 1.5), repr(hi * 1.6)]
    assert "misses reference" in check(a1, 0, golden["exit_code"], json.dumps(report))


def test_uninstalled_span_leaves_its_metrics_out():
    """Every per-layer metric the tracer computes is present, and one whose
    span was not installed is missing rather than 0."""
    from tracer import Tracer, layer_metrics
    tracer = Tracer().install()
    tracer.uninstall()
    full = layer_metrics(tracer)
    from_run = {"sampling.speedup_2w", "trace.report_s", "trace.untraced_report_s",
                "trace.overhead_s", "weights.a1_rel_width"}
    assert set(full) == {m["name"] for m in CONFIG["per_layer"]} - from_run
    tracer.installed.discard("chains.HoleCache.hole")
    assert set(full) - set(layer_metrics(tracer)) == {"chains.hole_queries",
                                                      "chains.hole_cache_hit_ratio"}


def _traced_counts(threads: int) -> dict:
    workload = WORKLOADS["porosity-p1.5"]
    args = argv(workload, 0, threads)
    args[args.index("--cap") + 1] = "2"      # the same search, one level shallower
    result = _spawn({"argv": args, "set": workload.set_file, "n": 1, "p": workload.p,
                     "trace": True}, 300)
    assert "error" not in result, result["error"]
    units = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    return {k: v for k, v in result["layers"].items()
            if units.get(k) in ("count", "ratio")}


def test_traced_counts_repeat_across_runs_and_workers():
    first = _traced_counts(1)
    assert first["porosity.freeness_tests"] > 0
    assert _traced_counts(1) == first
    assert _traced_counts(2) == first
