"""Benchmark entry point: time parporo CLI reports and check them.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, by name

Each report runs in a fresh process (``worker.py``) that sets up, calls
``parporo.cli.run`` once with one worker, and reports its timings.  The loop
is closed: the next report starts when the previous one has ended, as long
as it is expected to end within ``--seconds``.  A speed probe inside each
report process (``worker.SpeedProbe``) times the host's speed while the
report runs: ``report_cpu_ref_s`` is the report's CPU seconds scaled to the
speed at which the probe takes ``worker.PROBE_REF_S``, averaged over the
pool's CLI seeds, and ``setup_s`` is the median set-up scaled the same way.
With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of one traced report, next
to an untraced one for the tracing overhead and one at two workers for
``sampling.speedup_2w``.  Every report is checked (``workloads.check``);
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, argv as cli_argv, check, cli_seeds, rel_width

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
CONFIG = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]}

# numpy must add no threads of its own on a small machine
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SETUPS = 7          # set-up is timed at least this often per run
MIN_REPORTS = 2         # so one slow report is not the whole run
REPORT_TIMEOUT_S = 150  # every report of a run must end this many seconds after its start


def _environment() -> dict:
    import mpmath
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": len(os.sched_getaffinity(0)),
            "workers": 1, **PINNED}


def _spawn(spec: dict, timeout: float) -> dict:
    """Run one worker process and return its result (``error`` on failure)."""
    env = {k: v for k, v in os.environ.items() if k != "PARPORO_THREADS"}
    env.update(PINNED)
    spec = {**spec, "spawn": time.monotonic()}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                              capture_output=True, text=True, env=env, cwd=CHECKOUT,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"report exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


class Run:
    """The reports of one run of one workload, with their checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seeds = cli_seeds(workload, seed)
        self.reports: list[dict] = []
        self.started = time.monotonic()

    def report(self, threads: int = 1, trace: bool = False, cli_seed=None) -> dict:
        if cli_seed is None:
            cli_seed = next(self.seeds)
        spec = {"argv": cli_argv(self.workload, cli_seed, threads), "set": self.workload.set_file,
                "n": 1, "p": self.workload.p, "trace": trace}
        left = REPORT_TIMEOUT_S - (time.monotonic() - self.started)
        result = _spawn(spec, left)
        if "error" not in result:
            reason = check(self.workload, cli_seed, result["exit_code"], result["stdout"])
            if reason:
                result["error"] = reason
        result.update(cli_seed=cli_seed, threads=threads, trace=trace)
        self.reports.append(result)
        status = result.get("error") or "ok"
        print(f"# report seed={cli_seed} threads={threads} trace={int(trace)} "
              f"report_s={result.get('report_s', float('nan')):.4f} "
              f"report_cpu_ref_s={result.get('report_cpu_ref_s', float('nan')):.4f} "
              f"exit={result.get('exit_code')} check={status}", flush=True)
        return result

    @property
    def failed(self) -> int:
        return sum("error" in r for r in self.reports)

    def timed(self, key: str) -> list[float]:
        return [r[key] for r in self.reports if key in r]

    def pool_mean(self, key: str) -> float:
        """Mean over the pool's CLI seeds of each seed's mean ``key``, so every
        input weighs the same however many reports of it the run made."""
        by_seed: dict = {}
        for r in self.reports:
            if key in r:
                by_seed.setdefault(r["cli_seed"], []).append(r[key])
        if not by_seed:
            return 0.0
        return statistics.fmean(statistics.fmean(v) for v in by_seed.values())


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    # every CLI seed of the pool at least once, then more reports (the pool
    # visited in turn) while one as long as the last ends within ``seconds``
    first = max(len(run.workload.pool), MIN_REPORTS)
    while True:
        began = time.monotonic()
        run.report()
        now = time.monotonic()
        if len(run.reports) >= first and (now - run.started) + (now - began) > seconds:
            break
    setups = [r for r in run.reports if "setup_s" in r]
    while len(setups) < MIN_SETUPS:
        probe = _spawn({"set": run.workload.set_file, "n": 1, "p": run.workload.p,
                        "setup_only": True}, 60)
        if "error" in probe:
            raise RuntimeError(probe["error"])
        setups.append(probe)
    metrics = {"setup_s": statistics.median(r["setup_ref_s"] for r in setups),
               "report_cpu_ref_s": run.pool_mean("report_cpu_ref_s"),
               "peak_rss_mb": run.pool_mean("peak_rss_mb")}
    extra = {"setup_raw_s": statistics.median(r["setup_s"] for r in setups),
             "report_s": run.pool_mean("report_s"),
             "report_ref_s": run.pool_mean("report_ref_s"),
             "report_cpu_s": run.pool_mean("report_cpu_s"),
             "probe_s": statistics.median(run.timed("probe_s") or [0.0]),
             "error_rate": run.failed / len(run.reports), "reports": len(run.reports),
             "setups": len(setups)}
    if run.workload.name == "a1-point":
        widths = [rel_width(json.loads(r["stdout"])["result"]["sup_ratio"])
                  for r in run.reports if "error" not in r]
        extra["a1_rel_width"] = statistics.median(widths) if widths else 0.0
    return metrics, extra


def per_layer(run: Run) -> tuple[dict, dict]:
    plain = run.report()
    cli_seed = plain["cli_seed"]
    two = run.report(threads=2, cli_seed=cli_seed)
    traced = run.report(trace=True, cli_seed=cli_seed)
    metrics = dict(traced.get("layers", {}))
    if "report_s" in plain and "report_s" in two and "report_s" in traced:
        metrics["sampling.speedup_2w"] = plain["report_s"] / two["report_s"]
        metrics["trace.report_s"] = traced["report_s"]
        metrics["trace.untraced_report_s"] = plain["report_s"]
        metrics["trace.overhead_s"] = traced["report_s"] - plain["report_s"]
    width = 0.0
    if run.workload.name == "a1-point" and "error" not in plain:
        width = rel_width(json.loads(plain["stdout"])["result"]["sup_ratio"])
    metrics["weights.a1_rel_width"] = width
    return metrics, {"spans": traced.get("spans", {}),
                     "stored_spans": traced.get("stored_spans", 0)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(WORKLOADS[name], seed)
    values, extra = per_layer(run) if trace else end_to_end(run, seconds)
    declared = [m["name"] for m in CONFIG["per_layer" if trace else "end_to_end"]]
    row = {"workload": name, "seed": seed, "trace": int(trace), "metrics": values,
           "environment": _environment(), **extra}
    counts = {k: values[k] for k in ("porosity.freeness_tests", "sets.meets_box.empty",
                                     "sets.meets_box.nonempty", "sets.meets_box.unknown",
                                     "weights.integrate.leaves", "chains.hole_queries")
              if k in values}
    if counts:
        row["counts"] = counts
    print("# row " + json.dumps(row, sort_keys=True), flush=True)
    missing = [m for m in declared if m not in values]
    if missing:
        print(f"# missing metrics: {missing}", flush=True)
    return {"correct": run.failed == 0 and not missing, "attempted": len(run.reports),
            "failed": run.failed,
            "metrics": {m: {"value": values.get(m, 0.0), "unit": UNITS[m]} for m in declared}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=CONFIG["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "parporo").is_dir():
        print(f"perfbench: no parporo sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path.insert(0, str(CHECKOUT / "src"))
    if args.workload == "all":
        return summary(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


def summary(seed: int, seconds: float) -> int:
    """Every end-to-end metric of every workload by name, with its unit, plus
    the raw report seconds, the probe's seconds, the error rate, the a1
    bracket width and the correctness verdict."""
    all_correct = True
    for name in WORKLOADS:
        run = Run(WORKLOADS[name], seed)
        metrics, extra = end_to_end(run, seconds)
        correct = run.failed == 0
        all_correct &= correct
        print(f"{name}: correct={str(correct).lower()} reports={extra['reports']}")
        for key, value in metrics.items():
            print(f"  {key:<14} {value:12.4f} {UNITS[key]}")
        for key in ("setup_raw_s", "report_s", "report_ref_s", "report_cpu_s", "probe_s"):
            print(f"  {key:<14} {extra[key]:12.4f} s")
        print(f"  {'error_rate':<14} {extra['error_rate']:12.4f} share")
        if "a1_rel_width" in extra:
            print(f"  {'a1_rel_width':<14} {extra['a1_rel_width']:12.6f} ratio")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
