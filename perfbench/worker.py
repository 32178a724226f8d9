"""One report in a fresh process: set up, call ``parporo.cli.run`` once, and
print one JSON line with the timings, the report and (when traced) the
per-layer metrics.

Usage: ``python3 perfbench/worker.py '<spec json>'`` where the spec holds
``argv`` (the CLI arguments), ``set``, ``n`` and ``p`` (the fixture and the
geometry that set-up builds), ``spawn`` (the parent's ``time.monotonic()``
just before it started this process), ``trace`` and ``setup_only``.
The parent is ``perfbench/run.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
PROBE_INTERVAL_S = 0.02  # one probe per this much wall time during a report
SETUP_PROBES = 31        # probes right after set-up, for the speed set-up ran at
PROBE_REF_S = 0.0003     # the probe's seconds at the reference host speed


def _cpu_seconds() -> float:
    """CPU time of this process and of any children it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def probe() -> float:
    """CPU seconds of a fixed micro-kernel of interpreter work (some 0.3 ms).
    It imports nothing from the program, so its time moves only with the
    speed the host gives this thread while it runs."""
    start = time.thread_time()
    x = 0
    for i in range(3000):
        x += i * i % 7
    return time.thread_time() - start


class SpeedProbe:
    """Runs ``probe`` every ``PROBE_INTERVAL_S`` of wall time from a SIGALRM
    handler, so host speed is sampled in this process, on its core, at the
    moments the report runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(CHECKOUT / "src"))
    import parporo.cli as cli
    from parporo.geometry import new_geometry
    from parporo.sets import set_from_json

    # ready to call: imports done, fixture parsed, geometry built
    set_from_json(json.loads((CHECKOUT / spec["set"]).read_text(encoding="utf-8")))
    new_geometry(spec["n"], spec["p"])
    out = {"setup_s": time.monotonic() - spec["spawn"]}
    # the same at the reference host speed
    out["setup_ref_s"] = out["setup_s"] * PROBE_REF_S / statistics.median(
        probe() for _ in range(SETUP_PROBES))
    if spec.get("setup_only"):
        print(json.dumps(out))
        return 0

    tracer = None
    if spec.get("trace"):
        import tracer as tracing
        tracer = tracing.install()

    stdout, stderr = io.StringIO(), io.StringIO()
    speed = SpeedProbe()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        with speed, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            exit_code = cli.run(spec["argv"])
    except Exception:  # a report that raises is a failed report, not a crash
        exit_code = None
        stderr.write(traceback.format_exc())
    # the probes' own time is taken out of the report's
    probed = sum(speed.samples)
    out["report_s"] = time.perf_counter() - start - probed
    out["report_cpu_s"] = _cpu_seconds() - cpu0 - probed
    out["probes"] = len(speed.samples)
    if speed.samples:
        # ticks are evenly spaced in wall time, so the harmonic mean weighs
        # each stretch of the report by the work the host let it do
        out["probe_s"] = statistics.harmonic_mean(speed.samples)
        scale = PROBE_REF_S / out["probe_s"]
        out["report_ref_s"] = out["report_s"] * scale
        out["report_cpu_ref_s"] = out["report_cpu_s"] * scale
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["exit_code"] = exit_code
    out["stdout"] = stdout.getvalue()
    out["stderr"] = stderr.getvalue()
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer)
        out["spans"] = tracing.span_table(tracer)
        out["stored_spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
