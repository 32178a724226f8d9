"""In-memory span tracer that wraps parporo's functions from the outside.

Nothing under ``src/`` is edited: ``install`` replaces each traced function
in every parporo module namespace that refers to it (so
``chains.maximal_hole`` and ``cli.maximal_hole`` are both patched), and each
traced method on its class.  Every call becomes a span with a parent link;
a span's self time is its duration minus the time its child spans cover.

Hot leaf calls (lattice navigation, set oracles, freeness tests, integrator
cell bounds) are aggregated per (name, parent name) instead of being stored
one span per call.  Names that no longer exist in the program are not
wrapped, and ``layer_metrics`` leaves out every metric drawn from a span
that was not installed, so the run reports it missing instead of 0.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

# modules whose functions are layers, in the order they are reported
LAYERS = ("geometry", "sets", "porosity", "weights", "chains", "improvement",
          "sampling", "cli")

# private functions that callers reach through a module namespace
PRIVATE = {
    "porosity": ("_maximal_free", "_freeness"),
    "weights": ("_bound_cell",),
    "improvement": ("_cross_theta_check",),
    "cli": ("_emit",),
}

# op-style module functions that only delegate to a traced method
SKIP = {"geometry": ("children", "parent", "forward_parent", "realize")}

# span names aggregated per parent instead of stored per call
HOT_FUNCTIONS = {"porosity._freeness", "sets.rectangle_free", "weights._bound_cell"}

# span names that do not follow the "<module>.<function>" pattern
RENAME = {
    "geometry.iter_children": "geometry.children",
    "porosity._maximal_free": "porosity.maximal_free",
    "sets.dist_box_gap_span": "sets.dist_box",
    "sets.dist_box_range": "sets.dist_box",
    "sets.sup_distance_bracket": "sets.sup_bracket",
    "weights.integrate_weight": "weights.integrate",
    "weights.essinf_weight": "weights.essinf",
}

MODEL_METHODS = ("meets_box", "dist_box_gap_span", "dist_box_range", "distance")
SEARCHES = ("porosity.maximal_free", "porosity.maximal_hole")


class Tracer:
    """Span store plus counters; safe to use from several worker threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.by_parent_calls: Counter = Counter()           # (name, parent name)
        self.by_parent_total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.installed: set[str] = set()    # span names actually wrapped

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hot: bool = False, enter=None, leave=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``enter(args, kwargs)`` returns data kept on the span's frame;
        ``leave(tracer, frame, parent, args, kwargs, result)`` records counts.
        A frame is ``[name, child seconds, data, span id]``.
        """
        tracer = self
        self.installed.add(name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [name, 0.0, enter(args, kwargs) if enter else None,
                     0 if hot else next(tracer._ids)]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                parent_name = parent[0] if parent is not None else ""
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += duration - frame[1]
                    tracer.total_s[name] += duration
                    tracer.by_parent_calls[name, parent_name] += 1
                    tracer.by_parent_total_s[name, parent_name] += duration
                    if not hot:
                        tracer.spans.append((frame[3], parent[3] if parent else 0,
                                             name, start, end))
            if leave is not None:
                with tracer._lock:
                    leave(tracer, frame, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        modules = {}
        for name in LAYERS:
            try:
                modules[name] = importlib.import_module(f"parporo.{name}")
            except ModuleNotFoundError:
                continue
        geometry, sets = modules.get("geometry"), modules.get("sets")
        for cls_name in ("Root", "DyadicAddress"):
            cls = getattr(geometry, cls_name, None)
            if cls is None:
                continue
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                name = RENAME.get(f"geometry.{attr}", f"geometry.{attr}")
                hooks = _METHOD_HOOKS.get(name, {})
                if attr == "iter_children":
                    value = _eager(value)
                self._patch(cls, attr, self.wrap(name, value, hot=True, **hooks))
        for cls in vars(sets).values() if sets else ():
            if not isinstance(cls, type) or cls.__module__ != sets.__name__:
                continue
            for attr in MODEL_METHODS:
                method = vars(cls).get(attr)
                if method is None:
                    continue
                name = RENAME.get(f"sets.{attr}", f"sets.{attr}")
                hooks = _METHOD_HOOKS.get(name, {})
                self._patch(cls, attr, self.wrap(name, method, hot=True, **hooks))
        cache = getattr(modules.get("chains"), "HoleCache", None)
        if cache is not None and "hole" in vars(cache):
            self._patch(cache, "hole", self.wrap("chains.HoleCache.hole", cache.hole,
                                                 hot=True))

        targets = []
        for mod_name, module in modules.items():
            for attr, value in vars(module).items():
                public = not attr.startswith("_")
                if not (public or attr in PRIVATE.get(mod_name, ())):
                    continue
                if attr in SKIP.get(mod_name, ()):
                    continue
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                targets.append((f"{mod_name}.{attr}", value))
        for raw_name, fn in targets:
            name = RENAME.get(raw_name, raw_name)
            wrapped = self.wrap(name, fn, hot=name in HOT_FUNCTIONS,
                                **_FUNCTION_HOOKS.get(name, {}))
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapped)
        return self


def _eager(gen_fn):
    """Run a child generator to completion inside the span, so the span
    covers the work instead of the generator's creation."""
    def eager(*args, **kwargs):
        return iter(list(gen_fn(*args, **kwargs)))
    return eager


# -- counters recorded at span exit -------------------------------------------


def _depth_enter(args, kwargs):
    return len(args[0]._ks)


def _depth_leave(tracer, frame, parent, args, kwargs, result):
    if len(args[0]._ks) > frame[2]:
        tracer.counts["geometry.ensure_depth.extended"] += 1


def _verdict_leave(tracer, frame, parent, args, kwargs, result):
    verdict = result.name.lower()
    tracer.counts[f"sets.meets_box.{verdict}"] += 1


def _search_enter(args, kwargs):
    root_addr = args[1] if len(args) > 1 else kwargs.get("root_addr")
    return root_addr.level


def _maximal_free_leave(tracer, frame, parent, args, kwargs, result):
    root_addr = args[1] if len(args) > 1 else kwargs.get("root_addr")
    cap = args[2] if len(args) > 2 else kwargs.get("depth_cap")
    root = root_addr.root
    # attributes only: hooks must not call traced methods
    key = (root.center, root.top_time, root.side, root.gamma0, root_addr.level,
           root_addr.spatial, root_addr.temporal, cap)
    tracer.distinct["porosity.maximal_free"].add(key)
    tracer.counts["porosity.maximal_free.members"] += len(result.rectangles)


def _freeness_leave(tracer, frame, parent, args, kwargs, result):
    addr = args[1] if len(args) > 1 else kwargs.get("addr")
    if parent is not None and parent[0] in SEARCHES and parent[2] is not None:
        tracer.counts[f"porosity.cells.L{addr.level - parent[2]}"] += 1
        tracer.counts[f"{parent[0]}.cells"] += 1
    else:
        tracer.counts["porosity.cells.outside_search"] += 1


def _integrate_leave(tracer, frame, parent, args, kwargs, result):
    tracer.counts["weights.integrate.leaves"] += int(result.cells)
    tracer.counts["weights.integrate.converged"] += bool(result.converged)


_METHOD_HOOKS = {
    "geometry.ensure_depth": {"enter": _depth_enter, "leave": _depth_leave},
    "sets.meets_box": {"leave": _verdict_leave},
}
_FUNCTION_HOOKS = {
    "porosity.maximal_free": {"enter": _search_enter, "leave": _maximal_free_leave},
    "porosity.maximal_hole": {"enter": _search_enter},
    "porosity._freeness": {"leave": _freeness_leave},
    "weights.integrate": {"leave": _integrate_leave},
}

def install() -> Tracer:
    """Create a tracer and wrap every traced function of parporo."""
    return Tracer().install()


# -- per-layer metrics ----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced report.

    A metric is left out when a span it is drawn from was not installed
    (the hooks read attributes directly, so a renamed attribute fails the
    report instead).
    """
    c, s, t, k = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    under = tracer.by_parent_total_s
    out: dict[str, float] = {}

    def put(metric: str, value: float, *sources: str) -> None:
        if all(source in tracer.installed for source in sources):
            out[metric] = value

    for name in ("geometry.realize", "geometry.ensure_depth", "geometry.children",
                 "sets.meets_box", "sets.dist_box", "sets.sup_bracket",
                 "porosity.maximal_free", "porosity.maximal_hole",
                 "weights.integrate", "weights.essinf", "chains.stopping_time"):
        put(f"{name}.calls", c[name], name)
        put(f"{name}.self_s", s[name], name)
    put("geometry.ensure_depth.extend_ratio",
        _ratio(k["geometry.ensure_depth.extended"], c["geometry.ensure_depth"]),
        "geometry.ensure_depth")
    for verdict in ("empty", "nonempty", "unknown"):
        put(f"sets.meets_box.{verdict}", k[f"sets.meets_box.{verdict}"], "sets.meets_box")
    put("porosity.maximal_free.distinct_ratio",
        _ratio(len(tracer.distinct["porosity.maximal_free"]), c["porosity.maximal_free"]),
        "porosity.maximal_free")
    search = ("porosity._freeness", "porosity.maximal_free")
    for level in range(4):
        put(f"porosity.cells.L{level}", k[f"porosity.cells.L{level}"], *search)
    put("porosity.member_yield", _ratio(k["porosity.maximal_free.members"],
                                        k["porosity.maximal_free.cells"]), *search)
    put("porosity.freeness_tests", c["porosity._freeness"], "porosity._freeness")
    put("weights.integrate.leaves", k["weights.integrate.leaves"], "weights.integrate")
    put("weights.integrate.leaves_per_s",
        _ratio(k["weights.integrate.leaves"], t["weights.integrate"]), "weights.integrate")
    put("weights.integrate.converged_ratio",
        _ratio(k["weights.integrate.converged"], c["weights.integrate"]), "weights.integrate")
    queries = c["chains.HoleCache.hole"]
    misses = tracer.by_parent_calls["porosity.maximal_hole", "chains.HoleCache.hole"]
    put("chains.hole_queries", queries, "chains.HoleCache.hole")
    put("chains.hole_cache_hit_ratio", _ratio(queries - misses, queries),
        "chains.HoleCache.hole", "porosity.maximal_hole")
    harness = "improvement.characterization_harness"
    for stage, name in (("porosity_s", "porosity.porosity_curve"),
                        ("fit_s", "improvement.alpha_fit"),
                        ("a1_s", "weights.a1_scan"),
                        ("cross_theta_s", "improvement._cross_theta_check")):
        put(f"improvement.stage.{stage}", under[name, harness], harness, name)
    put("cli.emit_s", t["cli._emit"], "cli._emit")
    return out


def span_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, self and total seconds of every span name that was entered."""
    return {name: {"calls": tracer.calls[name], "self_s": tracer.self_s[name],
                   "total_s": tracer.total_s[name]}
            for name in sorted(tracer.calls)}
