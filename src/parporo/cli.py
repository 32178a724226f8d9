"""Command-line front end: one subcommand per major operation.

Every run resolves its configuration (defaults < config file < flags),
embeds it in the report, and emits JSON (or CSV for curve outputs) with
all numbers as decimal or exact-fraction strings.  Exit codes: 0 success,
1 input error, 2 inconclusive (a depth cap starved the computation).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from .geometry import Geometry, Root, default_parameters, lattice_dump, new_geometry
from .improvement import HarnessConfig, characterization_harness, tower_partition
from .porosity import (admissible_collection, complementary_collection, maximal_hole,
                       porosity_curve)
from .sampling import SamplerConfig, scan_roots
from .serialize import fraction_str, interval_json, number_str, parse_number
from .sets import check_dimension, set_from_json
from .weights import WeightSpec, a1_scan


def _scan_roots(geom: Geometry, cfg: dict) -> list[Root]:
    """Configured root first, then seeded random roots up to ``samples``."""
    return scan_roots(_root(geom, cfg), SamplerConfig(seed=int(cfg["seed"]),
                                                      samples=int(cfg["samples"])))


class CliError(Exception):
    """Bad arguments or input: the command exits 1 with the message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for cap-starved only
        raise CliError(message)


def _load_set(raw: str):
    path = Path(raw)
    try:
        is_file = path.is_file()
    except (OSError, ValueError):  # inline JSON longer than a file name may be
        is_file = False
    try:
        text = path.read_text(encoding="utf-8") if is_file else raw
        return set_from_json(json.loads(text))[0]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid set definition: {exc}") from exc


def _fraction(value: str) -> Fraction:
    v = parse_number(value)
    return v if isinstance(v, Fraction) else Fraction(str(value))


def _build_parser() -> _Parser:
    parser = _Parser(prog="parporo", description=__doc__)
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--set", dest="set_def",
                        help="set definition: JSON file path or inline JSON")
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--p", default=None)
        sp.add_argument("--d", type=int, default=None)
        sp.add_argument("--center", default=None, help="comma-separated rationals")
        sp.add_argument("--top", default=None, help="top time of the root")
        sp.add_argument("--side", default=None)
        sp.add_argument("--gamma0", default=None)
        sp.add_argument("--cap", type=int, default=None, help="depth cap")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--tol", default=None)
        sp.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: every scan runs in one thread")
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default=None)

    for name, helptext in (
        ("lattice", "dump the dyadic lattice of a root rectangle"),
        ("maxhole", "largest free dyadic subrectangle of the root"),
        ("porosity", "covered-fraction curve over a delta grid"),
        ("a1", "ratio scan of a distance weight"),
        ("chain", "doubling-chain construction"),
        ("stopping", "stopping-time partition and decay check"),
        ("tower", "layered admissible collections along a delta sequence"),
        ("characterize", "end-to-end consistency harness"),
    ):
        sp = sub.add_parser(name, help=helptext)
        common(sp)
        if name == "lattice":
            sp.add_argument("--depth", type=int, default=None)
        if name in ("maxhole", "porosity", "stopping", "tower"):
            sp.add_argument("--delta", default=None)
        if name in ("porosity", "tower"):
            sp.add_argument("--deltas", default=None,
                            help="comma-separated decreasing deltas")
        if name in ("porosity", "a1", "tower"):
            sp.add_argument("--theta", default=None)
        if name == "a1":
            sp.add_argument("--beta", default=None)
        if name == "chain":
            sp.add_argument("--psi", default=None)
            sp.add_argument("--c0", default=None)
            sp.add_argument("--theta1", default=None)
            sp.add_argument("--theta2", default=None)
            sp.add_argument("--theta", default=None)
            sp.add_argument("--child-spatial", dest="child_spatial", default=None)
            sp.add_argument("--child-temporal", dest="child_temporal", type=int,
                            default=None)
    return parser


_DEFAULTS = {
    "n": 1, "p": "2", "d": None, "center": None, "top": "0", "side": "1",
    "gamma0": "0", "cap": 3, "seed": 0, "tol": "1e-6",
    "samples": 12, "format": "json", "depth": 2, "delta": "1/2",
    "deltas": None, "theta": None, "beta": "0.1", "psi": "2", "c0": "1/2",
    "theta1": "2", "theta2": "2", "child_spatial": "0", "child_temporal": 0,
}


def _resolve(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            cfg.update(json.loads(Path(args.config).read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"invalid config file: {exc}") from exc
    for key, value in vars(args).items():
        if key in ("config", "command", "set_def", "out"):
            continue
        if value is not None:
            cfg[key] = value
    cfg.pop("threads", None)  # the ignored flag, or a config file's key
    return cfg


def _geometry(cfg: dict) -> Geometry:
    try:
        return new_geometry(int(cfg["n"]), float(parse_number(cfg["p"])),
                            cfg["d"] if cfg["d"] is None else int(cfg["d"]))
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid geometry: {exc}") from exc


def _root(geom: Geometry, cfg: dict) -> Root:
    center = cfg["center"]
    if center is None:
        coords = (Fraction(0),) * geom.n
    else:
        coords = tuple(_fraction(c) for c in str(center).split(","))
    try:
        return Root(geom, coords, _fraction(cfg["top"]), _fraction(cfg["side"]),
                    _fraction(cfg["gamma0"]))
    except ValueError as exc:
        raise CliError(f"invalid root rectangle: {exc}") from exc


def _delta_list(cfg: dict, geom: Geometry) -> list[Fraction]:
    if cfg.get("deltas"):
        return [_fraction(v) for v in str(cfg["deltas"]).split(",")]
    from .improvement import default_delta_grid
    return list(default_delta_grid(geom, int(cfg["cap"])))


def _finite(cfg: dict, key: str):
    """The number option ``key``, refused unless finite."""
    value = parse_number(cfg[key])
    if not math.isfinite(value):
        raise CliError(f"--{key} must be a finite number, got {cfg[key]}")
    return value


def _theta_default(cfg: dict, geom: Geometry):
    if cfg.get("theta") is not None:
        return _finite(cfg, "theta")
    return default_parameters(geom).Phi


def _emit(report: dict, out, fmt: str, csv_rows=None) -> None:
    if fmt == "csv" and csv_rows is not None:
        text = "\n".join(",".join(str(v) for v in row) for row in csv_rows) + "\n"
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _envelope(command: str, cfg: dict, result: dict) -> dict:
    shown = {k: (v if isinstance(v, (int, bool, type(None))) else str(v))
             for k, v in sorted(cfg.items())}
    return {
        "command": command,
        "config": shown,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "result": result,
    }


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        geom = _geometry(cfg)
        exit_code = 0
        csv_rows = None

        if args.command == "lattice":
            root = _root(geom, cfg)
            rows = lattice_dump(root, int(cfg["depth"]))
            result = {"cells": rows, "count": len(rows)}

        elif args.command == "maxhole":
            model = _require_set(args, geom.n)
            root = _root(geom, cfg)
            hole = maximal_hole(model, root.address(), int(cfg["cap"]))
            result = {
                "found": hole.address is not None,
                "measure": fraction_str(hole.measure),
                "side": fraction_str(hole.side),
                "level": hole.address.level if hole.address else None,
                "spatial": list(hole.address.spatial) if hole.address else None,
                "temporal": hole.address.temporal if hole.address else None,
                "depth_cap_hit": hole.depth_cap_hit,
                "unknown_present": hole.unknown_present,
            }
            if hole.depth_cap_hit and hole.address is None:
                exit_code = 2

        elif args.command == "porosity":
            model = _require_set(args, geom.n)
            roots = _scan_roots(geom, cfg)
            theta = _theta_default(cfg, geom)
            reports = porosity_curve(model, roots, _delta_list(cfg, geom), theta,
                                     int(cfg["cap"]))
            result = {
                "theta": number_str(theta),
                "depth_cap": int(cfg["cap"]),
                "curve": [{
                    "delta": fraction_str(rep.delta),
                    "empirical_c": fraction_str(rep.empirical_c),
                    "witness_index": rep.witness_index,
                    "depth_cap_hit": rep.depth_cap_hit,
                    "samples": [{
                        "root": s["root"],
                        "covered": fraction_str(s["covered"]),
                        "hole": fraction_str(s["hole"]),
                    } for s in rep.samples],
                } for rep in reports],
            }
            csv_rows = [("delta", "c")] + [
                (fraction_str(rep.delta), fraction_str(rep.empirical_c))
                for rep in reports]
            if any(rep.depth_cap_hit for rep in reports):
                exit_code = 2

        elif args.command == "a1":
            model = _require_set(args, geom.n)
            theta = _finite(cfg, "theta") if cfg.get("theta") is not None else 2
            spec = WeightSpec(beta=float(_finite(cfg, "beta")), n=geom.n, p=geom.p)
            report = a1_scan(model, _scan_roots(geom, cfg), float(theta), spec,
                             tol=float(_finite(cfg, "tol")))
            result = {
                "beta": number_str(report.beta),
                "theta": number_str(report.theta),
                "sup_ratio": interval_json(report.sup_ratio),
                "witness_index": report.witness_index,
                "any_unbounded": report.any_unbounded,
                "all_converged": report.all_converged,
                "samples": list(report.samples),
            }
            csv_rows = [("beta", "theta", "sup_ratio_lo", "sup_ratio_hi"),
                        (number_str(report.beta), number_str(report.theta),
                         number_str(report.sup_ratio.lo),
                         number_str(report.sup_ratio.hi))]
            if not report.all_converged:
                exit_code = 2

        elif args.command == "chain":
            from .chains import doubling_chain
            root = _root(geom, cfg)
            spatial = tuple(int(v) for v in str(cfg["child_spatial"]).split(","))
            plan = doubling_chain(
                root, spatial, int(cfg["child_temporal"]),
                psi=_fraction(cfg["psi"]), c0=_fraction(cfg["c0"]),
                theta_window=(_fraction(cfg["theta1"]), _fraction(cfg["theta2"])),
                theta=_fraction(cfg["theta"]) if cfg.get("theta") else 4)
            checks = plan.checks()
            listed = min(plan.n1, 256)
            steps = []
            for i in range(listed):
                corner, offset = plan.step_position(i)
                steps.append({
                    "corner": [fraction_str(c) for c in corner],
                    "offset_of_root": fraction_str(offset),
                    "xi": [fraction_str(x) for x in plan.xi(i)],
                    "tau": fraction_str(plan.tau(i)),
                })
            result = {
                "eps_max": number_str(plan.eps_max),
                "m": plan.m, "N1": plan.n1, "N2": plan.n2, "N3": plan.n3,
                "L_x": fraction_str(plan.L_x),
                "L_t_of_root": fraction_str(plan.L_t),
                "y": [fraction_str(v) for v in plan.y],
                "s_of_root": fraction_str(plan.s),
                "steps": steps,
                "steps_listed": listed,
                # corrections repeat xi_head/tau_head through step N2-1 and
                # vanish afterwards; the tail is reconstructible exactly
                "xi_head": [fraction_str(x) for x in plan.xi_head],
                "tau_head": fraction_str(plan.tau_head),
                "checks": {k: bool(v) for k, v in checks.items()},
                "all_ok": plan.all_ok(),
            }

        elif args.command == "stopping":
            from .chains import (HoleCache, decay_check, stopping_partition,
                                 verify_nesting, verify_disjoint_from_admissible)
            model = _require_set(args, geom.n)
            root = _root(geom, cfg)
            params = default_parameters(geom)
            cap = int(cfg["cap"])
            delta = _fraction(cfg["delta"])
            base_addr = root.address()
            cache = HoleCache(model, cap)
            hole = cache.hole_of_translate(base_addr, params.Phi)
            adm = admissible_collection(model, base_addr, delta, params.Phi, cap,
                                        hole=hole)
            comp = complementary_collection(model, base_addr, delta, params.Phi,
                                            cap, admissible=adm)
            lam = delta * hole.measure
            if lam == 0:
                raise CliError("stopping threshold is zero: the translated root "
                               "has no certified hole at this depth cap")
            part = stopping_partition(model, base_addr, comp.rectangles, lam,
                                      params, cap, cache=cache)
            nest_ok, _ = verify_nesting(part)
            disj_ok, _ = verify_disjoint_from_admissible(part, adm)
            decay = decay_check(part, geom)
            result = {
                "Lambda": fraction_str(lam),
                "params": {"theta0": params.theta0, "phi": params.phi,
                           "Phi": params.Phi},
                "theta_grid": "integers in [phi-theta0, Phi-theta0]",
                "S": [{
                    "k": k,
                    "count": len(part.groups[k]),
                    "members": [{"level": m.level, "spatial": list(m.spatial),
                                 "temporal": m.temporal}
                                for m in part.groups[k]],
                    "union_measure": fraction_str(part.union_measures[k]),
                } for k in sorted(part.groups)],
                "lambda": fraction_str(decay.lam),
                "lambda_hat": number_str(decay.lambda_hat)
                if decay.lambda_hat is not None else None,
                "decay_ratios": {str(k): fraction_str(v)
                                 for k, v in decay.ratios.items()},
                "nesting_ok": nest_ok,
                "disjoint_from_admissible_ok": disj_ok,
                "decay_ok": decay.passed,
                "certified": part.certified,
            }
            if not part.certified:
                exit_code = 2

        elif args.command == "tower":
            model = _require_set(args, geom.n)
            root = _root(geom, cfg)
            theta = _theta_default(cfg, geom)
            deltas = _delta_list(cfg, geom)
            tower = tower_partition(model, root.address(), deltas, theta,
                                    int(cfg["cap"]))
            result = {
                "theta": number_str(theta),
                "deltas": [fraction_str(d) for d in tower.deltas],
                "layer_counts": [len(layer) for layer in tower.layers],
                "layer_measures": [fraction_str(m) for m in tower.layer_measures],
                "residual": fraction_str(tower.residual),
                "depth_cap_hit": tower.depth_cap_hit,
            }
            if tower.depth_cap_hit:
                exit_code = 2

        elif args.command == "characterize":
            model = _require_set(args, geom.n)
            hc = HarnessConfig(seed=int(cfg["seed"]), samples=int(cfg["samples"]),
                               depth_cap=int(cfg["cap"]))
            result = characterization_harness(model, geom, hc)
            if result["verdict"] == "inconclusive":
                exit_code = 2

        else:  # pragma: no cover - argparse enforces the choices
            raise CliError(f"unknown subcommand {args.command!r}")

        report = _envelope(args.command, cfg, result)
        _emit(report, args.out, str(cfg.get("format") or "json"), csv_rows)
        return exit_code

    except (CliError, ValueError, OverflowError) as exc:
        # the library's own checks of the inputs raise ValueError or OverflowError
        print(f"parporo: error: {exc}", file=sys.stderr)
        return 1


def _require_set(args, n: int):
    if not getattr(args, "set_def", None):
        raise CliError("this subcommand requires --set (file path or inline JSON)")
    model = _load_set(args.set_def)
    check_dimension(model, n)  # a ValueError, so exit 1
    return model


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
