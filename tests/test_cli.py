import json
import os
from pathlib import Path

import pytest

from parporo.cli import run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HYPERPLANE = str(FIXTURES / "hyperplane.json")
POINT = str(FIXTURES / "point.json")
CANTOR = json.loads((FIXTURES / "cantor.json").read_text(encoding="utf-8"))
# IFS definitions the model cannot honour: a space-time attractor, and maps
# that shift time
SPACE_TIME_IFS = json.dumps({**CANTOR, "spatial_only": False})
SHIFTED_IFS = json.dumps({**CANTOR, "maps": [{**m, "t_shift": "5"} for m in CANTOR["maps"]]})


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out: str) -> dict:
    return json.loads(out)


def strip_timestamp(out: str) -> str:
    obj = json.loads(out)
    obj.pop("timestamp", None)
    return json.dumps(obj, sort_keys=True)


def test_maxhole_example(capsys):
    code, out, _ = run_cli(capsys, "maxhole", "--set", HYPERPLANE,
                           "--n", "1", "--p", "2", "--d", "2", "--cap", "2")
    assert code == 0
    result = report_of(out)["result"]
    assert result["measure"] == "1/64"
    assert result["side"] == "1/4"
    assert result["level"] == 1


def test_a1_canonical_root(capsys):
    code, out, _ = run_cli(capsys, "a1", "--set", HYPERPLANE,
                           "--beta", "0.1666667", "--theta", "2",
                           "--samples", "1", "--tol", "1e-7")
    assert code == 0
    lo, hi = (float(v) for v in report_of(out)["result"]["sup_ratio"])
    assert lo <= 2.0 <= hi or abs(0.5 * (lo + hi) - 2.0) < 1e-4


def test_porosity_csv(capsys):
    code, out, _ = run_cli(capsys, "porosity", "--set", HYPERPLANE,
                           "--samples", "4", "--cap", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,c"
    assert len(lines) == 4  # default grid: three deltas at cap 3


def test_characterize_point_consistent(capsys):
    code, out, _ = run_cli(capsys, "characterize", "--set", POINT,
                           "--samples", "6", "--cap", "3")
    result = report_of(out)["result"]
    assert result["verdict"] == "consistent"
    assert code == 0


def test_determinism_across_threads(capsys, tmp_path):
    # --threads and a config file's threads are accepted and ignored: no
    # byte of the report changes, and its config echoes neither
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    scan = ("porosity", "--set", HYPERPLANE, "--samples", "6", "--cap", "3", "--seed", "11")
    outs = set()
    for argv in (scan, ("--config", str(cfg), *scan),
                 *((*scan, "--threads", t) for t in ("1", "4", "8"))):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "threads" not in report_of(out)["config"]
        outs.add(strip_timestamp(out))
    assert len(outs) == 1


def test_report_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "stopping", "--set", HYPERPLANE,
                         "--delta", "99/100", "--cap", "3",
                         "--out", str(out_file))
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert json.loads(json.dumps(obj)) == obj
    assert obj["result"]["nesting_ok"] is True
    assert obj["result"]["lambda"] == "63/64"


def test_chain_subcommand(capsys):
    code, out, _ = run_cli(capsys, "chain", "--psi", "2", "--c0", "1/2",
                           "--theta1", "2", "--theta2", "2",
                           "--child-spatial", "1", "--child-temporal", "3")
    assert code == 0
    result = report_of(out)["result"]
    assert result["all_ok"] is True
    assert float(result["eps_max"]) == pytest.approx(0.1339746, abs=1e-6)


def test_tower_subcommand(capsys):
    code, out, _ = run_cli(capsys, "tower", "--set", HYPERPLANE, "--cap", "3",
                           "--deltas", "1/2,1/128,1/8192")
    assert code == 0
    result = report_of(out)["result"]
    assert result["residual"] == "1/64"


def test_lattice_subcommand(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--depth", "1")
    assert code == 0
    result = report_of(out)["result"]
    assert result["count"] == 65


def test_error_invalid_set(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "maxhole", "--set", str(bad))
    assert code == 1
    assert "invalid set definition" in err


def test_error_unknown_set_type(capsys, tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"type": "wiggle"}))
    code, _, err = run_cli(capsys, "maxhole", "--set", str(bad))
    assert code == 1
    assert "invalid set definition" in err


def test_error_non_finite_point(capsys, tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"type": "points", "coords": [["0", "-1/2"], ["nan", "0"]]}))
    code, out, err = run_cli(capsys, "maxhole", "--set", str(bad))
    assert code == 1 and out == ""
    assert "invalid set definition" in err and "finite" in err


def test_long_inline_set_and_directory_set(capsys, tmp_path):
    # inline JSON longer than a file name can be is read as JSON, and a
    # directory is not a set file
    cloud = json.dumps({"type": "points",
                        "coords": [["0", "-1/2"]] + [["7", str(-k)] for k in range(40)]})
    assert len(cloud) > 255
    code, out, _ = run_cli(capsys, "maxhole", "--set", cloud, "--cap", "1")
    assert code == 0 and report_of(out)["result"]["found"] is True
    code, out, err = run_cli(capsys, "maxhole", "--set", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("parporo: error: invalid set definition")


def test_error_invalid_geometry(capsys):
    code, _, err = run_cli(capsys, "maxhole", "--set", HYPERPLANE,
                           "--p", "1.05", "--d", "2")
    assert code == 1
    assert "invalid geometry" in err


def test_error_unknown_flag(capsys):
    code, _, err = run_cli(capsys, "maxhole", "--set", HYPERPLANE,
                           "--frobnicate", "7")
    assert code == 1
    assert "error" in err


def test_error_missing_set(capsys):
    code, _, err = run_cli(capsys, "maxhole")
    assert code == 1
    assert "--set" in err


@pytest.mark.parametrize("argv", [
    ("--set", POINT, "--tol", "1/0"), ("--set", POINT, "--side", "1/0"),
    ("--set", POINT, "--center", "1/0"), ("--set", POINT, "--p", "3/0"),
    ("--set", json.dumps({"type": "points", "coords": [["3/0", "0"]]})),
])
def test_error_zero_denominator(capsys, argv):
    code, out, err = run_cli(capsys, "a1", "--samples", "1", *argv)
    assert code == 1 and out == ""
    assert err.startswith("parporo: error:") and "zero denominator" in err
    assert "Traceback" not in err


def test_inconclusive_exit_code(capsys):
    # cap 0 cannot certify any hole for a set meeting the root
    code, out, _ = run_cli(capsys, "maxhole", "--set", HYPERPLANE, "--cap", "0")
    assert code == 2
    assert report_of(out)["result"]["found"] is False


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap": 2, "samples": 3}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "maxhole",
                           "--set", HYPERPLANE)
    assert code == 0
    assert report_of(out)["config"]["cap"] == 2
    # flags override the config file
    code, out, _ = run_cli(capsys, "--config", str(cfg), "maxhole",
                           "--set", HYPERPLANE, "--cap", "1")
    assert report_of(out)["config"]["cap"] == 1


@pytest.mark.parametrize("argv", [
    ["stopping", "--set", HYPERPLANE, "--delta", "2"],
    ["porosity", "--set", HYPERPLANE, "--deltas", "2"],
    ["maxhole", "--set", HYPERPLANE, "--cap", "-1"],
    ["a1", "--set", HYPERPLANE, "--beta", "-1"],
    ["a1", "--set", HYPERPLANE, "--beta", "nan"],
    ["a1", "--set", HYPERPLANE, "--tol", "0"],
    ["a1", "--set", HYPERPLANE, "--tol", "inf"],
    ["tower", "--set", HYPERPLANE, "--deltas", "1/8,1/2"],
    ["characterize", "--set", HYPERPLANE, "--samples", "0"],
    ["porosity", "--set", HYPERPLANE, "--samples", "0"],
    ["a1", "--set", HYPERPLANE, "--samples", "-5"],
    ["porosity", "--set", HYPERPLANE, "--theta", "nan"],
    ["porosity", "--set", HYPERPLANE, "--theta", "inf"],
    ["lattice", "--depth", "-1"],
    ["maxhole", "--set", SPACE_TIME_IFS],
    ["a1", "--set", SPACE_TIME_IFS],
    ["maxhole", "--set", SHIFTED_IFS],
])
def test_input_errors_exit_cleanly(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("parporo: error:")
    assert "Traceback" not in err


BOXES_1D = json.dumps({"type": "boxes",
                       "boxes": [{"spatial": [["0", "1"]], "temporal": ["0", "1"]}]})
HYPERPLANE_AXIS_1 = json.dumps({"type": "hyperplane", "axis": 1, "value": "0"})


@pytest.mark.parametrize("command", [("a1", "--samples", "1"),
                                     ("characterize", "--samples", "1", "--cap", "1"),
                                     ("porosity", "--samples", "1", "--cap", "1")],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("set_def,n", [(POINT, "2"), (str(FIXTURES / "cantor.json"), "2"),
                                       (BOXES_1D, "2"), (HYPERPLANE_AXIS_1, "1")],
                         ids=["points", "ifs", "boxes", "hyperplane"])
def test_set_of_another_spatial_dimension_exits_1(capsys, command, set_def, n):
    code, out, err = run_cli(capsys, *command, "--set", set_def, "--n", n, "--seed", "0")
    assert code == 1 and out == ""
    assert err.startswith("parporo: error: the set does not fit the lattice's")
    assert "dimension" in err and "Traceback" not in err


def test_half_space_has_no_spatial_dimension(capsys):
    halfspace = str(FIXTURES / "halfspace.json")
    code, out, _ = run_cli(capsys, "maxhole", "--set", halfspace, "--n", "2", "--cap", "0")
    assert code in (0, 2) and report_of(out)["command"] == "maxhole"
