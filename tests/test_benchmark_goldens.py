"""The benchmark's stopping, hyperplane and point-cloud A1 commands against
their stored reports, byte for byte.

Each command runs in-process from the repository root, as
``tests/test_readme_examples.py`` runs the README's; its exit code and its
stdout with the timestamp removed must equal the stored report under
``perfbench/golden/``, which this test only reads.  ``--threads`` is
accepted and ignored, so each command also runs at ``--threads 2`` against
the same stored report.
"""

import json
import re
from pathlib import Path

import pytest

from parporo.cli import run

REPO = Path(__file__).resolve().parent.parent
# two of the four a1-point seeds: seed 2 runs out of cells and exits 2
GOLDEN = sorted(path for pattern in ("stopping-layered.json",
                                     "characterize-hyperplane-seed*.json",
                                     "porosity-p1.5-seed*.json",
                                     "a1-point-seed[02].json")
                for path in (REPO / "perfbench" / "golden").glob(pattern))

# the envelope's keys are sorted, so the timestamp is its last key
TIMESTAMP = re.compile(r',\n  "timestamp": "[^"]*"\n')


def test_every_benchmark_command_has_a_stored_report():
    assert len(GOLDEN) == 11


def with_threads(argv, threads):
    i = argv.index("--threads")
    return [*argv[:i + 1], str(threads), *argv[i + 2:]]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_benchmark_command_matches_stored_report(path, threads, capsys, monkeypatch):
    golden = json.loads(path.read_text(encoding="utf-8"))
    monkeypatch.chdir(REPO)
    code = run(with_threads(list(golden["argv"]), threads))
    out = TIMESTAMP.sub("\n", capsys.readouterr().out, count=1)
    assert code == golden["exit_code"]
    assert out == golden["stdout"]
