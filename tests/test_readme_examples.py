"""The README's CLI examples against their stored reports, byte for byte.

Each example runs in-process from the repository root; its exit code and
its stdout with the timestamp removed must equal the stored report under
``perfbench/golden/readme-*.json`` (kept as a SHA-256 when too large).
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from parporo.cli import run

REPO = Path(__file__).resolve().parent.parent
GOLDEN = sorted((REPO / "perfbench" / "golden").glob("readme-*.json"))
README = (REPO / "README.md").read_text(encoding="utf-8")

# the envelope's keys are sorted, so the timestamp is its last key
TIMESTAMP = re.compile(r',\n  "timestamp": "[^"]*"\n')


def test_every_readme_example_has_a_stored_report():
    assert len(GOLDEN) == 8


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_readme_example_matches_stored_report(path, capsys, monkeypatch):
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert "parporo " + " ".join(golden["argv"]) in README
    monkeypatch.chdir(REPO)
    code = run(list(golden["argv"]))
    out = TIMESTAMP.sub("\n", capsys.readouterr().out, count=1)
    assert code == golden["exit_code"]
    if "stdout_sha256" in golden:
        assert hashlib.sha256(out.encode()).hexdigest() == golden["stdout_sha256"]
    else:
        assert out == golden["stdout"]
