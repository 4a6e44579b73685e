"""The CLI's output is a contract: each command the benchmark checks must
print exactly the committed bytes and exit with the committed status.

The golden file is read, never written; ``perfbench/make_fixtures.py``
is what regenerates it.
"""

import json
from pathlib import Path

import pytest

from zetaroutes.cli import run

GOLDEN_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "golden_cli.json"
GOLDEN = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_matches_golden_bytes(capsys, command):
    code = run(command.split(" "))
    out = capsys.readouterr().out
    assert code == GOLDEN[command]["rc"]
    assert out == GOLDEN[command]["stdout"]
