"""The start-up path: ``import cobalt.cli`` loads numpy but not scipy.

Only the commands that filter edges can import scipy, and only at the first
edge whose verdict the tail bounds leave open. Each check runs in a fresh
interpreter, because the test process has imported scipy already.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import cobalt

SRC = Path(cobalt.__file__).resolve().parent.parent
PLANTED = Path(__file__).parent / "golden" / "planted"


def run_fresh(script: str, *args: str) -> list[str]:
    """stdout lines of ``script`` run by a fresh interpreter with ``args``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_importing_the_cli_loads_no_scipy():
    lines = run_fresh(
        "import sys, cobalt.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    assert lines == ["[]"]


COMMANDS = """
import sys
from cobalt import cli

case, out = sys.argv[1:]
network = f"{case}/expected/build/network.json"
selected = f"{case}/expected/select_network"
tables = [f"{case}/scores.csv", f"{case}/covariates.csv", f"{case}/targets.csv"]
runs = {
    "select": ["select", network],
    "evaluate": ["evaluate", *tables, "--trace", f"{selected}/trace.json"],
    "export": ["export", network, "--partition", f"{selected}/partition_iter03.json"],
    "build": ["build", tables[0]],
}
for name, argv in runs.items():
    code = cli.main([*argv, "--out-dir", f"{out}/{name}"])
    print(name, code, "scipy" in sys.modules)
"""


def test_only_filtering_commands_import_scipy(tmp_path):
    lines = run_fresh(COMMANDS, str(PLANTED), str(tmp_path))
    results = [line for line in lines if not line.startswith("wrote ")]
    assert results == [
        "select 0 False",
        "evaluate 0 False",
        "export 0 False",
        "build 0 True",
    ]


SELECT = """
import sys
from cobalt import cli

scores, out = sys.argv[1:]
code = cli.main(["select", scores, "--out-dir", out])
print(code, "scipy" in sys.modules)
"""


def test_tie_heavy_select_settles_every_edge_without_scipy(tmp_path):
    """Integer scores 0..10 make every pair a tie or far from one, so the
    tail bounds settle every edge and betainc, with scipy, is never needed."""
    scores = np.random.default_rng(3).integers(0, 11, size=(100, 6))
    path = tmp_path / "scores.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["entity", *(f"L{j + 1}" for j in range(6))])
        writer.writerows([f"e{i:03d}", *row] for i, row in enumerate(scores.tolist()))
    lines = run_fresh(SELECT, str(path), str(tmp_path / "out"))
    assert [line for line in lines if not line.startswith("wrote ")] == ["0 False"]
