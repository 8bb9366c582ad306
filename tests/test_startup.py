"""The start-up path: ``import cobalt.cli`` loads numpy but not scipy.

Only the commands that filter edges can import scipy, and only at the first
edge whose verdict neither the tail bounds nor the summed tail settle. The
commands that run Leiden load no ``numpy.ma`` either, which numpy's
``np.unique`` imports when it returns no indices. Each check runs in a
fresh interpreter, because the test process has imported both already.
"""

import csv
import json
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
    "sweep": ["sweep", tables[0], "--config", f"{case}/config.json"],
    "evaluate-untraced": ["evaluate", *tables],
}
for name, argv in runs.items():
    code = cli.main([*argv, "--out-dir", f"{out}/{name}"])
    print(name, code, "scipy" in sys.modules, "numpy.ma" in sys.modules)
"""


def test_no_command_on_the_golden_planted_inputs_imports_scipy(tmp_path):
    """The golden planted build and sweep filter edges, and the summed tail
    settles every close call the bounds leave there, so none needs betainc.
    select, sweep and evaluate without ``--trace`` run Leiden, which loads no
    ``numpy.ma``; both flags only accumulate, so each line covers the runs
    before it."""
    lines = run_fresh(COMMANDS, str(PLANTED), str(tmp_path))
    results = [line for line in lines if not line.startswith("wrote ")]
    assert results == [
        "select 0 False False",
        "evaluate 0 False False",
        "export 0 False False",
        "build 0 False False",
        "sweep 0 False False",
        "evaluate-untraced 0 False False",
    ]


BETAINC_ALONE = """
import sys
import numpy as np
from cobalt import cli, pruning

scores, config, out = sys.argv[1:]
print(cli.main(["build", scores, "--config", config, "--out-dir", f"{out}/filtered"]),
      "scipy" in sys.modules)
# leave every edge open, so that betainc judges them all
pruning._bound_verdicts = lambda c, p, total, alpha: (np.zeros(len(c), bool), np.arange(len(c)))
pruning._summed_verdicts = lambda c, p, total, alpha: (np.zeros(len(c), bool),) * 2
print(cli.main(["build", scores, "--config", config, "--out-dir", f"{out}/betainc"]))
"""


def test_alpha_above_one_half_loads_scipy_and_writes_betaincs_network(tmp_path):
    """At alpha >= 1/2 the median drop is off, and edges below their mode,
    which the sum leaves open, reach betainc: scipy loads, and the network
    is byte for byte the one betainc writes when it judges every edge."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pruning": {"alpha": 0.6}}))
    lines = run_fresh(BETAINC_ALONE, str(PLANTED / "scores.csv"), str(config), str(tmp_path))
    assert [line for line in lines if not line.startswith("wrote ")] == ["0 True", "0"]
    filtered = (tmp_path / "filtered" / "network.json").read_bytes()
    assert filtered == (tmp_path / "betainc" / "network.json").read_bytes()


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
