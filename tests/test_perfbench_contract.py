"""The benchmark's contract with the package, checked in the unit suite.

``perfbench/tracer.py`` wraps a fixed list of call sites and
``perfbench/checks.py`` re-derives results through the public API. A change
that removes or renames one of those names, or changes what the checks read
(the network constructor, ``nodes``, ``subnetwork``, the artifact readers),
breaks the benchmark; these tests fail on it before a benchmark run does:
they run the checks on small outputs and require no problems and the
expected counts. They read ``perfbench/`` and change nothing in it.
"""

import importlib
import json
from pathlib import Path

import pytest

from cobalt import cli
from cobalt import io as cio
from cobalt.build import build_network
from cobalt.config import PipelineConfig
from cobalt.model import ScoreTable

from _support import halves_and_parity_table, write_score_csv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_every_traced_site_exists(perfbench):
    tracer = perfbench("tracer").Tracer()
    tracer.install(0)
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_checks_import(perfbench):
    checks = perfbench("checks")
    assert callable(checks.check_selection) and callable(checks.network_counters)


def test_selection_check_passes_on_a_select_run_and_catches_a_bad_quality(
    perfbench, tmp_path, capsys
):
    """``check_selection`` reads a network artifact the way the planted
    workload does, and walks each iteration's subnetwork and vertex set."""
    checks = perfbench("checks")
    scores = write_score_csv(halves_and_parity_table(n=12, seed=6), tmp_path / "s.csv")
    out = tmp_path / "out"
    assert cli.main(["build", scores, "--out-dir", str(out)]) == 0
    assert cli.main(["select", str(out / "network.json"), "--out-dir", str(out)]) == 0
    network = cio.network_from_dict(json.loads((out / "network.json").read_text()))
    trace = json.loads((out / "trace.json").read_text())
    assert len(trace["iterations"]) == len(network.layers) == 3

    problems, final_q = checks.check_selection(out, network)
    assert problems == []
    assert final_q == trace["iterations"][-1]["modularity"]

    first = out / "partition_iter01.json"
    raw = json.loads(first.read_text())
    raw["assignment"][0][2] = 1 + max(row[2] for row in raw["assignment"])
    first.write_text(json.dumps(raw))
    problems, _ = checks.check_selection(out, network)
    assert [p.split(":")[0] for p in problems] == ["partition_iter01.json"]


def test_network_counters_count_a_small_complete_network(perfbench):
    checks = perfbench("checks")
    # entities e2 and e3 tie in layer A; no other pair and no coupling does
    table = ScoreTable(
        ("e0", "e1", "e2", "e3"),
        ("A", "B"),
        {
            **{(f"e{i}", "A"): v for i, v in enumerate([1.0, 2.0, 3.0, 3.0])},
            **{(f"e{i}", "B"): v for i, v in enumerate([1.0, 2.0, 4.0, 8.0])},
        },
    )
    counters = checks.network_counters(build_network(table), PipelineConfig().pruning.quantization)
    assert {k: counters[k] for k in ("intra", "inter", "ties")} == {
        "intra": 2 * 6,
        "inter": 4,
        "ties": 1,
    }
    assert 0.0 < counters["max_total_over_2p53"] < 1.0
