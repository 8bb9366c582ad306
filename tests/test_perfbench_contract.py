"""The benchmark's contract with the package, checked in the unit suite.

``perfbench/tracer.py`` wraps a fixed list of call sites and
``perfbench/checks.py`` re-derives results through the public API. A change
that removes or renames one of those names breaks the benchmark; these tests
fail on it before a benchmark run does. They read ``perfbench/`` and change
nothing in it.
"""

import importlib
from pathlib import Path

import pytest

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
