"""Byte-for-byte CLI artifacts on three small seeded tables.

Each case directory under ``tests/golden/`` holds the inputs (``scores.csv``,
``covariates.csv``, ``targets.csv``, ``config.json``) and, under
``expected/``, every file the CLI writes for them: ``build``, ``select`` from
the CSV, ``select`` from the built ``network.json``, ``sweep`` (complete
tables only) and ``evaluate --trace``. The test reruns the commands and
compares every file byte for byte.

A change that alters an artifact must say why and regenerate the goldens::

    PYTHONPATH=src python tests/test_golden.py

JSON goldens are compact, one line each. To compare the content of a
regenerated JSON golden with an older, indented one, lay it out first:
``python -m json.tool --indent 1 --sort-keys FILE`` prints the indented
layout byte for byte, so ``cmp`` against the old file shows whether only
the whitespace changed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cobalt
from cobalt import cli
from cobalt.build import normalize_layer
from cobalt.io import read_score_table

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(cobalt.__file__).resolve().parent.parent

N = 36
LAYERS = ("A", "B", "C")
CONFIG = {"sweep": {"grid": [0.25, 0.5], "master_seed": 5}}


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _planted_scores(rng: np.random.Generator) -> np.ndarray:
    groups = np.column_stack([rng.permutation(np.arange(N) % 3) for _ in LAYERS])
    return groups * 10.0 + rng.normal(0.0, 0.5, size=groups.shape)


def planted(rng: np.random.Generator) -> list[list[float | None]]:
    """Gaussian scores around three planted group centres per layer."""
    return _planted_scores(rng).tolist()


def tied_missing(rng: np.random.Generator) -> list[list[float | None]]:
    """Integer scores 0..10 with about a fifth of the cells missing; every
    entity keeps at least one cell."""
    scores = rng.integers(0, 11, size=(N, len(LAYERS)))
    present = rng.random((N, len(LAYERS))) >= 0.2
    present[~present.any(axis=1), 0] = True
    return [
        [int(v) if p else None for v, p in zip(row, mask)]
        for row, mask in zip(scores.tolist(), present.tolist())
    ]


def near_tie(rng: np.random.Generator) -> list[list[float | None]]:
    """Planted Gaussian scores where entities 0 and 1 differ by 1e-7 in layer
    A, a z-score gap far below 1e-7 but above the weight clamp."""
    scores = _planted_scores(rng)
    scores[1, 0] = scores[0, 0] + 1e-7
    return scores.tolist()


CASES = {
    "planted": (planted, 101),
    "tied_missing": (tied_missing, 202),
    "near_tie": (near_tie, 11),
}


def write_inputs(case: str, case_dir: Path) -> None:
    make, seed = CASES[case]
    rng = np.random.default_rng(seed)
    cells = make(rng)
    entities = [f"e{i:02d}" for i in range(N)]
    _write_csv(
        case_dir / "scores.csv",
        ["entity", *LAYERS],
        [[e] + [_cell(v) for v in row] for e, row in zip(entities, cells)],
    )
    age = rng.uniform(20.0, 80.0, size=N).round(1)
    gender = rng.choice(["F", "M"], size=N)
    _write_csv(
        case_dir / "covariates.csv",
        ["entity", "age", "gender"],
        [[e, repr(float(a)), str(g)] for e, a, g in zip(entities, age, gender)],
    )
    noise = rng.normal(0.0, 1.0, size=(N, len(LAYERS)))
    _write_csv(
        case_dir / "targets.csv",
        ["entity", *(f"{l}_t1" for l in LAYERS)],
        [
            [e] + [_cell(None if v is None else v + d) for v, d in zip(row, drift)]
            for e, row, drift in zip(entities, cells, noise.tolist())
        ],
    )
    (case_dir / "config.json").write_text(json.dumps(CONFIG, sort_keys=True) + "\n")


def run_case(case_dir: Path, out: Path) -> None:
    """Every CLI command of one case, writing into ``out``."""
    scores = str(case_dir / "scores.csv")
    complete = all(
        "" not in line.split(",")
        for line in (case_dir / "scores.csv").read_text().splitlines()
    )
    common = ["--config", str(case_dir / "config.json")]
    steps = [
        ["build", scores, *common, "--out-dir", str(out / "build")],
        ["select", scores, *common, "--out-dir", str(out / "select")],
        [
            "select",
            str(out / "build" / "network.json"),
            *common,
            "--out-dir",
            str(out / "select_network"),
        ],
        [
            "evaluate",
            scores,
            str(case_dir / "covariates.csv"),
            str(case_dir / "targets.csv"),
            "--trace",
            str(out / "select" / "trace.json"),
            *common,
            "--out-dir",
            str(out / "evaluate"),
        ],
    ]
    if complete:
        steps.append(["sweep", scores, *common, "--out-dir", str(out / "sweep")])
    for argv in steps:
        code = cli.main(argv)
        assert code == 0, f"cobalt {argv[0]} exited {code}"


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_artifacts_match_golden(case, tmp_path, capsys):
    case_dir = GOLDEN / case
    run_case(case_dir, tmp_path)
    capsys.readouterr()
    expected = _files(case_dir / "expected")
    actual = _files(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"artifacts differ from tests/golden/{case}/expected: {changed}"


def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """select network.json and evaluate --trace on the golden planted case,
    each in a fresh interpreter whose OpenBLAS is told its thread count
    before numpy loads."""
    case_dir = GOLDEN / "planted"
    tables = [str(case_dir / name) for name in ("scores.csv", "covariates.csv", "targets.csv")]
    network = str(case_dir / "expected" / "build" / "network.json")
    trace = str(case_dir / "expected" / "select" / "trace.json")
    common = ["--config", str(case_dir / "config.json")]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        out = tmp_path / threads
        for argv in (
            ["select", network, *common, "--out-dir", str(out / "select")],
            ["evaluate", *tables, "--trace", trace, *common, "--out-dir", str(out / "evaluate")],
        ):
            subprocess.run(
                [sys.executable, "-m", "cobalt.cli", *argv],
                check=True,
                capture_output=True,
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            )
        assert _files(out / "select") == _files(case_dir / "expected" / "select_network")
        assert _files(out / "evaluate") == _files(case_dir / "expected" / "evaluate")


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_bytes_do_not_depend_on_the_blas_kernel(core, tmp_path):
    """Every case's artifacts, written in a fresh interpreter whose OpenBLAS
    is told which kernel to use before numpy loads, equal the goldens."""
    code = (
        "import sys; from pathlib import Path; import test_golden as g\n"
        "for case in g.CASES: g.run_case(g.GOLDEN / case, Path(sys.argv[1]) / case)"
    )
    path = os.pathsep.join(
        filter(None, [str(SRC), str(Path(__file__).parent), os.environ.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        check=True,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=core),
    )
    for case in CASES:
        assert _files(tmp_path / case) == _files(GOLDEN / case / "expected"), case


def test_near_tie_case_has_one_near_tie_pair():
    table = read_score_table(GOLDEN / "near_tie" / "scores.csv")
    z = sorted(normalize_layer(table, "A").values())
    gaps = [b - a for a, b in zip(z, z[1:])]
    assert sum(g < 1e-7 for g in gaps) == 1
    assert 0.0 < min(gaps)


def regenerate() -> None:
    for case in CASES:
        case_dir = GOLDEN / case
        case_dir.mkdir(parents=True, exist_ok=True)
        write_inputs(case, case_dir)
        shutil.rmtree(case_dir / "expected", ignore_errors=True)
        run_case(case_dir, case_dir / "expected")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
