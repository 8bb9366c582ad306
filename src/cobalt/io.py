"""Ingestion and serialization.

CSV inputs: scores (``entity,<layer>,...``, empty cell = missing),
covariates (``entity,age,gender``), targets (``entity,<layer>_t1,...``).
Artifacts are deterministic JSON: compact, on one line with sorted keys and
no timestamps, then a newline. ``python -m json.tool --indent 1 --sort-keys``
lays one out for reading. ``network.json`` (version 3) is columnar: its
``vertices`` in vertex order, then each edge set as parallel columns of
vertex ids ``a``, ``b`` and weights ``w``, each column one base64 string of
little-endian bytes (``<i4`` ids, ``<f8`` weights), so no column becomes one
Python object per number. Readers refuse, naming the field, a value not of
the exact JSON type asked (``true`` is no number), a column that is not
strict base64 of whole items, and a vertex listed or assigned twice.
Networks can also be exported to attributed GraphML, the readable export.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import json
import math
import operator
from dataclasses import asdict, astuple
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from .config import PipelineConfig, PruningConfig
from .evaluation import MissingnessSweepReport, RegressionReport
from .model import (
    CovariateTable,
    EdgeArrays,
    MultiLayerNetwork,
    NodeRef,
    Partition,
    ScoreTable,
)
from .selector import IterationRecord, IterationTrace, LayerCostBreakdown


class InputFormatError(ValueError):
    """Malformed input file; the message names the offending column or row."""


# ---------------------------------------------------------------------------
# CSV


def read_score_table(source: str | Path | TextIO) -> ScoreTable:
    header, rows = _read_csv(source, "score")
    return _score_table(header, rows, tuple(header[1:]))


def read_targets(source: str | Path | TextIO) -> ScoreTable:
    """Post-treatment scores; column ``<layer>_t1`` becomes layer ``<layer>``."""
    header, rows = _read_csv(source, "targets")
    for pos, name in enumerate(header[1:], start=2):
        if not name.endswith("_t1") or name == "_t1":
            raise InputFormatError(
                f"targets column {pos} must be named '<layer>_t1', got {name!r}"
            )
    return _score_table(header, rows, tuple(name[: -len("_t1")] for name in header[1:]))


def read_covariates(source: str | Path | TextIO) -> CovariateTable:
    header, rows = _read_csv(source, "covariates")
    if header != ["entity", "age", "gender"]:
        raise InputFormatError("covariates header must be 'entity,age,gender'")
    ages = ((entity, _number(cell, lineno, "age")) for lineno, (entity, cell, _) in rows)
    return CovariateTable(
        tuple(row[0] for _, row in rows),
        {entity: age for entity, age in ages if age is not None},
        {entity: gender for _, (entity, _, gender) in rows if gender != ""},
    )


def _score_table(
    header: list[str], rows: list[tuple[int, list[str]]], layers: tuple[str, ...]
) -> ScoreTable:
    """Table of the numeric cells of ``rows``: column ``header[k + 1]`` is ``layers[k]``."""
    scores: dict[tuple[str, str], float] = {}
    for lineno, (entity, *cells) in rows:
        for layer, column, cell in zip(layers, header[1:], cells):
            value = _number(cell, lineno, column)
            if value is not None:
                scores[(entity, layer)] = value
    return ScoreTable(tuple(row[0] for _, row in rows), layers, scores)


def _number(cell: str, lineno: int, column: str) -> float | None:
    """The finite value of a numeric cell; ``None`` for an empty (missing) one."""
    if cell == "":
        return None
    where = f"line {lineno}, column {column!r}"
    try:
        value = float(cell)
    except ValueError:
        raise InputFormatError(f"{where}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise InputFormatError(f"{where}: not finite: {cell!r}")
    return value


def _read_csv(
    source: str | Path | TextIO, what: str
) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and non-blank rows, each with its line number, of a CSV whose
    first column is ``entity``.

    The header names every column once; every row has the header's width
    and names a new, non-empty entity. A path is read as UTF-8 with an
    optional byte-order mark, as spreadsheets export it.
    """
    with _open_read(source) as fh:
        reader = csv.reader(fh)
        try:
            lines = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise InputFormatError(f"line {reader.line_num}: {exc}") from exc
    if not lines:
        raise InputFormatError(f"{what} file is empty")
    (_, header), rows = lines[0], lines[1:]
    if header[0] != "entity":
        raise InputFormatError(
            f"{what} header must start with 'entity', got {header[:1]}"
        )
    if len(set(header)) != len(header):
        dupe = sorted({name for name in header if header.count(name) > 1})
        raise InputFormatError(f"duplicate layer columns: {dupe}")
    seen: set[str] = set()
    for lineno, row in rows:
        if len(row) != len(header):
            raise InputFormatError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        if not row[0]:
            raise InputFormatError(f"line {lineno}: empty entity")
        if row[0] in seen:
            raise InputFormatError(f"line {lineno}: duplicate entity {row[0]!r}")
        seen.add(row[0])
    return header, rows


def _open_read(source: str | Path | TextIO):
    if hasattr(source, "read"):
        return contextlib.nullcontext(source)
    return open(source, "r", encoding="utf-8-sig", newline="")


def _open_write(target: str | Path | TextIO):
    if hasattr(target, "write"):
        return contextlib.nullcontext(target)
    return open(target, "w", encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# JSON artifacts


def dump_json(payload: Any, target: str | Path | TextIO) -> None:
    """Write ``payload`` as compact JSON with sorted keys, then a newline."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with _open_write(target) as fh:
        fh.write(text)
        fh.write("\n")


def _json_safe(value: Any) -> Any:
    """``value``, with a non-finite float spelled as a string."""
    if not isinstance(value, float) or math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


# the bytes of each edge column in network.json: ids fit <i4, being below
# the vertex count
_EDGE_COLUMNS = {"a": np.dtype("<i4"), "b": np.dtype("<i4"), "w": np.dtype("<f8")}


def _edge_columns(edges: EdgeArrays) -> dict[str, str]:
    return {
        key: base64.b64encode(column.astype(dtype, copy=False).tobytes()).decode("ascii")
        for (key, dtype), column in zip(_EDGE_COLUMNS.items(), edges)
    }


def network_to_dict(
    network: MultiLayerNetwork, pruning_meta: dict | None = None
) -> dict:
    return {
        "format": "cobalt-network",
        "version": 3,
        "layers": list(network.layers),
        "vertices": [list(v) for v in network.vertices],
        "intra_edges": _edge_columns(network.intra),
        "inter_edges": _edge_columns(network.inter),
        "pruning": pruning_meta,
    }


_NUMBER = (int, float)
_MEMBER = (str, str, int)


def _field(raw: Any, name: str, *kinds: type) -> Any:
    """``raw[name]`` if present and of exactly one of the types ``kinds``;
    otherwise an :class:`InputFormatError` that names the field."""
    if name not in raw:
        raise InputFormatError(f"artifact field {name!r} is missing")
    value = raw[name]
    if type(value) not in kinds:
        raise InputFormatError(
            f"artifact field {name!r} has type {type(value).__name__}"
        )
    return value


def _columns(raw: Any, name: str, kinds: tuple[type, ...]) -> list[list]:
    """Columns of the list field ``name``, whose entries are lists of
    exactly the types ``kinds``. Types are checked one whole column at a time."""
    rows = _field(raw, name, list)
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {len(kinds)}:
        columns = [list(map(operator.itemgetter(k), rows)) for k in range(len(kinds))]
        if all(set(map(type, col)) <= {kind} for col, kind in zip(columns, kinds)):
            return columns
    entry = ", ".join(kind.__name__ for kind in kinds)
    raise InputFormatError(f"artifact field {name!r} holds an entry that is not [{entry}]")


def _layers(raw: dict) -> tuple[str, ...]:
    layers = _field(raw, "layers", list)
    if not set(map(type, layers)) <= {str}:
        raise InputFormatError(
            f"artifact field 'layers' holds a non-string in {layers!r}"
        )
    return tuple(layers)


def _artifact(raw: Any, kind: str, version: int) -> dict:
    """``raw``, if it is a JSON object of this ``format`` and ``version``."""
    if not isinstance(raw, dict) or raw.get("format") != f"cobalt-{kind}":
        raise InputFormatError(f"not a {kind} artifact: needs a JSON object with field 'format'")
    found = raw.get("version")
    if type(found) is not int or found != version:
        rebuild = "; rebuild it with 'cobalt build'" if kind == "network" else ""
        raise InputFormatError(f"artifact field 'version' reads {found!r}, not {version}{rebuild}")
    return raw


def _edge_arrays(raw: dict, name: str) -> EdgeArrays:
    """Columns ``a``, ``b``, ``w`` of edge field ``name``; the network checks the edge set."""
    field, columns = _field(raw, name, dict), []
    for key, dtype in _EDGE_COLUMNS.items():
        where = f"artifact field {name!r}: column {key!r}"
        if type(field.get(key)) is not str:
            raise InputFormatError(f"{where} is not a base64 string")
        try:
            data = base64.b64decode(field[key], validate=True)
        except ValueError:  # binascii.Error, or a character outside ASCII
            raise InputFormatError(f"{where} is not base64") from None
        if len(data) % dtype.itemsize:
            raise InputFormatError(
                f"{where} holds {len(data)} bytes, not whole {dtype.itemsize}-byte items"
            )
        columns.append(np.frombuffer(data, dtype=dtype))
    a, b, w = columns  # the network stores the ids as int64
    return EdgeArrays(a, b, w.astype(np.float64, copy=False))


def network_from_dict(raw: Any) -> MultiLayerNetwork:
    raw = _artifact(raw, "network", 3)
    layers = _layers(raw)
    vertices = tuple(map(NodeRef, *_columns(raw, "vertices", (str, str))))
    intra, inter = (_edge_arrays(raw, name) for name in ("intra_edges", "inter_edges"))
    try:
        return MultiLayerNetwork(layers, vertices, intra, inter)
    except ValueError as exc:  # the message opens with the part refused
        part = str(exc).split()[0].rstrip(":")
        field = {"intra": "intra_edges", "inter": "inter_edges"}.get(part, part)
        raise InputFormatError(f"artifact field {field!r}: {exc}") from exc


def pruning_block(pruning: PruningConfig) -> dict:
    """The ``pruning`` block of a network that the filter ``pruning`` made."""
    return dict(asdict(pruning), degree_definition="quantized_strength")


def network_and_pruning(raw: Any) -> tuple[MultiLayerNetwork, dict | None]:
    """The network of a network artifact, and its ``pruning`` block: the
    settings of the filter that made it, or ``None`` where they are unknown.
    The block's settings obey the config file's rules."""
    network = network_from_dict(raw)
    pruning = _field(raw, "pruning", dict, type(None))
    if pruning is not None:
        settings = {k: v for k, v in pruning.items() if k != "degree_definition"}
        try:
            block = pruning_block(PipelineConfig.from_dict({"pruning": settings}).pruning)
            if pruning != block:
                raise ValueError(f"reads {pruning}, not {block}")
        except ValueError as exc:
            raise InputFormatError(f"artifact field 'pruning': {exc}") from None
    return network, pruning


def _assignment_rows(partition: Partition) -> list[list]:
    """``[entity, layer, community]`` rows, sorted, as artifacts hold them."""
    return sorted([n.entity, n.layer, c] for n, c in partition.assignment.items())


def partition_to_dict(partition: Partition, extra: dict | None = None) -> dict:
    payload = {
        "format": "cobalt-partition",
        "version": 1,
        "quality": partition.quality,
        "assignment": _assignment_rows(partition),
    }
    if extra:
        payload.update(extra)
    return payload


def partition_from_dict(raw: Any) -> Partition:
    raw = _artifact(raw, "partition", 1)
    assignment = _assignment(raw, "assignment")
    if not assignment:
        raise InputFormatError("artifact field 'assignment' has no rows")
    return Partition(assignment, _field(raw, "quality", *_NUMBER))


def _assignment(raw: dict, name: str) -> dict[NodeRef, int]:
    entity, layer, community = _columns(raw, name, _MEMBER)
    assignment = dict(zip(map(NodeRef, entity, layer), community))
    if len(assignment) != len(community):
        nodes = sorted(map(NodeRef, entity, layer))
        twice = next(a for a, b in zip(nodes, nodes[1:]) if a == b)
        raise InputFormatError(f"artifact field {name!r} assigns vertex {twice} twice")
    return assignment


def trace_to_dict(trace: IterationTrace, config: dict | None = None) -> dict:
    iterations = []
    for record in trace.records:
        b = record.breakdown
        iterations.append(
            {
                "index": record.index,
                "layer": record.layer,
                "layers": list(record.layers),
                "cost": None if b is None else _json_safe(b.cost),
                "availability": None if b is None else b.availability,
                "community_similarity": None if b is None else b.similarity,
                "modularity": record.modularity,
                "communities": record.partition.community_count(),
                "nodes": record.node_count,
                "intra_edges": record.intra_edge_count,
                "inter_edges": record.inter_edge_count,
                "partition": _assignment_rows(record.partition),
            }
        )
    return {
        "format": "cobalt-trace",
        "version": 1,
        "config": config or {},
        "iterations": iterations,
    }


def trace_from_dict(raw: Any) -> IterationTrace:
    raw = _artifact(raw, "trace", 1)
    records = []
    for position, item in enumerate(_field(raw, "iterations", list), start=1):
        if type(item) is not dict:
            raise InputFormatError(f"artifact field 'iterations' holds {item!r}")
        index = _field(item, "index", int)
        if index != position:
            raise InputFormatError(
                f"artifact field 'index' of iteration {position} reads {index!r}; "
                "iterations are numbered 1, 2, ... in order"
            )
        layer = _field(item, "layer", str)
        cost = _field(item, "cost", *_NUMBER, str, type(None))
        # the one string the writer spells: the cost at zero availability
        if type(cost) is str:
            if cost != "inf":
                raise InputFormatError(
                    f"artifact field 'cost' reads {cost!r}, not a number or 'inf'"
                )
            cost = math.inf
        breakdown = None
        if cost is not None:
            breakdown = LayerCostBreakdown(
                layer,
                _field(item, "availability", *_NUMBER),
                _field(item, "community_similarity", *_NUMBER),
                cost,
            )
        layers = _layers(item)
        assignment = _assignment(item, "partition")
        outside = {node.layer for node in assignment} - set(layers)
        if outside:
            raise InputFormatError(
                f"artifact field 'partition' of iteration {index} names layer "
                f"{min(outside)!r}, which is not in its 'layers'"
            )
        modularity = _field(item, "modularity", *_NUMBER)
        records.append(
            IterationRecord(
                index=index,
                layer=layer,
                breakdown=breakdown,
                partition=Partition(assignment, modularity),
                modularity=modularity,
                layers=layers,
                node_count=_field(item, "nodes", int),
                intra_edge_count=_field(item, "intra_edges", int),
                inter_edge_count=_field(item, "inter_edges", int),
            )
        )
    return IterationTrace(tuple(records))


def sweep_report_to_dict(report: MissingnessSweepReport) -> dict:
    return {
        "format": "cobalt-sweep",
        "version": 1,
        "config": report.config,
        "reference": asdict(report.reference),
        "ratios": [asdict(e) for e in report.entries],
    }


# the columns of regression.json and regression.csv, one per field of
# RegressionRow, in field order
_REGRESSION_COLUMNS = (
    "target", "feature_set", "model", "lambda", "mae", "mse", "r2", "folds", "n"
)


def regression_report_to_dict(report: RegressionReport) -> dict:
    return {
        "format": "cobalt-regression",
        "version": 1,
        "metadata": report.metadata,
        "rows": [
            dict(zip(_REGRESSION_COLUMNS, map(_json_safe, astuple(r)))) for r in report.rows
        ],
    }


def regression_report_to_csv(report: RegressionReport, target: str | Path | TextIO) -> None:
    with _open_write(target) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_REGRESSION_COLUMNS)
        writer.writerows(map(astuple, report.rows))


# ---------------------------------------------------------------------------
# GraphML

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
# the characters GraphML text and attribute values must not hold raw
_XML = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})

_KEYS = (
    ("d_entity", "node", "entity", "string"),
    ("d_layer", "node", "layer", "string"),
    ("d_community", "node", "community", "long"),
    ("d_weight", "edge", "weight", "double"),
    ("d_kind", "edge", "kind", "string"),
    ("d_layers", "graph", "layers", "string"),
)


def export_graphml(
    network: MultiLayerNetwork,
    partition: Partition | None,
    target: str | Path | TextIO,
) -> None:
    """Write the network (and optional community ids) as attributed GraphML.

    With a partition, only the layers it covers are written, so the
    partition of an early selection iteration exports its own subnetwork.
    It must then assign exactly the vertices of those layers. Weights carry
    17 significant digits, so a GraphML reader gets them back bit-exact.
    """
    if partition is not None:
        covered = {node.layer for node in partition.assignment}
        network = network.subnetwork(l for l in network.layers if l in covered)
        unknown = partition.assignment.keys() - network.nodes
        if unknown:
            raise ValueError(f"partition names vertex {min(unknown)}, which the network lacks")
        unassigned = network.nodes - partition.assignment.keys()
        if unassigned:
            raise ValueError(f"partition gives vertex {min(unassigned)} no community")
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<graphml xmlns="{_GRAPHML_NS}">',
    ]
    for key_id, domain, name, kind in _KEYS:
        lines.append(
            f'  <key id="{key_id}" for="{domain}" attr.name="{name}" attr.type="{kind}"/>'
        )
    lines.append('  <graph id="G" edgedefault="undirected">')
    lines.append(
        f'    <data key="d_layers">{json.dumps(list(network.layers)).translate(_XML)}</data>'
    )

    ordered = sorted(network.nodes)
    ids = {node: f"n{i}" for i, node in enumerate(ordered)}
    for node in ordered:
        lines.append(f'    <node id="{ids[node]}">')
        lines.append(f'      <data key="d_entity">{node.entity.translate(_XML)}</data>')
        lines.append(f'      <data key="d_layer">{node.layer.translate(_XML)}</data>')
        if partition is not None:
            lines.append(
                f'      <data key="d_community">{partition.assignment[node]}</data>'
            )
        lines.append("    </node>")

    vertex_ids = [ids[v] for v in network.vertices]
    for kind, (a, b, weights) in (("intra", network.intra), ("inter", network.inter)):
        for i, j, w in zip(a.tolist(), b.tolist(), weights.tolist()):
            lines.append(f'    <edge source="{vertex_ids[i]}" target="{vertex_ids[j]}">')
            lines.append(f'      <data key="d_weight">{w:.17g}</data>')
            lines.append(f'      <data key="d_kind">{kind}</data>')
            lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    with _open_write(target) as fh:
        fh.write("\n".join(lines) + "\n")
