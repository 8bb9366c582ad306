"""Ingestion and serialization.

CSV inputs: scores (``entity,<layer>,...``, empty cell = missing),
covariates (``entity,age,gender``), targets (``entity,<layer>_t1,...``).
Artifacts are deterministic JSON (sorted keys, no timestamps) except
networks, which can also round-trip through GraphML with full attributes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, TextIO
from xml.etree import ElementTree

from .evaluation import MissingnessSweepReport, RegressionReport, SweepEntry
from .model import (
    CovariateTable,
    MultiLayerNetwork,
    NodeRef,
    Partition,
    ScoreTable,
    TargetTable,
    edge_key,
)
from .selector import IterationRecord, IterationTrace, LayerCostBreakdown


class InputFormatError(ValueError):
    """Malformed input file; the message names the offending column or row."""


def _float_repr(value: float) -> str:
    return f"{value:.17g}"


# ---------------------------------------------------------------------------
# CSV


def read_score_table(source: str | Path | TextIO) -> ScoreTable:
    rows = _read_csv(source)
    if not rows:
        raise InputFormatError("score file is empty")
    header = rows[0]
    if not header or header[0] != "entity":
        raise InputFormatError(
            f"score header must start with 'entity', got {header[:1] or ['<nothing>']}"
        )
    layers = tuple(header[1:])
    for pos, layer in enumerate(layers, start=2):
        if not layer:
            raise InputFormatError(f"empty layer name in header column {pos}")
    if len(set(layers)) != len(layers):
        dupe = sorted({l for l in layers if layers.count(l) > 1})
        raise InputFormatError(f"duplicate layer columns: {dupe}")

    entities: list[str] = []
    scores: dict[tuple[str, str], float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InputFormatError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        entity = row[0]
        entities.append(entity)
        for layer, cell in zip(layers, row[1:]):
            if cell == "":
                continue
            try:
                scores[(entity, layer)] = float(cell)
            except ValueError as exc:
                raise InputFormatError(
                    f"line {lineno}, column {layer!r}: not a number: {cell!r}"
                ) from exc
    return ScoreTable(tuple(entities), layers, scores)


def write_score_table(table: ScoreTable, target: str | Path | TextIO) -> None:
    with _open_write(target) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["entity", *table.layers])
        for entity in table.entities:
            row: list[str] = [entity]
            for layer in table.layers:
                value = table.get(entity, layer)
                row.append("" if value is None else repr(value))
            writer.writerow(row)


def read_covariates(source: str | Path | TextIO) -> CovariateTable:
    rows = _read_csv(source)
    if not rows or rows[0] != ["entity", "age", "gender"]:
        raise InputFormatError("covariates header must be 'entity,age,gender'")
    entities: list[str] = []
    age: dict[str, float] = {}
    gender: dict[str, str] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise InputFormatError(f"line {lineno}: expected 3 cells, got {len(row)}")
        entity, age_cell, gender_cell = row
        entities.append(entity)
        if age_cell != "":
            try:
                value = float(age_cell)
            except ValueError as exc:
                raise InputFormatError(
                    f"line {lineno}, column 'age': not a number: {age_cell!r}"
                ) from exc
            if not math.isfinite(value):
                raise InputFormatError(
                    f"line {lineno}, column 'age': not finite: {age_cell!r}"
                )
            age[entity] = value
        if gender_cell != "":
            gender[entity] = gender_cell
    return CovariateTable(tuple(entities), age, gender)


def read_targets(source: str | Path | TextIO) -> TargetTable:
    rows = _read_csv(source)
    if not rows:
        raise InputFormatError("targets file is empty")
    header = rows[0]
    if not header or header[0] != "entity":
        raise InputFormatError("targets header must start with 'entity'")
    layers: list[str] = []
    for pos, name in enumerate(header[1:], start=2):
        if not name.endswith("_t1") or name == "_t1":
            raise InputFormatError(
                f"targets column {pos} must be named '<layer>_t1', got {name!r}"
            )
        layers.append(name[: -len("_t1")])

    entities: list[str] = []
    values: dict[tuple[str, str], float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InputFormatError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        entity = row[0]
        entities.append(entity)
        for layer, cell in zip(layers, row[1:]):
            if cell == "":
                continue
            try:
                values[(entity, layer)] = float(cell)
            except ValueError as exc:
                raise InputFormatError(
                    f"line {lineno}, column {layer!r}_t1: not a number: {cell!r}"
                ) from exc
    return TargetTable(tuple(entities), tuple(layers), values)


def _read_csv(source: str | Path | TextIO) -> list[list[str]]:
    if hasattr(source, "read"):
        return [row for row in csv.reader(source)]
    with open(source, "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh)]


def _open_write(target: str | Path | TextIO):
    if hasattr(target, "write"):
        import contextlib

        return contextlib.nullcontext(target)
    return open(target, "w", encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# JSON artifacts


def dump_json(payload: Any, target: str | Path | TextIO) -> None:
    with _open_write(target) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _json_safe(value: float) -> float | str | None:
    if value is None or math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _json_number(raw: Any) -> float:
    if isinstance(raw, str):
        return float(raw)
    return raw


def network_to_dict(
    network: MultiLayerNetwork, pruning_meta: dict | None = None
) -> dict:
    return {
        "format": "cobalt-network",
        "version": 1,
        "layers": list(network.layers),
        "nodes": sorted([n.entity, n.layer] for n in network.nodes),
        "intra_edges": sorted(
            [a.entity, b.entity, a.layer, w]
            for (a, b), w in network.intra_edges.items()
        ),
        "inter_edges": sorted(
            [a.entity, a.layer, b.layer, w]
            for (a, b), w in network.inter_edges.items()
        ),
        "pruning": pruning_meta,
    }


_NUMBER = (int, float)
_EDGE = (str, str, str, _NUMBER)
_MEMBER = (str, str, int)


def _field(raw: Any, name: str, kind: type | tuple[type, ...]) -> Any:
    """``raw[name]`` if present and of type ``kind``; otherwise an
    :class:`InputFormatError` that names the field."""
    if name not in raw:
        raise InputFormatError(f"artifact field {name!r} is missing")
    value = raw[name]
    if not isinstance(value, kind):
        raise InputFormatError(
            f"artifact field {name!r} has type {type(value).__name__}"
        )
    return value


def _rows(raw: Any, name: str, kinds: tuple) -> list[list]:
    """The list field ``name`` whose entries are lists typed by ``kinds``."""
    rows = _field(raw, name, list)
    for row in rows:
        if not (
            isinstance(row, list)
            and len(row) == len(kinds)
            and all(map(isinstance, row, kinds))
        ):
            raise InputFormatError(
                f"artifact field {name!r} holds ill-typed entry {row!r}"
            )
    return rows


def _layers(raw: dict) -> tuple[str, ...]:
    layers = _field(raw, "layers", list)
    if not all(isinstance(layer, str) for layer in layers):
        raise InputFormatError(
            f"artifact field 'layers' holds a non-string in {layers!r}"
        )
    return tuple(layers)


def _artifact(raw: Any, kind: str) -> dict:
    if not isinstance(raw, dict) or raw.get("format") != f"cobalt-{kind}":
        raise InputFormatError(
            f"not a {kind} artifact: needs a JSON object with field 'format'"
        )
    return raw


def network_from_dict(raw: Any) -> MultiLayerNetwork:
    raw = _artifact(raw, "network")
    layers = _layers(raw)
    nodes = frozenset(NodeRef(e, l) for e, l in _rows(raw, "nodes", (str, str)))
    intra = {
        edge_key(NodeRef(e1, layer), NodeRef(e2, layer)): w
        for e1, e2, layer, w in _rows(raw, "intra_edges", _EDGE)
    }
    inter = {
        edge_key(NodeRef(e, la), NodeRef(e, lb)): w
        for e, la, lb, w in _rows(raw, "inter_edges", _EDGE)
    }
    return MultiLayerNetwork(layers, nodes, intra, inter)


def partition_to_dict(partition: Partition, extra: dict | None = None) -> dict:
    payload = {
        "format": "cobalt-partition",
        "version": 1,
        "quality": partition.quality,
        "assignment": sorted(
            [n.entity, n.layer, c] for n, c in partition.assignment.items()
        ),
    }
    if extra:
        payload.update(extra)
    return payload


def partition_from_dict(raw: Any) -> Partition:
    raw = _artifact(raw, "partition")
    assignment = {NodeRef(e, l): c for e, l, c in _rows(raw, "assignment", _MEMBER)}
    return Partition(assignment, _field(raw, "quality", _NUMBER))


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
                "partition": sorted(
                    [n.entity, n.layer, c]
                    for n, c in record.partition.assignment.items()
                ),
            }
        )
    return {
        "format": "cobalt-trace",
        "version": 1,
        "config": config or {},
        "iterations": iterations,
    }


def trace_from_dict(raw: Any) -> IterationTrace:
    raw = _artifact(raw, "trace")
    records = []
    for item in _field(raw, "iterations", list):
        if not isinstance(item, dict):
            raise InputFormatError(f"artifact field 'iterations' holds {item!r}")
        layer = _field(item, "layer", str)
        cost = _field(item, "cost", (*_NUMBER, str, type(None)))
        breakdown = None
        if cost is not None:
            breakdown = LayerCostBreakdown(
                layer,
                _field(item, "availability", _NUMBER),
                _field(item, "community_similarity", _NUMBER),
                _json_number(cost),
            )
        assignment = {
            NodeRef(e, l): c for e, l, c in _rows(item, "partition", _MEMBER)
        }
        modularity = _field(item, "modularity", _NUMBER)
        records.append(
            IterationRecord(
                index=_field(item, "index", int),
                layer=layer,
                breakdown=breakdown,
                partition=Partition(assignment, modularity),
                modularity=modularity,
                layers=_layers(item),
                node_count=_field(item, "nodes", int),
                intra_edge_count=_field(item, "intra_edges", int),
                inter_edge_count=_field(item, "inter_edges", int),
            )
        )
    return IterationTrace(tuple(records))


def sweep_report_to_dict(report: MissingnessSweepReport) -> dict:
    def entry(e: SweepEntry) -> dict:
        return {
            "ratio": e.ratio,
            "seed": e.seed,
            "removed": list(e.removed),
            "modularity": list(e.modularity),
            "best_iteration": e.best_iteration,
            "failed": e.failed,
            "reason": e.reason,
        }

    return {
        "format": "cobalt-sweep",
        "version": 1,
        "config": report.config,
        "reference": entry(report.reference),
        "ratios": [entry(e) for e in report.entries],
    }


def regression_report_to_dict(report: RegressionReport) -> dict:
    return {
        "format": "cobalt-regression",
        "version": 1,
        "metadata": report.metadata,
        "rows": [
            {
                "target": r.target,
                "feature_set": r.feature_set,
                "model": r.model,
                "lambda": r.best_lambda,
                "mae": _json_safe(r.mae),
                "mse": _json_safe(r.mse),
                "r2": _json_safe(r.r2),
                "folds": r.folds,
                "n": r.n,
            }
            for r in report.rows
        ],
    }


def regression_report_to_csv(report: RegressionReport, target: str | Path | TextIO) -> None:
    with _open_write(target) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["target", "feature_set", "model", "lambda", "mae", "mse", "r2", "folds", "n"]
        )
        for r in report.rows:
            writer.writerow(
                [r.target, r.feature_set, r.model, r.best_lambda, r.mae, r.mse, r.r2, r.folds, r.n]
            )


# ---------------------------------------------------------------------------
# GraphML

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"

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

    Weights carry 17 significant digits so the import is bit-exact.
    """
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
        f'    <data key="d_layers">{_xml_escape(json.dumps(list(network.layers)))}</data>'
    )

    ordered = sorted(network.nodes)
    ids = {node: f"n{i}" for i, node in enumerate(ordered)}
    for node in ordered:
        lines.append(f'    <node id="{ids[node]}">')
        lines.append(f'      <data key="d_entity">{_xml_escape(node.entity)}</data>')
        lines.append(f'      <data key="d_layer">{_xml_escape(node.layer)}</data>')
        if partition is not None:
            lines.append(
                f'      <data key="d_community">{partition.assignment[node]}</data>'
            )
        lines.append("    </node>")

    for kind, edges in (("intra", network.intra_edges), ("inter", network.inter_edges)):
        for (a, b) in sorted(edges):
            w = edges[(a, b)]
            lines.append(f'    <edge source="{ids[a]}" target="{ids[b]}">')
            lines.append(f'      <data key="d_weight">{_float_repr(w)}</data>')
            lines.append(f'      <data key="d_kind">{kind}</data>')
            lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    with _open_write(target) as fh:
        fh.write("\n".join(lines) + "\n")


def import_graphml(
    source: str | Path | TextIO,
) -> tuple[MultiLayerNetwork, Partition | None]:
    """Parse a file written by :func:`export_graphml`."""
    tree = ElementTree.parse(source)
    root = tree.getroot()
    ns = {"g": _GRAPHML_NS}
    graph = root.find("g:graph", ns)
    if graph is None:
        raise InputFormatError("no <graph> element")

    key_names = {
        el.get("id"): el.get("attr.name") for el in root.findall("g:key", ns)
    }

    layers: tuple[str, ...] = ()
    for data in graph.findall("g:data", ns):
        if key_names.get(data.get("key")) == "layers":
            layers = tuple(json.loads(data.text or "[]"))

    nodes: dict[str, NodeRef] = {}
    communities: dict[NodeRef, int] = {}
    saw_community = False
    for el in graph.findall("g:node", ns):
        attrs = {
            key_names.get(d.get("key")): d.text
            for d in el.findall("g:data", ns)
        }
        node = NodeRef(attrs["entity"] or "", attrs["layer"] or "")
        nodes[el.get("id") or ""] = node
        if "community" in attrs:
            saw_community = True
            communities[node] = int(attrs["community"] or 0)

    intra: dict = {}
    inter: dict = {}
    for el in graph.findall("g:edge", ns):
        attrs = {
            key_names.get(d.get("key")): d.text
            for d in el.findall("g:data", ns)
        }
        a = nodes[el.get("source") or ""]
        b = nodes[el.get("target") or ""]
        weight = float(attrs["weight"] or "nan")
        if attrs.get("kind") == "inter":
            inter[edge_key(a, b)] = weight
        else:
            intra[edge_key(a, b)] = weight

    network = MultiLayerNetwork(layers, frozenset(nodes.values()), intra, inter)
    partition = Partition(communities, math.nan) if saw_community else None
    return network, partition


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
