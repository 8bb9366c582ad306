"""Output checks and counters, computed outside the timed operations.

Checks return a list of problems (empty when the outputs are right). They
re-derive each claim from the artifacts through cobalt's public API and an
independent connectivity test, never by trusting a stored number.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Iterable, Mapping

from cobalt import io as cio
from cobalt.community import SupraGraph, multislice_modularity
from cobalt.model import MultiLayerNetwork, NodeRef
from cobalt.pruning import quantize_weights

QUALITY_TOL = 1e-12
TIE_WEIGHT = 1.0 / (2 * 1e-9)
EXACT_FLOAT_INT = 2.0**53


def artifact_digest(out: Path) -> tuple[str, int]:
    """SHA-256 over every artifact (relative name and bytes), and total bytes."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(len(data).to_bytes(8, "little") + data)
        size += len(data)
    return digest.hexdigest(), size


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _components(nodes: Iterable[NodeRef], edges: Iterable[tuple[NodeRef, NodeRef]]) -> int:
    parent = {n: n for n in nodes}

    def find(x: NodeRef) -> NodeRef:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = len(parent)
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def check_partition(
    network: MultiLayerNetwork,
    layers: list[str],
    assignment: Mapping[NodeRef, int],
    stored_quality: float,
    gamma: float,
    label: str,
) -> list[str]:
    """Stored quality equals the recomputed modularity; communities connected."""
    sub = network.subnetwork(layers)
    if set(assignment) != set(sub.nodes):
        return [f"{label}: partition does not cover exactly the network's vertices"]
    problems = []
    quality = multislice_modularity(SupraGraph(sub), assignment, gamma)
    if abs(quality - stored_quality) > QUALITY_TOL:
        problems.append(f"{label}: stored quality {stored_quality!r} != modularity {quality!r}")
    same = [
        (a, b)
        for a, b in itertools.chain(sub.intra_edges, sub.inter_edges)
        if assignment[a] == assignment[b]
    ]
    if _components(sub.nodes, same) != len(set(assignment.values())):
        problems.append(f"{label}: a community is not connected")
    return problems


def check_selection(out: Path, network: MultiLayerNetwork) -> tuple[list[str], float]:
    """Checks ``trace.json`` and every ``partition_iter*.json`` of a select run
    against ``network``; returns the problems and the final modularity."""
    trace = _load(out / "trace.json")
    gamma = trace["config"]["leiden"]["gamma"]
    iterations = trace["iterations"]
    files = sorted(out.glob("partition_iter*.json"))
    problems = []
    if not iterations or len(files) != len(iterations):
        problems.append(f"{len(files)} partition files for {len(iterations)} iterations")
    for path, record in zip(files, iterations):
        raw = _load(path)
        partition = cio.partition_from_dict(raw)
        if raw["quality"] != record["modularity"]:
            problems.append(f"{path.name}: quality differs from trace.json")
        problems += check_partition(
            network, raw["layers"], partition.assignment, partition.quality, gamma, path.name
        )
    return problems, iterations[-1]["modularity"] if iterations else float("nan")


def check_regression(out: Path, layer_count: int, iteration_count: int) -> list[str]:
    report = _load(out / "regression.json")
    if report.get("format") != "cobalt-regression":
        return ["regression.json has the wrong format"]
    expected = layer_count * (1 + iteration_count)
    got = len(report["rows"]) + len(report["metadata"]["skipped"])
    if got != expected or not report["rows"]:
        return [f"regression.json covers {got} target/feature pairs, expected {expected}"]
    return []


def check_sweep(
    out: Path, reference, pruned: MultiLayerNetwork, n: int, gamma: float
) -> tuple[list[str], float, float]:
    """Checks ``sweep.json`` against a library rerun of its 0% reference;
    returns the problems, the reference's final modularity and the largest
    modularity drift over ratios up to 0.5."""
    report = _load(out / "sweep.json")
    ref = report["reference"]
    problems = []
    if list(ref["modularity"]) != [r.modularity for r in reference.records]:
        problems.append("sweep.json reference differs from a library rerun")
    for record in reference.records:
        problems += check_partition(
            pruned,
            list(record.layers),
            record.partition.assignment,
            record.modularity,
            gamma,
            f"reference iteration {record.index}",
        )
    if [e["ratio"] for e in report["ratios"]] != report["config"]["grid"]:
        problems.append("sweep.json ratios do not follow the grid")
    drift = 0.0
    for entry in report["ratios"]:
        removed = entry["removed"]
        if len(set(removed)) != len(removed) or len(removed) != round(entry["ratio"] * n):
            problems.append(f"ratio {entry['ratio']}: wrong removal set")
        if entry["failed"] or entry["ratio"] > 0.5:
            continue
        for got, want in zip(entry["modularity"], ref["modularity"]):
            drift = max(drift, abs(got - want))
    return problems, ref["modularity"][-1], drift


def network_counters(complete: MultiLayerNetwork, scale: float) -> dict[str, float]:
    """Edge and tie counts and the largest quantized universe total over 2^53."""
    universes: dict[tuple[str, ...], dict] = {}
    for edge, w in complete.intra_edges.items():
        universes.setdefault((edge[0].layer,), {})[edge] = w
    for edge, w in complete.inter_edges.items():
        universes.setdefault(tuple(sorted((edge[0].layer, edge[1].layer))), {})[edge] = w
    largest = max(
        (sum(quantize_weights(u, scale).values()) for u in universes.values()), default=0
    )
    ties = sum(
        1
        for w in itertools.chain(complete.intra_edges.values(), complete.inter_edges.values())
        if w >= TIE_WEIGHT
    )
    return {
        "intra": len(complete.intra_edges),
        "inter": len(complete.inter_edges),
        "ties": ties,
        "max_total_over_2p53": largest / EXACT_FLOAT_INT,
    }
