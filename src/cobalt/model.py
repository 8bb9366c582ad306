"""Domain types shared by every stage of the pipeline.

A :class:`ScoreTable` holds one numeric score per (entity, layer) cell, with
missingness kept explicit: absent cells are simply not present in the mapping,
never encoded as a sentinel value. All types are immutable after construction
and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple


class DegenerateLayerError(ValueError):
    """A layer has zero variance and cannot be normalized."""


class InsufficientDataError(ValueError):
    """A layer has fewer present scores than the operation requires."""


class NodeRef(NamedTuple):
    """One entity's copy inside one layer; the unit of community assignment."""

    entity: str
    layer: str


Edge = tuple[NodeRef, NodeRef]


def edge_key(a: NodeRef, b: NodeRef) -> Edge:
    """Canonical undirected edge key (endpoints in sorted order)."""
    if a == b:
        raise ValueError(f"self-loop on {a}")
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ScoreTable:
    """Entities x layers score matrix with explicit missingness.

    ``scores`` maps (entity, layer) to a finite value and contains only the
    cells that are present. ``ranges`` optionally declares the valid [lo, hi]
    interval per layer. Entity and layer iteration order is the input order
    and is kept fixed for determinism.
    """

    entities: tuple[str, ...]
    layers: tuple[str, ...]
    scores: Mapping[tuple[str, str], float]
    ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def has(self, entity: str, layer: str) -> bool:
        return (entity, layer) in self.scores

    def get(self, entity: str, layer: str) -> float | None:
        return self.scores.get((entity, layer))

    def layer_values(self, layer: str) -> tuple[list[str], list[float]]:
        """Entities with a value in ``layer`` (table order) and their scores."""
        if layer not in self.layers:
            raise ValueError(f"unknown layer {layer!r}")
        present = [e for e in self.entities if (e, layer) in self.scores]
        return present, [self.scores[(e, layer)] for e in present]

    def is_complete(self) -> bool:
        return len(self.scores) == len(self.entities) * len(self.layers)

    def subset_entities(self, keep: Iterable[str]) -> "ScoreTable":
        """New table restricted to ``keep``, preserving entity order."""
        kept = set(keep)
        entities = tuple(e for e in self.entities if e in kept)
        scores = {
            (e, l): v for (e, l), v in self.scores.items() if e in kept
        }
        return ScoreTable(entities, self.layers, scores, dict(self.ranges))


@dataclass(frozen=True)
class CovariateTable:
    """Per-entity age and gender code; covers a subset of the score table."""

    entities: tuple[str, ...]
    age: Mapping[str, float]
    gender: Mapping[str, str]


@dataclass(frozen=True)
class TargetTable:
    """Post-treatment scores per (entity, layer); cells may be absent."""

    entities: tuple[str, ...]
    layers: tuple[str, ...]
    values: Mapping[tuple[str, str], float]


@dataclass(frozen=True)
class MultiLayerNetwork:
    """Weighted multi-layer network over node-layer vertices.

    ``intra_edges`` connect two entities within one layer, ``inter_edges``
    couple the same entity across two layers. Edges are undirected, stored
    once under the canonical endpoint order, and always carry weight > 0.
    """

    layers: tuple[str, ...]
    nodes: frozenset[NodeRef]
    intra_edges: Mapping[Edge, float]
    inter_edges: Mapping[Edge, float]

    def __post_init__(self) -> None:
        layer_set = set(self.layers)
        if len(layer_set) != len(self.layers):
            raise ValueError("duplicate layer in network")
        for node in self.nodes:
            if node.layer not in layer_set:
                raise ValueError(f"node {node} references unknown layer")
        nodes = self.nodes
        for intra, edges in ((True, self.intra_edges), (False, self.inter_edges)):
            for (a, b), w in edges.items():
                if intra:
                    if a.layer != b.layer:
                        raise ValueError(f"intra edge {a}-{b} spans layers")
                elif a.entity != b.entity or a.layer == b.layer:
                    raise ValueError(
                        f"inter edge {a}-{b} must couple one entity across layers"
                    )
                if a == b:
                    raise ValueError(f"self-loop on {a}")
                # once a != b, the canonical key edge_key(a, b) is (a, b) iff a < b
                if not a < b:
                    raise ValueError(f"edge {a}-{b} not in canonical order")
                if a not in nodes or b not in nodes:
                    raise ValueError(f"edge {a}-{b} has endpoint outside node set")
                if not (w > 0.0) or not math.isfinite(w):
                    raise ValueError(f"edge {a}-{b} has non-positive weight {w}")

    def layer_nodes(self, layer: str) -> set[str]:
        return {n.entity for n in self.nodes if n.layer == layer}

    def entity_set(self) -> set[str]:
        return {n.entity for n in self.nodes}

    def subnetwork(self, layers: Iterable[str]) -> "MultiLayerNetwork":
        """Induced network on ``layers`` (order taken from the argument)."""
        chosen = tuple(layers)
        missing = [l for l in chosen if l not in self.layers]
        if missing:
            raise ValueError(f"unknown layers {missing}")
        keep = set(chosen)
        nodes = frozenset(n for n in self.nodes if n.layer in keep)
        intra = {e: w for e, w in self.intra_edges.items() if e[0].layer in keep}
        inter = {
            e: w
            for e, w in self.inter_edges.items()
            if e[0].layer in keep and e[1].layer in keep
        }
        return MultiLayerNetwork(chosen, nodes, intra, inter)


@dataclass(frozen=True)
class Partition:
    """Community assignment over node-layer vertices plus its quality score."""

    assignment: Mapping[NodeRef, int]
    quality: float

    def community_count(self) -> int:
        return len(set(self.assignment.values()))


def validate_score_table(table: ScoreTable) -> list[str]:
    """All invariant violations of ``table``; empty when the table is valid.

    Each violation names the offending entity, layer, or cell. Entities with
    every layer missing are rejected here rather than silently carried along.
    """
    violations: list[str] = []
    if len(table.entities) < 2:
        violations.append(f"table needs at least 2 entities, has {len(table.entities)}")
    if len(table.layers) < 1:
        violations.append("table needs at least 1 layer")

    seen_entities: set[str] = set()
    for entity in table.entities:
        if not entity:
            violations.append("empty entity id")
        if entity in seen_entities:
            violations.append(f"duplicate entity id {entity!r}")
        seen_entities.add(entity)

    seen_layers: set[str] = set()
    for layer in table.layers:
        if not layer:
            violations.append("empty layer id")
        if layer in seen_layers:
            violations.append(f"duplicate layer id {layer!r}")
        seen_layers.add(layer)

    for (entity, layer), value in table.scores.items():
        cell = f"cell ({entity!r}, {layer!r})"
        if entity not in seen_entities:
            violations.append(f"{cell} references unknown entity")
        if layer not in seen_layers:
            violations.append(f"{cell} references unknown layer")
        if not math.isfinite(value):
            violations.append(f"{cell} is not finite: {value}")
            continue
        bounds = table.ranges.get(layer)
        if bounds is not None and not (bounds[0] <= value <= bounds[1]):
            violations.append(
                f"{cell} value {value} outside declared range [{bounds[0]}, {bounds[1]}]"
            )

    for entity in table.entities:
        if entity and not any((entity, l) in table.scores for l in table.layers):
            violations.append(f"entity {entity!r} has no score in any layer")

    return violations


def layer_node_set(table: ScoreTable, layer: str) -> set[str]:
    """Entities whose cell in ``layer`` is present."""
    if layer not in table.layers:
        raise ValueError(f"unknown layer {layer!r}")
    return {e for e in table.entities if (e, layer) in table.scores}
