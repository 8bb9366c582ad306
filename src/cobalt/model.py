"""Domain types shared by every stage of the pipeline.

A :class:`ScoreTable` holds one numeric score per (entity, layer) cell, with
missingness kept explicit: absent cells are simply not present in the mapping,
never encoded as a sentinel value. A :class:`MultiLayerNetwork` keeps its
edges as numpy arrays over vertex ids (see its docstring for the layout). All
types are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class DegenerateLayerError(ValueError):
    """A layer has zero variance and cannot be normalized."""


class InsufficientDataError(ValueError):
    """A layer has fewer present scores than the operation requires."""


class NodeRef(NamedTuple):
    """One entity's copy inside one layer; the unit of community assignment."""

    entity: str
    layer: str


Edge = tuple[NodeRef, NodeRef]


@dataclass(frozen=True)
class ScoreTable:
    """Entities x layers score matrix with explicit missingness.

    ``scores`` maps (entity, layer) to a finite value and contains only the
    cells that are present. Entity and layer iteration order is the input
    order and is kept fixed for determinism. Post-treatment targets use the
    same type, keyed by the layer they follow up.
    """

    entities: tuple[str, ...]
    layers: tuple[str, ...]
    scores: Mapping[tuple[str, str], float]

    def has(self, entity: str, layer: str) -> bool:
        return (entity, layer) in self.scores

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
        return ScoreTable(entities, self.layers, scores)


@dataclass(frozen=True)
class CovariateTable:
    """Per-entity age and gender code; covers a subset of the score table."""

    entities: tuple[str, ...]
    age: Mapping[str, float]
    gender: Mapping[str, str]


class EdgeArrays(NamedTuple):
    """Edges as parallel arrays: endpoint vertex ids ``a``, ``b`` and weights ``w``."""

    a: np.ndarray
    b: np.ndarray
    w: np.ndarray


def layer_name_rank(layers: Sequence[str]) -> np.ndarray:
    """Position of each layer's name in sorted order, per layer index."""
    return np.array([sorted(layers).index(layer) for layer in layers], dtype=np.int64)


def layer_subset(layers: Sequence[str], chosen: Iterable[str]) -> tuple[str, ...]:
    """``chosen`` as a tuple, refused if it names a layer outside ``layers``
    or names one twice."""
    chosen = tuple(chosen)
    missing = [l for l in chosen if l not in layers]
    if missing:
        raise ValueError(f"unknown layers {missing}")
    if len(set(chosen)) != len(chosen):
        raise ValueError("duplicate layer in network")
    return chosen


class MultiLayerNetwork:
    """Weighted multi-layer network over node-layer vertices.

    ``intra_edges`` connect two entities within one layer, ``inter_edges``
    couple the same entity across two layers. Edges are undirected, stored
    once under the canonical endpoint order, and always carry weight > 0.

    Layout. Vertex ``i`` is ``vertices[i]``, in supra-graph order: by layer
    (in ``layers`` order), then by entity name, so a layer's vertices are one
    block; ``layer_of`` gives each vertex's layer index. Edges live in two
    :class:`EdgeArrays` over these ids, ``intra`` with ``a < b`` and
    ``inter`` with ``a`` in the layer whose name sorts first: both are the
    canonical key order. The constructor alone decides what a valid network
    is: it checks vertices and edges in this layout, never reorders them.
    Each edge set is 1-D numpy columns of one length, with integer ids into
    ``vertices``, stored as int64, and no edge listed twice. An error opens
    with the part it refuses: ``layers``, ``vertices``, ``intra`` or
    ``inter``.
    ``nodes`` (the vertex set), ``intra_edges`` and ``inter_edges``
    (read-only mapping views of the edges) are built on first access.
    """

    def __init__(
        self,
        layers: Iterable[str],
        vertices: Iterable[NodeRef],
        intra: EdgeArrays,
        inter: EdgeArrays,
    ):
        self.layers: tuple[str, ...] = tuple(layers)
        self.vertices: tuple[NodeRef, ...] = tuple(vertices)
        layer_index = {layer: i for i, layer in enumerate(self.layers)}
        if len(layer_index) != len(self.layers):
            twice = min(l for l in layer_index if self.layers.count(l) > 1)
            raise ValueError(f"layers: {twice!r} is listed twice")
        # one pass: each vertex's sort key must exceed the one before it
        keys = [(layer_index.get(v.layer, -1), v.entity) for v in self.vertices]
        for v, key, before in zip(self.vertices, keys, [(-1, ""), *keys]):
            if key[0] < 0:
                raise ValueError(f"vertices: {v} is in no layer of {self.layers}")
            if key <= before:
                problem = "listed twice" if key == before else "out of order"
                raise ValueError(f"vertices: {v} is {problem}")
        self.layer_of = np.array([i for i, _ in keys], dtype=np.int64)
        n, v, name_rank = len(self.vertices), self.vertices, layer_name_rank(self.layers)
        checked = []
        for kind, (a, b, w) in (("intra", intra), ("inter", inter)):
            arrays = all(isinstance(x, np.ndarray) and x.ndim == 1 for x in (a, b, w))
            ids = arrays and {a.dtype.kind, b.dtype.kind} <= {"i", "u"}
            if not (ids and len(a) == len(b) == len(w)):
                raise ValueError(f"{kind}: needs 1-D numpy arrays of one length, with integer ids")
            outside = (np.minimum(a, b) < 0) | (np.maximum(a, b) >= n)
            if outside.any():
                i = int(outside.argmax())
                raise ValueError(f"{kind} edge {a[i]}-{b[i]} has endpoint outside node set")
            # stored as int64, so no consumer computes in a narrow id dtype
            a, b = (x.astype(np.int64, copy=False) for x in (a, b))
            la, lb = self.layer_of[a], self.layer_of[b]
            if kind == "intra":
                rule, canonical = (la != lb, "edge {}-{} spans layers"), a < b
            else:
                entity = np.array([u.entity for u in v], dtype=object)
                split = (entity[a] != entity[b]) | (la == lb)
                rule = split, "edge {}-{} must couple one entity across layers"
                canonical = name_rank[la] < name_rank[lb]
            # all edges at once; the first bad edge of the first broken rule is named
            for bad, message in (
                rule,
                (a == b, "self-loop on {}"),
                (~canonical, "edge {}-{} not in canonical order"),
                (~(w > 0.0) | ~np.isfinite(w), "edge {}-{} has non-positive weight {}"),
            ):
                if bad.any():
                    i = int(bad.argmax())
                    raise ValueError(f"{kind} " + message.format(v[a[i]], v[b[i]], float(w[i])))
            key = np.sort(a * n + b, kind="stable")  # linear time on already sorted keys
            repeated = key[1:][key[1:] == key[:-1]]
            if repeated.size:
                i, j = divmod(int(repeated[0]), n)
                raise ValueError(f"{kind} edge {v[i]}-{v[j]} is listed twice")
            checked.append(EdgeArrays(a, b, w))
        self.intra, self.inter = checked
        for array in (self.layer_of, *self.intra, *self.inter):
            array.flags.writeable = False

    def _view(self, edges: EdgeArrays) -> Mapping[Edge, float]:
        v = self.vertices
        a, b, w = (x.tolist() for x in edges)
        return MappingProxyType({(v[i], v[j]): x for i, j, x in zip(a, b, w)})

    @cached_property
    def nodes(self) -> frozenset[NodeRef]:
        return frozenset(self.vertices)

    @cached_property
    def intra_edges(self) -> Mapping[Edge, float]:
        return self._view(self.intra)

    @cached_property
    def inter_edges(self) -> Mapping[Edge, float]:
        return self._view(self.inter)

    def layer_nodes(self, layer: str) -> set[str]:
        return {n.entity for n in self.vertices if n.layer == layer}

    def subnetwork(self, layers: Iterable[str]) -> "MultiLayerNetwork":
        """Induced network on ``layers`` (order taken from the argument)."""
        chosen = layer_subset(self.layers, layers)
        # the chosen layers' vertex blocks, in the chosen order
        blocks = [np.flatnonzero(self.layer_of == self.layers.index(l)) for l in chosen]
        old = np.concatenate([np.zeros(0, dtype=np.int64), *blocks])
        new_id = np.full(len(self.vertices), -1, dtype=np.int64)
        new_id[old] = np.arange(len(old))

        def induced(edges: EdgeArrays) -> EdgeArrays:
            a, b = new_id[edges.a], new_id[edges.b]
            inside = (a >= 0) & (b >= 0)
            return EdgeArrays(a[inside], b[inside], edges.w[inside])

        kept = [self.vertices[i] for i in old.tolist()]
        return MultiLayerNetwork(chosen, kept, induced(self.intra), induced(self.inter))


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
        try:
            finite = math.isfinite(value)
        except OverflowError:
            violations.append(f"{cell} is outside the float range")
            continue
        except (TypeError, ValueError):
            violations.append(f"{cell} is not a number: {value!r:.40}")
            continue
        if not finite:
            violations.append(f"{cell} is not finite: {value}")

    for entity in table.entities:
        if entity and not any((entity, l) in table.scores for l in table.layers):
            violations.append(f"entity {entity!r} has no score in any layer")

    return violations
