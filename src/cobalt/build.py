"""Network construction: z-score normalization and similarity edges.

Every pair of entities inside one layer is joined by an edge weighted with
the reciprocal of their normalized score difference, so close scores mean
heavy edges. The same transformation couples an entity's copies across
layers. Identical normalized scores would divide by zero, so the difference
is clamped below at ``EPSILON``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .model import (
    DegenerateLayerError,
    Edge,
    InsufficientDataError,
    MultiLayerNetwork,
    NodeRef,
    ScoreTable,
)

EPSILON = 1e-9


@dataclass(frozen=True)
class LayerNormalization:
    """Z-scored column of one layer plus the moments used to compute it."""

    layer: str
    mean: float
    std: float
    values: Mapping[str, float]


def normalize_layer(table: ScoreTable, layer: str) -> LayerNormalization:
    """Z-score the present cells of ``layer`` (population standard deviation).

    Raises :class:`InsufficientDataError` for fewer than two present scores
    and :class:`DegenerateLayerError` for a constant column.
    """
    entities, raw = table.layer_values(layer)
    if len(raw) < 2:
        raise InsufficientDataError(
            f"layer {layer!r} has {len(raw)} present scores, needs at least 2"
        )
    arr = np.asarray(raw, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std())
    if std <= 0.0:
        raise DegenerateLayerError(f"layer {layer!r} is constant (std = 0)")
    z = (arr - mean) / std
    return LayerNormalization(layer, mean, std, dict(zip(entities, z.tolist())))


def edge_weight(z_a, z_b, eps: float = EPSILON):
    """Weight 1/|z_a - z_b| of an intra-layer or coupling edge, clamped to
    1/eps for near-identical scores. Accepts scalars or arrays."""
    return 1.0 / np.maximum(np.abs(z_a - z_b), eps)


def build_network(
    table: ScoreTable, layers: Iterable[str] | None = None
) -> MultiLayerNetwork:
    """Complete multi-layer network over ``layers`` (defaults to all layers).

    Each layer contributes the complete graph over its present entities, and
    each pair of layers one coupling edge per entity present in both.
    """
    chosen = tuple(layers) if layers is not None else table.layers
    if not chosen:
        raise ValueError("need at least one layer")
    norms = [normalize_layer(table, layer) for layer in chosen]

    nodes: list[NodeRef] = []
    intra: dict[Edge, float] = {}
    for norm in norms:
        # sorted entities make every i < j pair a canonical edge key
        refs = [NodeRef(e, norm.layer) for e in sorted(norm.values)]
        z = np.array([norm.values[r.entity] for r in refs])
        i, j = np.triu_indices(len(refs), k=1)
        keys = [(refs[p], refs[q]) for p, q in zip(i.tolist(), j.tolist())]
        intra.update(zip(keys, edge_weight(z[i], z[j]).tolist()))
        nodes.extend(refs)

    inter: dict[Edge, float] = {}
    for a, b in itertools.combinations(norms, 2):
        lo, hi = sorted((a.layer, b.layer))
        for entity, z_a in a.values.items():
            z_b = b.values.get(entity)
            if z_b is not None:
                key = (NodeRef(entity, lo), NodeRef(entity, hi))
                inter[key] = float(edge_weight(z_a, z_b))
    return MultiLayerNetwork(chosen, frozenset(nodes), intra, inter)
