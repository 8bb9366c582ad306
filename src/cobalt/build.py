"""Network construction: z-score normalization and similarity edges.

Every pair of entities inside one layer is joined by an edge weighted with
the reciprocal of their normalized score difference, so close scores mean
heavy edges. The same transformation couples an entity's copies across
layers. Identical normalized scores would divide by zero, so the difference
is clamped below at ``EPSILON``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from .model import (
    DegenerateLayerError,
    EdgeArrays,
    InsufficientDataError,
    MultiLayerNetwork,
    NodeRef,
    ScoreTable,
)

EPSILON = 1e-9


def normalize_layer(table: ScoreTable, layer: str) -> dict[str, float]:
    """Z-scores of the present cells of ``layer`` (population standard
    deviation), by entity.

    Raises :class:`InsufficientDataError` for fewer than two present scores
    and :class:`DegenerateLayerError` for a constant column or one whose
    mean, standard deviation or z-scores overflow to a non-finite value.
    """
    entities, raw = table.layer_values(layer)
    if len(raw) < 2:
        raise InsufficientDataError(
            f"layer {layer!r} has {len(raw)} present scores, needs at least 2"
        )
    arr = np.asarray(raw, dtype=float)
    # finite scores near the float limit can overflow the mean, the std or a
    # z-score; that is an error below, not a warning here
    with np.errstate(all="ignore"):
        mean = float(arr.mean())
        std = float(arr.std())
        z = (arr - mean) / std
    if std == 0.0:
        raise DegenerateLayerError(f"layer {layer!r} is constant (std = 0)")
    if not (math.isfinite(mean) and math.isfinite(std) and np.isfinite(z).all()):
        raise DegenerateLayerError(
            f"layer {layer!r} has no finite z-scores (mean = {mean}, std = {std})"
        )
    return dict(zip(entities, z.tolist()))


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
    norms = {layer: normalize_layer(table, layer) for layer in chosen}
    vertices, z, inter = _layout(chosen, norms)
    # a layer's vertices are a block of sorted entities, so every i < j
    # pair within a block is a canonical edge key
    sizes = [len(norms[layer]) for layer in chosen]
    starts = np.cumsum([0] + sizes[:-1])
    a, b = np.concatenate(
        [np.array(np.triu_indices(n, k=1)) + s for n, s in zip(sizes, starts)], axis=1
    )
    intra = EdgeArrays(a, b, edge_weight(z[a], z[b]))
    return MultiLayerNetwork(chosen, vertices, intra, inter)


def _layout(
    layers: tuple[str, ...], norms: dict[str, dict[str, float]]
) -> tuple[list[NodeRef], np.ndarray, EdgeArrays]:
    """Vertices of the network over ``layers``, their z-scores by vertex id,
    and its coupling edges; ``norms`` are the layers' z-scores by entity."""
    # vertex ids in the network's order: by layer, then entity name
    vertices = [NodeRef(e, layer) for layer in layers for e in sorted(norms[layer])]
    z = np.array([norms[v.layer][v.entity] for v in vertices])
    # a coupling's key puts the copy in the layer whose name sorts first
    index = {v: i for i, v in enumerate(vertices)}
    coupled = [
        (index[e, lo], index[e, hi])
        for lo, hi in itertools.combinations(sorted(layers), 2)
        for e in norms[lo]
        if (e, hi) in index
    ]
    c, d = np.array(coupled, dtype=np.int64).reshape(-1, 2).T
    return vertices, z, EdgeArrays(c, d, edge_weight(z[c], z[d]))
