"""End-to-end wiring: score table -> pruned network -> layer selection."""

from __future__ import annotations

import numpy as np

from .build import _layout, build_network, normalize_layer
from .community import SupraGraph
from .config import PipelineConfig
from .model import EdgeArrays, MultiLayerNetwork, ScoreTable, validate_score_table
from .pruning import prune_network
from .selector import InitResult, IterationTrace, cobalt_init, cobalt_select


def validated(table: ScoreTable) -> ScoreTable:
    violations = validate_score_table(table)
    if violations:
        raise ValueError("invalid score table:\n" + "\n".join(violations))
    return table


def build_pruned_network(table: ScoreTable, config: PipelineConfig) -> MultiLayerNetwork:
    """``prune_network(build_network(table))``, built and filtered one edge
    universe at a time, so the complete network is never held whole.

    Each layer's complete graph is built and filtered on its own, and its
    survivors move to the layer's block of vertex ids. The couplings, a
    universe per layer pair, are filtered together last.
    """
    layers = validated(table).layers
    alpha, scale = config.pruning.alpha, config.pruning.quantization
    # every layer is z-scored before any edge is built, so a bad layer fails fast
    norms = {layer: normalize_layer(table, layer) for layer in layers}
    vertices, _, couplings = _layout(layers, norms)
    blocks, start = [], 0
    for layer in layers:
        kept = prune_network(build_network(table, [layer]), alpha=alpha, scale=scale)
        blocks.append(EdgeArrays(kept.intra.a + start, kept.intra.b + start, kept.intra.w))
        start += len(kept.vertices)
    intra = EdgeArrays(*(np.concatenate(x) for x in zip(*blocks)))
    no_intra = EdgeArrays(*(x[:0] for x in couplings))
    inter = prune_network(
        MultiLayerNetwork(layers, vertices, no_intra, couplings), alpha=alpha, scale=scale
    ).inter
    return MultiLayerNetwork(layers, vertices, intra, inter)


def initialize(pruned: MultiLayerNetwork, config: PipelineConfig) -> InitResult:
    return cobalt_init(SupraGraph(pruned), config.leiden)


def run_selection(table: ScoreTable, config: PipelineConfig) -> IterationTrace:
    """Full pipeline on a score table; returns the iteration trace."""
    pruned = build_pruned_network(table, config)
    init = initialize(pruned, config)
    return cobalt_select(
        pruned, init, config.leiden, stopping=config.selector.stopping
    )
