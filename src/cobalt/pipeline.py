"""End-to-end wiring: score table -> pruned network -> layer selection."""

from __future__ import annotations

from .build import build_network
from .community import SupraGraph
from .config import PipelineConfig
from .model import MultiLayerNetwork, ScoreTable, validate_score_table
from .pruning import prune_network
from .selector import InitResult, IterationTrace, cobalt_init, cobalt_select


def validated(table: ScoreTable) -> ScoreTable:
    violations = validate_score_table(table)
    if violations:
        raise ValueError("invalid score table:\n" + "\n".join(violations))
    return table


def build_pruned_network(table: ScoreTable, config: PipelineConfig) -> MultiLayerNetwork:
    """Complete network over all layers, then the significance filter."""
    complete = build_network(validated(table))
    return prune_network(
        complete, alpha=config.pruning.alpha, scale=config.pruning.quantization
    )


def initialize(pruned: MultiLayerNetwork, config: PipelineConfig) -> InitResult:
    return cobalt_init(SupraGraph(pruned), config.leiden)


def run_selection(table: ScoreTable, config: PipelineConfig) -> IterationTrace:
    """Full pipeline on a score table; returns the iteration trace."""
    pruned = build_pruned_network(table, config)
    init = initialize(pruned, config)
    return cobalt_select(
        pruned, init, config.leiden, stopping=config.selector.stopping
    )
