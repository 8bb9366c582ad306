"""Greedy cost-based layer selection over a pruned multi-layer network.

Initialization runs community detection on every single-layer graph and
starts from the one with the best modularity. Each later iteration prices
every remaining layer as

    cost = 1 / availability + community_similarity

where availability is the fraction of incumbent entities the candidate
covers and community similarity is the bidirectional F-measure between the
incumbent partition and the candidate's frozen single-layer partition, both
projected to entities. The cheapest layer is added, detection reruns on the
grown network, and the loop continues until the candidate pool is empty or
the configured stopping condition fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .community import LeidenConfig, LeidenResult, SupraGraph, leiden
from .compare import bidirectional_f
from .model import MultiLayerNetwork, NodeRef, Partition

STOPPING_MODES = ("NONE", "SC1", "SC2")


@dataclass(frozen=True)
class LayerCostBreakdown:
    """Cost of one candidate layer against the incumbent network."""

    layer: str
    availability: float
    similarity: float
    cost: float


@dataclass(frozen=True)
class IterationRecord:
    """State after one selection iteration (iteration 1 is initialization)."""

    index: int
    layer: str
    breakdown: LayerCostBreakdown | None
    partition: Partition
    modularity: float
    layers: tuple[str, ...]
    node_count: int
    intra_edge_count: int
    inter_edge_count: int


@dataclass(frozen=True)
class IterationTrace:
    """Ordered iteration records of one selection run."""

    records: tuple[IterationRecord, ...]

    def __post_init__(self) -> None:
        if self.records:
            if self.records[0].breakdown is not None:
                raise ValueError("iteration 1 must not carry a cost breakdown")
            layers = [r.layer for r in self.records]
            if len(set(layers)) != len(layers):
                raise ValueError("a layer repeats in the trace")

    def cost_bearing(self) -> tuple[IterationRecord, ...]:
        return tuple(r for r in self.records if r.breakdown is not None)


@dataclass(frozen=True)
class InitResult:
    """Outcome of initialization: the winning layer, all single partitions,
    and the supra-graph they were sliced from."""

    best_layer: str
    singles: Mapping[str, LeidenResult]
    supra: SupraGraph


def availability_ratio(incumbent: set[str], candidate: set[str]) -> float:
    """|candidate intersect incumbent| / |incumbent|."""
    if not incumbent:
        raise ValueError("incumbent entity set is empty")
    return len(candidate & incumbent) / len(incumbent)


def project_partition(
    partition: Partition | Mapping[NodeRef, int], layer_order: Sequence[str]
) -> dict[str, int]:
    """Entity-level view of a node-layer partition.

    An entity present in several layers takes the community of its copy in
    the most recently added layer (the latest entry of ``layer_order``).
    """
    assignment = partition.assignment if isinstance(partition, Partition) else partition
    rank = {layer: i for i, layer in enumerate(layer_order)}
    chosen_rank: dict[str, int] = {}
    projected: dict[str, int] = {}
    for node, comm in assignment.items():
        r = rank[node.layer]
        if node.entity not in projected or r > chosen_rank[node.entity]:
            projected[node.entity] = comm
            chosen_rank[node.entity] = r
    return projected


def layer_cost(
    incumbent_entities: set[str],
    candidate_entities: set[str],
    p_inc: Mapping[str, int],
    p_cand: Mapping[str, int],
    layer: str,
) -> LayerCostBreakdown:
    """Full cost breakdown of one candidate; zero availability prices it out."""
    availability = availability_ratio(incumbent_entities, candidate_entities)
    similarity = bidirectional_f(p_inc, p_cand)
    cost = math.inf if availability == 0.0 else 1.0 / availability + similarity
    return LayerCostBreakdown(layer, availability, similarity, cost)


def cobalt_init(supra: SupraGraph, cfg: LeidenConfig) -> InitResult:
    """Run detection on every single-layer graph and pick the best modularity.

    Each single-layer graph is sliced out of ``supra``. Ties go to the
    earlier layer in ``supra.layers``.
    """
    if not supra.layers:
        raise ValueError("no layers to initialize from")
    singles = {layer: leiden(supra.restrict([layer]), cfg) for layer in supra.layers}
    best_layer = max(supra.layers, key=lambda layer: singles[layer].quality)
    return InitResult(best_layer, singles, supra)


def stopping_condition(trace: IterationTrace, mode: str) -> bool:
    """Whether the run should stop given the trace so far.

    SC1 fires when availability drops against the previous iteration; SC2
    additionally requires community similarity to rise. Comparison starts
    once two cost-bearing iterations exist. NONE never stops.
    """
    if mode not in STOPPING_MODES:
        raise ValueError(f"unknown stopping mode {mode!r}")
    if mode == "NONE":
        return False
    bearing = trace.cost_bearing()
    if len(bearing) < 2:
        return False
    prev = bearing[-2].breakdown
    last = bearing[-1].breakdown
    assert prev is not None and last is not None
    dropped = last.availability < prev.availability
    if mode == "SC1":
        return dropped
    return dropped and last.similarity > prev.similarity


def _record(
    index: int,
    layer: str,
    breakdown: LayerCostBreakdown | None,
    result: LeidenResult,
    graph: SupraGraph,
) -> IterationRecord:
    return IterationRecord(
        index=index,
        layer=layer,
        breakdown=breakdown,
        partition=result.partition,
        modularity=result.quality,
        layers=graph.layers,
        node_count=graph.vertex_count,
        intra_edge_count=graph.intra_edge_count,
        inter_edge_count=graph.coupling_edge_count,
    )


def cobalt_select(
    pruned: MultiLayerNetwork,
    init: InitResult,
    cfg: LeidenConfig,
    stopping: str = "NONE",
) -> IterationTrace:
    """Grow the network one least-cost layer at a time.

    ``pruned`` is the significance-filtered network over all layers and
    ``init`` its initialization; each iteration's incumbent is the slice of
    ``init.supra`` on the selected layers, so intra edges and couplings both
    arrive already filtered. Candidate partitions for the similarity term
    stay frozen at their single-layer versions from initialization. Ties on
    cost go to higher availability, then input order.
    """
    if stopping not in STOPPING_MODES:
        raise ValueError(f"unknown stopping mode {stopping!r}")
    layer_entities = {layer: pruned.layer_nodes(layer) for layer in pruned.layers}

    supra = init.supra
    selected = [init.best_layer]
    incumbent_result = init.singles[init.best_layer]
    records = [
        _record(1, init.best_layer, None, incumbent_result, supra.restrict(selected))
    ]
    candidates = [l for l in pruned.layers if l != init.best_layer]
    p_cands = {
        l: project_partition(init.singles[l].partition, [l]) for l in candidates
    }

    trace = IterationTrace(tuple(records))
    while candidates and not stopping_condition(trace, stopping):
        incumbent_entities = set().union(*(layer_entities[l] for l in selected))
        p_inc = project_partition(incumbent_result.partition, selected)
        costs = [
            layer_cost(incumbent_entities, layer_entities[l], p_inc, p_cands[l], l)
            for l in candidates
        ]
        best = min(costs, key=lambda b: (b.cost, -b.availability))

        selected.append(best.layer)
        candidates.remove(best.layer)
        incumbent = supra.restrict(selected)
        incumbent_result = leiden(incumbent, cfg)
        records.append(
            _record(len(records) + 1, best.layer, best, incumbent_result, incumbent)
        )
        trace = IterationTrace(tuple(records))
    return trace
