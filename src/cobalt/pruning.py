"""Maximum-likelihood edge filter against a degree-preserving null model.

Edge weights are quantized to integer multiplicities (scale configurable,
default 1000 counts per weight unit). Under the null model an edge between
nodes i and j carries a Binomial(E, p) multiplicity with
p = k_i * k_j / (2 E^2), where k are quantized strengths and E is the total
multiplicity of the universe. Edges whose observed multiplicity has an upper
tail probability above the significance level are removed.

Intra-layer edges of each layer form their own null universe, as does the
inter-layer edge set of each unordered layer pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np
from scipy.special import betainc, gammaln

from .model import MultiLayerNetwork

DEFAULT_ALPHA = 0.05
DEFAULT_SCALE = 1000.0

_MAX_TOTAL = 2**63 - 1


@dataclass(frozen=True)
class NullModelContext:
    """Integerized degree sequence of one edge universe.

    ``total`` is E = (1/2) sum_i k_i; ``degrees`` maps each node to its
    quantized strength. Strengths are used as degrees throughout, so the
    null model sees weighted multiplicities rather than raw edge counts.
    """

    total: int
    degrees: Mapping[Hashable, int]
    scale: float

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError(f"null model needs total multiplicity >= 1, got {self.total}")
        if any(k < 0 for k in self.degrees.values()):
            raise ValueError("negative degree in null model")
        if sum(self.degrees.values()) != 2 * self.total:
            raise ValueError("degree sum must equal twice the total multiplicity")


def quantize_weights(
    edges: Mapping[tuple[Hashable, Hashable], float], scale: float = DEFAULT_SCALE
) -> dict[tuple[Hashable, Hashable], int]:
    """Integer edge multiplicities round(w * scale); zero-count edges dropped."""
    if scale <= 0:
        raise ValueError(f"quantization scale must be positive, got {scale}")
    counts: dict[tuple[Hashable, Hashable], int] = {}
    total = 0
    for edge, weight in edges.items():
        m = int(round(weight * scale))
        if m <= 0:
            continue
        counts[edge] = m
        total += m
        if total > _MAX_TOTAL:
            raise OverflowError("total quantized weight exceeds 2**63 - 1")
    return counts


def null_context(
    counts: Mapping[tuple[Hashable, Hashable], int], scale: float = DEFAULT_SCALE
) -> NullModelContext:
    """Null-model context (E and strengths) of a quantized edge set."""
    degrees: dict[Hashable, int] = {}
    total = 0
    for (a, b), m in counts.items():
        degrees[a] = degrees.get(a, 0) + m
        degrees[b] = degrees.get(b, 0) + m
        total += m
    return NullModelContext(total, degrees, scale)


def edge_null_probability(m: int, k_i: int, k_j: int, total: int) -> float:
    """Pr(multiplicity == m) under Binomial(E, k_i k_j / 2E^2).

    Evaluated in log space so large universes do not underflow.
    """
    if not 0 <= m <= total:
        raise ValueError(f"multiplicity {m} outside [0, {total}]")
    p = (k_i * k_j) / (2.0 * total * total)
    if p > 1.0:
        raise ValueError(f"null probability {p} > 1; degrees violate the model")
    if p == 0.0:
        return 1.0 if m == 0 else 0.0
    if p == 1.0:
        return 1.0 if m == total else 0.0
    log_pmf = (
        gammaln(total + 1)
        - gammaln(m + 1)
        - gammaln(total - m + 1)
        + m * math.log(p)
        + (total - m) * math.log1p(-p)
    )
    return float(math.exp(log_pmf))


def edge_p_value(count: int, k_i: int, k_j: int, total: int) -> float:
    """Upper-tail probability Pr(multiplicity >= count) under the null model.

    Computed through the regularized incomplete beta function, which equals
    the binomial survival sum exactly and stays stable for large E.
    """
    if not 1 <= count <= total:
        raise ValueError(f"count {count} outside [1, {total}]")
    p = (k_i * k_j) / (2.0 * total * total)
    if p > 1.0:
        raise ValueError(f"null probability {p} > 1; degrees violate the model")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return float(betainc(count, total - count + 1, p))


def prune_graph(
    edges: Mapping[tuple[Hashable, Hashable], float],
    alpha: float = DEFAULT_ALPHA,
    scale: float = DEFAULT_SCALE,
) -> dict[tuple[Hashable, Hashable], float]:
    """Quantize one edge universe, test every edge, keep those whose p-value
    is at most ``alpha``.

    Survivors keep their original (un-quantized) weights. The node set is the
    caller's concern: nodes isolated by pruning stay in the network.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"significance level must be in (0, 1], got {alpha}")
    counts = quantize_weights(edges, scale)
    if not counts:
        return {}
    ctx = null_context(counts, scale)
    keys = list(counts.keys())
    m = np.array([counts[k] for k in keys], dtype=float)
    k_i = np.array([ctx.degrees[a] for a, _ in keys], dtype=float)
    k_j = np.array([ctx.degrees[b] for _, b in keys], dtype=float)
    total = float(ctx.total)
    p = k_i * k_j / (2.0 * total * total)
    if np.any(p > 1.0):
        raise ValueError("null probability > 1; degrees violate the model")
    pvals = betainc(m, total - m + 1.0, p)
    return {edge: edges[edge] for edge, pv in zip(keys, pvals) if pv <= alpha}


def prune_network(
    mln: MultiLayerNetwork,
    alpha: float = DEFAULT_ALPHA,
    scale: float = DEFAULT_SCALE,
) -> MultiLayerNetwork:
    """Apply the filter to a whole network.

    Each layer's intra edges form one universe; each unordered layer pair's
    inter edges form another. Node sets are unchanged.
    """
    # one universe per set of endpoint layers: every layer, then every pair
    groups = [(layer,) for layer in mln.layers]
    groups += itertools.combinations(mln.layers, 2)
    universes: dict[frozenset[str], dict] = {frozenset(g): {} for g in groups}
    for edges in (mln.intra_edges, mln.inter_edges):
        for edge, w in edges.items():
            universes[frozenset((edge[0].layer, edge[1].layer))][edge] = w

    intra: dict = {}
    inter: dict = {}
    for group, universe in universes.items():
        kept = inter if len(group) == 2 else intra
        kept.update(prune_graph(universe, alpha, scale))
    return MultiLayerNetwork(mln.layers, mln.nodes, intra, inter)
