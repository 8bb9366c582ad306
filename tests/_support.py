"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive quantities from first principles
(exhaustive enumeration, direct double sums, textbook formulas) so the
package code is checked against an independent path, not against itself.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path
from typing import Hashable, Iterator, Mapping, NamedTuple, Sequence

import networkx as nx
import numpy as np
from hypothesis import strategies as st
from scipy.special import betainc

from cobalt.community import _GAIN_TOL, SupraGraph, _Level, _draw
from cobalt.model import EdgeArrays, MultiLayerNetwork, NodeRef, ScoreTable
from cobalt.pruning import prune_network


# ---------------------------------------------------------------------------
# network builders


def mln_from_edges(
    layer_edges: Mapping[str, Sequence[tuple[str, str, float]]],
    couplings: Sequence[tuple[str, str, str, float]] = (),
    extra_nodes: Sequence[tuple[str, str]] = (),
) -> MultiLayerNetwork:
    """Small network from explicit (entity_a, entity_b, weight) lists per layer
    and (entity, layer_a, layer_b, weight) couplings. Either endpoint may come
    first: each edge is stored under its canonical key, the smaller entity
    first within a layer and the layer whose name sorts first across layers,
    which is the smaller ``NodeRef`` in both cases."""
    rows = [(NodeRef(a, l), NodeRef(b, l), w) for l, es in layer_edges.items() for a, b, w in es]
    rows += [(NodeRef(e, la), NodeRef(e, lb), w) for e, la, lb, w in couplings]
    intra, inter = {}, {}
    for u, v, w in rows:
        edges = intra if u.layer == v.layer else inter
        edges[min(u, v), max(u, v)] = w
    if len(intra) + len(inter) != len(rows):
        raise ValueError("repeated edge")
    nodes = {NodeRef(*n) for n in extra_nodes}.union(*intra, *inter)
    return network_of(list(layer_edges), list(nodes), intra, inter)


def network_of(
    layers: Sequence[str],
    nodes: Sequence[NodeRef],
    intra: Mapping[tuple[NodeRef, NodeRef], float],
    inter: Mapping[tuple[NodeRef, NodeRef], float],
) -> MultiLayerNetwork:
    """Network whose edge arrays list the keys of ``intra`` and ``inter`` as
    given. ``nodes``, in any order, are sorted into vertex order (by layer in
    ``layers`` order, a layer outside them last, then by entity) and each
    endpoint is mapped to its id there. An endpoint outside ``nodes`` gets
    the id one past the last vertex."""
    rank = {layer: i for i, layer in enumerate(layers)}
    vertices = sorted(nodes, key=lambda n: (rank.get(n.layer, len(rank)), n.entity))
    index = {v: i for i, v in enumerate(vertices)}

    def arrays(edges: Mapping[tuple[NodeRef, NodeRef], float]) -> EdgeArrays:
        ids = [[index.get(v, len(index)) for v in edge] for edge in edges]
        ids = np.array(ids, dtype=np.int64)
        ids = ids.reshape(-1, 2)
        return EdgeArrays(ids[:, 0], ids[:, 1], np.array(list(edges.values()), dtype=float))

    return MultiLayerNetwork(layers, vertices, arrays(intra), arrays(inter))


# weights spanning six decades, plus the tie weight 1/(2 * 1e-9), so that
# any change in summation order shows in the last bits
edge_weights = st.floats(1e-3, 1e3) | st.just(5e8)


@st.composite
def multilayer_networks(draw):
    """Random network: layers named out of alphabetical order, entities
    missing from some layers, random intra edges and couplings."""
    layers = draw(st.lists(st.sampled_from("DBECA"), min_size=1, max_size=4, unique=True))
    entities = draw(
        st.lists(st.text("qzab", min_size=1, max_size=2), min_size=2, max_size=12, unique=True)
    )
    present = {
        layer: [e for e in entities if draw(st.booleans())] for layer in layers
    }
    layer_edges = {
        layer: [
            (a, b, draw(edge_weights))
            for i, a in enumerate(members)
            for b in members[i + 1 :]
            if draw(st.booleans())
        ]
        for layer, members in present.items()
    }
    couplings = [
        (e, la, lb, draw(edge_weights))
        for i, la in enumerate(layers)
        for lb in layers[i + 1 :]
        for e in entities
        if e in present[la] and e in present[lb] and draw(st.booleans())
    ]
    extra = [(e, layer) for layer, members in present.items() for e in members]
    return mln_from_edges(layer_edges, couplings, extra)


def clique_edges(members: Sequence[str], weight: float = 1.0) -> list:
    return [(a, b, weight) for a, b in combinations(members, 2)]


def two_triangles() -> MultiLayerNetwork:
    return mln_from_edges(
        {"L": clique_edges(["a", "b", "c"]) + clique_edges(["x", "y", "z"])}
    )


def two_cliques_bridged(size: int = 5) -> MultiLayerNetwork:
    left = [f"a{i}" for i in range(size)]
    right = [f"b{i}" for i in range(size)]
    edges = clique_edges(left) + clique_edges(right) + [(left[0], right[0], 1.0)]
    return mln_from_edges({"L": edges})


# ---------------------------------------------------------------------------
# score-table builders


def planted_table(
    n: int,
    layer_groups: Mapping[str, Sequence[int]],
    seed: int = 0,
    separation: float = 10.0,
    noise: float = 0.5,
) -> ScoreTable:
    """Complete table whose layer scores cluster around group centers.

    ``layer_groups[layer][i]`` is the group index of entity i in that layer.
    """
    rng = np.random.default_rng(seed)
    entities = tuple(f"p{i:03d}" for i in range(n))
    scores: dict[tuple[str, str], float] = {}
    for layer, groups in layer_groups.items():
        for i, e in enumerate(entities):
            scores[(e, layer)] = groups[i] * separation + rng.normal(0.0, noise)
    return ScoreTable(entities, tuple(layer_groups.keys()), scores)


def halves_and_parity_table(n: int = 40, seed: int = 0) -> ScoreTable:
    """Three layers: two split entities in halves, one splits them by parity."""
    halves = [0 if i < n // 2 else 1 for i in range(n)]
    parity = [i % 2 for i in range(n)]
    return planted_table(
        n, {"A": halves, "B": halves, "C": parity}, seed=seed
    )


def write_score_csv(table: ScoreTable, path: Path) -> str:
    """Write ``table`` as a scores CSV, each present cell as its ``repr``,
    and return the path."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["entity", *table.layers])
        for e in table.entities:
            cells = (table.scores.get((e, layer)) for layer in table.layers)
            writer.writerow([e, *("" if v is None else repr(v) for v in cells)])
    return str(path)


# ---------------------------------------------------------------------------
# GraphML read back through networkx


class GraphmlContents(NamedTuple):
    """What a GraphML export holds: the ``layers`` graph attribute, each
    node's community (None without one), and the weights by edge kind."""

    layers: list[str]
    communities: dict[NodeRef, int | None]
    edges: dict[str, dict[tuple[NodeRef, NodeRef], float]]


def read_graphml(source) -> GraphmlContents:
    """A GraphML file parsed by ``networkx.read_graphml``; edge keys list
    their endpoints in sorted order."""
    graph = nx.read_graphml(source)
    ref = {v: NodeRef(d["entity"], d["layer"]) for v, d in graph.nodes(data=True)}
    communities = {ref[v]: d.get("community") for v, d in graph.nodes(data=True)}
    edges: dict[str, dict] = {}
    for u, v, d in graph.edges(data=True):
        key = tuple(sorted((ref[u], ref[v])))
        edges.setdefault(d["kind"], {})[key] = d["weight"]
    return GraphmlContents(json.loads(graph.graph["layers"]), communities, edges)


# ---------------------------------------------------------------------------
# partition enumeration and modularity oracle


def set_partitions(items: Sequence[Hashable]) -> Iterator[list[list[Hashable]]]:
    """Every partition of ``items`` via restricted-growth strings."""
    n = len(items)
    if n == 0:
        yield []
        return
    labels = [0] * n

    def rec(i: int, max_used: int):
        if i == n:
            blocks: dict[int, list] = {}
            for item, lab in zip(items, labels):
                blocks.setdefault(lab, []).append(item)
            yield [blocks[k] for k in sorted(blocks)]
            return
        for lab in range(max_used + 2):
            labels[i] = lab
            yield from rec(i + 1, max(max_used, lab))

    yield from rec(1, 0)


def modularity_oracle(
    mln: MultiLayerNetwork, assignment: Mapping[NodeRef, int], gamma: float = 1.0
) -> float:
    """Direct ordered-pair double sum of the multislice quality function."""
    vertices = sorted(mln.nodes)
    layer_of = {v: v.layer for v in vertices}

    weight: dict[tuple[NodeRef, NodeRef], float] = {}
    coupling: dict[tuple[NodeRef, NodeRef], float] = {}
    for (a, b), w in mln.intra_edges.items():
        weight[(a, b)] = w
        weight[(b, a)] = w
    for (a, b), w in mln.inter_edges.items():
        coupling[(a, b)] = w
        coupling[(b, a)] = w

    strength = {v: 0.0 for v in vertices}
    layer_total = {l: 0.0 for l in mln.layers}
    for (a, b), w in mln.intra_edges.items():
        strength[a] += w
        strength[b] += w
        layer_total[a.layer] += 2.0 * w
    two_mu = 2.0 * (sum(mln.intra_edges.values()) + sum(mln.inter_edges.values()))

    total = 0.0
    for u in vertices:
        for v in vertices:
            if assignment[u] != assignment[v]:
                continue
            if layer_of[u] == layer_of[v]:
                a_uv = weight.get((u, v), 0.0)
                two_m = layer_total[layer_of[u]]
                null = strength[u] * strength[v] / two_m if two_m > 0 else 0.0
                total += a_uv - gamma * null
            total += coupling.get((u, v), 0.0)
    return total / two_mu


def best_partition_by_enumeration(
    mln: MultiLayerNetwork, gamma: float = 1.0
) -> tuple[float, list[list[NodeRef]]]:
    """Exhaustive maximum of the quality function (small graphs only)."""
    vertices = sorted(mln.nodes)
    best_q = -math.inf
    best_blocks: list[list[NodeRef]] = []
    for blocks in set_partitions(vertices):
        assignment = {v: i for i, block in enumerate(blocks) for v in block}
        q = modularity_oracle(mln, assignment, gamma)
        if q > best_q:
            best_q = q
            best_blocks = blocks
    return best_q, best_blocks


def newman_girvan_modularity(
    edges: Mapping[tuple[Hashable, Hashable], float],
    assignment: Mapping[Hashable, int],
    gamma: float = 1.0,
) -> float:
    """Standard single-layer weighted modularity, written independently."""
    strength: dict[Hashable, float] = {v: 0.0 for v in assignment}
    total = 0.0
    for (a, b), w in edges.items():
        strength[a] += w
        strength[b] += w
        total += w
    two_m = 2.0 * total
    q = 0.0
    for (a, b), w in edges.items():
        if assignment[a] == assignment[b]:
            q += 2.0 * w / two_m
    by_comm: dict[int, float] = {}
    for v, c in assignment.items():
        by_comm[c] = by_comm.get(c, 0.0) + strength[v]
    for k_sum in by_comm.values():
        q -= gamma * (k_sum / two_m) ** 2
    return q


# ---------------------------------------------------------------------------
# dict-of-dicts supra-graph: the reference the CSR SupraGraph must equal


class ReferenceSupraGraph:
    """Supra-graph as one neighbour dict per vertex, built edge by edge.

    Rows are filled in sorted edge-key order, so intra neighbours ascend by
    entity and coupling neighbours by layer name. Every sum adds one term at
    a time in row order, written as an explicit loop so it does not depend
    on how ``sum`` adds floats.
    """

    def __init__(self, mln: MultiLayerNetwork):
        layer_index = {layer: i for i, layer in enumerate(mln.layers)}
        self.layers = mln.layers
        self.vertices = sorted(mln.nodes, key=lambda n: (layer_index[n.layer], n.entity))
        self.index = {n: i for i, n in enumerate(self.vertices)}
        self.layer_of = [layer_index[n.layer] for n in self.vertices]
        n = len(self.vertices)
        self.intra: list[dict[int, float]] = [dict() for _ in range(n)]
        self.coupling: list[dict[int, float]] = [dict() for _ in range(n)]
        for edges, rows in ((mln.intra_edges, self.intra), (mln.inter_edges, self.coupling)):
            for (a, b) in sorted(edges):
                i, j = self.index[a], self.index[b]
                rows[i][j] = edges[(a, b)]
                rows[j][i] = edges[(a, b)]
        self.strength = []
        for nbrs in self.intra:
            total = 0.0
            for w in nbrs.values():
                total += w
            self.strength.append(total)
        self.layer_weight = [0.0] * len(mln.layers)
        for v in range(n):
            self.layer_weight[self.layer_of[v]] += self.strength[v]
        self.total_weight = math.fsum(mln.intra_edges.values()) + math.fsum(
            mln.inter_edges.values()
        )

    def row(self, v: int) -> list[tuple[int, float]]:
        """Adjacency row of ``v``: intra neighbours, then couplings."""
        return list(self.intra[v].items()) + list(self.coupling[v].items())


def reference_modularity(
    ref: ReferenceSupraGraph, assignment: Mapping[NodeRef, int], gamma: float = 1.0
) -> float:
    """Multislice modularity as a loop over rows, then over groups in order
    of first appearance."""
    comm = [assignment[v] for v in ref.vertices]
    link = 0.0
    for i in range(len(comm)):
        for j, w in ref.row(i):
            if i < j and comm[j] == comm[i]:
                link += w
    group_strength: dict[tuple[int, int], float] = {}
    for i in range(len(comm)):
        key = (comm[i], ref.layer_of[i])
        group_strength[key] = group_strength.get(key, 0.0) + ref.strength[i]
    null = 0.0
    for (_, layer), k_sum in group_strength.items():
        two_m = ref.layer_weight[layer]
        if two_m > 0.0:
            null += k_sum * k_sum / two_m
    return (2.0 * link - gamma * null) / (2.0 * ref.total_weight)


def communities_connected(
    mln: MultiLayerNetwork, assignment: Mapping[NodeRef, int]
) -> bool:
    """Whether every community induces a connected subgraph of ``mln``."""
    parent = {v: v for v in assignment}

    def find(x: NodeRef) -> NodeRef:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in chain(mln.intra_edges, mln.inter_edges):
        if assignment[a] == assignment[b]:
            parent[find(a)] = find(b)
    roots = {find(v) for v in assignment}
    return len(roots) == len(set(assignment.values()))


# ---------------------------------------------------------------------------
# Leiden phases without the candidate floor: every visit scores every linked
# community. The optimized phases must match them bit for bit.


def _reference_null_scores(
    terms: list[tuple[int, float]],
    comm_strengths: np.ndarray,
    comms: np.ndarray | int,
    inv_layer_weight: list[float],
):
    """gamma-free null interaction between a vertex and each of ``comms``,
    adding the vertex's layers in order."""
    total = 0.0
    for layer, k in terms:
        total = total + k * comm_strengths[layer][comms] * inv_layer_weight[layer]
    return total


def reference_local_move(
    level: _Level,
    comm: np.ndarray,
    comm_strengths: np.ndarray,
    gamma: float,
    inv_layer_weight: list[float],
    rng: np.random.Generator,
) -> tuple[int, float]:
    """Queue-driven local moving.

    ``comm_strengths[layer, c]`` is the strength of community c in a layer;
    fresh communities take ids from its width on. Returns the number of
    accepted moves and their summed gain (``mu`` times the rise in Q).
    """
    ptr = level.indptr.tolist()
    indices, weights = level.indices, level.weights
    queue = deque(rng.permutation(level.n).tolist())
    queued = np.ones(level.n, dtype=bool)
    # terms added left to right: the builtin sum of Python 3.12 and later
    # compensates float error, and would give other bits
    self_null = []
    for terms in level.terms:
        null = 0.0
        for layer, k in terms:
            null = null + k * k * inv_layer_weight[layer]
        self_null.append(null)
    next_id = comm_strengths.shape[1]
    moves = 0
    gain = 0.0

    while queue:
        v = queue.popleft()
        queued[v] = False
        current = int(comm[v])
        terms = level.terms[v]

        nbrs = indices[ptr[v] : ptr[v + 1]]
        nbr_comm = comm[nbrs]
        weight_to = np.bincount(nbr_comm, weights=weights[ptr[v] : ptr[v + 1]])
        # edge weights are positive, so linked communities are the nonzeros
        cands = weight_to.astype(bool).nonzero()[0]
        scores = weight_to[cands] - gamma * _reference_null_scores(
            terms, comm_strengths, cands, inv_layer_weight
        )

        stay_link = weight_to[current] if current < weight_to.size else 0.0
        stay_score = stay_link - gamma * (
            _reference_null_scores(terms, comm_strengths, current, inv_layer_weight) - self_null[v]
        )

        best_comm = current
        best_score = stay_score
        # only scores above the stay score can ever pass the running test
        above = (scores > stay_score + _GAIN_TOL).nonzero()[0]
        for cand, score in zip(cands[above].tolist(), scores[above].tolist()):
            if cand != current and score > best_score + _GAIN_TOL:
                best_comm = cand
                best_score = score
        # a fresh singleton community scores zero; take it when leaving wins,
        # unless the vertex is alone already
        if 0.0 > best_score + _GAIN_TOL and np.count_nonzero(comm == current) > 1:
            best_comm = next_id
            best_score = 0.0
            next_id += 1
            if best_comm == comm_strengths.shape[1]:
                comm_strengths = np.concatenate(
                    [comm_strengths, np.zeros_like(comm_strengths)], axis=1
                )

        if best_comm == current:
            continue

        for layer, k in terms:
            comm_strengths[layer, current] -= k
            comm_strengths[layer, best_comm] += k
        comm[v] = best_comm
        moves += 1
        gain += best_score - stay_score
        wake = nbrs[(nbr_comm != best_comm) & ~queued[nbrs]]
        queued[wake] = True
        queue.extend(wake.tolist())
    return moves, gain


def reference_refine(
    level: _Level,
    comm: np.ndarray,
    gamma: float,
    theta: float,
    mu: float,
    inv_layer_weight: list[float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Rebuild every community from singletons with stochastic merges.

    Only vertices still alone in their refined community may move, and only
    into refined communities of the same parent community they are linked to.
    Candidates with positive gain are sampled with probability proportional
    to exp(gain / theta); theta = 0 degenerates to the greedy choice.
    """
    ptr = level.indptr.tolist()
    indices, weights = level.indices, level.weights
    refined = np.arange(level.n)
    # the term table's rows laid out as a dense layers x vertices matrix
    ref_strengths = np.zeros((level.n_layers, level.n))
    ref_strengths[level.t_layers, np.repeat(np.arange(level.n), np.diff(level.t_ptr))] = level.t_k
    ref_size = [1] * level.n

    for v in rng.permutation(level.n).tolist():
        own = int(refined[v])
        if ref_size[own] > 1:
            continue
        nbrs = indices[ptr[v] : ptr[v + 1]]
        linked = (comm[nbrs] == comm[v]) & (refined[nbrs] != own)
        if not linked.any():
            continue
        weight_to = np.bincount(
            refined[nbrs[linked]], weights=weights[ptr[v] : ptr[v + 1]][linked]
        )
        cands = weight_to.astype(bool).nonzero()[0]
        terms = level.terms[v]
        raw = weight_to[cands] - gamma * _reference_null_scores(
            terms, ref_strengths, cands, inv_layer_weight
        )
        positive = raw > _GAIN_TOL
        if not positive.any():
            continue
        candidates = cands[positive]
        gains = raw[positive] / mu

        if theta <= 0.0:
            chosen = int(candidates[int(np.argmax(gains))])
        else:
            logits = gains / theta
            odds = np.exp(logits - logits.max())
            chosen = int(candidates[_draw(odds / odds.sum(), rng)])

        ref_size[own] = 0
        for layer, k in terms:
            ref_strengths[layer, chosen] += k
        ref_size[chosen] += 1
        refined[v] = chosen
    return refined


# ---------------------------------------------------------------------------
# vertex optimality


def improving_moves(
    supra: SupraGraph, assignment: Mapping[NodeRef, int], gamma: float = 1.0
) -> list[tuple[NodeRef, int | None, Fraction]]:
    """Every single-vertex move of ``assignment`` that gains more than
    ``_GAIN_TOL``, as (vertex, target community or None for a fresh one, gain).

    Brute force in exact rational arithmetic on the supra-graph arrays: for
    every vertex it scores every community it links to and a fresh one. A
    gain is ``mu`` times the rise in Q, the unit of Leiden's move scores.
    Moving v (layer l, strength k) from community a to b gains
    ``w(v, b) - w(v, a) - gamma * k * (K_bl - (K_al - k)) / 2m_l``, with
    w the link weight to a community's other members, K_cl the summed
    strength of c's vertices in layer l and 2m_l the layer's summed strength.
    """
    comm = [assignment[v] for v in supra.vertices]
    layer_of = supra.layer_of.tolist()
    strength = [Fraction(k) for k in supra.strength.tolist()]
    two_m: dict[int, Fraction] = {}
    group: dict[tuple[int, int], Fraction] = {}
    for v, k in enumerate(strength):
        two_m[layer_of[v]] = two_m.get(layer_of[v], 0) + k
        group[comm[v], layer_of[v]] = group.get((comm[v], layer_of[v]), 0) + k
    ptr, indices = supra.indptr.tolist(), supra.indices.tolist()
    weights = [Fraction(w) for w in supra.weights.tolist()]
    g = Fraction(gamma)

    moves = []
    for v, node in enumerate(supra.vertices):
        link: dict[int, Fraction] = {}
        for e in range(ptr[v], ptr[v + 1]):
            link[comm[indices[e]]] = link.get(comm[indices[e]], 0) + weights[e]
        a, layer, k = comm[v], layer_of[v], strength[v]
        scale = g * k / two_m[layer] if two_m[layer] else Fraction(0)
        stay = link.get(a, 0) - scale * (group[a, layer] - k)
        for b in [*link, None]:
            if b == a:
                continue
            score = 0 if b is None else link[b] - scale * group.get((b, layer), 0)
            if score - stay > _GAIN_TOL:
                moves.append((node, b, score - stay))
    return moves


# ---------------------------------------------------------------------------
# binomial null-model oracle


def binomial_pmf_oracle(m: int, total: int, p: float) -> float:
    return math.comb(total, m) * p**m * (1.0 - p) ** (total - m)


def p_value_oracle(count: int, k_i: int, k_j: int, total: int) -> float:
    p = k_i * k_j / (2.0 * total * total)
    return sum(binomial_pmf_oracle(m, total, p) for m in range(count, total + 1))


def exact_tail_oracle(count: int, total: int, p: float) -> Fraction:
    """Pr(Binomial(total, p) >= count) in exact rational arithmetic, for the
    float ``p`` taken at its exact binary value."""
    q = Fraction(p)
    num, den = q.numerator, q.denominator
    tail = sum(
        math.comb(total, m) * num**m * (den - num) ** (total - m)
        for m in range(count, total + 1)
    )
    return Fraction(tail, den**total)


class NullContext(NamedTuple):
    """E and the quantized strength of every node of one universe."""

    total: int
    degrees: dict[Hashable, int]


def null_context(counts: Mapping[tuple[Hashable, Hashable], int]) -> NullContext:
    """Null-model context of a quantized universe, summed edge by edge."""
    degrees: dict[Hashable, int] = {}
    total = 0
    for (a, b), m in counts.items():
        degrees[a] = degrees.get(a, 0) + m
        degrees[b] = degrees.get(b, 0) + m
        total += m
    return NullContext(total, degrees)


def prune_survivors_oracle(
    counts: Mapping[tuple[Hashable, Hashable], int], alpha: float
) -> set:
    total, degrees = null_context(counts)
    return {
        edge
        for edge, m in counts.items()
        if p_value_oracle(m, degrees[edge[0]], degrees[edge[1]], total) <= alpha
    }


# ---------------------------------------------------------------------------
# significance filter: the dict-of-edges filter the array filter must equal


def reference_quantize(
    edges: Mapping[tuple[Hashable, Hashable], float], scale: float
) -> dict[tuple[Hashable, Hashable], int]:
    """round(w * scale) edge by edge in Python integers; zero counts dropped."""
    counts = {}
    for edge, weight in edges.items():
        m = int(round(weight * scale))
        if m > 0:
            counts[edge] = m
    if sum(counts.values()) > 2**63 - 1:
        raise OverflowError("total quantized weight exceeds 2**63 - 1")
    return counts


def reference_prune_graph(
    edges: Mapping[tuple[Hashable, Hashable], float], alpha: float, scale: float
) -> dict[tuple[Hashable, Hashable], float]:
    """One universe filtered as a dict: quantize, null context, betainc, keep."""
    counts = reference_quantize(edges, scale)
    if not counts:
        return {}
    ctx = null_context(counts)
    keys = list(counts)
    m = np.array([counts[k] for k in keys], dtype=float)
    k_i = np.array([ctx.degrees[a] for a, _ in keys], dtype=float)
    k_j = np.array([ctx.degrees[b] for _, b in keys], dtype=float)
    total = float(ctx.total)
    p = k_i * k_j / (2.0 * total * total)
    pvals = betainc(m, total - m + 1.0, p)
    return {edge: edges[edge] for edge, pv in zip(keys, pvals) if pv <= alpha}


def reference_prune(
    mln: MultiLayerNetwork, alpha: float = 0.05, scale: float = 1000.0
) -> tuple[dict, dict]:
    """Surviving intra and inter edges of ``mln``, one universe per layer and
    per layer pair, each filtered by :func:`reference_prune_graph`."""
    universes: dict[frozenset[str], dict] = {}
    for edges in (mln.intra_edges, mln.inter_edges):
        for edge, w in edges.items():
            universes.setdefault(frozenset((edge[0].layer, edge[1].layer)), {})[edge] = w
    intra: dict = {}
    inter: dict = {}
    for group, universe in universes.items():
        kept = inter if len(group) == 2 else intra
        kept.update(reference_prune_graph(universe, alpha, scale))
    return intra, inter


def prune_graph(
    edges: Mapping[tuple[str, str], float], alpha: float = 0.05, scale: float = 1000.0
) -> dict[tuple[str, str], float]:
    """``prune_network`` on the one-layer network with these edges, keyed
    back by entity pairs (each key must list its smaller entity first)."""
    mln = mln_from_edges({"L": [(a, b, w) for (a, b), w in edges.items()]})
    pruned = prune_network(mln, alpha, scale)
    return {(a.entity, b.entity): w for (a, b), w in pruned.intra_edges.items()}


# ---------------------------------------------------------------------------
# regression oracle


def fit_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Penalized least squares with an unpenalized intercept (column 0), from
    its own normal system solved by LAPACK: the fit that each of
    ``cross_validate``'s per-fold solves must equal to rounding. lam = 0
    reduces to ordinary least squares and raises on a singular normal system."""
    penalty = np.eye(X.shape[1]) * lam
    penalty[0, 0] = 0.0
    system = X.T @ X + penalty
    sv = np.linalg.svd(system, compute_uv=False)
    if sv[-1] <= sv[0] * 1e-12:
        raise np.linalg.LinAlgError("normal system is singular")
    return np.linalg.solve(system, X.T @ y)


def least_squares_oracle(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SVD-based least squares, independent of the solve-based implementation."""
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


# ---------------------------------------------------------------------------
# misc


def co_membership(assignment: Mapping[Hashable, int]) -> set[frozenset]:
    pairs = set()
    items = sorted(assignment)
    for a, b in combinations(items, 2):
        if assignment[a] == assignment[b]:
            pairs.add(frozenset((a, b)))
    return pairs
