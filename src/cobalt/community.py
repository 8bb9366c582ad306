"""Leiden community detection with multislice modularity as the objective.

The multi-layer network is flattened to a supra-graph whose vertices are
node-layer copies. Intra-layer edges are judged against a per-layer
configuration null model; coupling edges between an entity's copies reward
co-assignment directly and carry no null term:

    Q = sum over co-assigned vertex pairs of
        [ (A_ij - gamma * k_i k_j / 2m_layer) * same_layer + C_ij ] / 2mu

with 2mu twice the total edge weight (intra plus coupling).

Layout. :class:`SupraGraph` keeps its adjacency in plain numpy CSR arrays
(``indptr``/``indices``/``weights``, one row per vertex, every edge in both
of its rows) beside per-vertex ``layer_of`` and ``strength``. Vertices are
ordered by layer, then entity. Each row lists its intra-layer neighbours by
ascending entity, then its coupling neighbours by ascending layer *name*:
one stable sort on the key row × (n + L) + column, with the neighbour's id
as column for an intra entry and n + its layer's name rank for a coupling
(n vertices, L layers). That order depends neither on the edge order nor
on the order in which layers were selected, so :meth:`SupraGraph.restrict`
slices any layer subset out of one build and gets the rows a fresh build
of that subnetwork would have.

Summation order. Results are reproducible to the bit because every float
sum that feeds the optimizer or the quality runs one term at a time in row
order: per-group sums use ``np.bincount(weights=)`` and running totals
``np.cumsum``, both sequential. ``np.sum``, ``np.add.reduceat`` and BLAS dot
products add pairwise or in blocks and are not used for such sums. Only
numpy is imported here; ``scipy.sparse`` would add to the start-up time of
every command.

The optimizer follows the Leiden scheme: fast local moving with a work
queue, a refinement phase that rebuilds each community from singletons and
accepts positive-gain merges with probability proportional to
exp(gain / theta), then aggregation of the refined partition. Passes repeat
until neither moving nor refinement changes anything. Communities of the
returned partition always induce connected subgraphs; any community left
disconnected by the move phase is split, which can only raise Q.

Candidate floor. Most move-phase visits leave the vertex where it is. A
candidate's score is its link minus gamma (positive) times a null term
built from non-negative strengths, so no score exceeds its link. A visit
scores only the communities whose link exceeds max(stay score +
tolerance, 0.0), and none when no link does. Unlinked communities read
0.0 in the link table, so the clamp keeps the linked ones; a fresh
community (link and score 0.0) is weighed after them. Removals can leave
a community a negative strength of float drift. An emptied one is never
a candidate again, so only communities that keep members and turn
negative are tracked, and a vertex linked to one scores every linked one.
Decisions are those of scoring every candidate, to the bit.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .model import MultiLayerNetwork, NodeRef, Partition, layer_name_rank, layer_subset

_GAIN_TOL = 1e-12


@dataclass(frozen=True)
class LeidenConfig:
    """Hyperparameters of one detection run.

    gamma: resolution of the per-layer null model.
    theta: refinement randomness, 0 (greedy) or at least ``sys.float_info.min``.
    seed: drives vertex visit order and refinement sampling.
    max_passes: hard cap on move/refine/aggregate passes.
    """

    gamma: float = 1.0
    theta: float = 0.01
    seed: int = 0
    max_passes: int = 20

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        # a refinement score is at most mu: only a subnormal theta overflows
        # raw / mu / theta
        if not (self.theta == 0.0 or self.theta >= sys.float_info.min):
            raise ValueError(
                f"leiden.theta must be 0 or at least {sys.float_info.min}, got {self.theta}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be at least 1, got {self.max_passes}")


class SupraGraph:
    """Flattened view of a multi-layer network for community detection.

    layers: the network's layer order; ``layer_of[v]`` indexes into it.
    vertices: node-layer copies, ordered by layer, then entity.
    indptr, indices, weights: CSR adjacency in the canonical row order.
    rows: the row (vertex) of every CSR entry.
    strength: intra-layer strength of every vertex.
    layer_weight: per layer, the sum of its vertices' strengths.
    total_weight: intra plus coupling weight, each edge counted once.
    intra_edge_count, coupling_edge_count: edges of each kind.
    """

    def __init__(self, mln: MultiLayerNetwork):
        # the network numbers its vertices in this graph's order
        layer_of = mln.layer_of
        (ia, ib, iw), (ca, cb, cw) = mln.intra, mln.inter
        rows = np.concatenate([ia, ib, ca, cb])
        cols = np.concatenate([ib, ia, cb, ca])
        weights = np.concatenate([iw, iw, cw, cw])
        # within a layer, vertex order is entity order
        n, rank = len(layer_of), layer_name_rank(mln.layers)
        column = np.concatenate([ib, ia, n + rank[layer_of[cb]], n + rank[layer_of[ca]]])
        order = np.argsort(rows * (n + len(rank)) + column, kind="stable")
        self._assign(
            mln.layers, list(mln.vertices), layer_of, rows[order], cols[order], weights[order]
        )

    def _assign(
        self,
        layers: tuple[str, ...],
        vertices: list[NodeRef],
        layer_of: np.ndarray,
        rows: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        n = len(vertices)
        self.layers: tuple[str, ...] = layers
        self.vertices: list[NodeRef] = vertices
        self.layer_of = layer_of
        self.rows = rows
        self.indices = indices
        self.weights = weights
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        intra = layer_of[rows] == layer_of[indices]
        # a row's intra entries come first and bincount adds them in order
        self.strength = np.bincount(rows[intra], weights=weights[intra], minlength=n)
        self.layer_weight = np.bincount(
            layer_of, weights=self.strength, minlength=len(layers)
        )
        once = rows < indices
        # exact sums keep the normalization independent of edge order
        self.total_weight = math.fsum(weights[intra & once]) + math.fsum(
            weights[~intra & once]
        )
        self.intra_edge_count = int(np.count_nonzero(intra)) // 2
        self.coupling_edge_count = (len(indices) - int(np.count_nonzero(intra))) // 2

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def restrict(self, layers: Iterable[str]) -> "SupraGraph":
        """Supra-graph of the subnetwork on ``layers``, in that order.

        Equal, array for array, to ``SupraGraph(mln.subnetwork(layers))`` for
        the network this graph was built from, without rebuilding it.
        """
        chosen = layer_subset(self.layers, layers)
        old = np.array([self.layers.index(l) for l in chosen], dtype=np.int64)
        # vertices of one layer are contiguous, and so are their rows
        bounds = np.searchsorted(self.layer_of, np.arange(len(self.layers) + 1))
        old_ids = _ranges(bounds[old], bounds[old + 1])
        new_id = np.full(self.vertex_count, -1, dtype=np.int64)
        new_id[old_ids] = np.arange(len(old_ids))
        entries = _ranges(self.indptr[bounds[old]], self.indptr[bounds[old + 1]])
        entries = entries[new_id[self.indices[entries]] >= 0]
        new_layer = np.full(len(self.layers), -1, dtype=np.int64)
        new_layer[old] = np.arange(len(old))

        sub = SupraGraph.__new__(SupraGraph)
        sub._assign(
            chosen,
            [self.vertices[v] for v in old_ids.tolist()],
            new_layer[self.layer_of[old_ids]],
            new_id[self.rows[entries]],
            new_id[self.indices[entries]],
            self.weights[entries],
        )
        return sub


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(start, stop)`` over the given pairs."""
    parts = [np.arange(a, b) for a, b in zip(starts.tolist(), stops.tolist())]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _first_seen(labels: np.ndarray) -> np.ndarray:
    """``labels`` renumbered 0..k-1 in order of first appearance."""
    _, first, group = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[group]


def _running_total(terms: np.ndarray) -> float:
    """Sum of ``terms`` added one at a time, left to right."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def multislice_modularity(
    supra: SupraGraph,
    partition: Partition | Mapping[NodeRef, int],
    gamma: float = 1.0,
) -> float:
    """Quality of ``partition`` on the flattened network.

    Raises on an edgeless graph (the normalization is undefined) and when the
    partition does not cover every vertex.
    """
    assignment = partition.assignment if isinstance(partition, Partition) else partition
    if supra.vertex_count == 0:
        raise ValueError("empty graph")
    if supra.total_weight <= 0.0:
        raise ValueError("graph has no edges; modularity undefined")
    try:
        comm = np.array([assignment[v] for v in supra.vertices], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"partition does not cover vertex {exc.args[0]}") from exc
    return _quality(supra, comm, gamma)


def _quality(supra: SupraGraph, comm: np.ndarray, gamma: float) -> float:
    """Multislice modularity of the community labels ``comm``, one per vertex."""
    rows, cols = supra.rows, supra.indices
    link = _running_total(supra.weights[(rows < cols) & (comm[rows] == comm[cols])])

    # strength of every (community, layer) group, summed over vertices in
    # order; groups enter the null term in order of first appearance
    group = _first_seen(comm * len(supra.layers) + supra.layer_of)
    k_sum = np.bincount(group, weights=supra.strength)
    two_m = np.empty_like(k_sum)
    two_m[group] = supra.layer_weight[supra.layer_of]
    live = two_m > 0.0
    null = _running_total(k_sum[live] * k_sum[live] / two_m[live])

    return (2.0 * link - gamma * null) / (2.0 * supra.total_weight)


@dataclass(frozen=True)
class LeidenResult:
    """Partition, its quality, and the per-pass quality log."""

    partition: Partition
    quality: float
    history: tuple[float, ...]


class _Level(NamedTuple):
    """One aggregation level: super-vertices with merged CSR adjacency.

    The term table is a second CSR: row v of ``t_ptr``, ``t_layers``, ``t_k``
    lists super-vertex v's (layer, strength) terms in order of first
    appearance among its members, over ``n_layers`` layers. Every per-layer
    strength sum is one ``np.bincount`` over its entries, which run in
    vertex order. The per-vertex loops slice row v out of :meth:`pairs`;
    null scores add its terms in that order.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    t_ptr: np.ndarray
    t_layers: np.ndarray
    t_k: np.ndarray
    n_layers: int

    @property
    def n(self) -> int:
        return len(self.t_ptr) - 1

    @property
    def owner(self) -> np.ndarray:
        """The vertex of every term-table entry."""
        return np.repeat(np.arange(self.n), np.diff(self.t_ptr))

    def pairs(self) -> tuple[list[tuple[int, float]], list[int]]:
        """The term table as one flat list of (layer, strength) pairs and
        its row bounds: row v is ``pairs[bounds[v]:bounds[v + 1]]``."""
        return list(zip(self.t_layers.tolist(), self.t_k.tolist())), self.t_ptr.tolist()


def _null_scores(
    terms: list[tuple[int, float]],
    comm_strengths: np.ndarray,
    comms: np.ndarray | int,
    inv_layer_weight: list[float],
):
    """gamma-free null interaction between a vertex and each of ``comms``,
    adding the vertex's layers in order from the first term, not ``0.0 +``
    it: that changes only the sign of a zero, and a candidate's positive
    link minus either zero is the same score.
    """
    layer, k = terms[0]
    total = k * comm_strengths[layer][comms] * inv_layer_weight[layer]
    for layer, k in terms[1:]:
        total = total + k * comm_strengths[layer][comms] * inv_layer_weight[layer]
    return total


def _local_move(
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

    The candidate floor (module docstring) needs gamma > 0. ``negative``
    holds the communities that have members and a negative strength in some
    layer; a vertex linked to one of them scores every linked community.
    """
    ptr = level.indptr.tolist()
    indices, weights = level.indices, level.weights
    pairs, bounds = level.pairs()
    queue = deque(rng.permutation(level.n).tolist())
    queued = np.ones(level.n, dtype=bool)
    # each vertex's terms added left to right, as stay_null is below: the
    # builtin sum of Python 3.12 and later compensates, and would give other bits
    null = level.t_k * level.t_k * np.asarray(inv_layer_weight)[level.t_layers]
    self_null = np.bincount(level.owner, weights=null, minlength=level.n).tolist()
    next_id = comm_strengths.shape[1]
    size = np.bincount(comm, minlength=next_id)
    below_zero = (comm_strengths < 0.0).any(axis=0)
    negative = set(np.flatnonzero((size > 0) & below_zero).tolist())
    size = size.tolist()
    moves = 0
    gain = 0.0

    while queue:
        v = queue.popleft()
        queued[v] = False
        current = int(comm[v])
        terms = pairs[bounds[v] : bounds[v + 1]]

        lo, hi = ptr[v], ptr[v + 1]
        nbrs = indices[lo:hi]
        nbr_comm = comm[nbrs]
        weight_to = np.bincount(nbr_comm, weights=weights[lo:hi])
        stay_link = 0.0
        if current < weight_to.size:
            stay_link = float(weight_to[current])
            weight_to[current] = 0.0
        stay_null = 0.0
        for layer, k in terms:
            strength = float(comm_strengths[layer, current])
            stay_null = stay_null + k * strength * inv_layer_weight[layer]
        stay_score = stay_link - gamma * (stay_null - self_null[v])

        # only links above the floor can pass the running test; edge weights
        # are positive, so a floor of 0.0 keeps exactly the linked communities
        floor = max(stay_score + _GAIN_TOL, 0.0)
        if negative and any(c < weight_to.size and weight_to[c] for c in negative):
            floor = 0.0
        cands = (weight_to > floor).nonzero()[0]
        best_comm = current
        best_score = stay_score
        if cands.size:
            scores = weight_to[cands] - gamma * _null_scores(
                terms, comm_strengths, cands, inv_layer_weight
            )
            for cand, score in zip(cands.tolist(), scores.tolist()):
                if score > best_score + _GAIN_TOL:
                    best_comm = cand
                    best_score = score
        # a fresh singleton community scores zero; take it when leaving wins,
        # unless v is alone already: then only float drift can score that
        # relabelling, and with heavy edges such moves cycled without end
        if 0.0 > best_score + _GAIN_TOL and size[current] > 1:
            best_comm = next_id
            best_score = 0.0
            next_id += 1
            if best_comm == comm_strengths.shape[1]:
                size.extend([0] * best_comm)
                comm_strengths = np.concatenate(
                    [comm_strengths, np.zeros_like(comm_strengths)], axis=1
                )

        if best_comm == current:
            continue

        size[current] -= 1
        size[best_comm] += 1
        for layer, k in terms:
            comm_strengths[layer, current] -= k
            comm_strengths[layer, best_comm] += k
            if size[current] and comm_strengths[layer, current] < 0.0:
                negative.add(current)
        if not size[current]:
            negative.discard(current)
        if best_comm in negative and (comm_strengths[:, best_comm] >= 0.0).all():
            negative.discard(best_comm)
        comm[v] = best_comm
        moves += 1
        gain += best_score - stay_score
        wake = nbrs[(nbr_comm != best_comm) & ~queued[nbrs]]
        queued[wake] = True
        queue.extend(wake.tolist())
    return moves, gain


def _refine(
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
    to exp(gain / theta); theta = 0 degenerates to the greedy choice. A lone
    candidate is taken outright, after the one draw sampling would make.
    """
    # a vertex links only to members of its own community: keep those entries
    inside = np.repeat(comm, np.diff(level.indptr)) == comm[level.indices]
    ptr = np.concatenate(([0], np.cumsum(inside)))[level.indptr].tolist()
    indices, weights = level.indices[inside], level.weights[inside]
    pairs, bounds = level.pairs()
    refined = np.arange(level.n)
    ref_strengths = _community_strengths(level, refined, level.n)
    ref_size = [1] * level.n

    for v in rng.permutation(level.n).tolist():
        if ref_size[v] > 1:
            continue
        lo, hi = ptr[v], ptr[v + 1]
        if lo == hi:
            continue
        # v is still alone, so no neighbour shares its refined community
        weight_to = np.bincount(refined[indices[lo:hi]], weights=weights[lo:hi])
        cands = weight_to.astype(bool).nonzero()[0]
        terms = pairs[bounds[v] : bounds[v + 1]]
        raw = weight_to[cands] - gamma * _null_scores(
            terms, ref_strengths, cands, inv_layer_weight
        )
        positive = (raw > _GAIN_TOL).nonzero()[0]
        if not positive.size:
            continue
        candidates = cands[positive]
        if theta <= 0.0:
            chosen = int(candidates[int(np.argmax(raw[positive] / mu))])
        elif positive.size == 1:
            # a draw over one candidate picks it and consumes one number
            rng.random()
            chosen = int(candidates[0])
        else:
            logits = raw[positive] / mu / theta
            odds = np.exp(logits - logits.max())
            chosen = int(candidates[_draw(odds / odds.sum(), rng)])

        ref_size[v] = 0
        for layer, k in terms:
            ref_strengths[layer, chosen] += k
        ref_size[chosen] += 1
        refined[v] = chosen
    return refined


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probabilities ``probs``: the index and the generator
    state of ``rng.choice(len(probs), p=probs)``, without its argument checks."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _merge_rows(
    keys: np.ndarray, values: np.ndarray, n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of the entries summed per key ``row * n_cols + col``.

    Entries arrive in the order a dict per row would see them. Each row
    lists its columns in order of first arrival, and each sum adds its
    entries in arrival order.
    """
    # by hand: np.unique(return_inverse=True) added 3.4 MB to planted's _aggregate peak
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    sums = np.bincount(np.cumsum(first) - 1, weights=values[order])
    keys = keys[first]
    seq = np.lexsort((order[first], keys // n_cols))
    keys = keys[seq]
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(keys // n_cols, minlength=n_rows)))
    )
    return indptr, keys % n_cols, sums[seq]


def _aggregate(
    level: _Level, refined: np.ndarray, comm: np.ndarray
) -> tuple[_Level, np.ndarray, np.ndarray]:
    """Merge refined communities into super-vertices; project communities.

    Returns the new level, its community labels and the super-vertex of
    every vertex of ``level``.
    """
    sv = _first_seen(refined)
    n_new = int(sv.max()) + 1
    new_comm = np.empty(n_new, dtype=np.int64)
    new_comm[sv] = comm

    keys = np.repeat(sv * n_new, np.diff(level.indptr)) + sv[level.indices]
    between = keys // n_new != keys % n_new
    adjacency = _merge_rows(keys[between], level.weights[between], n_new, n_new)

    n_layers = level.n_layers
    keys = sv[level.owner] * n_layers + level.t_layers
    terms = _merge_rows(keys, level.t_k, n_new, n_layers)
    return _Level(*adjacency, *terms, n_layers), new_comm, sv


def _community_strengths(level: _Level, comm: np.ndarray, size: int) -> np.ndarray:
    """Strength of every community in every layer, summed over vertices in order."""
    key = level.t_layers * size + comm[level.owner]
    strengths = np.bincount(key, weights=level.t_k, minlength=level.n_layers * size)
    return strengths.reshape(level.n_layers, size)


def _split_disconnected(supra: SupraGraph, labels: np.ndarray) -> np.ndarray:
    """Split communities into supra-graph connected components.

    Splitting removes no within-community edges, so the link term is intact
    and the per-layer null term can only shrink; Q never decreases. The
    pieces are numbered 0..k-1 in order of their lowest vertex.
    """
    inside = labels[supra.rows] == labels[supra.indices]
    rows, cols = supra.rows[inside], supra.indices[inside]
    root = np.arange(supra.vertex_count)
    # lowest vertex reachable inside the community, by label propagation
    # with pointer jumping
    while True:
        lowest = root.copy()
        np.minimum.at(lowest, rows, root[cols])
        lowest = lowest[lowest]
        if np.array_equal(lowest, root):
            break
        root = lowest
    return _first_seen(labels * supra.vertex_count + root)


def _finite(quality: float, gamma: float) -> float:
    """``quality``, refused when a huge gamma has made it inf or NaN."""
    if not math.isfinite(quality):
        raise ArithmeticError(f"modularity is {quality} at leiden.gamma = {gamma}")
    return quality


def leiden(supra: SupraGraph, cfg: LeidenConfig = LeidenConfig()) -> LeidenResult:
    """Detect communities; deterministic for a fixed (graph, config) pair.

    On a graph with an edge the returned quality equals
    ``multislice_modularity`` of the returned partition; on an edgeless
    graph, where that raises, every vertex is its own community at 0.0.
    Every community induces a connected subgraph, and the per-pass history
    is non-decreasing. Communities are numbered 0..k-1 in order of their
    first vertex in ``supra.vertices``. A singleton or pass quality that is
    not finite raises ``ArithmeticError`` before the next pass runs.
    """
    if supra.vertex_count == 0:
        raise ValueError(f"graph has no vertices in layers {list(supra.layers)}")
    if supra.total_weight <= 0.0:
        assignment = {v: i for i, v in enumerate(supra.vertices)}
        return LeidenResult(Partition(assignment, 0.0), 0.0, (0.0,))

    rng = np.random.default_rng(cfg.seed)
    mu = supra.total_weight
    inv_layer_weight = np.zeros_like(supra.layer_weight)
    nonzero = supra.layer_weight > 0.0
    inv_layer_weight[nonzero] = 1.0 / supra.layer_weight[nonzero]
    inv = inv_layer_weight.tolist()

    # every vertex has one term, its own layer and strength
    terms = (np.arange(supra.vertex_count + 1), supra.layer_of, supra.strength)
    level = _Level(supra.indptr, supra.indices, supra.weights, *terms, len(supra.layers))
    comm = np.arange(level.n)
    top = np.arange(level.n)  # level vertex holding each supra-graph vertex
    # a move changes Q by its gain / mu; refinement and aggregation keep the
    # partition, so each pass's quality follows from the singletons' quality
    q = _finite(_quality(supra, comm, cfg.gamma), cfg.gamma)
    history: list[float] = []

    for _ in range(cfg.max_passes):
        strengths = _community_strengths(level, comm, int(comm.max()) + 1)
        moves, gain = _local_move(level, comm, strengths, cfg.gamma, inv, rng)
        q = _finite(q + gain / mu, cfg.gamma)
        history.append(q)

        refined = _refine(level, comm, cfg.gamma, cfg.theta, mu, inv, rng)
        # refinement merges only onto vertices that stay, so none merged iff no id moved
        if moves == 0 and (refined == np.arange(level.n)).all():
            break
        level, comm, sv = _aggregate(level, refined, comm)
        top = sv[top]

    labels = _split_disconnected(supra, comm[top])
    quality = _quality(supra, labels, cfg.gamma)
    assignment = dict(zip(supra.vertices, labels.tolist()))
    return LeidenResult(Partition(assignment, quality), quality, (*history, quality))
