"""Force-directed node placement for single-layer drawings.

Classic spring embedding: every vertex pair repels with k^2/d, every edge
attracts with w * d^2/k, displacements are capped by a temperature that
cools linearly to zero. Seeded initial positions make the result
deterministic; the final layout is centered so a lone vertex sits at the
origin and a connected pair straddles it symmetrically.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

DEFAULT_ITERATIONS = 500


def fr_layout(
    nodes: Sequence[Hashable],
    edges: Mapping[tuple[Hashable, Hashable], float],
    seed: int = 0,
) -> dict[Hashable, tuple[float, float]]:
    """2D positions for ``nodes``; ``edges`` maps node pairs to weights."""
    n = len(nodes)
    if n == 0:
        raise ValueError("layout needs at least one node")
    if n == 1:
        return {nodes[0]: (0.0, 0.0)}

    index = {node: i for i, node in enumerate(nodes)}
    edge_idx = np.array(
        [[index[a], index[b]] for a, b in edges], dtype=np.int64
    ).reshape(-1, 2)
    edge_w = np.array([edges[e] for e in edges], dtype=float)

    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1.0, 1.0, size=(n, 2))
    k = 1.0 / np.sqrt(n)
    temperature = 0.1

    for step in range(DEFAULT_ITERATIONS):
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(delta, axis=-1)
        np.fill_diagonal(dist, 1.0)
        dist = np.maximum(dist, 1e-9)

        # repulsion k^2/d between all pairs
        disp = (delta / dist[..., None]) * (k * k / dist)[..., None]
        np.einsum("iij->ij", disp)[...] = 0.0
        disp = disp.sum(axis=1)

        # attraction w * d^2/k along edges
        if len(edge_idx):
            src, dst = edge_idx[:, 0], edge_idx[:, 1]
            evec = pos[src] - pos[dst]
            edist = np.maximum(np.linalg.norm(evec, axis=1), 1e-9)
            pull = (evec / edist[:, None]) * (edge_w * edist * edist / k)[:, None]
            np.subtract.at(disp, src, pull)
            np.add.at(disp, dst, pull)

        length = np.maximum(np.linalg.norm(disp, axis=1), 1e-9)
        capped = disp / length[:, None] * np.minimum(length, temperature)[:, None]
        pos += capped
        temperature = 0.1 * (1.0 - (step + 1) / DEFAULT_ITERATIONS)

    pos -= pos.mean(axis=0)
    if not np.all(np.isfinite(pos)):
        raise ArithmeticError("layout diverged to non-finite coordinates")
    return {node: (float(pos[i, 0]), float(pos[i, 1])) for node, i in index.items()}
