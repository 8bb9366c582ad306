"""Community-colored SVG drawings, one panel per layer.

Community ids map to a fixed 12-color palette; the mapping is shared across
layers so the same community keeps its color in every panel. When there are
more communities than colors, the palette cycles and a different node shape
marks each cycle.
"""

from __future__ import annotations

from pathlib import Path

from .layout import fr_layout
from .model import MultiLayerNetwork, NodeRef, Partition

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)

_SIZE = 640
_MARGIN = 40
_RADIUS = 6.0


def community_color(community: int) -> tuple[str, int]:
    """(fill color, shape cycle index) for a community id."""
    return PALETTE[community % len(PALETTE)], community // len(PALETTE)


def render_layer_svg(
    network: MultiLayerNetwork,
    partition: Partition,
    layer: str,
    seed: int = 0,
) -> str:
    """SVG text for one layer, nodes colored by community."""
    if not partition.assignment:
        raise ValueError("empty partition")
    nodes = sorted(n for n in network.nodes if n.layer == layer)
    if not nodes:
        raise ValueError(f"layer {layer!r} has no nodes")
    for node in nodes:
        if node not in partition.assignment:
            raise ValueError(f"partition does not cover {node}")

    edges = network.subnetwork([layer]).intra_edges
    positions = fr_layout(nodes, edges, seed=seed)
    xs = [p[0] for p in positions.values()]
    ys = [p[1] for p in positions.values()]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    scale = (_SIZE - 2 * _MARGIN) / span

    def place(node: NodeRef) -> tuple[float, float]:
        x, y = positions[node]
        return (
            _MARGIN + (x - min(xs)) * scale,
            _MARGIN + (y - min(ys)) * scale,
        )

    parts = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<title>{layer}</title>',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    for (a, b) in sorted(edges):
        xa, ya = place(a)
        xb, yb = place(b)
        parts.append(
            f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
            'stroke="#cccccc" stroke-width="0.5"/>'
        )
    for node in nodes:
        x, y = place(node)
        color, shape = community_color(partition.assignment[node])
        parts.append(_marker(x, y, color, shape))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _marker(x: float, y: float, color: str, shape: int) -> str:
    r = _RADIUS
    if shape % 3 == 0:
        return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}"/>'
    if shape % 3 == 1:
        return (
            f'<rect x="{x - r:.2f}" y="{y - r:.2f}" width="{2 * r}" height="{2 * r}" '
            f'fill="{color}"/>'
        )
    points = f"{x:.2f},{y - r:.2f} {x - r:.2f},{y + r:.2f} {x + r:.2f},{y + r:.2f}"
    return f'<polygon points="{points}" fill="{color}"/>'


def render_network(
    network: MultiLayerNetwork,
    partition: Partition,
    out_dir: str | Path,
    seed: int = 0,
) -> list[Path]:
    """One SVG file per layer in ``out_dir``; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for layer in network.layers:
        svg = render_layer_svg(network, partition, layer, seed)
        path = out / f"layer_{_safe_name(layer)}.svg"
        path.write_text(svg, encoding="utf-8")
        written.append(path)
    return written


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
