"""Two-way F-measure between community partitions.

Partitions may cover different node sets; a ground-truth community whose
members do not appear in the other partition at all simply contributes zero
precision and zero recall while still counting toward the macro average.
So two partitions that share no element, or with an empty side, score 0.0.
Matching is by maximum overlap, never by community label, because labels are
arbitrary across independent detection runs.
"""

from __future__ import annotations

from typing import Hashable, Mapping


def _canonical_communities(partition: Mapping[Hashable, int]) -> list[set]:
    """Member sets in canonical order: first appearance over sorted elements.

    Sorting elements first makes the order independent of both mapping
    insertion order and the community labels themselves.
    """
    order: dict[int, int] = {}
    groups: dict[int, set] = {}
    for element in sorted(partition):
        label = partition[element]
        if label not in order:
            order[label] = len(order)
            groups[label] = set()
        groups[label].add(element)
    return [groups[label] for label in sorted(order, key=order.get)]


def one_way_f(
    p_gt: Mapping[Hashable, int], p_sys: Mapping[Hashable, int]
) -> tuple[float, float, float]:
    """(macro precision, macro recall, F) with ``p_gt`` as ground truth.

    Each ground-truth community is matched to the system community with the
    largest overlap (ties broken toward the smaller canonical id). Precision
    is overlap over the matched community's size, recall is overlap over the
    ground-truth community's size; both are zero when nothing overlaps.
    Macro averages are unweighted over ground-truth communities, and an
    empty ground truth scores zero.
    """
    if not p_gt:
        return 0.0, 0.0, 0.0
    gt_groups = _canonical_communities(p_gt)
    sys_groups = _canonical_communities(p_sys)

    precision = recall = 0.0
    for g in gt_groups:
        # no overlap at all leaves 0 / 1: zero precision and zero recall
        overlap, size = 0, 1
        for s in sys_groups:
            shared = len(g & s)
            if shared > overlap:
                overlap, size = shared, len(s)
        precision += overlap / size
        recall += overlap / len(g)

    macro_p = precision / len(gt_groups)
    macro_r = recall / len(gt_groups)
    return macro_p, macro_r, _harmonic(macro_p, macro_r)


def bidirectional_f(
    p_a: Mapping[Hashable, int], p_b: Mapping[Hashable, int]
) -> float:
    """Harmonic mean of the two directed F-measures; symmetric in a and b."""
    f_ab = one_way_f(p_a, p_b)[2]
    f_ba = one_way_f(p_b, p_a)[2]
    return _harmonic(f_ab, f_ba)


def _harmonic(x: float, y: float) -> float:
    if x <= 0.0 or y <= 0.0:
        return 0.0
    return 2.0 * x * y / (x + y)
