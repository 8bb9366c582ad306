"""Two-way F-measure between community partitions.

Partitions may cover different node sets; a ground-truth community whose
members do not appear in the other partition at all simply contributes zero
precision and zero recall while still counting toward the macro average.
Matching is by maximum overlap, never by community label, because labels are
arbitrary across independent detection runs.
"""

from __future__ import annotations

from typing import Hashable, Mapping


class DisjointPartitionsError(ValueError):
    """The two partitions share no elements, similarity is undefined."""


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


def _require_shared(p_gt: Mapping, p_sys: Mapping) -> None:
    if not p_gt or not p_sys:
        raise DisjointPartitionsError("empty partition")
    if not set(p_gt) & set(p_sys):
        raise DisjointPartitionsError("partitions share no elements")


def one_way_f(
    p_gt: Mapping[Hashable, int], p_sys: Mapping[Hashable, int]
) -> tuple[float, float, float]:
    """(macro precision, macro recall, F) with ``p_gt`` as ground truth.

    Each ground-truth community is matched to the system community with the
    largest overlap (ties broken toward the smaller canonical id). Precision
    is overlap over the matched community's size, recall is overlap over the
    ground-truth community's size; both are zero when nothing overlaps.
    Macro averages are unweighted over ground-truth communities.
    """
    _require_shared(p_gt, p_sys)
    gt_groups = _canonical_communities(p_gt)
    sys_groups = _canonical_communities(p_sys)

    precisions: list[float] = []
    recalls: list[float] = []
    for g in gt_groups:
        best_overlap = 0
        best_size = 0
        for s in sys_groups:
            overlap = len(g & s)
            if overlap > best_overlap:
                best_overlap = overlap
                best_size = len(s)
        if best_overlap == 0:
            precisions.append(0.0)
            recalls.append(0.0)
        else:
            precisions.append(best_overlap / best_size)
            recalls.append(best_overlap / len(g))

    macro_p = sum(precisions) / len(precisions)
    macro_r = sum(recalls) / len(recalls)
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
