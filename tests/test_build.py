import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from cobalt import build
from cobalt.build import build_network, edge_weight, normalize_layer
from cobalt.model import (
    DegenerateLayerError,
    InsufficientDataError,
    NodeRef,
    ScoreTable,
    edge_key,
)

finite_scores = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def table_of(columns: dict[str, list[float | None]]) -> ScoreTable:
    n = max(len(v) for v in columns.values())
    entities = tuple(f"e{i}" for i in range(n))
    scores = {}
    for layer, values in columns.items():
        for i, v in enumerate(values):
            if v is not None:
                scores[(entities[i], layer)] = float(v)
    return ScoreTable(entities, tuple(columns), scores)


def reference_network(table: ScoreTable, layers):
    """Nodes and weight maps built loop by loop from the definition, with
    scalar :func:`edge_weight` calls."""
    z = {layer: normalize_layer(table, layer).values for layer in layers}
    nodes = {NodeRef(e, layer) for layer in layers for e in z[layer]}
    intra = {}
    for layer in layers:
        for a, b in itertools.combinations(z[layer], 2):
            key = edge_key(NodeRef(a, layer), NodeRef(b, layer))
            intra[key] = edge_weight(z[layer][a], z[layer][b])
    inter = {}
    for la, lb in itertools.combinations(layers, 2):
        for e in z[la]:
            if e in z[lb]:
                key = edge_key(NodeRef(e, la), NodeRef(e, lb))
                inter[key] = edge_weight(z[la][e], z[lb][e])
    return nodes, intra, inter


class TestNormalizeLayer:
    def test_one_two_three(self):
        # population sigma of [1,2,3] is sqrt(2/3)
        norm = normalize_layer(table_of({"A": [1.0, 2.0, 3.0]}), "A")
        expected = math.sqrt(3.0 / 2.0)
        assert norm.values["e0"] == pytest.approx(-expected, abs=1e-12)
        assert norm.values["e1"] == pytest.approx(0.0, abs=1e-12)
        assert norm.values["e2"] == pytest.approx(expected, abs=1e-12)

    def test_constant_column_degenerate(self):
        with pytest.raises(DegenerateLayerError):
            normalize_layer(table_of({"A": [5.0, 5.0, 5.0]}), "A")

    def test_single_present_score_insufficient(self):
        with pytest.raises(InsufficientDataError):
            normalize_layer(table_of({"A": [1.0, None, None]}), "A")

    def test_symmetric_pair(self):
        norm = normalize_layer(table_of({"A": [-4.0, 4.0]}), "A")
        assert norm.values["e0"] == pytest.approx(-1.0)
        assert norm.values["e1"] == pytest.approx(1.0)

    def test_moments_of_output(self):
        norm = normalize_layer(table_of({"A": [3.0, 9.5, -2.0, 7.25, 0.5]}), "A")
        values = list(norm.values.values())
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert math.sqrt(var) == pytest.approx(1.0, abs=1e-9)

    def test_skips_missing_cells(self):
        norm = normalize_layer(table_of({"A": [1.0, None, 3.0]}), "A")
        assert set(norm.values) == {"e0", "e2"}


class TestEdgeWeights:
    def test_half_difference(self):
        assert edge_weight(0.25, 0.75) == pytest.approx(2.0)

    def test_unit_difference(self):
        assert edge_weight(1.0, 2.0) == pytest.approx(1.0)

    def test_zero_difference_clamped(self):
        assert edge_weight(0.3, 0.3) == pytest.approx(1e9)

    def test_inter_matches_intra_formula(self):
        # one function weighs both edge kinds, elementwise over arrays
        a, b = [0.2, 1.0, 0.0], [0.7, 1.0, 4.0]
        assert edge_weight(np.array(a), np.array(b)).tolist() == [
            edge_weight(x, y) for x, y in zip(a, b)
        ]
        assert edge_weight(0.2, 0.7) == pytest.approx(2.0)
        assert edge_weight(1.0, 1.0) == pytest.approx(1e9)
        assert edge_weight(0.0, 4.0) == pytest.approx(0.25)

    @given(finite_scores, finite_scores)
    def test_swap_invariance(self, a, b):
        assert edge_weight(a, b) == edge_weight(b, a)

    @given(finite_scores, st.floats(0, 1e6), st.floats(0, 1e6))
    def test_monotone_in_distance(self, s, d1, d2):
        lo, hi = sorted((d1, d2))
        assert edge_weight(s, s + hi) <= edge_weight(s, s + lo)

    @given(finite_scores, finite_scores)
    def test_weight_positive(self, a, b):
        assert edge_weight(a, b) > 0


class TestBuildLayerGraph:
    """Single-layer networks: ``build_network(table, [layer])``."""

    def test_complete_edge_count(self):
        graph = build_network(table_of({"A": [1.0, 2.0, 4.0, 8.0, 9.0]}), ["A"])
        assert len(graph.intra_edges) == math.comb(5, 2)

    def test_two_entities_single_edge(self):
        graph = build_network(table_of({"A": [1.0, 2.0]}), ["A"])
        assert len(graph.intra_edges) == 1

    def test_weights_positive(self):
        graph = build_network(table_of({"A": [1.0, 2.0, 4.0]}), ["A"])
        assert all(w > 0 for w in graph.intra_edges.values())

    def test_missing_entities_excluded(self):
        graph = build_network(table_of({"A": [1.0, None, 3.0, 5.0]}), ["A"])
        assert NodeRef("e1", "A") not in graph.nodes
        assert len(graph.intra_edges) == math.comb(3, 2)

    def test_weight_values_match_normalized_reciprocal(self):
        table = table_of({"A": [1.0, 2.0, 3.0]})
        norm = normalize_layer(table, "A")
        graph = build_network(table, ["A"])
        a, b = NodeRef("e0", "A"), NodeRef("e1", "A")
        expected = 1.0 / abs(norm.values["e0"] - norm.values["e1"])
        assert graph.intra_edges[(a, b)] == pytest.approx(expected)


class TestExtendMln:
    """Coupling edges of multi-layer builds: ``build_network(table, layers)``."""

    def test_base_case_single_layer(self):
        table = table_of({"A": [1.0, 2.0, 3.0], "B": [2.0, 1.0, 5.0]})
        base = build_network(table, ["A"])
        assert not base.inter_edges

    def test_shared_entities_one_coupling_each(self):
        table = table_of({"A": [1.0, 2.0, 3.0, None], "B": [2.0, 1.0, None, 4.0]})
        net = build_network(table, ["A", "B"])
        # shared entities are e0, e1
        assert len(net.inter_edges) == 2
        for (a, b) in net.inter_edges:
            assert a.entity == b.entity

    def test_three_layers_all_pairs_for_full_entity(self):
        table = table_of(
            {"A": [1.0, 2.0, 3.0], "B": [2.0, 1.0, 5.0], "C": [0.0, 7.0, 1.0]}
        )
        net = build_network(table, ["A", "B", "C"])
        per_entity = {}
        for (a, b) in net.inter_edges:
            per_entity[a.entity] = per_entity.get(a.entity, 0) + 1
        # every entity present in all 3 layers: C(3,2) couplings each
        assert per_entity == {"e0": 3, "e1": 3, "e2": 3}

    def test_inter_edge_count_is_sum_of_shared(self):
        table = table_of(
            {
                "A": [1.0, 2.0, 3.0, 4.0, None],
                "B": [2.0, 1.0, None, None, 5.0],
                "C": [0.0, None, 1.0, 2.0, 3.0],
            }
        )
        before = len(build_network(table, ["A", "B"]).inter_edges)
        after = len(build_network(table, ["A", "B", "C"]).inter_edges)
        shared_with_a = {"e0", "e2", "e3"}
        shared_with_b = {"e0", "e4"}
        assert after - before == len(shared_with_a) + len(shared_with_b)

    def test_duplicate_layer_rejected(self):
        table = table_of({"A": [1.0, 2.0], "B": [3.0, 1.0]})
        with pytest.raises(ValueError, match="duplicate layer"):
            build_network(table, ["A", "A"])

    def test_build_network_matches_reference_builder(self):
        table = table_of(
            {"A": [1.0, 2.0, 3.0], "B": [2.0, 1.0, 5.0], "C": [0.0, 7.0, None]}
        )
        for layers in (["A", "B", "C"], ["C", "A", "B"]):
            net = build_network(table, layers)
            nodes, intra, inter = reference_network(table, layers)
            assert net.layers == tuple(layers)
            assert net.nodes == nodes
            assert net.intra_edges == intra
            assert net.inter_edges == inter

    def test_normalizes_each_layer_once_and_builds_one_network(self, monkeypatch):
        calls = {"normalize_layer": 0, "MultiLayerNetwork": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(build, name, counted(name, getattr(build, name)))
        table = table_of(
            {"A": [1.0, 2.0, 3.0], "B": [2.0, 1.0, 5.0], "C": [0.0, 7.0, None]}
        )
        build.build_network(table)
        assert calls == {"normalize_layer": 3, "MultiLayerNetwork": 1}

    @given(st.data())
    def test_matches_reference_builder_with_missing_cells(self, data):
        n = data.draw(st.integers(2, 8))
        # entity names out of sorted order exercise canonical edge keys
        names = [f"e{k}" for k in data.draw(st.permutations(range(10, 10 + n)))]
        cell = st.one_of(st.none(), st.integers(0, 4), st.floats(-50, 50))
        layers = ("B", "A", "C")[: data.draw(st.integers(1, 3))]
        scores = {}
        for layer in layers:
            for e, v in zip(names, data.draw(st.lists(cell, min_size=n, max_size=n))):
                if v is not None:
                    scores[(e, layer)] = float(v)
        table = ScoreTable(tuple(names), layers, scores)
        for layer in layers:
            values = [v for (_, l), v in scores.items() if l == layer]
            assume(len(values) >= 2 and np.std(values) > 0)

        net = build_network(table)
        nodes, intra, inter = reference_network(table, layers)
        assert net.nodes == nodes
        assert net.intra_edges == intra
        assert net.inter_edges == inter
