import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cobalt.config import PipelineConfig
from cobalt.model import (
    EdgeArrays,
    MultiLayerNetwork,
    NodeRef,
    ScoreTable,
    validate_score_table,
)
from cobalt.pipeline import build_pruned_network

from _support import network_of


def make_table(cells, entities=("e1", "e2", "e3"), layers=("A", "B")):
    return ScoreTable(tuple(entities), tuple(layers), dict(cells))


class TestValidateScoreTable:
    def test_valid_table_has_no_violations(self):
        table = make_table({(e, l): 1.0 for e in ("e1", "e2", "e3") for l in ("A", "B")})
        assert validate_score_table(table) == []

    def test_duplicate_entity_id(self):
        table = make_table(
            {(e, l): 1.0 for e in ("e1", "e2") for l in ("A", "B")},
            entities=("e1", "e2", "e2"),
        )
        violations = validate_score_table(table)
        assert sum("duplicate entity" in v for v in violations) == 1

    def test_non_finite_score(self):
        cells = {(e, l): 1.0 for e in ("e1", "e2", "e3") for l in ("A", "B")}
        cells[("e1", "B")] = float("nan")
        assert any("not finite" in v for v in validate_score_table(make_table(cells)))

    def test_entity_with_all_layers_missing_rejected(self):
        cells = {("e1", "A"): 1.0, ("e2", "A"): 2.0}
        violations = validate_score_table(make_table(cells))
        assert any("e3" in v and "no score" in v for v in violations)

    def test_too_few_entities(self):
        table = ScoreTable(("only",), ("A",), {("only", "A"): 1.0})
        assert any("at least 2" in v for v in validate_score_table(table))

    @pytest.mark.parametrize(
        "value, message",
        [
            (None, "is not a number: None"),
            ("2", "is not a number: '2'"),
            (10**400, "is outside the float range"),
            (-(10**400), "is outside the float range"),
        ],
        ids=["none", "string", "huge_int", "huge_negative_int"],
    )
    def test_cell_that_is_no_float_is_named(self, value, message):
        cells = {(e, l): 1.0 for e in ("e1", "e2", "e3") for l in ("A", "B")}
        cells[("e2", "B")] = value
        violations = validate_score_table(make_table(cells))
        assert violations == [f"cell ('e2', 'B') {message}"]

    @settings(deadline=None)
    @given(st.data())
    def test_direct_tables_give_violations_or_a_network(self, data):
        """Tables built directly, as library callers build them: the checks
        never raise, and a table that passes them builds a network or fails
        with an error the CLI maps to exit 2 or 3."""
        table = data.draw(direct_score_tables())
        violations = validate_score_table(table)
        assert all(isinstance(v, str) for v in violations)
        if violations:
            return
        try:
            network = build_pruned_network(table, PipelineConfig())
        except (ValueError, ArithmeticError):
            return
        assert network.layers == table.layers


# a few finite floats of every size, and the cells no table should hold
good_cells = (
    st.floats(-1e6, 1e6) | st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False)
)
bad_cells = (
    st.sampled_from([math.nan, math.inf, -math.inf, None, "", "2"])
    | st.integers(-(10**400), 10**400)
    | st.text(max_size=3)
)


@st.composite
def direct_score_tables(draw):
    """ScoreTable built without the CSV reader. Half the tables have unique,
    non-empty ids and number cells, so that some pass the checks; in the
    rest ids may be empty or repeated, cells may be bad, and some cells name
    unknown entities or layers."""
    well_formed = draw(st.booleans())
    if well_formed:
        ids = st.text("pqr", min_size=1, max_size=2)
        entities = draw(st.lists(ids, min_size=2, max_size=6, unique=True))
        names = st.text("AB", min_size=1, max_size=2)
        layers = draw(st.lists(names, min_size=1, max_size=3, unique=True))
        cells = good_cells
    else:
        entities = draw(st.lists(st.text("pq", max_size=2), max_size=6))
        layers = draw(st.lists(st.text("AB", max_size=1), max_size=3))
        cells = good_cells | bad_cells
    scores = {
        (e, layer): draw(cells)
        for e in entities
        for layer in layers
        if draw(st.integers(0, 7))
    }
    if not well_formed:
        strays = st.tuples(st.text("pqz", max_size=2), st.text("ABZ", max_size=1))
        scores.update((key, draw(cells)) for key in draw(st.lists(strays, max_size=2)))
    return ScoreTable(tuple(entities), tuple(layers), scores)


class TestLayerNodeSet:
    """A layer's present entities, as ``ScoreTable.layer_values`` lists them."""

    def test_complete_column(self):
        table = make_table({(e, "A"): 1.0 for e in ("e1", "e2", "e3")}, layers=("A",))
        assert set(table.layer_values("A")[0]) == {"e1", "e2", "e3"}

    def test_empty_column(self):
        table = make_table({(e, "A"): 1.0 for e in ("e1", "e2", "e3")})
        assert set(table.layer_values("B")[0]) == set()

    def test_partial_column_cardinality(self):
        entities = tuple(f"e{i}" for i in range(5))
        cells = {(e, "A"): float(i) for i, e in enumerate(entities[:3])}
        cells.update({(e, "B"): 1.0 for e in entities})
        table = make_table(cells, entities=entities)
        assert set(table.layer_values("A")[0]) == set(entities[:3])

    def test_unknown_layer_raises(self):
        table = make_table({("e1", "A"): 1.0})
        with pytest.raises(ValueError, match="unknown layer"):
            set(table.layer_values("Z")[0])

    def test_cardinality_matches_cell_count_every_layer(self):
        entities = tuple(f"e{i}" for i in range(6))
        cells = {}
        for i, e in enumerate(entities):
            if i % 2 == 0:
                cells[(e, "A")] = float(i)
            cells[(e, "B")] = float(i)
        table = make_table(cells, entities=entities)
        for layer in table.layers:
            expected = sum(1 for e in entities if (e, layer) in cells)
            assert len(set(table.layer_values(layer)[0])) == expected


class TestNetworkInvariants:
    def test_self_loop_rejected(self):
        node = NodeRef("e1", "A")
        with pytest.raises(ValueError, match="self-loop"):
            network_of(("A",), {node}, {(node, node): 1.0}, {})

    def test_inter_edge_must_share_entity(self):
        a, b = NodeRef("e1", "A"), NodeRef("e2", "B")
        with pytest.raises(ValueError, match="couple one entity"):
            network_of(("A", "B"), {a, b}, {}, {(a, b): 1.0})

    def test_intra_edge_must_stay_in_layer(self):
        a, b = NodeRef("e1", "A"), NodeRef("e1", "B")
        with pytest.raises(ValueError, match="spans layers"):
            network_of(("A", "B"), {a, b}, {(a, b): 1.0}, {})

    def test_non_positive_weight_rejected(self):
        a, b = NodeRef("e1", "A"), NodeRef("e2", "A")
        with pytest.raises(ValueError, match="weight"):
            network_of(("A",), {a, b}, {(a, b): 0.0}, {})

    def test_negative_vertex_id_rejected(self):
        # -3 < 1 would pass the canonical-order check and wrap to vertex 0
        a, b, c = NodeRef("e1", "A"), NodeRef("e2", "A"), NodeRef("e3", "A")
        ids = np.array([-3]), np.array([1])
        none = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="endpoint outside node set"):
            MultiLayerNetwork(
                ("A",), [a, b, c], EdgeArrays(*ids, np.ones(1)), EdgeArrays(none, none, none)
            )

    @pytest.mark.parametrize(
        "layers, vertices, message",
        [
            # edge 0-1 would silently become a-b if the vertices were sorted
            (("A",), ["c", "a", "b"], "vertices: .*'a'.* is out of order"),
            (("A", "B"), [("a", "B"), ("a", "A")], "vertices: .*'A'.* is out of order"),
            (("A",), ["a", "b", "b"], "vertices: .*'b'.* is listed twice"),
        ],
    )
    def test_vertices_are_checked_never_reordered(self, layers, vertices, message):
        vertices = [NodeRef(*v) if isinstance(v, tuple) else NodeRef(v, "A") for v in vertices]
        one = EdgeArrays(np.array([0]), np.array([1]), np.ones(1))
        none = EdgeArrays(*(np.zeros(0, dtype=np.int64),) * 2, np.zeros(0))
        with pytest.raises(ValueError, match=message):
            MultiLayerNetwork(layers, vertices, one, none)

    def test_subnetwork_keeps_only_chosen_layers(self):
        a1, b1 = NodeRef("e1", "A"), NodeRef("e2", "A")
        a2 = NodeRef("e1", "B")
        net = network_of(("A", "B"), {a1, b1, a2}, {(a1, b1): 1.0}, {(a1, a2): 2.0})
        sub = net.subnetwork(["A"])
        assert sub.layers == ("A",)
        assert sub.nodes == frozenset({a1, b1})
        assert not sub.inter_edges


_A1, _A2, _B1 = NodeRef("e1", "A"), NodeRef("e2", "A"), NodeRef("e1", "B")
_C2 = NodeRef("e2", "B")
_ALL = frozenset({_A1, _A2, _B1, _C2})


_NETWORK_RULES = [
        (("A", "A"), frozenset(), {}, {}, "layers: 'A' is listed twice"),
        (("A",), frozenset({_A1, _B1}), {}, {}, "vertices: .* is in no layer of"),
        (("A", "B"), _ALL, {(_A1, _B1): 1.0}, {}, "intra edge .* spans layers"),
        (("A", "B"), _ALL, {}, {(_A1, _C2): 1.0}, "must couple one entity across layers"),
        (("A", "B"), _ALL, {}, {(_A1, _A1): 1.0}, "must couple one entity across layers"),
        (("A", "B"), _ALL, {(_A1, _A1): 1.0}, {}, "self-loop on"),
        (("A", "B"), _ALL, {(_A2, _A1): 1.0}, {}, "not in canonical order"),
        (("A", "B"), _ALL, {}, {(_B1, _A1): 1.0}, "not in canonical order"),
        (("A", "B"), frozenset({_A1}), {(_A1, _A2): 1.0}, {}, "endpoint outside node set"),
        (("A", "B"), frozenset({_A1}), {}, {(_A1, _B1): 1.0}, "endpoint outside node set"),
        (("A", "B"), _ALL, {(_A1, _A2): 0.0}, {}, "non-positive weight"),
        (("A", "B"), _ALL, {(_A1, _A2): -1.0}, {}, "non-positive weight"),
        (("A", "B"), _ALL, {}, {(_A1, _B1): math.nan}, "non-positive weight"),
        (("A", "B"), _ALL, {}, {(_A1, _B1): math.inf}, "non-positive weight"),
]


@pytest.mark.parametrize("layers, nodes, intra, inter, message", _NETWORK_RULES)
def test_each_network_rule_raises_its_message(layers, nodes, intra, inter, message):
    with pytest.raises(ValueError, match=message):
        network_of(layers, nodes, intra, inter)


@pytest.mark.parametrize(
    "layers, nodes, intra, inter, message",
    [rule for rule in _NETWORK_RULES if "outside node set" not in rule[-1]],
)
def test_array_edges_follow_the_same_rules(layers, nodes, intra, inter, message):
    """A bad edge behind a valid one is caught too: the checks scan whole arrays."""
    valid_intra = {(_B1, _C2): 1.0} if intra else {}
    valid_inter = {(_A2, _C2): 1.0} if inter else {}
    with pytest.raises(ValueError, match=message):
        network_of(layers, nodes, {**valid_intra, **intra}, {**valid_inter, **inter})


def _edges(a, b, w, ids=np.int64):
    return EdgeArrays(np.array(a, dtype=ids), np.array(b, dtype=ids), np.array(w, dtype=float))


_NO_EDGES = _edges([], [], [])
_SHAPES = "needs 1-D numpy arrays of one length, with integer ids"


@pytest.mark.parametrize(
    "intra, inter, message",
    [
        (_edges([0, 0, 1], [1, 1, 2], [1.0] * 3), _NO_EDGES, "intra edge .* is listed twice"),
        (_edges([0, 1], [1, 2], [1.0, 2.0, 3.0]), _NO_EDGES, f"intra: {_SHAPES}"),
        (_edges([0, 1], [1, 2], [1.0]), _NO_EDGES, f"intra: {_SHAPES}"),
        (_edges([[0, 1]], [[1, 2]], [[1.0, 1.0]]), _NO_EDGES, f"intra: {_SHAPES}"),
        (_edges([0, 1], [1, 2], [1.0, 1.0], ids=float), _NO_EDGES, f"intra: {_SHAPES}"),
        (EdgeArrays([0], [1], [1.0]), _NO_EDGES, f"intra: {_SHAPES}"),
        (_NO_EDGES, _edges([0, 0], [3, 3], [1.0, 1.0]), "inter edge .* is listed twice"),
    ],
    ids=["repeated", "w_longer", "w_shorter", "2d", "float_ids", "lists", "repeated_coupling"],
)
def test_edge_set_is_checked_whole(intra, inter, message):
    """Layer A holds vertices 0..2 and layer B vertex 3, entity a's copy."""
    vertices = [NodeRef("a", "A"), NodeRef("b", "A"), NodeRef("c", "A"), NodeRef("a", "B")]
    with pytest.raises(ValueError, match=f"^{message}"):
        MultiLayerNetwork(("A", "B"), vertices, intra, inter)


@pytest.mark.parametrize("ids, n, far", [(np.int8, 127, (2, 3)), (np.uint16, 400, (163, 337))])
def test_narrow_ids_keep_edges_apart(ids, n, far):
    """The repeat keys ``a * n + b`` are formed in int64: in the ids' own
    dtype the key of edge ``far`` would wrap onto that of edge 0-1."""
    vertices = [NodeRef(f"e{k:03d}", "A") for k in range(n)]
    a, b = [0, far[0]], [1, far[1]]
    network = MultiLayerNetwork(("A",), vertices, _edges(a, b, [1.0, 1.0], ids), _NO_EDGES)
    assert len(network.intra_edges) == 2
    with pytest.raises(ValueError, match="^intra edge .*'e000'.*'e001'.* is listed twice"):
        MultiLayerNetwork(("A",), vertices, _edges([0, *a], [1, *b], [1.0] * 3, ids), _NO_EDGES)


class TestEdgeArrays:
    def test_views_are_read_only_and_follow_the_arrays(self):
        net = network_of(
            ("B", "A"), _ALL, {(_A1, _A2): 2.0}, {(_A1, _B1): 3.0, (_A2, _C2): 4.0}
        )
        assert [net.vertices[i] for i in range(4)] == [_B1, _C2, _A1, _A2]
        assert net.layer_of.tolist() == [0, 0, 1, 1]
        # couplings list the copy in layer "A" first, as their keys do
        assert net.inter.a.tolist() == [2, 3] and net.inter.b.tolist() == [0, 1]
        assert dict(net.inter_edges) == {(_A1, _B1): 3.0, (_A2, _C2): 4.0}
        with pytest.raises(TypeError):
            net.intra_edges[(_A1, _A2)] = 5.0

    @given(st.data())
    @settings(max_examples=40)
    def test_subnetwork_equals_filtered_views(self, data):
        layers = ("D", "B", "C", "A")
        entities = [f"x{k}" for k in range(5)]
        nodes = data.draw(
            st.sets(st.builds(NodeRef, st.sampled_from(entities), st.sampled_from(layers)))
        )
        weight = st.floats(0.5, 9.0)
        intra = {
            (a, b): data.draw(weight)
            for a, b in itertools.combinations(sorted(nodes), 2)
            if a.layer == b.layer and data.draw(st.booleans())
        }
        inter = {
            (a, b): data.draw(weight)
            for a, b in itertools.combinations(sorted(nodes), 2)
            if a.entity == b.entity and data.draw(st.booleans())
        }
        net = network_of(layers, nodes, intra, inter)
        chosen = data.draw(st.permutations(layers))[: data.draw(st.integers(0, 4))]
        sub = net.subnetwork(chosen)
        keep = set(chosen)
        assert sub.layers == tuple(chosen)
        assert sub.nodes == {n for n in nodes if n.layer in keep}
        assert sub.vertices == tuple(
            sorted(sub.nodes, key=lambda n: (chosen.index(n.layer), n.entity))
        )
        assert dict(sub.intra_edges) == {e: w for e, w in intra.items() if e[0].layer in keep}
        assert dict(sub.inter_edges) == {
            e: w for e, w in inter.items() if {e[0].layer, e[1].layer} <= keep
        }
