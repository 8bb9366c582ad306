import math

import pytest

from cobalt import selector
from cobalt.community import LeidenConfig, SupraGraph
from cobalt.config import PipelineConfig
from cobalt.model import NodeRef, Partition
from cobalt.pipeline import run_selection
from cobalt.selector import (
    IterationRecord,
    IterationTrace,
    LayerCostBreakdown,
    availability_ratio,
    cobalt_init,
    cobalt_select,
    layer_cost,
    project_partition,
    stopping_condition,
)

from _support import clique_edges, halves_and_parity_table, mln_from_edges


class TestAvailabilityRatio:
    def test_half_coverage(self):
        incumbent = {f"e{i}" for i in range(30)}
        candidate = {f"e{i}" for i in range(15)} | {f"x{i}" for i in range(50)}
        assert availability_ratio(incumbent, candidate) == pytest.approx(0.5)

    def test_superset_candidate(self):
        incumbent = {"a", "b"}
        assert availability_ratio(incumbent, {"a", "b", "c"}) == 1.0

    def test_disjoint(self):
        assert availability_ratio({"a"}, {"b"}) == 0.0

    def test_empty_incumbent_errors(self):
        with pytest.raises(ValueError, match="empty"):
            availability_ratio(set(), {"a"})


class TestProjectPartition:
    def test_latest_layer_wins(self):
        assignment = {
            NodeRef("e", "A"): 0,
            NodeRef("e", "B"): 1,
            NodeRef("f", "A"): 2,
        }
        projected = project_partition(assignment, ["A", "B"])
        assert projected == {"e": 1, "f": 2}

    def test_single_layer_identity(self):
        assignment = {NodeRef("e", "A"): 3, NodeRef("f", "A"): 4}
        assert project_partition(assignment, ["A"]) == {"e": 3, "f": 4}


class TestLayerCost:
    def test_best_case(self):
        b = layer_cost({"a", "b"}, {"a", "b"}, {"a": 0, "b": 1}, {"x": 0}, "L")
        assert b.availability == 1.0
        assert b.similarity == 0.0
        assert b.cost == pytest.approx(1.0)

    def test_half_availability_with_worked_similarity(self):
        incumbent = {f"e{i}" for i in range(2)} | {"pi", "pj", "pk"}
        # picks A = 0.5 by construction below
        inc_entities = {"pi", "pj", "pk", "q1"}
        cand_entities = {"pi", "pj", "x1", "x2"}
        p_inc = {"pi": 0, "pj": 0, "pk": 1}
        p_cand = {"pi": 0, "py": 1, "pz": 2}
        b = layer_cost(inc_entities, cand_entities, p_inc, p_cand, "L")
        assert b.availability == pytest.approx(0.5)
        assert b.similarity == pytest.approx(4.0 / 15.0)
        assert b.cost == pytest.approx(2.0 + 4.0 / 15.0, abs=1e-12)

    def test_zero_availability_infinite_cost(self):
        b = layer_cost({"a"}, {"b"}, {"a": 0}, {"b": 0}, "L")
        assert b.availability == 0.0
        assert math.isinf(b.cost)


def five_clique_layer(prefix: str):
    return clique_edges([f"{prefix}{i}" for i in range(5)])


def networks_for_init():
    """Layer 'hi' has the clean two-clique structure, the others are weaker."""
    return mln_from_edges(
        {
            "lo": clique_edges(["a", "b", "c"]),
            "hi": five_clique_layer("a") + five_clique_layer("b"),
            "mid": five_clique_layer("a")
            + five_clique_layer("b")
            + [("a0", "b0", 1.0), ("a1", "b1", 1.0), ("a2", "b2", 1.0)],
        }
    )


class TestCobaltInit:
    def test_picks_highest_modularity(self):
        init = cobalt_init(SupraGraph(networks_for_init()), LeidenConfig(seed=0))
        assert init.best_layer == "hi"
        qs = {l: r.quality for l, r in init.singles.items()}
        assert qs["hi"] == max(qs.values())

    def test_single_graph(self):
        net = mln_from_edges({"only": clique_edges(["a", "b", "c"])})
        init = cobalt_init(SupraGraph(net), LeidenConfig(seed=0))
        assert init.best_layer == "only"

    def test_tie_prefers_input_order(self):
        net = mln_from_edges(
            {
                "first": five_clique_layer("a") + five_clique_layer("b"),
                "second": five_clique_layer("a") + five_clique_layer("b"),
            }
        )
        init = cobalt_init(SupraGraph(net), LeidenConfig(seed=0))
        assert init.singles["first"].quality == init.singles["second"].quality
        assert init.best_layer == "first"

    def test_empty_errors(self):
        empty = mln_from_edges({})
        with pytest.raises(ValueError, match="no layers"):
            cobalt_init(SupraGraph(empty), LeidenConfig())


def fake_trace(availability: list[float], similarity: list[float]) -> IterationTrace:
    """Trace with engineered cost sequences; iteration 1 is bare."""
    part = Partition({NodeRef("e", "L0"): 0}, 0.0)
    records = [
        IterationRecord(1, "L0", None, part, 0.0, ("L0",), 1, 0, 0)
    ]
    for i, (a, cs) in enumerate(zip(availability, similarity), start=2):
        layer = f"L{i - 1}"
        cost = math.inf if a == 0 else 1.0 / a + cs
        records.append(
            IterationRecord(
                i,
                layer,
                LayerCostBreakdown(layer, a, cs, cost),
                part,
                0.0,
                ("L0", layer),
                1,
                0,
                0,
            )
        )
    return IterationTrace(tuple(records))


class TestStoppingCondition:
    def test_sc1_fires_on_drop(self):
        assert stopping_condition(fake_trace([0.9, 0.8], [0.0, 0.0]), "SC1")

    def test_sc1_quiet_on_rise(self):
        assert not stopping_condition(fake_trace([0.8, 0.9], [0.0, 0.0]), "SC1")

    def test_sc2_needs_similarity_rise_too(self):
        assert not stopping_condition(fake_trace([0.9, 0.8], [0.3, 0.1]), "SC2")
        assert stopping_condition(fake_trace([0.9, 0.8], [0.1, 0.3]), "SC2")

    def test_none_never_stops(self):
        assert not stopping_condition(fake_trace([0.9, 0.1], [0.0, 0.9]), "NONE")

    def test_needs_two_cost_bearing_iterations(self):
        assert not stopping_condition(fake_trace([0.5], [0.0]), "SC1")
        assert not stopping_condition(fake_trace([], []), "SC1")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown stopping mode"):
            stopping_condition(fake_trace([0.9, 0.8], [0.0, 0.0]), "SC3")


class TestCostTieRules:
    """Which candidate ``cobalt_select`` takes when ``layer_cost`` is replaced
    by crafted breakdowns: least cost, then higher availability, then input
    order."""

    def selected(self, monkeypatch, priced):
        """Selected layers after 'base', each candidate priced by ``priced``
        as (availability, cost) in every iteration."""
        net = mln_from_edges(
            {
                "base": five_clique_layer("a") + five_clique_layer("b"),
                **{layer: clique_edges(["a0", "a1", "a2"]) for layer in priced},
            }
        )
        init = cobalt_init(SupraGraph(net), LeidenConfig(seed=0))
        assert init.best_layer == "base"

        def crafted(incumbent, candidate, p_inc, p_cand, layer):
            availability, cost = priced[layer]
            return LayerCostBreakdown(layer, availability, 0.0, cost)

        monkeypatch.setattr(selector, "layer_cost", crafted)
        trace = cobalt_select(net, init, LeidenConfig(seed=0))
        return [r.layer for r in trace.records[1:]]

    def test_equal_cost_goes_to_higher_availability(self, monkeypatch):
        priced = {"low": (0.5, 2.0), "high": (1.0, 2.0), "dear": (1.0, 3.0)}
        assert self.selected(monkeypatch, priced) == ["high", "low", "dear"]

    def test_equal_cost_and_availability_go_to_input_order(self, monkeypatch):
        priced = {"c1": (0.5, 2.0), "c2": (0.5, 2.0), "c3": (0.5, 2.0)}
        assert self.selected(monkeypatch, priced) == ["c1", "c2", "c3"]

    def test_all_infinite_costs_go_to_input_order(self, monkeypatch):
        priced = {"c1": (0.0, math.inf), "c2": (0.0, math.inf), "c3": (0.0, math.inf)}
        assert self.selected(monkeypatch, priced) == ["c1", "c2", "c3"]


def selection_fixture():
    """Four layers engineered so availability rules every choice.

    'base' wins initialization; 'full' covers all ten incumbent entities,
    'half' covers five, 'thin' covers three. Ties cannot occur because the
    availability gaps dominate any similarity value in [0, 1].
    """
    entities = [f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)]
    base = five_clique_layer("a") + five_clique_layer("b")
    full = clique_edges(entities[:4]) + clique_edges(entities[4:])
    half = clique_edges(entities[:5])
    thin = clique_edges(entities[:3])
    return mln_from_edges(
        {"base": base, "full": full, "half": half, "thin": thin}
    )


class TestCobaltSelect:
    def test_single_candidate_gives_two_iterations(self):
        net = mln_from_edges(
            {
                "base": five_clique_layer("a") + five_clique_layer("b"),
                "other": clique_edges([f"a{i}" for i in range(5)]),
            }
        )
        init = cobalt_init(SupraGraph(net), LeidenConfig(seed=0))
        trace = cobalt_select(net, init, LeidenConfig(seed=0))
        assert [r.index for r in trace.records] == [1, 2]
        assert trace.records[1].layer == "other"

    def test_zero_availability_loses_to_half(self):
        net = mln_from_edges(
            {
                "base": five_clique_layer("a") + five_clique_layer("b"),
                "stranger": clique_edges(["x0", "x1", "x2"]),
                "familiar": clique_edges([f"a{i}" for i in range(5)]),
            }
        )
        init = cobalt_init(SupraGraph(net), LeidenConfig(seed=0))
        trace = cobalt_select(net, init, LeidenConfig(seed=0))
        assert trace.records[1].layer == "familiar"
        stranger = [r for r in trace.records if r.layer == "stranger"]
        assert stranger and math.isinf(stranger[0].breakdown.cost)

    def test_availability_ladder_orders_selection(self):
        net = selection_fixture()
        init = cobalt_init(SupraGraph(net), LeidenConfig(seed=0))
        assert init.best_layer == "base"
        trace = cobalt_select(net, init, LeidenConfig(seed=0))
        assert [r.layer for r in trace.records] == ["base", "full", "half", "thin"]
        avails = [r.breakdown.availability for r in trace.records[1:]]
        assert avails == [1.0, 0.5, 0.3]

    def test_sc1_stops_at_availability_drop(self):
        net = selection_fixture()
        init = cobalt_init(SupraGraph(net), LeidenConfig(seed=0))
        trace = cobalt_select(net, init, LeidenConfig(seed=0), stopping="SC1")
        # iteration 3 drops availability 0.8 -> 0.5, so the run ends there
        assert [r.layer for r in trace.records] == ["base", "full", "half"]

    def test_none_mode_consumes_every_layer(self):
        table = halves_and_parity_table(n=24, seed=3)
        trace = run_selection(table, PipelineConfig())
        assert sorted(r.layer for r in trace.records) == ["A", "B", "C"]
        assert len({r.layer for r in trace.records}) == 3

    def test_similarity_breaks_availability_ties(self):
        # same entities everywhere; candidate 'twin' duplicates the incumbent
        # layer exactly while 'cross' groups entities orthogonally
        members = [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)]
        twin = five_clique_layer("a")[:6] + five_clique_layer("b")[:6]
        base = (
            clique_edges([f"a{i}" for i in range(4)])
            + clique_edges([f"b{i}" for i in range(4)])
        )
        cross = clique_edges(["a0", "a1", "b0", "b1"]) + clique_edges(
            ["a2", "a3", "b2", "b3"]
        )
        net = mln_from_edges({"base": base, "twin": base, "cross": cross})
        init = cobalt_init(SupraGraph(net), LeidenConfig(seed=0))
        assert init.best_layer == "base"
        # cost breakdowns of both candidates against the initial incumbent
        p_inc = project_partition(init.singles[init.best_layer].partition, ["base"])
        entities = net.layer_nodes("base")
        twin_part = project_partition(init.singles["twin"].partition, ["twin"])
        cross_part = project_partition(init.singles["cross"].partition, ["cross"])
        twin_cost = layer_cost(entities, net.layer_nodes("twin"), p_inc, twin_part, "twin")
        cross_cost = layer_cost(entities, net.layer_nodes("cross"), p_inc, cross_part, "cross")
        assert twin_cost.availability == cross_cost.availability == 1.0
        assert twin_cost.similarity == pytest.approx(1.0)
        assert cross_cost.similarity < 0.6
        trace = cobalt_select(net, init, LeidenConfig(seed=0))
        assert trace.records[1].layer == "cross"

    def test_trace_invariants(self):
        net = selection_fixture()
        init = cobalt_init(SupraGraph(net), LeidenConfig(seed=1))
        trace = cobalt_select(net, init, LeidenConfig(seed=1))
        layers = [r.layer for r in trace.records]
        assert len(set(layers)) == len(layers)
        assert len(layers) <= len(net.layers)
        assert trace.records[0].breakdown is None
        for record in trace.records[1:]:
            b = record.breakdown
            if b.availability > 0:
                assert b.cost == pytest.approx(
                    1.0 / b.availability + b.similarity, abs=1e-12
                )
        # candidate pool shrinks by exactly one layer per iteration
        for earlier, later in zip(trace.records, trace.records[1:]):
            assert len(later.layers) == len(earlier.layers) + 1

    def test_order_preserving_entity_relabel_keeps_selection(self):
        table = halves_and_parity_table(n=24, seed=9)
        renamed = type(table)(
            tuple(e.replace("p", "q") for e in table.entities),
            table.layers,
            {(e.replace("p", "q"), l): v for (e, l), v in table.scores.items()},
        )
        base = run_selection(table, PipelineConfig())
        shifted = run_selection(renamed, PipelineConfig())
        assert [r.layer for r in base.records] == [r.layer for r in shifted.records]
        assert [r.breakdown.availability for r in base.records[1:]] == [
            r.breakdown.availability for r in shifted.records[1:]
        ]

    def test_one_supragraph_per_selection(self, monkeypatch):
        built = []
        original = SupraGraph.__init__

        def counted(self, mln):
            built.append(mln)
            original(self, mln)

        monkeypatch.setattr(SupraGraph, "__init__", counted)
        trace = run_selection(halves_and_parity_table(n=12, seed=2), PipelineConfig())
        assert len(built) == 1
        assert len(trace.records) == 3
