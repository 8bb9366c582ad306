import copy
import json
import math
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cobalt import community
from cobalt.community import (
    LeidenConfig,
    SupraGraph,
    leiden,
    multislice_modularity,
)
from cobalt.io import network_from_dict
from cobalt.model import MultiLayerNetwork, NodeRef

import _support
from _support import (
    ReferenceSupraGraph,
    best_partition_by_enumeration,
    clique_edges,
    co_membership,
    communities_connected,
    improving_moves,
    mln_from_edges,
    modularity_oracle,
    multilayer_networks,
    newman_girvan_modularity,
    reference_local_move,
    reference_modularity,
    reference_refine,
    two_cliques_bridged,
    two_triangles,
)


def assignment_of(network, groups):
    """Map every node to the index of the group its entity appears in."""
    out = {}
    for node in network.nodes:
        for i, members in enumerate(groups):
            if node.entity in members:
                out[node] = i
    return out


class TestMultisliceModularity:
    def test_two_disjoint_triangles(self):
        net = two_triangles()
        supra = SupraGraph(net)
        part = assignment_of(net, [{"a", "b", "c"}, {"x", "y", "z"}])
        assert multislice_modularity(supra, part) == pytest.approx(0.5, abs=1e-9)

    def test_triangle_partition_is_enumerated_maximum(self):
        net = two_triangles()
        supra = SupraGraph(net)
        best_q, best_blocks = best_partition_by_enumeration(net)
        assert best_q == pytest.approx(0.5, abs=1e-9)
        entities = sorted(frozenset(v.entity for v in block) for block in best_blocks)
        assert entities == [frozenset("abc"), frozenset("xyz")]

    def test_single_community_connected_graph_is_zero(self):
        net = mln_from_edges(
            {"L": [("a", "b", 2.0), ("b", "c", 1.0), ("c", "d", 3.5), ("d", "a", 1.0)]}
        )
        supra = SupraGraph(net)
        part = {v: 0 for v in supra.vertices}
        assert multislice_modularity(supra, part) == pytest.approx(0.0, abs=1e-9)

    def test_edgeless_graph_errors(self):
        net = mln_from_edges({"L": []}, extra_nodes=[("a", "L"), ("b", "L")])
        with pytest.raises(ValueError, match="no edges"):
            multislice_modularity(SupraGraph(net), {n: 0 for n in net.nodes})

    def test_partition_must_cover_vertices(self):
        net = two_triangles()
        supra = SupraGraph(net)
        part = {v: 0 for v in supra.vertices[:-1]}
        with pytest.raises(ValueError, match="does not cover"):
            multislice_modularity(supra, part)

    def test_matches_oracle_on_multilayer_graph(self):
        net = mln_from_edges(
            {
                "A": clique_edges(["a", "b", "c"], 2.0) + [("c", "d", 0.5)],
                "B": [("a", "b", 1.0), ("b", "d", 3.0)],
            },
            couplings=[("a", "A", "B", 1.5), ("b", "A", "B", 0.5), ("d", "A", "B", 2.0)],
        )
        supra = SupraGraph(net)
        part = assignment_of(net, [{"a", "b", "c"}, {"d"}])
        for gamma in (0.5, 1.0, 1.7):
            assert multislice_modularity(supra, part, gamma) == pytest.approx(
                modularity_oracle(net, part, gamma), abs=1e-12
            )

    def test_single_layer_reduction_to_newman_girvan(self):
        net = mln_from_edges(
            {"L": [("a", "b", 2.0), ("b", "c", 1.0), ("a", "c", 0.5), ("c", "d", 4.0)]}
        )
        supra = SupraGraph(net)
        part = assignment_of(net, [{"a", "b"}, {"c", "d"}])
        flat_edges = {
            (a.entity, b.entity): w for (a, b), w in net.intra_edges.items()
        }
        flat_part = {n.entity: c for n, c in part.items()}
        for gamma in (0.8, 1.0, 1.3):
            assert multislice_modularity(supra, part, gamma) == pytest.approx(
                newman_girvan_modularity(flat_edges, flat_part, gamma), abs=1e-12
            )


class TestLeiden:
    def test_recovers_bridged_cliques(self):
        net = two_cliques_bridged(5)
        supra = SupraGraph(net)
        expected = co_membership(
            assignment_of(net, [{f"a{i}" for i in range(5)}, {f"b{i}" for i in range(5)}])
        )
        hits = 0
        for seed in range(20):
            result = leiden(supra, LeidenConfig(seed=seed))
            if co_membership(result.partition.assignment) == expected:
                hits += 1
        assert hits >= 19

    def test_bridged_cliques_found_quality_is_enumerated_maximum(self):
        net = two_cliques_bridged(3)  # 6 vertices keeps enumeration cheap
        supra = SupraGraph(net)
        best_q, _ = best_partition_by_enumeration(net)
        result = leiden(supra, LeidenConfig(seed=1))
        assert result.quality == pytest.approx(best_q, abs=1e-9)

    def test_coupling_only_graph_groups_entity_chains(self):
        net = mln_from_edges(
            {"A": [], "B": [], "C": []},
            couplings=[
                (e, la, lb, 1.0)
                for e in ("p", "q")
                for la, lb in (("A", "B"), ("A", "C"), ("B", "C"))
            ],
            extra_nodes=[(e, l) for e in ("p", "q") for l in ("A", "B", "C")],
        )
        supra = SupraGraph(net)
        result = leiden(supra, LeidenConfig(seed=0))
        groups = {}
        for node, comm in result.partition.assignment.items():
            groups.setdefault(comm, set()).add(node.entity)
        assert sorted(groups.values(), key=sorted) == [{"p"}, {"q"}]
        assert result.quality == pytest.approx(1.0)
        # exhaustive search over the 6 vertices: the chains attain the
        # maximum, and splitting any entity's chain costs quality
        best_q, _ = best_partition_by_enumeration(net)
        assert result.quality == pytest.approx(best_q, abs=1e-9)
        from _support import modularity_oracle, set_partitions

        for blocks in set_partitions(sorted(net.nodes)):
            assignment = {v: i for i, b in enumerate(blocks) for v in b}
            chain_split = any(
                assignment[a] != assignment[b]
                for a in net.nodes
                for b in net.nodes
                if a.entity == b.entity and a < b
            )
            if chain_split:
                assert modularity_oracle(net, assignment) < best_q - 1e-9

    def test_single_vertex(self):
        net = mln_from_edges({"L": []}, extra_nodes=[("a", "L")])
        result = leiden(SupraGraph(net), LeidenConfig(seed=0))
        assert result.quality == 0.0
        assert result.partition.assignment == {NodeRef("a", "L"): 0}

    def test_empty_graph_errors(self):
        net = mln_from_edges({"L": []})
        with pytest.raises(ValueError, match="no vertices"):
            leiden(SupraGraph(net), LeidenConfig())

    def test_huge_gamma_stops_at_singleton_quality(self, monkeypatch):
        monkeypatch.setattr(community, "_local_move", mock.Mock(side_effect=AssertionError))
        supra = SupraGraph(two_cliques_bridged(4))
        with pytest.raises(ArithmeticError, match="^modularity is -inf at leiden.gamma = 1e"):
            leiden(supra, LeidenConfig(gamma=1e308))

    @pytest.mark.parametrize(
        "theta", [5e-324, 1e-320, math.nextafter(sys.float_info.min, 0.0), -1e-300]
    )
    def test_theta_must_be_zero_or_normal(self, theta):
        with pytest.raises(ValueError, match=r"^leiden.theta must be 0 or at least 2\.2\d*e-308"):
            LeidenConfig(theta=theta)

    def test_smallest_normal_theta_draws_on_finite_odds(self, monkeypatch):
        # a refinement score is at most mu, so raw / mu / theta stays below
        # 1 / sys.float_info.min, which is finite
        draws, real_draw = [], community._draw

        def spy(probs, rng):
            draws.append(probs)
            return real_draw(probs, rng)

        monkeypatch.setattr(community, "_draw", spy)
        golden = Path(__file__).parent / "golden" / "planted" / "expected" / "build"
        network = network_from_dict(json.loads((golden / "network.json").read_text()))
        supra = SupraGraph(network)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = leiden(supra, LeidenConfig(theta=sys.float_info.min, seed=0))
        assert draws and all(np.isfinite(p).all() for p in draws)
        assert result.quality == multislice_modularity(supra, result.partition)

    def test_non_finite_pass_quality_stops_before_next_pass(self, monkeypatch):
        calls = []

        def overflowing(level, *rest):
            calls.append(level.n)
            return 1, float("inf")

        monkeypatch.setattr(community, "_local_move", overflowing)
        with pytest.raises(ArithmeticError, match="^modularity is inf at leiden.gamma = 1.0$"):
            leiden(SupraGraph(two_cliques_bridged(4)), LeidenConfig())
        assert calls == [8]

    def test_heavy_edges_beside_a_light_one_terminate(self):
        # tie-sized strengths drift by more than the gain tolerance; a lone
        # vertex that takes a fresh community on that drift wakes the hub,
        # which moves on drift too, round after round
        edges = [("a", "b", 0.14143645850966013), ("b", "q", 5e8), ("b", "z", 5e8)]
        net = mln_from_edges({"D": edges})
        result = leiden(SupraGraph(net), LeidenConfig(gamma=1.7, seed=0))
        # communities of a, b, q and z
        assert list(result.partition.assignment.values()) == [0, 1, 2, 1]

    def test_reported_quality_self_consistent(self):
        net = two_cliques_bridged(4)
        supra = SupraGraph(net)
        for seed in range(5):
            result = leiden(supra, LeidenConfig(seed=seed))
            recomputed = multislice_modularity(supra, result.partition)
            assert result.quality == pytest.approx(recomputed, abs=1e-9)

    def test_history_is_monotone(self):
        net = two_cliques_bridged(5)
        supra = SupraGraph(net)
        for seed in range(5):
            history = leiden(supra, LeidenConfig(seed=seed)).history
            assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))

    def test_deterministic_under_seed(self):
        net = mln_from_edges(
            {
                "A": clique_edges([f"a{i}" for i in range(4)])
                + clique_edges([f"b{i}" for i in range(4)])
                + [("a0", "b0", 0.5)],
                "B": clique_edges([f"a{i}" for i in range(4)], 2.0),
            },
            couplings=[(f"a{i}", "A", "B", 1.0) for i in range(4)],
        )
        supra = SupraGraph(net)
        first = leiden(supra, LeidenConfig(seed=123))
        second = leiden(supra, LeidenConfig(seed=123))
        assert first.partition.assignment == second.partition.assignment
        assert first.quality == second.quality

    def test_adds_layer_terms_without_the_builtin_sum(self, monkeypatch):
        # the builtin sum of Python 3.12 and later compensates float error,
        # so a vertex whose null score sums several layer terms would get
        # other bits than on 3.11; leiden adds them left to right instead
        net = mln_from_edges(
            {
                "A": clique_edges([f"a{i}" for i in range(4)]) + [("a0", "b0", 0.3)],
                "B": clique_edges([f"a{i}" for i in range(4)], 1.7)
                + clique_edges([f"b{i}" for i in range(3)], 0.1),
            },
            couplings=[(f"a{i}", "A", "B", 1.0 / 3.0) for i in range(4)],
        )
        supra = SupraGraph(net)
        expected = leiden(supra, LeidenConfig(seed=4))

        def no_sum(*args):
            raise AssertionError("builtin sum called")

        monkeypatch.setattr(community, "sum", no_sum, raising=False)
        result = leiden(supra, LeidenConfig(seed=4))
        assert result.partition.assignment == expected.partition.assignment
        assert result.quality.hex() == expected.quality.hex()

    def test_every_community_connected(self):
        net = mln_from_edges(
            {
                "A": clique_edges([f"a{i}" for i in range(5)])
                + clique_edges([f"b{i}" for i in range(5)])
                + [("a0", "b0", 1.0)],
                "B": clique_edges([f"a{i}" for i in range(3)], 1.5),
            },
            couplings=[(f"a{i}", "A", "B", 1.0) for i in range(3)],
        )
        supra = SupraGraph(net)
        for seed in range(10):
            result = leiden(supra, LeidenConfig(seed=seed))
            assert communities_connected(net, result.partition.assignment)

    def test_couplings_pull_layers_together(self):
        # same two groups in both layers; strong couplings must align the
        # cross-layer copies into shared communities
        groups = [{f"a{i}" for i in range(4)}, {f"b{i}" for i in range(4)}]
        members = sorted(groups[0]) + sorted(groups[1])
        net = mln_from_edges(
            {
                "A": clique_edges(sorted(groups[0])) + clique_edges(sorted(groups[1])),
                "B": clique_edges(sorted(groups[0])) + clique_edges(sorted(groups[1])),
            },
            couplings=[(e, "A", "B", 5.0) for e in members],
        )
        supra = SupraGraph(net)
        result = leiden(supra, LeidenConfig(seed=0))
        for entity in members:
            assert (
                result.partition.assignment[NodeRef(entity, "A")]
                == result.partition.assignment[NodeRef(entity, "B")]
            )
        assert result.partition.community_count() == 2


def assert_matches_reference(supra: SupraGraph, ref: ReferenceSupraGraph) -> None:
    assert supra.layers == ref.layers
    assert supra.vertices == ref.vertices
    assert supra.layer_of.tolist() == ref.layer_of
    assert supra.strength.tolist() == ref.strength
    assert supra.layer_weight.tolist() == ref.layer_weight
    assert supra.total_weight == ref.total_weight
    ptr = supra.indptr.tolist()
    for v in range(supra.vertex_count):
        row = zip(supra.indices[ptr[v] : ptr[v + 1]].tolist(), supra.weights[ptr[v] : ptr[v + 1]].tolist())
        assert list(row) == ref.row(v)
    assert supra.intra_edge_count == sum(map(len, ref.intra)) // 2
    assert supra.coupling_edge_count == sum(map(len, ref.coupling)) // 2


class TestLeidenLabels:
    @settings(deadline=None)
    @example(mln_from_edges({"A": []}, extra_nodes=[("a", "A"), ("b", "A")]), 1.0, 0)
    @given(multilayer_networks(), st.sampled_from([0.5, 1.0, 1.7]), st.integers(0, 9))
    def test_numbered_by_first_vertex(self, net, gamma, seed):
        assume(net.nodes)
        supra = SupraGraph(net)
        assignment = leiden(supra, LeidenConfig(gamma=gamma, seed=seed)).partition.assignment
        assert len(assignment) == supra.vertex_count
        labels = [assignment[v] for v in supra.vertices]
        # 0..k-1, each community numbered when its first vertex is reached
        assert list(dict.fromkeys(labels)) == list(range(len(set(labels))))


class TestSupraGraphMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(multilayer_networks())
    def test_arrays_equal_dict_reference(self, net):
        assert_matches_reference(SupraGraph(net), ReferenceSupraGraph(net))

    @settings(max_examples=80, deadline=None)
    @given(multilayer_networks(), st.data())
    def test_modularity_equals_loop_reference(self, net, data):
        supra, ref = SupraGraph(net), ReferenceSupraGraph(net)
        assume(supra.total_weight > 0.0)
        labels = data.draw(
            st.lists(st.integers(-1, 2), min_size=supra.vertex_count, max_size=supra.vertex_count)
        )
        part = dict(zip(supra.vertices, labels))
        for gamma in (0.5, 1.0, 1.7):
            assert multislice_modularity(supra, part, gamma) == reference_modularity(
                ref, part, gamma
            )

    @settings(max_examples=80, deadline=None)
    @given(multilayer_networks(), st.data())
    def test_restrict_equals_fresh_build(self, net, data):
        order = data.draw(st.permutations(net.layers))
        chosen = order[: data.draw(st.integers(0, len(order)))]
        sliced = SupraGraph(net).restrict(chosen)
        sub = net.subnetwork(chosen)
        assert_matches_reference(sliced, ReferenceSupraGraph(sub))
        fresh = SupraGraph(sub)
        for name in ("indptr", "indices", "rows", "weights", "layer_of", "strength"):
            assert np.array_equal(getattr(sliced, name), getattr(fresh, name)), name

    def test_restrict_rejects_unknown_and_repeated_layers(self):
        supra = SupraGraph(networks_with_couplings())
        with pytest.raises(ValueError, match="unknown layers"):
            supra.restrict(["A", "Z"])
        with pytest.raises(ValueError, match="duplicate layer"):
            supra.restrict(["A", "A"])

    def test_leiden_on_slice_equals_leiden_on_subnetwork(self):
        net = networks_with_couplings()
        supra = SupraGraph(net)
        for chosen in (["B"], ["B", "A"], ["A", "B"]):
            sliced = leiden(supra.restrict(chosen), LeidenConfig(seed=3))
            fresh = leiden(SupraGraph(net.subnetwork(chosen)), LeidenConfig(seed=3))
            assert sliced == fresh


def networks_with_couplings() -> MultiLayerNetwork:
    members = [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)]
    return mln_from_edges(
        {
            "B": clique_edges(members[:4], 1.5) + clique_edges(members[4:]) + [("a0", "b0", 0.3)],
            "A": clique_edges(members[:4]) + clique_edges(members[4:], 2.0),
        },
        couplings=[(e, "A", "B", 0.7) for e in members[::2]],
    )


def random_weighted_graph(rng, groups: int, size: int, p_in: float, p_out: float):
    """Entity edges of a planted-partition graph with random weights."""
    names = [f"v{i:02d}" for i in range(groups * size)]
    edges = []
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            p = p_in if i // size == j // size else p_out
            if rng.random() < p:
                edges.append((a, names[j], float(rng.uniform(0.5, 2.0))))
    return edges


def leiden_with_pass_partitions(supra: SupraGraph, cfg: LeidenConfig):
    """Run ``leiden`` and record the supra-graph partition after each pass's
    move phase, by following the aggregation levels beside it."""
    local_move, aggregate = community._local_move, community._aggregate
    top = [np.arange(supra.vertex_count)]
    passes = []

    def record_move(level, comm, *args):
        result = local_move(level, comm, *args)
        passes.append(dict(zip(supra.vertices, comm[top[0]].tolist())))
        return result

    def record_aggregate(*args):
        level, comm, sv = aggregate(*args)
        top[0] = sv[top[0]]
        return level, comm, sv

    with mock.patch.object(community, "_local_move", record_move), mock.patch.object(
        community, "_aggregate", record_aggregate
    ):
        result = leiden(supra, cfg)
    return result, passes


def assert_history_tracks_passes(supra: SupraGraph, cfg: LeidenConfig) -> int:
    result, passes = leiden_with_pass_partitions(supra, cfg)
    assert len(result.history) == len(passes) + 1
    for quality, partition in zip(result.history, passes):
        expected = multislice_modularity(supra, partition, cfg.gamma)
        assert quality == pytest.approx(expected, abs=1e-9)
    assert result.history[-1] == result.quality
    return len(passes)


class TestLeidenHistory:
    """Each history entry is the modularity of the partition that pass's move
    phase left, although leiden sums move gains instead of recomputing it."""

    @settings(max_examples=60, deadline=None)
    @given(multilayer_networks(), st.sampled_from([0.5, 1.0, 1.7]), st.integers(0, 9))
    def test_history_is_modularity_of_each_pass(self, net, gamma, seed):
        assume(net.nodes)
        assert_history_tracks_passes(SupraGraph(net), LeidenConfig(gamma=gamma, seed=seed))

    def test_history_over_several_passes(self):
        rng = np.random.default_rng(7)
        layers = {layer: random_weighted_graph(rng, 4, 12, 0.6, 0.08) for layer in "BA"}
        entities = sorted({e for edges in layers.values() for a, b, _ in edges for e in (a, b)})
        net = mln_from_edges(layers, couplings=[(e, "A", "B", 0.4) for e in entities])
        supra = SupraGraph(net)
        for seed in range(3):
            for gamma in (0.8, 1.0, 1.3):
                passes = assert_history_tracks_passes(
                    supra, LeidenConfig(gamma=gamma, seed=seed)
                )
                assert passes >= 2


def phase_calls(supra: SupraGraph, cfg: LeidenConfig) -> list[tuple]:
    """Every move and refine call of one ``leiden`` run, with copies of the
    arguments taken before the call."""
    local_move, refine = community._local_move, community._refine
    calls = []

    def record_move(level, comm, comm_strengths, *args):
        *rest, rng = args
        copied = (comm.copy(), comm_strengths.copy(), *rest, copy.deepcopy(rng))
        calls.append((reference_local_move, level, *copied))
        return local_move(level, comm, comm_strengths, *args)

    def record_refine(level, comm, *args):
        *rest, rng = args
        calls.append((reference_refine, level, comm.copy(), *rest, copy.deepcopy(rng)))
        return refine(level, comm, *args)

    with mock.patch.object(community, "_local_move", record_move), mock.patch.object(
        community, "_refine", record_refine
    ):
        leiden(supra, cfg)
    return calls


def assert_move_matches_reference(level, comm, comm_strengths, *args) -> tuple:
    """Run ``_local_move`` and its reference on copies of the same inputs;
    return what ours returned and the labels it left."""
    rng = args[-1]
    ours_comm, ref_comm = comm.copy(), comm.copy()
    ours_rng, ref_rng = copy.deepcopy(rng), copy.deepcopy(rng)
    ours = community._local_move(level, ours_comm, comm_strengths.copy(), *args[:-1], ours_rng)
    ref = reference_local_move(level, ref_comm, comm_strengths.copy(), *args[:-1], ref_rng)
    assert ours[0] == ref[0]
    assert float(ours[1]).hex() == float(ref[1]).hex()
    assert ours_comm.tolist() == ref_comm.tolist()
    assert ours_rng.random() == ref_rng.random()
    return ours, ours_comm


class TestPhasesMatchReference:
    """The move phase's candidate floor and the trimmed refine change no
    decision: results equal the phases that score every candidate."""

    @settings(deadline=None)
    @given(
        multilayer_networks(),
        st.sampled_from([0.5, 1.0, 1.7]),
        st.integers(0, 9),
        st.sampled_from([0.01, 0.0]),  # the default and greedy refinement
    )
    def test_leiden_equals_leiden_with_reference_phases(self, net, gamma, seed, theta):
        assume(net.nodes)
        supra, cfg = SupraGraph(net), LeidenConfig(gamma=gamma, theta=theta, seed=seed)
        ours = leiden(supra, cfg)
        with mock.patch.object(community, "_local_move", reference_local_move), mock.patch.object(
            community, "_refine", reference_refine
        ):
            ref = leiden(supra, cfg)
        assert ours.partition == ref.partition
        assert ours.quality.hex() == ref.quality.hex()
        assert [q.hex() for q in ours.history] == [q.hex() for q in ref.history]

    @settings(deadline=None)
    @given(
        multilayer_networks(),
        st.sampled_from([0.5, 1.0, 1.7]),
        st.integers(0, 9),
        st.sampled_from([0.01, 0.0]),  # the default and greedy refinement
    )
    def test_each_phase_call_equals_reference(self, net, gamma, seed, theta):
        assume(net.nodes)
        cfg = LeidenConfig(gamma=gamma, theta=theta, seed=seed)
        for reference, level, comm, *args in phase_calls(SupraGraph(net), cfg):
            if reference is reference_local_move:
                assert_move_matches_reference(level, comm, *args)
                continue
            ours_rng, ref_rng = copy.deepcopy(args[-1]), copy.deepcopy(args[-1])
            ours = community._refine(level, comm.copy(), *args[:-1], ours_rng)
            ref = reference_refine(level, comm.copy(), *args[:-1], ref_rng)
            assert ours.tolist() == ref.tolist()
            assert ours_rng.random() == ref_rng.random()

    @settings(deadline=None)
    @given(
        multilayer_networks(),
        st.sampled_from([0.5, 1.0, 1.7]),
        st.integers(0, 9),
        st.sampled_from([0.01, 0.0]),
    )
    def test_refined_labels_are_vertices_that_stayed(self, net, gamma, seed, theta):
        """leiden ends its passes when refinement merged nothing, read as
        ``refined == arange(n)``: refinement moves a vertex only onto one
        that has not moved, so every label in use is a fixed point."""
        assume(net.nodes)
        cfg = LeidenConfig(gamma=gamma, theta=theta, seed=seed)
        for reference, level, comm, *args in phase_calls(SupraGraph(net), cfg):
            if reference is reference_local_move:
                continue
            refined = community._refine(level, comm, *args)
            assert refined[refined].tolist() == refined.tolist()
            unmerged = bool((refined == np.arange(level.n)).all())
            assert unmerged == (len(np.unique(refined)) == level.n)

    def test_reference_adds_layer_terms_without_the_builtin_sum(self, monkeypatch):
        # as for the kernel: on Python 3.12 and later the builtin sum would
        # give the reference other bits wherever a super-vertex has three or
        # more layer terms
        layers = {
            layer: clique_edges([f"a{i}" for i in range(4)], w)
            for layer, w in (("A", 1.0), ("B", 1.7), ("C", 0.3))
        }
        layers["A"] += [("a0", "b0", 0.3), ("b0", "b1", 0.2)]
        couplings = [(f"a{i}", x, y, 1.0 / 3.0) for i in range(4) for x, y in ("AB", "BC")]
        net = mln_from_edges(layers, couplings=couplings)
        calls = phase_calls(SupraGraph(net), LeidenConfig(seed=4))
        moves = [call[1:] for call in calls if call[0] is reference_local_move]
        assert any(len(terms) >= 3 for level, *_ in moves for terms in level.terms)

        def no_sum(*args):
            raise AssertionError("builtin sum called")

        monkeypatch.setattr(_support, "sum", no_sum, raising=False)
        for level, comm, *args in moves:
            assert_move_matches_reference(level, comm, *args)

    @staticmethod
    def one_layer_level(edges, strengths) -> community._Level:
        """Level over one layer from (a, b, weight) edges, each listed in
        both rows in the given order."""
        rows = [[] for _ in strengths]
        for a, b, w in edges:
            rows[a].append((b, w))
            rows[b].append((a, w))
        indptr = np.cumsum([0] + [len(row) for row in rows])
        entries = [entry for row in rows for entry in row]
        return community._Level(
            indptr,
            np.array([b for b, _ in entries], dtype=np.int64),
            np.array([w for _, w in entries], dtype=float),
            np.arange(len(strengths) + 1),
            np.zeros(len(strengths), dtype=np.int64),
            np.array(strengths, dtype=float),
            1,
            [[(0, k)] for k in strengths],
        )

    def test_vertex_whose_best_option_is_a_fresh_community(self):
        # vertex 0 has no links left but a strength from edges merged away
        # at a coarser level; sharing community 0 only costs it null weight
        level = self.one_layer_level([(1, 2, 1.0)], [2.0, 1.0, 1.0])
        comm = np.zeros(3, dtype=np.int64)
        strengths = np.array([[4.0, 0.0, 0.0]])
        for seed in range(4):
            (moves, _), labels = assert_move_matches_reference(
                level, comm, strengths, 1.0, [0.25], np.random.default_rng(seed)
            )
            assert labels.tolist() == [3, 0, 0]
            assert moves == 1

    def test_vertex_already_alone_never_opens_a_fresh_community(self):
        # vertex 0 is alone, but its community's strength keeps drift from
        # members that left, so staying scores just below a fresh community
        level = self.one_layer_level([(1, 2, 1.0)], [2.0, 1.0, 1.0])
        comm = np.array([0, 1, 1])
        strengths = np.array([[2.0 + 1e-6, 2.0, 0.0]])
        (moves, _), labels = assert_move_matches_reference(
            level, comm, strengths, 1.0, [0.25], np.random.default_rng(0)
        )
        assert moves == 0
        assert labels.tolist() == [0, 1, 1]

    def test_negative_strength_of_a_community_with_members(self):
        # vertex 0 alone links to community 1 by less than the tolerance; a
        # negative strength makes community 1's null term a reward
        level = self.one_layer_level([(0, 1, 1e-13)], [1.0, 1.0])
        comm = np.array([0, 1])
        strengths = np.array([[1.0, -1.0]])
        for seed in range(4):
            (moves, _), labels = assert_move_matches_reference(
                level, comm, strengths, 1.0, [1.0], np.random.default_rng(seed)
            )
            assert moves >= 1 and labels[0] == labels[1]


class TestImprovingMovesOracle:
    """The brute-force vertex-optimality check: no single vertex of an
    enumerated optimum can move with a gain, and a misplaced vertex shows."""

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize(
        "net",
        [
            two_triangles(),
            two_cliques_bridged(3),
            mln_from_edges(
                {
                    "B": clique_edges(["p", "q", "r"], 1.7) + [("r", "s", 0.4)],
                    "A": [("p", "q", 2.0), ("q", "r", 0.3)],
                },
                couplings=[(e, "A", "B", 0.7) for e in "pqr"],
            ),
        ],
        ids=["two-triangles", "bridged-cliques", "two-layers"],
    )
    def test_no_move_improves_an_enumerated_optimum(self, net, gamma):
        _, blocks = best_partition_by_enumeration(net, gamma)
        assignment = {v: i for i, block in enumerate(blocks) for v in block}
        assert improving_moves(SupraGraph(net), assignment, gamma) == []

    @staticmethod
    def assert_gains_are_rises_in_q(net, assignment, moves):
        mu = SupraGraph(net).total_weight
        for node, target, gain in moves:
            moved = {**assignment, node: max(assignment.values()) + 1 if target is None else target}
            rise = modularity_oracle(net, moved) - modularity_oracle(net, assignment)
            assert float(gain) == pytest.approx(mu * rise, rel=1e-12)

    def test_finds_the_one_move_of_a_misplaced_vertex(self):
        edges = clique_edges(["a0", "a1", "a2", "a3"]) + clique_edges(["b0", "b1", "b2", "b3"], 2.0)
        net = mln_from_edges({"L": edges + [("a0", "b0", 4.0)]})
        # b0 sits with the a clique; its own clique outweighs the bridge,
        # yet the bridge keeps a fresh community from gaining
        assignment = {v: int(v.entity[0] == "b" and v.entity != "b0") for v in net.nodes}
        moves = improving_moves(SupraGraph(net), assignment)
        assert [(v, target) for v, target, _ in moves] == [(NodeRef("b0", "L"), 1)]
        self.assert_gains_are_rises_in_q(net, assignment, moves)

    def test_scores_a_fresh_community(self):
        # with a lighter bridge, leaving for a fresh community gains too
        net = two_cliques_bridged(3)
        assignment = {v: int(v.entity[0] == "b" and v.entity != "b0") for v in net.nodes}
        moves = improving_moves(SupraGraph(net), assignment)
        assert [(v.entity, target) for v, target, _ in moves] == [("b0", 1), ("b0", None)]
        self.assert_gains_are_rises_in_q(net, assignment, moves)


class TestNetworkxOracles:
    def test_single_layer_modularity_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(3)
        edges = random_weighted_graph(rng, groups=3, size=10, p_in=0.5, p_out=0.1)
        net = mln_from_edges({"L": edges})
        supra = SupraGraph(net)
        graph = nx.Graph()
        graph.add_weighted_edges_from(edges)
        for _ in range(5):
            labels = rng.integers(0, 4, supra.vertex_count).tolist()
            part = dict(zip(supra.vertices, labels))
            blocks = {}
            for node, label in part.items():
                blocks.setdefault(label, set()).add(node.entity)
            for gamma in (0.7, 1.0, 1.5):
                expected = nx.community.modularity(
                    graph, list(blocks.values()), weight="weight", resolution=gamma
                )
                assert abs(multislice_modularity(supra, part, gamma) - expected) <= 1e-12

    def test_leiden_quality_at_least_louvain_on_60_nodes(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(7)
        edges = random_weighted_graph(rng, groups=4, size=15, p_in=0.3, p_out=0.05)
        graph = nx.Graph()
        graph.add_weighted_edges_from(edges)
        louvain = nx.community.louvain_communities(graph, weight="weight", seed=0)
        louvain_q = nx.community.modularity(graph, louvain, weight="weight")
        net = mln_from_edges({"L": edges})
        assert len(net.nodes) == 60
        result = leiden(SupraGraph(net), LeidenConfig(seed=0))
        assert result.quality >= louvain_q - 1e-12


class TestDraw:
    @given(
        st.integers(0, 2**63 - 1),
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_generator_choice(self, seed, logits):
        """The refinement draw returns the index rng.choice returns for the
        same probabilities, and leaves the generator in the same state."""
        logits = np.array(logits)
        odds = np.exp(logits - logits.max())
        probs = odds / odds.sum()
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert community._draw(probs, ours) == int(reference.choice(len(probs), p=probs))
        assert ours.random() == reference.random()
