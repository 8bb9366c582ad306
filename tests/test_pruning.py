
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import betainc

from cobalt import cli
from cobalt.build import build_network
from cobalt.config import PipelineConfig, PruningConfig
from cobalt.model import EdgeArrays, NodeRef, ScoreTable
from cobalt.pipeline import build_pruned_network
from cobalt.pruning import (
    _bound_verdicts,
    _significant,
    _summed_verdicts,
    edge_p_value,
    prune_network,
    quantize_weights,
)

from _support import (
    binomial_pmf_oracle,
    exact_tail_oracle,
    mln_from_edges,
    null_context,
    p_value_oracle,
    prune_graph,
    prune_survivors_oracle,
    reference_prune,
    reference_prune_graph,
    reference_quantize,
)


class TestQuantize:
    def test_scale_thousand(self):
        counts = quantize_weights({("a", "b"): 2.0}, 1000.0)
        assert counts[("a", "b")] == 2000

    def test_tiny_weight_dropped(self):
        assert quantize_weights({("a", "b"): 0.0004}, 1000.0) == {}

    def test_integer_weights_identity_at_unit_scale(self):
        edges = {("a", "b"): 3.0, ("b", "c"): 7.0}
        assert quantize_weights(edges, 1.0) == {("a", "b"): 3, ("b", "c"): 7}

    def test_total_overflow(self):
        with pytest.raises(OverflowError):
            quantize_weights({("a", "b"): 1e18, ("b", "c"): 1e18}, 100.0)

    def test_context_degree_sum(self):
        counts = quantize_weights({("a", "b"): 2.0, ("b", "c"): 1.0}, 1.0)
        ctx = null_context(counts)
        assert ctx.total == 3
        assert sum(ctx.degrees.values()) == 2 * ctx.total


class TestPValue:
    def test_complement_of_zero_term(self):
        expected = 1.0 - 0.586181640625
        assert edge_p_value(1, 2, 2, 4) == pytest.approx(expected, abs=1e-12)

    def test_top_term_only(self):
        # survival at the maximum is p^E
        total, k_i, k_j = 6, 3, 4
        p = k_i * k_j / (2.0 * total * total)
        assert edge_p_value(total, k_i, k_j, total) == pytest.approx(
            p**total, rel=1e-12
        )

    def test_zero_degree_tail(self):
        assert edge_p_value(1, 0, 3, 4) == 0.0

    def test_exact_complement_identity(self):
        for total in (2, 5, 11):
            for k in range(1, total + 1):
                p = k * k / (2.0 * total * total)
                lhs = edge_p_value(1, k, k, total)
                rhs = 1.0 - binomial_pmf_oracle(0, total, p)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(
        total=st.integers(2, 30),
        k_i=st.integers(1, 30),
        k_j=st.integers(1, 30),
    )
    @settings(max_examples=200)
    def test_monotone_in_count(self, total, k_i, k_j):
        k_i = min(k_i, total)
        k_j = min(k_j, total)
        values = [edge_p_value(w, k_i, k_j, total) for w in range(1, total + 1)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            total = int(rng.integers(2, 13))
            k_i = int(rng.integers(1, total + 1))
            k_j = int(rng.integers(1, total + 1))
            w = int(rng.integers(1, total + 1))
            assert edge_p_value(w, k_i, k_j, total) == pytest.approx(
                p_value_oracle(w, k_i, k_j, total), abs=1e-9
            )


def random_integer_graph(rng, max_total=12):
    """Small integer-weighted graph whose total multiplicity stays small."""
    nodes = [f"n{i}" for i in range(int(rng.integers(3, 7)))]
    edges = {}
    total = 0
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if total >= max_total or rng.random() < 0.4:
                continue
            m = int(rng.integers(1, max(2, max_total - total + 1)))
            m = min(m, max_total - total)
            if m <= 0:
                continue
            edges[(a, b)] = float(m)
            total += m
    return edges


class TestPruneGraph:
    def test_alpha_one_keeps_everything(self):
        edges = {("a", "b"): 2.0, ("b", "c"): 1.0, ("a", "c"): 5.0}
        assert prune_graph(edges, alpha=1.0, scale=1.0) == edges

    def test_vanishing_alpha_keeps_only_zero_p_values(self):
        edges = {("a", "b"): 2.0, ("b", "c"): 1.0, ("a", "c"): 5.0}
        survivors = prune_graph(edges, alpha=1e-300, scale=1.0)
        counts = quantize_weights(edges, 1.0)
        ctx = null_context(counts)
        for edge in survivors:
            pv = edge_p_value(
                counts[edge], ctx.degrees[edge[0]], ctx.degrees[edge[1]], ctx.total
            )
            assert pv <= 1e-300

    def test_matches_brute_force_survivors(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(50):
            edges = random_integer_graph(rng)
            if not edges:
                continue
            survivors = prune_graph(edges, alpha=0.05, scale=1.0)
            counts = quantize_weights(edges, 1.0)
            expected = prune_survivors_oracle(counts, 0.05)
            assert set(survivors) == expected
            checked += 1
        assert checked >= 40

    def test_survivors_keep_original_weights(self):
        edges = {("a", "b"): 2.25, ("b", "c"): 0.4, ("a", "c"): 9.5}
        survivors = prune_graph(edges, alpha=1.0, scale=1000.0)
        for edge, w in survivors.items():
            assert w == edges[edge]

    def test_idempotent_with_frozen_context(self):
        rng = np.random.default_rng(3)
        edges = random_integer_graph(rng, max_total=12)
        once = prune_graph(edges, alpha=0.5, scale=1.0)
        counts = quantize_weights(edges, 1.0)
        ctx = null_context(counts)
        again = {
            e: w
            for e, w in once.items()
            if edge_p_value(counts[e], ctx.degrees[e[0]], ctx.degrees[e[1]], ctx.total)
            <= 0.5
        }
        assert again == once


class TestPruneNetwork:
    def test_single_layer_reduces_to_prune_graph(self):
        edges = [("a", "b", 2.0), ("b", "c", 1.0), ("a", "c", 5.0)]
        mln = mln_from_edges({"L": edges})
        pruned = prune_network(mln, alpha=0.3, scale=1.0)
        flat = reference_prune_graph(
            {
                tuple(sorted((NodeRef(a, "L"), NodeRef(b, "L")))): w
                for a, b, w in edges
            },
            alpha=0.3,
            scale=1.0,
        )
        assert pruned.intra_edges == flat

    def test_single_inter_edge_universe(self):
        # lone coupling universe: p-value is 0.5^count
        for count, kept in ((5, True), (4, False)):
            mln = mln_from_edges(
                {"A": [("x", "y", 3.0)], "B": [("x", "y", 3.0)]},
                couplings=[("x", "A", "B", float(count))],
            )
            pruned = prune_network(mln, alpha=0.05, scale=1.0)
            assert bool(pruned.inter_edges) == kept
            assert 0.5**count <= 0.05 if kept else 0.5**count > 0.05

    def test_node_set_unchanged(self):
        mln = mln_from_edges(
            {"A": [("x", "y", 1.0), ("y", "z", 1.0)]},
        )
        pruned = prune_network(mln, alpha=0.05, scale=1000.0)
        assert pruned.nodes == mln.nodes

    def test_layer_pairs_are_separate_universes(self):
        # the same count-4 coupling is pruned when it is its pair's whole
        # universe (p-value 0.5^4 > alpha) but kept when the pair holds a
        # second edge (p-value ~0.0112 <= alpha); contexts are per pair
        mln = mln_from_edges(
            {"A": [("x", "y", 1.0)], "B": [("x", "y", 1.0)], "C": [("x", "y", 1.0)]},
            couplings=[
                ("x", "A", "B", 4.0),
                ("x", "A", "C", 4.0),
                ("y", "A", "C", 4.0),
            ],
        )
        pruned = prune_network(mln, alpha=0.05, scale=1.0)
        ab = [e for e in pruned.inter_edges if {e[0].layer, e[1].layer} == {"A", "B"}]
        ac = [e for e in pruned.inter_edges if {e[0].layer, e[1].layer} == {"A", "C"}]
        assert ab == []
        assert len(ac) == 2
        assert p_value_oracle(4, 4, 4, 8) == pytest.approx(0.011248, abs=1e-5)

    def test_bad_alpha_and_scale_rejected_before_any_edge(self):
        empty = mln_from_edges({})
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="significance level"):
                prune_network(empty, alpha=alpha)
        for scale in (0.0, -1.0):
            with pytest.raises(ValueError, match="scale must be positive"):
                prune_network(empty, scale=scale)

    def test_config_and_filter_take_one_alpha_range(self):
        """(0, 1]: a config refuses exactly the levels the filter refuses,
        with the same message."""
        empty = mln_from_edges({})
        for alpha in (1e-300, 0.5, 1.0):
            assert PruningConfig(alpha=alpha).alpha == alpha
            prune_network(empty, alpha=alpha)
        for alpha in (0.0, -0.1, 1.0 + 1e-12, math.nan):
            with pytest.raises(ValueError) as from_config:
                PruningConfig(alpha=alpha)
            with pytest.raises(ValueError) as from_filter:
                prune_network(empty, alpha=alpha)
            assert str(from_config.value) == str(from_filter.value)

    def test_config_filter_and_quantizer_take_one_scale_range(self):
        """(0, inf): a config, the filter and the quantizer refuse exactly the
        same quantization scales, with one message naming the config field."""
        empty = mln_from_edges({})
        for scale in (1e-300, 1.0, 1e300):
            assert PruningConfig(quantization=scale).quantization == scale
            prune_network(empty, scale=scale)
            assert quantize_weights({}, scale) == {}
        for scale in (0.0, -1.0, math.inf, math.nan):
            messages = set()
            for refuse in (
                lambda: PruningConfig(quantization=scale),
                lambda: prune_network(empty, scale=scale),
                lambda: quantize_weights({("a", "b"): 1.0}, scale),
            ):
                with pytest.raises(ValueError) as refused:
                    refuse()
                messages.add(str(refused.value))
            assert len(messages) == 1
            assert "pruning.quantization" in messages.pop()


def coupling_totals(m: int) -> np.ndarray:
    """Universe totals E >= m: every integer up to m + 200, then a log grid
    to 1e9."""
    dense = np.arange(m, m + 201)
    return np.unique(np.concatenate([dense, np.rint(np.geomspace(m, 1e9, 400))]))


class TestCouplingBound:
    """A coupling universe is a perfect matching, so a coupling of count m
    has quantized strengths k_i = k_j = m, and its p-value depends on m and
    the universe total E alone. At E = m it is Binomial(m, 1/2)'s 2^-m."""

    def test_at_most_two_to_minus_m_up_to_count_nine(self):
        for m in range(1, 10):
            pv = edge_p_value(float(m), float(m), float(m), coupling_totals(m))
            assert pv[0] == 2.0**-m
            assert pv.max() == 2.0**-m

    def test_above_two_to_minus_m_from_count_ten_yet_below_two_to_minus_nine(self):
        for m in range(10, 41):
            pv = edge_p_value(float(m), float(m), float(m), coupling_totals(m))
            assert pv[0] == 2.0**-m
            assert pv[1] > 2.0**-m  # E = m + 1: the bound fails
            assert pv.max() < 2.0**-9
        assert p_value_oracle(10, 10, 10, 11) > 2.0**-10

    def test_matches_exhaustive_oracle(self):
        for m in range(1, 13):
            for total in range(m, 21):
                assert edge_p_value(m, m, m, total) == pytest.approx(
                    p_value_oracle(m, m, m, total), rel=1e-9
                )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=30),
        st.sampled_from([0.5, 0.05, 0.01, 2.0**-9]),
    )
    def test_filter_keeps_every_coupling_of_count_log2_inverse_alpha(self, counts, alpha):
        entities = [f"e{i}" for i in range(len(counts))]
        mln = mln_from_edges(
            {"A": [], "B": []},
            couplings=[(e, "A", "B", float(c)) for e, c in zip(entities, counts)],
        )
        kept = {a.entity for a, _ in prune_network(mln, alpha=alpha, scale=1.0).inter_edges}
        floor = math.ceil(math.log2(1.0 / alpha))
        assert {e for e, c in zip(entities, counts) if c >= floor} <= kept


class TestQuantizedTotalLimit:
    def test_total_past_int64_raises(self):
        # each count fits in int64, their total does not
        mln = mln_from_edges({"L": [("a", "b", 5e18), ("b", "c", 5e18)]})
        with pytest.raises(OverflowError, match="2\\*\\*63 - 1"):
            prune_network(mln, alpha=0.05, scale=1.0)

    def test_total_is_summed_exactly(self):
        # 2^62 + (2^62 - 1024) = 2^63 - 1024 fits; 2^62 + 2^62 = 2^63 does not
        fits = mln_from_edges({"L": [("a", "b", 2.0**62), ("b", "c", 2.0**62 - 1024)]})
        prune_network(fits, alpha=0.05, scale=1.0)
        past = mln_from_edges({"L": [("a", "b", 2.0**62), ("b", "c", 2.0**62)]})
        with pytest.raises(OverflowError):
            prune_network(past, alpha=0.05, scale=1.0)

    def test_cli_exits_three(self, tmp_path, capsys):
        # every exact tie weighs 1e9; at 1e12 counts per unit one tie is 1e21
        scores = tmp_path / "s.csv"
        scores.write_text("entity,A\ne1,1\ne2,1\ne3,2\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pruning": {"quantization": 1e12}}))
        argv = ["build", str(scores), "--config", str(config)]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 3
        assert "2**63 - 1" in capsys.readouterr().err


@st.composite
def universes(draw, weights, max_vertices=12, max_edges=40):
    """Edge arrays of one universe: distinct vertex pairs, each with a weight
    drawn from ``weights``."""
    n = draw(st.integers(2, max_vertices))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    pairs = draw(st.lists(pair, min_size=1, max_size=max_edges, unique=True))
    w = draw(st.lists(weights, min_size=len(pairs), max_size=len(pairs)))
    a, b = np.array(pairs, dtype=np.int64).T
    return EdgeArrays(a, b, np.array(w, dtype=float))


# from single units to tie-sized counts: 1e12 at scale 1, 1e15 at scale 1000,
# where 40 edges pass 2^53
universe_weights = (
    st.integers(0, 30) | st.integers(31, 10**4) | st.just(10**12) | st.floats(0.0, 5.0)
)
significance_levels = st.sampled_from(
    [1e-300, 1e-6, 0.01, 0.05, 0.3, 0.49, float(np.nextafter(0.5, 0.0)), 0.5, 0.75, 1.0]
) | st.floats(1e-12, 1.0)


def reference_tails(edges: EdgeArrays, scale: float) -> np.ndarray:
    """``edge_p_value(...)`` of each edge of one universe, in order, with
    scipy's betainc judging every edge; an edge quantized to no count
    reads inf."""
    pairs = list(zip(edges.a.tolist(), edges.b.tolist()))
    counts = reference_quantize(dict(zip(pairs, edges.w.tolist())), scale)
    tails = np.full(len(pairs), np.inf)
    if counts:
        total, degrees = null_context(counts)
        tails[[pair in counts for pair in pairs]] = edge_p_value(
            np.array(list(counts.values()), dtype=float),
            np.array([degrees[a] for a, _ in counts], dtype=float),
            np.array([degrees[b] for _, b in counts], dtype=float),
            float(total),
        )
    return tails


def p_value_verdicts(edges: EdgeArrays, alpha: float, scale: float) -> np.ndarray:
    """``edge_p_value(...) <= alpha`` for each edge of one universe, in order;
    an edge quantized to no count is dropped."""
    return reference_tails(edges, scale) <= alpha


def near(level: float) -> list[float]:
    """``level``, its two float neighbours and 1.5 times it, inside (0, 1]."""
    levels = [level, np.nextafter(level, 0.0), np.nextafter(level, 1.0), 1.5 * level]
    return [float(x) for x in levels if 0.0 < x <= 1.0]


def bounds_of(edges: EdgeArrays, alpha: float, scale: float = 1.0):
    """Counts, null probabilities and total of a universe quantized at
    ``scale``, with the verdicts and open edges of ``_bound_verdicts``; edges
    quantized to no count are left out."""
    counts = np.rint(edges.w * scale)
    live = counts > 0
    a, b, counts = edges.a[live], edges.b[live], counts[live]
    size = max(a.max(), b.max()) + 1
    strengths = np.bincount(a, counts, size) + np.bincount(b, counts, size)
    total = math.fsum(counts)
    p = strengths[a] * strengths[b] / (2.0 * total * total)
    return (counts, p, total, *_bound_verdicts(counts, p, total, alpha))


def check_settled_exactly(edges: EdgeArrays, alpha: float) -> None:
    """What the bounds settle, the exact tail confirms with room to spare: a
    kept edge's tail is at most alpha / 2, and a dropped edge's at least 1/2
    while alpha < 1/2. That room keeps betainc's own rounding from flipping a
    settled verdict, so this check sees what verdict equality cannot: a
    bound that holds only just, or not at all, before betainc rounds."""
    counts, p, total, verdict, close = bounds_of(edges, alpha)
    assert not verdict[close].any()
    settled = np.ones(len(counts), dtype=bool)
    settled[close] = False
    for c, q, keep in zip(counts[settled], p[settled], verdict[settled]):
        tail = exact_tail_oracle(int(c), int(total), float(q))
        if keep:
            assert tail <= Fraction(alpha) / 2, (c, q, total, alpha)
        else:
            assert alpha < 0.5 and tail >= Fraction(1, 2), (c, q, total, alpha)


class TestBoundVerdicts:
    """``_significant`` settles the clear edges with tail bounds and sends
    only the rest to betainc; every verdict must still be betainc's."""

    @given(universes(universe_weights), significance_levels, st.sampled_from([1.0, 1000.0]))
    @settings(max_examples=300, deadline=None)
    def test_equal_betainc_verdicts(self, edges, alpha, scale):
        got = _significant(edges, alpha, scale)
        assert got.tolist() == p_value_verdicts(edges, alpha, scale).tolist()

    @given(universes(st.integers(1, 8), max_vertices=8, max_edges=12), significance_levels)
    @settings(max_examples=200, deadline=None)
    def test_settled_verdicts_hold_exactly(self, edges, alpha):
        check_settled_exactly(edges, alpha)

    def test_count_equal_to_total(self):
        """A universe of one edge has c = E and p = 1/2, where the Chernoff
        bound equals the tail 2^-E; alpha runs round 2^-E and 2^(1-E)."""
        for total in range(1, 1001):
            edges = EdgeArrays(np.array([0]), np.array([1]), np.array([float(total)]))
            for alpha in near(2.0**-total) + near(2.0 ** (1 - total)):
                got = _significant(edges, alpha, 1.0)
                assert got.tolist() == p_value_verdicts(edges, alpha, 1.0).tolist()
                if total <= 300:
                    check_settled_exactly(edges, alpha)

    def test_tie_sized_counts_past_two_to_the_53(self):
        """An integer-scored layer in miniature: 300 vertices scored 0..3,
        ties of count 1e12 and the rest 1000 / gap, so the total passes 2^53."""
        scores = np.random.default_rng(21).integers(0, 4, size=300)
        a, b = np.triu_indices(300, k=1)
        gap = np.abs(scores[a] - scores[b]).astype(float)
        w = np.where(gap == 0, 1e12, 1000.0 / np.maximum(gap, 1.0))
        edges = EdgeArrays(a.astype(np.int64), b.astype(np.int64), w)
        assert w.sum() > 2.0**53
        for alpha in (1e-300, 0.05, 0.49, 0.5, 1.0):
            got = _significant(edges, alpha, 1.0)
            assert got.tolist() == p_value_verdicts(edges, alpha, 1.0).tolist()


def summed(counts, p, total: float, alpha: float):
    """``_summed_verdicts`` of edges given as lists or scalars."""
    return _summed_verdicts(
        np.atleast_1d(np.asarray(counts, dtype=float)), np.atleast_1d(p), total, alpha
    )


class TestSummedVerdicts:
    """The summed tail settles the close calls that the bounds leave open;
    every verdict it settles must be betainc's and the exact tail's."""

    def test_edge_far_below_its_mean_is_dropped(self):
        """At alpha = 1/2 no bound settles the count-1000 edge, whose null
        mean is about 2,712. Its pmf underflows to 0 there, and a sum of
        zero terms would keep it; its tail is close to 1."""
        edges = EdgeArrays(
            np.array([0, 0, 0, 0, 0, 0, 1]),
            np.array([1, 2, 3, 4, 5, 6, 2]),
            np.array([0.0, 1.0, 0.0, 0.0, 0.0, 5.0, 46.0]),
        )
        got = _significant(edges, 0.5, 1000.0)
        assert not got[1]
        assert got.tolist() == p_value_verdicts(edges, 0.5, 1000.0).tolist()

    def test_edges_below_their_mode_stay_open(self):
        """At alpha >= 1/2 the median drop is off, so an edge below its mean
        can reach the sum. Below its mode its pmf ratios rise, no geometric
        remainder bounds its tail, and betainc must judge it."""
        total = 10.0**6
        p = 1000.0 / total
        for c in (500.0, 600.0, 800.0, 900.0, 990.0):
            for alpha in (0.5, 0.6, 0.9, 0.99):
                keep, settled = summed(c, p, total, alpha)
                assert not settled.any() and not keep.any(), (c, alpha)

    @given(universes(universe_weights), significance_levels, st.sampled_from([1.0, 1000.0]))
    @settings(max_examples=300, deadline=None)
    def test_settled_verdicts_equal_betainc(self, edges, alpha, scale):
        assume(np.rint(edges.w * scale).any())
        counts, p, total, _, close = bounds_of(edges, alpha, scale)
        keep, settled = _summed_verdicts(counts[close], p[close], total, alpha)
        tails = betainc(counts[close], total - counts[close] + 1.0, p[close])
        assert keep[settled].tolist() == (tails[settled] <= alpha).tolist()
        assert not keep[~settled].any()

    @given(universes(st.integers(1, 30), max_vertices=8, max_edges=12), significance_levels)
    @settings(max_examples=200, deadline=None)
    def test_settled_verdicts_hold_exactly(self, edges, alpha):
        counts, p, total, _, close = bounds_of(edges, alpha)
        keep, settled = _summed_verdicts(counts[close], p[close], total, alpha)
        for c, q, kept in zip(counts[close][settled], p[close][settled], keep[settled]):
            tail = exact_tail_oracle(int(c), int(total), float(q))
            assert (tail <= Fraction(alpha)) == kept, (c, q, total, alpha)

    def test_alpha_within_the_tolerance_stays_open(self):
        """alpha within 2^-31 of the exact tail, on either side: the summed
        tail cannot tell the verdict from rounding, so betainc judges it."""
        rng = np.random.default_rng(11)
        opened = 0
        for _ in range(300):
            total = int(rng.integers(10, 300))
            p = float(rng.uniform(1e-3, 0.5))
            c = int(rng.integers(math.ceil(total * p), total))
            tail = exact_tail_oracle(c, total, p)
            for side in (1, -1):
                alpha = float(tail * (1 + Fraction(side, 2**31)))
                if not 0.0 < alpha < 1.0:
                    continue
                keep, settled = summed(c, p, float(total), alpha)
                assert not settled.any(), (c, p, total, side)
                opened += 1
        assert opened > 300

    def test_edges_near_the_cap(self):
        """A null standard deviation of 2^15 counts, alpha 1% below the tail:
        from one deviation above the mean the drop takes about 57,000 terms,
        under the cap of 2^16; from half a deviation about 69,000, over it.
        At 2^13 and 2^14 every such edge settles, as betainc reads it."""
        total = 2.0**50
        for scale in (13, 14, 15):
            p = 4.0**scale / total
            for z in (0.5, 1.0, 1.9):
                c = math.floor(total * p + z * 2.0**scale)
                tail = betainc(c, total - c + 1.0, p)
                for factor in (0.99, 0.999, 1.001, 1.01):
                    keep, settled = summed(c, p, total, tail * factor)
                    assert keep.tolist() == [settled[0] and factor > 1]
                    if scale < 15:
                        assert settled.all(), (scale, z, factor)
        p = 4.0**15 / total
        for z, settles in ((1.0, True), (0.5, False)):
            c = math.floor(total * p + z * 2.0**15)
            tail = betainc(c, total - c + 1.0, p)
            assert summed(c, p, total, 0.99 * tail)[1].tolist() == [settles]

    def test_total_past_two_to_the_53_stays_open(self):
        """Past 2^53 betainc's E - c + 1 need not be an integer."""
        for total, settles in ((2.0**53, True), (2.0**53 + 2.0, False)):
            p = 1000.0 / total
            keep, settled = summed([1050.0, 1100.0, 1200.0], np.full(3, p), total, 0.05)
            assert settled.tolist() == [settles] * 3
            assert keep.tolist() == [False, settles, settles]


class TestCountsPastTenToTheSixteen:
    """The four-cycle 0-1-3-2 with counts (c, 3e16, 3e16, 1e16) at
    quantization 1e7, for c = 1e16 + d * 1e6 and d in -40..40. Close to the
    mean, betainc reads NaN for some of these edges."""

    @staticmethod
    def universes():
        a, b = np.array([[0, 1], [1, 3], [0, 2], [2, 3]]).T
        for d in range(-40, 41):
            yield EdgeArrays(a, b, np.array([1e16 + d * 1e6, 3e16, 3e16, 1e16]) / 1e7)

    def test_alpha_one_keeps_every_edge(self):
        for edges in self.universes():
            assert _significant(edges, 1.0, 1e7).all()

    def test_nan_tail_is_refused_not_dropped(self):
        """At alpha = 0.6 no bound settles an edge this close to its mean, so
        every edge that betainc leaves NaN is a close call; its tail is about
        1/2, and the filter refuses to guess the verdict."""
        for edges in self.universes():
            tails = reference_tails(edges, 1e7)
            if not np.isnan(tails).any():
                assert _significant(edges, 0.6, 1e7).tolist() == (tails <= 0.6).tolist()
                continue
            with pytest.raises(ArithmeticError) as refused:
                _significant(edges, 0.6, 1e7)
            count, total = re.fullmatch(
                r"betainc gave NaN at count (\d+), universe total (\d+)", str(refused.value)
            ).groups()
            counts = np.rint(edges.w * 1e7)
            assert float(count) in counts[np.isnan(tails)].tolist()
            assert int(total) == int(counts.sum())


@st.composite
def score_tables(draw):
    """Tables with missing cells, integer 0-10 ties, one near-tie pair (z gap
    about 1e-8) and entity and layer names out of sorted order."""
    n = draw(st.integers(4, 12))
    names = [f"e{k:02d}" for k in draw(st.permutations(range(n)))]
    layers = draw(st.permutations(["C", "A", "D", "B"]))[: draw(st.integers(1, 4))]
    scores = {}
    for layer in layers:
        kind = draw(st.sampled_from(["integer", "gaussian", "near_tie"]))
        if kind == "integer":
            values = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
        else:
            values = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
        values = [float(v) for v in values]
        if kind == "near_tie":
            values[1] = values[0] + 1e-8 * max(float(np.std(values)), 1e-3)
        missing = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
        present = [(e, v) for i, (e, v) in enumerate(zip(names, values)) if i not in missing]
        assume(len(present) >= 2 and np.std([v for _, v in present]) > 0)
        scores.update({(e, layer): v for e, v in present})
    assume(all(any((e, l) in scores for l in layers) for e in names))
    return ScoreTable(tuple(names), tuple(layers), scores)


class TestMatchesReferenceFilter:
    @given(score_tables(), st.sampled_from([0.05, 0.3, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_prune_network_equals_dict_filter(self, table, alpha):
        complete = build_network(table)
        pruned = prune_network(complete, alpha=alpha)
        intra, inter = reference_prune(complete, alpha=alpha)
        for got, want in ((pruned.intra_edges, intra), (pruned.inter_edges, inter)):
            assert set(got) == set(want)
            assert {e: w.hex() for e, w in got.items()} == {
                e: w.hex() for e, w in want.items()
            }

    @given(score_tables(), st.sampled_from([0.05, 0.3, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_build_pruned_network_equals_prune_network(self, table, alpha):
        """Built and filtered one universe at a time, the network equals the
        filtered complete network array for array: ids, order and weights."""
        fused = build_pruned_network(table, PipelineConfig(pruning=PruningConfig(alpha=alpha)))
        whole = prune_network(build_network(table), alpha=alpha)
        assert fused.layers == whole.layers
        assert fused.vertices == whole.vertices
        for got, want in ((fused.intra, whole.intra), (fused.inter, whole.inter)):
            assert got.a.tolist() == want.a.tolist()
            assert got.b.tolist() == want.b.tolist()
            assert [w.hex() for w in got.w.tolist()] == [w.hex() for w in want.w.tolist()]

    def test_quantize_weights_equals_dict_quantizer(self):
        rng = np.random.default_rng(8)
        edges = {(f"n{i}", f"n{i + 1}"): float(w) for i, w in enumerate(rng.exponential(2e-3, 500))}
        edges[("x", "y")] = 0.0025  # rounds half to even, to 2
        assert quantize_weights(edges, 1000.0) == reference_quantize(edges, 1000.0)


class TestBuildPrunedNetworkMemory:
    def test_peak_at_most_half_of_the_complete_network_path(self):
        """Only one universe's complete edges are held at a time, so the
        traced peak is at most half that of filtering the complete network
        (n = 300, six layers: 269,100 intra edges)."""
        rng = np.random.default_rng(7)
        n, layers = 300, [f"L{i + 1}" for i in range(6)]
        entities = [f"e{i:03d}" for i in range(n)]
        groups = np.column_stack([rng.permutation(np.arange(n) % 4) for _ in layers])
        values = groups * 10.0 + rng.normal(0.0, 0.5, size=groups.shape)
        table = ScoreTable(
            tuple(entities),
            tuple(layers),
            {(e, l): float(values[i, j]) for i, e in enumerate(entities) for j, l in enumerate(layers)},
        )
        config = PipelineConfig()

        def peak(run) -> int:
            run()  # untraced first, so lazy imports are not counted
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fused = peak(lambda: build_pruned_network(table, config))
        whole = peak(lambda: prune_network(build_network(table)))
        assert fused <= whole / 2, (fused, whole)
