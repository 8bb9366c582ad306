import argparse
import copy
import io
import json
import math
import re
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cobalt import cli
from cobalt import io as cio
from cobalt.community import LeidenConfig
from cobalt.config import PipelineConfig, PruningConfig, RegressionConfig, SweepConfig
from cobalt.model import EdgeArrays, MultiLayerNetwork, NodeRef, Partition, ScoreTable
from cobalt.pipeline import build_pruned_network

from _support import (
    halves_and_parity_table,
    mln_from_edges,
    multilayer_networks,
    planted_table,
    read_graphml,
    write_score_csv,
)


class TestScoreCsv:
    def test_round_trip_cell_exact(self, tmp_path):
        table = ScoreTable(
            ("e1", "e2", "e3"),
            ("A", "B"),
            {
                ("e1", "A"): 0.1,
                ("e1", "B"): 1.0 / 3.0,
                ("e2", "A"): -7.25,
                ("e3", "B"): 1e-17,
            },
        )
        parsed = cio.read_score_table(write_score_csv(table, tmp_path / "s.csv"))
        assert parsed.entities == table.entities
        assert parsed.layers == table.layers
        assert parsed.scores == dict(table.scores)

    def test_empty_cells_are_missing(self):
        parsed = cio.read_score_table(io.StringIO("entity,A,B\ne1,1.5,\ne2,,2.5\n"))
        assert parsed.scores == {("e1", "A"): 1.5, ("e2", "B"): 2.5}

    def test_malformed_header_names_column(self):
        with pytest.raises(cio.InputFormatError, match="entity"):
            cio.read_score_table(io.StringIO("ident,A\ne1,1\n"))

    def test_duplicate_layer_column_named(self):
        with pytest.raises(cio.InputFormatError, match="duplicate layer.*A"):
            cio.read_score_table(io.StringIO("entity,A,A\ne1,1,2\n"))

    def test_empty_file(self):
        with pytest.raises(cio.InputFormatError, match="empty"):
            cio.read_score_table(io.StringIO(""))

    def test_non_numeric_cell_reported(self):
        with pytest.raises(cio.InputFormatError, match="line 2.*'A'"):
            cio.read_score_table(io.StringIO("entity,A\ne1,abc\n"))


class TestCovariatesAndTargets:
    def test_covariates_parse(self):
        cov = cio.read_covariates(io.StringIO("entity,age,gender\ne1,44,f\ne2,,m\n"))
        assert cov.age == {"e1": 44.0}
        assert cov.gender == {"e1": "f", "e2": "m"}

    def test_covariates_header_enforced(self):
        with pytest.raises(cio.InputFormatError, match="entity,age,gender"):
            cio.read_covariates(io.StringIO("entity,gender,age\ne1,f,44\n"))

    def test_non_finite_age_rejected(self):
        with pytest.raises(cio.InputFormatError, match="not finite"):
            cio.read_covariates(io.StringIO("entity,age,gender\ne1,inf,f\n"))

    def test_targets_parse_and_layer_names(self):
        targets = cio.read_targets(
            io.StringIO("entity,A_t1,B_t1\ne1,5.5,\ne2,,6.5\n")
        )
        assert targets.layers == ("A", "B")
        assert targets.scores == {("e1", "A"): 5.5, ("e2", "B"): 6.5}

    def test_target_column_suffix_required(self):
        with pytest.raises(cio.InputFormatError, match="_t1"):
            cio.read_targets(io.StringIO("entity,A\ne1,5\n"))

    def test_repeated_target_column_rejected(self):
        with pytest.raises(cio.InputFormatError, match=r"duplicate layer columns: \['A_t1'\]"):
            cio.read_targets(io.StringIO("entity,A_t1,A_t1\ne1,5,6\n"))


# rows that may break each shared reader rule: ragged rows, repeated or
# empty entities, non-numeric and non-finite cells; blank lines come before
# a row
csv_rows = st.lists(
    st.tuples(
        st.sampled_from(["e1", "e2", "e3", "e4", ""]),
        st.lists(
            st.sampled_from(["", "nan", "inf", "-inf", "1e999", "abc"])
            | st.integers(-99, 99).map(str)
            | st.floats(allow_nan=False, allow_infinity=False).map(repr),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
    ),
    max_size=5,
)

READERS = {
    "scores": (cio.read_score_table, "entity,A,B", 2),
    "targets": (cio.read_targets, "entity,A_t1,B_t1", 2),
    "covariates": (cio.read_covariates, "entity,age,gender", 1),
}


def _finite_or_empty(cell: str) -> bool:
    try:
        return cell == "" or math.isfinite(float(cell))
    except ValueError:
        return False


class TestCsvRules:
    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rows=csv_rows, bom=st.booleans())
    def test_clean_table_or_input_error(self, kind, rows, bom, tmp_path):
        """Each reader returns unique entities and finite values, or raises
        InputFormatError exactly when some row breaks a rule."""
        read, header, numeric = READERS[kind]
        lines = [header]
        for entity, cells, blank_before in rows:
            lines += [""] * blank_before + [",".join([entity, *cells])]
        path = tmp_path / "in.csv"
        path.write_text("\ufeff" * bom + "\n".join(lines) + "\n", encoding="utf-8")
        entities = [entity for entity, _, _ in rows]
        broken = len(set(entities)) < len(entities) or "" in entities or any(
            len(cells) != 2 or not all(map(_finite_or_empty, cells[:numeric]))
            for _, cells, _ in rows
        )
        if broken:
            with pytest.raises(cio.InputFormatError):
                read(path)
            return
        table = read(path)
        assert table.entities == tuple(entities)
        values = table.age.values() if kind == "covariates" else table.scores.values()
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_empty_entity_named(self, kind):
        read, header, _ = READERS[kind]
        with pytest.raises(cio.InputFormatError, match="^line 2: empty entity$"):
            read(io.StringIO(f"{header}\n,5,6\ne2,6,7\n"))


def sample_network() -> MultiLayerNetwork:
    return mln_from_edges(
        {"A": [("x", "y", 2.5), ("y", "z", 1.0 / 3.0)], "B": [("x", "z", 7.0)]},
        couplings=[("x", "A", "B", 0.125), ("z", "A", "B", 9.75)],
    )


def same_arrays(left: MultiLayerNetwork, right: MultiLayerNetwork) -> bool:
    """Equal vertices and edge arrays, weights compared bit for bit."""
    pairs = zip((*left.intra, *left.inter), (*right.intra, *right.inter))
    bits = [(x.view(np.int64), y.view(np.int64)) if x.dtype == float else (x, y) for x, y in pairs]
    return left.vertices == right.vertices and all(np.array_equal(x, y) for x, y in bits)


class TestNetworkJson:
    def test_round_trip(self):
        net = sample_network()
        raw = json.loads(json.dumps(cio.network_to_dict(net, {"alpha": 0.05})))
        parsed = cio.network_from_dict(raw)
        assert parsed.layers == net.layers
        assert parsed.nodes == net.nodes
        assert parsed.intra_edges == dict(net.intra_edges)
        assert parsed.inter_edges == dict(net.inter_edges)

    @settings(max_examples=100, deadline=None)
    @given(multilayer_networks())
    def test_round_trip_keeps_ids_and_weight_bits(self, net):
        raw = json.loads(json.dumps(cio.network_to_dict(net)))
        assert raw["vertices"] == [list(v) for v in net.vertices]
        assert same_arrays(cio.network_from_dict(raw), net)

    @pytest.mark.parametrize("name", ["intra_edges", "inter_edges"])
    def test_flipped_edge_refused(self, name):
        raw = cio.network_to_dict(sample_network())
        columns = raw[name]
        columns["a"][0], columns["b"][0] = columns["b"][0], columns["a"][0]
        with pytest.raises(cio.InputFormatError, match=f"'{name}'.* not in canonical order"):
            cio.network_from_dict(raw)

    def test_repeated_edge_named(self):
        raw = copy.deepcopy(TestCliMalformedArtifacts.NETWORK_WITH_REPEATED_EDGE)
        with pytest.raises(
            cio.InputFormatError, match="'intra_edges': intra edge .*'a'.*'b'.* is listed twice"
        ):
            cio.network_from_dict(raw)
        raw["intra_edges"]["b"][1] = 2
        with pytest.raises(
            cio.InputFormatError, match="'intra_edges': intra edge 0-2 has endpoint outside"
        ):
            cio.network_from_dict(raw)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_repeated_edge_refused_by_network_and_reader(self, data):
        """A copy of any one edge, appended to its edge set, is refused by the
        network constructor and, in a network.json document, by the reader."""
        net = data.draw(multilayer_networks())
        kinds = [k for k in ("intra", "inter") if len(getattr(net, k).w)]
        assume(kinds)
        kind = data.draw(st.sampled_from(kinds))
        edges = getattr(net, kind)
        k = data.draw(st.integers(0, len(edges.w) - 1))
        grown = EdgeArrays(*(np.append(column, column[k]) for column in edges))
        parts = {"intra": net.intra, "inter": net.inter, kind: grown}
        with pytest.raises(ValueError, match=f"^{kind} edge .* is listed twice"):
            MultiLayerNetwork(net.layers, net.vertices, parts["intra"], parts["inter"])
        raw = cio.network_to_dict(net)
        for column in raw[f"{kind}_edges"].values():
            column.append(column[k])
        with pytest.raises(cio.InputFormatError, match=f"^artifact field '{kind}_edges'"):
            cio.network_from_dict(raw)

    @pytest.mark.parametrize(
        "ids, message",
        [
            # the reader refuses what int64 cannot hold; the network, ids outside its vertices
            ([2**63], "'intra_edges' holds a number out of range"),
            ([-(2**63) - 1], "'intra_edges' holds a number out of range"),
            ([2**63 - 1], "'intra_edges': intra edge 9223372036854775807-1 has endpoint outside"),
        ],
        ids=["past_max", "past_min", "max"],
    )
    def test_id_past_int64_named(self, ids, message):
        with pytest.raises(cio.InputFormatError, match=message):
            cio.network_from_dict(small_network(edges("intra_edges", a=ids)))

    def test_rejects_foreign_payload(self):
        with pytest.raises(cio.InputFormatError):
            cio.network_from_dict({"format": "something-else"})

    def test_parsed_document_holds_few_bytes_per_edge(self):
        """A planted n = 300, L = 6 network parses to well under 150 bytes
        per edge: three columns of small ints and floats, no row lists."""
        layers = {f"L{k}": [i % 4 for i in range(300)] for k in range(6)}
        net = build_pruned_network(planted_table(300, layers, seed=1), PipelineConfig())
        text = json.dumps(cio.network_to_dict(net))
        tracemalloc.start()
        try:
            json.loads(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (len(net.intra.w) + len(net.inter.w)) < 150


class TestArtifactVersion:
    @pytest.mark.parametrize(
        "read, raw",
        [
            (cio.partition_from_dict, {"format": "cobalt-partition", "version": 99}),
            (cio.partition_from_dict, {"format": "cobalt-partition"}),
            (cio.trace_from_dict, {"format": "cobalt-trace", "version": True}),
            (cio.network_from_dict, {"format": "cobalt-network", "version": 7}),
            (cio.network_from_dict, {"format": "cobalt-network", "version": 2.0}),
        ],
    )
    def test_wrong_version_named(self, read, raw):
        payload = {"assignment": [["a", "A", 0]], "quality": 0.0, "iterations": []}
        with pytest.raises(cio.InputFormatError, match="'version'"):
            read({**payload, **raw})

    def test_version_one_network_asks_for_a_rebuild(self):
        raw = {"format": "cobalt-network", "version": 1, "layers": [], "nodes": []}
        with pytest.raises(cio.InputFormatError, match="'version' reads 1.*'cobalt build'"):
            cio.network_from_dict(raw)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e300, 2**63, "],\n   [", "],\n [", "é ü 漢  "])
    | st.text(max_size=6)
)
json_rows = st.lists(json_scalars, min_size=1, max_size=4)
json_row_lists = st.lists(json_rows | json_rows.map(tuple), max_size=5)
json_payloads = st.recursive(
    json_scalars | json_row_lists,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=30,
)


class TestDumpJson:
    @settings(max_examples=300, deadline=None)
    @given(json_payloads)
    def test_bytes_equal_json_dumps(self, payload):
        buf = io.StringIO()
        cio.dump_json(payload, buf)
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
        assert buf.getvalue() == expected + "\n"

    @pytest.mark.parametrize(
        "payload",
        [[[1.0, float("nan")]], {"a": float("nan")}, [1, [float("-inf")]], float("inf")],
    )
    def test_non_finite_float_raises(self, payload):
        with pytest.raises(ValueError):
            cio.dump_json(payload, io.StringIO())


# rows that pass or fail the (str, str, int) entry rule in every way: bools
# are no ints, tuples and short or long rows fail, and a vertex may repeat
member_cells = st.text(max_size=2) | st.integers(-3, 3) | st.booleans() | st.floats(0, 1)
member_rows = (
    st.lists(member_cells, min_size=2, max_size=4)
    | st.tuples(st.text(max_size=2), st.text(max_size=2), st.integers(0, 3))
    | st.builds(list, st.tuples(st.text(max_size=2), st.text(max_size=2), st.integers(0, 3)))
    | st.integers()
)


class TestArtifactRows:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(member_rows, max_size=6))
    def test_column_checks_match_the_per_row_rule(self, rows):
        # JSON gives exact types, so the rule is exact too: true is no int
        kinds = (str, str, int)
        bad = [
            row
            for row in rows
            if not (
                type(row) is list
                and len(row) == 3
                and all(type(v) is k for v, k in zip(row, kinds))
            )
        ]
        raw = {"format": "cobalt-partition", "version": 1, "assignment": rows, "quality": 0.0}
        if bad:
            message = re.escape("'assignment' holds an entry that is not [str, str, int]")
            with pytest.raises(cio.InputFormatError, match=message):
                cio.partition_from_dict(raw)
        elif not rows:
            with pytest.raises(cio.InputFormatError, match="'assignment' has no rows"):
                cio.partition_from_dict(raw)
        elif len({(e, l) for e, l, _ in rows}) < len(rows):
            with pytest.raises(cio.InputFormatError, match="'assignment' assigns vertex .* twice"):
                cio.partition_from_dict(raw)
        else:
            assignment = cio.partition_from_dict(raw).assignment
            assert assignment == {NodeRef(e, l): c for e, l, c in rows}


class TestGraphml:
    def test_round_trip_identity(self, tmp_path):
        """networkx reads back the layers, every node with its entity, layer
        and community, and every weight bit for bit under its kind."""
        net = sample_network()
        partition = Partition(
            {n: i % 3 for i, n in enumerate(sorted(net.nodes))}, 0.25
        )
        path = tmp_path / "network.graphml"
        cio.export_graphml(net, partition, path)
        parsed = read_graphml(path)
        assert parsed.layers == list(net.layers)
        assert parsed.communities == dict(partition.assignment)
        assert all(type(c) is int for c in parsed.communities.values())
        assert parsed.edges == {
            "intra": dict(net.intra_edges),
            "inter": dict(net.inter_edges),
        }

    def test_inter_edges_carry_kind(self):
        buf = io.StringIO()
        cio.export_graphml(sample_network(), None, buf)
        text = buf.getvalue()
        assert text.count(">inter<") == 2
        assert text.count(">intra<") == 3

    def test_weights_have_seventeen_significant_digits(self):
        buf = io.StringIO()
        cio.export_graphml(sample_network(), None, buf)
        weights = re.findall(r'<data key="d_weight">([^<]+)</data>', buf.getvalue())
        assert any("0.3333333333333333" in w for w in weights)
        for text in weights:
            assert float(text) in {2.5, 1.0 / 3.0, 7.0, 0.125, 9.75}

    def test_edges_follow_the_network_arrays(self):
        """Intra edges first, then couplings, each in the order of the
        network's edge arrays: by layer, then by entity."""
        net = sample_network()
        buf = io.StringIO()
        cio.export_graphml(net, None, buf)
        ids = {node: f"n{k}" for k, node in enumerate(sorted(net.nodes))}
        v = net.vertices
        expected = [
            (ids[v[i]], ids[v[j]])
            for edges in (net.intra, net.inter)
            for i, j in zip(edges.a.tolist(), edges.b.tolist())
        ]
        assert re.findall(r'<edge source="(\w+)" target="(\w+)">', buf.getvalue()) == expected

    def test_partitionless_round_trip(self, tmp_path):
        path = tmp_path / "network.graphml"
        cio.export_graphml(sample_network(), None, path)
        parsed = read_graphml(path)
        assert parsed.communities == dict.fromkeys(sample_network().nodes)


@pytest.fixture()
def score_csv(tmp_path):
    table = halves_and_parity_table(n=16, seed=3)
    return write_score_csv(table, tmp_path / "scores.csv")


class TestCliBuild:
    def test_valid_three_layer_csv(self, score_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["build", score_csv, "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "network.json").read_text())
        assert payload["layers"] == ["A", "B", "C"]
        assert payload["pruning"]["alpha"] == 0.05
        assert payload["pruning"]["degree_definition"] == "quantized_strength"

    def test_malformed_header_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("ident,A\ne1,1\ne2,2\n")
        code = cli.main(["build", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "entity" in capsys.readouterr().err

    def test_empty_file_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = cli.main(["build", str(empty), "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_invalid_table_exits_two(self, tmp_path, capsys):
        dup = tmp_path / "dup.csv"
        dup.write_text("entity,A\ne1,1\ne1,2\n")
        code = cli.main(["build", str(dup), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "duplicate" in capsys.readouterr().err

    def test_directory_as_scores_exits_two(self, tmp_path, capsys):
        code = cli.main(["build", str(tmp_path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_dir_that_is_a_file_exits_two(self, score_csv, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(["build", score_csv, "--out-dir", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_quantization_overflow_exits_three(self, score_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # weight clamp of tied scores times this scale overflows 2**63 - 1
        cfg.write_text(json.dumps({"pruning": {"quantization": 1e18}}))
        tied = tmp_path / "tied.csv"
        tied.write_text("entity,A\ne1,1\ne2,1\ne3,5\n")
        code = cli.main(
            ["build", str(tied), "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestCliSelect:
    def test_layer_without_vertices_named(self, tmp_path, capsys):
        def all_in_a(raw):
            raw["vertices"].pop()
            raw["inter_edges"] = {"a": [], "b": [], "w": []}

        network = tmp_path / "network.json"
        network.write_text(json.dumps(small_network(all_in_a)))
        assert cli.main(["select", str(network), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "no vertices" in err and "'B'" in err

    def test_trace_and_partitions_written(self, score_csv, tmp_path, capsys):
        out = tmp_path / "sel"
        code = cli.main(["select", score_csv, "--out-dir", str(out), "--seed", "5"])
        assert code == 0
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace["iterations"]) == 3
        assert (out / "partition_iter01.json").exists()
        assert (out / "partition_iter03.json").exists()
        first = trace["iterations"][0]
        assert first["cost"] is None and first["index"] == 1

    def test_reruns_are_byte_identical(self, score_csv, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["select", score_csv, "--out-dir", str(out_a), "--seed", "9"]) == 0
        assert cli.main(["select", score_csv, "--out-dir", str(out_b), "--seed", "9"]) == 0
        assert (out_a / "trace.json").read_bytes() == (out_b / "trace.json").read_bytes()

    def test_trace_json_round_trip(self, score_csv, tmp_path, capsys):
        out = tmp_path / "sel"
        cli.main(["select", score_csv, "--out-dir", str(out)])
        raw = json.loads((out / "trace.json").read_text())
        trace = cio.trace_from_dict(raw)
        assert [r.index for r in trace.records] == [1, 2, 3]
        assert trace.records[1].breakdown is not None

    def test_infinite_cost_round_trips(self):
        """A layer of zero availability costs inf, which the trace spells "inf"."""
        raw = golden_trace(lambda its: its[1].update(cost="inf"))
        trace = cio.trace_from_dict(raw)
        assert trace.records[1].breakdown.cost == math.inf
        assert cio.trace_to_dict(trace, raw["config"]) == raw

    def test_select_from_network_artifact_matches_csv_run(
        self, score_csv, tmp_path, capsys
    ):
        built = tmp_path / "built"
        assert cli.main(["build", score_csv, "--out-dir", str(built)]) == 0
        from_csv = tmp_path / "fromcsv"
        from_art = tmp_path / "fromart"
        assert cli.main(["select", score_csv, "--out-dir", str(from_csv)]) == 0
        assert (
            cli.main(
                ["select", str(built / "network.json"), "--out-dir", str(from_art)]
            )
            == 0
        )
        csv_trace = json.loads((from_csv / "trace.json").read_text())
        art_trace = json.loads((from_art / "trace.json").read_text())
        assert csv_trace["iterations"] == art_trace["iterations"]

    def test_network_artifact_records_its_own_pruning(self, score_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"pruning": {"alpha": 0.01}}))
        built, out = tmp_path / "built", tmp_path / "sel"
        argv = ["build", score_csv, "--config", str(config), "--out-dir", str(built)]
        assert cli.main(argv) == 0
        assert cli.main(["select", str(built / "network.json"), "--out-dir", str(out)]) == 0
        network = json.loads((built / "network.json").read_text())
        trace = json.loads((out / "trace.json").read_text())
        assert trace["config"]["pruning"]["alpha"] == 0.01
        assert trace["config"]["pruning"] == network["pruning"]

    def test_network_artifact_without_pruning_settings_records_none(self, tmp_path, capsys):
        raw = json.loads((PLANTED / "expected" / "build" / "network.json").read_text())
        raw["pruning"] = None
        artifact, out = tmp_path / "network.json", tmp_path / "sel"
        artifact.write_text(json.dumps(raw))
        assert cli.main(["select", str(artifact), "--out-dir", str(out)]) == 0
        assert json.loads((out / "trace.json").read_text())["config"]["pruning"] is None

    @pytest.mark.parametrize("pruning", [[], 0.05, "alpha=0.05"])
    def test_malformed_pruning_field_exits_two_before_selection(
        self, pruning, tmp_path, capsys, monkeypatch
    ):
        def never(*args):
            raise AssertionError("selection ran")

        monkeypatch.setattr(cli, "initialize", never)
        raw = json.loads((PLANTED / "expected" / "build" / "network.json").read_text())
        raw["pruning"] = pruning
        artifact, out = tmp_path / "network.json", tmp_path / "sel"
        artifact.write_text(json.dumps(raw))
        assert cli.main(["select", str(artifact), "--out-dir", str(out)]) == 2
        kind = type(pruning).__name__
        assert capsys.readouterr().err == f"error: artifact field 'pruning' has type {kind}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda _: {"alpha": "abc", "quantization": -5, "extra": [1, 2]}, "alpha"),
            (lambda p: dict(p, degree_definition="strength"), "'quantized_strength'}"),
            (lambda p: dict(p, alpha=1.5), "pruning.alpha"),
            (lambda p: dict(p, alpha=True), "pruning.alpha"),
            (lambda p: dict(p, quantization=-5), "pruning.quantization"),
            (lambda p: dict(p, extra=[1, 2]), "pruning.extra"),
            (lambda p: {k: v for k, v in p.items() if k != "quantization"}, "'quantization'"),
        ],
        ids=["unchecked", "degree", "alpha", "bool", "quantization", "extra", "missing"],
    )
    def test_invalid_pruning_settings_exit_two(self, edit, reason, tmp_path, capsys):
        """The block that select copies into trace.json obeys the config file's rules."""
        raw = json.loads((PLANTED / "expected" / "build" / "network.json").read_text())
        raw["pruning"] = edit(raw["pruning"])
        artifact, out = tmp_path / "network.json", tmp_path / "sel"
        artifact.write_text(json.dumps(raw))
        assert cli.main(["select", str(artifact), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: artifact field 'pruning': ") and reason in err
        assert list(out.iterdir()) == []


class TestCliSweep:
    def test_small_grid(self, tmp_path, capsys):
        table = halves_and_parity_table(n=14, seed=2)
        csv_path = write_score_csv(table, tmp_path / "s.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"grid": [0.5], "master_seed": 3}}))
        out = tmp_path / "sweep"
        code = cli.main(["sweep", csv_path, "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["reference"]["ratio"] == 0.0
        assert [e["ratio"] for e in payload["ratios"]] == [0.5]

    def test_out_dir_that_is_a_file_exits_before_the_sweep(
        self, score_csv, tmp_path, capsys, monkeypatch
    ):
        def never(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "missingness_sweep", never)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(["sweep", score_csv, "--out-dir", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_incomplete_table_exits_two(self, tmp_path, capsys):
        incomplete = tmp_path / "inc.csv"
        incomplete.write_text("entity,A,B\ne1,1,\ne2,2,3\ne3,3,4\n")
        code = cli.main(["sweep", str(incomplete), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "complete" in capsys.readouterr().err


class TestCliEvaluate:
    def test_report_shape(self, tmp_path, capsys):
        table = halves_and_parity_table(n=20, seed=4)
        csv_path = write_score_csv(table, tmp_path / "s.csv")
        cov = tmp_path / "cov.csv"
        cov.write_text(
            "entity,age,gender\n"
            + "\n".join(f"{e},{30 + i},{'m' if i % 2 else 'f'}" for i, e in enumerate(table.entities))
            + "\n"
        )
        tgt = tmp_path / "tgt.csv"
        tgt.write_text(
            "entity,A_t1\n"
            + "\n".join(f"{e},{table.scores[(e, 'A')] * 0.9:.6f}" for e in table.entities)
            + "\n"
        )
        out = tmp_path / "eval"
        code = cli.main(
            ["evaluate", csv_path, str(cov), str(tgt), "--out-dir", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "regression.json").read_text())
        # baseline + one row per iteration
        assert len(payload["rows"]) == 1 + 3
        assert payload["rows"][0]["feature_set"] == "baseline"
        assert (out / "regression.csv").read_text().startswith("target,feature_set")
        # layers B and C have no targets: warned and skipped
        err = capsys.readouterr().err
        assert "no targets for layer 'B'" in err
        assert "no targets for layer 'C'" in err


GOLDEN = Path(__file__).parent / "golden"
PLANTED = GOLDEN / "planted"


def planted_copy(tmp_path: Path, name: str, edit) -> list[str]:
    """``evaluate`` arguments on a copy of the golden planted inputs, the
    lines of file ``name`` passed through ``edit``."""
    for file in ("scores.csv", "covariates.csv", "targets.csv"):
        shutil.copy(PLANTED / file, tmp_path / file)
    lines = (tmp_path / name).read_text().splitlines()
    (tmp_path / name).write_text("\n".join(edit(lines)) + "\n")
    return [
        "evaluate",
        *(str(tmp_path / f) for f in ("scores.csv", "covariates.csv", "targets.csv")),
        "--trace",
        str(PLANTED / "expected" / "select" / "trace.json"),
        "--out-dir",
        str(tmp_path / "out"),
    ]


def set_cell(line: int, column: int, cell: str):
    def edit(lines: list[str]) -> list[str]:
        row = lines[line - 1].split(",")
        row[column] = cell
        lines[line - 1] = ",".join(row)
        return lines

    return edit


class TestCliInputRules:
    @pytest.mark.parametrize("name", ["scores.csv", "targets.csv", "covariates.csv"])
    def test_repeated_entity_exits_two(self, name, tmp_path, capsys):
        argv = planted_copy(tmp_path, name, lambda lines: lines + lines[1:2])
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: line 38: duplicate entity 'e00'\n"

    @pytest.mark.parametrize("name", ["scores.csv", "targets.csv", "covariates.csv"])
    def test_empty_entity_exits_two(self, name, tmp_path, capsys):
        argv = planted_copy(tmp_path, name, set_cell(5, 0, ""))
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: line 5: empty entity\n"

    def test_overflowing_layer_exits_two_without_warnings(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("entity,A,B\ne1,1e308,1\ne2,1e308,2\ne3,-1e308,3\ne4,5,4\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["build", str(scores), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert caught == []
        assert capsys.readouterr().err.startswith("error: layer 'A' has no finite z-scores")

    @pytest.mark.parametrize(
        "name, column, cell, message",
        [
            ("scores.csv", 2, "9" * 131_073, "line 5: field larger than field limit"),
            ("targets.csv", 2, "nan", "line 5, column 'B_t1': not finite: 'nan'"),
            ("targets.csv", 3, "inf", "line 5, column 'C_t1': not finite: 'inf'"),
            ("scores.csv", 1, "nan", "line 5, column 'A': not finite: 'nan'"),
            ("covariates.csv", 1, "1e999", "line 5, column 'age': not finite: '1e999'"),
        ],
        ids=["long_cell", "nan_target", "inf_target", "nan_score", "huge_age"],
    )
    def test_bad_cell_exits_two_naming_it(self, name, column, cell, message, tmp_path, capsys):
        argv = planted_copy(tmp_path, name, set_cell(5, column, cell))
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_byte_order_mark_builds_the_golden_network(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"\xef\xbb\xbf" + (PLANTED / "scores.csv").read_bytes())
        config = str(PLANTED / "config.json")
        out = tmp_path / "out"
        assert cli.main(["build", str(scores), "--config", config, "--out-dir", str(out)]) == 0
        expected = PLANTED / "expected" / "build" / "network.json"
        assert (out / "network.json").read_bytes() == expected.read_bytes()

    def test_zero_lambda_exits_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"regression": {"lambda_grid": [0.0, 1.0]}}))
        argv = planted_copy(tmp_path, "scores.csv", lambda lines: lines)
        assert cli.main(argv + ["--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lambda values must be positive")


class TestCliConfigRules:
    INPUTS = {
        "select": [str(PLANTED / "scores.csv")],
        "sweep": [str(PLANTED / "scores.csv")],
        "evaluate": [
            *(str(PLANTED / f) for f in ("scores.csv", "covariates.csv", "targets.csv")),
            "--trace",
            str(PLANTED / "expected" / "select" / "trace.json"),
        ],
    }

    @pytest.mark.parametrize(
        "command, text, field",
        [
            ("select", '{"leiden": {"gamma": NaN}}', "leiden.gamma"),
            ("select", '{"leiden": {"gamma": Infinity}}', "leiden.gamma"),
            ("select", '{"leiden": {"gama": 1.0}}', "leiden.gama"),
            ("select", '{"leiden": {"max_passes": 2.5}}', "leiden.max_passes"),
            ("select", '{"leiden": 3}', "leiden"),
            ("select", '{"leiden": {"seed": 1.5}}', "leiden.seed"),
            ("select", '{"leiden": {"seed": true}}', "leiden.seed"),
            ("evaluate", '{"regression": {"seed": 1.5}}', "regression.seed"),
            ("evaluate", '{"regression": {"seed": -1}}', "regression.seed"),
            ("sweep", '{"sweep": {"master_seed": -1}}', "sweep.master_seed"),
            ("sweep", '{"sweep": {"master_seed": 1.5}}', "sweep.master_seed"),
            ("sweep", '{"sweep": {"grid": 0.5}}', "sweep.grid"),
            ("sweep", '{"sweep": {"grid": [0.5, NaN]}}', "sweep.grid"),
            ("evaluate", '{"pruning": {"alpha": "0.05"}}', "pruning.alpha"),
            ("select", '{"pruning": {"alpha": 1.5}}', "pruning.alpha"),
            ("select", '{"pruning": {"alpha": 0.0}}', "pruning.alpha"),
            ("evaluate", '{"regression": {"folds": 2.5}}', "regression.folds"),
        ],
    )
    def test_malformed_field_exits_two_naming_it(self, command, text, field, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        argv = [command, *self.INPUTS[command], "--config", str(config)]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        line = capsys.readouterr().err.splitlines()[0]
        assert line.startswith("error: ")
        assert re.search(rf"\b{re.escape(field)}\b", line)
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LeidenConfig(gamma=math.nan),
            lambda: LeidenConfig(theta=math.nan),
            lambda: PruningConfig(quantization=math.nan),
        ],
        ids=["gamma", "theta", "quantization"],
    )
    def test_library_config_rejects_nan(self, make):
        with pytest.raises(ValueError, match="must be"):
            make()

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: LeidenConfig(seed=-1), "seed"),
            (lambda: SweepConfig(master_seed=-1), "master_seed"),
            (lambda: RegressionConfig(seed=-1), "seed"),
        ],
        ids=["leiden", "sweep", "regression"],
    )
    def test_library_config_rejects_negative_seed(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
            make()

    @pytest.mark.parametrize("command", ["evaluate", "select", "sweep"])
    def test_negative_seed_flag_exits_two_before_any_work(self, command, tmp_path, capsys):
        argv = [command, *self.INPUTS[command], "--seed", "-1"]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_subnormal_theta_exits_two_naming_it_under_warnings_as_errors(
        self, tmp_path, capsys
    ):
        config = tmp_path / "cfg.json"
        config.write_text('{"leiden": {"theta": 1e-320}}')
        out = tmp_path / "out"
        argv = ["select", *self.INPUTS["select"], "--config", str(config)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv + ["--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: leiden.theta must be 0 or at least 2.2")
        assert err.endswith(", got 1e-320\n")
        assert list(out.iterdir()) == []

    def test_huge_gamma_exits_three_naming_it_without_warnings(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"leiden": {"gamma": 1e308}}')
        out = tmp_path / "out"
        argv = ["select", *self.INPUTS["select"], "--config", str(config)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv + ["--out-dir", str(out)])
        assert code == 3
        assert caught == []
        err = capsys.readouterr().err
        assert err == "numerical failure: modularity is -inf at leiden.gamma = 1e+308\n"
        assert list(out.iterdir()) == []


def golden_trace(edit) -> dict:
    """The golden planted select trace, its iterations passed through ``edit``."""
    raw = json.loads((PLANTED / "expected" / "select" / "trace.json").read_text())
    edit(raw["iterations"])
    return raw


def partition_row_in_layer_b(iterations: list[dict]) -> None:
    # iteration 1 covers only layer A
    iterations[0]["partition"][0][1] = "B"


def every_index_one(iterations: list[dict]) -> None:
    for item in iterations:
        item["index"] = 1


def index_true(iterations: list[dict]) -> None:
    # json reads true as a bool, which is an int subtype equal to 1
    iterations[0]["index"] = True


def small_network(edit) -> dict:
    """A valid two-layer network artifact (vertices (a, A), (b, A), (a, B);
    one intra edge, one coupling), passed through ``edit``."""
    raw = {
        "format": "cobalt-network",
        "version": 2,
        "layers": ["A", "B"],
        "vertices": [["a", "A"], ["b", "A"], ["a", "B"]],
        "intra_edges": {"a": [0], "b": [1], "w": [1.0]},
        "inter_edges": {"a": [0], "b": [2], "w": [0.5]},
        "pruning": None,
    }
    edit(raw)
    return raw


def small_partition(edit) -> dict:
    """A valid partition artifact over the vertices of :func:`small_network`,
    passed through ``edit``."""
    raw = {
        "format": "cobalt-partition",
        "version": 1,
        "quality": 0.0,
        "assignment": [["a", "A", 0], ["a", "B", 0], ["b", "A", 1]],
    }
    edit(raw)
    return raw


def edges(name: str, **columns: list):
    """An edit that sets ``columns`` of the edge field ``name``."""
    return lambda raw: raw[name].update(columns)


class TestCliMalformedArtifacts:
    # a trace iteration with every field but "cost"
    TRACE_WITHOUT_COST = {
        "format": "cobalt-trace",
        "version": 1,
        "iterations": [
            {
                "index": 1,
                "layer": "A",
                "layers": ["A"],
                "modularity": 0.0,
                "nodes": 3,
                "intra_edges": 0,
                "inter_edges": 0,
                "partition": [["e1", "A", 0], ["e2", "A", 1], ["e3", "A", 2]],
            }
        ],
    }

    # one edge three times
    NETWORK_WITH_REPEATED_EDGE = {
        "format": "cobalt-network",
        "version": 2,
        "layers": ["A"],
        "vertices": [["a", "A"], ["b", "A"]],
        "intra_edges": {"a": [0, 0, 0], "b": [1, 1, 1], "w": [1.0, 5.0, 2.0]},
        "inter_edges": {"a": [], "b": [], "w": []},
    }

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("select", {"format": "cobalt-network", "version": 2}, "layers"),
            ("select", [], "format"),
            (
                "select",
                small_network(lambda raw: raw.update(vertices=[[1, "A"], ["x", "A"]])),
                "vertices",
            ),
            ("export", small_network(lambda raw: raw.update(layers=[{}])), "layers"),
            ("evaluate", TRACE_WITHOUT_COST, "cost"),
            ("export", {"format": "cobalt-network", "version": 2}, "layers"),
            ("select", NETWORK_WITH_REPEATED_EDGE, "intra_edges"),
            ("evaluate", golden_trace(partition_row_in_layer_b), "partition"),
            ("evaluate", golden_trace(every_index_one), "index"),
            ("evaluate", golden_trace(index_true), "index"),
            # the columnar network's own rules
            ("select", small_network(edges("intra_edges", w=[1.0, 2.0])), "intra_edges"),
            ("select", small_network(lambda raw: raw["inter_edges"].pop("w")), "inter_edges"),
            ("select", small_network(edges("intra_edges", a=[False])), "intra_edges"),
            ("select", small_network(edges("intra_edges", a=[-1])), "intra_edges"),
            ("select", small_network(edges("inter_edges", b=[3])), "inter_edges"),
            ("select", small_network(edges("intra_edges", b=[2**70])), "intra_edges"),
            ("select", small_network(edges("inter_edges", a=[-(2**70)])), "inter_edges"),
            ("select", small_network(edges("intra_edges", w=["1.0"])), "intra_edges"),
            ("select", small_network(edges("intra_edges", w=[10**400])), "intra_edges"),
            ("select", small_network(lambda raw: raw["vertices"].append(["a", "B"])), "vertices"),
            ("select", small_network(lambda raw: raw["vertices"].reverse()), "vertices"),
            ("select", small_network(edges("intra_edges", a=[1], b=[0])), "intra_edges"),
            ("select", small_network(edges("inter_edges", a=[2], b=[0])), "inter_edges"),
            ("select", small_network(lambda raw: raw.update(version=1)), "version"),
            ("export", small_network(lambda raw: raw.pop("version")), "version"),
            # the constructor's own refusals name their field too
            ("select", small_network(lambda raw: raw["vertices"].append(["c", "Z"])), "vertices"),
            ("select", small_network(lambda raw: raw.update(layers=["A", "A"])), "layers"),
            # JSON gives exact types: true is no number, and no vertex is assigned twice
            ("partition", small_partition(lambda raw: raw["assignment"][0].__setitem__(2, True)),
             "assignment"),
            ("partition", small_partition(lambda raw: raw.update(quality=True)), "quality"),
            ("evaluate", golden_trace(lambda its: its[0].update(modularity=False)), "modularity"),
            ("evaluate", golden_trace(lambda its: its[0].update(nodes=True)), "nodes"),
            # the writer's one string cost is "inf"
            ("evaluate", golden_trace(lambda its: its[1].update(cost="abc")), "cost"),
            ("evaluate", golden_trace(lambda its: its[1].update(cost="1.5")), "cost"),
            ("evaluate", golden_trace(lambda its: its[1].update(cost="nan")), "cost"),
            ("partition", small_partition(lambda raw: raw["assignment"].append(["b", "A", 0])),
             "assignment"),
        ],
    )
    def test_exits_two_naming_the_field(self, command, payload, field, tmp_path, capsys):
        artifact = tmp_path / "artifact.json"
        artifact.write_text(json.dumps(payload))
        out = ["--out-dir", str(tmp_path / "out")]
        if command == "evaluate":
            scores = tmp_path / "s.csv"
            scores.write_text("entity,A\ne1,1\ne2,2\ne3,4\n")
            cov = tmp_path / "cov.csv"
            cov.write_text("entity,age,gender\ne1,30,f\ne2,40,m\ne3,50,f\n")
            tgt = tmp_path / "tgt.csv"
            tgt.write_text("entity,A_t1\ne1,1\ne2,2\ne3,3\n")
            argv = ["evaluate", str(scores), str(cov), str(tgt), "--trace", str(artifact)]
        elif command == "partition":
            network = tmp_path / "network.json"
            network.write_text(json.dumps(small_network(lambda raw: None)))
            argv = ["export", str(network), "--partition", str(artifact)]
        else:
            argv = [command, str(artifact)]
        assert cli.main(argv + out) == 2
        assert repr(field) in capsys.readouterr().err


class TestCliRenderExport:
    def _build_artifacts(self, tmp_path):
        table = halves_and_parity_table(n=12, seed=6)
        csv_path = write_score_csv(table, tmp_path / "s.csv")
        sel = tmp_path / "sel"
        assert cli.main(["select", csv_path, "--out-dir", str(sel)]) == 0
        assert cli.main(["build", csv_path, "--out-dir", str(sel)]) == 0
        return sel

    def test_export_graphml_round_trip_via_cli(self, tmp_path, capsys):
        sel = self._build_artifacts(tmp_path)
        out = tmp_path / "exp"
        code = cli.main(
            [
                "export",
                str(sel / "network.json"),
                "--partition",
                str(sel / "partition_iter03.json"),
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        parsed = read_graphml(out / "network.graphml")
        original = cio.network_from_dict(
            json.loads((sel / "network.json").read_text())
        )
        partition = cio.partition_from_dict(
            json.loads((sel / "partition_iter03.json").read_text())
        )
        assert parsed.layers == list(original.layers)
        assert parsed.communities == dict(partition.assignment)
        assert parsed.edges == {
            "intra": dict(original.intra_edges),
            "inter": dict(original.inter_edges),
        }

    @pytest.mark.parametrize("case", ["planted", "tied_missing", "near_tie"])
    @pytest.mark.parametrize("source", ["select", "select_network"])
    @pytest.mark.parametrize("iteration", [1, 2, 3])
    def test_every_golden_partition_exports_its_layers(
        self, case, source, iteration, tmp_path, capsys
    ):
        golden = GOLDEN / case / "expected"
        part_path = golden / source / f"partition_iter{iteration:02d}.json"
        argv = ["export", golden / "build" / "network.json", "--partition", part_path]
        assert cli.main([str(a) for a in argv] + ["--out-dir", str(tmp_path)]) == 0
        parsed = read_graphml(tmp_path / "network.graphml")
        network = cio.network_from_dict(json.loads(argv[1].read_text()))
        partition = cio.partition_from_dict(json.loads(part_path.read_text()))
        covered = {node.layer for node in partition.assignment}
        sub = network.subnetwork(l for l in network.layers if l in covered)
        # every written node carries its community, in network layer order
        assert parsed.layers == [l for l in network.layers if l in covered]
        assert parsed.communities == dict(partition.assignment)
        assert parsed.edges.get("intra", {}) == dict(sub.intra_edges)
        assert parsed.edges.get("inter", {}) == dict(sub.inter_edges)

    def test_full_partition_writes_the_whole_network(self, tmp_path, capsys):
        golden = PLANTED / "expected"
        network = str(golden / "build" / "network.json")
        part = str(golden / "select" / "partition_iter03.json")
        assert cli.main(["export", network, "--out-dir", str(tmp_path / "bare")]) == 0
        assert cli.main(["export", network, "--partition", part, "--out-dir", str(tmp_path)]) == 0
        with_part = (tmp_path / "network.graphml").read_text().splitlines()
        bare = (tmp_path / "bare" / "network.graphml").read_text().splitlines()
        assert sum('key="d_community"' in line for line in with_part) == 108
        assert [l for l in with_part if 'key="d_community"' not in l] == bare

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda rows: rows.append(["ghost", "A", 0]),
                "names vertex NodeRef(entity='ghost', layer='A'), which the network lacks",
            ),
            (
                lambda rows: rows.append(["e00", "Z", 0]),
                "names vertex NodeRef(entity='e00', layer='Z'), which the network lacks",
            ),
            (
                lambda rows: rows.remove(["e00", "A", 0]),
                "gives vertex NodeRef(entity='e00', layer='A') no community",
            ),
        ],
        ids=["unknown-entity", "unknown-layer", "unassigned-vertex"],
    )
    def test_mismatched_partition_exits_two_naming_the_vertex(
        self, edit, message, tmp_path, capsys
    ):
        golden = PLANTED / "expected"
        raw = json.loads((golden / "select" / "partition_iter01.json").read_text())
        edit(raw["assignment"])
        part = tmp_path / "partition.json"
        part.write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = ["export", str(golden / "build" / "network.json"), "--partition", str(part)]
        assert cli.main(argv + ["--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: partition {message}\n"
        assert list(out.iterdir()) == []

    def test_empty_partition_exits_two_writing_nothing(self, tmp_path, capsys):
        part = tmp_path / "partition.json"
        empty = {"format": "cobalt-partition", "version": 1, "assignment": [], "quality": 0.0}
        part.write_text(json.dumps(empty))
        out = tmp_path / "out"
        network = PLANTED / "expected" / "build" / "network.json"
        argv = ["export", str(network), "--partition", str(part), "--out-dir", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: artifact field 'assignment' has no rows\n"
        assert list(out.iterdir()) == []

    def test_render_is_not_a_command(self, tmp_path, capsys):
        sel = self._build_artifacts(tmp_path)
        out = tmp_path / "render"
        argv = ["render", str(sel / "network.json"), str(sel / "partition_iter03.json")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out-dir", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'render'" in capsys.readouterr().err
        assert not out.exists()


def test_parser_offers_exactly_the_five_commands():
    parser = cli._parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["build", "select", "sweep", "evaluate", "export"]


def test_each_command_takes_only_the_flags_it_uses():
    parser = cli._parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [
            a.option_strings[-1]
            for a in command._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        ]
        for name, command in sub.choices.items()
    }
    assert options == {
        "build": ["--config", "--out-dir"],
        "select": ["--config", "--seed", "--out-dir"],
        "sweep": ["--config", "--seed", "--out-dir"],
        "evaluate": ["--trace", "--config", "--seed", "--out-dir"],
        "export": ["--partition", "--out-dir"],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["build", str(PLANTED / "scores.csv"), "--seed", "1"],
        ["export", str(PLANTED / "expected" / "build" / "network.json"), "--config", "c.json"],
        ["export", str(PLANTED / "expected" / "build" / "network.json"), "--seed", "1"],
    ],
    ids=["build-seed", "export-config", "export-seed"],
)
def test_unused_flag_exits_two_writing_nothing(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err
    assert not out.exists()


def test_no_module_names_the_deleted_renderer():
    src = Path(cli.__file__).parent
    assert not (src / "render.py").exists()
    assert not (src / "layout.py").exists()
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert not re.search(r"\brender\b|\bfr_layout\b", text), path.name
