import io
import json
import re

import pytest

from cobalt import cli
from cobalt import io as cio
from cobalt.model import MultiLayerNetwork, Partition, ScoreTable

from _support import halves_and_parity_table, mln_from_edges


def write_table_csv(path, table: ScoreTable):
    cio.write_score_table(table, path)
    return str(path)


class TestScoreCsv:
    def test_round_trip_cell_exact(self):
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
        buf = io.StringIO()
        cio.write_score_table(table, buf)
        buf.seek(0)
        parsed = cio.read_score_table(buf)
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
        assert targets.values == {("e1", "A"): 5.5, ("e2", "B"): 6.5}

    def test_target_column_suffix_required(self):
        with pytest.raises(cio.InputFormatError, match="_t1"):
            cio.read_targets(io.StringIO("entity,A\ne1,5\n"))


def sample_network() -> MultiLayerNetwork:
    return mln_from_edges(
        {"A": [("x", "y", 2.5), ("y", "z", 1.0 / 3.0)], "B": [("x", "z", 7.0)]},
        couplings=[("x", "A", "B", 0.125), ("z", "A", "B", 9.75)],
    )


class TestNetworkJson:
    def test_round_trip(self):
        net = sample_network()
        raw = json.loads(json.dumps(cio.network_to_dict(net, {"alpha": 0.05})))
        parsed = cio.network_from_dict(raw)
        assert parsed.layers == net.layers
        assert parsed.nodes == net.nodes
        assert parsed.intra_edges == dict(net.intra_edges)
        assert parsed.inter_edges == dict(net.inter_edges)

    def test_rejects_foreign_payload(self):
        with pytest.raises(cio.InputFormatError):
            cio.network_from_dict({"format": "something-else"})


class TestGraphml:
    def test_round_trip_identity(self):
        net = sample_network()
        partition = Partition(
            {n: i % 3 for i, n in enumerate(sorted(net.nodes))}, 0.25
        )
        buf = io.StringIO()
        cio.export_graphml(net, partition, buf)
        buf.seek(0)
        parsed_net, parsed_part = cio.import_graphml(buf)
        assert parsed_net.layers == net.layers
        assert parsed_net.nodes == net.nodes
        assert parsed_net.intra_edges == dict(net.intra_edges)
        assert parsed_net.inter_edges == dict(net.inter_edges)
        assert parsed_part is not None
        assert parsed_part.assignment == dict(partition.assignment)

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

    def test_partitionless_round_trip(self):
        buf = io.StringIO()
        cio.export_graphml(sample_network(), None, buf)
        buf.seek(0)
        _, partition = cio.import_graphml(buf)
        assert partition is None


@pytest.fixture()
def score_csv(tmp_path):
    table = halves_and_parity_table(n=16, seed=3)
    return write_table_csv(tmp_path / "scores.csv", table)


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


class TestCliSweep:
    def test_small_grid(self, tmp_path, capsys):
        table = halves_and_parity_table(n=14, seed=2)
        csv_path = write_table_csv(tmp_path / "s.csv", table)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"grid": [0.5], "master_seed": 3}}))
        out = tmp_path / "sweep"
        code = cli.main(["sweep", csv_path, "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["reference"]["ratio"] == 0.0
        assert [e["ratio"] for e in payload["ratios"]] == [0.5]

    def test_incomplete_table_exits_two(self, tmp_path, capsys):
        incomplete = tmp_path / "inc.csv"
        incomplete.write_text("entity,A,B\ne1,1,\ne2,2,3\ne3,3,4\n")
        code = cli.main(["sweep", str(incomplete), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "complete" in capsys.readouterr().err


class TestCliEvaluate:
    def test_report_shape(self, tmp_path, capsys):
        table = halves_and_parity_table(n=20, seed=4)
        csv_path = write_table_csv(tmp_path / "s.csv", table)
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


class TestCliMalformedArtifacts:
    # a trace iteration with every field but "cost"
    TRACE_WITHOUT_COST = {
        "format": "cobalt-trace",
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

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("select", {"format": "cobalt-network"}, "layers"),
            ("select", [], "format"),
            (
                "select",
                {
                    "format": "cobalt-network",
                    "layers": ["A"],
                    "nodes": [[1, "A"], ["x", "A"]],
                    "intra_edges": [],
                    "inter_edges": [],
                },
                "nodes",
            ),
            (
                "export",
                {
                    "format": "cobalt-network",
                    "layers": [{}],
                    "nodes": [],
                    "intra_edges": [],
                    "inter_edges": [],
                },
                "layers",
            ),
            ("evaluate", TRACE_WITHOUT_COST, "cost"),
            ("export", {"format": "cobalt-network"}, "layers"),
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
        else:
            argv = [command, str(artifact)]
        assert cli.main(argv + out) == 2
        assert repr(field) in capsys.readouterr().err


class TestCliRenderExport:
    def _build_artifacts(self, tmp_path):
        table = halves_and_parity_table(n=12, seed=6)
        csv_path = write_table_csv(tmp_path / "s.csv", table)
        sel = tmp_path / "sel"
        assert cli.main(["select", csv_path, "--out-dir", str(sel)]) == 0
        assert cli.main(["build", csv_path, "--out-dir", str(sel)]) == 0
        return sel

    def test_render_writes_svg_per_layer(self, tmp_path, capsys):
        sel = self._build_artifacts(tmp_path)
        out = tmp_path / "figs"
        code = cli.main(
            [
                "render",
                str(sel / "network.json"),
                str(sel / "partition_iter03.json"),
                "--out-dir",
                str(out),
                "--seed",
                "1",
            ]
        )
        assert code == 0
        svgs = sorted(out.glob("*.svg"))
        assert [p.name for p in svgs] == ["layer_A.svg", "layer_B.svg", "layer_C.svg"]
        text = svgs[0].read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text

    def test_same_community_same_color_across_layers(self, tmp_path, capsys):
        sel = self._build_artifacts(tmp_path)
        out = tmp_path / "figs"
        cli.main(
            [
                "render",
                str(sel / "network.json"),
                str(sel / "partition_iter03.json"),
                "--out-dir",
                str(out),
            ]
        )
        partition = cio.partition_from_dict(
            json.loads((sel / "partition_iter03.json").read_text())
        )
        from cobalt.render import community_color

        for layer in ("A", "B", "C"):
            text = (out / f"layer_{layer}.svg").read_text()
            fills = set(re.findall(r'fill="(#[0-9a-f]{6})"', text))
            expected = {
                community_color(c)[0]
                for n, c in partition.assignment.items()
                if n.layer == layer
            }
            assert fills == expected

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
        net, part = cio.import_graphml(out / "network.graphml")
        original = cio.network_from_dict(
            json.loads((sel / "network.json").read_text())
        )
        assert net.nodes == original.nodes
        assert net.intra_edges == dict(original.intra_edges)
        assert net.inter_edges == dict(original.inter_edges)
        assert part is not None
