"""Command-line pipeline runner.

Subcommands: build, select, sweep, evaluate, export. Exit codes:
0 success, 2 input or validation problem, 3 numerical failure. Outputs are
deterministic for fixed inputs, config, and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable

from . import io as cio
from .config import PipelineConfig
from .evaluation import missingness_sweep, regression_report
from .model import ScoreTable, validate_score_table
from .pipeline import build_pruned_network, initialize, run_selection
from .selector import cobalt_select

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _load_config(path: str | None, seed: int | None = None) -> PipelineConfig:
    config = PipelineConfig.from_json(path) if path else PipelineConfig()
    return config if seed is None else config.with_seed(seed)


def _load_table(path: str) -> ScoreTable:
    table = cio.read_score_table(path)
    violations = validate_score_table(table)
    if violations:
        raise cio.InputFormatError(
            "score table is invalid:\n" + "\n".join(f"  - {v}" for v in violations)
        )
    return table


def _read_artifact(path: str, reader: Callable[[Any], Any]) -> Any:
    """``reader`` applied to the JSON document at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return reader(json.load(fh))


def _out_dir(args: argparse.Namespace) -> Path:
    """The output directory, created before any work so a bad one fails fast."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_build(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    config = _load_config(args.config)
    table = _load_table(args.scores)
    network = build_pruned_network(table, config)
    pruning = cio.pruning_block(config.pruning)
    cio.dump_json(cio.network_to_dict(network, pruning), out / "network.json")
    print(f"wrote {out / 'network.json'}")
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    config = _load_config(args.config, args.seed)
    if Path(args.scores).suffix == ".json":
        # a pruned network artifact carries everything selection needs, and
        # the settings of the filter that made it
        pruned, pruning = _read_artifact(args.scores, cio.network_and_pruning)
    else:
        pruned = build_pruned_network(_load_table(args.scores), config)
        pruning = cio.pruning_block(config.pruning)
    init = initialize(pruned, config)
    trace = cobalt_select(pruned, init, config.leiden, stopping=config.selector.stopping)

    meta = dict(config.to_dict(), pruning=pruning)
    cio.dump_json(cio.trace_to_dict(trace, meta), out / "trace.json")
    for record in trace.records:
        payload = cio.partition_to_dict(
            record.partition,
            {"iteration": record.index, "layers": list(record.layers)},
        )
        cio.dump_json(payload, out / f"partition_iter{record.index:02d}.json")
    print(f"wrote {out / 'trace.json'} and {len(trace.records)} partition files")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    config = _load_config(args.config, args.seed)
    report = missingness_sweep(_load_table(args.scores), config)
    cio.dump_json(cio.sweep_report_to_dict(report), out / "sweep.json")
    print(f"wrote {out / 'sweep.json'}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    config = _load_config(args.config, args.seed)
    table = _load_table(args.scores)
    covariates = cio.read_covariates(args.covariates)
    targets = cio.read_targets(args.targets)
    if args.trace:
        trace = _read_artifact(args.trace, cio.trace_from_dict)
    else:
        trace = run_selection(table, config)
    for layer in table.layers:
        if layer not in targets.layers:
            print(f"warning: no targets for layer {layer!r}; skipped", file=sys.stderr)
    report = regression_report(covariates, table, targets, trace, config)
    cio.dump_json(cio.regression_report_to_dict(report), out / "regression.json")
    cio.regression_report_to_csv(report, out / "regression.csv")
    print(f"wrote {out / 'regression.json'} and {out / 'regression.csv'}")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    network = _read_artifact(args.network, cio.network_from_dict)
    partition = None
    if args.partition:
        partition = _read_artifact(args.partition, cio.partition_from_dict)
    cio.export_graphml(network, partition, out / "network.graphml")
    print(f"wrote {out / 'network.graphml'}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobalt",
        description="Cost-based layer selection and community detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flag_options = {
        "--config": {"help": "pipeline config JSON"},
        "--seed": {"type": int, "help": "override every configured seed"},
        "--out-dir": {"default": "out", "help": "output directory"},
    }

    def flags(p: argparse.ArgumentParser, *names: str) -> None:
        for name in (*names, "--out-dir"):
            p.add_argument(name, **flag_options[name])

    p = sub.add_parser("build", help="build and prune the full network")
    p.add_argument("scores", help="score CSV")
    flags(p, "--config")
    p.set_defaults(run=cmd_build)

    p = sub.add_parser("select", help="run iterative layer selection")
    p.add_argument("scores", help="score CSV, or a pruned network artifact JSON")
    flags(p, "--config", "--seed")
    p.set_defaults(run=cmd_select)

    p = sub.add_parser("sweep", help="missingness robustness sweep")
    p.add_argument("scores", help="complete score CSV")
    flags(p, "--config", "--seed")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("evaluate", help="baseline vs community regression")
    p.add_argument("scores", help="pre-treatment score CSV")
    p.add_argument("covariates", help="covariates CSV (entity,age,gender)")
    p.add_argument("targets", help="post-treatment targets CSV")
    p.add_argument("--trace", help="trace JSON from a previous select run")
    flags(p, "--config", "--seed")
    p.set_defaults(run=cmd_evaluate)

    p = sub.add_parser("export", help="export network to GraphML")
    p.add_argument("network", help="network artifact JSON")
    p.add_argument("--partition", help="partition artifact JSON")
    flags(p)
    p.set_defaults(run=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        # InputFormatError and json.JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
