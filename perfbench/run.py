"""cobalt benchmark: times the CLI in-process on seeded inputs it generates.

Run from the repository root:

    python3 perfbench/run.py --workload planted --seed 1 --seconds 32 --trace 0

Workloads (one operation each, run in a closed loop, one at a time):
  planted       cobalt build scores.csv; cobalt select network.json;
                cobalt evaluate scores.csv covariates.csv targets.csv --trace trace.json
  tied-missing  cobalt select scores.csv
  sweep         cobalt sweep scores.csv

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a run that alternates untraced and traced operations. Outputs of every
operation are checked after the timed loop; a failed check counts the
operation as failed. Work files go to ``.perfbench_out/`` under the working
directory; the span log of a traced run is kept there.

Times are wall-clock time minus the steal time the kernel reports for the
machine (``/proc/stat``): on a shared virtual machine the hypervisor takes
the CPU away for a varying share of a run, which is noise, not work.
"""

from __future__ import annotations

import os

# one operation at a time on a 2-core box: keep BLAS from adding threads, and
# leave the sweep's worker knob at its default
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COBALT_THREADS", None)

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


END_TO_END = (
    ("op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

COUNTERS = (
    ("build.intra_edges", "count"),
    ("build.inter_edges", "count"),
    ("build.tie_edges", "count"),
    ("pruning.intra_kept", "count"),
    ("pruning.inter_kept", "count"),
    ("pruning.intra_kept_ratio", "ratio"),
    ("pruning.inter_kept_ratio", "ratio"),
    ("pruning.max_total_over_2p53", "ratio"),
    ("community.leiden_passes", "count"),
    ("community.vertices", "count"),
    ("selector.iterations", "count"),
    ("selector.final_q", "Q"),
    ("evaluation.sweep_failed", "count"),
    ("evaluation.sweep_max_drift", "Q"),
    ("io.bytes_written", "bytes"),
    ("cmd.build_s", "s"),
    ("cmd.select_s", "s"),
    ("cmd.evaluate_s", "s"),
    ("cmd.sweep_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.missing_sites", "count"),
)


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _steal_seconds() -> float:
    """CPU time the hypervisor has taken from this machine's vCPUs so far;
    0 where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Stopwatch:
    """Wall time since creation, and wall time minus the steal in between."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._steal = _steal_seconds()

    def wall(self) -> float:
        return time.perf_counter() - self._start

    def elapsed(self) -> float:
        return self.wall() - (_steal_seconds() - self._steal)


def _import_seconds() -> float:
    """Median time to start a fresh interpreter and import the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        watch = Stopwatch()
        subprocess.run(
            [sys.executable, "-c", "import cobalt.cli"],
            env=env, cwd=ROOT, capture_output=True, timeout=120, check=True,
        )
        samples.append(watch.elapsed())
    return statistics.median(samples)


def _commands(workload: str, inputs, out: Path) -> list[tuple[str, list[str]]]:
    o = str(out)
    if workload == "planted":
        return [
            ("build", ["build", str(inputs.scores), "--out-dir", o]),
            ("select", ["select", str(out / "network.json"), "--out-dir", o]),
            (
                "evaluate",
                [
                    "evaluate", str(inputs.scores), str(inputs.covariates),
                    str(inputs.targets), "--trace", str(out / "trace.json"), "--out-dir", o,
                ],
            ),
        ]
    if workload == "tied-missing":
        return [("select", ["select", str(inputs.scores), "--out-dir", o])]
    return [("sweep", ["sweep", str(inputs.scores), "--out-dir", o])]


def _run_op(cli, commands) -> dict:
    """One operation: every command in order. Returns its time, its wall
    time, the time of each command and their exit codes (None for a crash)."""
    times: dict[str, float] = {}
    codes: list = []
    op = Stopwatch()
    for name, argv in commands:
        command = Stopwatch()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        except (Exception, SystemExit):  # a crash is a failed operation
            traceback.print_exc()
            codes.append(None)
        times[name] = command.elapsed()
    return {"seconds": op.elapsed(), "wall": op.wall(), "times": times, "codes": codes}


def main() -> int:
    args = _parse_args()
    if not (SRC / "cobalt" / "cli.py").is_file():
        _die(f"no cobalt sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.GENERATORS:
        _die(f"unknown workload {args.workload!r}; one of {sorted(workloads.GENERATORS)}")
    if args.seconds <= 0:
        _die("--seconds must be positive")
    if args.seed < 0:
        _die("--seed must be non-negative")

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    # leave no work files behind when stopped
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args: argparse.Namespace, work: Path) -> int:
    import workloads

    # set-up: import in fresh interpreters, then generate the inputs repeatedly
    import_s = _import_seconds()
    from cobalt import cli

    import checks

    generate = workloads.GENERATORS[args.workload]
    gen_samples, digests = [], set()
    for i in range(SETUP_REPEATS):
        target = work / f"inputs{i}"
        target.mkdir(parents=True)
        watch = Stopwatch()
        inputs = generate(args.seed, target.relative_to(ROOT))
        gen_samples.append(watch.elapsed())
        digests.add(checks.artifact_digest(target)[0])
    if len(digests) != 1:
        _die("input generation is not deterministic")
    setup_s = import_s + statistics.median(gen_samples)

    # timed loop: untraced operations, alternating with traced ones under --trace 1
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(
            keep=(
                "build.build_network", "pruning.prune_network", "community.leiden",
                "selector.select", "evaluation.sweep",
            )
        )
    ops = []
    counters = None
    loop_start = time.perf_counter()
    while True:
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        out = (work / f"op{index}").relative_to(ROOT)
        out.mkdir(parents=True)
        gc.collect()
        if traced:
            tracer.install(index)
        try:
            op = _run_op(cli, _commands(args.workload, inputs, out))
        finally:
            if traced:
                tracer.uninstall()
        op["digest"], op["bytes"] = checks.artifact_digest(out)
        op.update(index=index, traced=traced, out=out)
        ops.append(op)
        if index > 0:
            shutil.rmtree(out)
        if traced and counters is None:
            counters = _counters(tracer.returns)
            tracer.returns.clear()
            tracer.keep = frozenset()
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(op["wall"] for op in ops)
        # two operations at least: a median of one is no median, and a traced
        # run needs one untraced and one traced operation
        if len(ops) >= 2 and elapsed + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # untimed: check the outputs of the first operation; the others must be
    # byte-identical to it
    first = ops[0]
    problems, final_q, drift = _check(args.workload, inputs, first["out"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = 0
    for op in ops:
        bad = any(code != 0 for code in op["codes"]) or op["digest"] != first["digest"]
        if bad or problems:
            failed += 1
    digests = sorted({op["digest"] for op in ops})
    print(f"artifacts sha256 {' '.join(digests)} over {len(ops)} operations")

    plain = [op for op in ops if not op["traced"]]
    op_s = statistics.median(op["seconds"] for op in plain)
    wall = sum(op["wall"] for op in ops)
    print(
        f"{args.workload} seed {args.seed}: op_s median of {len(plain)} untraced "
        f"operations {op_s:.4f} s (steal took {1 - sum(op['seconds'] for op in ops) / wall:.1%} "
        f"of the wall time); setup_s = import {import_s:.4f} s (median of "
        f"{SETUP_REPEATS}) + inputs {statistics.median(gen_samples):.4f} s "
        f"(median of {SETUP_REPEATS})"
    )
    if tracer is None:
        values = {"op_s": op_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    else:
        values, units = _per_layer(args, tracer, ops, plain, counters, final_q, drift)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def _check(workload: str, inputs, out: Path) -> tuple[list[str], float, float]:
    """Problems with one operation's outputs, its final modularity and the
    sweep drift (0 outside the sweep workload)."""
    import checks
    from cobalt import io as cio
    from cobalt.config import PipelineConfig
    from cobalt.pipeline import build_pruned_network, initialize
    from cobalt.selector import cobalt_select

    config = PipelineConfig()
    try:
        if workload == "planted":
            with open(out / "network.json", "r", encoding="utf-8") as fh:
                network = cio.network_from_dict(json.load(fh))
            problems, final_q = checks.check_selection(out, network)
            trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
            problems += checks.check_regression(
                out, len(network.layers), len(trace["iterations"])
            )
            return problems, final_q, 0.0
        table = cio.read_score_table(inputs.scores)
        pruned = build_pruned_network(table, config)
        if workload == "tied-missing":
            problems, final_q = checks.check_selection(out, pruned)
            return problems, final_q, 0.0
        reference = cobalt_select(pruned, initialize(pruned, config), config.leiden)
        return checks.check_sweep(
            out, reference, pruned, len(table.entities), config.leiden.gamma
        )
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"], float("nan"), 0.0


def _counters(kept) -> dict[str, float]:
    """Work counters of one traced operation, from the values its calls returned."""
    import checks
    from cobalt.config import PipelineConfig

    scale = PipelineConfig().pruning.quantization
    build = [checks.network_counters(r, scale) for n, r in kept if n == "build.build_network"]
    pruned = [r for n, r in kept if n == "pruning.prune_network"]
    leiden = [r for n, r in kept if n == "community.leiden"]
    intra = sum(b["intra"] for b in build)
    inter = sum(b["inter"] for b in build)
    intra_kept = sum(len(p.intra_edges) for p in pruned)
    inter_kept = sum(len(p.inter_edges) for p in pruned)
    return {
        "build.intra_edges": intra,
        "build.inter_edges": inter,
        "build.tie_edges": sum(b["ties"] for b in build),
        "pruning.intra_kept": intra_kept,
        "pruning.inter_kept": inter_kept,
        "pruning.intra_kept_ratio": intra_kept / intra if intra else 0.0,
        "pruning.inter_kept_ratio": inter_kept / inter if inter else 0.0,
        "pruning.max_total_over_2p53": max(
            (b["max_total_over_2p53"] for b in build), default=0.0
        ),
        "community.leiden_passes": sum(len(r.history) - 1 for r in leiden),
        "community.vertices": sum(len(r.partition.assignment) for r in leiden),
        "selector.iterations": sum(
            len(r.records) for n, r in kept if n == "selector.select" and hasattr(r, "records")
        ),
        "evaluation.sweep_failed": sum(
            sum(e.failed for e in r.entries) for n, r in kept if n == "evaluation.sweep"
        ),
    }


def _per_layer(args, tracer, ops, plain, counters, final_q, drift):
    """Self times and calls per span, the work counters, and the tracing
    overhead, from a run that alternated untraced and traced operations."""
    traced = [op for op in ops if op["traced"]]
    units = dict(COUNTERS)
    values = {}
    per_op = [tracer.self_times(op["index"]) for op in traced]
    for name in per_op[0]:
        values[f"{name}_s"] = statistics.median(t[name][0] for t in per_op)
        values[f"{name}_calls"] = per_op[0][name][1]
        units[f"{name}_s"], units[f"{name}_calls"] = "s", "count"
    values.update(counters)
    # span times are raw wall time, so the overhead compares raw wall times
    traced_s = statistics.median(op["wall"] for op in traced)
    values["selector.final_q"] = final_q
    values["evaluation.sweep_max_drift"] = drift
    values["io.bytes_written"] = traced[0]["bytes"]
    values["trace.overhead_ratio"] = traced_s / statistics.median(op["wall"] for op in plain) - 1.0
    values["trace.missing_sites"] = len(tracer.missing)
    for command in ("build", "select", "evaluate", "sweep"):
        samples = [op["times"][command] for op in plain if command in op["times"]]
        values[f"cmd.{command}_s"] = statistics.median(samples) if samples else 0.0

    for site in tracer.missing:
        print(f"trace: site {site} is missing", file=sys.stderr)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps(tracer.to_dict()), encoding="utf-8")
    self_sum = sum(values[f"{name}_s"] for name in per_op[0])
    print(
        f"traced operations {len(traced)}: self times sum to {self_sum:.4f} s, "
        f"traced op {traced_s:.4f} s; "
        f"spans in {spans.relative_to(ROOT)}"
    )
    return values, units


if __name__ == "__main__":
    sys.exit(main())
