"""One benchmark run from start to result line."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from . import report, workloads


def declared_metrics(root: Path) -> dict:
    """``BENCHMARK.json`` at the checkout root: the metric names and units to report."""
    return json.loads((root / "BENCHMARK.json").read_text())


def execute(config, root: Path, seed: int, seconds: float, trace: bool, emit=report.log) -> int:
    """Run ``config`` and emit the header, the metric table and the result line.

    Returns the exit code: 0 when every checked answer was right, 1 when an
    answer raised or held an id outside its box.
    """
    spec = declared_metrics(root)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    samples, inputs, tracer, layer_metrics = workloads.run(config, root, seed, seconds, trace)
    if trace:
        values = report.per_layer(samples, tracer, workloads.root_span(config), layer_metrics)
    else:
        values = report.end_to_end(samples)
    header = {
        "workload": config.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": report.environment(root),
        "input": {**inputs.header(), **config.header()},
    }
    record = {
        "header": header,
        "metrics": {m["name"]: {"value": values.get(m["name"], (0.0, 0))[0], "unit": m["unit"],
                                "samples": values.get(m["name"], (0.0, 0))[1]} for m in declared},
        "oracle": {kind: {"attempted": tally.attempted, "failed": tally.failed, "incomplete": tally.incomplete,
                          "recall": tally.recall, "first_failure": tally.first_failure}
                   for kind, tally in (("answers", samples.oracle), ("memberships", samples.memberships))},
    }
    path = report.write_record(root, config.name, record, tracer)
    emit(f"perfbench {config.name} seed={seed} seconds={seconds} trace={int(trace)} record={path.name}")
    emit("header " + json.dumps(header, sort_keys=True))
    for line in report.table(declared, values):
        emit(line)
    if trace:
        emit(report.reconciliation(samples, values))
    attempted = failed = 0
    for kind, tally in record["oracle"].items():
        attempted += tally["attempted"]
        failed += tally["failed"]
        emit(f"oracle {kind}: {tally['attempted']} checked, {tally['failed']} failed, "
             f"{tally['incomplete']} incomplete, recall {tally['recall']:.6f}")
        if tally["first_failure"]:
            print(f"first failure: {tally['first_failure']}", file=sys.stderr, flush=True)
    emit(report.result_line(declared, values, attempted, failed))
    return 0 if failed == 0 else 1
