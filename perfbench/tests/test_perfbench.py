"""Tests of the benchmark itself, run at tiny sizes.

They check that each workload completes in both kinds of run, that every
declared metric prints with its unit and sample count, that the result line
matches ``BENCHMARK.json``, that the oracle fails a corrupted answer, and
that the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

from benchkit import bench, workloads  # noqa: E402
from benchkit.oracle import Oracle, Positions  # noqa: E402
from benchkit.tracing import Tracer  # noqa: E402

TINY = {
    "restructure": dataclasses.replace(
        workloads.WORKLOADS["restructure"], resolution=12, boxes_per_step=4, restructure_every=2,
        episode_steps=6, setups=2,
    ),
    "steer": dataclasses.replace(
        workloads.WORKLOADS["steer"], resolution=12, requests_per_user=3, viewport_pool=8,
        subscriptions=2, episode_steps=3, setups=2,
    ),
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _execute(name: str, trace: bool, seed: int = 3) -> tuple[int, list[str]]:
    lines: list[str] = []
    code = bench.execute(TINY[name], ROOT, seed, 0.3, trace, emit=lines.append)
    return code, lines


def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_prints_every_metric(spec, name, trace):
    code, lines = _execute(name, trace)
    assert code == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    rows = {line.split()[0]: line.split() for line in lines if line.split() and line.split()[0] in
            {m["name"] for m in declared}}
    for metric in declared:
        row = rows[metric["name"]]
        assert row[2] == metric["unit"], row
        assert int(row[3]) >= 0
    header = json.loads(next(line for line in lines if line.startswith("header "))[len("header "):])
    assert header["seed"] == 3 and header["workload"] == name
    assert {"nproc", "python", "numpy", "numba_present", "kernel_backend", "git_sha"} <= set(header["environment"])
    assert {"vertices", "cells", "surface_vertex_fraction"} <= set(header["input"])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    if trace:
        assert any(line.startswith("reconciliation:") for line in lines)
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_seed_replays_inputs():
    from benchkit.inputs import load_mesh_inputs

    inputs = load_mesh_inputs(ROOT, TINY["steer"].resolution)

    def drawn(kind, config, seed):
        workload = kind(config, inputs, seed, Tracer(enabled=False))
        if kind is workloads.SteerWorkload:
            boxes = workload.pool + workload._round_boxes(7)
        else:
            boxes = workload.first_boxes
        return np.array([np.concatenate([box.lo, box.hi]) for box in boxes])

    for kind, config in ((workloads.SimulationWorkload, TINY["restructure"]), (workloads.SteerWorkload, TINY["steer"])):
        assert np.array_equal(drawn(kind, config, 5), drawn(kind, config, 5))
        assert not np.array_equal(drawn(kind, config, 5), drawn(kind, config, 6))
    code, lines = _execute("restructure", False, seed=6)
    assert code == 0 and json.loads(lines[-1])["correct"] is True


def test_out_of_box_id_fails_the_run(monkeypatch):
    import repro
    from repro.core.octopus import OctopusExecutor

    original = OctopusExecutor.query_many

    def corrupted(self, boxes):
        results = original(self, boxes)
        outside = int(np.argmax(np.linalg.norm(self.mesh.vertices - boxes[0].center, axis=1)))
        results[0] = repro.QueryResult(vertex_ids=np.append(results[0].vertex_ids, outside))
        return results

    monkeypatch.setattr(OctopusExecutor, "query_many", corrupted)
    code, lines = _execute("restructure", False)
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_oracle_counts_missed_and_extra_ids():
    points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [0.5, 0.5, 0.5]])
    positions = Positions(points)

    class Box:
        lo = np.array([0.0, 0.0, 0.0])
        hi = np.array([1.0, 1.0, 1.0])

    oracle = Oracle()
    oracle.check(positions, Box, np.array([0, 1, 3]), "exact")
    oracle.check(positions, Box, np.array([0, 3]), "missed")
    assert (oracle.failed, oracle.incomplete) == (0, 1)
    assert oracle.recall == pytest.approx(5 / 6)
    oracle.check(positions, Box, np.array([0, 1, 2, 3]), "extra")
    oracle.check(positions, Box, None, "raised")
    assert oracle.failed == 2 and oracle.attempted == 4


def test_attribution_adds_up_to_wall_time():
    tracer = Tracer()
    tracer.spans = [
        ["step", 0.0, 10.0, -1, 1],
        ["core.query_many", 1.0, 5.0, 0, 1],
        ["mesh.adjacency_build", 2.0, 4.0, 1, 1],
        ["service.warm", 6.0, 10.0, 0, 1],
        ["mesh.adjacency_build", 6.5, 9.0, 3, 1],
        ["mesh.adjacency_build", 7.0, 9.5, 3, 1],
    ]
    (layers,) = tracer.attribute("step")
    assert layers["core"] == pytest.approx(2.0)
    assert layers["mesh"] == pytest.approx(2.0 + 3.0)  # concurrent builds share their overlap
    assert layers["service"] == pytest.approx(1.0)
    assert layers[""] == pytest.approx(2.0)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "restructure", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
