"""Turn a run's samples into the record: header, metric table, result line."""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import subprocess
from pathlib import Path

import numpy as np

from . import workloads

#: a tail percentile needs at least this many samples beyond it; the table flags runs with fewer
MIN_TAIL_SAMPLES = 10


def environment(root: Path) -> dict:
    """Machine and library facts that decide whether two records are comparable."""
    import repro
    from repro.kernels import get_backend

    backend = get_backend()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend.spec,
        "kernel_backend_compiled": bool(getattr(backend, "compiled", False)),
        "repro": repro.__version__,
        "git_sha": _git_sha(root),
    }


def _git_sha(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def end_to_end(samples: workloads.Samples) -> dict[str, tuple[float, int]]:
    """The untraced run's metrics as ``name -> (value, sample count)``."""
    ms = 1e3
    response, request = samples.response, samples.request
    return {
        "setup_s": (float(np.median(samples.setup)), len(samples.setup)),
        "response_ms_p50": (ms * _percentile(response, 50), len(response)),
        "response_ms_p90": (ms * _percentile(response, 90), len(response)),
        "response_ms_mean": (ms * _mean(response), len(response)),
        "step_ms_mean": (ms * _mean(samples.step), len(samples.step)),
        "request_ms_p50": (ms * _percentile(request, 50), len(request)),
        "request_ms_p90": (ms * _percentile(request, 90), len(request)),
        "throughput_qps": (samples.queries / samples.query_wall if samples.query_wall else 0.0, samples.queries),
        "tick_ms_mean": (ms * _mean(samples.tick), len(samples.tick)),
        "recall": (samples.oracle.recall, samples.oracle.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(samples: workloads.Samples, tracer, root: str, metrics: dict) -> dict[str, tuple[float, int]]:
    """The traced run's metrics: the workload's own, then substrate, self time and trace."""
    tags = samples.traced_tags
    steps = max(len(tags), 1)
    for name in ("adjacency_build", "surface_extract"):
        values = tracer.durations(f"mesh.{name}")
        metrics[f"mesh.{name}_s"] = (float(np.median(values)), len(values)) if values else (0.0, 0)
    builds = tracer.count("mesh.adjacency_build", tags) + tracer.count("mesh.surface_extract", tags)
    metrics["mesh.substrate_builds_per_step"] = (builds / steps, len(tags))

    charged = tracer.attribute(root)
    total = sum(sum(layers.values()) for layers in charged)
    for layer in ("mesh", "simulation", "core", "service"):
        spent = sum(layers.get(layer, 0.0) for layers in charged)
        metrics[f"{layer}.self_ms_per_step"] = (1e3 * spent / max(len(charged), 1), len(charged))
    unattributed = sum(layers.get("", 0.0) for layers in charged)
    metrics["trace.unattributed_frac"] = (unattributed / total if total else 0.0, len(charged))
    traced, untraced = _mean(samples.step), _mean(samples.untraced_step)
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced if untraced else 0.0, len(samples.untraced_step))
    metrics["oracle.incomplete_frac"] = (samples.oracle.incomplete_frac, samples.oracle.attempted)
    scan, response = tracer.durations("baselines.linear_scan"), _mean(samples.response)
    if scan and response:
        metrics["baselines.linear_scan_ms_per_step"] = (1e3 * float(np.mean(scan)), len(scan))
        metrics["baselines.octopus_vs_scan"] = (float(np.mean(scan)) / response, len(scan))
    return metrics


def reconciliation(samples: workloads.Samples, metrics: dict) -> str:
    """One line stating how the traced layers account for the untraced step wall time."""
    traced, untraced = _mean(samples.step), _mean(samples.untraced_step)
    if not untraced:
        return "reconciliation: no untraced reference steps"
    layers = sum(value for name, (value, _) in metrics.items() if name.endswith(".self_ms_per_step"))
    unattributed = metrics["trace.unattributed_frac"][0] * traced * 1e3
    accounted = (layers + unattributed) / (untraced * 1e3)
    verdict = "within" if abs(accounted - 1.0) <= 0.05 else "OUTSIDE"
    return (
        f"reconciliation: layer self time {layers:.3f} ms + unattributed {unattributed:.3f} ms per step"
        f" = {accounted:.4f} x untraced step wall {untraced * 1e3:.3f} ms ({verdict} 5%)"
    )


def table(declared: list[dict], values: dict[str, tuple[float, int]]) -> list[str]:
    """Aligned ``name value unit samples`` lines for every declared metric."""
    lines = [f"{'metric':<46} {'value':>16} {'unit':<8} samples"]
    for metric in declared:
        value, count = values.get(metric["name"], (0.0, 0))
        note = ""
        if metric["name"].endswith("_p90") and count * 0.1 < MIN_TAIL_SAMPLES:
            note = f"  (fewer than {MIN_TAIL_SAMPLES} samples beyond p90)"
        shown = "n/a" if count == 0 else f"{value:.6g}"
        lines.append(f"{metric['name']:<46} {shown:>16} {metric['unit']:<8} {count}{note}")
    return lines


def result_line(declared: list[dict], values: dict, attempted: int, failed: int) -> str:
    """The final stdout line: the machine-readable result."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], (0.0, 0))[0]), "unit": m["unit"]}
            for m in declared
        },
    })


def write_record(root: Path, name: str, record: dict, tracer) -> Path:
    """Keep the full record (and the spans of a traced run) under ``.perfbench_out/``."""
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{name}-seed{record['header']['seed']}-trace{int(record['header']['trace'])}"
    path = out / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if record["header"]["trace"]:
        tracer.write(out / f"{stem}.spans.jsonl")
    return path


def log(line: str) -> None:
    print(line, flush=True)
