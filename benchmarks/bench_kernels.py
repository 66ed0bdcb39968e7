"""Raw-speed-tier benchmark: layout x backend kernel cells.

Measures the two compiled-kernel hot paths (the fused crawl frontier
expansion and the fused directed-walk distance kernel) over every
combination of

* **vertex layout** — ``native`` (generator order), ``hilbert`` (the
  locality relabel pass) and ``random`` (an adversarial shuffle);
* **kernel backend spec** — ``numpy`` (the reference) and ``numba`` (the
  compiled backend; falls back to NumPy when the JIT is not installed,
  recorded honestly via ``numba_available``).

Each cell records crawl throughput (attributed vertex visits per second),
walk throughput (attributed distance computations per second) and the
layout's locality score (mean neighbour id distance over the CSR adjacency;
lower is better).  Within each layout, the ``numba``-spec results are
checked bit-identical against the NumPy reference — that check *is* the
``kernel_parity`` gate, so a compiled kernel that ever deviates fails the
run before any speedup is reported.

The mesh is a structured tetrahedral grid sized by the dataset profile
(``REPRO_BENCH_PROFILE``): ``tiny`` for CI smoke runs up to ``large``,
whose grid exceeds one million vertices.  Writes a perf record to
``BENCH_kernels.json`` at the repository root and prints the same numbers.
Run it directly::

    REPRO_BENCH_PROFILE=tiny python benchmarks/bench_kernels.py

or through pytest (``pytest benchmarks/bench_kernels.py -s``).

CI regression gate: when ``REPRO_BENCH_FLOORS`` is set (comma-separated
``gate=minimum`` pairs), the run fails with a non-zero exit status if any
named gate falls below its floor.  Gates: ``kernel_parity`` (1.0 iff every
numba-spec cell matched the NumPy reference bit-for-bit),
``layout_locality_gain`` (random-layout locality score over hilbert-layout
score — how much neighbour id distance the relabel pass removes),
``compiled_crawl`` and ``compiled_walk`` (NumPy-backend seconds over
numba-backend seconds on the hilbert layout; ~1.0 by construction when the
JIT is absent, so these floors belong on CI legs that install numba).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import CrawlScratch, crawl_many, directed_walk_many  # noqa: E402
from repro.generators import structured_tetrahedral_mesh  # noqa: E402
from repro.kernels import get_backend, numba_available  # noqa: E402
from repro.mesh import Box3D, apply_layout, layout_locality_score, points_in_box  # noqa: E402

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"

#: structured grid shape per dataset profile; ``large`` exceeds 1M vertices
PROFILE_SHAPES = {
    "tiny": (8, 8, 8),
    "small": (20, 20, 20),
    "medium": (40, 40, 40),
    "large": (101, 101, 101),
}

LAYOUTS = ("native", "hilbert", "random")
BACKEND_SPECS = ("numpy", "numba")

N_CRAWL_QUERIES = 16
N_WALK_QUERIES = 16
N_ROUNDS = 3

FLOOR_SCENARIOS = {
    "kernel_parity": "1.0 iff every numba-spec cell matched the NumPy reference bit-for-bit",
    "layout_locality_gain": "random-layout locality score over hilbert-layout score",
    "compiled_crawl": "NumPy-backend fused-crawl seconds over numba-backend seconds (hilbert layout)",
    "compiled_walk": "NumPy-backend fused-walk seconds over numba-backend seconds (hilbert layout)",
}


def _timed_best_of(rounds: int, fn) -> float:
    fn()  # warm caches (and the JIT, when present) outside the timed region
    return min(_timed(fn) for _ in range(rounds))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _crawl_workload(mesh) -> tuple[list[Box3D], list[np.ndarray]]:
    """Overlapping boxes around the mesh centre, one inside start each."""
    rng = np.random.default_rng(7)
    bounding = mesh.bounding_box()
    diagonal = float(np.linalg.norm(bounding.extents))
    center = np.asarray(bounding.center, dtype=np.float64)
    boxes = [
        Box3D.cube(center + rng.normal(0.0, 0.01 * diagonal, 3), 0.2 * diagonal)
        for _ in range(N_CRAWL_QUERIES)
    ]
    starts = []
    for box in boxes:
        inside = np.nonzero(points_in_box(mesh.vertices, box))[0]
        starts.append(inside[:1])
    return boxes, starts


def _walk_workload(mesh) -> tuple[list[Box3D], list[int]]:
    """Small interior boxes reached from one shared surface start."""
    rng = np.random.default_rng(11)
    bounding = mesh.bounding_box()
    diagonal = float(np.linalg.norm(bounding.extents))
    center = np.asarray(bounding.center, dtype=np.float64)
    boxes = [
        Box3D.cube(center + rng.normal(0.0, 0.005 * diagonal, 3), 0.03 * diagonal)
        for _ in range(N_WALK_QUERIES)
    ]
    start = int(mesh.surface_vertices()[0])
    return boxes, [start] * len(boxes)


def _run_cell(mesh, spec, crawl_boxes, crawl_starts, walk_boxes, walk_starts) -> dict:
    kernels = get_backend(spec)
    crawl_scratch = CrawlScratch()
    walk_scratch = CrawlScratch()

    def run_crawl():
        return crawl_many(
            mesh, crawl_boxes, crawl_starts, scratch=crawl_scratch, kernels=kernels
        )

    def run_walk():
        return directed_walk_many(
            mesh, walk_boxes, walk_starts, scratch=walk_scratch, kernels=kernels
        )

    crawl_s = _timed_best_of(N_ROUNDS, run_crawl)
    walk_s = _timed_best_of(N_ROUNDS, run_walk)
    crawl_batch = run_crawl()
    walk_batch = run_walk()
    return {
        "spec": spec,
        "backend": kernels.spec,
        "compiled": kernels.compiled,
        "crawl_s": crawl_s,
        "walk_s": walk_s,
        "crawl_visits_per_s": crawl_batch.n_attributed_vertex_visits / max(crawl_s, 1e-12),
        "walk_distances_per_s": walk_batch.n_attributed_distance_computations
        / max(walk_s, 1e-12),
        "crawl_result_ids": [o.result_ids for o in crawl_batch.outcomes],
        "walk_found": [(o.found_id, o.n_steps) for o in walk_batch.outcomes],
    }


def _strip_arrays(cell: dict) -> dict:
    """Drop the raw result arrays before the cell goes into the JSON record."""
    return {
        k: v for k, v in cell.items() if k not in ("crawl_result_ids", "walk_found")
    }


def run(profile: str | None = None) -> dict:
    profile = profile or os.environ.get("REPRO_BENCH_PROFILE", "small")
    if profile not in PROFILE_SHAPES:
        raise SystemExit(
            f"unknown profile {profile!r}; expected one of {sorted(PROFILE_SHAPES)}"
        )
    base_mesh = structured_tetrahedral_mesh(PROFILE_SHAPES[profile], name="kernel-bench")

    cells = []
    locality = {}
    parity_ok = True
    hilbert_times = {}
    for layout in LAYOUTS:
        mesh = apply_layout(base_mesh, layout, seed=1)
        locality[layout] = layout_locality_score(mesh)
        crawl_boxes, crawl_starts = _crawl_workload(mesh)
        walk_boxes, walk_starts = _walk_workload(mesh)
        reference = None
        for spec in BACKEND_SPECS:
            cell = _run_cell(
                mesh, spec, crawl_boxes, crawl_starts, walk_boxes, walk_starts
            )
            if spec == "numpy":
                reference = cell
            elif spec == "numba":
                # The parity gate: the compiled backend must reproduce the
                # reference bit-for-bit on every query of every layout.
                same_crawl = all(
                    np.array_equal(a, b)
                    for a, b in zip(
                        cell["crawl_result_ids"], reference["crawl_result_ids"]
                    )
                )
                same_walk = cell["walk_found"] == reference["walk_found"]
                parity_ok = parity_ok and same_crawl and same_walk
                if layout == "hilbert":
                    hilbert_times = {
                        "crawl_numpy_s": reference["crawl_s"],
                        "crawl_numba_s": cell["crawl_s"],
                        "walk_numpy_s": reference["walk_s"],
                        "walk_numba_s": cell["walk_s"],
                    }
            cells.append({"layout": layout, "locality": locality[layout], **_strip_arrays(cell)})

    return {
        "benchmark": "kernels",
        "profile": profile,
        "mesh_vertices": base_mesh.n_vertices,
        "mesh_cells": base_mesh.n_cells,
        "n_crawl_queries": N_CRAWL_QUERIES,
        "n_walk_queries": N_WALK_QUERIES,
        "rounds": N_ROUNDS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_available": numba_available(),
        "cpu_count": os.cpu_count(),
        "locality": locality,
        "cells": cells,
        "gates": {
            "kernel_parity": 1.0 if parity_ok else 0.0,
            "layout_locality_gain": locality["random"] / max(locality["hilbert"], 1e-12),
            "compiled_crawl": hilbert_times["crawl_numpy_s"]
            / max(hilbert_times["crawl_numba_s"], 1e-12),
            "compiled_walk": hilbert_times["walk_numpy_s"]
            / max(hilbert_times["walk_numba_s"], 1e-12),
        },
    }


def parse_floors(spec: str) -> dict[str, float]:
    """Parse ``REPRO_BENCH_FLOORS`` (``name=minimum`` pairs, comma-separated)."""
    floors: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in FLOOR_SCENARIOS:
            raise SystemExit(
                f"unknown benchmark floor {name!r}; expected one of {sorted(FLOOR_SCENARIOS)}"
            )
        try:
            floors[name] = float(value)
        except ValueError:
            raise SystemExit(
                f"invalid benchmark floor {part!r}; expected {name}=<minimum>, "
                f"e.g. {name}=1.2"
            ) from None
    return floors


def enforce_floors(record: dict, floors: dict[str, float]) -> list[str]:
    """Return one failure message per gate whose value is below its floor."""
    failures = []
    for name, minimum in floors.items():
        value = record["gates"][name]
        if value < minimum:
            failures.append(
                f"{name}: {value:.2f} is below the regression floor {minimum:.2f} "
                f"({FLOOR_SCENARIOS[name]})"
            )
    return failures


def _print_record(record: dict) -> None:
    print(
        f"profile={record['profile']}  mesh_vertices={record['mesh_vertices']}  "
        f"numba_available={record['numba_available']}"
    )
    for layout in LAYOUTS:
        print(f"locality[{layout}] = {record['locality'][layout]:.1f}")
    for cell in record["cells"]:
        print(
            f"{cell['layout']:>7} x {cell['spec']:<13}: "
            f"crawl {cell['crawl_s'] * 1e3:8.2f} ms "
            f"({cell['crawl_visits_per_s'] / 1e6:6.2f} Mvisit/s)   "
            f"walk {cell['walk_s'] * 1e3:8.2f} ms "
            f"({cell['walk_distances_per_s'] / 1e6:6.2f} Mdist/s)"
        )
    gates = record["gates"]
    print(
        f"gates: kernel_parity={gates['kernel_parity']:.0f}  "
        f"layout_locality_gain={gates['layout_locality_gain']:.2f}x  "
        f"compiled_crawl={gates['compiled_crawl']:.2f}x  "
        f"compiled_walk={gates['compiled_walk']:.2f}x"
    )


def _check_floors_from_env(record: dict) -> list[str]:
    spec = os.environ.get("REPRO_BENCH_FLOORS", "")
    if not spec:
        return []
    failures = enforce_floors(record, parse_floors(spec))
    for failure in failures:
        print(f"FLOOR VIOLATION: {failure}", file=sys.stderr)
    return failures


def main() -> int:
    record = run()
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    _print_record(record)
    print(f"record written to {RECORD_PATH}")
    return 1 if _check_floors_from_env(record) else 0


def test_kernels_benchmark(profile, record_rows):
    """Pytest entry point: run the benchmark and persist the JSON record."""
    record = run(profile)
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    rows = [
        {
            "cell": f"{cell['layout']} x {cell['spec']}",
            "crawl_s": cell["crawl_s"],
            "walk_s": cell["walk_s"],
            "crawl_visits_per_s": cell["crawl_visits_per_s"],
            "walk_distances_per_s": cell["walk_distances_per_s"],
        }
        for cell in record["cells"]
    ]
    record_rows("bench_kernels", rows, "Kernel backend x layout benchmark")
    assert record["gates"]["kernel_parity"] == 1.0
    failures = _check_floors_from_env(record)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    sys.exit(main())
