"""Microbenchmark for the zero-allocation query engine.

Measures, on the fig05-style point-query workload (small boxes centred on
random mesh vertices, microbenchmark-B selectivity):

* **batched vs. sequential** — ``OctopusExecutor.query_many(boxes)`` against
  the equivalent loop of width-1 ``query(box)`` calls (same executor, same
  boxes);
* **scratch vs. naive crawl** — width-1 ``crawl_many`` calls reusing one
  :class:`CrawlScratch` arena against width-1 calls paying a fresh
  O(n_vertices) visited allocation per query;
* **fused vs. sequential crawl** — one shared-frontier ``crawl_many`` over an
  overlapping-box batch against the equivalent loop of width-1 ``crawl_many``
  calls (both sides reusing a scratch arena), plus the fused work reduction
  (unique vs. attributed vertex visits);
* **fused vs. sequential walk** — one lockstep ``directed_walk_many`` over an
  overlapping batch of interior boxes against the equivalent loop of width-1
  ``directed_walk_many`` calls, plus the walk-phase work sharing;
* **sparse deformation maintenance** — delta-keyed incremental maintenance
  (``on_step(delta)`` with an explicit moved set) against the full-recompute
  reference (the same strategy driven with ``delta.as_full()``), for
  OCTOPUS-CON's maintained grid and the three updatable R-tree baselines on a
  ``LocalizedPulseDeformation`` workload where only a small fraction of the
  vertices moves per step.  The gated ``speedup`` is the *minimum* across
  those strategies.
* **restructuring maintenance** — topology-delta-keyed incremental
  maintenance (``on_restructure(delta)`` with an explicit dirty set) against
  the delta-blind reference (the same strategy driven with
  ``delta.as_full()``: whole-surface reconciliation, full grid re-bin, STR
  bulk reload), for OCTOPUS's surface index, OCTOPUS-CON's maintained grid
  and the LUR-Tree, on rounds of localized cell splits.  The gated
  ``speedup`` is again the minimum across strategies.
* **paranoid overhead** — a clean run through the paranoid
  :class:`ResilientStrategy` wrapper against the bare strategy (same deltas,
  same queries).  The gated ``speedup`` is ``plain_s / paranoid_s``, so a
  floor of 0.9 caps the wrapper's validation tax at roughly 10%.

Writes a perf record to ``BENCH_query_engine.json`` at the repository root so
future PRs can track the trajectory, and prints the same numbers.  Run it
directly::

    REPRO_BENCH_PROFILE=tiny python benchmarks/bench_query_engine.py

or through pytest (``pytest benchmarks/bench_query_engine.py -s``).

CI regression gate: when ``REPRO_BENCH_FLOORS`` is set (comma-separated
``scenario=min_speedup`` pairs, e.g.
``batched=1.5,fused_crawl=2.0,fused_walk=1.2``), the run fails with a
non-zero exit status if any named scenario's measured speedup falls below
its floor.  See docs/performance.md ("The benchmark-regression CI gate")
for how the floors relate to the recorded numbers and when to update them.
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

from repro.baselines import (  # noqa: E402
    LURTreeExecutor,
    QUTradeExecutor,
    RUMTreeExecutor,
)
from repro.core import (  # noqa: E402
    CrawlScratch,
    OctopusConExecutor,
    OctopusExecutor,
    ResilientStrategy,
    crawl_many,
    directed_walk_many,
)
from repro.experiments.datasets import neuron_largest  # noqa: E402
from repro.generators import neuron_mesh, structured_tetrahedral_mesh  # noqa: E402
from repro.mesh import Box3D, points_in_box  # noqa: E402
from repro.simulation import LocalizedPulseDeformation, split_cells_inplace  # noqa: E402
from repro.workloads import random_query_workload  # noqa: E402

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_query_engine.json"

#: fig05 microbenchmark-B style point queries: tiny selectivity, many boxes
POINT_QUERY_SELECTIVITY = 0.0008
N_QUERIES = 64
N_ROUNDS = 5
#: overlapping-box batch for the fused multi-query crawl scenario
N_OVERLAPPING_QUERIES = 32
#: overlapping interior boxes for the fused directed-walk scenario
N_WALK_QUERIES = 32

#: sparse-maintenance scenario: fraction of vertices moved per active step
SPARSE_FRACTION = 0.02
#: the scenario runs on dedicated mesh sizes rather than the profile mesh —
#: the O(motion)-vs-O(mesh) separation needs enough vertices to show, while
#: the RUM-Tree's degenerate full path (one R-tree insert per vertex per
#: step) needs few enough to stay affordable in a CI smoke run
SPARSE_MESH_RESOLUTION = 64
SPARSE_RUM_MESH_RESOLUTION = 24
SPARSE_STEPS = 6
SPARSE_RUM_STEPS = 3
#: repetitions per cheap strategy pair (best-of, like the other scenarios);
#: the RUM pair runs once — its full path is deliberately expensive
SPARSE_REPS = 3

#: restructuring-maintenance scenario: localized splits on a dedicated mesh —
#: a thin structured slab whose surface covers most of its vertices, so the
#: O(surface) full reconciliation and the O(event) narrowed one separate
#: cleanly (and the slab generates in milliseconds, unlike a large neuron)
RESTRUCTURE_MESH_SHAPE = (100, 100, 2)
RESTRUCTURE_ROUNDS = 4
RESTRUCTURE_CELLS = 8
RESTRUCTURE_REPS = 3

#: paranoid-overhead scenario: a clean run through the paranoid wrapper —
#: the floor gates how much the O(dirty) audits may cost on the fast path
PARANOID_MESH_RESOLUTION = 48
PARANOID_STEPS = 6
PARANOID_REPS = 3
PARANOID_FRACTION = 0.02
PARANOID_QUERIES = 8

#: which record section holds each floor-gated scenario's speedup
FLOOR_SCENARIOS = {
    "batched": "batched_vs_sequential",
    "scratch": "scratch_vs_naive_crawl",
    "fused_crawl": "fused_vs_sequential_crawl",
    "fused_walk": "fused_vs_sequential_walk",
    "sparse_maintenance": "sparse_deformation_maintenance",
    "restructuring_maintenance": "restructuring_maintenance",
    "paranoid_overhead": "paranoid_overhead",
}


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of_interleaved(rounds: int, a, b) -> tuple[float, float]:
    """Best-of-N seconds for two contenders, alternating so neither benefits
    from cache-warming order."""
    a(), b()
    times_a, times_b = [], []
    for _ in range(rounds):
        times_a.append(_timed(a))
        times_b.append(_timed(b))
    return min(times_a), min(times_b)


def bench_batched_vs_sequential(mesh, boxes) -> dict:
    executor = OctopusExecutor()
    executor.prepare(mesh)

    sequential_time, batched_time = _best_of_interleaved(
        N_ROUNDS,
        lambda: [executor.query(box) for box in boxes],
        lambda: executor.query_many(boxes),
    )

    batched = executor.query_many(boxes)
    sequential = [executor.query(box) for box in boxes]
    assert all(a.same_vertices_as(b) for a, b in zip(batched, sequential))

    return {
        "n_queries": len(boxes),
        "sequential_s": sequential_time,
        "batched_s": batched_time,
        "speedup": sequential_time / max(batched_time, 1e-12),
    }


def bench_scratch_vs_naive_crawl(mesh, boxes) -> dict:
    start_sets = []
    for box in boxes:
        inside = np.nonzero(points_in_box(mesh.vertices, box))[0]
        start_sets.append(inside[:1])

    def naive():
        for box, starts in zip(boxes, start_sets):
            crawl_many(mesh, [box], [starts])  # fresh O(n_vertices) arena per call

    scratch = CrawlScratch()

    def reused():
        for box, starts in zip(boxes, start_sets):
            crawl_many(mesh, [box], [starts], scratch=scratch)

    naive_time, scratch_time = _best_of_interleaved(N_ROUNDS, naive, reused)
    return {
        "n_queries": len(boxes),
        "naive_s": naive_time,
        "scratch_s": scratch_time,
        "speedup": naive_time / max(scratch_time, 1e-12),
    }


def bench_fused_vs_sequential_crawl(mesh) -> dict:
    """Fused multi-query crawl on an overlapping-box batch vs. per-box crawls."""
    rng = np.random.default_rng(7)
    diagonal = float(np.linalg.norm(mesh.bounding_box().extents))
    center = mesh.vertices[mesh.n_vertices // 2]
    boxes = [
        Box3D.cube(center + rng.normal(0.0, 0.01 * diagonal, 3), 0.25 * diagonal)
        for _ in range(N_OVERLAPPING_QUERIES)
    ]
    start_sets = []
    for box in boxes:
        inside = np.nonzero(points_in_box(mesh.vertices, box))[0]
        start_sets.append(inside[:1])

    sequential_scratch = CrawlScratch()

    def sequential():
        for box, starts in zip(boxes, start_sets):
            crawl_many(mesh, [box], [starts], scratch=sequential_scratch)

    fused_scratch = CrawlScratch()

    def fused():
        crawl_many(mesh, boxes, start_sets, scratch=fused_scratch)

    sequential_time, fused_time = _best_of_interleaved(N_ROUNDS, sequential, fused)

    batch = crawl_many(mesh, boxes, start_sets, scratch=fused_scratch)
    independent = [
        crawl_many(mesh, [box], [starts], scratch=sequential_scratch).outcomes[0]
        for box, starts in zip(boxes, start_sets)
    ]
    assert all(
        np.array_equal(a.result_ids, b.result_ids)
        for a, b in zip(batch.outcomes, independent)
    )

    return {
        "n_queries": len(boxes),
        "sequential_s": sequential_time,
        "fused_s": fused_time,
        "speedup": sequential_time / max(fused_time, 1e-12),
        "attributed_vertex_visits": batch.n_attributed_vertex_visits,
        "unique_vertex_visits": batch.n_unique_vertices_visited,
        "work_sharing_factor": batch.n_attributed_vertex_visits
        / max(batch.n_unique_vertices_visited, 1),
    }


def bench_fused_vs_sequential_walk(mesh) -> dict:
    """Fused lockstep walks on an overlapping interior batch vs. per-box walks.

    All walks start from the same surface vertex (the batched executor's
    probe-miss pattern on enclosed queries) towards small interior boxes
    jittered around the mesh centre, so the beams traverse largely the same
    corridor — the fused walk pays one gather and one distance kernel per
    lockstep round instead of one per query per step.
    """
    rng = np.random.default_rng(11)
    bounding = mesh.bounding_box()
    diagonal = float(np.linalg.norm(bounding.extents))
    interior = mesh.vertices[mesh.n_vertices // 2]
    boxes = [
        Box3D.cube(interior + rng.normal(0.0, 0.005 * diagonal, 3), 0.03 * diagonal)
        for _ in range(N_WALK_QUERIES)
    ]
    surface = mesh.surface_vertices()
    start = int(surface[0])
    starts = [start] * len(boxes)

    sequential_scratch = CrawlScratch()

    def sequential():
        for box in boxes:
            directed_walk_many(mesh, [box], [start], scratch=sequential_scratch)

    fused_scratch = CrawlScratch()

    def fused():
        directed_walk_many(mesh, boxes, starts, scratch=fused_scratch)

    sequential_time, fused_time = _best_of_interleaved(N_ROUNDS, sequential, fused)

    batch = directed_walk_many(mesh, boxes, starts, scratch=fused_scratch)
    independent = [
        directed_walk_many(mesh, [box], [start], scratch=sequential_scratch).outcomes[0]
        for box in boxes
    ]
    assert all(
        a.found_id == b.found_id and a.n_steps == b.n_steps
        for a, b in zip(batch.outcomes, independent)
    )

    return {
        "n_queries": len(boxes),
        "sequential_s": sequential_time,
        "fused_s": fused_time,
        "speedup": sequential_time / max(fused_time, 1e-12),
        "attributed_distance_computations": batch.n_attributed_distance_computations,
        "unique_distance_computations": batch.n_unique_distance_computations,
        "work_sharing_factor": batch.n_attributed_distance_computations
        / max(batch.n_unique_distance_computations, 1),
        "lockstep_rounds": batch.n_rounds,
        "sequential_steps": sum(o.n_steps for o in batch.outcomes),
    }


def bench_sparse_deformation_maintenance() -> dict:
    """Delta-keyed incremental maintenance vs. the full-recompute reference.

    For each strategy, two instances are prepared on the same mesh and driven
    through the same :class:`LocalizedPulseDeformation` steps: one receives
    the real sparse deltas (incremental path), the other ``delta.as_full()``
    (the delta-blind whole-mesh path).  Each strategy's speedup is the ratio
    of their accumulated maintenance seconds; the scenario's headline
    ``speedup`` — the number the CI floor gates — is the minimum across
    strategies, so *every* incremental path must hold its advantage.
    """

    def run_pair(make_incremental, make_reference, base_mesh, n_steps, reps):
        # Best-of-N over whole pair runs (fresh executors, identically
        # re-evolved mesh each rep) so a load spike on the shared runner
        # cannot sink the measured ratio; entry counts are deterministic and
        # identical across reps.
        best_incremental_s = best_full_s = None
        entry = None
        for _ in range(reps):
            mesh = base_mesh.copy()
            incremental = make_incremental()
            reference = make_reference()
            incremental.prepare(mesh)
            reference.prepare(mesh)
            model = LocalizedPulseDeformation(
                sparsity=SPARSE_FRACTION, amplitude=0.002, seed=3
            )
            model.bind(mesh)
            moved = 0
            for step in range(1, n_steps + 1):
                delta = model.apply(step)
                moved += delta.n_moved
                incremental.on_step(delta)
                reference.on_step(delta.as_full())
            if best_incremental_s is None or incremental.maintenance_time < best_incremental_s:
                best_incremental_s = incremental.maintenance_time
            if best_full_s is None or reference.maintenance_time < best_full_s:
                best_full_s = reference.maintenance_time
            entry = {
                "mesh_vertices": mesh.n_vertices,
                "n_steps": n_steps,
                "reps": reps,
                "moved_vertices": moved,
                "incremental_entries": incremental.maintenance_entries,
                "full_entries": reference.maintenance_entries,
            }
        entry["incremental_s"] = best_incremental_s
        entry["full_s"] = best_full_s
        entry["speedup"] = best_full_s / max(best_incremental_s, 1e-12)
        return entry

    mesh = neuron_mesh(SPARSE_MESH_RESOLUTION, name="sparse-bench")
    rum_mesh = neuron_mesh(SPARSE_RUM_MESH_RESOLUTION, name="sparse-bench-rum")
    strategies = {
        "octopus-con": run_pair(
            lambda: OctopusConExecutor(grid_maintenance="incremental"),
            lambda: OctopusConExecutor(grid_maintenance="rebuild"),
            mesh,
            SPARSE_STEPS,
            SPARSE_REPS,
        ),
        "lur-tree": run_pair(
            LURTreeExecutor, LURTreeExecutor, mesh, SPARSE_STEPS, SPARSE_REPS
        ),
        "qu-trade": run_pair(
            QUTradeExecutor, QUTradeExecutor, mesh, SPARSE_STEPS, SPARSE_REPS
        ),
        "rum-tree": run_pair(
            RUMTreeExecutor, RUMTreeExecutor, rum_mesh, SPARSE_RUM_STEPS, 1
        ),
    }
    return {
        "sparsity": SPARSE_FRACTION,
        "strategies": strategies,
        "speedup": min(entry["speedup"] for entry in strategies.values()),
    }


def bench_restructuring_maintenance() -> dict:
    """Topology-delta-keyed incremental maintenance vs. the rebuild reference.

    Each round splits a localized clump of cells in place and hands the
    resulting :class:`TopologyDelta` to two instances of the same strategy:
    one receives the real sparse delta (incremental path — narrowed
    surface-index reconciliation for OCTOPUS, a frozen-geometry tail splice
    for OCTOPUS-CON's maintained grid, ascending-id inserts of the appended
    centroids for the LUR-Tree), the other ``delta.as_full()`` (the
    delta-blind path: whole-surface diff / full re-bin / STR bulk reload).
    The mesh-side surface re-extraction is warmed before timing either
    contender, so the ratio isolates the *index* maintenance.  The headline
    ``speedup`` — the number the CI floor gates — is the minimum across
    strategies.
    """

    def run_pair(make_incremental, make_reference, base_mesh, reps):
        best_incremental_s = best_full_s = None
        entry = None
        for _ in range(reps):
            mesh = base_mesh.copy()
            incremental = make_incremental()
            reference = make_reference()
            incremental.prepare(mesh)
            reference.prepare(mesh)
            dirty = 0
            for round_index in range(RESTRUCTURE_ROUNDS):
                offset = (1 + round_index) * 101 % max(mesh.n_cells - RESTRUCTURE_CELLS, 1)
                event = split_cells_inplace(
                    mesh, np.arange(offset, offset + RESTRUCTURE_CELLS)
                )
                delta = event.delta
                dirty += delta.n_dirty
                # Warm the mesh-side surface cache: re-extracting the surface
                # after a connectivity change is mesh work shared by every
                # consumer, not part of either contender's index maintenance.
                mesh.surface_vertices()
                incremental.on_restructure(delta)
                reference.on_restructure(delta.as_full())
            if best_incremental_s is None or incremental.maintenance_time < best_incremental_s:
                best_incremental_s = incremental.maintenance_time
            if best_full_s is None or reference.maintenance_time < best_full_s:
                best_full_s = reference.maintenance_time
            entry = {
                "mesh_vertices": mesh.n_vertices,
                "rounds": RESTRUCTURE_ROUNDS,
                "cells_per_round": RESTRUCTURE_CELLS,
                "reps": reps,
                "dirty_vertices": dirty,
                "incremental_entries": incremental.maintenance_entries,
                "full_entries": reference.maintenance_entries,
            }
        entry["incremental_s"] = best_incremental_s
        entry["full_s"] = best_full_s
        entry["speedup"] = best_full_s / max(best_incremental_s, 1e-12)
        return entry

    mesh = structured_tetrahedral_mesh(RESTRUCTURE_MESH_SHAPE, name="restructure-bench")
    strategies = {
        "octopus": run_pair(
            OctopusExecutor, OctopusExecutor, mesh, RESTRUCTURE_REPS
        ),
        "octopus-con": run_pair(
            lambda: OctopusConExecutor(grid_maintenance="incremental"),
            lambda: OctopusConExecutor(grid_maintenance="rebuild"),
            mesh,
            RESTRUCTURE_REPS,
        ),
        "lur-tree": run_pair(
            LURTreeExecutor, LURTreeExecutor, mesh, RESTRUCTURE_REPS
        ),
    }
    return {
        "rounds": RESTRUCTURE_ROUNDS,
        "cells_per_round": RESTRUCTURE_CELLS,
        "strategies": strategies,
        "speedup": min(entry["speedup"] for entry in strategies.values()),
    }


def bench_paranoid_overhead() -> dict:
    """Paranoid :class:`ResilientStrategy` wrapper vs. the bare strategy.

    Both contenders are OCTOPUS-CON with incremental grid maintenance, driven
    through the same clean sparse-deformation steps and per-step query
    batches.  The recorded ``speedup`` is ``plain_s / paranoid_s`` — at most
    ~1.0 by construction, since the wrapper only *adds* O(dirty) delta
    validation and dispatch indirection on top of the same work.  The CI
    floor (0.9) therefore caps the paranoid tax at roughly 10% of the fast
    path; the run asserts the ladder never fires (a degradation would make
    the ratio meaningless).
    """
    base_mesh = neuron_mesh(PARANOID_MESH_RESOLUTION, name="paranoid-bench")

    def run_once() -> tuple[float, float]:
        mesh = base_mesh.copy()
        plain = OctopusConExecutor(grid_maintenance="incremental")
        paranoid = ResilientStrategy(
            OctopusConExecutor(grid_maintenance="incremental"), paranoid=True
        )
        plain.prepare(mesh)
        paranoid.prepare(mesh)
        model = LocalizedPulseDeformation(
            sparsity=PARANOID_FRACTION, amplitude=0.002, seed=3
        )
        model.bind(mesh)
        boxes = random_query_workload(
            mesh, selectivity=0.005, n_queries=PARANOID_QUERIES, seed=5
        ).boxes
        # Warm both contenders before timing: the first query pays mesh-side
        # lazy construction (CSR adjacency, surface caches) shared via the
        # mesh, which would otherwise land entirely on whoever runs first.
        plain.query_many(boxes)
        paranoid.query_many(boxes)
        plain_s = paranoid_s = 0.0
        for step in range(1, PARANOID_STEPS + 1):
            delta = model.apply(step)
            start = time.perf_counter()
            plain.on_step(delta)
            plain.query_many(boxes)
            plain_s += time.perf_counter() - start
            start = time.perf_counter()
            paranoid.on_step(delta)
            paranoid.query_many(boxes)
            paranoid_s += time.perf_counter() - start
        assert not paranoid.drain_degradation_events()  # the run really was clean
        return plain_s, paranoid_s

    best_plain_s = best_paranoid_s = None
    for _ in range(PARANOID_REPS):
        plain_s, paranoid_s = run_once()
        if best_plain_s is None or plain_s < best_plain_s:
            best_plain_s = plain_s
        if best_paranoid_s is None or paranoid_s < best_paranoid_s:
            best_paranoid_s = paranoid_s
    return {
        "mesh_vertices": base_mesh.n_vertices,
        "n_steps": PARANOID_STEPS,
        "n_queries": PARANOID_QUERIES,
        "reps": PARANOID_REPS,
        "plain_s": best_plain_s,
        "paranoid_s": best_paranoid_s,
        "speedup": best_plain_s / max(best_paranoid_s, 1e-12),
    }


def parse_floors(spec: str) -> dict[str, float]:
    """Parse ``REPRO_BENCH_FLOORS`` (``name=min_speedup`` pairs, comma-separated)."""
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
                f"invalid benchmark floor {part!r}; expected {name}=<min_speedup>, "
                f"e.g. {name}=1.5"
            ) from None
    return floors


def enforce_floors(record: dict, floors: dict[str, float]) -> list[str]:
    """Return one failure message per scenario whose speedup is below its floor."""
    failures = []
    for name, minimum in floors.items():
        speedup = record[FLOOR_SCENARIOS[name]]["speedup"]
        if speedup < minimum:
            failures.append(
                f"{name}: speedup {speedup:.2f}x is below the regression floor "
                f"{minimum:.2f}x (scenario {FLOOR_SCENARIOS[name]})"
            )
    return failures


def run(profile: str | None = None) -> dict:
    profile = profile or os.environ.get("REPRO_BENCH_PROFILE", "small")
    mesh = neuron_largest(profile)
    workload = random_query_workload(
        mesh,
        selectivity=POINT_QUERY_SELECTIVITY,
        n_queries=N_QUERIES,
        seed=42,
        description="fig05-style point queries",
    )
    record = {
        "benchmark": "query_engine",
        "profile": profile,
        "mesh_vertices": mesh.n_vertices,
        "selectivity": POINT_QUERY_SELECTIVITY,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "batched_vs_sequential": bench_batched_vs_sequential(mesh, workload.boxes),
        "scratch_vs_naive_crawl": bench_scratch_vs_naive_crawl(mesh, workload.boxes),
        "fused_vs_sequential_crawl": bench_fused_vs_sequential_crawl(mesh),
        "fused_vs_sequential_walk": bench_fused_vs_sequential_walk(mesh),
        "sparse_deformation_maintenance": bench_sparse_deformation_maintenance(),
        "restructuring_maintenance": bench_restructuring_maintenance(),
        "paranoid_overhead": bench_paranoid_overhead(),
    }
    return record


def _print_record(record: dict) -> None:
    batched = record["batched_vs_sequential"]
    scratch = record["scratch_vs_naive_crawl"]
    fused = record["fused_vs_sequential_crawl"]
    walk = record["fused_vs_sequential_walk"]
    print(f"profile={record['profile']}  mesh_vertices={record['mesh_vertices']}")
    print(
        f"batched vs sequential: {batched['sequential_s'] * 1e3:.2f} ms -> "
        f"{batched['batched_s'] * 1e3:.2f} ms  ({batched['speedup']:.2f}x)"
    )
    print(
        f"scratch vs naive crawl: {scratch['naive_s'] * 1e3:.2f} ms -> "
        f"{scratch['scratch_s'] * 1e3:.2f} ms  ({scratch['speedup']:.2f}x)"
    )
    print(
        f"fused vs sequential crawl: {fused['sequential_s'] * 1e3:.2f} ms -> "
        f"{fused['fused_s'] * 1e3:.2f} ms  ({fused['speedup']:.2f}x, "
        f"work sharing {fused['work_sharing_factor']:.1f}x)"
    )
    print(
        f"fused vs sequential walk: {walk['sequential_s'] * 1e3:.2f} ms -> "
        f"{walk['fused_s'] * 1e3:.2f} ms  ({walk['speedup']:.2f}x, "
        f"work sharing {walk['work_sharing_factor']:.1f}x, "
        f"{walk['sequential_steps']} steps in {walk['lockstep_rounds']} rounds)"
    )
    sparse = record["sparse_deformation_maintenance"]
    for name, entry in sparse["strategies"].items():
        print(
            f"sparse maintenance [{name}]: {entry['full_s'] * 1e3:.2f} ms -> "
            f"{entry['incremental_s'] * 1e3:.2f} ms  ({entry['speedup']:.2f}x, "
            f"{entry['incremental_entries']} vs {entry['full_entries']} entries)"
        )
    print(f"sparse maintenance (min across strategies): {sparse['speedup']:.2f}x")
    restructuring = record["restructuring_maintenance"]
    for name, entry in restructuring["strategies"].items():
        print(
            f"restructuring maintenance [{name}]: {entry['full_s'] * 1e3:.2f} ms -> "
            f"{entry['incremental_s'] * 1e3:.2f} ms  ({entry['speedup']:.2f}x, "
            f"{entry['incremental_entries']} vs {entry['full_entries']} entries)"
        )
    print(
        f"restructuring maintenance (min across strategies): {restructuring['speedup']:.2f}x"
    )
    paranoid = record["paranoid_overhead"]
    print(
        f"paranoid overhead: {paranoid['plain_s'] * 1e3:.2f} ms -> "
        f"{paranoid['paranoid_s'] * 1e3:.2f} ms  ({paranoid['speedup']:.2f}x)"
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


def test_query_engine_benchmark(profile, record_rows):
    """Pytest entry point: run the benchmark and persist the JSON record."""
    record = run(profile)
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    batched = record["batched_vs_sequential"]
    scratch = record["scratch_vs_naive_crawl"]
    fused = record["fused_vs_sequential_crawl"]
    walk = record["fused_vs_sequential_walk"]
    rows = [
        {
            "comparison": "batched vs sequential",
            "baseline_s": batched["sequential_s"],
            "optimized_s": batched["batched_s"],
            "speedup": batched["speedup"],
        },
        {
            "comparison": "scratch vs naive crawl",
            "baseline_s": scratch["naive_s"],
            "optimized_s": scratch["scratch_s"],
            "speedup": scratch["speedup"],
        },
        {
            "comparison": "fused vs sequential crawl",
            "baseline_s": fused["sequential_s"],
            "optimized_s": fused["fused_s"],
            "speedup": fused["speedup"],
        },
        {
            "comparison": "fused vs sequential walk",
            "baseline_s": walk["sequential_s"],
            "optimized_s": walk["fused_s"],
            "speedup": walk["speedup"],
        },
    ]
    sparse = record["sparse_deformation_maintenance"]
    rows.extend(
        {
            "comparison": f"sparse maintenance [{name}]",
            "baseline_s": entry["full_s"],
            "optimized_s": entry["incremental_s"],
            "speedup": entry["speedup"],
        }
        for name, entry in sparse["strategies"].items()
    )
    restructuring = record["restructuring_maintenance"]
    rows.extend(
        {
            "comparison": f"restructuring maintenance [{name}]",
            "baseline_s": entry["full_s"],
            "optimized_s": entry["incremental_s"],
            "speedup": entry["speedup"],
        }
        for name, entry in restructuring["strategies"].items()
    )
    paranoid = record["paranoid_overhead"]
    rows.append(
        {
            "comparison": "paranoid wrapper overhead",
            "baseline_s": paranoid["plain_s"],
            "optimized_s": paranoid["paranoid_s"],
            "speedup": paranoid["speedup"],
        }
    )
    record_rows("bench_query_engine", rows, "Query engine microbenchmark")
    failures = _check_floors_from_env(record)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    sys.exit(main())
