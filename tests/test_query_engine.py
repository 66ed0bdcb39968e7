"""Tests for the zero-allocation query engine: scratch arena, batching, hot paths.

Covers the performance layer added around the crawl:

* the epoch-stamped :class:`CrawlScratch` arena (no O(n_vertices) allocation
  per query, identical results to fresh-allocation crawls, survival across
  mesh restructuring epochs);
* the batched ``query_many`` API (equality with width-1 ``query`` for
  OCTOPUS, OCTOPUS-CON and baselines, counter parity, harness wiring);
* the vectorised hot paths (``AdjacencyList.relabeled``, the beam walk of
  ``directed_walk_many``, the grid's ``locate_batch``).
"""

from __future__ import annotations

import numpy as np
import pytest
from single_query import crawl_one, walk_one

import repro.core.crawler as crawler_module
from repro.baselines import (
    LinearScanExecutor,
    LURTreeExecutor,
    ThrowawayGridExecutor,
    ThrowawayOctreeExecutor,
)
from repro.core import (
    CrawlScratch,
    OctopusConExecutor,
    OctopusExecutor,
    QueryCounters,
)
from repro.errors import SpatialIndexError
from repro.generators import structured_hexahedral_mesh, structured_tetrahedral_mesh
from repro.mesh import AdjacencyList, Box3D, TetrahedralMesh, points_in_box
from repro.simulation import DeformationDelta, remove_cells
from repro.workloads import random_query_workload


class TestCrawlScratch:
    def test_acquire_grows_and_bumps_epoch(self):
        scratch = CrawlScratch()
        stamps, _, epoch = scratch.acquire_batch(10)
        assert stamps.size >= 10 and epoch == 1
        stamps2, _, epoch2 = scratch.acquire_batch(10)
        assert stamps2 is stamps and epoch2 == 2

    def test_acquire_regrows_for_larger_mesh(self):
        scratch = CrawlScratch()
        stamps, _, epoch = scratch.acquire_batch(8)
        stamps[3] = epoch
        bigger, _, epoch2 = scratch.acquire_batch(100)
        assert bigger.size >= 100
        # The grown arena starts clean: no vertex reads as visited.
        assert not (bigger[:100] == epoch2).any()

    def test_epoch_rollover_clears_stamps(self):
        scratch = CrawlScratch()
        stamps, _, epoch = scratch.acquire_batch(4)
        stamps[:] = epoch
        scratch._batch_epoch = np.iinfo(np.int32).max - 1
        stamps2, _, epoch2 = scratch.acquire_batch(4)
        assert not (stamps2 == epoch2).any()

    def test_epoch_rollover_boundary_is_exact(self):
        """One epoch below the limit does not clear; at the limit it does."""
        scratch = CrawlScratch()
        stamps, _, epoch = scratch.acquire_batch(4)
        stamps[0] = epoch
        scratch._batch_epoch = np.iinfo(np.int32).max - 2
        stamps2, _, epoch2 = scratch.acquire_batch(4)
        assert epoch2 == np.iinfo(np.int32).max - 1  # no clear yet
        stamps2[1] = epoch2
        stamps3, _, epoch3 = scratch.acquire_batch(4)
        assert epoch3 == 1  # rollover happened
        assert not (stamps3 == epoch3).any()

    def test_capacity_survives_mesh_shrinkage(self):
        """A smaller mesh reuses the big arena instead of reallocating."""
        scratch = CrawlScratch()
        big, _, _ = scratch.acquire_batch(1000)
        small, _, epoch = scratch.acquire_batch(10)
        assert small is big  # capacity kept across shrinkage
        assert not (small[:10] == epoch).any()

    def test_arena_regrows_between_executor_prepares(self, grid_mesh, neuron_small):
        """prepare() on a growing mesh regrows the same executor's arena."""
        meshes = sorted([grid_mesh, neuron_small], key=lambda m: m.n_vertices)
        octopus = OctopusExecutor()
        for mesh in meshes:
            octopus.prepare(mesh)
            box = Box3D.cube(mesh.vertices[0], 0.3)
            reference = LinearScanExecutor()
            reference.prepare(mesh)
            assert octopus.query(box).same_vertices_as(reference.query(box))
            assert octopus.scratch._batch_stamps.size >= mesh.n_vertices
        # Shrinking back keeps the larger capacity and stays correct.
        octopus.prepare(meshes[0])
        capacity = octopus.scratch._batch_stamps.size
        assert capacity >= meshes[1].n_vertices
        box = Box3D.cube(meshes[0].vertices[0], 0.3)
        reference = LinearScanExecutor()
        reference.prepare(meshes[0])
        assert octopus.query(box).same_vertices_as(reference.query(box))

    def test_batch_arena_regrows_between_executor_prepares(self, grid_mesh, neuron_small):
        """query_many() after re-prepare() on a bigger mesh regrows the bitset arena."""
        meshes = sorted([grid_mesh, neuron_small], key=lambda m: m.n_vertices)
        octopus = OctopusExecutor()
        for mesh in meshes:
            octopus.prepare(mesh)
            boxes = [Box3D.cube(mesh.vertices[0], 0.3), Box3D.cube(mesh.vertices[-1], 0.2)]
            _assert_batch_matches_sequential(octopus, mesh, boxes)
            assert octopus.scratch._batch_stamps.size >= mesh.n_vertices

    def test_iota_is_reused_ramp(self):
        scratch = CrawlScratch()
        ramp = scratch.iota(5)
        assert np.array_equal(ramp, np.arange(5))
        again = scratch.iota(3)
        assert again.base is scratch.iota(5).base

    def test_memory_accounting(self):
        scratch = CrawlScratch()
        assert scratch.memory_bytes() == 0
        # Steady state: batch stamps (4) + one ownership word (8).
        assert scratch.expected_bytes(1000) == 12000
        scratch.acquire_batch(1000)
        assert scratch.memory_bytes() >= 12000
        # The estimate is stable before and after the arena is touched.
        assert scratch.expected_bytes(1000) == 12000


class TestScratchCrawlEquivalence:
    def test_scratch_crawl_matches_fresh_allocation_across_repeats(self, neuron_small, rng):
        """Property (a): same results and counters with and without the arena."""
        scratch = CrawlScratch()
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=6, seed=7)
        for box in workload.boxes:
            starts = np.nonzero(points_in_box(neuron_small.vertices, box))[0][:5]
            fresh_counters = QueryCounters()
            shared_counters = QueryCounters()
            fresh = crawl_one(neuron_small, box, starts, fresh_counters)
            shared = crawl_one(neuron_small, box, starts, shared_counters, scratch=scratch)
            assert np.array_equal(fresh.result_ids, shared.result_ids)
            assert fresh_counters.as_dict() == shared_counters.as_dict()

    def test_scratch_survives_mesh_restructuring_epochs(self, grid_mesh):
        """The arena stays valid when connectivity (and vertex count) changes."""
        mesh = grid_mesh.copy()
        scratch = CrawlScratch()
        box = Box3D((0.1, 0.1, 0.1), (0.8, 0.8, 0.8))
        for round_index in range(3):
            starts = np.nonzero(points_in_box(mesh.vertices, box))[0][:3]
            fresh = crawl_one(mesh, box, starts)
            shared = crawl_one(mesh, box, starts, scratch=scratch)
            assert np.array_equal(fresh.result_ids, shared.result_ids)
            smaller, _ = remove_cells(mesh, np.arange(10 * (round_index + 1)))
            mesh.replace_cells(smaller.cells)

    def test_crawl_performs_no_per_query_dataset_size_allocation(self, neuron_small, monkeypatch):
        """Acceptance: repeated queries on a prepared executor never np.zeros(n)."""
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        box = Box3D.cube(neuron_small.vertices[10], 0.3)
        octopus.query(box)  # warm the arena

        big_allocations = []
        real_zeros = np.zeros

        def spying_zeros(*args, **kwargs):
            out = real_zeros(*args, **kwargs)
            if out.size >= neuron_small.n_vertices:
                big_allocations.append(out.size)
            return out

        for module in (crawler_module,):
            monkeypatch.setattr(module.np, "zeros", spying_zeros)
        for _ in range(5):
            octopus.query(box)
        assert big_allocations == []

    def test_executor_scratch_identity_stable_across_queries(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        box = Box3D.cube(neuron_small.vertices[0], 0.3)
        octopus.query(box)
        arena = octopus.scratch._batch_stamps
        epoch = octopus.scratch.batch_epoch
        octopus.query(box)
        assert octopus.scratch._batch_stamps is arena
        assert octopus.scratch.batch_epoch > epoch

    def test_bare_crawl_still_correct_without_scratch(self, grid_mesh):
        box = Box3D((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
        inside = np.nonzero(points_in_box(grid_mesh.vertices, box))[0]
        outcome = crawl_one(grid_mesh, box, inside[:1])
        assert np.array_equal(outcome.result_ids, inside)


def _assert_batch_matches_sequential(executor, mesh, boxes):
    sequential = [executor.query(box) for box in boxes]
    batched = executor.query_many(boxes)
    assert len(batched) == len(sequential)
    for got, expected in zip(batched, sequential):
        assert got.same_vertices_as(expected)
        assert got.counters.as_dict() == expected.counters.as_dict()


class TestQueryMany:
    """Property (b): query_many(boxes) equals sequential query(box) per strategy."""

    def test_octopus_batch_matches_sequential(self, neuron_small):
        executor = OctopusExecutor()
        executor.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.01, n_queries=8, seed=11)
        # Include a miss and an enclosed box so the walk path is exercised.
        far = Box3D.cube(neuron_small.bounding_box().hi + 5.0, 0.4)
        boxes = workload.boxes + [far]
        _assert_batch_matches_sequential(executor, neuron_small, boxes)

    def test_octopus_con_batch_matches_sequential(self, earthquake_small):
        executor = OctopusConExecutor()
        executor.prepare(earthquake_small)
        workload = random_query_workload(earthquake_small, selectivity=0.02, n_queries=6, seed=3)
        far = Box3D.cube(earthquake_small.bounding_box().hi + 5.0, 0.4)
        boxes = workload.boxes + [far]
        _assert_batch_matches_sequential(executor, earthquake_small, boxes)

    def test_linear_scan_batch_matches_sequential(self, neuron_small):
        executor = LinearScanExecutor()
        executor.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.05, n_queries=7, seed=5)
        _assert_batch_matches_sequential(executor, neuron_small, workload.boxes)

    @pytest.mark.parametrize("factory", [ThrowawayOctreeExecutor, LURTreeExecutor])
    def test_tree_baselines_native_batch_matches_sequential(self, neuron_small, factory):
        executor = factory()
        executor.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.03, n_queries=4, seed=9)
        _assert_batch_matches_sequential(executor, neuron_small, workload.boxes)

    def test_octopus_batch_all_strategies_agree(self, neuron_small):
        """Batched OCTOPUS still agrees with the batched linear scan."""
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        linear = LinearScanExecutor()
        linear.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=6, seed=21)
        for got, expected in zip(
            octopus.query_many(workload.boxes), linear.query_many(workload.boxes)
        ):
            assert got.same_vertices_as(expected)

    def test_batch_after_restructuring_epoch(self, grid_mesh):
        mesh = grid_mesh.copy()
        octopus = OctopusExecutor()
        octopus.prepare(mesh)
        smaller, _ = remove_cells(mesh, np.arange(40))
        mesh.replace_cells(smaller.cells)
        octopus.on_step(DeformationDelta.empty(mesh.n_vertices))
        boxes = [
            Box3D((0.0, 0.0, 0.0), (0.6, 0.6, 0.6)),
            Box3D((0.3, 0.3, 0.3), (0.9, 0.9, 0.9)),
        ]
        _assert_batch_matches_sequential(octopus, mesh, boxes)

    def test_grid_batch_parity_holds_under_tiny_gather_budget(self, neuron_small, monkeypatch):
        """The grid's box-group chunking never changes results or counters."""
        import repro.core.uniform_grid as uniform_grid_module

        monkeypatch.setattr(uniform_grid_module, "_CANDIDATE_GATHER_BUDGET", 64)
        executor = ThrowawayGridExecutor()
        executor.prepare(neuron_small)
        workload = random_query_workload(neuron_small, selectivity=0.05, n_queries=8, seed=13)
        _assert_batch_matches_sequential(executor, neuron_small, workload.boxes)

    def test_empty_and_single_batches(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        assert octopus.query_many([]) == []
        box = Box3D.cube(neuron_small.vertices[0], 0.2)
        single = octopus.query_many([box])
        assert len(single) == 1
        assert single[0].same_vertices_as(octopus.query(box))

    def test_probe_distance_counter_on_miss(self, neuron_small):
        octopus = OctopusExecutor()
        octopus.prepare(neuron_small)
        far = Box3D.cube(neuron_small.bounding_box().hi + 5.0, 0.4)
        result = octopus.query(far)
        assert result.counters.probe_distance_computations == len(octopus.surface_index)
        near = Box3D.cube(neuron_small.vertices[0], 0.5)
        hit = octopus.query(near)
        assert hit.counters.probe_distance_computations == 0

    def test_workload_as_arrays(self, neuron_small):
        workload = random_query_workload(neuron_small, selectivity=0.02, n_queries=5, seed=2)
        los, his = workload.as_arrays()
        assert los.shape == (5, 3) and his.shape == (5, 3)
        assert np.array_equal(los[0], workload.boxes[0].lo)
        assert np.array_equal(his[4], workload.boxes[4].hi)


class TestSingleQueryEngine:
    """``query(box)`` is ``query_many([box])[0]``, with no fallback paths."""

    @pytest.mark.parametrize("executor_class", [OctopusExecutor, OctopusConExecutor])
    @pytest.mark.parametrize(
        "mesh",
        [structured_tetrahedral_mesh((7, 7, 7)), structured_hexahedral_mesh((6, 6, 6))],
        ids=["tetrahedral", "hexahedral"],
    )
    def test_single_box_answers_equal_linear_scan_on_grids(self, executor_class, mesh):
        executor = executor_class()
        executor.prepare(mesh)
        scan = LinearScanExecutor()
        scan.prepare(mesh)
        boxes = random_query_workload(mesh, selectivity=0.02, n_queries=12, seed=31).boxes
        # An interior box the probe misses (OCTOPUS walks) and one off the mesh.
        boxes += [Box3D.cube((0.5, 0.5, 0.5), 0.18), Box3D.cube((3.0, 3.0, 3.0), 0.2)]
        for box in boxes:
            assert np.array_equal(executor.query(box).vertex_ids, scan.query(box).vertex_ids)

    def test_strategy_must_implement_query_or_query_many(self):
        # Each is defined through the other; a strategy overriding neither
        # would recurse forever, so the class is rejected when defined.
        from repro.core import ExecutionStrategy

        with pytest.raises(TypeError, match="query"):

            class Neither(ExecutionStrategy):
                pass

    def test_stale_surface_index_raises_for_query_and_query_many(self, grid_mesh):
        mesh = grid_mesh.copy()
        octopus = OctopusExecutor()
        octopus.prepare(mesh)
        smaller, _ = remove_cells(mesh, np.arange(30))
        mesh.replace_cells(smaller.cells)  # behind the executor's back
        box = Box3D((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
        with pytest.raises(SpatialIndexError):
            octopus.query(box)
        with pytest.raises(SpatialIndexError):
            octopus.query_many([box, Box3D.cube((0.5, 0.5, 0.5), 0.3)])

    def test_surface_less_mesh_answers_empty(self, rng):
        # Vertices without cells: no surface to probe, nothing to walk from.
        mesh = TetrahedralMesh(rng.uniform(size=(20, 3)), np.empty((0, 4), dtype=np.int64))
        octopus = OctopusExecutor()
        octopus.prepare(mesh)
        boxes = [Box3D.cube(mesh.vertices[i], 0.5) for i in range(3)]
        for result in [octopus.query(boxes[0]), *octopus.query_many(boxes)]:
            assert result.vertex_ids.size == 0
            assert result.counters.surface_probed == 0
            assert result.counters.probe_distance_computations == 0


class TestVectorisedHotPaths:
    def test_relabeled_matches_per_vertex_reference(self, rng):
        """The CSR-permutation relabel equals the per-vertex reference."""
        n = 40
        edges = rng.integers(0, n, size=(150, 2))
        adjacency = AdjacencyList.from_edges(n, edges)
        new_ids = rng.permutation(n)
        got = adjacency.relabeled(new_ids)

        # Per-vertex reference implementation (the old Python loop).
        old_of_new = np.empty(n, dtype=np.int64)
        old_of_new[new_ids] = np.arange(n)
        expected_rows = [np.sort(new_ids[adjacency.neighbors(old_of_new[v])]) for v in range(n)]
        for v in range(n):
            assert np.array_equal(got.neighbors(v), expected_rows[v]), f"row {v}"

    def test_relabeled_identity_permutation(self, grid_mesh):
        adjacency = grid_mesh.adjacency
        identity = np.arange(adjacency.n_vertices)
        relabeled = adjacency.relabeled(identity)
        assert np.array_equal(relabeled.indptr, adjacency.indptr)
        # Rows come out sorted; sort the original rows for comparison.
        for v in range(0, adjacency.n_vertices, 17):
            assert np.array_equal(relabeled.neighbors(v), np.sort(adjacency.neighbors(v)))

    def test_relabeled_empty_adjacency(self):
        adjacency = AdjacencyList(np.array([0, 0, 0]), np.empty(0, dtype=np.int64))
        relabeled = adjacency.relabeled(np.array([1, 0]))
        assert relabeled.n_vertices == 2
        assert relabeled.indices.size == 0

    def test_directed_walk_multi_source(self, grid_mesh):
        box = Box3D.cube((0.5, 0.5, 0.5), 0.3)
        outcome = walk_one(grid_mesh, box, np.array([0, 124]))
        assert outcome.found_id is not None
        assert box.contains_point(grid_mesh.vertices[outcome.found_id])

    def test_directed_walk_beam_width_one_still_finds(self, grid_mesh):
        box = Box3D.cube((0.5, 0.5, 0.5), 0.3)
        outcome = walk_one(grid_mesh, box, 0, beam_width=1)
        assert outcome.found_id is not None

    def test_directed_walk_rejects_bad_beam(self, grid_mesh):
        with pytest.raises(ValueError):
            walk_one(grid_mesh, Box3D.cube((0.5, 0.5, 0.5), 0.3), 0, beam_width=0)

    def test_grid_locate_batch_matches_any_vertex_near(self, earthquake_small):
        executor = OctopusConExecutor()
        executor.prepare(earthquake_small)
        grid = executor.grid
        rng = np.random.default_rng(4)
        points = rng.uniform(
            earthquake_small.bounding_box().lo, earthquake_small.bounding_box().hi, size=(20, 3)
        )
        batch = grid.locate_batch(points)
        for point, got in zip(points, batch):
            if got >= 0:
                assert got == grid.any_vertex_near(point)


class TestHarnessBatching:
    def test_simulation_batched_equals_sequential(self, grid_mesh):
        from repro.simulation import MeshSimulation, RandomWalkDeformation

        def provider(mesh, step):
            return [
                Box3D((0.1, 0.1, 0.1), (0.5, 0.5, 0.5)),
                Box3D((0.4, 0.4, 0.4), (0.9, 0.9, 0.9)),
            ]

        def run(batch):
            mesh = grid_mesh.copy()
            simulation = MeshSimulation(
                mesh=mesh,
                deformation=RandomWalkDeformation(amplitude=0.001, seed=8),
                strategies=[OctopusExecutor(), LinearScanExecutor()],
                query_provider=provider,
                validate_results=True,
                batch_queries=batch,
            )
            return simulation.run(3)

        batched = run(True)
        sequential = run(False)
        for name in batched.names():
            assert batched[name].total_results == sequential[name].total_results
            assert batched[name].counters.as_dict() == sequential[name].counters.as_dict()

    def test_sequential_env_var_respected(self, grid_mesh, monkeypatch):
        from repro.simulation import MeshSimulation, RandomWalkDeformation

        monkeypatch.setenv("REPRO_SEQUENTIAL_QUERIES", "1")
        simulation = MeshSimulation(
            mesh=grid_mesh.copy(),
            deformation=RandomWalkDeformation(amplitude=0.001, seed=8),
            strategies=[LinearScanExecutor()],
            query_provider=lambda mesh, step: [],
        )
        assert simulation.batch_queries is False
