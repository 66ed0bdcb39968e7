"""Tests for the surface index (build, probe, maintenance)."""

import numpy as np
import pytest

from repro.core import QueryCounters, SurfaceIndex
from repro.errors import SpatialIndexError
from repro.mesh import Box3D
from repro.simulation import remove_cells


class TestBuild:
    def test_contains_exactly_the_surface_vertices(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        expected = set(grid_mesh.surface_vertices().tolist())
        assert len(index) == len(expected)
        assert all(v in index for v in expected)
        interior = set(range(grid_mesh.n_vertices)) - expected
        assert all(v not in index for v in interior)

    def test_surface_ids_sorted(self, neuron_small):
        index = SurfaceIndex(neuron_small)
        ids = index.surface_ids()
        assert np.array_equal(ids, np.sort(ids))

    def test_build_time_recorded(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        assert index.build_time >= 0.0

    def test_memory_accounted(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        assert index.memory_bytes() > len(index) * 8


class TestProbe:
    def test_probe_finds_surface_vertices_in_box(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        counters = QueryCounters()
        # A slab hugging the x=0 face of the unit cube contains surface vertices.
        box = Box3D((0.0, 0.0, 0.0), (0.05, 1.0, 1.0))
        (outcome,) = index.probe_many([box], [counters])
        assert outcome.inside_ids.size > 0
        assert counters.surface_probed == len(index)
        positions = grid_mesh.vertices[outcome.inside_ids]
        assert np.all(positions[:, 0] <= 0.05)

    def test_probe_reports_closest_when_none_inside(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        # A small box strictly inside the cube, away from the surface lattice.
        box = Box3D.cube((0.5, 0.5, 0.5), 0.05)
        outcome = index.probe_many([box])[0]
        assert outcome.inside_ids.size == 0
        assert outcome.closest_id is not None
        assert outcome.closest_distance > 0

    def test_probe_uses_current_positions(self, grid_mesh):
        mesh = grid_mesh.copy()
        index = SurfaceIndex(mesh)
        box = Box3D((5.0, 5.0, 5.0), (6.0, 6.0, 6.0))
        assert index.probe_many([box])[0].inside_ids.size == 0
        # Deform the mesh so that some surface vertices move into the box.
        mesh.displace(np.full_like(mesh.vertices, 5.0))
        outcome = index.probe_many([box])[0]
        assert outcome.inside_ids.size > 0

    def test_probe_many_matches_per_box_probes(self, grid_mesh):
        """One broadcast probe equals width-1 probes box for box."""
        index = SurfaceIndex(grid_mesh)
        boxes = [
            Box3D((0.0, 0.0, 0.0), (0.05, 1.0, 1.0)),  # hits the x=0 face
            Box3D.cube((0.5, 0.5, 0.5), 0.05),  # interior: closest only
            Box3D.cube((3.0, 3.0, 3.0), 0.5),  # off the mesh: closest only
        ]
        batch_counters = [QueryCounters() for _ in boxes]
        batch = index.probe_many(boxes, batch_counters)
        for box, got, counters in zip(boxes, batch, batch_counters):
            single_counters = QueryCounters()
            (want,) = index.probe_many([box], [single_counters])
            assert np.array_equal(got.inside_ids, want.inside_ids)
            assert got.closest_id == want.closest_id
            assert got.closest_distance == want.closest_distance
            assert counters.as_dict() == single_counters.as_dict()
        assert batch_counters[0].probe_distance_computations == 0
        assert batch_counters[1].probe_distance_computations == len(index)

    def test_probe_after_deformation_needs_no_maintenance(self, neuron_small, rng):
        mesh = neuron_small.copy()
        index = SurfaceIndex(mesh)
        before = len(index)
        mesh.displace(rng.normal(scale=0.01, size=mesh.vertices.shape))
        assert not index.is_stale()
        assert len(index) == before


class TestMaintenance:
    def test_insert_and_remove(self, grid_mesh):
        index = SurfaceIndex(grid_mesh)
        # Vertices 0, 1, 2 lie on the lattice boundary and are surface vertices.
        ids = [0, 1, 2]
        assert index.remove(ids) == 3
        assert all(v not in index for v in ids)
        assert index.insert(ids) == 3
        # Idempotence: inserting again adds nothing, removing a non-member removes nothing.
        assert index.insert(ids) == 0
        assert index.remove([grid_mesh.n_vertices - 1, grid_mesh.n_vertices - 1]) <= 1

    def test_stale_after_restructuring_and_refresh(self, grid_mesh):
        mesh = grid_mesh.copy()
        index = SurfaceIndex(mesh)
        # Drop a batch of cells: the connectivity version changes and the
        # surface typically gains vertices.
        new_mesh, _ = remove_cells(mesh, np.arange(0, 30))
        mesh.replace_cells(new_mesh.cells)
        assert index.is_stale()
        with pytest.raises(SpatialIndexError):
            index.probe_many([mesh.bounding_box()])
        index.refresh_from_mesh()
        assert not index.is_stale()
        assert set(index.surface_ids().tolist()) == set(mesh.surface_vertices().tolist())

    def test_refresh_matches_restructuring_event(self, grid_mesh):
        mesh = grid_mesh.copy()
        index = SurfaceIndex(mesh)
        # Remove a batch of cells touching the boundary: interior vertices get exposed.
        new_mesh, event = remove_cells(mesh, np.arange(0, 60))
        mesh.replace_cells(new_mesh.cells)
        inserted, removed = index.refresh_from_mesh()
        assert inserted == event.inserted_surface_vertices.size
        assert removed == event.removed_surface_vertices.size
        assert set(index.surface_ids().tolist()) == set(mesh.surface_vertices().tolist())

    def test_dirty_narrowed_refresh_matches_full_refresh(self, grid_mesh):
        mesh_a = grid_mesh.copy()
        mesh_b = grid_mesh.copy()
        narrowed = SurfaceIndex(mesh_a)
        full = SurfaceIndex(mesh_b)
        new_mesh, event = remove_cells(mesh_a, np.arange(0, 60))
        mesh_a.replace_cells(new_mesh.cells)
        mesh_b.replace_cells(new_mesh.cells)
        # The membership changes are confined to the removed cells' vertices.
        dirty = np.unique(grid_mesh.cells[np.arange(0, 60)])
        inserted, removed = narrowed.refresh_from_mesh(dirty_ids=dirty)
        full_inserted, full_removed = full.refresh_from_mesh()
        assert inserted == full_inserted == event.inserted_surface_vertices.size
        assert removed == full_removed == event.removed_surface_vertices.size
        assert np.array_equal(narrowed.surface_ids(), full.surface_ids())
        assert not narrowed.is_stale()

    def test_dirty_refresh_with_no_changes_is_a_noop(self, grid_mesh):
        mesh = grid_mesh.copy()
        index = SurfaceIndex(mesh)
        before = index.surface_ids().copy()
        mesh.replace_cells(mesh.cells.copy())     # version bump, same surface
        inserted, removed = index.refresh_from_mesh(dirty_ids=np.arange(8))
        assert (inserted, removed) == (0, 0)
        assert np.array_equal(index.surface_ids(), before)
        assert not index.is_stale()

    def test_dirty_refresh_with_delta_arena_matches_isin_path(self, grid_mesh):
        from repro.core import CrawlScratch

        mesh_a = grid_mesh.copy()
        mesh_b = grid_mesh.copy()
        with_arena = SurfaceIndex(mesh_a)
        without = SurfaceIndex(mesh_b)
        new_mesh, _ = remove_cells(mesh_a, np.arange(0, 60))
        mesh_a.replace_cells(new_mesh.cells)
        mesh_b.replace_cells(new_mesh.cells)
        dirty = np.unique(grid_mesh.cells[np.arange(0, 60)])
        scratch = CrawlScratch()
        a = with_arena.refresh_from_mesh(dirty_ids=dirty, scratch=scratch)
        b = without.refresh_from_mesh(dirty_ids=dirty)
        assert a == b
        assert np.array_equal(with_arena.surface_ids(), without.surface_ids())
        assert scratch.delta_epoch == 1    # the arena really was used
