"""The surface index (Section IV-E).

OCTOPUS's only auxiliary data structure is a hash table of the vertices on the
mesh surface.  It is built once from the global face list, is completely
oblivious to vertex positions (so mesh deformation never requires
maintenance), and only changes when the mesh is *restructured* — cells are
split or merged — in which case individual vertex ids are inserted into or
removed from the table.

The implementation keeps two views of the same set:

* ``_table`` — a Python dict keyed by vertex id, mirroring the paper's hash
  table of pointers and giving O(1) insert/delete/membership;
* ``_ids_cache`` — a NumPy array of the ids, rebuilt lazily after
  modifications, which lets the surface probe gather all surface positions in
  one vectorised operation and test them against a whole batch of boxes.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from ..errors import SpatialIndexError
from ..kernels import KernelBackend, get_backend
from ..mesh import (
    Box3D,
    PolyhedralMesh,
    box_batch_chunk,
    boxes_to_arrays,
    points_boxes_distance_sq,
)
from .result import QueryCounters
from .scratch import CrawlScratch

__all__ = ["SurfaceIndex", "SurfaceProbeOutcome"]


class SurfaceProbeOutcome:
    """Result of probing the surface against one query box (see
    :meth:`SurfaceIndex.probe_many`).

    Attributes
    ----------
    inside_ids:
        Surface vertex ids whose current position lies inside the query.
    closest_id:
        The surface vertex closest to the query (only computed when no surface
        vertex is inside, mirroring Algorithm 1), else ``None``.
    closest_distance:
        Distance of ``closest_id`` to the query box.
    """

    __slots__ = ("inside_ids", "closest_id", "closest_distance")

    def __init__(
        self, inside_ids: np.ndarray, closest_id: int | None, closest_distance: float
    ) -> None:
        self.inside_ids = inside_ids
        self.closest_id = closest_id
        self.closest_distance = closest_distance


class SurfaceIndex:
    """Hash-table index over the vertices of the mesh surface."""

    def __init__(self, mesh: PolyhedralMesh) -> None:
        self._mesh = mesh
        start = time.perf_counter()
        surface_ids = mesh.surface_vertices()
        self._table: dict[int, bool] = {int(v): True for v in surface_ids}
        self._ids_cache: np.ndarray | None = np.asarray(surface_ids, dtype=np.int64)
        self._connectivity_version = mesh.connectivity_version
        #: seconds spent building the index (reported as preprocessing time)
        self.build_time = time.perf_counter() - start

    # ------------------------------------------------------------------
    # contents
    # ------------------------------------------------------------------
    @property
    def mesh(self) -> PolyhedralMesh:
        """The mesh this index was built over."""
        return self._mesh

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, vertex_id: int) -> bool:
        return int(vertex_id) in self._table

    def surface_ids(self) -> np.ndarray:
        """The surface vertex ids as a sorted NumPy array (cached)."""
        if self._ids_cache is None:
            ids = np.fromiter(self._table.keys(), dtype=np.int64, count=len(self._table))
            ids.sort()
            self._ids_cache = ids
        return self._ids_cache

    def memory_bytes(self) -> int:
        """Approximate footprint: one hash entry plus one cached id per vertex."""
        # A CPython dict entry costs ~100 bytes; the id cache costs 8 bytes/entry.
        return len(self._table) * 100 + len(self._table) * 8

    # ------------------------------------------------------------------
    # maintenance (only needed on mesh restructuring)
    # ------------------------------------------------------------------
    def insert(self, vertex_ids: Iterable[int]) -> int:
        """Insert vertices that joined the surface; returns how many were new."""
        added = 0
        for vertex_id in vertex_ids:
            key = int(vertex_id)
            if key not in self._table:
                self._table[key] = True
                added += 1
        if added:
            self._ids_cache = None
        return added

    def remove(self, vertex_ids: Iterable[int]) -> int:
        """Remove vertices that left the surface; returns how many were present."""
        removed = 0
        for vertex_id in vertex_ids:
            if self._table.pop(int(vertex_id), None) is not None:
                removed += 1
        if removed:
            self._ids_cache = None
        return removed

    def refresh_from_mesh(
        self,
        dirty_ids: np.ndarray | None = None,
        scratch: CrawlScratch | None = None,
    ) -> tuple[int, int]:
        """Reconcile the index with the mesh after a restructuring event.

        Computes the difference between the current table and the mesh's
        recomputed surface and applies the minimal set of inserts and deletes
        (the paper's hash-table maintenance).  Returns ``(inserted, removed)``.

        ``dirty_ids`` narrows the reconciliation to the given vertex ids —
        for localized restructuring events (the dirty set of a
        :class:`~repro.core.delta.TopologyDelta`, i.e. the affected cells'
        vertices plus any inserted centroids) only the dirty vertices'
        membership is diffed, instead of a whole-surface set difference.  The
        caller guarantees that every membership change lies inside
        ``dirty_ids``; vertices outside it are assumed unchanged (their
        entries are kept as they are).  The dirty-membership test
        binary-searches the fresh surface array (sorted by the extraction
        contract) — O(k log s) for k dirty vertices on an s-vertex surface,
        allocating nothing proportional to the surface; for *large* dirty
        sets ``scratch`` supplies the epoch-stamped delta arena
        (:meth:`~repro.core.scratch.CrawlScratch.acquire_delta`), whose one
        stamp pass and one gather beat k binary searches once k approaches
        the surface size.  The sorted id cache is spliced in place on the
        narrowed path (two ``searchsorted`` passes over the few changed
        ids), so the next probe never pays the whole-surface re-sort the
        lazy rebuild would cost.
        """
        # Sorted unique by the surface-extraction contract (np.unique over
        # the boundary faces); both the full path's set algebra and the
        # narrowed path's binary searches rely on it.
        fresh = np.asarray(self._mesh.surface_vertices(), dtype=np.int64)
        if dirty_ids is None:
            current = self.surface_ids()
            inserted = self.insert(np.setdiff1d(fresh, current, assume_unique=True))
            removed = self.remove(np.setdiff1d(current, fresh, assume_unique=True))
            # Both diffs were applied, so the fresh surface *is* the new id set.
            self._ids_cache = fresh
        else:
            dirty = np.unique(np.asarray(dirty_ids, dtype=np.int64))
            if fresh.size == 0:
                on_surface = np.zeros(dirty.size, dtype=bool)
            elif scratch is not None and dirty.size * 8 > fresh.size:
                stamps, epoch = scratch.acquire_delta(self._mesh.n_vertices)
                stamps[fresh] = epoch
                on_surface = stamps[dirty] == epoch
            else:
                slots = np.minimum(np.searchsorted(fresh, dirty), fresh.size - 1)
                on_surface = fresh[slots] == dirty
            cache = self._ids_cache
            to_insert = np.asarray(
                [v for v in dirty[on_surface] if int(v) not in self._table], dtype=np.int64
            )
            to_remove = np.asarray(
                [v for v in dirty[~on_surface] if int(v) in self._table], dtype=np.int64
            )
            inserted = self.insert(to_insert)
            removed = self.remove(to_remove)
            if cache is not None:
                # Splice the (sorted, deduplicated) changes into the sorted
                # cache instead of re-sorting the whole table lazily.
                if to_remove.size:
                    cache = np.delete(cache, np.searchsorted(cache, to_remove))
                if to_insert.size:
                    cache = np.insert(cache, np.searchsorted(cache, to_insert), to_insert)
                self._ids_cache = cache
        self._connectivity_version = self._mesh.connectivity_version
        return inserted, removed

    def is_stale(self) -> bool:
        """True when the mesh connectivity changed since the last refresh."""
        return self._connectivity_version != self._mesh.connectivity_version

    def versions_behind(self) -> int:
        """Connectivity bumps the index has not reconciled yet.

        One restructuring event corresponds to exactly one bump, so a caller
        holding a single event's dirty set may narrow the reconciliation only
        when this is at most 1 — a larger gap means additional, unannounced
        connectivity changes whose membership flips can lie outside the
        event's dirty ids, and only a whole-surface refresh is safe.
        """
        return self._mesh.connectivity_version - self._connectivity_version

    # ------------------------------------------------------------------
    # the surface probe (Section IV-C)
    # ------------------------------------------------------------------
    def probe_many(
        self,
        boxes: Sequence[Box3D],
        counters_list: Sequence[QueryCounters] | None = None,
        ids: np.ndarray | None = None,
        kernels: KernelBackend | None = None,
    ) -> list[SurfaceProbeOutcome]:
        """Split the surface vertices into inside / closest-outside, per box.

        One broadcast membership test covers the whole batch (chunked over
        the box axis to bound the ``(boxes, surface)`` intermediates); only
        the boxes that contain no surface vertex pay the closest-vertex
        pass.  The probe always reads the *current* vertex positions from the
        mesh, so it is correct regardless of how far vertices moved since the
        index was built.

        Parameters
        ----------
        boxes:
            The query boxes (any number, including one).
        counters_list:
            Optional per-box counter records updated in place: every box is
            charged the probed vertices, and every miss one distance
            evaluation per probed vertex for its closest-vertex pass.
        ids:
            Optional subset of surface vertex ids to probe instead of the full
            surface (used by the approximate executor, which probes a fixed
            random sample).  Defaults to :meth:`surface_ids`.
        kernels:
            Backend running the membership test (NumPy when omitted).

        Raises :class:`~repro.errors.SpatialIndexError` when the mesh was
        restructured since the last refresh.  A surface-less mesh probes
        nothing: every box gets no inside ids and no closest vertex.
        """
        if self.is_stale():
            raise SpatialIndexError(
                "surface index is stale: the mesh was restructured; call refresh_from_mesh()"
            )
        if ids is None:
            ids = self.surface_ids()
        box_list = list(boxes)
        n_probed = int(ids.size)
        if counters_list is not None:
            for counters in counters_list:
                counters.surface_probed += n_probed
        if n_probed == 0:
            return [
                SurfaceProbeOutcome(np.empty(0, dtype=np.int64), None, float("inf"))
                for _ in box_list
            ]
        if kernels is None:
            kernels = get_backend("numpy")
        los, his = boxes_to_arrays(box_list)
        positions = self._mesh.vertices[ids]
        no_ids = np.empty(0, dtype=np.int64)
        outcomes: list[SurfaceProbeOutcome] = []
        chunk = box_batch_chunk(n_probed)
        for lo_index in range(0, len(box_list), chunk):
            hi_index = min(lo_index + chunk, len(box_list))
            inside = kernels.points_in_boxes(
                positions, los[lo_index:hi_index], his[lo_index:hi_index]
            )
            hits = inside.any(axis=1)
            misses = np.nonzero(~hits)[0]
            if misses.size:
                # Squared distances keep the argmin and skip the square root
                # over the whole surface.
                distances_sq = points_boxes_distance_sq(
                    positions, los[lo_index + misses], his[lo_index + misses]
                )
                nearest = np.argmin(distances_sq, axis=1)
            miss_rank = np.cumsum(~hits) - 1
            for row in range(hi_index - lo_index):
                if hits[row]:
                    outcomes.append(SurfaceProbeOutcome(ids[inside[row]], None, 0.0))
                    continue
                k = miss_rank[row]
                outcomes.append(
                    SurfaceProbeOutcome(
                        no_ids,
                        int(ids[nearest[k]]),
                        float(np.sqrt(distances_sq[k, nearest[k]])),
                    )
                )
                if counters_list is not None:
                    counters_list[lo_index + row].probe_distance_computations += n_probed
        return outcomes
