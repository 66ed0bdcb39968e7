"""The OCTOPUS query execution strategy (Section IV, Algorithm 1).

A query is answered in three phases:

1. **Surface probe** — every vertex in the surface index is tested against the
   query box; the ones inside become crawl start vertices.  If none is inside,
   the probe also reports the surface vertex closest to the box.
2. **Directed walk** — only when the probe found no start vertex: walk from
   the closest surface vertex greedily towards the box.  Reaching a vertex
   inside the box yields a single start vertex; getting stuck means the query
   does not intersect the mesh and the result is empty.
3. **Crawling** — breadth-first traversal of mesh edges from the start
   vertices, restricted to the query box.

Because phases 1–3 read vertex positions directly from the mesh at query time,
OCTOPUS needs **no maintenance whatsoever** when the simulation deforms the
mesh; only the rare restructuring of connectivity requires updating the
surface index (handled in :meth:`OctopusExecutor.on_step`).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..errors import QueryError
from ..kernels import KernelBackend, get_backend
from ..mesh import Box3D
from .crawler import BatchCrawlOutcome
from .delta import DeformationDelta, TopologyDelta
from .directed_walk import walk_then_crawl
from .executor import ExecutionStrategy
from .resilience import check_query_boxes
from .result import QueryCounters, QueryResult
from .scratch import CrawlScratch, ThreadLocalScratch
from .surface_index import SurfaceIndex

__all__ = ["OctopusExecutor"]


class OctopusExecutor(ExecutionStrategy):
    """Range-query execution on dynamic meshes via surface probe + crawl.

    Parameters
    ----------
    surface_sample_fraction:
        Optional surface-approximation factor in (0, 1]: probe only this
        fraction of the surface vertices (chosen uniformly at random once, at
        prepare time).  ``None`` or 1.0 probes the full surface and guarantees
        exact results (Section IV-H2 / Figure 12 trade accuracy for speed).
    seed:
        Seed for the approximation sample.
    kernels:
        Kernel backend for the batched hot loops — a
        :class:`~repro.kernels.KernelBackend`, a spec string (``"numpy"``
        or ``"numba"``), or ``None`` to consult the ``REPRO_KERNEL_BACKEND``
        environment variable (default NumPy).  Single-box walks and crawls
        take the engine's one-query branches, which always run NumPy.
    """

    name = "octopus"

    def __init__(
        self,
        surface_sample_fraction: float | None = None,
        seed: int = 0,
        kernels: KernelBackend | str | None = None,
    ) -> None:
        super().__init__()
        if surface_sample_fraction is not None and not 0.0 < surface_sample_fraction <= 1.0:
            raise QueryError("surface_sample_fraction must lie in (0, 1]")
        self.surface_sample_fraction = surface_sample_fraction
        self.seed = seed
        self.kernels = get_backend(kernels)
        self._surface_index: SurfaceIndex | None = None
        self._probe_ids: np.ndarray | None = None
        #: per-thread crawl arenas (epoch-stamped visited + buffers); one
        #: CrawlScratch per thread keeps concurrent queries off each other's
        #: stamps — see the thread-safety contract in repro.core.scratch
        self._scratch = ThreadLocalScratch()
        #: fused-crawl accounting of the most recent query_many() batch
        self.last_fused_crawl: BatchCrawlOutcome | None = None

    @property
    def scratch(self) -> CrawlScratch:
        """The calling thread's crawl arena (created on first use)."""
        return self._scratch.get()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _build(self) -> float:
        start = time.perf_counter()
        self._surface_index = SurfaceIndex(self.mesh)
        self._refresh_probe_sample()
        return time.perf_counter() - start

    def _refresh_probe_sample(self) -> None:
        """Recompute which surface vertices the probe will examine."""
        assert self._surface_index is not None
        ids = self._surface_index.surface_ids()
        if self.surface_sample_fraction is None or self.surface_sample_fraction >= 1.0:
            self._probe_ids = ids
            return
        rng = np.random.default_rng(self.seed)
        sample_size = max(1, int(round(ids.size * self.surface_sample_fraction)))
        self._probe_ids = np.sort(rng.choice(ids, size=sample_size, replace=False))

    @property
    def surface_index(self) -> SurfaceIndex:
        """The surface index built at prepare time (raises before prepare())."""
        if self._surface_index is None:
            raise RuntimeError("octopus: prepare() has not been called")
        return self._surface_index

    @property
    def is_approximate(self) -> bool:
        """True when the probe examines only a sample of the surface."""
        return self.surface_sample_fraction is not None and self.surface_sample_fraction < 1.0

    def on_step(self, delta: DeformationDelta) -> float:
        """Maintenance after a simulation step.

        Mesh *deformation* requires nothing, however many vertices the delta
        reports moved: the surface index stores ids, not positions.  If the
        mesh was restructured since the index was built *without* the event
        pipeline announcing it (no :meth:`on_restructure` call), the surface
        index is reconciled here with a whole-surface diff — the safety net
        for ad-hoc ``replace_cells`` flows; event-driven restructuring goes
        through :meth:`on_restructure`, which narrows the reconciliation to
        the event's dirty ids.
        """
        if self._surface_index is None or not self._surface_index.is_stale():
            return 0.0
        start = time.perf_counter()
        inserted, removed = self._surface_index.refresh_from_mesh()
        self._refresh_probe_sample()
        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        self.maintenance_entries += inserted + removed
        return elapsed

    def on_restructure(self, delta: TopologyDelta) -> float:
        """Reconcile the surface index with a restructuring event.

        The paper's hash-table maintenance: individual vertex ids are
        inserted into or removed from the surface table.  A sparse delta
        narrows the reconciliation to its dirty ids (every surface-membership
        change lies inside them, see
        :class:`~repro.core.delta.TopologyDelta`), through the scratch's
        epoch-stamped delta arena, so the index work is proportional to the
        event — only the mesh-side surface re-extraction remains global.  A
        full delta falls back to the whole-surface diff, as does an index
        more than one connectivity version behind or an *empty* delta on a
        stale index (either way someone mutated connectivity outside the
        event pipeline, and those changes' membership flips can lie outside
        this event's dirty set — see :meth:`SurfaceIndex.versions_behind`).
        Every path leaves the identical table, hence bit-identical queries
        and counters.  The probe sample is re-drawn either way (the surface
        id set may have changed).
        """
        if self._surface_index is None:
            return 0.0
        if delta.is_empty and not self._surface_index.is_stale():
            return 0.0
        start = time.perf_counter()
        if delta.is_full or delta.is_empty or self._surface_index.versions_behind() > 1:
            inserted, removed = self._surface_index.refresh_from_mesh()
        else:
            inserted, removed = self._surface_index.refresh_from_mesh(
                dirty_ids=delta.dirty_ids, scratch=self.scratch
            )
        self._refresh_probe_sample()
        elapsed = time.perf_counter() - start
        self.maintenance_time += elapsed
        self.maintenance_entries += inserted + removed
        return elapsed

    # ------------------------------------------------------------------
    # query execution (Algorithm 1)
    # ------------------------------------------------------------------
    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        """Algorithm 1 for a batch of any width: probe, fused walks, fused crawl.

        The surface is tested against *all* query boxes in one broadcast
        probe (:meth:`~repro.core.surface_index.SurfaceIndex.probe_many`);
        the directed walks of all probe misses advance in lockstep through
        one fused beam walk
        (:func:`~repro.core.directed_walk.directed_walk_many`), and the
        crawls of the whole batch are fused into one shared-frontier BFS
        (:func:`~repro.core.crawler.crawl_many`) so overlapping boxes share
        CSR gathers and position tests.  A single box takes the engine's
        one-query branches, and :meth:`query` is this method at width 1, so
        per-box results and counters do not depend on the batch they came
        in.  The shared probe, walk and crawl wall-clock is apportioned
        evenly across the batch (walk time across the boxes that walked).

        When a :attr:`~repro.core.executor.ExecutionStrategy.query_budget` is
        installed, one tracker per box meters its walk and crawl together
        (the probe is bounded by the surface size and stays unbudgeted).
        """
        box_list = check_query_boxes(boxes)
        self.last_fused_crawl = None  # set again below iff this batch crawls
        if not box_list:
            return []
        counters_list = [QueryCounters() for _ in box_list]

        # Phase 1: surface probe over the (possibly sampled) surface vertex set.
        probe_start = time.perf_counter()
        probes = self.surface_index.probe_many(
            box_list, counters_list, ids=self._probe_ids, kernels=self.kernels
        )
        # The probe cost is shared by the whole batch; apportion it evenly.
        probe_time = (time.perf_counter() - probe_start) / len(box_list)

        # Phase 2 fused across the probe misses, then phase 3 fused across the
        # whole batch.
        budgets = None
        if self.query_budget is not None:
            budgets = [self._start_budget(query_index=i) for i in range(len(box_list))]
        results, self.last_fused_crawl = walk_then_crawl(
            self.mesh,
            box_list,
            [probe.closest_id for probe in probes],
            [probe.inside_ids for probe in probes],
            counters_list,
            [probe_time] * len(box_list),
            self.scratch,
            budgets,
            kernels=self.kernels,
        )
        return results

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        """Surface index plus the reusable crawl scratch arena."""
        if self._surface_index is None:
            return 0
        return self._surface_index.memory_bytes() + self._scratch.expected_bytes(self.mesh.n_vertices)
