"""The common interface every range-query execution strategy implements.

The experiment harness drives OCTOPUS, OCTOPUS-CON and all baselines through
the same three-call protocol that mirrors the simulation timeline of
Figure 1(e):

1. :meth:`ExecutionStrategy.prepare` — once, after the mesh is loaded
   (preprocessing such as building the surface index or the initial R-tree;
   reported separately, not part of query response time, as in Section V-A);
2. :meth:`ExecutionStrategy.on_restructure` — after a simulation step
   *restructured* the mesh (cells split or removed, Section IV-E2; rare).
   The step's :class:`~repro.core.delta.TopologyDelta` — which vertices'
   index entries may have changed, how many vertices/cells appeared or
   vanished — is passed in, so strategies can splice the few affected
   entries instead of rebuilding over the whole mesh;
3. :meth:`ExecutionStrategy.on_step` — after every simulation step has
   updated the vertex positions (index maintenance or rebuild; *included*
   in the total query response time, as in Section V-A).  The step's
   :class:`~repro.core.delta.DeformationDelta` — which vertices moved, where
   from and where to — is passed in, so strategies with incremental
   maintenance pay a cost proportional to the motion, not the mesh size;
4. :meth:`ExecutionStrategy.query` / :meth:`ExecutionStrategy.query_many` —
   once per monitoring range query (or once per per-step batch).

Both maintenance hooks charge their seconds to ``maintenance_time`` and their
touched entries to ``maintenance_entries``, so the reported response time and
maintenance ledger cover deformation *and* restructuring work.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..mesh import Box3D, PolyhedralMesh
from .delta import DeformationDelta, TopologyDelta
from .result import QueryCounters, QueryResult

if TYPE_CHECKING:  # pragma: no cover - typing only (no runtime cycle)
    from .resilience import QueryBudget

__all__ = ["ExecutionStrategy", "StrategyWrapper"]


class ExecutionStrategy:
    """Base class for range-query execution strategies."""

    #: short machine-friendly identifier used in reports ("octopus", "linear-scan", ...)
    name: str = "strategy"

    def __init__(self) -> None:
        self._mesh: PolyhedralMesh | None = None
        #: seconds spent in prepare(); excluded from query response time
        self.preprocessing_time = 0.0
        #: cumulative seconds spent in on_step(); included in query response time
        self.maintenance_time = 0.0
        #: cumulative number of index entries touched by maintenance
        self.maintenance_entries = 0
        #: optional per-query resource limits
        #: (:class:`~repro.core.resilience.QueryBudget`); ``None`` = unbounded.
        #: OCTOPUS and OCTOPUS-CON enforce it inside their walk/crawl round
        #: loops; for other strategies wrap in
        #: :class:`~repro.core.resilience.ResilientStrategy` to get at least
        #: post-hoc enforcement via the degradation ladder.
        self.query_budget: "QueryBudget | None" = None

    def set_query_budget(self, budget: "QueryBudget | None") -> None:
        """Install (or clear) the per-query resource limits for this strategy."""
        self.query_budget = budget

    def _start_budget(self, step: int | None = None, query_index: int | None = None):
        """A fresh per-query tracker from :attr:`query_budget` (or ``None``)."""
        if self.query_budget is None:
            return None
        return self.query_budget.start(
            strategy=self.name, step=step, query_index=query_index
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def mesh(self) -> PolyhedralMesh:
        """The mesh this strategy was prepared on (raises before prepare())."""
        if self._mesh is None:
            raise RuntimeError(f"{self.name}: prepare() has not been called")
        return self._mesh

    def prepare(self, mesh: PolyhedralMesh) -> float:
        """Bind the strategy to a mesh and build any one-time structures.

        Returns the preprocessing time in seconds.
        """
        self._mesh = mesh
        self.preprocessing_time = self._build()
        return self.preprocessing_time

    def _build(self) -> float:
        """Hook for subclasses: build one-time structures, return seconds spent."""
        return 0.0

    def on_step(self, delta: DeformationDelta) -> float:
        """React to the simulation having updated vertex positions in place.

        ``delta`` describes the step's motion (moved vertex ids, old/new
        positions, dirty AABB — or the cheap whole-mesh fast path, see
        :class:`~repro.core.delta.DeformationDelta`).  Strategies with
        incremental maintenance key their work off it; strategies that
        rebuild may still skip the rebuild entirely when ``delta.n_moved``
        is zero.  **Contract:** incremental maintenance must leave the index
        able to answer every query with results bit-identical to a full
        recomputation (enforced by ``tests/test_maintenance_parity.py``).

        Returns the maintenance seconds spent for this step; the default is a
        no-op (OCTOPUS and the linear scan need no per-deformation
        maintenance).
        """
        return 0.0

    def on_restructure(self, delta: TopologyDelta) -> float:
        """React to the simulation having restructured the mesh connectivity.

        ``delta`` describes the step's topology change (dirty vertex ids,
        added/removed cell counts, appended vertex count, dirty AABB — or the
        delta-blind ``full()`` fast path, see
        :class:`~repro.core.delta.TopologyDelta`).  Strategies with
        incremental topology maintenance key their work off it: positions and
        pre-existing vertex ids are untouched by restructuring, so a
        removal-only delta costs a position index nothing, and appended
        vertices are a tail splice/insert.  A ``full()`` delta must be
        answered with whole-mesh maintenance (rebuild or full
        reconciliation); an ``empty()`` delta may be skipped.  **Contract:**
        after the call the strategy answers every query against the
        restructured mesh exactly; the parity tiers (which strategies
        additionally reproduce the full path's counters bit-for-bit) are
        enforced by ``tests/test_restructuring_parity.py``.

        Returns the maintenance seconds spent; the default is a no-op (the
        linear scan reads live positions and needs no structures at all).
        """
        return 0.0

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # query() and query_many() are defined through each other; a
        # strategy must implement at least one of them.
        if cls.query is ExecutionStrategy.query and cls.query_many is ExecutionStrategy.query_many:
            raise TypeError(f"{cls.__name__} must override query() or query_many()")

    def query(self, box: Box3D) -> QueryResult:
        """Answer one 3D range query against the current vertex positions.

        Defined as the width-1 batch, ``query_many([box])[0]``, so strategies
        with one query engine (OCTOPUS, OCTOPUS-CON) implement only
        :meth:`query_many`; the baselines override this method instead.
        """
        return self.query_many([box])[0]

    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        """Answer a batch of range queries against the current positions.

        Returns one :class:`QueryResult` per box, in order, identical to
        calling :meth:`query` once per box.  The base implementation is that
        loop; strategies with a vectorisable scan phase override it to
        amortise per-query NumPy dispatch across the whole batch (OCTOPUS
        fuses the surface probe, the walks *and* the crawls of the whole
        batch, the tree baselines share one index traversal, the linear scan
        tests all boxes against all vertices at once).

        **Failure contract (all-or-nothing):** if answering any box raises,
        the exception propagates and *no* results are returned — the
        :class:`QueryResult`\\ s (and their counters) of the boxes answered
        before the failure are discarded, never partially delivered.  Work
        counters live on those per-query results, so a failed batch leaves no
        half-accumulated counts behind; the strategy's cumulative accounting
        (``preprocessing_time``, ``maintenance_time``, ``maintenance_entries``)
        is never touched by a query batch and therefore keeps its pre-call
        values.  Internal scratch state (e.g. visited-arena epochs) may have
        advanced, which has no observable effect; callers who need the results
        of a partially failing batch must retry box by box via :meth:`query`.
        Overrides must preserve this contract.
        """
        box_list = list(boxes)
        results: list[QueryResult] = []
        for index, box in enumerate(box_list):
            try:
                results.append(self.query(box))
            except Exception as exc:
                if hasattr(exc, "add_note"):  # pragma: no branch - py3.11+
                    exc.add_note(
                        f"query_many: {self.name} failed on box {index} of "
                        f"{len(box_list)}; results of the {index} completed "
                        "queries were discarded (all-or-nothing contract)"
                    )
                raise
        return results

    def _shared_index_batch(
        self,
        boxes: Sequence[Box3D],
        run: Callable[[list[Box3D], list[QueryCounters]], list[np.ndarray]],
    ) -> list[QueryResult]:
        """Common ``query_many`` shape for the index-based strategies.

        ``run(box_list, counters_list)`` answers the whole batch with one
        shared traversal of the strategy's index, returning one vertex-id
        array per box and filling one counter record per box.  The shared
        traversal's wall-clock is apportioned evenly across the batch; single
        boxes short-circuit to :meth:`query` so the sequential code stays the
        single source of truth for that case.
        """
        box_list = list(boxes)
        if len(box_list) <= 1:
            return [self.query(box) for box in box_list]
        counters_list = [QueryCounters() for _ in box_list]
        start = time.perf_counter()
        ids_list = run(box_list, counters_list)
        elapsed = (time.perf_counter() - start) / len(box_list)
        return [
            QueryResult(vertex_ids=ids, counters=counters, index_time=elapsed, total_time=elapsed)
            for ids, counters in zip(ids_list, counters_list)
        ]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        """Bytes of auxiliary structures beyond the mesh itself (0 by default)."""
        return 0

    def describe(self) -> dict:
        """Small metadata record used by reports."""
        return {
            "name": self.name,
            "preprocessing_time": self.preprocessing_time,
            "maintenance_time": self.maintenance_time,
            "memory_overhead_bytes": self.memory_overhead_bytes(),
        }


class StrategyWrapper(ExecutionStrategy):
    """Base class for strategies that decorate another strategy.

    The repo grows wrappers — the resilience ladder
    (:class:`~repro.core.resilience.ResilientStrategy`), the delta-invalidated
    result cache (:class:`~repro.cache.CachingStrategy`) — and each one must
    forward the full lifecycle protocol *and* keep the accounting ledger
    single-sourced.  This base centralises both so a wrapper subclass only
    overrides the calls it actually changes:

    * **lifecycle forwarding** — :meth:`prepare`, :meth:`on_step`,
      :meth:`on_restructure`, :meth:`query`, :meth:`query_many`,
      :meth:`memory_overhead_bytes` and :meth:`describe` all delegate to
      :attr:`inner`;
    * **counter/ledger passthrough** — ``preprocessing_time``,
      ``maintenance_time``, ``maintenance_entries``, ``query_budget`` and
      ``last_fused_crawl`` are forwarding properties, so there is exactly one
      ledger no matter how deep the wrapper stack is and
      ``ResilientStrategy(CachingStrategy(octopus)).maintenance_time`` reads
      the same number at every level;
    * **event plumbing** — :meth:`note_step`,
      :meth:`drain_degradation_events`, :meth:`drain_cache_stats` and
      :meth:`drain_standing_stats` forward duck-typed, so a drain hook
      defined anywhere in the stack is reachable from the outermost wrapper
      (the simulator only talks to that one).

    Wrapping an already-prepared strategy preserves its accounting and
    budget: the constructor snapshots them around ``super().__init__()``
    because the base initialiser assigns the accounting attributes *through*
    the forwarding properties, which would otherwise zero the inner ledger.

    Use :func:`repro.build_strategy` to compose wrapper stacks by name
    instead of hand-nesting constructors.
    """

    def __init__(self, inner: ExecutionStrategy) -> None:
        self.inner = inner
        snapshot = (
            inner.preprocessing_time,
            inner.maintenance_time,
            inner.maintenance_entries,
            getattr(inner, "query_budget", None),
        )
        super().__init__()
        inner.preprocessing_time = snapshot[0]
        inner.maintenance_time = snapshot[1]
        inner.maintenance_entries = snapshot[2]
        inner.query_budget = snapshot[3]
        self.name = inner.name

    def unwrap(self) -> ExecutionStrategy:
        """The innermost (unwrapped) strategy of this wrapper stack."""
        strategy: ExecutionStrategy = self.inner
        while isinstance(strategy, StrategyWrapper):
            strategy = strategy.inner
        return strategy

    # -- counter/ledger passthrough (single ledger per wrapper stack) ----
    @property
    def preprocessing_time(self) -> float:
        return self.inner.preprocessing_time

    @preprocessing_time.setter
    def preprocessing_time(self, value: float) -> None:
        self.inner.preprocessing_time = value

    @property
    def maintenance_time(self) -> float:
        return self.inner.maintenance_time

    @maintenance_time.setter
    def maintenance_time(self, value: float) -> None:
        self.inner.maintenance_time = value

    @property
    def maintenance_entries(self) -> int:
        return self.inner.maintenance_entries

    @maintenance_entries.setter
    def maintenance_entries(self, value: int) -> None:
        self.inner.maintenance_entries = value

    @property
    def query_budget(self) -> "QueryBudget | None":
        return getattr(self.inner, "query_budget", None)

    @query_budget.setter
    def query_budget(self, budget: "QueryBudget | None") -> None:
        self.inner.query_budget = budget

    @property
    def last_fused_crawl(self):
        """Fused-batch accounting of the inner strategy's last query_many."""
        return getattr(self.inner, "last_fused_crawl", None)

    @last_fused_crawl.setter
    def last_fused_crawl(self, value) -> None:
        if hasattr(self.inner, "last_fused_crawl"):
            self.inner.last_fused_crawl = value

    # -- event plumbing (duck-typed, reachable through the whole stack) --
    def note_step(self, step: int | None) -> None:
        """Tag subsequent events with the simulation step (forwarded)."""
        inner_note = getattr(self.inner, "note_step", None)
        if inner_note is not None:
            inner_note(step)

    def drain_degradation_events(self) -> list:
        """Return and clear fallback events recorded anywhere in the stack."""
        drain = getattr(self.inner, "drain_degradation_events", None)
        return drain() if drain is not None else []

    def drain_cache_stats(self):
        """Return and reset cache statistics recorded anywhere in the stack.

        ``None`` when no layer of the stack maintains a result cache, so
        report code can distinguish "no cache" from "cache, zero traffic".
        """
        drain = getattr(self.inner, "drain_cache_stats", None)
        return drain() if drain is not None else None

    def drain_standing_stats(self):
        """Return and reset standing-query statistics recorded in the stack.

        ``None`` when no layer of the stack maintains a standing-query
        registry, so report code can distinguish "no subscriptions possible"
        from "registry, zero traffic".
        """
        drain = getattr(self.inner, "drain_standing_stats", None)
        return drain() if drain is not None else None

    # -- lifecycle forwarding --------------------------------------------
    @property
    def mesh(self) -> PolyhedralMesh:
        return self.inner.mesh

    def prepare(self, mesh: PolyhedralMesh) -> float:
        self._mesh = mesh
        return self.inner.prepare(mesh)

    def on_step(self, delta: DeformationDelta) -> float:
        return self.inner.on_step(delta)

    def on_restructure(self, delta: TopologyDelta) -> float:
        return self.inner.on_restructure(delta)

    def query(self, box: Box3D) -> QueryResult:
        return self.inner.query(box)

    def query_many(self, boxes: Sequence[Box3D]) -> list[QueryResult]:
        return self.inner.query_many(boxes)

    # -- accounting ------------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        return self.inner.memory_overhead_bytes()

    def describe(self) -> dict:
        return self.inner.describe()
