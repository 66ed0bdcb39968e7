"""Reusable per-executor scratch memory for the query hot path.

The crawl needs a "have I visited this vertex?" test over all mesh vertices.
Allocating (and zeroing) a fresh boolean array per query re-introduces an
O(n_vertices) term into every query — exactly the dataset-size dependence the
crawl is designed to avoid (Section IV claims cost proportional to selectivity
and mesh degree only).  :class:`CrawlScratch` removes it with the classic
epoch-stamping trick, applied to a *(vertex, query-bitset)* arena: one
persistent ``int32`` array holds, per vertex, the epoch of the last batch that
visited it, and a row of ``uint64`` words records which queries of that batch
did (bit ``q`` of word ``q // 64`` for query ``q``).  A stale stamp means the
row is garbage and is treated as all-zeros, so starting a new batch is a
single integer increment — no clearing, no allocation.  The word axis widens
on demand, so one fused crawl serves arbitrarily large batches — there is no
64-query ceiling.  A width-1 crawl needs no ownership bits and reads the
stamps alone.

The arena also keeps a growable identity ramp (``0, 1, 2, ...``) that the
CSR neighbour gather slices instead of re-materialising ``np.arange`` per
frontier expansion.

The fused directed walk keeps its per-query state (best distance, best
vertex, step counts, frontier slots) in a :class:`WalkArena` owned by the
scratch, so batched walks allocate nothing per call either.

Delta-aware maintenance reuses the same trick through a third epoch-stamped
arena (:meth:`CrawlScratch.acquire_delta`): incremental index updates need a
"is this vertex in the moved set?" test over all mesh vertices (e.g. the
grid relocation filtering departing members out of its CSR arrays), and the
delta arena provides it as a single epoch increment per step — no per-step
boolean allocation, no clearing.

A scratch instance is owned by one thread at a time and is **not**
thread-safe; two concurrent queries must use two scratches.  The contract is
enforced: the crawl and walk round loops re-check the arena epoch every round
and raise :class:`~repro.errors.ConcurrencyError` when another acquisition
moved it mid-query (the signature of a second thread sharing the arena), and
executors route concurrent callers onto distinct arenas through
:class:`ThreadLocalScratch`, which lazily grows one :class:`CrawlScratch`
per worker thread.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import ConcurrencyError

__all__ = ["CrawlScratch", "ThreadLocalScratch", "WalkArena"]

#: stamp value reserved for "never visited" (fresh arenas are zero-filled)
_NEVER = 0
_EPOCH_LIMIT = np.iinfo(np.int32).max - 1


class WalkArena:
    """Per-query state arrays for the fused directed walk.

    One row per query of the current batch; all arrays are overwritten by
    :func:`~repro.core.directed_walk.directed_walk_many` at batch start, so no
    epoch guard is needed.  ``frontier`` holds up to ``beam_width`` candidate
    vertices per query (``frontier_len`` of them valid), ``best_distance`` /
    ``best_id`` the closest vertex seen so far, ``found`` the vertex reached
    inside the box (-1 while searching), and ``n_steps`` / ``n_distance`` the
    per-query work counters the sequential walk would have reported.
    """

    __slots__ = (
        "best_distance",
        "best_id",
        "found",
        "n_steps",
        "n_distance",
        "active",
        "frontier",
        "frontier_len",
        "generation",
    )

    def __init__(self) -> None:
        self.best_distance = np.empty(0, dtype=np.float64)
        self.best_id = np.empty(0, dtype=np.int64)
        self.found = np.empty(0, dtype=np.int64)
        self.n_steps = np.empty(0, dtype=np.int64)
        self.n_distance = np.empty(0, dtype=np.int64)
        self.active = np.empty(0, dtype=bool)
        self.frontier = np.empty((0, 1), dtype=np.int64)
        self.frontier_len = np.empty(0, dtype=np.int64)
        #: bumped by every :meth:`~CrawlScratch.acquire_walk`; the fused walk
        #: re-checks it each round to detect a second thread taking the arena
        self.generation = 0

    def check_generation(self, generation: int) -> None:
        """Assert the arena still belongs to the walk batch that acquired it."""
        if self.generation != generation:
            raise ConcurrencyError(
                f"WalkArena re-acquired mid-batch (generation moved "
                f"{generation} -> {self.generation}); a scratch serves one thread "
                "at a time — use one scratch per thread (see ThreadLocalScratch)"
            )

    def reserve(self, n_queries: int, beam_width: int) -> None:
        """Grow the per-query rows to cover ``n_queries`` × ``beam_width``."""
        if self.best_distance.size < n_queries:
            capacity = max(n_queries, 2 * self.best_distance.size)
            self.best_distance = np.empty(capacity, dtype=np.float64)
            self.best_id = np.empty(capacity, dtype=np.int64)
            self.found = np.empty(capacity, dtype=np.int64)
            self.n_steps = np.empty(capacity, dtype=np.int64)
            self.n_distance = np.empty(capacity, dtype=np.int64)
            self.active = np.empty(capacity, dtype=bool)
            self.frontier_len = np.empty(capacity, dtype=np.int64)
        rows, cols = self.frontier.shape
        if rows < self.best_distance.size or cols < beam_width:
            self.frontier = np.empty(
                (self.best_distance.size, max(beam_width, cols)), dtype=np.int64
            )

    def memory_bytes(self) -> int:
        """Current footprint of the per-query walk state arrays."""
        return int(
            self.best_distance.nbytes
            + self.best_id.nbytes
            + self.found.nbytes
            + self.n_steps.nbytes
            + self.n_distance.nbytes
            + self.active.nbytes
            + self.frontier.nbytes
            + self.frontier_len.nbytes
        )


class CrawlScratch:
    """Epoch-stamped visited arena plus reusable gather buffers.

    Usage::

        stamps, words, epoch = scratch.acquire_batch(mesh.n_vertices)
        stamps[v] = epoch            # mark v visited
        stamps[ids] == epoch         # visited test, vectorised

    ``acquire_batch`` starts a new batch: it bumps the epoch (making every
    previous stamp stale at zero cost) and grows the arena if the mesh gained
    vertices since the last batch (e.g. after a restructuring step).
    """

    __slots__ = (
        "_iota",
        "_batch_stamps",
        "_batch_words",
        "_batch_epoch",
        "_walk_arena",
        "_delta_stamps",
        "_delta_epoch",
    )

    def __init__(self) -> None:
        self._iota = np.empty(0, dtype=np.int64)
        self._batch_stamps = np.empty(0, dtype=np.int32)
        self._batch_words = np.empty((0, 1), dtype=np.uint64)
        self._batch_epoch = _NEVER
        self._walk_arena = WalkArena()
        self._delta_stamps = np.empty(0, dtype=np.int32)
        self._delta_epoch = _NEVER

    # ------------------------------------------------------------------
    # the (vertex, query-bitset) batch arena
    # ------------------------------------------------------------------
    @property
    def batch_epoch(self) -> int:
        """Epoch of the most recent :meth:`acquire_batch` (0 before any batch)."""
        return self._batch_epoch

    def acquire_batch(
        self, n_vertices: int, n_words: int = 1
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Begin a fused multi-query group; returns ``(stamps, words, epoch)``.

        ``words[v]`` is a row of ``n_words`` ``uint64`` bitset words whose bit
        ``q % 64`` of word ``q // 64`` means "vertex ``v`` was visited by
        query ``q`` of the current group" — but only where
        ``stamps[v] == epoch``; a stale stamp marks the row as garbage from an
        earlier group, to be treated as all-zeros and overwritten.  Starting a
        group is a single epoch increment: the words are never cleared
        (``np.empty`` on growth), only the ``int32`` stamp array pays a bulk
        clear on growth or on epoch rollover.  A width-1 crawl uses the
        stamps alone and never touches the words.

        The word axis grows to the widest batch seen so far, so the ownership
        bitsets have no intrinsic query-count limit; memory scales as
        ``8 * n_vertices * ceil(n_queries / 64)`` bytes.
        """
        if n_words < 1:
            raise ValueError("acquire_batch: n_words must be at least 1")
        if self._batch_stamps.size < n_vertices or self._batch_words.shape[1] < n_words:
            if self._batch_stamps.size < n_vertices:
                capacity = max(n_vertices, 2 * self._batch_stamps.size)
            else:
                # Widening only the word axis keeps the current row capacity —
                # doubling rows is for vertex growth, not wider batches.
                capacity = self._batch_stamps.size
            word_capacity = max(n_words, self._batch_words.shape[1])
            self._batch_stamps = np.zeros(capacity, dtype=np.int32)
            self._batch_words = np.empty((capacity, word_capacity), dtype=np.uint64)
            self._batch_epoch = _NEVER
        elif self._batch_epoch >= _EPOCH_LIMIT:
            self._batch_stamps.fill(_NEVER)
            self._batch_epoch = _NEVER
        self._batch_epoch += 1
        return self._batch_stamps, self._batch_words, self._batch_epoch

    # ------------------------------------------------------------------
    # the fused directed-walk arena
    # ------------------------------------------------------------------
    def acquire_walk(self, n_queries: int, beam_width: int = 1) -> WalkArena:
        """Per-query state rows for a fused directed walk over ``n_queries``.

        The returned arena is reused (and regrown geometrically) across
        batches; its arrays carry garbage from earlier walks and must be fully
        initialised by the caller for rows ``[0, n_queries)``.
        """
        self._walk_arena.reserve(n_queries, beam_width)
        self._walk_arena.generation += 1
        return self._walk_arena

    # ------------------------------------------------------------------
    # the delta-maintenance arena
    # ------------------------------------------------------------------
    @property
    def delta_epoch(self) -> int:
        """Epoch of the most recent :meth:`acquire_delta` (0 before any step)."""
        return self._delta_epoch

    def acquire_delta(self, n_vertices: int) -> tuple[np.ndarray, int]:
        """Begin one incremental-maintenance step; returns ``(stamps, epoch)``.

        The returned arena provides the delta's moved-set membership test:
        stamp ``stamps[moved_ids] = epoch`` once, then ``stamps[v] == epoch``
        answers "did vertex ``v`` move this step?" for any vertex array in one
        vectorised gather.  Starting a step is a single epoch increment — the
        arena is never cleared (except on growth or int32 rollover), exactly
        like the visited arena — so delta-keyed maintenance allocates nothing
        proportional to the mesh.  Kept separate from the query-time arenas so
        maintenance never perturbs an in-flight crawl's epochs.
        """
        if self._delta_stamps.size < n_vertices:
            capacity = max(n_vertices, 2 * self._delta_stamps.size)
            self._delta_stamps = np.zeros(capacity, dtype=np.int32)
            self._delta_epoch = _NEVER
        elif self._delta_epoch >= _EPOCH_LIMIT:
            self._delta_stamps.fill(_NEVER)
            self._delta_epoch = _NEVER
        self._delta_epoch += 1
        return self._delta_stamps, self._delta_epoch

    # ------------------------------------------------------------------
    # single-owner enforcement
    # ------------------------------------------------------------------
    def check_batch_epoch(self, epoch: int) -> None:
        """Assert the batch arena still belongs to the batch that acquired it.

        The crawl round loops call this with the epoch :meth:`acquire_batch`
        returned; a mismatch means another acquisition ran mid-batch — i.e. a
        second thread is sharing this scratch — and the visited stamps the
        caller is reading are garbage.  One integer compare per round.
        """
        if self._batch_epoch != epoch:
            raise ConcurrencyError(
                f"CrawlScratch batch arena re-acquired mid-batch (epoch moved "
                f"{epoch} -> {self._batch_epoch}); a scratch serves one thread at a "
                "time — use one scratch per thread (see ThreadLocalScratch)"
            )

    # ------------------------------------------------------------------
    # gather buffers
    # ------------------------------------------------------------------
    def iota(self, n: int) -> np.ndarray:
        """A read-only view of ``[0, 1, ..., n-1]`` backed by a reused buffer."""
        if self._iota.size < n:
            self._iota = np.arange(max(n, 2 * self._iota.size, 1024), dtype=np.int64)
        return self._iota[:n]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Current footprint of the arenas and buffers."""
        return int(
            self._iota.nbytes
            + self._batch_stamps.nbytes
            + self._batch_words.nbytes
            + self._walk_arena.memory_bytes()
            + self._delta_stamps.nbytes
        )

    #: steady-state arena bytes per vertex: 4 (batch stamps) + 8 (one uint64
    #: ownership word); batches beyond 64 queries widen the ownership rows by
    #: 8 bytes per vertex per additional 64 queries, which ``memory_bytes()``
    #: reflects once such a batch has run
    BYTES_PER_VERTEX = 12

    def expected_bytes(self, n_vertices: int) -> int:
        """Steady-state footprint for serving queries on an ``n_vertices`` mesh.

        Used by ``memory_overhead_bytes()`` so executors report a stable
        scratch cost regardless of whether the lazily grown arena (batch
        stamps + ownership words) has been touched yet — the reported
        overhead must not jump depending on query history.
        """
        return max(self.memory_bytes(), self.BYTES_PER_VERTEX * int(n_vertices))


class ThreadLocalScratch:
    """One lazily created :class:`CrawlScratch` per calling thread.

    A :class:`CrawlScratch` is strictly single-owner — its epoch trick is a
    read-modify-write on shared arrays — so an executor that may be queried
    from several threads (the sharded query service fans work out across a
    pool) must hand each thread its own arena.  This holder does exactly
    that: :meth:`get` returns the calling thread's scratch, creating it on
    first use, and keeps a registry of every arena created so memory
    accounting still sees the whole footprint.

    Maintenance and queries keep working unchanged on the single-threaded
    paths: the first (only) thread always receives the same arena it would
    have owned before.
    """

    __slots__ = ("_local", "_arenas", "_lock")

    def __init__(self) -> None:
        self._local = threading.local()
        self._arenas: list[CrawlScratch] = []
        self._lock = threading.Lock()

    def get(self) -> CrawlScratch:
        """The calling thread's scratch arena (created on first use)."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = CrawlScratch()
            with self._lock:
                self._arenas.append(scratch)
            self._local.scratch = scratch
        return scratch

    @property
    def n_arenas(self) -> int:
        """Number of distinct threads that have acquired a scratch so far."""
        with self._lock:
            return len(self._arenas)

    def memory_bytes(self) -> int:
        """Combined footprint of every per-thread arena created so far."""
        with self._lock:
            return sum(arena.memory_bytes() for arena in self._arenas)

    def expected_bytes(self, n_vertices: int) -> int:
        """Steady-state footprint: at least one arena's worth, plus any extras.

        Mirrors :meth:`CrawlScratch.expected_bytes` for the common
        single-threaded case (exactly one arena) so reported overheads do not
        change when an executor is wrapped by the service but only ever
        queried from one thread.
        """
        with self._lock:
            arenas = list(self._arenas)
        if not arenas:
            return CrawlScratch.BYTES_PER_VERTEX * int(n_vertices)
        return sum(arena.expected_bytes(n_vertices) for arena in arenas)
