"""Pluggable compute kernels for the three hot loops of the query engine.

The fused query paths spend almost all of their time in three loops: the
fused-crawl frontier expansion (stamp newly reached (vertex, query) pairs,
count them, test positions against the owning boxes — see
:func:`repro.core.crawler._crawl_fused`), the fused directed walk's
(query, vertex) box-distance kernel
(:func:`repro.core.directed_walk.directed_walk_many`), and the batched
box-membership test (:func:`repro.mesh.points_in_boxes`, which also powers
the surface probe).  This package isolates those loops behind a small
backend interface so they can be swapped for compiled implementations
without touching the engine logic:

* :class:`KernelBackend` — the NumPy reference implementation and the base
  class of every backend.  It is the default and is always available.
* ``"numba"`` — loop-level kernels compiled with ``numba.njit`` when numba
  is importable (see :mod:`repro.kernels.numba_backend`).  When numba is
  absent the registry **falls back cleanly to NumPy**: the returned backend
  records ``requested="numba"`` / ``compiled=False`` and behaves exactly
  like the default, so code written against the numba spec runs anywhere.

Backends are selected by name: ``"numpy"`` or ``"numba"``.

Resolution order of :func:`get_backend`: an explicit spec (or an already
constructed backend) wins, then the ``REPRO_KERNEL_BACKEND`` environment
variable, then the ``"numpy"`` default.  Executors resolve their backend
once at construction (``build_strategy(kernels=...)`` threads a spec to
OCTOPUS and OCTOPUS-CON; the baselines always run the NumPy path).

Exactness contract
------------------
Every backend is **bit-identical** to the NumPy reference: same result ids,
same counters, same frontier order.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import QueryError
from ..mesh.geometry import box_batch_chunk, points_in_boxes as _points_in_boxes

__all__ = [
    "KernelBackend",
    "available_backends",
    "get_backend",
    "numba_available",
]

#: the accepted backend spec strings
_SPECS = ("numpy", "numba")


class KernelBackend:
    """The NumPy reference kernels (and the base class of every backend).

    A backend owns the three hot loops of the fused query paths.  Instances
    of this class *are* the historical NumPy code paths — executors
    constructed without a spec lose nothing.  Subclasses override the three
    kernel methods; everything else (spec formatting, registry behaviour) is
    shared.

    Attributes
    ----------
    name:
        The backend's implementation name (``"numpy"`` here).
    requested:
        The name that was asked for.  Differs from ``name`` only when a
        ``"numba"`` request fell back to NumPy because numba is absent.
    compiled:
        Whether the kernel bodies are machine-compiled (always ``False``
        for the NumPy reference).
    """

    name = "numpy"
    compiled = False

    def __init__(self, requested: str | None = None) -> None:
        self.requested = requested if requested is not None else self.name

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def spec(self) -> str:
        """The canonical spec string this backend answers to."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} spec={self.spec!r} requested={self.requested!r} "
            f"compiled={self.compiled}>"
        )

    # ------------------------------------------------------------------
    # kernel 1: batched box membership
    # ------------------------------------------------------------------
    def points_in_boxes(self, points: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Membership of ``(n, 3)`` points in each of ``(m, 3)`` lo/hi boxes.

        Returns an ``(m, n)`` boolean mask, exactly like
        :func:`repro.mesh.points_in_boxes`.
        """
        return _points_in_boxes(points, los, his)

    # ------------------------------------------------------------------
    # kernel 2: fused-walk pair distances
    # ------------------------------------------------------------------
    def pair_box_distances(
        self,
        positions: np.ndarray,
        pair_vertices: np.ndarray,
        pair_owners: np.ndarray,
        los: np.ndarray,
        his: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Box distances of (query, vertex) pairs, gathering each vertex once.

        The fused walk's distance kernel: for every pair, the Euclidean
        distance from ``positions[vertex]`` to the owner query's box, with
        the exact arithmetic of :func:`repro.mesh.points_box_distance`; the
        distinct-vertex count is returned for the unique-work accounting.
        """
        unique_vertices, inverse = np.unique(pair_vertices, return_inverse=True)
        points = positions[unique_vertices][inverse]
        delta = np.maximum(los[pair_owners] - points, 0.0)
        delta += np.maximum(points - his[pair_owners], 0.0)
        return np.linalg.norm(delta, axis=1), int(unique_vertices.size)

    # ------------------------------------------------------------------
    # kernel 3: fused-crawl stamp-and-test
    # ------------------------------------------------------------------
    def crawl_stamp_and_test(
        self,
        candidates: np.ndarray,
        reach_bits: np.ndarray,
        stamps: np.ndarray,
        word_columns: np.ndarray,
        epoch: int,
        positions: np.ndarray,
        los: np.ndarray,
        his: np.ndarray,
        bits,
        visited_per_query: np.ndarray,
        attribution_chunk: int,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One fused-crawl level: stamp fresh (vertex, query) pairs, test boxes.

        Parameters mirror the state of one
        :func:`repro.core.crawler._crawl_fused` level: sorted candidate ids
        with their reachability bitset rows, the epoch-stamped arena
        (``stamps`` / ``word_columns`` / ``epoch``), the mesh positions, the
        stacked box corners, the batch's ownership-bit helper (``bits``, a
        :class:`repro.core.crawler._OwnershipBits` providing
        ``owned_matrix`` / ``pack`` / ``n_queries``), the per-query visit
        counters (updated in place), and the candidate-axis chunk bounding
        the attribution transients.

        Returns ``(frontier, frontier_bits, n_fresh)``: the next union
        frontier (candidates inside at least one owning box, in candidate
        order), its ownership rows, and how many candidates were freshly
        stamped (the level's unique visit count).
        """
        zero = np.uint64(0)
        previous = np.where(
            (stamps[candidates] == epoch)[:, None], word_columns[candidates], zero
        )
        new_bits = reach_bits & ~previous
        fresh = (new_bits != zero).any(axis=1)
        candidates = candidates[fresh]
        if candidates.size == 0:
            return candidates, new_bits[fresh], 0
        new_bits = new_bits[fresh]
        word_columns[candidates] = previous[fresh] | new_bits
        stamps[candidates] = epoch
        n_fresh = int(candidates.size)
        frontier_pieces: list[np.ndarray] = []
        bit_pieces: list[np.ndarray] = []
        for lo_index in range(0, candidates.size, attribution_chunk):
            hi_index = lo_index + attribution_chunk
            chunk_candidates = candidates[lo_index:hi_index]
            owned = bits.owned_matrix(new_bits[lo_index:hi_index])
            visited_per_query += owned.sum(axis=0)
            inside = self._inside_per_query(positions, chunk_candidates, los, his)
            in_frontier = owned & inside.T
            chunk_bits = bits.pack(in_frontier)
            keep = (chunk_bits != zero).any(axis=1)
            if keep.any():
                frontier_pieces.append(chunk_candidates[keep])
                bit_pieces.append(chunk_bits[keep])
        if frontier_pieces:
            frontier = np.concatenate(frontier_pieces)
            frontier_bits = np.concatenate(bit_pieces)
        else:
            frontier = np.empty(0, dtype=np.int64)
            frontier_bits = np.empty((0, reach_bits.shape[1]), dtype=np.uint64)
        return frontier, frontier_bits, n_fresh

    def _inside_per_query(
        self, positions: np.ndarray, candidates: np.ndarray, los: np.ndarray, his: np.ndarray
    ) -> np.ndarray:
        """``(n_queries, n_candidates)`` membership of candidate positions."""
        points = positions[candidates]
        out = np.empty((los.shape[0], candidates.size), dtype=bool)
        chunk = box_batch_chunk(candidates.size)
        for lo_index in range(0, los.shape[0], chunk):
            hi_index = lo_index + chunk
            out[lo_index:hi_index] = self.points_in_boxes(
                points, los[lo_index:hi_index], his[lo_index:hi_index]
            )
        return out


#: constructed backends, keyed by name so repeated get_backend() calls share
#: instances (and their JIT caches)
_BACKENDS: dict[str, KernelBackend] = {}


def numba_available() -> bool:
    """Whether the optional numba dependency is importable."""
    from .numba_backend import NUMBA_AVAILABLE

    return NUMBA_AVAILABLE


def available_backends() -> tuple[str, ...]:
    """Names of the backends that would run compiled in this environment."""
    return ("numpy", "numba") if numba_available() else ("numpy",)


def get_backend(spec: "KernelBackend | str | None" = None) -> KernelBackend:
    """Resolve a backend spec to a (cached) :class:`KernelBackend` instance.

    ``spec`` may be an already constructed backend (returned unchanged), a
    spec string (``"numpy"`` or ``"numba"``), or ``None`` — which consults
    the ``REPRO_KERNEL_BACKEND`` environment variable and falls back to
    ``"numpy"``.  Requesting ``"numba"`` without numba installed is **not**
    an error: the NumPy backend is returned with ``requested="numba"`` and
    ``compiled=False``, so deployments can pin the spec unconditionally.
    """
    if isinstance(spec, KernelBackend):
        return spec
    if spec is None:
        spec = os.environ.get("REPRO_KERNEL_BACKEND", "").strip() or "numpy"
    name = str(spec).strip().lower() or "numpy"
    if name not in _SPECS:
        raise QueryError(
            f"unknown kernel backend spec {spec!r}; expected one of {list(_SPECS)}"
        )
    backend = _BACKENDS.get(name)
    if backend is None:
        if name == "numba":
            from .numba_backend import NUMBA_AVAILABLE, NumbaKernels

            if NUMBA_AVAILABLE:
                backend = NumbaKernels()
            else:
                # Clean fallback: numba requested but absent — run NumPy and
                # say so, instead of failing environments without the JIT.
                backend = KernelBackend(requested="numba")
        else:
            backend = KernelBackend()
        _BACKENDS[name] = backend
    return backend
