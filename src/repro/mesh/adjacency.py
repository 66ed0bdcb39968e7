"""Compressed sparse row (CSR) vertex adjacency.

The paper stores the mesh as an adjacency list: for each vertex, its position
plus pointers to the vertices it shares an edge with.  :class:`AdjacencyList`
is the NumPy analogue — two integer arrays, ``indptr`` and ``indices`` — which
gives O(1) neighbour slicing (the crawl's inner loop) and a predictable memory
footprint that the experiment harness can account for.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import MeshConnectivityError
from .rowkeys import fits_int64, run_starts, unique_rows

__all__ = ["AdjacencyList", "csr_gather", "edges_from_cells"]


def csr_gather(
    offsets: np.ndarray,
    values: np.ndarray,
    keys: np.ndarray,
    ramp: "Callable[[int], np.ndarray] | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR slices ``values[offsets[k]:offsets[k + 1]]`` per key.

    One vectorised flat-gather instead of a Python loop over ``keys``: the
    inner loop of the crawl's frontier expansion and of the grid's batched
    candidate gathering.  Returns ``(gathered, counts)`` where ``counts[i]``
    is the slice length of ``keys[i]`` (so ``gathered`` splits back per key
    with ``np.cumsum(counts)``).  ``ramp`` may supply a reusable identity
    ramp (``0, 1, ..., total - 1``) as a callable mapping the needed length
    to one (e.g. ``CrawlScratch.iota``) to avoid the ``np.arange``
    allocation.
    """
    starts = offsets[keys]
    counts = offsets[keys + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype), counts
    base = np.arange(total, dtype=np.int64) if ramp is None else ramp(total)
    owner = np.repeat(np.arange(keys.size), counts)
    inner = base - np.repeat(np.cumsum(counts) - counts, counts)
    return values[starts[owner] + inner], counts

# Vertex-pair index offsets that enumerate the edges of the supported
# polyhedral primitives, expressed against the cell's vertex tuple.
_TETRAHEDRON_EDGES = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)
_HEXAHEDRON_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 0),          # bottom face
    (4, 5), (5, 6), (6, 7), (7, 4),          # top face
    (0, 4), (1, 5), (2, 6), (3, 7),          # vertical edges
)
_TRIANGLE_EDGES = ((0, 1), (1, 2), (2, 0))

_EDGE_PATTERNS = {
    3: _TRIANGLE_EDGES,
    4: _TETRAHEDRON_EDGES,
    8: _HEXAHEDRON_EDGES,
}


class AdjacencyList:
    """Immutable CSR adjacency structure over ``n_vertices`` vertices.

    Parameters
    ----------
    indptr:
        ``(n_vertices + 1,)`` int array; neighbours of vertex ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        Flat int array of neighbour vertex ids.
    """

    __slots__ = ("indptr", "indices", "n_vertices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise MeshConnectivityError("indptr and indices must be 1-D arrays")
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise MeshConnectivityError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise MeshConnectivityError("indptr must be non-decreasing")
        n_vertices = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n_vertices):
            raise MeshConnectivityError("neighbour ids out of range")
        self.indptr = indptr
        self.indices = indices
        self.n_vertices = n_vertices

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n_vertices: int, edges: np.ndarray) -> "AdjacencyList":
        """Build a symmetric adjacency from an ``(m, 2)`` array of undirected edges.

        Duplicate edges and self loops are removed.
        """
        edge_arr = np.asarray(edges, dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise MeshConnectivityError("edges must be an (m, 2) array")
        if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= n_vertices):
            raise MeshConnectivityError("edge endpoints out of range")
        edge_arr = edge_arr[edge_arr[:, 0] != edge_arr[:, 1]]
        n = _check_packable(n_vertices)
        m = edge_arr.shape[0]
        # Each undirected edge produces two directed keys ``src * n + dst``.
        keys = np.empty(2 * m, dtype=np.int64)
        _write_key(keys[:m], edge_arr[:, 0], edge_arr[:, 1], n)
        _write_key(keys[m:], edge_arr[:, 1], edge_arr[:, 0], n)
        return cls._from_sorted_pairs(n, *_unique_directed(keys, n))

    @classmethod
    def from_cells(cls, n_vertices: int, cells: np.ndarray) -> "AdjacencyList":
        """Build the adjacency implied by the edges of polyhedral cells.

        ``cells`` is an ``(m, k)`` array where ``k`` is 3 (triangles),
        4 (tetrahedra) or 8 (hexahedra).  The CSR comes straight from one
        sorted array of packed directed edge keys: no ``(m, 2)`` edge list
        is materialised or deduplicated on the way.
        """
        cell_arr = _cell_array(cells)
        if cell_arr.size and (cell_arr.min() < 0 or cell_arr.max() >= n_vertices):
            raise MeshConnectivityError("edge endpoints out of range")
        n = _check_packable(n_vertices)
        # The key array is handed over without a name in this frame, so
        # ``_unique_directed`` frees it as soon as it has been deduplicated.
        return cls._from_sorted_pairs(n, *_unique_directed(_directed_edge_keys(cell_arr, n), n))

    @classmethod
    def _from_sorted_pairs(cls, n_vertices: int, src: np.ndarray, dst: np.ndarray) -> "AdjacencyList":
        """CSR from distinct directed ``(src, dst)`` pairs sorted by source,
        then destination: the canonical CSR form, which ``relabeled`` and
        ``spliced`` emit too, so a carried cache is indistinguishable from a
        rebuild (identical downstream tie-breaking either way)."""
        counts = np.bincount(src, minlength=n_vertices)
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst)

    @classmethod
    def from_neighbor_lists(cls, neighbor_lists: Sequence[Iterable[int]]) -> "AdjacencyList":
        """Build an adjacency from one iterable of neighbour ids per vertex."""
        indptr = np.zeros(len(neighbor_lists) + 1, dtype=np.int64)
        chunks = []
        for i, neighbors in enumerate(neighbor_lists):
            arr = np.asarray(list(neighbors), dtype=np.int64)
            chunks.append(arr)
            indptr[i + 1] = indptr[i] + arr.size
        indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        return cls(indptr, indices)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def neighbors(self, vertex: int) -> np.ndarray:
        """Return the neighbour ids of ``vertex`` as a view into ``indices``."""
        return self.indices[self.indptr[vertex]:self.indptr[vertex + 1]]

    def degree(self, vertex: int) -> int:
        """Number of neighbours of ``vertex``."""
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def degrees(self) -> np.ndarray:
        """Array of vertex degrees."""
        return np.diff(self.indptr)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    def average_degree(self) -> float:
        """Mean number of neighbours per vertex (the paper's mesh degree M)."""
        if self.n_vertices == 0:
            return 0.0
        return float(self.indices.size / self.n_vertices)

    def __len__(self) -> int:
        return self.n_vertices

    def __iter__(self) -> Iterator[np.ndarray]:
        for v in range(self.n_vertices):
            yield self.neighbors(v)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def relabeled(self, new_ids: np.ndarray) -> "AdjacencyList":
        """Return a new adjacency where old vertex ``v`` becomes ``new_ids[v]``.

        ``new_ids`` must be a permutation of ``0..n_vertices-1``.  Used by the
        Hilbert layout optimisation, which renames vertices so that spatially
        close vertices get nearby ids.
        """
        new_ids = np.asarray(new_ids, dtype=np.int64)
        if new_ids.shape != (self.n_vertices,) or not np.array_equal(
            np.sort(new_ids), np.arange(self.n_vertices)
        ):
            raise MeshConnectivityError("new_ids must be a permutation of vertex ids")
        old_of_new = np.empty(self.n_vertices, dtype=np.int64)
        old_of_new[new_ids] = np.arange(self.n_vertices)
        counts = np.diff(self.indptr)[old_of_new]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        # Pure CSR permutation, no per-vertex loop: build flat gather offsets
        # into the old indices array (row start of each new row repeated over
        # its degree, plus a within-row ramp), then rename the endpoints.
        total = int(indptr[-1])
        row_of_entry = np.repeat(np.arange(self.n_vertices), counts)
        within_row = np.arange(total) - np.repeat(indptr[:-1], counts)
        flat_src = self.indptr[old_of_new][row_of_entry] + within_row
        indices = new_ids[self.indices[flat_src]]
        # Sort neighbours within each row in one pass by keying on the row.
        order = np.argsort(row_of_entry * np.int64(self.n_vertices) + indices, kind="stable")
        return AdjacencyList(indptr, indices[order])

    def spliced(self, n_vertices: int, cells: np.ndarray, dirty_ids: np.ndarray) -> "AdjacencyList":
        """Return the adjacency of ``cells`` by splicing this one, not rebuilding.

        ``self`` is the adjacency of an earlier cell array over the first
        ``self.n_vertices`` ids; ``cells`` (over ``n_vertices`` ids, the new
        ones appended) differs from it by removed and added cells whose
        vertices all lie in ``dirty_ids`` — the dirty set of a
        :class:`~repro.core.delta.TopologyDelta`.  An edge can only appear or
        vanish between two vertices of such a cell, so the row of every
        vertex outside the dirty set is copied as it is, and only the dirty
        rows are rebuilt, from the cells that touch a dirty vertex.  The
        result equals :meth:`from_cells` on ``cells`` bit for bit.
        """
        n_old = self.n_vertices
        if n_vertices < n_old:
            raise MeshConnectivityError("a splice cannot drop vertices")
        cell_arr = _cell_array(cells)
        n = _check_packable(n_vertices)
        dirty = np.zeros(n_vertices, dtype=bool)
        dirty[np.asarray(dirty_ids, dtype=np.int64)] = True
        dirty[n_old:] = True  # appended vertices have no old row to copy
        touching = cell_arr[dirty[cell_arr].any(axis=1)]
        keys = _directed_edge_keys(touching, n)
        src, dst = _unique_directed(keys[dirty[keys // n]], n)
        old_counts = np.diff(self.indptr)
        counts = np.bincount(src, minlength=n_vertices)
        counts[:n_old] += np.where(dirty[:n_old], 0, old_counts)
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        rebuilt = np.repeat(dirty, counts)
        indices[rebuilt] = dst
        indices[~rebuilt] = self.indices[np.repeat(~dirty[:n_old], old_counts)]
        return AdjacencyList(indptr, indices)

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the CSR arrays in bytes."""
        return int(self.indptr.nbytes + self.indices.nbytes)


def edges_from_cells(cells: np.ndarray) -> np.ndarray:
    """Expand polyhedral cells into their unique undirected edges.

    Supports triangles (3 vertices), tetrahedra (4) and hexahedra (8).
    Returns the ``(lo, hi)`` rows in lexicographic order.
    """
    cell_arr = _cell_array(cells)
    if cell_arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    pattern = np.asarray(_EDGE_PATTERNS[cell_arr.shape[1]], dtype=np.int64)
    edges = cell_arr[:, pattern].reshape(-1, 2)
    edges.sort(axis=1)
    first, _ = unique_rows(edges)
    return edges[first]


def _cell_array(cells: np.ndarray) -> np.ndarray:
    """``cells`` as an ``(m, k)`` int64 array of a supported arity."""
    cell_arr = np.asarray(cells, dtype=np.int64)
    if cell_arr.size == 0:
        return cell_arr.reshape(0, cell_arr.shape[-1] if cell_arr.ndim == 2 else 0)
    if cell_arr.ndim != 2:
        raise MeshConnectivityError("cells must be a 2-D array")
    if cell_arr.shape[1] not in _EDGE_PATTERNS:
        raise MeshConnectivityError(
            f"unsupported cell arity {cell_arr.shape[1]}; expected 3, 4 or 8"
        )
    return cell_arr


def _check_packable(n_vertices: int) -> int:
    n = int(n_vertices)
    if not fits_int64(n, 2):
        raise MeshConnectivityError(f"{n} vertices overflow the int64 edge keys")
    return n


def _write_key(out: np.ndarray, src: np.ndarray, dst: np.ndarray, n: int) -> None:
    np.multiply(src, n, out=out)
    out += dst


def _directed_edge_keys(cell_arr: np.ndarray, n: int) -> np.ndarray:
    """Packed keys ``src * n + dst`` of both directions of every cell edge.

    Written one edge slot at a time into a single int64 array: peak memory
    is the key array itself, not an ``(m, edges_per_cell, 2)`` pair stack.
    """
    if cell_arr.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    pattern = _EDGE_PATTERNS[cell_arr.shape[1]]
    keys = np.empty((2 * len(pattern), cell_arr.shape[0]), dtype=np.int64)
    for slot, (i, j) in enumerate(pattern):
        _write_key(keys[2 * slot], cell_arr[:, i], cell_arr[:, j], n)
        _write_key(keys[2 * slot + 1], cell_arr[:, j], cell_arr[:, i], n)
    return keys.reshape(-1)


def _unique_directed(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``(src, dst)`` pairs of packed directed keys, sorted, without
    self loops.  ``keys`` is sorted in place."""
    if keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    keys.sort()
    keys = keys[run_starts(keys)]
    src, dst = np.divmod(keys, n)
    loops = src == dst
    if loops.any():
        src, dst = src[~loops], dst[~loops]
    return src, dst
