"""Base polyhedral mesh type shared by tetrahedral, hexahedral and triangle meshes.

A mesh couples three things:

* a mutable ``(n, 3)`` float array of vertex positions — the simulation
  overwrites this array in place at every time step;
* an immutable ``(m, k)`` integer cell array describing the polyhedra;
* connectivity derived lazily from the cells: the CSR adjacency list used by
  the crawl and the surface extraction used by the surface index.

Connectivity only depends on the cell array, so deforming the mesh (changing
positions) never invalidates it; restructuring the mesh (changing cells) does.
:meth:`PolyhedralMesh.replace_cells` drops the caches;
:meth:`PolyhedralMesh.restructure` can instead take over a surface the caller
already extracted and splice the adjacency through the event's dirty set.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import MeshConnectivityError, MeshError
from .adjacency import AdjacencyList
from .geometry import Box3D
from .surface import SurfaceExtraction, extract_surface

__all__ = ["PolyhedralMesh"]


class PolyhedralMesh:
    """A 3D mesh of identical polyhedral primitives.

    Parameters
    ----------
    vertices:
        ``(n, 3)`` float array of vertex positions.  The array is used
        directly (not copied) when it is already a contiguous float64 array,
        which lets simulations update positions in place.
    cells:
        ``(m, k)`` int array of vertex ids per cell, where ``k`` matches
        :attr:`cell_arity`.
    name:
        Optional human readable dataset name used in reports.
    """

    #: number of vertices each cell references (3, 4 or 8); set by subclasses
    cell_arity: int = 0
    #: human readable primitive name ("tetrahedron", ...); set by subclasses
    primitive: str = "polyhedron"

    def __init__(
        self,
        vertices: np.ndarray,
        cells: np.ndarray,
        name: str = "mesh",
    ) -> None:
        vertex_arr = np.ascontiguousarray(vertices, dtype=np.float64)
        if vertex_arr.ndim != 2 or vertex_arr.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        cell_arr = np.ascontiguousarray(cells, dtype=np.int64)
        if cell_arr.size == 0:
            cell_arr = cell_arr.reshape(0, self.cell_arity or 4)
        if cell_arr.ndim != 2:
            raise MeshError("cells must be an (m, k) array")
        if self.cell_arity and cell_arr.shape[1] != self.cell_arity:
            raise MeshError(
                f"{type(self).__name__} cells must have {self.cell_arity} vertices, "
                f"got {cell_arr.shape[1]}"
            )
        if cell_arr.size and (cell_arr.min() < 0 or cell_arr.max() >= vertex_arr.shape[0]):
            raise MeshConnectivityError("cell vertex ids out of range")
        self._vertices = vertex_arr
        self._cells = cell_arr
        self.name = name
        self._adjacency: Optional[AdjacencyList] = None
        self._surface: Optional[SurfaceExtraction] = None
        #: incremented every time the cell array is replaced (restructuring);
        #: indexes that cache connectivity can compare against it.
        self.connectivity_version = 0
        #: incremented every time vertex positions change through the mesh API.
        self.geometry_version = 0

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> np.ndarray:
        """The live ``(n, 3)`` position array (mutated in place by simulations)."""
        return self._vertices

    @property
    def cells(self) -> np.ndarray:
        """The ``(m, k)`` cell array."""
        return self._cells

    @property
    def n_vertices(self) -> int:
        return int(self._vertices.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self._cells.shape[0])

    def __len__(self) -> int:
        return self.n_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, vertices={self.n_vertices}, "
            f"cells={self.n_cells})"
        )

    # ------------------------------------------------------------------
    # connectivity (lazy, invalidated on restructuring)
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> AdjacencyList:
        """CSR adjacency over the mesh edges (built lazily, cached)."""
        if self._adjacency is None:
            self._adjacency = AdjacencyList.from_cells(self.n_vertices, self._cells)
        return self._adjacency

    @property
    def surface(self) -> SurfaceExtraction:
        """Surface faces/vertices derived from the global face list (cached)."""
        if self._surface is None:
            self._surface = extract_surface(self._cells)
        return self._surface

    def surface_vertices(self) -> np.ndarray:
        """Sorted ids of vertices on the mesh surface."""
        return self.surface.surface_vertices

    def mesh_degree(self) -> float:
        """Average number of edges per vertex (the paper's parameter M)."""
        return self.adjacency.average_degree()

    def surface_to_volume_ratio(self) -> float:
        """Surface vertices divided by total vertices (the paper's parameter S)."""
        if self.n_vertices == 0:
            raise MeshError("empty mesh has no surface-to-volume ratio")
        return self.surface.n_surface_vertices / self.n_vertices

    # ------------------------------------------------------------------
    # geometry updates (deformation)
    # ------------------------------------------------------------------
    def set_positions(self, positions: np.ndarray) -> None:
        """Overwrite all vertex positions in place (mesh deformation)."""
        pos = np.asarray(positions, dtype=np.float64)
        if pos.shape != self._vertices.shape:
            raise MeshError(
                f"positions shape {pos.shape} does not match mesh {self._vertices.shape}"
            )
        self._vertices[...] = pos
        self.geometry_version += 1

    def displace(self, displacement: np.ndarray) -> None:
        """Add a displacement field to all vertex positions in place."""
        disp = np.asarray(displacement, dtype=np.float64)
        if disp.shape != self._vertices.shape:
            raise MeshError(
                f"displacement shape {disp.shape} does not match mesh {self._vertices.shape}"
            )
        self._vertices += disp
        self.geometry_version += 1

    def displace_at(self, vertex_ids: np.ndarray, displacement: np.ndarray) -> None:
        """Add a displacement to the selected vertices only (sparse deformation).

        The localized deformation models move a small subset of vertices per
        step; going through this method (rather than poking the position array
        directly) keeps :attr:`geometry_version` honest.
        """
        ids = np.asarray(vertex_ids, dtype=np.int64)
        disp = np.asarray(displacement, dtype=np.float64)
        if ids.ndim != 1 or disp.shape != (ids.size, 3):
            raise MeshError("displace_at needs (k,) vertex ids and a (k, 3) displacement")
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_vertices):
            raise MeshError("displace_at vertex ids out of range")
        self._vertices[ids] += disp
        self.geometry_version += 1

    # ------------------------------------------------------------------
    # connectivity updates (restructuring)
    # ------------------------------------------------------------------
    def replace_cells(self, cells: np.ndarray) -> None:
        """Replace the cell array (mesh restructuring) and invalidate caches.

        Restructuring is the rare transformation that changes the surface;
        OCTOPUS's surface index listens for it via :attr:`connectivity_version`.
        """
        cell_arr = np.ascontiguousarray(cells, dtype=np.int64)
        if cell_arr.ndim != 2 or (self.cell_arity and cell_arr.shape[1] != self.cell_arity):
            raise MeshError("replacement cells have the wrong shape")
        if cell_arr.size and (cell_arr.min() < 0 or cell_arr.max() >= self.n_vertices):
            raise MeshConnectivityError("replacement cell vertex ids out of range")
        self._cells = cell_arr
        self._adjacency = None
        self._surface = None
        self.connectivity_version += 1

    def restructure(
        self,
        vertices: np.ndarray,
        cells: np.ndarray,
        surface: Optional[SurfaceExtraction] = None,
        dirty_ids: Optional[np.ndarray] = None,
    ) -> None:
        """Replace vertices *and* cells in place (restructuring that adds vertices).

        Cell splits insert new vertices, which :meth:`replace_cells` alone
        cannot express (its cells may not reference ids beyond the current
        vertex count).  This method swaps in both arrays at once, preserving
        the two contracts the delta pipeline relies on: pre-existing vertex
        ids keep their meaning (the new position array must extend the old
        numbering) and new vertices occupy the appended tail.

        When the vertex count is unchanged (cell removal) the positions are
        written *into the existing array*, so holders of a direct reference
        to :attr:`vertices` — an R-tree's captured position array, a
        deformation model's view — stay valid.  Only a vertex-count change
        (cell splits appending centroids) swaps the array object; holders
        must then re-read it, which the execution strategies do in their
        ``on_restructure`` (the tree strategies re-bind explicitly, everything
        else fetches ``mesh.vertices`` per call).

        The caller may hand over the substrate it already holds, so the new
        connectivity is not derived again from the cells on its next use:

        * ``surface`` — the extraction of ``cells``, kept as the surface
          cache instead of being re-extracted;
        * ``dirty_ids`` — a vertex set containing every vertex of every cell
          removed or added (the dirty set of a
          :class:`~repro.core.delta.TopologyDelta`).  If the adjacency was
          already built, the new one is spliced from it
          (:meth:`AdjacencyList.spliced`); otherwise it stays lazy.
        """
        vertex_arr = np.ascontiguousarray(vertices, dtype=np.float64)
        if vertex_arr.ndim != 2 or vertex_arr.shape[1] != 3:
            raise MeshError("replacement vertices must be an (n, 3) array")
        cell_arr = np.ascontiguousarray(cells, dtype=np.int64)
        if cell_arr.ndim != 2 or (self.cell_arity and cell_arr.shape[1] != self.cell_arity):
            raise MeshError("replacement cells have the wrong shape")
        if cell_arr.size and (cell_arr.min() < 0 or cell_arr.max() >= vertex_arr.shape[0]):
            raise MeshConnectivityError("replacement cell vertex ids out of range")
        adjacency = None
        if dirty_ids is not None and self._adjacency is not None:
            adjacency = self._adjacency.spliced(vertex_arr.shape[0], cell_arr, dirty_ids)
        if vertex_arr.shape == self._vertices.shape:
            self._vertices[...] = vertex_arr
        else:
            self._vertices = vertex_arr
        self._cells = cell_arr
        self._adjacency = adjacency
        self._surface = surface
        self.connectivity_version += 1
        self.geometry_version += 1

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------
    def bounding_box(self) -> Box3D:
        """Tight axis-aligned bounding box of the current vertex positions."""
        if self.n_vertices == 0:
            raise MeshError("empty mesh has no bounding box")
        return Box3D.from_points(self._vertices)

    def cell_centroids(self) -> np.ndarray:
        """Centroid of every cell, shape ``(m, 3)``."""
        return self._vertices[self._cells].mean(axis=1)

    def connected_components(self) -> list[np.ndarray]:
        """Partition vertex ids into connected components of the edge graph.

        Isolated vertices (referenced by no cell) each form their own
        component.  Used by generators and tests to reason about internal
        reachability.
        """
        adjacency = self.adjacency
        n = self.n_vertices
        seen = np.zeros(n, dtype=bool)
        components: list[np.ndarray] = []
        for start in range(n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            members = [start]
            while stack:
                v = stack.pop()
                for w in adjacency.neighbors(v):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(int(w))
                        members.append(int(w))
            components.append(np.asarray(sorted(members), dtype=np.int64))
        return components

    def memory_bytes(self) -> int:
        """Approximate in-memory size of positions, cells and adjacency."""
        total = int(self._vertices.nbytes + self._cells.nbytes)
        if self._adjacency is not None:
            total += self._adjacency.memory_bytes()
        return total

    # ------------------------------------------------------------------
    # copies
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "PolyhedralMesh":
        """Deep copy of positions and cells (connectivity caches are rebuilt lazily)."""
        clone = type(self)(
            self._vertices.copy(), self._cells.copy(), name=name or self.name
        )
        return clone

    def with_vertex_order(self, new_ids: np.ndarray) -> "PolyhedralMesh":
        """Return a copy whose vertex ``v`` has been renamed to ``new_ids[v]``.

        Positions and cell references are permuted consistently.  Used by the
        Hilbert layout optimisation.
        """
        new_ids = np.asarray(new_ids, dtype=np.int64)
        if new_ids.shape != (self.n_vertices,) or not np.array_equal(
            np.sort(new_ids), np.arange(self.n_vertices)
        ):
            raise MeshError("new_ids must be a permutation of vertex ids")
        new_vertices = np.empty_like(self._vertices)
        new_vertices[new_ids] = self._vertices
        new_cells = new_ids[self._cells]
        return type(self)(new_vertices, new_cells, name=self.name)

    def relabeled(self, new_ids: np.ndarray) -> "PolyhedralMesh":
        """Like :meth:`with_vertex_order`, but carrying connectivity caches.

        The adjacency CSR and the surface extraction are permuted through the
        same relabel map instead of being rebuilt from the cells — everything
        a strategy reads (positions, cells, adjacency, surface) moves through
        one permutation, which is the paper's Section IV-H1 layout pass.  Only
        caches that were already built are carried; absent ones stay lazy.
        """
        clone = self.with_vertex_order(new_ids)
        if self._adjacency is not None:
            clone._adjacency = self._adjacency.relabeled(new_ids)
        if self._surface is not None:
            clone._surface = self._surface.relabeled(new_ids)
        return clone
