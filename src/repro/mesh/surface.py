"""Surface extraction from polyhedral cell lists.

Section IV-E of the paper identifies surface vertices by building the *global
face list*: every cell contributes its faces, a face shared by two adjacent
cells appears twice, and a face appearing exactly once lies on the mesh
surface.  The vertices of those boundary faces are the *surface vertices* that
OCTOPUS's surface index keeps track of.

The extraction here is purely combinatorial — it only looks at connectivity,
never at vertex positions — which is exactly why the surface index survives
arbitrary mesh deformation without maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MeshConnectivityError
from .rowkeys import unique_rows

__all__ = ["SurfaceExtraction", "extract_surface", "cell_faces"]

# Local vertex indices of each face for the supported primitives.
_TETRAHEDRON_FACES = (
    (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
)
_HEXAHEDRON_FACES = (
    (0, 1, 2, 3),  # bottom
    (4, 5, 6, 7),  # top
    (0, 1, 5, 4),
    (1, 2, 6, 5),
    (2, 3, 7, 6),
    (3, 0, 4, 7),
)
# A triangle (surface-only mesh) is its own single "face".
_TRIANGLE_FACES = ((0, 1, 2),)

_FACE_PATTERNS = {
    3: _TRIANGLE_FACES,
    4: _TETRAHEDRON_FACES,
    8: _HEXAHEDRON_FACES,
}

# Optimal compare-exchange networks sorting 3 and 4 values (face arities).
_SORTING_NETWORKS = {
    3: ((0, 1), (1, 2), (0, 1)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
}


@dataclass(frozen=True)
class SurfaceExtraction:
    """Result of a surface extraction.

    Attributes
    ----------
    surface_vertices:
        Sorted int array of vertex ids that lie on the mesh surface.
    surface_faces:
        ``(f, k)`` array of boundary faces (``k`` = 3 for tetrahedral and
        triangle meshes, 4 for hexahedral meshes).
    n_faces_total:
        Number of entries in the global face list (with duplicates), i.e.
        ``cells * faces_per_cell``.
    """

    surface_vertices: np.ndarray
    surface_faces: np.ndarray
    n_faces_total: int

    @property
    def n_surface_vertices(self) -> int:
        return int(self.surface_vertices.size)

    def surface_to_volume_ratio(self, n_vertices: int) -> float:
        """Paper's S parameter: surface vertices divided by total vertices."""
        if n_vertices <= 0:
            raise MeshConnectivityError("n_vertices must be positive")
        return self.n_surface_vertices / n_vertices

    def relabeled(self, new_ids: np.ndarray) -> "SurfaceExtraction":
        """Return the extraction after renaming old vertex ``v`` to ``new_ids[v]``.

        Surface membership is purely combinatorial, so a vertex relabel maps
        the extraction through the same permutation instead of re-running the
        global face list — the Hilbert layout pass uses this to carry the
        surface cache across :meth:`repro.mesh.PolyhedralMesh.relabeled`.
        """
        new_ids = np.asarray(new_ids, dtype=np.int64)
        return SurfaceExtraction(
            surface_vertices=np.sort(new_ids[self.surface_vertices]),
            surface_faces=new_ids[self.surface_faces],
            n_faces_total=self.n_faces_total,
        )


def cell_faces(cells: np.ndarray) -> np.ndarray:
    """Return the global face list of a cell array (duplicates included).

    The output has shape ``(n_cells * faces_per_cell, face_arity)`` and each
    face keeps the original vertex order of the cell definition.
    """
    cell_arr = np.asarray(cells, dtype=np.int64)
    if cell_arr.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    if cell_arr.ndim != 2:
        raise MeshConnectivityError("cells must be a 2-D array")
    k = cell_arr.shape[1]
    if k not in _FACE_PATTERNS:
        raise MeshConnectivityError(f"unsupported cell arity {k}; expected 3, 4 or 8")
    pattern = np.asarray(_FACE_PATTERNS[k], dtype=np.int64)
    return cell_arr[:, pattern].reshape(-1, pattern.shape[1])


def _sorted_rows(faces: np.ndarray) -> np.ndarray:
    """``np.sort(faces, axis=1)`` for 3- or 4-vertex faces, by a sorting network.

    The network's compare-exchanges run on contiguous columns (the result is
    a transposed view), several times faster than sorting each short row.
    """
    columns = faces.T.copy()
    low = np.empty(columns.shape[1], dtype=columns.dtype)
    for i, j in _SORTING_NETWORKS[faces.shape[1]]:
        np.minimum(columns[i], columns[j], out=low)
        np.maximum(columns[i], columns[j], out=columns[j])
        columns[i] = low
    return columns.T


def extract_surface(cells: np.ndarray) -> SurfaceExtraction:
    """Identify surface faces and vertices from a polyhedral cell array.

    A face is on the surface when it occurs exactly once in the global face
    list; faces occurring twice are interior faces shared by two cells.  A
    face occurring more than twice indicates a broken (non-manifold) mesh and
    raises :class:`MeshConnectivityError`.
    """
    faces = cell_faces(cells)
    if faces.shape[0] == 0:
        return SurfaceExtraction(
            surface_vertices=np.empty(0, dtype=np.int64),
            surface_faces=np.empty((0, 3), dtype=np.int64),
            n_faces_total=0,
        )
    # Canonicalise each face by sorting its vertex ids so that the two copies
    # of a shared face compare equal regardless of orientation.
    canonical = _sorted_rows(faces)
    first_index, counts = unique_rows(canonical)
    if np.any(counts > 2):
        bad = canonical[first_index[counts > 2][0]]
        raise MeshConnectivityError(
            f"non-manifold mesh: face {bad.tolist()} is shared by more than two cells"
        )
    boundary_mask = counts == 1
    # Report boundary faces with their original (oriented) vertex order.
    surface_faces = faces[first_index[boundary_mask]]
    surface_vertices = np.unique(surface_faces)
    return SurfaceExtraction(
        surface_vertices=surface_vertices,
        surface_faces=surface_faces,
        n_faces_total=int(faces.shape[0]),
    )
