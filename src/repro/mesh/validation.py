"""Structural validation and quality reporting for meshes.

Two of the monitoring applications in Section III-B — *structural validation*
and *mesh quality* — compute statistics over query results.  The functions
here implement those statistics, plus a whole-mesh validation used by the
generators' tests to guarantee the synthetic datasets are well formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MeshError
from .base import PolyhedralMesh
from .rowkeys import unique_rows
from .tetrahedral import TetrahedralMesh

__all__ = ["MeshValidationReport", "validate_mesh", "density_statistics", "quality_statistics"]


@dataclass
class MeshValidationReport:
    """Outcome of :func:`validate_mesh`.

    Attributes
    ----------
    is_valid:
        True when no structural problems were found.
    issues:
        Human readable description of every problem encountered.
    n_isolated_vertices:
        Vertices referenced by no cell.
    n_duplicate_cells:
        Cells listed more than once.
    n_degenerate_cells:
        Cells that repeat a vertex id.
    n_components:
        Connected components of the edge graph.
    """

    is_valid: bool
    issues: list[str] = field(default_factory=list)
    n_isolated_vertices: int = 0
    n_duplicate_cells: int = 0
    n_degenerate_cells: int = 0
    n_components: int = 0


def validate_mesh(mesh: PolyhedralMesh) -> MeshValidationReport:
    """Check a mesh for the structural problems that would break a crawl.

    The checks are intentionally connectivity-only (no geometry): OCTOPUS's
    correctness argument is about reachability along edges, so the validation
    mirrors that.
    """
    if mesh.n_vertices == 0:
        raise MeshError("cannot validate an empty mesh")
    issues: list[str] = []

    referenced = np.zeros(mesh.n_vertices, dtype=bool)
    if mesh.n_cells:
        referenced[np.unique(mesh.cells)] = True
    n_isolated = int((~referenced).sum())
    if n_isolated:
        issues.append(f"{n_isolated} vertices are not referenced by any cell")

    n_duplicates = 0
    if mesh.n_cells:
        first_index, _ = unique_rows(np.sort(mesh.cells, axis=1), mesh.n_vertices)
        n_duplicates = int(mesh.n_cells - first_index.size)
        if n_duplicates:
            issues.append(f"{n_duplicates} duplicate cells")

    n_degenerate = 0
    if mesh.n_cells:
        sorted_cells = np.sort(mesh.cells, axis=1)
        repeats = np.any(np.diff(sorted_cells, axis=1) == 0, axis=1)
        n_degenerate = int(repeats.sum())
        if n_degenerate:
            issues.append(f"{n_degenerate} degenerate cells repeat a vertex")

    components = mesh.connected_components()
    n_components = len(components)

    nonfinite = int((~np.isfinite(mesh.vertices)).any(axis=1).sum())
    if nonfinite:
        issues.append(f"{nonfinite} vertices have non-finite coordinates")

    return MeshValidationReport(
        is_valid=not issues,
        issues=issues,
        n_isolated_vertices=n_isolated,
        n_duplicate_cells=n_duplicates,
        n_degenerate_cells=n_degenerate,
        n_components=n_components,
    )


def density_statistics(mesh: PolyhedralMesh, vertex_ids: np.ndarray, region_volume: float) -> dict:
    """Structural-validation statistics over a query result.

    Parameters
    ----------
    mesh:
        The queried mesh.
    vertex_ids:
        Result vertex ids of a range query.
    region_volume:
        Volume of the query region, used for the density figure.
    """
    ids = np.asarray(vertex_ids, dtype=np.int64)
    if region_volume <= 0:
        raise MeshError("region_volume must be positive")
    if ids.size == 0:
        return {"n_vertices": 0, "density": 0.0, "mean_degree": 0.0}
    degrees = mesh.adjacency.degrees()[ids]
    return {
        "n_vertices": int(ids.size),
        "density": float(ids.size / region_volume),
        "mean_degree": float(degrees.mean()),
    }


def quality_statistics(mesh: TetrahedralMesh, cell_ids: np.ndarray | None = None) -> dict:
    """Mesh-quality statistics (aspect ratios, inverted elements).

    Restricting to ``cell_ids`` models the mesh-quality monitoring application,
    which only inspects the cells retrieved by a range query.
    """
    ratios = mesh.aspect_ratios()
    signed = mesh.cell_volumes(signed=True)
    if cell_ids is not None:
        ids = np.asarray(cell_ids, dtype=np.int64)
        ratios = ratios[ids]
        signed = signed[ids]
    if ratios.size == 0:
        return {"n_cells": 0, "max_aspect_ratio": 0.0, "mean_aspect_ratio": 0.0, "n_inverted": 0}
    finite = ratios[np.isfinite(ratios)]
    return {
        "n_cells": int(ratios.size),
        "max_aspect_ratio": float(finite.max()) if finite.size else float("inf"),
        "mean_aspect_ratio": float(finite.mean()) if finite.size else float("inf"),
        "n_inverted": int((signed <= 0).sum()),
    }
