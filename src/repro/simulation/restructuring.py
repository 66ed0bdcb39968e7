"""Mesh restructuring: the rare connectivity-changing transformation.

Section IV-E2 distinguishes *mesh deformation* (positions change; the surface
index needs no maintenance) from *mesh restructuring* (cells are split or
merged; the surface can change and the surface index must be updated with
insert/delete operations).  Restructuring is rarely implemented in practice,
but OCTOPUS supports it, so this module provides the two operations needed to
exercise that code path:

* :func:`split_cells` — 1-to-4 split of selected tetrahedra by inserting their
  centroid as a new vertex;
* :func:`remove_cells` — deletion of selected tetrahedra (e.g. eroding the
  mesh), which typically exposes new surface vertices.

Both return a new :class:`~repro.mesh.tetrahedral.TetrahedralMesh` plus a
:class:`RestructuringEvent` describing how the surface changed and carrying
the :class:`~repro.core.delta.TopologyDelta` that feeds the change-propagation
lifecycle: the delta names the vertices whose index entries may have changed
(the affected cells' vertices plus any inserted centroids), so
:meth:`~repro.core.executor.ExecutionStrategy.on_restructure` can splice those
few entries instead of rebuilding over the whole mesh.  Two id contracts make
the incremental paths safe:

* both operations **preserve pre-existing vertex ids** (removed cells leave
  their vertices in place, possibly isolated);
* new vertices are only ever **appended** — split centroids occupy the id
  range ``[n_before, n_after)``.

The ``*_inplace`` variants apply the operation to the live simulation mesh
(via :meth:`~repro.mesh.base.PolyhedralMesh.restructure`), which is what
:class:`~repro.simulation.simulator.MeshSimulation` drives through its
``restructuring`` schedule; :func:`periodic_restructuring` builds such a
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..core.delta import TopologyDelta
from ..errors import SimulationError
from ..mesh import PolyhedralMesh, TetrahedralMesh

__all__ = [
    "RestructuringEvent",
    "split_cells",
    "remove_cells",
    "split_cells_inplace",
    "remove_cells_inplace",
    "periodic_restructuring",
]

#: signature of a simulation restructuring schedule: ``(mesh, step)`` mutates
#: the mesh in place and returns the step's TopologyDelta, or None when the
#: step restructures nothing
RestructuringSchedule = Callable[[PolyhedralMesh, int], Optional[TopologyDelta]]


@dataclass(frozen=True)
class RestructuringEvent:
    """Description of one restructuring of the mesh.

    Attributes
    ----------
    kind:
        "split" or "remove".
    affected_cells:
        Cell ids of the original mesh that were split or removed.
    n_new_vertices:
        Vertices added by the operation (splits insert centroids).
    surface_vertices_before / surface_vertices_after:
        Surface vertex ids before and after, in the *new* mesh's numbering
        (vertex ids are preserved for pre-existing vertices by both
        operations, so the two sets are directly comparable).
    delta:
        The :class:`~repro.core.delta.TopologyDelta` describing the change
        for the strategy lifecycle — dirty vertex ids (affected cells'
        vertices plus inserted centroids), added/removed cell counts, added
        vertex count and the dirty AABB.
    """

    kind: str
    affected_cells: np.ndarray
    n_new_vertices: int
    surface_vertices_before: np.ndarray
    surface_vertices_after: np.ndarray
    delta: TopologyDelta = field(default=None)

    @property
    def inserted_surface_vertices(self) -> np.ndarray:
        """Vertex ids that joined the surface."""
        return np.setdiff1d(self.surface_vertices_after, self.surface_vertices_before)

    @property
    def removed_surface_vertices(self) -> np.ndarray:
        """Vertex ids that left the surface."""
        return np.setdiff1d(self.surface_vertices_before, self.surface_vertices_after)


def split_cells(mesh: TetrahedralMesh, cell_ids: np.ndarray) -> tuple[TetrahedralMesh, RestructuringEvent]:
    """Split the selected tetrahedra 1-to-4 by inserting their centroids.

    Existing vertices keep their ids; each split cell contributes one new
    vertex appended after them.  The operation refines the mesh the way
    adaptive simulations do; interior splits do not change the surface, while
    splits of boundary cells add their centroid only to the interior (the
    centroid of a tetrahedron is never on the surface), so the surface vertex
    set is typically unchanged — which is exactly the paper's point about how
    cheap surface-index maintenance is.

    The returned event carries the :class:`~repro.core.delta.TopologyDelta`
    whose dirty set is the split cells' vertices plus the new centroids —
    every possible surface-membership change and every new index entry lies
    inside it.

    Note that a centroid has only four mesh edges (to its cell's corners),
    so very small query boxes can contain a centroid without containing any
    of its neighbours; crawl-based execution then cannot reach it (the same
    in-box connectivity assumption that removals can break by isolating
    vertices).  Position-index strategies are unaffected.
    """
    ids = np.unique(np.asarray(cell_ids, dtype=np.int64))
    if ids.size == 0:
        raise SimulationError("split_cells needs at least one cell id")
    if ids.min() < 0 or ids.max() >= mesh.n_cells:
        raise SimulationError("cell ids out of range")

    before = mesh.surface_vertices()
    centroids = mesh.vertices[mesh.cells[ids]].mean(axis=1)
    new_vertex_ids = mesh.n_vertices + np.arange(ids.size, dtype=np.int64)
    new_vertices = np.vstack([mesh.vertices, centroids])

    keep_mask = np.ones(mesh.n_cells, dtype=bool)
    keep_mask[ids] = False
    kept_cells = mesh.cells[keep_mask]

    split_cells_list = []
    faces = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    for new_vertex, cell_id in zip(new_vertex_ids, ids):
        cell = mesh.cells[cell_id]
        for face in faces:
            split_cells_list.append([cell[face[0]], cell[face[1]], cell[face[2]], new_vertex])
    new_cells = np.vstack([kept_cells, np.asarray(split_cells_list, dtype=np.int64)])

    new_mesh = TetrahedralMesh(new_vertices, new_cells, name=mesh.name)
    delta = TopologyDelta.sparse(
        new_mesh.n_vertices,
        np.concatenate([mesh.cells[ids].ravel(), new_vertex_ids]),
        new_mesh.vertices,
        n_vertices_added=int(ids.size),
        n_cells_added=4 * int(ids.size),
        n_cells_removed=int(ids.size),
    )
    event = RestructuringEvent(
        kind="split",
        affected_cells=ids,
        n_new_vertices=int(ids.size),
        surface_vertices_before=before,
        surface_vertices_after=new_mesh.surface_vertices(),
        delta=delta,
    )
    return new_mesh, event


def remove_cells(mesh: TetrahedralMesh, cell_ids: np.ndarray) -> tuple[TetrahedralMesh, RestructuringEvent]:
    """Delete the selected tetrahedra, exposing new surface where they were.

    Vertex ids are preserved (vertices that become isolated simply stop being
    referenced); removing boundary-adjacent cells usually promotes interior
    vertices to surface vertices, exercising the surface index's insert path.

    The returned event carries the :class:`~repro.core.delta.TopologyDelta`
    whose dirty set is the removed cells' vertices: a face exposed by the
    removal is always a face *of a removed cell's neighbour shared with that
    removed cell*, so its vertices belong to the removed cell too — every
    surface-membership change lies inside the dirty set.
    """
    ids = np.unique(np.asarray(cell_ids, dtype=np.int64))
    if ids.size == 0:
        raise SimulationError("remove_cells needs at least one cell id")
    if ids.min() < 0 or ids.max() >= mesh.n_cells:
        raise SimulationError("cell ids out of range")
    if ids.size >= mesh.n_cells:
        raise SimulationError("cannot remove every cell of the mesh")

    before = mesh.surface_vertices()
    keep_mask = np.ones(mesh.n_cells, dtype=bool)
    keep_mask[ids] = False
    new_mesh = TetrahedralMesh(mesh.vertices.copy(), mesh.cells[keep_mask], name=mesh.name)
    delta = TopologyDelta.sparse(
        new_mesh.n_vertices,
        mesh.cells[ids].ravel(),
        new_mesh.vertices,
        n_cells_removed=int(ids.size),
    )
    event = RestructuringEvent(
        kind="remove",
        affected_cells=ids,
        n_new_vertices=0,
        surface_vertices_before=before,
        surface_vertices_after=new_mesh.surface_vertices(),
        delta=delta,
    )
    return new_mesh, event


def split_cells_inplace(mesh: TetrahedralMesh, cell_ids: np.ndarray) -> RestructuringEvent:
    """Split cells on the live mesh: :func:`split_cells` applied in place.

    The mesh's vertex and cell arrays are swapped for the refined ones (via
    :meth:`~repro.mesh.base.PolyhedralMesh.restructure`, bumping the
    connectivity version) and the event — delta included — is returned, ready
    to be handed to every strategy's ``on_restructure``.

    The live mesh also takes over the substrate the operation already holds:
    the surface extracted for ``event.surface_vertices_after`` becomes its
    surface cache, and a built adjacency is spliced through the delta's dirty
    set instead of being dropped (see ``PolyhedralMesh.restructure``).
    """
    new_mesh, event = split_cells(mesh, cell_ids)
    _hand_over(mesh, new_mesh, event)
    return event


def remove_cells_inplace(mesh: TetrahedralMesh, cell_ids: np.ndarray) -> RestructuringEvent:
    """Remove cells from the live mesh: :func:`remove_cells` applied in place,
    handing over the substrate like :func:`split_cells_inplace`."""
    new_mesh, event = remove_cells(mesh, cell_ids)
    _hand_over(mesh, new_mesh, event)
    return event


def _hand_over(mesh: PolyhedralMesh, new_mesh: PolyhedralMesh, event: RestructuringEvent) -> None:
    mesh.restructure(
        new_mesh.vertices, new_mesh.cells, surface=new_mesh.surface, dirty_ids=event.delta.dirty_ids
    )


def periodic_restructuring(
    every: int = 4,
    kind: str = "split",
    n_cells: int = 4,
    seed: int = 0,
) -> RestructuringSchedule:
    """A simulation restructuring schedule firing every ``every``-th step.

    At each firing step a seeded draw picks ``n_cells`` cells that are
    contiguous in cell-id order (a spatially coherent clump on meshes with a
    structured cell layout — the "localized restructuring" workload) and
    splits or removes them in place, returning the operation's
    :class:`~repro.core.delta.TopologyDelta`; other steps return ``None``.

    ``kind`` is ``"split"``, ``"remove"`` or ``"mixed"`` (alternating,
    starting with a split).  Removal schedules never erode the mesh below
    ``n_cells + 1`` cells.
    """
    if every < 1:
        raise SimulationError("restructuring period must be at least 1")
    if kind not in ("split", "remove", "mixed"):
        raise SimulationError("restructuring kind must be 'split', 'remove' or 'mixed'")
    if n_cells < 1:
        raise SimulationError("n_cells must be at least 1")

    def schedule(mesh: PolyhedralMesh, step: int) -> TopologyDelta | None:
        if step % every != 0:
            return None
        operation = kind
        if kind == "mixed":
            operation = "split" if (step // every) % 2 == 1 else "remove"
        count = min(n_cells, mesh.n_cells - 1)
        if count < 1 or (operation == "remove" and mesh.n_cells <= n_cells + 1):
            return None
        rng = np.random.default_rng(seed + step)
        offset = int(rng.integers(0, mesh.n_cells - count + 1))
        cell_ids = np.arange(offset, offset + count, dtype=np.int64)
        if operation == "split":
            event = split_cells_inplace(mesh, cell_ids)
        else:
            event = remove_cells_inplace(mesh, cell_ids)
        return event.delta

    return schedule
