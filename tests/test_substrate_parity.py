"""Mesh substrate parity: packed-key dedup against the row-wise ``np.unique``.

The CSR adjacency, the surface extraction, ``edges_from_cells`` and the
validator's duplicate-cell count all deduplicate rows through the packed
int64 keys of :mod:`repro.mesh.rowkeys`.  The formulation they replaced —
``np.unique(rows, axis=0)`` over stacked ``(lo, hi)`` edges and over sorted
faces — lives here as the oracle, and every generator's output must match it
bit for bit: ``indptr``/``indices``, surface vertices, surface face order and
``n_faces_total``.  ``structured_hexahedral_mesh((40, 40, 40))`` has 68,921
vertices, above the 55,108 at which quad-face keys overflow int64, so it
exercises the ``np.lexsort`` branch; synthetic rows with ids near ``2**40``
exercise it for every arity.

The benchmark's substrate probes (``perfbench/benchkit/tracing.py``) wrap
``AdjacencyList.from_cells`` and the ``extract_surface`` name bound in
``repro.mesh.base``; the last tests run those probes and pin that the lazy
mesh caches go through exactly those names, and that a restructuring event
extracts the surface once and splices the CSR instead of building it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import MeshConnectivityError
from repro.generators import (
    Sphere,
    carve_tetrahedral_mesh,
    earthquake_mesh,
    neuron_mesh,
    random_delaunay_mesh,
    structured_hexahedral_mesh,
    structured_tetrahedral_mesh,
)
from repro.mesh import (
    AdjacencyList,
    TetrahedralMesh,
    TriangleMesh,
    cell_faces,
    edges_from_cells,
    extract_surface,
    validate_mesh,
)
from repro.mesh.adjacency import _EDGE_PATTERNS
from repro.mesh.rowkeys import fits_int64, unique_rows
from repro.simulation import remove_cells_inplace, split_cells_inplace
from seed_families import parity_seed_family

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from benchkit.tracing import Tracer, substrate_probes  # noqa: E402

# ----------------------------------------------------------------------
# the oracle: the row-wise np.unique formulation
# ----------------------------------------------------------------------


def oracle_edges(cells: np.ndarray) -> np.ndarray:
    pattern = np.asarray(_EDGE_PATTERNS[cells.shape[1]], dtype=np.int64)
    edges = cells[:, pattern].reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def oracle_csr(n_vertices: int, unique: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the sorted unique ``(lo, hi)`` edge rows (self loops dropped)."""
    unique = unique[unique[:, 0] != unique[:, 1]]
    src = np.concatenate([unique[:, 0], unique[:, 1]])
    dst = np.concatenate([unique[:, 1], unique[:, 0]])
    order = np.lexsort((dst, src))
    counts = np.bincount(src[order], minlength=n_vertices)
    return np.concatenate([[0], np.cumsum(counts)]), dst[order]


def oracle_surface(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    faces = cell_faces(cells)
    _, first_index, counts = np.unique(
        np.sort(faces, axis=1), axis=0, return_index=True, return_counts=True
    )
    surface_faces = faces[first_index[counts == 1]]
    return np.unique(surface_faces), surface_faces, int(faces.shape[0])


def assert_substrate_matches_oracle(mesh) -> None:
    indptr, indices = oracle_csr(mesh.n_vertices, oracle_edges(mesh.cells))
    adjacency = AdjacencyList.from_cells(mesh.n_vertices, mesh.cells)
    assert np.array_equal(adjacency.indptr, indptr)
    assert np.array_equal(adjacency.indices, indices)
    vertices, faces, n_faces_total = oracle_surface(mesh.cells)
    surface = extract_surface(mesh.cells)
    assert np.array_equal(surface.surface_vertices, vertices)
    assert np.array_equal(surface.surface_faces, faces)
    assert surface.n_faces_total == n_faces_total
    assert np.array_equal(edges_from_cells(mesh.cells), oracle_edges(mesh.cells))


GENERATORS = {
    "neuron": lambda: neuron_mesh(14),
    "tet-grid": lambda: structured_tetrahedral_mesh((6, 5, 4)),
    "hex-grid": lambda: structured_hexahedral_mesh((6, 5, 4)),
    "delaunay": lambda: random_delaunay_mesh(400, seed=3),
    "earthquake": lambda: earthquake_mesh(8),
    "carve": lambda: carve_tetrahedral_mesh(Sphere((0.0, 0.0, 0.0), 1.0), resolution=10),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_substrate_is_bit_identical(name):
    assert_substrate_matches_oracle(GENERATORS[name]())


def test_large_hexahedral_grid_takes_the_lexsort_branch():
    mesh = structured_hexahedral_mesh((40, 40, 40))
    assert mesh.n_vertices == 68_921
    assert not fits_int64(mesh.n_vertices, 4)  # quad-face keys overflow
    assert fits_int64(mesh.n_vertices, 2)  # edge keys do not
    assert_substrate_matches_oracle(mesh)


def test_triangle_mesh_and_degenerate_cells():
    vertices = np.random.default_rng(0).uniform(size=(6, 3))
    triangles = TriangleMesh(vertices, np.array([[0, 1, 2], [2, 1, 3], [3, 4, 5], [5, 4, 3]]))
    assert_substrate_matches_oracle(triangles)
    # A cell repeating a vertex yields self loops, which the CSR drops.
    cells = np.array([[0, 1, 2, 3], [1, 2, 4, 4], [2, 3, 4, 5]])
    adjacency = AdjacencyList.from_cells(6, cells)
    indptr, indices = oracle_csr(6, oracle_edges(cells))
    assert np.array_equal(adjacency.indptr, indptr)
    assert np.array_equal(adjacency.indices, indices)


def test_from_edges_matches_oracle_on_random_multigraph():
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 50, size=(400, 2))  # duplicates, reversals, self loops
    adjacency = AdjacencyList.from_edges(60, edges)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    indptr, indices = oracle_csr(60, np.unique(np.stack([lo, hi], axis=1), axis=0))
    assert np.array_equal(adjacency.indptr, indptr)
    assert np.array_equal(adjacency.indices, indices)


# ----------------------------------------------------------------------
# the row-dedup helper itself
# ----------------------------------------------------------------------


def _assert_unique_rows_matches_numpy(rows: np.ndarray) -> None:
    _, want_index, want_counts = np.unique(rows, axis=0, return_index=True, return_counts=True)
    first_index, counts = unique_rows(rows)
    assert np.array_equal(first_index, want_index)
    assert np.array_equal(counts, want_counts)


@pytest.mark.parametrize("seed", parity_seed_family())
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("base", [0, 2**20, 2**40])
def test_unique_rows_matches_numpy(seed, k, base):
    rng = np.random.default_rng(seed)
    # A few distinct ids so rows repeat; offsets straddle both branches.
    rows = base + rng.integers(0, 4, size=(300, k)) * rng.integers(1, 2**10)
    _assert_unique_rows_matches_numpy(rows)


def test_unique_rows_branches_and_edge_cases():
    assert fits_int64(2**20 + 2**12, 3) and not fits_int64(2**20, 4)
    assert not fits_int64(2**40, 2)
    first_index, counts = unique_rows(np.empty((0, 3), dtype=np.int64))
    assert first_index.size == 0 and counts.size == 0
    _assert_unique_rows_matches_numpy(np.array([[7, 7, 7]]))
    _assert_unique_rows_matches_numpy(np.array([[2**40, 0], [0, 2**40], [2**40, 0]]))


def test_overflowing_vertex_count_is_refused():
    with pytest.raises(MeshConnectivityError):
        AdjacencyList.from_edges(2**32, np.array([[0, 1]]))


def test_non_manifold_face_still_raises():
    # Three tetrahedra sharing face (0, 1, 2).
    cells = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [2, 1, 0, 5]])
    with pytest.raises(MeshConnectivityError, match="shared by more than two cells"):
        extract_surface(cells)


def test_validation_duplicate_count_matches_oracle():
    mesh = structured_tetrahedral_mesh((3, 3, 3))
    cells = np.vstack([mesh.cells, mesh.cells[[0, 4, 4]][:, ::-1]])
    duplicated = TetrahedralMesh(mesh.vertices, cells)
    expected = cells.shape[0] - np.unique(np.sort(cells, axis=1), axis=0).shape[0]
    assert expected == 3
    assert validate_mesh(duplicated).n_duplicate_cells == expected


# ----------------------------------------------------------------------
# the benchmark's probe binding
# ----------------------------------------------------------------------


@pytest.fixture()
def probes():
    """The benchmark's own substrate probes; returns (CSR builds, surface extractions)."""
    tracer = Tracer()
    with substrate_probes(tracer):
        yield lambda: (tracer.count("mesh.adjacency_build"), tracer.count("mesh.surface_extract"))


def test_lazy_caches_build_through_the_probed_names(probes):
    mesh = structured_tetrahedral_mesh((3, 3, 3)).copy()
    mesh.adjacency
    mesh.surface
    mesh.adjacency
    mesh.surface
    assert probes() == (1, 1)


def test_restructuring_extracts_once_and_splices_the_csr(probes):
    mesh = structured_tetrahedral_mesh((4, 4, 4)).copy()
    mesh.adjacency
    mesh.surface
    assert probes() == (1, 1)
    for event in range(4):
        cell_ids = np.arange(3 * event, 3 * event + 3)
        if event % 2:
            remove_cells_inplace(mesh, cell_ids)
        else:
            split_cells_inplace(mesh, cell_ids)
        mesh.adjacency
        mesh.surface
    # One surface extraction per event (on the operation's result, then
    # carried); the CSR is spliced, never rebuilt through from_cells.
    assert probes() == (1, 1 + 4)
