"""Input generator for the benchmark, run in a process of its own.

Usage::

    python3 gen.py <src-dir> <resolution> <out.npz>

Carves ``neuron_mesh(resolution)`` with the library's default morphology and
writes its vertex and cell arrays, plus the facts the benchmark header and the
query workloads need: vertex and cell counts, the surface-vertex fraction, and
the side of a cube that holds 0.1% of the vertices on average when centred on
a vertex.  Running in a separate process keeps generation out of the
benchmark's timings and out of its peak resident memory.
"""

from __future__ import annotations

import os
import sys

import numpy as np

#: target mean selectivity of every query box in the benchmark
SELECTIVITY = 0.001
#: centres sampled (seed 0) when sizing the query cube
CALIBRATION_CENTRES = 256


def cube_side_for_selectivity(vertices: np.ndarray, selectivity: float) -> float:
    """Side of a vertex-centred cube holding ``selectivity`` of the vertices on average."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(0)
    centres = vertices[rng.integers(0, vertices.shape[0], CALIBRATION_CENTRES)]
    tree = cKDTree(vertices)
    target = selectivity * vertices.shape[0]
    lo, hi = 0.0, float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))
    for _ in range(50):
        side = 0.5 * (lo + hi)
        counts = tree.query_ball_point(centres, r=side / 2.0, p=np.inf, return_length=True)
        if counts.mean() < target:
            lo = side
        else:
            hi = side
    return 0.5 * (lo + hi)


def main(argv: list[str]) -> int:
    src, resolution, out = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, src)
    from repro.generators import neuron_mesh

    mesh = neuron_mesh(resolution)
    vertices, cells = mesh.vertices, mesh.cells
    partial = out + ".partial.npz"
    np.savez(
        partial,
        vertices=vertices,
        cells=cells,
        surface_fraction=mesh.surface_vertices().size / mesh.n_vertices,
        box_side=cube_side_for_selectivity(vertices, SELECTIVITY),
    )
    os.replace(partial, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
