"""Benchmark inputs: cached mesh arrays and the seeded per-run streams.

Mesh arrays depend only on the generator's parameters, so they are generated
once per checkout by ``gen.py`` in a child process and cached under
``.perfbench_cache/`` keyed by the resolution and a hash of the generator
sources.  Everything that depends on ``--seed`` (deformation seeds, query
centres, client schedules) is cheap and drawn in-process from
``numpy.random.SeedSequence([seed, <workload>])``, so a seed replays exactly.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: a generation must finish well inside the first run's allowance
GENERATION_TIMEOUT_S = 600


class MissingSourceError(RuntimeError):
    """The checkout does not hold the library sources the benchmark measures."""


def library_src(root: Path) -> Path:
    """The checkout's ``src`` directory, refusing to fall back to an installed copy."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingSourceError(f"no library sources under {src}")
    return src


@dataclass(frozen=True)
class MeshInputs:
    """Generated arrays of one neuron mesh plus its input facts."""

    resolution: int
    vertices: np.ndarray
    cells: np.ndarray
    surface_fraction: float
    box_side: float

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self.cells.shape[0])

    def header(self) -> dict:
        """The input part of a record header."""
        return {
            "generator": f"neuron_mesh({self.resolution})",
            "vertices": self.n_vertices,
            "cells": self.n_cells,
            "surface_vertex_fraction": round(self.surface_fraction, 6),
            "box_side": self.box_side,
        }


def _generator_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "repro" / "generators").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    digest.update((Path(__file__).parent / "gen.py").read_bytes())
    return digest.hexdigest()[:16]


def load_mesh_inputs(root: Path, resolution: int) -> MeshInputs:
    """Load ``neuron_mesh(resolution)``'s arrays, generating them on a cache miss."""
    src = library_src(root)
    cache = root / ".perfbench_cache"
    cache.mkdir(exist_ok=True)
    path = cache / f"neuron-r{resolution}-{_generator_digest(src)}.npz"
    if not path.is_file():
        subprocess.run(
            [sys.executable, str(Path(__file__).parent / "gen.py"), str(src), str(resolution), str(path)],
            check=True,
            timeout=GENERATION_TIMEOUT_S,
        )
    with np.load(path) as data:
        return MeshInputs(
            resolution=resolution,
            vertices=data["vertices"],
            cells=data["cells"],
            surface_fraction=float(data["surface_fraction"]),
            box_side=float(data["box_side"]),
        )


def seed_streams(seed: int, workload: str, n: int) -> list[int]:
    """``n`` independent integer seeds for one workload, derived from ``seed``."""
    key = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return [int(s) for s in np.random.SeedSequence([seed, key]).generate_state(n)]
