"""Ground-truth linear scan that every answer is checked against.

The scan is plain NumPy written here, independent of the library, with the
library's closed-box rule (``lo <= p <= hi`` on every axis, as
``repro.mesh.points_in_box`` applies it).  Checks always run outside the timed
windows.

* An id outside its box (or outside the mesh) is a wrong answer: it counts
  as failed and makes the run incorrect.
* A missed id is an incomplete answer: it lowers ``recall`` and counts in
  ``oracle.incomplete_frac`` — the crawl's known completeness limit on
  non-convex meshes, reported rather than designed out.
* An answer that raised counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Positions:
    """Column copies of the current vertex positions, for fast box scans."""

    def __init__(self, vertices: np.ndarray) -> None:
        self.n = int(vertices.shape[0])
        self.x = np.ascontiguousarray(vertices[:, 0])
        self.y = np.ascontiguousarray(vertices[:, 1])
        self.z = np.ascontiguousarray(vertices[:, 2])

    def in_box(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Sorted ids of the vertices inside the closed box ``[lo, hi]``."""
        ids = np.flatnonzero((self.x >= lo[0]) & (self.x <= hi[0]))
        y, z = self.y[ids], self.z[ids]
        keep = (y >= lo[1]) & (y <= hi[1]) & (z >= lo[2]) & (z <= hi[2])
        return ids[keep]


@dataclass
class Oracle:
    """Tally of checked answers."""

    attempted: int = 0
    failed: int = 0
    incomplete: int = 0
    expected_ids: int = 0
    returned_expected_ids: int = 0
    first_failure: str | None = None

    def check(self, positions: Positions, box, ids: np.ndarray | None, what: str) -> None:
        """Check one answer; ``ids=None`` records an answer that raised."""
        self.attempted += 1
        truth = positions.in_box(box.lo, box.hi)
        self.expected_ids += truth.size
        if ids is None:
            self._fail(f"{what}: raised")
            return
        ids = np.asarray(ids, dtype=np.int64)
        hits = int(np.isin(ids, truth, assume_unique=True).sum())
        self.returned_expected_ids += hits
        if hits != ids.size:
            wrong = ids[~np.isin(ids, truth, assume_unique=True)][:5]
            self._fail(f"{what}: ids outside the box {wrong.tolist()}")
        elif hits != truth.size:
            self.incomplete += 1

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message

    @property
    def recall(self) -> float:
        """Oracle ids returned over oracle ids expected (1.0 when nothing was expected)."""
        if self.expected_ids == 0:
            return 1.0
        return self.returned_expected_ids / self.expected_ids

    @property
    def incomplete_frac(self) -> float:
        return self.incomplete / self.attempted if self.attempted else 0.0
