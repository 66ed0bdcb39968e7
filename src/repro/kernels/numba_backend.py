"""Loop-level kernels compiled with ``numba.njit`` when numba is available.

The kernel bodies below are written as plain-Python loops over NumPy arrays
and wrapped with ``numba.njit`` at import time when numba is importable.
When it is not, the same bodies remain callable as interpreted Python —
orders of magnitude slower, but semantically identical — which is how the
parity suites exercise this exact code path in environments without the
JIT (:class:`NumbaKernels` with ``force_interpreted=True``).  Production
fallback never runs the interpreted loops: :func:`repro.kernels.get_backend`
returns the vectorised NumPy backend when numba is absent.

Exactness: for float64 inputs every body reproduces the NumPy reference
bit-for-bit.  The distance kernel accumulates the three axis terms in the
same order as ``np.linalg.norm(delta, axis=1)`` (x², then +y², then +z²)
and ``max(lo - p, p - hi, 0)`` equals ``max(lo - p, 0) + max(p - hi, 0)``
exactly because at most one operand is positive for a valid box.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError

__all__ = ["NUMBA_AVAILABLE", "NumbaKernels"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # numba is optional; the bodies stay plain Python
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """Identity decorator standing in for ``numba.njit``."""
        if args and callable(args[0]):
            return args[0]

        def wrap(function):
            return function

        return wrap


def _points_in_boxes_body(xs, ys, zs, los, his, out):
    """Membership of n points in m boxes into an ``(m, n)`` boolean ``out``."""
    for j in range(los.shape[0]):
        lo0, lo1, lo2 = los[j, 0], los[j, 1], los[j, 2]
        hi0, hi1, hi2 = his[j, 0], his[j, 1], his[j, 2]
        for i in range(xs.shape[0]):
            out[j, i] = (
                xs[i] >= lo0
                and xs[i] <= hi0
                and ys[i] >= lo1
                and ys[i] <= hi1
                and zs[i] >= lo2
                and zs[i] <= hi2
            )
    return out


def _pair_box_distances_body(points, pair_owners, los, his, out):
    """Distance of pair ``i``'s point to its owner box, into ``out[i]``."""
    for i in range(points.shape[0]):
        q = pair_owners[i]
        d0 = los[q, 0] - points[i, 0]
        b0 = points[i, 0] - his[q, 0]
        if b0 > d0:
            d0 = b0
        if d0 < 0.0:
            d0 = 0.0
        d1 = los[q, 1] - points[i, 1]
        b1 = points[i, 1] - his[q, 1]
        if b1 > d1:
            d1 = b1
        if d1 < 0.0:
            d1 = 0.0
        d2 = los[q, 2] - points[i, 2]
        b2 = points[i, 2] - his[q, 2]
        if b2 > d2:
            d2 = b2
        if d2 < 0.0:
            d2 = 0.0
        total = d0 * d0
        total = total + d1 * d1
        total = total + d2 * d2
        out[i] = np.sqrt(total)
    return out


def _crawl_stamp_and_test_body(
    candidates,
    reach_bits,
    stamps,
    word_columns,
    epoch,
    points,
    los,
    his,
    visited_per_query,
    frontier_out,
    frontier_bits_out,
):
    """One fused-crawl level as a single loop over the candidate axis.

    Fuses the stamp-and-test of :meth:`repro.kernels.KernelBackend.
    crawl_stamp_and_test` — stale-stamp check, new-bit computation,
    ownership OR, per-query visit attribution, and the owning-box position
    test — without materialising any (candidates × queries) transient.
    Returns ``(n_fresh, n_frontier)``; the frontier rows are written into
    the caller-provided output buffers in candidate order.
    """
    zero = np.uint64(0)
    one = np.uint64(1)
    n_words = reach_bits.shape[1]
    new_row = np.empty(n_words, dtype=np.uint64)
    out_row = np.empty(n_words, dtype=np.uint64)
    n_fresh = 0
    n_frontier = 0
    for i in range(candidates.shape[0]):
        vertex = candidates[i]
        stale = stamps[vertex] != epoch
        any_new = False
        for w in range(n_words):
            if stale:
                previous = zero
            else:
                previous = word_columns[vertex, w]
            fresh_bits = reach_bits[i, w] & ~previous
            new_row[w] = fresh_bits
            if fresh_bits != zero:
                any_new = True
        if not any_new:
            continue
        for w in range(n_words):
            if stale:
                word_columns[vertex, w] = new_row[w]
            else:
                word_columns[vertex, w] = word_columns[vertex, w] | new_row[w]
        stamps[vertex] = epoch
        n_fresh += 1
        px, py, pz = points[i, 0], points[i, 1], points[i, 2]
        any_inside = False
        for w in range(n_words):
            remaining = new_row[w]
            packed = zero
            base = w * 64
            bit = 0
            while remaining != zero:
                if (remaining & one) != zero:
                    q = base + bit
                    visited_per_query[q] += 1
                    if (
                        px >= los[q, 0]
                        and px <= his[q, 0]
                        and py >= los[q, 1]
                        and py <= his[q, 1]
                        and pz >= los[q, 2]
                        and pz <= his[q, 2]
                    ):
                        packed = packed | (one << np.uint64(bit))
                remaining = remaining >> one
                bit += 1
            out_row[w] = packed
            if packed != zero:
                any_inside = True
        if any_inside:
            frontier_out[n_frontier] = vertex
            for w in range(n_words):
                frontier_bits_out[n_frontier, w] = out_row[w]
            n_frontier += 1
    return n_fresh, n_frontier


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed
    _points_in_boxes_jit = njit(nogil=True)(_points_in_boxes_body)
    _pair_box_distances_jit = njit(nogil=True)(_pair_box_distances_body)
    _crawl_stamp_and_test_jit = njit(nogil=True)(_crawl_stamp_and_test_body)
else:
    _points_in_boxes_jit = _points_in_boxes_body
    _pair_box_distances_jit = _pair_box_distances_body
    _crawl_stamp_and_test_jit = _crawl_stamp_and_test_body


from . import KernelBackend  # noqa: E402  (import after njit setup; no cycle)


class NumbaKernels(KernelBackend):
    """Compiled (njit) implementations of the three hot-loop kernels.

    Constructing this class requires numba unless ``force_interpreted=True``,
    which runs the *same* kernel bodies as interpreted Python — the parity
    suites use that to pin the numba code path bit-for-bit against the NumPy
    backend even in environments without the JIT.  ``get_backend("numba")``
    never returns an interpreted instance; without numba it falls back to
    the NumPy backend instead.
    """

    name = "numba"

    def __init__(self, force_interpreted: bool = False) -> None:
        if not NUMBA_AVAILABLE and not force_interpreted:
            raise QueryError(
                "numba is not installed; use get_backend('numba') for the clean "
                "NumPy fallback, or NumbaKernels(force_interpreted=True) to run "
                "the kernel bodies as interpreted Python (tests only)"
            )
        super().__init__()
        self.compiled = NUMBA_AVAILABLE and not force_interpreted
        if self.compiled:
            self._points_in_boxes_kernel = _points_in_boxes_jit
            self._pair_box_distances_kernel = _pair_box_distances_jit
            self._crawl_stamp_and_test_kernel = _crawl_stamp_and_test_jit
        else:
            self._points_in_boxes_kernel = _points_in_boxes_body
            self._pair_box_distances_kernel = _pair_box_distances_body
            self._crawl_stamp_and_test_kernel = _crawl_stamp_and_test_body

    def points_in_boxes(self, points: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        out = np.empty((los.shape[0], points.shape[0]), dtype=np.bool_)
        self._points_in_boxes_kernel(
            np.ascontiguousarray(points[:, 0]),
            np.ascontiguousarray(points[:, 1]),
            np.ascontiguousarray(points[:, 2]),
            np.ascontiguousarray(los),
            np.ascontiguousarray(his),
            out,
        )
        return out

    def pair_box_distances(
        self,
        positions: np.ndarray,
        pair_vertices: np.ndarray,
        pair_owners: np.ndarray,
        los: np.ndarray,
        his: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        unique_vertices, inverse = np.unique(pair_vertices, return_inverse=True)
        points = positions[unique_vertices][inverse]
        out = np.empty(points.shape[0], dtype=np.float64)
        self._pair_box_distances_kernel(
            points,
            np.ascontiguousarray(pair_owners),
            np.ascontiguousarray(los),
            np.ascontiguousarray(his),
            out,
        )
        return out, int(unique_vertices.size)

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
        # The fused loop materialises no (candidates × queries) transient, so
        # attribution_chunk (which bounds the NumPy transients) is unused.
        n_candidates = int(candidates.shape[0])
        n_words = int(reach_bits.shape[1])
        if n_candidates == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, n_words), dtype=np.uint64),
                0,
            )
        points = positions[candidates]
        frontier_out = np.empty(n_candidates, dtype=np.int64)
        frontier_bits_out = np.empty((n_candidates, n_words), dtype=np.uint64)
        n_fresh, n_frontier = self._crawl_stamp_and_test_kernel(
            np.ascontiguousarray(candidates),
            np.ascontiguousarray(reach_bits),
            stamps,
            word_columns,
            epoch,
            points,
            np.ascontiguousarray(los),
            np.ascontiguousarray(his),
            visited_per_query,
            frontier_out,
            frontier_bits_out,
        )
        return (
            frontier_out[:n_frontier].copy(),
            frontier_bits_out[:n_frontier].copy(),
            int(n_fresh),
        )
