"""The kernel backend registry and kernel-level parity.

Registry behaviour (spec grammar, environment resolution, the clean numba
fallback) plus bit-level parity of the numba kernel *bodies* against the
NumPy reference.  The bodies are exercised through
``NumbaKernels(force_interpreted=True)`` — the identical code numba would
compile, run as interpreted Python — so the parity pins hold in environments
without the JIT; strategy-level parity lives in ``test_kernel_parity.py``.
"""

import numpy as np
import pytest

from repro.core.crawler import _OwnershipBits
from repro.core.scratch import CrawlScratch
from repro.errors import QueryError
from repro.kernels import (
    KernelBackend,
    available_backends,
    get_backend,
    numba_available,
)
from repro.kernels.numba_backend import NUMBA_AVAILABLE, NumbaKernels
from repro.mesh import points_in_boxes


class TestBackendRegistry:
    def test_default_is_numpy_float64(self):
        backend = get_backend()
        assert backend.name == "numpy"
        assert backend.requested == "numpy"
        assert backend.spec == "numpy"
        assert backend.compiled is False

    def test_instances_pass_through(self):
        backend = KernelBackend()
        assert get_backend(backend) is backend

    def test_specs_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend(" NumPy ") is get_backend("numpy")
        assert get_backend("numpy") is not get_backend("numba")

    def test_environment_variable_is_the_default_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
        assert get_backend().requested == "numba"
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        assert get_backend().requested == "numpy"

    def test_explicit_spec_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
        assert get_backend("numpy").requested == "numpy"

    @pytest.mark.parametrize("suffix", ["float64", "f64"])
    def test_float64_suffixes(self, suffix):
        # Every backend computes in float64; dtype suffixes are not specs.
        with pytest.raises(QueryError, match=r"\['numpy', 'numba'\]"):
            get_backend(f"numpy:{suffix}")

    @pytest.mark.parametrize("suffix", ["float32", "f32"])
    def test_float32_suffixes(self, suffix):
        # There is no float32 mode: the error names the accepted specs.
        with pytest.raises(QueryError, match=r"\['numpy', 'numba'\]"):
            get_backend(f"numpy:{suffix}")

    @pytest.mark.parametrize("spec", ["fortran", "numpy:float16", "numba:int8", "numpy:"])
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(QueryError):
            get_backend(spec)

    def test_numba_request_never_fails(self):
        backend = get_backend("numba")
        assert backend.requested == "numba"
        if numba_available():
            assert backend.name == "numba"
            assert backend.compiled is True
        else:
            # The clean fallback: NumPy behaviour under the numba spec.
            assert backend.name == "numpy"
            assert backend.compiled is False
            assert type(backend) is KernelBackend

    def test_available_backends_tracks_numba(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert ("numba" in names) == numba_available()
        assert numba_available() == NUMBA_AVAILABLE

    def test_numba_kernels_without_numba_requires_force_interpreted(self):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed: direct construction is legal")
        with pytest.raises(QueryError):
            NumbaKernels()
        backend = NumbaKernels(force_interpreted=True)
        assert backend.name == "numba"
        assert backend.compiled is False


def _random_boxes(rng, n_boxes):
    los = rng.uniform(0.0, 0.7, size=(n_boxes, 3))
    his = los + rng.uniform(0.05, 0.3, size=(n_boxes, 3))
    return los, his


def _backends_under_test():
    """The numba code path (compiled when available, interpreted otherwise)."""
    return [NumbaKernels() if NUMBA_AVAILABLE else NumbaKernels(force_interpreted=True)]


class TestKernelBodyParity:
    """The numba loop bodies reproduce the NumPy reference bit-for-bit."""

    @pytest.mark.parametrize("backend", _backends_under_test())
    def test_points_in_boxes_parity(self, rng, backend):
        reference = get_backend("numpy")
        points = rng.uniform(size=(400, 3))
        los, his = _random_boxes(rng, 23)
        # Pin a few points exactly onto box faces: closed-interval boundaries.
        points[:23, 0] = los[:, 0]
        expected = reference.points_in_boxes(points, los, his)
        assert np.array_equal(expected, points_in_boxes(points, los, his))
        assert np.array_equal(backend.points_in_boxes(points, los, his), expected)

    @pytest.mark.parametrize("backend", _backends_under_test())
    def test_pair_box_distances_parity(self, rng, backend):
        reference = get_backend("numpy")
        positions = rng.uniform(size=(300, 3))
        pair_vertices = rng.integers(0, 300, size=500)
        pair_owners = rng.integers(0, 9, size=500)
        los, his = _random_boxes(rng, 9)
        expected, expected_unique = reference.pair_box_distances(
            positions, pair_vertices, pair_owners, los, his
        )
        got, got_unique = backend.pair_box_distances(
            positions, pair_vertices, pair_owners, los, his
        )
        assert got_unique == expected_unique
        assert got.dtype == np.float64
        # Bit-identical, not merely close: same clamps, same accumulation order.
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("backend", _backends_under_test())
    @pytest.mark.parametrize("n_queries", [5, 70, 130])
    def test_crawl_stamp_and_test_parity(self, rng, backend, n_queries):
        reference = get_backend("numpy")
        n_vertices = 200
        positions = rng.uniform(size=(n_vertices, 3))
        los, his = _random_boxes(rng, n_queries)
        bits = _OwnershipBits(n_queries)
        candidates = np.unique(rng.integers(0, n_vertices, size=80))
        reach_bits = rng.integers(
            0, 2**63, size=(candidates.size, bits.n_words), dtype=np.uint64
        )
        # Clear the bits beyond n_queries in the last word, as _crawl_fused
        # guarantees, and make a few candidates entirely stale/empty.
        tail = n_queries - (bits.n_words - 1) * 64
        reach_bits[:, -1] &= np.uint64((1 << tail) - 1)
        reach_bits[::7] = 0

        outputs = []
        for kernels in (reference, backend):
            scratch = CrawlScratch()
            stamps, words, epoch = scratch.acquire_batch(n_vertices, bits.n_words)
            word_columns = words[:, : bits.n_words]
            # Pre-stamp some vertices with partial ownership so the
            # already-seen path (OR with previous words) is exercised too.
            pre = candidates[1::3]
            stamps[pre] = epoch
            word_columns[pre] = reach_bits[1::3] & np.uint64(0x5555555555555555)
            visited = np.zeros(n_queries, dtype=np.int64)
            frontier, frontier_bits, n_fresh = kernels.crawl_stamp_and_test(
                candidates,
                reach_bits.copy(),
                stamps,
                word_columns,
                epoch,
                positions,
                los,
                his,
                bits,
                visited,
                1024,
            )
            # Only stamped rows of the arena are defined (stale-stamp-means-
            # garbage contract), so compare the candidate rows' state.
            outputs.append(
                (
                    frontier,
                    frontier_bits,
                    n_fresh,
                    visited,
                    stamps[candidates] == epoch,
                    np.where(
                        (stamps[candidates] == epoch)[:, None],
                        word_columns[candidates],
                        np.uint64(0),
                    ),
                )
            )
        for expected_part, got_part in zip(outputs[0], outputs[1]):
            assert np.array_equal(expected_part, got_part)

    @pytest.mark.parametrize("backend", _backends_under_test())
    def test_crawl_stamp_and_test_empty_candidates(self, backend):
        bits = _OwnershipBits(3)
        scratch = CrawlScratch()
        stamps, words, epoch = scratch.acquire_batch(10, bits.n_words)
        visited = np.zeros(3, dtype=np.int64)
        frontier, frontier_bits, n_fresh = backend.crawl_stamp_and_test(
            np.empty(0, dtype=np.int64),
            np.empty((0, 1), dtype=np.uint64),
            stamps,
            words[:, :1],
            epoch,
            np.zeros((10, 3)),
            np.zeros((3, 3)),
            np.ones((3, 3)),
            bits,
            visited,
            1024,
        )
        assert frontier.size == 0
        assert frontier_bits.shape == (0, 1)
        assert n_fresh == 0
        assert visited.sum() == 0
