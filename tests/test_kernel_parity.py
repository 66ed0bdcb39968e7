"""Strategy-level parity of the kernel backends across all nine strategies.

The acceptance contract of the kernel layer: under the ``"numba"`` spec every
strategy answers every query with the same result ids and the same counters
as the NumPy default (bit-identical — in environments without numba the spec
falls back to NumPy, which makes the pin trivially true there and a real
compiled-vs-reference check on CI's numba leg).  ``build_strategy`` accepts
the spec uniformly for every strategy name; the baselines simply ignore it.
"""

import os

import numpy as np
import pytest

from repro.factory import KERNEL_AWARE_STRATEGIES, STRATEGY_FACTORIES, build_strategy
from repro.generators import structured_tetrahedral_mesh
from repro.kernels import get_backend
from repro.mesh import Box3D

ALL_STRATEGIES = sorted(STRATEGY_FACTORIES)

#: randomised box content varies with the suite seed (CI runs two seeds),
#: like the other parity suites
PARITY_SEED = int(os.environ.get("REPRO_PARITY_SEED", "0"))

#: hand-placed workload: mesh vertices sit on the 0.2 lattice of the unit
#: cube, box faces sit ≥ 0.01 away from every lattice plane.  The set
#: exercises probe hits, probe misses with interior targets (walks),
#: overlapping boxes (fused-crawl sharing) and a fully external box.
BOXES = [
    Box3D((0.11, 0.11, 0.11), (0.52, 0.52, 0.52)),
    Box3D((0.31, 0.31, 0.31), (0.49, 0.49, 0.49)),  # interior: walk on octopus
    Box3D((0.11, 0.31, 0.11), (0.72, 0.52, 0.31)),
    Box3D((0.51, 0.51, 0.51), (0.92, 0.92, 0.92)),
    Box3D((1.31, 1.31, 1.31), (1.52, 1.52, 1.52)),  # off-mesh: stuck walk
    Box3D((0.05, 0.05, 0.05), (0.95, 0.95, 0.95)),
]


def _seeded_boxes(n_boxes: int = 8) -> list[Box3D]:
    """Arbitrary seed-driven boxes (faces anywhere relative to the lattice)."""
    rng = np.random.default_rng(900 + PARITY_SEED)
    boxes = []
    for _ in range(n_boxes):
        lo = rng.uniform(0.0, 0.8, 3)
        hi = lo + rng.uniform(0.05, 0.4, 3)
        boxes.append(Box3D(tuple(lo), tuple(hi)))
    return boxes


@pytest.fixture(scope="module")
def mesh():
    return structured_tetrahedral_mesh((6, 6, 6))


def _run(name, mesh, kernels, boxes=BOXES):
    strategy = build_strategy(name, kernels=kernels)
    strategy.prepare(mesh)
    batched = strategy.query_many(boxes)
    sequential = [strategy.query(box) for box in boxes]
    return batched, sequential


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_numba_spec_is_bit_identical(mesh, name):
    boxes = BOXES + _seeded_boxes()
    reference, reference_seq = _run(name, mesh, kernels=None, boxes=boxes)
    under_test, under_test_seq = _run(name, mesh, kernels="numba", boxes=boxes)
    for expected, got in zip(reference + reference_seq, under_test + under_test_seq):
        assert np.array_equal(got.vertex_ids, expected.vertex_ids)
        assert got.counters == expected.counters
        assert got.complete == expected.complete


@pytest.mark.parametrize("spec", ["numpy", "numba"])
@pytest.mark.parametrize("name", sorted(KERNEL_AWARE_STRATEGIES))
def test_width_one_matches_the_batch_under_each_spec(mesh, name, spec):
    # A single box takes the engine's NumPy one-query branches; a batch runs
    # the spec's kernels.  Either way each box gets the same answer.
    batched, single = _run(name, mesh, kernels=spec, boxes=BOXES + _seeded_boxes())
    for many, one in zip(batched, single):
        assert np.array_equal(one.vertex_ids, many.vertex_ids)
        assert one.counters == many.counters
        assert one.complete == many.complete


@pytest.mark.parametrize("name", sorted(KERNEL_AWARE_STRATEGIES))
def test_kernel_aware_strategies_carry_the_backend(mesh, name):
    strategy = build_strategy(name, kernels="numba")
    assert strategy.kernels is get_backend("numba")
    # And the default resolves through the environment exactly once, at
    # construction.
    assert build_strategy(name).kernels is get_backend("numpy")


@pytest.mark.parametrize(
    "name", sorted(set(ALL_STRATEGIES) - KERNEL_AWARE_STRATEGIES)
)
def test_baselines_ignore_the_spec(mesh, name):
    strategy = build_strategy(name, kernels="numba")
    assert not hasattr(strategy, "kernels")


def test_environment_spec_reaches_executors(mesh, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    strategy = build_strategy("octopus")
    assert strategy.kernels is get_backend("numba")
