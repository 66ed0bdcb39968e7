"""Budget parity: fused batches and single queries spend count budgets identically.

One :class:`~repro.core.QueryBudget` tracker meters the walk *and* the crawl
of each query, and the fused batch paths charge the same per-query counts as
the width-1 engine — so a budget-truncated ``query_many`` returns
bit-identical partial results to per-box ``query`` calls.  Wall-clock budgets
are deliberately excluded from the parity contract (they depend on machine
timing, not on metered work).
"""

import time

import numpy as np
import pytest

from repro.core import OctopusConExecutor, OctopusExecutor, QueryBudget
from repro.errors import QueryBudgetExceeded
from repro.mesh import Box3D

#: an interior box (no surface vertices → probe misses → a directed walk runs)
INTERIOR_BOX = Box3D((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
#: a face-touching box (probe hits → crawl only)
SURFACE_BOX = Box3D((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
BOXES = [INTERIOR_BOX, SURFACE_BOX, Box3D((0.1, 0.3, 0.1), (0.9, 0.7, 0.9))]


def make_executor(name, mesh):
    if name == "octopus":
        executor = OctopusExecutor()
    else:
        executor = OctopusConExecutor(grid_maintenance="incremental")
    executor.prepare(mesh)
    return executor


@pytest.fixture(params=["octopus", "octopus-con"])
def executor_name(request):
    return request.param


class TestPartialParity:
    @pytest.mark.parametrize("limit", [5, 20, 100])
    def test_visited_vertex_budget_truncates_identically(self, grid_mesh, executor_name, limit):
        budget = QueryBudget(max_visited_vertices=limit, on_exhausted="partial")

        fused = make_executor(executor_name, grid_mesh)
        fused.query_budget = budget
        batched = fused.query_many(BOXES)

        sequential = make_executor(executor_name, grid_mesh)
        sequential.query_budget = budget
        singles = [sequential.query(box) for box in BOXES]

        assert any(not result.complete for result in batched)  # the budget bit
        for one, many in zip(singles, batched):
            assert one.complete == many.complete
            assert np.array_equal(one.vertex_ids, many.vertex_ids)

    def test_distance_budget_truncates_the_walk_identically(self, grid_mesh):
        # Octopus only: the interior box misses the surface, so the probe
        # falls back to a directed walk that spends distance computations.
        # (Octopus-con's grid locate lands inside the box without walking.)
        budget = QueryBudget(max_distance_computations=3, on_exhausted="partial")

        fused = make_executor("octopus", grid_mesh)
        fused.query_budget = budget
        # A second probe miss makes the walk phase a fused (lockstep) batch.
        many, _ = fused.query_many([INTERIOR_BOX, Box3D.cube((3.0, 3.0, 3.0), 0.2)])

        sequential = make_executor("octopus", grid_mesh)
        sequential.query_budget = budget
        one = sequential.query(INTERIOR_BOX)

        assert not one.complete  # three distance computations cannot finish the walk
        assert one.complete == many.complete
        assert np.array_equal(one.vertex_ids, many.vertex_ids)

    def test_generous_budget_changes_nothing(self, grid_mesh, executor_name):
        budget = QueryBudget(max_visited_vertices=10**9, on_exhausted="partial")
        budgeted = make_executor(executor_name, grid_mesh)
        budgeted.query_budget = budget
        unbudgeted = make_executor(executor_name, grid_mesh)
        for with_budget, without in zip(budgeted.query_many(BOXES), unbudgeted.query_many(BOXES)):
            assert with_budget.complete and without.complete
            assert np.array_equal(with_budget.vertex_ids, without.vertex_ids)


class TestRaisePolicy:
    def test_sequential_and_fused_raise_alike(self, grid_mesh, executor_name):
        budget = QueryBudget(max_visited_vertices=5, on_exhausted="raise")

        sequential = make_executor(executor_name, grid_mesh)
        sequential.query_budget = budget
        with pytest.raises(QueryBudgetExceeded) as one:
            for box in BOXES:
                sequential.query(box)

        fused = make_executor(executor_name, grid_mesh)
        fused.query_budget = budget
        with pytest.raises(QueryBudgetExceeded) as many:
            fused.query_many(BOXES)

        assert one.value.context()["resource"] == many.value.context()["resource"]
        assert one.value.context()["limit"] == many.value.context()["limit"] == 5

    def test_raise_carries_query_index_from_the_batch(self, grid_mesh, executor_name):
        executor = make_executor(executor_name, grid_mesh)
        executor.query_budget = QueryBudget(max_visited_vertices=5, on_exhausted="raise")
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            executor.query_many(BOXES)
        assert excinfo.value.context().get("query_index") in range(len(BOXES))


class TestPartialResultsAreSubsets:
    def test_partial_ids_are_a_subset_of_the_full_answer(self, grid_mesh, executor_name):
        full = make_executor(executor_name, grid_mesh)
        reference = {
            index: set(result.vertex_ids.tolist())
            for index, result in enumerate(full.query_many(BOXES))
        }
        truncated = make_executor(executor_name, grid_mesh)
        truncated.query_budget = QueryBudget(max_visited_vertices=20, on_exhausted="partial")
        for index, result in enumerate(truncated.query_many(BOXES)):
            assert set(result.vertex_ids.tolist()) <= reference[index]


class TestWallClockScoping:
    """The wall-clock budget charges execution time, not queue-wait time."""

    def test_deadline_starts_at_first_spend_not_construction(self):
        budget = QueryBudget(max_wall_clock_s=0.05, on_exhausted="partial")
        tracker = budget.start(strategy="octopus")
        assert tracker.started_at is None  # no clock running yet
        time.sleep(0.12)  # queue wait: longer than the whole budget
        # the first spend starts the clock — the sleep above is not charged
        assert tracker.spend(vertices=1)
        assert not tracker.exhausted
        assert tracker.started_at is not None

    def test_deadline_still_enforced_after_it_starts(self):
        budget = QueryBudget(max_wall_clock_s=0.01, on_exhausted="partial")
        tracker = budget.start()
        assert tracker.spend(vertices=1)  # starts the clock
        time.sleep(0.03)
        assert not tracker.spend(vertices=1)
        assert tracker.exhausted_resource == "wall_clock"

    def test_batch_trackers_time_independently(self, grid_mesh, executor_name):
        # a batch builds every tracker up-front; the last query must not pay
        # for the time the first queries spent executing
        executor = make_executor(executor_name, grid_mesh)
        executor.query_budget = QueryBudget(max_wall_clock_s=5.0, on_exhausted="partial")
        results = executor.query_many(BOXES)
        assert all(result.complete for result in results)
