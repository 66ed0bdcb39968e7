"""Ablation (not a paper figure): why the crawl starts from ALL surface vertices.

Section IV-C argues that on a non-convex mesh a range query can intersect
several disjoint sub-meshes, so crawling from a single vertex inside the query
may miss part of the result.  This ablation quantifies the completeness loss
of a single-start crawl versus the full OCTOPUS surface probe on the neuron
(non-convex) dataset.
"""

from conftest import run_once

from repro.core import OctopusExecutor, crawl_many
from repro.experiments import neuron_largest
from repro.workloads import random_query_workload


def _rows(profile, n_queries=12, selectivity=0.002, seed=0):
    mesh = neuron_largest(profile)
    octopus = OctopusExecutor()
    octopus.prepare(mesh)
    workload = random_query_workload(mesh, selectivity=selectivity, n_queries=n_queries, seed=seed)
    incomplete = 0
    total_recall = 0.0
    for box in workload.boxes:
        full = octopus.query(box)
        # Single-start crawl: pick one arbitrary result vertex as the seed.
        if full.n_results == 0:
            total_recall += 1.0
            continue
        single = crawl_many(mesh, [box], [full.vertex_ids[:1]]).outcomes[0]
        recall = single.result_ids.size / full.n_results
        total_recall += recall
        if single.result_ids.size < full.n_results:
            incomplete += 1
    return [
        {
            "queries": len(workload.boxes),
            "incomplete_single_start_queries": incomplete,
            "mean_single_start_recall_pct": 100.0 * total_recall / len(workload.boxes),
            "octopus_recall_pct": 100.0,
        }
    ]


def test_ablation_single_vs_all_surface_starts(benchmark, profile, record_rows):
    rows = run_once(benchmark, _rows, profile)
    record_rows(
        "ablation_surface_starts",
        rows,
        "Ablation — single-start crawl vs OCTOPUS surface probe (non-convex mesh)",
    )
    row = rows[0]
    # OCTOPUS is always complete by construction; a single-start crawl is not
    # guaranteed to be (it may or may not lose results for a given workload,
    # but it can never do better).
    assert row["mean_single_start_recall_pct"] <= 100.0
