"""Command-line interface for regenerating the paper's experiments.

Usage (after installing the package)::

    python -m repro.cli list
    python -m repro.cli figure4 --profile small
    python -m repro.cli figure7-selectivity --profile tiny --output fig7gh.txt
    python -m repro.cli all --profile tiny

Each sub-command runs the corresponding driver from
:mod:`repro.experiments.figures`, prints the resulting series as a text table
and optionally writes it to a file.  This is a convenience wrapper around the
same functions the ``benchmarks/`` suite calls; use ``pytest benchmarks/
--benchmark-only`` when timing information is needed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from .experiments import format_table
from .experiments import figures as figure_drivers
from .experiments.harness import (
    cache_comparison_rows,
    fault_injection_rows,
    restructuring_maintenance_rows,
    sparse_maintenance_rows,
    sparsity_sweep_rows,
    standing_steering_rows,
    traffic_rows,
)

__all__ = ["EXPERIMENTS", "build_parser", "run_experiment", "main"]

#: experiment name -> (driver taking a profile, table title)
EXPERIMENTS: dict[str, tuple[Callable[[str], list[dict]], str]] = {
    "figure4": (
        lambda profile: figure_drivers.figure4_rows(profile),
        "Figure 4 — neuroscience dataset characterisation",
    ),
    "figure5": (
        lambda profile: figure_drivers.figure5_rows(),
        "Figure 5 — neuroscience microbenchmarks",
    ),
    "figure6": (
        lambda profile: figure_drivers.figure6(profile, n_steps=2),
        "Figure 6 — benchmark comparison (response time and memory)",
    ),
    "figure7-detail": (
        lambda profile: figure_drivers.figure7_mesh_detail_fixed_query(profile, n_steps=2),
        "Figure 7(a,b) — mesh detail sweep, fixed query volume",
    ),
    "figure7-results": (
        lambda profile: figure_drivers.figure7_mesh_detail_fixed_results(profile, n_steps=2),
        "Figure 7(c,d) — mesh detail sweep, fixed result count",
    ),
    "figure7-steps": (
        lambda profile: figure_drivers.figure7_time_steps(profile),
        "Figure 7(e,f) — time step sweep",
    ),
    "figure7-selectivity": (
        lambda profile: figure_drivers.figure7_selectivity(profile, n_steps=2),
        "Figure 7(g,h) — query selectivity sweep",
    ),
    "figure9-convex": (
        lambda profile: figure_drivers.figure9_convex_comparison(profile, selectivity=0.01),
        "Figure 9(a,b) — convex mesh comparison",
    ),
    "figure9-grid": (
        lambda profile: figure_drivers.figure9_grid_resolution(profile),
        "Figure 9(c,d) — grid resolution trade-off",
    ),
    "figure10-breakdown": (
        lambda profile: figure_drivers.figure10_breakdown(profile, selectivity=0.005),
        "Figure 10(a) — OCTOPUS phase breakdown",
    ),
    "figure10-footprint": (
        lambda profile: figure_drivers.figure10_footprint(profile),
        "Figure 10(b) — memory footprint vs results",
    ),
    "figure11": (
        lambda profile: figure_drivers.figure11_model_validation(profile),
        "Figure 11 — analytical model validation",
    ),
    "figure12": (
        lambda profile: figure_drivers.figure12_surface_approximation(profile),
        "Figure 12 — surface approximation",
    ),
    "figure13": (
        lambda profile: figure_drivers.figure13_hilbert_layout(profile),
        "Figure 13 — Hilbert data layout",
    ),
    "figure14": (
        lambda profile: figure_drivers.figure14_rows(profile),
        "Figure 14 — deforming mesh datasets",
    ),
    "figure15": (
        lambda profile: figure_drivers.figure15_animation(profile),
        "Figure 15 — deforming mesh query performance",
    ),
    "sparse-maintenance": (
        lambda profile: sparse_maintenance_rows(profile),
        "Sparse deformation — delta-keyed maintenance ledger",
    ),
    "restructuring-maintenance": (
        lambda profile: restructuring_maintenance_rows(profile),
        "Restructuring — topology-delta-keyed maintenance ledger",
    ),
    "sparsity-sweep": (
        lambda profile: sparsity_sweep_rows(profile),
        "Sparsity sweep — maintenance time vs fraction of vertices moving",
    ),
    "fault-injection": (
        lambda profile: fault_injection_rows(profile),
        "Fault injection — degradation ledger under a seeded chaos plan",
    ),
    "traffic": (
        lambda profile: traffic_rows(profile),
        "Traffic — sharded service throughput/latency vs sequential baseline",
    ),
    "cache": (
        lambda profile: cache_comparison_rows(profile),
        "Cache — delta-invalidated result cache on a repeated-query workload",
    ),
    "standing": (
        lambda profile: standing_steering_rows(profile),
        "Standing — incremental subscriptions on a steering workload",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro.cli``."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the OCTOPUS paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment to run, 'list' to enumerate them, or 'all' to run every one",
    )
    parser.add_argument(
        "--profile",
        default="small",
        choices=["tiny", "small", "medium", "large"],
        help="dataset size profile (default: small)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the table(s) to this file",
    )
    parser.add_argument(
        "--no-batch",
        action="store_true",
        help="issue queries one by one instead of through the batched "
        "query_many path (sets REPRO_SEQUENTIAL_QUERIES for the run)",
    )
    parser.add_argument(
        "--layout",
        default=None,
        choices=["native", "hilbert", "random"],
        help="vertex layout pass applied before strategies prepare "
        "(sets REPRO_LAYOUT for the run; default: native)",
    )
    parser.add_argument(
        "--kernels",
        default=None,
        metavar="SPEC",
        help="kernel backend spec for the batched hot loops, 'numpy' or "
        "'numba' (sets REPRO_KERNEL_BACKEND for the run; numba "
        "falls back to numpy when not installed)",
    )
    return parser


def run_experiment(name: str, profile: str) -> str:
    """Run one named experiment and return its rendered table."""
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise SystemExit(f"unknown experiment {name!r}; known experiments: {known}")
    driver, title = EXPERIMENTS[name]
    rows = driver(profile)
    return format_table(rows, title=title)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (_, title) in sorted(EXPERIMENTS.items()):
            print(f"{name:<22} {title}")
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    # Flags travel to the harness via environment variables (restored after
    # the run), so every construction path honours them without threading.
    overrides: dict[str, str] = {}
    if args.no_batch:
        overrides["REPRO_SEQUENTIAL_QUERIES"] = "1"
    if args.layout is not None:
        overrides["REPRO_LAYOUT"] = args.layout
    if args.kernels is not None:
        overrides["REPRO_KERNEL_BACKEND"] = args.kernels
    previous = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        tables = [run_experiment(name, args.profile) for name in names]
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    output = "\n\n".join(tables)
    print(output)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(output + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
