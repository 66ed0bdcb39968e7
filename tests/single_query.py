"""Width-1 calls of the query engine: the reference the parity suites use.

``crawl_many`` and ``directed_walk_many`` take a one-query branch for a
single box; these helpers call that branch for one box and return its
outcome, so a suite can hold each query of a fused batch to what it gets
alone.
"""

from __future__ import annotations

from repro.core import crawl_many, directed_walk_many


def crawl_one(mesh, box, starts, counters=None, scratch=None, budget=None):
    """The width-1 crawl of ``box`` from ``starts`` (a ``CrawlOutcome``)."""
    return crawl_many(
        mesh,
        [box],
        [starts],
        None if counters is None else [counters],
        scratch=scratch,
        budgets=None if budget is None else [budget],
    ).outcomes[0]


def walk_one(mesh, box, start, counters=None, scratch=None, budget=None, **kwargs):
    """The width-1 directed walk towards ``box`` (a ``WalkOutcome``)."""
    return directed_walk_many(
        mesh,
        [box],
        [start],
        None if counters is None else [counters],
        scratch=scratch,
        budgets=None if budget is None else [budget],
        **kwargs,
    ).outcomes[0]
