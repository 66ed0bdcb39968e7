"""Strategy construction by name, with uniform wrapper composition.

Every entry point that builds strategies — the CLI, the experiment harness,
the sharded query service, the benchmarks — goes through this module, so a
wrapped stack is always composed the same way instead of hand-nesting
constructors at each call site.  :func:`make_strategy` instantiates a bare
strategy from :data:`STRATEGY_FACTORIES`; :func:`build_strategy` layers the
optional wrappers on top in the canonical order::

    StandingStrategy( CachingStrategy( ResilientStrategy( <bare strategy, budget installed> ) ) )

Cache outermost of the ladder means a cache hit skips the degradation ladder
entirely and budget enforcement only ever meters real index work (see
``docs/caching.md``); standing outermost of everything means the registry's
narrowed re-queries flow through the cache and share its invalidation stream
(see ``docs/standing.md``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .baselines import (
    LinearScanExecutor,
    LURTreeExecutor,
    QUTradeExecutor,
    RUMTreeExecutor,
    ThrowawayGridExecutor,
    ThrowawayKDTreeExecutor,
    ThrowawayOctreeExecutor,
)
from .cache import CachingStrategy, QueryResultCache
from .core import OctopusConExecutor, OctopusExecutor, QueryBudget, ResilientStrategy
from .core.executor import ExecutionStrategy
from .errors import ExperimentError
from .standing import StandingQueryRegistry, StandingStrategy

__all__ = ["KERNEL_AWARE_STRATEGIES", "STRATEGY_FACTORIES", "build_strategy", "make_strategy"]

#: report name -> constructor, the paper's comparison set (Section V-A)
STRATEGY_FACTORIES: dict[str, Callable[..., ExecutionStrategy]] = {
    "octopus": OctopusExecutor,
    "octopus-con": OctopusConExecutor,
    "linear-scan": LinearScanExecutor,
    "octree": ThrowawayOctreeExecutor,
    "kd-tree": ThrowawayKDTreeExecutor,
    "grid": ThrowawayGridExecutor,
    "lur-tree": LURTreeExecutor,
    "qu-trade": QUTradeExecutor,
    "rum-tree": RUMTreeExecutor,
}

#: strategies whose constructors take a ``kernels=`` backend; for every other
#: name build_strategy() silently drops the argument so callers can pass one
#: spec uniformly across the whole comparison set
KERNEL_AWARE_STRATEGIES = frozenset({"octopus", "octopus-con"})


def make_strategy(name: str, **kwargs) -> ExecutionStrategy:
    """Instantiate a bare execution strategy by its report name."""
    try:
        factory = STRATEGY_FACTORIES[name]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown strategy {name!r}; expected one of {sorted(STRATEGY_FACTORIES)}"
        ) from exc
    return factory(**kwargs)


def build_strategy(
    name: str,
    *,
    caching: bool | int | dict | QueryResultCache | None = None,
    resilience: bool | str | None = None,
    budget: QueryBudget | None = None,
    standing: bool | Sequence | StandingQueryRegistry | None = None,
    kernels=None,
    **kwargs,
) -> ExecutionStrategy:
    """Build a strategy by name with the standard wrapper stack.

    Parameters
    ----------
    name:
        A report name from :data:`STRATEGY_FACTORIES`.
    caching:
        ``True`` wraps in a :class:`~repro.cache.CachingStrategy` with
        defaults; an ``int`` sets the cache's ``max_entries``; a ``dict`` is
        forwarded as :class:`~repro.cache.QueryResultCache` keyword arguments
        (``max_entries``/``quantum``/``membership``); an existing
        :class:`~repro.cache.QueryResultCache` is adopted as-is.
    resilience:
        ``True`` wraps in a :class:`~repro.core.ResilientStrategy`;
        ``"paranoid"`` additionally turns on delta validation.
    budget:
        A :class:`~repro.core.QueryBudget` installed on the bare strategy
        (wrappers forward it through the shared ledger).
    standing:
        ``True`` wraps the finished stack in a
        :class:`~repro.standing.StandingStrategy` with an empty registry; a
        sequence of :class:`~repro.mesh.Box3D` subscribes each box up front
        (initial memberships evaluated at ``prepare``); an existing
        :class:`~repro.standing.StandingQueryRegistry` is adopted as-is.
        Standing goes outermost so the registry's narrowed re-queries flow
        through the cache below; paranoid resilience propagates (the wrapper
        then validates deltas before trusting them incrementally).
    kernels:
        Kernel backend for the batched hot loops — a
        :class:`~repro.kernels.KernelBackend`, a spec string (``"numpy"``,
        ``"numba"``), or ``None`` for the ``REPRO_KERNEL_BACKEND``
        environment default.  Forwarded only to the strategies in
        :data:`KERNEL_AWARE_STRATEGIES`; silently ignored for the baselines
        (which have no batched kernels), so one spec can be passed uniformly
        across the whole comparison set.
    kwargs:
        Forwarded to the bare strategy's constructor (``fanout=16``, ...).
    """
    if kernels is not None and name in KERNEL_AWARE_STRATEGIES:
        kwargs["kernels"] = kernels
    strategy = make_strategy(name, **kwargs)
    if budget is not None:
        strategy.set_query_budget(budget)
    if resilience:
        if resilience not in (True, "paranoid"):
            raise ExperimentError(
                f"resilience must be True or 'paranoid', got {resilience!r}"
            )
        strategy = ResilientStrategy(strategy, paranoid=resilience == "paranoid")
    if caching is not None and caching is not False:
        if isinstance(caching, QueryResultCache):
            strategy = CachingStrategy(strategy, cache=caching)
        elif isinstance(caching, dict):
            strategy = CachingStrategy(strategy, **caching)
        elif caching is True:
            strategy = CachingStrategy(strategy)
        elif isinstance(caching, int):
            strategy = CachingStrategy(strategy, max_entries=caching)
        else:
            raise ExperimentError(
                "caching must be True, an int (max_entries), a kwargs dict or "
                f"a QueryResultCache, got {caching!r}"
            )
    if standing is not None and standing is not False:
        paranoid = resilience == "paranoid"
        if isinstance(standing, StandingQueryRegistry):
            strategy = StandingStrategy(strategy, registry=standing, paranoid=paranoid)
        elif standing is True:
            strategy = StandingStrategy(strategy, paranoid=paranoid)
        elif isinstance(standing, Sequence):
            strategy = StandingStrategy(strategy, boxes=standing, paranoid=paranoid)
        else:
            raise ExperimentError(
                "standing must be True, a sequence of Box3D subscriptions or "
                f"a StandingQueryRegistry, got {standing!r}"
            )
    return strategy
