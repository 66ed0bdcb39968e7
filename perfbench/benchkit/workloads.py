"""The two workloads: ``restructure`` and ``steer``.

Each workload builds its objects from the generated arrays, times the set-up
several times, then runs its closed loop for the requested seconds, in
episodes that each start again from the generated state.  A step's inputs
depend only on the seed and the step number.  A run with tracing off yields
the end-to-end samples.  A traced run traces blocks of steps in the pattern
traced, untraced, untraced, traced, charges each traced step's wall time to
layers, and compares it with the untraced steps beside it for the tracing
overhead: the host's speed drifts over seconds, so only neighbouring steps
make a fair reference.

Every benchmark-side call into the library sits in a span named after its
layer, so the same code serves both kinds of run.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .inputs import MeshInputs, load_mesh_inputs, seed_streams
from .oracle import Oracle, Positions
from .tracing import Tracer, substrate_probes

#: how a step is recorded: as an end-to-end sample (tracing off), as a traced
#: step of a traced run, or as an untraced reference step of a traced run
END_TO_END, TRACED, REFERENCE = "end-to-end", "traced", "reference"

#: workload parameters fixed by the benchmark's definition
PULSE_SPARSITY = 0.02
RESTRUCTURE_CELLS = 8
SHARDS = 2
#: two users explore at once, served by one closed-loop caller: the service is
#: bound by the interpreter lock, so a second client thread adds no throughput
#: and only turns the host's speed noise into lock waits
USERS = 2
REPOLL_PROBABILITY = 0.5


@dataclass(frozen=True)
class SimulationConfig:
    """A single-caller simulation loop: restructure, deform, maintain, query a batch."""

    name: str
    resolution: int
    restructure_every: int
    #: steps per episode; each episode starts again from the generated state,
    #: so a faster build does not simulate further into a tangled mesh
    episode_steps: int = 50
    boxes_per_step: int = 16
    setups: int = 3
    #: steps per traced or untraced block of a traced run; 5 puts one
    #: restructuring event in each block, and the block pattern balances
    #: splits against removals
    trace_block = 5

    def header(self) -> dict:
        return {
            "client_threads": 1,
            "boxes_per_step": self.boxes_per_step,
            "deformation": f"LocalizedPulseDeformation(sparsity={PULSE_SPARSITY})",
            "restructure_every": self.restructure_every,
            "restructure_cells": RESTRUCTURE_CELLS,
            "episode_steps": self.episode_steps,
            "setups": self.setups,
        }


@dataclass(frozen=True)
class SteerConfig:
    """Rounds of one deformation tick, then closed-loop single-box requests from the users in turn."""

    name: str
    resolution: int
    requests_per_user: int = 16
    subscriptions: int = 8
    viewport_pool: int = 512
    #: rounds per episode; a rewind restores the generated positions
    episode_steps: int = 50
    setups: int = 3
    trace_block = 1

    def header(self) -> dict:
        return {
            "users": USERS,
            "client_threads": 1,
            "requests_per_user_per_round": self.requests_per_user,
            "n_shards": SHARDS,
            "subscriptions": self.subscriptions,
            "viewport_pool": self.viewport_pool,
            "episode_rounds": self.episode_steps,
            "repoll_probability": REPOLL_PROBABILITY,
            "setups": self.setups,
        }


WORKLOADS = {
    "restructure": SimulationConfig("restructure", resolution=30, restructure_every=5),
    "steer": SteerConfig("steer", resolution=70),
}


@dataclass
class Samples:
    """What one run measured; times in seconds."""

    setup: list[float] = field(default_factory=list)
    response: list[float] = field(default_factory=list)
    step: list[float] = field(default_factory=list)
    request: list[float] = field(default_factory=list)
    tick: list[float] = field(default_factory=list)
    query_wall: float = 0.0
    queries: int = 0
    oracle: Oracle = field(default_factory=Oracle)
    #: standing memberships, checked apart from query answers
    memberships: Oracle = field(default_factory=Oracle)
    #: traced run: step wall of the untraced blocks, and the traced step/round tags
    untraced_step: list[float] = field(default_factory=list)
    traced_tags: set = field(default_factory=set)
    layer: dict = field(default_factory=dict)


def _boxes(box_cls, positions: np.ndarray, ids: np.ndarray, side: float) -> list:
    return [box_cls.cube(positions[i], side) for i in ids]


def _report_exception(what: str) -> None:
    print(f"benchmark: {what} raised\n{traceback.format_exc()}", file=sys.stderr)


def _per_query_counters(results) -> dict[str, float]:
    totals = {"probe": 0.0, "walk": 0.0, "crawl": 0.0, "probe_dist": 0, "walk_dist": 0,
              "crawl_visits": 0, "results": 0, "walked": 0, "queries": 0}
    for result in results:
        counters = result.counters
        totals["probe"] += result.probe_time
        totals["walk"] += result.walk_time
        totals["crawl"] += result.crawl_time
        totals["probe_dist"] += counters.probe_distance_computations
        totals["walk_dist"] += counters.walk_distance_computations
        totals["crawl_visits"] += counters.crawl_vertices_visited
        totals["results"] += result.n_results
        totals["walked"] += int(counters.walk_distance_computations > 0)
        totals["queries"] += 1
    return totals


def _add(into: dict, values: dict) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


class SimulationWorkload:
    """``restructure``: OCTOPUS through ``build_strategy`` on one mesh."""

    def __init__(self, config: SimulationConfig, inputs: MeshInputs, seed: int, tracer: Tracer) -> None:
        import repro

        self.repro = repro
        self.config = config
        self.inputs = inputs
        self.tracer = tracer
        self.deform_seed, self.schedule_seed, self.query_seed, first_seed = seed_streams(seed, config.name, 4)
        first_ids = np.random.default_rng(first_seed).integers(0, inputs.n_vertices, config.boxes_per_step)
        self.first_boxes = _boxes(repro.Box3D, inputs.vertices, first_ids, inputs.box_side)
        self.mesh = self.strategy = self.deformation = self.schedule = self.scan = None

    def setup(self, samples: Samples) -> None:
        """Time one set-up: mesh, deformation and strategy from the arrays, then the first batch."""
        samples.setup.append(self._build(samples))

    def rewind(self, samples: Samples, first_step: int) -> None:
        """Start an episode from the generated state, outside every timed window.

        Restructuring changed the topology, so mesh and strategy are rebuilt.
        """
        self._build(samples)

    def _build(self, samples: Samples) -> float:
        repro, span = self.repro, self.tracer.span
        self.mesh = self.strategy = self.scan = None
        gc.collect()
        vertices, cells = self.inputs.vertices.copy(), self.inputs.cells.copy()
        start = time.perf_counter()
        with span("setup"):
            with span("mesh.construct"):
                mesh = repro.TetrahedralMesh(vertices, cells, name=self.config.name)
            deformation = repro.simulation.LocalizedPulseDeformation(sparsity=PULSE_SPARSITY, seed=self.deform_seed)
            with span("simulation.bind"):
                deformation.bind(mesh)
            with span("core.build_strategy"):
                strategy = repro.build_strategy("octopus")
            with span("core.prepare"):
                strategy.prepare(mesh)
            with span("core.query_many"):
                results = strategy.query_many(self.first_boxes)
        elapsed = time.perf_counter() - start
        positions = Positions(mesh.vertices)
        for box, result in zip(self.first_boxes, results):
            samples.oracle.check(positions, box, result.vertex_ids, "first batch")
        self.mesh, self.strategy, self.deformation = mesh, strategy, deformation
        self.schedule = repro.simulation.periodic_restructuring(
            every=self.config.restructure_every, kind="mixed", n_cells=RESTRUCTURE_CELLS, seed=self.schedule_seed,
        )
        self.scan = repro.LinearScanExecutor()
        self.scan.prepare(mesh)
        return elapsed

    def step(self, step: int, samples: Samples, mode: str) -> None:
        """One simulation step; its batch is checked against the oracle afterwards."""
        config, span = self.config, self.tracer.span
        mesh, strategy, deformation = self.mesh, self.strategy, self.deformation
        ids = np.random.default_rng([self.query_seed, step]).integers(0, mesh.n_vertices, config.boxes_per_step)
        boxes = _boxes(self.repro.Box3D, mesh.vertices, ids, self.inputs.box_side)
        entries_before = strategy.maintenance_entries
        start = time.perf_counter()
        with span("step", step):
            with span("simulation.restructure"):
                topology = self.schedule(mesh, step)
            if topology is not None and not topology.is_empty:
                with span("simulation.bind"):
                    deformation.bind(mesh)
            with span("simulation.deform"):
                delta = deformation.apply(step)
            simulated = time.perf_counter()
            if topology is not None:
                with span("core.on_restructure"):
                    strategy.on_restructure(topology)
            with span("core.on_step"):
                strategy.on_step(delta)
            maintained = time.perf_counter()
            try:
                with span("core.query_many"):
                    results = strategy.query_many(boxes)
            except Exception:
                _report_exception(f"query_many at step {step}")
                results = [None] * len(boxes)
            end = time.perf_counter()
        if mode == REFERENCE:
            samples.untraced_step.append(end - start)
        else:
            samples.response.append(end - simulated)
            samples.step.append(end - start)
            samples.tick.append(maintained - start)
            samples.request.append(end - maintained)
            samples.query_wall += end - maintained
            samples.queries += len(boxes)
        positions = Positions(mesh.vertices)
        for box, result in zip(boxes, results):
            samples.oracle.check(positions, box, None if result is None else result.vertex_ids, f"step {step}")
        if mode == TRACED:
            self._layer_counts(samples, step, delta, topology, results, boxes, entries_before)

    def _layer_counts(self, samples, step, delta, topology, results, boxes, entries_before) -> None:
        layer = samples.layer
        samples.traced_tags.add(step)
        _add(layer, {"moved": delta.n_moved, "entries": self.strategy.maintenance_entries - entries_before})
        if topology is not None and not topology.is_empty:
            layer.setdefault("events", set()).add(step)
            _add(layer, {"dirty": topology.n_dirty})
        if results[0] is not None:
            _add(layer, _per_query_counters(results))
        with self.tracer.span("baselines.linear_scan", step):
            self.scan.query_many(boxes)

    def layer_metrics(self, samples: Samples) -> dict[str, tuple[float, int]]:
        tracer, layer, tags = self.tracer, samples.layer, samples.traced_tags
        steps = max(len(tags), 1)
        events = layer.get("events", set())
        queries = max(layer.get("queries", 0), 1)
        out = _span_medians(tracer, tags, {
            "simulation.deform_ms_p50": ("simulation.deform", None),
            "simulation.restructure_ms_p50": ("simulation.restructure", events),
            "core.on_step_ms_p50": ("core.on_step", None),
            "core.on_restructure_ms_p50": ("core.on_restructure", events),
            "core.query_batch_ms_p50": ("core.query_many", None),
        })
        out.update({
            "simulation.moved_vertices_per_step": (layer.get("moved", 0) / steps, len(tags)),
            "simulation.topology_dirty_per_event": (layer.get("dirty", 0) / max(len(events), 1), len(events)),
            "core.prepare_s": _first(tracer.durations("core.prepare")),
            "core.maintenance_entries_per_step": (layer.get("entries", 0) / steps, len(tags)),
            "core.index_bytes": (float(self.strategy.memory_overhead_bytes()), 1),
        })
        out.update(_query_engine_metrics(layer, steps, queries, len(tags)))
        return out

    def close(self) -> None:
        pass


class SteerWorkload:
    """``steer``: the sharded, cached service with standing subscriptions and client threads."""

    def __init__(self, config: SteerConfig, inputs: MeshInputs, seed: int, tracer: Tracer) -> None:
        import repro

        self.repro = repro
        self.config = config
        self.inputs = inputs
        self.tracer = tracer
        streams = seed_streams(seed, config.name, 3 + USERS)
        self.deform_seed = streams[0]
        pool_rng, subscription_rng = np.random.default_rng(streams[1]), np.random.default_rng(streams[2])
        self.user_seeds = streams[3:]
        pool_ids = pool_rng.integers(0, inputs.n_vertices, config.viewport_pool)
        self.pool = _boxes(repro.Box3D, inputs.vertices, pool_ids, inputs.box_side)
        chosen = subscription_rng.choice(config.viewport_pool, config.subscriptions, replace=False)
        self.subscription_boxes = [self.pool[i] for i in chosen]
        self.viewports = self._start_viewports(0)
        self.service = self.mesh = self.scan = None
        self.members: dict[int, np.ndarray] = {}

    def setup(self, samples: Samples) -> None:
        """Build mesh and service, subscribe, and answer the first request."""
        repro, span = self.repro, self.tracer.span
        self.close()
        self.mesh = self.scan = None
        gc.collect()
        vertices, cells = self.inputs.vertices.copy(), self.inputs.cells.copy()
        first_box = self.viewports[0]
        start = time.perf_counter()
        with span("setup"):
            with span("mesh.construct"):
                mesh = repro.TetrahedralMesh(vertices, cells, name=self.config.name)
            deformation = repro.simulation.LocalizedPulseDeformation(sparsity=PULSE_SPARSITY, seed=self.deform_seed)
            with span("simulation.bind"):
                deformation.bind(mesh)
            service = repro.ShardedQueryService(repro.OctopusExecutor, n_shards=SHARDS, caching=True)
            with span("service.prepare"):
                service.prepare(mesh)
            with span("service.warm"):
                service.warm()
            subscriptions = []
            for box in self.subscription_boxes:
                with span("service.subscribe"):
                    subscriptions.append(service.subscribe(box))
            with span("service.query"):
                first = service.query(first_box)
        samples.setup.append(time.perf_counter() - start)
        self.service, self.mesh, self.deformation = service, mesh, deformation
        self.subscriptions = subscriptions
        positions = Positions(mesh.vertices)
        samples.oracle.check(positions, first_box, first.vertex_ids, "first request")
        self.members = {}
        self._check_memberships(samples, positions, "subscribe")
        service.drain_cache_stats()
        service.drain_standing_stats()
        self.scan = repro.LinearScanExecutor()
        self.scan.prepare(mesh)

    def _start_viewports(self, step: int) -> list:
        rngs = [np.random.default_rng([seed, step]) for seed in self.user_seeds]
        return [self.pool[int(rng.integers(self.config.viewport_pool))] for rng in rngs]

    def rewind(self, samples: Samples, first_step: int) -> None:
        """Start an episode from the generated positions, outside every timed window.

        The whole-mesh tick flushes the caches and re-evaluates the standing
        queries, and the users take fresh viewports, so every episode starts
        from the same kind of state.
        """
        self.viewports = self._start_viewports(first_step)
        self.deformation.reset()
        self.service.on_step(self.repro.DeformationDelta.full(self.mesh.n_vertices))
        self._check_memberships(samples, Positions(self.mesh.vertices), "rewind")
        self.service.drain_cache_stats()
        self.service.drain_standing_stats()

    def _check_memberships(self, samples: Samples, positions: Positions, when: str) -> None:
        for update in self.service.drain_membership_updates():
            self.members[update.subscription_id] = update.current
        for sid, box in zip(self.subscriptions, self.subscription_boxes):
            samples.memberships.check(positions, box, self.members.get(sid), f"membership {sid} after {when}")

    def _round_boxes(self, step: int) -> list:
        """The round's requests, the users taking turns."""
        rngs = [np.random.default_rng([seed, step]) for seed in self.user_seeds]
        boxes = []
        for _ in range(self.config.requests_per_user):
            for user, rng in enumerate(rngs):
                if rng.random() >= REPOLL_PROBABILITY:
                    self.viewports[user] = self.pool[int(rng.integers(self.config.viewport_pool))]
                boxes.append(self.viewports[user])
        return boxes

    def step(self, step: int, samples: Samples, mode: str) -> None:
        """One round: a deformation tick, then the users' requests."""
        span, service = self.tracer.span, self.service
        boxes = self._round_boxes(step)
        entries_before = sum(s.maintenance_entries for s in service.strategies)
        answers = []
        start = time.perf_counter()
        with span("round", step):
            with span("simulation.deform"):
                delta = self.deformation.apply(step)
            simulated = time.perf_counter()
            with span("service.on_step"):
                service.on_step(delta)
            ticked = time.perf_counter()
            for box in boxes:
                asked = time.perf_counter()
                try:
                    with span("service.query"):
                        result = service.query(box)
                except Exception:
                    _report_exception(f"service.query in round {step}")
                    result = None
                answers.append((time.perf_counter() - asked, result))
            end = time.perf_counter()
        if mode == REFERENCE:
            samples.untraced_step.append(end - start)
        else:
            samples.response.append(end - simulated)
            samples.step.append(end - start)
            samples.tick.append(ticked - start)
            samples.query_wall += end - ticked
            samples.queries += len(boxes)
            samples.request.extend(latency for latency, _ in answers)
        positions = Positions(self.mesh.vertices)
        results = [result for _, result in answers]
        for box, result in zip(boxes, results):
            samples.oracle.check(positions, box, None if result is None else result.vertex_ids, f"round {step}")
        self._check_memberships(samples, positions, f"round {step}")
        cache, standing = service.drain_cache_stats(), service.drain_standing_stats()
        if mode == TRACED:
            self._layer_counts(samples, step, delta, boxes, results, cache, standing, entries_before)

    def _layer_counts(self, samples, step, delta, boxes, results, cache, standing, entries_before) -> None:
        layer, span = samples.layer, self.tracer.span
        samples.traced_tags.add(step)
        entries = sum(s.maintenance_entries for s in self.service.strategies) - entries_before
        _add(layer, {"moved": delta.n_moved, "entries": entries})
        if all(result is not None for result in results):
            _add(layer, _per_query_counters(results))
        _add(layer, {
            "hits": cache.hits, "misses": cache.misses, "invalidations": cache.invalidations,
            "evictions": cache.evictions, "updates": standing.updates, "skips": standing.skips,
            "touched": standing.touched, "recrawls": standing.recrawls,
        })
        for box in boxes:
            with span("service.route", step):
                routed = self.service.route(box)
            _add(layer, {"routed": int(routed.size)})
        with span("baselines.linear_scan", step):
            self.scan.query_many(boxes)

    def layer_metrics(self, samples: Samples) -> dict[str, tuple[float, int]]:
        tracer, layer, tags = self.tracer, samples.layer, samples.traced_tags
        rounds = max(len(tags), 1)
        queries = max(layer.get("queries", 0), 1)
        lookups = layer.get("hits", 0) + layer.get("misses", 0)
        evaluations = layer.get("skips", 0) + layer.get("touched", 0)
        out = _span_medians(tracer, tags, {
            "simulation.deform_ms_p50": ("simulation.deform", None),
            "service.route_ms_p50": ("service.route", None),
        })
        out.update({
            "simulation.moved_vertices_per_step": (layer.get("moved", 0) / rounds, len(tags)),
            "core.maintenance_entries_per_step": (layer.get("entries", 0) / rounds, len(tags)),
            "core.index_bytes": (float(sum(s.memory_overhead_bytes() for s in self.service.strategies)), 1),
            "cache.hit_rate": (layer.get("hits", 0) / max(lookups, 1), lookups),
            "cache.invalidations_per_tick": (layer.get("invalidations", 0) / rounds, len(tags)),
            "cache.evictions_per_tick": (layer.get("evictions", 0) / rounds, len(tags)),
            "standing.updates_per_tick": (layer.get("updates", 0) / rounds, len(tags)),
            "standing.skip_rate": (layer.get("skips", 0) / max(evaluations, 1), evaluations),
            "standing.recrawls_per_tick": (layer.get("recrawls", 0) / rounds, len(tags)),
            "standing.membership_recall": (samples.memberships.recall, samples.memberships.attempted),
            "service.prepare_s": _first(tracer.durations("service.prepare")),
            "service.shards_per_request": (layer.get("routed", 0) / queries, layer.get("queries", 0)),
            "service.overlap_band_vertices": (float(self.service.overlap_band_size()), 1),
        })
        out.update(_query_engine_metrics(layer, rounds, queries, len(tags)))
        return out

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


def _first(durations: list[float]) -> tuple[float, int]:
    return (durations[0], 1) if durations else (0.0, 0)


def _span_medians(tracer: Tracer, tags: set, table: dict) -> dict[str, tuple[float, int]]:
    out = {}
    for metric, (name, only) in table.items():
        values = tracer.durations(name, tags if only is None else only)
        out[metric] = (1e3 * float(np.median(values)), len(values)) if values else (0.0, 0)
    return out


def _query_engine_metrics(layer: dict, steps: int, queries: int, n_steps: int) -> dict[str, tuple[float, int]]:
    n_queries = layer.get("queries", 0)
    return {
        "core.probe_ms_per_step": (1e3 * layer.get("probe", 0.0) / steps, n_steps),
        "core.walk_ms_per_step": (1e3 * layer.get("walk", 0.0) / steps, n_steps),
        "core.crawl_ms_per_step": (1e3 * layer.get("crawl", 0.0) / steps, n_steps),
        "core.probe_distance_computations_per_query": (layer.get("probe_dist", 0) / queries, n_queries),
        "core.walk_distance_computations_per_query": (layer.get("walk_dist", 0) / queries, n_queries),
        "core.crawl_vertices_visited_per_query": (layer.get("crawl_visits", 0) / queries, n_queries),
        "core.crawl_visits_per_result": (
            layer.get("crawl_visits", 0) / max(layer.get("results", 0), 1), layer.get("results", 0)
        ),
        "core.walk_query_frac": (layer.get("walked", 0) / queries, n_queries),
    }


def root_span(config) -> str:
    """Name of the span that wraps one step (``round`` for the service workload)."""
    return "round" if isinstance(config, SteerConfig) else "step"


def run(config, root: Path, seed: int, seconds: float, trace: bool):
    """Run one workload; returns ``(samples, inputs, tracer, layer_metrics)``.

    Without tracing the set-up is timed ``config.setups`` times and the loop
    yields the end-to-end samples.  With tracing there is one traced set-up,
    and the loop alternates traced blocks with untraced reference blocks.
    """
    inputs = load_mesh_inputs(root, config.resolution)
    tracer = Tracer(enabled=trace)
    kind = SteerWorkload if isinstance(config, SteerConfig) else SimulationWorkload
    workload = kind(config, inputs, seed, tracer)
    samples = Samples()
    layer_metrics = {}
    try:
        if trace:
            with substrate_probes(tracer):
                workload.setup(samples)
                _loop(workload, samples, seconds, trace=True)
            layer_metrics = workload.layer_metrics(samples)
        else:
            for _ in range(config.setups):
                workload.setup(samples)
            _loop(workload, samples, seconds, trace=False)
    finally:
        workload.close()
    return samples, inputs, tracer, layer_metrics


def _loop(workload, samples: Samples, seconds: float, trace: bool) -> None:
    """Run steps until ``seconds`` have passed, rewinding at every episode start.

    A traced run stops only at the end of a whole block pattern, so its traced
    and untraced steps hold the same mix of step kinds.
    """
    tracer, config = workload.tracer, workload.config
    pattern = 4 * config.trace_block if trace else 1
    deadline = time.perf_counter() + seconds
    step = 0
    while time.perf_counter() < deadline or step % pattern:
        step += 1
        if (step - 1) % config.episode_steps == 0:
            tracer.enabled = False
            workload.rewind(samples, step)
        mode = END_TO_END
        if trace:
            mode = TRACED if ((step - 1) // config.trace_block) % 4 in (0, 3) else REFERENCE
        tracer.enabled = mode == TRACED
        workload.step(step, samples, mode)
    tracer.enabled = trace
