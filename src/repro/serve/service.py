"""End-to-end service runs: spec in, deterministic result out.

:func:`run_service` builds a deployment for the spec topology,
installs the flow population, wires the orchestrator, live consistency
checking and optional chaos events, then drives the request workload
to the horizon on the simulated clock.  The returned
:class:`ServiceResult` carries per-request records, SLO summaries and
a content signature; everything in :meth:`ServiceResult.to_results`
is simulated-time only, so the same spec + seed is bit-identical
regardless of host, worker count or wall-clock speed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.algos.registry import build_strategy_runtime
from repro.chaos.campaign import TopoEvent
from repro.chaos.runner import TOPOLOGIES, _apply_topo_event, trace_signature
from repro.consistency.checker import LiveChecker
from repro.obs.causal import CausalTracker, summarize_attribution
from repro.obs.context import NULL_OBS, ObsContext
from repro.obs.registry import NullRegistry
from repro.obs.spans import NullSpanTracker
from repro.params import SimParams
from repro.serve.model import OUTCOME_COMPLETED, OUTCOMES
from repro.serve.orchestrator import ServiceOrchestrator
from repro.serve.spec import ServeSpec
from repro.serve.workload import (
    build_flow_population,
    closed_loop_pick,
    flow_weights,
    open_loop_arrivals,
)
from repro.sim.reset import reset_global_state

#: RNG domain separators (distinct from every other stream in the repo).
_FLOW_STREAM = 0x5EF1
_ARRIVAL_STREAM = 0x5EA2

#: SLO percentiles reported per latency series.
_PERCENTILES = (50, 90, 99)


def apply_link_capacity(topo: Any, link_capacity: float) -> None:
    """Override every link's capacity in place (0 keeps defaults).

    Shared by :func:`run_service` and the static analyzer's
    ``batch_from_serve_spec`` so both sides see the same constraints.
    """
    if link_capacity <= 0:
        return
    for a, b in topo.graph.edges:
        topo.graph.edges[a, b]["capacity"] = float(link_capacity)


def link_capacities(topo: Any) -> dict[tuple[str, str], float]:
    """Directed capacity map for the admission gate (links are
    symmetric in every repo topology, so both directions get the
    undirected edge's capacity)."""
    capacities: dict[tuple[str, str], float] = {}
    for a, b in topo.graph.edges:
        cap = float(topo.graph.edges[a, b]["capacity"])
        capacities[(a, b)] = cap
        capacities[(b, a)] = cap
    return capacities


def _percentile(values: list[float], pct: int) -> Optional[float]:
    """Nearest-rank percentile — pure python, no float surprises."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[rank - 1]


def _summary(values: list[float]) -> dict[str, Any]:
    doc: dict[str, Any] = {"count": len(values)}
    for pct in _PERCENTILES:
        doc[f"p{pct}"] = _percentile(values, pct)
    doc["max"] = max(values) if values else None
    return doc


@dataclass
class ServiceResult:
    """Everything one service run produced (JSON-safe via to_results)."""

    spec: ServeSpec
    records: list[dict]
    violations: list[dict]
    outcome_counts: dict[str, int]
    slo: dict[str, Any]
    peak_in_flight: int
    sim_time_ms: float
    events_processed: int
    trace_sig: str
    invariants_ok: bool = True
    trace_dropped: int = 0
    # Critical-path latency attribution (spec.causal runs only):
    # deterministic per-request rows + summary, and the full causal
    # DAGs (lifted out of ``results`` by the sweep worker).
    attribution: Optional[dict] = None
    causal: Optional[list] = None
    # Admission-gate decisions (spec.static_interference != "off").
    # Omitted from results when empty so a gated-but-conflict-free run
    # stays byte-identical to a gate-off run.
    interference: list = field(default_factory=list)
    # Converged per-flow routing at the horizon (flow_id -> path).
    # Deliberately NOT serialized: the compete fuzz oracle compares it
    # across strategies in-process.
    routes: dict = field(default_factory=dict)
    # Strategy-specific counters (e.g. augmentation detours).  Omitted
    # from results when empty so the default strategy's output is
    # untouched.
    strategy_stats: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def completed(self) -> int:
        return self.outcome_counts.get(OUTCOME_COMPLETED, 0)

    @property
    def makespan_ms(self) -> float:
        times = [
            r["completed_ms"]
            for r in self.records
            if r["outcome"] == OUTCOME_COMPLETED
        ]
        return max(times) if times else 0.0

    @property
    def throughput_per_s(self) -> float:
        """Committed updates per simulated second of service makespan."""
        span = self.makespan_ms
        if span <= 0:
            return 0.0
        return self.completed / (span / 1000.0)

    def signature(self) -> str:
        """SHA-256 over the deterministic payload (records + checks)."""
        blob = json.dumps(
            {"records": self.records, "violations": self.violations},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_results(self) -> dict[str, Any]:
        doc = self._base_results()
        if self.interference:
            doc["interference"] = list(self.interference)
        if self.strategy_stats:
            doc["strategy_stats"] = dict(self.strategy_stats)
        if self.attribution is not None:
            doc["attribution"] = self.attribution
        if self.causal is not None:
            # Leading underscore: the sweep worker lifts the DAGs out
            # of ``results`` (like ``_wall``) so they ride the shard
            # document without entering the aggregate signature.
            doc["_causal"] = self.causal
        return doc

    def _base_results(self) -> dict[str, Any]:
        return {
            "name": self.spec.name,
            "topology": self.spec.topology,
            "seed": self.spec.seed,
            "requests": len(self.records),
            "outcomes": dict(sorted(self.outcome_counts.items())),
            "completed": self.completed,
            "consistent": self.consistent,
            "violations": self.violations,
            "invariants_ok": self.invariants_ok,
            "peak_in_flight": self.peak_in_flight,
            "makespan_ms": self.makespan_ms,
            "throughput_per_s": self.throughput_per_s,
            "slo": self.slo,
            "sim_time_ms": self.sim_time_ms,
            "events_processed": self.events_processed,
            "signature": self.signature(),
            "trace_signature": self.trace_sig,
            "trace_dropped_events": self.trace_dropped,
            "records": self.records,
        }


@dataclass
class _Workload:
    """Internal: arrival-driving state shared by the callbacks."""

    issued: int = 0
    budget: int = 0
    think_ms: float = 0.0
    weights: Any = None
    rng: Any = None
    population: list = field(default_factory=list)


def run_service(
    spec: ServeSpec, obs: Optional[ObsContext] = None
) -> ServiceResult:
    """Run one complete service workload described by ``spec``."""
    reset_global_state()
    obs = obs if obs is not None else NULL_OBS
    tracker: Optional[CausalTracker] = None
    if spec.causal:
        tracker = CausalTracker()
        if obs is NULL_OBS:
            # Causal tracing without metrics: a fresh disabled-metrics
            # context carrying only the tracker (never mutate the
            # shared NULL_OBS singleton).
            obs = ObsContext(NullRegistry(), NullSpanTracker(), causal=tracker)
        else:
            obs.causal = tracker
    topo = TOPOLOGIES[spec.topology]()
    apply_link_capacity(topo, spec.link_capacity)
    params = SimParams(seed=spec.seed)
    if spec.params:
        params = dataclasses.replace(params, **dict(spec.params))
    deployment = build_strategy_runtime(
        spec.strategy, topo, params=params, obs=obs
    )
    deployment.set_congestion_aware(spec.congestion_aware)
    engine = deployment.network.engine

    flow_rng = np.random.default_rng([spec.seed, _FLOW_STREAM])
    population = build_flow_population(
        topo, spec.flows, flow_rng, mean_size=spec.mean_flow_size
    )
    for service_flow in population:
        deployment.install_flow(service_flow.to_flow())

    checker = LiveChecker(
        deployment.forwarding_state, deployment.network.trace
    )
    orchestrator = ServiceOrchestrator(
        spec, deployment, population, obs=obs,
        capacities=link_capacities(topo),
    )

    if spec.events:
        deployment.network.enable_chaos()
        for event_doc in spec.events:
            event = TopoEvent(**dict(event_doc))
            engine.schedule_at(
                event.time_ms, _apply_topo_event, deployment, event
            )

    arrival_rng = np.random.default_rng([spec.seed, _ARRIVAL_STREAM])
    state = _Workload(
        budget=spec.requests,
        think_ms=spec.think_time_ms,
        weights=flow_weights(population),
        rng=arrival_rng,
        population=population,
    )

    if spec.mode == "open":
        arrivals = open_loop_arrivals(
            arrival_rng, population, spec.arrival_rate_per_s, spec.requests
        )

        def _next_arrival() -> None:
            try:
                gap_ms, index = next(arrivals)
            except StopIteration:
                return
            engine.schedule(gap_ms, _submit_open, index)

        def _submit_open(index: int) -> None:
            orchestrator.submit(population[index].flow_id)
            state.issued += 1
            _next_arrival()

        _next_arrival()
    else:  # closed loop

        def _client_submit() -> None:
            if state.issued >= state.budget:
                return
            state.issued += 1
            index = closed_loop_pick(state.rng, population, state.weights)
            orchestrator.submit(population[index].flow_id)

        def _on_terminal(_request: Any) -> None:
            if state.issued < state.budget:
                engine.schedule(state.think_ms, _client_submit)

        orchestrator.on_terminal = _on_terminal
        for _ in range(min(spec.clients, spec.requests)):
            _client_submit()

    deployment.run(until=spec.horizon_ms)
    orchestrator.on_terminal = None
    orchestrator.finalize()

    records = sorted(
        (r.to_record() for r in orchestrator.requests),
        key=lambda r: r["request_id"],
    )
    outcome_counts = {k: 0 for k in OUTCOMES}
    for record in records:
        outcome_counts[record["outcome"]] += 1
    outcome_counts = {k: v for k, v in outcome_counts.items() if v}

    completed = [r for r in records if r["outcome"] == OUTCOME_COMPLETED]
    slo = {
        "admission_wait_ms": _summary(
            [
                r["dispatched_ms"] - r["submitted_ms"]
                for r in records
                if r["dispatched_ms"] is not None
            ]
        ),
        "prepare_ms": _summary(
            [
                r["pushed_ms"] - r["dispatched_ms"]
                for r in records
                if r["pushed_ms"] is not None and r["dispatched_ms"] is not None
            ]
        ),
        "install_ms": _summary(
            [
                r["last_install_ms"] - r["pushed_ms"]
                for r in completed
                if r["last_install_ms"] is not None and r["pushed_ms"] is not None
            ]
        ),
        "verify_ms": _summary(
            [
                r["completed_ms"] - r["last_install_ms"]
                for r in completed
                if r["last_install_ms"] is not None
            ]
        ),
        "e2e_ms": _summary(
            [r["completed_ms"] - r["submitted_ms"] for r in completed]
        ),
    }

    violations = [
        {
            "time": v.time,
            "kind": v.kind,
            "flow_id": v.flow_id,
            "detail": v.detail,
        }
        for v in checker.violations
    ]
    # finish() raising on double-terminal is the primary guard; this
    # re-checks the emitted records themselves.
    invariants_ok = all(
        r["outcome"] in OUTCOMES and r["completed_ms"] is not None
        for r in records
    )

    attribution = None
    causal_dags = None
    if tracker is not None:
        rows = tracker.attribution_rows()
        attribution = {"rows": rows, "summary": summarize_attribution(rows)}
        causal_dags = tracker.dags()

    routes = {
        flow_id: tuple(record.current_path)
        for flow_id, record in sorted(deployment.controller.flow_db.items())
    }
    stats_fn = getattr(deployment.controller, "strategy_stats", None)
    strategy_stats = dict(stats_fn()) if stats_fn is not None else {}

    return ServiceResult(
        spec=spec,
        records=records,
        violations=violations,
        outcome_counts=outcome_counts,
        slo=slo,
        peak_in_flight=orchestrator.peak_in_flight,
        sim_time_ms=engine.now,
        events_processed=engine.processed_events,
        trace_sig=trace_signature(deployment.network.trace),
        invariants_ok=invariants_ok,
        trace_dropped=deployment.network.trace.dropped_events,
        attribution=attribution,
        causal=causal_dags,
        interference=orchestrator.interference_events,
        routes=routes,
        strategy_stats=strategy_stats,
    )
