"""Checkers for the three consistency properties of paper §5.

* **blackhole freedom** — every packet arriving at a switch has a
  matching forwarding rule: walking from each flow's ingress never
  reaches a rule-less non-egress node;
* **loop freedom** — the per-flow forwarding graph reachable from the
  ingress has no cycle;
* **congestion freedom** — per link, the sizes of flows currently
  routed over it sum to at most the link's capacity.

:class:`LiveChecker` subscribes to a :class:`~repro.sim.trace.Trace`
and reports all three properties after every rule change, which is how
the property-based tests assert the paper's theorems at every event
instant rather than only at convergence.  It is incremental: a rule
change re-walks only the flow it belongs to, and the checker keeps the
walks, edge loads and current violations of every other flow.  Its
loop and congestion reports equal :func:`check_loop_freedom` and
:func:`check_congestion_freedom` run at every rule change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, cast

from repro.consistency.state import CAPACITY_CHANGED, ForwardingState
from repro.sim.trace import (
    KIND_LINK_DOWN,
    KIND_RULE_CHANGE,
    KIND_SWITCH_CRASH,
    Trace,
    TraceEvent,
)


@dataclass
class Violation:
    """One detected consistency violation."""

    time: float
    kind: str           # blackhole | loop | congestion
    flow_id: Optional[int]
    detail: str


@dataclass
class CheckResult:
    """Outcome of one full-state check."""

    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_blackhole_freedom(
    state: ForwardingState, time: float = 0.0
) -> CheckResult:
    """Walk every flow from each ingress; flag rule-less intermediate nodes."""
    violations = []
    for flow_id in state.flow_ids():
        for ingress in state.ingresses(flow_id):
            path, outcome = state.walk(flow_id, ingress=ingress)
            if outcome == "blackhole":
                violations.append(
                    Violation(
                        time=time,
                        kind="blackhole",
                        flow_id=flow_id,
                        detail=f"no rule at {path[-1]!r} (walked {path})",
                    )
                )
    return CheckResult(ok=not violations, violations=violations)


def check_loop_freedom(state: ForwardingState, time: float = 0.0) -> CheckResult:
    """Flag flows whose ingress-reachable forwarding graph cycles."""
    violations = []
    for flow_id in state.flow_ids():
        for ingress in state.ingresses(flow_id):
            path, outcome = state.walk(flow_id, ingress=ingress)
            if outcome == "loop":
                violations.append(
                    Violation(
                        time=time,
                        kind="loop",
                        flow_id=flow_id,
                        detail=f"cycle via {path[-1]!r} (walked {path})",
                    )
                )
    return CheckResult(ok=not violations, violations=violations)


def check_congestion_freedom(
    state: ForwardingState, time: float = 0.0
) -> CheckResult:
    """Sum deliverable flows' sizes per *directed* link use.

    Capacity is modelled per direction (each node reserves on its own
    outgoing port, which is what makes the paper's §7.4 scheduler a
    purely local decision); the configured capacity of the undirected
    link applies to each direction independently.
    """
    load: dict[tuple[str, str], float] = {}
    for flow_id in state.flow_ids():
        _, _, size = state.flow_info(flow_id)
        for a, b in state.active_edges(flow_id):
            load[(a, b)] = load.get((a, b), 0.0) + size
    violations = []
    for (a, b), used in sorted(load.items()):
        capacity = state.capacity(a, b)
        if used > capacity + 1e-9:
            violations.append(
                Violation(
                    time=time,
                    kind="congestion",
                    flow_id=None,
                    detail=f"link {a}->{b} carries {used:.3f} > capacity {capacity:.3f}",
                )
            )
    return CheckResult(ok=not violations, violations=violations)


def check_all(state: ForwardingState, time: float = 0.0) -> CheckResult:
    violations = []
    for checker in (
        check_blackhole_freedom,
        check_loop_freedom,
        check_congestion_freedom,
    ):
        violations.extend(checker(state, time).violations)
    return CheckResult(ok=not violations, violations=violations)


Key = tuple[int, str]          # (flow id, ingress)
Edge = tuple[str, str]         # directed link use


class LiveChecker:
    """Re-checks consistency after every traced rule change, walking
    only the flows whose forwarding state changed.

    The result is the same as running :func:`check_loop_freedom`,
    :func:`check_congestion_freedom` and a blackhole walk over every
    flow at each ``RULE_CHANGE``: the same violations, with the same
    text, in the same order, repeated at every rule change for as long
    as they persist.  Only the work differs.  A rule change can only
    alter the walks of the flow it belongs to (the locality the paper's
    §5 argument rests on), so the checker keeps each ``(flow,
    ingress)`` walk and each flow's delivered edges, and re-walks a
    flow only when :meth:`ForwardingState.watch` marked it changed.
    A per-edge flow index confines the congestion sums to the edges
    those flows left or joined; a capacity change re-sums every edge.

    Blackhole checking during a *fresh install* is deliberately scoped:
    before a flow's first complete path exists there is trivially "a
    blackhole" on the walk, which the paper does not count (no packets
    are being sent on a not-yet-established flow).  A flow therefore
    only participates in blackhole checks once it has been deliverable
    at a rule change (``armed``).  Loop and congestion checks always
    apply.

    Topology failures (repro.chaos) are *environmental*, not protocol
    violations: when a link goes down or a switch crashes, every flow
    whose delivered walk traversed the failed element is disarmed — it
    is physically broken, and the gap until the controller reroutes it
    must not count as a protocol blackhole.  The disarm reads the
    cached walks, brought up to date first.  The flow re-arms at the
    first rule change at which a complete path exists, after which
    blackhole detection applies as before.
    """

    def __init__(self, state: ForwardingState, trace: Trace) -> None:
        self.state = state
        self.violations: list[Violation] = []
        self._armed: set[Key] = set()
        # Flows (and CAPACITY_CHANGED) changed since the last refresh.
        self._changes = state.watch()
        # (flow, ingress) -> its last walk (path, outcome).
        self._walks: dict[Key, tuple[list[str], str]] = {}
        # Per flow: the ingresses, size and delivered edges last seen.
        self._ingresses: dict[int, tuple[str, ...]] = {}
        self._sizes: dict[int, float] = {}
        self._edges: dict[int, frozenset[Edge]] = {}
        # Directed edge -> the flows whose delivered walks use it.
        self._edge_flows: dict[Edge, set[int]] = {}
        # Current violations: loop details per flow and blackholed
        # ingresses per flow, both in ingress order, and the detail of
        # every overloaded edge.
        self._loops: dict[int, list[str]] = {}
        self._blackholed: dict[int, list[str]] = {}
        self._overloaded: dict[Edge, str] = {}
        # Keys delivered now but not armed; the next rule change arms them.
        self._unarmed: set[Key] = set()
        trace.subscribe(self._on_event)

    # -- incremental state -------------------------------------------------

    def _refresh(self) -> None:
        """Bring the cached walks and sums up to the current state."""
        changes = self._changes
        if not changes:
            return
        recheck_all = CAPACITY_CHANGED in changes
        changes.discard(CAPACITY_CHANGED)
        touched: set[Edge] = set()
        for flow_id in sorted(cast("set[int]", changes)):
            # A rule may be set before its flow is registered; the
            # registration marks the flow again.
            if self.state.has_flow(flow_id):
                self._refresh_flow(flow_id, touched)
        changes.clear()
        for edge in sorted(self._edge_flows if recheck_all else touched):
            self._resum(edge)

    def _refresh_flow(self, flow_id: int, touched: set[Edge]) -> None:
        """Re-walk one flow from each ingress; add the edges whose
        load may have moved to ``touched``."""
        state = self.state
        ingresses = state.ingresses(flow_id)
        for ingress in self._ingresses.get(flow_id, ()):
            if ingress not in ingresses:
                self._walks.pop((flow_id, ingress), None)
                self._unarmed.discard((flow_id, ingress))
        self._ingresses[flow_id] = ingresses

        loops: list[str] = []
        holes: list[str] = []
        edges: set[Edge] = set()
        for ingress in ingresses:
            key = (flow_id, ingress)
            path, outcome = state.walk(flow_id, ingress=ingress)
            self._walks[key] = (path, outcome)
            if outcome == "delivered":
                edges.update(zip(path, path[1:]))
                if key not in self._armed:
                    self._unarmed.add(key)
                continue
            self._unarmed.discard(key)
            if outcome == "loop":
                loops.append(f"cycle via {path[-1]!r} (walked {path})")
            elif outcome == "blackhole":
                holes.append(ingress)
        _set_or_pop(self._loops, flow_id, loops)
        _set_or_pop(self._blackholed, flow_id, holes)

        old = self._edges.get(flow_id, frozenset())
        new = frozenset(edges)
        self._edges[flow_id] = new
        for edge in sorted(old - new):
            self._edge_flows[edge].discard(flow_id)
        for edge in sorted(new - old):
            self._edge_flows.setdefault(edge, set()).add(flow_id)
        size = state.flow_info(flow_id)[2]
        if self._sizes.get(flow_id) != size:
            self._sizes[flow_id] = size
            touched.update(old | new)
        else:
            touched.update(old ^ new)

    def _resum(self, edge: Edge) -> None:
        """Recompute one edge's load and overload verdict.

        The sum runs over the edge's flows in ascending flow order from
        ``0.0``, exactly as :func:`check_congestion_freedom` adds them,
        so the reported load and the capacity test match it bit for bit.
        """
        flows = self._edge_flows.get(edge)
        if not flows:
            self._edge_flows.pop(edge, None)
            self._overloaded.pop(edge, None)
            return
        used = 0.0
        for flow_id in sorted(flows):
            used += self._sizes[flow_id]
        a, b = edge
        capacity = self.state.capacity(a, b)
        if used > capacity + 1e-9:
            self._overloaded[edge] = (
                f"link {a}->{b} carries {used:.3f} > capacity {capacity:.3f}"
            )
        else:
            self._overloaded.pop(edge, None)

    def _disarm_through(self, node: Optional[str], edge: Optional[frozenset]) -> None:
        """Disarm flows whose current walk crosses the failed element."""
        self._refresh()
        for key in sorted(self._armed):
            walk = self._walks.get(key)
            if walk is None:
                # Armed under an ingress the flow no longer has: no
                # cached walk, and it can only re-arm if the ingress
                # comes back.
                path, _ = self.state.walk(key[0], ingress=key[1])
            else:
                path = walk[0]
            if (node is not None and node in path) or (
                edge is not None
                and any(frozenset(pair) == edge for pair in zip(path, path[1:]))
            ):
                self._armed.discard(key)
                if walk is not None and walk[1] == "delivered":
                    self._unarmed.add(key)

    # -- trace subscriber ----------------------------------------------------

    def _on_event(self, event: TraceEvent) -> None:
        if event.kind == KIND_LINK_DOWN:
            peer = event.detail.get("peer")
            if peer is not None:
                self._disarm_through(None, frozenset((event.node, peer)))
            return
        if event.kind == KIND_SWITCH_CRASH:
            self._disarm_through(event.node, None)
            return
        if event.kind != KIND_RULE_CHANGE:
            return
        self._refresh()
        time = event.time
        violations = self.violations
        for flow_id in sorted(self._loops):
            for detail in self._loops[flow_id]:
                violations.append(Violation(time, "loop", flow_id, detail))
        for edge in sorted(self._overloaded):
            violations.append(
                Violation(time, "congestion", None, self._overloaded[edge])
            )
        if self._unarmed:
            self._armed.update(self._unarmed)
            self._unarmed.clear()
        for flow_id in sorted(self._blackholed):
            for ingress in self._blackholed[flow_id]:
                if (flow_id, ingress) in self._armed:
                    violations.append(
                        Violation(
                            time, "blackhole", flow_id,
                            f"established path from {ingress!r} lost",
                        )
                    )

    @property
    def ok(self) -> bool:
        return not self.violations


def _set_or_pop(table: dict[int, list[str]], flow_id: int, items: list[str]) -> None:
    if items:
        table[flow_id] = items
    else:
        table.pop(flow_id, None)
