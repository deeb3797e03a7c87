"""The slow, obvious live checker, kept as a differential oracle.

:class:`ReferenceLiveChecker` re-walks every flow three times (loop,
congestion, blackhole) on every ``RULE_CHANGE`` and re-walks every
armed key on each link-down or crash.  It is the specification the
incremental :class:`repro.consistency.checker.LiveChecker` must match
event for event: the same violations (kind, text, order and repeats)
and the same armed set.

:class:`DifferentialChecker` is a drop-in ``LiveChecker`` that runs the
reference beside itself on the same trace and records every event after
which the two disagree.  The ``differential_checker`` fixture
(``tests/consistency/conftest.py``) patches it into every module that
builds a checker.  Mismatches are recorded rather than raised because
some callers (the fuzz oracles) turn exceptions into findings.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.consistency.checker import (
    LiveChecker,
    Violation,
    check_congestion_freedom,
    check_loop_freedom,
)
from repro.consistency.state import ForwardingState
from repro.sim.trace import (
    KIND_LINK_DOWN,
    KIND_RULE_CHANGE,
    KIND_SWITCH_CRASH,
    Trace,
)


class ReferenceLiveChecker:
    """Re-checks consistency after every traced rule change.

    Blackhole checking during a *fresh install* is deliberately scoped:
    before a flow's first complete path exists there is trivially "a
    blackhole" on the walk, which the paper does not count (no packets
    are being sent on a not-yet-established flow).  A flow therefore
    only participates in blackhole checks once it has been deliverable
    at least once (``armed``).  Loop and congestion checks always apply.

    Topology failures (repro.chaos) are *environmental*, not protocol
    violations: when a link goes down or a switch crashes, every flow
    whose delivered walk traversed the failed element is disarmed — it
    is physically broken, and the gap until the controller reroutes it
    must not count as a protocol blackhole.  The flow re-arms the
    moment a complete path exists again, after which blackhole
    detection applies as before.
    """

    def __init__(self, state: ForwardingState, trace: Trace) -> None:
        self.state = state
        self.violations: list[Violation] = []
        self._armed: set[tuple[int, str]] = set()
        trace.subscribe(self._on_event)

    def _disarm_through(self, node: Optional[str], edge: Optional[frozenset]) -> None:
        """Disarm flows whose current walk crosses the failed element."""
        for key in list(self._armed):
            flow_id, ingress = key
            path, _ = self.state.walk(flow_id, ingress=ingress)
            if node is not None and node in path:
                self._armed.discard(key)
                continue
            if edge is not None and any(
                frozenset(pair) == edge for pair in zip(path, path[1:])
            ):
                self._armed.discard(key)

    def _on_event(self, event) -> None:
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
        time = event.time
        loops = check_loop_freedom(self.state, time)
        self.violations.extend(loops.violations)
        congestion = check_congestion_freedom(self.state, time)
        self.violations.extend(congestion.violations)
        for flow_id in self.state.flow_ids():
            for ingress in self.state.ingresses(flow_id):
                key = (flow_id, ingress)
                _, outcome = self.state.walk(flow_id, ingress=ingress)
                if outcome == "delivered":
                    self._armed.add(key)
                elif outcome == "blackhole" and key in self._armed:
                    self.violations.append(
                        Violation(
                            time=time,
                            kind="blackhole",
                            flow_id=flow_id,
                            detail=f"established path from {ingress!r} lost",
                        )
                    )

    @property
    def ok(self) -> bool:
        return not self.violations


class DifferentialChecker(LiveChecker):
    """A ``LiveChecker`` that compares itself with the reference after
    every trace event.

    ``instances`` and ``mismatches`` are shared by all instances and
    reset by the fixture; a mismatch is ``(what, event, only_mine,
    only_reference)``.
    """

    instances: list["DifferentialChecker"] = []
    mismatches: list[tuple[str, Any, list, list]] = []

    def __init__(self, state: ForwardingState, trace: Trace) -> None:
        super().__init__(state, trace)
        self.reference = ReferenceLiveChecker(state, trace)
        self.events_compared = 0
        self._compared_upto = 0
        DifferentialChecker.instances.append(self)
        # Subscribed last, so both checkers have seen the event.
        trace.subscribe(self._compare)

    def _compare(self, event: Any) -> None:
        self.events_compared += 1
        mine, theirs = self.violations, self.reference.violations
        start = self._compared_upto
        if len(mine) != len(theirs) or mine[start:] != theirs[start:]:
            self._mismatch("violations", event, mine[start:], theirs[start:])
        self._compared_upto = min(len(mine), len(theirs))
        if self._armed != self.reference._armed:
            self._mismatch(
                "armed", event,
                sorted(self._armed - self.reference._armed),
                sorted(self.reference._armed - self._armed),
            )

    @staticmethod
    def _mismatch(what: str, event: Any, mine: list, theirs: list) -> None:
        # The first few are what a reader needs; a diverged run would
        # otherwise log one entry per remaining event.
        if len(DifferentialChecker.mismatches) < 10:
            DifferentialChecker.mismatches.append((what, event, mine, theirs))
