"""A queryable snapshot of the network's forwarding state.

``ForwardingState`` tracks, per flow, each node's current next hop —
the ground truth the consistency checker reasons about.  Switch agents
write every rule change into it with :meth:`ForwardingState.set_rule`
the moment the data plane changes.  Most writes are followed by a
``RULE_CHANGE`` trace event, but not all: initial deployment writes
without one, and a two-phase tag flip writes a whole path before it
records one event per hop.  So the state itself tells a reader what
changed: :meth:`ForwardingState.watch` hands out a change set that
every write marks.
"""

from __future__ import annotations

from typing import Optional, Union

#: The entry a change set receives when any link capacity changes.
CAPACITY_CHANGED = "capacity"


class ForwardingState:
    """Per-flow next-hop maps plus per-link flow reservations."""

    def __init__(self) -> None:
        # flow_id -> {node -> next_hop}
        self._next_hop: dict[int, dict[str, str]] = {}
        # flow_id -> (ingresses tuple, egress, size); unicast flows
        # have one ingress, destination trees (§11) have one per leaf.
        self._flows: dict[int, tuple[tuple[str, ...], str, float]] = {}
        # frozenset({a,b}) -> capacity
        self._capacity: dict[frozenset, float] = {}
        # One change set per watcher (see watch()).
        self._watchers: list[set[Union[int, str]]] = []

    # -- change tracking -------------------------------------------------------

    def watch(self) -> set[Union[int, str]]:
        """A new change set, pre-filled with every registered flow.

        From now on every ``set_rule``, ``register_flow`` and
        ``register_tree`` adds its flow id to the set, and every
        ``set_capacity`` adds :data:`CAPACITY_CHANGED`.  The watcher
        owns the set and empties it once it has caught up, so several
        watchers of one state stay independent.
        """
        changes: set[Union[int, str]] = set(self._flows)
        self._watchers.append(changes)
        return changes

    def _changed(self, item: Union[int, str]) -> None:
        for changes in self._watchers:
            changes.add(item)

    # -- flows ---------------------------------------------------------------

    def register_flow(self, flow_id: int, ingress: str, egress: str, size: float) -> None:
        self._flows[flow_id] = ((ingress,), egress, size)
        self._next_hop.setdefault(flow_id, {})
        self._changed(flow_id)

    def register_tree(
        self, tree_id: int, leaves: list[str], egress: str, size: float
    ) -> None:
        """Destination-based routing (§11): one state entry shared by
        every source, walked from each leaf."""
        self._flows[tree_id] = (tuple(leaves), egress, size)
        self._next_hop.setdefault(tree_id, {})
        self._changed(tree_id)

    def flow_ids(self) -> list[int]:
        return sorted(self._flows)

    def has_flow(self, flow_id: int) -> bool:
        return flow_id in self._flows

    def flow_info(self, flow_id: int) -> tuple[str, str, float]:
        ingresses, egress, size = self._flows[flow_id]
        return ingresses[0], egress, size

    def ingresses(self, flow_id: int) -> tuple[str, ...]:
        return self._flows[flow_id][0]

    # -- rules -----------------------------------------------------------------

    def set_rule(self, flow_id: int, node: str, next_hop: Optional[str]) -> None:
        """Install/replace (or with None: remove) a forwarding rule."""
        rules = self._next_hop.setdefault(flow_id, {})
        if next_hop is None:
            rules.pop(node, None)
        else:
            rules[node] = next_hop
        self._changed(flow_id)

    def next_hop(self, flow_id: int, node: str) -> Optional[str]:
        return self._next_hop.get(flow_id, {}).get(node)

    def rules(self, flow_id: int) -> dict[str, str]:
        return dict(self._next_hop.get(flow_id, {}))

    # -- capacity --------------------------------------------------------------

    def set_capacity(self, a: str, b: str, capacity: float) -> None:
        self._capacity[frozenset((a, b))] = capacity
        self._changed(CAPACITY_CHANGED)

    def capacity(self, a: str, b: str) -> float:
        return self._capacity.get(frozenset((a, b)), float("inf"))

    def capacities(self) -> dict[frozenset, float]:
        return dict(self._capacity)

    # -- traversal ----------------------------------------------------------------

    def walk(
        self, flow_id: int, max_hops: int = 10_000, ingress: Optional[str] = None
    ) -> tuple[list[str], str]:
        """Follow next hops from the flow's ingress (or a given one).

        Returns ``(visited_nodes, outcome)`` where outcome is one of
        ``"delivered"`` (egress reached), ``"blackhole"`` (no rule at a
        non-egress node) or ``"loop"`` (a node repeated).
        """
        ingresses, egress, _ = self._flows[flow_id]
        if ingress is None:
            ingress = ingresses[0]
        rules = self._next_hop.get(flow_id, {})
        visited = [ingress]
        seen = {ingress}
        current = ingress
        for _ in range(max_hops):
            if current == egress:
                return visited, "delivered"
            nxt = rules.get(current)
            if nxt is None:
                return visited, "blackhole"
            if nxt in seen:
                visited.append(nxt)
                return visited, "loop"
            visited.append(nxt)
            seen.add(nxt)
            current = nxt
        return visited, "loop"

    def active_edges(self, flow_id: int) -> list[tuple[str, str]]:
        """Edges the flow currently traverses (empty when not
        deliverable); for trees, the union over all leaves' walks."""
        edges: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        for ingress in self.ingresses(flow_id):
            path, outcome = self.walk(flow_id, ingress=ingress)
            if outcome != "delivered":
                continue
            for edge in zip(path, path[1:]):
                if edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
        return edges
