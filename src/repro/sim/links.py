"""Links and control channels.

A :class:`Link` is a bidirectional connection between two node ports
with a fixed propagation latency (milliseconds) and a capacity used for
congestion accounting (abstract rate units; the paper's flow sizes are
expressed in the same units).

A :class:`ControlChannel` connects the controller to a switch.  Its
latency models the control-plane path (geographic distance to the
centroid controller for WANs, a measured distribution for fat-trees).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Link:
    """Bidirectional data-plane link between two switch ports."""

    node_a: str
    port_a: int
    node_b: str
    port_b: int
    latency_ms: float
    capacity: float = float("inf")

    def endpoint(self, node: str) -> tuple[str, int]:
        """Return ``(peer_node, peer_port)`` as seen from ``node``."""
        if node == self.node_a:
            return (self.node_b, self.port_b)
        if node == self.node_b:
            return (self.node_a, self.port_a)
        raise ValueError(f"{node!r} is not an endpoint of {self}")

    def other(self, node: str) -> str:
        return self.endpoint(node)[0]

    @property
    def key(self) -> frozenset:
        """Orientation-independent identity of the link."""
        return frozenset((self.node_a, self.node_b))


@dataclass
class ControlChannel:
    """Control-plane path between the controller and one switch."""

    switch: str
    latency_ms: float
    # Per-message serialisation overhead at the channel (e.g. the
    # switch-agent handling cost); usually zero, kept for experiments.
    overhead_ms: float = 0.0

    def delay(self) -> float:
        return self.latency_ms + self.overhead_ms
