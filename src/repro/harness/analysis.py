"""Post-hoc trace analysis: message counts and overhead breakdowns.

The paper's core scalability argument is about *where* messages flow:
P4Update pushes one UIM per switch and then coordinates via data-plane
UNMs, while Central takes a controller round-trip per dependency round.
These helpers quantify that from a run's trace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.sim.trace import KIND_MSG_SEND, Trace

# Message type -> plane.
_PLANES = {
    "UIM": "control",
    "UFM": "control",
    "FRM": "control",
    "TagFlip": "control",
    "Role": "control",
    "Done": "control",
    "Rule": "control",
    "Ack": "control",
    "UNM": "data",
    "GTM": "data",
    "Cleanup": "data",
    "Probe": "data",
}


@dataclass
class MessageStats:
    """Counts of messages sent during a run, by type and plane."""

    by_type: dict = field(default_factory=dict)

    @property
    def control_plane(self) -> int:
        return sum(
            count for name, count in self.by_type.items()
            if _plane_of(name) == "control"
        )

    @property
    def data_plane(self) -> int:
        return sum(
            count for name, count in self.by_type.items()
            if _plane_of(name) == "data"
        )

    @property
    def total(self) -> int:
        return sum(self.by_type.values())

    def coordination_messages(self) -> int:
        """Messages used purely for update coordination (everything
        except probe/data packets)."""
        return sum(
            count for name, count in self.by_type.items()
            if name != "Probe"
        )

    def row(self, label: str) -> str:
        return (
            f"{label:14s} control={self.control_plane:5d}  "
            f"data={self.data_plane:5d}  total={self.total:5d}"
        )


def _plane_of(name: str) -> str:
    return _PLANES.get(name, "data")


def _type_of(description: str) -> str:
    """Normalise a message description to its type tag.

    P4 packets describe themselves as ``Packet#12[unm]`` — the valid
    header in brackets is the semantic type.
    """
    bracket = re.search(r"\[([a-z_,]+)\]", description)
    if description.startswith("Packet") and bracket:
        headers = bracket.group(1).split(",")
        if "unm" in headers:
            return "UNM"
        if "cleanup" in headers:
            return "Cleanup"
        if "probe" in headers:
            return "Probe"
    match = re.match(r"([A-Za-z]+)", description)
    return match.group(1) if match else description


def count_messages(trace: Trace) -> MessageStats:
    """Tally every sent message in a trace by its type."""
    stats = MessageStats()
    for event in trace.of_kind(KIND_MSG_SEND):
        description = event.detail.get("message", "")
        name = _type_of(description)
        stats.by_type[name] = stats.by_type.get(name, 0) + 1
    return stats
