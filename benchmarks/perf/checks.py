"""Output checks: a benchmark run only counts when these all hold."""

from __future__ import annotations

import json
import os
from typing import Iterable

from repro.serve.model import OUTCOMES

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def failed_requests(records: list, expected: int) -> int:
    """Requests that break the terminal-exactly-once rule."""
    seen: set = set()
    failed = 0
    for record in records:
        bad = (
            record["request_id"] in seen
            or record["outcome"] not in OUTCOMES
            or record["completed_ms"] is None
        )
        seen.add(record["request_id"])
        failed += bad
    return failed + max(0, expected - len(records))


def signature_pairs(subruns: Iterable) -> list[list[str]]:
    return [[s.signature, s.trace_signature] for s in subruns]


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def write_pins(workload: str, pairs: list[list[str]]) -> None:
    pins = load_pins() if os.path.exists(PINS_PATH) else {}
    pins[workload] = pairs
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")


def pin_problems(workload: str, pairs: list[list[str]]) -> list[str]:
    """Result and trace signatures of the first ``len(pairs)`` sub-runs
    must equal the pinned default-seed ones."""
    pinned = load_pins().get(workload, [])
    if len(pinned) < len(pairs):
        return [f"pins.json has {len(pinned)} signature pairs for {workload!r}, "
                f"the run has {len(pairs)}"]
    differing = [i for i, (a, b) in enumerate(zip(pinned, pairs)) if a != b]
    if differing:
        return [f"signatures differ from pins.json at sub-runs {differing}"]
    return []
