"""Pins the live checker's known false positive so it cannot move
silently.

A volatile crash removes the dead switch's rules one flow at a time,
each with a traced rule change.  The checker disarms every flow routed
through the switch at the crash, but the first of those rule changes
re-arms every flow whose rule there is not removed yet.  Once that rule
goes, the flow is reported as a blackhole at every rule change until it
is rerouted.  The counts below are what the benchmark's defect spec
gives (see ``benchmarks/perf/defects/``); a change that fixes or
worsens the defect must update them on purpose.
"""

import json
import pathlib

from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec

SPEC = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "perf" / "defects" / "crash_blackhole.json"
)


def violations(preserve_state: bool) -> list[dict]:
    with open(SPEC, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["events"][0]["preserve_state"] = preserve_state
    return run_service(load_serve_spec(doc)).violations


def test_volatile_crash_reports_511_blackholes_on_8_flows():
    found = violations(preserve_state=False)
    assert {v["kind"] for v in found} == {"blackhole"}
    assert len(found) == 511
    assert len({v["flow_id"] for v in found}) == 8


def test_state_preserving_crash_reports_none():
    assert violations(preserve_state=True) == []
