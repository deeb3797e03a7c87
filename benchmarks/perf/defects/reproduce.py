"""Show the two known defects the benchmark records (see ../README.md).

Run from the repository root::

    python3 benchmarks/perf/defects/reproduce.py

Each spec runs once as written and once with the trigger removed, so
the output sets the symptom beside its control run.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(HERE)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.serve.service import run_service  # noqa: E402
from repro.serve.spec import load_serve_spec  # noqa: E402


def load(name: str) -> dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return json.load(handle)


def summary(doc: dict) -> str:
    result = run_service(load_serve_spec(doc))
    kinds: dict = {}
    for violation in result.violations:
        kinds[violation["kind"]] = kinds.get(violation["kind"], 0) + 1
    return (
        f"completed {result.completed}/{len(result.records)}, "
        f"e2e p50 {result.slo['e2e_ms']['p50']} ms, violations {kinds or 0}"
    )


def main() -> None:
    crash = load("crash_blackhole.json")
    print("volatile crash:        ", summary(crash))
    print("  control (no crash):  ", summary(dict(crash, events=[])))
    collapse = load("reliable_control_collapse.json")
    print("reliable_control:      ", summary(collapse))
    print("  control (plain):     ", summary(dict(collapse, params={})))


if __name__ == "__main__":
    main()
