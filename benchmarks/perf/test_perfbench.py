"""The benchmark's own tests: tiny sizes, every metric, faithful tracing.

Run with ``python -m pytest benchmarks/perf -q`` from the repository
root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import metric_units  # noqa: E402
from workloads import WORKLOADS, spec_docs  # noqa: E402


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace), "--requests", "12", "--subruns", "2",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload: str) -> None:
    doc = run_tiny(workload, trace=0)
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 24
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == metric_units("end_to_end")
    # A tiny call may not lift the process's peak resident set.
    assert all(
        v["value"] > 0 for k, v in doc["metrics"].items() if k != "mem_per_request_kb"
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_emits_every_layer_metric(workload: str) -> None:
    doc = run_tiny(workload, trace=1)
    # The run's own check compares traced and untraced signatures.
    assert doc["correct"] is True
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == metric_units("per_layer")
    self_times = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_times == pytest.approx(metrics["trace.run_phase_s"], rel=1e-9)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_profiling_leaves_signatures_unchanged(workload: str) -> None:
    from runner import run_subrun

    spec = WORKLOADS[workload]
    doc = spec_docs(spec, seed=2, requests=10, subruns=1)[0]
    plain = run_subrun(spec.kind, doc)
    traced = run_subrun(spec.kind, doc, traced=True)
    assert (traced.signature, traced.trace_signature) == (
        plain.signature, plain.trace_signature,
    )
    assert traced.run_stats and traced.setup_stats


def test_seed_makes_the_inputs() -> None:
    for spec in WORKLOADS.values():
        assert spec_docs(spec, 3) == spec_docs(spec, 3)
        seeds = [
            {(doc.get("serve") or doc)["seed"] for doc in spec_docs(spec, s)}
            for s in (0, 1, 2)
        ]
        assert all(len(s) == spec.subruns for s in seeds)
        assert not (seeds[0] & seeds[1]) and not (seeds[1] & seeds[2])


def test_benchmark_json_lists_the_workloads() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
