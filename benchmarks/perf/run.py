"""Performance benchmark of the P4Update simulator.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload dense-open --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with profiling off:
it runs the workload's sub-runs round-robin until ``--seconds`` are
spent (always at least one full round).  ``--trace 1`` runs the first
sub-run once without and then repeatedly with :mod:`cProfile`, and
reports the per-layer metrics of the median traced repeat.

Every metric is printed by name with its unit and sample count; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "repro")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def metric_units(section: str) -> dict[str, str]:
    """Name to unit of every metric in one section of BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def import_program() -> None:
    """Put this checkout's sources first on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise SystemExit(f"error: no program sources at {PACKAGE_DIR}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != PACKAGE_DIR:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def percentile(values: list, pct: int) -> float:
    """Nearest-rank percentile (the definition repro.serve reports)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[rank - 1])


def completed(records: list) -> list:
    return [r for r in records if r["outcome"] == "completed"]


def segment_p99(records: list, end: str, start: str, completed_only: bool) -> float:
    rows = completed(records) if completed_only else records
    return percentile(
        [r[end] - r[start] for r in rows if r[end] is not None and r[start] is not None],
        99,
    )


class Report:
    """Metric values, their sample counts and the check outcome."""

    def __init__(self) -> None:
        self.metrics: dict[str, Any] = {}
        self.samples: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: Any, samples: str = "") -> None:
        self.metrics[name] = value
        if samples:
            self.samples[name] = samples

    def check_subrun(self, sub: Any, expected: int, violations_expected: bool) -> None:
        from checks import failed_requests

        self.attempted += expected
        bad = failed_requests(sub.records, expected)
        self.failed += bad
        where = f"seed {sub.seed}"
        if bad:
            self.problems.append(f"{where}: {bad} requests not terminal exactly once")
        if not sub.invariants_ok:
            self.problems.append(f"{where}: invariants_ok is false")
        if sub.violations and not violations_expected:
            self.problems.append(f"{where}: {sub.violations} consistency violations")

    def check_same(self, label: str, subs: list) -> None:
        """Repeats of one spec must give identical signatures."""
        pairs = {(s.signature, s.trace_signature) for s in subs}
        if len(pairs) != 1:
            self.problems.append(f"{label}: {len(pairs)} different signatures")

    def emit(self, units: dict) -> bool:
        for name, value in self.metrics.items():
            samples = self.samples.get(name, "")
            suffix = f"  ({samples})" if samples else ""
            print(f"{name:32s} {value:14.6g} {units[name]}{suffix}")
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}")
        correct = not self.problems
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in self.metrics.items()
            },
        }))
        return correct


def outcome_summary(records: list) -> dict:
    """The per-request data the simulated metrics need from one call."""
    done = completed(records)
    return {
        "latencies": [r["completed_ms"] - r["submitted_ms"] for r in done],
        "makespan_ms": max((r["completed_ms"] for r in done), default=0.0),
        "served": sum(1 for r in records if r["outcome"] in ("completed", "merged")),
    }


def measure_end_to_end(workload: Any, docs: list, seconds: float, report: Report) -> list:
    """Fill ``report``; returns the first call of every sub-run."""
    from runner import REFERENCE_S, peak_rss_kb, reference_s, rss_kb, run_subrun
    from workloads import request_count

    base_rss = rss_kb()
    references = [reference_s() for _ in range(8)]
    expected = [request_count(doc) for doc in docs]
    runs: list[list] = [[] for _ in docs]
    # Per call: the position of the reference timing taken right after it.
    positions: list[list] = [[] for _ in docs]
    summaries: list[dict] = [{} for _ in docs]
    started = time.perf_counter()
    step = 0
    while True:
        index = step % len(docs)
        if step >= len(docs) and (
            time.perf_counter() + runs[index][0].call_s > started + seconds
        ):
            break
        sub = run_subrun(workload.kind, docs[index])
        report.check_subrun(sub, expected[index], workload.violations_expected)
        if not runs[index]:
            summaries[index] = outcome_summary(sub.records)
        # Keep no per-request data between calls: it would count
        # towards the next call's resident set.
        sub.records = []
        runs[index].append(sub)
        positions[index].append(len(references))
        references.append(reference_s())
        step += 1
    for index, subs in enumerate(runs):
        report.check_same(f"sub-run {index}", subs)

    requests = sum(expected)
    # Host times are corrected by the host's speed around each call (see
    # README.md): the host this was written on ran 1.3 to 2.3 times below
    # its best for minutes at a time.

    def slowdown_at(position: int) -> float:
        """Mean of the three reference timings before a call and the
        three after it, over the loop's fastest time.  The host flips
        between fast and slow phases within one call, and a call's time
        adds up both; the mean follows that sum, a median only the more
        common phase."""
        return statistics.mean(references[position - 3:position + 3]) / REFERENCE_S

    calls = [
        [(sub, slowdown_at(p)) for sub, p in zip(subs, places)]
        for subs, places in zip(runs, positions)
    ]
    every = [pair for pairs in calls for pair in pairs]
    host = (
        f"host at {statistics.median(references) / REFERENCE_S:.2f}x the reference "
        f"time, median of {len(references)}"
    )
    # The program is deterministic, so every difference between repeats
    # of one spec is interference from the host; the fastest corrected
    # repeat is the program's own cost.
    call_s = sum(min(sub.call_s / slow for sub, slow in pairs) for pairs in calls)
    raw_call_s = sum(min(sub.call_s for sub in subs) for subs in runs)
    report.add(
        "requests_per_s", requests / call_s,
        f"{requests} requests over {len(docs)} specs, fastest of "
        f"{min(map(len, runs))}-{max(map(len, runs))} runs each; "
        f"uncorrected {requests / raw_call_s:.1f}; {host}",
    )
    report.add(
        "setup_s", statistics.median(sub.setup_s / slow for sub, slow in every),
        f"median of {len(every)} calls; uncorrected "
        f"{statistics.median(sub.setup_s for sub, _ in every):.4f}; {host}",
    )
    peak_kb = peak_rss_kb()
    report.add("peak_rss_mb", peak_kb / 1024.0, "1 process")
    report.add(
        "mem_per_request_kb", (peak_kb - base_rss) / max(expected),
        f"peak over RSS after warm-up ({base_rss / 1024.0:.1f} MB), "
        "per request of one call",
    )
    latencies = [x for summary in summaries for x in summary["latencies"]]
    tail = len(latencies) - -(-len(latencies) * 99 // 100)
    report.add(
        "update_p50_ms", percentile(latencies, 50), f"{len(latencies)} completed updates"
    )
    report.add(
        "update_p99_ms", percentile(latencies, 99),
        f"{len(latencies)} completed updates, {tail} beyond p99",
    )
    makespan_s = sum(summary["makespan_ms"] for summary in summaries) / 1000.0
    report.add(
        "sim_updates_per_s", len(latencies) / makespan_s if makespan_s else 0.0,
        f"{len(latencies)} updates over {makespan_s:.1f} simulated s",
    )
    served = sum(summary["served"] for summary in summaries)
    report.add("served_fraction", served / requests, f"{served} of {requests} requests")
    return [subs[0] for subs in runs]


def measure_layers(workload: Any, doc: dict, seconds: float, report: Report) -> list:
    """Fill ``report``; returns the untraced call."""
    from layers import run_phase_metrics, setup_phase_metrics
    from runner import run_subrun
    from workloads import request_count

    expected = request_count(doc)
    started = time.perf_counter()
    base = run_subrun(workload.kind, doc)
    report.check_subrun(base, expected, workload.violations_expected)
    traced: list = []
    layer_metrics: list = []
    while not traced or time.perf_counter() + traced[0].call_s <= started + seconds:
        sub = run_subrun(workload.kind, doc, traced=True)
        report.check_subrun(sub, expected, workload.violations_expected)
        metrics = run_phase_metrics(sub.run_stats, PACKAGE_DIR, sub.run_s)
        metrics.update(setup_phase_metrics(sub.setup_stats, PACKAGE_DIR, sub.setup_s))
        # Profiles are large; keep only what they were reduced to.
        sub.run_stats = sub.setup_stats = None
        sub.records = []
        traced.append(sub)
        layer_metrics.append(metrics)
    report.check_same("traced and untraced runs", [base] + traced)

    middle = sorted(range(len(traced)), key=lambda i: traced[i].run_s)[len(traced) // 2]
    pick = traced[middle]
    repeats = f"median of {len(traced)} traced runs"
    for name, value in layer_metrics[middle].items():
        report.add(name, value, repeats if name.endswith("_s") else "")
    records = base.records
    outcomes = [r["outcome"] for r in records]
    moves = base.ops_summary.get("moves_by_outcome", {})
    sizes = pick.checkpoint_sizes
    report.add("sim.events", base.events)
    report.add("sim.events_per_s", base.events / base.run_s, "untraced run phase")
    report.add("serve.peak_in_flight", base.peak_in_flight)
    report.add("consistency.violations", base.violations)
    report.add("serve.admission_wait_p99_ms",
               segment_p99(records, "dispatched_ms", "submitted_ms", False))
    report.add("core.prepare_p99_ms", segment_p99(records, "pushed_ms", "dispatched_ms", False))
    report.add("core.install_p99_ms",
               segment_p99(records, "last_install_ms", "pushed_ms", True))
    report.add("core.verify_p99_ms",
               segment_p99(records, "completed_ms", "last_install_ms", True))
    report.add("ops.moves", base.ops_summary.get("moves_total", 0))
    report.add("ops.moves_stranded", moves.get("stranded", 0))
    report.add("ops.checkpoints", len(sizes))
    report.add("ops.checkpoint_s", pick.checkpoint_s)
    report.add("ops.checkpoint_bytes", statistics.mean(sizes) if sizes else 0,
               "mean per checkpoint")
    report.add("chaos.aborts", outcomes.count("aborted"))
    report.add("chaos.parks", outcomes.count("flow_parked"))
    report.add("trace.run_phase_s", pick.run_s, repeats)
    report.add("trace.base_call_s", base.call_s, "1 untraced run")
    report.add("trace.overhead_ratio", pick.call_s / base.call_s,
               f"traced call {pick.call_s:.3f} s over untraced {base.call_s:.3f} s")
    return [base]


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="shrink every sub-run (the benchmark's own tests)")
    parser.add_argument("--subruns", type=int, default=None,
                        help="run fewer sub-runs (the benchmark's own tests)")
    parser.add_argument("--write-pins", action="store_true",
                        help="record the default seed's signatures in pins.json")
    args = parser.parse_args(argv)

    import_program()
    from checks import pin_problems, signature_pairs, write_pins
    from runner import run_subrun
    from workloads import DEFAULT_SEED, WORKLOADS, spec_docs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    docs = spec_docs(workload, seed, requests=args.requests, subruns=args.subruns)
    resized = args.requests is not None or args.subruns is not None

    if args.write_pins:
        if resized or seed != DEFAULT_SEED:
            parser.error("--write-pins takes the default seed and size only")
        subs = [run_subrun(workload.kind, doc) for doc in docs]
        write_pins(workload.name, signature_pairs(subs))
        print(f"pinned {len(subs)} signature pairs for {workload.name}")
        return 0

    # Warm-up: lazy imports and first-use caches are paid before timing.
    run_subrun(workload.kind, spec_docs(workload, seed, requests=5, subruns=1)[0])
    report = Report()
    if args.trace:
        checked = measure_layers(workload, docs[0], args.seconds, report)
        units = metric_units("per_layer")
    else:
        checked = measure_end_to_end(workload, docs, args.seconds, report)
        units = metric_units("end_to_end")
    if seed == DEFAULT_SEED and not resized:
        report.problems += pin_problems(workload.name, signature_pairs(checked))
    missing = set(units) - set(report.metrics)
    if missing:
        report.problems.append(f"metrics not measured: {sorted(missing)}")
    return 0 if report.emit(units) else 1


if __name__ == "__main__":
    sys.exit(main())
