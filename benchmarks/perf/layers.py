"""Per-layer attribution of a traced sub-run.

The traced sub-run is profiled with :mod:`cProfile`, which records
every call boundary with its self time.  Each function is charged to
the layer of the ``repro`` package that defines it, so work done in a
trace subscriber (the live checker) is charged to ``consistency``, not
to the switch callback that emitted the event.  Functions outside
``repro`` (the standard library, NumPy, builtins) have no layer of
their own: their self time is split over their callers' layers in
proportion to the time spent under each caller.

Layer self times plus ``unattributed`` add up to the traced run phase
by construction; ``unattributed`` holds the benchmark's own frames,
time cProfile cannot place, and anything else left over.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

#: ``repro`` sub-packages reported as their own layer; every other
#: package is charged to ``other``.
LAYERS = (
    "sim", "p4", "core", "consistency", "serve", "algos", "baselines",
    "ops", "chaos", "obs", "harness",
)

#: The engine's sub-buckets, by file.
_SIM_FILES = {
    "engine.py": "sim.dispatch",
    "network.py": "sim.network",
    "links.py": "sim.network",
    "node.py": "sim.network",
    "faults.py": "sim.network",
    "trace.py": "sim.trace",
}

#: Functions charged to a bucket other than their package's.
_FUNCTION_BUCKETS = {
    ("chaos/runner.py", "trace_signature"): "sim.signature",
}

UNATTRIBUTED = "unattributed"

Key = tuple  # (filename, line, function name), as pstats keys functions


class Attribution:
    """Buckets for every function in one pstats table."""

    def __init__(self, stats: dict, package_dir: str) -> None:
        self.stats = stats
        self.package_dir = os.path.normpath(package_dir) + os.sep
        self._shares: dict[Key, dict[str, float]] = {}

    def relpath(self, key: Key) -> str:
        """Path of ``key``'s file below the ``repro`` package, or ''."""
        filename = os.path.normpath(key[0])
        if filename.startswith(self.package_dir):
            return filename[len(self.package_dir):].replace(os.sep, "/")
        return ""

    def own_bucket(self, key: Key) -> str:
        """The bucket of a ``repro`` function; '' for anything else."""
        rel = self.relpath(key)
        if not rel:
            return ""
        special = _FUNCTION_BUCKETS.get((rel, key[2]))
        if special is not None:
            return special
        package, _, rest = rel.partition("/")
        if package == "sim":
            return _SIM_FILES.get(rest, "sim.other")
        return package if package in LAYERS else "other"

    def shares(self, key: Key) -> dict[str, float]:
        """Fractions of ``key``'s self time per bucket."""
        cached = self._shares.get(key)
        if cached is None:
            cached = self._resolve(key, frozenset())
            self._shares[key] = cached
        return cached

    def _resolve(self, key: Key, active: frozenset) -> dict[str, float]:
        bucket = self.own_bucket(key)
        if bucket:
            return {bucket: 1.0}
        entry = self.stats.get(key)
        callers = {
            caller: edge
            for caller, edge in (entry[4] if entry is not None else {}).items()
            if caller not in active and caller != key
        }
        # Weight callers by the time this function spent under each;
        # fall back to call counts when cProfile measured no time.
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: float(edge[1]) for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return {UNATTRIBUTED: 1.0}
        result: dict[str, float] = {}
        for caller, weight in weights.items():
            for name, share in self._resolve(caller, active | {key}).items():
                result[name] = result.get(name, 0.0) + share * weight / total
        return result

    def self_times(self) -> dict[str, float]:
        """Self seconds per bucket, summed over every function."""
        totals: dict[str, float] = {}
        for key, entry in self.stats.items():
            self_s = entry[2]
            if self_s <= 0:
                continue
            for bucket, share in self.shares(key).items():
                totals[bucket] = totals.get(bucket, 0.0) + self_s * share
        return totals

    def find(self, rel: str, names: Iterable[str]) -> list[Key]:
        """Keys of the functions ``names`` defined in ``repro/<rel>``."""
        wanted = set(names)
        return [
            key for key in self.stats
            if key[2] in wanted and self.relpath(key) == rel
        ]

    def calls(self, rel: str, *names: str) -> int:
        """Primitive call count of the named functions."""
        return sum(self.stats[key][1] for key in self.find(rel, names))

    def cumulative(self, rel: str, *names: str) -> float:
        """Cumulative seconds (self plus callees) of the named functions."""
        return sum(self.stats[key][3] for key in self.find(rel, names))

    def edge(self, rel: str, name: str, caller_rel: str, *caller_names: str) -> tuple[int, float]:
        """(calls, cumulative seconds) of ``name`` when called from the
        given callers; no caller names means any function of that file."""
        count, seconds = 0, 0.0
        for key in self.find(rel, [name]):
            for caller, edge in self.stats[key][4].items():
                if self.relpath(caller) != caller_rel:
                    continue
                if caller_names and caller[2] not in caller_names:
                    continue
                count += edge[1]
                seconds += edge[3]
        return count, seconds


def run_phase_metrics(stats: dict, package_dir: str, run_s: float) -> dict[str, Any]:
    """Per-layer self times and counts of a traced run phase."""
    attr = Attribution(stats, package_dir)
    buckets = attr.self_times()
    sim_parts = {
        name: buckets.get(f"sim.{name}", 0.0)
        for name in ("dispatch", "network", "trace", "signature", "other")
    }
    metrics: dict[str, Any] = {
        "sim.self_s": sum(sim_parts.values()),
        "sim.dispatch_self_s": sim_parts["dispatch"],
        "sim.network_self_s": sim_parts["network"],
        "sim.trace_self_s": sim_parts["trace"],
        "sim.signature_s": sim_parts["signature"],
    }
    for layer in LAYERS[1:] + ("other",):
        metrics[f"{layer}.self_s"] = buckets.get(layer, 0.0)
    attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    metrics["unattributed.self_s"] = run_s - attributed

    checks, _ = attr.edge(
        "consistency/checker.py", "check_congestion_freedom",
        "consistency/checker.py", "_on_event",
    )
    walks, _ = attr.edge("consistency/state.py", "walk", "consistency/checker.py")
    baseline_messages = sum(
        attr.edge("sim/node.py", name, caller)[0]
        for name in ("send", "send_control")
        for caller in ("baselines/ezsegway.py", "baselines/central.py")
    )
    metrics.update({
        "sim.schedules": attr.calls("sim/engine.py", "schedule"),
        "sim.messages": attr.calls("sim/network.py", "transmit", "transmit_control"),
        "sim.trace_events": attr.calls("sim/trace.py", "record"),
        "p4.pipeline_passes": attr.calls("p4/pipeline.py", "process"),
        "p4.resubmits": attr.calls("p4/pipeline.py", "resubmit"),
        "p4.register_ops": attr.calls("p4/registers.py", "read", "write"),
        "core.rule_changes": attr.calls("consistency/state.py", "set_rule"),
        "core.prepare_s": attr.cumulative("core/controller.py", "prepare_update"),
        "core.push_s": attr.cumulative("core/controller.py", "push_update"),
        "consistency.checks": checks,
        "consistency.walks": walks,
        "consistency.walks_per_check": walks / checks if checks else 0.0,
        "consistency.share": metrics["consistency.self_s"] / run_s if run_s > 0 else 0.0,
        "serve.submits": attr.calls("serve/orchestrator.py", "submit"),
        "baselines.messages": baseline_messages,
    })
    return metrics


#: Set-up steps, each as (file below repro/, function names) called
#: directly from the entry point.
_SETUP_STEPS = {
    "setup.deploy_s": [
        ("harness/build.py", "build_p4update_network"),
        ("algos/registry.py", "build_strategy_runtime"),
    ],
    "setup.flows_s": [
        ("serve/workload.py", "build_flow_population"),
        ("harness/build.py", "install_flow"),
        ("algos/base.py", "install_flow"),
    ],
}
_ENTRY_POINTS = (
    ("serve/service.py", "run_service"),
    ("ops/session.py", "build_session"),
)


def setup_phase_metrics(stats: dict, package_dir: str, setup_s: float) -> dict[str, float]:
    """Set-up split into topology, deployment and flow install."""
    attr = Attribution(stats, package_dir)

    def from_entry(rel: str, name: str) -> float:
        return sum(
            attr.edge(rel, name, entry_rel, entry_name)[1]
            for entry_rel, entry_name in _ENTRY_POINTS
        )

    topology_s = 0.0
    for key in attr.stats:
        rel = attr.relpath(key)
        if rel.startswith("topo/"):
            topology_s += sum(
                edge[3] for caller, edge in attr.stats[key][4].items()
                if (attr.relpath(caller), caller[2]) in _ENTRY_POINTS
            )
    metrics = {"setup.topology_s": topology_s}
    for metric, steps in _SETUP_STEPS.items():
        metrics[metric] = sum(from_entry(rel, name) for rel, name in steps)
    metrics["setup.other_s"] = setup_s - sum(metrics.values())
    return metrics
