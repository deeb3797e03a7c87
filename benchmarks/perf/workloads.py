"""The benchmark's workloads: seed in, generated spec documents out.

Each workload is a *pool* of sub-runs.  Sub-run ``i`` of seed ``s``
gets the spec seed ``s * subruns + i``, so different benchmark seeds
never share a sub-run and the same seed always yields the same specs.
The pool exists because one spec seed also draws the flow population:
with 16 gravity-weighted flows, a single seed's share of merged
(cheap) requests ranges from about 10% to 50%, which would make a
one-spec run measure the seed rather than the program.  Pooling a
fixed number of sub-runs averages that out: over 48 sub-runs of 125
requests the pooled event count varied by about 2% between seeds,
against about 8% over 8 sub-runs of 1,000.

The program under test only ever sees the generated documents; it
never learns the benchmark seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Seed whose signatures are pinned in ``pins.json``.
DEFAULT_SEED = 0
#: Seed never used while the benchmark or a change is tuned; a claimed
#: gain must also hold on it.
HELD_OUT_SEED = 4242

KIND_SERVE = "serve"
KIND_OPS = "ops"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see ``README.md`` for why each exists)."""

    name: str
    why: str
    kind: str
    subruns: int
    # Serve spec fields shared by every sub-run (seed and name added
    # per sub-run).  For ops workloads this is the embedded serve spec.
    serve: dict
    # Ops-session fields around the embedded serve spec.
    session: dict = field(default_factory=dict)
    # Whether the live checker may report violations (chaos runs hit a
    # known false-positive defect; see README.md).
    violations_expected: bool = False


_SPARSE = {
    "topology": "b4",
    "flows": 16,
    "mode": "closed",
    "clients": 8,
    "think_time_ms": 20.0,
    "requests": 125,
    "horizon_ms": 120000.0,
}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense-open",
            why=(
                "chinanet, 128 flows, open-loop Poisson at 10 req/s with "
                "merging: the live checker re-walks every flow on each rule "
                "change, so consistency dominates"
            ),
            kind=KIND_SERVE,
            subruns=16,
            serve={
                "topology": "chinanet",
                "flows": 128,
                "mode": "open",
                "arrival_rate_per_s": 10.0,
                "requests": 88,
                "conflict_policy": "merge",
                "horizon_ms": 120000.0,
            },
        ),
        Workload(
            name="sparse-closed",
            why=(
                "b4, 16 flows, closed loop (8 clients, 20 ms think): a cheap "
                "checker, so engine, P4 pipeline, switch agent and "
                "orchestrator carry the run"
            ),
            kind=KIND_SERVE,
            subruns=32,
            serve=dict(_SPARSE),
        ),
        Workload(
            name="sparse-closed-ezsegway",
            why=(
                "sparse-closed under the ez-Segway strategy: exercises "
                "repro.algos and repro.baselines and bypasses the P4 "
                "pipeline and core agents"
            ),
            kind=KIND_SERVE,
            subruns=32,
            serve=dict(_SPARSE, strategy="ezsegway"),
        ),
        Workload(
            name="ops-chaos",
            why=(
                "attmpls ops session, 32 flows of churn, link flap, volatile "
                "crash, drain/migrate/rebalance and checkpoints: the only "
                "run through repro.ops and chaos recovery"
            ),
            kind=KIND_OPS,
            subruns=16,
            serve={
                "topology": "attmpls",
                "flows": 32,
                "mode": "open",
                "arrival_rate_per_s": 5.0,
                "requests": 200,
                "horizon_ms": 60000.0,
                "events": [
                    {"time_ms": 10000.0, "kind": "link_down",
                     "node_a": "chicago", "node_b": "cleveland"},
                    {"time_ms": 11000.0, "kind": "link_up",
                     "node_a": "chicago", "node_b": "cleveland"},
                    {"time_ms": 16000.0, "kind": "switch_crash",
                     "node_a": "dallas", "preserve_state": False},
                    {"time_ms": 17000.0, "kind": "switch_restart",
                     "node_a": "dallas"},
                ],
            },
            session={
                "tenants": 4,
                "checkpoint_every_ms": 10000.0,
                "timeline": [
                    {"at_ms": 4000.0, "op": "drain_switch", "switch": "stlouis"},
                    {"at_ms": 5000.0, "op": "undrain_switch", "switch": "stlouis"},
                    {"at_ms": 24000.0, "op": "migrate_tenant", "tenant": 1},
                    {"at_ms": 30000.0, "op": "rebalance", "max_moves": 4},
                ],
            },
            violations_expected=True,
        ),
    )
}


def sub_seed(workload: Workload, seed: int, index: int) -> int:
    """Spec seed of sub-run ``index`` for benchmark seed ``seed``."""
    return seed * workload.subruns + index


def spec_docs(
    workload: Workload,
    seed: int,
    requests: Optional[int] = None,
    subruns: Optional[int] = None,
) -> list[dict]:
    """The generated spec documents, one per sub-run.

    ``requests`` and ``subruns`` shrink a workload for the benchmark's
    own tests; the benchmark itself always uses the defaults.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    count = workload.subruns if subruns is None else subruns
    docs = []
    for index in range(count):
        serve = dict(
            workload.serve,
            name=f"{workload.name}-{index}",
            seed=sub_seed(workload, seed, index),
        )
        if requests is not None:
            serve["requests"] = requests
        if workload.kind == KIND_SERVE:
            docs.append(serve)
        else:
            docs.append(dict(workload.session, name=serve["name"], serve=serve))
    return docs


def request_count(doc: dict) -> int:
    """Requests one generated spec document submits."""
    return int((doc.get("serve") or doc)["requests"])
