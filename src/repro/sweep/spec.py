"""Declarative sweep specifications and their deterministic expansion.

A sweep spec is a plain JSON document describing a full experiment
grid — the paper-scale matrices (Fig. 7 is scenario x topology, the
ez-Segway evaluation sweeps seeds per topology) as one file::

    {
      "name": "smoke",
      "kind": "experiment",
      "systems": ["p4update-sl", "p4update-dl", "ezsegway"],
      "topologies": ["fig1", "six_node"],
      "scenarios": ["single"],
      "seeds": 2,
      "params": {"max_sim_time_ms": 60000.0}
    }

:func:`SweepSpec.expand` flattens the grid into an ordered list of
:class:`Shard` work units.  The contract that makes fleets resumable
and worker-count-independent:

* **Deterministic order** — shards are the cartesian product of the
  axes in the fixed order (scenario, topology, seed index, system),
  numbered from 0.  Same spec, same shard list, always.
* **Stable identity** — :func:`spec_hash` is the SHA-256 of the
  canonical spec JSON; the on-disk shard cache is keyed by
  ``(spec_hash, shard_id)``, so editing a spec invalidates its cache.
* **Stable seeds** — each shard's seed comes from
  :func:`derive_shard_seed`, a SHA-256 over (spec seed, scenario,
  topology, seed index).  The *system* axis is deliberately excluded:
  every system in one grid cell sees the identical workload, which is
  the paper's paired experiment design.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Optional

from repro.harness.experiment import SYSTEMS
from repro.params import SimParams

SWEEP_KINDS = (
    "experiment", "chaos", "serve", "prep", "interference", "fuzz", "ops",
    "compete",
)

SCENARIO_KINDS = ("single", "multi")

#: Topologies an experiment sweep can name (mirrors the harness spec
#: builders; parameterised families use ``name:arg`` forms).
SWEEP_TOPOLOGIES = (
    "fig1",
    "fig2",
    "six_node",
    "b4",
    "internet2",
    "attmpls",
    "chinanet",
    "fattree4",
)

#: SimParams fields a spec may override (scalar knobs only — delay
#: distributions stay code-defined so specs remain diffable data).
_OVERRIDABLE_PARAMS = frozenset(
    f.name
    for f in dataclass_fields(SimParams)
    if f.type in ("int", "float", "bool")
)


class SweepSpecError(ValueError):
    """Raised for malformed sweep specifications."""


@dataclass(frozen=True)
class Shard:
    """One unit of fleet work: a single (cell, seed, system) run."""

    index: int
    shard_id: str           # "s0007" — stable, sortable
    kind: str               # one of SWEEP_KINDS
    key: dict               # the axis values selecting this shard
    seed: int               # derived per-shard seed (see module doc)
    payload: dict = field(repr=False)  # everything the worker needs

    def describe(self) -> str:
        axes = " ".join(f"{k}={v}" for k, v in sorted(self.key.items()))
        return f"{self.shard_id} seed={self.seed} {axes}"


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep description (see module docstring)."""

    name: str
    kind: str = "experiment"
    seed: int = 0
    description: str = ""
    # -- experiment axes ---------------------------------------------------
    systems: tuple[str, ...] = ("p4update",)
    topologies: tuple[str, ...] = ("fig1",)
    scenarios: tuple[str, ...] = ("single",)
    seeds: tuple[int, ...] = (0,)
    congestion_aware: bool = True
    dionysus_install_delays: bool = False
    params: dict = field(default_factory=dict)
    # -- chaos axes --------------------------------------------------------
    campaign: Optional[dict] = None
    runs: int = 1
    # -- serve axes (kind "serve": one shard per entry of ``seeds``) -------
    serve: Optional[dict] = None
    # -- compete axes (kind "compete": seeds x strategies over ``serve``) --
    strategies: tuple[str, ...] = ()
    # -- ops axes (kind "ops": one session shard per ``seeds`` entry) ------
    ops: Optional[dict] = None
    # -- prep axes (kind "prep": one shard per topology) -------------------
    updates: int = 1000
    count_updates: int = 50
    # -- fuzz axes (kind "fuzz": ``runs`` shards splitting the budget) -----
    fuzz: Optional[dict] = None
    # -- instrumentation ---------------------------------------------------
    obs: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepSpecError("sweep spec needs a non-empty 'name'")
        if self.kind not in SWEEP_KINDS:
            raise SweepSpecError(
                f"unknown sweep kind {self.kind!r}; expected one of {SWEEP_KINDS}"
            )
        if self.kind == "experiment":
            for system in self.systems:
                if system not in SYSTEMS:
                    raise SweepSpecError(
                        f"unknown system {system!r}; known: {SYSTEMS}"
                    )
            for topology in self.topologies:
                if topology not in SWEEP_TOPOLOGIES:
                    raise SweepSpecError(
                        f"unknown topology {topology!r}; "
                        f"known: {SWEEP_TOPOLOGIES}"
                    )
            for scenario in self.scenarios:
                if scenario not in SCENARIO_KINDS:
                    raise SweepSpecError(
                        f"unknown scenario {scenario!r}; "
                        f"known: {SCENARIO_KINDS}"
                    )
            if not (self.systems and self.topologies and self.scenarios
                    and self.seeds):
                raise SweepSpecError("experiment sweep has an empty axis")
        elif self.kind == "chaos":
            if self.campaign is None:
                raise SweepSpecError("chaos sweep needs a 'campaign' object")
            if self.runs < 1:
                raise SweepSpecError("chaos sweep needs runs >= 1")
        elif self.kind in ("serve", "interference"):
            if self.serve is None:
                raise SweepSpecError(
                    f"{self.kind} sweep needs a 'serve' object"
                )
            if not self.seeds:
                raise SweepSpecError(
                    f"{self.kind} sweep has an empty seeds axis"
                )
            from repro.serve.spec import ServeSpecError, load_serve_spec

            try:
                load_serve_spec(dict(self.serve))
            except ServeSpecError as exc:
                raise SweepSpecError(f"invalid serve spec: {exc}") from None
        elif self.kind == "compete":
            if self.serve is None:
                raise SweepSpecError("compete sweep needs a 'serve' object")
            if not self.seeds:
                raise SweepSpecError("compete sweep has an empty seeds axis")
            if not self.strategies:
                raise SweepSpecError(
                    "compete sweep needs a non-empty 'strategies' list"
                )
            if len(set(self.strategies)) != len(self.strategies):
                raise SweepSpecError("compete sweep repeats a strategy")
            from repro.algos.registry import strategy_names

            known = strategy_names()
            for strategy in self.strategies:
                if strategy not in known:
                    raise SweepSpecError(
                        f"unknown strategy {strategy!r}; known: {known}"
                    )
            from repro.serve.spec import ServeSpecError, load_serve_spec

            try:
                load_serve_spec(dict(self.serve))
            except ServeSpecError as exc:
                raise SweepSpecError(f"invalid serve spec: {exc}") from None
        elif self.kind == "ops":
            if self.ops is None:
                raise SweepSpecError("ops sweep needs an 'ops' object")
            if not self.seeds:
                raise SweepSpecError("ops sweep has an empty seeds axis")
            from repro.ops.spec import SessionSpecError, load_session_spec

            try:
                load_session_spec(dict(self.ops))
            except SessionSpecError as exc:
                raise SweepSpecError(f"invalid ops spec: {exc}") from None
        elif self.kind == "fuzz":
            if self.fuzz is None:
                raise SweepSpecError("fuzz sweep needs a 'fuzz' object")
            if self.runs < 1:
                raise SweepSpecError("fuzz sweep needs runs >= 1")
            from repro.fuzz.campaign import FuzzSpecError, load_fuzz_spec

            try:
                load_fuzz_spec(dict(self.fuzz))
            except FuzzSpecError as exc:
                raise SweepSpecError(f"invalid fuzz spec: {exc}") from None
        else:  # prep
            for topology in self.topologies:
                if topology not in SWEEP_TOPOLOGIES:
                    raise SweepSpecError(
                        f"unknown topology {topology!r}; "
                        f"known: {SWEEP_TOPOLOGIES}"
                    )
            if not self.topologies:
                raise SweepSpecError("prep sweep has an empty topology axis")
            if self.updates < 1 or self.count_updates < 1:
                raise SweepSpecError(
                    "prep sweep needs updates >= 1 and count_updates >= 1"
                )
        unknown = set(self.params) - _OVERRIDABLE_PARAMS
        if unknown:
            raise SweepSpecError(
                f"non-overridable SimParams field(s) {sorted(unknown)}; "
                f"overridable: {sorted(_OVERRIDABLE_PARAMS)}"
            )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "seed": self.seed,
            "description": self.description,
            "obs": self.obs,
        }
        if self.kind == "experiment":
            doc.update(
                systems=list(self.systems),
                topologies=list(self.topologies),
                scenarios=list(self.scenarios),
                seeds=list(self.seeds),
                congestion_aware=self.congestion_aware,
                dionysus_install_delays=self.dionysus_install_delays,
                params=dict(self.params),
            )
        elif self.kind == "chaos":
            doc.update(campaign=dict(self.campaign or {}), runs=self.runs)
        elif self.kind in ("serve", "interference"):
            doc.update(serve=dict(self.serve or {}), seeds=list(self.seeds))
        elif self.kind == "compete":
            doc.update(
                serve=dict(self.serve or {}),
                seeds=list(self.seeds),
                strategies=list(self.strategies),
            )
        elif self.kind == "ops":
            doc.update(ops=dict(self.ops or {}), seeds=list(self.seeds))
        elif self.kind == "fuzz":
            doc.update(fuzz=dict(self.fuzz or {}), runs=self.runs)
        else:  # prep
            doc.update(
                topologies=list(self.topologies),
                updates=self.updates,
                count_updates=self.count_updates,
            )
        return doc

    def spec_hash(self) -> str:
        """SHA-256 of the canonical spec JSON — the cache key."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- expansion ---------------------------------------------------------

    def expand(self) -> list[Shard]:
        """The full, ordered shard list for this spec."""
        shards: list[Shard] = []
        if self.kind == "experiment":
            grid = itertools.product(
                self.scenarios, self.topologies, self.seeds, self.systems
            )
            for index, (scenario, topology, seed_index, system) in enumerate(grid):
                key = {
                    "scenario": scenario,
                    "topology": topology,
                    "seed_index": seed_index,
                    "system": system,
                }
                seed = derive_shard_seed(
                    self.seed, scenario, topology, seed_index
                )
                payload = {
                    "kind": "experiment",
                    "system": system,
                    "topology": topology,
                    "scenario": scenario,
                    "seed": seed,
                    "congestion_aware": self.congestion_aware,
                    "dionysus_install_delays": self.dionysus_install_delays,
                    "params": dict(self.params),
                    "obs": self.obs,
                }
                shards.append(self._shard(index, key, seed, payload))
        elif self.kind == "chaos":
            campaign = dict(self.campaign or {})
            base_seed = int(campaign.get("seed", self.seed))
            for index in range(self.runs):
                key = {"run": index, "campaign": campaign.get("name", self.name)}
                payload = {
                    "kind": "chaos",
                    "campaign": campaign,
                    "obs": self.obs,
                }
                shards.append(self._shard(index, key, base_seed, payload))
        elif self.kind in ("serve", "interference"):
            # "interference" shares the serve expansion (one shard per
            # seeds entry, same derived workload seeds) so a static
            # analysis fleet covers exactly the runs a serve fleet
            # would execute.
            serve = dict(self.serve or {})
            topology = serve.get("topology", "b4")
            for index, seed_index in enumerate(self.seeds):
                key = {
                    "seed_index": seed_index,
                    "serve": serve.get("name", self.name),
                }
                seed = derive_shard_seed(self.seed, "serve", topology, seed_index)
                payload = {
                    "kind": self.kind,
                    "serve": serve,
                    "seed": seed,
                    "obs": self.obs,
                }
                shards.append(self._shard(index, key, seed, payload))
        elif self.kind == "compete":
            # One seeded workload fanned across every strategy.  The
            # derived seed deliberately excludes the strategy axis:
            # every strategy in a seed cell replays the identical
            # arrival sequence and flow toggles (the paired design the
            # experiment sweep uses for its system axis).
            serve = dict(self.serve or {})
            topology = serve.get("topology", "b4")
            grid = itertools.product(self.seeds, self.strategies)
            for index, (seed_index, strategy) in enumerate(grid):
                key = {
                    "seed_index": seed_index,
                    "strategy": strategy,
                    "serve": serve.get("name", self.name),
                }
                seed = derive_shard_seed(
                    self.seed, "compete", topology, seed_index
                )
                payload = {
                    "kind": "compete",
                    "serve": serve,
                    "strategy": strategy,
                    "seed": seed,
                    "obs": self.obs,
                }
                shards.append(self._shard(index, key, seed, payload))
        elif self.kind == "ops":
            # Same contract as serve fleets: one session per seeds
            # entry, each with a derived workload seed (kind-tagged so
            # ops and serve fleets with the same spec seed never share
            # RNG streams by accident).
            ops = dict(self.ops or {})
            serve = dict(ops.get("serve") or {})
            topology = serve.get("topology", "b4")
            for index, seed_index in enumerate(self.seeds):
                key = {
                    "seed_index": seed_index,
                    "session": ops.get("name", self.name),
                }
                seed = derive_shard_seed(self.seed, "ops", topology, seed_index)
                payload = {
                    "kind": "ops",
                    "ops": ops,
                    "seed": seed,
                    "obs": self.obs,
                }
                shards.append(self._shard(index, key, seed, payload))
        elif self.kind == "fuzz":
            from repro.fuzz.campaign import split_budget

            fuzz = dict(self.fuzz or {})
            budgets = split_budget(int(fuzz.get("budget", 1)), self.runs)
            for index in range(self.runs):
                key = {"shard": index, "fuzz": fuzz.get("name", self.name)}
                seed = derive_shard_seed(
                    self.seed, "fuzz", str(fuzz.get("name", self.name)), index
                )
                payload = {
                    "kind": "fuzz",
                    "fuzz": fuzz,
                    "seed": seed,
                    "shard_index": index,
                    "budget": budgets[index],
                    "obs": self.obs,
                }
                shards.append(self._shard(index, key, seed, payload))
        else:  # prep
            for index, topology in enumerate(self.topologies):
                key = {"topology": topology}
                seed = derive_shard_seed(self.seed, "prep", topology, 0)
                payload = {
                    "kind": "prep",
                    "topology": topology,
                    "updates": self.updates,
                    "count_updates": self.count_updates,
                    "seed": seed,
                    "obs": self.obs,
                }
                shards.append(self._shard(index, key, seed, payload))
        return shards

    def _shard(self, index: int, key: dict, seed: int, payload: dict) -> Shard:
        shard_id = f"s{index:04d}"
        payload = dict(payload, shard_id=shard_id, index=index)
        return Shard(
            index=index, shard_id=shard_id, kind=self.kind,
            key=key, seed=seed, payload=payload,
        )


def derive_shard_seed(
    spec_seed: int, scenario: str, topology: str, seed_index: int
) -> int:
    """Stable per-cell seed: SHA-256, not ``hash()`` (which is salted
    per process), over the workload-defining axes.  The system axis is
    excluded so paired comparisons share workloads."""
    material = f"{spec_seed}|{scenario}|{topology}|{seed_index}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


def load_sweep_spec(data: dict) -> SweepSpec:
    """Build a spec from a plain (JSON-decoded) dict."""
    if not isinstance(data, dict):
        raise SweepSpecError(f"sweep spec must be an object, got {type(data).__name__}")
    payload = dict(data)
    known = {f.name for f in dataclass_fields(SweepSpec)}
    unknown = set(payload) - known
    if unknown:
        raise SweepSpecError(f"unknown sweep spec field(s) {sorted(unknown)}")
    for axis in ("systems", "topologies", "scenarios", "strategies"):
        if axis in payload:
            payload[axis] = tuple(payload[axis])
    if "seeds" in payload:
        seeds = payload["seeds"]
        if isinstance(seeds, int):
            payload["seeds"] = tuple(range(seeds))
        else:
            payload["seeds"] = tuple(int(s) for s in seeds)
    try:
        return SweepSpec(**payload)
    except TypeError as exc:
        raise SweepSpecError(str(exc)) from None


def load_sweep_spec_file(path: str) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SweepSpecError(f"{path}: invalid JSON: {exc}") from None
    return load_sweep_spec(data)
