"""The strategy registry: names, capability flags, spec validation."""

import pytest

from repro.algos.registry import (
    DEFAULT_STRATEGY,
    STRATEGIES,
    get_strategy,
    strategy_names,
)

EXPECTED = [
    "augmented",
    "central",
    "ezsegway",
    "p4update",
    "p4update-dl",
    "p4update-sl",
    "synthesis",
]


def test_registry_names_sorted_and_complete():
    assert strategy_names() == EXPECTED
    assert DEFAULT_STRATEGY in STRATEGIES


def test_unknown_strategy_raises_with_known_names():
    with pytest.raises(KeyError, match="registered"):
        get_strategy("nope")


def test_capability_flags():
    caps = {name: get_strategy(name).capabilities() for name in EXPECTED}
    assert caps["augmented"] == {"decentralized": True, "uses_augmentation": True}
    assert caps["central"] == {"decentralized": False, "uses_augmentation": False}
    assert caps["synthesis"]["decentralized"] is False
    for name in ("p4update", "p4update-sl", "p4update-dl", "ezsegway"):
        assert caps[name]["decentralized"] is True
    only_augmented = [n for n in EXPECTED if caps[n]["uses_augmentation"]]
    assert only_augmented == ["augmented"]


def test_info_to_dict_is_json_shaped():
    for name in EXPECTED:
        doc = get_strategy(name).to_dict()
        assert doc["name"] == name
        assert doc["description"]
        assert {"decentralized", "uses_augmentation"} <= set(doc)
        assert doc == {**doc, **get_strategy(name).capabilities()}


def test_serve_spec_rejects_unknown_strategy():
    from repro.serve.spec import ServeSpecError, load_serve_spec

    with pytest.raises(ServeSpecError, match="unknown strategy"):
        load_serve_spec({"name": "x", "strategy": "nope"})


def test_serve_spec_round_trips_strategy():
    from repro.serve.spec import load_serve_spec

    spec = load_serve_spec({"name": "x", "strategy": "augmented"})
    assert spec.strategy == "augmented"
    assert spec.to_dict()["strategy"] == "augmented"


def test_fuzz_compete_lineups_are_registered():
    # The fuzz generator carries static strategy line-ups so it stays
    # import-light; this pins them to the live registry.
    from repro.fuzz.gen import _COMPETE_STRATEGY_SETS

    known = set(strategy_names())
    for lineup in _COMPETE_STRATEGY_SETS:
        assert len(lineup) >= 2
        assert len(set(lineup)) == len(lineup)
        assert set(lineup) <= known


# -- the strategy contract ------------------------------------------------------

RING_FLOWS = (
    # (src, dst, initial path, two successive targets)
    ("n0", "n3", ["n0", "n1", "n2", "n3"],
     (["n0", "n5", "n4", "n3"], ["n0", "n1", "n2", "n3"])),
    ("n1", "n4", ["n1", "n2", "n3", "n4"],
     (["n1", "n0", "n5", "n4"], ["n1", "n2", "n3", "n4"])),
)


def _ring_runtime(strategy):
    from repro.algos.registry import build_strategy_runtime
    from repro.params import SimParams
    from repro.topo import ring_topology
    from repro.traffic.flows import Flow

    topo = ring_topology(6)
    topo.set_controller("n0")
    dep = build_strategy_runtime(strategy, topo, params=SimParams(seed=0))
    flows = []
    for src, dst, path, targets in RING_FLOWS:
        flow = Flow.between(src, dst, size=1.0, old_path=list(path))
        dep.install_flow(flow)
        flows.append((flow, targets))
    return dep, flows


@pytest.mark.parametrize("strategy", strategy_names())
def test_controller_speaks_the_contract_natively(strategy):
    from repro.algos.base import StrategyController, StrategyRuntime
    from repro.baselines import CentralController, EzSegwayController

    dep, _ = _ring_runtime(strategy)
    assert isinstance(dep, StrategyRuntime)
    assert isinstance(dep.controller, StrategyController)
    native = {"ezsegway": EzSegwayController, "central": CentralController}
    if strategy in native:
        assert type(dep.controller) is native[strategy]
    # Completion comes from the controllers, never from a trace tap.
    assert dep.network.trace._subscribers == []


@pytest.mark.parametrize("strategy", strategy_names())
def test_every_pushed_update_completes_exactly_once(strategy):
    dep, flows = _ring_runtime(strategy)
    controller = dep.controller
    events = []
    controller.update_listeners.append(
        lambda event, flow_id, version: events.append((event, flow_id, version))
    )
    expected = []
    for step in range(2):
        for flow, targets in flows:
            prepared = controller.prepare_update(flow.flow_id, list(targets[step]))
            record = controller.flow_db[flow.flow_id]
            assert record.pending_version == prepared.version
            assert record.pending_path == list(targets[step])
            controller.push_update(prepared)
            expected.append(("completed", flow.flow_id, prepared.version))
        dep.run()
    assert sorted(events) == sorted(expected)
    assert len(events) == len(set(events)) == 4
    for flow, targets in flows:
        record = controller.flow_db[flow.flow_id]
        assert record.pending_version is None
        assert record.current_path == list(targets[1])
        assert not record.parked
