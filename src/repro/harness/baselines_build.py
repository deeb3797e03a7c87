"""Builders for the baseline deployments (ez-Segway, Central).

Both share the P4Update deployment's link latencies, port numbering,
control channels and parameter set, so update-time comparisons are
apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

import numpy as np

from repro.baselines.central import CentralController, CentralSwitch
from repro.baselines.ezsegway import EzSegwayController, EzSegwaySwitch
from repro.consistency.state import ForwardingState
from repro.harness.build import assign_ports
from repro.obs.context import NULL_OBS, ObsContext
from repro.params import SimParams
from repro.sim.engine import Engine
from repro.sim.links import ControlChannel, Link
from repro.sim.network import Network
from repro.topo.graph import Topology
from repro.traffic.flows import Flow


@dataclass
class _BaselineDeployment:
    topology: Topology
    network: Network
    controller: Any
    switches: dict[str, Any]
    forwarding_state: ForwardingState
    params: SimParams

    def _install_initial(self, node: str, flow: Flow, next_hop: Optional[str]) -> None:
        raise NotImplementedError

    def install_flow(self, flow: Flow) -> None:
        if flow.old_path is None:
            raise ValueError("flow needs an initial path")
        path = flow.old_path
        self.forwarding_state.register_flow(flow.flow_id, path[0], path[-1], flow.size)
        for i, node in enumerate(path):
            next_hop = path[i + 1] if i + 1 < len(path) else None
            self._install_initial(node, flow, next_hop)
        self.controller.register_flow(flow)

    def run(self, until: Optional[float] = None) -> None:
        horizon = until if until is not None else self.params.max_sim_time_ms
        self.network.run(until=horizon)


_D = TypeVar("_D", bound=_BaselineDeployment)


def _wire(
    deployment_cls: type[_D],
    switch_cls: Callable[..., Any],
    make_controller: Callable[[np.random.Generator], Any],
    topo: Topology,
    params: Optional[SimParams],
    rng: Optional[np.random.Generator],
    obs: Optional[ObsContext],
) -> _D:
    """Build one baseline deployment: switches, links, controller and
    control channels.

    RNG draws: one per switch in sorted node order, then the
    controller's, then (fat-tree only) the control-channel latencies.
    """
    params = params if params is not None else SimParams()
    rng = rng if rng is not None else params.rng()
    obs = obs if obs is not None else NULL_OBS
    if topo.controller is None:
        topo.place_controller_at_centroid()

    network = Network(Engine(), obs=obs)
    obs.bind_engine(network.engine)
    forwarding_state = ForwardingState()
    switches: dict[str, Any] = {}
    for name in sorted(topo.nodes):
        switch = switch_cls(
            name, params=params,
            rng=np.random.default_rng(rng.integers(0, 2**63)),
            forwarding_state=forwarding_state,
        )
        switch.obs = obs
        network.add_node(switch)
        switches[name] = switch

    ports = assign_ports(topo)
    for edge in topo.edges:
        network.add_link(
            Link(
                node_a=edge.a, port_a=ports[(edge.a, edge.b)],
                node_b=edge.b, port_b=ports[(edge.b, edge.a)],
                latency_ms=edge.latency_ms, capacity=edge.capacity,
            )
        )
        forwarding_state.set_capacity(edge.a, edge.b, edge.capacity)

    controller = make_controller(np.random.default_rng(rng.integers(0, 2**63)))
    controller.obs = obs
    network.add_node(controller)
    network.set_controller(controller.name)

    is_fattree = topo.name.startswith("fattree")
    for name in sorted(topo.nodes):
        latency = (
            params.fattree_control_latency.sample(rng)
            if is_fattree else topo.control_latency(name)
        )
        network.add_control_channel(ControlChannel(name, latency_ms=latency))
    return deployment_cls(
        topology=topo, network=network, controller=controller,
        switches=switches, forwarding_state=forwarding_state, params=params,
    )


@dataclass
class EzSegwayDeployment(_BaselineDeployment):
    controller: EzSegwayController
    switches: dict[str, EzSegwaySwitch]

    def _install_initial(self, node: str, flow: Flow, next_hop: Optional[str]) -> None:
        self.switches[node].install_initial(flow.flow_id, next_hop, flow.size)

    def set_congestion_aware(self, enabled: bool) -> None:
        for switch in self.switches.values():
            switch.congestion_aware = enabled

    def expect_move_ranks(self, move_ranks: dict) -> None:
        """Tell every switch the static move order per outgoing link
        (the congestion dependency graph's ranks, Fig. 8b)."""
        per_link: dict[tuple[str, str], list[int]] = {}
        for (_flow_id, (a, b)), rank in move_ranks.items():
            per_link.setdefault((a, b), []).append(rank)
        for (a, b), ranks in per_link.items():
            if a in self.switches:
                self.switches[a].expect_ranks(b, ranks)


def build_ezsegway_network(
    topo: Topology,
    params: Optional[SimParams] = None,
    rng: Optional[np.random.Generator] = None,
    controller_name: str = "controller",
    obs: Optional[ObsContext] = None,
) -> EzSegwayDeployment:
    deployment = _wire(
        EzSegwayDeployment, EzSegwaySwitch,
        lambda controller_rng: EzSegwayController(
            controller_name, topo, params=params, rng=controller_rng,
        ),
        topo, params, rng, obs,
    )
    for edge in topo.edges:
        deployment.switches[edge.a].set_link(edge.b, edge.capacity)
        deployment.switches[edge.b].set_link(edge.a, edge.capacity)
    return deployment


@dataclass
class CentralDeployment(_BaselineDeployment):
    controller: CentralController
    switches: dict[str, CentralSwitch]

    def _install_initial(self, node: str, flow: Flow, next_hop: Optional[str]) -> None:
        self.switches[node].install_initial(flow.flow_id, next_hop)

    def set_congestion_aware(self, enabled: bool) -> None:
        self.controller.congestion_aware = enabled


def build_central_network(
    topo: Topology,
    params: Optional[SimParams] = None,
    rng: Optional[np.random.Generator] = None,
    controller_name: str = "controller",
    congestion_aware: bool = False,
    obs: Optional[ObsContext] = None,
) -> CentralDeployment:
    return _wire(
        CentralDeployment, CentralSwitch,
        lambda controller_rng: CentralController(
            controller_name, topo, params=params, rng=controller_rng,
            congestion_aware=congestion_aware,
        ),
        topo, params, rng, obs,
    )
