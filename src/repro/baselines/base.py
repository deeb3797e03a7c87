"""The strategy-contract bookkeeping both baseline controllers share.

:class:`BaselineController` gives ez-Segway and Central the flow DB,
update listeners and controller service model that
:class:`~repro.core.controller.P4UpdateController` has, so the serve
orchestrator, ops sessions and the experiment runner drive all of
them through the same ``prepare_update``/``push_update`` calls (see
:mod:`repro.algos.base`).  Each controller reports completion itself,
when its own protocol says the update finished.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.params import SimParams
from repro.sim.node import Node
from repro.sim.trace import KIND_UPDATE_DONE
from repro.topo.graph import Topology
from repro.traffic.flows import Flow


@dataclass
class BaselineFlowRecord:
    """Flow DB entry: the fields of P4Update's ``FlowRecord`` that the
    strategy contract reads."""

    flow: Flow
    current_path: list[str]
    pending_version: Optional[int] = None
    pending_path: Optional[list[str]] = None
    # The baselines have no §11 failure recovery: a flow never parks.
    parked: bool = False


class BaselineController(Node):
    """Controller node with the strategy-contract surface."""

    def __init__(
        self,
        name: str,
        topology: Topology,
        params: Optional[SimParams] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name)
        self.topology = topology
        self.params = params if params is not None else SimParams()
        self.rng = rng if rng is not None else self.params.rng()
        self.flow_db: dict[int, BaselineFlowRecord] = {}
        # Called as listener("completed", flow_id, version); baseline
        # updates are never aborted, reissued or parked.
        self.update_listeners: list[
            Callable[[str, int, Optional[int]], None]
        ] = []

    def control_service_time(self) -> float:
        """Per-message service time at the single-threaded controller."""
        return self.params.controller_service.sample(self.rng)

    def control_queue_delay(self) -> float:
        """Backlog wait behind background control traffic ([40])."""
        util = self.params.controller_background_util
        if util <= 0:
            return 0.0
        mean_wait = util / (1.0 - util) * self.params.controller_service.value
        return float(self.rng.exponential(mean_wait))

    def register_flow(self, flow: Flow) -> BaselineFlowRecord:
        if flow.old_path is None:
            raise ValueError(f"flow {flow.flow_id} has no initial path")
        record = BaselineFlowRecord(flow=flow, current_path=list(flow.old_path))
        self.flow_db[flow.flow_id] = record
        return record

    def _mark_pending(self, flow_id: int, version: int, new_path: list[str]) -> None:
        record = self.flow_db[flow_id]
        record.pending_version = version
        record.pending_path = list(new_path)

    def _finish_update(self, flow_id: int, version: int, **detail: Any) -> None:
        """Converge the flow record, trace ``KIND_UPDATE_DONE``, then
        notify the listeners (the order P4UpdateController uses)."""
        record = self.flow_db[flow_id]
        if record.pending_version == version:
            record.current_path = list(record.pending_path or record.current_path)
            record.pending_version = None
            record.pending_path = None
        assert self.network is not None
        self.network.trace.record(
            self.now, KIND_UPDATE_DONE, self.name, flow=flow_id, **detail
        )
        for listener in self.update_listeners:
            listener("completed", flow_id, version)
