"""One sub-run through the public entry points, with its phases timed.

A serve sub-run is one :func:`repro.serve.service.run_service` call; an
ops sub-run is :func:`repro.ops.build_session`, ``OpsSession.run`` and
``OpsSession.finalize`` with checkpoints written through
:class:`repro.ops.checkpoint.CheckpointSink`.

Set-up ends when the engine dispatches its first event.  The benchmark
sees that moment by wrapping ``Engine.run`` for the length of one call
(and restoring it afterwards); nothing in the program is edited.  A
traced sub-run swaps a set-up profiler for a run-phase profiler at the
same moment, so the two phases are attributed separately.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import os
import pstats
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.ops import build_session, load_session_spec
from repro.ops.checkpoint import CheckpointSink
from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec
from repro.sim.engine import Engine

from workloads import KIND_SERVE

#: Scratch space for checkpoint files, inside the checkout.
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

#: Fastest time of :func:`reference_s` on the machine the benchmark was
#: written on (an Intel Xeon vCPU at 2.0 GHz shared with other guests;
#: 9.06 ms over 981 runs).  Corrected host times are seconds of that
#: machine running at this speed.
REFERENCE_S = 0.009


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes right now: the host's speed.

    Like the simulator, the loop allocates small objects and works a
    heap and a dict, but it runs none of the program's code, so a change
    to the program cannot move it.  It runs on a collected heap with the
    collector off, so the garbage a previous call left cannot slow it.
    """
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        heap: list = []
        table: dict = {}
        for i in range(8000):
            item = _Item((i * 7919) % 1009, i)
            heapq.heappush(heap, (item.key, i, item))
            table[item.key] = table.get(item.key, 0) + item.value
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - started
    finally:
        gc.enable()


def rss_kb() -> int:
    """Current resident set size of this process, in KiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS missing from /proc/self/status")


def peak_rss_kb() -> int:
    """High-water resident set size of this process, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class PhaseClock:
    """Marks the first ``Engine.run`` entry of one call."""

    def __init__(self, on_start: Optional[Callable[[], None]] = None) -> None:
        self.on_start = on_start
        self.started: Optional[float] = None
        self._original: Any = None

    def __enter__(self) -> "PhaseClock":
        original = Engine.run
        clock = self

        def run(engine: Engine, *args: Any, **kwargs: Any) -> None:
            if clock.started is None:
                clock.started = time.perf_counter()
                if clock.on_start is not None:
                    clock.on_start()
            original(engine, *args, **kwargs)

        self._original = original
        Engine.run = run  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: object) -> None:
        Engine.run = self._original  # type: ignore[method-assign]


class TimedSink:
    """A :class:`CheckpointSink` whose writes are timed and sized."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.sink = CheckpointSink(directory)
        self.seconds = 0.0
        self.sizes: list[int] = []

    def __call__(self, session: Any, index: int) -> None:
        started = time.perf_counter()
        self.sink(session, index)
        self.seconds += time.perf_counter() - started
        entry = self.sink.written[-1]
        self.sizes.append(os.path.getsize(os.path.join(self.directory, entry["file"])))


@dataclass
class SubRun:
    """What one sub-run produced and how long its phases took."""

    seed: int
    records: list
    violations: int
    invariants_ok: bool
    signature: str
    trace_signature: str
    events: int
    peak_in_flight: int
    call_s: float
    setup_s: float
    ops_summary: dict = field(default_factory=dict)
    checkpoint_s: float = 0.0
    checkpoint_sizes: list = field(default_factory=list)
    # Traced sub-runs only: pstats tables of the two phases.
    setup_stats: Optional[dict] = None
    run_stats: Optional[dict] = None

    @property
    def run_s(self) -> float:
        return self.call_s - self.setup_s


def run_subrun(kind: str, doc: dict, traced: bool = False) -> SubRun:
    """Run one generated spec document; profile it when ``traced``."""
    setup_prof = cProfile.Profile() if traced else None
    run_prof = cProfile.Profile() if traced else None

    def start_run_phase() -> None:
        if setup_prof is not None and run_prof is not None:
            setup_prof.disable()
            run_prof.enable()

    if kind == KIND_SERVE:
        spec = load_serve_spec(dict(doc))
        seed = spec.seed
    else:
        spec = load_session_spec(dict(doc))
        seed = spec.serve_spec().seed
    sink: Optional[TimedSink] = None
    # Cyclic garbage of the previous call is freed before this one, so
    # the peak resident set is that of one call, not of several.
    gc.collect()
    clock = PhaseClock(on_start=start_run_phase)
    try:
        with clock:
            if setup_prof is not None:
                setup_prof.enable()
            started = time.perf_counter()
            if kind == KIND_SERVE:
                result = run_service(spec)
            else:
                session = build_session(spec)
                sink = TimedSink(os.path.join(WORK_DIR, f"ckpt-{os.getpid()}"))
                session._sink = sink
                session.run()
                result = session.finalize()
            ended = time.perf_counter()
    finally:
        for prof in (setup_prof, run_prof):
            if prof is not None:
                prof.disable()
        if sink is not None:
            shutil.rmtree(sink.directory, ignore_errors=True)
            try:
                os.rmdir(WORK_DIR)
            except OSError:
                pass  # another process still uses it
    if clock.started is None:
        raise RuntimeError(f"{doc.get('name')}: the engine never ran")

    sub = SubRun(
        seed=seed,
        records=result.records,
        violations=len(result.violations),
        invariants_ok=result.invariants_ok,
        signature=result.signature(),
        trace_signature=result.trace_sig,
        events=result.events_processed,
        peak_in_flight=result.peak_in_flight,
        call_s=ended - started,
        setup_s=clock.started - started,
    )
    if sink is not None:
        sub.ops_summary = result.ops_summary()
        sub.checkpoint_s = sink.seconds
        sub.checkpoint_sizes = list(sink.sizes)
    if setup_prof is not None and run_prof is not None:
        sub.setup_stats = pstats.Stats(setup_prof).stats  # type: ignore[attr-defined]
        sub.run_stats = pstats.Stats(run_prof).stats  # type: ignore[attr-defined]
    return sub
