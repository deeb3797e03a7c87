"""The committed oracle for ``run_experiment``.

An 80-shard sweep runs every experiment system (stock/SL/DL P4Update,
ez-Segway, Central) over the Fig. 7 topologies and both scenario
kinds.  Its aggregate signature covers every per-flow update time,
completion flag, violation count and Central round count, so any
change to how the runner builds, prepares, pushes or measures a
system shows up here.
"""

import os

from repro.sweep.executor import run_sweep
from repro.sweep.spec import load_sweep_spec_file

SPEC = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "sweep_five_systems.json"
)
SIGNATURE = "d117c77144a3f2db86fb2a0365cd890394e1351e694b801a6a3be612fbd548a0"


def test_five_system_sweep_signature_is_pinned():
    spec = load_sweep_spec_file(SPEC)
    run = run_sweep(spec, workers=1)
    assert run.ok
    assert len(run.shard_docs) == 80
    assert run.signature() == SIGNATURE
