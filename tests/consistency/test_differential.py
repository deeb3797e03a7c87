"""Differential oracle: the live checker against the reference checker.

Each test drives a whole run through the program's own entry points
with the ``differential_checker`` fixture in place, so every
``LiveChecker`` the run builds is compared with
:class:`tests.consistency.reference.ReferenceLiveChecker` after every
trace event: same violations in the same order, same armed set.
"""

import json
import pathlib

import pytest

from repro.fuzz.corpus import corpus_files, load_corpus_file, replay_file

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"
CRASH_BLACKHOLE = ROOT / "benchmarks" / "perf" / "defects" / "crash_blackhole.json"
CORPUS = [
    path
    for path in corpus_files(str(ROOT / "tests" / "fuzz" / "corpus"))
    if load_corpus_file(path)["kind"] != "plan"
]


def load_json(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_serve(doc: dict):
    from repro.serve.service import run_service
    from repro.serve.spec import load_serve_spec

    return run_service(load_serve_spec(doc))


def test_crash_blackhole_defect_spec(differential_checker):
    # The volatile crash re-arms flows that still route through the
    # dead switch: hundreds of persisting blackholes, re-emitted on
    # every rule change, all of which must match.
    result = run_serve(load_json(CRASH_BLACKHOLE))
    differential_checker.assert_agreed()
    assert result.violations


@pytest.mark.parametrize(
    "name, kinds",
    [("serve_smoke.json", set()), ("serve_conflict.json", {"congestion"})],
)
def test_serve_examples(differential_checker, name, kinds):
    result = run_serve(load_json(EXAMPLES / name))
    differential_checker.assert_agreed()
    assert {v["kind"] for v in result.violations} == kinds


def test_chaos_example(differential_checker):
    from repro.chaos.campaign import load_campaign_file
    from repro.chaos.runner import run_campaign

    run_campaign(load_campaign_file(str(EXAMPLES / "chaos_smoke.json")))
    differential_checker.assert_agreed()


def test_ops_example(differential_checker):
    from repro.ops.session import run_session
    from repro.ops.spec import load_session_spec_file

    run_session(load_session_spec_file(str(EXAMPLES / "ops_drain.json")))
    differential_checker.assert_agreed()


def test_destination_tree_update(differential_checker):
    # One shared state entry walked from three leaves, moved from one
    # core to another and back.  With these parameters the run reports
    # blackholes from two leaves, so the armed path is exercised too.
    import repro.consistency
    from repro.core.desttree import DestinationTreeManager
    from repro.harness.build import build_p4update_network
    from repro.params import SimParams
    from repro.topo import fattree_topology

    deployment = build_p4update_network(fattree_topology(4), params=SimParams(seed=1))
    repro.consistency.LiveChecker(deployment.forwarding_state, deployment.network.trace)
    manager = DestinationTreeManager(deployment.controller)
    dst = "edge0_0"

    def tree(core: str) -> dict:
        return {
            "agg0_0": dst,
            core: "agg0_0",
            "agg1_0": core, "agg2_0": core, "agg3_0": core,
            "edge1_0": "agg1_0", "edge2_0": "agg2_0", "edge3_0": "agg3_0",
        }

    manager.install_tree(dst, tree("core0"), size=1.0, deployment=deployment)
    manager.update_tree(dst, tree("core1"))
    deployment.run()
    manager.update_tree(dst, tree("core0"))
    deployment.run()
    differential_checker.assert_agreed()


@pytest.mark.parametrize(
    "path", CORPUS, ids=[pathlib.Path(p).stem for p in CORPUS]
)
def test_fuzz_corpus_case(differential_checker, path):
    reproduced, _, _ = replay_file(path)
    assert reproduced
    differential_checker.assert_agreed()
