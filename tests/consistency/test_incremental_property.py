"""Property test: the incremental live checker equals the reference
checker after every step of any sequence of state changes and trace
events on a small graph.

The drawn steps cover what breaks a checker that trusts event payloads
or caches too eagerly: rules set with and without a trace event, whole
paths installed silently (as initial deployment does), (re-)registration
of flows and trees with new sizes or ingresses, capacity changes,
link-down and crash events, a two-phase tag flip that sets N rules and
then records N events, and checkers created at any point, several per
state.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consistency import ForwardingState, LiveChecker
from repro.sim.trace import (
    KIND_LINK_DOWN,
    KIND_MSG_SEND,
    KIND_RULE_CHANGE,
    KIND_SWITCH_CRASH,
    Trace,
)
from tests.consistency.reference import ReferenceLiveChecker

NODES = ("a", "b", "c", "d")
FLOWS = (1, 2, 3)
# Sizes and capacities close enough that one flow more or less on a
# link flips its verdict.
SIZES = (0.1, 0.2, 0.3, 1.0, 2.5)
CAPACITIES = (0.3, 0.5, 1.0, 3.0, float("inf"))

node = st.sampled_from(NODES)
flow = st.sampled_from(FLOWS)
STEP = st.one_of(
    st.tuples(st.just("rule"), flow, node, st.none() | node, st.booleans()),
    st.tuples(st.just("flow"), flow, node, node, st.sampled_from(SIZES)),
    st.tuples(
        st.just("tree"), flow, st.lists(node, min_size=1, max_size=3), node,
        st.sampled_from(SIZES),
    ),
    st.tuples(st.just("capacity"), node, node, st.sampled_from(CAPACITIES)),
    st.tuples(st.just("link_down"), node, st.none() | node),
    st.tuples(st.just("crash"), node),
    st.tuples(st.just("flip"), flow, st.lists(node, min_size=2, max_size=4, unique=True)),
    st.tuples(
        st.just("path"), flow, st.lists(node, min_size=2, max_size=4, unique=True),
        st.booleans(),
    ),
    st.tuples(st.just("checker")),
    st.tuples(st.just("other"), node),
)


def apply(step, state, trace, time, pairs):
    kind = step[0]
    if kind == "rule":
        _, flow_id, at, next_hop, traced = step
        state.set_rule(flow_id, at, next_hop)
        if traced:
            trace.record(time, KIND_RULE_CHANGE, at, flow=flow_id, next_hop=next_hop)
    elif kind == "flow":
        _, flow_id, ingress, egress, size = step
        state.register_flow(flow_id, ingress, egress, size)
    elif kind == "tree":
        _, flow_id, leaves, egress, size = step
        state.register_tree(flow_id, leaves, egress, size)
    elif kind == "capacity":
        _, a, b, capacity = step
        state.set_capacity(a, b, capacity)
    elif kind == "link_down":
        _, a, peer = step
        if peer is None:
            trace.record(time, KIND_LINK_DOWN, a)
        else:
            trace.record(time, KIND_LINK_DOWN, a, peer=peer)
    elif kind == "crash":
        trace.record(time, KIND_SWITCH_CRASH, step[1])
    elif kind == "flip":
        # The two-phase flip: the whole path at once, then one event
        # per hop, each seeing the final state.
        _, flow_id, path = step
        for a, b in zip(path, path[1:]):
            state.set_rule(flow_id, a, b)
        for a, b in zip(path, path[1:]):
            trace.record(time, KIND_RULE_CHANGE, a, flow=flow_id, next_hop=b)
    elif kind == "path":
        # Every hop of a path set, then at most one event.
        _, flow_id, path, traced = step
        for a, b in zip(path, path[1:]):
            state.set_rule(flow_id, a, b)
        if traced:
            trace.record(time, KIND_RULE_CHANGE, path[0], flow=flow_id)
    elif kind == "checker":
        if len(pairs) < 3:
            pairs.append((LiveChecker(state, trace), ReferenceLiveChecker(state, trace)))
    else:
        trace.record(time, KIND_MSG_SEND, step[1])


def run_and_compare(steps, checker_first):
    state = ForwardingState()
    trace = Trace()
    pairs = []
    if checker_first:
        apply(("checker",), state, trace, 0.0, pairs)
    for index, step in enumerate(steps):
        apply(step, state, trace, float(index), pairs)
        for live, reference in pairs:
            assert live.violations == reference.violations, (index, step)
            assert live._armed == reference._armed, (index, step)
    return pairs


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(STEP, max_size=40), checker_first=st.booleans())
# A checker created before any flow exists; the flow is installed with
# silent rule changes and only then does a rule change get traced.
@example(
    steps=[
        ("flow", 1, "a", "c", 1.0),
        ("rule", 1, "a", "b", False),
        ("rule", 1, "b", "c", False),
        ("rule", 1, "b", "c", True),
        ("rule", 1, "b", None, True),
    ],
    checker_first=True,
)
# Initial rules mirrored silently before the checker is built.
@example(
    steps=[
        ("flow", 1, "a", "c", 0.2),
        ("flow", 2, "a", "c", 0.1),
        ("rule", 1, "a", "c", False),
        ("rule", 2, "a", "c", False),
        ("checker",),
        ("capacity", "a", "c", 0.3),
        ("other", "a"),
        ("rule", 2, "a", "c", True),
    ],
    checker_first=False,
)
# A tag flip sets three rules, then records three events; a crash on
# the new path disarms, and the next rule change re-arms.
@example(
    steps=[
        ("tree", 1, ["a", "b"], "e", 1.0),
        ("rule", 1, "a", "e", True),
        ("flip", 1, ["b", "c", "d", "e"]),
        ("crash", "c"),
        ("rule", 1, "c", None, True),
        ("rule", 1, "a", None, True),
    ],
    checker_first=True,
)
# The state moves under an armed flow without a rule-change event; the
# crash must be judged on the path the flow takes now.
@example(
    steps=[
        ("flow", 1, "a", "c", 1.0),
        ("path", 1, ["a", "c"], True),
        ("path", 1, ["a", "b", "c"], False),
        ("crash", "b"),
        ("rule", 1, "b", None, True),
    ],
    checker_first=True,
)
# A capacity cut, then a rule change that moves no load: the overload
# must still be reported.
@example(
    steps=[
        ("flow", 1, "a", "c", 1.0),
        ("flow", 2, "b", "c", 1.0),
        ("path", 1, ["a", "c"], True),
        ("capacity", "a", "c", 0.5),
        ("path", 2, ["b", "c"], True),
        ("capacity", "a", "c", 3.0),
        ("path", 2, ["b", "c"], True),
    ],
    checker_first=True,
)
# Re-registration with a new size on an unchanged path.
@example(
    steps=[
        ("capacity", "a", "b", 1.0),
        ("flow", 1, "a", "c", 0.3),
        ("path", 1, ["a", "b", "c"], True),
        ("checker",),
        ("flow", 1, "a", "c", 2.5),
        ("path", 1, ["a", "b", "c"], True),
        ("flow", 1, "a", "c", 0.3),
        ("other", "a"),
        ("path", 1, ["a", "b", "c"], True),
    ],
    checker_first=False,
)
# A tree leaf armed, then dropped by re-registration: the old key stays
# armed, and a crash judges it on a fresh walk from that leaf.
@example(
    steps=[
        ("tree", 1, ["a", "b"], "d", 1.0),
        ("path", 1, ["b", "d"], True),
        ("flow", 1, "a", "d", 1.0),
        ("path", 1, ["b", "c", "d"], True),
        ("crash", "c"),
    ],
    checker_first=True,
)
def test_incremental_checker_matches_reference(steps, checker_first):
    run_and_compare(steps, checker_first)


def test_two_checkers_on_one_state_stay_independent():
    steps = [
        ("flow", 1, "a", "c", 1.0),
        ("rule", 1, "a", "b", True),
        ("checker",),
        ("rule", 1, "b", "c", True),
        ("link_down", "b", "c"),
        ("rule", 1, "b", "a", True),
    ]
    pairs = run_and_compare(steps, checker_first=True)
    assert len(pairs) == 2
    first, second = pairs[0][0], pairs[1][0]
    assert first.violations and second.violations
    assert first._changes is not second._changes


def test_checker_walks_only_changed_flows(monkeypatch):
    state = ForwardingState()
    trace = Trace()
    checker = LiveChecker(state, trace)
    for flow_id in FLOWS:
        state.register_flow(flow_id, "a", "c", 1.0)
        state.set_rule(flow_id, "a", "c")
    trace.record(0.0, KIND_RULE_CHANGE, "a", flow=1)
    walked = []
    original = ForwardingState.walk

    def counting_walk(self, flow_id, *args, **kwargs):
        walked.append(flow_id)
        return original(self, flow_id, *args, **kwargs)

    monkeypatch.setattr(ForwardingState, "walk", counting_walk)
    state.set_rule(2, "b", "c")
    state.set_rule(2, "a", "b")
    trace.record(1.0, KIND_RULE_CHANGE, "a", flow=2)
    trace.record(2.0, KIND_RULE_CHANGE, "a", flow=2)
    assert walked == [2]
    assert checker.ok
