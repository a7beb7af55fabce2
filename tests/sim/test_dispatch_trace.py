"""Permanent same-seed determinism pin for the kernel's dispatch order.

Replays the seeded YCSB-B + chaos scenario from ``dispatch_scenario.py``
with ``sim.dispatch_hook`` installed and compares the per-dispatch
(time, callback) trace against ``tests/data/dispatch_trace_golden.json``.

The golden was first captured from the pre-calendar-queue single-heap
kernel (13,516 dispatches).  It was re-pinned once, to 6,368 dispatches
with the same final virtual time (271,101 ns), when the contention
primitives stopped dispatching events that do no work: an uncontended
``Resource.hold``/``acquire`` takes its slot inline instead of through a
zero-delay grant, an accepted ``Store.put`` leaves its event unscheduled,
and a verb process finishes without a completion dispatch.  The one
ordering change that came with it: two flows reaching the same fabric
ingress port at the same instant are ordered by call, no longer by the
dispatch of their egress grants.

A mismatch means the event queue no longer dispatches in (time, seq) order —
i.e. same-seed runs are no longer bit-for-bit comparable across kernel
versions.  That is a kernel bug (or a deliberate ordering change that must
be called out loudly and re-golden'd together with every virtual-time
baseline), never something to silence by editing the scenario.
"""

import json
from pathlib import Path

from tests.sim.dispatch_scenario import (
    SCENARIO_SEED,
    SCENARIO_VERSION,
    callback_name,
    fingerprint,
    run_scenario,
)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "dispatch_trace_golden.json"


def test_dispatch_order_matches_pre_refactor_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["version"] == SCENARIO_VERSION
    assert golden["seed"] == SCENARIO_SEED

    trace = []

    def install(sim):
        sim.dispatch_hook = lambda when, fn: trace.append((when, callback_name(fn)))

    run_scenario(install_hook=install)
    got = fingerprint(trace)

    # Checkpoints first: on mismatch they localize the first divergence far
    # better than a hash inequality.
    for idx, when, name in golden["checkpoints"]:
        assert idx < len(trace), (
            f"trace too short: {len(trace)} < checkpoint index {idx} "
            f"(golden has {golden['dispatches']} dispatches)"
        )
        assert trace[idx] == (when, name), (
            f"dispatch #{idx} diverged: got {trace[idx]}, golden ({when}, {name!r})"
        )

    assert got["dispatches"] == golden["dispatches"]
    assert got["final_time_ns"] == golden["final_time_ns"]
    assert got["sha256"] == golden["sha256"]


def test_dispatch_hook_does_not_change_the_run():
    """The instrumented run loops must be semantically identical to the hot
    ones: same final virtual time, same dispatch count."""
    plain = run_scenario()

    count = [0]

    def install(sim):
        sim.dispatch_hook = lambda when, fn: count.__setitem__(0, count[0] + 1)

    hooked = run_scenario(install_hook=install)
    assert hooked.now == plain.now
    assert hooked.total_dispatched == plain.total_dispatched
    assert count[0] == hooked.total_dispatched
