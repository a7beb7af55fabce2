"""The event-free fast paths of the contention primitives.

``Resource.hold``/``acquire`` take a free slot inline, an accepted
``Store.put`` leaves its event unscheduled, and a process spawned with
``joinable=False`` finishes without a completion dispatch.  These tests pin
two things: the fast paths keep every grant and finish time of the plain
grant-event model, and they cost exactly the dispatches claimed for them.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, Store, TokenBucket


class _GrantEventResource:
    """Reference model: every acquire is an event that is dispatched, even
    when a slot is free (the form ``Resource`` had before its fast path)."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self.queue = deque()

    def request(self):
        ev = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self.queue.append(ev)
        return ev

    def release(self):
        if self.queue:
            self.queue.popleft().succeed()
        else:
            self.in_use -= 1


def _reference_times(capacity, jobs):
    sim = Simulator()
    res = _GrantEventResource(sim, capacity)
    times = [None] * len(jobs)

    def job(i, arrival, ns):
        yield sim.timeout(arrival)
        yield res.request()
        granted = sim.now
        yield sim.timeout(ns)
        res.release()
        times[i] = (granted, sim.now)

    for i, (arrival, ns) in enumerate(jobs):
        sim.spawn(job(i, arrival, ns))
    sim.run()
    return times


def _hold_times(capacity, jobs):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    times = [None] * len(jobs)

    def job(i, arrival, ns):
        yield sim.timeout(arrival)
        yield from res.hold(ns)
        times[i] = (sim.now - ns, sim.now)

    for i, (arrival, ns) in enumerate(jobs):
        sim.spawn(job(i, arrival, ns))
    sim.run()
    assert res.in_use == 0 and res.queued == 0
    return times


def _acquire_times(capacity, jobs):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    times = [None] * len(jobs)

    def job(i, arrival, ns):
        yield sim.timeout(arrival)
        with (yield from res.acquire()):
            granted = sim.now
            yield sim.timeout(ns)
        times[i] = (granted, sim.now)

    for i, (arrival, ns) in enumerate(jobs):
        sim.spawn(job(i, arrival, ns))
    sim.run()
    assert res.in_use == 0 and res.queued == 0
    return times


@given(
    capacity=st.integers(min_value=1, max_value=4),
    jobs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=60),   # arrival
                  st.integers(min_value=1, max_value=40)),  # hold length
        min_size=1, max_size=30),
)
@settings(max_examples=150, deadline=None)
def test_fast_paths_grant_and_finish_like_the_grant_event_model(capacity, jobs):
    want = _reference_times(capacity, jobs)
    assert _hold_times(capacity, jobs) == want
    assert _acquire_times(capacity, jobs) == want


def _dispatches(body):
    """Dispatches a process running ``body`` costs beyond an empty process
    (its bootstrap step and completion)."""
    sim = Simulator()
    sim.spawn(body(sim))
    sim.run()
    return sim.total_dispatched - 2


def test_uncontended_hold_costs_one_dispatch():
    def body(sim):
        res = Resource(sim, capacity=1)
        yield from res.hold(50)
        yield from res.hold(0)  # a zero-length hold is free

    assert _dispatches(body) == 1


def test_contended_hold_costs_its_grant_and_its_end():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def job(sim):
        yield from res.hold(50)

    sim.spawn(job(sim))
    sim.spawn(job(sim))
    sim.run()
    # 2 x (bootstrap + end of hold + completion) + 1 grant.
    assert sim.total_dispatched == 7
    assert sim.now == 100


def test_fabric_unicast_holds_both_ports_with_one_dispatch():
    from repro.hardware.network import Fabric
    from repro.hardware.specs import LinkSpec

    def body(sim):
        fabric = Fabric(sim, LinkSpec(bandwidth=12.5, propagation_ns=500))
        fabric.attach("a")
        fabric.attach("b")
        yield from fabric.unicast("a", "b", 1000)

    # The serialization window and the propagation delay.
    assert _dispatches(body) == 2


def test_uncontended_acquire_and_consume_dispatch_nothing():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(StopIteration):
        next(res.acquire())
    res.release()
    bucket = TokenBucket(sim, rate_per_ns=0.01, burst=2.0)
    with pytest.raises(StopIteration):
        next(bucket.consume(1.0))
    sim.run()
    assert sim.total_dispatched == 0


def test_unyielded_put_dispatches_nothing():
    sim = Simulator()
    store = Store(sim)
    ev = store.put("x")
    sim.run()
    assert ev.triggered and sim.total_dispatched == 0


def test_yielded_put_still_wakes_its_waiter():
    def body(sim):
        store = Store(sim)
        accepted = store.put("x")
        got = yield accepted
        assert got is None
        assert (yield store.get()) == "x"

    assert _dispatches(body) == 2  # the put's wake-up and the get's


def test_unjoinable_process_finishes_without_a_dispatch():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(5)
        return "done"

    proc = sim.spawn(body(sim), joinable=False)
    sim.run()
    assert sim.total_dispatched == 2  # bootstrap and the timeout
    assert proc.value == "done"


def test_late_join_of_an_unjoinable_process_still_wakes():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(5)
        return "done"

    def joiner(sim, proc):
        yield sim.timeout(10)
        return (yield proc)

    proc = sim.spawn(body(sim), joinable=False)
    j = sim.spawn(joiner(sim, proc))
    sim.run()
    assert j.value == "done"
