"""Tests for Resource, Store, FifoChannel, TokenBucket."""

import pytest

from repro.sim import Event, FifoChannel, Interrupt, Resource, Simulator, Store, TokenBucket


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------
def test_resource_capacity_validated():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    first, second, third = res.acquire(), res.acquire(), res.acquire()
    # A free slot is taken inline: the helper returns without yielding.
    for gen in (first, second):
        with pytest.raises(StopIteration):
            next(gen)
    assert isinstance(next(third), Event)  # the third parks on a grant
    assert res.in_use == 2 and res.queued == 1


def test_resource_fifo_handoff_on_release():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, i):
        with (yield from res.acquire()):
            order.append((sim.now, i))
            yield sim.timeout(10)

    for i in range(4):
        sim.spawn(worker(sim, i))
    sim.run()
    assert order == [(0, 0), (10, 1), (20, 2), (30, 3)]


def test_resource_over_release_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(StopIteration):
        next(res.acquire())
    res.release()
    assert res.in_use == 0
    with pytest.raises(RuntimeError, match="over-released"):
        res.release()


def test_resource_context_manager_releases_on_exception():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def failing(sim):
        with (yield from res.acquire()):
            yield sim.timeout(1)
            raise RuntimeError("inside critical section")

    def follower(sim):
        with (yield from res.acquire()):
            return sim.now

    sim.spawn(failing(sim))
    p = sim.spawn(follower(sim))
    sim.run()
    assert p.ok and p.value == 1  # slot was freed despite the exception
    assert res.in_use == 0


@pytest.mark.parametrize("helper", ["acquire", "hold"])
@pytest.mark.parametrize("interrupt_at", [5, 10], ids=["queued", "handed-over"])
def test_interrupted_resource_waiter_does_not_keep_the_slot(helper, interrupt_at):
    """A waiter interrupted while parked must not take the slot with it.

    At 5 the victim is still queued; at 10 the holder has just handed it
    the slot but it has not resumed yet.  Either way the follower queued
    behind it gets the slot when the holder is done.
    """
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim):
        with (yield from res.acquire()):
            yield sim.timeout(10)

    def victim(sim):
        yield sim.timeout(1)
        if helper == "hold":
            yield from res.hold(100)
        else:
            with (yield from res.acquire()):
                yield sim.timeout(100)

    def follower(sim):
        yield sim.timeout(2)
        with (yield from res.acquire()):
            return sim.now

    sim.spawn(holder(sim))
    v = sim.spawn(victim(sim))
    f = sim.spawn(follower(sim))
    sim.schedule(interrupt_at, v.interrupt)
    sim.run()
    assert isinstance(v.exception, Interrupt)
    assert f.ok and f.value == 10
    assert res.in_use == 0 and res.queued == 0


def test_resource_parallelism_matches_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    done = []

    def worker(sim, i):
        with (yield from res.acquire()):
            yield sim.timeout(10)
            done.append((sim.now, i))

    for i in range(6):
        sim.spawn(worker(sim, i))
    sim.run()
    # Two waves of three.
    assert [t for t, _ in done] == [10, 10, 10, 20, 20, 20]


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = []

    def consumer(sim):
        got.append((yield store.get()))

    sim.spawn(consumer(sim))
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        got.append(((yield store.get()), sim.now))

    sim.spawn(consumer(sim))

    def producer(sim):
        yield sim.timeout(25)
        store.put("late")

    sim.spawn(producer(sim))
    sim.run()
    assert got == [("late", 25)]


def test_store_fifo_across_consumers():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, i):
        item = yield store.get()
        got.append((i, item))

    for i in range(3):
        sim.spawn(consumer(sim, i))

    def producer(sim):
        for item in "abc":
            yield sim.timeout(1)
            store.put(item)

    sim.spawn(producer(sim))
    sim.run()
    assert got == [(0, "a"), (1, "b"), (2, "c")]


def test_store_capacity_backpressure():
    sim = Simulator()
    store = Store(sim, capacity=1)
    timeline = []

    def producer(sim):
        for i in range(3):
            yield store.put(i)
            timeline.append(("put", i, sim.now))

    def consumer(sim):
        for _ in range(3):
            yield sim.timeout(10)
            item = yield store.get()
            timeline.append(("got", item, sim.now))

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    puts = [t for op, _, t in timeline if op == "put"]
    assert puts == [0, 10, 20]  # second/third puts wait for drains


@pytest.mark.parametrize("interrupt_at", [5, 10], ids=["queued", "handed-over"])
def test_interrupted_store_getter_does_not_swallow_the_next_item(interrupt_at):
    """At 5 the victim's get is parked; at 10 the put has just handed it
    the item but it has not resumed.  Either way the item reaches the
    getter queued behind it."""
    sim = Simulator()
    store = Store(sim)

    def victim(sim):
        yield store.get()

    def consumer(sim):
        yield sim.timeout(1)
        return (yield store.get())

    def producer(sim):
        yield sim.timeout(10)
        store.put("x")

    v = sim.spawn(victim(sim))
    c = sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.schedule(interrupt_at, v.interrupt)
    sim.run()
    assert isinstance(v.exception, Interrupt)
    assert c.ok and c.value == "x"
    assert len(store) == 0


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() == (False, None)
    store.put(7)
    sim.run()
    assert store.try_get() == (True, 7)


def test_store_len_tracks_items():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2


# ---------------------------------------------------------------------------
# FifoChannel
# ---------------------------------------------------------------------------
def test_channel_serialization_time():
    sim = Simulator()
    chan = FifoChannel(sim, bytes_per_ns=2.0)  # 2 B/ns
    assert chan.busy_time(100) == 50
    assert chan.busy_time(0) == 0
    assert chan.busy_time(1) == 1  # rounds up to at least 1 ns


def test_channel_transfers_queue_fifo():
    sim = Simulator()
    chan = FifoChannel(sim, bytes_per_ns=1.0)
    finished = []

    def sender(sim, i, size):
        yield from chan.transfer(size)
        finished.append((sim.now, i))

    sim.spawn(sender(sim, 0, 100))
    sim.spawn(sender(sim, 1, 50))
    sim.run()
    assert finished == [(100, 0), (150, 1)]
    assert chan.bytes_moved == 150


def test_channel_rejects_nonpositive_rate():
    sim = Simulator()
    with pytest.raises(ValueError):
        FifoChannel(sim, bytes_per_ns=0)


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------
def test_token_bucket_burst_then_throttle():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_per_ns=0.01, burst=2.0)  # 1 token / 100 ns
    times = []

    def client(sim):
        for _ in range(4):
            yield from bucket.consume(1.0)
            times.append(sim.now)

    sim.spawn(client(sim))
    sim.run()
    # First two ride the burst; the rest pace at 100 ns per token.
    assert times[0] == 0 and times[1] == 0
    assert times[2] == pytest.approx(100, abs=2)
    assert times[3] == pytest.approx(200, abs=3)


def test_token_bucket_consume_above_burst_rejected():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_per_ns=1.0, burst=1.0)

    def client(sim):
        yield from bucket.consume(5.0)

    p = sim.spawn(client(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.exception, ValueError)


def test_token_bucket_refills_while_idle():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_per_ns=0.01, burst=3.0)

    def client(sim):
        yield from bucket.consume(3.0)  # drain the burst
        yield sim.timeout(1000)  # long idle: fully refills (capped at burst)
        start = sim.now
        yield from bucket.consume(3.0)
        return sim.now - start

    p = sim.spawn(client(sim))
    sim.run()
    assert p.value == 0  # no extra wait after refill
