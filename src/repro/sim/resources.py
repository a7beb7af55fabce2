"""Contention primitives: resources, stores, and bandwidth channels.

These model the queuing behaviour that makes the hardware models realistic:
memory channels serve one request at a time, NIC pipelines admit a bounded
number of in-flight work elements, and links serialize bytes at a fixed rate.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Generator, Optional

from repro.sim.primitives import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class _Lease:
    """What :meth:`Resource.acquire` returns: a context manager whose exit
    gives the slot back.  One per resource, shared by every acquisition,
    so taking a slot allocates nothing."""

    __slots__ = ("_resource",)

    def __init__(self, resource: "Resource"):
        self._resource = resource

    def __enter__(self) -> "_Lease":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._resource.release()


class Resource:
    """A FIFO resource with ``capacity`` identical slots.

    Waiters are granted strictly in request order, which both matches the
    hardware being modelled (memory channel queues, NIC SQ processing) and
    keeps runs deterministic.

    A free slot is taken inline, with no event: an uncontended
    :meth:`hold` costs exactly one dispatch (the end of the hold), and an
    uncontended :meth:`acquire` none.  Only a waiter that finds every slot
    busy parks on an event, which the releasing holder succeeds.  Both
    helpers are cancel-safe: a waiter interrupted in the queue leaves it,
    and one interrupted after the slot was handed over passes it on.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._wait_name = f"wait({name})"
        self._in_use = 0
        self._queue: Deque[Event] = deque()
        self._lease = _Lease(self)

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Waiters parked for a slot."""
        return len(self._queue)

    def hold(self, ns: int, inner: Optional["Resource"] = None) -> Generator[Event, Any, None]:
        """Process helper: occupy one slot for ``ns`` ns, then release it.

        ``yield from res.hold(ns)`` starts the hold at once when a slot is
        free, else after every earlier waiter.  With ``inner``, a slot of
        ``inner`` is also taken (waiting for it while holding this one) and
        both are held for the same ``ns``; ``inner`` is released first.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
        else:
            yield from self._wait()
        try:
            if inner is not None:
                yield from inner.hold(ns)
            elif ns > 0:
                yield self.sim.sleep(ns)
        finally:
            self.release()

    def acquire(self) -> Generator[Event, Any, _Lease]:
        """Process helper for a critical section of variable length::

            with (yield from res.acquire()):
                ...critical section...

        A free slot is taken without yielding; otherwise the caller waits
        its FIFO turn.  The returned lease releases the slot on exit, also
        when the body raises.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
        else:
            yield from self._wait()
        return self._lease

    def release(self) -> None:
        """Give a slot back: hand it to the oldest waiter, if any."""
        if self._queue:
            self._queue.popleft().succeed()
            return
        if self._in_use <= 0:
            raise RuntimeError(f"resource {self.name!r} over-released")
        self._in_use -= 1

    def _wait(self) -> Generator[Event, Any, None]:
        # Park until a releasing holder hands its slot over.
        grant = Event(self.sim, name=self._wait_name)
        self._queue.append(grant)
        try:
            yield grant
        except BaseException:
            # Interrupted (or closed) while parked: leave the queue, or pass
            # on a slot that was handed over but never used.
            if grant.triggered:
                self.release()
            else:
                self._queue.remove(grant)
            raise


class Store:
    """An unbounded-or-bounded FIFO queue of items between processes.

    ``put`` blocks only when a ``capacity`` is set and reached; ``get`` blocks
    while the store is empty.  Delivery order is FIFO on both sides.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None, name: str = "store"):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name = f"put({name})"
        self._get_name = f"get({name})"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        # Demand watchers (see :meth:`demand`); None until first used so the
        # hot get() path pays a single falsy check.
        self._demand_waiters: Optional[list] = None

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Offer ``item``; the returned event fires once it is accepted.

        An accepted put's event is already triggered but not scheduled: it
        costs a dispatch only if someone yields it (the kernel's wait path
        schedules it then), so the common unwaited put dispatches nothing.
        """
        ev = Event(self.sim, name=self._put_name)
        if self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.append((ev, item))
            return ev
        self._accept(item)
        ev._value = None
        return ev

    def get(self) -> Event:
        """Take the oldest item; the returned event fires with the item.

        Cancel-safe: a getter whose process is interrupted while parked
        leaves the queue, and an item already handed to it goes back to
        the front of the line.
        """
        ev = _Get(self.sim, name=self._get_name)
        ev._store = self
        if self._items:
            ev.succeed(self._items.popleft())
            self._admit_blocked_putter()
        else:
            self._getters.append(ev)
            if self._demand_waiters:
                waiters, self._demand_waiters = self._demand_waiters, None
                for w in waiters:
                    if not w.triggered:
                        w.succeed(None)
        return ev

    def demand(self) -> Event:
        """Event firing when a getter parks on the empty store — i.e. the
        moment someone is actually *waiting* for an item (immediately, if
        one already is).  Lets a producer that deliberately idles (e.g. a
        parked RPC serve loop whose peer crashed) wake only on real demand
        instead of polling or holding resources."""
        ev = Event(self.sim, name=f"demand({self.name})")
        if self._getters:
            ev.succeed(None)
        else:
            if self._demand_waiters is None:
                self._demand_waiters = []
            self._demand_waiters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking take: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_blocked_putter()
            return True, item
        return False, None

    def remove(self, item: Any) -> bool:
        """Withdraw a specific queued ``item`` (identity match) out of
        FIFO order.  Returns False if it is not queued — e.g. a getter
        already consumed it."""
        try:
            self._items.remove(item)
        except ValueError:
            return False
        self._admit_blocked_putter()
        return True

    def _accept(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def _withdraw(self, getter: "_Get") -> None:
        # The getter's only waiter was interrupted (see _Get._abandon).
        if not getter.triggered:
            self._getters.remove(getter)
        elif getter._exception is None:
            # Handed an item this instant but never delivered: re-offer it
            # ahead of everything queued behind it.
            item = getter._value
            if self._getters:
                self._getters.popleft().succeed(item)
            else:
                self._items.appendleft(item)

    def _admit_blocked_putter(self) -> None:
        if self._putters and (self.capacity is None or len(self._items) < self.capacity):
            ev, item = self._putters.popleft()
            self._accept(item)
            if not ev.triggered:
                ev.succeed(None)


class _Get(Event):
    """The event :meth:`Store.get` returns; withdraws itself from its store
    when the process parked on it is interrupted."""

    __slots__ = ("_store",)

    def _abandon(self, fn) -> None:
        Event._abandon(self, fn)
        if self._cb1 is None and self._more is None and not self._processed:
            self._store._withdraw(self)


class FifoChannel:
    """A byte pipe with finite rate: transfers serialize FIFO.

    Models a link or bus where a transfer of ``n`` bytes occupies the channel
    for ``n / rate`` ns.  Concurrent transfers queue behind each other, which
    is exactly the head-of-line behaviour of a physical serial link.
    """

    def __init__(self, sim: "Simulator", bytes_per_ns: float, name: str = "channel"):
        if bytes_per_ns <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.bytes_per_ns = bytes_per_ns
        self.name = name
        self._gate = Resource(sim, capacity=1, name=f"{name}.gate")
        self.bytes_moved = 0

    def busy_time(self, nbytes: int) -> int:
        """Serialization time for ``nbytes``, at least 1 ns for any payload."""
        if nbytes <= 0:
            return 0
        return max(1, round(nbytes / self.bytes_per_ns))

    def transfer(self, nbytes: int) -> Generator[Event, Any, None]:
        """Process helper: occupy the channel for the payload's wire time."""
        yield from self._gate.hold(self.busy_time(nbytes))
        if nbytes > 0:
            self.bytes_moved += nbytes

    @property
    def queued(self) -> int:
        """Transfers waiting behind the current one."""
        return self._gate.queued


class TokenBucket:
    """Rate limiter with burst capacity, for message-rate caps.

    Tokens accrue at ``rate_per_ns`` up to ``burst``; :meth:`consume` yields
    until the requested tokens are available.  Used to model a NIC's finite
    message rate independent of its bandwidth.
    """

    def __init__(self, sim: "Simulator", rate_per_ns: float, burst: float, name: str = "bucket"):
        if rate_per_ns <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.sim = sim
        self.rate = rate_per_ns
        self.burst = burst
        self.name = name
        self._tokens = burst
        self._last_refill = sim.now
        self._gate = Resource(sim, capacity=1, name=f"{name}.gate")

    def _refill(self) -> None:
        now = self.sim.now
        self._tokens = min(self.burst, self._tokens + (now - self._last_refill) * self.rate)
        self._last_refill = now

    def consume(self, tokens: float = 1.0) -> Generator[Event, Any, None]:
        """Process helper: wait until ``tokens`` are available, then take them.

        Dispatches nothing when no earlier consumer is waiting and the
        tokens are there.
        """
        if tokens > self.burst:
            raise ValueError(f"cannot consume {tokens} > burst {self.burst}")
        # Serialize consumers so arrival order is honoured.
        with (yield from self._gate.acquire()):
            self._refill()
            if self._tokens < tokens:
                deficit = tokens - self._tokens
                yield self.sim.sleep(max(1, round(deficit / self.rate)))
                self._refill()
            self._tokens -= tokens
