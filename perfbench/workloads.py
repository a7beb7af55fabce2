"""The benchmark's workloads and their closed-loop workers.

Every workload boots the default :class:`GengarConfig` pool (``churn_fanout``
only raises ``num_master_shards``), runs its workers closed loop from this
single process and thread, and measures a steady-state window of virtual
time: load, then an excluded warm-up, then ``measure_epochs`` placement
epochs.  An op counts toward the window when it *completes* inside it.

Inputs come from the benchmark seed alone (``random.Random`` streams named
after the seed and the worker); the simulator keeps its own fixed seed, so
the program only ever sees the generated inputs.  Every read is checked:
YCSB reads against the generator's ``k{key}v{version}|`` stamp for any
version a worker could have written; churn reads of a fresh object against
zeros and its read-back against the bytes that iteration wrote.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import random
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.apps.kvstore import KvStore
from repro.core import GengarConfig, GengarPool
from repro.sim import Simulator
from repro.sim.units import KIB
from repro.workloads.ycsb import WORKLOAD_A, WORKLOAD_B, Op, WorkloadSpec, YcsbGenerator

#: The simulator's own seed (retry jitter, reservoirs).  Fixed: the
#: benchmark seed only shapes the inputs.
SIM_SEED = 1
#: One placement epoch of the default config.
EPOCH_NS = GengarConfig().epoch_ns
#: YCSB reads are issued through ``gread_many`` this many keys at a time.
READ_BATCH = 8


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload: YCSB when ``spec`` is set, else churn.

    Each workload's one-line reason lives in ``BENCHMARK.json``.
    """

    name: str
    num_servers: int
    num_clients: int
    num_workers: int
    warmup_epochs: int
    measure_epochs: int
    num_master_shards: int = 1
    spec: Optional[WorkloadSpec] = None
    #: Churn object sizes are drawn uniformly from this byte range.
    churn_sizes: tuple = ()

    def config(self) -> GengarConfig:
        return replace(GengarConfig(), num_master_shards=self.num_master_shards)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # YCSB-B, zipfian 0.99, 1 MiB of records against 2 x 4 MiB of DRAM cache.
    Workload(
        name="ycsb_b_hot", num_servers=2, num_clients=2, num_workers=8,
        warmup_epochs=4, measure_epochs=40,
        spec=WORKLOAD_B.scaled(record_count=1000, value_size=1 * KIB)),
    # YCSB-A, uniform, 12 MiB of records: 1.5x the DRAM cache.
    Workload(
        name="ycsb_a_uniform", num_servers=2, num_clients=2, num_workers=8,
        warmup_epochs=4, measure_epochs=40,
        spec=replace(WORKLOAD_A, distribution="uniform").scaled(
            record_count=6144, value_size=2 * KIB)),
    # One churn worker per client; live data stays under 64 KiB.
    Workload(
        name="churn_fanout", num_servers=8, num_clients=32, num_workers=32,
        warmup_epochs=2, measure_epochs=8, num_master_shards=4,
        churn_sizes=(128, 2 * KIB)),
)}


def mid_quantile(values, q: float) -> float:
    """The ``q`` mid-quantile of ``values`` (Ma, Genton and Parzen, 2011).

    Virtual latencies are whole nanoseconds with heavy ties: an uncontended
    path takes exactly the same time every time.  A nearest-rank median then
    sits on one tied value and ignores how much mass lies on either side of
    it.  The mid-quantile interpolates the mid-distribution function (mass
    below a value plus half the mass at it) between distinct values, so it
    moves when the distribution moves; without ties it is the usual
    interpolated quantile.
    """
    counts = sorted(Counter(values).items())
    n = len(values)
    xs, mids, below = [], [], 0
    for x, c in counts:
        xs.append(x)
        mids.append((below + c / 2) / n)
        below += c
    if q <= mids[0]:
        return float(xs[0])
    if q >= mids[-1]:
        return float(xs[-1])
    i = bisect.bisect_right(mids, q) - 1
    return xs[i] + (q - mids[i]) / (mids[i + 1] - mids[i]) * (xs[i + 1] - xs[i])


class Window:
    """Ops completing inside the measured window ``[start, end)``."""

    def __init__(self, start: int, epochs: int):
        self.start = start
        self.end = start + epochs * EPOCH_NS
        self.lat_ns: Dict[str, List[int]] = {
            "read": [], "write": [], "meta": [], "readback": []}
        self.per_epoch = [0] * epochs
        self.ops = 0

    def record(self, kind: str, t0: int, t1: int, n: int = 1) -> None:
        if self.start <= t1 < self.end:
            dt = t1 - t0
            self.lat_ns[kind].extend([dt] * n)
            self.ops += n
            self.per_epoch[(t1 - self.start) // EPOCH_NS] += n


@dataclass
class Trial:
    """One boot-load-warm(-measure) pass over a workload."""

    setup_s: float
    #: Digest of the virtual state when the window opens (virtual time,
    #: events dispatched, ops attempted and failed): equal digests mean the
    #: set-ups simulated exactly the same thing.
    setup_signature: str
    window: Optional[Window] = None
    window_cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Digest of every virtual outcome of a measured trial (window samples,
    #: op counts, final virtual time, events dispatched).
    signature: str = ""


def _digest(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


class _Tally:
    """Attempted/failed op counts shared by a trial's workers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, n: int, reason: str) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(reason)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def run_trial(wl: Workload, seed: int, hooks=None, measure: bool = True) -> Trial:
    """Boot, load and warm up ``wl``, then (``measure``) measure one window.

    ``hooks`` (see ``layers.LayerTrace``) is told when the window opens and
    closes, so per-layer counts cover the window only.
    """
    gc.collect()
    t_setup = time.perf_counter()
    sim = Simulator(seed=SIM_SEED)
    pool = GengarPool.build(sim, num_servers=wl.num_servers,
                            num_clients=wl.num_clients, config=wl.config())
    tally = _Tally()
    stop = [False]
    if wl.spec is not None:
        store = KvStore(wl.spec.value_size)
        _load(pool, wl, store, seed, tally)
        window = Window(sim.now + wl.warmup_epochs * EPOCH_NS, wl.measure_epochs)
        gens = [_ycsb_worker(pool, wl, store, seed, i, window, tally, stop)
                for i in range(wl.num_workers)]
    else:
        window = Window(sim.now + wl.warmup_epochs * EPOCH_NS, wl.measure_epochs)
        gens = [_churn_worker(pool, wl, seed, i, window, tally, stop)
                for i in range(wl.num_workers)]
    procs = [sim.spawn(g, name=f"bench.w{i}") for i, g in enumerate(gens)]
    sim.run(until=window.start)
    setup_s = time.perf_counter() - t_setup
    trial = Trial(setup_s=setup_s, setup_signature=_digest(
        sim.now, sim.total_dispatched, tally.attempted, tally.failed))
    if not measure:
        return trial

    if hooks is not None:
        hooks.open(pool, window)
    cpu0 = time.process_time()
    sim.run(until=window.end)
    trial.window_cpu_s = time.process_time() - cpu0
    if hooks is not None:
        hooks.close(pool, window)

    stop[0] = True
    sim.run_until_complete(sim.all_of(procs))
    trial.window = window
    trial.attempted = tally.attempted
    trial.failed = tally.failed
    trial.errors = tally.errors
    trial.signature = _digest(window.ops, window.per_epoch, sorted(window.lat_ns.items()),
                              tally.attempted, tally.failed, sim.now, sim.total_dispatched)
    return trial


# ----------------------------------------------------------------------
# YCSB
# ----------------------------------------------------------------------
def _load(pool: GengarPool, wl: Workload, store: KvStore, seed: int,
          tally: _Tally) -> None:
    """Bulk-load every record at version 0, spread over the clients, then
    have every client read once each record another client loaded.

    The read pass fills each client's metadata cache (a client caches the
    metadata of what it allocated itself).  Without it, uniform
    keys keep a client missing its cache (one lookup RPC per first touch)
    for far longer than any affordable warm-up, and the window would
    measure cold start.
    """
    spec = wl.spec
    gen = YcsbGenerator(spec, _rng(seed, "load"))
    clients = pool.clients
    shards = [store.load(clients[i], range(i, spec.record_count, len(clients)),
                         lambda k: gen.value(k, version=0))
              for i in range(len(clients))]
    pool.run(*shards)

    def read_others(i, client):
        others = [k for k in range(spec.record_count) if k % len(clients) != i]
        for lo in range(0, len(others), READ_BATCH):
            keys = others[lo:lo + READ_BATCH]
            tally.attempted += len(keys)
            values = yield from store.multi_get(client, keys)
            bad = [k for k, v in zip(keys, values) if v != gen.value(k, version=0)]
            if bad:
                tally.fail(len(bad), f"loaded records {bad} read back wrong")
    pool.run(*(read_others(i, c) for i, c in enumerate(clients)))


def _check_value(gen: YcsbGenerator, key: int, data: bytes, versions) -> bool:
    """True when ``data`` is the full value some writer stamped for ``key``."""
    prefix = b"k%dv" % key
    if not data.startswith(prefix):
        return False
    bar = data.find(b"|", len(prefix))
    if bar < 0:
        return False
    try:
        version = int(data[len(prefix):bar])
    except ValueError:
        return False
    return version in versions and data == gen.value(key, version)


def _ycsb_worker(pool, wl: Workload, store: KvStore, seed: int, index: int,
                 window: Window, tally: _Tally, stop):
    sim = pool.sim
    client = pool.clients[index % len(pool.clients)]
    gen = YcsbGenerator(wl.spec, _rng(seed, f"w{index}"))
    # Version 0 is the load; worker i writes version 1 + i.
    versions = frozenset(range(wl.num_workers + 1))
    my_version = 1 + index
    reads: List[int] = []

    def flush():
        n = len(reads)
        tally.attempted += n
        t0 = sim.now
        try:
            values = yield from store.multi_get(client, reads)
        except Exception:  # a failed op is counted, the loop keeps running
            tally.fail(n, traceback.format_exc(limit=3))
        else:
            bad = sum(1 for key, data in zip(reads, values)
                      if not _check_value(gen, key, data, versions))
            if bad:
                tally.fail(bad, f"read returned wrong bytes for {bad} of {reads}")
            window.record("read", t0, sim.now, n)
        reads.clear()

    while not stop[0]:
        op, key, _ = gen.next_op()
        if op is Op.READ:
            reads.append(key)
            if len(reads) >= READ_BATCH:
                yield from flush()
            continue
        if reads:
            yield from flush()
        tally.attempted += 1
        t0 = sim.now
        try:
            yield from store.put(client, key, gen.value(key, my_version))
        except Exception:
            tally.fail(1, traceback.format_exc(limit=3))
        else:
            window.record("write", t0, sim.now)
    if reads:
        yield from flush()


# ----------------------------------------------------------------------
# Control-plane churn
# ----------------------------------------------------------------------
def _churn_worker(pool, wl: Workload, seed: int, index: int, window: Window,
                  tally: _Tally, stop):
    """gmalloc -> gread (fresh object reads as zeros) -> gwrite -> gread
    (the bytes just written) -> gfree, until stopped.

    The read-back is served from the client's own staged-write overlay, so
    it has its own latency family; ``read`` is the fresh object's remote
    read, which exercises the scrub-before-reuse guarantee.
    """
    sim = pool.sim
    client = pool.clients[index % len(pool.clients)]
    rng = _rng(seed, f"w{index}")
    lo, hi = wl.churn_sizes
    steps = ("gmalloc", "gread", "gwrite", "readback", "gfree")
    it = 0
    while not stop[0]:
        size = rng.randint(lo, hi)
        stamp = b"c%dw%di%d|" % (seed, index, it)
        payload = (stamp * (size // len(stamp) + 1))[:size]
        it += 1
        tally.attempted += len(steps)
        step = 0
        try:
            t0 = sim.now
            gaddr = yield from client.gmalloc(size)
            t1 = sim.now
            window.record("meta", t0, t1)
            step = 1
            data = yield from client.gread(gaddr)
            t2 = sim.now
            if data != bytes(size):
                tally.fail(1, f"fresh {size} B object did not read as zeros")
            else:
                window.record("read", t1, t2)
            step = 2
            yield from client.gwrite(gaddr, payload)
            t3 = sim.now
            window.record("write", t2, t3)
            step = 3
            data = yield from client.gread(gaddr)
            t4 = sim.now
            if data != payload:
                tally.fail(1, f"read-back of {size} B returned wrong bytes")
            else:
                window.record("readback", t3, t4)
            step = 4
            yield from client.gfree(gaddr)
            window.record("meta", t4, sim.now)
        except Exception:
            # The failed step and every step after it count as failed.
            tally.fail(len(steps) - step, traceback.format_exc(limit=3))
