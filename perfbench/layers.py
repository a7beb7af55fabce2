"""Per-layer measurements for the traced run.

:class:`LayerTrace` wraps the public entry points of each layer from the
benchmark's side (no file under ``src/`` changes) and reads the counters the
program already keeps.  Every wrapper only forwards what the wrapped call
yields, so it adds no simulated event: a traced trial's virtual results are
bit-identical to an untraced one with the same seed, which ``run.py``
asserts.  Counts are taken as deltas over the measured window.  The
metric names and units are those of ``per_layer`` in ``BENCHMARK.json``.

:class:`Profile` runs ``cProfile`` over the window and splits CPU self time
by ``repro`` package.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
from collections import Counter as Tally
from typing import Dict, List

from workloads import mid_quantile
from repro.core.client import GengarClient
from repro.hardware.memory import MemoryDevice
from repro.rdma.qp import QueuePair
from repro.rdma.rpc import RpcClient

PROFILE_PACKAGES = ("sim", "hardware", "rdma", "core", "apps", "workloads")
#: RPC methods reported one by one (metric name -> wire method).
RPC_METHODS = {"lookup": "lookup", "alloc": "gmalloc", "free": "gfree",
               "report": "report"}


class LayerTrace:
    """Wrappers on each layer's public calls plus window counter deltas."""

    def __init__(self):
        self.calls: Tally = Tally()
        self.user_write_bytes = 0
        self.nvm_bytes_written = 0
        self.nvm_wait_ns = 0
        self.nvm_accesses = 0
        self.rpc_latency_ns: List[int] = []
        self.rpc_clients = set()
        self.active = False
        self._saved = []
        self.metrics: Dict[str, float] = {}
        self.window_events = 0
        self.utilization: Dict = {}

    # -- installation ---------------------------------------------------
    def install(self) -> "LayerTrace":
        """Patch the layer entry points (before the pool is built)."""
        for name in ("gread", "gread_many", "gwrite", "gmalloc", "gfree"):
            self._patch(GengarClient, name, self._client_op(name))
        self._patch(RpcClient, "call", self._rpc_call)
        self._patch(QueuePair, "post_send", self._post_send)
        self._patch(QueuePair, "post_send_many", self._post_send_many)
        self._patch(MemoryDevice, "read", self._mem_access("read"))
        self._patch(MemoryDevice, "write", self._mem_access("write"))
        return self

    def uninstall(self) -> None:
        for cls, name, orig in reversed(self._saved):
            setattr(cls, name, orig)
        self._saved.clear()

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, cls, name: str, make) -> None:
        orig = cls.__dict__[name]
        self._saved.append((cls, name, orig))
        setattr(cls, name, functools.wraps(orig)(make(orig)))

    # -- wrappers ---------------------------------------------------------
    def _client_op(self, name: str):
        trace = self
        key = "client." + name

        def make(orig):
            def wrapper(client, *args, **kw):
                if trace.active:
                    trace.calls[key] += 1
                    if name == "gwrite":
                        data = args[1] if len(args) > 1 else kw["data"]
                        trace.user_write_bytes += len(data)
                result = yield from orig(client, *args, **kw)
                return result
            return wrapper
        return make

    def _rpc_call(self, orig):
        trace = self

        def wrapper(rpc, method, *args, **kw):
            trace.rpc_clients.add(rpc)
            t0 = rpc.sim.now
            result = yield from orig(rpc, method, *args, **kw)
            if trace.active:
                trace.calls["rpc." + method] += 1
                trace.rpc_latency_ns.append(rpc.sim.now - t0)
            return result
        return wrapper

    def _post_send(self, orig):
        trace = self

        def wrapper(qp, wr):
            if trace.active:
                trace.calls["rdma.doorbells"] += 1
                trace.calls["rdma.wrs"] += 1
            return orig(qp, wr)
        return wrapper

    def _post_send_many(self, orig):
        trace = self

        def wrapper(qp, wrs):
            wrs = list(wrs)
            if trace.active:
                trace.calls["rdma.doorbells"] += 1
                trace.calls["rdma.wrs"] += len(wrs)
            return orig(qp, wrs)
        return wrapper

    def _mem_access(self, kind: str):
        trace = self

        def make(orig):
            def wrapper(dev, offset, arg):
                nbytes = arg if kind == "read" else len(arg)
                t0 = dev.sim.now
                result = yield from orig(dev, offset, arg)
                if trace.active:
                    if dev.spec.kind == "nvm":
                        trace.calls["nvm." + kind] += 1
                        service = (dev.read_service_time(nbytes) if kind == "read"
                                   else dev.write_service_time(nbytes))
                        trace.nvm_wait_ns += dev.sim.now - t0 - service
                        trace.nvm_accesses += 1
                        if kind == "write":
                            trace.nvm_bytes_written += nbytes
                    elif kind == "read" and dev.name.startswith("server"):
                        trace.calls["server_dram.read"] += 1
                return result
            return wrapper
        return make

    # -- window hooks -----------------------------------------------------
    def open(self, pool, window) -> None:
        self._base = self._snapshot(pool)
        self._stalls0 = {c: self._stalls(c) for c in self.rpc_clients}
        self.active = True

    def close(self, pool, window) -> None:
        self.active = False
        end = self._snapshot(pool)
        base = self._base
        d = {k: end[k] - base[k] for k in ("events", "fabric_msgs", "fabric_bytes",
                                           "lookups", "hits", "reads", "proxy_bytes",
                                           "direct_bytes", "batch_n", "batch_sum")}
        ops = max(1, window.ops)
        calls = self.calls
        window_ns = window.end - window.start
        link_bw = pool.cluster.fabric.spec.bandwidth  # bytes per ns
        util = {}
        for node, (eg, ing) in end["ports"].items():
            eg0, ing0 = base["ports"][node]
            util[node] = max(eg - eg0, ing - ing0) / (window_ns * link_bw)
        busiest = sorted(util.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        shard_reqs = [end["shard_requests"][i] - base["shard_requests"][i]
                      for i in range(len(end["shard_requests"]))]
        mean_reqs = sum(shard_reqs) / len(shard_reqs)
        lat = self.rpc_latency_ns
        written = d["proxy_bytes"] + d["direct_bytes"]
        stalls = sum(self._stalls(c) - self._stalls0.get(c, 0)
                     for c in self.rpc_clients)
        # Let the trial's simulator be freed: a pool kept alive would slow
        # every later trial in this process (larger heap, longer GC passes).
        self.rpc_clients.clear()
        self._stalls0.clear()
        pools = end["pools"]
        shard_pools = pools[:len(pool.masters)]
        m = {
            "sim.events_per_op": d["events"] / ops,
            "hw.nvm_reads_per_op": calls["nvm.read"] / ops,
            "hw.nvm_writes_per_op": calls["nvm.write"] / ops,
            "hw.nvm_write_amp": (self.nvm_bytes_written / self.user_write_bytes
                                 if self.user_write_bytes else 0.0),
            "hw.nvm_wait_ns": (self.nvm_wait_ns / self.nvm_accesses
                               if self.nvm_accesses else 0.0),
            "hw.dram_reads_per_op": calls["server_dram.read"] / ops,
            "hw.fabric_msgs_per_op": d["fabric_msgs"] / ops,
            "hw.fabric_bytes_per_op": d["fabric_bytes"] / ops,
            "hw.max_link_util": busiest[0][1] if busiest else 0.0,
            "rdma.wrs_per_op": calls["rdma.wrs"] / ops,
            "rdma.doorbells_per_op": calls["rdma.doorbells"] / ops,
            "rpc.calls_per_op": len(lat) / ops,
            "rpc.call_p50_us": mid_quantile(lat, 0.5) / 1e3 if lat else 0.0,
            "rpc.call_p99_us": mid_quantile(lat, 0.99) / 1e3 if lat else 0.0,
            "rpc.pool_capacity_max": max(s["capacity"] for s in pools),
            "rpc.pool_grows": sum(s["grows"] for s in pools) - sum(
                s["grows"] for s in base["pools"]),
            "rpc.credit_waits": stalls,
            "client.read_batch_depth": (d["batch_sum"] / d["batch_n"]
                                        if d["batch_n"] else 0.0),
            "client.meta_lookups_per_op": d["lookups"] / ops,
            "client.proxy_write_ratio": (d["proxy_bytes"] / written
                                         if written else 0.0),
            "cache.hit_ratio": d["hits"] / d["reads"] if d["reads"] else 0.0,
            "cache.used_bytes": sum(s.cache_used_bytes for s in pool.servers.values()),
            "master.requests_per_op": sum(shard_reqs) / ops,
            "master.shard_skew": max(shard_reqs) / mean_reqs if mean_reqs else 0.0,
        }
        for metric, method in RPC_METHODS.items():
            m[f"rpc.{metric}_per_op"] = calls["rpc." + method] / ops
        self.metrics = m
        self.window_events = d["events"]
        self.utilization = {
            "busiest_nodes": [{"node": n, "link_util": round(u, 4)} for n, u in busiest],
            "master_shard_pools": [
                {"shard": i, **{k: s[k] for k in ("qps", "capacity", "grows",
                                                  "shrinks", "peak_occupancy")}}
                for i, s in enumerate(shard_pools)],
            "rpc_call_samples": len(lat),
        }

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _stalls(rpc) -> int:
        stats = rpc.credit_stats()
        return stats["stalls"] if stats else 0

    @staticmethod
    def _snapshot(pool) -> Dict:
        sim = pool.sim
        metrics = sim.metrics
        fabric = pool.cluster.fabric
        batch = metrics.histogram("pool.read_batch")
        return {
            "events": sim.total_dispatched,
            "fabric_msgs": fabric.messages.count,
            "fabric_bytes": fabric.payload_bytes.total,
            "lookups": metrics.counter("pool.lookups").count,
            "hits": metrics.counter("pool.cache_hits").count,
            "reads": metrics.counter("pool.reads").count,
            "proxy_bytes": metrics.counter("pool.proxy_writes").total,
            "direct_bytes": metrics.counter("pool.direct_writes").total,
            "batch_n": batch.count,
            "batch_sum": batch.total,
            "ports": {n.name: (fabric.egress_bytes(n.name), fabric.ingress_bytes(n.name))
                      for n in pool.cluster.nodes},
            "shard_requests": [m.rpc.requests.count for m in pool.masters],
            # RPC receive-pool stats of every master shard, then every server.
            "pools": ([m.rpc.pool_stats() for m in pool.masters]
                      + [s.rpc.pool_stats() for s in pool.servers.values()]),
        }


class Profile:
    """cProfile over the measured window; CPU self time by package."""

    def __init__(self):
        self._prof = cProfile.Profile()
        self.metrics: Dict[str, float] = {}

    def open(self, pool, window) -> None:
        self._prof.enable()

    def close(self, pool, window) -> None:
        self._prof.disable()
        stats = pstats.Stats(self._prof).stats
        by_pkg: Dict[str, float] = dict.fromkeys(PROFILE_PACKAGES + ("other",), 0.0)
        for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.items():
            by_pkg[_package(filename)] += tottime
        total = sum(by_pkg.values()) or 1.0
        self.metrics = {f"host.{pkg}.self_frac": t / total for pkg, t in by_pkg.items()}


def _package(filename: str) -> str:
    """The ``repro`` package a source file belongs to, else "other"."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" in parts:
        i = len(parts) - 1 - parts[::-1].index("repro")
        if i + 1 < len(parts) and parts[i + 1] in PROFILE_PACKAGES:
            return parts[i + 1]
    return "other"
