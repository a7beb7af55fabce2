"""A key-value store over any DSHM system (the YCSB target).

Each record is one pool object of ``value_size`` bytes; the store keeps a
key -> gaddr index plus a sorted key list for scans.  The index is metadata
that real deployments distribute out of band (or keep in a directory
service); here every worker shares the in-process index and pays a small
CPU charge per lookup, so the *data path* — the part the paper's systems
differ on — dominates measurements.

All mutating/reading methods are simulation-process helpers taking the
calling worker's client explicitly, so any number of workers (on any
client) can drive one store concurrently.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Generator, List

from repro.core.protocol import MAX_CONTROL_BATCH


class KvError(Exception):
    """Unknown key or invalid store usage."""


class KvStore:
    """Hash-partitioned KV store with ordered scans."""

    def __init__(self, value_size: int):
        if value_size < 1:
            raise ValueError("value size must be positive")
        self.value_size = value_size
        self._index: Dict[int, int] = {}  # key_id -> gaddr
        self._sorted_keys: List[int] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key_id: int) -> bool:
        return key_id in self._index

    def gaddr_of(self, key_id: int) -> int:
        """The pool address backing ``key_id`` (raises for unknown keys)."""
        try:
            return self._index[key_id]
        except KeyError:
            raise KvError(f"unknown key {key_id}") from None

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, client, key_ids, value_fn) -> Generator[Any, Any, None]:
        """Allocate and write records for ``key_ids`` (bulk load phase).

        Records are allocated ``MAX_CONTROL_BATCH`` at a time with
        ``gmalloc_many`` (one control RPC per chunk and master shard, not
        one per record), then written one by one as :meth:`insert` does.
        """
        key_ids = list(key_ids)
        for lo in range(0, len(key_ids), MAX_CONTROL_BATCH):
            chunk = key_ids[lo:lo + MAX_CONTROL_BATCH]
            if len(set(chunk)) < len(chunk):
                raise KvError(f"duplicate key in {chunk}")
            values = [value_fn(key_id) for key_id in chunk]
            for key_id, value in zip(chunk, values):
                self._check_new(key_id, value)
            gaddrs = yield from client.gmalloc_many([self.value_size] * len(chunk))
            for key_id, value, gaddr in zip(chunk, values, gaddrs):
                yield from self._write_new(client, key_id, value, gaddr)
        yield from client.gsync()

    def insert(self, client, key_id: int, value: bytes) -> Generator[Any, Any, None]:
        """Add a new record."""
        self._check_new(key_id, value)
        gaddr = yield from client.gmalloc(self.value_size)
        yield from self._write_new(client, key_id, value, gaddr)

    def _check_new(self, key_id: int, value: bytes) -> None:
        if key_id in self._index:
            raise KvError(f"duplicate key {key_id}")
        if len(value) != self.value_size:
            raise KvError(
                f"value of {len(value)} bytes; store is fixed at {self.value_size}"
            )

    def _write_new(self, client, key_id: int, value: bytes,
                   gaddr: int) -> Generator[Any, Any, None]:
        yield from client.gwrite(gaddr, value)
        self._index[key_id] = gaddr
        bisect.insort(self._sorted_keys, key_id)

    # ------------------------------------------------------------------
    # The YCSB operation set
    # ------------------------------------------------------------------
    def get(self, client, key_id: int) -> Generator[Any, Any, bytes]:
        """Point read."""
        gaddr = self.gaddr_of(key_id)
        data = yield from client.gread(gaddr)
        return data

    def multi_get(self, client, key_ids) -> Generator[Any, Any, List[bytes]]:
        """Batched point reads, in argument order.

        Routes through :meth:`~repro.core.client.GengarClient.gread_many`,
        so the reads go out as one doorbell per home server and complete
        out of order — a closed-loop worker batching its read runs this way
        pays roughly one round trip for the whole batch.
        """
        gaddrs = [self.gaddr_of(k) for k in key_ids]
        results = yield from client.gread_many(gaddrs)
        return results

    def put(self, client, key_id: int, value: bytes) -> Generator[Any, Any, None]:
        """Full-value update."""
        if len(value) != self.value_size:
            raise KvError(
                f"value of {len(value)} bytes; store is fixed at {self.value_size}"
            )
        gaddr = self.gaddr_of(key_id)
        yield from client.gwrite(gaddr, value)

    def scan(self, client, start_key: int, count: int) -> Generator[Any, Any, List[bytes]]:
        """Read up to ``count`` records in key order starting at start_key.

        The whole range goes out as one doorbell-batched ``gread_many`` —
        and since consecutively loaded records tend to be NVM-adjacent, a
        scan is exactly the shape server-side read combining collapses into
        a single device transfer.
        """
        idx = bisect.bisect_left(self._sorted_keys, start_key)
        keys = self._sorted_keys[idx : idx + count]
        if not keys:
            return []
        results = yield from client.gread_many([self._index[k] for k in keys])
        return results

    def read_modify_write(self, client, key_id: int,
                          modify) -> Generator[Any, Any, bytes]:
        """Locked read-modify-write (YCSB F), atomic across clients."""
        gaddr = self.gaddr_of(key_id)
        yield from client.glock(gaddr, write=True)
        try:
            old = yield from client.gread(gaddr)
            new = modify(old)
            if len(new) != self.value_size:
                raise KvError("modify function changed the value size")
            yield from client.gwrite(gaddr, new)
        finally:
            yield from client.gunlock(gaddr, write=True)
        return old

    def delete(self, client, key_id: int) -> Generator[Any, Any, None]:
        """Remove a record and free its object."""
        gaddr = self.gaddr_of(key_id)
        del self._index[key_id]
        idx = bisect.bisect_left(self._sorted_keys, key_id)
        del self._sorted_keys[idx]
        yield from client.gfree(gaddr)
