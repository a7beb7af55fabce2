"""Master-side object directory.

One record per live object: where it lives in NVM, whether a DRAM-cached
copy exists and where, and which lock word guards it.  The directory is the
single source of truth; clients hold cached :class:`ObjectMeta` snapshots
that they re-validate through self-verifying cache reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.core.addressing import make_gaddr
from repro.core.protocol import ObjectMeta


class DirectoryError(Exception):
    """Unknown object or inconsistent directory operation."""


@dataclass
class ObjectRecord:
    """Mutable master-side state of one object."""

    gaddr: int
    size: int
    server_id: int
    nvm_offset: int
    lock_idx: int
    cached: bool = False
    cache_offset: int = 0
    #: Pinned objects stay in DRAM regardless of observed hotness.
    pinned: bool = False
    #: Which client asked for the pin (None for operator pins); lease
    #: expiry releases exactly the pins attributed to the dead client.
    pinned_by: Optional[str] = None
    #: Memoized ObjectMeta snapshot; ObjectMeta is frozen, so sharing one
    #: instance across lookups is safe.  Cleared whenever a field that
    #: feeds the snapshot changes (see mark_cached/mark_uncached).
    _meta_snapshot: Optional[ObjectMeta] = field(
        default=None, repr=False, compare=False)

    def to_meta(self) -> ObjectMeta:
        meta = self._meta_snapshot
        if meta is None:
            meta = self._meta_snapshot = ObjectMeta(
                gaddr=self.gaddr,
                size=self.size,
                server_id=self.server_id,
                nvm_offset=self.nvm_offset,
                lock_idx=self.lock_idx,
                cached=self.cached,
                cache_offset=self.cache_offset,
            )
        return meta


class Directory:
    """The master's object table."""

    def __init__(self):
        self._objects: Dict[int, ObjectRecord] = {}
        self._cached_bytes: Dict[int, int] = {}  # server_id -> bytes cached
        self._cached_count: Dict[int, int] = {}  # server_id -> objects cached

    # ------------------------------------------------------------------
    def add(self, server_id: int, nvm_offset: int, size: int, lock_idx: int) -> ObjectRecord:
        """Register a newly allocated object; returns its record."""
        gaddr = make_gaddr(server_id, nvm_offset)
        if gaddr in self._objects:
            raise DirectoryError(f"object {gaddr:#x} already exists")
        record = ObjectRecord(
            gaddr=gaddr, size=size, server_id=server_id,
            nvm_offset=nvm_offset, lock_idx=lock_idx,
        )
        self._objects[gaddr] = record
        return record

    def remove(self, gaddr: int) -> ObjectRecord:
        """Drop an object (gfree); returns the final record."""
        record = self._objects.pop(gaddr, None)
        if record is None:
            raise DirectoryError(f"unknown object {gaddr:#x}")
        if record.cached:
            self._account_cached(record, -1)
        return record

    def get(self, gaddr: int) -> ObjectRecord:
        record = self._objects.get(gaddr)
        if record is None:
            raise DirectoryError(f"unknown object {gaddr:#x}")
        return record

    def lookup(self, gaddr: int) -> Optional[ObjectRecord]:
        """Like :meth:`get` but returns None for unknown objects."""
        return self._objects.get(gaddr)

    def __contains__(self, gaddr: int) -> bool:
        return gaddr in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def objects(self) -> Iterable[ObjectRecord]:
        return self._objects.values()

    # ------------------------------------------------------------------
    def mark_cached(self, gaddr: int, cache_offset: int) -> None:
        record = self.get(gaddr)
        if record.cached:
            raise DirectoryError(f"object {gaddr:#x} already cached")
        record.cached = True
        record.cache_offset = cache_offset
        record._meta_snapshot = None
        self._account_cached(record, 1)

    def mark_uncached(self, gaddr: int) -> None:
        record = self.get(gaddr)
        if not record.cached:
            raise DirectoryError(f"object {gaddr:#x} is not cached")
        record.cached = False
        record.cache_offset = 0
        record._meta_snapshot = None
        self._account_cached(record, -1)

    def _account_cached(self, record: ObjectRecord, sign: int) -> None:
        """Move ``record`` into (+1) or out of (-1) its server's cached
        bytes and object-count ledgers."""
        sid = record.server_id
        self._cached_bytes[sid] = self._cached_bytes.get(sid, 0) + sign * record.size
        self._cached_count[sid] = self._cached_count.get(sid, 0) + sign

    def cached_bytes(self, server_id: int) -> int:
        """Bytes of objects currently cached on ``server_id``."""
        return self._cached_bytes.get(server_id, 0)

    def cached_count(self, server_id: int) -> int:
        """Number of objects currently cached on ``server_id``."""
        return self._cached_count.get(server_id, 0)

    # ------------------------------------------------------------------
    def take_server(self, server_id: int) -> list:
        """Remove and return every record homed on ``server_id``.

        Reshard export: the records leave with their cached/pinned state
        intact (the adopting directory re-accounts them), and this
        directory's cached ledgers for the server drop to zero.
        """
        taken = [r for r in self._objects.values() if r.server_id == server_id]
        for record in taken:
            del self._objects[record.gaddr]
        self._cached_bytes.pop(server_id, None)
        self._cached_count.pop(server_id, None)
        return taken

    def adopt(self, record: ObjectRecord) -> None:
        """Insert a record exported by another directory, preserving its
        cached accounting (reshard adoption)."""
        if record.gaddr in self._objects:
            raise DirectoryError(f"object {record.gaddr:#x} already exists")
        self._objects[record.gaddr] = record
        if record.cached:
            self._account_cached(record, 1)
