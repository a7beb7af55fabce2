"""List-form control RPCs: one ``gmalloc`` / ``lookup`` per shard for many
objects.

The contract under test: ``gmalloc`` and ``lookup`` take a list and reply
per item.  A batched gmalloc carries one idempotency token per item, so a
replay after a lost reply (also across a journal rebuild) returns the same
addresses; items follow the client's shard round-robin and each shard gets
one request per ``MAX_CONTROL_BATCH`` items; an out-of-memory item undoes
the whole batch.  ``gread_many`` resolves all its metadata misses with one
lookup per shard, and an item that lookup cannot resolve (freed, resharded)
falls back to serial ``gread`` alone.
"""

from contextlib import contextmanager

import pytest

from repro.core import server_of
from repro.core.addressing import MAX_SERVERS, OFFSET_MASK, make_gaddr
from repro.core.master import _RPC_BUFFER_SIZE
from repro.core.protocol import MAX_CONTROL_BATCH, ObjectMeta
from repro.rdma.rpc import RpcClient, RpcError, _encode

from tests.core.conftest import build_pool, fast_config


@contextmanager
def rpc_calls():
    """Record the method of every control RPC issued inside the block."""
    methods = []
    orig = RpcClient.call

    def spy(rpc, method, *args, **kw):
        methods.append(method)
        return orig(rpc, method, *args, **kw)

    RpcClient.call = spy
    try:
        yield methods
    finally:
        RpcClient.call = orig


def journal_pool(**overrides):
    cfg = fast_config(metadata_journal=True, journal_entries=256, **overrides)
    return build_pool(num_servers=2, num_clients=1, config=cfg)


# ----------------------------------------------------------------------
# Batched gmalloc
# ----------------------------------------------------------------------
def test_batched_gmalloc_replay_returns_the_same_addresses_across_a_rebuild():
    sim, pool = journal_pool()
    client = pool.clients[0]
    sizes = [64, 128, 256, 512, 1024]
    req_ids = [client._next_req_id() for _ in sizes]

    def first(sim):
        metas = yield from client._gmalloc_once(sizes, req_ids)
        # Lost-reply retry: every item is re-presented with its own token.
        replay = yield from client._gmalloc_once(sizes, req_ids)
        return [m.gaddr for m in metas], [m.gaddr for m in replay]

    ((addrs, replayed),) = pool.run(first(sim))
    assert replayed == addrs
    assert len(set(addrs)) == len(sizes)
    assert pool.master.dup_rpcs.count == len(sizes)
    assert len(pool.master.directory) == len(sizes)

    # The tokens ride the per-item journal records through a rebuild.
    pool.master.reset_volatile_state()

    def after(sim):
        yield from pool.master.rebuild()
        metas = yield from client._gmalloc_once(sizes, req_ids)
        return [m.gaddr for m in metas]

    (rebuilt,) = pool.run(after(sim))
    assert rebuilt == addrs
    assert pool.master.dup_rpcs.count == 2 * len(sizes)
    assert len(pool.master.directory) == len(sizes)


def test_batched_gmalloc_replay_allocates_only_the_missing_items():
    sim, pool = journal_pool()
    client = pool.clients[0]
    req_ids = [client._next_req_id() for _ in range(3)]

    def scenario(sim):
        (head,) = yield from client._gmalloc_once([64], req_ids[:1])
        metas = yield from client._gmalloc_once([64, 64, 64], req_ids)
        return head.gaddr, [m.gaddr for m in metas]

    ((head, addrs),) = pool.run(scenario(sim))
    assert addrs[0] == head
    assert len(set(addrs)) == 3
    assert pool.master.dup_rpcs.count == 1
    assert len(pool.master.directory) == 3


def test_batch_split_across_four_shards_follows_the_round_robin():
    cfg = fast_config(num_master_shards=4)
    sim, pool = build_pool(num_servers=4, num_clients=1, config=cfg)
    client = pool.clients[0]
    rr0 = client._alloc_rr

    def alloc(sim):
        gaddrs = yield from client.gmalloc_many([64] * 10)
        return gaddrs

    with rpc_calls() as methods:
        (gaddrs,) = pool.run(alloc(sim))
    # Shard s owns server s (sid % 4): item i lands on shard (rr0 + i) % 4.
    assert [server_of(g) for g in gaddrs] == [(rr0 + i) % 4 for i in range(10)]
    assert methods.count("gmalloc") == 4  # one request per shard
    assert client._alloc_rr == rr0 + 10
    assert not client._req_shards  # per-item memos are dropped afterwards
    for shard, master in enumerate(pool.masters):
        assert {server_of(g) for g in master.directory._objects} <= {shard}


def test_long_batches_are_chunked_to_the_control_batch_bound():
    sim, pool = build_pool(num_servers=2, num_clients=1)
    client = pool.clients[0]
    n = 2 * MAX_CONTROL_BATCH + 1

    def alloc(sim):
        gaddrs = yield from client.gmalloc_many([64] * n)
        return gaddrs

    with rpc_calls() as methods:
        (gaddrs,) = pool.run(alloc(sim))
    assert len(set(gaddrs)) == n
    assert methods.count("gmalloc") == 3


def test_out_of_memory_part_way_through_a_batch_leaks_no_extent():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    handle = pool.master._servers[0]
    third = handle.allocator.capacity // 3

    def alloc(sim):
        # The third item fits nowhere once the first two are placed.
        try:
            yield from client.gmalloc_many([third, third, 2 * third])
        except RpcError as exc:
            failed = str(exc)
        else:
            failed = None
        left = (handle.allocator.allocated_bytes, len(pool.master.directory),
                len(handle._lock_free), handle._lock_next)
        gaddrs = yield from client.gmalloc_many([third, third])
        return failed, left, gaddrs

    ((failed, left, gaddrs),) = pool.run(alloc(sim))
    assert failed is not None and "OutOfMemory" in failed
    allocated, objects, free_locks, next_lock = left
    assert (allocated, objects) == (0, 0)
    assert free_locks == next_lock  # every lock word handed back
    assert len(gaddrs) == 2  # the failed batch left its space free


def test_a_failed_chunk_frees_what_earlier_chunks_of_the_call_allocated():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    allocator = pool.master._servers[0].allocator
    small = allocator.capacity // (4 * MAX_CONTROL_BATCH)

    def alloc(sim):
        # The first chunk fits; the second one's only item does not.
        sizes = [small] * MAX_CONTROL_BATCH + [allocator.capacity]
        try:
            yield from client.gmalloc_many(sizes)
        except RpcError as exc:
            return str(exc)
        return None

    with rpc_calls() as methods:
        (failed,) = pool.run(alloc(sim))
    assert failed is not None and "OutOfMemory" in failed
    assert methods.count("gmalloc") == 2
    assert methods.count("gfree") == MAX_CONTROL_BATCH
    assert allocator.allocated_bytes == 0
    assert len(pool.master.directory) == 0


# ----------------------------------------------------------------------
# Batched lookup on the gread_many miss path
# ----------------------------------------------------------------------
def _load(pool, client, n, size=256):
    def fill(sim):
        gaddrs = yield from client.gmalloc_many([size] * n)
        for i, g in enumerate(gaddrs):
            yield from client.gwrite(g, bytes([i + 1]) * size)
        yield from client.gsync()
        return gaddrs

    (gaddrs,) = pool.run(fill(pool.sim))
    return gaddrs


def test_gread_many_misses_on_one_shard_send_exactly_one_lookup():
    sim, pool = build_pool(num_servers=2, num_clients=2)
    owner, reader = pool.clients
    gaddrs = _load(pool, owner, 6)
    assert {server_of(g) for g in gaddrs} == {0, 1}

    def read(sim):
        data = yield from reader.gread_many(gaddrs)
        return data

    with rpc_calls() as methods:
        (data,) = pool.run(read(sim))
    assert data == [bytes([i + 1]) * 256 for i in range(6)]
    assert methods.count("lookup") == 1
    assert reader.m_lookups.count == 6
    # The metadata is now cached: a second pass sends no lookup at all.
    with rpc_calls() as methods:
        pool.run(read(sim))
    assert methods.count("lookup") == 0


def test_a_freed_item_falls_back_to_serial_gread_alone():
    sim, pool = build_pool(num_servers=2, num_clients=2)
    owner, reader = pool.clients
    gaddrs = _load(pool, owner, 4)
    freed = gaddrs[2]
    pool.run(owner.gfree(freed))

    serial = []
    orig = type(reader)._gread_once

    def spy(client, gaddr, *args, **kw):
        serial.append(gaddr)
        return orig(client, gaddr, *args, **kw)

    def read(sim):
        try:
            yield from reader.gread_many(gaddrs)
        except RpcError as exc:
            return str(exc)
        return None

    reader._gread_once = spy.__get__(reader)
    with rpc_calls() as methods:
        (err,) = pool.run(read(sim))
    assert err is not None and "unknown object" in err
    assert serial == [freed]
    # One batched lookup for all four, then the freed item's lone retry.
    assert methods.count("lookup") == 2
    assert all(reader._cached_meta(g) is not None for g in gaddrs if g != freed)


def test_a_resharded_item_falls_back_to_serial_gread_alone():
    cfg = fast_config(num_master_shards=2)
    sim, pool = build_pool(num_servers=2, num_clients=2, config=cfg)
    owner, reader = pool.clients
    gaddrs = _load(pool, owner, 4)
    moved = [g for g in gaddrs if server_of(g) == 1]
    assert moved and len(moved) < len(gaddrs)
    pool.reshard(1, 0)  # behind the reader's back: its map still says 1

    serial = []
    orig = type(reader)._gread_once

    def spy(client, gaddr, *args, **kw):
        serial.append(gaddr)
        return orig(client, gaddr, *args, **kw)

    def read(sim):
        data = yield from reader.gread_many(gaddrs)
        return data

    reader._gread_once = spy.__get__(reader)
    (data,) = pool.run(read(sim))
    assert data == [bytes([i + 1]) * 256 for i in range(4)]
    assert sorted(serial) == sorted(moved)
    assert reader._resolve_shard(moved[0]) == 0  # the redirect was learned
    assert reader.m_shard_redirects.count >= 1


# ----------------------------------------------------------------------
# The chunk bound
# ----------------------------------------------------------------------
def test_the_largest_chunk_request_and_reply_fit_the_rpc_buffer():
    n = MAX_CONTROL_BATCH
    top = 2 ** 64 - 1
    gaddrs = [make_gaddr(MAX_SERVERS - 1, OFFSET_MASK - i) for i in range(2 * n)]
    metas = [ObjectMeta(gaddr=g, size=2 ** 40 + i, server_id=MAX_SERVERS - 1,
                        nvm_offset=OFFSET_MASK - i, lock_idx=2 ** 32 - 1 - i,
                        cached=True, cache_offset=2 ** 40 + i)
             for i, g in enumerate(gaddrs)]
    redirects = [f"MasterError: not my shard: server {MAX_SERVERS - 1 - i} is "
                 f"owned by shard {2 ** 16 - 1}, not shard {2 ** 16 - 2} "
                 f"(map epoch {2 ** 32 + i})" for i in range(n)]
    requests = [
        ("gmalloc", {"sizes": [2 ** 40 + i for i in range(n)],
                     "req_ids": [top - i for i in range(n)],
                     "client": "client-65535"}),
        ("lookup", {"gaddrs": gaddrs[:n]}),
    ]
    for method, request in requests:
        _encode((top, method, request), _RPC_BUFFER_SIZE)
    # Replies ride the term envelope when master terms are on.
    for reply in (metas[:n], redirects):
        _encode((top, ("ok", {"t": top, "r": reply})), _RPC_BUFFER_SIZE)
    with pytest.raises(RpcError):  # and the bound is not slack by 2x
        _encode((top, ("ok", {"t": top, "r": metas})), _RPC_BUFFER_SIZE)
