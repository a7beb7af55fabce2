"""History recorder semantics: ok/fail/info, pay-as-you-go, JSONL I/O."""

from repro.check import HistoryRecorder, load_history
from repro.core.errors import ClientError
from repro.sim import Simulator

from tests.core.conftest import build_pool, fast_config


def test_recorder_merges_invoke_and_completion():
    sim = Simulator(seed=1)
    rec = HistoryRecorder(sim)
    t_ok = rec.invoke("c0", "write", 0x10, value="a")
    t_fail = rec.invoke("c0", "read", 0x10)
    t_info = rec.invoke("c1", "write", 0x10, value="b")
    t_pending = rec.invoke("c1", "read", 0x20)
    rec.ok(t_ok)
    rec.fail(t_fail, ValueError("boom"))
    rec.info(t_info, TimeoutError("gone"))
    by_status = {r["status"]: r for r in rec.ops}
    assert set(by_status) == {"ok", "fail", "info", "pending"}
    assert by_status["fail"]["error"] == "ValueError"
    assert by_status["info"]["error"] == "TimeoutError"
    assert rec.ops[t_pending]["t1"] is None


def test_encode_is_a_short_stable_digest():
    assert HistoryRecorder.encode(None) == ""
    assert HistoryRecorder.encode(b"abc") == HistoryRecorder.encode(b"abc")
    assert HistoryRecorder.encode(b"abc") != HistoryRecorder.encode(b"abd")
    assert len(HistoryRecorder.encode(b"x" * 4096)) == 16


def test_dump_and_load_roundtrip(tmp_path):
    sim = Simulator(seed=1)
    rec = HistoryRecorder(sim)
    rec.ok(rec.invoke("c0", "write", 0x10, value="a"))
    rec.fail(rec.invoke("c0", "read", 0x10), KeyError("x"))
    path = tmp_path / "history.jsonl"
    assert rec.dump_jsonl(str(path)) == 2
    assert load_history(str(path)) == rec.ops


def test_install_uninstall_toggles_the_sim_hook():
    sim = Simulator(seed=1)
    assert sim.history is None  # zero-cost default: no recorder wired
    rec = HistoryRecorder(sim).install()
    assert sim.history is rec
    rec.uninstall()
    assert sim.history is None
    # Uninstalling a recorder that lost the hook must not clobber the winner.
    rec2 = HistoryRecorder(sim).install()
    rec.uninstall()
    assert sim.history is rec2


def test_pool_ops_record_jepsen_statuses():
    """End to end: a recorded pool run emits invoke-merged ops with the
    Jepsen semantics — ok for effects, fail for failed reads (definite
    no-ops), lock ops carrying their fencing epoch.  Batched ops record
    one event per object (a batch of N is N register ops sharing one
    window); ``gsync`` records one ``sync`` event keyed by no object."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(client_lease_ns=100_000))
    client = pool.clients[0]
    rec = HistoryRecorder(sim).install()
    values = [b"X" * 64, b"Y" * 64]

    def work(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.glock(gaddr)
        yield from client.gwrite(gaddr, b"R" * 64)
        yield from client.gunlock(gaddr)
        data = yield from client.gread(gaddr)
        batch = yield from client.gmalloc_many([64, 64])
        yield from client.gwrite_batch(list(zip(batch, values)))
        yield from client.gsync()
        results = yield from client.gread_many(batch)
        return gaddr, data, batch, results

    ((gaddr, data, batch, results),) = pool.run(work(sim))
    rec.uninstall()
    assert data == b"R" * 64
    assert results == values

    by_op = {}
    for r in rec.ops:
        by_op.setdefault(r["op"], []).append(r)
    assert set(by_op) >= {"write", "read", "lock", "unlock", "sync"}
    for r in rec.ops:
        assert r["status"] == "ok"
        assert r["t1"] is not None and r["t1"] >= r["t0"]
    (write,) = [r for r in by_op["write"] if r["key"] == gaddr]
    (read,) = [r for r in by_op["read"] if r["key"] == gaddr]
    # Values are digests, and the read observed exactly what was written.
    assert read["result"] == write["value"] == HistoryRecorder.encode(b"R" * 64)
    (lock,) = by_op["lock"]
    assert lock["key"] == gaddr and lock["write"] is True
    assert lock["epoch"] == 0
    digests = [HistoryRecorder.encode(v) for v in values]
    batch_writes = [r for r in by_op["write"] if r["key"] != gaddr]
    batch_reads = [r for r in by_op["read"] if r["key"] != gaddr]
    assert [r["key"] for r in batch_writes] == batch
    assert [r["key"] for r in batch_reads] == batch
    assert [r["value"] for r in batch_writes] == digests
    assert [r["result"] for r in batch_reads] == digests
    # The write unlock syncs first; the explicit gsync is the last event.
    assert all(r["key"] is None for r in by_op["sync"])
    assert by_op["sync"][-1]["server"] is None


def test_failed_ops_record_fail_for_reads_and_locks_info_for_writes():
    """Against a crashed server with one attempt per op, reads and lock
    acquires are definite no-ops (``fail``); writes and syncs may still
    land or drain, so they are indeterminate (``info``)."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(retry_max_attempts=1))
    client = pool.clients[0]

    def setup(sim):
        return (yield from client.gmalloc_many([64, 64]))

    ((a, b),) = pool.run(setup(sim))
    rec = HistoryRecorder(sim).install()
    ops = {
        "gwrite": lambda: client.gwrite(a, b"W" * 64),
        "gsync": lambda: client.gsync(),
        "gread": lambda: client.gread(a),
        "glock": lambda: client.glock(a),
        "gread_many": lambda: client.gread_many([a, b]),
        "gwrite_batch": lambda: client.gwrite_batch([(a, b"X" * 64),
                                                     (b, b"Y" * 64)]),
    }

    def work(sim):
        # Stage one write so the sync below has something to wait for.
        yield from client.gwrite(b, b"S" * 64)
        pool.servers[0].crash()
        failed = []
        for name, op in ops.items():
            try:
                yield from op()
            except ClientError:
                failed.append(name)
        return failed

    (failed,) = pool.run(work(sim))
    rec.uninstall()
    assert failed == list(ops)

    statuses = {}
    for r in rec.ops[1:]:  # rec.ops[0] is the pre-crash staging write
        statuses.setdefault(r["op"], []).append(r["status"])
    assert statuses == {
        "write": ["info", "info", "info"],  # gwrite + one per batch item
        "sync": ["info"],
        "read": ["fail", "fail", "fail"],  # gread + one per gread_many item
        "lock": ["fail"],
    }
