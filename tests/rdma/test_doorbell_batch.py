"""Doorbell batching: post_send_many must be virtual-time equivalent to
posting the same WRs one by one."""

import pytest

from repro.rdma.mr import AccessFlags
from repro.rdma.qp import QpError
from repro.rdma.wr import Opcode, WorkRequest

from tests.rdma.conftest import Rig


def _write_wrs(rkey, count, size=32):
    return [
        WorkRequest(
            opcode=Opcode.RDMA_WRITE,
            remote_rkey=rkey,
            remote_offset=i * size,
            inline_data=bytes([i % 256]) * size,
            length=size,
        )
        for i in range(count)
    ]


def test_post_send_many_places_all_payloads(rig):
    mr_b = rig.ep_b.register_mr(rig.mem_b, 0, 4096, access=AccessFlags.ALL)

    def app():
        events = rig.qp_a.post_send_many(_write_wrs(mr_b.rkey, 8))
        wcs = []
        for ev in events:
            wcs.append((yield ev))
        return wcs

    wcs = rig.run(app())
    assert all(wc.ok for wc in wcs)
    for i in range(8):
        assert rig.mem_b.peek(i * 32, 32) == bytes([i]) * 32


def test_post_send_many_matches_sequential_virtual_time():
    def drive(batched):
        rig = Rig(seed=7)
        mr_b = rig.ep_b.register_mr(rig.mem_b, 0, 4096, access=AccessFlags.ALL)

        def app():
            wrs = _write_wrs(mr_b.rkey, 10)
            if batched:
                events = rig.qp_a.post_send_many(wrs)
            else:
                events = [rig.qp_a.post_send(wr) for wr in wrs]
            for ev in events:
                wc = yield ev
                assert wc.ok
            return rig.sim.now

        return rig.run(app())

    assert drive(batched=True) == drive(batched=False)


def test_post_send_many_validates_before_posting(rig):
    mr_b = rig.ep_b.register_mr(rig.mem_b, 0, 4096, access=AccessFlags.ALL)
    wrs = _write_wrs(mr_b.rkey, 3)
    # Atomic with a bogus length is a local usage error.
    wrs.append(WorkRequest(opcode=Opcode.ATOMIC_CAS, remote_rkey=mr_b.rkey,
                           remote_offset=0, length=4))
    with pytest.raises(QpError):
        rig.qp_a.post_send_many(wrs)
    # Nothing was posted: the target memory is untouched after running.
    rig.sim.run()
    assert rig.mem_b.peek(0, 32) == bytes(32)


def test_post_send_many_requires_connection():
    rig = Rig()
    rig.qp_a.remote = None
    with pytest.raises(QpError):
        rig.qp_a.post_send_many([])


def test_verb_processes_finish_without_a_completion_dispatch(rig):
    """Callers wait on each WR's completion event, never on the verb
    process, so a finished verb process dispatches nothing."""
    from repro.sim.kernel import Process

    mr_b = rig.ep_b.register_mr(rig.mem_b, 0, 4096, access=AccessFlags.ALL)
    completions = []

    def hook(when, fn):
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, Process) and fn.__name__ == "_dispatch":
            completions.append(owner.name)

    rig.sim.dispatch_hook = hook

    def app():
        done = [rig.qp_a.post_send(wr) for wr in _write_wrs(mr_b.rkey, 2)]
        done += rig.qp_a.post_send_many(_write_wrs(mr_b.rkey, 3))
        for ev in done:
            assert (yield ev).ok

    rig.run(app())
    # Only the app process, which the rig joins, completes with a dispatch.
    assert completions == ["app"]
