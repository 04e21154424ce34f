"""Socket transport units: framing, deadlines, backoff, seq dedup, hostd.

The wire-level contracts under the socketed ``ShardedWorld``: one
length-prefixed pickle frame per message, per-message deadlines that
surface as :class:`TransportTimeout`, a bounded exponential-backoff
dial that gives up with :class:`HostUnreachable`, sequence numbers
that silently absorb duplicated/stale replies, and a shard-host
daemon that serves the build/run/finish verbs and tears down cleanly.
"""

from __future__ import annotations

import functools
import socket
import threading
import time

import pytest

from repro.errors import HostUnreachable, TransportError, TransportTimeout
from repro.sim import transport
from repro.sim.hostd import HostHandle
from repro.sim.shards import ShardReport
from repro.sim.workload import poller_shard


def _pair():
    a, b = socket.socketpair()
    return a, b


class TestFraming:
    def test_round_trip(self):
        a, b = _pair()
        try:
            payload = {"verb": "run", "seq": 3, "chunks": [1.0, 2.0]}
            transport.send_msg(a, payload)
            assert transport.recv_msg(b, timeout_s=2.0) == payload
        finally:
            a.close(), b.close()

    def test_several_frames_stay_separate(self):
        a, b = _pair()
        try:
            for n in range(5):
                transport.send_msg(a, {"n": n})
            for n in range(5):
                assert transport.recv_msg(b, timeout_s=2.0) == {"n": n}
        finally:
            a.close(), b.close()

    def test_recv_deadline_raises_transport_timeout(self):
        a, b = _pair()
        try:
            with pytest.raises(TransportTimeout):
                transport.recv_msg(b, timeout_s=0.05)
        finally:
            a.close(), b.close()

    def test_peer_close_midframe_raises(self):
        a, b = _pair()
        try:
            a.sendall(b"\x00\x00\x00\x00\x00\x00\x00\x10half")
            a.close()
            with pytest.raises(TransportError):
                transport.recv_msg(b, timeout_s=2.0)
        finally:
            b.close()

    def test_corrupt_length_prefix_refused(self):
        a, b = _pair()
        try:
            a.sendall(b"\xff" * 8)  # claims ~2**64 bytes
            with pytest.raises(TransportError):
                transport.recv_msg(b, timeout_s=2.0)
        finally:
            a.close(), b.close()


class TestConnectBackoff:
    def test_unreachable_after_bounded_attempts(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
        # A port nothing listens on: grab one, then close it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(HostUnreachable):
            transport.connect(("127.0.0.1", port), attempts=4,
                              backoff_s=0.05)
        # Exponential schedule between attempts (none after the last).
        assert sleeps == [0.05, 0.1, 0.2]

    def test_gate_short_circuits_the_dial(self):
        def gate():
            raise HostUnreachable("partitioned")
        with pytest.raises(HostUnreachable, match="partitioned"):
            transport.connect(("127.0.0.1", 1), attempts=5, gate=gate)


def _scripted_server(replies):
    """A one-connection server that answers each request from a script.

    Each script entry is a list of reply dicts sent for that request
    (empty list = drop the reply).  Returns (address, thread).
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        try:
            for batch in replies:
                msg = transport.recv_msg(conn, timeout_s=5.0)
                for reply in batch:
                    out = dict(reply)
                    out.setdefault("seq", msg["seq"])
                    transport.send_msg(conn, out)
            # Script exhausted: hold the connection open (a dropped
            # reply is a silence, not a hangup) until the client goes.
            while True:
                transport.recv_msg(conn, timeout_s=30.0)
        except TransportError:
            pass
        finally:
            conn.close()
            listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


class TestSlotClient:
    def test_duplicated_reply_is_discarded(self):
        address, thread = _scripted_server([
            [{"ok": True, "result": "a"}, {"ok": True, "result": "a"}],
            [{"ok": True, "result": "b"}],
        ])
        client = transport.SlotClient(address, slot=0)
        try:
            # The duplicate of "a" is stale by the time "b" is pending
            # and must be skipped, not returned as "b"'s answer.
            assert client.call("x", timeout_s=5.0) == "a"
            assert client.call("x", timeout_s=5.0) == "b"
        finally:
            client.close()
        thread.join(timeout=5.0)

    def test_remote_error_raises_transport_error(self):
        address, thread = _scripted_server([
            [{"ok": False, "kind": "ShardFailure", "error": "boom"}],
        ])
        client = transport.SlotClient(address, slot=3)
        try:
            with pytest.raises(TransportError, match="boom"):
                client.call("x", timeout_s=5.0)
        finally:
            client.close()
        thread.join(timeout=5.0)

    def test_missing_reply_times_out(self):
        address, thread = _scripted_server([[]])
        client = transport.SlotClient(address, slot=0)
        try:
            with pytest.raises(TransportTimeout):
                client.call("x", timeout_s=0.2)
        finally:
            client.close()
        thread.join(timeout=5.0)

    def test_probe_failure_preempts_the_deadline(self):
        address, thread = _scripted_server([[]])
        client = transport.SlotClient(address, slot=0)
        probes = []

        def probe():
            probes.append(1)
            raise HostUnreachable("host died")

        try:
            with pytest.raises(HostUnreachable):
                # The 30 s deadline never expires: the heartbeat probe
                # (every 50 ms) reports the host dead long before.
                client.call("x", timeout_s=30.0, probe=probe,
                            probe_interval_s=0.05)
        finally:
            client.close()
        assert probes
        thread.join(timeout=5.0)


class TestHostDaemon:
    def test_spawn_serve_verbs_and_graceful_stop(self):
        host = HostHandle(0)
        host.spawn()
        try:
            assert host.usable()
            builder = functools.partial(
                poller_shard, fleet_size=4, watts=0.25, period_s=60.0,
                bytes_out=64, record_interval_s=1.0,
                decay_enabled=False)
            client = host.slot_client(0)
            built = client.call(
                "build", timeout_s=30.0, builder=builder, lo=0, hi=4,
                world_kwargs={"tick_s": 0.01, "seed": 7})
            assert built == 4
            now, wall, ckpt = client.call(
                "run", timeout_s=60.0, chunk_s=30.0, barrier=0,
                want_checkpoint=True)
            assert now == pytest.approx(30.0)
            assert wall > 0 and ckpt is not None
            report = client.call("finish", timeout_s=30.0, shard=0,
                                 lo=0, hi=4, wall_s=wall)
            assert isinstance(report, ShardReport)
            assert len(report.digests) == 4
            client.close()
        finally:
            forced = host.stop(drain_timeout_s=10.0)
        # A reachable daemon drains gracefully: nothing was forced.
        assert forced == 0
        assert host.process is None

    def test_respawn_restarts_only_an_exited_daemon(self):
        host = HostHandle(2)
        host.spawn()
        first = host.process
        try:
            # A running daemon may be slow, not dead: left alone.
            assert not host.respawn(grace_s=0.05)
            assert host.process is first
            first.kill()
            first.join(timeout=10.0)
            assert not host.usable()
            assert host.respawn(grace_s=0.05)
            assert host.process is not first
            host.probe()
        finally:
            forced = host.stop(drain_timeout_s=10.0)
        assert forced == 0

    def test_partitioned_host_is_unusable_and_stops_forced(self):
        host = HostHandle(1)
        host.spawn()
        proc = host.process
        try:
            host.partition()
            with pytest.raises(HostUnreachable):
                host.gate()
            assert not host.usable()
            # The daemon is unreachable, not dead: it is not respawned,
            # and it survives until teardown forcibly terminates it.
            assert not host.respawn(grace_s=0.05)
            assert host.process is proc and proc.is_alive()
        finally:
            start = time.perf_counter()
            forced = host.stop(drain_timeout_s=5.0)
            wall = time.perf_counter() - start
        assert forced == 1
        assert not proc.is_alive()
        # No shutdown could reach it, so there is nothing to drain:
        # teardown terminates at once instead of waiting out the
        # drain budget.
        assert wall < 1.0, f"partitioned teardown took {wall:.2f}s"
