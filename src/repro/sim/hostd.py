"""Shard-host daemon: N shard slots behind one TCP endpoint.

A **host** is the shard tier's unit of execution and of failure: one
daemon process owning several **shard slots**, each a world slice
driven through the slot verbs — ``build``, ``run`` (advance to
barrier), ``restore``, ``finish`` (digest) — plus ``ping`` for
liveness and ``shutdown`` for orderly teardown.  Lose the daemon and
you lose every slot on it at once, which is exactly the failure the
supervisor's reschedule rung exists for.

Parent side, a :class:`HostHandle` spawns the daemon
(:func:`HostHandle.spawn` — the child binds ``127.0.0.1:0`` and
reports its port back over a pipe, so no port is ever guessed),
answers liveness probes, carries the parent-side **partition gate**,
and hands out per-slot :class:`~repro.sim.transport.SlotClient`\\ s.
A crashed daemon is restarted the same way (:meth:`HostHandle.respawn`
— spawn again, learn the new port), so a respawned host is
indistinguishable from the original one.

Daemon side, requests are served thread-per-connection: a slot's
request stream is serial (the supervisor drives one in-flight verb
per slot), while ``ping`` arrives on its own connection and is
answered even while every slot is busy mid-chunk — that is what makes
heartbeats meaningful during long barriers.

Fault injection (:mod:`repro.sim.faults`) threads through the request
itself: the one sabotaged message carries its
:class:`~repro.sim.faults.FaultEvent`, and the daemon applies it at
the matching point — ``crash`` exits the whole daemon hard before
dispatch, ``hang`` sleeps before dispatch, ``build_raise`` fails the
build, ``corrupt_digest`` mangles the captured checkpoint,
``delay_msg`` sleeps before the reply,
``drop_msg`` does the work but swallows the reply (the parent *must*
restore before re-running, or state would diverge), and ``dup_msg``
sends the reply twice for the framing layer's sequence numbers to
discard.  ``partition`` never reaches the daemon at all — it is the
parent-side gate.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from dataclasses import replace as _dc_replace
from typing import Dict, Optional

from ..errors import HostUnreachable, ShardFailure, TransportError
from . import checkpoint as _checkpoint
from . import transport
from .faults import BUILD_RAISE, CORRUPT_DIGEST, CRASH, DELAY_MSG, \
    DROP_MSG, DUP_MSG, HANG
from .shards import ShardReport, _world_report
from .world import World

#: How long the parent waits for a freshly spawned daemon to report
#: its port before declaring the spawn failed.
SPAWN_TIMEOUT_S = 30.0

#: Exit status for injected hard crashes (``crash``).
_CRASH_STATUS = 23


# -- daemon side --------------------------------------------------------------


class _Slot:
    """One shard slice resident in this daemon."""

    __slots__ = ("world", "pickle_ok")

    def __init__(self) -> None:
        self.world: Optional[World] = None
        #: Sticky capture method: None = untried, else whether pickle
        #: worked.  A world running live programs refuses to pickle
        #: once and the slot stops re-paying the attempt every barrier.
        self.pickle_ok: Optional[bool] = None


def _slot_of(slots: Dict[int, _Slot], lock: threading.Lock,
             slot_id: int) -> _Slot:
    with lock:
        slot = slots.get(slot_id)
        if slot is None:
            slot = slots[slot_id] = _Slot()
        return slot


def _dispatch(msg: dict, slots: Dict[int, _Slot],
              lock: threading.Lock) -> object:
    """Execute one verb against its slot; returns the result value."""
    verb = msg["verb"]
    if verb == "ping":
        return "pong"
    slot = _slot_of(slots, lock, msg["slot"])
    if verb == "build":
        fault = msg.get("fault")
        if fault is not None and fault.kind == BUILD_RAISE:
            raise ShardFailure(
                f"injected builder fault (shard slice "
                f"[{msg['lo']}, {msg['hi']}))")
        world = World(**msg["world_kwargs"])
        msg["builder"](world, msg["lo"], msg["hi"])
        slot.world = world
        slot.pickle_ok = None
        return len(world.devices)
    if verb == "run":
        world = slot.world
        if world is None:
            raise TransportError(f"slot {msg['slot']} has no world")
        begin = time.perf_counter()
        world.run(msg["chunk_s"])
        ckpt = None
        if msg["want_checkpoint"]:
            ckpt = _checkpoint.capture(
                world, msg["barrier"] + 1,
                try_pickle=slot.pickle_ok is not False)
            slot.pickle_ok = ckpt.method == _checkpoint.METHOD_PICKLE
            fault = msg.get("fault")
            if fault is not None and fault.kind == CORRUPT_DIGEST:
                ckpt = _dc_replace(ckpt,
                                   digest="corrupt:" + ckpt.digest[8:])
        wall = time.perf_counter() - begin
        return world.now, wall, ckpt
    if verb == "restore":
        slot.world = _checkpoint.restore(
            msg["ckpt"], builder=msg["builder"], lo=msg["lo"],
            hi=msg["hi"], world_kwargs=msg["world_kwargs"],
            chunks=msg["chunks"])
        slot.pickle_ok = None
        return slot.world.now
    if verb == "finish":
        world = slot.world
        if world is None:
            raise TransportError(f"slot {msg['slot']} has no world")
        report: ShardReport = _world_report(
            world, msg["shard"], msg["lo"], msg["hi"], msg["wall_s"])
        return report
    raise TransportError(f"unknown verb {verb!r}")


def _serve(sock: socket.socket, slots: Dict[int, _Slot],
           lock: threading.Lock) -> None:
    """Drive one connection's request stream until the peer leaves."""
    try:
        while True:
            try:
                msg = transport.recv_msg(sock)
            except TransportError:
                return
            if not isinstance(msg, dict):
                return
            fault = msg.get("fault")
            if fault is not None:
                if fault.kind == CRASH:
                    os._exit(_CRASH_STATUS)
                if fault.kind == HANG:
                    time.sleep(fault.hang_s)
            if msg.get("verb") == "shutdown":
                transport.send_msg(
                    sock, {"seq": msg.get("seq"), "ok": True,
                           "result": None})
                os._exit(0)
            try:
                result = _dispatch(msg, slots, lock)
                reply = {"seq": msg.get("seq"), "ok": True,
                         "result": result}
            except BaseException as exc:
                reply = {"seq": msg.get("seq"), "ok": False,
                         "kind": type(exc).__name__, "error": str(exc)}
            if fault is not None and fault.kind == DROP_MSG:
                continue  # the work happened; the reply is lost
            if fault is not None and fault.kind == DELAY_MSG:
                time.sleep(fault.delay_s)
            repeats = 2 if (fault is not None
                            and fault.kind == DUP_MSG) else 1
            try:
                for _ in range(repeats):
                    transport.send_msg(sock, reply)
            except TransportError:
                return
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass


def _hostd_main(port_pipe) -> None:
    """Daemon entry point: bind, report the port, serve forever."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(32)
    port_pipe.send(listener.getsockname()[1])
    port_pipe.close()
    slots: Dict[int, _Slot] = {}
    lock = threading.Lock()
    while True:
        try:
            sock, _peer = listener.accept()
        except OSError:  # pragma: no cover - listener torn down
            return
        threading.Thread(target=_serve, args=(sock, slots, lock),
                         daemon=True).start()


# -- parent side --------------------------------------------------------------


class HostHandle:
    """The supervisor's view of one shard host.

    Owns the daemon process, its address, the partition gate, and the
    liveness probe.  All placement policy lives in the supervisor;
    this class only answers "is this host usable" and hands out slot
    channels.
    """

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self.process: Optional[multiprocessing.Process] = None
        self.address: Optional[transport.Address] = None
        #: Parent-side network partition: permanent for the run.
        self.partitioned = False
        #: Persistent heartbeat channel, dialed lazily by :meth:`ping`
        #: and dropped on any transport error so the next ping redials.
        self._control: Optional[transport.Connection] = None
        self._control_seq = 0

    def spawn(self) -> None:
        """Start (or restart) the daemon and learn its port."""
        ctx = multiprocessing.get_context()
        parent_pipe, child_pipe = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_hostd_main, args=(child_pipe,), daemon=True,
            name=f"repro-hostd-{self.host_id}")
        self.process.start()
        child_pipe.close()
        if not parent_pipe.poll(SPAWN_TIMEOUT_S):
            self.stop(0.0)
            raise HostUnreachable(
                f"host {self.host_id} never reported a port")
        port = parent_pipe.recv()
        parent_pipe.close()
        self.address = ("127.0.0.1", port)
        self.partitioned = False
        self._drop_control()

    def respawn(self, grace_s: float) -> bool:
        """Restart a daemon whose process has exited; True on success.

        A partitioned host is not restarted (its daemon lives on,
        unreachable), nor is one whose process is still running
        ``grace_s`` later: it may be slow, not dead.
        """
        if self.partitioned or self.process is None:
            return False
        self.process.join(timeout=grace_s)
        if self.process.exitcode is None:
            return False
        try:
            self.spawn()
        except HostUnreachable:
            return False
        return True

    def gate(self) -> None:
        """Raise when the network to this host is (simulated) cut."""
        if self.partitioned:
            raise HostUnreachable(
                f"host {self.host_id} is partitioned from the parent")

    def partition(self) -> None:
        """Cut the parent's network to this host for the rest of the
        run.  The daemon process survives (it is *unreachable*, not
        dead) until :meth:`stop` forcibly terminates it."""
        self.partitioned = True

    def probe(self) -> None:
        """Heartbeat: raise :class:`HostUnreachable` if this host is
        partitioned, its process is gone, or it stops answering
        ``ping``."""
        self.gate()
        if self.process is None or not self.process.is_alive():
            raise HostUnreachable(
                f"host {self.host_id} daemon process is gone")
        self.ping()

    def _drop_control(self) -> None:
        if self._control is not None:
            self._control.close()
            self._control = None

    def ping(self, timeout_s: float = 2.0) -> None:
        """One ``ping`` round trip on the persistent control channel.

        The channel is dialed lazily on first use and kept open —
        heartbeats fire every ``heartbeat_s`` between barriers, and a
        fresh TCP dial (plus a daemon accept thread) per probe is
        wall-clock the supervisor cannot afford on a busy host.  Any
        transport error tears the channel down so the next ping
        redials against a restarted daemon.
        """
        assert self.address is not None
        self.gate()
        try:
            if self._control is None:
                self._control = transport.connect(
                    self.address, attempts=1, timeout_s=timeout_s,
                    gate=self.gate)
            self._control_seq += 1
            self._control.send(
                {"verb": "ping", "slot": -1, "seq": self._control_seq,
                 "fault": None}, timeout_s=timeout_s)
            self._control.recv(timeout_s=timeout_s)
        except TransportError:
            self._drop_control()
            raise

    def usable(self) -> bool:
        """True when this host can accept (re)scheduled shards."""
        try:
            self.probe()
        except Exception:
            return False
        return True

    def slot_client(self, slot: int) -> transport.SlotClient:
        assert self.address is not None
        return transport.SlotClient(self.address, slot, gate=self.gate)

    def _shutdown(self) -> bool:
        """Ask the daemon to exit; True when it acknowledged."""
        if self.partitioned or self.address is None:
            return False
        try:
            conn = transport.connect(self.address, attempts=1,
                                     timeout_s=2.0)
            try:
                conn.send({"verb": "shutdown", "slot": -1, "seq": 0,
                           "fault": None}, timeout_s=2.0)
                conn.recv(timeout_s=2.0)
            finally:
                conn.close()
        except TransportError:
            return False
        return True

    def stop(self, drain_timeout_s: float = 5.0) -> int:
        """Tear the daemon down; returns forced terminations (0/1).

        A reachable daemon is asked to exit (``shutdown`` verb) and
        joined within ``drain_timeout_s``.  One that never got the
        request — partitioned or unresponsive — is terminated at once
        (there is nothing to wait for), then killed if SIGTERM is
        ignored; either way it counts as forced.
        """
        self._drop_control()
        proc = self.process
        if proc is None:
            return 0
        forced = 0
        if proc.is_alive() and self._shutdown():
            proc.join(timeout=drain_timeout_s)
        if proc.is_alive():
            forced = 1
            proc.terminate()
            proc.join(timeout=drain_timeout_s)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=drain_timeout_s)
        self.process = None
        return forced
