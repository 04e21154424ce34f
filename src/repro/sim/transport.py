"""Socket shard transport: framing, timeouts, reconnect, heartbeats.

The wire under the shard tier: :class:`~repro.sim.shards.ShardedWorld`
reaches every shard slot on a :mod:`repro.sim.hostd` daemon through
it.  The slot protocol is message-shaped (build / advance-to-barrier
/ restore / digest); this module gives those messages a real
transport so shards live in daemon processes reached only by TCP —
today a localhost multi-daemon topology, by construction the same
wire format a multi-host fleet speaks.

The contract, piece by piece:

* **Framing** — every message is one length-prefixed pickle frame: an
  8-byte big-endian length followed by the payload
  (:func:`send_msg` / :func:`recv_msg`).  Frames are bounded
  (:data:`MAX_FRAME_BYTES`) so a corrupt length prefix fails loudly
  instead of allocating the moon.
* **Per-message deadlines** — send and recv each take a ``timeout_s``
  enforced across the *whole* frame (a peer trickling one byte per
  second cannot stall past the deadline).  A miss raises
  :class:`~repro.errors.TransportTimeout`; any other socket failure
  (peer closed mid-frame, reset) raises
  :class:`~repro.errors.TransportError`.
* **Bounded exponential-backoff reconnect** — :func:`connect` retries
  a refused/reset dial ``attempts`` times, sleeping
  ``backoff_s * 2**(attempt-1)`` between tries, then gives up with
  :class:`~repro.errors.HostUnreachable`.  The schedule matches the
  supervisor's retry backoff so the two ladders compose predictably.
* **Request/response with sequence numbers** — a :class:`SlotClient`
  tags every request with a monotonically increasing ``seq`` and
  collects replies until the matching ``seq`` arrives, *discarding*
  stale or duplicated replies — a ``dup_msg`` network fault is
  absorbed here, invisibly to the supervisor.
* **Liveness heartbeats** — :meth:`SlotClient.collect` accepts a
  ``probe`` callable invoked every ``probe_interval_s`` while a reply
  is pending.  The supervisor passes the host's heartbeat (process
  liveness + a TCP ``ping`` verb answered outside the slot locks), so
  a dead or partitioned host is detected between barriers in
  heartbeat time instead of only at the barrier deadline — and a
  fleet with ``barrier_timeout_s=None`` still recovers from host
  crashes.

Everything here is parent-side policy-free: drop/delay/dup faults are
*executed* daemon-side (:mod:`repro.sim.hostd`) against the reply,
and partitions are a parent-side gate (``SlotClient`` ``gate``
callable) — this module just surfaces the resulting timeouts and
unreachability as typed errors for the supervisor's ladder.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from typing import Callable, Optional, Tuple

from ..errors import HostUnreachable, TransportError, TransportTimeout

#: Frame header: unsigned 64-bit big-endian payload length.
_HEADER = struct.Struct(">Q")

#: Upper bound on a single frame's payload (a full 1k-device shard
#: digest is well under a megabyte; anything near this is corruption).
MAX_FRAME_BYTES = 1 << 30

#: Default dial behaviour: 5 attempts, 50 ms doubling backoff —
#: ~0.8 s worst case before a host is declared unreachable.
CONNECT_ATTEMPTS = 5
CONNECT_BACKOFF_S = 0.05
CONNECT_TIMEOUT_S = 5.0

#: Default cadence for liveness probes while a reply is pending.
HEARTBEAT_INTERVAL_S = 0.5

Address = Tuple[str, int]


def _recv_exact(sock: socket.socket, count: int,
                deadline: Optional[float]) -> bytes:
    """Read exactly ``count`` bytes, honoring one deadline overall."""
    buf = bytearray()
    while len(buf) < count:
        if deadline is None:
            sock.settimeout(None)
        else:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout(
                    f"recv deadline passed with {count - len(buf)} of "
                    f"{count} bytes outstanding")
            sock.settimeout(remaining)
        try:
            chunk = sock.recv(min(count - len(buf), 1 << 20))
        except socket.timeout as exc:
            raise TransportTimeout(
                f"recv timed out with {count - len(buf)} of {count} "
                f"bytes outstanding") from exc
        except OSError as exc:
            raise TransportError(f"recv failed: {exc!r}") from exc
        if not chunk:
            raise TransportError("peer closed the connection mid-frame")
        buf += chunk
    return bytes(buf)


def send_msg(sock: socket.socket, obj: object,
             timeout_s: Optional[float] = None) -> None:
    """Send one length-prefixed pickle frame, whole or not at all."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            f"refusing to send a {len(payload)}-byte frame")
    sock.settimeout(timeout_s)
    try:
        sock.sendall(_HEADER.pack(len(payload)) + payload)
    except socket.timeout as exc:
        raise TransportTimeout(
            f"send of {len(payload)} bytes timed out") from exc
    except OSError as exc:
        raise TransportError(f"send failed: {exc!r}") from exc


def recv_msg(sock: socket.socket,
             timeout_s: Optional[float] = None) -> object:
    """Receive one frame; the deadline covers header and payload."""
    deadline = (None if timeout_s is None
                else time.monotonic() + timeout_s)
    header = _recv_exact(sock, _HEADER.size, deadline)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame header claims {length} bytes — corrupt stream")
    payload = _recv_exact(sock, length, deadline)
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise TransportError(f"frame failed to unpickle: {exc!r}") from exc


class Connection:
    """One framed TCP connection with per-message deadlines."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send(self, obj: object,
             timeout_s: Optional[float] = None) -> None:
        send_msg(self._sock, obj, timeout_s)

    def recv(self, timeout_s: Optional[float] = None) -> object:
        return recv_msg(self._sock, timeout_s)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close races are benign
            pass


def connect(address: Address, *,
            attempts: int = CONNECT_ATTEMPTS,
            backoff_s: float = CONNECT_BACKOFF_S,
            timeout_s: float = CONNECT_TIMEOUT_S,
            gate: Optional[Callable[[], None]] = None) -> Connection:
    """Dial ``address`` with bounded exponential-backoff retries.

    ``gate`` (when given) is invoked before every attempt; the
    supervisor uses it to make a partitioned host fail fast instead of
    burning the whole backoff schedule against a reachable-but-severed
    daemon.  Raises :class:`HostUnreachable` once the budget is spent.
    """
    last: Optional[Exception] = None
    for attempt in range(1, max(1, attempts) + 1):
        if gate is not None:
            gate()
        try:
            sock = socket.create_connection(address, timeout=timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return Connection(sock)
        except OSError as exc:
            last = exc
            if attempt < attempts:
                time.sleep(backoff_s * (2 ** (attempt - 1)))
    raise HostUnreachable(
        f"host {address[0]}:{address[1]} unreachable after "
        f"{attempts} connect attempts ({last!r})")


class SlotClient:
    """The request/response channel for one shard slot on one host.

    Lazily connected (so a client can be constructed for a host that
    is still booting), sequence-numbered (so duplicated or stale
    replies are discarded at the framing layer), and probe-aware (so
    long waits detect host death in heartbeat time).  A transport
    failure poisons the connection; the next request redials through
    the backoff schedule.
    """

    def __init__(self, address: Address, slot: int, *,
                 gate: Optional[Callable[[], None]] = None,
                 connect_attempts: int = CONNECT_ATTEMPTS,
                 connect_backoff_s: float = CONNECT_BACKOFF_S) -> None:
        self.address = address
        self.slot = slot
        self._gate = gate
        self._connect_attempts = connect_attempts
        self._connect_backoff_s = connect_backoff_s
        self._conn: Optional[Connection] = None
        self._seq = 0

    def _ensure(self) -> Connection:
        if self._conn is None:
            self._conn = connect(
                self.address, attempts=self._connect_attempts,
                backoff_s=self._connect_backoff_s, gate=self._gate)
        return self._conn

    def _reset(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def begin(self, verb: str, fault=None, **payload) -> int:
        """Send one request; the reply is claimed by :meth:`collect`."""
        if self._gate is not None:
            self._gate()
        conn = self._ensure()
        self._seq += 1
        message = {"verb": verb, "slot": self.slot, "seq": self._seq,
                   "fault": fault}
        message.update(payload)
        try:
            conn.send(message, timeout_s=CONNECT_TIMEOUT_S)
        except TransportError:
            self._reset()
            raise
        return self._seq

    def collect(self, timeout_s: Optional[float] = None,
                probe: Optional[Callable[[], None]] = None,
                probe_interval_s: float = HEARTBEAT_INTERVAL_S) -> object:
        """Wait for the pending request's reply.

        Replies whose ``seq`` trails the pending request are stale or
        duplicated and are dropped silently.  While waiting, ``probe``
        runs every ``probe_interval_s`` — it raises
        :class:`HostUnreachable` when the host is dead, which
        propagates immediately instead of waiting out ``timeout_s``.
        """
        want = self._seq
        conn = self._ensure()
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        while True:
            if self._gate is not None:
                self._gate()
            if deadline is None:
                slice_s = probe_interval_s if probe is not None else None
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._reset()
                    raise TransportTimeout(
                        f"slot {self.slot} reply (seq {want}) missed "
                        f"its {timeout_s:.3f}s deadline")
                slice_s = (min(remaining, probe_interval_s)
                           if probe is not None else remaining)
            try:
                reply = conn.recv(timeout_s=slice_s)
            except TransportTimeout:
                if probe is not None:
                    probe()
                if deadline is not None \
                        and time.monotonic() >= deadline:
                    self._reset()
                    raise TransportTimeout(
                        f"slot {self.slot} reply (seq {want}) missed "
                        f"its {timeout_s:.3f}s deadline")
                continue
            except TransportError:
                self._reset()
                raise
            if not isinstance(reply, dict) or reply.get("seq") != want:
                continue  # stale or duplicated reply: discard
            if not reply.get("ok"):
                raise TransportError(
                    f"slot {self.slot} remote "
                    f"{reply.get('kind', 'error')}: "
                    f"{reply.get('error', 'unknown failure')}")
            return reply.get("result")

    def call(self, verb: str, timeout_s: Optional[float] = None,
             probe: Optional[Callable[[], None]] = None,
             probe_interval_s: float = HEARTBEAT_INTERVAL_S,
             fault=None, **payload) -> object:
        """One synchronous request/response round trip."""
        self.begin(verb, fault=fault, **payload)
        return self.collect(timeout_s, probe, probe_interval_s)

    def close(self) -> None:
        self._reset()
