"""Deterministic fault injection for sharded fleet chaos runs.

Recovery code that is only exercised by real crashes is untestable;
recovery code exercised by *seeded, replayable* crashes can be
asserted bit-identical to the fault-free run.  A :class:`FaultPlan`
is a fixed list of :class:`FaultEvent` records — crash at barrier
*k*, hang-for-*T*, builder raise, corrupt-digest, lost or late or
duplicated reply, partition — drawn deterministically from a seed
(:meth:`FaultPlan.seeded`) or written out explicitly.  The
:class:`~repro.sim.shards.ShardedWorld` supervisor consumes events
parent-side (:meth:`FaultPlan.take`) and embeds each in the one
request it sabotages (or, for a partition, applies it to the one host
link it cuts), so each fault fires exactly once: the retried
execution after recovery does not re-trip the same injection, and a
chaos run's :meth:`~repro.sim.shards.FleetReport.digest` is a pure
function of ``(fleet seed, fault seed)``.  So is its recovery
telemetry while no two shards share a host when a ``crash`` fires:
the crash takes every slot on its daemon, and whether a co-hosted
shard's reply beat the exit is a race.  The shard-host daemon
(:mod:`repro.sim.hostd`) executes the embedded faults.

Fault kinds carried by a shard's barrier ``run`` request:

* ``crash`` — the daemon hosting the shard exits hard (``os._exit``)
  before running the chunk: a host loss, so the supervisor respawns
  the daemon, reschedules every shard it held onto it, and restores
  each from its last barrier checkpoint.
* ``hang`` — the daemon's slot thread sleeps ``hang_s`` before the
  chunk: the reply's deadline fires on a host that still answers
  heartbeats, so the shard retries on the same host in a fresh slot.
* ``corrupt_digest`` — the checkpoint captured at barrier *k* carries
  a mangled digest: every later restore attempt fails validation
  (:class:`~repro.errors.CheckpointError`), walking the shard down
  the full ladder to inline execution in the parent — which rebuilds
  from scratch and stays bit-identical.

``build_raise`` rides the ``build`` request instead: the shard's
builder raises during initial world construction and the supervisor
retries the build.

Network fault kinds (see :mod:`repro.sim.transport`):

* ``drop_msg`` — the host daemon executes the barrier request but its
  reply is lost: the parent's recv deadline fires and recovery
  restores the slot (rewinding the duplicated execution) before
  re-running the chunk.
* ``delay_msg`` — the reply is delayed ``delay_s``: shorter than the
  deadline it is pure latency, longer it degenerates to ``drop_msg``.
  Either way the digest is unchanged.
* ``dup_msg`` — the reply is sent twice: the framing layer's sequence
  numbers discard the duplicate, so nothing recovers because nothing
  failed.
* ``partition`` — the network to the shard's current host is cut
  (parent-side gate, permanent for the run): a host loss that cannot
  be respawned, so its shards reschedule onto another usable host;
  the daemon process itself survives until teardown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, List, Optional, Sequence, Set

import numpy as np

from ..errors import SimulationError

#: Fault kinds (see module docstring for semantics).
CRASH = "crash"
HANG = "hang"
BUILD_RAISE = "build_raise"
CORRUPT_DIGEST = "corrupt_digest"
DROP_MSG = "drop_msg"
DELAY_MSG = "delay_msg"
DUP_MSG = "dup_msg"
PARTITION = "partition"

#: Kinds a barrier ``run`` request carries to the slot's world.
RUNTIME_KINDS = frozenset({CRASH, HANG, CORRUPT_DIGEST})
#: Kinds a ``build`` request carries.
BUILD_KINDS = frozenset({BUILD_RAISE})
#: Network kinds, also carried by barrier requests: message-level
#: faults sabotage one request/reply exchange, a partition cuts the
#: parent off from a whole shard host.
NETWORK_KINDS = frozenset({DROP_MSG, DELAY_MSG, DUP_MSG, PARTITION})
ALL_KINDS = RUNTIME_KINDS | BUILD_KINDS | NETWORK_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: ``kind`` on ``shard`` at barrier ``barrier``.

    ``barrier`` is the 0-based chunk index whose execution the fault
    precedes (for ``build_raise`` it is ignored — builds happen once,
    before barrier 0).  ``hang_s`` only applies to ``hang``;
    ``delay_s`` only to ``delay_msg``.
    """

    shard: int
    barrier: int
    kind: str
    hang_s: float = 0.0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise SimulationError(f"unknown fault kind {self.kind!r}")
        if self.kind == HANG and self.hang_s <= 0:
            raise SimulationError("a hang fault needs hang_s > 0")
        if self.kind == DELAY_MSG and self.delay_s <= 0:
            raise SimulationError("a delay_msg fault needs delay_s > 0")


class FaultPlan:
    """A replayable schedule of injected shard faults.

    Events are consumed parent-side exactly once per run
    (:meth:`take`); :meth:`reset` rewinds the plan so the same
    ``ShardedWorld`` can re-run the identical chaos experiment.
    """

    def __init__(self, events: Sequence[FaultEvent] = (),
                 seed: Optional[int] = None) -> None:
        self.events: List[FaultEvent] = list(events)
        self.seed = seed
        self._consumed: Set[int] = set()

    @classmethod
    def seeded(cls, seed: int, *, shards: int, barriers: int,
               crashes: int = 1, hangs: int = 0,
               corrupt_digests: int = 0, build_raises: int = 0,
               drop_msgs: int = 0, delay_msgs: int = 0,
               dup_msgs: int = 0, partitions: int = 0,
               hang_s: float = 30.0, delay_s: float = 0.5
               ) -> "FaultPlan":
        """Draw a plan deterministically from ``seed``.

        Runtime and network faults land on distinct ``(shard,
        barrier)`` slots so no single barrier submission carries two
        injections; build raises land on distinct shards.  The same
        seed and shape always produce the same plan.
        """
        if shards <= 0 or barriers <= 0:
            raise SimulationError("need at least one shard and barrier")
        runtime = (crashes + hangs + corrupt_digests + drop_msgs
                   + delay_msgs + dup_msgs + partitions)
        slots = shards * barriers
        if runtime > slots:
            raise SimulationError(
                f"{runtime} runtime faults do not fit {slots} "
                f"(shard, barrier) slots")
        if build_raises > shards:
            raise SimulationError(
                f"{build_raises} build faults do not fit {shards} shards")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        kinds = ([CRASH] * crashes + [HANG] * hangs
                 + [CORRUPT_DIGEST] * corrupt_digests
                 + [DROP_MSG] * drop_msgs + [DELAY_MSG] * delay_msgs
                 + [DUP_MSG] * dup_msgs + [PARTITION] * partitions)
        for pick, kind in zip(rng.choice(slots, size=runtime,
                                         replace=False), kinds):
            shard, barrier = divmod(int(pick), barriers)
            events.append(FaultEvent(
                shard=shard, barrier=barrier, kind=kind,
                hang_s=hang_s if kind == HANG else 0.0,
                delay_s=delay_s if kind == DELAY_MSG else 0.0))
        if build_raises:
            for shard in rng.choice(shards, size=build_raises,
                                    replace=False):
                events.append(FaultEvent(shard=int(shard), barrier=0,
                                         kind=BUILD_RAISE))
        return cls(events, seed=seed)

    def reset(self) -> None:
        """Rewind consumption; the next run replays every event."""
        self._consumed.clear()

    def take(self, shard: int, barrier: int,
             kinds: Collection[str] = RUNTIME_KINDS
             ) -> Optional[FaultEvent]:
        """Consume and return the pending fault for this submission.

        Returns ``None`` when nothing is scheduled here (or it already
        fired — recovery retries must not re-trip the injection).
        """
        for index, event in enumerate(self.events):
            if index in self._consumed:
                continue
            if event.kind not in kinds:
                continue
            if event.shard != shard:
                continue
            if event.kind not in BUILD_KINDS and event.barrier != barrier:
                continue
            self._consumed.add(index)
            return event
        return None

    def pending(self) -> List[FaultEvent]:
        """Events not yet consumed this run."""
        return [event for index, event in enumerate(self.events)
                if index not in self._consumed]

    @property
    def consumed(self) -> int:
        """Events already injected this run."""
        return len(self._consumed)

    def count(self, kind: str) -> int:
        """How many events of ``kind`` the plan schedules in total."""
        return sum(1 for event in self.events if event.kind == kind)

