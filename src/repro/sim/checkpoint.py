"""Barrier checkpoints: capture, validate and restore World state.

The fault-tolerance substrate for sharded fleets (and the
load-bearing prerequisite for the multi-host transport on the
ROADMAP): a shard whose daemon crashes, hangs or raises mid-barrier
must be rebuildable to *exactly* the state it held at the last clock
barrier, or recovery would silently fork the simulation.  Two
capture methods, tried in order:

* **pickle snapshot** — :func:`snapshot_world` serializes the whole
  :class:`~repro.sim.world.World` object graph and validates it by a
  digest round-trip (unpickle the blob, re-digest, compare) before
  anyone trusts it.  Engine components deliberately avoid lambdas and
  local closures (see :class:`~repro.sim.clock.ClockNow`) so
  process-less worlds pickle cleanly; a world running live simulated
  programs cannot — generators do not pickle — and falls through to:
* **rebuild-and-replay** — reconstruct from the picklable
  ``builder(world, lo, hi)`` and deterministically re-run the exact
  barrier chunk sequence.  The simulation is seeded and entropy-free,
  so the replayed world is bit-identical to the lost one (the sharded
  parity suite pins this); replay is therefore the *authoritative*
  recovery and the digest merely cross-checks it.

Either way a :class:`Checkpoint` carries the state digest taken at
capture time; :func:`restore` refuses (:class:`~repro.errors.
CheckpointError`) any restoration whose digest disagrees, so a
corrupted checkpoint degrades loudly instead of diverging quietly.

Digests hash the bit-exact state of every device — clock, counters,
netd pool, battery, meter, reserve levels — as packed machine integers
and doubles, so "bit-identical" is literal, not approximate.
"""

from __future__ import annotations

import hashlib
import pickle
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..errors import CheckpointError
from .world import World

#: Capture methods recorded on a :class:`Checkpoint`.
METHOD_PICKLE = "pickle"
METHOD_REPLAY = "replay"


def _device_state(runtime) -> Tuple[array, array]:
    """The bit-exact state of one device: its counts and its floats,
    packed (hashing the raw bytes costs less than formatting them)."""
    reserves = runtime.graph.reserves
    counts = array("q", (
        runtime.clock.ticks,
        runtime.fast_forwarded_ticks,
        runtime.span_refusals,
        runtime.radio.activation_count,
        runtime.netd.stats.operations,
        runtime.meter.sample_count,
        len(reserves),
    ))
    floats = array("d", (
        runtime.clock.now,
        runtime.netd.stats.total_wait_seconds,
        runtime.netd.pool.level,
        runtime.battery.charge_joules,
        runtime.meter.total_energy_joules,
    ))
    floats.extend([r.level for r in reserves])
    return counts, floats


def world_digest(world: World) -> str:
    """A stable hash of the fleet's bit-exact simulation state.

    Two worlds with equal digests agree on every field the parity
    suites compare bit-for-bit: event counts, clock ticks, pool and
    reserve levels, battery charge and metered energy.  Heuristic
    caches (cohort tokens, churn counters, horizon targets) are
    deliberately excluded — they may differ between a restored world
    and the original without changing a single sample.
    """
    digest = hashlib.sha256()
    for name, runtime in world._by_name.items():
        counts, floats = _device_state(runtime)
        digest.update(name.encode())
        digest.update(b"\x1f")
        digest.update(counts)
        digest.update(floats)
        digest.update(b"\x1e")
    return digest.hexdigest()


def _live_programs(world: World) -> bool:
    """Whether any device still runs a program (a live generator,
    which never pickles)."""
    return any(not process.finished
               for device in world.devices for process in device.processes)


@dataclass
class Checkpoint:
    """One shard's recoverable state at a clock barrier.

    ``payload`` is a validated pickle blob when the world state could
    snapshot (:attr:`method` ``"pickle"``), or ``None`` when recovery
    must rebuild from the builder and replay (:attr:`method`
    ``"replay"``).  ``barrier`` counts the chunks completed at capture
    — the replay recipe is exactly ``chunks[:barrier]``.
    """

    barrier: int
    now: float
    digest: str
    payload: Optional[bytes]
    method: str


def snapshot_world(world: World) -> bytes:
    """Pickle ``world``, validated by a digest round-trip.

    The returned blob embeds the state digest; :func:`restore_snapshot`
    re-validates on load.  Raises :class:`CheckpointError` when the
    world refuses to pickle (live generator programs, probe closures)
    or when the round-trip does not reproduce the digest — a snapshot
    that cannot prove itself is worse than none.
    """
    digest = world_digest(world)
    try:
        payload = pickle.dumps((digest, world),
                               protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"world state refused to snapshot: {exc!r}") from exc
    try:
        _, clone = pickle.loads(payload)
        clone_digest = world_digest(clone)
    except Exception as exc:
        raise CheckpointError(
            f"snapshot failed to round-trip: {exc!r}") from exc
    if clone_digest != digest:
        raise CheckpointError(
            "snapshot round-trip diverged from the live world "
            f"({clone_digest[:12]} != {digest[:12]})")
    return payload


def restore_snapshot(payload: bytes) -> World:
    """Load a :func:`snapshot_world` blob, re-validating its digest."""
    try:
        digest, world = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"snapshot payload failed to load: {exc!r}") from exc
    restored = world_digest(world)
    if restored != digest:
        raise CheckpointError(
            "restored world does not match its snapshot digest "
            f"({restored[:12]} != {digest[:12]})")
    # id()-keyed batching heuristics are meaningless in a new object
    # graph; bit-identity does not depend on them (batching is a
    # bit-identical contract), so drop rather than trust stale keys.
    world._churn.clear()
    return world


def capture(world: World, barrier: int,
            try_pickle: bool = True) -> Checkpoint:
    """Checkpoint ``world`` at a barrier, degrading pickle → replay.

    ``try_pickle=False`` skips the (one-time, possibly partial) pickle
    attempt — shard slots remember that a world with live programs
    refused once and do not re-pay the attempt every barrier.  A world
    running a program skips it too: its generator cannot pickle.
    """
    digest = world_digest(world)
    payload = None
    method = METHOD_REPLAY
    if try_pickle and not _live_programs(world):
        try:
            payload = snapshot_world(world)
            method = METHOD_PICKLE
        except CheckpointError:
            payload = None
    return Checkpoint(barrier=barrier, now=world.now, digest=digest,
                      payload=payload, method=method)


def rebuild_replay(builder: Callable, lo: int, hi: int,
                   world_kwargs: Dict, chunks: Sequence[float]) -> World:
    """Reconstruct a shard slice and deterministically re-run it.

    The authoritative recovery: the same picklable builder over the
    same global device range, advanced through the identical barrier
    chunk sequence, reproduces the lost world bit-for-bit (devices are
    keyed off their global index and the simulation draws no real
    entropy).
    """
    world = World(**world_kwargs)
    builder(world, lo, hi)
    for chunk in chunks:
        world.run(chunk)
    return world


def restore(checkpoint: Optional[Checkpoint], *, builder: Callable,
            lo: int, hi: int, world_kwargs: Dict,
            chunks: Sequence[float]) -> World:
    """Recover a shard's world from its last barrier checkpoint.

    The degradation order the docs contract specifies: unpickle the
    snapshot payload (digest-validated) when one exists, else — or
    when the payload fails validation — rebuild from the builder and
    replay ``chunks``.  Either result must reproduce the checkpoint
    digest or :class:`CheckpointError` is raised; a ``None``
    checkpoint (capture disabled, or failure before the first barrier
    completed) replays every chunk the caller hands over — the caller
    owns the recipe — with nothing to validate against.
    """
    if checkpoint is not None and checkpoint.payload is not None:
        try:
            return restore_snapshot(checkpoint.payload)
        except CheckpointError:
            pass  # fall through to rebuild-and-replay
    replay = chunks if checkpoint is None else chunks[:checkpoint.barrier]
    world = rebuild_replay(builder, lo, hi, world_kwargs, replay)
    if checkpoint is not None:
        rebuilt = world_digest(world)
        if rebuilt != checkpoint.digest:
            raise CheckpointError(
                f"rebuild-and-replay of shard slice [{lo}, {hi}) does "
                f"not match the barrier-{checkpoint.barrier} digest "
                f"({rebuilt[:12]} != {checkpoint.digest[:12]})")
    return world
