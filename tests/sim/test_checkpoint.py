"""Barrier checkpoints: snapshot/restore round-trips and replay.

The recovery contract is bit-identity: a restored (or rebuilt and
replayed) world must continue producing exactly the samples the lost
one would have.  These tests pin both capture methods —

* pickle snapshots round-trip digest-validated and the restored world,
  run further, stays bit-identical to the original;
* worlds running live simulated programs (generators) refuse to
  snapshot with :class:`CheckpointError` and fall back to the replay
  recipe, whose rebuilt world also validates against the captured
  digest;

— on randomized heterogeneous fleets (pollers, switchers, chained
reserves) and on devices caught mid-``ServiceCall``.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.tap import TapType
from repro.errors import CheckpointError
from repro.sim import checkpoint
from repro.sim.workload import poller_shard
from repro.sim.world import World

from .test_fleet_parity import assert_fleets_match, build_random_fleet


def build_quiet_fleet(world: World, lo: int, hi: int) -> None:
    """Devices with taps, debt and consumption but no programs.

    No generators anywhere in the object graph, so the world is the
    pickle-snapshot happy path.
    """
    for i in range(lo, hi):
        device = world.add_device(name=f"q{i}", record_interval_s=1.0,
                                  decay_enabled=False)
        app = device.powered_reserve(0.05 + 0.01 * i, name=f"q{i}.app")
        sub = device.new_reserve(name=f"q{i}.sub")
        device.kernel.create_tap(app, sub, 0.04, TapType.PROPORTIONAL,
                                 name=f"q{i}.t1")
        debtor = device.new_reserve(name=f"q{i}.debtor")
        device.kernel.create_tap(device.battery_reserve, debtor, 0.02,
                                 name=f"q{i}.repay")
        debtor.consume(0.5 + 0.25 * i, allow_debt=True)


def poller_builder(count: int):
    return functools.partial(poller_shard, fleet_size=count, watts=0.1,
                             period_s=60.0, bytes_out=64,
                             record_interval_s=1.0, decay_enabled=False)


class TestSnapshotRoundTrip:
    def test_process_less_world_snapshots_and_continues(self):
        original = World(tick_s=0.01, seed=3)
        build_quiet_fleet(original, 0, 4)
        original.run(90.0)

        payload = original.snapshot()
        restored = World.restore(payload)
        assert checkpoint.world_digest(restored) == \
            checkpoint.world_digest(original)

        # The restored world must *continue* identically, not merely
        # match at the barrier.
        original.run(120.0)
        restored.run(120.0)
        assert_fleets_match(restored, original)
        assert checkpoint.world_digest(restored) == \
            checkpoint.world_digest(original)

    def test_snapshot_validates_digest_on_load(self):
        world = World(tick_s=0.01, seed=3)
        build_quiet_fleet(world, 0, 2)
        world.run(30.0)
        payload = bytearray(world.snapshot())
        payload[-20] ^= 0xFF
        with pytest.raises(CheckpointError):
            World.restore(bytes(payload))

    def test_world_with_programs_refuses_to_snapshot(self):
        world = World(tick_s=0.01, seed=5)
        poller_builder(3)(world, 0, 3)
        world.run(30.0)
        with pytest.raises(CheckpointError):
            world.snapshot()

    @pytest.mark.parametrize("seed", [1, 9, 23])
    def test_randomized_fleet_digest_is_deterministic(self, seed):
        worlds = []
        for _ in range(2):
            world = World(tick_s=0.01, seed=seed)
            build_random_fleet(world, seed, devices=6)
            world.run(150.0)
            worlds.append(world)
        assert checkpoint.world_digest(worlds[0]) == \
            checkpoint.world_digest(worlds[1])


class TestCapture:
    def test_capture_prefers_pickle(self):
        world = World(tick_s=0.01, seed=3)
        build_quiet_fleet(world, 0, 2)
        world.run(30.0)
        ckpt = checkpoint.capture(world, barrier=1)
        assert ckpt.method == checkpoint.METHOD_PICKLE
        assert ckpt.payload is not None
        assert ckpt.barrier == 1
        assert ckpt.now == world.now
        assert ckpt.digest == checkpoint.world_digest(world)

    def test_capture_falls_back_to_replay(self):
        world = World(tick_s=0.01, seed=5)
        poller_builder(3)(world, 0, 3)
        world.run(30.0)
        ckpt = checkpoint.capture(world, barrier=1)
        assert ckpt.method == checkpoint.METHOD_REPLAY
        assert ckpt.payload is None
        assert ckpt.digest == checkpoint.world_digest(world)

    def test_capture_skips_pickle_when_told(self):
        world = World(tick_s=0.01, seed=3)
        build_quiet_fleet(world, 0, 2)
        ckpt = checkpoint.capture(world, barrier=0, try_pickle=False)
        assert ckpt.method == checkpoint.METHOD_REPLAY
        assert ckpt.payload is None


class TestRestore:
    def _restore_kwargs(self, count, chunks):
        return dict(builder=poller_builder(count), lo=0, hi=count,
                    world_kwargs={"tick_s": 0.01, "seed": 5},
                    chunks=chunks)

    def test_replay_restore_is_bit_identical(self):
        chunks = [60.0, 60.0, 60.0]
        world = World(tick_s=0.01, seed=5)
        poller_builder(4)(world, 0, 4)
        for chunk in chunks[:2]:
            world.run(chunk)
        ckpt = checkpoint.capture(world, barrier=2)
        assert ckpt.method == checkpoint.METHOD_REPLAY

        rebuilt = checkpoint.restore(ckpt,
                                     **self._restore_kwargs(4, chunks))
        assert checkpoint.world_digest(rebuilt) == ckpt.digest
        # ...and continues identically through the final chunk.
        world.run(chunks[2])
        rebuilt.run(chunks[2])
        assert_fleets_match(rebuilt, world)

    def test_restore_mid_service_call(self):
        # A barrier landing while pollers are inside netd ServiceCalls
        # (waiting on gate replies): the replay must reproduce the
        # in-flight request state exactly.
        chunks = [59.5, 59.5]
        world = World(tick_s=0.01, seed=5)
        poller_builder(4)(world, 0, 4)
        world.run(chunks[0])
        ckpt = checkpoint.capture(world, barrier=1)
        rebuilt = checkpoint.restore(ckpt,
                                     **self._restore_kwargs(4, chunks))
        world.run(chunks[1])
        rebuilt.run(chunks[1])
        assert_fleets_match(rebuilt, world)

    def test_restore_rejects_corrupted_digest(self):
        chunks = [60.0, 60.0]
        world = World(tick_s=0.01, seed=5)
        poller_builder(3)(world, 0, 3)
        world.run(chunks[0])
        ckpt = checkpoint.capture(world, barrier=1)
        bad = checkpoint.Checkpoint(
            barrier=ckpt.barrier, now=ckpt.now,
            digest="corrupt:" + ckpt.digest[8:], payload=None,
            method=checkpoint.METHOD_REPLAY)
        with pytest.raises(CheckpointError):
            checkpoint.restore(bad, **self._restore_kwargs(3, chunks))

    def test_restore_none_replays_caller_chunks(self):
        # No checkpoint at all (capture disabled): the caller hands
        # over the full replay recipe and gets the rebuilt world back
        # with nothing to validate against.
        chunks = [60.0, 60.0]
        rebuilt = checkpoint.restore(None,
                                     **self._restore_kwargs(3, chunks))
        reference = World(tick_s=0.01, seed=5)
        poller_builder(3)(reference, 0, 3)
        for chunk in chunks:
            reference.run(chunk)
        assert checkpoint.world_digest(rebuilt) == \
            checkpoint.world_digest(reference)

    @pytest.mark.parametrize("seed", [2, 11])
    def test_randomized_fleet_replay_round_trip(self, seed):
        # Heterogeneous fleets — switchers mid-clamp, chains, debtors,
        # pollers — through capture + rebuild-and-replay.
        def builder(world, lo, hi):
            build_random_fleet(world, seed, devices=hi - lo)

        chunks = [75.0, 75.0]
        world = World(tick_s=0.01, seed=seed)
        builder(world, 0, 6)
        world.run(chunks[0])
        ckpt = checkpoint.capture(world, barrier=1)
        rebuilt = checkpoint.restore(
            ckpt, builder=builder, lo=0, hi=6,
            world_kwargs={"tick_s": 0.01, "seed": seed},
            chunks=chunks)
        world.run(chunks[1])
        rebuilt.run(chunks[1])
        assert_fleets_match(rebuilt, world)
