"""Fleet-tier parity: frontier and sharded Worlds vs the oracles.

The fleet tier has two acceleration layers — the event-time frontier
with its cohort-stacked graph solves, and sharding across shard-host
daemons — and both must be *semantically invisible*.  These tests pin
that on randomized heterogeneous fleets:

* the frontier takes the same per-device poll/span/step decisions as
  the per-device oracle (:mod:`tests.sim.world_oracle`) and produces
  identical events (netd operations, radio activations, bit-equal
  wait seconds and pool levels), identical meter sample streams, and
  levels within the documented span-solver tolerance — bit-identical
  on diagonal topologies;
* a daemon-sharded fleet's digests are bit-identical to the same
  fleet built and run in one process;
* mixed tick grids align on the LCM barrier grid and every device
  matches a solo run of the same system.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from repro.core.tap import TapType
from repro.errors import SimulationError
from repro.sim.process import CpuBurn, Sleep
from repro.sim.shards import ShardedWorld
from repro.sim.workload import periodic_poller, poller_shard
from repro.sim.world import World

from .world_oracle import run_per_device


def napper(period_s: float, burn_s: float):
    def program(ctx):
        while True:
            yield Sleep(period_s)
            yield CpuBurn(burn_s)
    return program


def build_random_fleet(world: World, seed: int, devices: int = 8) -> None:
    """A heterogeneous fleet: pollers, sleepers, chained reserves.

    Drawn deterministically from ``seed`` so two worlds built with
    the same seed carry identical device populations.  Device kinds
    repeat, so cohorts of size >= 2 form alongside singletons — the
    batcher must handle both, plus devices whose chained topology
    routes them through the coupled solver.
    """
    rng = random.Random(seed)
    kinds = [rng.choice(["poller", "sleeper", "chain", "switcher"])
             for _ in range(devices)]
    for i, kind in enumerate(kinds):
        device = world.add_device(name=f"d{i}", record_interval_s=1.0,
                                  decay_enabled=False)
        if kind == "switcher":
            # Piecewise-linear switching material: a drain that clamps
            # mid-run and a reserve repaying out of debt — the stacked
            # span kernel demotes these to the scalar segmented path.
            task = device.new_reserve(name=f"d{i}.task")
            device.battery_reserve.transfer_to(task, 2.0 + 0.5 * i)
            device.kernel.create_tap(device.battery_reserve, task, 0.01,
                                     name=f"d{i}.task.feed")
            archive = device.new_reserve(name=f"d{i}.archive")
            device.kernel.create_tap(task, archive, 0.03,
                                     name=f"d{i}.task.drain")
            debtor = device.new_reserve(name=f"d{i}.debtor")
            device.kernel.create_tap(device.battery_reserve, debtor,
                                     0.02, name=f"d{i}.repay")
            debtor.consume(1.0 + 0.3 * i, allow_debt=True)
            reserve = device.powered_reserve(0.2, name=f"d{i}.maint")
            device.spawn(napper(50.0, 0.02), f"d{i}.maint",
                         reserve=reserve)
        elif kind == "poller":
            watts = rng.choice([0.02, 0.05])
            reserve = device.powered_reserve(watts, name=f"d{i}.net")
            device.spawn(
                periodic_poller("echo", period_s=180.0,
                                start_offset_s=7.0 * i, bytes_out=64,
                                bytes_in=0),
                f"d{i}.poller", reserve=reserve)
        elif kind == "sleeper":
            reserve = device.powered_reserve(0.2, name=f"d{i}.maint")
            device.spawn(napper(45.0, 0.02), f"d{i}.maint",
                         reserve=reserve)
        else:
            app = device.powered_reserve(0.06, name=f"d{i}.app")
            sub = device.new_reserve(name=f"d{i}.sub")
            device.kernel.create_tap(app, sub, 0.05, TapType.PROPORTIONAL,
                                     name=f"d{i}.t1")
            device.kernel.create_tap(sub, device.battery_reserve, 0.04,
                                     TapType.PROPORTIONAL,
                                     name=f"d{i}.t2")
            reserve = device.powered_reserve(0.2, name=f"d{i}.maint")
            device.spawn(napper(60.0, 0.02), f"d{i}.maint",
                         reserve=reserve)


def assert_fleets_match(fast: World, reference: World,
                        exact_pool: bool = True) -> None:
    """Events bit-equal; meters and levels within solver tolerance.

    ``exact_pool=False`` compares pool levels at last-ulp tolerance:
    runs that split spans at different instants (different barrier
    spacings) round the diagonal solver's ``level + rate * span``
    differently per split, so a waiter's contribution at a crossing
    can differ by one ulp even though every event lands on the
    identical tick.
    """
    assert len(fast.devices) == len(reference.devices)
    for a, b in zip(fast.devices, reference.devices):
        assert a.clock.ticks == b.clock.ticks
        assert a.radio.activation_count == b.radio.activation_count
        assert a.netd.stats.operations == b.netd.stats.operations
        assert (a.netd.stats.total_wait_seconds
                == b.netd.stats.total_wait_seconds)
        if exact_pool:
            assert a.netd.pool.level == b.netd.pool.level
        else:
            assert a.netd.pool.level == pytest.approx(
                b.netd.pool.level, rel=1e-12, abs=1e-12)
        assert len(a.meter.samples()[0]) == len(b.meter.samples()[0])
        assert a.meter.total_energy_joules == pytest.approx(
            b.meter.total_energy_joules, rel=1e-9)
        assert a.battery.charge_joules == pytest.approx(
            b.battery.charge_joules, rel=1e-9)
        for ra, rb in zip(a.graph.reserves, b.graph.reserves):
            assert ra.level == pytest.approx(rb.level, rel=2e-3,
                                             abs=1e-6)
        assert abs(a.graph.conservation_error()) < 1e-8


class TestFrontierParity:
    """The event-time frontier vs the per-device oracle.

    The frontier must be a pure reordering of each device's own
    ``device.run(chunk)`` loop — same polls, same spans, same steps
    per device — with only the stacked-vs-scalar solve path
    differing, which the span kernels keep bit-identical per row on
    diagonal topologies and within the documented tolerance on
    coupled ones.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3, 11, 12, 13])
    def test_frontier_matches_oracle(self, seed):
        fast = World(tick_s=0.01, seed=seed)
        build_random_fleet(fast, seed)
        reference = World(tick_s=0.01, seed=seed)
        build_random_fleet(reference, seed)
        fast.run(400.0)
        run_per_device(reference, 400.0)
        assert_fleets_match(fast, reference)
        # The scheduler must actually stack: the random fleet repeats
        # device kinds, so same-shape devices share landing instants,
        # and firm executing horizons must skip their re-poll.
        assert fast.cohort_spans > 0
        assert fast.independent_cohort_spans > 0
        assert fast.horizon_cache_hits > 0
        assert fast.barrier_rounds > 1

    @pytest.mark.parametrize("seed", [4, 5])
    def test_frontier_with_barriers_matches_oracle(self, seed):
        fast = World(tick_s=0.01, seed=seed)
        build_random_fleet(fast, seed)
        reference = World(tick_s=0.01, seed=seed)
        build_random_fleet(reference, seed)
        fast.run(400.0, barrier_s=100.0)
        run_per_device(reference, 400.0, barrier_s=100.0)
        assert_fleets_match(fast, reference)
        # Frontier accounting: at least one round per barrier chunk.
        assert fast.barrier_rounds > 4
        assert fast.independent_cohort_spans > 0

    def test_frontier_counts_device_actions(self):
        """Every committed span is one macro-step, solved stacked or
        scalar, and every device tick is either skipped inside a span
        or taken as one step."""
        world = World(tick_s=0.01, seed=8)
        build_random_fleet(world, 8)
        world.run(300.0, barrier_s=100.0)
        assert world.macro_steps > 0
        assert world.tick_steps > 0
        assert world.macro_steps == (world.independent_cohort_spans
                                     + world.independent_scalar_spans)
        assert sum(d.clock.ticks for d in world.devices) == \
            world.fast_forwarded_ticks + world.tick_steps

    def test_switching_cohort_stays_batched(self):
        """A homogeneous cohort whose members all hit a switching
        state: the stacked kernel carries them across the switch
        itself (the batched segment chain), so nobody demotes to the
        scalar path and nobody degrades to ticking — matching the
        oracle within figure tolerance."""
        def build():
            world = World(tick_s=0.01, seed=6)
            for i in range(4):
                device = world.add_device(name=f"s{i}",
                                          record_interval_s=1.0,
                                          decay_enabled=False)
                task = device.new_reserve(name="task")
                device.battery_reserve.transfer_to(task, 2.0)
                device.kernel.create_tap(device.battery_reserve, task,
                                         0.01, name="task.feed")
                archive = device.new_reserve(name="archive")
                device.kernel.create_tap(task, archive, 0.03,
                                         name="task.drain")
                reserve = device.powered_reserve(0.2, name="maint")
                device.spawn(napper(40.0, 0.02), "maint",
                             reserve=reserve)
            return world
        fast = build()
        reference = build()
        fast.run(300.0)       # every task clamps at 100 s
        run_per_device(reference, 300.0)
        assert_fleets_match(fast, reference)
        assert fast.degraded_spans == 0
        assert fast.cohort_demotions == 0
        assert fast.cohort_spans > 0
        assert fast.span_segments > 0

    def test_barriers_match_single_chunk(self):
        one = World(tick_s=0.01, seed=9)
        build_random_fleet(one, 9)
        many = World(tick_s=0.01, seed=9)
        build_random_fleet(many, 9)
        one.run(300.0)
        many.run(300.0, barrier_s=50.0)
        # Frontier accounting: at least one round per barrier chunk.
        # Extra barriers cannot *reduce* rounds (a barrier splits a
        # span into landings the single chunk may already have).
        assert many.barrier_rounds >= 6
        assert many.barrier_rounds >= one.barrier_rounds
        assert_fleets_match(many, one, exact_pool=False)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_staggered_pollers_bit_identical(self, seed):
        """Randomized poll phases, diagonal topologies: every field
        bit-equal — the strongest form of the reordering claim."""
        def build():
            world = World(tick_s=0.01, seed=seed)
            rng = random.Random(seed * 977)
            for i in range(12):
                device = world.add_device(name=f"p{i}",
                                          record_interval_s=5.0,
                                          decay_enabled=False)
                reserve = device.powered_reserve(0.02, name="net")
                device.spawn(
                    periodic_poller(
                        "echo", period_s=120.0,
                        start_offset_s=rng.uniform(0.0, 120.0),
                        bytes_out=64, bytes_in=0),
                    "poller", reserve=reserve)
            return world
        reference = build()
        fast = build()
        run_per_device(reference, 600.0, barrier_s=300.0)
        fast.run(600.0, barrier_s=300.0)
        for a, b in zip(fast.devices, reference.devices):
            assert a.clock.ticks == b.clock.ticks
            assert a.netd.stats.operations == b.netd.stats.operations
            assert (a.netd.stats.total_wait_seconds
                    == b.netd.stats.total_wait_seconds)
            assert a.netd.pool.level == b.netd.pool.level
            assert a.battery.charge_joules == b.battery.charge_joules
            assert np.array_equal(a.meter.samples()[0],
                                  b.meter.samples()[0])
            assert np.array_equal(a.meter.samples()[1],
                                  b.meter.samples()[1])
            for ra, rb in zip(a.graph.reserves, b.graph.reserves):
                assert ra.level == rb.level
        assert fast.independent_cohort_spans > 0

    def test_switchers_match_oracle(self):
        """A fleet of switch-bound devices (clamps, debt repayment):
        the stacked segment chain must carry them through the frontier
        exactly as the scalar loop does."""
        def build():
            world = World(tick_s=0.01, seed=33)
            for i in range(6):
                device = world.add_device(name=f"s{i}",
                                          record_interval_s=1.0,
                                          decay_enabled=False)
                task = device.new_reserve(name="task")
                device.battery_reserve.transfer_to(task, 2.0 + 0.4 * i)
                device.kernel.create_tap(device.battery_reserve, task,
                                         0.01, name="task.feed")
                archive = device.new_reserve(name="archive")
                device.kernel.create_tap(task, archive, 0.03,
                                         name="task.drain")
                reserve = device.powered_reserve(0.2, name="maint")
                device.spawn(napper(40.0 + 3.0 * i, 0.02), "maint",
                             reserve=reserve)
            return world
        reference = build()
        fast = build()
        run_per_device(reference, 300.0)
        fast.run(300.0)
        assert_fleets_match(fast, reference)
        assert fast.span_segments > 0
        assert fast.degraded_spans == 0

    def test_mixed_grid_cross_cohorts(self):
        """Devices on 10 ms and 20 ms grids whose wakes coincide in
        *time*: nanosecond key quantization must land them in one
        bucket, and the per-device span vector carries their distinct
        tick counts through one stacked solve."""
        def build():
            world = World(tick_s=0.01, seed=41)
            for i in range(6):
                device = world.add_device(name=f"m{i}",
                                          tick_s=0.02 if i % 2 else 0.01,
                                          record_interval_s=1.0,
                                          decay_enabled=False)
                reserve = device.powered_reserve(0.2, name="m")
                device.spawn(napper(30.0, 0.02), "m", reserve=reserve)
            return world
        reference = build()
        fast = build()
        run_per_device(reference, 120.0, barrier_s=60.0)
        fast.run(120.0, barrier_s=60.0)
        assert_fleets_match(fast, reference)
        assert fast.independent_cohort_spans > 0

    def test_sharded_frontier_digests_bit_identical(self):
        """Different shard partitions change cohort membership but
        must not change any device's trajectory."""
        builder = functools.partial(poller_shard, fleet_size=10,
                                    watts=0.25, period_s=60.0,
                                    stagger_s=13.0, bytes_out=64,
                                    record_interval_s=1.0,
                                    decay_enabled=False)
        inline = ShardedWorld(builder, 10, shards=0, tick_s=0.01,
                              seed=7)
        sharded = ShardedWorld(builder, 10, shards=2, tick_s=0.01,
                               seed=7)
        a = inline.run(180.0, barrier_s=60.0)
        b = sharded.run(180.0, barrier_s=60.0)
        assert a.digest() == b.digest()
        for x, y in zip(a.digests, b.digests):
            assert x == y
        # Both executions ran the frontier and stacked work.
        assert a.independent_cohort_spans > 0
        assert b.independent_cohort_spans > 0
        assert a.independent_rounds > 1
        assert b.independent_rounds > 1


class TestMixedTickGrids:
    def test_lcm_alignment_and_solo_parity(self):
        world = World(tick_s=0.01, seed=2)
        slow_dev = world.add_device(name="slow", tick_s=0.02,
                                    record_interval_s=1.0,
                                    decay_enabled=False)
        fast_dev = world.add_device(name="fast", tick_s=0.01,
                                    record_interval_s=1.0,
                                    decay_enabled=False)
        for device in (slow_dev, fast_dev):
            reserve = device.powered_reserve(0.2, name="m")
            device.spawn(napper(30.0, 0.02), "m", reserve=reserve)
        assert world.barrier_period() == pytest.approx(0.02)
        assert not world.uniform_grid()
        world.run(120.0, barrier_s=60.0)
        assert slow_dev.clock.now == pytest.approx(120.0)
        assert fast_dev.clock.now == pytest.approx(120.0)
        assert slow_dev.clock.ticks == 6000
        assert fast_dev.clock.ticks == 12000

        # Each device is sample-identical to a solo system with the
        # same construction (no cross-device coupling exists).
        from repro.sim.engine import CinderSystem
        solo = CinderSystem(tick_s=0.02, seed=world.seed,
                            record_interval_s=1.0, decay_enabled=False)
        reserve = solo.powered_reserve(0.2, name="m")
        solo.spawn(napper(30.0, 0.02), "m", reserve=reserve)
        solo.run(120.0)
        assert np.array_equal(slow_dev.meter.samples()[0],
                              solo.meter.samples()[0])
        assert np.array_equal(slow_dev.meter.samples()[1],
                              solo.meter.samples()[1])
        assert slow_dev.battery.charge_joules == solo.battery.charge_joules

    def test_off_grid_duration_rejected(self):
        world = World(tick_s=0.01)
        world.add_device(tick_s=0.02)
        world.add_device(tick_s=0.03)
        assert world.barrier_period() == pytest.approx(0.06)
        with pytest.raises(SimulationError):
            world.run(0.05)  # not on the 0.06 s LCM grid
        with pytest.raises(SimulationError):
            world.run(0.12, barrier_s=0.05)
        with pytest.raises(SimulationError):
            world.run_until(lambda: True)

    def test_off_grid_duration_rejected_on_uniform_grid(self):
        """Uniform fleets land exactly on every barrier too: an
        off-grid duration or barrier raises instead of rounding up."""
        world = World(tick_s=0.01)
        world.add_device()
        world.add_device()
        with pytest.raises(SimulationError):
            world.run(0.015)
        with pytest.raises(SimulationError):
            world.run(0.1, barrier_s=0.025)
        assert world.ticks == 0
        world.run(0.02)
        assert all(d.clock.ticks == 2 for d in world.devices)

    def test_lockstep_request_rejected(self):
        """``independent`` survives only for callers written against
        the retired lockstep scheduler: True is the frontier, False
        raises."""
        world = World(tick_s=0.01)
        world.add_device()
        with pytest.raises(SimulationError):
            world.run(1.0, independent=False)
        world.run(1.0, independent=True)
        assert world.ticks == 100
        fleet = ShardedWorld(lambda w, lo, hi: None, 1, shards=0)
        with pytest.raises(SimulationError):
            fleet.run(1.0, independent=False)

    def test_late_joiner_rejected(self):
        world = World(tick_s=0.01)
        world.add_device()
        world.run(1.0)
        with pytest.raises(SimulationError):
            world.add_device()  # fleet already advanced past t=0


class TestShardedWorldParity:
    def _builder(self, count):
        return functools.partial(poller_shard, fleet_size=count,
                                 watts=0.25, period_s=60.0, bytes_out=64,
                                 record_interval_s=1.0,
                                 decay_enabled=False)

    def test_sharded_digests_bit_identical_to_inline(self):
        count = 10
        inline = ShardedWorld(self._builder(count), count, shards=0,
                              tick_s=0.01, seed=7)
        sharded = ShardedWorld(self._builder(count), count, shards=2,
                               tick_s=0.01, seed=7)
        a = inline.run(180.0, barrier_s=60.0)
        b = sharded.run(180.0, barrier_s=60.0)
        da, db = a.digests, b.digests
        assert len(da) == len(db) == count
        assert a.total_radio_activations() > 0
        for x, y in zip(da, db):
            assert x == y  # dataclass equality: every field bit-equal
        assert b.worst_conservation_error() < 1e-8

    def test_partitions_cover_range(self):
        fleet = ShardedWorld(self._builder(11), 11, shards=3)
        ranges = fleet.partitions()
        assert ranges[0][0] == 0 and ranges[-1][1] == 11
        assert all(lo < hi for lo, hi in ranges)
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1
