"""The event-source runtime: pooled-netd fast-forward and Worlds.

Four contracts are pinned here:

* **Pooled-wait equivalence** — a netd keepalive/poller workload whose
  threads block in the §5.5.2 pooled path must produce *bit-identical
  event timing* (radio activations, wait seconds, pool level, trace
  sample streams) with ``fast_forward=True`` and ``False``; the
  fast-forwarded run must actually macro-step through the waits.
* **World parity** — a one-device :class:`~repro.sim.world.World` is
  sample-for-sample identical to a bare ``CinderSystem`` running the
  same workload.
* **Event-source devices** — a power-only device no longer vetoes
  fast-forward, a legacy stepper still does, and a custom
  ``EventSource`` bounds spans at its declared events.
* **When a sample is taken** — a record due at a tick is written by
  that tick; one due where no tick happens is written when the next
  span opens, with the span's power, or, without probes, by the span
  it falls inside.  The ``power.*`` streams equal ticking's, however
  the run is split; without probes the record cadence cannot move the
  final state, and a probe still sees the live state at each record.
"""

from __future__ import annotations

import random
from functools import partial

import numpy as np
import pytest

from repro.core.tap import TapType
from repro.energy.meter import PowerMeter
from repro.sim import checkpoint
from repro.sim.engine import CinderSystem
from repro.sim.events import EventSource, PeriodicSource
from repro.sim.process import CpuBurn, NetRequest, Sleep
from repro.sim.workload import fleet_of_pollers, periodic_poller
from repro.sim.world import World

from ..conftest import make_system


def poller_system(fast_forward: bool, decay: bool = False,
                  watts: float = 0.015, period_s: float = 600.0,
                  polls: int = 3, seed: int = 3) -> CinderSystem:
    """A device whose poller always waits in the pooled netd path.

    The tap is far too small to prepay an activation (9.5 J at 15 mW
    is ~10 minutes of accrual), so every poll blocks on
    ``required_energy`` and the engine must fast-forward *through* the
    wait to macro-step at all.
    """
    system = CinderSystem(battery_joules=15_000.0, tick_s=0.01, seed=seed,
                          record_interval_s=1.0, decay_enabled=decay,
                          fast_forward=fast_forward)
    reserve = system.powered_reserve(watts, name="poller")
    system.spawn(periodic_poller("echo", period_s=period_s, bytes_out=64,
                                 bytes_in=0, max_polls=polls),
                 "poller", reserve=reserve)
    return system


class TestPooledNetdFastForward:
    @pytest.fixture(scope="class")
    def runs(self):
        fast = poller_system(True)
        slow = poller_system(False)
        fast.run(3600.0)
        slow.run(3600.0)
        return fast, slow

    def test_macro_steps_through_pooled_waits(self, runs):
        fast, slow = runs
        # The poller spends most of the hour blocked inside netd; if
        # pooled waits still vetoed fast-forward the skipped-tick count
        # would be a tiny fraction of the run.
        assert fast.fast_forwarded_ticks > 300_000
        assert slow.fast_forwarded_ticks == 0
        assert fast.clock.ticks == slow.clock.ticks

    def test_event_timing_bit_identical(self, runs):
        fast, slow = runs
        assert fast.radio.activation_count == slow.radio.activation_count
        assert fast.netd.stats.operations == slow.netd.stats.operations
        assert (fast.netd.stats.radio_activations_requested
                == slow.netd.stats.radio_activations_requested)
        # Wait times are sums of exact tick instants: bit-identical.
        assert (fast.netd.stats.total_wait_seconds
                == slow.netd.stats.total_wait_seconds)

    def test_pool_trajectory_bit_identical(self, runs):
        fast, slow = runs
        assert fast.netd.pool.level == slow.netd.pool.level
        assert fast.netd.stats.total_billed_joules == pytest.approx(
            slow.netd.stats.total_billed_joules, rel=1e-12)
        assert fast.netd.stats.total_pool_contributions == pytest.approx(
            slow.netd.stats.total_pool_contributions, rel=1e-9)

    def test_traces_and_battery_match(self, runs):
        fast, slow = runs
        for name in ("power.system", "power.radio"):
            fast_series = fast.trace.series(name)
            slow_series = slow.trace.series(name)
            assert np.array_equal(fast_series.times, slow_series.times)
            assert np.array_equal(fast_series.values, slow_series.values)
        assert fast.battery.charge_joules == pytest.approx(
            slow.battery.charge_joules, rel=1e-9)
        assert fast.meter.total_energy_joules == pytest.approx(
            slow.meter.total_energy_joules, rel=1e-9)
        assert len(fast.meter.samples()[0]) == len(slow.meter.samples()[0])

    def test_conservation_holds(self, runs):
        fast, _ = runs
        assert fast.graph.conservation_error() == pytest.approx(0.0,
                                                                abs=1e-6)

    def test_decaying_pooled_wait_keeps_event_counts(self):
        """With decay on, sleep spans integrate the continuous ODE, so
        levels differ by O(tick) — but event *counts* and conservation
        must still agree between the two modes."""
        fast = poller_system(True, decay=True)
        slow = poller_system(False, decay=True)
        fast.run(3600.0)
        slow.run(3600.0)
        assert fast.fast_forwarded_ticks > 300_000
        assert fast.radio.activation_count == slow.radio.activation_count
        assert fast.netd.stats.operations == slow.netd.stats.operations
        assert fast.netd.stats.total_wait_seconds == pytest.approx(
            slow.netd.stats.total_wait_seconds, abs=1.0)
        assert fast.graph.conservation_error() == pytest.approx(0.0,
                                                                abs=1e-6)

    def test_non_canonical_reserve_falls_back_to_ticking(self):
        """A waiter reserve with a second feed tap has no closed form:
        the daemon must refuse quiescence during the wait (ticking is
        always correct) rather than replay a wrong trajectory."""
        systems = []
        for fast_forward in (True, False):
            system = poller_system(fast_forward, watts=0.008,
                                   period_s=1200.0, polls=1)
            side = system.new_reserve(name="side")
            system.kernel.create_tap(system.battery_reserve, side, 0.004,
                                     name="side.in")
            # Second feed into the poller's reserve: non-canonical.
            poller_reserve = system.processes[0].thread.active_reserve
            system.kernel.create_tap(side, poller_reserve, 0.002,
                                     name="side.out")
            system.run(1500.0)
            systems.append(system)
        fast, slow = systems
        assert fast.radio.activation_count == slow.radio.activation_count
        assert (fast.netd.stats.total_wait_seconds
                == slow.netd.stats.total_wait_seconds)


class TestRunUntilFastForwards:
    def test_run_until_macro_steps_and_matches_ticking(self):
        def napper(ctx):
            yield Sleep(300.0)
            yield CpuBurn(0.05)

        elapsed = {}
        for key, fast_forward in (("fast", True), ("slow", False)):
            system = make_system(fast_forward=fast_forward,
                                 record_interval_s=1.0)
            reserve = system.powered_reserve(0.2, name="n")
            process = system.spawn(napper, "n", reserve=reserve)
            elapsed[key] = system.run_until(lambda: process.finished,
                                            max_s=1000.0)
            if fast_forward:
                assert system.fast_forwarded_ticks > 10_000
        assert elapsed["fast"] == elapsed["slow"]

    def test_run_until_timeout_still_raises(self):
        from repro.errors import SimulationError
        system = make_system(fast_forward=True)
        with pytest.raises(SimulationError):
            system.run_until(lambda: False, max_s=0.5)


class TestWorld:
    def workload(self, system: CinderSystem) -> None:
        reserve = system.powered_reserve(0.02, name="p")
        system.spawn(periodic_poller("echo", period_s=120.0, bytes_out=64,
                                     bytes_in=0, max_polls=3),
                     "p", reserve=reserve)

    def test_single_device_world_matches_bare_system(self):
        world = World(tick_s=0.01, seed=5)
        device = world.add_device(name="solo", seed=5,
                                  record_interval_s=0.5)
        self.workload(device)
        world.run(600.0)

        bare = CinderSystem(seed=5, record_interval_s=0.5)
        self.workload(bare)
        bare.run(600.0)

        assert device.clock.ticks == bare.clock.ticks
        assert device.fast_forwarded_ticks == bare.fast_forwarded_ticks
        assert np.array_equal(device.meter.samples()[0],
                              bare.meter.samples()[0])
        assert np.array_equal(device.meter.samples()[1],
                              bare.meter.samples()[1])
        assert device.battery.charge_joules == bare.battery.charge_joules
        assert device.netd.pool.level == bare.netd.pool.level
        for name in ("power.system", "power.radio"):
            assert np.array_equal(device.trace.series(name).values,
                                  bare.trace.series(name).values)

    def test_fleet_stays_aligned_and_conserves(self):
        world = World(tick_s=0.01, seed=1)
        fleet = fleet_of_pollers(world, 8, watts=0.02, period_s=120.0,
                                 bytes_out=64, record_interval_s=1.0)
        world.run(600.0)
        assert len(world.devices) == 8
        assert all(d.clock.ticks == world.ticks for d in world.devices)
        assert world.fast_forwarded_ticks > 0
        assert world.conservation_error() < 1e-6
        # Staggered pollers: at least one device actually transmitted.
        assert world.total_radio_activations() > 0
        assert all(device.netd.stats.operations > 0
                   for device, _ in fleet)

    def test_world_run_until_checks_at_horizons(self):
        world = World(tick_s=0.01, seed=2)
        device = world.add_device(record_interval_s=1.0)
        reserve = device.powered_reserve(0.2, name="n")

        def napper(ctx):
            yield Sleep(200.0)

        process = device.spawn(napper, "n", reserve=reserve)
        elapsed = world.run_until(lambda: process.finished, max_s=600.0)
        assert elapsed == pytest.approx(200.02, abs=0.05)
        assert world.fast_forwarded_ticks > 0

    def test_fleet_run_until_stops_at_first_fleet_event(self):
        """Three nappers waking at different instants: the predicate
        on the middle one holds first at its wake, and the fleet stops
        there, on one tick, exactly where a solo run would."""
        def napper(seconds):
            def program(ctx):
                yield Sleep(seconds)
            return program

        def enroll(system, seconds):
            reserve = system.powered_reserve(0.2, name=f"n{seconds}")
            return system.spawn(napper(seconds), f"n{seconds}",
                                reserve=reserve)

        world = World(tick_s=0.01, seed=4)
        processes = {}
        for seconds in (50.0, 120.0, 200.0):
            device = world.add_device(record_interval_s=7.0)
            processes[seconds] = enroll(device, seconds)
        elapsed = world.run_until(lambda: processes[120.0].finished,
                                  max_s=600.0)

        solo = CinderSystem(seed=4, record_interval_s=7.0)
        process = enroll(solo, 120.0)
        assert elapsed == solo.run_until(lambda: process.finished,
                                         max_s=600.0)
        assert processes[50.0].finished
        assert not processes[200.0].finished
        assert all(d.clock.ticks == world.ticks for d in world.devices)
        assert world.fast_forwarded_ticks > 0

    def test_misaligned_device_rejected(self):
        from repro.errors import SimulationError
        world = World(tick_s=0.01)
        world.add_device()
        world.run(1.0)
        with pytest.raises(SimulationError):
            world.add_device()  # fleet already ticked
        with pytest.raises(SimulationError):
            world.add_device(tick_s=0.02)


class TestDeviceEventSources:
    def test_power_only_device_no_longer_vetoes(self):
        fast, slow = (make_system(fast_forward=ff, record_interval_s=1.0)
                      for ff in (True, False))
        for system in (fast, slow):
            system.powered_reserve(0.05, name="app")
            system.add_device(power=lambda now: 0.125)
            system.run(120.0)
        assert fast.fast_forwarded_ticks > 0
        assert fast.meter.total_energy_joules == pytest.approx(
            slow.meter.total_energy_joules, rel=1e-9)
        assert len(fast.meter.samples()[0]) == len(slow.meter.samples()[0])

    def test_legacy_stepper_still_vetoes(self):
        system = make_system(fast_forward=True)
        system.add_device(stepper=lambda now: None)
        system.run(5.0)
        assert system.fast_forwarded_ticks == 0

    def test_custom_source_bounds_spans(self):
        """A periodic source's beats become engine landing ticks."""
        seen = []

        class Beat(EventSource):
            name = "beat"

            def __init__(self):
                self.period = PeriodicSource(7.0)

            def quiescent(self, now):
                return True

            def next_event(self, now):
                return self.period.next_event(now)

        system = make_system(fast_forward=True, record_interval_s=100.0)
        system.add_device(stepper=lambda now: seen.append(now),
                          source=Beat())
        system.run(30.0)
        assert system.fast_forwarded_ticks > 0
        # The stepper ran on every landing tick, including each beat.
        beats = [t for t in (7.0, 14.0, 21.0, 28.0)
                 if any(abs(t - s) < 1e-9 for s in seen)]
        assert len(beats) == 4


def timer_tie_system(fast_forward: bool) -> CinderSystem:
    """Timers at 30, 90 and 150 s, each on a 1 s record instant.

    Each timer spawns a job that burns CPU from that very tick and
    then sends through the radio, so the record at the timer's
    instant carries a busy CPU, and later records fall on spans
    during the radio's ramp and plateau.  A power-only device adds a
    constant draw to every ``power.radio`` sample.
    """
    system = make_system(fast_forward=fast_forward, record_interval_s=1.0,
                         seed=21)
    reserve = system.powered_reserve(0.05, name="jobs")
    system.battery_reserve.transfer_to(reserve, 200.0)
    system.add_device(power=lambda now: 0.125)

    def job(ctx):
        yield CpuBurn(0.05)
        yield NetRequest(bytes_out=64, bytes_in=0, destination="echo")

    for when in (30.0, 90.0, 150.0):
        system.schedule_at(when, partial(system.spawn, job, f"job{when:g}",
                                         reserve=reserve))
    return system


def switching_device(record_interval_s: float) -> CinderSystem:
    """Perfbench's ``device_switching`` device (seed 1), with the
    record cadence as a parameter: 3-deep proportional chains, drain
    clamps, debt crossings, and a once-a-minute maintenance wake."""
    rng = random.Random(1)
    system = CinderSystem(battery_joules=15_000.0, tick_s=0.01,
                          record_interval_s=record_interval_s, seed=1)
    kernel = system.kernel
    root = system.battery_reserve
    for i in range(3):
        app = system.powered_reserve(0.06, name=f"app{i}")
        sub = system.new_reserve(name=f"app{i}.sub")
        subsub = system.new_reserve(name=f"app{i}.subsub")
        kernel.create_tap(app, sub, 0.05, TapType.PROPORTIONAL,
                          name=f"app{i}.t1")
        kernel.create_tap(sub, subsub, 0.04, TapType.PROPORTIONAL,
                          name=f"app{i}.t2")
        kernel.create_tap(subsub, root, 0.03, TapType.PROPORTIONAL,
                          name=f"app{i}.t3")
        task = system.new_reserve(name=f"task{i}")
        root.transfer_to(task, rng.uniform(2.0, 6.0))
        kernel.create_tap(root, task, 0.02, name=f"task{i}.feed")
        archive = system.new_reserve(name=f"task{i}.archive")
        kernel.create_tap(task, archive, 0.05, name=f"task{i}.drain")
        debtor = system.new_reserve(name=f"debtor{i}")
        kernel.create_tap(root, debtor, 0.03, name=f"debtor{i}.repay")
        kernel.create_tap(debtor, root, 0.05, TapType.PROPORTIONAL,
                          name=f"debtor{i}.back")
        debtor.consume(rng.uniform(2.0, 6.0), allow_debt=True)
    phase = rng.uniform(0.0, 60.0)

    def maintenance(ctx):
        yield Sleep(phase)
        while True:
            yield CpuBurn(0.02)
            yield Sleep(60.0)

    worker = system.powered_reserve(0.200, name="maint")
    system.spawn(maintenance, "maint", reserve=worker)
    return system


class TestWhenSamplesAreTaken:
    """A record due where a tick happens is written by that tick
    (post-tick levels, the tick's power); one due where no tick
    happens is written when the next span opens (the levels at that
    instant, the span's power).  Either way the power streams are
    ticking's."""

    @pytest.mark.parametrize("chunks", [[240.0], [60.0] * 4],
                             ids=["one_call", "60s_calls"])
    def test_power_streams_match_ticking(self, chunks):
        fast = timer_tie_system(True)
        slow = timer_tie_system(False)
        for chunk in chunks:
            fast.run(chunk)
        slow.run(240.0)
        # Spans carried the run: the records did not tick.
        assert fast.clock.ticks - fast.fast_forwarded_ticks < 100
        assert fast.radio.activation_count == 3
        for name in ("power.system", "power.radio"):
            fast_series = fast.trace.series(name)
            slow_series = slow.trace.series(name)
            assert np.array_equal(fast_series.times, slow_series.times)
            assert np.array_equal(fast_series.values, slow_series.values)
        busy = fast.trace.series("power.system")
        at = {round(t, 6): v for t, v in zip(busy.times, busy.values)}
        for when in (30.0, 90.0, 150.0):
            assert at[when] > at[when - 1.0]  # the burst's own tick

    def test_record_cadence_leaves_levels_and_ticks_alone(self):
        levels = {}
        for interval in (1.0, 60.0):
            system = switching_device(interval)
            for _ in range(60):
                system.run(60.0)
            normal_ticks = system.clock.ticks - system.fast_forwarded_ticks
            assert normal_ticks <= 200, (
                f"{normal_ticks} normal ticks per simulated hour at a "
                f"{interval:g} s record cadence")
            levels[interval] = [r.level for r in system.graph.reserves]
        worst = max(abs(a - b) for a, b in zip(levels[1.0], levels[60.0]))
        assert worst <= 1e-7


class TestObservationIsFree:
    """Without probes, records are span outputs: the record cadence
    bounds no span, so it cannot move the final state.  A probe is an
    opaque callable that needs the live state at each record instant,
    so with one registered, record instants still bound spans."""

    def test_final_state_is_bit_identical_across_cadences(self):
        digests = {}
        for interval in (1.0, 5.0, 60.0, 3600.0):
            world = World(tick_s=0.01)
            world.adopt(switching_device(interval), name="device")
            world.run(3600.0, barrier_s=60.0)
            assert world.conservation_error() < 1e-6
            digests[interval] = checkpoint.world_digest(world)
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.parametrize("interval", [0.005, 0.37, 1.0, 7.0])
    def test_span_records_fall_where_ticks_record(self, interval):
        """A committed span writes a record at exactly the tick
        instants the per-tick due test picks, at any clock."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            system, oracle = (make_system(record_interval_s=interval)
                              for _ in range(2))
            start = int(rng.integers(0, 10 ** 9))
            last = (start - int(rng.integers(0, 1000))) * 0.01
            for device in (system, oracle):
                device.clock.advance_many(start)
                device._last_record = last
            ticks = int(rng.integers(2, 5000))
            want = []
            for k in range(start + 1, start + ticks):
                if oracle._record_due(k * 0.01):
                    oracle._last_record = k * 0.01
                    want.append(k * 0.01)
            system._record_span(ticks, 1.5, 0.25)
            series = system.trace.series("power.system")
            assert series.times.tolist() == want
            assert set(series.values.tolist()) <= {1.5}
            assert system._last_record == oracle._last_record

    def test_a_probe_samples_live_levels_at_each_record(self):
        runs = {}
        for fast_forward in (True, False):
            system = switching_device(1.0)
            system.fast_forward = fast_forward
            task = next(r for r in system.graph.reserves
                        if r.name == "task0")
            system.watch_reserve(task)
            system.trace.add_probe("clock", partial(getattr, system.clock,
                                                    "now"))
            system.run(240.0)
            runs[fast_forward] = system
        fast, slow = runs[True], runs[False]
        assert fast.clock.ticks - fast.fast_forwarded_ticks < 100
        clock = fast.trace.series("clock")
        assert len(clock) == 240
        # Each probe ran with the device standing at its record instant.
        assert np.array_equal(clock.values, clock.times)
        assert np.array_equal(clock.times,
                              slow.trace.series("clock").times)
        levels = fast.trace.series("reserve.task0").values
        ticked = slow.trace.series("reserve.task0").values
        assert len(set(levels.tolist())) > 50
        assert np.abs(levels - ticked).max() < 1e-3


def feed_reference(meter, watts, dt):
    """:meth:`PowerMeter.feed` as the scalar one-window-at-a-time loop."""
    remaining = dt
    while remaining > 0.0:
        remaining = meter._feed_one(watts, remaining)


class TestMeterVectorizedFeed:
    @pytest.mark.parametrize("noise", [0.0, 0.03])
    def test_bulk_feed_matches_reference_bit_for_bit(self, noise):
        vec = PowerMeter(noise_fraction=noise,
                         rng=np.random.default_rng(11))
        ref = PowerMeter(noise_fraction=noise,
                         rng=np.random.default_rng(11))
        rng = np.random.default_rng(7)
        for _ in range(300):
            watts = float(rng.uniform(0.0, 3.0))
            dt = float(rng.choice([0.01, 0.07, 0.2, 1.0, 3.6,
                                   123.4567, 7200.0]))
            vec.feed(watts, dt)
            feed_reference(ref, watts, dt)
        assert np.array_equal(vec.samples()[0], ref.samples()[0])
        assert np.array_equal(vec.samples()[1], ref.samples()[1])
        assert vec._sample_windows == ref._sample_windows
        assert vec.total_energy_joules == ref.total_energy_joules
        assert vec._now == ref._now
        assert vec._window_time == ref._window_time
        assert vec._window_energy == ref._window_energy

    def test_partial_window_then_bulk(self):
        vec = PowerMeter()
        ref = PowerMeter()
        for feed in (vec.feed, partial(feed_reference, ref)):
            feed(1.0, 0.13)     # partial window open
            feed(2.0, 600.0)    # drain + 2999-ish whole windows
            feed(0.5, 0.05)
        assert np.array_equal(vec.samples()[0], ref.samples()[0])
        assert np.array_equal(vec.samples()[1], ref.samples()[1])
