"""Chaos recovery: sharded fleets survive injected faults bit-identically.

The acceptance contract for fleet fault tolerance: a seeded chaos run
(crashes, hangs, corrupted checkpoints, builder raises) on shard-host
daemons must

* complete and produce a :meth:`FleetReport.digest` **bit-identical**
  to the fault-free run of the same fleet,
* account for every injection in the supervision telemetry
  (``shard_restarts``, ``shard_reschedules``, ``recovered_barriers``,
  ``degraded_shards``, ``shard_failures``, ``recovery_events``),
* leak no host daemon past ``run()``.

A ``crash`` takes down the daemon hosting the shard, so it is a host
loss: the daemon is respawned and the shard rescheduled back onto it,
restored from its last checkpoint.  Every fleet here runs one shard
per host, so each crash hits exactly one shard and the recovery
telemetry replays exactly.  Timeouts here are wall-clock (a hang is
only detected by missing the barrier deadline), so the suite keeps
fleets small and chunks short; ``hang_s`` is far above the deadline
so detection never races the sleep.
"""

from __future__ import annotations

import functools
import multiprocessing

import pytest

from repro.errors import ShardFailure, SimulationError
from repro.sim.faults import (BUILD_RAISE, CORRUPT_DIGEST, CRASH, HANG,
                              FaultEvent, FaultPlan)
from repro.sim.hostd import HostHandle
from repro.sim.shards import ShardedWorld
from repro.sim.workload import poller_shard


def _builder(count: int):
    return functools.partial(poller_shard, fleet_size=count, watts=0.25,
                             period_s=60.0, bytes_out=64,
                             record_interval_s=1.0, decay_enabled=False)


def _fleet(count: int = 10, shards: int = 2, **kwargs) -> ShardedWorld:
    kwargs.setdefault("retry_backoff_s", 0.01)
    return ShardedWorld(_builder(count), count, shards=shards,
                        tick_s=0.01, seed=7, **kwargs)


def _assert_no_leaked_workers():
    leaked = multiprocessing.active_children()
    assert not leaked, f"leaked host daemons: {leaked}"


def _rungs(report):
    return [(e.shard, e.barrier, e.rung, e.attempt, e.host)
            for e in report.recovery_events]


@pytest.fixture(scope="module")
def clean_digest():
    """The fault-free digest every chaos run must reproduce."""
    report = _fleet().run(180.0, barrier_s=30.0)
    assert report.shard_restarts == 0
    assert report.shard_reschedules == 0
    assert report.recovered_barriers == 0
    assert not report.degraded_shards
    assert not report.shard_failures
    assert not report.recovery_events
    assert report.forced_terminations == 0
    assert report.transport == "sockets"
    assert report.hosts == 2  # one daemon per shard by default
    return report.digest()


class TestChaosRecovery:
    def test_crashes_and_hang_recover_bit_identically(self, clean_digest):
        # Two crashes and one hang, all recovered, digests bit-identical
        # to fault-free.  Each crash respawns its shard's daemon and
        # reschedules the shard back onto it; the hang misses its
        # deadline on a healthy host and retries in a fresh slot.
        plan = FaultPlan([
            FaultEvent(shard=0, barrier=1, kind=CRASH),
            FaultEvent(shard=1, barrier=3, kind=CRASH),
            FaultEvent(shard=0, barrier=4, kind=HANG, hang_s=30.0),
        ])
        report = _fleet(fault_plan=plan,
                        barrier_timeout_s=3.0).run(180.0, barrier_s=30.0)
        assert report.digest() == clean_digest
        # Every injection fired and is visible in the telemetry.
        assert plan.consumed == 3
        assert report.shard_reschedules == 2
        assert report.shard_restarts == 1
        assert report.recovered_barriers == 3
        assert not report.degraded_shards
        assert len(report.host_failures) == 2
        causes = [c for cs in report.shard_failures.values() for c in cs]
        assert sum("timeout" in c for c in causes) == 1
        # The structured mirror: a crash is a host loss (a mandatory
        # move, no retry budget), a hang a retry on the same host.
        assert _rungs(report) == [(0, 1, "reschedule", 0, 0),
                                  (1, 3, "reschedule", 0, 1),
                                  (0, 4, "retry", 1, 0)]
        assert all(e.phase == "barrier" for e in report.recovery_events)
        assert report.placement == {0: 0, 1: 1}
        _assert_no_leaked_workers()

    def test_seeded_chaos_sweep(self, clean_digest):
        # Seeded plans over several seeds: whatever the draw, recovery
        # converges on the fault-free digest, every crash fires and is
        # answered by exactly one reschedule onto its shard's respawned
        # daemon, and nothing degrades.
        for seed in (3, 17):
            plan = FaultPlan.seeded(seed, shards=2, barriers=6,
                                    crashes=2)
            report = _fleet(fault_plan=plan).run(180.0, barrier_s=30.0)
            assert report.digest() == clean_digest, f"seed {seed}"
            assert plan.consumed == 2
            injected = sorted((e.barrier, e.shard) for e in plan.events)
            assert _rungs(report) == [(s, k, "reschedule", 0, s)
                                      for k, s in injected], f"seed {seed}"
            assert report.shard_reschedules == 2
            assert report.shard_restarts == 0
            assert not report.degraded_shards
        _assert_no_leaked_workers()

    def test_chaos_run_is_reproducible(self, clean_digest):
        # The same (fleet seed, fault seed) twice: identical digests
        # and identical recovery telemetry — chaos runs replay.
        plan = FaultPlan.seeded(11, shards=2, barriers=6, crashes=2)
        fleet = _fleet(fault_plan=plan)
        first = fleet.run(180.0, barrier_s=30.0)
        second = fleet.run(180.0, barrier_s=30.0)  # plan auto-rewinds
        assert first.digest() == second.digest() == clean_digest
        assert plan.consumed == 2
        assert _rungs(first) == _rungs(second) == [
            (0, 1, "reschedule", 0, 0), (1, 5, "reschedule", 0, 1)]
        assert first.shard_reschedules == second.shard_reschedules == 2
        assert first.recovered_barriers == second.recovered_barriers == 2
        assert first.placement == second.placement == {0: 0, 1: 1}

    def test_crash_before_first_barrier(self, clean_digest):
        # No checkpoint exists yet: recovery rebuilds to time zero on
        # the respawned daemon.
        plan = FaultPlan([FaultEvent(shard=1, barrier=0, kind=CRASH)])
        report = _fleet(fault_plan=plan).run(180.0, barrier_s=30.0)
        assert report.digest() == clean_digest
        assert plan.consumed == 1
        assert _rungs(report) == [(1, 0, "reschedule", 0, 1)]
        assert report.shard_reschedules == 1
        assert report.shard_restarts == 0

    def test_recovery_without_checkpoints(self, clean_digest):
        # checkpoint=False: recovery pays a full replay from zero but
        # still converges bit-identically.
        plan = FaultPlan([FaultEvent(shard=0, barrier=3, kind=CRASH)])
        report = _fleet(fault_plan=plan,
                        checkpoint=False).run(180.0, barrier_s=30.0)
        assert report.digest() == clean_digest
        assert plan.consumed == 1
        assert report.shard_reschedules == 1
        assert report.recovered_barriers == 1

    def test_builder_raise_is_retried(self, clean_digest):
        plan = FaultPlan([FaultEvent(shard=0, barrier=0,
                                     kind=BUILD_RAISE)])
        report = _fleet(fault_plan=plan).run(180.0, barrier_s=30.0)
        assert report.digest() == clean_digest
        assert plan.consumed == 1
        assert "build" in report.shard_failures[0][0]
        # A raising builder leaves its host healthy: retry in place.
        assert _rungs(report) == [(0, -1, "retry", 1, 0)]
        assert report.shard_restarts == 1

    def test_genuinely_broken_builder_raises(self):
        # A builder that fails every attempt exhausts the retries and
        # surfaces ShardFailure — inline execution would not help.
        plan = FaultPlan([FaultEvent(shard=s, barrier=0,
                                     kind=BUILD_RAISE)
                          for s in (0, 0, 0)])
        fleet = _fleet(fault_plan=plan, max_shard_retries=1)
        with pytest.raises(ShardFailure):
            fleet.run(60.0, barrier_s=30.0)
        _assert_no_leaked_workers()


class TestGracefulDegradation:
    def test_exhausted_retries_demote_to_inline(self, clean_digest):
        # A corrupted checkpoint poisons every restore (digest
        # validation refuses the replay), so the crash that follows
        # walks the shard down the whole ladder: reschedule onto the
        # respawned host, retry the failed restore there, then inline.
        plan = FaultPlan([
            FaultEvent(shard=1, barrier=1, kind=CORRUPT_DIGEST),
            FaultEvent(shard=1, barrier=2, kind=CRASH),
        ])
        report = _fleet(fault_plan=plan, max_shard_retries=1,
                        barrier_timeout_s=5.0).run(180.0, barrier_s=30.0)
        # Demoted, not diverged: the inline rebuild is authoritative.
        assert report.digest() == clean_digest
        assert plan.consumed == 2
        assert report.degraded_shards == [1]
        assert any("host 1 lost" in line for line in report.host_failures)
        assert any("CheckpointError" in c
                   for c in report.shard_failures[1])
        assert _rungs(report) == [(1, 2, "reschedule", 0, 1),
                                  (1, 2, "retry", 1, 1),
                                  (1, 2, "inline", 2, None)]
        _assert_no_leaked_workers()

    def test_demoted_shard_finishes_remaining_barriers(self,
                                                       clean_digest):
        # Demotion early in the run: the slice completes every later
        # chunk inline alongside the healthy daemon shard.
        plan = FaultPlan([
            FaultEvent(shard=0, barrier=1, kind=CORRUPT_DIGEST),
            FaultEvent(shard=0, barrier=2, kind=CRASH),
        ])
        report = _fleet(fault_plan=plan, max_shard_retries=0).run(
            180.0, barrier_s=30.0)
        assert report.digest() == clean_digest
        assert plan.consumed == 2
        assert report.degraded_shards == [0]
        assert _rungs(report) == [(0, 2, "reschedule", 0, 0),
                                  (0, 2, "inline", 1, None)]
        assert report.shard_restarts == 0


class TestSupervisionKnobs:
    def test_knob_validation(self):
        with pytest.raises(SimulationError):
            _fleet(barrier_timeout_s=0.0)
        with pytest.raises(SimulationError):
            _fleet(max_shard_retries=-1)
        with pytest.raises(SimulationError):
            _fleet(drain_timeout_s=0.0)

    def test_drain_timeout_is_configurable(self, monkeypatch):
        # The host-teardown join budget used to be a hard-coded 5 s;
        # a custom budget must drain a healthy fleet without force,
        # every daemon exiting through ``shutdown`` (status 0).
        statuses = []
        stop = HostHandle.stop

        def recording_stop(host, drain_timeout_s):
            process = host.process
            forced = stop(host, drain_timeout_s)
            statuses.append(process.exitcode)
            return forced

        monkeypatch.setattr(HostHandle, "stop", recording_stop)
        report = _fleet(count=4, shards=2,
                        drain_timeout_s=2.0).run(60.0, barrier_s=30.0)
        assert report.forced_terminations == 0
        assert statuses == [0, 0]
        _assert_no_leaked_workers()

    def test_per_shard_walls_are_worker_side(self):
        # Walls are measured inside each daemon around its own chunk,
        # so their sum cannot exceed (shards x elapsed wall) and no
        # shard is charged for the parent blocking on its siblings.
        report = _fleet(count=8, shards=4).run(120.0, barrier_s=30.0)
        assert len(report.shard_walls) == 4
        assert all(w > 0 for w in report.shard_walls)
        assert max(report.shard_walls) <= report.wall_s

    def test_fleet_report_digest_orders_globally(self):
        report = _fleet(count=9, shards=3).run(60.0, barrier_s=30.0)
        assert [d.index for d in report.digests] == list(range(9))
        # Hosts default to one daemon per shard.
        assert report.hosts == 3
        assert report.placement == {0: 0, 1: 1, 2: 2}

