"""Chaos recovery: sharded fleets survive injected faults bit-identically.

The acceptance contract for fleet fault tolerance: a seeded chaos run
(worker crashes, hangs, corrupted checkpoints, builder raises) must

* complete and produce a :meth:`FleetReport.digest` **bit-identical**
  to the fault-free run of the same fleet,
* account for every injection in the supervision telemetry
  (``shard_restarts``, ``recovered_barriers``, ``degraded_shards``,
  ``shard_failures``),
* leak no worker processes past ``run()``.

Timeouts here are wall-clock (a hang is only detected by missing the
barrier deadline), so the suite keeps fleets small and chunks short;
``hang_s`` is far above the deadline so detection never races the
sleep.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ShardFailure, SimulationError
from repro.sim.faults import (BUILD_RAISE, CORRUPT_DIGEST, CRASH, HANG,
                              FaultEvent, FaultPlan)
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
    assert not leaked, f"leaked worker processes: {leaked}"


@pytest.fixture(scope="module")
def clean_digest():
    """The fault-free digest every chaos run must reproduce."""
    report = _fleet().run(180.0, barrier_s=30.0)
    assert report.shard_restarts == 0
    assert report.recovered_barriers == 0
    assert not report.degraded_shards
    assert not report.shard_failures
    assert not report.recovery_events
    assert report.forced_terminations == 0
    assert report.transport == "processes"
    return report.digest()


class TestChaosRecovery:
    def test_crashes_and_hang_recover_bit_identically(self, clean_digest):
        # The ISSUE acceptance run: at least two worker crashes and one
        # hang, all recovered, digests bit-identical to fault-free.
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
        assert report.shard_restarts == 3
        assert report.recovered_barriers == 3
        assert not report.degraded_shards
        causes = [c for cs in report.shard_failures.values() for c in cs]
        assert sum("crash" in c for c in causes) == 2
        assert sum("timeout" in c for c in causes) == 1
        # The structured mirror: one "retry" rung per injection, each
        # carrying shard, barrier, attempt and cause.
        events = report.recovery_events
        assert [(e.shard, e.barrier, e.rung) for e in events] == \
            [(0, 1, "retry"), (1, 3, "retry"), (0, 4, "retry")]
        assert all(e.attempt == 1 and e.phase == "barrier"
                   for e in events)
        _assert_no_leaked_workers()

    def test_seeded_chaos_sweep(self, clean_digest):
        # Seeded plans over several seeds: whatever the draw, recovery
        # converges on the fault-free digest.
        for seed in (3, 17):
            plan = FaultPlan.seeded(seed, shards=2, barriers=6,
                                    crashes=2)
            report = _fleet(fault_plan=plan).run(180.0, barrier_s=30.0)
            assert report.digest() == clean_digest, f"seed {seed}"
            assert report.shard_restarts == 2
            assert plan.consumed == 2
        _assert_no_leaked_workers()

    def test_chaos_run_is_reproducible(self, clean_digest):
        # The same (fleet seed, fault seed) twice: identical digests
        # and identical failure telemetry — chaos runs replay.
        plan = FaultPlan.seeded(11, shards=2, barriers=6, crashes=2)
        fleet = _fleet(fault_plan=plan)
        first = fleet.run(180.0, barrier_s=30.0)
        second = fleet.run(180.0, barrier_s=30.0)  # plan auto-rewinds
        assert first.digest() == second.digest() == clean_digest
        assert first.shard_failures == second.shard_failures
        assert first.shard_restarts == second.shard_restarts

    def test_crash_before_first_barrier(self, clean_digest):
        # No checkpoint exists yet: recovery rebuilds to time zero.
        plan = FaultPlan([FaultEvent(shard=1, barrier=0, kind=CRASH)])
        report = _fleet(fault_plan=plan).run(180.0, barrier_s=30.0)
        assert report.digest() == clean_digest
        assert report.shard_restarts == 1

    def test_recovery_without_checkpoints(self, clean_digest):
        # checkpoint=False: recovery pays a full replay from zero but
        # still converges bit-identically.
        plan = FaultPlan([FaultEvent(shard=0, barrier=3, kind=CRASH)])
        report = _fleet(fault_plan=plan,
                        checkpoint=False).run(180.0, barrier_s=30.0)
        assert report.digest() == clean_digest
        assert report.shard_restarts == 1
        assert report.recovered_barriers == 1

    def test_builder_raise_is_retried(self, clean_digest):
        plan = FaultPlan([FaultEvent(shard=0, barrier=0,
                                     kind=BUILD_RAISE)])
        report = _fleet(fault_plan=plan).run(180.0, barrier_s=30.0)
        assert report.digest() == clean_digest
        assert "build" in report.shard_failures[0][0]

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
        # validation refuses both the payload and the replay), so the
        # next crash walks the shard down the whole ladder:
        # retry -> restore -> rebuild-replay -> inline demotion.
        plan = FaultPlan([
            FaultEvent(shard=1, barrier=1, kind=CORRUPT_DIGEST),
            FaultEvent(shard=1, barrier=2, kind=CRASH),
        ])
        report = _fleet(fault_plan=plan, max_shard_retries=1,
                        barrier_timeout_s=5.0).run(180.0, barrier_s=30.0)
        # Demoted, not diverged: the inline rebuild is authoritative.
        assert report.digest() == clean_digest
        assert report.degraded_shards == [1]
        causes = report.shard_failures[1]
        assert any("crash" in c for c in causes)
        assert any("CheckpointError" in c for c in causes)
        # The ladder's last rung is recorded as such.
        assert report.recovery_events[-1].rung == "inline"
        assert report.recovery_events[-1].shard == 1
        _assert_no_leaked_workers()

    def test_demoted_shard_finishes_remaining_barriers(self,
                                                       clean_digest):
        # Demotion early in the run: the slice completes every later
        # chunk inline alongside the healthy worker shards.
        plan = FaultPlan([
            FaultEvent(shard=0, barrier=1, kind=CORRUPT_DIGEST),
            FaultEvent(shard=0, barrier=2, kind=CRASH),
        ])
        report = _fleet(fault_plan=plan, max_shard_retries=0).run(
            180.0, barrier_s=30.0)
        assert report.digest() == clean_digest
        assert report.degraded_shards == [0]
        assert report.shard_restarts == 1


class TestSupervisionKnobs:
    def test_knob_validation(self):
        with pytest.raises(SimulationError):
            _fleet(barrier_timeout_s=0.0)
        with pytest.raises(SimulationError):
            _fleet(max_shard_retries=-1)
        with pytest.raises(SimulationError):
            _fleet(drain_timeout_s=0.0)

    def test_drain_timeout_is_configurable(self):
        # The pool-teardown join budget used to be a hard-coded 5 s;
        # a custom budget must drain a healthy fleet without force.
        report = _fleet(count=4, shards=2,
                        drain_timeout_s=2.0).run(60.0, barrier_s=30.0)
        assert report.forced_terminations == 0
        _assert_no_leaked_workers()

    def test_per_shard_walls_are_worker_side(self):
        # Walls are measured inside each worker around its own chunk,
        # so their sum cannot exceed (shards x elapsed wall) and no
        # shard is charged for the parent blocking on its siblings.
        report = _fleet(count=8, shards=4).run(120.0, barrier_s=30.0)
        assert len(report.shard_walls) == 4
        assert all(w > 0 for w in report.shard_walls)
        assert max(report.shard_walls) <= report.wall_s

    def test_fleet_report_digest_orders_globally(self):
        report = _fleet(count=9, shards=3).run(60.0, barrier_s=30.0)
        assert [d.index for d in report.digests] == list(range(9))


class TestPoolTeardown:
    def test_healthy_teardowns_are_never_forced(self):
        """Tearing down a pool races the executor's own manager
        thread, which reaps the same worker: the ``waitpid`` that
        loses gets ``ECHILD``.  A teardown that trusted ``is_alive()``
        counted that healthy worker as one that outlived SIGTERM, and
        one that returned before the manager thread recorded the exit
        left the worker listed as a live child.  Many rounds of more
        pools than cores, with shortened GIL switch intervals to
        interleave the two threads, must force nothing and leave no
        worker or manager thread behind any teardown."""
        per_round = 2 * (os.cpu_count() or 1) + 2
        forced = 0
        unreaped = []
        lingering = []
        interval = sys.getswitchinterval()
        try:
            for round_ in range(16):
                sys.setswitchinterval(1e-6 if round_ % 2 else 1e-3)
                pools = []
                for _ in range(per_round):
                    pool = ProcessPoolExecutor(max_workers=1)
                    pool.submit(int).result(timeout=30.0)
                    pools.append(pool)
                for pool in pools:
                    workers = list(pool._processes.values())
                    manager = pool._executor_manager_thread
                    forced += ShardedWorld._kill_pool(
                        pool, drain_timeout_s=10.0)
                    unreaped += [w for w in workers if w.exitcode is None]
                    if manager.is_alive():
                        lingering.append(manager)
        finally:
            sys.setswitchinterval(interval)
        assert forced == 0
        assert not unreaped
        assert not lingering
        _assert_no_leaked_workers()
