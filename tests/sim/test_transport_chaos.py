"""Socketed chaos: network faults recover bit-identically, cross-host.

The acceptance contract for the distributed fault ladder:

* a socketed fleet under each network fault kind (``drop_msg``,
  ``delay_msg``, ``dup_msg``, ``partition``) and under a daemon
  ``crash`` finishes with a :meth:`FleetReport.digest`
  **bit-identical** to the fault-free run, under several distinct
  ``(fleet seed, fault seed)`` pairs;
* a host loss *reschedules* the lost shard — onto its respawned
  daemon after a crash, onto a surviving host (a spare first) after a
  partition — with ``degraded_shards == []``, and inline demotion in
  the parent happens only when **no** healthy host remains;
* a partitioned daemon survives until teardown forcibly terminates
  it (counted in ``forced_terminations``);
* chaos runs replay: the same pair twice gives identical digests and
  identical recovery telemetry.

Message-loss faults are only detectable by deadline, so every fleet
here sets ``barrier_timeout_s``; host losses are detected faster than
that through the heartbeat probes.
"""

from __future__ import annotations

import functools
import multiprocessing

import pytest

from repro.sim.faults import (CRASH, DELAY_MSG, DROP_MSG, DUP_MSG,
                              PARTITION, FaultEvent, FaultPlan)
from repro.sim.shards import ShardedWorld
from repro.sim.workload import poller_shard

#: Fleet shape shared by every run: small enough for wall-clock
#: sanity, long enough for three barriers (so barrier-1 faults leave
#: a checkpoint behind and work after recovery).
COUNT = 6
DURATION_S = 90.0
BARRIER_S = 30.0
BARRIERS = 3

#: The acceptance pairs: three distinct (fleet seed, fault seed).
PAIRS = [(7, 101), (11, 202), (23, 303)]


def _builder(count: int):
    return functools.partial(poller_shard, fleet_size=count, watts=0.25,
                             period_s=60.0, bytes_out=64,
                             record_interval_s=1.0, decay_enabled=False)


def _fleet(fleet_seed: int, shards: int = 2, hosts: int = 2,
           **kwargs) -> ShardedWorld:
    # A barrier of this fleet takes tens of ms; a lost reply is only
    # detected at the deadline, so the deadline is each drop's cost.
    kwargs.setdefault("barrier_timeout_s", 3.0)
    kwargs.setdefault("retry_backoff_s", 0.01)
    kwargs.setdefault("heartbeat_s", 0.2)
    return ShardedWorld(_builder(COUNT), COUNT, shards=shards,
                        transport="sockets", hosts=hosts,
                        tick_s=0.01, seed=fleet_seed, **kwargs)


def _seeded_plan(fault_seed: int, kind: str) -> FaultPlan:
    counts = {DROP_MSG: "drop_msgs", DELAY_MSG: "delay_msgs",
              DUP_MSG: "dup_msgs", CRASH: "crashes",
              PARTITION: "partitions"}
    return FaultPlan.seeded(fault_seed, shards=2, barriers=BARRIERS,
                            delay_s=0.3, **{"crashes": 0, counts[kind]: 1})


def _assert_no_leaked_processes():
    leaked = multiprocessing.active_children()
    assert not leaked, f"leaked host daemons: {leaked}"


@pytest.fixture(scope="module")
def clean_digest():
    """Per-fleet-seed fault-free digests, from the inline oracle."""
    cache = {}

    def get(fleet_seed: int) -> str:
        if fleet_seed not in cache:
            world = ShardedWorld(_builder(COUNT), COUNT, shards=0,
                                 tick_s=0.01, seed=fleet_seed)
            cache[fleet_seed] = world.run(DURATION_S,
                                          barrier_s=BARRIER_S).digest()
        return cache[fleet_seed]

    return get


class TestNetworkFaultBitIdentity:
    @pytest.mark.parametrize("fleet_seed,fault_seed", PAIRS)
    @pytest.mark.parametrize("kind", [DROP_MSG, DELAY_MSG, DUP_MSG,
                                      CRASH, PARTITION])
    def test_fault_kind_recovers_bit_identically(self, kind, fleet_seed,
                                                 fault_seed,
                                                 clean_digest):
        plan = _seeded_plan(fault_seed, kind)
        report = _fleet(fleet_seed, fault_plan=plan).run(
            DURATION_S, barrier_s=BARRIER_S)
        assert report.digest() == clean_digest(fleet_seed), \
            f"{kind} (fleet {fleet_seed}, fault {fault_seed})"
        assert plan.consumed == 1
        assert report.transport == "sockets"
        # Two healthy hosts means no fault here ever needs the
        # parent: degradation is reserved for zero healthy hosts.
        assert not report.degraded_shards
        if kind in (CRASH, PARTITION):
            assert report.shard_reschedules == 1
            assert report.host_failures
        _assert_no_leaked_processes()


class TestCrossHostRescheduling:
    def test_crash_of_shared_host_reschedules_its_shards(self,
                                                         clean_digest):
        # Both shards share host 0 and shard 0's crash takes it down.
        # Shard 0 respawns the daemon; shard 1, if its reply did not
        # beat the exit, finds a new daemon at a new address — still a
        # host loss, so a reschedule, never a budget-consuming retry.
        plan = FaultPlan([FaultEvent(shard=0, barrier=1, kind=CRASH)])
        report = _fleet(7, hosts=1, fault_plan=plan).run(
            DURATION_S, barrier_s=BARRIER_S)
        assert report.digest() == clean_digest(7)
        assert report.degraded_shards == []
        events = [(e.shard, e.barrier, e.rung, e.attempt, e.host)
                  for e in report.recovery_events]
        assert events[0] == (0, 1, "reschedule", 0, 0)
        assert events[1:] in ([], [(1, 1, "reschedule", 0, 0)])
        assert report.shard_restarts == 0
        assert report.placement == {0: 0, 1: 0}
        _assert_no_leaked_processes()

    def test_host_loss_reschedules_onto_survivor(self, clean_digest):
        # A partitioned host cannot be respawned: its shard moves to a
        # surviving host, the idle spare (host 2) before busy host 1.
        plan = FaultPlan([FaultEvent(shard=0, barrier=1,
                                     kind=PARTITION)])
        report = _fleet(7, hosts=3, fault_plan=plan).run(
            DURATION_S, barrier_s=BARRIER_S)
        assert report.digest() == clean_digest(7)
        assert report.degraded_shards == []
        assert [(e.shard, e.barrier, e.rung, e.attempt, e.host)
                for e in report.recovery_events] == [
            (0, 1, "reschedule", 0, 2)]
        assert report.placement == {0: 2, 1: 1}
        _assert_no_leaked_processes()

    def test_partition_forces_termination_at_teardown(self,
                                                      clean_digest):
        # With no spare, the partitioned host's shard shares host 1.
        plan = FaultPlan([FaultEvent(shard=0, barrier=1,
                                     kind=PARTITION)])
        report = _fleet(7, fault_plan=plan).run(DURATION_S,
                                                barrier_s=BARRIER_S)
        assert report.digest() == clean_digest(7)
        assert report.degraded_shards == []
        assert report.shard_reschedules == 1
        assert report.placement == {0: 1, 1: 1}
        # The partitioned daemon was alive-but-unreachable, so no
        # shutdown could reach it: teardown terminated it.
        assert report.forced_terminations == 1
        assert any("partitioned" in line for line in report.host_failures)
        _assert_no_leaked_processes()

    def test_zero_healthy_hosts_demotes_inline(self, clean_digest):
        # One host, and the network to it is cut: the *only* situation
        # in which the socketed ladder falls back to inline execution.
        plan = FaultPlan([FaultEvent(shard=0, barrier=1,
                                     kind=PARTITION)])
        report = _fleet(7, hosts=1, fault_plan=plan).run(
            DURATION_S, barrier_s=BARRIER_S)
        assert report.digest() == clean_digest(7)
        assert sorted(report.degraded_shards) == [0, 1]
        assert report.shard_reschedules == 0
        assert [(e.shard, e.rung) for e in report.recovery_events] == [
            (0, "inline"), (1, "inline")]
        _assert_no_leaked_processes()

    def test_chaos_run_is_reproducible(self, clean_digest):
        plan = FaultPlan.seeded(101, shards=2, barriers=BARRIERS,
                                crashes=1)
        fleet = _fleet(7, fault_plan=plan)
        first = fleet.run(DURATION_S, barrier_s=BARRIER_S)
        second = fleet.run(DURATION_S, barrier_s=BARRIER_S)
        assert first.digest() == second.digest() == clean_digest(7)
        assert first.shard_reschedules == second.shard_reschedules
        assert first.host_failures == second.host_failures
        assert ([ (e.shard, e.barrier, e.rung, e.host)
                  for e in first.recovery_events ]
                == [ (e.shard, e.barrier, e.rung, e.host)
                     for e in second.recovery_events ])
        _assert_no_leaked_processes()


class TestSocketedFleetBasics:
    def test_fault_free_run_matches_inline_oracle(self, clean_digest):
        report = _fleet(7).run(DURATION_S, barrier_s=BARRIER_S)
        assert report.digest() == clean_digest(7)
        assert report.transport == "sockets"
        assert report.hosts == 2
        assert report.placement == {0: 0, 1: 1}
        assert report.shard_reschedules == 0
        assert report.forced_terminations == 0
        assert not report.recovery_events
        _assert_no_leaked_processes()

    def test_knob_validation(self):
        with pytest.raises(Exception):
            ShardedWorld(_builder(4), 4, shards=2, transport="carrier-pigeon")
        with pytest.raises(Exception):
            # The process-pool tier is gone: daemons are the only one.
            ShardedWorld(_builder(4), 4, shards=2, transport="processes")
        # Hosts are meaningful without naming the transport.
        assert ShardedWorld(_builder(4), 4, shards=2, hosts=2).hosts == 2
        with pytest.raises(Exception):
            ShardedWorld(_builder(4), 4, shards=2,
                         transport="sockets", hosts=0)
        with pytest.raises(Exception):
            ShardedWorld(_builder(4), 4, shards=2, heartbeat_s=0.0)
        with pytest.raises(Exception):
            ShardedWorld(_builder(4), 4, shards=2, drain_timeout_s=0.0)
