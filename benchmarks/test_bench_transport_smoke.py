"""Quick-mode network-chaos smoke: crash plus partition, seconds.

The socketed chaos suite proper (``tests/sim/test_transport_chaos.py``)
sweeps every network fault kind over several seed pairs; this file is
the PR-gating smoke CI runs in the shard-chaos job: a 6-device
two-shard fleet on two shard-host daemons takes a seeded daemon crash
and a partition in the same run and must finish bit-identically to
the inline fault-free run — every injection consumed, no leaked
daemons, inside a small wall budget.  A cross-host recovery
regression fails pull requests in seconds instead of surfacing as a
hung nightly.  (The single-crash reschedule gate is
``test_bench_chaos_smoke.py``.)
"""

from __future__ import annotations

import functools
import multiprocessing
import time

from repro.sim.faults import FaultPlan
from repro.sim.shards import ShardedWorld
from repro.sim.workload import poller_shard

SMOKE_DEVICES = 6
SMOKE_SIM_S = 90.0
SMOKE_BARRIER_S = 30.0
SMOKE_WALL_LIMIT_S = 45.0


def _builder():
    return functools.partial(
        poller_shard, fleet_size=SMOKE_DEVICES, watts=0.25,
        period_s=60.0, bytes_out=64, record_interval_s=1.0,
        decay_enabled=False)


def _fleet(fault_plan=None) -> ShardedWorld:
    return ShardedWorld(_builder(), SMOKE_DEVICES, shards=2,
                        transport="sockets", hosts=2,
                        fault_plan=fault_plan, retry_backoff_s=0.01,
                        barrier_timeout_s=15.0, heartbeat_s=0.2,
                        tick_s=0.01, seed=7)


def _inline_digest() -> str:
    """The oracle: the same fleet inline — no daemons, no sockets."""
    return ShardedWorld(_builder(), SMOKE_DEVICES, shards=0,
                        tick_s=0.01, seed=7).run(
        SMOKE_SIM_S, barrier_s=SMOKE_BARRIER_S).digest()


def test_transport_smoke_seeded_crash_plus_partition():
    # One daemon crash AND one partition drawn from a fault seed.
    # Whatever hosts the draw takes down — even both at one barrier,
    # which can force inline demotion — recovery must converge on the
    # fault-free digest, with every injection consumed exactly once
    # and no daemon outliving run().
    plan = FaultPlan.seeded(31, shards=2, barriers=3, crashes=1,
                            partitions=1)
    start = time.perf_counter()
    chaos = _fleet(plan).run(SMOKE_SIM_S, barrier_s=SMOKE_BARRIER_S)
    wall = time.perf_counter() - start

    assert chaos.digest() == _inline_digest(), (
        "seeded network-chaos run diverged from the inline oracle")
    assert plan.consumed == 2
    assert chaos.host_failures
    # The partitioned daemon survives unreachable until teardown
    # forcibly terminates it.
    assert chaos.forced_terminations >= 1
    assert not multiprocessing.active_children(), "leaked host daemons"
    assert wall < SMOKE_WALL_LIMIT_S, (
        f"seeded transport smoke took {wall:.2f}s "
        f"(limit {SMOKE_WALL_LIMIT_S}s)")
