"""Quick-mode fault-injection smoke: one crash, full recovery, seconds.

The chaos suite proper (``tests/sim/test_chaos_recovery.py``) sweeps
seeded fault plans; this file is the PR-gating smoke CI runs in the
shard-chaos job: a 10-device two-shard fleet on two shard-host
daemons with one injected crash mid-run must respawn the lost daemon
and reschedule its shard back onto it, recover bit-identically to the
fault-free run, account for the crash in the supervision telemetry,
leak no host daemons, and finish inside a small wall budget — so a
recovery regression fails pull requests in seconds instead of
surfacing as a hung nightly.
"""

from __future__ import annotations

import functools
import multiprocessing
import time

from repro.sim.faults import CRASH, FaultEvent, FaultPlan
from repro.sim.shards import ShardedWorld
from repro.sim.workload import poller_shard

SMOKE_DEVICES = 10
SMOKE_SIM_S = 120.0
SMOKE_BARRIER_S = 30.0
SMOKE_WALL_LIMIT_S = 30.0


def _fleet(fault_plan=None) -> ShardedWorld:
    builder = functools.partial(
        poller_shard, fleet_size=SMOKE_DEVICES, watts=0.25,
        period_s=60.0, bytes_out=64, record_interval_s=1.0,
        decay_enabled=False)
    return ShardedWorld(builder, SMOKE_DEVICES, shards=2,
                        fault_plan=fault_plan, retry_backoff_s=0.01,
                        tick_s=0.01, seed=7)


def test_chaos_smoke_recovers_bit_identically():
    clean = _fleet().run(SMOKE_SIM_S, barrier_s=SMOKE_BARRIER_S)
    assert clean.shard_restarts == 0

    plan = FaultPlan([FaultEvent(shard=1, barrier=2, kind=CRASH)])
    start = time.perf_counter()
    chaos = _fleet(plan).run(SMOKE_SIM_S, barrier_s=SMOKE_BARRIER_S)
    wall = time.perf_counter() - start

    assert chaos.digest() == clean.digest(), (
        "recovered chaos run diverged from the fault-free fleet")
    assert plan.consumed == 1
    # A crash takes its host down: the daemon is respawned and the
    # shard rescheduled back onto it; nothing retries.
    assert chaos.shard_reschedules == 1
    assert chaos.shard_restarts == 0
    assert chaos.recovered_barriers == 1
    assert not chaos.degraded_shards
    assert chaos.shard_failures.get(1)
    assert any("host 1 lost" in line for line in chaos.host_failures)
    assert chaos.placement == {0: 0, 1: 1}
    assert not multiprocessing.active_children(), "leaked host daemons"
    assert wall < SMOKE_WALL_LIMIT_S, (
        f"chaos smoke took {wall:.2f}s (limit {SMOKE_WALL_LIMIT_S}s)")
