"""Quick-mode smoke for the event-time frontier scheduler.

The full ``fleet_1k_staggered`` bench runs 1000 randomized-phase
pollers for 600 simulated seconds; this is the PR-gating slice — a
32-device, 2-simulated-minute staggered fleet whose floors (frontier
rounds actually iterate, stacked cohort spans dominate scalar
fallbacks, the poll-skip cache fires, conservation holds, and the
whole thing finishes in seconds) catch a broken or degraded cohort
path long before the full bench matrix reports.  CI runs it in the
bench-smoke job and again in the numba-kernel leg, so the scheduler
is exercised over both segkernel backends.
"""

from __future__ import annotations

import time

from repro.sim.workload import staggered_poller_shard
from repro.sim.world import World

SMOKE_DEVICES = 32
SMOKE_SIM_S = 120.0
SMOKE_WALL_LIMIT_S = 20.0


def _build() -> World:
    # 0.25 W against the ~11.9 J pooled activation bill (as in the
    # fleet smoke): every poller crosses and transfers inside the
    # 2-minute run, so the smoke covers waits, crossings, and sends.
    world = World(tick_s=0.01, seed=7, fast_forward=True)
    staggered_poller_shard(world, 0, SMOKE_DEVICES, watts=0.25,
                           period_s=60.0, bytes_out=64,
                           record_interval_s=5.0, decay_enabled=False)
    return world


def test_staggered_smoke_floors():
    world = _build()
    start = time.perf_counter()
    world.run(SMOKE_SIM_S)
    wall = time.perf_counter() - start

    assert wall < SMOKE_WALL_LIMIT_S, (
        f"staggered smoke fleet took {wall:.2f}s "
        f"(limit {SMOKE_WALL_LIMIT_S}s)")
    assert world.barrier_rounds > 0, (
        "the frontier must count its rounds")
    assert world.independent_cohort_spans > 0, (
        "randomized phases must still form stacked cohort spans")
    assert (world.independent_cohort_spans
            > world.independent_scalar_spans), (
        "staggered smoke fleet degraded to scalar spans")
    assert world.horizon_cache_hits > 0, (
        "the post-commit poll-skip cache never fired")
    assert world.horizon_polls > 0
    assert world.conservation_error() < 1e-8
    assert world.total_radio_activations() >= SMOKE_DEVICES
