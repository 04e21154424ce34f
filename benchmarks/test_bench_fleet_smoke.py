"""Quick-mode fleet perf smoke: tiny fleet, real floors, seconds not
minutes.

The full bench suite (``test_bench_core_step.py``) runs simulated
hours and a 1000-device fleet; this file is the PR-gating smoke: a
16-device, 2-simulated-minute fleet whose floors — macro-step
speedup over a tick slice, full cohort batching, conservation —
catch the same regressions in a couple of wall-clock seconds.  CI
runs it as a separate fast job so perf regressions fail pull
requests instead of silently eroding ``BENCH_core.json``; it also
rides along in tier-1.
"""

from __future__ import annotations

import time

from repro.sim.workload import fleet_of_pollers
from repro.sim.world import World
from tests.sim.world_oracle import run_per_device

SMOKE_DEVICES = 16
SMOKE_SIM_S = 120.0
SMOKE_TICK_SLICE_S = 12.0
#: Conservative: the full bench floors 15x on the 50-device fleet;
#: the smoke fleet is smaller (less cohort amortization) and the
#: slice is short (timer noise), so the smoke floor is looser — it
#: exists to catch order-of-magnitude regressions fast.
SMOKE_SPEEDUP_FLOOR = 5.0
SMOKE_WALL_LIMIT_S = 20.0


def _build(fast_forward: bool) -> World:
    # 0.25 W against the ~11.9 J pooled activation bill: each poller
    # crosses after ~50 simulated seconds of pooled waiting, so the
    # smoke run exercises the wait, the crossing, and the transfer.
    world = World(tick_s=0.01, seed=11, fast_forward=fast_forward)
    fleet_of_pollers(world, SMOKE_DEVICES, watts=0.25, period_s=60.0,
                     bytes_out=64, record_interval_s=1.0,
                     decay_enabled=False)
    return world


def test_fleet_smoke_floors():
    fast_wall = float("inf")
    world = None
    for _ in range(2):
        candidate = _build(True)
        start = time.perf_counter()
        candidate.run(SMOKE_SIM_S)
        wall = time.perf_counter() - start
        if wall < fast_wall:
            fast_wall, world = wall, candidate

    # The tick-slicing baseline runs each device's own tick loop: a
    # tick-only fleet on the frontier pays heap bookkeeping per tick
    # that no real run does, which would inflate the ratio.
    tick_world = _build(False)
    start = time.perf_counter()
    run_per_device(tick_world, SMOKE_TICK_SLICE_S)
    slice_wall = time.perf_counter() - start

    speedup = ((slice_wall / SMOKE_TICK_SLICE_S)
               / (fast_wall / SMOKE_SIM_S))
    assert fast_wall < SMOKE_WALL_LIMIT_S, (
        f"smoke fleet took {fast_wall:.2f}s (limit {SMOKE_WALL_LIMIT_S}s)")
    assert speedup >= SMOKE_SPEEDUP_FLOOR, (
        f"smoke fleet only {speedup:.1f}x over tick-slicing "
        f"(floor {SMOKE_SPEEDUP_FLOOR}x)")
    assert world.cohort_fallbacks == 0, (
        "homogeneous smoke fleet must stay fully cohort-batched")
    assert world.conservation_error() < 1e-8
    assert world.total_radio_activations() > 0
    assert world.fast_forwarded_ticks > 100_000
