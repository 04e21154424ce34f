"""Quick-mode switching-span perf smoke: seconds, not minutes.

The full bench suite's ``switching_macro`` runs a simulated hour; this
file is the PR-gating smoke: a single device whose spans cross a
mid-span drain clamp and a debt zero-crossing inside ten simulated
minutes, floored on macro-step speedup over a tick slice, zero
refusals, ceilings on ticks executed one at a time and on committed
spans, located switches, and conservation.  A second smoke runs a
small switch-bound *cohort* through the stacked segment chain and
asserts it stays batched (zero demotions) with ulp-level parity
against the scalar segmented path.  CI runs both in the same fast job
as the fleet smoke so a segmented-engine regression fails pull
requests before the full bench matrix finishes.
"""

from __future__ import annotations

import time

import pytest

from repro.core.tap import TapType
from repro.sim.engine import CinderSystem
from repro.sim.world import World
from run_bench import count_spans
from tests.sim.world_oracle import run_per_device

SMOKE_SIM_S = 600.0
SMOKE_TICK_SLICE_S = 60.0
#: Looser than the full bench's 5x: the smoke run is short (timer
#: noise) — it exists to catch order-of-magnitude regressions fast.
SMOKE_SPEEDUP_FLOOR = 3.0
SMOKE_WALL_LIMIT_S = 20.0
#: Ceiling on ticks executed one at a time, per simulated hour.  The
#: smoke device runs no process, so its spans carry the whole run
#: (measured 0); a trace record that ticked again would read 3,600.
SMOKE_NORMAL_TICKS_PER_HOUR = 60.0
#: Ceiling on committed spans per simulated hour.  Without a process
#: or a probe nothing executes, so one span carries the whole run
#: (measured 1); record instants that bounded spans again would read
#: 3,600.
SMOKE_SPANS_PER_HOUR = 60.0


def _build(fast_forward: bool) -> CinderSystem:
    system = CinderSystem(battery_joules=2_000.0, tick_s=0.01,
                          record_interval_s=1.0, seed=13,
                          decay_enabled=False,
                          fast_forward=fast_forward)
    kernel = system.kernel
    # Clamp material: 1 J against a 30 mW net drain empties ~33 s in.
    task = system.new_reserve(name="task")
    system.battery_reserve.transfer_to(task, 1.0)
    kernel.create_tap(system.battery_reserve, task, 0.02,
                      name="task.feed")
    archive = system.new_reserve(name="archive")
    kernel.create_tap(task, archive, 0.05, name="task.drain")
    # Debt material: crosses zero at 60 s, backward tap resumes.
    debtor = system.new_reserve(name="debtor")
    kernel.create_tap(system.battery_reserve, debtor, 0.03, name="repay")
    kernel.create_tap(debtor, system.battery_reserve, 0.05,
                      TapType.PROPORTIONAL, name="back")
    debtor.consume(1.8, allow_debt=True)
    # Chained apps: enough live topology that the tick side pays a
    # realistic per-tick cost (a near-empty graph makes the measured
    # ratio pure timer noise — both walls land in the ~50 ms range).
    for i in range(4):
        app = system.powered_reserve(0.06, name=f"app{i}")
        sub = system.new_reserve(name=f"app{i}.sub")
        kernel.create_tap(app, sub, 0.05, TapType.PROPORTIONAL,
                          name=f"app{i}.t1")
        kernel.create_tap(sub, system.battery_reserve, 0.04,
                          TapType.PROPORTIONAL, name=f"app{i}.t2")
    return system


def test_switching_smoke_floors():
    fast_wall = float("inf")
    system = None
    for _ in range(2):
        candidate = _build(True)
        spans = count_spans(candidate)
        start = time.perf_counter()
        candidate.run(SMOKE_SIM_S)
        wall = time.perf_counter() - start
        if wall < fast_wall:
            fast_wall, system, system_spans = wall, candidate, spans

    # Best-of-2 on the tick side too: both walls are sub-second, so
    # a single cold run would let scheduler noise bias the ratio.
    slice_wall = float("inf")
    for _ in range(2):
        tick_system = _build(False)
        start = time.perf_counter()
        tick_system.run(SMOKE_TICK_SLICE_S)
        slice_wall = min(slice_wall, time.perf_counter() - start)

    speedup = ((slice_wall / SMOKE_TICK_SLICE_S)
               / (fast_wall / SMOKE_SIM_S))
    assert fast_wall < SMOKE_WALL_LIMIT_S, (
        f"switching smoke took {fast_wall:.2f}s "
        f"(limit {SMOKE_WALL_LIMIT_S}s)")
    assert speedup >= SMOKE_SPEEDUP_FLOOR, (
        f"switching smoke only {speedup:.1f}x over tick-slicing "
        f"(floor {SMOKE_SPEEDUP_FLOOR}x)")
    assert system.span_refusals == 0, (
        "the segmented engine refused spans the smoke workload needs")
    normal_ticks = system.clock.ticks - system.fast_forwarded_ticks
    per_hour = normal_ticks * 3600.0 / SMOKE_SIM_S
    assert per_hour <= SMOKE_NORMAL_TICKS_PER_HOUR, (
        f"switching smoke executed {per_hour:g} normal ticks per "
        f"simulated hour (ceiling {SMOKE_NORMAL_TICKS_PER_HOUR:g})")
    spans_per_hour = system_spans[0] * 3600.0 / SMOKE_SIM_S
    assert spans_per_hour <= SMOKE_SPANS_PER_HOUR, (
        f"switching smoke committed {spans_per_hour:g} spans per "
        f"simulated hour (ceiling {SMOKE_SPANS_PER_HOUR:g})")
    assert system.graph.span_switches >= 2
    assert system.span_segments > 0
    assert abs(system.graph.conservation_error()) < 1e-9


BATCH_SMOKE_DEVICES = 8
BATCH_SMOKE_SIM_S = 300.0


def _build_cohort() -> World:
    world = World(tick_s=0.01, seed=17, fast_forward=True)
    for i in range(BATCH_SMOKE_DEVICES):
        device = world.add_device(name=f"sw{i}", record_interval_s=5.0,
                                  decay_enabled=False)
        task = device.new_reserve(name="task")
        # 0.21, not 0.20: a 0.2 stagger lands several clamp instants
        # exactly on the 5 s record boundary, where the span *ends* at
        # the switch and no mid-span segment split is counted.
        device.battery_reserve.transfer_to(task, 1.0 + 0.21 * i)
        device.kernel.create_tap(device.battery_reserve, task, 0.02,
                                 name="task.feed")
        archive = device.new_reserve(name="archive")
        device.kernel.create_tap(task, archive, 0.05, name="task.drain")
    return world


def test_batched_switching_smoke():
    """The stacked segment chain carries a staggered switch-bound
    cohort: zero demotions, zero refusals, ulp parity vs scalar."""
    world = _build_cohort()
    world.run(BATCH_SMOKE_SIM_S)
    assert world.cohort_demotions == 0, (
        "the stacked chain demoted switch-bound devices it must carry")
    assert world.cohort_spans > 0
    assert world.span_segments > 0
    assert sum(d.span_refusals for d in world.devices) == 0
    assert sum(d.graph.span_switches for d in world.devices) \
        >= BATCH_SMOKE_DEVICES

    scalar = _build_cohort()
    run_per_device(scalar, BATCH_SMOKE_SIM_S)
    for fast_dev, ref_dev in zip(world.devices, scalar.devices):
        for rf, rs in zip(fast_dev.graph.reserves,
                          ref_dev.graph.reserves):
            assert rf.level == pytest.approx(rs.level, rel=1e-9,
                                             abs=1e-12), rf.name
        assert abs(fast_dev.graph.conservation_error()) < 1e-9
