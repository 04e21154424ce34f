"""Core-engine perf benchmark runner: writes BENCH_core.json.

Tracks the hot paths this repo's performance work targets:

* **micro** — ``ResourceGraph.step`` on the canonical production
  topology (100 reserves fed from the battery, 200 taps: one constant
  feed plus one backward proportional drain per reserve, global decay
  on), compiled-FlowPlan path vs the per-object reference path, the
  median ratio of five alternating rounds.
* **macro** — a 1-simulated-hour idle-heavy ``CinderSystem`` (a
  maintenance process waking once a minute), idle fast-forward vs
  tick-by-tick, measured in wall-clock seconds.
* **netd_macro** — a 1-simulated-hour pooled-netd poller whose thread
  spends almost the whole run blocked on ``required_energy``
  (§5.5.2): the closed-form pooled-wait accrual must macro-step
  through the waits with bit-identical event timing vs tick-by-tick.
* **chain_macro** — a 1-simulated-hour idle-heavy device whose
  reserves form 3-deep proportional chains (the topologies the scalar
  span closed form refused): the coupled matrix-exponential solver
  must macro-step them with zero span refusals.
* **switching_macro** — a 1-simulated-hour device whose spans cross
  piecewise-linear regime switches (constant drains clamping on
  emptied reserves, debt levels crossing zero): the segmented span
  engine must macro-step through the located switch instants with
  zero refusals.
* **fleet** — a 50-device :class:`~repro.sim.world.World` of
  staggered pollers; wall-clock for 10 simulated minutes plus a
  speedup estimate from a tick-by-tick slice run through the
  per-device oracle loop, the median of three alternating
  (fast-forward, tick-slice) pairs.
* **fleet_1k_staggered** — the event-time frontier's headline: 1000
  pollers with *randomized* poll phases (no comb of coinciding
  wakes), best-of-3 us/device-second plus the frontier-round and
  stacked-vs-scalar cohort span counts.

Run from the repo root (writes ``BENCH_core.json`` next to this
checkout's ROADMAP)::

    python benchmarks/run_bench.py

The pytest wrapper ``benchmarks/test_bench_core_step.py`` executes the
same collectors and asserts the floors (3x micro / 10x macro / 5x
netd / the fleet wall ceiling), so the perf trajectory is enforced,
not just recorded.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from typing import List

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
# Allow `python benchmarks/run_bench.py`: the package lives under src/
# and the per-device oracle the baselines run under tests/.
for _path in (_REPO_ROOT, _SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core.graph import ResourceGraph            # noqa: E402
from repro.core.tap import TapType                    # noqa: E402
from repro.sim.engine import CinderSystem             # noqa: E402
from repro.sim.process import CpuBurn, Sleep          # noqa: E402
from repro.sim.shards import ShardedWorld             # noqa: E402
from repro.sim.workload import (fleet_of_pollers,     # noqa: E402
                                periodic_poller, poller_shard,
                                staggered_poller_shard)
from repro.sim.world import World                     # noqa: E402
from tests.sim.world_oracle import run_per_device     # noqa: E402

BENCH_PATH = os.path.join(_REPO_ROOT, "BENCH_core.json")

MICRO_RESERVES = 100
MICRO_TAPS = 200
TICK_S = 0.01
MACRO_SIM_HOURS = 1.0
NETD_SIM_HOURS = 1.0
CHAIN_SIM_HOURS = 1.0
CHAIN_APPS = 4
SWITCH_SIM_HOURS = 1.0
SWITCH_APPS = 3
FLEET_DEVICES = 50
FLEET_SIM_S = 600.0
FLEET_TICK_SLICE_S = 60.0
#: The scaling curve: device counts, all at FLEET_1K_SIM_S simulated
#: seconds with a coarser (5 s) record cadence so the 1000-device
#: point stays a tier-1-sized run.
FLEET_SCALING_DEVICES = (50, 200, 1000)
FLEET_1K_SIM_S = 600.0
FLEET_SCALING_RECORD_S = 5.0
#: The staggered headline point: randomized poll phases (no two
#: devices share a wake schedule).
FLEET_1K_STAGGERED_DEVICES = 1000
#: Shard-count sensitivity sweep (0 = inline, no daemons).
FLEET_SHARD_COUNTS = (0, 2, 4)
FLEET_SHARD_DEVICES = 200
FLEET_SHARD_SIM_S = 120.0


def build_micro_graph() -> ResourceGraph:
    """The Figure 1 pattern at scale: battery -> N apps -> battery."""
    graph = ResourceGraph(500_000.0)  # decay enabled (paper default)
    for i in range(MICRO_RESERVES):
        reserve = graph.create_reserve(level=50.0, source=graph.root,
                                       name=f"app{i}")
        graph.create_tap(graph.root, reserve, 0.070, name=f"app{i}.in")
        graph.create_tap(reserve, graph.root, 0.1, TapType.PROPORTIONAL,
                         name=f"app{i}.back")
    assert MICRO_TAPS == 2 * MICRO_RESERVES
    return graph


def time_step_round(step, iterations: int = 2000) -> float:
    """Mean microseconds per ``step(TICK_S)`` call over one round."""
    start = time.perf_counter()
    for _ in range(iterations):
        step(TICK_S)
    return (time.perf_counter() - start) / iterations * 1e6


def run_micro() -> dict:
    # Five alternating (graph.step, step_reference) rounds, and the
    # median of the per-round ratios, as in run_fleet: both sides of a
    # ratio run back to back, so host load that drifts over the call
    # moves numerator and denominator together.
    vec_graph = build_micro_graph()
    ref_graph = build_micro_graph()
    vec_graph.step(TICK_S)  # warm up / compile the plan
    ref_graph.step_reference(TICK_S)
    vectorized = []
    reference = []
    ratios = []
    for _ in range(5):
        vectorized.append(time_step_round(vec_graph.step))
        reference.append(time_step_round(ref_graph.step_reference))
        ratios.append(reference[-1] / vectorized[-1])
    assert vec_graph.fallback_steps == 0, "micro topology must vectorize"
    return {
        "reserves": MICRO_RESERVES,
        "taps": MICRO_TAPS,
        "tick_s": TICK_S,
        "vectorized_us_per_step": round(statistics.median(vectorized), 3),
        "reference_us_per_step": round(statistics.median(reference), 3),
        "speedup": round(statistics.median(ratios), 2),
        "speedup_pairs": [round(r, 2) for r in ratios],
    }


def build_macro_system(fast_forward: bool) -> CinderSystem:
    """An idle-heavy device: one maintenance wakeup per minute."""
    def maintenance(ctx):
        while True:
            yield Sleep(60.0)
            yield CpuBurn(0.02)

    system = CinderSystem(battery_joules=15_000.0, tick_s=TICK_S,
                          record_interval_s=1.0, seed=42,
                          fast_forward=fast_forward)
    for i in range(8):
        system.powered_reserve(0.050, name=f"svc{i}")
    worker = system.powered_reserve(0.200, name="maint")
    system.spawn(maintenance, "maint", reserve=worker)
    return system


def normal_ticks(system: CinderSystem) -> int:
    """Ticks the device executed one at a time: its clock's ticks
    less the ones its spans fast-forwarded."""
    return system.clock.ticks - system.fast_forwarded_ticks


def count_spans(system: CinderSystem) -> List[int]:
    """Count the spans ``system`` commits from now on.

    Wraps this one device's last commit step; the returned one-item
    list holds the running count.
    """
    count = [0]
    finish = system._ff_commit_finish

    def counted(ticks: int, power: float) -> None:
        count[0] += 1
        finish(ticks, power)

    system._ff_commit_finish = counted
    return count


def run_macro() -> dict:
    seconds = MACRO_SIM_HOURS * 3600.0
    timings = {}
    systems = {}
    spans = {}
    for fast_forward in (True, False):
        system = build_macro_system(fast_forward)
        spans[fast_forward] = count_spans(system)
        start = time.perf_counter()
        system.run(seconds)
        timings[fast_forward] = time.perf_counter() - start
        systems[fast_forward] = system
    fast = systems[True]
    return {
        "simulated_hours": MACRO_SIM_HOURS,
        "fast_forward_wall_s": round(timings[True], 3),
        "tick_wall_s": round(timings[False], 3),
        "speedup": round(timings[False] / timings[True], 2),
        "fast_forwarded_ticks": fast.fast_forwarded_ticks,
        "normal_ticks": normal_ticks(fast),
        "spans": spans[True][0],
        "conservation_error_j": fast.graph.conservation_error(),
    }


def build_netd_system(fast_forward: bool) -> CinderSystem:
    """A pooled-netd poller: 15 mW against a ~11.9 J activation bill.

    Every poll blocks in the §5.5.2 pooled path for ~13 simulated
    minutes, so virtually the whole hour is pooled waiting — exactly
    the regime the closed-form accrual must macro-step through.
    Decay is off so the sleep-span closed form (continuous ODE) and
    tick-by-tick agree bit-for-bit and the event-timing comparison is
    exact, not approximate.
    """
    system = CinderSystem(battery_joules=15_000.0, tick_s=TICK_S,
                          record_interval_s=2.0, seed=42,
                          decay_enabled=False, fast_forward=fast_forward)
    reserve = system.powered_reserve(0.015, name="poller")
    system.spawn(periodic_poller("echo", period_s=600.0, bytes_out=64,
                                 bytes_in=0), "poller", reserve=reserve)
    return system


def run_netd_macro() -> dict:
    seconds = NETD_SIM_HOURS * 3600.0
    timings = {}
    systems = {}
    spans = {}
    for fast_forward in (True, False):
        system = build_netd_system(fast_forward)
        spans[fast_forward] = count_spans(system)
        start = time.perf_counter()
        system.run(seconds)
        timings[fast_forward] = time.perf_counter() - start
        systems[fast_forward] = system
    fast, slow = systems[True], systems[False]
    events_identical = (
        fast.radio.activation_count == slow.radio.activation_count
        and fast.netd.stats.operations == slow.netd.stats.operations
        and fast.netd.stats.total_wait_seconds
        == slow.netd.stats.total_wait_seconds
        and fast.netd.pool.level == slow.netd.pool.level)
    return {
        "simulated_hours": NETD_SIM_HOURS,
        "fast_forward_wall_s": round(timings[True], 3),
        "tick_wall_s": round(timings[False], 3),
        "speedup": round(timings[False] / timings[True], 2),
        "fast_forwarded_ticks": fast.fast_forwarded_ticks,
        "normal_ticks": normal_ticks(fast),
        "spans": spans[True][0],
        "radio_activations": fast.radio.activation_count,
        "pooled_wait_s": fast.netd.stats.total_wait_seconds,
        "events_identical": events_identical,
        "conservation_error_j": fast.graph.conservation_error(),
    }


def build_chain_system(fast_forward: bool) -> CinderSystem:
    """An idle-heavy device whose reserves form 3-deep chains.

    Each app's reserve feeds a sub-reserve which feeds a sub-sub
    reserve which drains back to the battery, all proportionally —
    exactly the chained-subdivision shape the scalar span closed form
    refused (forcing tick-by-tick) and the coupled matrix-exponential
    solver now integrates.
    """
    def maintenance(ctx):
        while True:
            yield Sleep(60.0)
            yield CpuBurn(0.02)

    system = CinderSystem(battery_joules=15_000.0, tick_s=TICK_S,
                          record_interval_s=1.0, seed=42,
                          fast_forward=fast_forward)
    kernel = system.kernel
    for i in range(CHAIN_APPS):
        app = system.powered_reserve(0.06, name=f"app{i}")
        sub = system.new_reserve(name=f"app{i}.sub")
        subsub = system.new_reserve(name=f"app{i}.subsub")
        kernel.create_tap(app, sub, 0.05, TapType.PROPORTIONAL,
                          name=f"app{i}.t1")
        kernel.create_tap(sub, subsub, 0.04, TapType.PROPORTIONAL,
                          name=f"app{i}.t2")
        kernel.create_tap(subsub, system.battery_reserve, 0.03,
                          TapType.PROPORTIONAL, name=f"app{i}.t3")
    worker = system.powered_reserve(0.200, name="maint")
    system.spawn(maintenance, "maint", reserve=worker)
    return system


def run_chain_macro() -> dict:
    seconds = CHAIN_SIM_HOURS * 3600.0
    timings = {}
    systems = {}
    spans = {}
    for fast_forward in (True, False):
        system = build_chain_system(fast_forward)
        spans[fast_forward] = count_spans(system)
        start = time.perf_counter()
        system.run(seconds)
        timings[fast_forward] = time.perf_counter() - start
        systems[fast_forward] = system
    fast, slow = systems[True], systems[False]
    worst_level_rel = max(
        abs(rf.level - rs.level) / max(1e-9, abs(rs.level))
        for rf, rs in zip(fast.graph.reserves, slow.graph.reserves))
    return {
        "simulated_hours": CHAIN_SIM_HOURS,
        "chain_depth": 3,
        "fast_forward_wall_s": round(timings[True], 3),
        "tick_wall_s": round(timings[False], 3),
        "speedup": round(timings[False] / timings[True], 2),
        "fast_forwarded_ticks": fast.fast_forwarded_ticks,
        "normal_ticks": normal_ticks(fast),
        "spans": spans[True][0],
        "span_refusals": fast.span_refusals,
        "worst_level_rel_err": worst_level_rel,
        "conservation_error_j": fast.graph.conservation_error(),
    }


def build_switching_system(fast_forward: bool) -> CinderSystem:
    """An idle-heavy device whose spans cross regime switches.

    Chained proportional reserves plus the two switch classes the
    segmented span engine exists for: a task reserve whose constant
    drain outruns its feed (a mid-span drain clamp, after which the
    feed passes through) and a reserve repaying out of debt (the
    ``max(L, 0)`` zero-crossing, after which its backward tap
    resumes).  Before the segmented engine every span over this state
    refused and the whole run degraded to tick-by-tick.
    """
    def maintenance(ctx):
        while True:
            yield Sleep(60.0)
            yield CpuBurn(0.02)

    system = CinderSystem(battery_joules=15_000.0, tick_s=TICK_S,
                          record_interval_s=1.0, seed=43,
                          fast_forward=fast_forward)
    kernel = system.kernel
    for i in range(SWITCH_APPS):
        app = system.powered_reserve(0.06, name=f"app{i}")
        sub = system.new_reserve(name=f"app{i}.sub")
        kernel.create_tap(app, sub, 0.05, TapType.PROPORTIONAL,
                          name=f"app{i}.t1")
        kernel.create_tap(sub, system.battery_reserve, 0.04,
                          TapType.PROPORTIONAL, name=f"app{i}.t2")
        # The mid-span clamp: 20 mW in, 50 mW out, empties mid-run.
        task = system.new_reserve(name=f"task{i}")
        system.battery_reserve.transfer_to(task, 20.0 + 5.0 * i)
        kernel.create_tap(system.battery_reserve, task, 0.02,
                          name=f"task{i}.feed")
        archive = system.new_reserve(name=f"task{i}.archive")
        kernel.create_tap(task, archive, 0.05, name=f"task{i}.drain")
        # The debt repayment: crosses zero mid-run, drains resume.
        debtor = system.new_reserve(name=f"debtor{i}")
        kernel.create_tap(system.battery_reserve, debtor, 0.03,
                          name=f"debtor{i}.repay")
        kernel.create_tap(debtor, system.battery_reserve, 0.05,
                          TapType.PROPORTIONAL, name=f"debtor{i}.back")
        debtor.consume(30.0 + 10.0 * i, allow_debt=True)
    worker = system.powered_reserve(0.200, name="maint")
    system.spawn(maintenance, "maint", reserve=worker)
    return system


def run_switching_macro() -> dict:
    seconds = SWITCH_SIM_HOURS * 3600.0
    timings = {}
    systems = {}
    spans = {}
    for fast_forward in (True, False):
        system = build_switching_system(fast_forward)
        spans[fast_forward] = count_spans(system)
        start = time.perf_counter()
        system.run(seconds)
        timings[fast_forward] = time.perf_counter() - start
        systems[fast_forward] = system
    fast, slow = systems[True], systems[False]
    worst_level_abs = max(
        abs(rf.level - rs.level)
        for rf, rs in zip(fast.graph.reserves, slow.graph.reserves))
    return {
        "simulated_hours": SWITCH_SIM_HOURS,
        "switch_classes": ["drain_clamp", "debt_zero_crossing"],
        "fast_forward_wall_s": round(timings[True], 3),
        "tick_wall_s": round(timings[False], 3),
        "speedup": round(timings[False] / timings[True], 2),
        "fast_forwarded_ticks": fast.fast_forwarded_ticks,
        "normal_ticks": normal_ticks(fast),
        "spans": spans[True][0],
        "span_refusals": fast.span_refusals,
        "span_segments": fast.span_segments,
        "span_switches": fast.graph.span_switches,
        # The segmented wall split: switch *location* (sampling +
        # bisection) vs segment *integration* (phi-function
        # propagation).
        "span_locate_wall_s": round(fast.graph.span_locate_wall_s, 4),
        "span_integrate_wall_s": round(
            fast.graph.span_integrate_wall_s, 4),
        "worst_level_abs_err": worst_level_abs,
        "conservation_error_j": fast.graph.conservation_error(),
    }


BATCH_SWITCH_DEVICES = 32
BATCH_SWITCH_SIM_S = 600.0
BATCH_SWITCH_TICK_SLICE_S = 60.0


def build_switching_fleet(fast_forward: bool) -> World:
    """A one-cohort fleet where *every* span is switch-bound.

    Each device carries the two switch classes (a task reserve whose
    constant drain outruns its feed, and a debtor repaying out of
    debt), with seed levels staggered per device so the cohort's
    switch instants never coincide — the batched segment chain must
    advance every device to its *own* next switch.
    """
    world = World(tick_s=TICK_S, seed=11, fast_forward=fast_forward)
    for i in range(BATCH_SWITCH_DEVICES):
        device = world.add_device(name=f"sw{i}", record_interval_s=5.0,
                                  decay_enabled=False)
        kernel = device.kernel
        task = device.new_reserve(name="task")
        device.battery_reserve.transfer_to(task, 2.0 + 0.11 * i)
        kernel.create_tap(device.battery_reserve, task, 0.01,
                          name="task.feed")
        archive = device.new_reserve(name="archive")
        kernel.create_tap(task, archive, 0.03, name="task.drain")
        debtor = device.new_reserve(name="debtor")
        kernel.create_tap(device.battery_reserve, debtor, 0.02,
                          name="debtor.repay")
        debtor.consume(3.0 + 0.17 * i, allow_debt=True)
    return world


def run_batched_switching() -> dict:
    """Cohort-stacked segment chains vs scalar segmented vs ticking.

    Three contracts at once: the switch-bound cohort must stay
    batched (``cohort_demotions == 0``), the stacked solve must match
    the scalar segmented reference within documented ulp tolerance
    (stacked matrix products reorder a handful of float ops), and the
    whole thing must keep the macro-step speedup class.  The speedup
    is the median of three alternating (fast-forward, tick-slice)
    pairs, as in :func:`run_fleet`.
    """
    fast_walls = []
    slice_walls = []
    ratios = []
    for _ in range(3):
        world = build_switching_fleet(True)
        start = time.perf_counter()
        world.run(BATCH_SWITCH_SIM_S)
        fast_walls.append(time.perf_counter() - start)
        tick_world = build_switching_fleet(False)
        start = time.perf_counter()
        run_per_device(tick_world, BATCH_SWITCH_TICK_SLICE_S)
        slice_walls.append(time.perf_counter() - start)
        ratios.append((slice_walls[-1] / BATCH_SWITCH_TICK_SLICE_S)
                      / (fast_walls[-1] / BATCH_SWITCH_SIM_S))

    # The scalar segmented reference: same fleet, one device at a time.
    scalar = build_switching_fleet(True)
    run_per_device(scalar, BATCH_SWITCH_SIM_S)
    worst_rel = 0.0
    for fast_dev, ref_dev in zip(world.devices, scalar.devices):
        for rf, rs in zip(fast_dev.graph.reserves, ref_dev.graph.reserves):
            denom = max(1.0, abs(rs.level))
            worst_rel = max(worst_rel, abs(rf.level - rs.level) / denom)

    locate_wall = sum(d.graph.span_locate_wall_s for d in world.devices)
    integrate_wall = sum(d.graph.span_integrate_wall_s
                         for d in world.devices)
    return {
        "devices": BATCH_SWITCH_DEVICES,
        "simulated_s": BATCH_SWITCH_SIM_S,
        "fast_forward_wall_s": round(statistics.median(fast_walls), 3),
        "tick_slice_s": BATCH_SWITCH_TICK_SLICE_S,
        "tick_slice_wall_s": round(statistics.median(slice_walls), 3),
        "speedup_vs_tick": round(statistics.median(ratios), 2),
        "speedup_vs_tick_pairs": [round(r, 2) for r in ratios],
        "cohort_spans": world.cohort_spans,
        "cohort_demotions": world.cohort_demotions,
        "cohort_fallbacks": world.cohort_fallbacks,
        "span_refusals": sum(d.span_refusals for d in world.devices),
        "span_segments": world.span_segments,
        "span_locate_wall_s": round(locate_wall, 4),
        "span_integrate_wall_s": round(integrate_wall, 4),
        "worst_batched_vs_scalar_rel": worst_rel,
        "worst_conservation_error_j": max(
            abs(d.graph.conservation_error()) for d in world.devices),
    }


def build_fleet(fast_forward: bool) -> World:
    """A 50-device fleet of staggered pooled pollers."""
    world = World(tick_s=TICK_S, seed=7, fast_forward=fast_forward)
    fleet_of_pollers(world, FLEET_DEVICES, watts=0.02, period_s=300.0,
                     bytes_out=64, record_interval_s=1.0,
                     decay_enabled=False)
    return world


def run_fleet() -> dict:
    # Three alternating (fast-forward, tick-slice) pairs, and the
    # median of the per-pair ratios: both sides of a ratio run within
    # seconds of each other, so host load that drifts over a run moves
    # numerator and denominator together, and one disturbed pair
    # cannot set the result.
    fast_walls = []
    slice_walls = []
    ratios = []
    for _ in range(3):
        world = build_fleet(True)
        start = time.perf_counter()
        world.run(FLEET_SIM_S)
        fast_walls.append(time.perf_counter() - start)
        tick_world = build_fleet(False)
        start = time.perf_counter()
        run_per_device(tick_world, FLEET_TICK_SLICE_S)
        slice_walls.append(time.perf_counter() - start)
        # Wall-clock per simulated second, extrapolated from the slice.
        ratios.append((slice_walls[-1] / FLEET_TICK_SLICE_S)
                      / (fast_walls[-1] / FLEET_SIM_S))
    fast_wall = statistics.median(fast_walls)
    slice_wall = statistics.median(slice_walls)
    speedup = statistics.median(ratios)
    return {
        "devices": FLEET_DEVICES,
        "simulated_s": FLEET_SIM_S,
        "fast_forward_wall_s": round(fast_wall, 3),
        "tick_slice_s": FLEET_TICK_SLICE_S,
        "tick_slice_wall_s": round(slice_wall, 3),
        "speedup_vs_tick": round(speedup, 2),
        "speedup_vs_tick_pairs": [round(r, 2) for r in ratios],
        "macro_steps": world.macro_steps,
        "tick_steps": world.tick_steps,
        "fast_forwarded_ticks": world.fast_forwarded_ticks,
        "cohort_spans": world.cohort_spans,
        "cohort_fallbacks": world.cohort_fallbacks,
        "horizon_cache_hits": world.horizon_cache_hits,
        "radio_activations": world.total_radio_activations(),
        "worst_conservation_error_j": world.conservation_error(),
    }


def _scaling_builder(devices: int):
    return functools.partial(
        poller_shard, fleet_size=devices, watts=0.02, period_s=300.0,
        bytes_out=64, record_interval_s=FLEET_SCALING_RECORD_S,
        decay_enabled=False)


def run_fleet_scaling() -> dict:
    """The scaling curve: wall cost per device-second vs fleet size.

    All points run in-process (shards=0) on the event-time frontier
    — each device macro-steps on its own horizon between clock
    barriers — so per-device cost is flat in fleet size by
    construction; the floor asserts it stays flat (a scheduler that
    advanced the fleet to every fleet-wide event would pay O(fleet
    events) iterations per device and land an order of magnitude
    higher).
    """
    points = []
    for devices in FLEET_SCALING_DEVICES:
        # Best-of-3 on the headline 1000-device point: a single run
        # drifted tens of percent between bench invocations on a
        # shared runner, and the *minimum* wall is the measurement
        # least polluted by scheduler noise.  Small points stay
        # single-run — they only feed the flatness ratio.
        repeats = 3 if devices >= 1000 else 1
        report = None
        for _ in range(repeats):
            fleet = ShardedWorld(_scaling_builder(devices), devices,
                                 shards=0, tick_s=TICK_S, seed=7,
                                 fast_forward=True)
            candidate = fleet.run(FLEET_1K_SIM_S)
            if report is None or candidate.wall_s < report.wall_s:
                report = candidate
        device_seconds = devices * FLEET_1K_SIM_S
        points.append({
            "devices": devices,
            "simulated_s": FLEET_1K_SIM_S,
            "wall_s": round(report.wall_s, 3),
            "us_per_device_second": round(
                report.wall_s / device_seconds * 1e6, 3),
            "device_seconds_per_wall_s": round(
                device_seconds / report.wall_s, 1),
            "radio_activations": report.total_radio_activations(),
            "worst_conservation_error_j":
                report.worst_conservation_error(),
        })
    return {
        "record_interval_s": FLEET_SCALING_RECORD_S,
        "scheduler": "frontier",
        "points": points,
    }


def build_staggered_fleet(devices: int,
                          fast_forward: bool = True) -> World:
    """Randomized poll phases — the honest frontier workload."""
    world = World(tick_s=TICK_S, seed=7, fast_forward=fast_forward)
    staggered_poller_shard(world, 0, devices, watts=0.02,
                           period_s=300.0, bytes_out=64,
                           record_interval_s=FLEET_SCALING_RECORD_S,
                           decay_enabled=False)
    return world


def run_fleet_1k_staggered(devices: int = FLEET_1K_STAGGERED_DEVICES,
                           sim_s: float = FLEET_1K_SIM_S,
                           repeats: int = 3) -> dict:
    """The event-time frontier's headline: staggered 1k fleet.

    :func:`run_fleet_scaling` staggers poll starts evenly, which
    keeps a comb of coinciding wakes; here every phase is drawn
    uniformly in ``[0, period_s)``, so device horizons rarely
    coincide, and only the frontier's rounds put devices at different
    clocks into one stacked call.  Best-of-
    ``repeats`` wall (the minimum is the measurement least polluted
    by a shared runner's scheduler noise), with the frontier-round
    and stacked-vs-scalar span counts that prove the cohort path, not
    per-device fallback, carried the run.
    """
    best_wall = float("inf")
    world = None
    for _ in range(repeats):
        candidate = build_staggered_fleet(devices)
        start = time.perf_counter()
        candidate.run(sim_s)
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall, world = wall, candidate
    us_per_device_second = best_wall / (devices * sim_s) * 1e6
    return {
        "devices": devices,
        "simulated_s": sim_s,
        "record_interval_s": FLEET_SCALING_RECORD_S,
        "scheduler": "frontier",
        "wall_s": round(best_wall, 3),
        "us_per_device_second": round(us_per_device_second, 3),
        "independent_rounds": world.barrier_rounds,
        "independent_cohort_spans": world.independent_cohort_spans,
        "independent_scalar_spans": world.independent_scalar_spans,
        "horizon_polls": world.horizon_polls,
        "horizon_cache_hits": world.horizon_cache_hits,
        "radio_activations": world.total_radio_activations(),
        "worst_conservation_error_j": world.conservation_error(),
    }


def run_fleet_shards() -> dict:
    """Shard-count sensitivity: the same fleet at 0/2/4 shards.

    Sharded points run on one shard-host daemon per shard.  On a
    single-core runner they mostly measure spawn and transport
    overhead (recorded honestly); with real cores they divide the
    wall clock.  ``cpu_count`` is recorded so readers can interpret
    the sweep.  Every sharded digest must equal the inline
    (``shards=0``) digest: partitioning is bit-invisible.
    """
    builder = _scaling_builder(FLEET_SHARD_DEVICES)
    sweep = []
    inline_digest = None
    for shards in FLEET_SHARD_COUNTS:  # starts at 0, the inline oracle
        fleet = ShardedWorld(builder, FLEET_SHARD_DEVICES, shards=shards,
                             tick_s=TICK_S, seed=7, fast_forward=True)
        report = fleet.run(FLEET_SHARD_SIM_S)
        if inline_digest is None:
            inline_digest = report.digest()
        assert report.digest() == inline_digest, \
            f"{shards}-shard fleet diverged from the inline run"
        sweep.append({
            "shards": shards,
            "hosts": report.hosts,
            "wall_s": round(report.wall_s, 3),
            "shard_walls_s": [round(w, 3) for w in report.shard_walls],
            "worst_conservation_error_j":
                report.worst_conservation_error(),
        })
    return {
        "devices": FLEET_SHARD_DEVICES,
        "simulated_s": FLEET_SHARD_SIM_S,
        "cpu_count": os.cpu_count(),
        "sweep": sweep,
    }


def run_checkpoint_overhead() -> dict:
    """Steady-state barrier-checkpoint cost on the 50-device fleet.

    One shard-sized world slice advanced barrier-to-barrier, with the
    per-barrier checkpoint capture timed directly against the barrier
    chunk's own compute.  Poller fleets run live generator programs,
    so capture settles into the cheap replay-recipe path (one state
    digest per barrier) after a single failed pickle attempt — the
    first (pickle-attempt) capture is timed separately.  Measuring
    inline rather than differencing two end-to-end sharded walls is
    deliberate: the ~1 ms/barrier quantity under test is an order of
    magnitude below the pool-spawn and scheduler jitter of paired
    process runs, and this ratio *is* the wall overhead checkpointing
    adds worker-side to a healthy run.  Floored < 5%.
    """
    from repro.sim import checkpoint as ckpt_mod

    shard_devices = FLEET_DEVICES // 2
    barriers = 10
    barrier_s = FLEET_SIM_S / barriers
    world = World(tick_s=TICK_S, seed=7, fast_forward=True)
    _scaling_builder(FLEET_DEVICES)(world, 0, shard_devices)
    run_wall = 0.0
    capture_wall = 0.0
    first_capture_s = None
    pickle_ok = None
    for barrier in range(barriers):
        start = time.perf_counter()
        world.run(barrier_s)
        run_wall += time.perf_counter() - start
        start = time.perf_counter()
        ckpt = ckpt_mod.capture(world, barrier + 1,
                                try_pickle=pickle_ok is not False)
        pickle_ok = ckpt.method == ckpt_mod.METHOD_PICKLE
        elapsed = time.perf_counter() - start
        if first_capture_s is None:
            first_capture_s = elapsed
        capture_wall += elapsed
    return {
        "devices": FLEET_DEVICES,
        "shard_devices": shard_devices,
        "simulated_s": FLEET_SIM_S,
        "barriers": barriers,
        "run_wall_s": round(run_wall, 3),
        "capture_wall_s": round(capture_wall, 4),
        "first_capture_s": round(first_capture_s, 4),
        "capture_method": ckpt.method,
        "overhead_frac": round(capture_wall / run_wall, 4),
    }


def collect() -> dict:
    scaling = run_fleet_scaling()
    fleet_1k = next(p for p in scaling["points"] if p["devices"] >= 1000)
    return {
        "bench": "core_step",
        "unix_time": int(time.time()),
        "micro": run_micro(),
        "macro": run_macro(),
        "netd_macro": run_netd_macro(),
        "chain_macro": run_chain_macro(),
        "switching_macro": run_switching_macro(),
        "batched_switching": run_batched_switching(),
        "fleet": run_fleet(),
        "fleet_scaling": scaling,
        "fleet_1k": fleet_1k,
        "fleet_1k_staggered": run_fleet_1k_staggered(),
        "fleet_shards": run_fleet_shards(),
        "checkpoint_overhead": run_checkpoint_overhead(),
    }


def write(results: dict, path: str = BENCH_PATH) -> str:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main() -> None:  # pragma: no cover - console entry
    results = collect()
    path = write(results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nwrote {path}")


if __name__ == "__main__":  # pragma: no cover
    main()
