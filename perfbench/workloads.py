"""The benchmark's four workloads, built through the public API of repro.

Every workload is a closed loop of *experiments* driven from this one
process: build a fleet (or one device) from the seed, advance it
barrier by barrier, check its simulated outcome, and only then build
the next one.  A barrier is one ``run`` call that brings every device
to the same simulated instant; on the sharded workload it is one round
of ``run`` requests to the shard-host daemons and their replies.

All timings are host time.  Simulated statistics are checks, never
metrics: they are folded into a SHA-256 digest that must repeat
exactly between experiments of one seed (and between traced and
untraced experiments, since tracing must not perturb the simulation).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.tap import TapType
from repro.sim import hostd as _hostd
from repro.sim import transport as _transport
from repro.sim import workload as _workload
from repro.sim.engine import CinderSystem
from repro.sim.process import CpuBurn, Sleep
from repro.sim.shards import ShardedWorld
from repro.sim.world import World
from repro.units import mW

import tracer as _tracing

TICK_S = 0.01
#: Per-device conservation bound (joules).
CONSERVATION_J = 1e-6
#: The documented span-vs-tick level tolerance (docs/performance.md).
TICK_LEVEL_TOL = 2e-3
#: Figure 9 isolation: A's power after B's forks vs before.
ISOLATION_TOL = 0.02

#: The calibration probe: a fixed allocation-heavy Python kernel (box,
#: sort and index floats), timed once after every barrier.  The shared
#: hosts this runs on change speed by about a quarter within seconds,
#: for every process alike; a time divided by the probe time taken
#: alongside it moves with the program, not with the host.  One
#: reference second (ref-s) is REF_PROBES probes.
PROBE_ITEMS = 3000
REF_PROBES = 3500


def _probe_kernel() -> None:
    values = sorted([float(i) for i in range(PROBE_ITEMS)], reverse=True)
    index = {i: values[i] for i in range(0, PROBE_ITEMS, 3)}
    sum(index.values())


def probe() -> float:
    """Host seconds for one calibration probe, timed warm: the first
    pass refills the caches a barrier (or an idle wait) evicted."""
    _probe_kernel()
    start = time.perf_counter()
    _probe_kernel()
    return time.perf_counter() - start


@dataclass
class Experiment:
    """One build-run-check cycle of a workload."""

    setup_s: float
    #: Timed run, wall and CPU, probes excluded.
    run_s: float
    cpu_s: float
    device_s: float
    barriers: List[float]
    #: Calibration probe times, one per barrier.
    probes: List[float]
    #: SHA-256 over the simulated outcome and deterministic counters.
    digest: str
    #: Deterministic work counters (part of the digest).
    counters: Dict[str, float]
    #: Values outside the digest: walls the program keeps itself, and
    #: (traced sharded runs) counters the daemons ship back.
    telemetry: Dict[str, float]
    failures: List[str]
    #: Traced experiments: this process's spans, then each daemon's.
    trace: Optional[dict] = None
    worker_traces: List[dict] = field(default_factory=list)
    #: Traced experiments: wall of the root span (build + run).
    traced_wall_s: float = 0.0
    shard_walls: List[float] = field(default_factory=list)

    @property
    def device_s_per_s(self) -> float:
        return self.device_s / self.run_s

    @property
    def ref_s(self) -> float:
        """Host seconds per reference second during this experiment."""
        return sum(self.probes) / len(self.probes) * REF_PROBES

    def barriers_ref_s(self) -> List[float]:
        """Each barrier in ref-s, against the probe timed right after it
        (the host's speed drifts within an experiment, too)."""
        return [barrier / (probe * REF_PROBES)
                for barrier, probe in zip(self.barriers, self.probes)]


def _span(tracer: Optional[_tracing.Tracer], name: str):
    return tracer.span(name) if tracer is not None else \
        contextlib.nullcontext()


# -- outcome digests, counters and checks --------------------------------------


def _device_lines(name: str, device) -> List[str]:
    return [
        name, str(device.clock.ticks), device.clock.now.hex(),
        str(device.fast_forwarded_ticks), str(device.span_refusals),
        str(device.graph.span_segments), str(device.graph.span_switches),
        str(device.radio.activation_count),
        str(device.netd.stats.operations),
        device.netd.stats.total_wait_seconds.hex(),
        device.netd.pool.level.hex(), device.battery.charge_joules.hex(),
        device.meter.total_energy_joules.hex(),
        str(device.meter.sample_count),
        ",".join(r.level.hex() for r in device.graph.reserves),
    ]


def _digest(outcome: List[List[str]], counters: Dict[str, float]) -> str:
    digest = hashlib.sha256()
    for lines in outcome:
        for line in lines:
            digest.update(line.encode())
            digest.update(b"\x1f")
        digest.update(b"\x1e")
    for key in sorted(counters):
        digest.update(f"{key}={counters[key]!r}".encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


def device_counters(devices) -> Dict[str, float]:
    return {
        "engine.fast_forwarded_ticks":
            sum(d.fast_forwarded_ticks for d in devices),
        "engine.span_refusals": sum(d.span_refusals for d in devices),
        "graph.span_segments": sum(d.graph.span_segments for d in devices),
        "graph.span_switches": sum(d.graph.span_switches for d in devices),
        "graph.vector_steps": sum(d.graph.vector_steps for d in devices),
        "graph.fallback_steps": sum(d.graph.fallback_steps
                                    for d in devices),
        "netd.operations": sum(d.netd.stats.operations for d in devices),
        "netd.radio_activations": sum(d.radio.activation_count
                                      for d in devices),
    }


def device_walls(devices) -> Dict[str, float]:
    return {
        "spansolver.span_locate_wall_s":
            sum(d.graph.span_locate_wall_s for d in devices),
        "spansolver.span_integrate_wall_s":
            sum(d.graph.span_integrate_wall_s for d in devices),
    }


def world_counters(world: World) -> Dict[str, float]:
    counters = {
        "world.barrier_rounds": world.barrier_rounds,
        "world.independent_cohort_spans": world.independent_cohort_spans,
        "world.independent_scalar_spans": world.independent_scalar_spans,
        "world.cohort_spans": world.cohort_spans,
        "world.cohort_ticks": world.cohort_ticks,
        "world.cohort_fallbacks": world.cohort_fallbacks,
        "world.cohort_demotions": world.cohort_demotions,
        "world.macro_steps": world.macro_steps,
        "world.tick_steps": world.tick_steps,
        "events.horizon_polls": world.horizon_polls,
        "events.horizon_cache_hits": world.horizon_cache_hits,
    }
    counters.update(device_counters(world.devices))
    return counters


def _check_conservation(worst: float) -> List[str]:
    if worst <= CONSERVATION_J:
        return []
    return [f"conservation error {worst:.3g} J > {CONSERVATION_J} J"]


def _check_no_refusals(counters: Dict[str, float]) -> List[str]:
    refusals = counters["engine.span_refusals"]
    return [f"{refusals} span refusals (promised 0)"] if refusals else []


# -- the staggered poller fleet (inline and sharded) ---------------------------

STAGGERED_DEVICES = 300
STAGGERED_SIM_S = 300.0
STAGGERED_BARRIER_S = 10.0
#: Share of the fleet that also carries the drain-clamp/debt reserves.
SWITCH_FRACTION = 0.15
POLL_PERIOD_S = 300.0


def _add_switching_reserves(device, rng: random.Random) -> None:
    """A drain that clamps mid-run and a reserve repaying out of debt.

    Both switch instants fall 100-300 s into the run: the task drains
    at a net 20 mW from 2-6 J, and the debtor repays 2-6 J at 20 mW.
    """
    kernel = device.kernel
    root = device.battery_reserve
    task = device.new_reserve(name="task")
    root.transfer_to(task, rng.uniform(2.0, 6.0))
    kernel.create_tap(root, task, 0.01, name="task.feed")
    archive = device.new_reserve(name="archive")
    kernel.create_tap(task, archive, 0.03, name="task.drain")
    debtor = device.new_reserve(name="debtor")
    kernel.create_tap(root, debtor, 0.02, name="debtor.repay")
    debtor.consume(rng.uniform(2.0, 6.0), allow_debt=True)


def bench_shard(world: World, lo: int, hi: int, *, fleet_size: int,
                trace: bool = False) -> list:
    """Staggered netd pollers ``[lo, hi)``; a seeded minority switch.

    Picklable through :func:`functools.partial` and keyed on each
    device's global index and the world seed, so any partition of the
    fleet builds identical devices.  With ``trace`` inside a shard-host
    daemon it also installs the layer wrappers there and ships the
    daemon's spans back on the ``finish`` reply.
    """
    tracer = _worker_tracer() if trace else _tracing.ACTIVE
    with _span(tracer, "setup.bench_shard"):
        fleet = _workload.staggered_poller_shard(
            world, lo, hi, fleet_size=fleet_size, watts=0.02,
            period_s=POLL_PERIOD_S, bytes_out=64, record_interval_s=5.0,
            decay_enabled=False)
        for offset, (device, _) in enumerate(fleet):
            rng = random.Random(7919 * world.seed + 104_729 * (lo + offset))
            if rng.random() < SWITCH_FRACTION:
                _add_switching_reserves(device, rng)
    return fleet


def _in_host_daemon() -> bool:
    return multiprocessing.current_process().name.startswith("repro-hostd")


def _worker_tracer() -> Optional[_tracing.Tracer]:
    """The traced builder's tracer, set up once per shard-host daemon.

    A forked daemon inherits the parent's installed wrappers and their
    tracer; its tables are cleared here so the daemon reports only its
    own spans.  A daemon started any other way installs a fresh one.
    """
    if not _in_host_daemon():
        return _tracing.ACTIVE
    tracer = _tracing.ACTIVE
    if tracer is None:
        tracer = _tracing.Tracer()
        tracer.install()
    if not tracer.worker:
        tracer.worker = True
        tracer.reset()
        _hostd._world_report = _shipping_report(_hostd._world_report)
    return tracer


def _shipping_report(world_report):
    """``hostd._world_report`` that also carries the daemon's spans."""
    def report(world, *args, **kwargs):
        shard_report = world_report(world, *args, **kwargs)
        shard_report.bench_trace = _tracing.ACTIVE.snapshot()
        extras = world_counters(world)
        extras.update(device_walls(world.devices))
        shard_report.bench_world = extras
        return shard_report
    return report


# -- workloads -------------------------------------------------------------------


class Workload:
    """One workload: a session set-up, then repeated experiments."""

    name = ""
    #: Simulated device-seconds one experiment advances.
    device_s = 0.0

    def __init__(self) -> None:
        #: The digest every experiment of the session's seed reproduces
        #: (empty: the first measured experiment's).
        self.reference = ""
        self.session_failures: List[str] = []

    def session(self, seed: int) -> Dict[str, float]:
        """Untimed once-per-run work: warm-up and session checks.

        Sets :attr:`reference` and :attr:`session_failures`; returns
        session values (e.g. the model-accuracy figure).
        """
        raise NotImplementedError

    def experiment(self, seed: int,
                   tracer: Optional[_tracing.Tracer] = None) -> Experiment:
        raise NotImplementedError


class InlineWorkload(Workload):
    """A workload advanced in this process, barrier by barrier."""

    barrier_s = 0.0
    barriers = 0

    def build(self, seed: int):
        """``(target, [(name, device)], context for the checks)``."""
        raise NotImplementedError

    def advance(self, target) -> None:
        raise NotImplementedError

    def counters(self, target, devices) -> Dict[str, float]:
        return device_counters([d for _, d in devices])

    def checks(self, target, devices, context,
               counters: Dict[str, float]) -> List[str]:
        worst = max(abs(d.graph.conservation_error()) for _, d in devices)
        return _check_conservation(worst) + _check_no_refusals(counters)

    def session(self, seed: int) -> Dict[str, float]:
        """One untimed warm-up experiment; its digest is the reference."""
        warm = self.experiment(seed)
        self.reference = warm.digest
        self.session_failures = list(warm.failures)
        return {}

    def experiment(self, seed: int,
                   tracer: Optional[_tracing.Tracer] = None) -> Experiment:
        if tracer is not None:
            tracer.install()
        try:
            with _span(tracer, "bench.experiment"):
                begin = time.perf_counter()
                with _span(tracer, "setup.build"):
                    target, devices, context = self.build(seed)
                setup_s = time.perf_counter() - begin
                barriers: List[float] = []
                probes: List[float] = []
                probing = 0.0
                cpu0 = time.process_time()
                run0 = time.perf_counter()
                for _ in range(self.barriers):
                    start = time.perf_counter()
                    self.advance(target)
                    done = time.perf_counter()
                    barriers.append(done - start)
                    probes.append(probe())
                    probing += time.perf_counter() - done
                run_s = time.perf_counter() - run0 - probing
                cpu_s = time.process_time() - cpu0 - probing
            traced_wall = time.perf_counter() - begin
        finally:
            if tracer is not None:
                tracer.uninstall()
        counters = self.counters(target, devices)
        return Experiment(
            setup_s=setup_s, run_s=run_s, cpu_s=cpu_s,
            device_s=self.device_s, barriers=barriers, probes=probes,
            digest=_digest([_device_lines(n, d) for n, d in devices],
                           counters),
            counters=counters,
            telemetry=device_walls([d for _, d in devices]),
            failures=self.checks(target, devices, context, counters),
            trace=tracer.snapshot() if tracer is not None else None,
            traced_wall_s=traced_wall)


class FleetStaggered(InlineWorkload):
    """Hundreds of randomized-phase netd pollers on the frontier."""

    name = "fleet_staggered"
    devices = STAGGERED_DEVICES
    barrier_s = STAGGERED_BARRIER_S
    barriers = int(STAGGERED_SIM_S / STAGGERED_BARRIER_S)
    device_s = STAGGERED_DEVICES * STAGGERED_SIM_S

    def build(self, seed: int):
        world = World(tick_s=TICK_S, seed=seed, fast_forward=True)
        bench_shard(world, 0, self.devices, fleet_size=self.devices)
        return world, [(f"dev{i}", d)
                       for i, d in enumerate(world.devices)], None

    def advance(self, world: World) -> None:
        world.run(self.barrier_s, independent=True)

    def counters(self, world, devices) -> Dict[str, float]:
        return world_counters(world)


SWITCH_APPS = 3
SWITCH_SIM_S = 3600.0
SWITCH_BARRIER_S = 60.0
#: Tick-by-tick comparison slice: long enough to cross every switch.
SWITCH_SLICE_S = 240.0


def build_switching_device(seed: int,
                           fast_forward: bool = True) -> CinderSystem:
    """3-deep proportional chains plus drain clamps and debt crossings.

    The union of the chain and switching shapes: per app a
    proportional chain app -> sub -> subsub -> battery, a task reserve
    whose 50 mW drain outruns its 20 mW feed (clamps 67-200 s in), and
    a debtor repaying 2-6 J at 30 mW (crosses zero 67-200 s in, then
    its proportional back-tap resumes).  A maintenance process wakes
    once a minute at a seeded phase.
    """
    rng = random.Random(seed)
    system = CinderSystem(battery_joules=15_000.0, tick_s=TICK_S,
                          record_interval_s=1.0, seed=seed,
                          fast_forward=fast_forward)
    kernel = system.kernel
    root = system.battery_reserve
    for i in range(SWITCH_APPS):
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


def tick_level_err(seed: int) -> float:
    """Worst relative level difference, fast-forward vs tick by tick.

    Over the first :data:`SWITCH_SLICE_S` of the device, which covers
    every clamp and zero crossing.  Relative to ``max(|level|, 1 J)``,
    so emptied reserves are judged on an absolute scale.
    """
    fast = build_switching_device(seed, fast_forward=True)
    ticked = build_switching_device(seed, fast_forward=False)
    for _ in range(int(SWITCH_SLICE_S / SWITCH_BARRIER_S)):
        fast.run(SWITCH_BARRIER_S)
        ticked.run(SWITCH_BARRIER_S)
    return max(abs(a.level - b.level) / max(abs(b.level), 1.0)
               for a, b in zip(fast.graph.reserves, ticked.graph.reserves))


class DeviceSwitching(InlineWorkload):
    """One bare CinderSystem through a simulated hour of switches."""

    name = "device_switching"
    barrier_s = SWITCH_BARRIER_S
    barriers = int(SWITCH_SIM_S / SWITCH_BARRIER_S)
    device_s = SWITCH_SIM_S

    def build(self, seed: int):
        system = build_switching_device(seed)
        return system, [("device", system)], None

    def advance(self, system: CinderSystem) -> None:
        system.run(self.barrier_s)

    def session(self, seed: int) -> Dict[str, float]:
        values = super().session(seed)
        err = tick_level_err(seed)
        values["spansolver.tick_level_err"] = err
        if not err <= TICK_LEVEL_TOL:
            self.session_failures.append(
                f"tick_level_err {err:.3g} > {TICK_LEVEL_TOL}")
        return values


BUSY_DEVICES = 16
BUSY_SIM_S = 24.0
BUSY_BARRIER_S = 0.5
#: The Figure 9 taps (§6.1): A and B each get half the 137 mW CPU.
APP_W = mW(68.5)


def add_figure9_device(world: World, index: int, forks: list):
    """Two tap-fed spinners; B forks B1 and B2 at seeded times.

    Each child gets a reserve fed from B's own reserve at a quarter of
    B's rate, so B's family subdivides B's power and A is untouched.
    Actual fork instants are appended to ``forks``.
    """
    rng = random.Random(1_000_003 * world.seed + index)
    device = world.add_device(name=f"fig9-{index}")
    reserve_a = device.powered_reserve(APP_W, name="A")
    reserve_b = device.powered_reserve(APP_W, name="B")

    def wire_child(child) -> None:
        reserve = device.graph.create_reserve(name=child.name)
        device.graph.create_tap(reserve_b, reserve, APP_W / 4.0,
                                name=f"{child.name}.in")
        child.thread.set_active_reserve(reserve)
        forks.append(device.clock.now)

    first = round(rng.uniform(1.25, 1.75), 2)
    second = round(first + rng.uniform(0.5, 1.0), 2)
    device.spawn(_workload.spinner(), "A", reserve=reserve_a)
    device.spawn(_workload.forking_spinner(
        {first: ("B1", wire_child), second: ("B2", wire_child)}),
        "B", reserve=reserve_b)
    return device


class FleetBusy(InlineWorkload):
    """A lockstep fleet of Figure 9 devices: every tick executes."""

    name = "fleet_busy"
    devices = BUSY_DEVICES
    barrier_s = BUSY_BARRIER_S
    barriers = int(BUSY_SIM_S / BUSY_BARRIER_S)
    device_s = BUSY_DEVICES * BUSY_SIM_S

    def build(self, seed: int):
        world = World(tick_s=TICK_S, seed=seed, fast_forward=True)
        forks: List[list] = []
        for i in range(self.devices):
            forks.append([])
            add_figure9_device(world, i, forks[-1])
        return world, [(f"fig9-{i}", d)
                       for i, d in enumerate(world.devices)], forks

    def advance(self, world: World) -> None:
        world.run(self.barrier_s)

    def counters(self, world, devices) -> Dict[str, float]:
        return world_counters(world)

    def checks(self, world, devices, forks, counters) -> List[str]:
        failures = super().checks(world, devices, forks, counters)
        end = world.now
        for (name, device), times in zip(devices, forks):
            if len(times) != 2:
                failures.append(f"{name}: {len(times)} forks, expected 2")
                continue
            ledger = device.ledger
            before = ledger.energy_in_window("A", 0.5, times[0]) \
                / (times[0] - 0.5)
            after = ledger.energy_in_window("A", times[1] + 1.0, end) \
                / (end - times[1] - 1.0)
            if abs(after - before) > ISOLATION_TOL * before:
                failures.append(
                    f"{name}: A drew {before * 1e3:.2f} mW before B's "
                    f"forks and {after * 1e3:.2f} mW after")
        return failures


class BarrierClock:
    """Parent-side timestamps of one socketed ``ShardedWorld.run``.

    Wraps ``SlotClient.begin``/``collect`` for the run: set-up ends at
    the last ``build`` reply, barrier ``k`` spans its first ``run``
    request to its last ``run`` reply, and the timed run ends at the
    last ``finish`` reply (daemon teardown excluded).  The calibration
    probe runs once every shard has replied, while the daemons idle.
    """

    def __init__(self, shards: int) -> None:
        self.shards = shards
        self.replies: Dict[int, int] = {}
        self.probes: List[float] = []
        #: Host time spent probing (both passes), outside the run.
        self.probing = 0.0
        self.build_done = 0.0
        self.run_begin = 0.0
        self.run_cpu = 0.0
        self.finish_done = 0.0
        self.finish_cpu = 0.0
        self.starts: Dict[int, float] = {}
        self.ends: Dict[int, float] = {}

    def __enter__(self) -> "BarrierClock":
        cls = _transport.SlotClient
        self._saved = (cls.__dict__["begin"], cls.__dict__["collect"])
        begin, collect = self._saved
        clock = self

        def timed_begin(client, verb, fault=None, **payload):
            now = time.perf_counter()
            if verb == "run":
                if not clock.starts:
                    clock.run_begin = now
                    clock.run_cpu = time.process_time()
                clock.starts.setdefault(payload["barrier"], now)
            client.bench_pending = (verb, payload.get("barrier"))
            return begin(client, verb, fault=fault, **payload)

        def timed_collect(client, *args, **kwargs):
            result = collect(client, *args, **kwargs)
            now = time.perf_counter()
            verb, barrier = getattr(client, "bench_pending", (None, None))
            if verb == "build":
                clock.build_done = max(clock.build_done, now)
            elif verb == "run":
                clock.ends[barrier] = now
                clock.replies[barrier] = clock.replies.get(barrier, 0) + 1
                if clock.replies[barrier] == clock.shards:
                    clock.probes.append(probe())
                    clock.probing += time.perf_counter() - now
            elif verb == "finish":
                clock.finish_done = now
                clock.finish_cpu = time.process_time()
            return result

        cls.begin = timed_begin
        cls.collect = timed_collect
        return self

    def __exit__(self, *exc) -> None:
        cls = _transport.SlotClient
        cls.begin, cls.collect = self._saved

    def barriers(self) -> List[float]:
        return [self.ends[k] - self.starts[k] for k in sorted(self.starts)]


def _children_cpu_s() -> float:
    times = os.times()
    return times.children_user + times.children_system


def report_counters(report) -> Dict[str, float]:
    """Deterministic work counters a ``FleetReport`` carries."""
    digests = report.digests
    shards = report.reports
    return {
        "world.barrier_rounds": report.independent_rounds,
        "world.independent_cohort_spans": report.independent_cohort_spans,
        "world.independent_scalar_spans": report.independent_scalar_spans,
        "world.cohort_spans": sum(r.cohort_spans for r in shards),
        "world.cohort_fallbacks": sum(r.cohort_fallbacks for r in shards),
        "world.macro_steps": sum(r.macro_steps for r in shards),
        "world.tick_steps": sum(r.tick_steps for r in shards),
        "engine.fast_forwarded_ticks":
            sum(r.fast_forwarded_ticks for r in shards),
        "engine.span_refusals": sum(d.span_refusals for d in digests),
        "graph.span_segments": sum(d.span_segments for d in digests),
        "graph.span_switches": sum(d.span_switches for d in digests),
        "netd.operations": sum(d.netd_operations for d in digests),
        "netd.radio_activations": sum(d.radio_activations
                                      for d in digests),
        "shards.restarts": report.shard_restarts,
        "shards.recovered_barriers": report.recovered_barriers,
        "shards.reschedules": report.shard_reschedules,
        "shards.forced_terminations": report.forced_terminations,
        "shards.degraded": len(report.degraded_shards),
    }


SHARDS = 2
HOSTS = 2


class FleetSharded(Workload):
    """The staggered fleet on two shard-host daemons over sockets."""

    name = "fleet_sharded"
    devices = STAGGERED_DEVICES
    barrier_s = STAGGERED_BARRIER_S
    device_s = STAGGERED_DEVICES * STAGGERED_SIM_S

    def _fleet(self, seed: int, trace: bool, **kwargs) -> ShardedWorld:
        builder = functools.partial(bench_shard, fleet_size=self.devices,
                                    trace=trace)
        return ShardedWorld(builder, self.devices, tick_s=TICK_S,
                            seed=seed, fast_forward=True, **kwargs)

    def _run(self, fleet: ShardedWorld):
        return fleet.run(STAGGERED_SIM_S, barrier_s=self.barrier_s,
                         independent=True)

    def session(self, seed: int) -> Dict[str, float]:
        """The inline (``shards=0``) fleet, which also warms this
        process up: every socketed run must reproduce its digest."""
        inline = self._run(self._fleet(seed, False, shards=0))
        self.inline_digest = inline.digest()
        self.session_failures = _check_conservation(
            inline.worst_conservation_error())
        return {}

    def experiment(self, seed: int,
                   tracer: Optional[_tracing.Tracer] = None) -> Experiment:
        if tracer is not None:
            tracer.install()
        clock = BarrierClock(SHARDS)
        children0 = _children_cpu_s()
        try:
            with _span(tracer, "bench.experiment"):
                begin = time.perf_counter()
                with clock:
                    fleet = self._fleet(seed, tracer is not None,
                                        shards=SHARDS, transport="sockets",
                                        hosts=HOSTS)
                    report = self._run(fleet)
            traced_wall = time.perf_counter() - begin
        finally:
            if tracer is not None:
                tracer.uninstall()
        children_s = _children_cpu_s() - children0
        counters = report_counters(report)
        failures = _check_conservation(report.worst_conservation_error())
        failures += _check_no_refusals(counters)
        if report.digest() != self.inline_digest:
            failures.append("sharded digest differs from the inline run")
        rungs = {key: counters[key] for key in (
            "shards.restarts", "shards.recovered_barriers",
            "shards.reschedules", "shards.forced_terminations",
            "shards.degraded")}
        rungs["recovery_events"] = len(report.recovery_events)
        rungs["host_failures"] = len(report.host_failures)
        taken = {k: v for k, v in rungs.items() if v}
        if taken:
            failures.append(f"fault-free run took recovery rungs {taken}")
        telemetry: Dict[str, float] = {}
        workers = []
        for shard in report.reports:
            extras = getattr(shard, "bench_world", None)
            if extras is not None:
                for key, value in extras.items():
                    telemetry[key] = telemetry.get(key, 0) + value
                workers.append(shard.bench_trace)
        probed = clock.probing
        return Experiment(
            setup_s=clock.build_done - begin,
            run_s=clock.finish_done - clock.run_begin - probed,
            cpu_s=clock.finish_cpu - clock.run_cpu - probed + children_s,
            device_s=self.device_s, barriers=clock.barriers(),
            probes=clock.probes,
            digest=_digest([[report.digest()]], counters),
            counters=counters, telemetry=telemetry, failures=failures,
            trace=tracer.snapshot() if tracer is not None else None,
            worker_traces=workers, traced_wall_s=traced_wall,
            shard_walls=list(report.shard_walls))


WORKLOADS = {cls.name: cls for cls in (FleetStaggered, DeviceSwitching,
                                       FleetBusy, FleetSharded)}
