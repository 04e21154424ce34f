"""Process-sharded fleets: Worlds partitioned across worker processes.

A :class:`~repro.sim.world.World` is single-process by design — its
devices share one Python interpreter no matter how idle they are.
Devices are, however, mutually independent: they share nothing but
the *stateless* synthetic remote-host universe, so a fleet partitions
cleanly.  :class:`ShardedWorld` splits the device index range across
**shards**, each a worker process owning one world slice, and drives
them barrier-to-barrier:

* every shard is one single-worker ``ProcessPoolExecutor`` — the
  one-worker pool pins shard state (the built world) to its process
  across task submissions;
* devices are constructed *inside* the worker by a picklable
  ``builder(world, lo, hi)`` callable (simulated programs are live
  generators and cannot cross a process boundary), indexed by global
  device position so shard membership cannot change a device's seed,
  stagger, or name — device ``i`` is bit-identical however the fleet
  is partitioned;
* ``run`` advances every shard to a shared **clock barrier** (the
  deadline, or every ``barrier_s`` on the fleet's LCM tick grid) and
  blocks until all shards arrive, so the fleet observes a consistent
  global time at every barrier;
* results come back as picklable :class:`DeviceDigest` records — the
  per-device counters and levels the parity tests and benches
  compare — aggregated into one :class:`FleetReport`.

The barrier loop is a **supervisor**, not a bare gather: every shard
future carries a per-barrier timeout, a worker that crashes
(``BrokenProcessPool``), hangs past the deadline, or raises is
recovered through a bounded-retry ladder —

1. terminate + respawn the worker pool (counted in
   :attr:`FleetReport.shard_restarts`),
2. restore the shard to its last barrier checkpoint
   (:mod:`repro.sim.checkpoint`: digest-validated pickle snapshot
   when the state could capture, deterministic rebuild-and-replay
   otherwise), and re-run the lost chunk,
3. after ``max_shard_retries`` failed recoveries, **demote the
   shard's device range to inline execution in the parent** (the
   fleet-level mirror of the cohort scheduler's
   ``cohort_demotions``): the slice is rebuilt from the builder,
   replayed to the current barrier, and runs in-process for the rest
   of the experiment — degraded, never diverged.

Recovery is provably deterministic: the simulation draws no real
entropy, so a restored-or-replayed shard is bit-identical to one
that never failed, and the chaos suite asserts exactly that under
seeded :class:`~repro.sim.faults.FaultPlan` injections.

``transport="sockets"`` lifts the same verbs onto TCP: shards become
**slots** on shard-host daemons (:mod:`repro.sim.hostd`) reached
through length-prefixed pickle frames (:mod:`repro.sim.transport`),
placed by a **placement map** (shard → host) the supervisor owns.
Hosts are a coarser failure domain than workers, so the ladder grows
one rung between restore and inline demotion: when a *host* crashes,
hangs, disconnects or partitions — detected by liveness heartbeats
between barriers, not just barrier deadlines — every shard placed on
it is **rescheduled** onto a surviving host (restored from its last
barrier checkpoint, or rebuilt-and-replayed), and only a fleet with
zero healthy hosts degrades to inline execution in the parent.
Network faults (``drop_msg``/``delay_msg``/``dup_msg``/
``host_crash``/``partition``) inject through the same fire-exactly-
once plan machinery, so socketed chaos runs stay pure functions of
``(fleet seed, fault seed)``.  One caveat: a lost *message* (as
opposed to a lost host) is only detectable by a deadline, so
``drop_msg`` chaos needs ``barrier_timeout_s`` set.

``shards=0`` runs the identical partition logic inline (one world,
no processes): the differential oracle that sharded execution is
sample-identical to sequential execution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_exits
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (HostUnreachable, ShardFailure, ShardTimeout,
                      SimulationError, TransportError, TransportTimeout)
from . import checkpoint as _checkpoint
from .faults import (BUILD_KINDS, CORRUPT_DIGEST, NETWORK_KINDS, PARTITION,
                     RUNTIME_KINDS, FaultPlan, apply_runtime_fault)
from .world import World

#: The module-global world a shard worker process owns.
_SHARD_WORLD: Optional[World] = None
#: Sticky capture method: None = untried, else whether pickle worked.
#: A world running live programs refuses to pickle once and the
#: worker stops re-paying the attempt every barrier.
_SHARD_PICKLE_OK: Optional[bool] = None


@dataclass
class DeviceDigest:
    """The picklable per-device summary a shard reports back."""

    name: str
    index: int
    ticks: int
    now: float
    fast_forwarded_ticks: int
    span_refusals: int
    span_segments: int
    span_switches: int
    radio_activations: int
    netd_operations: int
    netd_wait_seconds: float
    netd_pool_level: float
    battery_charge_joules: float
    meter_energy_joules: float
    meter_samples: int
    reserve_levels: List[float]
    conservation_error: float
    #: Spans this device solved inside a stacked cohort call on the
    #: world's event-time frontier.  Excluded from equality (and
    #: from :meth:`FleetReport.digest`): cohort membership depends on
    #: which devices share a shard, so the count is partition-
    #: *dependent* telemetry on a partition-*invariant* trajectory.
    independent_cohort_spans: int = field(default=0, compare=False)


@dataclass
class ShardReport:
    """One shard's outcome: digests plus scheduler telemetry."""

    shard: int
    lo: int
    hi: int
    wall_s: float
    macro_steps: int
    tick_steps: int
    fast_forwarded_ticks: int
    cohort_spans: int
    cohort_fallbacks: int
    #: Frontier rounds and stacked-vs-scalar span counts from this
    #: shard's world.
    independent_rounds: int = 0
    independent_cohort_spans: int = 0
    independent_scalar_spans: int = 0
    digests: List[DeviceDigest] = field(default_factory=list)


@dataclass(frozen=True)
class RecoveryEvent:
    """One rung of the recovery ladder, taken by one shard.

    The machine-readable companion to the human-readable
    :attr:`FleetReport.shard_failures` strings: a degraded chaos run
    is diagnosable from the report alone — which shard, at which
    barrier (``-1`` for the build phase), on which attempt, for what
    cause, and which rung the supervisor took in response.
    """

    shard: int
    barrier: int
    phase: str      #: ``"build"`` / ``"barrier"`` / ``"finish"``
    attempt: int    #: retry-budget attempts consumed so far (host
                    #: losses are mandatory moves and consume none)
    cause: str      #: normalized failure cause (see ``_failure_cause``)
    rung: str       #: ``"retry"`` / ``"reschedule"`` / ``"inline"``
    host: Optional[int] = None  #: destination host (sockets only)


@dataclass
class FleetReport:
    """The aggregated result of a sharded run."""

    devices: int
    shards: int
    simulated_s: float
    wall_s: float
    shard_walls: List[float]
    reports: List[ShardReport]
    #: Supervision telemetry: worker pools terminated and respawned
    #: (crash or missed barrier deadline), barriers that completed
    #: only after at least one recovery, shards demoted to inline
    #: execution in the parent, and the per-shard failure causes
    #: (human-readable ``"barrier k: cause"`` strings, in order).
    shard_restarts: int = 0
    recovered_barriers: int = 0
    degraded_shards: List[int] = field(default_factory=list)
    shard_failures: Dict[int, List[str]] = field(default_factory=dict)
    #: Which tier executed the fleet: ``"inline"`` (``shards=0``),
    #: ``"processes"`` (worker pools) or ``"sockets"`` (shard-host
    #: daemons), and — socketed — how many hosts served it.
    transport: str = "processes"
    hosts: int = 0
    #: Cross-host supervision telemetry (socket transport): shards
    #: moved to a surviving host after a host loss, the human-readable
    #: host-loss log, and the final placement map (shard → host id).
    shard_reschedules: int = 0
    host_failures: List[str] = field(default_factory=list)
    placement: Dict[int, int] = field(default_factory=dict)
    #: Teardown drains that needed force (a worker ignoring SIGTERM
    #: past ``drain_timeout_s``, or a partitioned/unresponsive host
    #: daemon): previously dropped silently, now counted.
    forced_terminations: int = 0
    #: Every recovery-ladder rung taken, in the order the supervisor
    #: took them — the structured mirror of :attr:`shard_failures`.
    recovery_events: List[RecoveryEvent] = field(default_factory=list)

    @property
    def digests(self) -> List[DeviceDigest]:
        """Every device digest, in global device order."""
        out = [d for report in self.reports for d in report.digests]
        out.sort(key=lambda d: d.index)
        return out

    def digest(self) -> str:
        """A stable hash of every device's bit-exact outcome.

        Two runs of the same fleet — fault-free or recovered through
        any number of crashes — must agree on this string; the chaos
        suite pins recovery on it.
        """
        digest = hashlib.sha256()
        for d in self.digests:
            for piece in (
                    d.name, str(d.index), str(d.ticks), d.now.hex(),
                    str(d.fast_forwarded_ticks), str(d.span_refusals),
                    str(d.span_segments), str(d.span_switches),
                    str(d.radio_activations), str(d.netd_operations),
                    d.netd_wait_seconds.hex(), d.netd_pool_level.hex(),
                    d.battery_charge_joules.hex(),
                    d.meter_energy_joules.hex(), str(d.meter_samples),
                    ",".join(level.hex() for level in d.reserve_levels)):
                digest.update(piece.encode())
                digest.update(b"\x1f")
            digest.update(b"\x1e")
        return digest.hexdigest()

    @property
    def independent_rounds(self) -> int:
        """Frontier rounds summed across shards."""
        return sum(r.independent_rounds for r in self.reports)

    @property
    def independent_cohort_spans(self) -> int:
        """Stacked frontier span solves summed across shards."""
        return sum(r.independent_cohort_spans for r in self.reports)

    @property
    def independent_scalar_spans(self) -> int:
        """Scalar frontier span solves summed across shards."""
        return sum(r.independent_scalar_spans for r in self.reports)

    def total_metered_energy(self) -> float:
        return sum(d.meter_energy_joules for d in self.digests)

    def total_radio_activations(self) -> int:
        return sum(d.radio_activations for d in self.digests)

    def worst_conservation_error(self) -> float:
        return max((abs(d.conservation_error) for d in self.digests),
                   default=0.0)


def _digest_devices(world: World, lo: int) -> List[DeviceDigest]:
    digests = []
    for offset, device in enumerate(world.devices):
        name = next(name for name, d in world._by_name.items()
                    if d is device)
        digests.append(DeviceDigest(
            name=name,
            index=lo + offset,
            ticks=device.clock.ticks,
            now=device.clock.now,
            fast_forwarded_ticks=device.fast_forwarded_ticks,
            span_refusals=device.span_refusals,
            span_segments=device.span_segments,
            span_switches=device.graph.span_switches,
            radio_activations=device.radio.activation_count,
            netd_operations=device.netd.stats.operations,
            netd_wait_seconds=device.netd.stats.total_wait_seconds,
            netd_pool_level=device.netd.pool.level,
            battery_charge_joules=device.battery.charge_joules,
            meter_energy_joules=device.meter.total_energy_joules,
            meter_samples=device.meter.sample_count,
            reserve_levels=[r.level for r in device.graph.reserves],
            conservation_error=device.graph.conservation_error(),
            independent_cohort_spans=device.independent_cohort_spans,
        ))
    return digests


def _shard_build(builder: Callable, lo: int, hi: int,
                 world_kwargs: Dict, fault=None) -> int:
    """Worker-side: construct this shard's world slice."""
    global _SHARD_WORLD, _SHARD_PICKLE_OK
    if fault is not None and fault.kind in BUILD_KINDS:
        raise ShardFailure(
            f"injected builder fault (shard slice [{lo}, {hi}))")
    _SHARD_WORLD = World(**world_kwargs)
    _SHARD_PICKLE_OK = None
    builder(_SHARD_WORLD, lo, hi)
    return len(_SHARD_WORLD.devices)


def _shard_run(chunk_s: float, barrier: int, want_checkpoint: bool,
               fault=None) -> Tuple[float, float, Optional[object]]:
    """Worker-side: advance this shard to the next barrier.

    Returns ``(now, wall_s, checkpoint)`` — the wall is measured
    *here*, around this shard's own work, so shard *s* is no longer
    charged for the time the parent spent blocked on shards
    ``0..s-1``'s results.  The checkpoint (when requested) captures
    the post-barrier state for crash recovery.
    """
    global _SHARD_PICKLE_OK
    assert _SHARD_WORLD is not None
    apply_runtime_fault(fault)
    begin = time.perf_counter()
    _SHARD_WORLD.run(chunk_s)
    ckpt = None
    if want_checkpoint:
        ckpt = _checkpoint.capture(_SHARD_WORLD, barrier + 1,
                                   try_pickle=_SHARD_PICKLE_OK is not False)
        _SHARD_PICKLE_OK = ckpt.method == _checkpoint.METHOD_PICKLE
        if fault is not None and fault.kind == CORRUPT_DIGEST:
            ckpt = dataclasses.replace(
                ckpt, digest="corrupt:" + ckpt.digest[8:])
    wall = time.perf_counter() - begin
    return _SHARD_WORLD.now, wall, ckpt


def _shard_restore(ckpt, builder: Callable, lo: int, hi: int,
                   world_kwargs: Dict, chunks: Sequence[float]) -> float:
    """Worker-side: reload the last barrier state after a respawn."""
    global _SHARD_WORLD, _SHARD_PICKLE_OK
    _SHARD_WORLD = _checkpoint.restore(
        ckpt, builder=builder, lo=lo, hi=hi, world_kwargs=world_kwargs,
        chunks=chunks)
    _SHARD_PICKLE_OK = None
    return _SHARD_WORLD.now


def _shard_finish(shard: int, lo: int, hi: int,
                  wall_s: float) -> ShardReport:
    """Worker-side: digest this shard's devices."""
    world = _SHARD_WORLD
    assert world is not None
    return _world_report(world, shard, lo, hi, wall_s)


def _world_report(world: World, shard: int, lo: int, hi: int,
                  wall_s: float) -> ShardReport:
    return ShardReport(
        shard=shard, lo=lo, hi=hi, wall_s=wall_s,
        macro_steps=world.macro_steps, tick_steps=world.tick_steps,
        fast_forwarded_ticks=world.fast_forwarded_ticks,
        cohort_spans=world.cohort_spans,
        cohort_fallbacks=world.cohort_fallbacks,
        independent_rounds=world.barrier_rounds,
        independent_cohort_spans=world.independent_cohort_spans,
        independent_scalar_spans=world.independent_scalar_spans,
        digests=_digest_devices(world, lo))


class _Shard:
    """Parent-side supervision state for one shard."""

    __slots__ = ("index", "lo", "hi", "pool", "ckpt", "inline_world",
                 "future")

    def __init__(self, index: int, lo: int, hi: int) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self.pool: Optional[ProcessPoolExecutor] = None
        #: Last completed barrier checkpoint (None until barrier 1).
        self.ckpt = None
        #: Set on demotion: the slice now runs in the parent.
        self.inline_world: Optional[World] = None
        self.future = None


class _SocketShard:
    """Parent-side supervision state for one socketed shard.

    The socket analogue of :class:`_Shard`: instead of a pool it
    holds the shard's current host and slot channel.  Every recovery
    attempt gets a *fresh slot id* — a hung daemon thread may still be
    mutating the abandoned slot's world, so retried state must never
    share it (the stale slot leaks harmlessly in daemon memory).
    """

    __slots__ = ("index", "lo", "hi", "host", "client", "ckpt",
                 "inline_world", "submitted", "submit_exc")

    def __init__(self, index: int, lo: int, hi: int) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self.host = None
        self.client = None
        self.ckpt = None
        self.inline_world: Optional[World] = None
        #: Whether a request is in flight; a failed submission parks
        #: its exception here for the collect loop to recover from.
        self.submitted = False
        self.submit_exc: Optional[BaseException] = None


class ShardedWorld:
    """A fleet partitioned across single-worker process pools.

    ``builder(world, lo, hi)`` must be picklable (a module-level
    function or :func:`functools.partial` over one — e.g.
    :func:`repro.sim.workload.poller_shard`) and must key every
    device off its *global* index so partitioning is invisible to the
    simulation.  ``world_kwargs`` are forwarded to each shard's
    :class:`~repro.sim.world.World` (tick, seed, fast-forward);
    every shard gets identical values, which keeps index-derived
    seeds partition-independent.

    Supervision knobs:

    * ``barrier_timeout_s`` — per-barrier deadline on each shard
      future; ``None`` (the default) waits forever, so only hard
      crashes trigger recovery.  Restore futures scale the deadline
      by the number of chunks they may replay.
    * ``max_shard_retries`` — recoveries attempted per barrier before
      the shard demotes to inline execution in the parent.
    * ``retry_backoff_s`` — base of the exponential backoff between
      recovery attempts.
    * ``checkpoint`` — capture worker-side barrier checkpoints
      (snapshot or replay recipe; see :mod:`repro.sim.checkpoint`).
      Disabled, recovery still works — it rebuilds and replays from
      time zero — but pays the full replay on every failure.
    * ``fault_plan`` — a seeded :class:`~repro.sim.faults.FaultPlan`
      injecting deterministic worker crashes/hangs/corruptions (and,
      socketed, network faults), for chaos tests; the plan is rewound
      at the start of every run.
    * ``transport`` — ``"processes"`` (single-worker pools, the
      default) or ``"sockets"`` (shard slots on
      :mod:`repro.sim.hostd` daemons reached over TCP).
    * ``hosts`` — shard-host daemon count for the socket transport
      (default: ``min(2, shards)``, so there is a failover target
      whenever the fleet has one to give).
    * ``heartbeat_s`` — liveness-probe cadence while a socketed reply
      is pending: each heartbeat checks the partition gate, the
      daemon process and a TCP ``ping``, so a dead host is detected
      between barriers even with ``barrier_timeout_s=None``.
    * ``drain_timeout_s`` — how long teardown waits for a worker
      process (or host daemon) to exit before escalating to a forced
      kill; forced kills are counted in
      :attr:`FleetReport.forced_terminations`.
    """

    def __init__(self, builder: Callable, count: int,
                 shards: Optional[int] = None,
                 barrier_timeout_s: Optional[float] = None,
                 max_shard_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 checkpoint: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 transport: str = "processes",
                 hosts: Optional[int] = None,
                 heartbeat_s: float = 0.5,
                 drain_timeout_s: float = 5.0,
                 **world_kwargs) -> None:
        if count <= 0:
            raise SimulationError("fleet size must be positive")
        if shards is None:
            shards = min(os.cpu_count() or 1, count)
        if shards < 0 or shards > count:
            raise SimulationError(
                f"shard count {shards} must be in [0, {count}]")
        if barrier_timeout_s is not None and barrier_timeout_s <= 0:
            raise SimulationError("barrier timeout must be positive")
        if max_shard_retries < 0:
            raise SimulationError("retry count must be non-negative")
        if transport not in ("processes", "sockets"):
            raise SimulationError(
                f"unknown transport {transport!r} "
                f"(expected 'processes' or 'sockets')")
        if hosts is not None:
            if transport != "sockets":
                raise SimulationError(
                    "hosts is only meaningful with transport='sockets'")
            if hosts <= 0:
                raise SimulationError("host count must be positive")
        if heartbeat_s <= 0:
            raise SimulationError("heartbeat cadence must be positive")
        if drain_timeout_s <= 0:
            raise SimulationError("drain timeout must be positive")
        self.builder = builder
        self.count = count
        self.shards = shards
        self.barrier_timeout_s = barrier_timeout_s
        self.max_shard_retries = max_shard_retries
        self.retry_backoff_s = retry_backoff_s
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        self.transport = transport
        self.hosts = hosts
        self.heartbeat_s = heartbeat_s
        self.drain_timeout_s = drain_timeout_s
        self.world_kwargs = dict(world_kwargs)
        #: Inline world (``shards=0``): built lazily on first run.
        self._inline: Optional[World] = None

    def partitions(self) -> List[tuple]:
        """``(lo, hi)`` device ranges, one per shard, sizes within 1."""
        shards = max(1, self.shards)
        base = self.count // shards
        extra = self.count % shards
        ranges = []
        lo = 0
        for s in range(shards):
            hi = lo + base + (1 if s < extra else 0)
            ranges.append((lo, hi))
            lo = hi
        return ranges

    def run(self, duration_s: float,
            barrier_s: Optional[float] = None,
            independent: Optional[bool] = None) -> FleetReport:
        """Advance the fleet; returns the aggregated digests.

        A fresh run builds fresh shards (each invocation is one
        experiment).  With processes, shard worlds advance in
        parallel between barriers; inline (``shards=0``) the same
        partitions run sequentially in this process — the
        differential oracle.  Every shard world advances on the
        event-time frontier (:meth:`repro.sim.world.World.run`), where
        each device steps on its own horizon between barriers, so a
        device's trajectory is *partition-invariant* down to the bit:
        shard membership changes only which devices share a stacked
        call, never where any device's spans begin or end.
        ``independent`` is accepted for callers written against the
        retired lockstep scheduler: ``None`` and ``True`` are the
        same, and ``False`` raises.
        """
        if independent is False:
            raise SimulationError(
                "the lockstep scheduler was retired; shard worlds "
                "advance on the event-time frontier")
        if duration_s < 0:
            raise SimulationError("duration must be non-negative")
        start = time.perf_counter()
        if self.shards == 0:
            report = self._run_inline(duration_s, barrier_s)
        elif self.transport == "sockets":
            report = self._run_sockets(duration_s, barrier_s)
        else:
            report = self._run_processes(duration_s, barrier_s)
        report.wall_s = time.perf_counter() - start
        return report

    def _chunks(self, duration_s: float,
                barrier_s: Optional[float]) -> List[float]:
        """Barrier chunk sequence covering ``duration_s`` exactly.

        The chunk count is derived integrally — repeated float
        subtraction used to leave a ~1e-16 sliver that emitted a
        spurious off-grid final chunk.  All chunks but the last are
        exactly ``barrier_s``; the last absorbs the remainder.
        """
        if barrier_s is None:
            return [duration_s]
        if barrier_s <= 0:
            raise SimulationError("barrier must be positive")
        count = max(1, math.ceil(duration_s / barrier_s - 1e-9))
        chunks = [barrier_s] * (count - 1)
        chunks.append(duration_s - (count - 1) * barrier_s)
        return chunks

    def _run_inline(self, duration_s: float,
                    barrier_s: Optional[float]) -> FleetReport:
        world = World(**self.world_kwargs)
        self.builder(world, 0, self.count)
        self._inline = world
        for chunk in self._chunks(duration_s, barrier_s):
            world.run(chunk)
        report = _world_report(world, 0, 0, self.count, 0.0)
        return FleetReport(devices=self.count, shards=0,
                           simulated_s=duration_s, wall_s=0.0,
                           shard_walls=[], reports=[report],
                           transport="inline")

    # -- the supervisor -----------------------------------------------------------

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor,
                   drain_timeout_s: float = 5.0) -> int:
        """Terminate a (possibly hung or broken) single-worker pool.

        ``shutdown`` alone would wait on a hung task forever; the
        worker processes are terminated first, then awaited within
        ``drain_timeout_s``, so no worker leaks past the run.
        Returns the number of workers that ignored SIGTERM and had to
        be force-killed (counted in
        :attr:`FleetReport.forced_terminations`).

        Exit is read from each worker's sentinel, never from
        ``is_alive()``: the executor's manager thread reaps the same
        workers concurrently, and the ``waitpid`` that loses that race
        fails with ``ECHILD``, which ``is_alive()`` reports as still
        running — a healthy teardown then counted as forced.  For the
        same reason the manager thread is awaited last: a worker it
        reaped has no recorded exit status until that thread runs
        again, and until then the worker still counts as a live child.
        """
        processes = list(getattr(pool, "_processes", {}).values())
        manager = getattr(pool, "_executor_manager_thread", None)
        for proc in processes:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor races
            pass
        forced = 0
        for proc in processes:
            exited = _wait_exits([proc.sentinel], drain_timeout_s)
            if not exited:  # pragma: no cover - terminate ignored
                forced += 1
                proc.kill()
            proc.join(timeout=drain_timeout_s)
        if manager is not None:
            manager.join(timeout=drain_timeout_s)
        return forced

    def _backoff_s(self, attempt: int) -> float:
        """The exponential backoff before recovery attempt ``attempt``
        (1-based): ``retry_backoff_s * 2**(attempt - 1)``."""
        return self.retry_backoff_s * (2 ** (attempt - 1))

    @staticmethod
    def _failure_cause(exc: BaseException) -> str:
        if isinstance(exc, _FutureTimeout):
            return "timeout"
        if isinstance(exc, BrokenProcessPool):
            return "crash"
        if isinstance(exc, HostUnreachable):
            return f"host-unreachable: {exc}"
        if isinstance(exc, TransportTimeout):
            return f"transport-timeout: {exc}"
        if isinstance(exc, TransportError):
            return f"transport: {exc}"
        return f"{type(exc).__name__}: {exc}"

    @staticmethod
    def _note_failure(failures: Dict[int, List[str]], shard: int,
                      phase: str, exc: BaseException) -> None:
        failures.setdefault(shard, []).append(
            f"{phase}: {ShardedWorld._failure_cause(exc)}")

    def _respawn(self, state: _Shard, telemetry: Dict[str, int]) -> None:
        telemetry["forced_terminations"] += self._kill_pool(
            state.pool, self.drain_timeout_s)
        state.pool = ProcessPoolExecutor(max_workers=1)
        telemetry["shard_restarts"] += 1

    def _restore_timeout(self, ckpt, k: int) -> Optional[float]:
        """Restores may replay up to ``k`` chunks — scale the deadline
        accordingly (pickle restores finish well inside one)."""
        if self.barrier_timeout_s is None:
            return None
        barriers = k if ckpt is None else max(1, ckpt.barrier)
        return self.barrier_timeout_s * (barriers + 1)

    def _demote_inline(self, state: _Shard, chunks: Sequence[float],
                       through: int, walls: List[float],
                       telemetry: Dict[str, int]) -> None:
        """Graceful degradation: run the slice in the parent from now on.

        The shard's device range is rebuilt from the builder and
        deterministically replayed through chunk ``through`` —
        checkpoints (possibly the corrupted thing that exhausted the
        retries) are deliberately ignored; rebuild-and-replay in the
        parent is the authoritative ground truth.  The fleet-level
        mirror of the cohort scheduler's demote-don't-degrade idiom.
        """
        begin = time.perf_counter()
        if state.pool is not None:
            telemetry["forced_terminations"] += self._kill_pool(
                state.pool, self.drain_timeout_s)
            state.pool = None
        state.inline_world = _checkpoint.rebuild_replay(
            self.builder, state.lo, state.hi, self.world_kwargs,
            chunks[:through + 1])
        walls[state.index] += time.perf_counter() - begin

    def _await_barrier(self, state: _Shard, k: int, chunk: float,
                       chunks: Sequence[float], want_ckpt: bool,
                       walls: List[float],
                       failures: Dict[int, List[str]],
                       telemetry: Dict[str, int]) -> None:
        """Collect one shard's barrier, recovering through the ladder:
        retry (pool respawn + checkpoint restore + re-run), then
        inline demotion once ``max_shard_retries`` is exhausted."""
        future, state.future = state.future, None
        attempt = 0
        need_restore = False
        recovered = False
        while True:
            try:
                if need_restore:
                    # The replay recipe is the chunks completed before
                    # this barrier; a live checkpoint narrows it (or,
                    # for pickle snapshots, skips it entirely).
                    restore = state.pool.submit(
                        _shard_restore, state.ckpt, self.builder,
                        state.lo, state.hi, self.world_kwargs,
                        list(chunks[:k]))
                    restore.result(
                        timeout=self._restore_timeout(state.ckpt, k))
                    future = state.pool.submit(
                        _shard_run, chunk, k, want_ckpt, None)
                    need_restore = False
                    recovered = True
                _, wall, ckpt = future.result(
                    timeout=self.barrier_timeout_s)
                walls[state.index] += wall
                if ckpt is not None:
                    state.ckpt = ckpt
                if recovered:
                    telemetry["recovered_barriers"] += 1
                return
            except Exception as exc:
                attempt += 1
                self._note_failure(failures, state.index,
                                   f"barrier {k}", exc)
                if isinstance(exc, (_FutureTimeout, BrokenProcessPool)):
                    self._respawn(state, telemetry)
                need_restore = True
                rung = ("inline" if attempt > self.max_shard_retries
                        else "retry")
                telemetry["events"].append(RecoveryEvent(
                    shard=state.index, barrier=k, phase="barrier",
                    attempt=attempt, cause=self._failure_cause(exc),
                    rung=rung))
                if attempt > self.max_shard_retries:
                    self._demote_inline(state, chunks, k, walls,
                                        telemetry)
                    telemetry.setdefault("degraded", []).append(
                        state.index)
                    return
                time.sleep(self._backoff_s(attempt))

    def _build_shards(self, states: List[_Shard],
                      failures: Dict[int, List[str]],
                      telemetry: Dict[str, int]) -> None:
        """Build every shard's world slice, with bounded retry."""
        plan = self.fault_plan
        for state in states:
            state.pool = ProcessPoolExecutor(max_workers=1)
            fault = (plan.take(state.index, 0, kinds=BUILD_KINDS)
                     if plan is not None else None)
            state.future = state.pool.submit(
                _shard_build, self.builder, state.lo, state.hi,
                self.world_kwargs, fault)
        for state in states:
            future, state.future = state.future, None
            attempt = 0
            while True:
                try:
                    built = future.result(timeout=self.barrier_timeout_s)
                    break
                except Exception as exc:
                    attempt += 1
                    self._note_failure(failures, state.index, "build",
                                       exc)
                    if isinstance(exc,
                                  (_FutureTimeout, BrokenProcessPool)):
                        self._respawn(state, telemetry)
                    telemetry["events"].append(RecoveryEvent(
                        shard=state.index, barrier=-1, phase="build",
                        attempt=attempt,
                        cause=self._failure_cause(exc), rung="retry"))
                    if attempt > self.max_shard_retries:
                        kind = (ShardTimeout
                                if isinstance(exc, _FutureTimeout)
                                else ShardFailure)
                        raise kind(
                            f"shard {state.index} (devices "
                            f"[{state.lo}, {state.hi})) failed to "
                            f"build after {attempt} attempts "
                            f"({self._failure_cause(exc)})") from exc
                    time.sleep(self._backoff_s(attempt))
                    # A persistently broken builder keeps raising: the
                    # retry consumes the next scheduled build fault too.
                    fault = (plan.take(state.index, 0, kinds=BUILD_KINDS)
                             if plan is not None else None)
                    future = state.pool.submit(
                        _shard_build, self.builder, state.lo, state.hi,
                        self.world_kwargs, fault)
            if built != state.hi - state.lo:
                raise SimulationError(
                    f"builder produced the wrong device count for "
                    f"shard [{state.lo}, {state.hi})")

    def _run_processes(self, duration_s: float,
                       barrier_s: Optional[float]) -> FleetReport:
        chunks = self._chunks(duration_s, barrier_s)
        ranges = self.partitions()
        states = [_Shard(s, lo, hi)
                  for s, (lo, hi) in enumerate(ranges)]
        walls = [0.0] * len(ranges)
        failures: Dict[int, List[str]] = {}
        telemetry: Dict = {"shard_restarts": 0,
                           "recovered_barriers": 0,
                           "forced_terminations": 0,
                           "events": []}
        plan = self.fault_plan
        if plan is not None:
            plan.reset()
        try:
            self._build_shards(states, failures, telemetry)
            for k, chunk in enumerate(chunks):
                # The checkpoint after the final barrier can never be
                # restored from (nothing runs after it), so skip it —
                # barrier-free runs pay zero capture cost.
                want_ckpt = self.checkpoint and k + 1 < len(chunks)
                pending = []
                for state in states:
                    if state.inline_world is not None:
                        continue
                    fault = (plan.take(state.index, k,
                                       kinds=RUNTIME_KINDS)
                             if plan is not None else None)
                    state.future = state.pool.submit(
                        _shard_run, chunk, k, want_ckpt, fault)
                    pending.append(state)
                # Demoted slices advance in the parent while the
                # worker shards run their chunk in parallel.
                for state in states:
                    if state.inline_world is None:
                        continue
                    begin = time.perf_counter()
                    state.inline_world.run(chunk)
                    walls[state.index] += time.perf_counter() - begin
                for state in pending:
                    self._await_barrier(state, k, chunk, chunks,
                                        want_ckpt, walls, failures,
                                        telemetry)
            reports = []
            for state in states:
                if state.inline_world is not None:
                    reports.append(_world_report(
                        state.inline_world, state.index, state.lo,
                        state.hi, walls[state.index]))
                    continue
                try:
                    reports.append(state.pool.submit(
                        _shard_finish, state.index, state.lo, state.hi,
                        walls[state.index]).result(
                            timeout=self.barrier_timeout_s))
                except Exception as exc:
                    # A crash between the last barrier and the digest:
                    # rebuild the finished state in the parent.
                    self._note_failure(failures, state.index, "finish",
                                       exc)
                    telemetry["events"].append(RecoveryEvent(
                        shard=state.index, barrier=len(chunks) - 1,
                        phase="finish", attempt=1,
                        cause=self._failure_cause(exc), rung="inline"))
                    self._demote_inline(state, chunks, len(chunks) - 1,
                                        walls, telemetry)
                    telemetry.setdefault("degraded", []).append(
                        state.index)
                    reports.append(_world_report(
                        state.inline_world, state.index, state.lo,
                        state.hi, walls[state.index]))
        finally:
            for state in states:
                if state.pool is not None:
                    telemetry["forced_terminations"] += self._kill_pool(
                        state.pool, self.drain_timeout_s)
        return FleetReport(
            devices=self.count, shards=len(ranges),
            simulated_s=duration_s, wall_s=0.0, shard_walls=walls,
            reports=reports,
            shard_restarts=telemetry["shard_restarts"],
            recovered_barriers=telemetry["recovered_barriers"],
            degraded_shards=sorted(set(telemetry.get("degraded", []))),
            shard_failures=failures,
            forced_terminations=telemetry["forced_terminations"],
            recovery_events=list(telemetry["events"]))

    # -- the socket transport -----------------------------------------------------

    def _pick_host(self, state: _SocketShard, hosts: List,
                   host_loss: bool):
        """Choose where a failed shard runs next.

        A healthy-host failure retries on the *same* host (fresh
        slot); a host loss reschedules round-robin to the next usable
        host.  Returns ``(host, moved)``; ``(None, True)`` means no
        healthy host remains and the shard must demote inline.
        """
        if not host_loss and state.host is not None \
                and state.host.usable():
            return state.host, False
        start = state.host.host_id + 1 if state.host is not None else 0
        for offset in range(len(hosts)):
            candidate = hosts[(start + offset) % len(hosts)]
            if candidate is not state.host and candidate.usable():
                return candidate, True
        return None, True

    def _socket_place(self, state: _SocketShard, host,
                      telemetry: Dict) -> None:
        """(Re)place a shard: new host binding, fresh slot channel."""
        if state.client is not None:
            state.client.close()
        state.host = host
        state.client = host.slot_client(next(telemetry["slot_seq"]))
        telemetry["placement"][state.index] = host.host_id

    def _socket_restore(self, state: _SocketShard, k: int,
                        chunks: Sequence[float]) -> None:
        """Reload the shard's last barrier state into its current slot."""
        state.client.call(
            "restore", timeout_s=self._restore_timeout(state.ckpt, k),
            probe=state.host.probe, probe_interval_s=self.heartbeat_s,
            ckpt=state.ckpt, builder=self.builder, lo=state.lo,
            hi=state.hi, world_kwargs=self.world_kwargs,
            chunks=list(chunks[:k]))

    def _socket_demote(self, state: _SocketShard,
                       chunks: Sequence[float], through: int,
                       walls: List[float], telemetry: Dict) -> None:
        """The ladder's last rung: the slice runs in the parent."""
        begin = time.perf_counter()
        if state.client is not None:
            state.client.close()
            state.client = None
        state.host = None
        state.inline_world = _checkpoint.rebuild_replay(
            self.builder, state.lo, state.hi, self.world_kwargs,
            chunks[:through + 1])
        telemetry.setdefault("degraded", []).append(state.index)
        walls[state.index] += time.perf_counter() - begin

    def _note_host_loss(self, state: _SocketShard, phase: str,
                        cause: str, telemetry: Dict) -> None:
        if state.host is not None:
            telemetry["host_failures"].append(
                f"shard {state.index} {phase}: host "
                f"{state.host.host_id} lost ({cause})")

    def _submit_socket_run(self, state: _SocketShard, k: int,
                           chunk: float, want_ckpt: bool,
                           fault=None) -> None:
        try:
            state.client.begin(
                "run", chunk_s=chunk, barrier=k,
                want_checkpoint=want_ckpt, fault=fault)
            state.submitted = True
            state.submit_exc = None
        except Exception as exc:
            state.submitted = False
            state.submit_exc = exc

    def _await_socket_barrier(self, state: _SocketShard, hosts: List,
                              k: int, chunk: float,
                              chunks: Sequence[float],
                              want_ckpt: bool, walls: List[float],
                              failures: Dict[int, List[str]],
                              telemetry: Dict) -> None:
        """Collect one socketed shard's barrier through the extended
        ladder: retry on the same host (restore into a fresh slot +
        re-run), **reschedule** onto a surviving host when this one is
        lost, and demote inline only when the retry budget is spent or
        no healthy host remains.  Host losses are mandatory moves and
        do not consume the retry budget."""
        attempt = 0
        losses = 0
        recovered = False
        pending_exc = None if state.submitted else state.submit_exc
        while True:
            try:
                if pending_exc is not None:
                    raise pending_exc
                _, wall, ckpt = state.client.collect(
                    timeout_s=self.barrier_timeout_s,
                    probe=state.host.probe,
                    probe_interval_s=self.heartbeat_s)
                walls[state.index] += wall
                if ckpt is not None:
                    state.ckpt = ckpt
                if recovered:
                    telemetry["recovered_barriers"] += 1
                return
            except Exception as exc:
                pending_exc = None
                cause = self._failure_cause(exc)
                self._note_failure(failures, state.index,
                                   f"barrier {k}", exc)
                host_loss = (isinstance(exc, HostUnreachable)
                             or state.host is None
                             or not state.host.usable())
                if host_loss:
                    losses += 1
                    self._note_host_loss(state, f"barrier {k}", cause,
                                         telemetry)
                else:
                    attempt += 1
                exhausted = (attempt > self.max_shard_retries
                             or losses > len(hosts))
                host, moved = ((None, True) if exhausted
                               else self._pick_host(state, hosts,
                                                    host_loss))
                if host is None:
                    telemetry["events"].append(RecoveryEvent(
                        shard=state.index, barrier=k, phase="barrier",
                        attempt=attempt, cause=cause, rung="inline"))
                    self._socket_demote(state, chunks, k, walls,
                                        telemetry)
                    return
                if moved:
                    telemetry["shard_reschedules"] += 1
                telemetry["events"].append(RecoveryEvent(
                    shard=state.index, barrier=k, phase="barrier",
                    attempt=attempt, cause=cause,
                    rung="reschedule" if moved else "retry",
                    host=host.host_id))
                if not host_loss:
                    time.sleep(self._backoff_s(attempt))
                try:
                    self._socket_place(state, host, telemetry)
                    # Always restore before re-running: a drop_msg
                    # means the chunk already ran once — re-running
                    # without rewinding would diverge.
                    self._socket_restore(state, k, chunks)
                    state.client.begin(
                        "run", chunk_s=chunk, barrier=k,
                        want_checkpoint=want_ckpt, fault=None)
                    recovered = True
                except Exception as recovery_exc:
                    pending_exc = recovery_exc

    def _build_socket_shards(self, states: List[_SocketShard],
                             hosts: List, chunks: Sequence[float],
                             walls: List[float],
                             failures: Dict[int, List[str]],
                             telemetry: Dict) -> None:
        """Build every slot's world slice, with the same ladder."""
        plan = self.fault_plan
        for state in states:
            fault = (plan.take(state.index, 0, kinds=BUILD_KINDS)
                     if plan is not None else None)
            try:
                state.client.begin(
                    "build", builder=self.builder, lo=state.lo,
                    hi=state.hi, world_kwargs=self.world_kwargs,
                    fault=fault)
                state.submitted = True
            except Exception as exc:
                state.submitted = False
                state.submit_exc = exc
        for state in states:
            attempt = 0
            losses = 0
            built = None
            pending_exc = None if state.submitted else state.submit_exc
            while True:
                try:
                    if pending_exc is not None:
                        raise pending_exc
                    built = state.client.collect(
                        timeout_s=self.barrier_timeout_s,
                        probe=state.host.probe,
                        probe_interval_s=self.heartbeat_s)
                    break
                except Exception as exc:
                    pending_exc = None
                    cause = self._failure_cause(exc)
                    self._note_failure(failures, state.index, "build",
                                       exc)
                    host_loss = (isinstance(exc, HostUnreachable)
                                 or state.host is None
                                 or not state.host.usable())
                    if host_loss:
                        losses += 1
                        self._note_host_loss(state, "build", cause,
                                             telemetry)
                    else:
                        attempt += 1
                    if attempt > self.max_shard_retries \
                            or losses > len(hosts):
                        kind = (ShardTimeout
                                if isinstance(exc, TransportTimeout)
                                else ShardFailure)
                        raise kind(
                            f"shard {state.index} (devices "
                            f"[{state.lo}, {state.hi})) failed to "
                            f"build after {attempt} attempts and "
                            f"{losses} host losses ({cause})") from exc
                    host, moved = self._pick_host(state, hosts,
                                                  host_loss)
                    if host is None:
                        telemetry["events"].append(RecoveryEvent(
                            shard=state.index, barrier=-1,
                            phase="build", attempt=attempt,
                            cause=cause, rung="inline"))
                        self._socket_demote(state, chunks, -1, walls,
                                            telemetry)
                        break
                    if moved:
                        telemetry["shard_reschedules"] += 1
                    telemetry["events"].append(RecoveryEvent(
                        shard=state.index, barrier=-1, phase="build",
                        attempt=attempt, cause=cause,
                        rung="reschedule" if moved else "retry",
                        host=host.host_id))
                    if not host_loss:
                        time.sleep(self._backoff_s(attempt))
                    fault = (plan.take(state.index, 0,
                                       kinds=BUILD_KINDS)
                             if plan is not None else None)
                    try:
                        self._socket_place(state, host, telemetry)
                        state.client.begin(
                            "build", builder=self.builder, lo=state.lo,
                            hi=state.hi,
                            world_kwargs=self.world_kwargs,
                            fault=fault)
                    except Exception as recovery_exc:
                        pending_exc = recovery_exc
            if state.inline_world is None \
                    and built != state.hi - state.lo:
                raise SimulationError(
                    f"builder produced the wrong device count for "
                    f"shard [{state.lo}, {state.hi})")

    def _run_sockets(self, duration_s: float,
                     barrier_s: Optional[float]) -> FleetReport:
        from . import hostd  # deferred: hostd imports this module
        chunks = self._chunks(duration_s, barrier_s)
        ranges = self.partitions()
        n_hosts = (self.hosts if self.hosts is not None
                   else min(2, len(ranges)))
        states = [_SocketShard(s, lo, hi)
                  for s, (lo, hi) in enumerate(ranges)]
        walls = [0.0] * len(ranges)
        failures: Dict[int, List[str]] = {}
        telemetry: Dict = {"shard_restarts": 0,
                           "recovered_barriers": 0,
                           "shard_reschedules": 0,
                           "forced_terminations": 0,
                           "host_failures": [], "events": [],
                           "placement": {},
                           "slot_seq": itertools.count()}
        plan = self.fault_plan
        if plan is not None:
            plan.reset()
        hosts = [hostd.HostHandle(h) for h in range(n_hosts)]
        try:
            for host in hosts:
                host.spawn()
            for state in states:
                self._socket_place(state, hosts[state.index % n_hosts],
                                   telemetry)
            self._build_socket_shards(states, hosts, chunks, walls,
                                      failures, telemetry)
            for k, chunk in enumerate(chunks):
                want_ckpt = self.checkpoint and k + 1 < len(chunks)
                pending = []
                for state in states:
                    if state.inline_world is not None:
                        continue
                    fault = (plan.take(state.index, k,
                                       kinds=RUNTIME_KINDS
                                       | NETWORK_KINDS)
                             if plan is not None else None)
                    if fault is not None and fault.kind == PARTITION:
                        # Parent-side and permanent: the daemon lives
                        # on, unreachable, until teardown forces it.
                        telemetry["host_failures"].append(
                            f"shard {state.index} barrier {k}: host "
                            f"{state.host.host_id} partitioned "
                            f"(injected)")
                        state.host.partition()
                        fault = None
                    self._submit_socket_run(state, k, chunk, want_ckpt,
                                            fault)
                    pending.append(state)
                for state in states:
                    if state.inline_world is None:
                        continue
                    begin = time.perf_counter()
                    state.inline_world.run(chunk)
                    walls[state.index] += time.perf_counter() - begin
                for state in pending:
                    self._await_socket_barrier(
                        state, hosts, k, chunk, chunks, want_ckpt, walls,
                        failures, telemetry)
            reports = []
            for state in states:
                if state.inline_world is not None:
                    reports.append(_world_report(
                        state.inline_world, state.index, state.lo,
                        state.hi, walls[state.index]))
                    continue
                try:
                    reports.append(state.client.call(
                        "finish", timeout_s=self.barrier_timeout_s,
                        probe=state.host.probe,
                        probe_interval_s=self.heartbeat_s,
                        shard=state.index, lo=state.lo, hi=state.hi,
                        wall_s=walls[state.index]))
                except Exception as exc:
                    self._note_failure(failures, state.index,
                                       "finish", exc)
                    telemetry["events"].append(RecoveryEvent(
                        shard=state.index, barrier=len(chunks) - 1,
                        phase="finish", attempt=1,
                        cause=self._failure_cause(exc), rung="inline",
                        host=(state.host.host_id
                              if state.host is not None else None)))
                    self._socket_demote(state, chunks,
                                        len(chunks) - 1, walls,
                                        telemetry)
                    reports.append(_world_report(
                        state.inline_world, state.index, state.lo,
                        state.hi, walls[state.index]))
        finally:
            for state in states:
                if state.client is not None:
                    state.client.close()
            for host in hosts:
                telemetry["forced_terminations"] += host.stop(
                    self.drain_timeout_s)
        return FleetReport(
            devices=self.count, shards=len(ranges),
            simulated_s=duration_s, wall_s=0.0, shard_walls=walls,
            reports=reports, transport="sockets", hosts=n_hosts,
            shard_restarts=telemetry["shard_restarts"],
            recovered_barriers=telemetry["recovered_barriers"],
            degraded_shards=sorted(set(telemetry.get("degraded", []))),
            shard_failures=failures,
            shard_reschedules=telemetry["shard_reschedules"],
            host_failures=telemetry["host_failures"],
            placement=dict(telemetry["placement"]),
            forced_terminations=telemetry["forced_terminations"],
            recovery_events=list(telemetry["events"]))
