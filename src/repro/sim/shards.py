"""Sharded fleets: Worlds partitioned across shard-host daemons.

A :class:`~repro.sim.world.World` is single-process by design — its
devices share one Python interpreter no matter how idle they are.
Devices are, however, mutually independent: they share nothing but
the *stateless* synthetic remote-host universe, so a fleet partitions
cleanly.  :class:`ShardedWorld` splits the device index range across
**shards** and drives them barrier-to-barrier:

* every shard is a **slot** on a shard-host daemon
  (:mod:`repro.sim.hostd`) reached through length-prefixed pickle
  frames (:mod:`repro.sim.transport`), placed by a **placement map**
  (shard → host) the supervisor owns — one daemon per shard unless
  ``hosts`` says otherwise;
* devices are constructed *inside* the daemon by a picklable
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

Each barrier epoch runs under one fixed placement map, and recovery
is an explicit reconfiguration decided in one place,
:meth:`ShardedWorld._settle`, for the build, every barrier and the
finish alike.  A failed request is classified first:

* a **host loss** — the daemon crashed, stopped answering heartbeats,
  or a partition cut it off (detected by liveness probes between
  barriers, not just by deadlines) — is a mandatory move that
  consumes no retry budget: the shard is **rescheduled** onto its own
  host once a crashed daemon is respawned, else onto the usable host
  running the fewest shards, so a spare is used before any host is
  shared;
* a failure on a **healthy host** — a missed deadline, a lost reply,
  a remote raise — **retries** on the same host in a fresh slot after
  exponential backoff, consuming ``max_shard_retries`` budget;
* once that budget is spent, or no healthy host remains, the shard's
  device range is demoted to **inline** execution in the parent:
  rebuilt from the builder, replayed to the current barrier, and run
  in-process for the rest of the experiment — degraded, never
  diverged.

Every move restores the shard to its last barrier checkpoint
(:mod:`repro.sim.checkpoint`: digest-validated pickle snapshot when
the state could capture, deterministic rebuild-and-replay otherwise)
before resending the request.  The simulation draws no real entropy,
so a recovered shard is bit-identical to one that never failed, and
the chaos suites assert exactly that under seeded
:class:`~repro.sim.faults.FaultPlan` injections.  One caveat: a lost
*message* (as opposed to a lost host) is only detectable by a
deadline, so ``drop_msg`` chaos needs ``barrier_timeout_s`` set.

``shards=0`` runs the identical partition logic inline (one world,
no daemons): the differential oracle that sharded execution is
sample-identical to sequential execution.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..errors import (HostUnreachable, ShardFailure, ShardTimeout,
                      SimulationError, TransportError, TransportTimeout)
from . import checkpoint as _checkpoint
from .faults import (BUILD_KINDS, NETWORK_KINDS, PARTITION, RUNTIME_KINDS,
                     FaultPlan)
from .world import World


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
    host: Optional[int] = None  #: destination host (``None`` inline)


@dataclass
class FleetReport:
    """The aggregated result of a sharded run."""

    devices: int
    shards: int
    simulated_s: float
    wall_s: float
    shard_walls: List[float]
    reports: List[ShardReport]
    #: Supervision telemetry: retry rungs taken (a request resent to
    #: the same healthy host in a fresh slot), barriers that completed
    #: only after at least one recovery, shards demoted to inline
    #: execution in the parent, and the per-shard failure causes
    #: (human-readable ``"barrier k: cause"`` strings, in order).
    shard_restarts: int = 0
    recovered_barriers: int = 0
    degraded_shards: List[int] = field(default_factory=list)
    shard_failures: Dict[int, List[str]] = field(default_factory=dict)
    #: Which tier executed the fleet: ``"inline"`` (``shards=0``) or
    #: ``"sockets"`` (shard-host daemons), and how many hosts served it.
    transport: str = "sockets"
    hosts: int = 0
    #: Cross-host supervision telemetry: reschedule rungs taken after
    #: a host loss (onto the respawned daemon or another usable
    #: host), the human-readable host-loss log, and the final
    #: placement map (shard → host id).
    shard_reschedules: int = 0
    host_failures: List[str] = field(default_factory=list)
    placement: Dict[int, int] = field(default_factory=dict)
    #: Host daemons teardown had to terminate rather than drain (a
    #: partitioned or unresponsive host, or one that outlived
    #: ``drain_timeout_s``).
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
    """Parent-side supervision state for one shard.

    Holds the shard's placement — its host and slot channel — its last
    barrier checkpoint, and, once demoted, the world it runs inline.
    Every (re)placement gets a *fresh slot id*: a hung daemon thread
    may still be mutating an abandoned slot's world, so retried state
    must never share it (the stale slot leaks harmlessly in daemon
    memory).
    """

    __slots__ = ("index", "lo", "hi", "host", "client", "ckpt",
                 "inline_world", "error")

    def __init__(self, index: int, lo: int, hi: int) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self.host = None
        self.client = None
        #: Last completed barrier checkpoint (None until barrier 1).
        self.ckpt = None
        #: Set on demotion: the slice now runs in the parent.
        self.inline_world: Optional[World] = None
        #: A failed first send, parked for :meth:`ShardedWorld._settle`.
        self.error: Optional[BaseException] = None


@dataclass
class _Run:
    """One experiment in flight: its barrier chunks, hosts and shards,
    the report the supervisor fills in as it goes, and the slot-id
    source."""

    chunks: List[float]
    hosts: List
    states: List[_Shard]
    report: FleetReport
    slots: Iterator[int] = field(default_factory=itertools.count)


class ShardedWorld:
    """A fleet partitioned across shard-host daemons.

    ``builder(world, lo, hi)`` must be picklable (a module-level
    function or :func:`functools.partial` over one — e.g.
    :func:`repro.sim.workload.poller_shard`) and must key every
    device off its *global* index so partitioning is invisible to the
    simulation.  ``world_kwargs`` are forwarded to each shard's
    :class:`~repro.sim.world.World` (tick, seed, fast-forward);
    every shard gets identical values, which keeps index-derived
    seeds partition-independent.

    Supervision knobs:

    * ``barrier_timeout_s`` — per-request deadline on each shard's
      reply; ``None`` (the default) waits forever, so only host losses
      (caught by heartbeats) trigger recovery.  Restores scale the
      deadline by the number of chunks they may replay.
    * ``max_shard_retries`` — healthy-host failures retried per
      request before the shard demotes to inline execution in the
      parent (a failing build raises instead).
    * ``retry_backoff_s`` — base of the exponential backoff before
      each retry.
    * ``checkpoint`` — capture daemon-side barrier checkpoints
      (snapshot or replay recipe; see :mod:`repro.sim.checkpoint`).
      Disabled, recovery still works — it rebuilds and replays from
      time zero — but pays the full replay on every failure.
    * ``fault_plan`` — a seeded :class:`~repro.sim.faults.FaultPlan`
      injecting deterministic crashes, hangs, corruptions and network
      faults, for chaos tests; the plan is rewound at the start of
      every run.
    * ``transport`` — accepted for callers that pass it; only
      ``"sockets"`` (the default) exists.
    * ``hosts`` — shard-host daemon count (default: one per shard).
      A crashed daemon is respawned in place; spares (more hosts than
      shards) take the shards of a host that cannot be, such as a
      partitioned one.
    * ``heartbeat_s`` — liveness-probe cadence while a reply is
      pending: each heartbeat checks the partition gate, the daemon
      process and a TCP ``ping``, so a dead host is detected between
      barriers even with ``barrier_timeout_s=None``.
    * ``drain_timeout_s`` — how long teardown waits for a host daemon
      to exit after ``shutdown`` before terminating it; terminations
      are counted in :attr:`FleetReport.forced_terminations`.
    """

    def __init__(self, builder: Callable, count: int,
                 shards: Optional[int] = None,
                 barrier_timeout_s: Optional[float] = None,
                 max_shard_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 checkpoint: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 transport: str = "sockets",
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
        if transport != "sockets":
            raise SimulationError(
                f"unknown transport {transport!r} (shards run on "
                f"shard-host daemons: 'sockets')")
        if hosts is not None and hosts <= 0:
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

        A fresh run builds fresh shards on fresh host daemons (each
        invocation is one experiment), and shard worlds advance in
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
        else:
            report = self._run_hosts(duration_s, barrier_s)
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

    def _run_hosts(self, duration_s: float,
                   barrier_s: Optional[float]) -> FleetReport:
        from . import hostd  # deferred: hostd imports this module
        chunks = self._chunks(duration_s, barrier_s)
        states = [_Shard(s, lo, hi)
                  for s, (lo, hi) in enumerate(self.partitions())]
        n_hosts = self.hosts if self.hosts is not None else len(states)
        report = FleetReport(
            devices=self.count, shards=len(states),
            simulated_s=duration_s, wall_s=0.0,
            shard_walls=[0.0] * len(states), reports=[], hosts=n_hosts)
        run = _Run(chunks, [hostd.HostHandle(h) for h in range(n_hosts)],
                   states, report)
        walls = report.shard_walls
        if self.fault_plan is not None:
            self.fault_plan.reset()
        try:
            for host in run.hosts:
                host.spawn()
            for state in states:
                self._place(run, state, run.hosts[state.index % n_hosts])
            for state in states:
                state.error = self._send(
                    run, state, "build", -1,
                    self._fault(state.index, "build", -1))
            for state in states:
                built = self._settle(run, state, "build", -1)
                if built is not None and built != state.hi - state.lo:
                    raise SimulationError(
                        f"builder produced the wrong device count for "
                        f"shard [{state.lo}, {state.hi})")
            for k, chunk in enumerate(chunks):
                pending = [s for s in states if s.inline_world is None]
                for state in pending:
                    fault = self._fault(state.index, "barrier", k)
                    if fault is not None and fault.kind == PARTITION:
                        # Parent-side and permanent: the daemon lives
                        # on, unreachable, until teardown forces it.
                        report.host_failures.append(
                            f"shard {state.index} barrier {k}: host "
                            f"{state.host.host_id} partitioned "
                            f"(injected)")
                        state.host.partition()
                        fault = None
                    state.error = self._send(run, state, "barrier", k,
                                             fault)
                # Demoted slices advance in the parent while the
                # daemon shards run their chunk in parallel.
                for state in states:
                    if state.inline_world is None:
                        continue
                    begin = time.perf_counter()
                    state.inline_world.run(chunk)
                    walls[state.index] += time.perf_counter() - begin
                for state in pending:
                    reply = self._settle(run, state, "barrier", k)
                    if reply is not None:
                        _, wall, ckpt = reply
                        walls[state.index] += wall
                        if ckpt is not None:
                            state.ckpt = ckpt
            for state in states:
                shard_report = None
                if state.inline_world is None:
                    state.error = self._send(run, state, "finish",
                                             len(chunks) - 1)
                    shard_report = self._settle(run, state, "finish",
                                                len(chunks) - 1)
                if shard_report is None:
                    shard_report = _world_report(
                        state.inline_world, state.index, state.lo,
                        state.hi, walls[state.index])
                report.reports.append(shard_report)
        finally:
            for state in states:
                if state.client is not None:
                    state.client.close()
            for host in run.hosts:
                report.forced_terminations += host.stop(
                    self.drain_timeout_s)
        report.degraded_shards.sort()
        return report

    def _fault(self, shard: int, phase: str, k: int):
        """Consume the fault scheduled for this submission, if any."""
        plan = self.fault_plan
        if plan is None:
            return None
        if phase == "build":
            return plan.take(shard, 0, kinds=BUILD_KINDS)
        return plan.take(shard, k, kinds=RUNTIME_KINDS | NETWORK_KINDS)

    def _send(self, run: _Run, state: _Shard, phase: str, k: int,
              fault=None) -> Optional[BaseException]:
        """Send the shard's request for ``phase``; returns the
        exception a failed send raised, for :meth:`_settle`."""
        try:
            if phase == "build":
                state.client.begin(
                    "build", builder=self.builder, lo=state.lo,
                    hi=state.hi, world_kwargs=self.world_kwargs,
                    fault=fault)
            elif phase == "barrier":
                # The checkpoint after the final barrier can never be
                # restored from (nothing runs after it), so skip it —
                # barrier-free runs pay zero capture cost.
                state.client.begin(
                    "run", chunk_s=run.chunks[k], barrier=k,
                    want_checkpoint=(self.checkpoint
                                     and k + 1 < len(run.chunks)),
                    fault=fault)
            else:
                state.client.begin(
                    "finish", shard=state.index, lo=state.lo,
                    hi=state.hi,
                    wall_s=run.report.shard_walls[state.index])
        except Exception as exc:
            return exc
        return None

    def _settle(self, run: _Run, state: _Shard, phase: str, k: int):
        """Collect the shard's pending reply, recovering until it lands.

        The one recovery ladder, for ``phase`` ``"build"`` (``k`` is
        ``-1``), ``"barrier"`` ``k`` and ``"finish"``.  A failure is
        classified — a host loss, or a failure on a healthy host —
        and answered with one rung, recorded as one
        :class:`RecoveryEvent`: **reschedule** a lost host's shard
        (see :meth:`_pick_host`; no retry budget consumed), **retry** a
        healthy host's failure there in a fresh slot after backoff, or
        go **inline** once the budget is spent or no healthy host
        remains.  A build that exhausts its budget raises instead —
        inline execution runs the same builder.  Returns the reply, or
        ``None`` once the shard runs inline.
        """
        report = run.report
        where = f"barrier {k}" if phase == "barrier" else phase
        attempt = losses = 0
        exc, state.error = state.error, None
        while True:
            if exc is None:
                try:
                    reply = state.client.collect(
                        timeout_s=self.barrier_timeout_s,
                        probe=state.host.probe,
                        probe_interval_s=self.heartbeat_s)
                except Exception as failure:
                    exc = failure
                else:
                    if phase == "barrier" and (attempt or losses):
                        report.recovered_barriers += 1
                    return reply
            cause = self._failure_cause(exc)
            report.shard_failures.setdefault(state.index, []).append(
                f"{where}: {cause}")
            # A changed address means a co-hosted shard already
            # respawned the daemon this request died with.
            host_loss = (isinstance(exc, HostUnreachable)
                         or state.client.address != state.host.address
                         or not state.host.usable())
            if host_loss:
                losses += 1
                report.host_failures.append(
                    f"shard {state.index} {where}: host "
                    f"{state.host.host_id} lost ({cause})")
            else:
                attempt += 1
            exhausted = (attempt > self.max_shard_retries
                         or losses > len(run.hosts))
            if exhausted and phase == "build":
                kind = (ShardTimeout if isinstance(exc, TransportTimeout)
                        else ShardFailure)
                raise kind(
                    f"shard {state.index} (devices [{state.lo}, "
                    f"{state.hi})) failed to build after {attempt} "
                    f"attempts and {losses} host losses ({cause})"
                ) from exc
            host = (None if exhausted
                    else self._pick_host(run, state, host_loss))
            rung = ("inline" if host is None
                    else "reschedule" if host_loss else "retry")
            report.recovery_events.append(RecoveryEvent(
                shard=state.index, barrier=k, phase=phase,
                attempt=attempt, cause=cause, rung=rung,
                host=None if host is None else host.host_id))
            if host is None:
                self._demote(run, state, k)
                return None
            if rung == "retry":
                report.shard_restarts += 1
            else:
                report.shard_reschedules += 1
            if not host_loss:
                time.sleep(self._backoff_s(attempt))
            exc = self._resubmit(run, state, host, phase, k)

    def _resubmit(self, run: _Run, state: _Shard, host, phase: str,
                  k: int) -> Optional[BaseException]:
        """Re-place the shard on ``host`` in a fresh slot, restore the
        state its request started from, and send the request again.

        Returns the exception a step raised, for the ladder's next
        round.  A build retry consumes the next scheduled build fault
        (a persistently broken builder keeps raising); a barrier or
        finish always restores first — a ``drop_msg`` means the chunk
        already ran once, and re-running without rewinding would
        diverge.
        """
        fault = self._fault(state.index, phase, k) \
            if phase == "build" else None
        self._place(run, state, host)
        if phase != "build":
            # The finish restores by full replay: no checkpoint is
            # taken after the last chunk.
            through = k if phase == "barrier" else len(run.chunks)
            ckpt = state.ckpt if phase == "barrier" else None
            try:
                state.client.call(
                    "restore", timeout_s=self._restore_timeout(ckpt,
                                                               through),
                    probe=host.probe, probe_interval_s=self.heartbeat_s,
                    ckpt=ckpt, builder=self.builder, lo=state.lo,
                    hi=state.hi, world_kwargs=self.world_kwargs,
                    chunks=list(run.chunks[:through]))
            except Exception as exc:
                return exc
        return self._send(run, state, phase, k, fault)

    def _pick_host(self, run: _Run, state: _Shard, host_loss: bool):
        """Where a failed shard runs next.

        The same host after a healthy-host failure.  After a host
        loss, the shard's own host again once it answers — a crashed
        daemon is respawned here, or a co-hosted shard respawned it
        first — so a crash never changes the placement map.  A host
        that cannot come back (partitioned, or alive but silent)
        hands its shard to the usable host running the fewest shards,
        first in round-robin order after it, so a spare is used before
        any host is shared.  ``None`` when no healthy host remains.
        """
        lost = state.host
        if not host_loss or lost.usable() \
                or lost.respawn(self.heartbeat_s):
            return lost
        hosts = run.hosts
        load = Counter(s.host for s in run.states
                       if s.host is not None and s is not state)
        order = [hosts[(lost.host_id + i) % len(hosts)]
                 for i in range(1, len(hosts))]
        return min((h for h in order if h.usable()),
                   key=lambda h: load[h], default=None)

    def _place(self, run: _Run, state: _Shard, host) -> None:
        """(Re)place a shard: new host binding, fresh slot channel."""
        if state.client is not None:
            state.client.close()
        state.host = host
        state.client = host.slot_client(next(run.slots))
        run.report.placement[state.index] = host.host_id

    def _demote(self, run: _Run, state: _Shard, through: int) -> None:
        """The ladder's last rung: the slice runs in the parent.

        The shard's device range is rebuilt from the builder and
        deterministically replayed through chunk ``through`` —
        checkpoints (possibly the corrupted thing that exhausted the
        retries) are deliberately ignored; rebuild-and-replay in the
        parent is the authoritative ground truth.  The fleet-level
        mirror of the cohort scheduler's demote-don't-degrade idiom.
        """
        begin = time.perf_counter()
        state.client.close()
        state.client = state.host = None
        state.inline_world = _checkpoint.rebuild_replay(
            self.builder, state.lo, state.hi, self.world_kwargs,
            run.chunks[:through + 1])
        run.report.degraded_shards.append(state.index)
        run.report.shard_walls[state.index] += time.perf_counter() - begin

    def _backoff_s(self, attempt: int) -> float:
        """The exponential backoff before recovery attempt ``attempt``
        (1-based): ``retry_backoff_s * 2**(attempt - 1)``."""
        return self.retry_backoff_s * (2 ** (attempt - 1))

    def _restore_timeout(self, ckpt, k: int) -> Optional[float]:
        """Restores may replay up to ``k`` chunks — scale the deadline
        accordingly (pickle restores finish well inside one)."""
        if self.barrier_timeout_s is None:
            return None
        barriers = k if ckpt is None else max(1, ckpt.barrier)
        return self.barrier_timeout_s * (barriers + 1)

    @staticmethod
    def _failure_cause(exc: BaseException) -> str:
        if isinstance(exc, HostUnreachable):
            return f"host-unreachable: {exc}"
        if isinstance(exc, TransportTimeout):
            return f"transport-timeout: {exc}"
        if isinstance(exc, TransportError):
            return f"transport: {exc}"
        return f"{type(exc).__name__}: {exc}"
