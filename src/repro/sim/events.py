"""Event sources: the runtime's pluggable next-event architecture.

The tick engine's idle fast-forward used to hard-code exactly four
things that could end an idle span (the timer heap, the sleeper heap,
the radio and the trace cadence) and gave up whenever netd or any
attached device was active.  This module generalizes that: every part
of the runtime that can *cause* or *forbid* a macro-step implements the
:class:`EventSource` protocol, and a :class:`Horizon` aggregates them
into one min-over-sources answer.  The engine never names a component
again — adding a peripheral, a daemon, or a whole new subsystem to the
fast-forward story is just registering another source.

The protocol:

* ``quiescent(now)`` — True iff skipping ticks cannot change this
  component's behavior (no per-tick state machine work pending).  Any
  non-quiescent source vetoes the macro-step and the engine ticks.
* ``next_event(now)`` — the earliest future instant at which this
  component's state (or its contribution to system power) may change,
  or ``None`` for "no scheduled event".  The instant may be
  conservative (early); landing on a tick where nothing happens is
  harmless, skipping past an event is not.
* ``span_frozen_taps(now)`` — taps the source will integrate *itself*
  in ``advance_span`` (closed form); the engine holds them out of
  ``ResourceGraph.advance_span`` so the span is not double-counted.
  netd's pooled-wait accrual is the canonical user.
* ``advance_span(now, span)`` — apply the component's closed-form
  effects for an event-free span ending strictly before its
  ``next_event``.  Must not fail: anything that can refuse must do so
  through ``quiescent``/``next_event`` *before* the engine commits.

Sources need not subclass :class:`EventSource` — netd and the GPS
daemon implement the protocol duck-typed.  The one step that *can*
still refuse after every source declared quiescence is the resource
graph's own span (``ResourceGraph.advance_span``), which the engine
runs first so a refusal mutates nothing; since the coupled span
solver (:mod:`repro.core.spansolver`) those refusals are
state-dependent only (mid-span clamp, capacity pressure, debt) —
chained reserve topologies no longer degrade a quiescent device to
tick-by-tick.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..core.tap import Tap
    from ..net.radio import RadioDevice
    from .engine import DeviceRuntime


class EventSource:
    """One component's contract with the idle fast-forward machinery."""

    #: Display name for diagnostics (:meth:`Horizon.blockers`).
    name: str = "source"

    #: Whether the last ``next_event`` answer was *firm* — an exact
    #: instant that will not move if recomputed later in the same
    #: event-free stretch (timer deadlines, sleeper wakes, radio
    #: timeouts).  Sources that return conservative checkpoints which
    #: a later recomputation would push further out (netd's analytic
    #: pooled-crossing bound) set this False, and fleet schedulers
    #: must re-poll them instead of caching the instant.  Read by
    #: :meth:`Horizon.poll` immediately after ``next_event``.
    horizon_firm: bool = True

    #: Whether the last ``next_event`` instant *requires a normal
    #: step* when the engine lands on it.  True for almost everything
    #: (a timer fires, a sleeper wakes, a record is due, a pump
    #: crossing executes — a fresh poll at the landing returns 0).
    #: False for pure *power boundaries*: instants where only the
    #: constant-draw assumption ends (the radio's activation-ramp
    #: end), after which the engine may immediately open the next
    #: span without executing a tick.  Fleet schedulers use this to
    #: answer "tick now" from a cached firm target without re-polling.
    horizon_executes: bool = True

    def quiescent(self, now: float) -> bool:
        """True iff an event-free span may skip this component's ticks."""
        return True

    def next_event(self, now: float) -> Optional[float]:
        """Earliest future instant anything may happen here (None = never)."""
        return None

    def span_frozen_taps(self, now: float) -> Iterable["Tap"]:
        """Taps this source integrates itself over the coming span."""
        return ()

    def advance_span(self, now: float, span: float) -> None:
        """Apply closed-form effects of an event-free ``span``; infallible."""


class Horizon:
    """An ordered collection of event sources with min-over-sources ops.

    Order matters only for ``advance_span``: sources are advanced in
    registration order, and the engine advances the resource graph
    (the one step that can still refuse) before any of them, so a
    refused span mutates nothing.
    """

    def __init__(self) -> None:
        self._sources: List[EventSource] = []
        #: Sources that actually override the span hooks (everything
        #: else is a no-op there): computed at registration so the
        #: per-macro-step loops touch only the participating sources
        #: instead of dispatching no-ops across the whole list.
        self._frozen_sources: List[EventSource] = []
        self._span_sources: List[EventSource] = []
        #: Bound-method fast paths for :meth:`poll`, same filtering
        #: rationale: only sources that override ``quiescent`` can
        #: veto, only sources that override ``next_event`` can bound.
        self._veto_checks: List[Callable[[float], bool]] = []
        self._event_checks: List[Tuple[Callable[[float], Optional[float]],
                                       EventSource]] = []

    def _classify(self, source: EventSource) -> None:
        cls = type(source)
        frozen = getattr(cls, "span_frozen_taps", None)
        if frozen is not None and frozen is not EventSource.span_frozen_taps:
            self._frozen_sources.append(source)
        advance = getattr(cls, "advance_span", None)
        if advance is not None and advance is not EventSource.advance_span:
            self._span_sources.append(source)
        quiescent = getattr(cls, "quiescent", None)
        if (quiescent is not None
                and quiescent is not EventSource.quiescent):
            self._veto_checks.append(source.quiescent)
        next_event = getattr(cls, "next_event", None)
        if (next_event is not None
                and next_event is not EventSource.next_event):
            self._event_checks.append((source.next_event, source))

    def add(self, source: EventSource) -> EventSource:
        """Register a source; returns it for caller convenience."""
        self._sources.append(source)
        self._classify(source)
        return source

    def remove(self, source: EventSource) -> None:
        """Unregister a source (device detach)."""
        if source in self._sources:
            self._sources.remove(source)
        if source in self._frozen_sources:
            self._frozen_sources.remove(source)
        if source in self._span_sources:
            self._span_sources.remove(source)
        self._veto_checks = [check for check in self._veto_checks
                             if check.__self__ is not source]
        self._event_checks = [entry for entry in self._event_checks
                              if entry[1] is not source]

    @property
    def sources(self) -> List[EventSource]:
        """Registered sources (copy)."""
        return list(self._sources)

    def poll(self, now: float, deadline: float
             ) -> Tuple[bool, float, bool, bool]:
        """``(quiescent, horizon, firm, executes)`` in one source pass.

        The one entry point engines and fleet schedulers use: one
        traversal answers whether every source permits a macro-step
        (each :meth:`EventSource.quiescent`) and the earliest instant
        anything can happen, capped at ``deadline`` (the min of each
        :meth:`EventSource.next_event`), plus two properties of that
        *binding* instant: whether it is firm — cacheable across
        iterations — or a conservative checkpoint that must be
        re-polled (:attr:`EventSource.horizon_firm`), and whether
        landing on it requires a normal step or merely closes a
        constant-power span (:attr:`EventSource.horizon_executes`).  A
        non-quiescent answer is reported firm: the veto must be
        re-examined every iteration anyway.
        """
        for quiescent in self._veto_checks:
            if not quiescent(now):
                return False, now, True, True
        horizon = deadline
        firm = True
        executes = True
        for next_event, source in self._event_checks:
            instant = next_event(now)
            if instant is not None and instant < horizon:
                horizon = instant
                firm = bool(getattr(source, "horizon_firm", True))
                executes = bool(getattr(source, "horizon_executes", True))
        return True, horizon, firm, executes

    def frozen_taps(self, now: float) -> List["Tap"]:
        """Union of every source's self-integrated taps."""
        taps: List["Tap"] = []
        for source in self._frozen_sources:
            taps.extend(source.span_frozen_taps(now))
        return taps

    def advance_span(self, now: float, span: float) -> None:
        """Advance every source across an event-free span, in order.

        Only sources that override ``advance_span`` are visited; the
        relative registration order among them is preserved.
        """
        for source in self._span_sources:
            source.advance_span(now, span)

    def blockers(self, now: float) -> List[str]:
        """Names of non-quiescent sources (diagnostics)."""
        return [source.name for source in self._sources
                if not source.quiescent(now)]


# ---------------------------------------------------------------------------
# runtime-side adapters
# ---------------------------------------------------------------------------


class TimerHeapSource(EventSource):
    """The engine's ``schedule_at`` heap: always quiescent, head = event."""

    name = "timers"

    def __init__(self, heap: List[Tuple]) -> None:
        self._heap = heap

    def next_event(self, now: float) -> Optional[float]:
        return self._heap[0][0] if self._heap else None


class SleeperHeapSource(EventSource):
    """The sleeping-process heap (lazily dropping stale entries)."""

    name = "sleepers"

    def __init__(self, runtime: "DeviceRuntime") -> None:
        self._runtime = runtime

    def next_event(self, now: float) -> Optional[float]:
        sleepers = self._runtime._sleepers
        while sleepers:
            wake_at, _, process, request = sleepers[0]
            if process.finished or process.current is not request:
                heapq.heappop(sleepers)  # stale entry
                continue
            return wake_at
        return None


class TraceCadenceSource(EventSource):
    """The next trace-record instant: bounds every span to one interval."""

    name = "trace"

    def __init__(self, runtime: "DeviceRuntime") -> None:
        self._runtime = runtime

    def next_event(self, now: float) -> Optional[float]:
        runtime = self._runtime
        return runtime._last_record + runtime.record_interval_s


class RadioSource(EventSource):
    """The radio state machine.

    Quiescent unless a transfer occupies the radio (a transfer's extra
    draw varies within the span and its completion resumes a process).
    An *active but idle-bound* radio is fine: its plateau/ramp draw is
    piecewise constant and each change instant is reported as an
    event.
    """

    name = "radio"

    def __init__(self, radio: "RadioDevice") -> None:
        self._radio = radio

    def quiescent(self, now: float) -> bool:
        return self._radio.transfers_in_flight == 0

    def next_event(self, now: float) -> Optional[float]:
        instant = self._radio.next_state_change(now)
        # The activation-ramp end is a pure power boundary: the extra
        # ramp draw stops, but no state machine needs a tick there (the
        # draw is computed from ``now`` on demand).  Everything else —
        # the idle transition, transfer completions — must execute.
        radio = self._radio
        ramp_end = radio.activated_at + radio.params.ramp_duration_s
        self.horizon_executes = not (instant is not None
                                     and now < ramp_end
                                     and instant == ramp_end)
        return instant


class SchedulerSource(EventSource):
    """The CPU scheduler: any RUNNABLE or THROTTLED thread vetoes.

    THROTTLED counts because a refilling reserve is a mid-span event —
    the engine must tick to notice the instant it can run again.
    """

    name = "scheduler"

    def __init__(self, scheduler) -> None:
        self._scheduler = scheduler

    def quiescent(self, now: float) -> bool:
        return not self._scheduler.any_wants_cpu()


class ProcessTableSource(EventSource):
    """Process bookkeeping: starting processes and WaitFor polls veto.

    A ``WaitFor`` predicate may read reserve levels, which move every
    tick; a just-spawned process must take its first step on the next
    tick.  Net-blocked processes are *not* checked here — netd itself
    is an event source and answers for them.
    """

    name = "processes"

    def __init__(self, runtime: "DeviceRuntime") -> None:
        self._runtime = runtime

    def quiescent(self, now: float) -> bool:
        runtime = self._runtime
        return not runtime._waiting and not runtime._new_processes


class DevicePort(EventSource):
    """An ``add_device`` attachment as an event source.

    Three shapes:

    * a device registered with a custom ``source`` delegates wholesale
      — the device promises its stepper's effects are replayed by the
      source's ``advance_span`` and its power is constant between the
      source's events;
    * a legacy device with a per-tick ``stepper`` but no source is
      never quiescent (exactly the old veto);
    * a device with only a ``power`` callable is treated as
      constant-draw between events and no longer vetoes — the engine
      samples ``power(now)`` once at span start.
    """

    name = "device"

    def __init__(self,
                 stepper: Optional[Callable[[float], None]] = None,
                 power: Optional[Callable[[float], float]] = None,
                 source: Optional[EventSource] = None) -> None:
        self.stepper = stepper
        self.power = power
        self.source = source
        if source is not None and getattr(source, "name", None):
            self.name = f"device:{source.name}"

    @property
    def horizon_firm(self) -> bool:
        """Firmness of the wrapped source's last ``next_event`` answer."""
        if self.source is not None:
            return bool(getattr(self.source, "horizon_firm", True))
        return True

    @property
    def horizon_executes(self) -> bool:
        """Whether the wrapped source's last instant needs a step."""
        if self.source is not None:
            return bool(getattr(self.source, "horizon_executes", True))
        return True

    def quiescent(self, now: float) -> bool:
        if self.source is not None:
            return self.source.quiescent(now)
        return self.stepper is None

    def next_event(self, now: float) -> Optional[float]:
        if self.source is not None:
            return self.source.next_event(now)
        return None

    def span_frozen_taps(self, now: float) -> Iterable["Tap"]:
        if self.source is not None:
            return self.source.span_frozen_taps(now)
        return ()

    def advance_span(self, now: float, span: float) -> None:
        if self.source is not None:
            self.source.advance_span(now, span)


class PeriodicSource(EventSource):
    """A convenience source for devices with a fixed event cadence.

    ``next_event`` returns the next multiple of ``period_s`` at or
    after ``now`` (offset by ``phase_s``).  Returning an instant equal
    to ``now`` is deliberate: a due beat must force the pending tick
    to execute normally (the engine fast-forwards only to instants
    strictly in the future), which is when the device's stepper runs.
    Useful for pollers whose power draw is constant between beats.
    """

    name = "periodic"

    def __init__(self, period_s: float, phase_s: float = 0.0) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.period_s = period_s
        self.phase_s = phase_s

    def next_event(self, now: float) -> Optional[float]:
        elapsed = now - self.phase_s
        if elapsed < 0:
            return self.phase_s
        beats = math.ceil(elapsed / self.period_s - 1e-9)
        return self.phase_s + beats * self.period_s
