"""The resource consumption graph (paper §3.4).

"Reserves and taps form a directed graph of resource consumption
rights.  The root of the graph is a reserve representing the system
battery; all other reserves are a subdivision of this root reserve."

:class:`ResourceGraph` owns the root reserve, registers every reserve
and tap, executes the periodic batch flow, applies the global decay,
and can audit conservation: no operation in the graph creates or
destroys resource — energy leaves only by being *consumed* (tracked
per reserve) and enters only by explicit external deposit (battery
charging).

The module also implements the paper's sketched-but-not-adopted
anti-hoarding primitives (§5.2.2): :meth:`ResourceGraph.clone_reserve`
(``reserve_clone()``) and :meth:`ResourceGraph.checked_transfer`, which
forbids moving resources from a fast-draining reserve to a
slower-draining one without the privilege to remove the difference.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import EnergyError, HoardingError, NoSuchObjectError, TapError
from ..kernel.labels import Label, NO_PRIVILEGES, PrivilegeSet, can_modify
from .decay import DecayPolicy
from .flowplan import FlowPlan, VECTOR_MIN_OBJECTS
from .reserve import ENERGY, Reserve
from .tap import Tap, TapType


class ResourceGraph:
    """Registry and engine for one resource kind's reserves and taps."""

    def __init__(
        self,
        root_level: float,
        kind: str = ENERGY,
        root_capacity: Optional[float] = None,
        root_name: str = "battery",
        decay: Optional[DecayPolicy] = None,
    ) -> None:
        self.kind = kind
        self.root = Reserve(
            level=root_level,
            kind=kind,
            capacity=root_capacity,
            decay_exempt=True,
            name=root_name,
        )
        self._reserves: List[Reserve] = [self.root]
        self._taps: List[Tap] = []
        #: O(1) registry membership (identity-based, like ``in`` was).
        self._reserve_ids = {id(self.root)}
        self._tap_ids: set = set()
        self.decay_policy = decay if decay is not None else DecayPolicy()
        self._initial_energy = float(root_level)
        self._external_deposits = 0.0
        #: Consumption history carried by reserves that were deleted.
        self._retired_consumed = 0.0
        #: Levels dropped by un-reclaimed reserve deletion.
        self._leaked = 0.0
        #: Simulation time of the last step (informational).
        self.time = 0.0
        # -- compiled-plan epoch state (see core/flowplan.py) --
        #: Bumped on every topology mutation; FlowPlans and the cached
        #: live views are valid only while this stands still.
        self._generation = 0
        self._live_reserves: Optional[List[Reserve]] = None
        self._live_taps: Optional[List[Tap]] = None
        self._plan: Optional[FlowPlan] = None
        #: held-tap id frozenset -> span plan compiled with those taps
        #: excluded (validity re-checked against the generation), so a
        #: frozen-tap macro-step does not recompile anything per call.
        self._span_plans: Dict[frozenset, FlowPlan] = {}
        #: Registry entries deleted through graph APIs but not yet
        #: compacted (so sweep_dead can still count *external* deaths).
        self._deferred_removals = 0
        #: External deaths compacted (e.g. by a plan rebuild) that no
        #: sweep_dead call has reported yet.
        self._external_removed_pending = 0
        #: Telemetry: how many step() calls ran vectorized vs fell back.
        self.vector_steps = 0
        self.fallback_steps = 0
        #: Telemetry: segments executed by the switching span engine
        #: (spans the single-regime solvers would have refused), and
        #: the regime switches located inside them (``segments - 1``
        #: per switching span).  See :mod:`repro.core.spansolver`.
        self.span_segments = 0
        self.span_switches = 0
        #: Telemetry: wall seconds the segmented engine spent locating
        #: switch instants (event scan + certificates) vs integrating
        #: committed segments — flushed only on successful solves, so
        #: the split always describes work that actually landed.
        self.span_locate_wall_s = 0.0
        self.span_integrate_wall_s = 0.0
        self.root._graph_hook = self._bump

    # -- plan/epoch machinery ----------------------------------------------------

    @property
    def generation(self) -> int:
        """Topology epoch counter (compiled plans pin one value)."""
        return self._generation

    def _bump(self) -> None:
        """Invalidate the compiled plan and cached live views."""
        self._generation += 1
        self._live_reserves = None
        self._live_taps = None

    def _compact(self) -> int:
        """Bulk-drop dead registry entries; returns external deaths.

        Taps whose endpoints died are killed here too (the reference
        path lazily disabled them one flow() at a time).  Reserves are
        retired with their consumption history preserved.  Entries that
        died through graph APIs (``delete_tap``/``delete_reserve``)
        were already counted and do not show up in the return value.
        """
        removed = 0
        keep_taps = [t for t in self._taps
                     if t.alive and t.source.alive and t.sink.alive]
        if len(keep_taps) != len(self._taps):
            for tap in self._taps:
                if not (tap.alive and tap.source.alive and tap.sink.alive):
                    if tap.alive:
                        tap.mark_dead()
                    removed += 1
            self._taps = keep_taps
            self._tap_ids = {id(t) for t in keep_taps}
        keep_reserves = [r for r in self._reserves
                         if r.alive or r is self.root]
        if len(keep_reserves) != len(self._reserves):
            for reserve in self._reserves:
                if not reserve.alive and reserve is not self.root:
                    self._retired_consumed += reserve.total_consumed
                    self._leaked += reserve.leaked_at_death
                    removed += 1
            self._reserves = keep_reserves
            self._reserve_ids = {id(r) for r in keep_reserves}
        external = max(0, removed - self._deferred_removals)
        self._deferred_removals = 0
        self._external_removed_pending += external
        if removed:
            self._bump()
        return external

    def _current_plan(self) -> FlowPlan:
        """The compiled plan for the present topology epoch."""
        plan = self._plan
        if plan is None or plan.generation != self._generation:
            if plan is not None:
                plan.flush_stats()
            self._compact()
            plan = FlowPlan(self)
            self._plan = plan
        return plan

    def _span_plan_for(self, held: List[Tap]) -> FlowPlan:
        """A span plan with ``held`` taps excluded, cached per epoch.

        Keyed by (generation, held-tap set): as long as the topology
        stands still, every macro-step with the same frozen taps — the
        netd pooled-wait pattern fires one per horizon — reuses one
        compiled plan.  (The old implementation toggled
        ``tap.enabled``, which bumped the generation twice per
        macro-step and forced two full recompiles per horizon.)
        """
        key = frozenset(id(t) for t in held)
        plan = self._span_plans.get(key)
        if plan is None or plan.generation != self._generation:
            self._compact()
            if len(self._span_plans) > 8:  # held-set churn safety valve
                self._span_plans.clear()
            plan = FlowPlan(self, exclude=key, claim_slots=False)
            self._span_plans[key] = plan
        return plan

    # -- registration -----------------------------------------------------------

    def create_reserve(self, level: float = 0.0, name: str = "",
                       label: Optional[Label] = None,
                       capacity: Optional[float] = None,
                       decay_exempt: bool = False,
                       source: Optional[Reserve] = None) -> Reserve:
        """Create and register a reserve.

        If ``source`` is given, the initial ``level`` is *moved out of*
        ``source`` (subdivision); otherwise a non-zero level would
        create energy from nothing, so it is only allowed for non-root
        bookkeeping kinds when ``source is None`` and ``level == 0``.
        """
        if level < 0.0:
            # Checked on both paths: previously a negative level with a
            # source was silently ignored by the level > 0 guard below.
            raise EnergyError(
                f"initial reserve level must be non-negative, got {level:.6g}")
        if source is None and level != 0.0:
            raise EnergyError(
                "a reserve's initial level must be subdivided from an "
                "existing reserve (pass source=...)")
        reserve = Reserve(level=0.0, kind=self.kind, capacity=capacity,
                          decay_exempt=decay_exempt, label=label, name=name)
        if source is not None and level > 0.0:
            source.transfer_to(reserve, level)
            if abs(reserve.level - level) > 1e-12:
                raise EnergyError(
                    f"source {source.name!r} could not fund {level:.6g}")
        reserve._graph_hook = self._bump
        self._reserves.append(reserve)
        self._reserve_ids.add(id(reserve))
        self._bump()
        return reserve

    def adopt_reserve(self, reserve: Reserve) -> Reserve:
        """Register an externally-constructed reserve (kind must match)."""
        if reserve.kind != self.kind:
            raise EnergyError(
                f"graph holds {self.kind}, reserve holds {reserve.kind}")
        if id(reserve) not in self._reserve_ids:
            # Adopted levels count as external input to the graph.
            self._external_deposits += max(0.0, reserve.level)
            reserve._graph_hook = self._bump
            self._reserves.append(reserve)
            self._reserve_ids.add(id(reserve))
            self._bump()
        return reserve

    def create_tap(self, source: Reserve, sink: Reserve, rate: float,
                   tap_type: TapType = TapType.CONST,
                   name: str = "", label: Optional[Label] = None,
                   privileges: PrivilegeSet = NO_PRIVILEGES) -> Tap:
        """Create and register a tap between two registered reserves."""
        for endpoint in (source, sink):
            if id(endpoint) not in self._reserve_ids:
                raise TapError(
                    f"reserve {endpoint.name!r} is not part of this graph")
        tap = Tap(source, sink, rate=rate, tap_type=tap_type,
                  label=label, privileges=privileges, name=name)
        tap._graph_hook = self._bump
        self._taps.append(tap)
        self._tap_ids.add(id(tap))
        self._bump()
        return tap

    def delete_tap(self, tap: Tap) -> None:
        """Remove a tap (revocation; §5.2's per-page tap GC).

        O(1): the entry is marked dead and dropped from the backing
        list in bulk at the next compaction (plan rebuild or sweep).
        """
        registered = id(tap) in self._tap_ids
        tap.mark_dead()
        if registered:
            self._tap_ids.discard(id(tap))
            self._deferred_removals += 1
            self._bump()

    def delete_reserve(self, reserve: Reserve,
                       reclaim_to: Optional[Reserve] = None) -> None:
        """Delete a reserve, its taps, and optionally reclaim its level."""
        if reserve is self.root:
            raise EnergyError("cannot delete the root reserve")
        if reclaim_to is not None and reserve.alive and reserve.level > 0:
            reserve.transfer_to(reclaim_to, reserve.level)
        for tap in [t for t in self._taps
                    if t.source is reserve or t.sink is reserve]:
            if id(tap) in self._tap_ids:
                self.delete_tap(tap)
        registered = id(reserve) in self._reserve_ids
        reserve.mark_dead()
        if registered:
            self._reserve_ids.discard(id(reserve))
            self._deferred_removals += 1
            self._bump()

    # -- queries -----------------------------------------------------------------

    @property
    def reserves(self) -> List[Reserve]:
        """Live registered reserves (cached view — do not mutate)."""
        cache = self._live_reserves
        if cache is None:
            cache = self._live_reserves = [r for r in self._reserves
                                           if r.alive]
        return cache

    @property
    def taps(self) -> List[Tap]:
        """Live registered taps (cached view — do not mutate)."""
        cache = self._live_taps
        if cache is None:
            cache = self._live_taps = [t for t in self._taps if t.alive]
        return cache

    def taps_from(self, reserve: Reserve) -> List[Tap]:
        """Taps whose source is ``reserve``."""
        return [t for t in self.taps if t.source is reserve]

    def taps_into(self, reserve: Reserve) -> List[Tap]:
        """Taps whose sink is ``reserve``."""
        return [t for t in self.taps if t.sink is reserve]

    def backward_taps_of(self, reserve: Reserve) -> List[Tap]:
        """Proportional taps draining ``reserve`` (the §5.2.1 kind)."""
        return [t for t in self.taps_from(reserve)
                if t.tap_type is TapType.PROPORTIONAL]

    def drain_rate_of(self, reserve: Reserve) -> float:
        """Sum of proportional drain fractions applied to ``reserve``.

        Includes the implicit global decay unless the reserve is
        exempt.  This is the quantity the §5.2.2 transfer rule
        compares.
        """
        rate = sum(t.rate for t in self.backward_taps_of(reserve)
                   if t.enabled)
        if not reserve.decay_exempt and self.decay_policy.enabled:
            rate += self.decay_policy.lam
        return rate

    def total_level(self) -> float:
        """Sum of all live reserve levels (may include debt)."""
        return sum(r.level for r in self.reserves)

    def total_consumed(self) -> float:
        """Total resource consumed (left the graph as work) so far."""
        return (sum(r.total_consumed for r in self._reserves)
                + self._retired_consumed)

    def total_leaked(self) -> float:
        """Resource dropped by un-reclaimed reserve deletion."""
        return self._leaked + sum(r.leaked_at_death for r in self._reserves)

    def conservation_error(self) -> float:
        """initial + external - (levels + consumed + leaked); ~0 always."""
        return (self._initial_energy + self._external_deposits
                - self.total_level() - self.total_consumed()
                - self.total_leaked())

    def sweep_dead(self) -> int:
        """Drop registry entries whose objects died externally.

        Containers mark objects dead when a subtree is deleted; this
        sweep keeps the graph registry consistent afterwards.  Returns
        the number of externally-died entries removed since the last
        sweep — including any a plan rebuild already compacted —
        while entries deleted through ``delete_tap``/``delete_reserve``
        are never counted.  One O(n) bulk pass, not per-entry
        ``list.remove``.
        """
        self._compact()
        count = self._external_removed_pending
        self._external_removed_pending = 0
        return count

    # -- external input ------------------------------------------------------------

    def external_deposit(self, amount: float,
                         into: Optional[Reserve] = None) -> float:
        """Model battery charging: add resource from outside the graph."""
        target = into if into is not None else self.root
        accepted = target.deposit(amount)
        self._external_deposits += accepted
        return accepted

    # -- stepping -------------------------------------------------------------------

    def step(self, dt: float) -> float:
        """One batch round: flow every tap, then apply global decay.

        Returns the total amount moved by taps this round.  Taps fire
        in creation order, mirroring the kernel's batch execution
        (§3.3); within one tick ordering effects are bounded by
        ``rate * dt``.

        Executes the compiled :class:`FlowPlan` whenever its exactness
        checks hold: the stacked tick kernel
        (:func:`~repro.core.flowplan.execute_tick_batch`) on a stack
        of one, whose commit books :attr:`vector_steps` and
        :attr:`time`.  Falls back to the per-object
        :meth:`step_reference` path otherwise, and on graphs below
        :data:`~repro.core.flowplan.VECTOR_MIN_OBJECTS` live objects,
        where the per-object loop is faster — both produce the same
        result up to float associativity.
        """
        if dt < 0:
            raise EnergyError("dt must be non-negative")
        plan = self._plan
        if plan is None or plan.generation != self._generation:
            # Below the vectorization cutoff the per-object loop wins;
            # don't even pay for a compile (advance_span still compiles
            # on demand).  Registry counts over-estimate live objects,
            # which only errs toward compiling.
            if (len(self._reserves) + len(self._taps)
                    < VECTOR_MIN_OBJECTS):
                if self._deferred_removals:
                    self._compact()  # keep small registries tidy
                return self.step_reference(dt)
            plan = self._current_plan()
        if plan.small:
            # Not counted as a fallback (nothing was attempted).
            return self.step_reference(dt)
        moved = plan.execute_tick(dt)
        if moved is None:
            self.fallback_steps += 1
            return self.step_reference(dt)
        return moved

    def step_reference(self, dt: float) -> float:
        """The original per-object batch round (reference semantics).

        Kept as the differential-testing oracle and as the fallback
        for ticks the compiled plan cannot prove it executes exactly
        (e.g. a multi-drain reserve clamping mid-round).
        """
        if dt < 0:
            raise EnergyError("dt must be non-negative")
        moved = 0.0
        for tap in self._taps:
            if tap.alive:
                moved += tap.flow(dt)
        self.decay_policy.apply(self._reserves, self.root, dt)
        self.time += dt
        return moved

    def advance_span(self, span: float,
                     frozen_taps: Iterable[Tap] = ()) -> Optional[float]:
        """Closed-form flow/decay over an event-free span (fast-forward).

        Returns the total tap flow over ``span`` seconds, or None when
        no closed form is sound for the current *state* — the caller
        should tick instead.  Mutates nothing on a None return.
        Neither proportional chains nor the piecewise-linear switches
        (a constant tap clamping mid-span, a capacity binding, a debt
        level crossing zero) are refusals any more: coupled topologies
        go through the matrix-exponential solver and switching states
        through the segmented engine (:mod:`repro.core.spansolver`),
        with the located segments counted in :attr:`span_segments` /
        :attr:`span_switches`.  Only the residual shapes the segment
        engine cannot rewrite (documented there) still refuse.

        ``frozen_taps`` are held out of the integration entirely: an
        event source that integrates its own taps in closed form (netd
        pooled-wait accrual) passes them here so the span is not
        double-counted.  The caller owns replaying their flow.  Held
        sets hit a per-epoch plan cache, so repeated macro-steps with
        the same frozen taps never recompile.
        """
        if span < 0:
            raise EnergyError("span must be non-negative")
        if span == 0.0:
            return 0.0
        moved = self.span_plan_handle(frozen_taps).execute_span(span)
        if moved is None:
            return None
        self.time += span
        return moved

    def span_plan_handle(self, frozen_taps: Iterable[Tap] = ()) -> FlowPlan:
        """The compiled plan a span over ``frozen_taps`` executes on.

        Fleet schedulers use this to fetch cohort members' plans (and
        their topology signatures) without executing anything: devices
        whose handles share a signature can stack their span solves
        into one batched call.  A span executed directly on the handle
        must be followed by :meth:`note_span` on success — that is
        exactly what :meth:`advance_span` does for the scalar path.
        """
        held = [t for t in frozen_taps if t.alive and t.enabled]
        if not held:
            return self._current_plan()
        return self._span_plan_for(held)

    def note_span(self, span: float) -> None:
        """Book a span executed externally (batched cohort solve)."""
        self.time += span

    # -- §5.2.2: the fundamental anti-hoarding alternative ---------------------------

    def clone_reserve(self, reserve: Reserve,
                      privileges: PrivilegeSet = NO_PRIVILEGES,
                      name: str = "") -> Reserve:
        """``reserve_clone()``: new empty reserve inheriting drains.

        Duplicates onto the clone every backward proportional tap of
        the original that ``privileges`` cannot remove (cannot modify),
        so taxation cannot be dodged by moving resources sideways.
        """
        clone = self.create_reserve(name=name or f"{reserve.name}/clone",
                                    label=reserve.label)
        for tap in self.backward_taps_of(reserve):
            if can_modify(reserve.label, privileges, tap.label):
                continue  # caller could remove this tap anyway
            self.create_tap(clone, tap.sink, tap.rate,
                            TapType.PROPORTIONAL,
                            name=f"{tap.name}/cloned", label=tap.label)
        return clone

    def checked_transfer(self, source: Reserve, sink: Reserve,
                         amount: float,
                         privileges: PrivilegeSet = NO_PRIVILEGES) -> float:
        """Transfer refusing fast->slow drain moves (§5.2.2).

        Allowed iff the sink drains at least as fast as the portion of
        the source's drain the caller is not privileged to remove.
        """
        protected_rate = sum(
            t.rate for t in self.backward_taps_of(source)
            if t.enabled and not can_modify(source.label, privileges, t.label))
        if not source.decay_exempt and self.decay_policy.enabled:
            protected_rate += self.decay_policy.lam
        sink_rate = self.drain_rate_of(sink)
        if sink_rate + 1e-15 < protected_rate:
            raise HoardingError(
                f"transfer {source.name!r} -> {sink.name!r} would slow the "
                f"drain from {protected_rate:.6g}/s to {sink_rate:.6g}/s")
        return source.transfer_to(sink, amount)

    # -- visualisation -----------------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz rendering of the consumption graph (docs/debugging)."""
        lines = ["digraph cinder {", "  rankdir=LR;"]
        for reserve in self.reserves:
            shape = "doubleoctagon" if reserve is self.root else "box"
            lines.append(
                f'  r{reserve.object_id} [shape={shape} '
                f'label="{reserve.name}\\n{reserve.level:.3g}"];')
        for tap in self.taps:
            style = "solid" if tap.tap_type is TapType.CONST else "dashed"
            unit = "u/s" if tap.tap_type is TapType.CONST else "/s"
            lines.append(
                f'  r{tap.source.object_id} -> r{tap.sink.object_id} '
                f'[style={style} label="{tap.rate:.3g}{unit}"];')
        lines.append("}")
        return "\n".join(lines)
