"""Compiled flow plans: the resource graph's vectorized execution engine.

The per-object tick path (``Tap.flow`` + ``DecayPolicy.apply``) costs a
handful of Python-level calls and a ``math.exp`` per tap per tick; at
production scale (a full simulated day is 8.64M ticks) that interpreter
overhead dominates everything.  A :class:`FlowPlan` snapshots the live
tap/reserve topology into numpy arrays once per *epoch* — the span
between topology mutations, tracked by the graph's generation counter —
and then executes each tick as a few array operations.

Two execution modes:

* :func:`execute_tick_batch` — one batch round over a stack of
  structurally identical graphs, *exactly* equivalent per device to
  the sequential per-object reference path
  (``ResourceGraph.step_reference``) whenever its cheap vectorized
  validity checks pass, and ``None`` for that device (caller falls
  back to the reference path) otherwise.  A lone graph's tick,
  :meth:`execute_tick`, is the same kernel on a stack of one.
  Exactness is obtained by compiling the creation-ordered tap list
  into *segments*: within a segment every tap's amount is a function
  of segment-start levels only, so simultaneous evaluation
  reproduces sequential firing bit-for-bit up to float associativity.
* :meth:`execute_span` — a closed-form macro-step over an arbitrary
  span with no intervening events (the engine's idle fast-forward).
  The span *tier* lives in :mod:`repro.core.spansolver`: a scalar
  per-reserve closed form for diagonal systems, a coupled
  matrix-exponential solver for proportional chains, and a segmented
  engine that carries piecewise-linear regime switches (mid-span
  clamps, binding capacities, debt repayment) across their located
  switch instants — all committing by per-reserve mass balance so
  conservation stays exact.  Returns ``None`` only for the residual
  shapes the segment engine cannot rewrite — the engine then falls
  back to ticking.  The compiled snapshot is the segment engine's
  regime substrate: ``src``/``snk``/``rate``/``const_mask`` order *is*
  creation order, which fixes the pass-through distribution when an
  emptied reserve's drains clamp.

Segmentation rules (compile time, creation order preserved):

* a PROPORTIONAL tap starts a new segment if any earlier tap in the
  current segment touched its source (its amount reads that level);
* a CONST tap starts a new segment only if an earlier tap in the
  segment *deposited into* its source (drains by segment peers are
  covered by the runtime no-clamp check below).

Runtime validity checks (per segment, per tick):

* total requested outflow from each reserve must not exceed its
  positive level at segment start (guarantees no sequential clamp;
  a CONST tap that is the *sole* drain of its source is clamped
  exactly instead and never triggers a fallback);
* inflow into each finite-capacity reserve must fit its headroom.

Per-tap cumulative flow is accumulated in a plan-owned array and only
folded into ``Tap.total_flowed`` when the plan is flushed (topology
change) — reads stay exact because ``total_flowed`` is a property that
adds the live accumulator.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .reserve import Reserve
from .spansolver import SpanTier
from .tap import Tap, TapType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import ResourceGraph

#: Below this many reserves+taps the per-object reference path beats
#: numpy call overhead; ``graph.step`` defers to it (and skips
#: compiling a plan for stepping at all).
VECTOR_MIN_OBJECTS = 40

# segment execution modes
_CONST_ONLY = 0
_PROP_ONLY = 1
_MIXED = 2


class FlowPlan:
    """An immutable compiled snapshot of one graph's flow topology.

    ``exclude`` drops specific taps (by ``id``) from the snapshot —
    the graph uses it to compile span plans with an event source's
    self-integrated taps held out, *without* toggling ``Tap.enabled``
    (which would bump the generation and recompile every other plan).
    Such secondary plans are built with ``claim_slots=False`` so they
    never steal the primary tick plan's per-tap flow accumulators.
    """

    def __init__(self, graph: "ResourceGraph",
                 exclude: frozenset = frozenset(),
                 claim_slots: bool = True) -> None:
        self.graph = graph
        #: Generation the snapshot was taken at; the graph recompiles
        #: when its counter moves past this.
        self.generation = graph.generation
        #: Whether this plan owns the taps' flow-accumulator slots.
        self.owns_slots = claim_slots

        reserves: List[Reserve] = [r for r in graph._reserves if r.alive]
        taps: List[Tap] = [
            t for t in graph._taps
            if t.alive and t.enabled and t.rate > 0.0
            and t.source.alive and t.sink.alive
            and id(t) not in exclude]
        self.reserves = reserves
        self.taps = taps
        n = len(reserves)
        m = len(taps)
        self.small = (n + m) < VECTOR_MIN_OBJECTS
        index: Dict[int, int] = {id(r): i for i, r in enumerate(reserves)}
        self.root_index = index[id(graph.root)]

        self.src = np.fromiter((index[id(t.source)] for t in taps),
                               dtype=np.intp, count=m)
        self.snk = np.fromiter((index[id(t.sink)] for t in taps),
                               dtype=np.intp, count=m)
        self.rate = np.fromiter((t.rate for t in taps), dtype=float, count=m)
        self.const_mask = np.fromiter(
            (t.tap_type is TapType.CONST for t in taps), dtype=bool, count=m)

        self.capacity = np.fromiter(
            (math.inf if r.capacity is None else r.capacity
             for r in reserves), dtype=float, count=n)
        self.finite_cap = np.flatnonzero(np.isfinite(self.capacity))
        #: Reserves subject to the global decay (non-exempt, non-root).
        self.decay_mask = np.fromiter(
            (not r.decay_exempt and r is not graph.root for r in reserves),
            dtype=bool, count=n)
        self.any_decayable = bool(self.decay_mask.any())

        self._build_segments()
        self.prop_taps = np.flatnonzero(~self.const_mask)
        self.const_taps = np.flatnonzero(self.const_mask)
        #: dt -> (const amounts, proportional integration factors).
        self._amount_cache: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
        #: ``(stack size, flat per-segment scatter indices)`` of the
        #: last cohort this plan led (see :func:`_tick_indices`).
        self._tick_flat: Optional[Tuple[int, list]] = None
        #: The span tier (closed-form macro-steps), built on first use.
        self._span_tier: Optional[SpanTier] = None
        #: Lazily computed topology signature (see :attr:`signature`).
        self._signature: Optional[Tuple] = None
        #: Lazily-flushed per-tap cumulative flow (see Tap.total_flowed).
        self._tap_flow_acc = np.zeros(m)
        if claim_slots:
            for j, tap in enumerate(taps):
                tap._flow_slot = (self._tap_flow_acc, j)

    @property
    def signature(self) -> Tuple:
        """A hashable digest of the compiled topology *shape*.

        Two plans with equal signatures describe graphs whose live
        reserves and taps are structurally identical — same counts,
        same creation-ordered wiring, same rates/types, same
        capacities and decay exemptions — so their tick and span
        arithmetic is the same elementwise program over different
        level vectors.  That is exactly the cohort-eligibility test
        the fleet batcher applies (levels are *not* part of the
        signature: they are gathered fresh per call).
        """
        sig = self._signature
        if sig is None:
            sig = self._signature = (
                len(self.reserves), len(self.taps), self.root_index,
                self.src.tobytes(), self.snk.tobytes(),
                self.rate.tobytes(), self.const_mask.tobytes(),
                self.capacity.tobytes(), self.decay_mask.tobytes())
        return sig

    def flush_stats(self) -> None:
        """Fold accumulated per-tap flow back into the tap objects.

        Called by the graph right before this plan is replaced; after
        the flush the taps read their own scalars again.
        """
        acc = self._tap_flow_acc
        for j, tap in enumerate(self.taps):
            if tap._flow_slot is not None and tap._flow_slot[0] is acc:
                tap._total_flowed += acc[j]
                tap._flow_slot = None
        acc[:] = 0.0

    # -- compilation -------------------------------------------------------------

    def _build_segments(self) -> None:
        """Split the creation-ordered tap list into exact-batch segments.

        Only *data-dependent* interactions force a boundary: a
        PROPORTIONAL tap whose source an earlier proportional tap in
        the segment touched (its amount would read a runtime value).
        CONST taps never close a segment — their amounts are
        level-independent, and their effect on a later proportional
        tap's source level inside the same segment is the compile-time
        constant ``net_const_rate * dt``, recorded per tap in
        ``self.corr`` and added before evaluating the exponential.
        This keeps the canonical interleaved pattern (feed tap then
        backward tap, per app) in a single segment.
        """
        m = len(self.taps)
        bounds: List[Tuple[int, int]] = []
        start = 0
        prop_touched: set = set()
        net_delta: Dict[int, float] = {}
        corr = np.zeros(m)
        clamp_ok = np.ones(m, dtype=bool)
        for j in range(m):
            s = int(self.src[j])
            k = int(self.snk[j])
            if not self.const_mask[j] and s in prop_touched:
                bounds.append((start, j))
                start = j
                prop_touched = set()
                net_delta = {}
            corr[j] = net_delta.get(s, 0.0)
            clamp_ok[j] = s not in prop_touched
            if self.const_mask[j]:
                net_delta[s] = net_delta.get(s, 0.0) - self.rate[j]
                net_delta[k] = net_delta.get(k, 0.0) + self.rate[j]
            else:
                prop_touched.add(s)
                prop_touched.add(k)
        if start < m or not bounds:
            bounds.append((start, m))
        # A CONST tap that is its source's only in-segment drain (and
        # whose source no proportional tap touched) may be clamped to
        # the available level exactly — sequential firing would do the
        # same — so an empty dead-end reserve never forces a fallback.
        # Exception: if the tap's endpoints feed any proportional
        # source in the segment, a clamp would falsify that tap's
        # compile-time corr term, so it keeps the unclamped amount and
        # relies on the runtime no-clamp check (fallback on failure).
        clampable = np.zeros(m, dtype=bool)
        segments = []
        for lo, hi in bounds:
            counts: Dict[int, int] = {}
            prop_sources = set()
            for j in range(lo, hi):
                s = int(self.src[j])
                counts[s] = counts.get(s, 0) + 1
                if not self.const_mask[j]:
                    prop_sources.add(s)
            for j in range(lo, hi):
                if (self.const_mask[j] and clamp_ok[j]
                        and counts[int(self.src[j])] == 1
                        and int(self.src[j]) not in prop_sources
                        and int(self.snk[j]) not in prop_sources):
                    clampable[j] = True
            seg_const = self.const_mask[lo:hi]
            mode = (_CONST_ONLY if seg_const.all()
                    else _PROP_ONLY if not seg_const.any() else _MIXED)
            segments.append((lo, hi, mode, bool(clampable[lo:hi].any()),
                             bool(corr[lo:hi].any())))
        self.clampable = clampable
        self.corr = corr
        self.segments = segments
        #: Each segment's ``(src, snk)`` index slices.
        self.seg_index = [(self.src[lo:hi], self.snk[lo:hi])
                          for lo, hi, _, _, _ in segments]

    def _amounts_for(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """(const amounts, prop ``1 - exp(-rate*dt)`` factors) for ``dt``."""
        cached = self._amount_cache.get(dt)
        if cached is None:
            const_amt = np.where(self.const_mask, self.rate * dt, 0.0)
            factors = np.where(self.const_mask, 0.0,
                               -np.expm1(-self.rate * dt))
            cached = (const_amt, factors)
            if len(self._amount_cache) > 32:  # unbounded-dt safety valve
                self._amount_cache.clear()
            self._amount_cache[dt] = cached
        return cached

    # -- level materialisation ------------------------------------------------------

    def _gather_levels(self) -> np.ndarray:
        return np.fromiter((r._level for r in self.reserves), dtype=float,
                           count=len(self.reserves))

    # -- one vectorized tick --------------------------------------------------------

    def execute_tick(self, dt: float) -> Optional[float]:
        """One batch round; returns total moved, or None to fall back.

        The stacked kernel on a stack of one.  A ``None`` return
        leaves the graph untouched for the reference path to
        re-execute.
        """
        return execute_tick_batch([self], dt)[0]

    # -- closed-form macro step ------------------------------------------------------

    @property
    def span_tier(self) -> SpanTier:
        """The closed-form span solver over this snapshot (lazy)."""
        tier = self._span_tier
        if tier is None:
            tier = self._span_tier = SpanTier(self)
        return tier

    def execute_span(self, span: float) -> Optional[float]:
        """Integrate flows and decay over ``span`` seconds in one shot.

        Delegates to the span tier (:mod:`repro.core.spansolver`):
        per-reserve scalar closed forms for diagonal systems, the
        coupled matrix-exponential solver for proportional chains, and
        the segmented engine for piecewise-linear regime switches.
        Differs from tick-by-tick integration by O(tick)
        discretisation error — figure-level identical — while
        conservation stays exact by mass balance.  Returns total tap
        flow, or None when no closed form is sound (caller must tick
        instead; a None return mutates nothing).
        """
        return self.span_tier.execute(span)


# ---------------------------------------------------------------------------
# cohort-batched execution (fleets of structurally identical graphs)
# ---------------------------------------------------------------------------


def _tick_indices(plan: FlowPlan,
                  d: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-segment scatter indices ``(src, snk)`` for a ``d``-row stack.

    A stack of one scatters by the plan's own segment indices.  Larger
    stacks use flat indices cached on the lead plan (plans die with
    their topology epoch, so the cache cannot go stale); a lone tick
    of a cohort's lead plan leaves the cohort's entry in place.
    """
    if d == 1:
        return plan.seg_index
    cache = plan._tick_flat
    if cache is None or cache[0] != d:
        row_base = (np.arange(d) * len(plan.reserves))[:, None]
        cache = plan._tick_flat = (d, [
            ((row_base + src).ravel(), (row_base + snk).ravel())
            for src, snk in plan.seg_index])
    return cache[1]


def execute_tick_batch(plans: List[FlowPlan],
                       dt: float) -> List[Optional[float]]:
    """One stacked batch round across a cohort of identical graphs.

    ``plans`` must share a :attr:`FlowPlan.signature` (the caller
    groups by it) and their graphs must apply the same decay fraction
    for ``dt``.  Levels are stacked into one ``(n_devices, n_reserves)``
    array and every segment executes across the whole cohort at once;
    :meth:`FlowPlan.execute_tick` is this kernel on a stack of one, so
    a batched tick is bit-identical to the per-device kernel.
    Validity (no-clamp, capacity headroom, decay headroom) is checked
    per device; a failing device is dropped from the commit untouched
    and reported as ``None`` in the result list so the caller can run
    its full per-device step instead.  Nothing is mutated before the
    commit, so once every device has failed the call returns at once.

    Unlike ``graph.step``, this entry point does not defer to the
    per-object reference path on small graphs: batching exists
    precisely because a fleet of small graphs amortizes the numpy
    call overhead a single small graph cannot.
    """
    lead = plans[0]
    d = len(plans)
    n = len(lead.reserves)
    m = len(lead.taps)
    # One flat gather for the whole cohort: same values in the same
    # order as per-plan _gather_levels calls, minus d-1 numpy setups.
    work = np.fromiter(
        (r._level for plan in plans for r in plan.reserves),
        dtype=float, count=d * n).reshape(d, n)
    ok = np.ones(d, dtype=bool)
    moved = np.zeros((d, m))
    in_sum = np.zeros((d, n))
    out_sum = np.zeros((d, n))
    if m:
        const_amt, factors = lead._amounts_for(dt)
        finite_cap = lead.finite_cap
        cap_finite = lead.capacity[finite_cap]
        for (lo, hi, mode, has_clamp, has_corr), (src, snk), \
                flat in zip(lead.segments, lead.seg_index,
                            _tick_indices(lead, d)):
            pos = np.maximum(work, 0.0)
            if mode == _CONST_ONLY and not has_clamp:
                # Level-independent amounts, equal on every row: one
                # row's scatter serves the whole stack by broadcasting.
                amt = const_amt[lo:hi]
                rows, (scatter_src, scatter_snk) = 1, (src, snk)
            else:
                # Source level as sequential firing would see it:
                # segment start plus net in-segment constant flow.
                base = work.take(src, axis=1)
                if has_corr:
                    base = base + lead.corr[lo:hi] * dt
                avail = np.maximum(base, 0.0)
                if mode == _PROP_ONLY:
                    amt = avail * factors[lo:hi]
                elif mode == _CONST_ONLY:
                    amt = const_amt[lo:hi]  # clamped per row below
                else:
                    amt = np.where(lead.const_mask[lo:hi],
                                   const_amt[lo:hi],
                                   avail * factors[lo:hi])
                if has_clamp:
                    cl = lead.clampable[lo:hi]
                    amt = np.where(cl, np.minimum(amt, avail), amt)
                rows, (scatter_src, scatter_snk) = d, flat
            flat_amt = amt.ravel()
            out = np.bincount(scatter_src, weights=flat_amt,
                              minlength=rows * n).reshape(rows, n)
            # One test per check; per-row verdicts only on a violation.
            bad = out > pos
            if bad.any():
                ok &= ~bad.any(axis=1)
                if not ok.any():
                    return [None] * d
            inn = np.bincount(scatter_snk, weights=flat_amt,
                              minlength=rows * n).reshape(rows, n)
            if finite_cap.size:
                headroom = np.maximum(
                    0.0, cap_finite - work.take(finite_cap, axis=1))
                bad = inn.take(finite_cap, axis=1) > headroom
                if bad.any():
                    ok &= ~bad.any(axis=1)
                    if not ok.any():
                        return [None] * d
            work += inn
            work -= out
            in_sum += inn
            out_sum += out
            moved[:, lo:hi] = amt

    # -- global decay, closed over this tick (per-device headroom) --
    policy = lead.graph.decay_policy
    fraction = policy.fraction_for(dt)
    reclaimed = [0.0] * d
    lost_l = None
    if fraction > 0.0 and lead.any_decayable:
        eligible = lead.decay_mask & (work > 0.0)
        if eligible.any():
            lost = np.where(eligible, work * fraction, 0.0)
            rec = lost.sum(axis=1)
            root_i = lead.root_index
            # The reference path clamps deposits reserve by reserve;
            # a device whose root would overflow is left to it.
            bad = rec > lead.capacity[root_i] - work[:, root_i]
            if bad.any():
                ok &= ~bad
                if not ok.any():
                    return [None] * d
            work -= lost
            work[:, root_i] += rec
            reclaimed = rec.tolist()
            lost_l = lost.tolist()

    # -- per-device commit (whole-stack tolist conversions amortize
    #    the numpy round-trips) --
    results: List[Optional[float]] = [None] * d
    work_l = work.tolist()
    out_l = out_sum.tolist()
    in_l = in_sum.tolist()
    moved_totals = moved.sum(axis=1).tolist()
    for i, (plan, valid) in enumerate(zip(plans, ok.tolist())):
        if not valid:
            continue
        graph = plan.graph
        if lost_l is None:
            for reserve, lv, o, i_ in zip(plan.reserves, work_l[i],
                                          out_l[i], in_l[i]):
                reserve._level = lv
                if o:
                    reserve.total_transferred_out += o
                if i_:
                    reserve.total_transferred_in += i_
        else:
            for reserve, lv, o, i_, ls in zip(plan.reserves, work_l[i],
                                              out_l[i], in_l[i],
                                              lost_l[i]):
                reserve._level = lv
                if o:
                    reserve.total_transferred_out += o
                if i_:
                    reserve.total_transferred_in += i_
                if ls:
                    reserve.total_decayed += ls
        if fraction > 0.0:
            reclaim = reclaimed[i]
            if reclaim:
                graph.root.total_deposited += reclaim
            graph.decay_policy.total_reclaimed += reclaim
        plan._tap_flow_acc += moved[i]
        graph.vector_steps += 1
        graph.time += dt
        results[i] = moved_totals[i]
    return results
