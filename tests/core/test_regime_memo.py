"""Regime lookups by level classification, and the doomed-tier exit.

:meth:`SpanTier._regime_for` first looks a state up by its level
classification — ``lam``, the debt bits, the near-empty bits of the
constant-drained rows and the cap-band bits of the capped rows — and
derives only on a miss.  :meth:`SpanTier.execute` sends a span straight
to the segmented engine when :meth:`SpanTier._must_segment` proves the
single-regime tiers would refuse it.  The contracts pinned here:

* a lookup returns the regime a fresh tier derives for the same
  levels — the same spec, and the very object that spec maps to —
  over random graphs with chains, EMPTY pins, DEBT, FULL caps, HOVER,
  forwarded pass-through and proportionally fed candidates, with
  levels perturbed inside one classification;
* a state whose derivation reads levels beyond its classification
  (a capped row inside its band, a near-empty candidate with
  proportional inflow) stores no classification entry;
* whenever the early exit fires, the single-regime tiers refuse on
  a bound (their dispatch is copied below, without the exit);
* an hour of a switching device, scalar and stacked, ends on the very
  levels of a run that bypasses both (test-local monkeypatches).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import segkernel, spansolver
from repro.core.graph import ResourceGraph
from repro.core.segkernel import _DEBT, _EMPTY, _FULL, _HOVER
from repro.core.spansolver import SpanTier
from repro.core.tap import TapType
from repro.sim.engine import CinderSystem
from repro.sim.process import CpuBurn, Sleep
from repro.sim.world import World

from .test_span_caches import reference_clamp_safe_rows


# -- references: the span tier without lookups or the early exit -----------


def derive(tier, lvl, lam, ltol):
    """The mode derivation over ``tier``'s topology."""
    return segkernel.derive_modes(lvl, lam, ltol, tier._modes_pack())


def deriving_regime_for(tier, lvl, lam, ltol):
    """``_regime_for`` without the lookup: derive, key by the spec."""
    derived = derive(tier, lvl, lam, ltol)
    if derived is None:
        return None
    mode, eff, hov, pin_loss, fwd = derived
    key = (lam, mode.tobytes(), eff.tobytes(), hov.tobytes(),
           pin_loss.tobytes(), fwd)
    regime = tier._regimes.get(key)
    if regime is None:
        regime = tier._build_regime(mode, eff, hov, pin_loss, fwd, lam)
        if len(tier._regimes) > 16:
            tier._regimes.clear()
        tier._regimes[key] = regime
    return regime


def fresh_dynamics(tier, lam):
    """``_dynamics`` computed afresh."""
    plan = tier.plan
    f = tier.prop_out + (lam if lam > 0.0 else 0.0) * plan.decay_mask
    linear = f > 0.0
    varying_in = tier.prop_sink_mask.copy()
    if lam > 0.0 and plan.any_decayable:
        varying_in[plan.root_index] = True
    cap = plan.finite_cap
    coupled = bool(np.any(linear & varying_in))
    cap_may_bind = bool(cap.size) and bool(np.any(
        (tier.const_in[cap] > 0.0) | varying_in[cap]))
    return f, linear, coupled, cap_may_bind


def reference_clamp_ok(tier, lvl, span, f, linear):
    """The clamp bound's verdict on one row, from the per-feed loop."""
    return bool(reference_clamp_safe_rows(tier, lvl[None, :], span, f,
                                          linear)[0])


def single_regime_refuses(tier, lvl, span, lam):
    """True when the single-regime tiers refuse on a bound.

    The dispatch of ``SpanTier.execute`` ahead of the segmented engine,
    without the early exit (levels are non-negative here): the coupled
    tier refuses on its capacity bound or the clamp bound, the
    diagonal tier when a capacity could bind or on the clamp bound.
    """
    plan = tier.plan
    n = len(plan.reserves)
    f, linear, coupled, cap_may_bind = fresh_dynamics(tier, lam)
    if coupled:
        if plan.finite_cap.size:
            cap_idx = plan.finite_cap
            mass = float(lvl.sum())
            psrc = plan.src[plan.prop_taps]
            psnk = plan.snk[plan.prop_taps]
            prate = plan.rate[plan.prop_taps]
            best = np.full(n, mass)
            for _ in range(6):
                inflow = tier.const_in.copy()
                if prate.size:
                    inflow += np.bincount(psnk, weights=prate * best[psrc],
                                          minlength=n)
                if lam > 0.0 and plan.any_decayable:
                    inflow[plan.root_index] += lam * float(
                        best[plan.decay_mask].sum())
                best = np.minimum(best, lvl + inflow * span)
            if np.any(best[cap_idx] > plan.capacity[cap_idx] - 1e-12):
                return True
        return not reference_clamp_ok(tier, lvl, span, f, linear)
    if cap_may_bind:
        return True
    return not reference_clamp_ok(tier, lvl, span, f, linear)


# -- random graphs and levels --------------------------------------------------


def motif_graph(rng, decay):
    """A random graph over every shape the mode derivation knows.

    Each motif joins with probability 0.7, with random rates: a
    proportional chain, a drained task (EMPTY pins), a debtor (DEBT),
    a capped sink (FULL), a capped, fed, draining reserve (HOVER), a
    junction fed by a live proportional tap (forwarded pass-through),
    a capped row with a constant drain, and a proportionally fed task
    that also drains proportionally (a residual refusal).
    """
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = decay
    root = g.root
    sink = g.create_reserve(name="sink")

    def rate(lo, hi):
        return float(rng.uniform(lo, hi))

    def motif():
        return rng.random() < 0.7

    if motif():
        app = g.create_reserve(name="app")
        sub = g.create_reserve(name="app.sub")
        g.create_tap(root, app, rate(0.01, 0.08), name="app.feed")
        g.create_tap(app, sub, rate(0.01, 0.06), TapType.PROPORTIONAL,
                     name="app.t1")
        g.create_tap(sub, root, rate(0.01, 0.06), TapType.PROPORTIONAL,
                     name="app.t2")
    for k in range(int(rng.integers(1, 3))):
        task = g.create_reserve(name=f"task{k}")
        if rng.random() < 0.5:  # an early feed: lands before the drain
            g.create_tap(root, task, rate(0.005, 0.03), name=f"task{k}.in")
        g.create_tap(task, sink, rate(0.02, 0.06), name=f"task{k}.drain")
        if rng.random() < 0.3:  # a late feed
            g.create_tap(root, task, rate(0.005, 0.02),
                         name=f"task{k}.late")
    if motif():
        debtor = g.create_reserve(name="debtor")
        g.create_tap(root, debtor, rate(0.01, 0.05), name="debtor.repay")
        g.create_tap(debtor, root, rate(0.01, 0.08), TapType.PROPORTIONAL,
                     name="debtor.back")
    if motif():
        full = g.create_reserve(capacity=rate(1.0, 4.0), name="full")
        g.create_tap(root, full, rate(0.01, 0.05), name="full.feed")
    if motif():
        hover = g.create_reserve(capacity=rate(1.0, 4.0), name="hover")
        g.create_tap(root, hover, rate(0.04, 0.08), name="hover.feed")
        g.create_tap(hover, sink, rate(0.005, 0.03), name="hover.drain")
        if rng.random() < 0.5:
            g.create_tap(hover, sink, rate(0.001, 0.01),
                         TapType.PROPORTIONAL, name="hover.leak")
    if motif():
        feeder = g.create_reserve(name="feeder")
        g.create_tap(root, feeder, rate(0.005, 0.02), name="feeder.feed")
        junction = g.create_reserve(name="junction")
        g.create_tap(feeder, junction, rate(0.005, 0.05),
                     TapType.PROPORTIONAL, name="junction.in")
        g.create_tap(junction, sink, rate(0.005, 0.03), name="junction.o0")
        g.create_tap(junction, sink, rate(0.005, 0.03), name="junction.o1")
    if motif():
        capped = g.create_reserve(capacity=rate(2.0, 6.0), name="capped")
        g.create_tap(root, capped, rate(0.005, 0.02), name="capped.feed")
        g.create_tap(capped, sink, rate(0.02, 0.05), name="capped.drain")
    if motif():
        relay = g.create_reserve(name="relay")
        donor = g.create_reserve(name="donor")
        g.create_tap(root, donor, rate(0.005, 0.02), name="donor.feed")
        g.create_tap(donor, relay, rate(0.01, 0.05), TapType.PROPORTIONAL,
                     name="relay.in")
        g.create_tap(relay, sink, rate(0.01, 0.04), name="relay.drain")
        g.create_tap(relay, sink, rate(0.01, 0.05), TapType.PROPORTIONAL,
                     name="relay.leak")
    return g


def row_bits(tier, i, x, ltol):
    """Row ``i``'s part of the classification at level ``x``."""
    plan = tier.plan
    cap = float(plan.capacity[i])
    drained = i != plan.root_index and i in tier.const_from
    band = max(1e-9, 1e-11 * cap)
    return (x < 0.0, drained and x <= 4.0 * ltol,
            math.isfinite(cap) and x >= cap - 2.0 * band)


def ltol_of(lvl):
    """The segmented engine's level tolerance for a span's levels."""
    return 1e-11 * max(1.0, float(np.abs(lvl).max()))


def row_proposals(tier, i, x, ltol, rng):
    """Candidate levels for row ``i``, boundary values included."""
    cap = float(tier.plan.capacity[i])
    out = [0.0, -0.0, 4.0 * ltol, float(rng.uniform(0.0, 4.0 * ltol)),
           float(rng.uniform(4.0 * ltol, 5.0)), -float(rng.uniform(1e-12,
                                                                   5.0)),
           x * float(rng.uniform(0.5, 1.5))]
    if math.isfinite(cap):
        band = max(1e-9, 1e-11 * cap)
        out += [cap, cap - 2.0 * band,
                cap - float(rng.uniform(0.0, 2.0 * band)),
                float(rng.uniform(0.0, cap - 2.0 * band))]
    rng.shuffle(out)
    return out


def random_levels(tier, rng):
    """Levels whose rows fall in random classification cells."""
    plan = tier.plan
    n = len(plan.reserves)
    lvl = np.array([row_proposals(tier, i, 1.0, 1e-9, rng)[0]
                    for i in range(n)])
    lvl[int(plan.root_index)] = float(rng.uniform(500.0, 1000.0))
    return lvl


def same_class(tier, lvl, rng):
    """Other levels (and tolerance) in ``lvl``'s classification."""
    plan = tier.plan
    root = int(plan.root_index)
    ltol = ltol_of(lvl)
    for _ in range(10):
        new = lvl.copy()
        new[root] = lvl[root] * float(rng.uniform(0.9, 1.1))
        new_ltol = ltol_of(new)
        moved = True
        for i in range(len(new)):
            if i == root:
                continue
            want = row_bits(tier, i, lvl[i], ltol)
            for x in row_proposals(tier, i, float(lvl[i]), new_ltol, rng):
                if row_bits(tier, i, x, new_ltol) == want:
                    new[i] = x
                    break
            else:
                moved = row_bits(tier, i, lvl[i], new_ltol) == want
                if not moved:
                    break
        if moved:
            return new
    return lvl.copy()


def spec_of(derived):
    mode, eff, hov, pin_loss, fwd = derived
    return (mode.tobytes(), eff.tobytes(), hov.tobytes(),
            pin_loss.tobytes(), fwd)


class Recorder:
    """Counts a tier's derivations and remembers each regime's spec."""

    def __init__(self, tier, monkeypatch):
        self.derivations = 0
        self.specs = {}
        derive_modes = segkernel.derive_modes
        pack = tier._modes_pack()
        build = tier._build_regime

        def counted_derive(lvl, lam, ltol, topology):
            if topology is pack:
                self.derivations += 1
            return derive_modes(lvl, lam, ltol, topology)

        def recorded_build(mode, eff, hov, pin_loss, fwd, lam):
            regime = build(mode, eff, hov, pin_loss, fwd, lam)
            self.specs[id(regime)] = spec_of((mode, eff, hov, pin_loss,
                                              fwd))
            return regime

        monkeypatch.setattr(segkernel, "derive_modes", counted_derive)
        tier._build_regime = recorded_build


# -- the lookup ----------------------------------------------------------------


class TestClassificationLookup:
    @pytest.mark.parametrize("seed", range(6))
    def test_lookups_return_what_a_fresh_tier_derives(self, seed,
                                                      monkeypatch):
        rng = np.random.default_rng(20261016 + seed)
        seen = {"hits": 0, "debt": 0, "empty": 0, "full": 0, "hover": 0,
                "fwd": 0, "none": 0, "pure_empty": 0, "pure_debt": 0}
        for graph_i in range(8):
            decay = bool(graph_i % 2)
            g = motif_graph(rng, decay)
            lam = g.decay_policy.lam if decay else 0.0
            tier = g.span_plan_handle().span_tier
            record = Recorder(tier, monkeypatch)
            lvl = random_levels(tier, rng)
            for step in range(60):
                if step % 3 == 0:
                    lvl = random_levels(tier, rng)
                else:
                    lvl = same_class(tier, lvl, rng)
                ltol = ltol_of(lvl)
                before = record.derivations
                got = tier._regime_for(lvl.copy(), lam, ltol)
                hit = record.derivations == before
                fresh = derive(SpanTier(tier.plan), lvl.copy(), lam, ltol)
                if fresh is None:
                    assert got is None
                    seen["none"] += 1
                    continue
                assert got is not None
                spec = spec_of(fresh)
                assert record.specs[id(got)] == spec
                assert tier._regimes[(lam,) + spec] is got
                mode = fresh[0]
                seen["debt"] += int(_DEBT in mode)
                seen["empty"] += int(_EMPTY in mode)
                seen["full"] += int(_FULL in mode)
                seen["hover"] += int(_HOVER in mode)
                seen["fwd"] += int(bool(fresh[4]))
                if hit:
                    seen["hits"] += 1
                    seen["pure_empty"] += int(_EMPTY in mode)
                    seen["pure_debt"] += int(_DEBT in mode)
                assert len(tier._regimes) <= 17
        assert all(seen.values()), seen

    def test_equal_classifications_share_one_regime(self, monkeypatch):
        g = steady_graph()
        tier = g.span_plan_handle().span_tier
        names = [r.name for r in tier.plan.reserves]
        lvl = np.full(len(names), 1.5)
        lvl[int(tier.plan.root_index)] = 900.0
        lvl[names.index("task")] = 0.0
        lvl[names.index("debtor")] = -2.0
        record = Recorder(tier, monkeypatch)
        first = tier._regime_for(lvl, 0.0, ltol_of(lvl))
        assert first.mode[names.index("task")] == _EMPTY
        assert first.mode[names.index("debtor")] == _DEBT
        for task, debtor, other in ((-0.0, -0.5, 3.0), (3e-9, -4.0, 0.2),
                                    (0.0, -1e-3, 2.5)):
            moved = lvl.copy()
            moved[names.index("task")] = task
            moved[names.index("debtor")] = debtor
            moved[names.index("other")] = other
            assert tier._regime_for(moved, 0.0, ltol_of(moved)) is first
        assert record.derivations == 1
        # another classification: the debtor has repaid
        lvl[names.index("debtor")] = 0.5
        assert tier._regime_for(lvl, 0.0, ltol_of(lvl)) is not first
        assert record.derivations == 2

    @pytest.mark.parametrize("row, stored, other, mode", [
        ("debtor", 0.5, -2.0, _DEBT),      # the debt bits
        ("task", 1.0, 0.0, _EMPTY),        # the near-empty bits
        ("full", 1.0, 2.0, _FULL),         # the cap-band bits
    ])
    def test_each_bit_vector_splits_classifications(self, row, stored,
                                                    other, mode):
        g = steady_graph()
        full = g.create_reserve(capacity=2.0, name="full")
        g.create_tap(g.root, full, 0.02, name="full.feed")
        tier = g.span_plan_handle().span_tier
        names = [r.name for r in tier.plan.reserves]
        lvl = np.full(len(names), 1.0)
        lvl[int(tier.plan.root_index)] = 900.0
        lvl[names.index(row)] = stored
        first = tier._regime_for(lvl, 0.0, ltol_of(lvl))
        assert classification_keys(tier)  # stored under its cells
        lvl[names.index(row)] = other
        second = tier._regime_for(lvl, 0.0, ltol_of(lvl))
        assert second is not first
        assert second.mode[names.index(row)] == mode


def steady_graph():
    """A drained task, a debtor, a plain drained reserve."""
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = False
    sink = g.create_reserve(name="sink")
    task = g.create_reserve(name="task")
    g.create_tap(g.root, task, 0.02, name="task.feed")
    g.create_tap(task, sink, 0.05, name="task.drain")
    debtor = g.create_reserve(name="debtor")
    g.create_tap(g.root, debtor, 0.03, name="debtor.repay")
    g.create_tap(debtor, g.root, 0.05, TapType.PROPORTIONAL,
                 name="debtor.back")
    other = g.create_reserve(name="other")
    g.create_tap(other, sink, 0.01, name="other.drain")
    return g


def impure_graph():
    """A capped sink, a hovering reserve and a fed junction."""
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = False
    sink = g.create_reserve(name="sink")
    full = g.create_reserve(capacity=2.0, name="full")
    g.create_tap(g.root, full, 0.02, name="full.feed")
    hover = g.create_reserve(capacity=3.0, name="hover")
    g.create_tap(g.root, hover, 0.06, name="hover.feed")
    g.create_tap(hover, sink, 0.02, name="hover.drain")
    g.create_tap(hover, sink, 0.005, TapType.PROPORTIONAL,
                 name="hover.leak")
    feeder = g.create_reserve(name="feeder")
    g.create_tap(g.root, feeder, 0.01, name="feeder.feed")
    junction = g.create_reserve(name="junction")
    g.create_tap(feeder, junction, 0.02, TapType.PROPORTIONAL,
                 name="junction.in")
    g.create_tap(junction, sink, 0.01, name="junction.o0")
    g.create_tap(junction, sink, 0.04, name="junction.o1")
    return g


def classification_keys(tier):
    return [k for k in tier._regimes if len(k) == 4]


class TestPurity:
    def base(self, tier):
        lvl = np.full(len(tier.plan.reserves), 1.0)
        lvl[int(tier.plan.root_index)] = 900.0
        return lvl, [r.name for r in tier.plan.reserves]

    @pytest.mark.parametrize("row, level", [
        ("full", 2.0),                  # FULL: at the cap
        ("full", 2.0 - 1.5e-9),         # inside the band, below the cap
        ("hover", 3.0),                 # HOVER: pinned level -> rates
        ("junction", 0.0),              # forwarded pass-through
        ("junction", 2e-9),             # near-empty, proportionally fed
    ])
    def test_impure_states_store_no_classification(self, row, level):
        tier = impure_graph().span_plan_handle().span_tier
        lvl, names = self.base(tier)
        lvl[names.index(row)] = level
        regime = tier._regime_for(lvl, 0.0, ltol_of(lvl))
        assert regime is not None
        assert classification_keys(tier) == []
        # a second visit with other levels in the same cells derives
        # afresh: a hover pinned elsewhere, or a junction whose feeder
        # now covers both drains, is another regime
        again = lvl.copy()
        if row == "hover":
            again[names.index(row)] = 3.0 - 1e-9
        again[names.index("feeder")] = 3.0
        other = tier._regime_for(again, 0.0, ltol_of(again))
        fresh = derive(SpanTier(tier.plan), again, 0.0, ltol_of(again))
        assert tier._regimes[(0.0,) + spec_of(fresh)] is other
        assert classification_keys(tier) == []
        if row in ("hover", "junction"):
            assert other is not regime

    def test_pure_state_stores_one_classification(self):
        tier = impure_graph().span_plan_handle().span_tier
        lvl, names = self.base(tier)
        lvl[names.index("feeder")] = 0.0  # uncapped, constant-fed only
        regime = tier._regime_for(lvl, 0.0, ltol_of(lvl))
        assert classification_keys(tier) != []
        assert all(tier._regimes[k] is regime
                   for k in classification_keys(tier))


# -- the early exit ------------------------------------------------------------


def drained_graph(rng, decay):
    """Constant-drained rows over every clamp-bound shape.

    Drains outrun, match or trail their early feeds; some rows also
    drain proportionally (``f > 0``, tiny ``f`` included) and some
    drain at subnormal rates, so a deficit times a short span can
    underflow to zero.
    """
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = decay
    root = g.root
    sink = g.create_reserve(name="sink")
    for k in range(int(rng.integers(1, 4))):
        row = g.create_reserve(name=f"row{k}")
        drain = float(rng.choice([0.05, 0.02, 1e-300, 5e-324, 1e-320]))
        if rng.random() < 0.5:
            feed = float(rng.choice([0.0, 0.5, 1.0, 1.5])) * drain
            g.create_tap(root, row, feed, name=f"row{k}.early")
        g.create_tap(row, sink, drain, name=f"row{k}.drain")
        if rng.random() < 0.3:
            g.create_tap(root, row, 0.01, name=f"row{k}.late")
        leak = float(rng.choice([0.0, 0.0, 1e-15, 1e-3, 0.05]))
        if leak:
            g.create_tap(row, sink, leak, TapType.PROPORTIONAL,
                         name=f"row{k}.leak")
        if rng.random() < 0.3:
            relay = g.create_reserve(name=f"relay{k}")
            g.create_tap(row, relay, 0.01, name=f"relay{k}.in")
            g.create_tap(relay, sink, 0.02, name=f"relay{k}.out")
    if rng.random() < 0.3:
        chain = g.create_reserve(name="chain")
        g.create_tap(root, chain, 0.03, name="chain.feed")
        g.create_tap(chain, root, 0.04, TapType.PROPORTIONAL,
                     name="chain.back")
        g.create_tap(sink, chain, 0.01, TapType.PROPORTIONAL,
                     name="chain.in")
    if rng.random() < 0.2:
        capped = g.create_reserve(capacity=5.0, name="capped")
        g.create_tap(root, capped, 0.01, name="capped.feed")
    return g


class TestEarlyExit:
    @pytest.mark.parametrize("seed", range(4))
    def test_fires_only_where_the_single_regime_path_refuses(self, seed):
        rng = np.random.default_rng(1016 + seed)
        fired = slipped = 0
        for graph_i in range(40):
            decay = bool(graph_i % 3 == 0)
            g = drained_graph(rng, decay)
            lam = g.decay_policy.lam if decay else 0.0
            tier = g.span_plan_handle().span_tier
            plan = tier.plan
            f, linear = tier._dynamics(lam)[:2]
            n = len(plan.reserves)
            for _ in range(30):
                lvl = np.array([float(rng.choice(
                    [0.0, -0.0, 1e-12, 0.3, 2.0])) for _ in range(n)])
                lvl[int(plan.root_index)] = 900.0
                span = float(rng.choice([0.02, 0.99, 1e-9, 60.0]))
                exits = tier._must_segment(lvl, span, f, linear)
                refuses = single_regime_refuses(tier, lvl, span,
                                                       lam)
                if exits:
                    fired += 1
                    assert refuses
                    assert not reference_clamp_ok(tier, lvl, span, f, linear)
                empty = any(lvl[r] <= 0.0 for r in tier._deficit_rows)
                if empty and not refuses:
                    slipped += 1  # empty deficit rows the bound clears
        assert fired > 0
        assert slipped > 0

    def test_zero_signs_and_underflow(self):
        g = ResourceGraph(1_000.0)
        g.decay_policy.enabled = False
        sink = g.create_reserve(name="sink")
        task = g.create_reserve(name="task")
        g.create_tap(g.root, task, 0.02, name="task.feed")
        g.create_tap(task, sink, 0.05, name="task.drain")
        dust = g.create_reserve(name="dust")
        g.create_tap(dust, sink, 5e-324, name="dust.drain")
        tier = g.span_plan_handle().span_tier
        names = [r.name for r in tier.plan.reserves]
        f, linear = tier._dynamics(0.0)[:2]
        lvl = np.full(len(names), 1.0)
        lvl[int(tier.plan.root_index)] = 900.0
        for zero in (0.0, -0.0):
            at = lvl.copy()
            at[names.index("task")] = zero
            assert tier._must_segment(at, 0.02, f, linear)
            assert single_regime_refuses(tier, at, 0.02, 0.0)
        # 5e-324 W over two ticks rounds to nothing: no exit, and the
        # reference bound passes the row too
        at = lvl.copy()
        at[names.index("dust")] = 0.0
        assert not tier._must_segment(at, 0.02, f, linear)
        assert not single_regime_refuses(tier, at, 0.02, 0.0)
        # over a minute it does not round away
        assert tier._must_segment(at, 60.0, f, linear)
        assert single_regime_refuses(tier, at, 60.0, 0.0)


# -- end to end ----------------------------------------------------------------


def switching_device(world=None, index=0, seed=1):
    """Chains, a clamping task and a debtor per app, a minute napper.

    The battery is watched, so the 1 s record instants bound its spans
    (a trace without probes would let spans run from event to event).
    """
    kwargs = dict(record_interval_s=1.0)
    if world is None:
        device = CinderSystem(battery_joules=15_000.0, seed=seed, **kwargs)
    else:
        device = world.add_device(name=f"d{index}", **kwargs)
    kernel = device.kernel
    root = device.battery_reserve
    device.watch_reserve(root)
    rng = np.random.default_rng(seed + 31 * index)
    for i in range(3):
        app = device.powered_reserve(0.06, name=f"d{index}.app{i}")
        sub = device.new_reserve(name=f"d{index}.app{i}.sub")
        subsub = device.new_reserve(name=f"d{index}.app{i}.subsub")
        kernel.create_tap(app, sub, 0.05, TapType.PROPORTIONAL,
                          name=f"d{index}.app{i}.t1")
        kernel.create_tap(sub, subsub, 0.04, TapType.PROPORTIONAL,
                          name=f"d{index}.app{i}.t2")
        kernel.create_tap(subsub, root, 0.03, TapType.PROPORTIONAL,
                          name=f"d{index}.app{i}.t3")
        task = device.new_reserve(name=f"d{index}.task{i}")
        root.transfer_to(task, float(rng.uniform(2.0, 6.0)))
        kernel.create_tap(root, task, 0.02, name=f"d{index}.task{i}.feed")
        archive = device.new_reserve(name=f"d{index}.task{i}.archive")
        kernel.create_tap(task, archive, 0.05,
                          name=f"d{index}.task{i}.drain")
        debtor = device.new_reserve(name=f"d{index}.debtor{i}")
        kernel.create_tap(root, debtor, 0.03,
                          name=f"d{index}.debtor{i}.repay")
        kernel.create_tap(debtor, root, 0.05, TapType.PROPORTIONAL,
                          name=f"d{index}.debtor{i}.back")
        debtor.consume(float(rng.uniform(2.0, 6.0)), allow_debt=True)
    phase = float(rng.uniform(0.0, 60.0))

    def maintenance(ctx):
        yield Sleep(phase)
        while True:
            yield CpuBurn(0.02)
            yield Sleep(60.0)

    worker = device.powered_reserve(0.2, name=f"d{index}.maint")
    device.spawn(maintenance, f"d{index}.maint", reserve=worker)
    return device


def bypass(monkeypatch):
    """Derive every regime, never exit early, recompute the dynamics."""
    monkeypatch.setattr(SpanTier, "_regime_for", deriving_regime_for)
    monkeypatch.setattr(SpanTier, "_must_segment",
                        lambda self, lvl, span, f, linear: False)
    monkeypatch.setattr(SpanTier, "_dynamics", fresh_dynamics)


def outcome(devices):
    """Every level, counter and tap total, as exact bytes."""
    values = []
    for device in devices:
        graph = device.graph
        values += [r.level for r in graph.reserves]
        values += [r.total_transferred_out for r in graph.reserves]
        values += [t.total_flowed for t in graph.taps]
    return np.array(values).tobytes()


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestEndToEnd:
    def test_an_hour_is_bit_identical_to_deriving_every_regime(self):
        with pytest.MonkeyPatch.context() as mp:
            bypass(mp)
            slow = switching_device()
            for _ in range(60):
                slow.run(60.0)
        with pytest.MonkeyPatch.context() as mp:
            derivations = counting(mp, segkernel, "derive_modes")
            exits = counting(mp, SpanTier, "_must_segment")
            fast = switching_device()
            for _ in range(60):
                fast.run(60.0)
        assert outcome([fast]) == outcome([slow])
        assert fast.graph.span_segments == slow.graph.span_segments
        assert fast.graph.span_segments > 3000
        assert len(derivations) < 0.01 * fast.graph.span_segments
        assert len(exits) > 3000
        assert fast.graph.conservation_error() < 1e-6

    def test_stacked_spans_are_bit_identical(self, monkeypatch):
        stacks = []
        batch = spansolver.execute_span_batch

        def counted(tiers, span):
            stacks.append(len(tiers))
            return batch(tiers, span)

        monkeypatch.setattr(spansolver, "execute_span_batch", counted)

        def run(bypassed):
            with pytest.MonkeyPatch.context() as mp:
                if bypassed:
                    bypass(mp)
                world = World(tick_s=0.01, seed=5)
                for i in range(4):
                    switching_device(world, i, seed=3)
                world.run(600.0, barrier_s=60.0)
                return world.devices

        slow = run(True)
        stacks.clear()
        fast = run(False)
        assert max(stacks) > 1  # cohorts really stacked
        assert outcome(fast) == outcome(slow)
