"""The coupled span solver: chains solve closed-form, refusals stay sound.

Differential/property contracts for :mod:`repro.core.spansolver`:

* ``advance_span`` on proportional chains (>= 3 deep, the topologies
  PR 2's scalar closed form refused) returns a non-None result that
  matches the ``step_reference`` tick loop within figure tolerance
  (documented in docs/performance.md: relative 2e-3 at a 10 ms tick),
  with conservation exact by mass balance;
* randomized chained topologies — depth, branching, decay on/off,
  finite caps, both expm code paths — stay within that tolerance;
* state-dependent refusals (debt entry, mid-span constant-tap clamp,
  binding capacity) still return None and mutate nothing;
* the defective-``A`` fallback (equal-rate chains produce Jordan
  blocks the eigendecomposition cannot represent) engages
  automatically and agrees with the eigenvalue path elsewhere;
* frozen-tap span plans are cached per (generation, held-tap set) —
  no generation thrash, no per-call recompiles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import spansolver
from repro.core.graph import ResourceGraph
from repro.core.tap import TapType

#: The documented solver tolerance: span vs tick-by-tick trajectories
#: differ by O(tick) discretisation only (see docs/performance.md).
REL_TOL = 2e-3
ABS_TOL = 1e-6
TICK = 0.01


def run_pair(build, span, tick=TICK):
    """One graph fast-forwarded vs an identical one ticked."""
    g_span = build()
    g_tick = build()
    moved_span = g_span.advance_span(span)
    moved_tick = 0.0
    for _ in range(int(round(span / tick))):
        moved_tick += g_tick.step_reference(tick)
    return g_span, g_tick, moved_span, moved_tick


def assert_span_matches_ticks(g_span, g_tick, moved_span, moved_tick):
    assert moved_span is not None
    assert moved_span == pytest.approx(moved_tick, rel=REL_TOL,
                                       abs=ABS_TOL)
    for r_span, r_tick in zip(g_span.reserves, g_tick.reserves):
        assert r_span.level == pytest.approx(r_tick.level, rel=REL_TOL,
                                             abs=ABS_TOL), r_span.name
    for t_span, t_tick in zip(g_span.taps, g_tick.taps):
        assert t_span.total_flowed == pytest.approx(
            t_tick.total_flowed, rel=REL_TOL, abs=ABS_TOL), t_span.name
    # Mass balance keeps conservation exact, not just approximate.
    assert g_span.conservation_error() == pytest.approx(0.0, abs=1e-9)
    assert g_span.total_level() == pytest.approx(g_tick.total_level(),
                                                 rel=1e-9, abs=1e-9)


def chain_graph(depth=3, decay=True, rates=None, feed=0.08):
    """battery -> app -> sub -> ... -> battery, proportional all the way."""
    def build():
        g = ResourceGraph(15_000.0)
        g.decay_policy.enabled = decay
        if rates is None:
            chain_rates = [0.05 - 0.01 * i for i in range(depth)]
        else:
            chain_rates = list(rates)
        prev = g.create_reserve(level=50.0, source=g.root, name="app")
        g.create_tap(g.root, prev, feed, name="feed")
        for i, rate in enumerate(chain_rates[:-1]):
            nxt = g.create_reserve(level=5.0 / (i + 1), source=g.root,
                                   name=f"sub{i}")
            g.create_tap(prev, nxt, rate, TapType.PROPORTIONAL,
                         name=f"chain{i}")
            prev = nxt
        g.create_tap(prev, g.root, chain_rates[-1], TapType.PROPORTIONAL,
                     name="back")
        return g
    return build


class TestCoupledChains:
    @pytest.mark.parametrize("decay", [False, True])
    def test_three_deep_chain_matches_ticks(self, decay):
        """The acceptance shape: a >= 3-deep proportional chain solves
        closed-form and tracks the tick loop at figure tolerance."""
        pair = run_pair(chain_graph(depth=3, decay=decay), span=5.0)
        assert_span_matches_ticks(*pair)
        g_span = pair[0]
        tier = g_span._plan.span_tier
        assert tier.coupled_solves == 1  # the chain took the new tier

    def test_deep_chain_and_long_span(self):
        pair = run_pair(chain_graph(depth=6, decay=True), span=30.0)
        assert_span_matches_ticks(*pair)

    def test_defective_matrix_uses_dense_fallback(self):
        """Equal chain rates make A defective (a Jordan block): the
        eigendecomposition must reject itself and the Padé
        scaling-and-squaring path must deliver the same contract."""
        build = chain_graph(depth=3, decay=False,
                            rates=[0.05, 0.05, 0.05])
        pair = run_pair(build, span=5.0)
        assert_span_matches_ticks(*pair)
        tier = pair[0]._plan.span_tier
        (system,) = tier._coupled.values()
        assert system.mode == "dense"

    def test_forced_dense_matches_eig_path(self, monkeypatch):
        """Both expm code paths agree to float noise on a healthy A."""
        build = chain_graph(depth=4, decay=True)
        g_eig = build()
        assert g_eig.advance_span(5.0) is not None
        (system,) = g_eig._plan.span_tier._coupled.values()
        assert system.mode == "eig"
        monkeypatch.setattr(spansolver, "_trusted_eig", lambda a: None)
        g_dense = build()
        assert g_dense.advance_span(5.0) is not None
        (system,) = g_dense._plan.span_tier._coupled.values()
        assert system.mode == "dense"
        for r_eig, r_dense in zip(g_eig.reserves, g_dense.reserves):
            assert r_eig.level == pytest.approx(r_dense.level, rel=1e-9)

    def test_fan_in_fan_out_topology(self):
        """Multiple proportional parents sharing children (the
        clone_reserve backpressure shape)."""
        def build():
            g = ResourceGraph(15_000.0)
            g.decay_policy.enabled = True
            mid = g.create_reserve(level=10.0, source=g.root, name="mid")
            for i in range(3):
                app = g.create_reserve(level=20.0, source=g.root,
                                       name=f"app{i}")
                g.create_tap(g.root, app, 0.05, name=f"feed{i}")
                g.create_tap(app, mid, 0.02 + 0.01 * i,
                             TapType.PROPORTIONAL, name=f"into{i}")
            for i in range(2):
                leaf = g.create_reserve(level=1.0, source=g.root,
                                        name=f"leaf{i}")
                g.create_tap(mid, leaf, 0.03 + 0.02 * i,
                             TapType.PROPORTIONAL, name=f"out{i}")
                g.create_tap(leaf, g.root, 0.05, TapType.PROPORTIONAL,
                             name=f"back{i}")
            return g
        pair = run_pair(build, span=8.0)
        assert_span_matches_ticks(*pair)


class TestRandomizedTopologies:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_chained_graphs_match_ticks(self, seed):
        """Property test: random subdivision trees with backward taps,
        random decay/caps, spans of random length."""
        rng = np.random.default_rng(seed)
        decay = bool(rng.random() < 0.5)
        span = float(rng.choice([1.0, 2.5, 5.0, 10.0]))
        n = int(rng.integers(4, 12))

        def build():
            local = np.random.default_rng(seed + 1000)
            g = ResourceGraph(20_000.0)
            g.decay_policy.enabled = decay
            reserves = [g.root]
            for i in range(n):
                parent = reserves[int(local.integers(0, len(reserves)))]
                # Generous caps only: binding caps refuse (their own test).
                capacity = (float(local.uniform(5_000, 9_000))
                            if local.random() < 0.2 else None)
                r = g.create_reserve(level=float(local.uniform(2, 30)),
                                     source=g.root, capacity=capacity,
                                     name=f"r{i}")
                reserves.append(r)
                if local.random() < 0.7:
                    g.create_tap(g.root, r,
                                 float(local.uniform(0.01, 0.1)),
                                 name=f"feed{i}")
                # A proportional drain somewhere strictly below: chains.
                g.create_tap(r, parent, float(local.uniform(0.01, 0.15)),
                             TapType.PROPORTIONAL, name=f"back{i}")
            return g
        pair = run_pair(build, span)
        assert_span_matches_ticks(*pair)

    def test_repeated_spans_accumulate_correctly(self):
        """Many consecutive macro-steps stay within tolerance of the
        same number of ticks (error does not compound)."""
        g_span = chain_graph(depth=4, decay=True)()
        g_tick = chain_graph(depth=4, decay=True)()
        for _ in range(20):
            assert g_span.advance_span(2.0) is not None
        for _ in range(int(round(40.0 / TICK))):
            g_tick.step_reference(TICK)
        for r_span, r_tick in zip(g_span.reserves, g_tick.reserves):
            assert r_span.level == pytest.approx(r_tick.level,
                                                 rel=5e-3, abs=1e-6)
        assert g_span.conservation_error() == pytest.approx(0.0, abs=1e-9)


class TestRefusalSoundness:
    def test_debt_entry_segments_and_matches_ticks(self):
        """Debt is a regime, not a refusal: the repaying reserve's
        outflows stay off until the zero crossing, exactly like the
        tick path's max(L, 0)."""
        def build():
            g = chain_graph(depth=3, decay=False)()
            g.reserves[1].consume(100.0, allow_debt=True)
            return g
        pair = run_pair(build, span=5.0)
        assert_span_matches_ticks(*pair)
        assert pair[0].span_segments >= 1

    def test_clamp_with_prop_drain_refuses_and_mutates_nothing(self):
        """A proportional drain leaving the emptied reserve flows
        O(tick) in the reference loop (deposits land before the drain
        each tick), which no closed form matches at figure tolerance —
        the pinned pass-through stays a residual refusal."""
        def build():
            g = ResourceGraph(1_000.0)
            g.decay_policy.enabled = False
            a = g.create_reserve(level=10.0, source=g.root, name="a")
            b = g.create_reserve(level=0.4, source=g.root, name="b")
            g.create_tap(a, b, 0.1, TapType.PROPORTIONAL, name="p1")
            g.create_tap(b, g.root, 0.1, TapType.PROPORTIONAL, name="p2")
            g.create_tap(b, g.root, 1.0, name="drain")  # clamps ~0.4 s in
            return g
        g = build()
        before = [r.level for r in g.reserves]
        assert g.advance_span(10.0) is None
        assert [r.level for r in g.reserves] == before
        # A short span before the clamp is solvable.
        assert g.advance_span(0.1) is not None

    def test_mid_span_clamp_segments_into_pass_through(self):
        """A constant drain empties its source ~0.4 s in; the reserve
        then pins empty and forwards its live proportional inflow to
        the drain — one switch, then a pass-through segment."""
        def build():
            g = ResourceGraph(1_000.0)
            g.decay_policy.enabled = False
            a = g.create_reserve(level=10.0, source=g.root, name="a")
            b = g.create_reserve(level=0.4, source=g.root, name="b")
            g.create_tap(a, b, 0.1, TapType.PROPORTIONAL, name="p1")
            g.create_tap(b, g.root, 1.0, name="drain")  # clamps ~0.4 s in
            return g
        pair = run_pair(build, span=10.0)
        assert_span_matches_ticks(*pair)
        assert pair[0].span_switches >= 1

    def test_binding_capacity_refuses(self):
        def build(cap):
            g = ResourceGraph(1_000.0)
            g.decay_policy.enabled = False
            a = g.create_reserve(level=10.0, source=g.root, name="a")
            b = g.create_reserve(level=1.0, source=g.root, capacity=cap,
                                 name="b")
            g.create_tap(a, b, 0.1, TapType.PROPORTIONAL, name="p1")
            g.create_tap(b, g.root, 0.05, TapType.PROPORTIONAL,
                         name="p2")
            return g
        tight = build(cap=1.5)     # inflow bound can hit the cap
        before = [r.level for r in tight.reserves]
        assert tight.advance_span(10.0) is None
        assert [r.level for r in tight.reserves] == before
        roomy = build(cap=900.0)   # cannot bind within the span bound
        pair = (roomy, build(cap=900.0))
        moved = roomy.advance_span(10.0)
        assert moved is not None
        for _ in range(1000):
            pair[1].step_reference(TICK)
        for r_span, r_tick in zip(roomy.reserves, pair[1].reserves):
            assert r_span.level == pytest.approx(r_tick.level, rel=REL_TOL)

    def test_refused_span_is_tickable(self):
        """The contract the engine relies on: a None return means
        tick-by-tick still works and conserves.  A draining capped
        reserve fed by a live proportional tap is a residual refusal
        (time-varying inflow into a binding capacity)."""
        g = ResourceGraph(1_000.0)
        g.decay_policy.enabled = False
        a = g.create_reserve(level=50.0, source=g.root, name="a")
        b = g.create_reserve(level=0.9, source=g.root, capacity=1.0,
                             name="b")
        g.create_tap(a, b, 0.001, TapType.PROPORTIONAL, name="p1")
        g.create_tap(b, g.root, 0.002, name="drip")
        assert g.advance_span(10.0) is None
        for _ in range(100):
            g.step_reference(TICK)
        assert g.conservation_error() == pytest.approx(0.0, abs=1e-9)


class TestSpanPlanCache:
    def test_frozen_taps_do_not_bump_generation(self):
        """Holding taps out of a span compiles a cached secondary plan
        instead of toggling ``enabled`` (which recompiled everything
        twice per macro-step)."""
        g = ResourceGraph(15_000.0)
        g.decay_policy.enabled = False
        apps = []
        for i in range(3):
            app = g.create_reserve(name=f"app{i}")
            g.create_tap(g.root, app, 0.05, name=f"feed{i}")
            apps.append(app)
        held = [g.taps[0]]
        gen = g.generation
        tick_plan = g._current_plan()
        assert g.advance_span(1.0, frozen_taps=held) is not None
        assert g.generation == gen          # no thrash
        assert g._current_plan() is tick_plan  # tick plan survived
        span_plan = g._span_plans[frozenset(id(t) for t in held)]
        assert g.advance_span(1.0, frozen_taps=held) is not None
        assert g._span_plans[frozenset(id(t) for t in held)] is span_plan

    def test_frozen_span_excludes_held_taps_exactly(self):
        """The cached excluded plan integrates only the live taps —
        same result as the old disable/re-enable dance."""
        def build():
            g = ResourceGraph(15_000.0)
            g.decay_policy.enabled = False
            a = g.create_reserve(name="a")
            b = g.create_reserve(name="b")
            g.create_tap(g.root, a, 0.05, name="fa")
            g.create_tap(g.root, b, 0.07, name="fb")
            return g
        g = build()
        held = [g.taps[1]]
        moved = g.advance_span(10.0, frozen_taps=held)
        assert moved == pytest.approx(0.05 * 10.0)
        assert g.reserves[1].level == pytest.approx(0.5)   # a fed
        assert g.reserves[2].level == pytest.approx(0.0)   # b frozen
        assert g.taps[1].total_flowed == 0.0

    def test_cache_invalidated_by_topology_change(self):
        g = ResourceGraph(15_000.0)
        g.decay_policy.enabled = False
        a = g.create_reserve(name="a")
        g.create_tap(g.root, a, 0.05, name="fa")
        held = [g.taps[0]]
        assert g.advance_span(1.0, frozen_taps=held) is not None
        key = frozenset(id(t) for t in held)
        stale = g._span_plans[key]
        g.create_tap(g.root, g.create_reserve(name="b"), 0.02, name="fb")
        assert g.advance_span(1.0, frozen_taps=held) is not None
        assert g._span_plans[key] is not stale  # recompiled once
