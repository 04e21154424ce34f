"""Per-span factor caches of the span tier, and its one-pass bounds.

A span in an unchanged regime reuses everything that depends only on
(regime, span length): the propagators' exp/phi factors, the
certificate's ``exp(-f·t)`` and the clamp bound's per-span constants.
The contracts pinned here:

* a cached solve is **bit-identical** to an uncached one — on a miss,
  on a hit with other levels, and after the cache was cleared;
* the clamp bound (one sequential ``bincount`` per refinement plus an
  exact all-credit early refusal) and the certificate (``bincount``
  instead of ``np.add.at``) return exactly the verdicts of the
  per-feed / ``np.add.at`` forms kept below as references, on stacks
  with repeated sinks and mixed per-row spans;
* a tier keeps all of them in one cache, which lives and dies with
  its plan epoch, never serves one regime's factors to another, and
  stays within :data:`SPAN_CACHE_MAX` entries however many regimes
  the tier meets and span lengths a frontier fleet lands at.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import spansolver
from repro.core.graph import ResourceGraph
from repro.core.spansolver import SPAN_CACHE_MAX, _NORMAL
from repro.core.tap import TapType
from repro.sim.engine import CinderSystem
from repro.sim.process import CpuBurn, Sleep
from repro.sim.world import World


def reference_state_integral(eig, b, lvl, t):
    """The eigenvalue propagation formula written out in one piece."""
    w, v, vinv = eig
    c0 = vinv @ lvl
    cb = vinv @ b
    z = w * t
    ez, p1, p2 = spansolver._phi12(z)
    end = (v @ (ez * c0 + t * (p1 * cb))).real
    integ = (v @ (t * (p1 * c0) + (t * t) * (p2 * cb))).real
    return end, integ


def reference_clamp_safe_rows(tier, lvl, span, f, linear):
    """:meth:`SpanTier._clamp_safe_rows` with its per-feed credit loop."""
    plan = tier.plan
    early = [(int(plan.snk[j]), int(plan.src[j]), plan.rate[j])
             for j in tier.early_feeds]
    d, n = lvl.shape
    const_out = tier.const_out
    draining = const_out > 0.0
    if not draining.any():
        return np.ones(d, dtype=bool)
    spans = np.broadcast_to(np.asarray(span, dtype=float), (d,))[:, None]
    per_f = np.divide(const_out, f, out=np.zeros(n), where=linear)
    decay_f = np.exp(-spans * f)
    lower = np.where(linear, lvl * decay_f - per_f * (1.0 - decay_f),
                     lvl - const_out * spans)
    safe = (lower >= 0.0) | ~draining
    rows_ok = safe.all(axis=1)
    if rows_ok.all() or not early:
        return rows_ok
    for _ in range(3):
        guaranteed = np.zeros((d, n))
        for snk, src, rate in early:
            guaranteed[:, snk] += rate * safe[:, src]
        deficit = np.maximum(const_out - guaranteed, 0.0)
        per_f = np.divide(deficit, f, out=np.zeros((d, n)), where=linear)
        lower = np.where(linear, lvl * decay_f - per_f * (1.0 - decay_f),
                         lvl - deficit * spans)
        refined = (lower >= 0.0) | ~draining
        if (refined == safe).all():
            break
        safe = refined
    return safe.all(axis=1)


def reference_certify_batch(regime, lvl, t, ltol, crossed, crossed_sat):
    """:meth:`_SegmentRegime.certify_batch` with ``np.add.at`` credits."""
    g, n = lvl.shape
    ok = np.ones(g, dtype=bool)
    normal = regime.mode == _NORMAL
    tcol = t[:, None]
    need_lower = regime.sat[3].size > 0
    clamp_sel = np.zeros((g, n), dtype=bool)
    clamp_sel[:, regime.clamp_rows] = True
    clamp_sel &= ~crossed
    lower = None
    if clamp_sel.any() or need_lower:
        safe = np.broadcast_to(regime.always_safe, (g, n)).copy()
        f = regime.f_row
        linear = f > 0.0
        decay_f = np.exp(-f * tcol)
        for _ in range(4):
            credit = np.zeros((g, n))
            if regime.cin_snk.size:
                np.add.at(credit, (slice(None), regime.cin_snk),
                          regime.cin_eff * safe[:, regime.cin_src])
            deficit = np.maximum(regime.out_eff - credit, 0.0)
            per_f = np.divide(deficit, f, out=np.zeros((g, n)),
                              where=linear)
            lower = np.where(linear,
                             lvl * decay_f - per_f * (1.0 - decay_f),
                             lvl - deficit * tcol)
            refined = (regime.always_safe
                       | (normal & (lower >= -4.0 * ltol[:, None])))
            if (refined == safe).all():
                break
            safe = refined
        if clamp_sel.any():
            ok &= ~(clamp_sel & ~safe).any(axis=1)
    best = None
    if regime.cap_rows.size or need_lower:
        mass = np.maximum(lvl, 0.0).sum(axis=1)
        best = np.repeat(mass[:, None], n, axis=1)
        for _ in range(6):
            inflow = np.broadcast_to(regime.in_eff, (g, n)).copy()
            if regime.prate.size:
                np.add.at(inflow, (slice(None), regime.psnk),
                          regime.prate * best[:, regime.psrc])
            if regime.lam > 0.0 and regime.decay_rows.size:
                inflow[:, regime.root] += regime.lam * best[
                    :, regime.decay_rows].sum(axis=1)
            best = np.minimum(best, lvl + inflow * tcol)
        if regime.cap_rows.size:
            over = best[:, regime.cap_rows] > regime.cap_limits
            over &= ~crossed[:, regime.cap_rows]
            ok &= ~over.any(axis=1)
    sat_ptr, sat_src, sat_wts, sat_c, sat_lo, sat_hi, sat_tol = regime.sat
    for m_i in range(sat_c.shape[0]):
        span_lo = np.full(g, sat_c[m_i])
        span_hi = np.full(g, sat_c[m_i])
        for ti in range(int(sat_ptr[m_i]), int(sat_ptr[m_i + 1])):
            s = sat_src[ti]
            span_lo += sat_wts[ti] * np.maximum(lower[:, s], 0.0)
            span_hi += sat_wts[ti] * best[:, s]
        good = ((span_lo >= sat_lo[m_i] - sat_tol[m_i])
                & (span_hi <= sat_hi[m_i] + sat_tol[m_i]))
        ok &= good | crossed_sat[:, m_i]
    return ok


def feeds_graph(decay):
    """Early feeds landing on shared sinks from clampable sources."""
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = decay
    hub = g.create_reserve(name="hub")
    x = g.create_reserve(name="x")
    y = g.create_reserve(name="y")
    out = g.create_reserve(name="out")
    g.create_tap(g.root, hub, 0.03, name="hub.feed")
    g.create_tap(g.root, x, 0.01, name="x.feed")
    g.create_tap(hub, x, 0.02, name="x.from_hub")
    g.create_tap(g.root, y, 0.01, name="y.feed")
    g.create_tap(y, x, 0.015, name="x.from_y")
    g.create_tap(x, out, 0.05, name="x.drain")
    g.create_tap(hub, out, 0.025, name="hub.drain")
    g.create_tap(y, out, 0.02, name="y.drain")
    g.create_tap(x, y, 0.01, TapType.PROPORTIONAL, name="x.to_y")
    return g


def cert_graph():
    """Regimes with repeated credit sinks, cap rows and a monitor."""
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = False
    sink = g.create_reserve(name="sink")
    hub = g.create_reserve(name="hub")
    g.create_tap(g.root, hub, 0.03, name="hub.feed")
    g.create_tap(hub, sink, 0.02, name="hub.drain")
    task = g.create_reserve(name="task")
    g.create_tap(g.root, task, 0.02, name="task.feed")
    g.create_tap(hub, task, 0.01, name="task.from_hub")
    g.create_tap(task, sink, 0.05, name="task.drain")
    feeder = g.create_reserve(name="feeder")
    g.create_tap(g.root, feeder, 0.01, name="feeder.feed")
    feeder2 = g.create_reserve(name="feeder2")
    g.create_tap(g.root, feeder2, 0.02, name="feeder2.feed")
    capped = g.create_reserve(capacity=4.0, name="capped")
    g.create_tap(feeder, capped, 0.02, TapType.PROPORTIONAL,
                 name="capped.in")
    g.create_tap(feeder2, capped, 0.01, TapType.PROPORTIONAL,
                 name="capped.in2")
    g.create_tap(g.root, capped, 0.005, name="capped.feed")
    g.create_tap(capped, sink, 0.01, TapType.PROPORTIONAL,
                 name="capped.out")
    junction = g.create_reserve(name="junction")
    g.create_tap(feeder, junction, 0.01, TapType.PROPORTIONAL,
                 name="junction.in")
    g.create_tap(junction, sink, 0.02, name="junction.out0")
    g.create_tap(junction, sink, 0.03, name="junction.out1")
    return g


def switching_system(world=None, index=0):
    """A device whose tasks clamp and whose napper cuts odd spans.

    The battery is watched, so the 1 s record instants bound its spans
    too (a trace without probes would not cut them).
    """
    kwargs = dict(record_interval_s=1.0, decay_enabled=False)
    if world is None:
        device = CinderSystem(**kwargs)
    else:
        device = world.add_device(name=f"d{index}", **kwargs)
    battery = device.battery_reserve
    device.watch_reserve(battery)
    task = device.new_reserve(name=f"d{index}.task")
    battery.transfer_to(task, 0.5)
    device.kernel.create_tap(battery, task, 0.02, name=f"d{index}.feed")
    archive = device.new_reserve(name=f"d{index}.archive")
    device.kernel.create_tap(task, archive, 0.05, name=f"d{index}.drain")
    chain = device.powered_reserve(0.05, name=f"d{index}.app")
    sub = device.new_reserve(name=f"d{index}.sub")
    device.kernel.create_tap(chain, sub, 0.04, TapType.PROPORTIONAL,
                             name=f"d{index}.t1")
    device.kernel.create_tap(sub, battery, 0.03, TapType.PROPORTIONAL,
                             name=f"d{index}.t2")
    period = 2.0 + 0.37 * index

    def napper(ctx):
        while True:
            yield Sleep(period)
            yield CpuBurn(0.02)

    worker = device.powered_reserve(0.2, name=f"d{index}.maint")
    device.spawn(napper, f"d{index}.maint", reserve=worker)
    return device


def tier_caches(tier):
    """The per-span cache of every system and regime of one tier."""
    caches = [system.span_cache for system in tier._coupled.values()]
    for regime in tier._regimes.values():
        caches += [regime.span_cache, regime.system.span_cache]
    return caches


def graph_tiers(graph):
    plans = list(graph._span_plans.values())
    if graph._plan is not None:
        plans.append(graph._plan)
    return [p._span_tier for p in plans if p._span_tier is not None]


def chain_regime_system(span_cache=None):
    a = np.array([[-0.05, 0.0, 0.0], [0.05, -0.04, 0.0],
                  [0.0, 0.04, -0.03]])
    b = np.array([0.02, 0.0, -0.01])
    return spansolver.LinearSystem(a, b, {} if span_cache is None
                                   else span_cache)


def one_row_integral(system, lvl, t):
    """``J(t)`` of one level vector: :meth:`LinearSystem.integrals` on a
    stack of one, the form every one-device caller uses."""
    integ = system.integrals(lvl[None, :], np.array([t]))
    assert integ.shape == (1, lvl.size)
    return integ[0]


def reference_dense_integral(system, lvl, t):
    """The Padé path written out: one augmented exponential."""
    n = lvl.size
    state = np.concatenate([lvl, [1.0], np.zeros(n)])
    return (spansolver._expm(spansolver._augmented(system.a, system.b) * t)
            @ state)[n + 1:]


class TestPropagatorCache:
    def assert_exact(self, system, lvl, t):
        integ = one_row_integral(system, lvl, t)
        if system.eig is None:
            ref = reference_dense_integral(system, lvl, t)
        else:
            ref = reference_state_integral(system.eig, system.b, lvl, t)[1]
        assert integ.tobytes() == ref.tobytes()

    def test_miss_hit_and_eviction_are_bit_identical(self):
        system = chain_regime_system()
        assert system.eig is not None
        lvl0 = np.array([3.0, 1.25, 0.5])
        lvl1 = np.array([0.7, 2.0, 4.5])
        self.assert_exact(system, lvl0, 0.99)  # miss
        assert list(system.span_cache) == [(0.99, system)]
        self.assert_exact(system, lvl1, 0.99)  # hit, other levels
        for k in range(SPAN_CACHE_MAX):
            one_row_integral(system, lvl0, 1.0 + 0.25 * k)
        assert len(system.span_cache) <= SPAN_CACHE_MAX
        assert (0.99, system) not in system.span_cache  # cleared
        self.assert_exact(system, lvl1, 0.99)  # miss after eviction

    @pytest.mark.parametrize("dense", [False, True])
    def test_systems_sharing_a_cache_keep_their_own_factors(
            self, monkeypatch, dense):
        if dense:
            monkeypatch.setattr(spansolver, "_trusted_eig", lambda a: None)
        shared = {}
        first = chain_regime_system(shared)
        other = spansolver.LinearSystem(
            first.a, np.array([0.0, 0.03, -0.02]), shared)
        assert (first.eig is None) == (other.eig is None) == dense
        lvl = np.array([3.0, 1.25, 0.5])
        for system in (first, other, first, other):
            self.assert_exact(system, lvl, 0.99)
        assert len(shared) == 2

    def test_dense_path_caches_the_augmented_exponential(self,
                                                         monkeypatch):
        monkeypatch.setattr(spansolver, "_trusted_eig", lambda a: None)
        system = chain_regime_system()
        assert system.eig is None and system.mode == "dense"
        lvl = np.array([3.0, 1.25, 0.5])
        for _ in range(2):  # miss, then hit
            self.assert_exact(system, lvl, 0.75)
        assert list(system.span_cache) == [(0.75, system)]

    @pytest.mark.parametrize("dense", [False, True])
    def test_stacks_of_per_row_spans_match_each_row(self, monkeypatch,
                                                    dense):
        """A multi-row stack integrates each row over its own span and
        caches nothing under a row's span (a dense stack keeps one
        exponential per span value); each row agrees with its own
        one-row solve to the stacked chain's ulp tolerance."""
        if dense:
            monkeypatch.setattr(spansolver, "_trusted_eig", lambda a: None)
        system = chain_regime_system()
        lvl = np.array([[3.0, 1.25, 0.5], [0.7, 2.0, 4.5],
                        [1.0, 0.0, 2.5], [0.2, 0.3, 0.4]])
        spans = np.array([0.5, 7.0, 0.5, 30.0])
        integ = system.integrals(lvl, spans)
        if dense:
            assert set(system.span_cache) == {(t, system)
                                              for t in (0.5, 7.0, 30.0)}
        else:
            assert not system.span_cache
        for got, row, t in zip(integ, lvl, spans):
            want = one_row_integral(chain_regime_system(), row, float(t))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_coupled_system_cache_matches_fresh_factors(self):
        """The one-row coupled solve: a miss, a hit with other levels,
        then another span length, each equal to the formula."""
        g = feeds_graph(decay=True)
        tier = g.span_plan_handle().span_tier
        lam = g.decay_policy.lam
        system = spansolver.LinearSystem(
            *spansolver._coupled_matrices(tier, lam), tier.span_cache)
        assert system.eig is not None
        lvl = np.array([500.0, 0.2, 0.1, 0.3, 1.0])
        for t, scale in ((0.5, 1.0), (0.5, 0.5), (2.0, 1.0)):
            integ = one_row_integral(system, scale * lvl, t)
            ref = reference_state_integral(system.eig, system.b,
                                           scale * lvl, t)
            assert integ.tobytes() == ref[1].tobytes()
        assert (0.5, system) in tier.span_cache
        assert (2.0, system) in tier.span_cache


class TestBoundVerdicts:
    def test_rowwise_bincount_rounds_like_add_at(self):
        """Sums in column order per row, as a loop or np.add.at would:
        magnitudes spanning 17 decades make any reordering visible."""
        rng = np.random.default_rng(3)
        n = 5
        cols = rng.integers(0, n, size=40)
        weights = 10.0 ** rng.uniform(0.0, 17.0, size=(6, 40))
        at = np.zeros((6, n))
        np.add.at(at, (slice(None), cols), weights)
        loop = np.zeros((6, n))
        for k, col in enumerate(cols):
            loop[:, col] += weights[:, k]
        got = spansolver._rowwise_bincount(cols, weights, n)
        assert got.tobytes() == at.tobytes() == loop.tobytes()
        assert got.tobytes() != spansolver._rowwise_bincount(
            cols[::-1], weights[:, ::-1], n).tobytes()

    @pytest.mark.parametrize("decay", [False, True])
    def test_clamp_bound_matches_per_feed_loop(self, decay):
        tier = feeds_graph(decay).span_plan_handle().span_tier
        lam = tier.plan.graph.decay_policy.lam if decay else 0.0
        f, linear = tier._dynamics(lam)[:2]
        n = len(tier.plan.reserves)
        rng = np.random.default_rng(20261016 + decay)
        refined_rescues = 0
        verdicts = []
        for _ in range(40):
            d = 48
            spans = rng.uniform(0.1, 3.0, size=d)
            lvl = rng.uniform(0.0, 0.15, size=(d, n))
            lvl *= rng.random((d, n)) < 0.7  # many rows sit empty
            lvl[:, int(tier.plan.root_index)] = 900.0
            for span in (spans, 1.5):  # per-row and shared horizons
                got = tier._clamp_safe_rows(lvl, span, f, linear)
                want = reference_clamp_safe_rows(tier, lvl, span, f,
                                                 linear)
                assert got.tolist() == want.tolist()
                verdicts += got.tolist()
                inflow_free = ((lvl - tier.const_out * np.reshape(
                    span, (-1, 1)) >= 0.0) | (tier.const_out <= 0.0))
                if not decay:
                    refined_rescues += int((got & ~inflow_free.all(
                        axis=1)).sum())
            for i in range(4):  # scalar rows: the cached per-span path
                row = lvl[i:i + 1]
                got = tier._clamp_safe_rows(row, 1.5, f, linear)
                want = reference_clamp_safe_rows(tier, row, 1.5, f, linear)
                assert got.tolist() == want.tolist()
        assert True in verdicts and False in verdicts
        if not decay:
            assert refined_rescues > 0  # the credit iteration ran

    def test_certificate_matches_add_at_form(self):
        g = cert_graph()
        tier = g.span_plan_handle().span_tier
        plan = tier.plan
        names = [r.name for r in plan.reserves]
        n = len(names)
        base = np.full(n, 2.0)
        base[int(plan.root_index)] = 900.0
        regimes = {}
        for empties in ([], ["task"], ["junction"], ["task", "junction"],
                        ["hub", "task"]):
            lvl = base.copy()
            for name in empties:
                lvl[names.index(name)] = 0.0
            regime = tier._regime_for(lvl, 0.0, 1e-9)
            assert regime is not None
            regimes[id(regime)] = regime
        regimes = list(regimes.values())
        assert any(r.sat[3].size for r in regimes)
        assert any(r.cap_rows.size for r in regimes)
        assert any(r.cert_rows.size for r in regimes)
        rng = np.random.default_rng(7)
        verdicts = []
        for regime in regimes:
            n_sat = regime.sat[3].shape[0]
            for _ in range(30):
                gsz = 24
                lvl = rng.uniform(0.0, 4.5, size=(gsz, n))
                lvl *= rng.random((gsz, n)) < 0.6
                lvl[:, int(plan.root_index)] = 900.0
                t = rng.uniform(0.05, 120.0, size=gsz)
                ltol = np.full(gsz, 1e-9)
                crossed = rng.random((gsz, n)) < 0.1
                crossed_sat = rng.random((gsz, n_sat)) < 0.1
                got = regime.certify_batch(lvl, t, ltol, crossed,
                                           crossed_sat)
                want = reference_certify_batch(regime, lvl, t, ltol,
                                               crossed, crossed_sat)
                assert got.tolist() == want.tolist()
                verdicts += got.tolist()
                # one shared span across regimes: the cached path
                one = regime.certify_batch(
                    lvl[:1], np.array([7.5]), ltol[:1], crossed[:1],
                    crossed_sat[:1])[0]
                assert one == bool(reference_certify_batch(
                    regime, lvl[:1], np.array([7.5]), ltol[:1],
                    crossed[:1], crossed_sat[:1])[0])
        assert True in verdicts and False in verdicts


class TestCacheLifetime:
    def test_topology_change_starts_from_empty_caches(self):
        device = switching_system()
        device.run(30.0)
        old = device.graph.span_plan_handle().span_tier
        assert old._regimes and old.span_cache
        extra = device.new_reserve(name="late")
        device.kernel.create_tap(device.battery_reserve, extra, 0.001,
                                 name="late.feed")
        new = device.graph.span_plan_handle().span_tier
        assert new is not old
        assert not new._regimes and not new.span_cache
        device.run(30.0)
        assert new._regimes and new.span_cache
        assert new.span_cache is not old.span_cache
        assert all(cache is new.span_cache for cache in tier_caches(new))

    def test_regime_caches_never_serve_another_regime(self):
        tier = cert_graph().span_plan_handle().span_tier
        plan = tier.plan
        names = [r.name for r in plan.reserves]
        lvl = np.full(len(names), 2.0)
        lvl[int(plan.root_index)] = 900.0
        full = tier._regime_for(lvl, 0.0, 1e-9)
        lvl_empty = lvl.copy()
        lvl_empty[names.index("task")] = 0.0
        empty = tier._regime_for(lvl_empty, 0.0, 1e-9)
        assert full is not empty
        for regime, start in ((full, lvl), (empty, lvl_empty),
                              (full, lvl), (empty, lvl_empty)):
            got = tier._integrate_segment(regime, start, 5.0, 0.0)
            # the reference regime lives on a tier of its own, so no
            # entry of the shared cache can reach it
            alone = cert_graph().span_plan_handle().span_tier
            fresh = alone._build_regime(regime.mode, regime.eff,
                                        np.zeros(len(plan.taps)),
                                        np.zeros(len(names)), (), 0.0)
            want = alone._integrate_segment(fresh, start, 5.0, 0.0)
            for a, b in zip(got[:3], want[:3]):
                assert a.tobytes() == b.tobytes()
            assert got[3] == want[3]
            assert (one_row_integral(regime.system, start, 5.0).tobytes()
                    == one_row_integral(fresh.system, start, 5.0).tobytes())
        # one shared cache, one entry per (span, owner) — never a
        # bare span another regime could read
        keys = set(tier.span_cache)
        for regime in (full, empty):
            assert (5.0, regime.system) in keys
        assert all(any(isinstance(part, (spansolver._SegmentRegime,
                                         spansolver.LinearSystem))
                       or part == "clamp" for part in key[1:])
                   for key in keys)

    def test_certificates_keep_their_own_decay_factors(self):
        """A hovering regime pins its row's proportional drain, so
        its decay rates differ from the normal regime's: each must
        certify one span length from its own factors."""
        g = ResourceGraph(1_000.0)
        g.decay_policy.enabled = False
        sink = g.create_reserve(name="sink")
        hover = g.create_reserve(capacity=2.0, name="hover")
        g.create_tap(g.root, hover, 0.05, name="hover.feed")
        g.create_tap(hover, sink, 0.01, TapType.PROPORTIONAL,
                     name="hover.leak")
        task = g.create_reserve(name="task")
        g.create_tap(g.root, task, 0.02, name="task.feed")
        g.create_tap(task, sink, 0.03, name="task.drain")
        tier = g.span_plan_handle().span_tier
        names = [r.name for r in tier.plan.reserves]
        lvl = np.ones(len(names))
        lvl[int(tier.plan.root_index)] = 900.0
        normal = tier._regime_for(lvl, 0.0, 1e-9)
        lvl_cap = lvl.copy()
        lvl_cap[names.index("hover")] = 2.0
        hovering = tier._regime_for(lvl_cap, 0.0, 1e-9)
        assert hovering.mode[names.index("hover")] == 4  # HOVER
        assert normal.f_row.tobytes() != hovering.f_row.tobytes()
        n = len(names)
        for regime, start in ((normal, lvl), (hovering, lvl_cap)) * 2:
            regime.certify_batch(
                start[None, :], np.array([7.5]), np.array([1e-9]),
                np.zeros((1, n), dtype=bool),
                np.zeros((1, regime.sat[3].shape[0]), dtype=bool))
            decay_f, grow = tier.span_cache[(7.5, regime, "certify")]
            want = np.exp(-regime.f_row * np.array([[7.5]]))
            assert decay_f.tobytes() == want.tobytes()
            assert grow.tobytes() == (1.0 - want).tobytes()

    def test_frontier_fleet_keeps_every_cache_bounded(self, monkeypatch):
        stored = {}
        remember = spansolver._remember

        def counted(cache, key, value):
            stored.setdefault(id(cache), set()).add(key)
            return remember(cache, key, value)

        monkeypatch.setattr(spansolver, "_remember", counted)
        world = World(tick_s=0.01, seed=5)
        for i in range(10):
            switching_system(world, i)
        world.run(120.0, barrier_s=20.0)
        # some tier met more (span, owner) keys than it may hold
        assert max(len(keys) for keys in stored.values()) > SPAN_CACHE_MAX
        tiers = [t for device in world.devices
                 for t in graph_tiers(device.graph)]
        assert tiers
        for tier in tiers:
            assert len(tier.span_cache) <= SPAN_CACHE_MAX
            assert all(cache is tier.span_cache
                       for cache in tier_caches(tier))
            assert len(tier._regimes) <= 17
        for device in world.devices:
            assert device.graph.conservation_error() < 1e-6
