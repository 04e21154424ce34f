"""Cohort-stacked segment chains: batched vs scalar vs ticking.

Differential contracts for :func:`repro.core.spansolver.
execute_span_batch` now that switch-bound devices stay in the stacked
call (see the cohort-segment section of docs/performance.md):

* a cohort of devices sharing a topology signature but carrying
  *staggered* switch instants solves in one batched call, and every
  device's committed state matches an identical graph solved through
  the scalar segmented path within **ulp tolerance** (stacked
  matrix-matrix products reorder a handful of float additions
  relative to the per-device matrix-vector solve — this is the
  documented contract, not bit identity) and matches the
  ``step_reference`` tick loop within the switching tolerances;
* the two regimes retired from the refusal list — the **time-varying
  pass-through** (an emptied reserve fed by a live proportional tap,
  forwarding its inflow) and the **hover at capacity** (a capped,
  constant-fed reserve whose drain/decay loses less than the feed) —
  solve in batch with conservation < 1e-9;
* a cohort with *no* switch in the span certifies event-freedom
  (single segment, zero switches) instead of sampling;
* randomized heterogeneous cohorts either match the scalar result or
  drop out device-by-device, never mutating a dropped device;
* the vectorized switch-location scan agrees **bit-identically** with
  a per-sample loop that early-exits at the first violation (the
  oracles :func:`first_hits_loops` / :func:`violated_at_loops` below)
  on random monitor packs — the scan is transcendental-free by
  construction, so this is exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import segkernel, spansolver
from repro.core.graph import ResourceGraph
from repro.core.spansolver import execute_span_batch
from repro.core.tap import TapType
from repro.sim.world import World
from tests.sim.world_oracle import run_per_device

REL_TOL = 2e-3
ULP_RTOL = 1e-9
TICK = 0.01


def first_hits_loops(states, clamp_rows, cap_rows, cap_limits,
                     debt_rows, ltol, sat_ptr, sat_src, sat_wts,
                     sat_c, sat_lo, sat_hi, sat_tol):
    """Loop-shaped :func:`segkernel.first_hits` (the scan's oracle).

    Early-exits per device at the first violated sample; arithmetic
    per monitor is the scan's (comparisons plus in-order
    accumulation), so results must match bit for bit.
    """
    g, k, _ = states.shape
    out = np.full(g, -1, dtype=np.int64)
    for d in range(g):
        tol = ltol[d]
        for s in range(k):
            bad = False
            for r in range(clamp_rows.shape[0]):
                if states[d, s, clamp_rows[r]] < -tol:
                    bad = True
                    break
            if not bad:
                for r in range(cap_rows.shape[0]):
                    if states[d, s, cap_rows[r]] > cap_limits[r]:
                        bad = True
                        break
            if not bad:
                for r in range(debt_rows.shape[0]):
                    if states[d, s, debt_rows[r]] > -tol:
                        bad = True
                        break
            if not bad:
                for m in range(sat_c.shape[0]):
                    y = sat_c[m]
                    for t in range(sat_ptr[m], sat_ptr[m + 1]):
                        y = y + sat_wts[t] * states[d, s, sat_src[t]]
                    if (y < sat_lo[m] - sat_tol[m]
                            or y > sat_hi[m] + sat_tol[m]):
                        bad = True
                        break
            if bad:
                out[d] = s
                break
    return out


def violated_at_loops(states, clamp_rows, cap_rows, cap_limits,
                      debt_rows, ltol, sat_ptr, sat_src, sat_wts,
                      sat_c, sat_lo, sat_hi, sat_tol):
    """Loop-shaped :func:`segkernel.violated_at` (the scan's oracle)."""
    g = states.shape[0]
    out = np.zeros(g, dtype=np.bool_)
    for d in range(g):
        tol = ltol[d]
        bad = False
        for r in range(clamp_rows.shape[0]):
            if states[d, clamp_rows[r]] < -tol:
                bad = True
                break
        if not bad:
            for r in range(cap_rows.shape[0]):
                if states[d, cap_rows[r]] > cap_limits[r]:
                    bad = True
                    break
        if not bad:
            for r in range(debt_rows.shape[0]):
                if states[d, debt_rows[r]] > -tol:
                    bad = True
                    break
        if not bad:
            for m in range(sat_c.shape[0]):
                y = sat_c[m]
                for t in range(sat_ptr[m], sat_ptr[m + 1]):
                    y = y + sat_wts[t] * states[d, sat_src[t]]
                if (y < sat_lo[m] - sat_tol[m]
                        or y > sat_hi[m] + sat_tol[m]):
                    bad = True
                    break
        out[d] = bad
    return out


def tiers_for(graphs):
    return [g._current_plan().span_tier for g in graphs]


def run_batch_vs_scalar(build_one, count, span):
    """Build ``count`` devices three times over; solve each way.

    Returns ``(batched_graphs, batch_results, scalar_graphs,
    scalar_results)`` — the caller asserts on parity.  ``build_one``
    takes the device index so cohorts can stagger levels.
    """
    batched = [build_one(i) for i in range(count)]
    scalar = [build_one(i) for i in range(count)]
    results = execute_span_batch(tiers_for(batched), span)
    scalar_results = [g.advance_span(span) for g in scalar]
    return batched, results, scalar, scalar_results


def assert_ulp_parity(g_batch, g_scalar, moved_batch, moved_scalar):
    assert moved_batch is not None and moved_scalar is not None
    assert moved_batch == pytest.approx(moved_scalar, rel=ULP_RTOL,
                                        abs=1e-12)
    for rb, rs in zip(g_batch.reserves, g_scalar.reserves):
        assert rb.level == pytest.approx(rs.level, rel=ULP_RTOL,
                                         abs=1e-12), rb.name
    for tb, ts in zip(g_batch.taps, g_scalar.taps):
        assert tb.total_flowed == pytest.approx(
            ts.total_flowed, rel=ULP_RTOL, abs=1e-12), tb.name
    assert g_batch.conservation_error() == pytest.approx(0.0, abs=1e-9)


def assert_matches_ticks(g_batch, build_one, index, span, abs_tol):
    g_tick = build_one(index)
    for _ in range(int(round(span / TICK))):
        g_tick.step_reference(TICK)
    for rb, rt in zip(g_batch.reserves, g_tick.reserves):
        assert rb.level == pytest.approx(rt.level, rel=REL_TOL,
                                         abs=abs_tol), rb.name


class TestStaggeredSwitchCohorts:
    def test_staggered_clamps_solve_batched_and_match(self):
        """Same topology, staggered task levels: every device clamps
        at its own instant inside one stacked call."""
        span = 200.0  # clamps land at ~66..166 s, all mid-span
        batched, results, scalar, scalar_results = run_batch_vs_scalar(
            build_staggered_clamp, 6, span)
        for i in range(6):
            assert_ulp_parity(batched[i], scalar[i], results[i],
                              scalar_results[i])
            assert_matches_ticks(batched[i], build_staggered_clamp, i,
                                 span, abs_tol=3 * 0.05 * TICK)
            assert batched[i].span_switches == 1

    def test_mixed_switch_classes_in_one_cohort(self):
        """Clamp + debt zero-crossing per device, staggered both ways:
        the per-device segment clocks advance independently."""
        def build_one(i):
            g = ResourceGraph(1_000.0)
            g.decay_policy.enabled = False
            task = g.create_reserve(level=1.0 + 0.25 * i, source=g.root,
                                    name="task")
            g.create_tap(g.root, task, 0.01, name="feed")
            sink = g.create_reserve(name="sink")
            g.create_tap(task, sink, 0.03, name="drain")
            debtor = g.create_reserve(name="debtor")
            g.create_tap(g.root, debtor, 0.02, name="repay")
            debtor.consume(2.0 + 0.4 * i, allow_debt=True)
            return g

        span = 300.0
        batched, results, scalar, scalar_results = run_batch_vs_scalar(
            build_one, 5, span)
        for i in range(5):
            assert_ulp_parity(batched[i], scalar[i], results[i],
                              scalar_results[i])
            assert_matches_ticks(batched[i], build_one, i, span,
                                 abs_tol=3 * 0.03 * TICK)
            assert batched[i].span_switches >= 2


def build_staggered_clamp(i):
    """Same topology, staggered task levels: each clamps mid-span."""
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = False
    task = g.create_reserve(level=2.0 + 0.3 * i, source=g.root,
                            name="task")
    g.create_tap(g.root, task, 0.02, name="feed")
    archive = g.create_reserve(name="archive")
    g.create_tap(task, archive, 0.05, name="drain")
    return g


class TestPadeRegimesInBatch:
    """A regime whose eigenbasis is not trusted integrates on the Padé
    path inside the stacked chain, as it does on one device, instead
    of demoting its device to the one-device path."""

    def test_pade_cohort_solves_in_the_stacked_call(self, monkeypatch):
        monkeypatch.setattr(spansolver, "_trusted_eig", lambda a: None)
        span = 200.0
        batched, results, scalar, scalar_results = run_batch_vs_scalar(
            build_staggered_clamp, 6, span)
        assert None not in results
        for i in range(6):
            assert_ulp_parity(batched[i], scalar[i], results[i],
                              scalar_results[i])
            assert batched[i].span_switches == 1
        regimes = tiers_for(batched)[0]._regimes.values()
        assert regimes and all(r.system.eig is None for r in regimes)

    def test_pade_cohort_never_demotes_in_a_world(self, monkeypatch):
        monkeypatch.setattr(spansolver, "_trusted_eig", lambda a: None)

        def build():
            world = World(tick_s=0.01, seed=17, fast_forward=True)
            for i in range(6):
                device = world.add_device(name=f"sw{i}",
                                          record_interval_s=5.0,
                                          decay_enabled=False)
                task = device.new_reserve(name="task")
                device.battery_reserve.transfer_to(task, 1.0 + 0.21 * i)
                device.kernel.create_tap(device.battery_reserve, task,
                                         0.02, name="task.feed")
                archive = device.new_reserve(name="archive")
                device.kernel.create_tap(task, archive, 0.05,
                                         name="task.drain")
            return world

        world = build()
        world.run(120.0)
        assert world.cohort_demotions == 0
        assert world.cohort_spans > 0
        assert world.span_segments > 0
        reference = build()
        run_per_device(reference, 120.0)
        for fast_dev, ref_dev in zip(world.devices, reference.devices):
            for rf, rs in zip(fast_dev.graph.reserves,
                              ref_dev.graph.reserves):
                assert rf.level == pytest.approx(rs.level, rel=ULP_RTOL,
                                                 abs=1e-12), rf.name


class TestRetiredRegimesInBatch:
    def test_pass_through_cohort(self):
        """The retired time-varying pass-through: an emptied reserve
        fed by a live proportional tap forwards its inflow."""
        def build_one(i):
            g = ResourceGraph(1_000.0)
            g.decay_policy.enabled = False
            a = g.create_reserve(level=5.0 + i, source=g.root, name="a")
            b = g.create_reserve(level=0.4, source=g.root, name="b")
            g.create_tap(a, b, 0.1, TapType.PROPORTIONAL, name="p1")
            g.create_tap(b, g.root, 1.0, name="drain")
            return g

        span = 50.0
        batched, results, scalar, scalar_results = run_batch_vs_scalar(
            build_one, 4, span)
        for i in range(4):
            assert_ulp_parity(batched[i], scalar[i], results[i],
                              scalar_results[i])
            assert_matches_ticks(batched[i], build_one, i, span,
                                 abs_tol=3 * 1.0 * TICK)
            # b empties, then hovers at the pinned floor.
            assert batched[i].reserves[2].level == pytest.approx(
                0.0, abs=1e-6)

    def test_hover_at_capacity_cohort(self):
        """The retired hover-at-cap: a capped constant-fed reserve
        whose drain loses less than the feed fills and hovers."""
        def build_one(i):
            g = ResourceGraph(1_000.0)
            g.decay_policy.enabled = False
            c = g.create_reserve(level=0.5 + 0.1 * i, source=g.root,
                                 capacity=2.0, name="c")
            g.create_tap(g.root, c, 0.05, name="feed")
            g.create_tap(c, g.root, 0.02, name="drip")
            return g

        span = 200.0  # fills at ~35..50 s, hovers for the rest
        batched, results, scalar, scalar_results = run_batch_vs_scalar(
            build_one, 4, span)
        for i in range(4):
            assert_ulp_parity(batched[i], scalar[i], results[i],
                              scalar_results[i])
            assert_matches_ticks(batched[i], build_one, i, span,
                                 abs_tol=3 * 0.05 * TICK)
            assert batched[i].reserves[1].level == pytest.approx(
                2.0, abs=1e-6)
            assert batched[i].span_switches >= 1


class TestNoSwitchCertificate:
    def test_event_free_cohort_takes_one_segment(self):
        """Feeds outpace drains everywhere: the certify-first fast
        path must close each span in a single segment."""
        def build_one(i):
            g = ResourceGraph(1_000.0)
            g.decay_policy.enabled = False
            a = g.create_reserve(level=10.0 + i, source=g.root, name="a")
            g.create_tap(g.root, a, 0.05, name="feed")
            b = g.create_reserve(name="b")
            g.create_tap(a, b, 0.02, name="drain")
            debtor = g.create_reserve(name="debtor")
            g.create_tap(g.root, debtor, 0.01, name="repay")
            debtor.consume(100.0 + i, allow_debt=True)  # never repays
            return g

        span = 60.0
        batched, results, scalar, scalar_results = run_batch_vs_scalar(
            build_one, 4, span)
        for i in range(4):
            assert_ulp_parity(batched[i], scalar[i], results[i],
                              scalar_results[i])
            assert batched[i].span_switches == 0


class TestRandomizedCohorts:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_cohort_matches_or_drops_cleanly(self, seed):
        """Randomized staggered cohorts: each device either matches
        the scalar segmented result at ulp tolerance, or drops out of
        the batch with its graph untouched."""
        rng = np.random.default_rng(seed)
        feed = round(float(rng.uniform(0.005, 0.03)), 6)
        drain = round(float(rng.uniform(0.03, 0.08)), 6)
        repay = round(float(rng.uniform(0.01, 0.04)), 6)
        cap = round(float(rng.uniform(1.5, 3.0)), 6)
        levels = rng.uniform(0.5, 4.0, size=5)
        debts = rng.uniform(0.5, 6.0, size=5)

        def build_one(i):
            g = ResourceGraph(1_000.0)
            g.decay_policy.enabled = False
            task = g.create_reserve(level=float(levels[i]),
                                    source=g.root, name="task")
            g.create_tap(g.root, task, feed, name="feed")
            sink = g.create_reserve(capacity=cap, name="sink")
            g.create_tap(task, sink, drain, name="drain")
            g.create_tap(sink, g.root, feed / 2.0, name="drip")
            debtor = g.create_reserve(name="debtor")
            g.create_tap(g.root, debtor, repay, name="repay")
            debtor.consume(float(debts[i]), allow_debt=True)
            return g

        span = 250.0
        frozen = [build_one(i) for i in range(5)]
        batched, results, scalar, scalar_results = run_batch_vs_scalar(
            build_one, 5, span)
        solved = 0
        for i in range(5):
            # The batch must agree with the scalar path about *which*
            # devices are solvable: a drop-out is a genuinely
            # unsupported shape, not a batched-engine limitation.
            assert (results[i] is None) == (scalar_results[i] is None)
            if results[i] is None:
                # Dropped out: nothing mutated, scalar fallback owns it.
                for rb, rf in zip(batched[i].reserves,
                                  frozen[i].reserves):
                    assert rb.level == rf.level, rb.name
                continue
            assert_ulp_parity(batched[i], scalar[i], results[i],
                              scalar_results[i])
            solved += 1
        assert solved >= 1, "the batch dropped an entire plain cohort"


class TestKernelBackends:
    def _random_pack(self, rng, g=7, k=17, n=9):
        states = rng.normal(scale=2.0, size=(g, k, n))
        clamp_rows = np.sort(rng.choice(n, size=2, replace=False)
                             ).astype(np.int64)
        cap_rows = np.sort(rng.choice(n, size=2, replace=False)
                           ).astype(np.int64)
        cap_limits = rng.uniform(0.5, 2.5, size=2)
        debt_rows = np.array([n - 1], dtype=np.int64)
        ltol = rng.uniform(1e-12, 1e-9, size=g)
        n_sat, terms = 2, 3
        sat_ptr = np.arange(0, (n_sat + 1) * terms, terms,
                            dtype=np.int64)
        sat_src = rng.choice(n, size=n_sat * terms).astype(np.int64)
        sat_wts = rng.normal(size=n_sat * terms)
        sat_c = rng.normal(size=n_sat)
        sat_lo = np.full(n_sat, -3.0)
        sat_hi = np.full(n_sat, 3.0)
        sat_tol = np.full(n_sat, 1e-9)
        return (states, clamp_rows, cap_rows, cap_limits, debt_rows,
                ltol, sat_ptr, sat_src, sat_wts, sat_c, sat_lo,
                sat_hi, sat_tol)

    @pytest.mark.parametrize("seed", range(8))
    def test_loops_match_vectorized_bit_identically(self, seed):
        """The vectorized scan and the per-sample loop agree exactly."""
        rng = np.random.default_rng(100 + seed)
        pack = self._random_pack(rng)
        expect = first_hits_loops(*pack)
        assert np.array_equal(segkernel.first_hits(*pack), expect)
        one = (pack[0][:, 3, :],) + pack[1:]
        expect_v = violated_at_loops(*one)
        assert np.array_equal(segkernel.violated_at(*one), expect_v)

    def test_empty_sat_pack_means_no_sat_hits(self):
        rng = np.random.default_rng(7)
        states = np.abs(rng.normal(size=(3, 5, 4)))  # all positive
        none = np.zeros(0, dtype=np.int64)
        ltol = np.full(3, 1e-11)
        hits = segkernel.first_hits(states, none, none, np.zeros(0),
                                    none, ltol, *segkernel.EMPTY_SAT)
        assert (hits == -1).all()
