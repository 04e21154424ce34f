"""The compiled mode-derivation kernel vs the full Python derivation.

:func:`repro.core.segkernel.derive_modes` serves the common case of
the segmented engine's per-segment regime classification — debt
marks, FULL capacity pins, effective constant rates — and must agree
**bit-identically** with :meth:`SpanTier._derive_modes_full` wherever
it claims an answer (status 0), punting (status 1) for every regime
it does not carry (hover, empty-pin fixpoints, non-normal root).
These are the differential contracts the CI ``numba-kernel`` leg runs
under both backends.  :meth:`SpanTier._derive_modes` skips the kernel
for a state with an uncapped empty-pin candidate (the kernel always
punts on those); its output must still equal the full derivation
element for element.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import segkernel
from repro.core.graph import ResourceGraph
from repro.core.spansolver import SAT_RTOL
from repro.core.tap import TapType

LTOL = 1e-9


def tier_for(graph):
    return graph.span_plan_handle().span_tier


def kernel_status(tier, lvl, lam=0.0, ltol=LTOL):
    """Invoke the kernel exactly as the dispatcher does."""
    plan = tier.plan
    (finite_cap, src64, snk64, ci_ptr, ci_idx, cf_ptr, cf_idx,
     pi_ptr, pi_idx, pf_ptr, pf_idx) = tier._modes_csr_pack()
    mode = np.empty(len(plan.reserves), dtype=np.int8)
    eff = np.empty(len(plan.taps))
    status = segkernel.derive_modes(
        lvl, float(lam), float(ltol), SAT_RTOL, plan.rate,
        plan.const_mask, plan.capacity, src64, snk64, finite_cap,
        plan.decay_mask, bool(plan.any_decayable),
        int(plan.root_index), ci_ptr, ci_idx, cf_ptr, cf_idx,
        pi_ptr, pi_idx, pf_ptr, pf_idx, mode, eff)
    return status, mode, eff


def assert_same_derivation(tier, lvl, lam=0.0, ltol=LTOL):
    """Dispatcher output must equal the full Python derivation."""
    fast = tier._derive_modes(lvl.copy(), lam, ltol)
    full = tier._derive_modes_full(lvl.copy(), lam, ltol)
    if full is None:
        assert fast is None
        return
    assert fast is not None
    for a, b in zip(fast[:4], full[:4]):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert fast[4] == full[4]


def chain_graph():
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = False
    a = g.create_reserve(level=5.0, source=g.root, name="a")
    g.create_tap(g.root, a, 0.02, name="feed_a")
    b = g.create_reserve(level=1.0, source=a, name="b")
    g.create_tap(a, b, 0.01, name="a_to_b")
    c = g.create_reserve(name="c")
    g.create_tap(b, c, 0.005, name="b_to_c")
    return g


def capped_graph(draining=False):
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = False
    a = g.create_reserve(level=2.0, capacity=2.0, source=g.root,
                         name="a")
    g.create_tap(g.root, a, 0.05, name="feed_a")
    if draining:
        sink = g.create_reserve(name="sink")
        g.create_tap(a, sink, 0.03, name="drain_a")
    return g


class TestFastPathAgreement:
    def test_plain_chain_matches_full(self):
        tier = tier_for(chain_graph())
        lvl = np.array([r._level for r in tier.plan.reserves])
        status, mode, eff = kernel_status(tier, lvl)
        assert status == 0  # the fast path must actually engage
        full = tier._derive_modes_full(lvl, 0.0, LTOL)
        assert full is not None
        assert mode.tobytes() == full[0].tobytes()
        assert eff.tobytes() == full[1].tobytes()
        assert not full[2].any() and not full[3].any()
        assert full[4] == ()
        assert_same_derivation(tier, lvl)

    def test_debt_rows_match_full(self):
        tier = tier_for(chain_graph())
        lvl = np.array([r._level for r in tier.plan.reserves])
        lvl[2] = -0.25  # a repaying debtor
        status, mode, eff = kernel_status(tier, lvl)
        assert status == 0
        full = tier._derive_modes_full(lvl, 0.0, LTOL)
        assert mode.tobytes() == full[0].tobytes()
        assert eff.tobytes() == full[1].tobytes()
        assert_same_derivation(tier, lvl)

    def test_full_capacity_pin_matches_full(self):
        tier = tier_for(capped_graph(draining=False))
        lvl = np.array([r._level for r in tier.plan.reserves])
        status, mode, eff = kernel_status(tier, lvl)
        assert status == 0
        full = tier._derive_modes_full(lvl, 0.0, LTOL)
        assert mode.tobytes() == full[0].tobytes()
        assert 3 in mode  # the capped reserve pinned FULL
        assert eff.tobytes() == full[1].tobytes()
        assert_same_derivation(tier, lvl)

    def test_randomized_levels_agree_exactly(self):
        rng = np.random.default_rng(42)
        tier = tier_for(chain_graph())
        n = len(tier.plan.reserves)
        engaged = 0
        for _ in range(200):
            lvl = rng.uniform(-1.0, 5.0, size=n)
            lvl[int(tier.plan.root_index)] = abs(
                lvl[int(tier.plan.root_index)]) + 1.0
            status, mode, eff = kernel_status(tier, lvl)
            if status == 0:
                engaged += 1
                full = tier._derive_modes_full(lvl, 0.0, LTOL)
                assert full is not None
                assert mode.tobytes() == full[0].tobytes()
                assert eff.tobytes() == full[1].tobytes()
            assert_same_derivation(tier, lvl)
        assert engaged > 0


class TestPunts:
    def test_hover_punts_to_python(self):
        """A capped, fed, draining reserve whose inflow sustains the
        outflow is a hover — the kernel must not claim it."""
        tier = tier_for(capped_graph(draining=True))
        lvl = np.array([r._level for r in tier.plan.reserves])
        status, _, _ = kernel_status(tier, lvl)
        assert status == 1
        assert_same_derivation(tier, lvl)

    def test_empty_pin_candidate_punts_to_python(self):
        """A drained-to-zero reserve with constant drains needs the
        pass-through fixpoint — python's, not the kernel's."""
        tier = tier_for(chain_graph())
        lvl = np.array([r._level for r in tier.plan.reserves])
        lvl[2] = 0.0  # b sits empty with a live constant drain
        status, _, _ = kernel_status(tier, lvl)
        assert status == 1
        assert_same_derivation(tier, lvl)


def shapes_graph():
    """One graph carrying every derivation shape the skip must keep.

    A capped reserve with a constant drain (an empty-pin candidate the
    skip leaves to the kernel), an uncapped drained task (one it
    skips), a capped, fed, draining reserve (hover at its cap), an
    empty junction fed by a live proportional tap (forwarded
    pass-through), and a repaying debtor.
    """
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = False
    sink = g.create_reserve(name="sink")
    capped = g.create_reserve(capacity=5.0, name="capped")
    g.create_tap(g.root, capped, 0.01, name="capped.feed")
    g.create_tap(capped, sink, 0.04, name="capped.drain")
    task = g.create_reserve(name="task")
    g.create_tap(g.root, task, 0.02, name="task.feed")
    g.create_tap(task, sink, 0.05, name="task.drain")
    hover = g.create_reserve(capacity=2.0, name="hover")
    g.create_tap(g.root, hover, 0.05, name="hover.feed")
    g.create_tap(hover, sink, 0.03, name="hover.drain")
    feeder = g.create_reserve(name="feeder")
    g.create_tap(g.root, feeder, 0.01, name="feeder.feed")
    junction = g.create_reserve(name="junction")
    g.create_tap(feeder, junction, 0.01, TapType.PROPORTIONAL,
                 name="junction.in")
    g.create_tap(junction, sink, 0.02, name="junction.out0")
    g.create_tap(junction, sink, 0.03, name="junction.out1")
    debtor = g.create_reserve(name="debtor")
    g.create_tap(g.root, debtor, 0.03, name="debtor.repay")
    return g


def counting_kernel(monkeypatch):
    """Count the dispatcher's calls into the mode kernel."""
    calls = []
    kernel = segkernel.derive_modes

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(segkernel, "derive_modes", counted)
    return calls


class TestKernelSkip:
    def test_uncapped_candidate_skips_the_kernel(self, monkeypatch):
        tier = tier_for(chain_graph())
        lvl = np.array([r._level for r in tier.plan.reserves])
        lvl[2] = 0.0  # b: uncapped, empty, with a constant drain
        calls = counting_kernel(monkeypatch)
        fast = tier._derive_modes(lvl, 0.0, LTOL)
        assert calls == []
        assert fast is not None
        assert_same_derivation(tier, lvl)

    def test_capped_candidate_is_left_to_the_kernel(self, monkeypatch):
        g = shapes_graph()
        tier = tier_for(g)
        names = [r.name for r in tier.plan.reserves]
        lvl = np.array([r._level for r in tier.plan.reserves])
        lvl[names.index("task")] = 1.0
        lvl[names.index("feeder")] = 1.0
        lvl[names.index("junction")] = 1.0
        lvl[names.index("capped")] = 0.0
        calls = counting_kernel(monkeypatch)
        tier._derive_modes(lvl, 0.0, LTOL)
        assert calls == [1]
        assert_same_derivation(tier, lvl)

    def test_randomized_shapes_agree_exactly(self):
        """Random levels over every shape: EMPTY, FULL-free hover,
        forwarded pass-through, debt rows and refusals all match."""
        rng = np.random.default_rng(1016)
        tier = tier_for(shapes_graph())
        plan = tier.plan
        n = len(plan.reserves)
        cap = plan.capacity
        seen = {"empty": 0, "hover": 0, "fwd": 0, "debt": 0, "none": 0}
        for _ in range(400):
            pick = rng.integers(0, 5, size=n)
            lvl = np.where(pick == 0, 0.0, rng.uniform(0.0, 4.0, size=n))
            lvl = np.where(pick == 1, rng.uniform(0.0, 4.0 * LTOL, size=n),
                           lvl)
            lvl = np.where(pick == 2, -rng.uniform(0.1, 3.0, size=n), lvl)
            lvl = np.where((pick == 3) & np.isfinite(cap), cap, lvl)
            lvl[int(plan.root_index)] = 900.0
            assert_same_derivation(tier, lvl)
            full = tier._derive_modes_full(lvl.copy(), 0.0, LTOL)
            if full is None:
                seen["none"] += 1
                continue
            seen["empty"] += int(2 in full[0])
            seen["hover"] += int(4 in full[0])
            seen["fwd"] += int(bool(full[4]))
            seen["debt"] += int(1 in full[0])
        assert all(seen.values()), seen


def left_to_right(rates):
    """The plain in-order float sum the derivations must reproduce."""
    total = 0.0
    for r in rates:
        total += r
    return total


class TestPlainSums:
    """Every derivation sum rounds after each add, in tap order.

    Builtin ``sum`` compensates float sums from Python 3.12 on, which
    would split the full derivation from the kernel by an ulp.
    """

    def test_pass_through_eff_is_a_plain_sum(self):
        g = ResourceGraph(1_000.0)
        g.decay_policy.enabled = False
        sink = g.create_reserve(name="sink")
        junction = g.create_reserve(name="junction")
        feeds = (0.1, 0.2, 0.3)
        for k, r in enumerate(feeds):
            g.create_tap(g.root, junction, r, name=f"feed{k}")
        g.create_tap(junction, sink, 1.0, name="drain")
        tier = tier_for(g)
        lvl = np.array([r._level for r in tier.plan.reserves])
        mode, eff = tier._derive_modes(lvl, 0.0, LTOL)[:2]
        names = [t.name for t in tier.plan.taps]
        assert mode[[r.name for r in tier.plan.reserves]
                    .index("junction")] == 2  # EMPTY
        assert eff[names.index("drain")] == left_to_right(feeds)
        assert left_to_right(feeds) != 0.6  # the case that rounds

    def test_hover_boundary_matches_the_kernel(self):
        """Feeds whose plain sum is one ulp below the hover threshold:
        the kernel says descent, and so must the full derivation."""
        g = ResourceGraph(1_000.0)
        g.decay_policy.enabled = False
        sink = g.create_reserve(name="sink")
        pinned = g.create_reserve(level=3.0, capacity=3.0,
                                  source=g.root, name="pinned")
        feeds = (1.0, 1e-16, 1e-16)
        for k, r in enumerate(feeds):
            g.create_tap(g.root, pinned, r, name=f"feed{k}")
        drain = 1.0000000010000003
        g.create_tap(pinned, sink, drain, name="drain")
        threshold = drain * (1.0 - SAT_RTOL)
        assert left_to_right(feeds) < threshold <= math.fsum(feeds)
        tier = tier_for(g)
        lvl = np.array([r._level for r in tier.plan.reserves])
        status, mode, _ = kernel_status(tier, lvl)
        assert status == 0 and 4 not in mode  # no hover
        full = tier._derive_modes_full(lvl.copy(), 0.0, LTOL)
        assert full is not None and 4 not in full[0]
        assert_same_derivation(tier, lvl)


class TestBackends:
    def test_fallback_is_exposed(self):
        assert callable(segkernel.derive_modes_numpy)

    def test_fallback_agrees_with_active_backend(self):
        tier = tier_for(chain_graph())
        plan = tier.plan
        lvl = np.array([r._level for r in plan.reserves])
        (finite_cap, src64, snk64, ci_ptr, ci_idx, cf_ptr, cf_idx,
         pi_ptr, pi_idx, pf_ptr, pf_idx) = tier._modes_csr_pack()
        args = (lvl, 0.0, LTOL, SAT_RTOL, plan.rate, plan.const_mask,
                plan.capacity, src64, snk64, finite_cap,
                plan.decay_mask, bool(plan.any_decayable),
                int(plan.root_index), ci_ptr, ci_idx, cf_ptr, cf_idx,
                pi_ptr, pi_idx, pf_ptr, pf_idx)
        mode_a = np.empty(len(plan.reserves), dtype=np.int8)
        eff_a = np.empty(len(plan.taps))
        mode_b = np.empty(len(plan.reserves), dtype=np.int8)
        eff_b = np.empty(len(plan.taps))
        sa = segkernel.derive_modes(*args, mode_a, eff_a)
        sb = segkernel.derive_modes_numpy(*args, mode_b, eff_b)
        assert sa == sb
        if sa == 0:
            assert mode_a.tobytes() == mode_b.tobytes()
            assert eff_a.tobytes() == eff_b.tobytes()
