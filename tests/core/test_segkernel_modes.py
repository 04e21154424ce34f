"""The regime-mode derivation against the former mode kernel.

:func:`repro.core.segkernel.derive_modes` is the segmented engine's
only per-segment regime classification.  A loop-shaped kernel used to
serve its common case — debt marks, FULL capacity pins, effective
constant rates — in front of it, and punted every richer regime
(hover, empty-pin fixpoints, non-normal root) to it; a dispatcher
skipped the kernel for states with an uncapped empty-pin candidate.
That kernel and dispatcher live on below as the oracle: wherever the
kernel claimed an answer, the derivation must equal it **bit for
bit**.  Its sums must round after every add, in tap order, on every
interpreter.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import segkernel
from repro.core.graph import ResourceGraph
from repro.core.segkernel import SAT_RTOL
from repro.core.tap import TapType

LTOL = 1e-9


def tier_for(graph):
    return graph.span_plan_handle().span_tier


def derive(tier, lvl, lam=0.0, ltol=LTOL):
    return segkernel.derive_modes(lvl, lam, ltol, tier._modes_pack())


# -- the oracle: the former kernel and its dispatcher ---------------------------


def kernel_modes(lvl, lam, ltol, sat_rtol, rate, const_mask, cap, src, snk,
                 finite_cap, decay_mask, any_decayable, root, ci_ptr,
                 ci_idx, cf_ptr, cf_idx, pi_ptr, pi_idx, pf_ptr, pf_idx,
                 mode, eff):
    """The former common-case mode kernel, verbatim.

    DEBT marking, capacity pins (FULL), and the effective constant
    rates under those pins, over CSR tap adjacency (``*_ptr``/``*_idx``
    pairs in the order the tier's dicts iterate).  Fills ``mode`` and
    ``eff`` in place and returns 0 when its answer is complete; returns
    1 (outputs unspecified) for a hovering cap pin, time-varying inflow
    into a binding capacity, an empty-pin candidate, or a non-normal
    root.
    """
    n = lvl.shape[0]
    m = rate.shape[0]
    for i in range(n):
        if lvl[i] < 0.0:
            mode[i] = 1  # DEBT
        else:
            mode[i] = 0  # NORMAL
    # -- capacity pins: at the cap with live inflow --
    for t in range(finite_cap.shape[0]):
        i = finite_cap[t]
        if mode[i] != 0:
            continue
        band = 1e-11 * cap[i]
        if band < 1e-9:
            band = 1e-9
        if lvl[i] < cap[i] - 2.0 * band:
            continue
        c_in_rate = 0.0
        for p in range(ci_ptr[i], ci_ptr[i + 1]):
            j = ci_idx[p]
            if mode[src[j]] != 1:
                c_in_rate = c_in_rate + rate[j]
        live_prop_in = False
        for p in range(pi_ptr[i], pi_ptr[i + 1]):
            if mode[src[pi_idx[p]]] == 0:
                live_prop_in = True
                break
        decay_in = i == root and lam > 0.0 and any_decayable
        if c_in_rate <= 0.0 and not live_prop_in and not decay_in:
            continue  # nothing arrives: normal dynamics are exact
        drains = (cf_ptr[i + 1] > cf_ptr[i]
                  or pf_ptr[i + 1] > pf_ptr[i])
        decays = lam > 0.0 and decay_mask[i]
        if not drains and not decays:
            mode[i] = 3  # FULL
            continue
        if live_prop_in:
            return 1  # no constant rewrite: python refuses
        out_rate = 0.0
        for p in range(cf_ptr[i], cf_ptr[i + 1]):
            out_rate = out_rate + rate[cf_idx[p]]
        pf_sum = 0.0
        for p in range(pf_ptr[i], pf_ptr[i + 1]):
            pf_sum = pf_sum + rate[pf_idx[p]]
        out_rate = out_rate + pf_sum * lvl[i]
        if decays:
            out_rate = out_rate + lam * lvl[i]
        if c_in_rate >= out_rate * (1.0 - sat_rtol):
            return 1  # hover: python runs the acceptance bisection
        # else: descending through the band — normal dynamics exact
    # -- effective constant rates under the pins --
    for j in range(m):
        if const_mask[j]:
            if mode[src[j]] == 1 or mode[snk[j]] == 3:
                eff[j] = 0.0
            else:
                eff[j] = rate[j]
        else:
            eff[j] = 0.0
    # -- empty-pin candidates need the python fixpoint --
    boundary = 4.0 * ltol
    for i in range(n):
        if (i != root and mode[i] == 0 and lvl[i] <= boundary
                and cf_ptr[i + 1] > cf_ptr[i]):
            return 1
    if mode[root] != 0:
        return 1  # python path refuses (non-normal battery)
    return 0


def csr_pack(tier):
    """The kernel's inputs: CSR tap adjacency and int64 index arrays."""
    plan = tier.plan
    n = len(plan.reserves)

    def csr(adj):
        ptr = np.zeros(n + 1, dtype=np.int64)
        idx = []
        for i in range(n):
            entries = adj.get(i, ())
            ptr[i + 1] = ptr[i] + len(entries)
            idx.extend(entries)
        return ptr, np.asarray(idx, dtype=np.int64)

    return (np.asarray(plan.finite_cap, dtype=np.int64),
            np.asarray(plan.src, dtype=np.int64),
            np.asarray(plan.snk, dtype=np.int64),
            *csr(tier.const_into), *csr(tier.const_from),
            *csr(tier.prop_into), *csr(tier.prop_from))


def kernel_status(tier, lvl, lam=0.0, ltol=LTOL):
    """Invoke the kernel exactly as the dispatcher did."""
    plan = tier.plan
    (finite_cap, src64, snk64, ci_ptr, ci_idx, cf_ptr, cf_idx,
     pi_ptr, pi_idx, pf_ptr, pf_idx) = csr_pack(tier)
    mode = np.empty(len(plan.reserves), dtype=np.int8)
    eff = np.empty(len(plan.taps))
    status = kernel_modes(
        lvl, float(lam), float(ltol), SAT_RTOL, plan.rate,
        plan.const_mask, plan.capacity, src64, snk64, finite_cap,
        plan.decay_mask, bool(plan.any_decayable),
        int(plan.root_index), ci_ptr, ci_idx, cf_ptr, cf_idx,
        pi_ptr, pi_idx, pf_ptr, pf_idx, mode, eff)
    return status, mode, eff


def oracle_derive(tier, lvl, lam=0.0, ltol=LTOL):
    """The former dispatcher: skip, kernel, or the full derivation."""
    plan = tier.plan
    candidates = [i for i in sorted(tier.const_from)
                  if i != plan.root_index
                  and not math.isfinite(plan.capacity[i])]
    near = lvl[candidates]
    if not ((near >= 0.0) & (near <= 4.0 * ltol)).any():
        status, mode, eff = kernel_status(tier, lvl, lam, ltol)
        if status == 0:
            m = len(plan.taps)
            return mode, eff, np.zeros(m), np.zeros(len(mode)), ()
    return derive(tier, lvl.copy(), lam, ltol)


def assert_same_derivation(tier, lvl, lam=0.0, ltol=LTOL):
    """The derivation must equal the oracle, array bytes included."""
    got = derive(tier, lvl.copy(), lam, ltol)
    want = oracle_derive(tier, lvl.copy(), lam, ltol)
    if want is None:
        assert got is None
        return
    assert got is not None
    for a, b in zip(got[:4], want[:4]):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert got[4] == want[4]


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


def capped_graph():
    g = ResourceGraph(1_000.0)
    g.decay_policy.enabled = False
    a = g.create_reserve(level=2.0, capacity=2.0, source=g.root,
                         name="a")
    g.create_tap(g.root, a, 0.05, name="feed_a")
    return g


def shapes_graph():
    """One graph carrying every derivation shape.

    A capped reserve with a constant drain (an empty-pin candidate the
    former dispatcher left to the kernel), an uncapped drained task
    (one it skipped the kernel for), a capped, fed, draining reserve
    (hover at its cap), an empty junction fed by a live proportional
    tap (forwarded pass-through), and a repaying debtor.
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


class TestKernelAgreement:
    def assert_matches_kernel(self, tier, lvl):
        status, mode, eff = kernel_status(tier, lvl)
        assert status == 0  # the kernel claimed this state
        got = derive(tier, lvl.copy())
        assert got is not None
        assert got[0].tobytes() == mode.tobytes()
        assert got[1].tobytes() == eff.tobytes()
        assert not got[2].any() and not got[3].any()
        assert got[4] == ()
        return got

    def test_plain_chain_matches_the_kernel(self):
        tier = tier_for(chain_graph())
        lvl = np.array([r._level for r in tier.plan.reserves])
        self.assert_matches_kernel(tier, lvl)
        assert_same_derivation(tier, lvl)

    def test_debt_rows_match_the_kernel(self):
        tier = tier_for(chain_graph())
        lvl = np.array([r._level for r in tier.plan.reserves])
        lvl[2] = -0.25  # a repaying debtor
        mode = self.assert_matches_kernel(tier, lvl)[0]
        assert mode[2] == 1  # DEBT
        assert_same_derivation(tier, lvl)

    def test_full_capacity_pin_matches_the_kernel(self):
        tier = tier_for(capped_graph())
        lvl = np.array([r._level for r in tier.plan.reserves])
        mode = self.assert_matches_kernel(tier, lvl)[0]
        assert 3 in mode  # the capped reserve pinned FULL
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
            if kernel_status(tier, lvl)[0] == 0:
                engaged += 1
                self.assert_matches_kernel(tier, lvl)
            assert_same_derivation(tier, lvl)
        assert engaged > 0

    def test_randomized_shapes_agree_exactly(self):
        """Random levels over every shape: EMPTY, FULL-free hover,
        forwarded pass-through, debt rows and refusals all match."""
        rng = np.random.default_rng(1016)
        tier = tier_for(shapes_graph())
        plan = tier.plan
        n = len(plan.reserves)
        cap = plan.capacity
        seen = {"empty": 0, "hover": 0, "fwd": 0, "debt": 0, "none": 0,
                "kernel": 0}
        for _ in range(400):
            pick = rng.integers(0, 5, size=n)
            lvl = np.where(pick == 0, 0.0, rng.uniform(0.0, 4.0, size=n))
            lvl = np.where(pick == 1, rng.uniform(0.0, 4.0 * LTOL, size=n),
                           lvl)
            lvl = np.where(pick == 2, -rng.uniform(0.1, 3.0, size=n), lvl)
            lvl = np.where((pick == 3) & np.isfinite(cap), cap, lvl)
            lvl[int(plan.root_index)] = 900.0
            assert_same_derivation(tier, lvl)
            seen["kernel"] += int(kernel_status(tier, lvl)[0] == 0)
            got = derive(tier, lvl.copy())
            if got is None:
                seen["none"] += 1
                continue
            seen["empty"] += int(2 in got[0])
            seen["hover"] += int(4 in got[0])
            seen["fwd"] += int(bool(got[4]))
            seen["debt"] += int(1 in got[0])
        assert all(seen.values()), seen


def left_to_right(rates):
    """The plain in-order float sum the derivation must reproduce."""
    total = 0.0
    for r in rates:
        total += r
    return total


@pytest.fixture
def compensated_sum(monkeypatch):
    """Shadow builtin ``sum`` in the derivation's module by a
    compensated one, as Python 3.12+ ships it, so a builtin ``sum`` in
    the derivation shows on every interpreter."""
    monkeypatch.setattr(segkernel, "sum", math.fsum, raising=False)


@pytest.mark.usefixtures("compensated_sum")
class TestPlainSums:
    """Every derivation sum rounds after each add, in tap order."""

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
        mode, eff = derive(tier, lvl)[:2]
        names = [t.name for t in tier.plan.taps]
        assert mode[[r.name for r in tier.plan.reserves]
                    .index("junction")] == 2  # EMPTY
        assert eff[names.index("drain")] == left_to_right(feeds)
        assert left_to_right(feeds) != math.fsum(feeds)  # it rounds

    def test_hover_boundary_matches_the_kernel(self):
        """Feeds whose plain sum is one ulp below the hover threshold:
        the kernel said descent, and so must the derivation."""
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
        got = derive(tier, lvl)
        assert got is not None and 4 not in got[0]  # no hover
        assert (got[0] == 0).all()  # descending: every row NORMAL
        assert kernel_status(tier, lvl)[0] == 0
        assert_same_derivation(tier, lvl)
