"""The tick kernel: one stacked kernel, on stacks of one and of many.

:meth:`FlowPlan.execute_tick` is :func:`execute_tick_batch` on a stack
of one.  The scalar kernel it used to run is kept below as the oracle
(``scalar_tick``, minus its small-graph guard, which ``graph.step``
applies itself).  The contracts pinned here:

* a stack of one commits exactly what the scalar kernel did — levels,
  transfer and decay totals, the reclaim, per-tap flows, the return
  value — and refuses exactly where it refused, mutating nothing;
* that holds for a clampable sole drain, a refusal on capacity
  headroom, a refusal on decay reclaim into a capped root, and a tick
  with nothing eligible to decay;
* a stack of copies at different levels equals the oracle row by row,
  a refusing row stays untouched, and an all-refused stack returns all
  ``None`` and mutates nothing;
* lone and cohort calls that alternate on one lead plan agree with the
  oracle, and the lone calls leave the cohort's scatter indices alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import flowplan
from repro.core.flowplan import (_CONST_ONLY, _PROP_ONLY,
                                 execute_tick_batch)
from repro.core.tap import TapType

from .test_flowplan import build_random_pair
from .test_regime_memo import motif_graph

DT = 0.01


# -- the oracle: the scalar tick kernel ------------------------------------------


def scalar_tick(plan, dt):
    """The former ``FlowPlan.execute_tick`` body, verbatim.

    Books nothing on the graph; :func:`oracle_step` adds what
    ``graph.step`` booked after it.
    """
    n = len(plan.reserves)
    m = len(plan.taps)
    policy = plan.graph.decay_policy
    work = plan._gather_levels()
    moved = np.zeros(m)
    in_sum = np.zeros(n)
    out_sum = np.zeros(n)
    if m:
        const_amt, factors = plan._amounts_for(dt)
        finite_cap = plan.finite_cap
        for lo, hi, mode, has_clamp, has_corr in plan.segments:
            src = plan.src[lo:hi]
            snk = plan.snk[lo:hi]
            pos = np.maximum(work, 0.0)
            if mode == _CONST_ONLY and not has_clamp:
                amt = const_amt[lo:hi]
            else:
                base = work[src]
                if has_corr:
                    base = base + plan.corr[lo:hi] * dt
                avail = np.maximum(base, 0.0)
                if mode == _PROP_ONLY:
                    amt = avail * factors[lo:hi]
                elif mode == _CONST_ONLY:
                    amt = const_amt[lo:hi]
                else:
                    amt = np.where(plan.const_mask[lo:hi],
                                   const_amt[lo:hi],
                                   avail * factors[lo:hi])
                if has_clamp:
                    cl = plan.clampable[lo:hi]
                    amt = np.where(cl, np.minimum(amt, avail), amt)
            out = np.bincount(src, weights=amt, minlength=n)
            if (out > pos).any():
                return None
            inn = np.bincount(snk, weights=amt, minlength=n)
            if finite_cap.size:
                headroom = np.maximum(
                    0.0, plan.capacity[finite_cap] - work[finite_cap])
                if (inn[finite_cap] > headroom).any():
                    return None
            work += inn
            work -= out
            in_sum += inn
            out_sum += out
            moved[lo:hi] = amt

    fraction = policy.fraction_for(dt)
    reclaimed = 0.0
    lost_list = None
    if fraction > 0.0 and plan.any_decayable:
        eligible = plan.decay_mask & (work > 0.0)
        if eligible.any():
            lost = np.where(eligible, work * fraction, 0.0)
            reclaimed = float(lost.sum())
            root_i = plan.root_index
            if reclaimed > plan.capacity[root_i] - work[root_i]:
                return None
            work -= lost
            work[root_i] += reclaimed
            lost_list = lost.tolist()

    root = plan.graph.root
    if lost_list is None:
        for reserve, lv, o, i_ in zip(plan.reserves, work.tolist(),
                                      out_sum.tolist(), in_sum.tolist()):
            reserve._level = lv
            if o:
                reserve.total_transferred_out += o
            if i_:
                reserve.total_transferred_in += i_
    else:
        for reserve, lv, o, i_, ls in zip(plan.reserves, work.tolist(),
                                          out_sum.tolist(),
                                          in_sum.tolist(), lost_list):
            reserve._level = lv
            if o:
                reserve.total_transferred_out += o
            if i_:
                reserve.total_transferred_in += i_
            if ls:
                reserve.total_decayed += ls
    if fraction > 0.0:
        if reclaimed:
            root.total_deposited += reclaimed
        policy.total_reclaimed += reclaimed
    plan._tap_flow_acc += moved
    return float(moved.sum())


def oracle_step(plan, dt):
    """The scalar kernel plus the bookkeeping ``graph.step`` added."""
    moved = scalar_tick(plan, dt)
    if moved is not None:
        plan.graph.vector_steps += 1
        plan.graph.time += dt
    return moved


# -- helpers ---------------------------------------------------------------------


def ledger(plan):
    """Every number a tick writes, as exact bytes."""
    graph = plan.graph
    values = []
    for r in plan.reserves:
        values += [r._level, r.total_transferred_in, r.total_transferred_out,
                   r.total_decayed, r.total_deposited]
    values += [t.total_flowed for t in plan.taps]
    values += [graph.decay_policy.total_reclaimed, graph.time,
               graph.vector_steps]
    return np.array(values).tobytes()


def twins(build, copies=1):
    """``copies`` kernel graphs and as many oracle graphs, all alike."""
    graphs = [build() for _ in range(2 * copies)]
    return graphs[:copies], graphs[copies:]


def seeded_motif(seed, decay=True):
    return lambda: motif_graph(np.random.default_rng(seed), decay)


def rich_motif():
    """A motif graph with every motif, a task0 without an early feed
    (so its sole drain may clamp), and decay on."""
    return motif_graph(np.random.default_rng(22), True)


def plan_of(graph):
    return graph._current_plan()


def set_levels(graph, levels):
    """Write ``levels`` (by reserve name; root and others by default)."""
    for r in plan_of(graph).reserves:
        if r is graph.root:
            r._level = levels.get("root", 900.0)
        else:
            r._level = levels.get(r.name, levels.get("*", 1.0))


def capped_half(graph):
    """Levels with every capped row at half its capacity."""
    return {r.name: 0.5 * r.capacity for r in plan_of(graph).reserves
            if r.capacity is not None and r is not graph.root}


def assert_same_tick(kernel_graph, oracle_graph, dt=DT):
    """One lone kernel tick equals one oracle tick, bit for bit."""
    kplan, oplan = plan_of(kernel_graph), plan_of(oracle_graph)
    before = ledger(kplan)
    got = kplan.execute_tick(dt)
    want = oracle_step(oplan, dt)
    assert (got is None) == (want is None)
    if got is None:
        assert ledger(kplan) == before  # a refusal mutates nothing
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert ledger(kplan) == ledger(oplan)
    return got


# -- a stack of one ---------------------------------------------------------------


class TestStackOfOne:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_random_graphs_tick_like_the_scalar_kernel(self, seed):
        """100 reserves, 200 random taps, decay on, 300 ticks: each
        tick commits or refuses exactly as the oracle does."""
        (kernel, oracle), _, _ = build_random_pair(seed=seed)
        committed = 0
        for _ in range(300):
            if assert_same_tick(kernel, oracle) is None:
                # make progress the way graph.step does on a refusal
                kernel.step_reference(DT)
                oracle.step_reference(DT)
            else:
                committed += 1
        assert committed > 250

    @pytest.mark.parametrize("seed", range(4))
    def test_motif_graphs_at_random_levels(self, seed):
        rng = np.random.default_rng(seed)
        kernels, oracles = twins(seeded_motif(100 + seed))
        names = [r.name for r in plan_of(kernels[0]).reserves
                 if r is not kernels[0].root]
        outcomes = set()
        for _ in range(40):
            levels = {name: float(rng.choice([0.0, -0.5, 1e-4, 1.0, 3.0],
                                             p=[0.1, 0.1, 0.1, 0.35, 0.35]))
                      for name in names}
            for g in kernels + oracles:
                set_levels(g, levels)
            outcomes.add(assert_same_tick(kernels[0], oracles[0]) is None)
        assert outcomes == {True, False}  # both verdicts were exercised

    def test_a_clampable_sole_drain(self):
        kernels, oracles = twins(rich_motif)
        plan = plan_of(kernels[0])
        drain = next(j for j, t in enumerate(plan.taps)
                     if t.name == "task0.drain")
        assert plan.clampable[drain]
        short = 0.25 * plan.rate[drain] * DT
        for g in kernels + oracles:
            set_levels(g, {**capped_half(g), "task0": short})
        assert plan.taps[drain].total_flowed == 0.0
        assert assert_same_tick(kernels[0], oracles[0]) is not None
        # the drain moved what task0 held, not its nominal amount
        assert plan.taps[drain].total_flowed == short

    def test_a_refusal_on_capacity_headroom(self):
        kernels, oracles = twins(rich_motif)
        plan = plan_of(kernels[0])
        assert "full" in [r.name for r in plan.reserves]
        for g in kernels + oracles:
            full = next(r for r in g.reserves if r.name == "full")
            set_levels(g, {**capped_half(g), "full": full.capacity})
        assert assert_same_tick(kernels[0], oracles[0]) is None
        # below the cap the same tick commits
        for g in kernels + oracles:
            set_levels(g, capped_half(g))
        assert assert_same_tick(kernels[0], oracles[0]) is not None

    def test_a_refusal_on_decay_reclaim_into_a_capped_root(self):
        kernels, oracles = twins(rich_motif)
        graphs = kernels + oracles
        for g in graphs:
            g.decay_policy.half_life_s = 1.0  # reclaim outweighs feeds
            # nothing flows into the root during the taps' segments
            set_levels(g, {**capped_half(g), "app.sub": 0.0,
                           "debtor": -1.0})
            g.root.capacity = g.root.level
        assert assert_same_tick(kernels[0], oracles[0]) is None
        # without decay the same tick fits under the cap
        for g in graphs:
            g.decay_policy.enabled = False
        assert assert_same_tick(kernels[0], oracles[0]) is not None

    def test_a_tick_with_nothing_eligible_to_decay(self):
        kernels, oracles = twins(rich_motif)
        for g in kernels + oracles:
            for r in plan_of(g).reserves:
                if r.name != "sink" and r is not g.root:
                    r.decay_exempt = True
            set_levels(g, {**capped_half(g), "sink": -1.0})
        plan = plan_of(kernels[0])
        assert plan.any_decayable  # the sink alone, in debt
        reclaimed = kernels[0].decay_policy.total_reclaimed
        assert assert_same_tick(kernels[0], oracles[0]) is not None
        assert kernels[0].decay_policy.total_reclaimed == reclaimed
        assert all(r.total_decayed == 0.0 for r in plan.reserves)


# -- stacks of many ---------------------------------------------------------------


def stack_levels(graph, row):
    """Row 0: nothing eligible to decay (the sink in debt, every other
    reserve exempt); row 1: a refusal (a full reserve at its cap); the
    rest: ordinary levels that differ by row."""
    levels = capped_half(graph)
    if row == 0:
        levels["sink"] = -1.0
    elif row == 1:
        levels["full"] = next(r.capacity for r in graph.reserves
                              if r.name == "full")
    else:
        levels["*"] = 1.0 + 0.5 * row
        levels["sink"] = 0.25 * row
    return levels


def stack_graphs(copies):
    """Kernel and oracle copies of one motif graph, every reserve but
    the sink decay-exempt, so row 0 of :func:`stack_levels` has nothing
    eligible while the other rows decay their sink."""
    kernels, oracles = twins(rich_motif, copies)
    for g in kernels + oracles:
        for r in plan_of(g).reserves:
            if r.name != "sink" and r is not g.root:
                r.decay_exempt = True
    for row, (k, o) in enumerate(zip(kernels, oracles)):
        for g in (k, o):
            set_levels(g, stack_levels(g, row))
    return kernels, oracles


class TestStacks:
    def test_rows_equal_the_oracle(self):
        kernels, oracles = stack_graphs(4)
        plans = [plan_of(g) for g in kernels]
        before = [ledger(p) for p in plans]
        got = execute_tick_batch(plans, DT)
        want = [oracle_step(plan_of(g), DT) for g in oracles]
        assert [m is None for m in got] == [False, True, False, False]
        for row, (g_got, g_want, plan) in enumerate(zip(got, want, plans)):
            assert (g_got is None) == (g_want is None)
            if g_got is None:
                assert ledger(plan) == before[row]  # refused: untouched
            else:
                assert np.float64(g_got).tobytes() == \
                    np.float64(g_want).tobytes()
            assert ledger(plan) == ledger(plan_of(oracles[row]))
        # the rows past 0 decayed their sink; row 0 had nothing to
        reclaims = [g.decay_policy.total_reclaimed for g in kernels]
        assert reclaims[0] == 0.0 and reclaims[2] > 0.0

    def test_an_all_refused_stack_mutates_nothing(self):
        kernels, _ = twins(rich_motif, 3)
        for g in kernels:
            set_levels(g, stack_levels(g, 1))  # every row at the cap
        plans = [plan_of(g) for g in kernels]
        before = [ledger(p) for p in plans]
        assert execute_tick_batch(plans, DT) == [None, None, None]
        assert [ledger(p) for p in plans] == before


def const_only(graph, keep_sole_drains):
    """Disable every proportional tap (and optionally every clampable
    sole drain): the plan compiles to one constant-only segment."""
    for tap in graph.taps:
        if tap.tap_type is TapType.PROPORTIONAL:
            tap.enabled = False
    if not keep_sole_drains:
        plan = plan_of(graph)
        for tap, clampable in zip(plan.taps, plan.clampable):
            if clampable:
                tap.enabled = False


class TestConstantOnlySegments:
    @pytest.mark.parametrize("sole_drains", [True, False])
    def test_rows_equal_the_oracle(self, sole_drains):
        """Unclamped, one scatter is broadcast to every row; with sole
        drains, each row clamps its own."""
        kernels, oracles = twins(rich_motif, 3)
        for row, (k, o) in enumerate(zip(kernels, oracles)):
            for g in (k, o):
                const_only(g, sole_drains)
                set_levels(g, {**capped_half(g), "*": 1.0 + row,
                               "task0": 1e-5 * row})
        plans = [plan_of(g) for g in kernels]
        ((_, _, mode, has_clamp, _),) = plans[0].segments
        assert mode == _CONST_ONLY and has_clamp == sole_drains
        got = execute_tick_batch(plans, DT)
        want = [oracle_step(plan_of(g), DT) for g in oracles]
        assert None not in got
        for g_got, g_want, k, o in zip(got, want, kernels, oracles):
            assert np.float64(g_got).tobytes() == \
                np.float64(g_want).tobytes()
            assert ledger(plan_of(k)) == ledger(plan_of(o))


class TestLoneAndCohortCalls:
    def test_alternating_calls_on_one_lead_plan(self):
        kernels, oracles = stack_graphs(3)
        plans = [plan_of(g) for g in kernels]
        for round_ in range(6):
            if round_ % 2:
                assert_same_tick(kernels[0], oracles[0])
                assert plans[0]._tick_flat[0] == 3  # cohort entry kept
            else:
                got = execute_tick_batch(plans, DT)
                want = [oracle_step(plan_of(g), DT) for g in oracles]
                assert [m is None for m in got] == \
                    [m is None for m in want]
            for k, o in zip(kernels, oracles):
                assert ledger(plan_of(k)) == ledger(plan_of(o))
        assert plans[0]._tick_flat[0] == 3

    def test_lone_ticks_reach_the_module_kernel(self, monkeypatch):
        """``execute_tick`` calls the module's ``execute_tick_batch``
        (a wrapper installed on the module sees every lone tick)."""
        stacks = []
        batch = flowplan.execute_tick_batch

        def counted(plans, dt):
            stacks.append(len(plans))
            return batch(plans, dt)

        monkeypatch.setattr(flowplan, "execute_tick_batch", counted)
        (graph, _), _, _ = build_random_pair(seed=3, n_reserves=30,
                                             n_taps=60)
        for _ in range(5):
            graph.step(DT)
        assert stacks == [1] * 5
        assert graph.vector_steps + graph.fallback_steps == 5
        assert graph.time == pytest.approx(5 * DT)
