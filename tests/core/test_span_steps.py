"""One copy of each span-tier step, checked against the scalar twins.

:meth:`SpanTier.execute` and its segment loop run the span tier's
stacked steps on a stack of one.  Test-local copies of the scalar code
those steps replaced serve as oracles here, and the contracts are bit
for bit:

* :func:`_locate_switches` on one row finds the instant and the
  crossing masks of the scalar locator (grid scan, bisection, crossing
  marks), on eigen and on Padé regimes;
* :func:`_debt_boundary` returns the scalar certify-first candidate
  and its crossing marks, in any stack;
* :meth:`SpanTier.execute` on diagonal, coupled, capped and decaying
  states commits what the scalar tiers committed — levels, transfer
  and decay totals, per-tap flows and the return value — and sends the
  states they refused to the segmented engine;
* an hour of a switching device ends where the scalar one-device path
  (tiers, segment loop, segment flows on the one-row integral, and
  commit) ends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import segkernel, spansolver
from repro.core.spansolver import (EVENT_SAMPLES, NEGATIVE_LEVEL_SLACK,
                                   SpanTier)

from .test_regime_memo import (drained_graph, fresh_dynamics, ltol_of,
                               motif_graph, outcome, random_levels,
                               reference_clamp_ok, switching_device)
from .test_span_caches import reference_state_integral


# -- oracles: the scalar twins of the stacked steps ---------------------------


def scalar_states(system, lvl, ts):
    """``L(t)`` of a regime on a uniform grid (one row)."""
    if system.eig is not None:
        w, v, vinv = system.eig
        z = np.multiply.outer(ts, w)
        ez = np.exp(z)
        return ((ez * (vinv @ lvl) + ts[:, None]
                 * (spansolver._phi1(z, ez) * (vinv @ system.b)))
                @ v.T).real
    n = len(lvl)
    step = spansolver._expm(spansolver._augmented(system.a, system.b)
                            * (ts[1] - ts[0]))
    state = np.concatenate([lvl, [1.0], np.zeros(n)])
    out = np.empty((len(ts), n))
    for k in range(len(ts)):
        state = step @ state
        out[k] = state[:n]
    return out


def scalar_state_at(system, lvl, t):
    """``L(t)`` of a regime at one instant (one row)."""
    if system.eig is not None:
        w, v, vinv = system.eig
        z = w * t
        ez = np.exp(z)
        return (v @ (ez * (vinv @ lvl) + t * (spansolver._phi1(z, ez)
                                              * (vinv @ system.b)))).real
    state = np.concatenate([lvl, [1.0], np.zeros(len(lvl))])
    return (spansolver._expm(spansolver._augmented(system.a, system.b) * t)
            @ state)[:len(lvl)]


def scalar_integral(system, lvl, t):
    """``J(t) = ∫_0^t L dt`` of a linear system from one level vector."""
    if system.eig is not None:
        return reference_state_integral(system.eig, system.b, lvl, t)[1]
    n = len(lvl)
    state = np.concatenate([lvl, [1.0], np.zeros(n)])
    return (spansolver._expm(spansolver._augmented(system.a, system.b) * t)
            @ state)[n + 1:]


def scalar_violated(regime, state, ltol):
    return bool(segkernel.violated_at(
        state[None, :], regime.clamp_rows, regime.cap_rows,
        regime.cap_limits, regime.debt_rows, np.array([ltol]),
        *regime.sat)[0])


def scalar_crossing_marks(regime, state_hi, ltol):
    crossed = np.zeros(state_hi.shape[0], dtype=bool)
    if regime.clamp_rows.size:
        rows = regime.clamp_rows
        crossed[rows[state_hi[rows] < -ltol]] = True
    if regime.cap_rows.size:
        rows = regime.cap_rows
        crossed[rows[state_hi[rows] > regime.cap_limits]] = True
    if regime.debt_rows.size:
        rows = regime.debt_rows
        crossed[rows[state_hi[rows] > -ltol]] = True
    sat_ptr, sat_src, sat_wts, sat_c, sat_lo, sat_hi, sat_tol = regime.sat
    crossed_sat = np.zeros(sat_c.shape[0], dtype=bool)
    for m_i in range(sat_c.shape[0]):
        y = sat_c[m_i]
        for ti in range(int(sat_ptr[m_i]), int(sat_ptr[m_i + 1])):
            y = y + sat_wts[ti] * state_hi[sat_src[ti]]
        if (y < sat_lo[m_i] - sat_tol[m_i]
                or y > sat_hi[m_i] + sat_tol[m_i]):
            crossed_sat[m_i] = True
    return crossed, crossed_sat


def scalar_first_switch(regime, lvl, span, ltol):
    """``(instant, crossed, crossed_sat)`` of the earliest switch, or
    None when no sampled condition fires."""
    if not regime.has_monitors:
        return None
    ts = np.linspace(span / EVENT_SAMPLES, span, EVENT_SAMPLES)
    first = int(segkernel.first_hits(
        scalar_states(regime.system, lvl, ts)[None, :, :],
        regime.clamp_rows, regime.cap_rows, regime.cap_limits,
        regime.debt_rows, np.array([ltol]), *regime.sat)[0])
    if first < 0:
        return None
    lo = 0.0 if first == 0 else float(ts[first - 1])
    hi = float(ts[first])
    floor = max(1e-12 * span, 1e-15)
    for _ in range(64):
        if hi - lo <= floor:
            break
        mid = 0.5 * (lo + hi)
        if scalar_violated(regime, scalar_state_at(regime.system, lvl, mid),
                           ltol):
            hi = mid
        else:
            lo = mid
    crossed, crossed_sat = scalar_crossing_marks(
        regime, scalar_state_at(regime.system, lvl, hi), ltol)
    return lo, crossed, crossed_sat


def scalar_debt_boundary(regime, lvl, remaining, ltol):
    """``(candidate, early, crossed)``, or None when a debt row takes
    proportional inflow."""
    if regime.debt_rows.size and not bool(regime.debt_linear.all()):
        return None
    t_cand = remaining
    for r_i in range(regime.debt_rows.shape[0]):
        slope = float(regime.debt_slope[r_i])
        if slope > 0.0:
            t_star = (-ltol - lvl[int(regime.debt_rows[r_i])]) / slope
            if t_star < t_cand:
                t_cand = t_star
    crossed = np.zeros(lvl.size, dtype=bool)
    if t_cand < remaining:
        for r_i in range(regime.debt_rows.shape[0]):
            slope = float(regime.debt_slope[r_i])
            if slope <= 0.0:
                continue
            row = int(regime.debt_rows[r_i])
            if (-ltol - lvl[row]) / slope <= t_cand * (1.0 + 1e-12):
                crossed[row] = True
    return t_cand, t_cand < remaining, crossed


def scalar_diagonal(tier, span, lam, lvl, f, linear):
    plan = tier.plan
    n = len(plan.reserves)
    decay_f = np.exp(-f * span)
    net_const = tier.const_in - tier.const_out
    steady = np.divide(net_const, f, out=np.zeros(n), where=linear)
    end = np.where(linear, steady + (lvl - steady) * decay_f,
                   lvl + net_const * span)
    drain = np.maximum(np.where(linear, lvl - end + net_const * span, 0.0),
                       0.0)
    moved = np.zeros(len(plan.taps))
    if plan.const_taps.size:
        moved[plan.const_taps] = plan.rate[plan.const_taps] * span
    if plan.prop_taps.size:
        psrc = plan.src[plan.prop_taps]
        share = np.divide(plan.rate[plan.prop_taps], f[psrc],
                          out=np.zeros(plan.prop_taps.size),
                          where=f[psrc] > 0)
        moved[plan.prop_taps] = drain[psrc] * share
        end += np.bincount(plan.snk[plan.prop_taps],
                           weights=moved[plan.prop_taps], minlength=n)
    lost = np.zeros(n)
    reclaimed = 0.0
    if lam > 0.0 and plan.any_decayable:
        lost = np.where(linear & plan.decay_mask,
                        drain * np.divide(lam, f, out=np.zeros(n),
                                          where=linear), 0.0)
        reclaimed = float(lost.sum())
        end[plan.root_index] += reclaimed
    return end, moved, lost, reclaimed


def scalar_coupled(tier, span, lam, lvl, f, linear):
    plan = tier.plan
    n = len(plan.reserves)
    if plan.finite_cap.size:
        cap_idx = plan.finite_cap
        psrc = plan.src[plan.prop_taps]
        psnk = plan.snk[plan.prop_taps]
        prate = plan.rate[plan.prop_taps]
        best = np.full(n, float(lvl.sum()))
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
            return None
    if not reference_clamp_ok(tier, lvl, span, f, linear):
        return None
    system = spansolver.LinearSystem(
        *spansolver._coupled_matrices(tier, lam), {})
    integ = np.maximum(scalar_integral(system, lvl, span), 0.0)
    moved = np.zeros(len(plan.taps))
    if plan.const_taps.size:
        moved[plan.const_taps] = plan.rate[plan.const_taps] * span
    if plan.prop_taps.size:
        psrc = plan.src[plan.prop_taps]
        moved[plan.prop_taps] = plan.rate[plan.prop_taps] * integ[psrc]
    lost = np.zeros(n)
    reclaimed = 0.0
    if lam > 0.0 and plan.any_decayable:
        lost = np.where(plan.decay_mask, lam * integ, 0.0)
        reclaimed = float(lost.sum())
    end = (lvl + np.bincount(plan.snk, weights=moved, minlength=n)
           - np.bincount(plan.src, weights=moved, minlength=n) - lost)
    end[plan.root_index] += reclaimed
    neg = np.minimum(end, 0.0)
    if float(neg.sum()) < -NEGATIVE_LEVEL_SLACK:
        return None
    if neg.any():
        end -= neg
        end[plan.root_index] += float(neg.sum())
    return end, moved, lost, reclaimed


def scalar_commit(tier, end, moved, lost, reclaimed):
    plan = tier.plan
    n = len(plan.reserves)
    in_sum = np.bincount(plan.snk, weights=moved, minlength=n)
    out_sum = np.bincount(plan.src, weights=moved, minlength=n)
    for reserve, lv, o, i_, ls in zip(plan.reserves, end.tolist(),
                                      out_sum.tolist(), in_sum.tolist(),
                                      lost.tolist()):
        reserve._level = lv
        if o:
            reserve.total_transferred_out += o
        if i_:
            reserve.total_transferred_in += i_
        if ls:
            reserve.total_decayed += ls
    if reclaimed:
        plan.graph.root.total_deposited += reclaimed
        plan.graph.decay_policy.total_reclaimed += reclaimed
    if plan.owns_slots:
        plan._tap_flow_acc += moved
    else:
        for j in np.flatnonzero(moved):
            tap = plan.taps[j]
            tap.total_flowed = tap.total_flowed + moved[j]
    return float(moved.sum())


def scalar_integrate_segment(tier, regime, lvl, t, lam):
    """One segment's flows, on the one-row integral (or None)."""
    plan = tier.plan
    n = len(plan.reserves)
    integ = np.maximum(scalar_integral(regime.system, lvl, t), 0.0)
    moved = np.zeros(len(plan.taps))
    if regime.const_idx.size:
        moved[regime.const_idx] = regime.eff[regime.const_idx] * t
    if regime.prop_idx.size:
        moved[regime.prop_idx] = regime.prop_rate * integ[regime.prop_src]
    if regime.hov_idx.size:
        moved[regime.hov_idx] = regime.hov_rate * t
    for j, cpart, fsrc, fwts in regime.fwd:
        moved[j] = cpart * t + float(fwts @ integ[fsrc])
    lost = np.zeros(n)
    reclaimed = 0.0
    if lam > 0.0 and regime.decay_rows.size:
        lost[regime.decay_rows] = lam * integ[regime.decay_rows]
    if regime.pin_rows.size:
        lost[regime.pin_rows] = regime.pin_rates * t
    if lost.any():
        reclaimed = float(lost.sum())
    end = (lvl
           + np.bincount(plan.snk, weights=moved, minlength=n)
           - np.bincount(plan.src, weights=moved, minlength=n)
           - lost)
    end[plan.root_index] += reclaimed
    neg = np.minimum(end, 0.0)
    neg[regime.mode == spansolver._DEBT] = 0.0
    if float(neg.sum()) < -NEGATIVE_LEVEL_SLACK:
        return None
    return end, moved, lost, reclaimed


def scalar_tiers(tier, span, lam, lvl):
    """The single-regime tiers' committed flow, or None on refusal
    (the segmented engine's turn)."""
    if np.any(lvl < 0.0):
        return None
    f, linear, coupled, cap_may_bind = fresh_dynamics(tier, lam)
    if coupled:
        solved = scalar_coupled(tier, span, lam, lvl, f, linear)
    elif cap_may_bind or not reference_clamp_ok(tier, lvl, span, f,
                                                linear):
        return None
    else:
        solved = scalar_diagonal(tier, span, lam, lvl, f, linear)
    return None if solved is None else scalar_commit(tier, *solved)


def scalar_segmented(tier, span, lam, lvl):
    """The one-device segment loop over the scalar steps."""
    plan = tier.plan
    n = len(plan.reserves)
    root = plan.root_index
    lvl = lvl.copy()
    ltol = 1e-11 * max(1.0, float(np.abs(lvl).max()))

    def absorb_dust():
        dust = (lvl < 0.0) & (lvl >= -4.0 * ltol)
        if dust.any():
            lvl[root] += float(lvl[dust].sum())
            lvl[dust] = 0.0

    def certify(regime, t, crossed, crossed_sat):
        return bool(regime.certify_batch(
            lvl[None, :], np.array([t]), np.array([ltol]),
            crossed[None, :], crossed_sat[None, :])[0])

    moved = np.zeros(len(plan.taps))
    lost = np.zeros(n)
    reclaimed = 0.0
    remaining = float(span)
    segments = 0
    min_seg = max(1e-12, 1e-10 * span)
    while remaining > 1e-9 * span:
        if segments >= spansolver.MAX_SEGMENTS:
            return None
        absorb_dust()
        regime = tier._regime_for(lvl, lam, ltol)
        if regime is None:
            return None
        no_sat = np.zeros(regime.sat[3].shape[0], dtype=bool)
        seg = None
        boundary = scalar_debt_boundary(regime, lvl, remaining, ltol)
        if boundary is not None:
            t_cand, early, crossed = boundary
            if t_cand >= min_seg and certify(regime, t_cand, crossed, no_sat):
                seg = (t_cand, early)
        if seg is None:
            switch = scalar_first_switch(regime, lvl, remaining, ltol)
            located = switch is not None
            if not located:
                switch = (remaining, np.zeros(n, dtype=bool), no_sat)
            if switch[0] < min_seg or not certify(regime, *switch):
                return None
            seg = (switch[0], located)
        step = scalar_integrate_segment(tier, regime, lvl, seg[0], lam)
        if step is None:
            return None
        lvl, seg_moved, seg_lost, seg_reclaimed = step
        moved += seg_moved
        lost += seg_lost
        reclaimed += seg_reclaimed
        segments += 1
        remaining = remaining - seg[0] if seg[1] else 0.0
    if segments == 0:
        return 0.0
    absorb_dust()
    graph = plan.graph
    graph.span_segments += segments
    graph.span_switches += segments - 1
    tier.segmented_solves += 1
    return scalar_commit(tier, lvl, moved, lost, reclaimed)


def scalar_execute(tier, span):
    """The one-device span path, scalar step by scalar step."""
    plan = tier.plan
    policy = plan.graph.decay_policy
    lam = policy.lam if policy.enabled else 0.0
    lvl = plan._gather_levels()
    result = scalar_tiers(tier, span, lam, lvl)
    if result is None:
        result = scalar_segmented(tier, span, lam, lvl)
    return result


# -- helpers ------------------------------------------------------------------


def twins(build, seed, decay):
    """Two identical graphs from one generator seed."""
    return [build(np.random.default_rng(seed), decay) for _ in range(2)]


def set_levels(graph, lvl):
    for reserve, x in zip(graph.span_plan_handle().reserves, lvl.tolist()):
        reserve._level = x


def books(graph):
    """Every level, total and tap flow of a graph, as exact bytes."""
    values = [graph.root.total_deposited,
              graph.decay_policy.total_reclaimed]
    for r in graph.reserves:
        values += [r.level, r.total_transferred_in,
                   r.total_transferred_out, r.total_decayed]
    values += [t.total_flowed for t in graph.taps]
    return np.array(values).tobytes()


def solvable_levels(tier, rng):
    """Levels the single-regime tiers often solve: mostly full rows,
    some near-empty or empty ones, capped rows below their cap."""
    plan = tier.plan
    n = len(plan.reserves)
    lvl = rng.uniform(0.5, 5.0, size=n)
    low = rng.random(n) < 0.2
    lvl[low] = rng.choice([0.0, 1e-3], size=int(low.sum()))
    cap = plan.finite_cap
    lvl[cap] = rng.uniform(0.3, 1.0, size=cap.size) * plan.capacity[cap]
    lvl[int(plan.root_index)] = float(rng.uniform(500.0, 1000.0))
    return lvl


def regimes_and_states(seed, count):
    """``(regime, levels, ltol)`` over random motif and drained graphs."""
    rng = np.random.default_rng(seed)
    out = []
    for graph_i in range(count):
        build = motif_graph if graph_i % 2 else drained_graph
        decay = bool(graph_i % 3 == 0)
        g = build(rng, decay)
        lam = g.decay_policy.lam if decay else 0.0
        tier = g.span_plan_handle().span_tier
        for _ in range(12):
            lvl = random_levels(tier, rng)
            ltol = ltol_of(lvl)
            dust = (lvl < 0.0) & (lvl >= -4.0 * ltol)
            lvl[int(tier.plan.root_index)] += float(lvl[dust].sum())
            lvl[dust] = 0.0
            regime = tier._regime_for(lvl, lam, ltol)
            if regime is not None:
                out.append((regime, lvl, ltol))
    return out


def no_eig(monkeypatch):
    """Every propagator and coupled system takes the Padé path."""
    monkeypatch.setattr(spansolver, "_trusted_eig", lambda a: None)


# -- the switch locator -------------------------------------------------------


class TestLocateSwitches:
    @pytest.mark.parametrize("dense", [False, True])
    def test_one_row_equals_the_scalar_locator(self, dense, monkeypatch):
        if dense:
            no_eig(monkeypatch)
        rng = np.random.default_rng(41 + dense)
        hits = misses = 0
        for regime, lvl, ltol in regimes_and_states(7 + dense, 24):
            assert (regime.system.eig is None) == dense
            for rem in (0.5, 5.0, 30.0, 120.0 * float(rng.uniform(0.5, 1))):
                want = scalar_first_switch(regime, lvl, rem, ltol)
                instant, located, crossed, crossed_sat = \
                    spansolver._locate_switches(
                        regime, lvl[None, :], np.array([rem]),
                        np.array([ltol]))
                if want is None:
                    misses += 1
                    assert not located[0]
                    assert instant[0] == rem
                    assert not crossed.any() and not crossed_sat.any()
                    continue
                hits += 1
                assert located[0]
                assert instant[:1].tobytes() == np.array(
                    [want[0]]).tobytes()
                assert crossed[0].tolist() == want[1].tolist()
                assert crossed_sat[0].tolist() == want[2].tolist()
        assert hits > 20 and misses > 20


# -- the certify-first boundary -----------------------------------------------


class TestDebtBoundary:
    def test_rows_equal_the_scalar_candidate(self):
        rng = np.random.default_rng(5)
        seen_early = seen_debt = 0
        for regime, lvl, ltol in regimes_and_states(11, 30):
            rem = float(rng.choice([0.5, 5.0, 60.0, 600.0]))
            # a repayment rate near the float minimum never repays: both
            # sides overflow its crossing time to inf
            with np.errstate(over="ignore"):
                want = scalar_debt_boundary(regime, lvl, rem, ltol)
                # the same row inside a stack of three must not change
                stack = np.stack([lvl, lvl * 0.5, lvl])
                got = spansolver._debt_boundary(
                    regime, stack, np.array([rem, rem * 2.0, rem]),
                    np.full(3, ltol))
            if want is None:
                assert got is None
                continue
            seen_debt += int(regime.debt_rows.size > 0)
            cand, early, crossed = got
            for i in (0, 2):
                assert cand[i:i + 1].tobytes() == np.array(
                    [want[0]]).tobytes()
                assert bool(early[i]) == want[1]
                assert crossed[i].tolist() == want[2].tolist()
            seen_early += int(want[1])
        assert seen_early > 0 and seen_debt > seen_early

    def test_a_crossing_at_the_span_end_is_not_early(self):
        """A debt row crossing exactly at ``rem`` (or within its
        relative slack beyond it) marks nothing — the candidate is the
        span end itself — even when another row of the stack crosses
        early."""
        for regime, lvl, ltol in regimes_and_states(11, 30):
            slopes = [(int(r), float(s)) for r, s in
                      zip(regime.debt_rows, regime.debt_slope) if s > 0]
            if not slopes or not regime.debt_linear.all():
                continue
            row, slope = slopes[0]
            sooner = lvl.copy()
            sooner[row] *= 0.5  # half the debt: repaid well before rem
            t_star = (-ltol - lvl[row]) / slope
            for rem in (t_star, t_star * (1.0 - 1e-13)):
                cand, early, crossed = spansolver._debt_boundary(
                    regime, np.stack([lvl, sooner]), np.array([rem, rem]),
                    np.full(2, ltol))
                for i, levels in enumerate((lvl, sooner)):
                    want = scalar_debt_boundary(regime, levels, rem, ltol)
                    assert cand[i:i + 1].tobytes() == np.array(
                        [want[0]]).tobytes()
                    assert bool(early[i]) == want[1]
                    assert crossed[i].tolist() == want[2].tolist()
                assert not early[0] and early[1]
                assert not crossed[0].any() and crossed[1, row]
            return
        pytest.fail("no linear debt regime")


# -- the single-regime tiers and the commit -----------------------------------


class TestSingleRegime:
    @pytest.mark.parametrize("dense", [False, True])
    def test_execute_commits_what_the_scalar_tiers_did(self, dense,
                                                       monkeypatch):
        if dense:
            no_eig(monkeypatch)
        rng = np.random.default_rng(2026 + dense)
        kinds = {"diagonal": 0, "coupled": 0, "capped": 0, "decaying": 0,
                 "refused": 0, "cap refused": 0}
        for case in range(120):
            build = motif_graph if case % 2 else drained_graph
            decay = bool(case % 3 == 0)
            g_want, g_got = twins(build, 900 + case, decay)
            want_tier = g_want.span_plan_handle().span_tier
            got_tier = g_got.span_plan_handle().span_tier
            lam = g_want.decay_policy.lam if decay else 0.0
            f, linear, coupled = fresh_dynamics(want_tier, lam)[:3]
            lvl = solvable_levels(want_tier, rng)
            span = float(rng.choice([0.02, 1.0, 10.0, 60.0]))
            set_levels(g_want, lvl)
            set_levels(g_got, lvl)
            want = scalar_tiers(want_tier, span, lam, lvl)
            got = got_tier.execute(span)
            single = got_tier.diagonal_solves + got_tier.coupled_solves
            plan = want_tier.plan
            if want is None:
                # the segmented engine's turn (which may refuse too)
                assert single == 0
                assert got is None or got_tier.segmented_solves == 1
                kinds["refused"] += 1
                # a coupled refusal the clamp bound passes: capacity
                kinds["cap refused"] += int(
                    coupled and plan.finite_cap.size > 0
                    and reference_clamp_ok(want_tier, lvl, span, f, linear))
                continue
            assert got_tier.coupled_solves == int(coupled)
            assert single == 1
            assert np.array([got]).tobytes() == np.array([want]).tobytes()
            assert books(g_got) == books(g_want)
            kinds["coupled" if coupled else "diagonal"] += 1
            kinds["capped"] += int(plan.finite_cap.size > 0)
            kinds["decaying"] += int(lam > 0.0 and plan.any_decayable)
        assert min(kinds.values()) > 0, sorted(kinds.items())


# -- end to end ---------------------------------------------------------------


class TestOneDevicePath:
    def test_an_hour_matches_the_scalar_steps(self, monkeypatch):
        fast = switching_device()
        for _ in range(60):
            fast.run(60.0)
        monkeypatch.setattr(SpanTier, "execute", scalar_execute)
        slow = switching_device()
        for _ in range(60):
            slow.run(60.0)
        assert outcome([fast]) == outcome([slow])
        assert fast.graph.span_segments == slow.graph.span_segments
        assert fast.graph.span_segments > 3000
        assert fast.graph.conservation_error() < 1e-6
