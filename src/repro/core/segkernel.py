"""The switch-location scan kernel and the regime-mode derivation.

Profiling the segmented span engine shows the hot inner loop is not
the linear algebra but the *monitor scan*: for every candidate
segment, every sampled state vector is checked against the regime's
clamp, capacity, debt and saturation monitors, and the first
violating sample seeds the bisection.  This module isolates exactly
that loop so it can be compiled.

The kernel is **transcendental-free by design**: callers precompute
the sampled trajectories (the matrix exponential / phi-function
machinery stays in :mod:`repro.core.spansolver`, shared by both
backends), and the kernel only compares and accumulates in a fixed
order.  Comparisons are exact and the saturation functionals
accumulate term-by-term in array order on both backends, so the
compiled and fallback paths agree **bit-identically** — not merely
within tolerance — which is what the CI numba leg asserts.

Backend selection: numba is optional (it is *not* a dependency of
this package).  When importable, the loop-shaped implementations are
``@njit``-compiled lazily on first use; otherwise — or when the
``CINDER_NO_NUMBA`` environment variable is set — the vectorized
numpy implementations serve.  :data:`BACKEND` reports which one is
active, and the ``*_numpy`` names always expose the fallback for
differential testing.  Only the scan is compiled.

The module also holds the segmented engine's per-segment regime
classification, :func:`derive_modes`.  It runs uncompiled on both
backends: a span tier caches each derived regime under its level
classification, so it runs only when that lookup misses.
"""

from __future__ import annotations

import os
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Tuple

import numpy as np

_numba = None
if not os.environ.get("CINDER_NO_NUMBA"):
    try:  # pragma: no cover - exercised only where numba is installed
        import numba as _numba
    except ImportError:
        _numba = None

#: Which implementation serves :func:`first_hits` / :func:`violated_at`
#: (the scan; :func:`derive_modes` is plain Python on both).
BACKEND = "numba" if _numba is not None else "numpy"


def _sat_values_numpy(states: np.ndarray, sat_ptr: np.ndarray,
                      sat_src: np.ndarray, sat_wts: np.ndarray,
                      sat_c: np.ndarray) -> np.ndarray:
    """Saturation functionals ``c + Σ w·L_src`` over ``states[..., n]``.

    Accumulates term by term in array order — the same order the
    compiled loop uses — so both backends round identically.
    """
    n_sat = sat_c.shape[0]
    out = np.empty(states.shape[:-1] + (n_sat,))
    for m in range(n_sat):
        y = np.full(states.shape[:-1], sat_c[m])
        for t in range(int(sat_ptr[m]), int(sat_ptr[m + 1])):
            y = y + sat_wts[t] * states[..., sat_src[t]]
        out[..., m] = y
    return out


def first_hits_numpy(states: np.ndarray, clamp_rows: np.ndarray,
                     cap_rows: np.ndarray, cap_limits: np.ndarray,
                     debt_rows: np.ndarray, ltol: np.ndarray,
                     sat_ptr: np.ndarray, sat_src: np.ndarray,
                     sat_wts: np.ndarray, sat_c: np.ndarray,
                     sat_lo: np.ndarray, sat_hi: np.ndarray,
                     sat_tol: np.ndarray) -> np.ndarray:
    """First violated sample per device, or -1.

    ``states`` is ``(devices, samples, reserves)``; ``ltol`` is the
    per-device level tolerance.  Monitor semantics (shared contract):

    * clamp rows violate below ``-ltol``;
    * cap rows violate above their per-row limit;
    * debt rows violate above ``-ltol`` (repayment completing);
    * saturation functionals violate outside ``[lo - tol, hi + tol]``.
    """
    g, k, _ = states.shape
    hit = np.zeros((g, k), dtype=bool)
    if clamp_rows.size:
        hit |= (states[:, :, clamp_rows]
                < -ltol[:, None, None]).any(axis=2)
    if cap_rows.size:
        hit |= (states[:, :, cap_rows] > cap_limits).any(axis=2)
    if debt_rows.size:
        hit |= (states[:, :, debt_rows]
                > -ltol[:, None, None]).any(axis=2)
    if sat_c.size:
        y = _sat_values_numpy(states, sat_ptr, sat_src, sat_wts, sat_c)
        hit |= ((y < sat_lo - sat_tol) | (y > sat_hi + sat_tol)).any(axis=2)
    out = np.full(g, -1, dtype=np.int64)
    any_rows = hit.any(axis=1)
    out[any_rows] = hit[any_rows].argmax(axis=1)
    return out


def violated_at_numpy(states: np.ndarray, clamp_rows: np.ndarray,
                      cap_rows: np.ndarray, cap_limits: np.ndarray,
                      debt_rows: np.ndarray, ltol: np.ndarray,
                      sat_ptr: np.ndarray, sat_src: np.ndarray,
                      sat_wts: np.ndarray, sat_c: np.ndarray,
                      sat_lo: np.ndarray, sat_hi: np.ndarray,
                      sat_tol: np.ndarray) -> np.ndarray:
    """Per-device violation of one state vector each (``(g, n)``)."""
    g = states.shape[0]
    hit = np.zeros(g, dtype=bool)
    if clamp_rows.size:
        hit |= (states[:, clamp_rows] < -ltol[:, None]).any(axis=1)
    if cap_rows.size:
        hit |= (states[:, cap_rows] > cap_limits).any(axis=1)
    if debt_rows.size:
        hit |= (states[:, debt_rows] > -ltol[:, None]).any(axis=1)
    if sat_c.size:
        y = _sat_values_numpy(states, sat_ptr, sat_src, sat_wts, sat_c)
        hit |= ((y < sat_lo - sat_tol) | (y > sat_hi + sat_tol)).any(axis=1)
    return hit


def _first_hits_loops(states, clamp_rows, cap_rows, cap_limits,
                      debt_rows, ltol, sat_ptr, sat_src, sat_wts,
                      sat_c, sat_lo, sat_hi, sat_tol):
    """Loop-shaped :func:`first_hits_numpy` (the ``@njit`` source).

    Early-exits per device at the first violated sample; arithmetic
    per monitor is identical to the vectorized fallback (comparisons
    plus in-order accumulation), so results match bit for bit.
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


def _violated_at_loops(states, clamp_rows, cap_rows, cap_limits,
                       debt_rows, ltol, sat_ptr, sat_src, sat_wts,
                       sat_c, sat_lo, sat_hi, sat_tol):
    """Loop-shaped :func:`violated_at_numpy` (the ``@njit`` source)."""
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


if _numba is not None:  # pragma: no cover - exercised on the numba CI leg
    first_hits = _numba.njit(cache=True)(_first_hits_loops)
    violated_at = _numba.njit(cache=True)(_violated_at_loops)
else:
    first_hits = first_hits_numpy
    violated_at = violated_at_numpy

#: Empty saturation-monitor pack (most regimes carry no saturation
#: functionals; sharing the empties avoids per-call allocations).
EMPTY_SAT = (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
             np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0),
             np.zeros(0))


# ---------------------------------------------------------------------------
# regime-mode derivation (uncompiled on both backends)
# ---------------------------------------------------------------------------

# per-reserve regime modes inside one segment
_NORMAL, _DEBT, _EMPTY, _FULL, _HOVER = 0, 1, 2, 3, 4

#: Relative slack on a saturation monitor's flow-rate boundaries (the
#: pass-through functional sits exactly on a boundary at derivation
#: time; the monitor must not re-fire on that float noise).
SAT_RTOL = 1e-9


def _plain_sum(values) -> float:
    """Left-to-right float sum that rounds after every add.

    Builtin :func:`sum` compensates float sums from Python 3.12 on;
    the mode derivation must round the same on every interpreter.
    """
    return reduce(add, values, 0.0)


def derive_modes(lvl: np.ndarray, lam: float, ltol: float, pack: tuple
                 ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray, tuple]]:
    """Classify every reserve into its regime mode, or None.

    Modes: NORMAL (full linear row), DEBT (level below zero — outflows
    and decay off, inflow repays), EMPTY (pinned at zero, inflow
    passed through to its constant drains in creation order), FULL
    (pinned at capacity, inflow rejected at the taps — the energy
    stays in the sources), HOVER (pinned at the cap while draining —
    outflows run at full rate served from the inflow, and the deposit
    taps accept only what the steady per-tick cycle's headroom
    admits).

    Returns ``(mode, eff, hov, pin_loss, fwd)``: ``eff`` is the per-tap
    effective constant rate under the modes (pass-through and
    hover-acceptance distributions folded in), ``hov`` the constant
    effective rate of each proportional drain leaving a hovering
    reserve (``rate * pinned level``), ``pin_loss`` the per-reserve
    constant decay loss of a pinned-at-cap row, and ``fwd`` the
    forwarded pass-through entries ``(tap, cpart, sources, weights,
    tol)`` — the marginal drain of an empty reserve fed by live
    proportional taps, carrying the affine remainder ``cpart +
    Σ wⱼ·Lⱼ(t)`` into its sink.  None marks the residual shapes with
    no supported rewrite; the caller refuses the span.

    A pure function of the levels and a span tier's topology ``pack``
    (``SpanTier._modes_pack``): the plan's tap and reserve arrays as
    Python lists, whose per-element reads and sums cost far less on
    floats than on numpy scalars, then the root row, whether any row
    decays, and the per-reserve tap adjacency.  Every sum is a
    :func:`_plain_sum` in tap order, so the result does not depend on
    the interpreter's builtin ``sum``.
    """
    (src, snk, rate, const, cap, decay_mask, finite_cap, root,
     any_decayable, const_into, const_from, prop_into, prop_from) = pack
    n = len(cap)
    m = len(rate)
    boundary = 4.0 * ltol
    lvl = lvl.tolist()
    # dust was clamped by the caller
    mode = [_DEBT if x < 0.0 else _NORMAL for x in lvl]
    hov = [0.0] * m
    pin_loss = [0.0] * n
    hover_rows: List[int] = []

    # -- capacity pins: at the cap with live inflow --
    for i in finite_cap:
        if mode[i] != _NORMAL:
            continue
        band = max(1e-9, 1e-11 * cap[i])
        if lvl[i] < cap[i] - 2.0 * band:
            continue
        c_in_rate = _plain_sum([rate[j] for j in const_into.get(i, ())
                                if mode[src[j]] != _DEBT])
        live_prop_in = any(mode[src[j]] == _NORMAL
                           for j in prop_into.get(i, ()))
        decay_in = (i == root and lam > 0.0 and any_decayable)
        if c_in_rate <= 0.0 and not live_prop_in and not decay_in:
            continue  # nothing arrives: normal dynamics are exact
        drains = bool(const_from.get(i)) or bool(prop_from.get(i))
        decays = lam > 0.0 and decay_mask[i]
        if not drains and not decays:
            mode[i] = _FULL
            continue
        # Draining (or decaying) at the cap.  Constant inflow that
        # sustains the outflow pins the level — hover; otherwise
        # the level descends and normal dynamics are exact (the
        # descent-safe exclusion in SpanTier._build_regime keeps the
        # cap monitor from re-firing inside the band).
        if live_prop_in:
            # Time-varying inflow into a binding capacity has no
            # constant rewrite; per-tick execution handles it.
            return None
        out_rate = _plain_sum([rate[j] for j in const_from.get(i, ())])
        out_rate += _plain_sum(
            [rate[j] for j in prop_from.get(i, ())]) * lvl[i]
        if decays:
            out_rate += lam * lvl[i]
        if c_in_rate >= out_rate * (1.0 - SAT_RTOL):
            mode[i] = _HOVER
            hover_rows.append(i)
            if decays:
                pin_loss[i] = lam * lvl[i]

    # -- effective constant rates under the pins --
    eff = [r if c and mode[s] != _DEBT and mode[k] != _FULL else 0.0
           for r, c, s, k in zip(rate, const, src, snk)]

    # -- hover acceptance: the steady per-tick cycle --
    # At the pinned level every tick repeats the same pattern:
    # drains (and decay, at the very end of the tick) open
    # headroom, deposits consume it greedily in creation order,
    # and whatever survives the cycle is the carry the next tick
    # starts from.  The steady carry solves accepted(carry) ==
    # produced; accepted is monotone in the carry, so bisect.
    for i in hover_rows:
        taps_i = sorted(set(list(const_from.get(i, ()))
                            + list(prop_from.get(i, ()))
                            + list(const_into.get(i, ()))))
        for j in prop_from.get(i, ()):
            if mode[snk[j]] != _FULL:
                hov[j] = rate[j] * lvl[i]
        produced = (_plain_sum([eff[j] for j in const_from.get(i, ())])
                    + _plain_sum([hov[j]
                                  for j in prop_from.get(i, ())])
                    + pin_loss[i])

        def _accepted(carry: float, i: int = i,
                      taps_i: List[int] = taps_i) -> float:
            h = carry
            took = 0.0
            for j in taps_i:
                if src[j] == i:
                    h += eff[j] if const[j] else hov[j]
                elif eff[j] > 0.0:
                    a = min(eff[j], h)
                    took += a
                    h -= a
            return took

        hi_c = produced + _plain_sum(
            [eff[j] for j in const_into.get(i, ())])
        lo_c = 0.0
        if _accepted(hi_c) < produced * (1.0 - SAT_RTOL):
            return None  # deposits cannot sustain the hover
        for _ in range(60):
            mid = 0.5 * (lo_c + hi_c)
            if _accepted(mid) >= produced:
                hi_c = mid
            else:
                lo_c = mid
        h = hi_c
        for j in taps_i:
            if src[j] == i:
                h += eff[j] if const[j] else hov[j]
            elif eff[j] > 0.0:
                a = min(eff[j], h)
                eff[j] = a
                h -= a

    # -- empty pins: fixpoint over the pass-through distribution --
    # A reserve at zero whose constant drains outrun its inflow
    # sits pinned: each tick deposits arrive first (creation
    # order) and the drains clamp to them.  Effective drain rates
    # only shrink as upstream reserves pin, so the EMPTY set grows
    # monotonically and the loop settles within n passes.  Live
    # proportional inflow makes the pass-through time-varying: the
    # fully-fed prefix of drains still runs at nominal rate, and
    # one *marginal* drain carries the affine remainder (a ``fwd``
    # entry; its saturation monitor ends the segment if the
    # allocation pattern would change).
    fwd_map: Dict[int, tuple] = {}
    candidates = [i for i in range(n)
                  if i != root and mode[i] == _NORMAL
                  and lvl[i] <= boundary and const_from.get(i)]
    for _ in range(n + 2):
        changed = False
        for i in candidates:
            if mode[i] != _NORMAL and mode[i] != _EMPTY:
                continue
            drains = [j for j in const_from.get(i, ())
                      if mode[snk[j]] != _FULL]
            out_rate = _plain_sum([rate[j] for j in drains])
            if out_rate <= 0.0:
                continue
            c_in = _plain_sum([eff[j] for j in const_into.get(i, ())])
            c_in += _plain_sum([hov[j] for j in prop_into.get(i, ())
                                if mode[src[j]] == _HOVER])
            live_prop = [j for j in prop_into.get(i, ())
                         if mode[src[j]] == _NORMAL]
            p_in = _plain_sum([rate[j] * max(0.0, lvl[src[j]])
                               for j in live_prop])
            if c_in + p_in >= out_rate - 1e-15:
                if mode[i] == _EMPTY:
                    mode[i] = _NORMAL
                    changed = True
                if fwd_map.pop(i, None) is not None:
                    changed = True
                for j in drains:
                    if eff[j] != rate[j]:
                        eff[j] = rate[j]
                        changed = True
                continue
            if mode[i] != _EMPTY:
                mode[i] = _EMPTY
                changed = True
            if not live_prop:
                if fwd_map.pop(i, None) is not None:
                    changed = True
                remainder = c_in
                for j in drains:
                    e = min(remainder, rate[j])
                    if eff[j] != e:
                        eff[j] = e
                        remainder -= e
                        changed = True
                    else:
                        remainder -= e
                continue
            # Forwarded pass-through: prefix at nominal rate, one
            # marginal drain carries ``cpart + Σ w·L_src(t)``.
            if any(rate[j] > 0.0 for j in prop_from.get(i, ())):
                # A proportional drain leaving the pinned row flows
                # O(tick) in the reference loop (each tick's deposit
                # lands before the drain reads the level), which no
                # tick-size-independent closed form reproduces at
                # figure tolerance.  Residual refusal.
                return None
            i0 = c_in + p_in
            r_prev = 0.0
            marginal = -1
            for j in drains:
                if marginal < 0 and r_prev + rate[j] <= i0:
                    if eff[j] != rate[j]:
                        eff[j] = rate[j]
                        changed = True
                    r_prev += rate[j]
                else:
                    if marginal < 0:
                        marginal = j
                    if eff[j] != 0.0:
                        eff[j] = 0.0
                        changed = True
            srcs = tuple(src[j] for j in live_prop)
            wts = tuple(rate[j] for j in live_prop)
            tol = (SAT_RTOL * max(1.0, rate[marginal])
                   + 4.0 * ltol * sum(wts))
            entry = (marginal, float(c_in - r_prev), srcs, wts,
                     float(tol))
            if fwd_map.get(i) != entry:
                fwd_map[i] = entry
                changed = True
        if not changed:
            break
    else:
        return None  # pass-through cycle did not settle
    if mode[root] != _NORMAL:
        return None  # a non-normal battery has no rewrite

    # -- post-validation of the level-dependent pins --
    for j, cpart, srcs, wts, tol in fwd_map.values():
        if mode[snk[j]] != _NORMAL:
            return None  # forwarded-into-pinned cascade
        if any(mode[s] != _NORMAL for s in srcs):
            return None  # settled modes invalidated the forwarding
    for i in hover_rows:
        for j in const_into.get(i, ()):
            if eff[j] <= 0.0:
                continue
            s = src[j]
            if mode[s] != _NORMAL or lvl[s] <= boundary:
                return None  # acceptance split needs a firm source
        for j in (list(const_from.get(i, ()))
                  + list(prop_from.get(i, ()))):
            if mode[snk[j]] == _HOVER:
                return None  # hover-to-hover adjacency
    return (np.array(mode, dtype=np.int8), np.array(eff, dtype=float),
            np.array(hov, dtype=float), np.array(pin_loss, dtype=float),
            tuple(sorted(fwd_map.values())))
