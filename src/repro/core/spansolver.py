"""The span tier: closed-form integration of event-free spans.

:class:`~repro.core.flowplan.FlowPlan` owns the *tick kernel* — one
vectorized batch round, exactly equivalent to sequential per-object
firing.  This module owns the other execution mode: integrating the
continuous dynamics of a whole event-free span in one shot (the
engine's idle fast-forward).  The two tiers share the compiled
topology snapshot but solve different problems, so they live in
different files.

Per reserve the continuous dynamics are linear::

    L' = A @ L + b

where ``b`` collects the constant taps (``const_in - const_out``) and
``A`` collects everything proportional: each proportional tap of rate
``f`` from reserve ``s`` to ``k`` contributes ``-f`` to ``A[s, s]``
and ``+f`` to ``A[k, s]``, and the global decay contributes ``-lam``
to every non-exempt diagonal with ``+lam`` routed to the root's row.

Two solvers, picked per call:

* **diagonal** — when no proportional tap feeds a reserve that itself
  drains proportionally (``A`` is effectively diagonal after dropping
  rows that only *receive*), each reserve solves independently:
  ``L(t) = steady + (L0 - steady) * exp(-F t)``.  It is the fast
  tier — a few numpy vector ops with no linear algebra.
* **coupled** — chained topologies (the paper's subdivision trees,
  ``clone_reserve`` backpressure, netd/GPS reserve trees) make ``A``
  genuinely triangular-or-worse.  The system is integrated with a
  matrix exponential: an eigendecomposition of ``A`` when it is
  well-conditioned (one factorization per topology epoch, then each
  span is a couple of matrix-vector products), falling back to
  scaling-and-squaring Padé on the augmented matrix when ``A`` is
  defective (equal-rate chains produce Jordan blocks) or its
  eigenbasis is ill-conditioned.  Per-reserve *time integrals*
  ``J = ∫ L dt`` come out of the same solve (phi-functions on the
  eigenvalue path, state augmentation on the Padé path) and give every
  proportional tap's exact integrated flow ``rate * J[src]`` — levels
  are then committed by **mass balance** from those flows, so
  conservation is exact by construction no matter what the linear
  algebra rounded.

The dynamics are only *piecewise* linear in time: a constant drain
clamping on an empty reserve, a finite capacity binding, and a debt
level crossing zero (the ``max(L, 0)`` nonlinearity) each switch the
system to a different linear regime at one discrete instant.  Those
used to be refusals — the whole span fell back to tick-by-tick.  The
**segmented engine** now handles them: when the single-regime bounds
fail, the solver locates the earliest switching instant inside the
span (sampling the closed-form trajectory, then bisecting on the
propagator — the eigendecomposition when the regime's ``A`` is
healthy, the Padé exponential when it is defective), integrates
exactly to it, rewrites the regime — pin an emptied reserve at zero
and pass its constant inflow through to its drains in creation order,
freeze a capped reserve and reject its inflow, flip a debt row to
inflow-only repayment — and continues segment by segment until the
span is consumed.  Per-segment flows are staged and the whole chain
commits by mass balance in one shot (or nothing commits at all), so
conservation stays exact and a refusal still mutates nothing.

Two further regimes have exact rewrites.  An empty reserve fed by a
**live proportional tap** pins at zero and forwards its time-varying
inflow to its constant drains in creation order: the fully-fed prefix
runs at nominal rate, one *marginal* drain carries the affine
remainder ``c + Σ fⱼ·Lⱼ(t) - R`` (its row in ``A``/``b`` receives the
forwarded terms), and a **saturation monitor** on the inflow
functional ends the segment if the allocation pattern would change.
A reserve **hovering at its capacity** (drains and/or decay while
inflow exceeds outflow) pins at its level: outflows run at full rate
served from inflow, and the surplus is rejected at the deposit taps —
per-tap acceptance follows the steady per-tick cycle (headroom opened
by drains, consumed by deposits in creation order, decay last).

Residual refusals are the regimes with no supported rewrite:
time-varying (proportional or forwarded) inflow into a binding
capacity, pinned-to-pinned pass-through cascades, a non-normal root,
unlocatable or sub-resolution switch instants, and chains longer than
:data:`MAX_SEGMENTS`.  Tick-by-tick is always correct, so the
segmented engine never guesses.

Two entry points run these steps: :meth:`SpanTier.execute` for one
device and :func:`execute_span_batch` for a cohort stacked
``(devices, reserves)``.  Below them each step exists once, written
for a stack, and the one-device entry point runs it on a stack of
one: the single-regime tiers with their bounds and commit
(:func:`_single_regime`), the certify-first boundary
(:func:`_debt_boundary`), the certificate
(:meth:`_SegmentRegime.certify_batch`), the switch locator
(:func:`_locate_switches`) and the commit bookkeeping
(:func:`_commit_rows`).  Every linear regime — the coupled tier's
whole topology and each segment's reduced system — is one
:class:`LinearSystem`, and its :meth:`~LinearSystem.integrals` is the
one integral all of them run, on the eigenvalue or the Padé path.
Only the segment loops and their per-segment flows stay twinned,
because on one device their stacked forms cost more than the scalar
ones (docs/performance.md, "Two entry points, one copy of each
step").
"""

from __future__ import annotations

import math
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from . import segkernel
from .segkernel import _DEBT, _EMPTY, _FULL, _NORMAL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .flowplan import FlowPlan

#: Eigenbasis condition number above which eigendecomposition results
#: are not trusted (defective or nearly-defective ``A``).
EIG_COND_LIMIT = 1e8

#: Span-end negativity beyond float noise aborts the solve (the sound
#: bounds should make this unreachable; refuse rather than guess).
NEGATIVE_LEVEL_SLACK = 1e-6

#: Hard ceiling on regime switches inside one span; a span that keeps
#: switching beyond this is refused (tick-by-tick is always correct).
MAX_SEGMENTS = 64

#: Trajectory samples per segment when scanning for the earliest
#: switching instant (crossings between samples are then bisected).
EVENT_SAMPLES = 96

#: Entries a span tier's per-span factor cache holds before it is
#: cleared.  One cache serves all of a tier's coupled systems and
#: regimes and its clamp bound, so this bounds a tier's cached factors
#: however many regimes it meets (docs/performance.md, "Steady
#: regimes", gives the measured hit rates behind the value).
SPAN_CACHE_MAX = 32


def _remember(cache: dict, key, value):
    """Store ``value`` under ``key``, clearing a full cache first."""
    if len(cache) >= SPAN_CACHE_MAX:
        cache.clear()
    cache[key] = value
    return value


def _per_span(cache: dict, spans: np.ndarray, compute, *key):
    """``compute()``, kept in ``cache`` when the stack has one span.

    Keyed by that span's value plus ``key``.  A stack of per-device
    spans (a fleet frontier bucket) is computed afresh: its entries
    would be ``(d, n)`` arrays.
    """
    if spans.size != 1:
        return compute()
    full_key = (float(spans.flat[0]),) + key
    hit = cache.get(full_key)
    if hit is None:
        hit = _remember(cache, full_key, compute())
    return hit


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: scaling-and-squaring with a [13/13] Padé.

    The classic Higham recipe, simplified to the highest-order
    approximant only (these matrices are small — a reserve graph's
    live topology — so the sub-order early exits are not worth their
    bookkeeping).  numpy-only by construction: scipy is not a
    dependency of this package.
    """
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    theta13 = 5.371920351148152
    squarings = 0
    if norm > theta13:
        squarings = int(math.ceil(math.log2(norm / theta13)))
        a = a / (2.0 ** squarings)
    b = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0)
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def _phi1(z: np.ndarray, ez: Optional[np.ndarray] = None) -> np.ndarray:
    """``(e^z - 1) / z`` with the removable singularity handled.

    ``ez`` may pass a precomputed ``np.exp(z)`` so call sites that
    already hold the exponential (every phi-propagation formula does)
    do not evaluate it again; the quotient is bit-identical either
    way since it consumes the very same ``exp`` values.
    """
    out = np.ones_like(z)
    small = np.abs(z) < 1e-3
    zl = z[~small]
    el = np.exp(zl) if ez is None else ez[~small]
    out[~small] = (el - 1.0) / zl
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0 + zs ** 3 / 24.0
    return out


def _phi12(z: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused ``(e^z, phi1(z), phi2(z))`` — one exponential, one mask.

    Every propagation formula needs two or three of these on the same
    ``z``; evaluated separately each helper pays its own ``exp`` (the
    dominant cost on the stacked ``(devices, samples, n)`` grids of
    the segmented engine).  The fused form computes ``exp(z)`` and the
    small-``|z|`` mask once and feeds both quotients from them —
    bit-identical to the separate calls, which divide the identical
    ``exp`` values by the identical denominators.
    """
    ez = np.exp(z)
    small = np.abs(z) < 1e-3
    big = ~small
    zl = z[big]
    el = ez[big]
    p1 = np.ones_like(z)
    p1[big] = (el - 1.0) / zl
    p2 = np.full_like(z, 0.5)
    p2[big] = (el - 1.0 - zl) / (zl * zl)
    zs = z[small]
    p1[small] = 1.0 + zs / 2.0 + zs * zs / 6.0 + zs ** 3 / 24.0
    p2[small] = 0.5 + zs / 6.0 + zs * zs / 24.0 + zs ** 3 / 120.0
    return ez, p1, p2


def _augmented(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``(2n+1)``-square block matrix ``[[A, b, 0], [0], [I, 0]]``.

    One exponential of it yields both the state and its time integral:
    rows ``:n`` carry ``L' = A L + b`` (with the constant ``1`` state
    at index ``n`` driving ``b``), rows ``n+1:`` carry ``J' = L``.
    Shared by every dense (Padé) path: :meth:`LinearSystem.integrals`
    and the event scan's trajectory queries.
    """
    n = a.shape[0]
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[:n, :n] = a
    m[:n, n] = b
    m[n + 1:, :n] = np.eye(n)
    return m


def _eig_span_factors(eig: Tuple[np.ndarray, np.ndarray, np.ndarray],
                      b: np.ndarray, t: np.ndarray) -> tuple:
    """The level-independent operands of the eigenvalue propagation.

    ``(e^{wt}, phi1(wt), t·(phi1·cb), t²·(phi2·cb))`` with ``cb =
    V^-1 b`` and ``t`` a ``(d, 1)`` column of per-row spans: each is a
    whole subexpression of the propagation formula in its own
    parenthesization, so a formula fed cached factors rounds exactly
    like one that computes them in place (:meth:`LinearSystem.integrals`).
    """
    w, v, vinv = eig
    cb = vinv @ b
    ez, p1, p2 = _phi12(w * t)
    return ez, p1, t * (p1 * cb), (t * t) * (p2 * cb)


def _dense_propagator(system: "LinearSystem", t: float) -> np.ndarray:
    """The Padé path's ``expm`` of the augmented matrix at span ``t``.

    Kept in ``system.span_cache`` under the key the eigenvalue path's
    factors would use (a system takes exactly one of the two paths).
    """
    cached = system.span_cache.get((t, system))
    if cached is None:
        cached = _remember(system.span_cache, (t, system),
                           _expm(_augmented(system.a, system.b) * t))
    return cached


def _eig_states_batch(eig: Tuple[np.ndarray, np.ndarray, np.ndarray],
                      b: np.ndarray, lvls: np.ndarray,
                      ts: np.ndarray) -> np.ndarray:
    """``L(t)`` over per-device grids: ``(g, n) x (g, k) -> (g, k, n)``.

    The phi-function formula over a batch of initial conditions and a
    batch of sample grids, one shared eigendecomposition.
    """
    w, v, vinv = eig
    c0 = lvls @ vinv.T
    cb = vinv @ b
    z = ts[:, :, None] * w
    ez = np.exp(z)
    out = (ez * c0[:, None, :]
           + ts[:, :, None] * (_phi1(z, ez) * cb)) @ v.T
    return out.real


def _eig_state_at_batch(eig: Tuple[np.ndarray, np.ndarray, np.ndarray],
                        b: np.ndarray, lvls: np.ndarray,
                        t: np.ndarray) -> np.ndarray:
    """``L(t_i)`` per device (stacked bisection queries)."""
    w, v, vinv = eig
    z = t[:, None] * w
    ez = np.exp(z)
    return ((ez * (lvls @ vinv.T)
             + t[:, None] * (_phi1(z, ez) * (vinv @ b))) @ v.T).real


def _dense_states_batch(aug: np.ndarray, lvls: np.ndarray,
                        ts: np.ndarray) -> np.ndarray:
    """Padé twin of :func:`_eig_states_batch` on the augmented matrix.

    Each row's grid must be uniform and start at its own spacing
    (``ts[i, k] = (k+1)·dt_i``, the event scan's ``linspace``), so a
    row pays one step exponential and propagates it along the grid
    instead of one exponential per sample.
    """
    g, k = ts.shape
    n = lvls.shape[1]
    out = np.empty((g, k, n))
    for i in range(g):
        step = _expm(aug * (ts[i, 1] - ts[i, 0]))
        state = np.concatenate([lvls[i], [1.0], np.zeros(n)])
        for j in range(k):
            state = step @ state
            out[i, j] = state[:n]
    return out


def _dense_state_at_batch(aug: np.ndarray, lvls: np.ndarray,
                          t: np.ndarray) -> np.ndarray:
    """Padé twin of :func:`_eig_state_at_batch`: one exponential a row."""
    n = lvls.shape[1]
    out = np.empty(lvls.shape)
    for i in range(lvls.shape[0]):
        state = np.concatenate([lvls[i], [1.0], np.zeros(n)])
        out[i] = (_expm(aug * t[i]) @ state)[:n]
    return out


def _rowwise_bincount(cols: np.ndarray, weights: np.ndarray,
                      n: int) -> np.ndarray:
    """``out[r, cols[k]] += weights[r, k]`` over a ``(g, n)`` stack.

    One flat :func:`np.bincount`: it accumulates every bin from zero in
    input order, so each row's sums round exactly like a per-column
    loop (or ``np.add.at``) over that row.
    """
    g = weights.shape[0]
    flat = ((np.arange(g) * n)[:, None] + cols).ravel()
    return np.bincount(flat, weights=weights.ravel(),
                       minlength=g * n).reshape(g, n)


def _trusted_eig(a: np.ndarray
                 ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(w, V, V^-1)`` when the eigenbasis of ``a`` is trustworthy.

    Returns None for defective or nearly-defective matrices (equal-rate
    chains produce Jordan blocks): the basis must be well-conditioned
    *and* actually reconstruct ``a`` — a nearly defective matrix can
    pass the condition gate yet round badly.
    """
    try:
        w, v = np.linalg.eig(a)
        cond = np.linalg.cond(v)
        if not np.isfinite(cond) or cond > EIG_COND_LIMIT:
            return None
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:  # pragma: no cover - numpy internal
        return None
    scale = max(1.0, float(np.abs(a).max()))
    recon = (v * w) @ vinv
    if float(np.abs(recon - a).max()) > 1e-9 * scale:
        return None
    return w, v, vinv


def _coupled_matrices(tier: "SpanTier", lam: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` of a tier's whole topology at decay constant ``lam``.

    The coupled tier's system: every proportional tap and the global
    decay in ``A``, every constant tap in ``b``.
    """
    plan = tier.plan
    n = len(plan.reserves)
    a = np.zeros((n, n))
    for j in plan.prop_taps:
        s, k, f = int(plan.src[j]), int(plan.snk[j]), plan.rate[j]
        a[s, s] -= f
        a[k, s] += f
    if lam > 0.0 and plan.any_decayable:
        decayable = np.flatnonzero(plan.decay_mask)
        a[decayable, decayable] -= lam
        a[plan.root_index, decayable] += lam
    return a, tier.const_in - tier.const_out


class LinearSystem:
    """``L' = A L + b``: one linear regime of a tier's reserves.

    The coupled tier's whole topology at one decay constant (built by
    :func:`_coupled_matrices`, cached per ``lam`` on the
    :class:`SpanTier`) and each segment regime's reduced system (the
    one left after the segment's pins and drops) are both one of
    these, and :meth:`integrals` is the one integral every caller
    runs: the coupled solve, the one-device segment flows and the
    stacked segment chain.  The expensive part — the
    eigendecomposition, or per-span Padé exponentials of the augmented
    matrix — amortizes across every span the system serves.  Event
    location (:func:`_locate_switches`) reads :attr:`eig`, :attr:`a`
    and :attr:`b` for its trajectory queries.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray,
                 span_cache: Dict[tuple, object]) -> None:
        self.a = a
        self.b = b
        #: (eigenvalues, V, V^-1) when the eigenbasis is trusted.
        self.eig: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = \
            _trusted_eig(a)
        #: The owning tier's per-span cache, where :meth:`integrals`
        #: keeps this system's level-independent factors.
        self.span_cache = span_cache
        #: Telemetry/testing: which solve path this system uses.
        self.mode = "dense" if self.eig is None else "eig"

    def integrals(self, lvl: np.ndarray, spans: np.ndarray) -> np.ndarray:
        """``J(t_i) = ∫_0^{t_i} L dt`` per row of ``(d, n)`` levels.

        ``spans`` holds each row's horizon ``t_i``.  A one-row stack
        keeps the eigenvalue path's factors (:func:`_eig_span_factors`)
        in the tier's span cache under ``(t, self)``; the dense path
        has no elementwise-in-``t`` form, so it keeps one augmented
        exponential per span value (:func:`_dense_propagator`) and
        solves per-span sub-stacks (cohort buckets rarely carry more
        than a handful of values).
        """
        d, n = lvl.shape
        if self.eig is not None:
            w, v, vinv = self.eig
            spans_c = spans[:, None]
            _, p1, _, drive_integ = _per_span(
                self.span_cache, spans,
                lambda: _eig_span_factors(self.eig, self.b, spans_c), self)
            return ((spans_c * (p1 * (lvl @ vinv.T)) + drive_integ)
                    @ v.T).real
        state = np.concatenate([lvl, np.ones((d, 1)), np.zeros((d, n))],
                               axis=1)
        integ = np.empty((d, n))
        for s_val in np.unique(spans):
            s_val = float(s_val)
            rows = spans == s_val
            integ[rows] = (state[rows]
                           @ _dense_propagator(self, s_val).T)[:, n + 1:]
        return integ


class _SegmentRegime:
    """One piecewise-linear regime: pins, effective rates, monitors.

    Everything here is a pure function of the per-reserve mode vector,
    the decay constant, and the *pinned levels* (a hovering reserve's
    proportional drains and decay loss turn into constants scaled by
    its pinned level; a forwarded pass-through's allocation split is
    set by the levels at derivation time), so regimes are cached on
    the tier keyed by the full derived spec — levels enter the
    regime's :class:`LinearSystem` only as its initial condition.

    ``span_cache`` is the tier's per-span cache, where the certificate
    keeps ``(t, regime, "certify")`` -> ``(exp(-f·t), 1 - exp(-f·t))``.
    """

    __slots__ = ("mode", "eff", "const_idx", "prop_idx", "decay_rows",
                 "system", "clamp_rows", "cert_rows", "cap_rows",
                 "cap_limits", "debt_rows", "debt_slope", "debt_linear",
                 "lam", "root", "out_eff", "in_eff", "f_row",
                 "always_safe", "cin_snk", "cin_src", "cin_eff", "psrc",
                 "psnk", "prate", "prop_src", "prop_rate", "hov_idx",
                 "hov_rate", "pin_rows", "pin_rates", "fwd", "sat",
                 "has_monitors", "span_cache")

    def __init__(self, **kw) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def certify_batch(self, lvl: np.ndarray, t: np.ndarray,
                      ltol: np.ndarray, crossed: np.ndarray,
                      crossed_sat: np.ndarray) -> np.ndarray:
        """Sound no-switch certificates for stacked ``[0, t_i]``.

        ``lvl`` is ``(g, n)``; ``t``/``ltol`` are per-device; crossing
        rows/monitors are excluded per device — their switch *is* the
        segment boundary.  The sampled event scan can miss a boundary
        excursion narrower than its grid (a capped reserve spiking
        over the cap and back, a drained reserve dipping below zero
        and recovering), which would silently commit flows
        tick-by-tick execution clamps.  A segment therefore only
        commits when these closed-form bounds hold over its whole
        interval:

        * **clamp rows** — the inflow-free lower bound, iteratively
          refined by crediting constant inflow from provably safe
          sources (the root, pinned reserves, and rows the previous
          iterate certified — the continuous analogue of the tier's
          ``early_feeds`` refinement); the root is always safe, so
          only :attr:`cert_rows` (the other clamp rows) need it;
        * **cap rows** — the iterated inflow upper bound (inflow at
          the previous bound, outflow ignored), the same bound the
          coupled tier refuses on;
        * **saturation monitors** — the forwarded functional bounded
          through the same row bounds: its sources' lower bounds keep
          it above the fully-fed prefix, their upper bounds keep it
          below the marginal drain's nominal rate.

        Debt rows need no certificate: their trajectories are monotone
        non-decreasing (inflow only), so the sampler cannot miss a
        crossing.  A failed certificate refuses the device — ticking
        is always correct.
        """
        g, n = lvl.shape
        ok = np.ones(g, dtype=bool)
        tcol = t[:, None]
        need_lower = self.sat[3].size > 0
        clamp_sel = ~crossed[:, self.cert_rows]
        safe = None
        if clamp_sel.any() or need_lower:
            normal = self.mode == _NORMAL
            safe = np.broadcast_to(self.always_safe, (g, n)).copy()
            f = self.f_row
            linear = f > 0.0

            def decay() -> Tuple[np.ndarray, np.ndarray]:
                decay_f = np.exp(-f * tcol)
                return decay_f, 1.0 - decay_f

            decay_f, grow = _per_span(self.span_cache, t, decay, self,
                                      "certify")
            kept = lvl * decay_f
            lower = np.zeros((g, n))
            for _ in range(4):
                credit = np.zeros((g, n))
                if self.cin_snk.size:
                    credit = _rowwise_bincount(
                        self.cin_snk, self.cin_eff * safe[:, self.cin_src],
                        n)
                deficit = np.maximum(self.out_eff - credit, 0.0)
                per_f = np.divide(deficit, f, out=np.zeros((g, n)),
                                  where=linear)
                lower = np.where(linear, kept - per_f * grow,
                                 lvl - deficit * tcol)
                refined = (self.always_safe
                           | (normal & (lower >= -4.0 * ltol[:, None])))
                if (refined == safe).all():
                    break
                safe = refined
            if clamp_sel.any():
                ok &= ~(clamp_sel & ~safe[:, self.cert_rows]).any(axis=1)
        best = None
        if self.cap_rows.size or need_lower:
            mass = np.maximum(lvl, 0.0).sum(axis=1)
            best = np.repeat(mass[:, None], n, axis=1)
            # Each row's inflow starts from its constant part and
            # adds the proportional terms in tap order.
            cols = np.concatenate([np.arange(n), self.psnk])
            const_in = np.broadcast_to(self.in_eff, (g, n))
            for _ in range(6):
                if self.prate.size:
                    inflow = _rowwise_bincount(cols, np.concatenate(
                        [const_in, self.prate * best[:, self.psrc]],
                        axis=1), n)
                else:
                    inflow = const_in.copy()
                if self.lam > 0.0 and self.decay_rows.size:
                    inflow[:, self.root] += self.lam * best[
                        :, self.decay_rows].sum(axis=1)
                best = np.minimum(best, lvl + inflow * tcol)
            if self.cap_rows.size:
                over = best[:, self.cap_rows] > self.cap_limits
                over &= ~crossed[:, self.cap_rows]
                ok &= ~over.any(axis=1)
        sat_ptr, sat_src, sat_wts, sat_c, sat_lo, sat_hi, sat_tol = self.sat
        for m_i in range(sat_c.shape[0]):
            span_lo = np.full(g, sat_c[m_i])
            span_hi = np.full(g, sat_c[m_i])
            for ti in range(int(sat_ptr[m_i]), int(sat_ptr[m_i + 1])):
                s = sat_src[ti]
                w = sat_wts[ti]
                span_lo += w * np.maximum(lower[:, s], 0.0)
                span_hi += w * best[:, s]
            good = ((span_lo >= sat_lo[m_i] - sat_tol[m_i])
                    & (span_hi <= sat_hi[m_i] + sat_tol[m_i]))
            ok &= good | crossed_sat[:, m_i]
        return ok

    def crossing_marks_batch(self, state_hi: np.ndarray,
                             ltol: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """Which rows / saturation monitors violate at ``(g, n)`` states.

        Marks each row's switch conditions at the state just past its
        located instant; :meth:`certify_batch` excludes the marked
        rows and monitors, because their switch *is* the boundary.
        """
        g = state_hi.shape[0]
        crossed = np.zeros(state_hi.shape, dtype=bool)
        if self.clamp_rows.size:
            rows = self.clamp_rows
            crossed[:, rows] |= state_hi[:, rows] < -ltol[:, None]
        if self.cap_rows.size:
            rows = self.cap_rows
            crossed[:, rows] |= state_hi[:, rows] > self.cap_limits
        if self.debt_rows.size:
            rows = self.debt_rows
            crossed[:, rows] |= state_hi[:, rows] > -ltol[:, None]
        sat_ptr, sat_src, sat_wts, sat_c, sat_lo, sat_hi, sat_tol = self.sat
        crossed_sat = np.zeros((g, sat_c.shape[0]), dtype=bool)
        for m_i in range(sat_c.shape[0]):
            y = np.full(g, sat_c[m_i])
            for ti in range(int(sat_ptr[m_i]), int(sat_ptr[m_i + 1])):
                y = y + sat_wts[ti] * state_hi[:, sat_src[ti]]
            crossed_sat[:, m_i] = ((y < sat_lo[m_i] - sat_tol[m_i])
                                   | (y > sat_hi[m_i] + sat_tol[m_i]))
        return crossed, crossed_sat


def _debt_boundary(regime: _SegmentRegime, lvls: np.ndarray,
                   rem: np.ndarray, ltol: np.ndarray
                   ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The certify-first candidate boundary of ``(g, n)`` rows, or None.

    Most segments are quiet (no switch inside them), and for those the
    no-switch certificate alone is enough — the sampled scan of
    :func:`_locate_switches` never needs to run.  Debt repayments are
    the one monitor the certificate does not cover, but a purely
    constant-fed debt row is linear (``L = L0 + b t``), so its
    crossing is analytic: a row's candidate is its earliest such
    crossing (or ``rem``), and the certificate rules out every
    clamp/cap/saturation switch before it.

    Returns ``(candidate, early, crossed)``: ``early`` marks rows whose
    candidate falls before ``rem``, ``crossed`` the debt rows crossing
    at an early candidate.  None when a debt row takes proportional
    inflow (its crossing is not analytic).
    """
    if regime.debt_rows.size and not regime.debt_linear.all():
        return None
    cand = rem.copy()
    crossings = []
    for row, slope in zip(regime.debt_rows.tolist(),
                          regime.debt_slope.tolist()):
        if slope > 0.0:
            t_star = (-ltol - lvls[:, row]) / slope
            np.minimum(cand, t_star, out=cand)
            crossings.append((row, t_star))
    early = cand < rem
    crossed = np.zeros(lvls.shape, dtype=bool)
    for row, t_star in crossings:
        crossed[:, row] = early & (t_star <= cand * (1.0 + 1e-12))
    return cand, early, crossed


def _locate_switches(regime: _SegmentRegime, lvls: np.ndarray,
                     rem: np.ndarray, ltol: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """Earliest instant in each row's ``(0, rem_i]`` a switch fires.

    Samples each row's closed-form trajectory on a uniform grid (the
    scan is :func:`repro.core.segkernel.first_hits`), then bisects each
    first violating bracket down to ``1e-12·rem_i``.  Trajectories come
    from the regime's :class:`LinearSystem`: its eigendecomposition
    when trusted, otherwise one Padé step exponential per row for the
    grid and one exponential per bisection query.

    Returns ``(instant, located, crossed, crossed_sat)`` per row.  A
    located instant is the last *clean* time — integrating to it lands
    exactly on the regime boundary — and the masks mark the rows and
    saturation monitors violating just past it, which
    :meth:`_SegmentRegime.certify_batch` excludes from the segment's
    certificate (their switch *is* the boundary).  A row where no
    sampled condition fires keeps ``instant = rem_i``, unlocated with
    empty masks; the caller still certifies the whole interval before
    committing.
    """
    g, n = lvls.shape
    instant = rem.copy()
    located = np.zeros(g, dtype=bool)
    crossed = np.zeros((g, n), dtype=bool)
    crossed_sat = np.zeros((g, regime.sat[3].shape[0]), dtype=bool)
    if not regime.has_monitors:
        return instant, located, crossed, crossed_sat
    system = regime.system
    if system.eig is not None:
        grid = partial(_eig_states_batch, system.eig, system.b)
        at = partial(_eig_state_at_batch, system.eig, system.b)
    else:
        aug = _augmented(system.a, system.b)
        grid = partial(_dense_states_batch, aug)
        at = partial(_dense_state_at_batch, aug)
    monitors = (regime.clamp_rows, regime.cap_rows, regime.cap_limits,
                regime.debt_rows)
    ts = np.linspace(rem / EVENT_SAMPLES, rem, EVENT_SAMPLES, axis=1)
    first = segkernel.first_hits(grid(lvls, ts), *monitors, ltol,
                                 *regime.sat)
    hits = np.flatnonzero(first >= 0)
    if not hits.size:
        return instant, located, crossed, crossed_sat
    f_i = first[hits]
    lo = np.where(f_i == 0, 0.0, ts[hits, np.maximum(f_i - 1, 0)])
    hi = ts[hits, f_i]
    floor = np.maximum(1e-12 * rem[hits], 1e-15)
    sub_lvls = lvls[hits]
    sub_lt = ltol[hits]
    for _ in range(64):
        open_ = (hi - lo) > floor
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        viol = segkernel.violated_at(at(sub_lvls, mid), *monitors,
                                     sub_lt, *regime.sat)
        hi = np.where(open_ & viol, mid, hi)
        lo = np.where(open_ & ~viol, mid, lo)
    instant[hits] = lo
    located[hits] = True
    crossed[hits], crossed_sat[hits] = regime.crossing_marks_batch(
        at(sub_lvls, hi), sub_lt)
    return instant, located, crossed, crossed_sat


class SpanTier:
    """Closed-form span execution over one compiled plan's topology."""

    def __init__(self, plan: "FlowPlan") -> None:
        self.plan = plan
        n = len(plan.reserves)
        self.const_in = np.zeros(n)
        self.const_out = np.zeros(n)
        self.prop_out = np.zeros(n)
        self.prop_sink_mask = np.zeros(n, dtype=bool)
        first_drain: Dict[int, int] = {}
        for j in range(len(plan.taps)):
            s, k, r = int(plan.src[j]), int(plan.snk[j]), plan.rate[j]
            if plan.const_mask[j]:
                self.const_out[s] += r
                self.const_in[k] += r
                first_drain.setdefault(s, j)
            else:
                self.prop_out[s] += r
                self.prop_sink_mask[k] = True
        #: Each tap's constant rate, zero on proportional taps: a span
        #: of ``t`` moves ``t * const_rate`` through the constant taps.
        self.const_rate = np.where(plan.const_mask, plan.rate, 0.0)
        #: Constant feeds (tap indices, creation order) that land
        #: *before* their sink's first constant drain.  Within every
        #: tick these deposit ahead of the drain, so — provided the
        #: feed's own source cannot clamp — they are guaranteed income
        #: the clamp bound may credit (the pass-through shapes:
        #: task-manager pools, relay junctions).
        self.early_feeds = np.array(
            [j for j in range(len(plan.taps))
             if plan.const_mask[j]
             and j < first_drain.get(int(plan.snk[j]), len(plan.taps))],
            dtype=np.intp)
        #: Rows a constant drain could clamp.
        self._draining = self.const_out > 0.0
        #: The clamp bound's most optimistic deficit: every early feed
        #: credited (each refinement iterate credits a subset).
        self._min_deficit = np.maximum(
            self.const_out - np.bincount(
                plan.snk[self.early_feeds],
                weights=plan.rate[self.early_feeds], minlength=n), 0.0)
        #: Rows whose constant drains outrun even that credit, where
        #: :meth:`_must_segment` looks for an empty row.
        self._deficit_rows = np.flatnonzero(
            self._min_deficit > 0.0).tolist()
        #: Everything that depends only on a span length and this
        #: tier's topology, one budget for the whole tier (at most
        #: :data:`SPAN_CACHE_MAX` entries): ``(span, system)`` -> a
        #: :class:`LinearSystem`'s factors
        #: (:meth:`LinearSystem.integrals`), ``(span, regime, "certify")``
        #: -> a regime certificate's, and ``(span, "clamp", f bytes)``
        #: -> the clamp bound's.
        self.span_cache: Dict[tuple, object] = {}
        #: Per-reserve tap adjacency (index lists into the plan's tap
        #: arrays), precomputed once per tier: the segmented engine's
        #: regime derivation walks these per segment, and plans are
        #: immutable for the tier's lifetime.
        self.const_into: Dict[int, List[int]] = {}
        self.const_from: Dict[int, List[int]] = {}
        self.prop_into: Dict[int, List[int]] = {}
        self.prop_from: Dict[int, List[int]] = {}
        for j in range(len(plan.taps)):
            s, k = int(plan.src[j]), int(plan.snk[j])
            if plan.const_mask[j]:
                self.const_into.setdefault(k, []).append(j)
                self.const_from.setdefault(s, []).append(j)
            else:
                self.prop_into.setdefault(k, []).append(j)
                self.prop_from.setdefault(s, []).append(j)
        #: Inputs of the mode derivation, built lazily (most tiers
        #: never leave the single-regime solvers).
        self._modes: Optional[tuple] = None
        #: lam -> the coupled linear system at that decay constant.
        self._coupled: Dict[float, LinearSystem] = {}
        #: lam -> :meth:`_dynamics` at that decay constant.
        self._dynamics_at: Dict[float, tuple] = {}
        #: Cached :class:`_SegmentRegime` objects under two key shapes
        #: (see :meth:`_regime_for`): the whole derived spec ``(lam,
        #: mode, eff, hov, pin_loss, fwd)``, and the level
        #: classification ``(lam, debt bits, near-empty bits, cap-band
        #: bits)`` of states whose derivation reads nothing else.  The
        #: eigendecomposition amortizes across every segment that
        #: re-enters the same regime; persistent clamped regimes
        #: re-enter one per macro-step.
        self._regimes: Dict[tuple, _SegmentRegime] = {}
        #: The classification's rows: non-root rows with a constant
        #: drain (empty-pin candidates once near zero), which of those
        #: take proportional inflow, and each finite-capacity row's
        #: band floor ``cap - 2·band`` (the derivation's own formula).
        self._drained_rows = np.array(
            [i for i in sorted(self.const_from) if i != plan.root_index],
            dtype=np.intp)
        self._drained_fed = np.array(
            [i in self.prop_into for i in self._drained_rows.tolist()],
            dtype=bool)
        cap = plan.capacity[plan.finite_cap]
        self._cap_floor = cap - 2.0 * np.maximum(1e-9, 1e-11 * cap)
        #: Telemetry: spans solved by each tier (diagnostics/tests).
        self.diagonal_solves = 0
        self.coupled_solves = 0
        self.segmented_solves = 0

    def _dynamics(self, lam: float
                  ) -> Tuple[np.ndarray, np.ndarray, bool, bool]:
        """``(f, linear, coupled, cap_may_bind)`` at decay constant ``lam``.

        ``f`` is each reserve's proportional drain plus decay rate and
        ``linear`` marks ``f > 0``; ``coupled`` says a reserve whose
        drains read its level also has level-dependent inflow (the
        diagonal solver needs constant inflow there), and
        ``cap_may_bind`` that a finite capacity receives inflow.

        None of it reads a level, so it is kept per decay constant
        (``f`` and ``linear`` come back read-only).
        """
        dynamics = self._dynamics_at.get(lam)
        if dynamics is not None:
            return dynamics
        plan = self.plan
        f = self.prop_out + (lam if lam > 0.0 else 0.0) * plan.decay_mask
        linear = f > 0.0
        varying_in = self.prop_sink_mask.copy()
        if lam > 0.0 and plan.any_decayable:
            varying_in[plan.root_index] = True
        cap = plan.finite_cap
        coupled = bool(np.any(linear & varying_in))
        cap_may_bind = bool(cap.size) and bool(np.any(
            (self.const_in[cap] > 0.0) | varying_in[cap]))
        f.flags.writeable = False
        linear.flags.writeable = False
        if len(self._dynamics_at) > 4:  # decay toggles are rare
            self._dynamics_at.clear()
        dynamics = self._dynamics_at[lam] = (f, linear, coupled,
                                             cap_may_bind)
        return dynamics

    # -- shared refusal bounds ---------------------------------------------------

    def _clamp_safe_rows(self, lvl: np.ndarray, span: float,
                         f: np.ndarray, linear: np.ndarray
                         ) -> np.ndarray:
        """Per-row ``True`` iff no constant drain can clamp in the span.

        ``lvl`` is stacked ``(d, n)``.  First pass: ``L' >= -const_out
        - F*L`` (every inflow ignored) is monotone decreasing, so the
        span-end value of that lower-bound ODE bounds the whole
        trajectory.  Sound for coupled systems too: coupling only
        ever *adds* inflow.

        Reserves that fail the inflow-free bound get a refined pass:
        constant feeds that fire *before* the reserve's first drain
        within every tick (:attr:`early_feeds`), and whose own source
        is already proven clamp-free, are guaranteed income — the
        effective drain is only the deficit beyond them.  This is
        what admits pass-through shapes (a junction fed at 14 mW and
        drained at 14 mW sits at level ~0 forever, which the
        inflow-free bound can never clear) while staying exactly as
        sound: each iterate credits only feeds from reserves proven
        safe by the previous iterate, and tick execution delivers
        those deposits ahead of the drain by creation order.

        A row that fails even with *every* early feed credited is
        refused before iterating, exactly: each iterate's credit is an
        in-order sum of a subset of those non-negative rates (the rest
        as zeros), which rounds no higher than the full sum, so its
        bound is never above the all-credit one.

        ``span`` may be a scalar (the whole stack shares one horizon)
        or a ``(d,)`` vector of per-row spans (the fleet frontier's
        heterogeneous-horizon cohorts); the bound is
        evaluated at each row's own span either way, bit-identically —
        a vector of equal spans multiplies out to the exact same
        products as the shared scalar.
        """
        d, n = lvl.shape
        const_out = self.const_out
        draining = self._draining
        if not draining.any():
            return np.ones(d, dtype=bool)
        spans = np.asarray(span, dtype=float).reshape(-1, 1)
        decay_f, grow, drops, lin_drops = self._clamp_factors(spans, f,
                                                              linear)
        kept = lvl * decay_f
        lower = np.where(linear, kept - drops, lvl - lin_drops)
        passes = ((lower >= 0.0) | ~draining).all(axis=2)
        rows_ok = passes[0]
        if (rows_ok.all() or not self.early_feeds.size
                or (rows_ok | ~passes[1]).all()):
            return rows_ok
        safe = (lower[0] >= 0.0) | ~draining
        plan = self.plan
        feed_snk = plan.snk[self.early_feeds]
        feed_src = plan.src[self.early_feeds]
        feed_rate = plan.rate[self.early_feeds]
        for _ in range(3):
            guaranteed = _rowwise_bincount(
                feed_snk, feed_rate * safe[:, feed_src], n)
            deficit = np.maximum(const_out - guaranteed, 0.0)
            per_f = np.divide(deficit, f, out=np.zeros((d, n)),
                              where=linear)
            lower = np.where(linear, kept - per_f * grow,
                             lvl - deficit * spans)
            refined = (lower >= 0.0) | ~draining
            if (refined == safe).all():
                break
            safe = refined  # monotone: deficit only shrinks
        return safe.all(axis=1)

    def _clamp_factors(self, spans: np.ndarray, f: np.ndarray,
                       linear: np.ndarray) -> tuple:
        """The clamp bound's per-span constants for ``(d, 1)`` spans.

        ``(exp(-f·t), 1 - exp(-f·t), drops, lin_drops)``; the last two
        stack the inflow-free (index 0) and all-credit (index 1)
        bounds' drains over the span, for linear and constant rows.
        """
        def compute() -> tuple:
            decay_f = np.exp(-spans * f)
            grow = 1.0 - decay_f
            # Both bounds' deficits: inflow-free, and all-credit.
            deficits = np.stack([self.const_out,
                                 self._min_deficit])[:, None, :]
            per_f = np.divide(deficits, f, out=np.zeros(deficits.shape),
                              where=linear)
            return decay_f, grow, per_f * grow, deficits * spans

        return _per_span(self.span_cache, spans, compute, "clamp",
                         f.tobytes())

    def _must_segment(self, lvl: np.ndarray, span: float,
                      f: np.ndarray, linear: np.ndarray) -> bool:
        """True when the single-regime tiers are certain to refuse.

        That is when a row of :attr:`_deficit_rows` sits empty (``L <=
        0``) and its all-credit clamp lower bound over ``span`` is
        negative — the very value :meth:`_clamp_safe_rows` computes,
        from the same cached factors.  That method then refuses: the
        row fails the all-credit bound, the inflow-free bound is never
        above it (a larger deficit, and IEEE rounding is monotone),
        and neither is any refinement iterate (its credit is an
        in-order sum of a subset of the same non-negative rates, so
        its deficit is never smaller).  Both single-regime tiers check
        that bound (the coupled one after its capacity bound), so both
        refuse.  A drained task reserve whose drain outruns its feed
        sits in exactly this state span after span.
        """
        empty = [r for r in self._deficit_rows if lvl[r] <= 0.0]
        if not empty:
            return False
        decay_f, _, drops, lin_drops = self._clamp_factors(
            np.array([[span]], dtype=float), f, linear)
        for r in empty:
            # One IEEE op at a time, as the stacked form rounds them.
            if linear[r]:
                lower = lvl[r] * decay_f[0, r] - drops[1, 0, r]
            else:
                lower = lvl[r] - lin_drops[1, 0, r]
            if lower < 0.0:
                return True
        return False

    # -- entry point ---------------------------------------------------------------

    def execute(self, span: float) -> Optional[float]:
        """Integrate flows and decay over ``span`` seconds in one shot.

        Returns total tap flow, or None when no closed form applies
        (caller must tick instead); a None return mutates nothing.

        The one-device entry point.  The single-regime tiers run
        first, on a stack of one (:func:`_single_regime`); whenever
        they refuse — debt entry, a possible mid-span clamp, capacity
        pressure — the span falls through to the segmented engine,
        which integrates regime to regime across the switch instants
        and only refuses the residual shapes it cannot rewrite.  A
        span they are certain to refuse (:meth:`_must_segment`) goes
        there directly.
        """
        plan = self.plan
        policy = plan.graph.decay_policy
        lam = policy.lam if policy.enabled else 0.0
        lvl = plan._gather_levels()
        # Debt entry goes straight to the segmented engine: the
        # max(L, 0) nonlinearity is itself a regime — repayment
        # segments instead of refusing.
        if not np.any(lvl < 0.0):
            f, linear = self._dynamics(lam)[:2]
            if not self._must_segment(lvl, span, f, linear):
                results: List[Optional[float]] = [None]
                if not _single_regime([self], np.array([span], dtype=float),
                                      lam, lvl[None, :],
                                      np.zeros(1, dtype=bool), results)[0]:
                    return results[0]
        return self._execute_segmented(span, lam, lvl)

    # -- the segmented engine (piecewise-linear regime switching) ------------------

    def _execute_segmented(self, span: float, lam: float,
                           lvl: np.ndarray) -> Optional[float]:
        """Integrate a span as a chain of linear-regime segments.

        Every regime change — a constant drain clamping on an emptied
        reserve, a finite capacity binding, a debt level crossing zero
        — happens at one locatable instant; between two instants the
        dynamics are plain ``L' = A L + b`` for the regime's reduced
        system.  The loop derives the regime from the working levels,
        takes the certify-first boundary (:func:`_debt_boundary`) or
        locates the earliest switch (:func:`_locate_switches`),
        integrates exactly to it, and repeats on the rewritten system
        until the span is consumed.  Those steps run on a stack of one;
        :func:`_batch_segmented` is this loop's stacked twin.

        Everything is *staged*: per-segment flows, decay losses and the
        working levels accumulate on copies, and only a fully solved
        chain commits (by mass balance, so conservation stays exact no
        matter how many segments the span crossed).  A None return —
        an unsupported regime, an unlocatable or sub-resolution switch,
        or a chain past :data:`MAX_SEGMENTS` — mutates nothing and the
        caller ticks, which is always correct.
        """
        plan = self.plan
        n = len(plan.reserves)
        m = len(plan.taps)
        root = plan.root_index
        lvl = lvl.copy()  # staged: the caller's gather stays pristine
        scale = max(1.0, float(np.abs(lvl).max()))
        ltol = 1e-11 * scale
        ltols = np.array([ltol])
        def absorb_dust() -> None:
            # Float dust from a located crossing: clamp to zero and
            # let the root absorb the difference (same book-balancing
            # the coupled tier applies to span-end dust).
            dust = (lvl < 0.0) & (lvl >= -4.0 * ltol)
            if dust.any():
                lvl[root] += float(lvl[dust].sum())
                lvl[dust] = 0.0

        moved = np.zeros(m)
        lost = np.zeros(n)
        reclaimed = 0.0
        remaining = float(span)
        segments = 0
        min_seg = max(1e-12, 1e-10 * span)
        locate_wall = 0.0
        integrate_wall = 0.0
        while remaining > 1e-9 * span:
            if segments >= MAX_SEGMENTS:
                return None
            absorb_dust()
            regime = self._regime_for(lvl, lam, ltol)
            if regime is None:
                return None
            t0 = perf_counter()
            lvls = lvl[None, :]
            rem = np.array([remaining])
            seg = None
            boundary = _debt_boundary(regime, lvls, rem, ltols)
            if boundary is not None:
                t_cand, early, crossed = boundary
                crossed_sat = np.zeros((1, regime.sat[3].shape[0]),
                                       dtype=bool)
                if t_cand[0] >= min_seg and regime.certify_batch(
                        lvls, t_cand, ltols, crossed, crossed_sat)[0]:
                    seg = (float(t_cand[0]), bool(early[0]))
            if seg is None:
                t_seg, located, crossed, crossed_sat = _locate_switches(
                    regime, lvls, rem, ltols)
                if t_seg[0] < min_seg:
                    return None  # coincident events: no progress
                if not regime.certify_batch(lvls, t_seg, ltols, crossed,
                                            crossed_sat)[0]:
                    return None  # sub-sample excursion not ruled out
                seg = (float(t_seg[0]), bool(located[0]))
            seg_span, located = seg
            locate_wall += perf_counter() - t0
            t0 = perf_counter()
            step = self._integrate_segment(regime, lvl, seg_span, lam)
            integrate_wall += perf_counter() - t0
            if step is None:
                return None
            lvl, seg_moved, seg_lost, seg_reclaimed = step
            moved += seg_moved
            lost += seg_lost
            reclaimed += seg_reclaimed
            segments += 1
            remaining = remaining - seg_span if located else 0.0
        if segments == 0:
            return 0.0
        absorb_dust()
        graph = plan.graph
        graph.span_segments += segments
        graph.span_switches += segments - 1
        graph.span_locate_wall_s += locate_wall
        graph.span_integrate_wall_s += integrate_wall
        self.segmented_solves += 1
        results: List[Optional[float]] = [None]
        _commit_rows([self], (True,), lvl[None, :], moved[None, :],
                     lost[None, :], (reclaimed,),
                     np.bincount(plan.snk, weights=moved, minlength=n)[None],
                     np.bincount(plan.src, weights=moved, minlength=n)[None],
                     results)
        return results[0]

    def _regime_for(self, lvl: np.ndarray, lam: float,
                    ltol: float) -> Optional[_SegmentRegime]:
        """The cached regime for the current levels (or None).

        A lookup first tries the levels' *classification*: ``lam``,
        the ``L < 0`` bits (debt), the ``L <= 4·ltol`` bits of
        :attr:`_drained_rows` (empty-pin candidates) and the ``L >=
        cap - 2·band`` bits of the finite-capacity rows (cap pins).
        Those comparisons are all the mode derivation reads of the
        levels unless a capacity row sits in its band (hover pins
        fold levels into rates) or a near-empty candidate takes
        proportional inflow (forwarded allocations do).  A derivation
        free of both is therefore a function of its classification,
        and only such a result is stored under it.

        Otherwise the regime is derived and keyed by its whole spec,
        not just the mode vector: hover pins and forwarded
        allocations make two visits to one mode vector different
        linear systems.  A classification entry always maps to the
        object its spec maps to, so a hit returns exactly what a
        fresh derivation would.
        """
        neg = lvl < 0.0
        near = lvl[self._drained_rows] <= 4.0 * ltol
        banded = lvl[self.plan.finite_cap] >= self._cap_floor
        key = (lam, neg.tobytes(), near.tobytes(), banded.tobytes())
        regime = self._regimes.get(key)
        if regime is not None:
            return regime
        derived = segkernel.derive_modes(lvl, lam, ltol, self._modes_pack())
        if derived is None:
            return None
        mode, eff, hov, pin_loss, fwd = derived
        spec = (lam, mode.tobytes(), eff.tobytes(), hov.tobytes(),
                pin_loss.tobytes(), fwd)
        entries = {}
        regime = self._regimes.get(spec)
        if regime is None:
            regime = entries[spec] = self._build_regime(
                mode, eff, hov, pin_loss, fwd, lam)
        # pure: no row in its cap band, no proportionally fed candidate
        if not (banded.any() or (near & self._drained_fed
                                 & ~neg[self._drained_rows]).any()):
            entries[key] = regime
        if entries:
            # regime-churn safety valve: at most 17 entries
            if len(self._regimes) + len(entries) > 17:
                self._regimes.clear()
                entries[spec] = regime
            self._regimes.update(entries)
        return regime

    def _modes_pack(self) -> tuple:
        """The topology :func:`segkernel.derive_modes` reads (lazy).

        The plan's arrays as Python lists, the root row, whether any
        row decays, and the tap adjacency dicts.
        """
        pack = self._modes
        if pack is None:
            plan = self.plan
            pack = self._modes = (
                plan.src.tolist(), plan.snk.tolist(), plan.rate.tolist(),
                plan.const_mask.tolist(), plan.capacity.tolist(),
                plan.decay_mask.tolist(), plan.finite_cap.tolist(),
                plan.root_index, plan.any_decayable, self.const_into,
                self.const_from, self.prop_into, self.prop_from)
        return pack

    def _build_regime(self, mode: np.ndarray, eff: np.ndarray,
                      hov: np.ndarray, pin_loss: np.ndarray,
                      fwd: tuple, lam: float) -> _SegmentRegime:
        """Materialize the linear system and monitors for one regime."""
        plan = self.plan
        n = len(plan.reserves)
        m = len(plan.taps)
        src = plan.src
        snk = plan.snk
        rate = plan.rate
        const = plan.const_mask
        root = plan.root_index
        normal = mode == _NORMAL
        active_row = normal | (mode == _DEBT)

        # Proportional taps: a *live* tap (normal source, accepting
        # sink) drains its source; it also feeds its sink's row unless
        # the sink is pinned empty — then the energy passes through
        # the pin and re-enters via the forwarded entries below.
        prop_live = np.zeros(m, dtype=bool)
        prop_coupled = np.zeros(m, dtype=bool)
        for j in range(m):
            if const[j]:
                continue
            s_mode = mode[int(src[j])]
            k_mode = mode[int(snk[j])]
            if s_mode == _NORMAL and k_mode != _FULL:
                prop_live[j] = True
                if k_mode != _EMPTY:
                    prop_coupled[j] = True

        a = np.zeros((n, n))
        for j in np.flatnonzero(prop_live):
            s, f = int(src[j]), rate[j]
            a[s, s] -= f
            if prop_coupled[j]:
                a[int(snk[j]), s] += f
        decay_rows = np.array([], dtype=np.intp)
        if lam > 0.0 and plan.any_decayable:
            decay_rows = np.flatnonzero(normal & plan.decay_mask)
            if decay_rows.size:
                a[decay_rows, decay_rows] -= lam
                a[root, decay_rows] += lam
        b = np.zeros(n)
        in_eff = np.zeros(n)
        out_eff = np.zeros(n)
        for j in range(m):
            if not const[j] or eff[j] <= 0.0:
                continue
            s, k = int(src[j]), int(snk[j])
            out_eff[s] += eff[j]
            in_eff[k] += eff[j]
            if active_row[s]:
                b[s] -= eff[j]
            if active_row[k]:
                b[k] += eff[j]
        # Hover drains are constants at full rate (served from the
        # pinned reserve's inflow); the pinned decay loss routes to
        # the root like any other reclaim.
        hov_idx = np.flatnonzero(hov > 0.0)
        for j in hov_idx:
            k = int(snk[j])
            in_eff[k] += hov[j]
            if active_row[k]:
                b[k] += hov[j]
        pin_rows = np.flatnonzero(pin_loss > 0.0)
        if pin_rows.size:
            b[root] += float(pin_loss[pin_rows].sum())
        # Forwarded pass-through: the marginal drain's affine flow
        # enters its (normal) sink's row; its nominal rate is the
        # sink's sound inflow upper bound for the cap certificate.
        fwd_entries = []
        sat_ptr = [0]
        sat_src: List[int] = []
        sat_wts: List[float] = []
        sat_c: List[float] = []
        sat_lo: List[float] = []
        sat_hi: List[float] = []
        sat_tol: List[float] = []
        for j, cpart, srcs, wts, tol in fwd:
            k = int(snk[j])
            b[k] += cpart
            for s, w in zip(srcs, wts):
                a[k, s] += w
            in_eff[k] += rate[j]
            fwd_entries.append((int(j), float(cpart),
                               np.array(srcs, dtype=np.intp),
                               np.array(wts)))
            sat_src.extend(srcs)
            sat_wts.extend(wts)
            sat_ptr.append(len(sat_src))
            sat_c.append(float(cpart))
            sat_lo.append(0.0)
            sat_hi.append(float(rate[j]))
            sat_tol.append(float(tol))
        if sat_c:
            sat = (np.array(sat_ptr, dtype=np.int64),
                   np.array(sat_src, dtype=np.int64),
                   np.array(sat_wts), np.array(sat_c),
                   np.array(sat_lo), np.array(sat_hi),
                   np.array(sat_tol))
        else:
            sat = segkernel.EMPTY_SAT

        prop_in = np.zeros(n, dtype=bool)
        for j in np.flatnonzero(prop_coupled):
            prop_in[int(snk[j])] = True
        time_varying_in = prop_in.copy()
        for j, cpart, srcs, wts in fwd_entries:
            time_varying_in[int(snk[j])] = True
        if decay_rows.size:
            time_varying_in[root] = True
        clamp_rows = np.flatnonzero(normal & (out_eff > 0.0))
        has_in = (in_eff > 0.0) | prop_in
        if decay_rows.size:
            has_in[root] = True  # decay reclaim deposits into the root
        cap_mask = np.zeros(n, dtype=bool)
        cap_mask[plan.finite_cap] = True
        cap_rows = []
        cap_limits = []
        f_row = -np.diag(a).copy()
        for i in np.flatnonzero(normal & cap_mask & has_in):
            i = int(i)
            limit = plan.capacity[i] - max(1e-9, 1e-11 * plan.capacity[i])
            # Descent-safe exclusion: with purely constant inflow and
            # ``b <= f * limit`` the trajectory can never rise past
            # the limit from below (at the limit ``L' <= 0``), so the
            # monitor stays silent — this is what lets a reserve *at*
            # its cap with net outflow descend through the band
            # instead of refusing on an instant re-fire.
            if not time_varying_in[i] and b[i] <= f_row[i] * limit:
                continue
            cap_rows.append(i)
            cap_limits.append(limit)
        cap_rows = np.array(cap_rows, dtype=np.intp)
        cap_limits = np.array(cap_limits)
        debt_rows = np.flatnonzero((mode == _DEBT)
                                   & ((b > 0.0) | prop_in))
        debt_slope = b[debt_rows]
        debt_linear = ~prop_in[debt_rows]
        # Certificate inputs (see _SegmentRegime.certify): per-row net
        # linear decay rate, constant-inflow edges for the safe-source
        # credit iteration, and the proportional edges of the cap
        # upper bound.  Hover drains join the credit edges — their
        # pinned source is always safe and their flow is constant.
        const_idx = np.flatnonzero(const & (eff > 0.0))
        prop_idx = np.flatnonzero(prop_live)
        cp_idx = np.concatenate([const_idx, hov_idx])
        cin_eff = np.concatenate([eff[const_idx], hov[hov_idx]])
        # Root is assumed never to run dry (the same assumption every
        # replay path makes); pinned rows pass through constants; rows
        # without constant drains have nothing to clamp.
        always_safe = ~normal | (out_eff <= 0.0)
        always_safe[root] = True
        return _SegmentRegime(
            mode=mode, eff=eff,
            const_idx=const_idx,
            prop_idx=prop_idx,
            decay_rows=decay_rows,
            system=LinearSystem(a, b, self.span_cache),
            clamp_rows=clamp_rows,
            cert_rows=clamp_rows[~always_safe[clamp_rows]],
            cap_rows=cap_rows,
            cap_limits=cap_limits, debt_rows=debt_rows,
            debt_slope=debt_slope, debt_linear=debt_linear,
            lam=lam, root=root, out_eff=out_eff, in_eff=in_eff,
            f_row=f_row, always_safe=always_safe,
            cin_snk=snk[cp_idx], cin_src=src[cp_idx],
            cin_eff=cin_eff,
            psrc=src[prop_idx][prop_coupled[prop_idx]],
            psnk=snk[prop_idx][prop_coupled[prop_idx]],
            prate=rate[prop_idx][prop_coupled[prop_idx]],
            prop_src=src[prop_idx], prop_rate=rate[prop_idx],
            hov_idx=hov_idx, hov_rate=hov[hov_idx],
            pin_rows=pin_rows, pin_rates=pin_loss[pin_rows],
            fwd=tuple(fwd_entries), sat=sat,
            has_monitors=bool(clamp_rows.size or cap_rows.size
                              or debt_rows.size or sat[3].size),
            span_cache=self.span_cache)

    def _integrate_segment(self, regime: _SegmentRegime, lvl: np.ndarray,
                           t: float, lam: float) -> Optional[Tuple]:
        """One segment's exact flows; staged, mutates nothing."""
        plan = self.plan
        n = len(plan.reserves)
        integ = np.maximum(
            regime.system.integrals(lvl[None, :], np.array([t]))[0], 0.0)
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
        neg[regime.mode == _DEBT] = 0.0  # still-repaying rows stay negative
        if float(neg.sum()) < -NEGATIVE_LEVEL_SLACK:
            return None  # the located switch should preclude this
        return end, moved, lost, reclaimed

# ---------------------------------------------------------------------------
# cohort-batched span execution (fleets of structurally identical graphs)
# ---------------------------------------------------------------------------


def _flat_indices(plan: "FlowPlan", d: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flat_src, flat_snk, row_base)`` for a ``d``-device stack.

    Cached on the lead plan (plans die with their topology epoch, so
    the cache cannot go stale); rebuilding these index arrays per
    span was a measurable share of small-cohort call overhead.
    """
    cache = getattr(plan, "_span_flat", None)
    if cache is not None and cache[0] == d:
        return cache[1], cache[2], cache[3]
    n = len(plan.reserves)
    row_base = (np.arange(d) * n)[:, None]
    flat_src = (row_base + plan.src).ravel()
    flat_snk = (row_base + plan.snk).ravel()
    plan._span_flat = (d, flat_src, flat_snk, row_base)
    return flat_src, flat_snk, row_base


def _commit_rows(tiers: List[SpanTier], ok: np.ndarray, end: np.ndarray,
                 moved: np.ndarray, lost: np.ndarray,
                 reclaimed: np.ndarray, in_sum: np.ndarray,
                 out_sum: np.ndarray,
                 results: List[Optional[float]]) -> None:
    """Commit the ``ok`` rows of a stacked solve, device by device.

    The one commit of the span tier: both entry points' single-regime
    solves and segment chains land here (the one-device entry point
    as a stack of one).  Row ``i`` writes ``tiers[i]``'s levels, transfer
    and decay totals, the root's reclaim and the taps' flows, and
    stores its total flow in ``results[i]``.  The whole-stack
    ``tolist`` conversions replace thousands of per-device numpy
    round-trips — at fleet scale the conversion overhead was a visible
    fraction of the solve — and the per-row work stays inline in the
    loop, because a helper call per row measurably slows fleets.
    """
    end_l = end.tolist()
    in_l = in_sum.tolist()
    out_l = out_sum.tolist()
    lost_l = lost.tolist()
    moved_totals = moved.sum(axis=1).tolist()
    for i, tier in enumerate(tiers):
        if not ok[i]:
            continue
        plan = tier.plan
        for reserve, lv, o, i_, ls in zip(plan.reserves, end_l[i],
                                          out_l[i], in_l[i], lost_l[i]):
            reserve._level = lv
            if o:
                reserve.total_transferred_out += o
            if i_:
                reserve.total_transferred_in += i_
            if ls:
                reserve.total_decayed += ls
        rec = float(reclaimed[i])
        if rec:
            plan.graph.root.total_deposited += rec
            plan.graph.decay_policy.total_reclaimed += rec
        row = moved[i]
        if plan.owns_slots:
            plan._tap_flow_acc += row
        else:
            # Span-cache plans never own the taps' accumulator slots
            # (the tick plan does); fold flows straight into the taps.
            for j in np.flatnonzero(row):
                tap = plan.taps[j]
                tap.total_flowed = tap.total_flowed + row[j]
        results[i] = moved_totals[i]


def execute_span_batch(tiers: List[SpanTier],
                       span) -> List[Optional[float]]:
    """Solve one event-free span for a whole cohort in one stacked call.

    ``tiers`` belong to plans that share a
    :attr:`~repro.core.flowplan.FlowPlan.signature` and whose graphs
    run the same decay constant (the fleet batcher groups by both), so
    the continuous dynamics ``L' = A·L + b`` are literally the same
    system over different initial conditions.  ``span`` is either one
    shared horizon or a ``(n_devices,)`` vector of **per-device**
    horizons (the fleet frontier's event-time buckets): devices at
    different clocks still share one eigendecomposition and one
    stacked switch-location scan, because every propagation formula is
    elementwise in ``t`` — only the dense Padé fallback keys an
    exponential per span value and solves per-span sub-stacks.  A
    vector of equal spans is bit-identical to the scalar call.

    The cohort entry point.  Levels stack into one ``(n_devices,
    n_reserves)`` array and run the single-regime tiers
    (:func:`_single_regime`); devices those refuse (mid-span clamp,
    capacity pressure, debt entry) collect into the **batched segment
    chain** (:func:`_batch_segmented`), with per-device segment
    clocks.  Only genuinely unsupported shapes come back ``None`` —
    nothing of those devices mutated — and the caller falls back to
    the one-device path (which may itself refuse into ticking).
    """
    lead = tiers[0]
    plan = lead.plan
    d = len(tiers)
    n = len(plan.reserves)
    policy = plan.graph.decay_policy
    lam = policy.lam if policy.enabled else 0.0
    spans = np.broadcast_to(np.asarray(span, dtype=float), (d,))
    lvl = np.empty((d, n))
    for i, tier in enumerate(tiers):
        lvl[i] = tier.plan._gather_levels()
    results: List[Optional[float]] = [None] * d
    # debt entry: a regime, not a refusal
    seg = _single_regime(tiers, spans, lam, lvl,
                         np.any(lvl < 0.0, axis=1), results)
    if seg.any():
        _batch_segmented(tiers, spans, lam, lvl, np.flatnonzero(seg),
                         results)
    return results


def _single_regime(tiers: List[SpanTier], spans: np.ndarray, lam: float,
                   lvl: np.ndarray, seg: np.ndarray,
                   results: List[Optional[float]]) -> np.ndarray:
    """The single-regime tiers over stacked ``(d, n)`` levels.

    ``spans`` holds each row's horizon and ``seg`` marks rows already
    bound for the segment chain (debt entry).  Every other row whose
    bounds hold over its span is solved in one linear regime and
    committed into ``results``; the returned mask marks the rows left
    for the segmented engine — a capacity that could bind, a drain
    that could clamp, or span-end negativity beyond float dust.

    * the **diagonal** tier solves each reserve in closed form,
      elementwise across the stack (a row rounds the same in any
      stack: every operation is elementwise or a per-row ``bincount``
      in tap order);
    * the **coupled** tier reuses a *single* eigendecomposition (or
      Padé exponential) of the lead tier's cached whole-topology
      :class:`LinearSystem` across the stacked ``L0`` — one
      factorization and a couple of matrix products instead of ``d``
      separate solves (:meth:`LinearSystem.integrals`).

    Levels commit by per-row mass balance, so conservation stays exact
    however the linear algebra rounded.
    """
    lead = tiers[0]
    plan = lead.plan
    d, n = lvl.shape
    spans_c = spans[:, None]
    f, linear, coupled, cap_may_bind = lead._dynamics(lam)
    if cap_may_bind and not coupled:
        # A capacity that can bind has no single-regime closed form;
        # this is a topology property, so every row runs the segment
        # chain (which certifies or locates the binding).
        return np.ones(d, dtype=bool)
    ok = ~seg
    if coupled and plan.finite_cap.size:
        # Capacity pressure: bound each trajectory's maximum.  Since
        # mass is conserved and levels stay non-negative, every level
        # is bounded by the total mass; refining through ``U <- lvl +
        # span * (const_in + P_prop @ U)`` keeps a sound pointwise
        # bound at each iterate (inflow integrated at the previous
        # bound, outflow ignored), and the elementwise best over a few
        # iterates is tight enough for realistic headroom.
        cap_idx = plan.finite_cap
        mass = np.maximum(lvl, 0.0).sum(axis=1)
        psrc = plan.src[plan.prop_taps]
        psnk = plan.snk[plan.prop_taps]
        prate = plan.rate[plan.prop_taps]
        best = np.repeat(mass[:, None], n, axis=1)
        row_base = _flat_indices(plan, d)[2]
        for _ in range(6):
            inflow = np.broadcast_to(lead.const_in, (d, n)).copy()
            if prate.size:
                flat = (row_base + psnk).ravel()
                inflow += np.bincount(
                    flat, weights=(prate * best[:, psrc]).ravel(),
                    minlength=d * n).reshape(d, n)
            if lam > 0.0 and plan.any_decayable:
                inflow[:, plan.root_index] += lam * best[
                    :, plan.decay_mask].sum(axis=1)
            best = np.minimum(best, lvl + inflow * spans_c)
        ok &= ~np.any(best[:, cap_idx] > plan.capacity[cap_idx] - 1e-12,
                      axis=1)
    ok &= lead._clamp_safe_rows(lvl, spans, f, linear)
    if not ok.any():
        return ~ok

    moved = spans_c * lead.const_rate
    lost = np.zeros((d, n))
    reclaimed = np.zeros(d)
    decays = lam > 0.0 and plan.any_decayable
    psrc = plan.src[plan.prop_taps]
    if coupled:
        system = lead._coupled.get(lam)
        if system is None:
            system = LinearSystem(*_coupled_matrices(lead, lam),
                                  lead.span_cache)
            if len(lead._coupled) > 4:  # decay toggles are rare
                lead._coupled.clear()
            lead._coupled[lam] = system
        integ = np.maximum(system.integrals(lvl, spans), 0.0)
        if plan.prop_taps.size:
            moved[:, plan.prop_taps] = (plan.rate[plan.prop_taps]
                                        * integ[:, psrc])
        if decays:
            lost = np.where(plan.decay_mask, lam * integ, 0.0)
            reclaimed = lost.sum(axis=1)
    else:
        decay_f = np.exp(-spans_c * f)  # == 1 exactly where F == 0
        net_const = lead.const_in - lead.const_out
        steady = np.divide(net_const, f, out=np.zeros(n), where=linear)
        end = np.where(linear, steady + (lvl - steady) * decay_f,
                       lvl + net_const * spans_c)
        # Mass balance: everything a linear reserve lost to its
        # proportional drains and decay over the span.
        drain = np.where(linear, lvl - end + net_const * spans_c, 0.0)
        drain = np.maximum(drain, 0.0)
        if plan.prop_taps.size:
            share = np.divide(plan.rate[plan.prop_taps], f[psrc],
                              out=np.zeros(plan.prop_taps.size),
                              where=f[psrc] > 0)
            moved[:, plan.prop_taps] = drain[:, psrc] * share
            flat = (_flat_indices(plan, d)[2]
                    + plan.snk[plan.prop_taps]).ravel()
            end += np.bincount(flat,
                               weights=moved[:, plan.prop_taps].ravel(),
                               minlength=d * n).reshape(d, n)
        if decays:
            lost = np.where(linear & plan.decay_mask,
                            drain * np.divide(lam, f, out=np.zeros(n),
                                              where=linear), 0.0)
            reclaimed = lost.sum(axis=1)
            end[:, plan.root_index] += reclaimed
    flat_src, flat_snk, _ = _flat_indices(plan, d)
    in_sum = np.bincount(flat_snk, weights=moved.ravel(),
                         minlength=d * n).reshape(d, n)
    out_sum = np.bincount(flat_src, weights=moved.ravel(),
                          minlength=d * n).reshape(d, n)
    if coupled:
        # Commit levels by mass balance from the integrated flows, not
        # the ODE output: conservation is then exact by construction
        # (the two agree analytically; float-wise they differ in the
        # last ulps, and mass balance is the one the audits check).
        end = lvl + in_sum - out_sum - lost
        end[:, plan.root_index] += reclaimed
        neg = np.minimum(end, 0.0)
        if neg.any():
            neg_rows = neg.sum(axis=1)
            # the bounds should preclude this; never guess
            ok &= ~(neg_rows < -NEGATIVE_LEVEL_SLACK)
            # Float dust on near-empty reserves: clamp to zero and let
            # the root absorb the difference so the books still balance.
            dusty = neg.any(axis=1) & ok
            end[dusty] -= neg[dusty]
            end[dusty, plan.root_index] += neg_rows[dusty]
    for i, tier in enumerate(tiers):
        if ok[i]:
            if coupled:
                tier.coupled_solves += 1
            else:
                tier.diagonal_solves += 1
    _commit_rows(tiers, ok, end, moved, lost, reclaimed, in_sum, out_sum,
                 results)
    return ~ok


def _batch_segmented(tiers: List[SpanTier], span, lam: float,
                     lvl: np.ndarray, idx: np.ndarray,
                     results: List[Optional[float]]) -> None:
    """Stacked segment-chain solve for a cohort's switching devices.

    ``span`` is a shared scalar or a full-stack ``(n_devices,)``
    vector of per-device horizons (indexed by ``idx`` like ``lvl``):
    every device already carries its own remaining-span clock through
    the chain, so heterogeneous starting horizons only change each
    clock's starting value and the per-device segment-resolution
    thresholds derived from it.

    The stacked twin of :meth:`SpanTier._execute_segmented`: the loop
    and its per-segment flows are its own, while each step it runs —
    the regime lookup, the certify-first boundary
    (:func:`_debt_boundary`), the certificate, the switch locator
    (:func:`_locate_switches`), the integral
    (:meth:`LinearSystem.integrals`, eigen or Padé) and the commit
    (:func:`_commit_rows`) — is the one the one-device loop runs on a
    stack of one.  Devices switch at different instants, so each
    carries its own remaining-span clock and segment count; every
    round absorbs dust, groups the still-active devices by their
    *derived regime* (cached on the lead tier, so one shared
    eigendecomposition or Padé exponential serves every device in the
    same regime) and advances each group to its members' next
    switches in one stacked locate/integrate pass.

    Per-device drop-out covers only the genuinely unsupported shapes —
    an underivable regime, a failed no-switch certificate, a
    sub-resolution segment, or a chain past :data:`MAX_SEGMENTS`.  A
    dropped device's ``results`` entry stays ``None`` with nothing
    mutated: the caller's one-device path (which may itself refuse
    into ticking) takes over.

    Stacked arithmetic reorders a handful of float operations relative
    to the one-device loop (matrix-matrix instead of matrix-vector
    products), so batched results agree with it to documented ulp
    tolerance rather than bit-identically; the parity suite pins that
    contract.
    """
    lead = tiers[0]
    plan = lead.plan
    n = len(plan.reserves)
    m = len(plan.taps)
    root = plan.root_index
    g = idx.size
    work = lvl[idx].copy()
    scale = np.maximum(1.0, np.abs(work).max(axis=1))
    ltol = 1e-11 * scale
    acc_moved = np.zeros((g, m))
    acc_lost = np.zeros((g, n))
    acc_rec = np.zeros(g)
    rem0 = np.broadcast_to(np.asarray(span, dtype=float),
                           (lvl.shape[0],))[idx]
    remaining = rem0.copy()
    segments = np.zeros(g, dtype=np.int64)
    alive = np.ones(g, dtype=bool)
    min_seg = np.maximum(1e-12, 1e-10 * rem0)
    tail = 1e-9 * rem0
    locate_wall = 0.0
    integrate_wall = 0.0

    while True:
        active = alive & (remaining > tail)
        if not active.any():
            break
        over = active & (segments >= MAX_SEGMENTS)
        if over.any():
            alive[over] = False
            active &= ~over
            if not active.any():
                break
        dust = active[:, None] & (work < 0.0) & (work >= -4.0
                                                 * ltol[:, None])
        if dust.any():
            work[:, root] += np.where(dust, work, 0.0).sum(axis=1)
            work[dust] = 0.0
        groups: Dict[int, Tuple[_SegmentRegime, List[int]]] = {}
        for i in np.flatnonzero(active):
            regime = lead._regime_for(work[i], lam, float(ltol[i]))
            if regime is None:
                alive[i] = False
                continue
            groups.setdefault(id(regime), (regime, []))[1].append(i)
        for regime, row_list in groups.values():
            rows = np.asarray(row_list, dtype=np.intp)
            gr = rows.size
            lvls = work[rows]
            lt = ltol[rows]
            rem = remaining[rows]
            n_sat = regime.sat[3].shape[0]
            t0 = perf_counter()
            seg_t = rem.copy()
            located = np.zeros(gr, dtype=bool)
            drop = np.zeros(gr, dtype=bool)
            fast = np.zeros(gr, dtype=bool)
            boundary = _debt_boundary(regime, lvls, rem, lt)
            if boundary is not None:
                t_cand, early, crossed = boundary
                fast = ((t_cand >= min_seg[rows])
                        & regime.certify_batch(
                            lvls, t_cand, lt, crossed,
                            np.zeros((gr, n_sat), dtype=bool)))
                seg_t = np.where(fast, t_cand, seg_t)
                located = fast & early
            srs = np.flatnonzero(~fast)
            if srs.size:
                s_t, s_located, crossed, crossed_sat = _locate_switches(
                    regime, lvls[srs], rem[srs], lt[srs])
                seg_t[srs] = s_t
                located[srs] = s_located
                drop[srs] = ((s_t < min_seg[rows[srs]])
                             | ~regime.certify_batch(lvls[srs], s_t,
                                                     lt[srs], crossed,
                                                     crossed_sat))
            locate_wall += perf_counter() - t0
            t0 = perf_counter()
            keep = ~drop
            if keep.any():
                k_pos = np.flatnonzero(keep)
                t_seg = seg_t[k_pos]
                integ = np.maximum(
                    regime.system.integrals(lvls[k_pos], t_seg), 0.0)
                gk = k_pos.size
                seg_moved = np.zeros((gk, m))
                if regime.const_idx.size:
                    ci = regime.const_idx
                    seg_moved[:, ci] = regime.eff[ci] * t_seg[:, None]
                if regime.prop_idx.size:
                    seg_moved[:, regime.prop_idx] = (
                        regime.prop_rate * integ[:, regime.prop_src])
                if regime.hov_idx.size:
                    seg_moved[:, regime.hov_idx] = (regime.hov_rate
                                                    * t_seg[:, None])
                for j, cpart, fsrc, fwts in regime.fwd:
                    seg_moved[:, j] = cpart * t_seg + integ[:, fsrc] @ fwts
                seg_lost = np.zeros((gk, n))
                if lam > 0.0 and regime.decay_rows.size:
                    dr = regime.decay_rows
                    seg_lost[:, dr] = lam * integ[:, dr]
                if regime.pin_rows.size:
                    seg_lost[:, regime.pin_rows] = (regime.pin_rates
                                                    * t_seg[:, None])
                seg_rec = seg_lost.sum(axis=1)
                rb = (np.arange(gk) * n)[:, None]
                in_sum = np.bincount(
                    (rb + plan.snk).ravel(), weights=seg_moved.ravel(),
                    minlength=gk * n).reshape(gk, n)
                out_sum = np.bincount(
                    (rb + plan.src).ravel(), weights=seg_moved.ravel(),
                    minlength=gk * n).reshape(gk, n)
                end = lvls[k_pos] + in_sum - out_sum - seg_lost
                end[:, root] += seg_rec
                neg = np.minimum(end, 0.0)
                neg[:, regime.mode == _DEBT] = 0.0
                bad = neg.sum(axis=1) < -NEGATIVE_LEVEL_SLACK
                if bad.any():
                    drop[k_pos[bad]] = True
                    good = ~bad
                    k_pos = k_pos[good]
                    t_seg = t_seg[good]
                    end = end[good]
                    seg_moved = seg_moved[good]
                    seg_lost = seg_lost[good]
                    seg_rec = seg_rec[good]
                krows = rows[k_pos]
                work[krows] = end
                acc_moved[krows] += seg_moved
                acc_lost[krows] += seg_lost
                acc_rec[krows] += seg_rec
                segments[krows] += 1
                remaining[krows] = np.where(
                    located[k_pos], remaining[krows] - t_seg, 0.0)
            integrate_wall += perf_counter() - t0
            alive[rows[drop]] = False

    solved = alive & (segments > 0) & ~(remaining > tail)
    if not solved.any():
        return
    dust = solved[:, None] & (work < 0.0) & (work >= -4.0 * ltol[:, None])
    if dust.any():
        work[:, root] += np.where(dust, work, 0.0).sum(axis=1)
        work[dust] = 0.0
    rb = (np.arange(g) * n)[:, None]
    in_sum = np.bincount((rb + plan.snk).ravel(),
                         weights=acc_moved.ravel(),
                         minlength=g * n).reshape(g, n)
    out_sum = np.bincount((rb + plan.src).ravel(),
                          weights=acc_moved.ravel(),
                          minlength=g * n).reshape(g, n)
    sub_tiers = [tiers[i] for i in idx]
    sub_results: List[Optional[float]] = [None] * g
    _commit_rows(sub_tiers, solved, work, acc_moved, acc_lost, acc_rec,
                 in_sum, out_sum, sub_results)
    n_solved = int(solved.sum())
    loc_share = locate_wall / n_solved
    int_share = integrate_wall / n_solved
    for p in np.flatnonzero(solved):
        tier = sub_tiers[p]
        tier.segmented_solves += 1
        graph = tier.plan.graph
        graph.span_segments += int(segments[p])
        graph.span_switches += int(segments[p]) - 1
        graph.span_locate_wall_s += loc_share
        graph.span_integrate_wall_s += int_share
        results[int(idx[p])] = sub_results[p]
