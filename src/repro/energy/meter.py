"""A simulated Agilent E3644A DC power supply.

The paper's ground truth: "All measurements were taken using an
Agilent Technologies E3644A, a DC power supply with a current sense
resistor that can be sampled remotely via an RS-232 interface.  We
sampled both voltage and current approximately every 200 ms, and
aggregated our results from this data" (§4.2).

The simulator feeds this meter the *true* instantaneous system power
each tick; the meter quantizes it into 200 ms samples of voltage and
current (with optional sense-resistor noise), from which experiments
recover energy by aggregation — so figures compare Cinder's model
*estimates* against "measured" power exactly the way the paper does.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError

#: The paper's sampling cadence.
DEFAULT_SAMPLE_INTERVAL_S = 0.2


class PowerMeter:
    """Accumulates true power and emits sampled V/I readings."""

    def __init__(self, sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
                 supply_voltage: float = 3.7,
                 noise_fraction: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if sample_interval_s <= 0:
            raise SimulationError("sample interval must be positive")
        self.sample_interval_s = sample_interval_s
        self.supply_voltage = supply_voltage
        self.noise_fraction = noise_fraction
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # accumulation within the current sample window
        self._window_energy = 0.0
        self._window_time = 0.0
        #: How near its end the open window closes, fixed when it
        #: opens (:meth:`_edge_slack`).
        self._window_slack = 1e-12
        self._now = 0.0
        # emitted samples (each covers its own window duration; the
        # final flushed sample may cover a partial window)
        self._sample_times: List[float] = []
        self._sample_watts: List[float] = []
        self._sample_windows: List[float] = []
        #: Exact integrated energy (the meter's internal totalizer).
        self.total_energy_joules = 0.0

    # -- feeding -------------------------------------------------------------------

    def feed(self, watts: float, dt: float) -> None:
        """Integrate true power over ``dt`` seconds; emit due samples.

        A fast-forwarded span may cover hours at constant power; the
        scalar one-window-at-a-time loop (:meth:`_feed_one` until the
        span is used up; ``feed_reference`` in
        ``tests/sim/test_events_world.py`` keeps it as the
        differential-testing oracle) would cost thousands of Python
        iterations.  Whole windows are instead emitted in bulk with
        numpy while reproducing the reference bit-for-bit: running
        times and the energy totalizer advance through
        ``numpy.cumsum`` (sequential, so identical to repeated
        ``+=``), window means repeat one scalar-computed value, and
        noise draws come from one array call, which consumes the
        generator stream exactly like per-emit scalar draws.
        """
        if dt < 0:
            raise SimulationError("dt must be non-negative")
        if watts < 0:
            raise SimulationError("negative system power")
        interval = self.sample_interval_s
        remaining = dt
        # Drain a partially-filled window with reference arithmetic.
        while remaining > 0.0 and self._window_time > 0.0:
            remaining = self._feed_one(watts, remaining)
        if remaining <= 0.0:
            return
        estimate = int(remaining / interval)
        if estimate >= 512:
            # Long idle spans (hours of windows): the numpy chain.
            # The reference loop's remainder sequence is repeated
            # ``remaining -= interval``; cumsum reproduces it exactly,
            # and an iteration is a whole window iff the remainder
            # *before* it was >= interval.
            chain = np.empty(estimate + 1)
            chain[0] = remaining
            chain[1:] = -interval
            after = np.cumsum(chain)[1:]
            before = np.empty(estimate)
            before[0] = remaining
            before[1:] = after[:-1]
            whole = int(np.argmin(before >= interval)) \
                if not (before >= interval).all() else estimate
            if whole >= 4:
                self._emit_whole_windows(watts, whole)
                remaining = float(after[whole - 1])
        elif remaining >= interval:
            # Short spans (a fleet macro-step is a handful of 200 ms
            # windows): a fused scalar loop over whole windows — the
            # exact per-window float chain ``_feed_one`` + ``_emit``
            # produce, minus their call and bookkeeping overhead.
            window_energy = watts * interval
            mean = window_energy / interval
            noise = self.noise_fraction
            rng = self._rng
            now = self._now
            total = self.total_energy_joules
            times = self._sample_times
            sample_watts = self._sample_watts
            windows = self._sample_windows
            while remaining >= interval:
                total += window_energy
                now += interval
                remaining -= interval
                mean_watts = mean
                if noise > 0.0:
                    mean_watts *= 1.0 + rng.normal(0.0, noise)
                    mean_watts = max(0.0, mean_watts)
                times.append(now)
                sample_watts.append(mean_watts)
                windows.append(interval)
            self._now = now
            self.total_energy_joules = total
        # Tail (plus any sub-window feed): the reference loop.
        while remaining > 0.0:
            remaining = self._feed_one(watts, remaining)

    def feed_cohort(self, followers: List["PowerMeter"], watts: float,
                    dt: float) -> None:
        """Feed one constant-power span to this meter and ``followers``.

        Fleet schedulers call this when a whole commit cohort shares
        the same ``(watts, dt)`` and every meter is *phase-aligned*:
        identical ``sample_interval_s``, ``noise_fraction == 0`` and
        identical ``(_window_time, _window_energy, _window_slack,
        _now)``.  Under those guards every meter's :meth:`feed` would
        emit the same sample block and apply the same totalizer
        increment sequence — only the starting totalizer differs — so
        the lead meter runs the ordinary :meth:`feed` once and each
        follower extends its sample arrays with the shared block and
        replays the exact increment chain from its own total.
        Bit-identical to feeding each meter individually; callers must
        fall back to that when any guard fails (noise draws consume
        per-meter rng streams).
        """
        mark = len(self._sample_times)
        interval = self.sample_interval_s
        t0 = self._window_time
        self.feed(watts, dt)
        times = self._sample_times[mark:]
        sample_watts = self._sample_watts[mark:]
        windows = self._sample_windows[mark:]
        # The exact totalizer increments feed() applied, re-derived
        # through the same float chain (each branch of feed() adds
        # watts * step per reference iteration and watts * interval
        # per whole window — including the cumsum bulk path, which is
        # bit-identical to the repeated scalar chain by construction).
        incs: List[float] = []
        remaining = dt
        if remaining > 0.0 and t0 > 0.0:
            step = min(remaining, interval - t0)
            incs.append(watts * step)
            remaining -= step
        while remaining >= interval:
            incs.append(watts * interval)
            remaining -= interval
        if remaining > 0.0:
            incs.append(watts * remaining)
        window_time = self._window_time
        window_energy = self._window_energy
        window_slack = self._window_slack
        now = self._now
        for meter in followers:
            meter._sample_times.extend(times)
            meter._sample_watts.extend(sample_watts)
            meter._sample_windows.extend(windows)
            total = meter.total_energy_joules
            for inc in incs:
                total += inc
            meter.total_energy_joules = total
            meter._window_time = window_time
            meter._window_energy = window_energy
            meter._window_slack = window_slack
            meter._now = now

    def _edge_slack(self) -> float:
        """How far float drift may move a window edge.

        A span fed in one call walks its windows by repeated
        ``remaining -= interval``, and each subtraction rounds by up
        to half an ulp of the span, so after ``span / interval``
        windows the last edge is off by less than
        ``span / interval · ulp(span)`` (it was 3.7e-8 s at
        36,000 s).  The meter's clock bounds the span.
        """
        now = self._now
        return max(1e-12, now / self.sample_interval_s * math.ulp(now))

    def _feed_one(self, watts: float, remaining: float) -> float:
        """One reference iteration; returns the remaining time.

        A window closes within :meth:`_edge_slack` (taken when it
        opens) of its end, so one long feed emits the windows that
        tick-sized feeds of the same span emit even when drift leaves
        its last window short.
        """
        if self._window_time == 0.0:
            self._window_slack = self._edge_slack()
        room = self.sample_interval_s - self._window_time
        step = min(remaining, room)
        self._window_energy += watts * step
        self._window_time += step
        self.total_energy_joules += watts * step
        self._now += step
        remaining -= step
        if self._window_time >= self.sample_interval_s - self._window_slack:
            self._emit()
        return remaining

    def _emit_whole_windows(self, watts: float, count: int) -> None:
        """Bulk-emit ``count`` whole windows at constant ``watts``.

        Entered only with an empty accumulation window, so every
        window repeats the same scalar arithmetic the reference loop
        would perform: energy ``watts * interval``, duration exactly
        one interval, mean ``(watts * interval) / interval``.
        """
        interval = self.sample_interval_s
        window_energy = watts * interval
        mean = window_energy / interval
        # Running chains, sequential through cumsum (element 0 seeds
        # the chain with the current scalar value).
        chain = np.empty(count + 1)
        chain[0] = self._now
        chain[1:] = interval
        times = np.cumsum(chain)[1:]
        self._now = float(times[-1])
        chain[0] = self.total_energy_joules
        chain[1:] = window_energy
        self.total_energy_joules = float(np.cumsum(chain)[-1])
        if self.noise_fraction > 0.0:
            draws = self._rng.normal(0.0, self.noise_fraction, count)
            means = np.maximum(0.0, mean * (1.0 + draws))
        else:
            means = np.full(count, mean)
        self._sample_times.extend(times.tolist())
        self._sample_watts.extend(means.tolist())
        self._sample_windows.extend([interval] * count)

    def _emit(self) -> None:
        mean_watts = self._window_energy / self._window_time
        if self.noise_fraction > 0.0:
            mean_watts *= 1.0 + self._rng.normal(0.0, self.noise_fraction)
            mean_watts = max(0.0, mean_watts)
        self._sample_times.append(self._now)
        self._sample_watts.append(mean_watts)
        self._sample_windows.append(self._window_time)
        self._window_energy = 0.0
        self._window_time = 0.0

    def flush(self) -> None:
        """Emit a final partial sample (end of experiment).

        Residue from float accumulation — sub-nanosecond, or the
        drift a long feed can leave past a window edge
        (:meth:`_edge_slack`) — is discarded rather than emitted as a
        bogus duplicate sample.
        """
        if self._window_time > max(1e-9, self._window_slack):
            self._emit()
        else:
            self._window_energy = 0.0
            self._window_time = 0.0

    # -- readings --------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Meter-local time (seconds of power fed so far)."""
        return self._now

    @property
    def sample_count(self) -> int:
        """Emitted samples so far, without materializing the arrays
        (:meth:`samples` copies the whole history — too heavy for the
        per-barrier checkpoint digests that only need the count)."""
        return len(self._sample_times)

    def samples(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, watts) arrays of emitted samples."""
        return (np.asarray(self._sample_times, dtype=float),
                np.asarray(self._sample_watts, dtype=float))

    def voltage_current_samples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, volts, amps) — the raw channels the Agilent reports."""
        times, watts = self.samples()
        volts = np.full_like(watts, self.supply_voltage)
        amps = np.divide(watts, volts, out=np.zeros_like(watts),
                         where=volts > 0)
        return times, volts, amps

    # -- aggregation (how the paper reduces its data) ------------------------------------

    def energy_between(self, start: float, end: float) -> float:
        """Trapezoid-free energy estimate from samples in [start, end).

        Each 200 ms sample is a window mean, so summing
        ``watts * interval`` is exact up to window boundaries.
        """
        if end < start:
            raise SimulationError("end before start")
        times, watts = self.samples()
        total = 0.0
        for time, power, window in zip(times, watts,
                                       self._sample_windows):
            window_start = time - window
            overlap = min(end, time) - max(start, window_start)
            if overlap > 0:
                total += power * overlap
        return total

    def mean_power_between(self, start: float, end: float) -> float:
        """Average measured power over [start, end)."""
        if end <= start:
            return 0.0
        return self.energy_between(start, end) / (end - start)

    def time_above(self, threshold_watts: float) -> float:
        """Seconds of samples whose mean exceeded ``threshold_watts``.

        Used to compute Table 1's "Active Time" from the measured
        trace (active = baseline + radio plateau present).
        """
        _, watts = self.samples()
        windows = np.asarray(self._sample_windows, dtype=float)
        return float(windows[watts > threshold_watts].sum())

    def energy_above(self, threshold_watts: float) -> float:
        """Energy within samples above the threshold (Table 1's
        "Active Energy")."""
        _, watts = self.samples()
        windows = np.asarray(self._sample_windows, dtype=float)
        mask = watts > threshold_watts
        return float((watts[mask] * windows[mask]).sum())
