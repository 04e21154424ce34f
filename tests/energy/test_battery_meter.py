"""Tests for the battery gauge (§4.1) and the simulated meter (§4.2)."""

import numpy as np
import pytest

from repro.energy.battery import Battery
from repro.energy.calibrate import (UsageInterval, intervals_from_gauge,
                                    refit_from_gauge)
from repro.energy.meter import PowerMeter
from repro.errors import EnergyError, HardwareError, SimulationError


class TestBattery:
    def test_gauge_is_coarse_integer(self):
        battery = Battery(capacity_joules=1000.0, charge_joules=567.8)
        assert battery.gauge() == 57
        assert isinstance(battery.gauge(), int)

    def test_drain_clamps_at_empty(self):
        battery = Battery(capacity_joules=100.0, charge_joules=10.0)
        assert battery.drain(25.0) == pytest.approx(10.0)
        assert battery.empty

    def test_charge_clamps_at_capacity(self):
        battery = Battery(capacity_joules=100.0, charge_joules=90.0)
        assert battery.charge(25.0) == pytest.approx(10.0)

    def test_gauge_history_must_be_ordered(self):
        battery = Battery()
        battery.record_gauge(1.0)
        with pytest.raises(HardwareError):
            battery.record_gauge(0.5)

    def test_invalid_construction(self):
        with pytest.raises(EnergyError):
            Battery(capacity_joules=0.0)
        with pytest.raises(EnergyError):
            Battery(capacity_joules=10.0, charge_joules=20.0)


class TestMeter:
    def test_samples_at_200ms(self):
        meter = PowerMeter()
        meter.feed(1.0, 1.0)
        times, watts = meter.samples()
        assert len(times) == 5
        assert np.allclose(watts, 1.0)

    def test_window_mean_of_varying_power(self):
        meter = PowerMeter()
        meter.feed(1.0, 0.1)
        meter.feed(3.0, 0.1)  # one 0.2 s window: mean 2.0
        _, watts = meter.samples()
        assert watts[0] == pytest.approx(2.0)

    def test_total_energy_exact(self):
        meter = PowerMeter()
        meter.feed(0.699, 10.0)
        assert meter.total_energy_joules == pytest.approx(6.99)

    def test_energy_between(self):
        meter = PowerMeter()
        meter.feed(2.0, 4.0)
        assert meter.energy_between(1.0, 3.0) == pytest.approx(4.0)

    def test_mean_power_between(self):
        meter = PowerMeter()
        meter.feed(0.5, 2.0)
        meter.feed(1.5, 2.0)
        assert meter.mean_power_between(0.0, 4.0) == pytest.approx(1.0)

    def test_time_and_energy_above_threshold(self):
        meter = PowerMeter()
        meter.feed(0.7, 1.0)
        meter.feed(1.2, 1.0)
        assert meter.time_above(1.0) == pytest.approx(1.0)
        assert meter.energy_above(1.0) == pytest.approx(1.2)

    def test_voltage_current_channels(self):
        meter = PowerMeter(supply_voltage=3.7)
        meter.feed(3.7, 0.4)
        _, volts, amps = meter.voltage_current_samples()
        assert np.allclose(volts, 3.7)
        assert np.allclose(amps, 1.0)

    def test_noise_is_seeded_and_bounded(self):
        rng = np.random.default_rng(7)
        meter = PowerMeter(noise_fraction=0.01, rng=rng)
        meter.feed(1.0, 10.0)
        _, watts = meter.samples()
        assert watts.std() > 0.0
        assert abs(watts.mean() - 1.0) < 0.01

    def test_flush_emits_partial_window(self):
        meter = PowerMeter()
        meter.feed(1.0, 0.1)
        assert len(meter.samples()[0]) == 0
        meter.flush()
        assert len(meter.samples()[0]) == 1

    def test_negative_power_rejected(self):
        with pytest.raises(SimulationError):
            PowerMeter().feed(-1.0, 1.0)


TICK_S = 0.01


class TestWindowsDoNotDependOnSplitting:
    """One long feed emits exactly the windows that tick-sized feeds of
    the same span emit, however long the span: the float drift of
    walking a long span window by window moves no window edge."""

    def test_tick_feeds_close_every_twentieth_tick(self):
        meter = PowerMeter()
        for k in range(1, 4001):
            meter.feed(1.5, TICK_S)
            assert meter.sample_count == k // 20

    @pytest.mark.parametrize("seconds", [60.0, 600.0, 1800.0, 3600.0,
                                         18_000.0, 36_000.0, 86_400.0])
    @pytest.mark.parametrize("extra", [0, 1, 19])
    def test_one_feed_emits_the_windows_of_tick_feeds(self, seconds,
                                                      extra):
        ticks = round(seconds / TICK_S) + extra
        meter = PowerMeter()
        meter.feed(1.5, ticks * TICK_S)
        assert meter.sample_count == ticks // 20
        # The open window closes on the tick where tick feeds close it.
        for _ in range(-ticks % 20):
            assert meter.sample_count == ticks // 20
            meter.feed(1.5, TICK_S)
        closed = -(-ticks // 20)
        assert meter.sample_count == closed
        # No drift crumb is left to flush as a sample of its own.
        meter.flush()
        assert meter.sample_count == closed


class TestFeedCohort:
    """The cohort-batched feed must be float-identical to feeding
    each meter alone — the independent scheduler's commit relies on
    it for bit-exact fleet parity."""

    @staticmethod
    def _meters(count, prehistory=()):
        meters = [PowerMeter() for _ in range(count)]
        for meter in meters:
            for watts, dt in prehistory:
                meter.feed(watts, dt)
        return meters

    def _check(self, prehistory, watts, dt):
        cohort = self._meters(3, prehistory)
        solo = self._meters(3, prehistory)
        cohort[0].feed_cohort(cohort[1:], watts, dt)
        for meter in solo:
            meter.feed(watts, dt)
        for a, b in zip(cohort, solo):
            assert a._sample_times == b._sample_times
            assert a._sample_watts == b._sample_watts
            assert a._sample_windows == b._sample_windows
            assert a.total_energy_joules == b.total_energy_joules
            assert a._window_time == b._window_time
            assert a._window_energy == b._window_energy
            assert a._now == b._now

    def test_whole_windows_from_clean_state(self):
        self._check((), 0.699, 1.0)

    def test_partial_window_carry_in_and_out(self):
        # 0.13 s of prehistory leaves a partial window; the cohort
        # feed must replay the drain step and the new tail exactly.
        self._check(((1.0, 0.13),), 0.3, 0.27)

    def test_sub_window_feed(self):
        self._check(((2.0, 0.05),), 0.7, 0.1)

    def test_long_span_cumsum_path(self):
        # >512 whole windows: feed() takes its vectorized branch;
        # the replayed increment chain must still match exactly.
        self._check(((1.0, 0.13),), 0.02, 200.0)

    def test_lead_state_is_unaffected_by_followers(self):
        lead_solo = self._meters(1, ((1.0, 0.13),))[0]
        cohort = self._meters(2, ((1.0, 0.13),))
        cohort[0].feed_cohort(cohort[1:], 0.5, 3.0)
        lead_solo.feed(0.5, 3.0)
        assert cohort[0].total_energy_joules == lead_solo.total_energy_joules
        assert cohort[0]._sample_times == lead_solo._sample_times


class TestCalibration:
    """§9: re-fitting the model from the coarse gauge."""

    def test_refit_recovers_planted_model(self):
        rng = np.random.default_rng(3)
        true_baseline, true_cpu, true_radio = 0.7, 0.14, 0.48
        intervals = []
        for _ in range(40):
            duration = float(rng.uniform(50, 200))
            cpu_busy = float(rng.uniform(0, duration))
            radio_busy = float(rng.uniform(0, duration))
            drained = (true_baseline * duration + true_cpu * cpu_busy
                       + true_radio * radio_busy)
            intervals.append(UsageInterval(
                duration, {"cpu": cpu_busy, "radio": radio_busy}, drained))
        baseline, watts = refit_from_gauge(intervals, ["cpu", "radio"])
        assert baseline == pytest.approx(true_baseline, rel=0.02)
        assert watts["cpu"] == pytest.approx(true_cpu, rel=0.05)
        assert watts["radio"] == pytest.approx(true_radio, rel=0.05)

    def test_intervals_from_gauge_pairs_steps(self):
        gauge = [(0.0, 100), (100.0, 99), (200.0, 97)]
        busy = [(0.0, {"cpu": 0.0}), (100.0, {"cpu": 50.0}),
                (200.0, {"cpu": 120.0})]
        intervals = intervals_from_gauge(gauge, 1000.0, busy)
        assert len(intervals) == 2
        assert intervals[0].drained_joules == pytest.approx(10.0)
        assert intervals[1].busy_seconds["cpu"] == pytest.approx(70.0)

    def test_refit_requires_data(self):
        with pytest.raises(EnergyError):
            refit_from_gauge([], ["cpu"])

    def test_misaligned_logs_rejected(self):
        with pytest.raises(EnergyError):
            intervals_from_gauge([(0.0, 100)], 1000.0, [])
