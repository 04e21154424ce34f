"""Time-series recording for experiments.

The figure harnesses need the same artifacts the paper plots: power
traces sampled like the Agilent meter, reserve levels over time
(Figures 10, 11, 14), and stacked per-principal power estimates
(Figures 9, 12).  :class:`TimeSeries` is the primitive;
:class:`TraceRecorder` is a named bag of them attached to the engine.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError


class TimeSeries:
    """An append-only (time, value) series with analysis helpers."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, time: float, value: float) -> None:
        """Add a sample; times must be non-decreasing."""
        if self._times and time < self._times[-1] - 1e-12:
            raise SimulationError(
                f"series {self.name!r}: time went backward "
                f"({time} < {self._times[-1]})")
        self._times.append(time)
        self._values.append(value)

    def extend(self, times: List[float], value: float) -> None:
        """Append ``value`` at each of ``times`` (non-decreasing) at once."""
        if not times:
            return
        if self._times and times[0] < self._times[-1] - 1e-12:
            raise SimulationError(
                f"series {self.name!r}: time went backward "
                f"({times[0]} < {self._times[-1]})")
        self._times.extend(times)
        self._values.extend([value] * len(times))

    # -- access -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        """Sample times as an array."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array."""
        return np.asarray(self._values, dtype=float)

    def last(self) -> float:
        """Most recent value."""
        if not self._values:
            raise SimulationError(f"series {self.name!r} is empty")
        return self._values[-1]

    # -- analysis -----------------------------------------------------------------

    def value_at(self, time: float) -> float:
        """Zero-order-hold lookup: latest sample at or before ``time``."""
        times = self.times
        index = int(np.searchsorted(times, time, side="right")) - 1
        if index < 0:
            raise SimulationError(
                f"series {self.name!r} has no sample before {time}")
        return self._values[index]

    def mean_between(self, start: float, end: float) -> float:
        """Arithmetic mean of samples within [start, end)."""
        times, values = self.times, self.values
        mask = (times >= start) & (times < end)
        if not mask.any():
            return 0.0
        return float(values[mask].mean())

    def max_between(self, start: float, end: float) -> float:
        """Max of samples within [start, end)."""
        times, values = self.times, self.values
        mask = (times >= start) & (times < end)
        if not mask.any():
            return 0.0
        return float(values[mask].max())

    def min_value(self) -> float:
        """Global minimum (the Fig. 11 'never reaches zero' check)."""
        if not self._values:
            raise SimulationError(f"series {self.name!r} is empty")
        return float(self.values.min())

    def integrate(self) -> float:
        """Trapezoidal integral over the whole series."""
        if len(self._times) < 2:
            return 0.0
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(self.values, self.times))

    def time_above(self, threshold: float) -> float:
        """Total time the (zero-order-hold) series exceeds ``threshold``."""
        times, values = self.times, self.values
        if len(times) < 2:
            return 0.0
        dt = np.diff(times)
        return float(dt[values[:-1] > threshold].sum())

    def resample(self, bin_s: float, t_end: Optional[float] = None
                 ) -> "TimeSeries":
        """Bin-averaged copy (empty bins hold the previous value)."""
        if bin_s <= 0:
            raise SimulationError("bin size must be positive")
        out = TimeSeries(f"{self.name}@{bin_s}s")
        if not self._times:
            return out
        end = t_end if t_end is not None else self._times[-1]
        times, values = self.times, self.values
        edges = np.arange(0.0, end + bin_s, bin_s)
        previous = values[0]
        for left, right in zip(edges[:-1], edges[1:]):
            mask = (times >= left) & (times < right)
            if mask.any():
                previous = float(values[mask].mean())
            out.append(left, previous)
        return out


class TraceRecorder:
    """A named collection of series plus probe-based auto-recording."""

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}
        #: (name, callable) probes sampled by the engine each record step.
        self._probes: List[Tuple[str, Callable[[], float]]] = []

    def series(self, name: str) -> TimeSeries:
        """Get (creating if needed) the series called ``name``."""
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def has(self, name: str) -> bool:
        """True if a series with that name holds samples."""
        return name in self._series and len(self._series[name]) > 0

    def names(self) -> List[str]:
        """All series names, sorted."""
        return sorted(self._series)

    def record(self, name: str, time: float, value: float) -> None:
        """Append one sample to the named series."""
        self.series(name).append(time, value)

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register a probe the engine samples on every record interval.

        Probes are how experiments watch reserve levels: e.g.
        ``recorder.add_probe('netd.pool', lambda: pool.level)``.
        """
        self._probes.append((name, fn))

    @property
    def has_probes(self) -> bool:
        """True once a probe is registered: sampling it needs live
        levels at each record instant."""
        return bool(self._probes)

    def sample_probes(self, time: float) -> None:
        """Sample every registered probe at ``time``."""
        for name, fn in self._probes:
            self.record(name, time, float(fn()))
