"""The metrics bus: one registry shared by every instrumented component.

A :class:`MetricsRegistry` is the rendezvous point between the hot paths
that *record* (gateway, batcher, schedulers) and the consumers that *read*
(the autoscale controller, exporters, benchmarks).  Components get-or-create
their instruments once at construction time and keep direct references, so
the per-event recording path never touches the registry's dict again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.telemetry.metrics import Counter, Gauge, Histogram


@dataclass(frozen=True)
class HistogramSnapshot:
    """Point-in-time rollup of one histogram."""

    name: str
    count: int
    total: float
    window_mean: float
    ewma: float
    p50: float
    p99: float


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time view of every registered metric.

    Built by :meth:`MetricsRegistry.snapshot`; this is what exporters
    serialise and what tests assert against, decoupled from the live
    (still-mutating) instruments.
    """

    counters: Mapping[str, float]
    gauges: Mapping[str, float]
    histograms: Mapping[str, HistogramSnapshot]
    def counter(self, name: str, default: float = 0.0) -> float:
        """A counter's total at snapshot time.

        Args:
            name: metric name.
            default: value returned when the counter was never registered.

        Returns:
            The total, or ``default``.
        """
        return self.counters.get(name, default)


class MetricsRegistry:
    """Named metric instruments with get-or-create semantics."""

    def __init__(self, default_histogram_window: Optional[int] = None) -> None:
        """Create an empty registry.

        Args:
            default_histogram_window: ring-buffer window applied to
                histograms created without an explicit ``window``; None
                keeps :attr:`Histogram.DEFAULT_WINDOW` (how deployment
                specs plumb ``telemetry.histogram_window`` bus-wide).
        """
        if default_histogram_window is not None and default_histogram_window < 2:
            raise ValueError("default histogram window must be at least 2")
        self._default_histogram_window = (
            default_histogram_window
            if default_histogram_window is not None
            else Histogram.DEFAULT_WINDOW
        )
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Instrument creation / lookup
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        """Get or create the counter with this name.

        Args:
            name: metric name, unique per instrument kind.

        Returns:
            The (possibly pre-existing) counter.
        """
        self._check_name(name, self._counters)
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge with this name.

        Args:
            name: metric name, unique per instrument kind.

        Returns:
            The (possibly pre-existing) gauge.
        """
        self._check_name(name, self._gauges)
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = Gauge(name)
            self._gauges[name] = instrument
        return instrument

    def histogram(self, name: str, window: Optional[int] = None) -> Histogram:
        """Get or create the histogram with this name.

        Args:
            name: metric name, unique per instrument kind.
            window: ring-buffer window for a newly created histogram (an
                existing histogram keeps its original window); None uses
                the registry's default window.

        Returns:
            The (possibly pre-existing) histogram.
        """
        self._check_name(name, self._histograms)
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = Histogram(
                name,
                window=window if window is not None else self._default_histogram_window,
            )
            self._histograms[name] = instrument
        return instrument

    def _check_name(self, name: str, own: Dict[str, object]) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric {name!r} already registered as a different kind"
                )

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """All registered metric names, sorted.

        Returns:
            Counter, gauge, and histogram names in one sorted list.
        """
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )

    def counter_values(self) -> Dict[str, float]:
        """Just the counter totals, without any histogram rollups.

        The cheap read for recurring consumers (the autoscale control
        loop runs every tick): a full :meth:`snapshot` sorts every
        histogram's window for quantiles, which is wasted work when only
        counter deltas are needed.

        Returns:
            Counter name -> current total.
        """
        return {name: counter.value for name, counter in self._counters.items()}

    def snapshot(self) -> MetricsSnapshot:
        """Render every instrument into an immutable point-in-time view.

        Returns:
            The :class:`MetricsSnapshot` (histograms carry their windowed
            rollups: mean, EWMA, p50, p99).
        """
        histograms: Dict[str, HistogramSnapshot] = {}
        for name, histogram in self._histograms.items():
            histograms[name] = HistogramSnapshot(
                name=name,
                count=histogram.count,
                total=histogram.total,
                window_mean=histogram.window_mean(),
                ewma=histogram.ewma(),
                p50=histogram.quantile(0.50),
                p99=histogram.quantile(0.99),
            )
        return MetricsSnapshot(
            counters={name: c.value for name, c in self._counters.items()},
            gauges={name: g.value for name, g in self._gauges.items()},
            histograms=histograms,
        )
