"""Composable arrival processes: Poisson, diurnal, flash crowd, traces.

Every process is an inhomogeneous Poisson stream described by a rate
function ``rate(t)`` over a bounded window, realised with Lewis-Shedler
thinning: candidate instants are drawn from a homogeneous stream at
``peak_rate`` and each is accepted with probability ``rate(t) /
peak_rate``.  One algorithm for every shape keeps draw counts stable per
candidate, so two runs with equal seeds produce bit-identical arrival
streams -- the property the scenario replay invariants lean on.

:class:`RecordedTrace` closes the loop: any process can be *recorded*
into an explicit timestamp list (:meth:`RecordedTrace.record`), shipped
as JSON (:meth:`RecordedTrace.to_json` / :meth:`RecordedTrace.from_json`),
and replayed exactly -- the round trip is lossless because timestamps are
serialised as full-precision floats.
"""

from __future__ import annotations

import json
import math
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "RecordedTrace",
]


class ArrivalProcess:
    """Base class: an inhomogeneous Poisson arrival stream.

    Subclasses define :meth:`rate` and :attr:`peak_rate`;
    :meth:`generate` realises the stream by thinning.
    """

    def rate(self, time_s: float) -> float:
        """Instantaneous arrival rate (requests per second) at ``time_s``.

        Args:
            time_s: instant inside the generation window.

        Returns:
            The rate in requests per second (non-negative).
        """
        raise NotImplementedError

    @property
    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate` over any window (the thinning cap)."""
        raise NotImplementedError

    def expected_count(self, duration_s: float) -> float:
        """Expected number of arrivals over ``[0, duration_s)``.

        Integrated numerically on a fine grid; exact for the piecewise-
        constant shapes and accurate to the grid for smooth ones.

        Args:
            duration_s: length of the window.

        Returns:
            The integral of :meth:`rate` over the window.
        """
        if duration_s <= 0:
            return 0.0
        steps = max(1000, int(duration_s * 10))
        grid = np.linspace(0.0, duration_s, steps, endpoint=False)
        width = duration_s / steps
        return float(sum(self.rate(float(t)) for t in grid) * width)

    def generate(self, duration_s: float, rng: np.random.Generator) -> List[float]:
        """Realise one arrival stream over ``[0, duration_s)``.

        Args:
            duration_s: length of the generation window.
            rng: the seeded generator driving the thinning draws.

        Returns:
            Strictly ordered arrival instants inside the window.
        """
        peak = self.peak_rate
        if peak <= 0 or duration_s <= 0:
            return []
        # One exponential gap, then one acceptance uniform, per candidate.
        # ``scale * standard_exponential()`` is exactly what
        # ``exponential(scale)`` computes, minus its argument checks.
        scale = 1.0 / peak
        exponential = rng.standard_exponential
        uniform = rng.random
        rate = self.rate
        out: List[float] = []
        time_s = 0.0
        while True:
            time_s += scale * exponential()
            if time_s >= duration_s:
                break
            if uniform() * peak <= rate(time_s):
                out.append(time_s)
        return out


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a constant offered rate.

    Args:
        rate_rps: the constant offered rate in requests per second.
    """

    def __init__(self, rate_rps: float) -> None:
        if rate_rps < 0:
            raise ValueError("offered rate must be non-negative")
        self.rate_rps = rate_rps

    def rate(self, time_s: float) -> float:
        """Constant rate, independent of time.

        Args:
            time_s: unused (homogeneous process).

        Returns:
            The configured rate.
        """
        return self.rate_rps

    @property
    def peak_rate(self) -> float:
        """The constant rate is its own peak."""
        return self.rate_rps


class DiurnalArrivals(ArrivalProcess):
    """A sinusoidal day/night cycle around a base rate.

    ``rate(t) = base * (1 + amplitude * sin(2 pi (t + phase) / period))``
    -- with ``amplitude`` in [0, 1] the rate never goes negative.

    Args:
        base_rps: the mean offered rate.
        amplitude: relative swing in [0, 1] (0 = flat, 1 = rate touches 0).
        period_s: cycle length in simulated seconds.
        phase_s: time offset of the cycle start.
    """

    def __init__(
        self,
        base_rps: float,
        amplitude: float = 0.5,
        period_s: float = 86400.0,
        phase_s: float = 0.0,
    ) -> None:
        if base_rps < 0:
            raise ValueError("base rate must be non-negative")
        if not (0.0 <= amplitude <= 1.0):
            raise ValueError("amplitude must be within [0, 1]")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.base_rps = base_rps
        self.amplitude = amplitude
        self.period_s = period_s
        self.phase_s = phase_s

    def rate(self, time_s: float) -> float:
        """The sinusoidal rate at ``time_s``.

        Args:
            time_s: instant inside the generation window.

        Returns:
            The instantaneous rate (never negative for amplitude <= 1).
        """
        angle = 2.0 * math.pi * (time_s + self.phase_s) / self.period_s
        return self.base_rps * (1.0 + self.amplitude * math.sin(angle))

    @property
    def peak_rate(self) -> float:
        """The crest of the sine: ``base * (1 + amplitude)``."""
        return self.base_rps * (1.0 + self.amplitude)


class FlashCrowdArrivals(ArrivalProcess):
    """A quiet base rate with one rectangular spike window.

    Args:
        base_rps: offered rate outside the spike.
        spike_rps: offered rate inside the spike window.
        spike_start_s: when the flash crowd begins.
        spike_duration_s: how long the flash crowd lasts.
    """

    def __init__(
        self,
        base_rps: float,
        spike_rps: float,
        spike_start_s: float,
        spike_duration_s: float,
    ) -> None:
        if base_rps < 0 or spike_rps < 0:
            raise ValueError("rates must be non-negative")
        if spike_start_s < 0 or spike_duration_s < 0:
            raise ValueError("spike window must be non-negative")
        self.base_rps = base_rps
        self.spike_rps = spike_rps
        self.spike_start_s = spike_start_s
        self.spike_duration_s = spike_duration_s

    def rate(self, time_s: float) -> float:
        """The piecewise-constant rate at ``time_s``.

        Args:
            time_s: instant inside the generation window.

        Returns:
            ``spike_rps`` inside the spike window, ``base_rps`` outside.
        """
        inside = (
            self.spike_start_s
            <= time_s
            < self.spike_start_s + self.spike_duration_s
        )
        return self.spike_rps if inside else self.base_rps

    @property
    def peak_rate(self) -> float:
        """The larger of the two plateau rates."""
        return max(self.base_rps, self.spike_rps)


class RecordedTrace(ArrivalProcess):
    """An explicit, replayable timestamp list (a recorded trace).

    Args:
        arrivals: non-decreasing arrival instants (seconds).
    """

    def __init__(self, arrivals: Sequence[float]) -> None:
        ordered = tuple(float(t) for t in arrivals)
        if any(t < 0 for t in ordered):
            raise ValueError("trace timestamps must be non-negative")
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            raise ValueError("trace timestamps must be non-decreasing")
        self.arrivals: Tuple[float, ...] = ordered

    @classmethod
    def record(
        cls, process: ArrivalProcess, duration_s: float, seed: int
    ) -> "RecordedTrace":
        """Materialise any process into a replayable trace.

        Args:
            process: the arrival process to record.
            duration_s: length of the recording window.
            seed: RNG seed for the recording run.

        Returns:
            A trace that replays the recorded stream exactly.
        """
        rng = np.random.default_rng(seed)
        return cls(process.generate(duration_s, rng))

    def rate(self, time_s: float) -> float:
        """Empirical mean rate of the trace (used only for introspection).

        Args:
            time_s: unused; a trace has no closed-form rate function.

        Returns:
            Recorded arrivals divided by the trace span (0 for short traces).
        """
        if not self.arrivals:
            return 0.0
        span = self.arrivals[-1] if self.arrivals[-1] > 0 else 1.0
        return len(self.arrivals) / span

    @property
    def peak_rate(self) -> float:
        """The empirical mean rate (traces bypass thinning entirely)."""
        return self.rate(0.0)

    def expected_count(self, duration_s: float) -> float:
        """Exact count of recorded arrivals inside the window.

        Args:
            duration_s: length of the window.

        Returns:
            How many recorded timestamps fall in ``[0, duration_s)``.
        """
        return float(sum(1 for t in self.arrivals if t < duration_s))

    def generate(self, duration_s: float, rng: np.random.Generator) -> List[float]:
        """Replay the recorded timestamps (no randomness consumed).

        Args:
            duration_s: window bound; recorded instants past it are clipped.
            rng: unused; replay is deterministic by construction.

        Returns:
            The recorded instants inside ``[0, duration_s)``.
        """
        return [t for t in self.arrivals if t < duration_s]

    def to_json(self) -> str:
        """Serialise the trace as a JSON document.

        Timestamps are emitted with ``repr`` round-trip precision, so
        ``from_json(to_json())`` reproduces the trace bit-for-bit.

        Returns:
            A JSON object string with a ``arrivals`` array.
        """
        return json.dumps({"kind": "recorded_trace", "arrivals": list(self.arrivals)})

    @classmethod
    def from_json(cls, document: str) -> "RecordedTrace":
        """Rebuild a trace from :meth:`to_json` output.

        Args:
            document: the JSON string produced by :meth:`to_json`.

        Returns:
            The reconstructed trace (bit-identical arrivals).
        """
        payload = json.loads(document)
        if payload.get("kind") != "recorded_trace":
            raise ValueError("not a recorded-trace document")
        return cls(payload["arrivals"])
