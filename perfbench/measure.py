"""measure-5khz: Table 1 measurements on the default vantage point at 5 kHz.

Every round builds a fresh platform, so its simulated clock starts at zero
and the schedule below lands on the same simulated instants in every round
and for every seed; which windows show the sampler fault is therefore fixed
and the failed share is the same in every run.  The seed drives the
platform's random streams, i.e. the sample noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Tuple

from repro.core.platform import build_default_platform

import checks
from common import RoundResult, current_rss_bytes, peak_rss_mib
from tracer import Tracer

#: The Monsoon model's default evaluation rate of the load current; each
#: tick synthesises ``rate / TICK_RATE_HZ`` samples.
TICK_RATE_HZ = 20.0


@dataclass(frozen=True)
class MeasureSizes:
    short_windows_s: Tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0)
    short_repeats: int = 20
    long_window_s: float = 600.0
    setups_per_round: int = 10

    def schedule(self) -> List[float]:
        return [d for _ in range(self.short_repeats) for d in self.short_windows_s] + [
            self.long_window_s
        ]


def measure_round(
    seed: int, sizes: MeasureSizes, tracer: Tracer, collect: Callable[[], None]
) -> RoundResult:
    """Set up, then run the schedule: ``api.measure`` + ``summary()`` per window.

    ``collect`` runs a full collection that is left out of the GC pause total.
    """
    result = RoundResult()
    tracer.phase = "setup"
    for _ in range(sizes.setups_per_round):
        # Every set-up starts from a collected heap, as the first of a round
        # does; otherwise where the collector's counters stand after the last
        # set-up or measurement decides which set-ups pay for a collection.
        collect()
        started = perf_counter()
        platform = build_default_platform(seed=seed)
        api = platform.api()
        api.power_monitor()
        device = api.list_devices()[0]
        result.setup_s.append(perf_counter() - started)
    rate_hz = platform.vantage_point().monitor.sample_rate_hz
    schedule = sizes.schedule()
    for index, duration in enumerate(schedule):
        is_long = index == len(schedule) - 1
        result.attempted += 1
        start = platform.context.now
        rss_before = current_rss_bytes() if is_long else 0
        tracer.phase = "timed"
        began = perf_counter()
        trace = api.measure(device, duration)
        summary = trace.summary()
        elapsed = perf_counter() - began
        tracer.phase = "check"
        result.timed_s += elapsed
        result.add_latency("long" if is_long else "short", elapsed)
        result.count("samples", len(trace))
        result.count("sim_seconds", duration)
        result.count("missing", round(duration * rate_hz) - len(trace))
        if is_long:
            result.count("long_samples", len(trace))
            result.count("long_growth_bytes", peak_rss_mib() * 1024 * 1024 - rss_before)
        short, errors = checks.check_measurement(
            trace.timestamps, summary, start, duration, rate_hz, TICK_RATE_HZ
        )
        result.errors.extend(errors)
        if short:
            result.failed += 1
        del trace
    return result
