"""Output checks, computed from the benchmark's own bookkeeping.

Each check returns a list of error strings (empty when the output is
right); the measurement check also says whether the trace shows the named
sampler fault, which the workload counts as a failed operation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: The fault the measurement workload counts instead of flagging.
SAMPLER_FAULT = (
    "sampler-last-tick-lost: SamplingEngine loses the last tick of a window, because "
    "PeriodicProcess reschedules at an accumulated float and stop() never samples "
    "the interval after the last tick"
)


def check_measurement(
    timestamps: np.ndarray,
    summary,
    start_s: float,
    duration_s: float,
    rate_hz: float,
    tick_rate_hz: float,
) -> Tuple[bool, List[str]]:
    """Check one trace of a ``duration_s`` window opened at ``start_s``.

    Returns ``(short, errors)``.  ``short`` is true when the trace is exactly
    one tick's worth of samples short — the named sampler fault; the
    discharge check is skipped for such a trace, since the missing tick
    shifts it by exactly that tick's share.  Any other sample-count error,
    a timestamp outside the window, a decreasing timestamp, a summary that
    disagrees with the samples, or a discharge off by more than a tenth of
    one tick's share is an error.
    """
    errors: List[str] = []
    expected = round(duration_s * rate_hz)
    per_tick = round(rate_hz / tick_rate_hz)
    count = len(timestamps)
    short = count == expected - per_tick
    if count != expected and not short:
        errors.append(f"{duration_s} s window: {count} samples, expected {expected}")
    if summary.samples != count:
        errors.append(f"summary counts {summary.samples} samples, trace holds {count}")
    if count:
        slack = 1e-9 * max(1.0, start_s + duration_s)
        if timestamps[0] <= start_s - slack or timestamps[-1] > start_s + duration_s + slack:
            errors.append(
                f"timestamps [{timestamps[0]}, {timestamps[-1]}] leave the window "
                f"[{start_s}, {start_s + duration_s}]"
            )
        if count > 1 and bool(np.any(np.diff(timestamps) < 0)):
            errors.append("timestamps decrease")
    if count == expected:
        expected_mah = summary.mean_current_ma * duration_s / 3600.0
        tolerance = abs(expected_mah) / (tick_rate_hz * duration_s) / 10.0
        if abs(summary.discharge_mah - expected_mah) > tolerance:
            errors.append(
                f"{duration_s} s window: discharge {summary.discharge_mah} mAh, "
                f"mean x duration gives {expected_mah} mAh (tolerance {tolerance})"
            )
    return short, errors


def check_page(
    known_ids: Sequence[int], offset: int, limit: int, page_ids: Sequence[int], total: int
) -> List[str]:
    """A ``job.list`` page must be the window of the sorted submitted ids."""
    errors: List[str] = []
    expected = list(known_ids[offset : offset + limit])
    if list(page_ids) != expected:
        errors.append(
            f"page offset={offset} limit={limit}: got {list(page_ids)[:3]}..., "
            f"expected {expected[:3]}..."
        )
    if total != len(known_ids):
        errors.append(f"page total {total}, benchmark knows {len(known_ids)} jobs")
    return errors


def check_increasing(previous: int, job_id: int) -> List[str]:
    if job_id <= previous:
        return [f"job id {job_id} acknowledged after {previous}"]
    return []


def check_recovered(expected_ids: Sequence[int], recovered_ids: Sequence[int]) -> List[str]:
    expected, recovered = set(expected_ids), set(recovered_ids)
    if expected == recovered:
        return []
    return [
        f"restart recovered {len(recovered)} jobs; missing {sorted(expected - recovered)[:5]}, "
        f"unexpected {sorted(recovered - expected)[:5]}"
    ]
