"""Shared plumbing for the benchmark: memory, GC pauses, rounds.

Nothing here imports the program under test, so the self-tests and the
steadiness command can use it without a source tree.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_bytes() -> int:
    """Resident set of this process right now, from ``/proc/self/statm``."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


def cpu_ticks() -> Tuple[int, int]:
    """``(all, steal)`` clock ticks of the whole machine so far, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while a virtual CPU of
    this machine wanted to run; it slows every figure of a run alike.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return sum(fields), fields[7]


class GcPauseMeter:
    """Sums the collector's pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.total_s += time.perf_counter() - self._started
            self._started = None

    def __enter__(self) -> "GcPauseMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def collect_uncounted(self) -> None:
        """A full collection left out of the pause total, run between rounds
        so one round's cyclic garbage is not carried into the next."""
        before = self.total_s
        gc.collect()
        self.total_s = before


@dataclass
class RoundResult:
    """What one round of a workload measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Per-operation latencies (s), keyed by what the workload calls them.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Counts and sizes the per-layer table needs (jobs, samples, ...).
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    traced: bool = False

    def add_latency(self, key: str, seconds: float) -> None:
        self.latencies.setdefault(key, []).append(seconds)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount


def pooled(rounds: Sequence[RoundResult], key: str) -> List[float]:
    values: List[float] = []
    for result in rounds:
        values.extend(result.latencies.get(key, ()))
    return values


def total(rounds: Sequence[RoundResult], key: str) -> float:
    return sum(result.counts.get(key, 0.0) for result in rounds)


def fresh_copy(source: Path, target: Path) -> Path:
    """Copy a generated state directory so a round starts from it untouched."""
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(source, target)
    return target
