"""Self-tests of the benchmark: its checks catch bad output, and each workload runs.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

The file is not named ``test_*.py`` on purpose: the repository's test suite
collects those, and these tests exercise the benchmark, not the program.
"""

from __future__ import annotations

import os
import shutil
import sys
import traceback

import numpy as np

import run
from checks import check_measurement, check_page

RATE_HZ = 5000.0
TICK_HZ = 20.0


def _trace(start: float, duration: float, samples: int, current_ma: float = 120.0):
    from repro.powermonitor.traces import CurrentTrace

    times = start + (np.arange(samples) + 1.0) / RATE_HZ
    assert samples == 0 or times[-1] <= start + duration + 1e-9
    return CurrentTrace(times, np.full(samples, current_ma), 3.85)


def _check(trace, start: float, duration: float):
    return check_measurement(trace.timestamps, trace.summary(), start, duration, RATE_HZ, TICK_HZ)


def test_full_trace_passes() -> None:
    assert _check(_trace(3.0, 1.0, 5000), 3.0, 1.0) == (False, [])


def test_trace_one_tick_short_is_flagged() -> None:
    short, errors = _check(_trace(3.0, 1.0, 5000 - 250), 3.0, 1.0)
    assert short and not errors


def test_other_sample_counts_are_errors() -> None:
    for samples in (5000 - 500, 5000 - 1):
        short, errors = _check(_trace(3.0, 1.0, samples), 3.0, 1.0)
        assert not short and errors, samples


def test_timestamps_outside_window_are_errors() -> None:
    short, errors = _check(_trace(3.0, 1.0, 5000), 2.5, 1.0)
    assert errors and not short


def test_wrong_discharge_is_an_error() -> None:
    trace = _trace(3.0, 1.0, 5000)
    summary = trace.summary()
    wrong = type(summary)(**{**summary.__dict__, "discharge_mah": summary.discharge_mah * 1.01})
    _, errors = check_measurement(trace.timestamps, wrong, 3.0, 1.0, RATE_HZ, TICK_HZ)
    assert errors


def test_wrong_page_window_is_flagged() -> None:
    ids = list(range(1, 400, 2))
    assert check_page(ids, 10, 50, ids[10:60], len(ids)) == []
    assert check_page(ids, 10, 50, ids[11:61], len(ids))
    assert check_page(ids, 190, 50, ids[190:], len(ids)) == []
    assert check_page(ids, 190, 50, ids[190:-1], len(ids))
    assert check_page(ids, 10, 50, ids[10:60], len(ids) + 1)


def _tiny_sizes():
    import jobs
    import measure

    return {
        "jobs-durable": jobs.JobSizes(state_jobs=30, jobs_per_round=20, devices=2),
        "reads-federated": jobs.ReadSizes(
            state_jobs=30,
            mix=(("job.status", 20), ("fleet.list", 2), ("server.status", 2),
                 ("analytics.report", 2), ("job.list", 3), ("job.submit", 3)),
        ),
        "measure-5khz": measure.MeasureSizes(
            short_windows_s=(0.5, 1.0), short_repeats=2, long_window_s=20.0, setups_per_round=1
        ),
    }


def test_tiny_run_of_each_workload() -> None:
    for workload, sizes in _tiny_sizes().items():
        work = run.WORK / f"selftest-{os.getpid()}-{workload}"
        try:
            run.generate(workload, 5, work / "generated", sizes)
            for traced in (False, True):
                rounds, tracer, gc_s = run.run_workload(workload, 5, 0, traced, work, sizes)
                errors = [error for result in rounds for error in result.errors]
                assert not errors, (workload, errors[:3])
                assert all(result.attempted for result in rounds)
                if traced:
                    metrics = run.per_layer(rounds, tracer, gc_s)
                    assert set(metrics) == set(run.LAYER_UNITS)
                    assert metrics["trace.coverage_pct"] > 50, (workload, metrics["trace.coverage_pct"])
                else:
                    metrics, _ = run.end_to_end(workload, rounds)
                    assert set(metrics) == set(run.E2E_UNITS)
                    assert all(value > 0 for value in metrics.values()), (workload, metrics)
        finally:
            shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    run._import_program()
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:  # noqa: BLE001 - report every failing test, then exit non-zero
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
