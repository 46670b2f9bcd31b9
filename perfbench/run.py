"""BatteryLab's benchmark: one named workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload jobs-durable --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout.  A run repeats
whole rounds of its workload until ``--seconds`` (by default the
``run_seconds`` of ``BENCHMARK.json``) have passed.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` rounds alternate traced and untraced (traced
first), the per-layer table and the tracing overhead are printed, the spans
are written to ``perfbench/_work/spans-<workload>.jsonl``, and the last line
carries the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

#: Workload and metric names, units and the run length, as ``BENCHMARK.json`` declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: End-to-end metrics (``--trace 0``), reported by every workload.
E2E_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
#: Per-layer metrics (``--trace 1``); a layer a workload does not cross reads 0.
LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: Per workload: the latency samples behind ``p50_ms``/``tail_ms``, the
#: count behind ``throughput_per_s``, the tail percentile and the fewest
#: rounds a run makes.  The tail is the highest percentile that keeps at
#: least ten samples beyond it at that many rounds: 5 x 1,000 jobs,
#: 1 x 1,000 requests, 1 x 100 short measurements.
SHAPE = {
    "jobs-durable": ("job", "jobs", 99.8, 5),
    "reads-federated": ("read", "requests", 99.0, 1),
    "measure-5khz": ("short", "samples", 90.0, 1),
}


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    # Load every module the rounds use now, so no round pays a first import.
    import jobs  # noqa: F401
    import measure  # noqa: F401
    import tracer  # noqa: F401


def _sizes(workload: str):
    import jobs
    import measure

    if workload == "jobs-durable":
        return jobs.JobSizes()
    if workload == "reads-federated":
        return jobs.ReadSizes()
    return measure.MeasureSizes()


def generate(workload: str, seed: int, into: Path, sizes=None) -> None:
    """Have the program write the workload's starting state under ``into``."""
    import jobs

    sizes = sizes or _sizes(workload)
    into.mkdir(parents=True, exist_ok=True)
    if workload == "jobs-durable":
        jobs.generate_jobs_state(into, seed, sizes)
    elif workload == "reads-federated":
        jobs.generate_federation_state(into, seed, sizes)


def generate_in_child(workload: str, seed: int, into: Path) -> None:
    """:func:`generate` in a child process, so the run's peak memory is its own."""
    subprocess.run(
        [sys.executable, __file__, "--generate", str(into), "--workload", workload,
         "--seed", str(seed)],
        check=True,
        timeout=150,
    )


def run_workload(workload: str, seed: int, seconds: float, traced: bool, work: Path, sizes=None):
    """Run whole rounds until ``seconds`` pass; returns ``(rounds, tracer, gc_s)``.

    Job workloads start each round from ``work/generated``, which
    :func:`generate` must have filled.
    """
    import jobs
    import measure
    from common import GcPauseMeter
    from tracer import Tracer, program_layers

    sizes = sizes or _sizes(workload)
    rng = random.Random(seed)
    generated = work / "generated"
    min_rounds = max(SHAPE[workload][3], 2 if traced else 1)
    tracer = Tracer()
    rounds = []
    deadline = perf_counter() + seconds
    with GcPauseMeter() as gc_meter:
        while True:
            trace_round = traced and len(rounds) % 2 == 0
            if trace_round:
                tracer.install(program_layers())
            try:
                if workload == "jobs-durable":
                    result = jobs.jobs_round(generated, work, seed, rng, sizes, tracer)
                elif workload == "reads-federated":
                    result = jobs.reads_round(generated, work, seed, rng, sizes, tracer)
                else:
                    result = measure.measure_round(seed, sizes, tracer, gc_meter.collect_uncounted)
            finally:
                tracer.uninstall()
            result.traced = trace_round
            rounds.append(result)
            gc_meter.collect_uncounted()
            if perf_counter() >= deadline and len(rounds) >= min_rounds:
                break
    return rounds, tracer, gc_meter.total_s


# -- metrics ---------------------------------------------------------------------
def end_to_end(workload: str, rounds) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metrics, and the workload's own figures printed beside them."""
    import numpy as np
    from common import peak_rss_mib, pooled

    key, work_key, tail_q, _ = SHAPE[workload]
    latencies = pooled(rounds, key)
    # Rate and median are taken per round and the run reports their median,
    # so a burst of load from outside that spans a few rounds moves neither.
    metrics = {
        "setup_s": median([s for result in rounds for s in result.setup_s]),
        "peak_rss_mib": peak_rss_mib(),
        "throughput_per_s": median([r.counts[work_key] / r.timed_s for r in rounds]),
        "p50_ms": median([median(r.latencies[key]) for r in rounds]) * 1e3,
        "tail_ms": float(np.percentile(latencies, tail_q)) * 1e3,
    }
    extra = {"samples": len(latencies), "tail_percentile": tail_q}
    if workload == "jobs-durable":
        extra["submit_p50_ms"] = median(pooled(rounds, "submit")) * 1e3
    if workload == "measure-5khz":
        extra["long_measure_s"] = median(pooled(rounds, "long"))
    return metrics, extra


def per_layer(rounds, tracer, gc_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced rounds' spans and counts."""
    from common import total

    traced = [result for result in rounds if result.traced]
    plain = [result for result in rounds if not result.traced]
    table = tracer.layer_table("timed")
    setup = tracer.layer_table("setup")

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def count(name: str) -> float:
        return table.get(name, {}).get("count", 0)

    def per(value: float, base: float, scale: float = 1.0) -> float:
        return value / base * scale if base else 0.0

    requests = total(traced, "requests")
    jobs = total(traced, "jobs")
    samples = total(traced, "samples")
    measurements = count("measure")

    def cost_per_op(group) -> float:
        return sum(r.timed_s for r in group) / max(1, sum(r.attempted for r in group))

    timed = sum(result.timed_s for result in traced)
    return {
        "sdk.self_us": per(self_s("sdk"), requests, 1e6),
        "wire.self_us": per(self_s("wire"), requests, 1e6),
        "router.self_us": per(self_s("router"), requests, 1e6),
        "federation.self_us": per(self_s("federation"), requests, 1e6),
        "federation.forwards": per(tracer.child_count("federation", "router"), count("federation")),
        "federation.page_jobs_fetched": per(tracer.counters["shard_page_jobs"], total(traced, "pages")),
        "server.submit_us": per(self_s("server.submit"), jobs, 1e6),
        "dispatch.wave_us": per(self_s("dispatch.wave"), jobs, 1e6),
        "journal.appends": per(count("journal.append"), jobs),
        "journal.append_us": per(self_s("journal.append"), jobs, 1e6),
        "journal.fsyncs": per(total(traced, "fsyncs"), jobs, 1000),
        "checkpoint.count": per(count("checkpoint"), jobs, 1000),
        "checkpoint.ms": per(total_s("checkpoint"), count("checkpoint"), 1e3),
        "checkpoint.max_ms": table.get("checkpoint", {}).get("max_s", 0.0) * 1e3,
        "snapshot.kib": traced[-1].counts.get("snapshot_bytes", 0.0) / 1024,
        "recovery.ms": per(setup.get("recovery", {}).get("total_s", 0.0), len(traced), 1e3),
        "bus.publish_us": per(self_s("bus.publish"), jobs, 1e6),
        "analytics.fold_us": per(self_s("analytics.fold"), jobs, 1e6),
        "analytics.report_ms": per(total_s("analytics.report"), count("analytics.report"), 1e3),
        "sampler.ticks": per(count("sampler.extend"), total(traced, "sim_seconds")),
        "sampler.extend_ns": per(self_s("sampler.extend"), samples, 1e9),
        "clock.self_ns": per(self_s("clock"), samples, 1e9),
        "trace.build_ns": per(self_s("trace.build"), samples, 1e9),
        "trace.summary_ns": per(self_s("trace.summary"), samples, 1e9),
        "trace.peak_bytes_per_sample": per(
            traced[0].counts.get("long_growth_bytes", 0.0), traced[0].counts.get("long_samples", 0.0)
        ),
        "monitor.startstop_ms": per(self_s("monitor.start") + self_s("monitor.stop"), measurements, 1e3),
        "samples.missing": per(total(rounds, "missing"), len(rounds)),
        "gc.pause_ms": gc_s * 1e3,
        "trace.overhead_pct": (per(cost_per_op(traced), cost_per_op(plain)) - 1.0) * 100.0,
        "trace.coverage_pct": per(sum(row["self_s"] for row in table.values()), timed, 100.0),
    }


def _print_layer_table(tracer, rounds) -> None:
    table = tracer.layer_table("timed")
    timed = sum(result.timed_s for result in rounds if result.traced)
    print(f"{'layer':<18}{'count':>9}{'self ms':>11}{'self us/op':>12}{'share':>8}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"{name:<18}{row['count']:>9}{row['self_s'] * 1e3:>11.1f}"
            f"{row['self_s'] / row['count'] * 1e6:>12.2f}{row['self_s'] / timed * 100:>7.1f}%"
        )


def _result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    )


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    if args.generate is not None:
        generate(args.workload, args.seed, args.generate)
        return 0

    from common import cpu_ticks

    # One CPU for every thread of the run (client, gateway loop, worker): a
    # request then hands over between threads on the same CPU instead of
    # waking another virtual CPU, which on a shared virtual machine may be
    # descheduled by the hypervisor; the GIL lets one thread run at a time anyway.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ticks_before = cpu_ticks()
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        generate_in_child(args.workload, args.seed, work / "generated")
        rounds, tracer, gc_s = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ticks_after = cpu_ticks()
    steal = (ticks_after[1] - ticks_before[1]) / max(1, ticks_after[0] - ticks_before[0])
    errors = [error for result in rounds for error in result.errors]
    attempted = sum(result.attempted for result in rounds)
    failed = sum(result.failed for result in rounds)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  operations {attempted}")
    print(f"hypervisor steal during the run: {steal:.1%} of the machine's CPU time")
    for error in errors[:10]:
        print(f"CHECK FAILED: {error}")
    if args.workload == "measure-5khz":
        from checks import SAMPLER_FAULT

        print(f"fault {SAMPLER_FAULT}: {failed} of {attempted} windows one tick short")
    if args.trace:
        metrics = per_layer(rounds, tracer, gc_s)
        _print_layer_table(tracer, rounds)
        print(
            f"tracing overhead {metrics['trace.overhead_pct']:.1f}% per operation; "
            f"layers cover {metrics['trace.coverage_pct']:.1f}% of the timed phase"
        )
        spans = WORK / f"spans-{args.workload}.jsonl"
        tracer.write(spans)
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        units = LAYER_UNITS
    else:
        metrics, extra = end_to_end(args.workload, rounds)
        print("  ".join(f"{name}={value:.6g}" for name, value in extra.items()))
        units = E2E_UNITS
    for name, unit in units.items():
        print(f"  {name:<30}{metrics[name]:>16.6g} {unit}")
    print(_result_line(not errors, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
