"""The job path over the plaintext loopback gateway: jobs-durable and reads-federated.

Both workloads start every round from a copy of durable state that the
program itself wrote once per invocation (:func:`generate_jobs_state`,
:func:`generate_federation_state`, run in a child process so the parent's
peak memory is the round's alone).  Set-up — recovery, analytics cold
replay, gateway start, connect and log in — is timed per round.  Load comes
from this process over one client connection, in a closed loop.
"""

from __future__ import annotations

import bisect
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import List, Sequence, Tuple

from repro.api.client import BatteryLabClient, InProcessTransport
from repro.api.errors import ApiError
from repro.api.gateway import ApiGateway, JsonLinesTransport
from repro.core.platform import build_default_platform
from repro.federation import FederationRouter, build_federation_shards

import checks
from common import RoundResult, fresh_copy
from tracer import Tracer

USER = "experimenter"
TOKEN = "experimenter-token"
TERMINAL = ("completed", "failed", "cancelled")
#: Reads of ``job.status`` after which a job that is still not terminal is an error.
MAX_STATUS_READS = 100
IDS_FILE = "ids.json"


@dataclass(frozen=True)
class JobSizes:
    state_jobs: int = 2000
    jobs_per_round: int = 1000
    devices: int = 4


@dataclass(frozen=True)
class ReadSizes:
    state_jobs: int = 1000
    shards: int = 2
    devices_per_shard: int = 2
    page_limit: int = 50
    #: One round's operations, shuffled by the seed.
    mix: Tuple[Tuple[str, int], ...] = (
        ("job.status", 840),
        ("fleet.list", 40),
        ("server.status", 40),
        ("analytics.report", 40),
        ("job.list", 20),
        ("job.submit", 20),
    )


def _job_name(rng: random.Random, index: int) -> str:
    return f"bench-{rng.getrandbits(32):08x}-{index}"


def _write_ids(directory: Path, ids: Sequence[int]) -> None:
    (directory / IDS_FILE).write_text(json.dumps(list(ids)), encoding="utf-8")


def read_ids(directory: Path) -> List[int]:
    return json.loads((directory / IDS_FILE).read_text(encoding="utf-8"))


# -- generated starting state --------------------------------------------------
def generate_jobs_state(directory: Path, seed: int, sizes: JobSizes) -> None:
    """``sizes.state_jobs`` completed noop jobs, journaled under ``directory/state``."""
    rng = random.Random(seed)
    platform = build_default_platform(
        seed=seed, state_dir=str(directory / "state"), device_count=sizes.devices
    )
    client = platform.client()
    ids = []
    for index in range(sizes.state_jobs):
        ids.append(client.submit_job(_job_name(rng, index), "noop", priority=rng.random()).job_id)
        if len(ids) % 50 == 0:
            platform.run_queue(100)
    platform.run_queue(sizes.state_jobs)
    platform.persistence.close()
    _write_ids(directory, ids)


def _vantage_point(shard_index: int) -> str:
    return f"shard-{shard_index}-node1"


def generate_federation_state(directory: Path, seed: int, sizes: ReadSizes) -> None:
    """``sizes.state_jobs`` completed jobs spread evenly over the shards' journals."""
    rng = random.Random(seed)
    shards = build_federation_shards(
        sizes.shards,
        state_root=str(directory / "state"),
        seed=seed,
        device_count=sizes.devices_per_shard,
    )
    client = BatteryLabClient(InProcessTransport(FederationRouter(shards)), USER, TOKEN)
    ids = []
    for index in range(sizes.state_jobs):
        view = client.submit_job(
            _job_name(rng, index), "noop", vantage_point=_vantage_point(index % sizes.shards)
        )
        ids.append(view.job_id)
        if len(ids) % 50 == 0:
            for shard in shards:
                shard.settle()
    for shard in shards:
        shard.settle()
        shard.server.persistence.close()
    _write_ids(directory, sorted(ids))


# -- rounds --------------------------------------------------------------------
def _connect(gateway) -> BatteryLabClient:
    host, port = gateway.address
    client = BatteryLabClient(JsonLinesTransport(host, port), USER, TOKEN)
    client.login()
    return client


def _snapshot_bytes(state_dirs: Sequence[Path]) -> int:
    return sum((path / "snapshot.json").stat().st_size for path in state_dirs)


def jobs_round(
    generated: Path, work: Path, seed: int, rng: random.Random, sizes: JobSizes, tracer: Tracer
) -> RoundResult:
    """Restart from the generated state, then submit → wave → read back, one job at a time."""
    result = RoundResult()
    known = read_ids(generated)
    state = fresh_copy(generated / "state", work / "jobs-round")
    tracer.phase = "setup"
    started = perf_counter()
    platform = build_default_platform(
        seed=seed, state_dir=str(state), device_count=sizes.devices
    )
    gateway = platform.serve_gateway()
    client = _connect(gateway)
    result.setup_s.append(perf_counter() - started)
    acked: List[int] = []
    backend = platform.persistence.backend
    try:
        fsyncs_before = backend.fsyncs
        tracer.phase = "timed"
        timed_from = perf_counter()
        last_id = max(known)
        for index in range(sizes.jobs_per_round):
            result.attempted += 1
            try:
                sent = perf_counter()
                view = client.submit_job(_job_name(rng, index), "noop", priority=rng.random())
                acked_at = perf_counter()
                with gateway.router_lock:
                    platform.run_queue()
                    platform.context.run_for(1.0)
                reads = 0
                status = view.status
                while reads == 0 or (status not in TERMINAL and reads < MAX_STATUS_READS):
                    status = client.job_status(view.job_id).status
                    reads += 1
                done = perf_counter()
            except ApiError as exc:
                result.failed += 1
                result.errors.append(f"job {index}: {exc}")
                continue
            result.count("requests", 1 + reads)
            result.add_latency("job", done - sent)
            result.add_latency("submit", acked_at - sent)
            result.errors.extend(checks.check_increasing(last_id, view.job_id))
            if status != "completed":
                result.errors.append(f"job {view.job_id} read back {status!r}")
            acked.append(view.job_id)
            last_id = view.job_id
        result.timed_s = perf_counter() - timed_from
        tracer.phase = "check"
        result.count("jobs", len(acked))
        result.count("fsyncs", backend.fsyncs - fsyncs_before)
        result.count("snapshot_bytes", _snapshot_bytes([state]))
        completed = client.analytics_report().jobs.completed
        if completed != len(known) + len(acked):
            result.errors.append(
                f"analytics reports {completed} completed jobs, "
                f"benchmark counts {len(known) + len(acked)}"
            )
    finally:
        client.close()
        gateway.stop()
        platform.persistence.close()
    restarted = build_default_platform(
        seed=seed, state_dir=str(state), device_count=sizes.devices, analytics=False
    )
    recovered = [view.job_id for view in restarted.client().list_jobs()]
    restarted.persistence.close()
    result.errors.extend(checks.check_recovered(known + acked, recovered))
    shutil.rmtree(state)
    return result


def reads_round(
    generated: Path, work: Path, seed: int, rng: random.Random, sizes: ReadSizes, tracer: Tracer
) -> RoundResult:
    """Restart a federation from the generated state, then run the read mix."""
    result = RoundResult()
    ids = read_ids(generated)
    root = fresh_copy(generated / "state", work / "reads-round")
    tracer.phase = "setup"
    started = perf_counter()
    shards = build_federation_shards(
        sizes.shards, state_root=str(root), seed=seed, device_count=sizes.devices_per_shard
    )
    gateway = ApiGateway(FederationRouter(shards))
    gateway.start()
    client = _connect(gateway)
    result.setup_s.append(perf_counter() - started)
    devices = {
        f"{_vantage_point(shard)}-dev{device:02d}"
        for shard in range(sizes.shards)
        for device in range(sizes.devices_per_shard)
    }
    ops = [op for op, count in sizes.mix for _ in range(count)]
    rng.shuffle(ops)
    backends = [shard.server.persistence.backend for shard in shards]
    try:
        fsyncs_before = sum(backend.fsyncs for backend in backends)
        tracer.phase = "timed"
        timed_from = perf_counter()
        for op in ops:
            result.attempted += 1
            try:
                errors, latency = _read_op(op, client, gateway, shards, ids, devices, rng, sizes, result)
            except ApiError as exc:
                result.failed += 1
                result.errors.append(f"{op}: {exc}")
                continue
            result.add_latency("read", latency)
            result.errors.extend(errors)
        result.timed_s = perf_counter() - timed_from
        tracer.phase = "check"
        result.count("requests", len(ops))
        result.count("fsyncs", sum(backend.fsyncs for backend in backends) - fsyncs_before)
        result.count("snapshot_bytes", _snapshot_bytes([root / shard.shard_id for shard in shards]))
    finally:
        client.close()
        gateway.stop()
        for shard in shards:
            shard.server.persistence.close()
    shutil.rmtree(root)
    return result


def _read_op(op, client, gateway, shards, ids, devices, rng, sizes, result) -> Tuple[List[str], float]:
    """Issue one operation of the read mix; returns its check errors and latency."""
    sent = perf_counter()
    if op == "job.status":
        job_id = rng.choice(ids)
        view = client.job_status(job_id)
        latency = perf_counter() - sent
        if view.job_id != job_id or view.status != "completed":
            return [f"job.status {job_id} answered job {view.job_id} {view.status!r}"], latency
        return [], latency
    if op == "fleet.list":
        view = client.fleet()
        latency = perf_counter() - sent
        seen = {device.serial for point in view.vantage_points for device in point.devices}
        if seen != devices:
            return [f"fleet.list shows {sorted(seen)}, expected {sorted(devices)}"], latency
        return [], latency
    if op == "server.status":
        client.server_status()
        return [], perf_counter() - sent
    if op == "analytics.report":
        completed = client.analytics_report().jobs.completed
        latency = perf_counter() - sent
        if completed != len(ids):
            return [f"analytics reports {completed} completed jobs, benchmark knows {len(ids)}"], latency
        return [], latency
    if op == "job.list":
        offset = rng.randrange(len(ids))
        page = client.job_page(limit=sizes.page_limit, offset=offset)
        latency = perf_counter() - sent
        result.count("pages")
        return checks.check_page(
            ids, offset, sizes.page_limit, [job.job_id for job in page.jobs], page.total
        ), latency
    # job.submit, placed on the shards in turn, then one wave on its shard.
    shard_index = int(result.counts.get("jobs", 0)) % sizes.shards
    view = client.submit_job(
        _job_name(rng, len(ids)), "noop", vantage_point=_vantage_point(shard_index)
    )
    latency = perf_counter() - sent
    result.count("jobs")
    bisect.insort(ids, view.job_id)
    shard = shards[(view.job_id - 1) % sizes.shards]
    with gateway.router_lock:
        shard.platform.run_queue()
        shard.platform.context.run_for(1.0)
    return [], latency
