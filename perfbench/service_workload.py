"""``service_mix``: the job service driven by one closed-loop client.

One *pass* starts a fresh server (process pool, empty sqlite store and
journal) and runs three phases against it from a single client thread:

1. **cold batch** -- a campaign of small CLRP jobs (the ``bench_serve``
   4x4 grid, scaled up); every job executes once (``jobs_per_s``);
2. **single jobs** -- fresh one-job campaigns, each awaited before the
   next is sent (``job_latency_p50_ms`` / ``job_latency_p90_ms``);
3. **resubmission** -- a second tenant resubmits the cold campaign
   ``CACHED_ROUNDS`` times; every job is a dedup hit and nothing
   executes (``cached_jobs_per_s``).

The volume is fixed rather than filled to the time budget: the server
keeps every campaign in memory, so a time-filled phase would make
``peak_rss_mb`` follow the host's speed.

``setup_s`` is server start until ``/health`` answers, the median of
``SETUP_STARTS`` starts.

Server starts, single jobs and resubmissions are timed in reference
seconds (see :mod:`hostspeed`): the client thread times the host-speed
kernel around each of them, while the server is idle.  The cold batch
stays in host seconds.  Its pool runs on every vCPU, whose speeds move
independently of each other, so a kernel call in this process does not
track the pool: over eight passes of one seed on a 2-vCPU container,
cold-batch throughput moved by 10% while the kernel time around the
batch moved by 17%, and rescaling made the figure less steady.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

from repro.client import Session
from repro.client.session import Campaign
from repro.orchestrate import parse_campaign
from repro.orchestrate.runner import execute_job
from repro.orchestrate.store_sqlite import SqliteResultStore
from repro.service.journal import CampaignJournal
from repro.service.scheduler import FairScheduler
from repro.service.server import ServiceConfig, ServiceThread
from repro.service.state import ServiceState

import hostspeed
from layers import LayerTracer
from metrics import Metrics, quantile
from sim_workloads import GateError, peak_rss_mb

LOADS = (0.05, 0.1, 0.2)
COLD_SEEDS = 100  # x len(LOADS) = 300 cold jobs, 10 throughput windows
COLD_WINDOW = 30  # completions per throughput window
SINGLE_JOBS = 150
SINGLE_LOAD = 0.15
SETUP_STARTS = 50  # a start and stop take a few ms
CACHED_ROUNDS = 60
DIRECT_SAMPLE = 4  # cold jobs re-executed in-process and compared
WORKERS = min(2, os.cpu_count() or 1)
WAIT_S = 120.0

JOB_DEFAULTS = {
    "topology": "mesh",
    "dims": "4x4",
    "protocol": "clrp",
    "max_cycles": 60_000,
    "workload": {"kind": "uniform", "load": 0.05, "length": 32,
                 "duration": 1500},
}


def cold_document(seed: int) -> dict:
    return {
        "name": f"cold-{seed}",
        "defaults": JOB_DEFAULTS,
        # Seed-major order: every run of consecutive jobs mixes all loads,
        # so every throughput window holds the same kind of work.
        "grid": {
            "seed": [seed * 1000 + i for i in range(COLD_SEEDS)],
            "workload.load": list(LOADS),
        },
    }


def single_specs(seed: int) -> list:
    defaults = json.loads(json.dumps(JOB_DEFAULTS))
    defaults["workload"]["load"] = SINGLE_LOAD
    _name, specs = parse_campaign({
        "name": f"single-{seed}",
        "defaults": defaults,
        "grid": {"seed": [seed * 1000 + 500 + i for i in range(SINGLE_JOBS)]},
    })
    return specs


def canonical(metrics) -> str:
    return json.dumps(metrics, sort_keys=True)


def metrics_digest(by_key: dict) -> str:
    """One hash over every job's key and metrics."""
    h = hashlib.sha256()
    for key in sorted(by_key):
        h.update(f"{key}={canonical(by_key[key])}\n".encode())
    return h.hexdigest()


def expected_digest(seed: int) -> str:
    """The digest of the job set executed directly, without the service."""
    _name, cold = parse_campaign(cold_document(seed))
    return metrics_digest(
        {s.key(): execute_job(s) for s in cold + single_specs(seed)}
    )


def install_service_layers(tracer: LayerTracer) -> None:
    tracer.timed(Session, "submit_campaign", "client.session.submit")
    tracer.timed(Session, "submit_specs", "client.session.submit")
    tracer.timed(ServiceState, "submit", "service.state.submit")
    tracer.timed(FairScheduler, "acquire", "service.scheduler.acquire")
    tracer.timed(CampaignJournal, "append", "service.journal.append")
    tracer.timed(SqliteResultStore, "get", "orchestrate.store.get")
    tracer.timed(SqliteResultStore, "record", "orchestrate.store.record")


def _finished(out: "Pass", campaign: Campaign, *, expect: str,
              count: int) -> Campaign:
    counts = campaign.counts
    out.failed += counts.get("failed", 0) + counts.get("cancelled", 0)
    if campaign.status != "done" or campaign.counts.get(expect) != count:
        raise GateError(
            f"campaign {campaign.name}: status {campaign.status},"
            f" counts {counts}; expected {count} {expect}"
        )
    return campaign


@dataclass
class Pass:
    """Everything one pass measured."""

    setup_s: list[float] = field(default_factory=list)
    cold_s: float = 0.0
    # (seconds since submission, simulated cycles) of each completion
    cold_done: list[tuple[float, int]] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    cached_rates: list[float] = field(default_factory=list)
    work_s: float = 0.0  # cold batch + single jobs, host seconds
    submitted: int = 0
    failed: int = 0  # jobs failed or cancelled
    digest: str = ""
    layers: dict = field(default_factory=dict)


def _start(scratch: str) -> tuple[ServiceThread, str, float]:
    root = tempfile.mkdtemp(prefix="service-", dir=scratch)
    thread = ServiceThread(ServiceConfig(
        port=0, store=f"sqlite:{os.path.join(root, 'store')}",
        workers=WORKERS, executor="process",
    ))
    gc.collect()  # the previous server's garbage is not this start's cost
    before = hostspeed.probe()
    start = perf_counter()
    url = thread.start()
    if Session(url).health().get("status") != "ok":
        raise GateError("service /health did not answer ok")
    took = perf_counter() - start
    return thread, url, hostspeed.reference_seconds(
        took, before + hostspeed.probe())


def run_pass(seed: int, scratch: str,
             tracer: LayerTracer | None = None) -> Pass:
    out = Pass()
    for _ in range(SETUP_STARTS):
        thread, _url, took = _start(scratch)
        out.setup_s.append(took)
        thread.stop()
    thread, url, _took = _start(scratch)
    try:
        _measure_phases(out, thread, url, seed, tracer)
    finally:
        thread.stop()
    return out


def _measure_phases(out: Pass, thread: ServiceThread, url: str, seed: int,
                    tracer: LayerTracer | None) -> None:
    client = Session(url, tenant="tenant-a")
    doc = cold_document(seed)
    _name, cold_specs = parse_campaign(doc)
    n = len(cold_specs)

    # 1. cold batch, each completion timed on the client clock
    start = perf_counter()
    cold = client.submit_campaign(doc)
    for event in cold.stream():
        if event.terminal:
            break
        cycles = (event.metrics or {}).get("cycles", 0)  # 0: job failed
        out.cold_done.append((perf_counter() - start, cycles))
    out.cold_s = perf_counter() - start
    out.submitted += n
    _finished(out, cold.refresh(), expect="ok", count=n)
    by_key = {row["key"]: row["metrics"] for row in cold.results()}

    # 2. closed-loop single jobs
    before = _snapshot(tracer)
    out.work_s = out.cold_s
    for i, spec in enumerate(single_specs(seed)):
        kernels = [hostspeed.kernel_s()]
        start = perf_counter()
        one = client.submit_specs([spec], name=f"single-{seed}-{i}")
        one = one.wait(timeout=WAIT_S)
        took = perf_counter() - start
        kernels.append(hostspeed.kernel_s())
        out.latencies_s += hostspeed.bracketed([took], kernels)
        out.work_s += took
        out.submitted += 1
        [row] = _finished(out, one, expect="ok", count=1).results()
        by_key[row["key"]] = row["metrics"]
    single_phase = _delta(tracer, before)

    # 3. all-dedup resubmission by a second tenant
    other = Session(url, tenant="tenant-b")
    for _ in range(CACHED_ROUNDS):
        probes = hostspeed.probe()
        start = perf_counter()
        again = other.submit_campaign(doc).wait(timeout=WAIT_S)
        took = perf_counter() - start
        took = hostspeed.reference_seconds(took, probes + hostspeed.probe())
        out.cached_rates.append(n / took)
        out.submitted += n
        _finished(out, again, expect="cached", count=n)
    rows = again.results()
    if any(canonical(r["metrics"]) != canonical(by_key[r["key"]]) for r in rows):
        raise GateError("cached results differ from the executed ones")

    stats = client.store_stats()
    if stats["executed"] != n + SINGLE_JOBS:
        raise GateError(
            f"store executed {stats['executed']} jobs, expected exactly"
            f" {n + SINGLE_JOBS} (each once)"
        )
    if stats["cache_hits"] != n * len(out.cached_rates):
        raise GateError(f"store counted {stats['cache_hits']} cache hits")
    step = max(1, n // DIRECT_SAMPLE)
    for spec in cold_specs[::step]:
        if canonical(execute_job(spec)) != canonical(by_key[spec.key()]):
            raise GateError(f"service result for {spec.label} differs from"
                            " a direct execute_job")
    out.digest = metrics_digest(by_key)
    if tracer is not None:
        out.layers = _service_layers(tracer, thread, stats, out, single_phase)


def _snapshot(tracer: LayerTracer | None) -> dict:
    if tracer is None:
        return {}
    labels = ("client.session.submit", "service.state.submit")
    return {k: (tracer.calls(k), tracer.seconds(k)) for k in labels}


def _delta(tracer: LayerTracer | None, before: dict) -> dict:
    after = _snapshot(tracer)
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1])
            for k in after}


def _service_layers(tracer: LayerTracer, thread: ServiceThread, stats: dict,
                    out: Pass, single_phase: dict) -> dict:
    jobs = [j for j in thread.server.state.jobs.values() if not j.from_cache]
    singles = [j for j in jobs if j.campaign.startswith("single-")]
    cold = [j for j in jobs if not j.campaign.startswith("single-")]
    calls, client_s = single_phase["client.session.submit"]
    _calls, state_s = single_phase["service.state.submit"]
    hits, executed = stats["cache_hits"], stats["executed"]
    acquire = "service.scheduler.acquire"
    append = "service.journal.append"
    get, record = "orchestrate.store.get", "orchestrate.store.record"
    # name -> (value, sample count)
    return {
        "client.session.submit_s": (client_s / calls, calls),
        "service.state.submit_s": (state_s / calls, calls),
        "service.http_overhead_s": ((client_s - state_s) / calls, calls),
        "service.scheduler.acquire_s":
            (tracer.seconds(acquire), tracer.calls(acquire)),
        "service.queue_wait_p50_ms": (1000.0 * quantile(
            [j.started_at - j.submitted_at for j in singles], 0.5),
            len(singles)),
        "service.journal.append_s":
            (tracer.seconds(append), tracer.calls(append)),
        "service.journal.append_calls": (tracer.calls(append), 1),
        "service.journal.bytes": (stats["journal"]["bytes"], 1),
        "orchestrate.store.get_s": (tracer.seconds(get), tracer.calls(get)),
        "orchestrate.store.record_s":
            (tracer.seconds(record), tracer.calls(record)),
        "orchestrate.runner.execute_job_p50_ms": (1000.0 * quantile(
            [j.elapsed_s for j in jobs], 0.5), len(jobs)),
        "service.pool.busy_fraction":
            (sum(j.elapsed_s for j in cold) / (WORKERS * out.cold_s),
             len(cold)),
        "service.dedup.hit_ratio": (hits / (hits + executed), hits + executed),
    }


def cold_window_rates(done: list[tuple[float, int]]):
    """Jobs/s and simulated cycles/s over windows of COLD_WINDOW completions.

    The pool works through the same kind of job all batch long, so the
    median window is the batch's rate; the first window also pays for
    forking the pool.
    """
    jobs, cycles = [], []
    begin = 0.0
    for i in range(COLD_WINDOW, len(done) + 1, COLD_WINDOW):
        window = done[i - COLD_WINDOW:i]
        end = window[-1][0]
        jobs.append(COLD_WINDOW / (end - begin))
        cycles.append(sum(c for _t, c in window) / (end - begin))
        begin = end
    return jobs, cycles


def _check_digest(passes: list[Pass], pinned: str | None) -> None:
    first = passes[0].digest
    if any(p.digest != first for p in passes):
        raise GateError("passes of one seed produced different job metrics")
    if pinned is not None and first != pinned:
        raise GateError(
            f"job metrics digest {first[:12]} != pinned {pinned[:12]}")


def measure(seed: int, pinned: str | None,
            scratch: str) -> tuple[Metrics, int, int]:
    """Untraced run: one pass, end-to-end metrics."""
    p = run_pass(seed, scratch)
    _check_digest([p], pinned)
    lat_ms = [s * 1000.0 for s in p.latencies_s]
    jobs_rates, cycle_rates = cold_window_rates(p.cold_done)
    m = Metrics()
    m.add("sim_cycles_per_s", statistics.median(cycle_rates), len(cycle_rates))
    m.add("setup_s", statistics.median(p.setup_s), len(p.setup_s))
    m.add("peak_rss_mb", peak_rss_mb(), 1)
    m.add("jobs_per_s", statistics.median(jobs_rates), len(jobs_rates))
    m.add("job_latency_p50_ms", quantile(lat_ms, 0.5), len(lat_ms))
    m.add("job_latency_p90_ms", quantile(lat_ms, 0.9), len(lat_ms))
    m.add("cached_jobs_per_s", statistics.median(p.cached_rates),
          len(p.cached_rates))
    return m, p.submitted, p.failed


def measure_traced(seed: int, pinned: str | None,
                   scratch: str) -> tuple[Metrics, int, int]:
    """Traced run: an untraced pass, then a traced one on a fresh server."""
    plain = run_pass(seed, scratch)
    tracer = LayerTracer()
    install_service_layers(tracer)
    try:
        traced = run_pass(seed, scratch, tracer)
    finally:
        tracer.remove()
    if not tracer.restored():
        raise GateError("layer wrappers were not removed")
    _check_digest([plain, traced], pinned)
    m = Metrics()
    for name, (value, samples) in traced.layers.items():
        m.add(name, value, samples)
    attempted = plain.submitted + traced.submitted
    failed = plain.failed + traced.failed
    m.add("error_ratio", failed / attempted, attempted)
    m.add("trace.untraced_wall_s", plain.work_s, 1)
    m.add("trace.traced_wall_s", traced.work_s, 1)
    m.add("trace.overhead_ratio", traced.work_s / plain.work_s - 1.0, 1)
    return m, attempted, failed
