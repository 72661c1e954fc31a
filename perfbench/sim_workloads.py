"""The three simulation workloads and how one run of each is measured.

A *repetition* builds the machine from scratch (topology, traffic, fault
schedule, :class:`~repro.network.network.Network`: that is ``setup_s``),
simulates to drain in timed slices (the stepping loop:
``sim_cycles_per_s``), then runs the correctness gate outside the timed
region.  Every timing is taken in reference seconds (see
:mod:`hostspeed`).  A run covers ``VARIANTS`` traffic draws derived from
its seed and repeats all of them in a fixed number of rounds
(:func:`round_count`); see :func:`variant_times` for how the rounds are
combined.

The first variant is also pushed through the orchestrator as a
:class:`~repro.orchestrate.spec.JobSpec` (:class:`CachedJob`): executed
once into a result store (its outcome must match the direct run) and
then resolved from that store after every repetition, the path a
repeated ``repro batch`` takes (``cached_jobs_per_s``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from repro.circuits.pcs_unit import PCSControlUnit
from repro.circuits.plane import WavePlane
from repro.circuits.probe import Probe
from repro.circuits.wave import WaveTransfer
from repro.network.interface import NetworkInterface
from repro.network.message import MessageFactory
from repro.network.network import Network
from repro.network.vectorized import VectorizedCore
from repro.orchestrate import open_store, run_jobs
from repro.orchestrate.recipes import build_workload, materialize_spec
from repro.orchestrate.spec import JobSpec, WorkloadRecipe
from repro.sim.config import (
    NetworkConfig,
    ReliabilityConfig,
    WaveConfig,
    WormholeConfig,
)
from repro.sim.engine import Simulator
from repro.sim.rng import SimRandom
from repro.topology import FaultSchedule, build_topology
from repro.topology.faults import derive_fault_rng
from repro.traffic.locality import LocalityWorkloadBuilder
from repro.verify import (
    check_all_invariants,
    check_fault_isolation,
    teardown_latency,
)
from repro.wormhole.router import WormholeRouter

import hostspeed
from layers import LayerTracer
from metrics import Metrics, quantile

VARIANTS = 12  # traffic draws per run (see variant_configs)
MIN_ROUNDS = 2
# Host seconds one untraced round of all variants takes on a 2-vCPU
# x86-64 container; only turns --seconds into a round count.
ROUND_S = 12.0
TRACED_COST = 3.0  # a traced round costs about this many untraced ones
CACHED_CHUNK = 4  # copies of the job per run_jobs call


@dataclass(frozen=True)
class SimWorkload:
    """One simulation workload: an 8x8 mesh under a fixed traffic recipe."""

    name: str
    protocol: str
    routing: str
    load: float
    length: int
    duration: int
    max_cycles: int
    locality: bool = False  # LocalityWorkloadBuilder instead of uniform
    mtbf: int = 0  # dynamic link faults + reliability layer when > 0
    mttr: int = 0
    # Simulated cycles per timed slice: a slice takes a few ms, so the
    # kernel calls around it see the host speed it ran at.
    slice_cycles: int = 50
    # run_jobs calls per cached batch (CachedJob.batch): about 50 ms of
    # work.  A materialised locality job has thousands of messages to
    # hash, so it resolves about 150 times slower than a recipe job.
    cached_chunks: int = 100

    def config(self, seed: int, backend: str | None = None) -> NetworkConfig:
        extra = {"backend": backend} if backend is not None else {}
        return NetworkConfig(
            dims=(8, 8),
            protocol=self.protocol,
            wormhole=WormholeConfig(vcs=2, routing=self.routing),
            wave=WaveConfig() if self.protocol != "wormhole" else None,
            reliability=ReliabilityConfig() if self.mtbf else None,
            seed=seed,
            **extra,
        )

    def uniform_spec(self, config: NetworkConfig) -> JobSpec:
        recipe = WorkloadRecipe.make(
            "uniform", load=self.load, length=self.length,
            duration=self.duration,
        )
        return JobSpec(config=config, workload=recipe,
                       max_cycles=self.max_cycles, label=self.name)

    def traffic(self, config: NetworkConfig, topology) -> list:
        if not self.locality:
            return build_workload(self.uniform_spec(config), topology)
        builder = LocalityWorkloadBuilder(topology, reuse=16.0,
                                          spatial_decay=0.5)
        return builder.build(
            MessageFactory(), offered_load=self.load, length=self.length,
            duration=self.duration, rng=SimRandom(config.seed),
        )

    def build(self, config: NetworkConfig):
        """Set-up of one repetition: returns ``(network, items)``.

        Mirrors :func:`repro.orchestrate.runner.execute_job` (uniform
        traffic from the recipe registry, faults from
        :func:`derive_fault_rng` over a ``max_cycles`` horizon), so the
        direct run and the orchestrated job simulate the same thing.
        """
        topology = build_topology(config.topology, config.dims)
        items = self.traffic(config, topology)
        faults = None
        if self.mtbf:
            faults = FaultSchedule.random_campaign(
                topology, mtbf=self.mtbf, mttr=self.mttr,
                horizon=self.max_cycles, rng=derive_fault_rng(config.seed),
            )
        return Network(config, faults=faults), items

    def job_spec(self, config: NetworkConfig) -> JobSpec:
        """The same simulation as a declarative orchestrator job."""
        if not self.locality:
            return self.uniform_spec(config)
        topology = build_topology(config.topology, config.dims)
        return materialize_spec(
            config, self.traffic(config, topology),
            max_cycles=self.max_cycles, mtbf=self.mtbf, mttr=self.mttr,
            label=self.name,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # bench_step's saturation row: ~1% circuit-cache hits, so the
        # wave plane's probe path does most of the work.
        SimWorkload("clrp_saturation", "clrp", "dor", 0.6, 128,
                    duration=4000, max_cycles=60_000),
        # Temporal locality (~85% hits) under a random kill/heal
        # campaign with end-to-end retransmission.
        SimWorkload("clrp_reuse_faults", "clrp", "dor", 0.5, 128,
                    duration=8000, max_cycles=16_000, locality=True,
                    mtbf=500, mttr=400, cached_chunks=1),
        # No wave plane: router route/traversal phases are the work.
        SimWorkload("wormhole_saturation", "wormhole", "adaptive", 0.6, 256,
                    duration=600, max_cycles=60_000, slice_cycles=20),
    )
}


# -- outcome digest and correctness gate ------------------------------


def outcome(net: Network, result) -> dict:
    """Every simulated statistic a speed-only change must leave alone."""
    stats = net.stats
    latencies = Counter(m.latency for m in stats.delivered_records())
    return {
        "cycles": result.cycles,
        "injected": result.injected,
        "delivered": result.delivered,
        "delivery_failures": len(stats.delivery_failures),
        "work_counter": net.work_counter,
        "counters": dict(sorted(stats.counters.items())),
        "latency_histogram": sorted(latencies.items()),
    }


def digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class GateError(Exception):
    """A correctness check failed: the run reports no numbers."""


def _gate(net: Network, result) -> None:
    if not result.completed:
        raise GateError(f"did not drain within {result.cycles} cycles")
    check_all_invariants(net)
    sched = net.fault_schedule
    if sched is not None and (
        net.cycle >= sched.last_kill_cycle + teardown_latency(net)
    ):
        check_fault_isolation(net)


@dataclass
class Rep:
    setup_s: float  # reference seconds (see hostspeed)
    slices_s: list[float]  # reference seconds of each slice_cycles step
    outcome: dict
    digest: str
    net: Network | None = None  # kept for traced repetitions only


def run_rep(workload: SimWorkload, config: NetworkConfig, *,
            keep_network: bool = False) -> Rep:
    """Build, simulate to drain in timed slices, then run the gate.

    The previous repetition's garbage is collected first, outside the
    timed region, so no repetition pays for another's.  The host-speed
    kernel runs around the set-up and between every two slices, outside
    the timed regions, and each is rescaled by its neighbouring calls.
    """
    gc.collect()
    before = hostspeed.probe()
    start = perf_counter()
    net, items = workload.build(config)
    sim = Simulator(net, items)
    setup_s = perf_counter() - start
    after = hostspeed.probe()
    setup_s = hostspeed.reference_seconds(setup_s, before + after)
    slices = []
    kernels = after[-1:]
    while True:
        t0 = perf_counter()
        result = sim.run(workload.slice_cycles)
        slices.append(perf_counter() - t0)
        kernels.append(hostspeed.kernel_s())
        if result.completed or net.cycle >= workload.max_cycles:
            break
    slices = hostspeed.bracketed(slices, kernels)
    _gate(net, result)
    data = outcome(net, result)
    return Rep(setup_s, slices, data, digest(data),
               net if keep_network else None)


def variant_configs(workload: SimWorkload, seed: int,
                    backend: str | None = None) -> list[NetworkConfig]:
    """The run's traffic variants: simulator seeds ``12*seed .. 12*seed+11``.

    Averaging over independent traffic draws keeps one unlucky draw
    from moving a run's figures.
    """
    return [workload.config(seed * VARIANTS + i, backend)
            for i in range(VARIANTS)]


def set_digest(rounds: list[list[Rep]], pinned: str | None) -> str:
    """Every round reproduces every variant; the set matches any pin."""
    first = [rep.digest for rep in rounds[0]]
    for reps in rounds[1:]:
        if [rep.digest for rep in reps] != first:
            raise GateError("repetitions of one seed diverged")
    combined = digest(first)
    if pinned is not None and combined != pinned:
        raise GateError(f"outcome digest {combined[:12]} != pinned {pinned[:12]}")
    return combined


def round_count(seconds: float, cost: float = 1.0,
                minimum: int = MIN_ROUNDS) -> int:
    """Rounds in a run of ``seconds``: fixed, the same on every commit.

    A time-filled run would give a faster program more rounds, and so
    more samples, than its parent in the same budget.
    ``cost`` is the price of one round in untraced rounds.
    """
    return max(minimum, int(seconds / (ROUND_S * cost)))


def variant_times(rounds: list[list[Rep]],
                  k: int) -> tuple[float, list[float]]:
    """Variant ``k``'s set-up time and per-slice times over the rounds.

    Every round simulates the identical slices, so each slice's time is
    its median over the rounds, and the set-up time likewise.
    """
    reps = [reps[k] for reps in rounds]
    slices = [statistics.median(times)
              for times in zip(*(r.slices_s for r in reps))]
    return statistics.median(rep.setup_s for rep in reps), slices


class CachedJob:
    """Variant 0 as an orchestrator job, executed once into a result store.

    :meth:`batch` then resolves it again from the store, the path a
    repeated ``repro batch`` takes.  One batch runs after every
    repetition, so the cached timings are spread over the whole run,
    like the simulation ones.
    """

    def __init__(self, workload: SimWorkload, config: NetworkConfig,
                 scratch: str) -> None:
        self.chunks = workload.cached_chunks
        self.spec = workload.job_spec(config)
        self.store = open_store(f"sqlite:{os.path.join(scratch, 'store')}")
        [fresh] = run_jobs([self.spec], store=self.store)
        if not fresh.ok or fresh.from_cache:
            raise GateError(f"orchestrated job failed: {fresh.failure}")
        self.metrics = fresh.metrics

    def check(self, reference: dict) -> None:
        """The executed job must reproduce the direct run's outcome."""
        for key in ("cycles", "injected", "delivered", "counters"):
            if self.metrics[key] != reference[key]:
                raise GateError(f"orchestrated job {key} differs from the"
                                " direct run")

    def batch(self) -> float:
        """Resolve a fixed number of copies from the store; returns jobs
        per reference second."""
        outcomes = []
        chunks = []
        kernels = [hostspeed.kernel_s()]
        for _ in range(self.chunks):
            start = perf_counter()
            outcomes += run_jobs([self.spec] * CACHED_CHUNK, store=self.store)
            chunks.append(perf_counter() - start)
            kernels.append(hostspeed.kernel_s())
        elapsed = sum(hostspeed.bracketed(chunks, kernels))
        if not all(o.from_cache and o.metrics == self.metrics
                   for o in outcomes):
            raise GateError("cached resolution differs from executed job")
        return len(outcomes) / elapsed


def measure(workload: SimWorkload, seed: int, seconds: float,
            pinned: str | None, scratch: str) -> tuple[Metrics, int, int]:
    """Untraced run: returns ``(metrics, attempted, failed)``.

    A "job" is one whole simulation, set-up included (``jobs_per_s``);
    ``job_latency_*`` are quantiles of the time one full step of
    ``slice_cycles`` takes, the unit of progress a caller stepping a simulation
    waits for.  ``setup_s`` is the median over the variants of each
    variant's median set-up time.
    """
    configs = variant_configs(workload, seed)
    rounds: list[list[Rep]] = []
    cached: list[float] = []
    job = CachedJob(workload, configs[0], scratch)
    try:
        for _ in range(round_count(seconds)):
            rounds.append([])
            for config in configs:
                rounds[-1].append(run_rep(workload, config))
                cached.append(job.batch())
    finally:
        job.store.close()
    job.check(rounds[0][0].outcome)
    set_digest(rounds, pinned)

    times = [variant_times(rounds, k) for k in range(len(configs))]
    cycles = sum(rep.outcome["cycles"] for rep in rounds[0])
    run_s = sum(sum(slices) for _setup, slices in times)
    walls = [setup + sum(slices) for setup, slices in times]
    steps_ms = [1000.0 * t for _setup, slices in times for t in slices[:-1]]
    reps = [rep for reps in rounds for rep in reps]
    m = Metrics()
    m.add("sim_cycles_per_s", cycles / run_s, len(reps))
    m.add("setup_s", statistics.median(setup for setup, _ in times), len(reps))
    m.add("peak_rss_mb", peak_rss_mb(), 1)
    m.add("jobs_per_s", len(walls) / sum(walls), len(walls))
    m.add("job_latency_p50_ms", quantile(steps_ms, 0.5), len(steps_ms))
    m.add("job_latency_p90_ms", quantile(steps_ms, 0.9), len(steps_ms))
    m.add("cached_jobs_per_s", statistics.median(cached), len(cached))
    attempted = sum(rep.outcome["injected"] for rep in reps)
    failed = sum(rep.outcome["injected"] - rep.outcome["delivered"]
                 for rep in reps)
    return m, attempted, failed


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- traced run: per-layer metrics ------------------------------------


def install_sim_layers(tracer: LayerTracer, topology_cls: type) -> None:
    """Wrap the stepping loop's layers, outermost first."""
    tracer.timed(Simulator, "run", "sim.engine.run")
    tracer.timed(Network, "step", "network.step")
    tracer.timed(Network, "step_vectorized", "network.step")
    tracer.timed(FaultSchedule, "apply", "topology.faults.apply")
    tracer.timed(WavePlane, "on_link_killed", "circuits.plane.on_link_killed")
    tracer.timed(NetworkInterface, "pre_cycle", "network.interface.pre_cycle")
    tracer.timed(WavePlane, "step", "circuits.plane.step")
    tracer.timed(Probe, "step", "circuits.probe.step")
    tracer.timed(WaveTransfer, "advance", "circuits.wave.advance")
    tracer.timed(WormholeRouter, "route_phase", "wormhole.router.route_phase")
    tracer.timed(WormholeRouter, "traversal_phase",
                 "wormhole.router.traversal_phase")
    tracer.timed(VectorizedCore, "step", "network.vectorized.step")
    tracer.counted(topology_cls, "minimal_ports", "topology.minimal_ports")
    tracer.counted(WavePlane, "channel_faulty", "circuits.plane.channel_faulty")
    tracer.counted(PCSControlUnit, "status", "circuits.pcs_unit.status")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_rep(workload: SimWorkload, config: NetworkConfig) -> tuple[Rep, dict]:
    """One repetition under the layer wrappers; wrappers gone afterwards."""
    topology_cls = type(build_topology(config.topology, config.dims))
    tracer = LayerTracer()
    install_sim_layers(tracer, topology_cls)
    try:
        rep = run_rep(workload, config, keep_network=True)
    finally:
        tracer.remove()
    if not tracer.restored():
        raise GateError("layer wrappers were not removed")
    t = tracer
    c = rep.outcome["counters"]
    stats = rep.net.stats
    delivered = stats.delivered_records()
    lookups = c.get("clrp.lookup_hit", 0) + c.get("clrp.lookup_miss", 0)
    messages = sum(v for k, v in c.items() if k.startswith("mode."))
    layers = {
        "circuits.probe.step_s": t.self_seconds("circuits.probe.step"),
        "circuits.probe.step_calls": t.calls("circuits.probe.step"),
        "circuits.probe.success_ratio": _ratio(
            c.get("probe.succeeded", 0), c.get("probe.launched", 0)),
        "circuits.probe.hops_per_setup": _ratio(
            c.get("probe.hops", 0), c.get("probe.succeeded", 0)),
        "topology.minimal_ports_calls": t.calls("topology.minimal_ports"),
        "circuits.plane.channel_faulty_calls":
            t.calls("circuits.plane.channel_faulty"),
        "circuits.pcs_unit.status_calls": t.calls("circuits.pcs_unit.status"),
        "circuits.wave.advance_s": t.self_seconds("circuits.wave.advance"),
        "circuits.wave.advance_calls": t.calls("circuits.wave.advance"),
        "circuits.plane.step_self_s": t.self_seconds("circuits.plane.step"),
        "circuits.plane.on_link_killed_s":
            t.seconds("circuits.plane.on_link_killed"),
        "core.clrp.hit_ratio": _ratio(c.get("clrp.lookup_hit", 0), lookups),
        "core.clrp.forced_ratio": _ratio(c.get("mode.circuit_forced", 0),
                                         messages),
        "core.clrp.fallback_ratio": _ratio(c.get("mode.wormhole_fallback", 0),
                                           messages),
        "network.interface.pre_cycle_s":
            t.self_seconds("network.interface.pre_cycle"),
        "network.interface.pre_cycle_calls":
            t.calls("network.interface.pre_cycle"),
        "network.interface.source_wait_cycles_mean": _ratio(
            sum(m.injected - m.created for m in delivered), len(delivered)),
        "topology.faults.apply_s": t.seconds("topology.faults.apply"),
        "topology.faults.links_killed": c.get("fault.links_killed", 0),
        "topology.faults.worms_purged": c.get("fault.worms_purged", 0),
        "wormhole.router.route_phase_s":
            t.self_seconds("wormhole.router.route_phase"),
        "wormhole.router.route_phase_calls":
            t.calls("wormhole.router.route_phase"),
        "wormhole.router.traversal_phase_s":
            t.self_seconds("wormhole.router.traversal_phase"),
        "wormhole.router.traversal_phase_calls":
            t.calls("wormhole.router.traversal_phase"),
        "network.vectorized.step_s": t.self_seconds("network.vectorized.step"),
        "network.step_self_s": t.self_seconds("network.step"),
        "sim.engine.run_self_s": t.self_seconds("sim.engine.run"),
    }
    rep.net = None
    return rep, layers


VECTORIZED_STEP = "network.vectorized.step_s"


def measure_traced(workload: SimWorkload, seed: int, seconds: float,
                   pinned: str | None) -> tuple[Metrics, int, int]:
    """Traced run: untraced and traced rounds of all variants alternate.

    Every repetition, traced or not, must reproduce the same outcome
    digests -- the proof that the wrappers do not perturb the
    simulation.  Layer values are means per repetition.
    ``wormhole_saturation`` also runs every variant traced on the
    ``vectorized`` backend in every round, so ``network.vectorized.step_s``
    covers the same traffic as the router rows; its outcomes must match
    the ``active`` ones.
    """
    configs = variant_configs(workload, seed)
    vectorized = (variant_configs(workload, seed, "vectorized")
                  if workload.protocol == "wormhole" else [])
    plain: list[list[Rep]] = []
    traced: list[list[Rep]] = []
    vector: list[list[Rep]] = []
    rows: list[dict] = []
    vector_rows: list[float] = []
    for _ in range(round_count(seconds, TRACED_COST, minimum=1)):
        plain.append([run_rep(workload, c) for c in configs])
        traced.append([])
        for config in configs:
            rep, layers = traced_rep(workload, config)
            traced[-1].append(rep)
            del layers[VECTORIZED_STEP]
            rows.append(layers)
        if vectorized:
            vector.append([])
            for config in vectorized:
                rep, layers = traced_rep(workload, config)
                vector[-1].append(rep)
                vector_rows.append(layers[VECTORIZED_STEP])
    set_digest(plain + traced + vector, pinned)

    m = Metrics()
    for name in rows[0]:
        m.add(name, statistics.fmean(row[name] for row in rows), len(rows))
    if vector_rows:
        m.add(VECTORIZED_STEP, statistics.fmean(vector_rows), len(vector_rows))
    reps = [rep for reps in plain + traced + vector for rep in reps]
    attempted = sum(rep.outcome["injected"] for rep in reps)
    failed = sum(rep.outcome["injected"] - rep.outcome["delivered"]
                 for rep in reps)
    k = len(configs)
    plain_s = statistics.fmean(sum(variant_times(plain, i)[1])
                               for i in range(k))
    traced_s = statistics.fmean(sum(variant_times(traced, i)[1])
                                for i in range(k))
    m.add("error_ratio", failed / attempted, len(reps))
    m.add("trace.untraced_wall_s", plain_s, len(plain) * k)
    m.add("trace.traced_wall_s", traced_s, len(rows))
    m.add("trace.overhead_ratio", traced_s / plain_s - 1.0, len(rows))
    return m, attempted, failed
