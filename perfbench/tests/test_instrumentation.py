"""The benchmark's own checks: tracing changes nothing, and is removable.

For every workload, a traced run's outcome digest equals the untraced
one (``measure_traced`` raises otherwise) and every wrapped function is
the original again afterwards.  Simulation runs cover two traffic
variants here instead of ``VARIANTS``, so the pins (made for the full
set) do not apply, and ``service_mix`` runs a scaled-down job set; the
full ones are exercised by ``perfbench/run.py``.  The remaining tests
cover the correctness gate (pins, held-out seeds), host-speed
rescaling and the tracer's self-time accounting.

Run with::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import service_workload  # noqa: E402
import sim_workloads  # noqa: E402
from repro.topology.mesh import Mesh  # noqa: E402

HELD_OUT_SEED = 10**6


@pytest.fixture
def few_variants(monkeypatch):
    monkeypatch.setattr(sim_workloads, "VARIANTS", 2)


def _wrapped_functions(install) -> list[tuple[type, str, object]]:
    """Every (owner, attr, original) a layer installer touches."""
    tracer = layers.LayerTracer()
    install(tracer)
    try:
        return list(tracer.wrapped)
    finally:
        tracer.remove()


def _sim_install(tracer):
    sim_workloads.install_sim_layers(tracer, Mesh)


@pytest.mark.parametrize("name", sorted(sim_workloads.WORKLOADS))
def test_traced_simulation_matches_untraced(name, few_variants):
    workload = sim_workloads.WORKLOADS[name]
    originals = _wrapped_functions(_sim_install)
    metrics, attempted, failed = sim_workloads.measure_traced(
        workload, 0, 0.0, None
    )
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert attempted > 0 and failed == 0
    assert metrics["trace.traced_wall_s"].value > 0
    assert metrics["sim.engine.run_self_s"].value > 0
    if workload.protocol == "wormhole":
        # The vectorized backend ran on the same variants as the routers.
        vectorized = metrics[sim_workloads.VECTORIZED_STEP]
        assert vectorized.value > 0
        assert vectorized.samples == (
            metrics["wormhole.router.route_phase_s"].samples)


def test_untraced_simulation_run_reports_every_end_to_end_metric(
        tmp_path, few_variants):
    workload = sim_workloads.WORKLOADS["clrp_saturation"]
    metrics, attempted, failed = sim_workloads.measure(
        workload, 1, 0.0, None, str(tmp_path)
    )
    assert list(metrics) == list(run.catalogue(0))
    assert all(m.value > 0 for m in metrics.values())
    assert attempted > 0 and failed == 0


def test_held_out_seed_passes_without_a_pin(few_variants):
    workload = sim_workloads.WORKLOADS["clrp_reuse_faults"]
    assert run.pinned_digest(workload.name, HELD_OUT_SEED) is None
    metrics, attempted, failed = sim_workloads.measure_traced(
        workload, HELD_OUT_SEED, 0.0, None
    )
    assert failed == 0 and metrics["topology.faults.links_killed"].value > 0


def test_pinned_digest_is_enforced():
    def rep(tag):
        return sim_workloads.Rep(0.0, [], {}, tag)

    rounds = [[rep("a"), rep("b")], [rep("a"), rep("b")]]
    combined = sim_workloads.set_digest(rounds, None)
    assert sim_workloads.set_digest(rounds, combined) == combined
    with pytest.raises(sim_workloads.GateError):
        sim_workloads.set_digest(rounds, "0" * 64)
    with pytest.raises(sim_workloads.GateError):
        sim_workloads.set_digest([[rep("a"), rep("b")], [rep("a"), rep("c")]],
                                 None)


def test_traced_service_matches_untraced(monkeypatch, tmp_path):
    for name, value in (("COLD_SEEDS", 2), ("SINGLE_JOBS", 3),
                        ("SETUP_STARTS", 1),
                        ("CACHED_ROUNDS", 2),
                        ("DIRECT_SAMPLE", 1)):
        monkeypatch.setattr(service_workload, name, value)
    originals = _wrapped_functions(service_workload.install_service_layers)
    metrics, attempted, failed = service_workload.measure_traced(
        0, None, str(tmp_path)
    )
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert failed == 0 and attempted > 0
    assert metrics["service.journal.append_calls"].value > 0
    assert metrics["service.dedup.hit_ratio"].value > 0


def test_bracketed_rescales_each_piece_by_its_neighbouring_kernels():
    ref = hostspeed.REF_KERNEL_S
    pieces = hostspeed.bracketed([1.0, 1.0], [ref, 3 * ref, 2 * ref])
    assert pieces == pytest.approx([0.5, 0.4])
    with pytest.raises(ValueError):
        hostspeed.bracketed([1.0, 1.0], [ref, ref])


def test_layer_self_time_excludes_wrapped_children():
    class Outer:
        def work(self, inner):
            return inner.work() + 1

    class Inner:
        def work(self):
            return sum(range(20000))

    tracer = layers.LayerTracer()
    tracer.timed(Outer, "work", "outer")
    tracer.timed(Inner, "work", "inner")
    assert Outer().work(Inner()) == sum(range(20000)) + 1
    tracer.remove()
    assert tracer.restored()
    assert tracer.calls("outer") == tracer.calls("inner") == 1
    total = tracer.seconds("outer")
    assert tracer.self_seconds("outer") + tracer.seconds("inner") == (
        pytest.approx(total)
    )
