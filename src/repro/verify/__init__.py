"""Executable forms of the paper's Theorems 1-4.

* :mod:`repro.verify.waitgraph` -- builds the worm-level wait-for graph of
  the wormhole plane (OR-wait semantics: a worm blocked on several
  alternatives deadlocks only if *every* alternative is transitively
  stuck).
* :mod:`repro.verify.deadlock` -- the runtime deadlock detector
  (Theorems 1 and 2: no such stuck set may ever exist).
* :mod:`repro.verify.progress` -- livelock monitors (Theorems 3 and 4:
  probes do bounded work; message ages are bounded under finite load).
* :mod:`repro.verify.invariants` -- structural invariants tying the
  distributed register state (PCS units, Circuit Caches) to the global
  circuit table; run by tests after every scenario.
* :mod:`repro.verify.cdg` -- the *static* channel-dependency-graph
  walker, resource-separation checks and runtime route replay that
  Theorems 1-2 are proved from (topology + routing + protocol config
  alone, no simulation).
* :mod:`repro.verify.fuzz` -- property-based protocol fuzzing under a
  per-cycle invariant harness, with failure shrinking to minimal
  replayable JobSpecs.
* :mod:`repro.verify.smt` -- the deadlock verifier: per-channel rank
  proofs of acyclicity (native engine; z3 as an optional cross-check),
  escape-channel verification and valid-subrelation search for adaptive
  configs, the separation and runtime-replay checks, machine-checkable
  JSON certificates replayable without a solver, and fuzzer seeding for
  rejected configs.
"""

from repro.verify.cdg import build_cdg, find_cycle
from repro.verify.deadlock import (
    assert_no_deadlock,
    deadlocked_in_graph,
    find_deadlocked_worms,
)
from repro.verify.invariants import (
    check_all_invariants,
    check_fault_isolation,
    teardown_latency,
)
from repro.verify.fuzz import (
    FuzzReport,
    InvariantHarness,
    fuzz_campaign,
    generate_spec,
    load_spec,
    shrink,
)
from repro.verify.ordering import OrderingReport, check_in_order_delivery
from repro.verify.smt import (
    CertificateCheck,
    VerifyReport,
    check_certificate,
    check_certificate_files,
    format_report,
    have_z3,
    rejection_jobspecs,
    verify_config,
)
from repro.verify.progress import (
    ProbeWorkMonitor,
    ProgressMonitor,
    max_message_age,
)
from repro.verify.waitgraph import WaitGraph, build_wait_graph

__all__ = [
    "CertificateCheck",
    "FuzzReport",
    "InvariantHarness",
    "OrderingReport",
    "ProbeWorkMonitor",
    "ProgressMonitor",
    "VerifyReport",
    "WaitGraph",
    "assert_no_deadlock",
    "build_cdg",
    "build_wait_graph",
    "check_all_invariants",
    "check_certificate",
    "check_certificate_files",
    "check_fault_isolation",
    "check_in_order_delivery",
    "deadlocked_in_graph",
    "find_cycle",
    "find_deadlocked_worms",
    "format_report",
    "fuzz_campaign",
    "generate_spec",
    "have_z3",
    "load_spec",
    "max_message_age",
    "rejection_jobspecs",
    "shrink",
    "teardown_latency",
    "verify_config",
]
