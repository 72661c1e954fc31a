"""Exact deadlock-freedom verification with machine-checkable certificates.

The static analyzer (:mod:`repro.verify.cdg`) proves Theorems 1-2 by
cycle search over a dependency graph.  For deterministic routing that is
exact (Dally & Seitz: cyclic CDG iff a deadlock is reachable), but for
adaptive routing any *single* graph is an approximation of Duato's
actual condition -- a routing function is deadlock-free iff **some**
connected routing subfunction has an acyclic extended dependency graph.
In particular the *union* dependency graph (every channel any route may
use, accumulated -- the method of Stramaglia, Keiren & Zantema's loop
search) over-approximates: a config whose escape subfunction is sound is
still flagged cyclic, and a config whose *designated* escape discipline
fails may still be freed by a different valid subrelation that a cycle
search cannot express.

This module decides the question exactly, SMT-style, and makes every
verdict auditable:

* **Acyclicity via per-channel ranks.**  A graph is acyclic iff the
  constraint system ``rank(u) < rank(v)`` for every dependency ``u -> v``
  is satisfiable over the integers.  With ``z3-solver`` installed the
  system is discharged by z3 and the model is read back; without it a
  native exact engine (longest-path ranks over Kahn's algorithm) decides
  the *same* constraint system and emits the *same* certificate format.
  Both engines are exact; z3 is the independent cross-check CI runs.

* **Escape-channel verification** (Duato's sufficient condition): the
  designated escape subfunction must be connected and its extended
  dependency graph (escape dependencies chained across adaptive hops)
  acyclic.  The union graph's cycle, when one exists, is recorded in the
  certificate as evidence of the over-approximation being resolved.

* **Valid-subrelation search** when the designated escape discipline
  fails: candidate subfunctions (currently the escape discipline itself
  and a ring-split dimension-order family that breaks torus ring ties by
  source parity) are checked exactly -- connectivity plus extended-graph
  acyclicity.  Any hit proves deadlock freedom per Duato's theorem even
  though every single-graph cycle search says "cyclic".

* **Certificates.**  Every verdict emits JSON: per-channel ranks for a
  FREE verdict or the witnessing cycle for a refutation, the subfunction
  whose graph they belong to, that graph's canonical hash (so drift is
  detected) and the union-cycle evidence for adaptive configs.
  :func:`check_certificate` replays a certificate **without z3** -- rank
  replay is plain integer comparison edge by edge -- so a committed
  certificate is auditable on any machine.

Every graph here -- union, escape, subrelation -- comes from the one
walker :func:`repro.verify.cdg.build_dependency_graph`, driven by a
routing subfunction.

* **Fuzzer seeding.**  A rejected config is converted into seeded
  scenarios (:func:`rejection_jobspecs`) for the PR 5 fuzzer, closing
  the loop between the prover and the runtime invariant harness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigError, ReproError
from repro.topology.base import CartesianTopology, Topology
from repro.verify.cdg import (
    Channel,
    EscapeSubfunction,
    Edges,
    build_dependency_graph,
    class_count,
    config_topology,
    find_cycle,
)
from repro.wormhole.routing import (
    AdaptiveRouting,
    RoutingFunction,
    make_routing,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.orchestrate.spec import JobSpec
    from repro.sim.config import NetworkConfig

try:  # z3 is optional: the native engine decides the same constraints.
    import z3 as _z3  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - exercised by the no-z3 CI job
    _z3 = None

CERT_FORMAT = "repro-cdg-cert/1"


def have_z3() -> bool:
    """True when the optional ``z3-solver`` backend is importable."""
    return _z3 is not None


def z3_version() -> str | None:
    return _z3.get_version_string() if _z3 is not None else None


# -- channel (de)serialisation -------------------------------------------


def chan_key(ch: Channel) -> str:
    """Stable string id of a channel for certificates: ``node:port:class``."""
    return f"{ch.node}:{ch.port}:{ch.vc_class}"


def parse_chan_key(key: str) -> Channel:
    node, port, vc_class = (int(part) for part in key.split(":"))
    return Channel(node, port, vc_class)


def _sorted_channels(edges: Edges) -> list[Channel]:
    order = lambda c: (c.node, c.port, c.vc_class)  # noqa: E731
    vertices = set(edges)
    for outs in edges.values():
        vertices.update(outs)
    return sorted(vertices, key=order)


def graph_fingerprint(edges: Edges) -> dict:
    """Canonical summary + hash of a dependency graph.

    The hash pins the exact edge set, so a committed certificate detects
    any later drift of the analyzer (changed walk, changed discipline)
    instead of silently vouching for a different graph.
    """
    canonical = {
        chan_key(src): sorted(chan_key(dst) for dst in edges.get(src, ()))
        for src in _sorted_channels(edges)
    }
    blob = json.dumps(canonical, sort_keys=True).encode()
    return {
        "channels": len(canonical),
        "deps": sum(len(v) for v in canonical.values()),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


# -- the rank engines ----------------------------------------------------


def solve_ranks_native(edges: Edges) -> dict[Channel, int] | None:
    """Exact acyclicity decision without any solver dependency.

    The constraint system ``rank(u) < rank(v)`` per edge is satisfiable
    iff the graph is acyclic; the canonical model is the longest-path
    depth of each vertex (Kahn's algorithm).  Returns the rank model, or
    ``None`` when the constraints are unsatisfiable (a cycle exists).
    """
    vertices = _sorted_channels(edges)
    indegree = {v: 0 for v in vertices}
    for src, outs in edges.items():
        for dst in outs:
            indegree[dst] += 1
    ranks = {v: 0 for v in vertices}
    ready = [v for v in vertices if indegree[v] == 0]
    done = 0
    while ready:
        nxt: list[Channel] = []
        for vertex in ready:
            done += 1
            for out in edges.get(vertex, ()):
                ranks[out] = max(ranks[out], ranks[vertex] + 1)
                indegree[out] -= 1
                if indegree[out] == 0:
                    nxt.append(out)
        ready = nxt
    if done != len(vertices):
        return None  # some vertices sit on a cycle
    return ranks


def solve_ranks_z3(edges: Edges) -> dict[Channel, int] | None:
    """The same constraint system, discharged by z3.

    One integer variable per channel, one strict inequality per
    dependency; ``sat`` returns the model, ``unsat`` proves a cycle.
    """
    if _z3 is None:  # pragma: no cover - guarded by callers
        raise ConfigError(
            "z3-solver is not installed; use engine='native' or install "
            "the 'smt' extra (pip install repro[smt])"
        )
    vertices = _sorted_channels(edges)
    solver = _z3.Solver()
    var = {v: _z3.Int(chan_key(v)) for v in vertices}
    for src, outs in edges.items():
        for dst in outs:
            solver.add(var[src] < var[dst])
    if solver.check() != _z3.sat:
        return None
    model = solver.model()
    return {
        v: model.eval(var[v], model_completion=True).as_long()
        for v in vertices
    }


def solve_ranks(
    edges: Edges, engine: str
) -> tuple[dict[Channel, int] | None, str]:
    """Dispatch to an engine; returns ``(ranks_or_None, engine_used)``.

    ``engine`` is ``"auto"`` (z3 when installed, else native), ``"z3"``
    (hard requirement) or ``"native"``.
    """
    if engine == "auto":
        engine = "z3" if have_z3() else "native"
    if engine == "z3":
        return solve_ranks_z3(edges), f"z3-{z3_version()}"
    if engine == "native":
        return solve_ranks_native(edges), "native"
    raise ConfigError(f"unknown SMT engine {engine!r}")


# -- the union dependency graph (the over-approximation) ------------------


def adaptive_class(num_classes: int) -> int:
    """Pseudo-class id labelling the adaptive VC pool in the union graph.

    Escape channels carry classes ``0..num_classes-1``; all adaptive VCs
    are symmetric, so one extra class id suffices -- a cycle exists among
    the adaptive channels iff it exists with a single representative.
    """
    return num_classes


class UnionSubfunction(EscapeSubfunction):
    """Every channel a blocked header may wait on, with no free hops.

    Offers the escape channel plus, for adaptive routing, every minimal
    port on the adaptive pseudo-class.  Walked without free hops, each
    channel is chained to every channel usable one hop later: the direct
    dependencies of the full relation.
    """

    name = "union"
    free_hops = False

    def options(
        self, node: int, dst: int, bits: int
    ) -> tuple[tuple[int, int], ...]:
        options = super().options(node, dst, bits)
        if not isinstance(self.routing, AdaptiveRouting):
            return options
        cls = adaptive_class(self.num_classes)
        return options + tuple(
            (port, cls)
            for port in self.routing.topology.minimal_ports(node, dst)
        )


def build_union_cdg(
    routing: RoutingFunction, *, assume_classes: int | None = None
) -> Edges:
    """Accumulate *every* direct dependency any route may create.

    This is the single-graph union that a plain loop search (SNIPPETS
    snippet 3, method ``-b``; Stramaglia et al.'s satisfiability phrasing
    of the same object) operates on.  For deterministic routing it equals
    the ordinary CDG.  For adaptive routing it includes the adaptive
    channels and all adaptive<->escape transitions -- and is cyclic for
    every interesting adaptive config (all turns are permitted), which is
    exactly the over-approximation the escape/subrelation methods
    resolve.
    """
    sub = UnionSubfunction(routing, class_count(routing, assume_classes))
    return build_dependency_graph(routing, sub)[0]


# -- routing subfunctions (Duato's valid subrelations) --------------------


class RingSplitSubfunction:
    """Dimension order with per-ring direction choice, over adaptive VCs.

    On a wrapped (torus) dimension whose two minimal directions tie, the
    escape DOR rule always takes the plus port -- chaining plus links all
    the way around the ring, which is the classic cycle when no dateline
    classes are available.  This subfunction breaks the tie by *source
    parity* instead: even coordinates go plus, odd go minus, so neither
    direction's links ever chain around a full ring.  Non-tied hops take
    the strictly-minimal direction (which can never chain a ring either:
    a route crosses at most half the ring).  All options are served from
    the adaptive VC pool, so the subfunction is a subrelation of the full
    adaptive routing relation whatever the escape class discipline says.

    Duato's theorem then applies: if this subfunction is connected and
    its extended dependency graph (chained across *all* adaptive hops of
    the full relation) is acyclic, the routing function is deadlock-free
    -- even when every single-graph cycle search over the union or the
    escape discipline reports a cycle.
    """

    name = "ring-split-dor"
    free_hops = True

    def __init__(self, routing: RoutingFunction, num_classes: int) -> None:
        topology = routing.topology
        if not isinstance(topology, CartesianTopology):
            raise ConfigError(
                "ring-split subfunction requires a Cartesian topology"
            )
        self.routing = routing
        self.topology = topology
        self.cls = adaptive_class(num_classes)

    def options(
        self, node: int, dst: int, bits: int
    ) -> tuple[tuple[int, int], ...]:
        topo = self.topology
        here = topo.coords(node)
        there = topo.coords(dst)
        for dim, radix in enumerate(topo.dims):
            c, t = here[dim], there[dim]
            if c == t:
                continue
            if topo._wraps(dim):
                up = (t - c) % radix
                down = (c - t) % radix
                if up < down:
                    port = 2 * dim
                elif down < up:
                    port = 2 * dim + 1
                else:  # tie: split the ring by source parity
                    port = 2 * dim if c % 2 == 0 else 2 * dim + 1
            else:
                port = 2 * dim if t > c else 2 * dim + 1
            return ((port, self.cls),)
        return ()


def candidate_subfunctions(
    routing: RoutingFunction, num_classes: int
) -> list:
    """Subrelation candidates, cheapest/most-standard first."""
    candidates: list = [EscapeSubfunction(routing, num_classes)]
    topology = routing.topology
    if isinstance(routing, AdaptiveRouting) and isinstance(
        topology, CartesianTopology
    ):
        if any(topology._wraps(d) for d in range(topology.n_dims)):
            candidates.append(RingSplitSubfunction(routing, num_classes))
    return candidates


def subfunction_by_name(
    name: str, routing: RoutingFunction, num_classes: int
):
    """A candidate subfunction, or the union, named by a certificate."""
    for sub in (
        *candidate_subfunctions(routing, num_classes),
        UnionSubfunction(routing, num_classes),
    ):
        if sub.name == name:
            return sub
    raise ConfigError(
        f"unknown subfunction {name!r} for {routing.topology!r}"
    )


# -- verdicts ------------------------------------------------------------


@dataclass
class SmtReport:
    """Outcome of one exact verification run."""

    config: str  # human-readable config summary
    engine: str  # "native" or "z3-<version>"
    method: str  # acyclicity | escape | subrelation | refuted
    deadlock_free: bool
    conclusive: bool  # False only when the subrelation family is exhausted
    detail: str
    certificate: dict
    union_cyclic: bool | None = None  # adaptive configs only
    subfunction: str | None = None


def _routing_for(
    config: "NetworkConfig",
) -> tuple[Topology, RoutingFunction]:
    topology = config_topology(config)
    routing = make_routing(
        config.wormhole.routing, topology, config.wormhole.vcs
    )
    return topology, routing


def _cert_config(config: "NetworkConfig") -> dict:
    return {
        "topology": config.topology,
        "dims": list(config.dims),
        "protocol": config.protocol,
        "routing": config.wormhole.routing,
        "vcs": config.wormhole.vcs,
    }


def _ranks_json(ranks: dict[Channel, int]) -> dict[str, int]:
    return {chan_key(ch): rank for ch, rank in sorted(
        ranks.items(), key=lambda kv: (kv[0].node, kv[0].port, kv[0].vc_class)
    )}


def _cycle_json(cycle: list[Channel]) -> list[str]:
    return [chan_key(ch) for ch in cycle]


def verify_config(
    config: "NetworkConfig",
    *,
    assume_classes: int | None = None,
    engine: str = "auto",
) -> SmtReport:
    """Decide deadlock freedom exactly and emit a certificate.

    Deterministic routing: rank the (plain) CDG -- satisfiable iff
    acyclic iff deadlock-free (exact both ways).  Adaptive routing:
    search for a connected subfunction with an acyclic extended graph
    (escape discipline first, then the wider family); any hit is a proof
    of freedom per Duato's theorem.  When the family is exhausted the
    verdict is a *rejection with a caveat* (``conclusive=False``): the
    witnessing cycles are real graph cycles, but Duato's condition is
    existential so a subfunction outside the family could still exist.
    """
    _topology, routing = _routing_for(config)
    num_classes = class_count(routing, assume_classes)
    adaptive = isinstance(routing, AdaptiveRouting)
    base = {
        "format": CERT_FORMAT,
        "config": _cert_config(config),
        "assume_classes": assume_classes,
    }
    union_cycle: list[Channel] = []
    if adaptive:
        # Record the union-graph over-approximation the subfunction
        # search resolves.
        union_cycle = find_cycle(
            build_union_cdg(routing, assume_classes=assume_classes)
        )
        base["union_cycle"] = _cycle_json(union_cycle)
    union_cyclic = bool(union_cycle) if adaptive else None
    candidates = candidate_subfunctions(routing, num_classes)
    engine_used = "native"
    rejected = None  # the first connected candidate with a cyclic graph
    for sub in candidates:
        edges, connected = build_dependency_graph(routing, sub)
        if not connected:
            continue
        ranks, engine_used = solve_ranks(edges, engine)
        if ranks is None:
            rejected = rejected or (sub, edges)
            continue
        fingerprint = graph_fingerprint(edges)
        size = f"{fingerprint['channels']} channels / {fingerprint['deps']}"
        if adaptive:
            method = (
                "escape" if sub.name == EscapeSubfunction.name
                else "subrelation"
            )
            over = (
                "; union graph cyclic (over-approximation resolved)"
                if union_cycle else ""
            )
            detail = (
                f"connected subfunction '{sub.name}' with acyclic "
                f"extended graph ({size} deps): deadlock-free per Duato"
                f"{over}"
            )
        else:
            method = "acyclicity"
            detail = (
                f"rank model over {size} dependencies (deterministic "
                "routing: exact)"
            )
        cert = dict(
            base, method=method, engine=engine_used, deadlock_free=True,
            conclusive=True, graph=fingerprint, ranks=_ranks_json(ranks),
        )
        if adaptive:
            cert["subfunction"] = sub.name
        return SmtReport(
            config=config.describe(), engine=engine_used, method=method,
            deadlock_free=True, conclusive=True, detail=detail,
            certificate=cert, union_cyclic=union_cyclic,
            subfunction=cert.get("subfunction"),
        )

    # Refuted.  The witness is certified in the graph it was found in:
    # the first connected candidate's, else the union graph's.
    if rejected is None:
        union_sub = UnionSubfunction(routing, num_classes)
        rejected = (union_sub, build_dependency_graph(routing, union_sub)[0])
    sub, edges = rejected
    cycle = find_cycle(edges)
    if adaptive:
        detail = (
            "no connected subfunction with an acyclic extended graph in "
            f"the search family ({len(candidates)} candidates); rejection "
            "is family-relative (Duato's condition is existential)"
        )
    else:
        detail = (
            f"rank constraints unsatisfiable; witnessing cycle of "
            f"{len(cycle) - 1} channels (deterministic routing: a "
            "reachable circular wait)"
        )
    cert = dict(
        base, method="refuted", engine=engine_used, deadlock_free=False,
        conclusive=not adaptive, graph=graph_fingerprint(edges),
        cycle=_cycle_json(cycle),
    )
    if adaptive:
        cert["subfunction"] = sub.name
    return SmtReport(
        config=config.describe(), engine=engine_used, method="refuted",
        deadlock_free=False, conclusive=not adaptive, detail=detail,
        certificate=cert, union_cyclic=union_cyclic,
    )


def format_smt_report(report: SmtReport) -> str:
    verdict = "DEADLOCK-FREE" if report.deadlock_free else (
        "REJECTED" if report.conclusive else "REJECTED (inconclusive)"
    )
    lines = [
        f"SMT [{report.engine}] {report.method}: {verdict}",
        f"  {report.detail}",
    ]
    if report.union_cyclic:
        lines.append(
            "  union dependency graph is cyclic -- a plain cycle search "
            "over-approximates this config"
        )
    return "\n".join(lines)


# -- certificate replay (no z3, no solver) --------------------------------


@dataclass
class CertificateCheck:
    """Result of replaying a certificate against the current code."""

    ok: bool
    errors: list[str] = field(default_factory=list)
    detail: str = ""


def _config_from_cert(cert: dict) -> "NetworkConfig":
    from repro.sim.config import NetworkConfig, WaveConfig, WormholeConfig

    cfg = cert["config"]
    protocol = cfg.get("protocol", "wormhole")
    # The dependency graph lives in the wormhole routing layer; wave
    # parameters never affect it, so default S1..Sk settings suffice to
    # rebuild a wave-protocol config.
    wave = None if protocol == "wormhole" else WaveConfig()
    return NetworkConfig(
        topology=cfg["topology"],
        dims=tuple(cfg["dims"]),
        protocol=protocol,
        wave=wave,
        wormhole=WormholeConfig(
            vcs=cfg["vcs"], routing=cfg["routing"]
        ),
    )


def _replay_ranks(
    edges: Edges, ranks_json: dict[str, int], errors: list[str]
) -> int:
    """Edge-by-edge strict-increase replay; returns edges checked."""
    ranks = {parse_chan_key(k): v for k, v in ranks_json.items()}
    if any(type(rank) is not int for rank in ranks.values()):
        errors.append("ranks must be integers")
        return 0
    checked = 0
    for vertex in _sorted_channels(edges):
        if vertex not in ranks:
            errors.append(f"channel {chan_key(vertex)} has no rank")
            return checked
    for src, outs in edges.items():
        for dst in outs:
            checked += 1
            if not ranks[src] < ranks[dst]:
                errors.append(
                    f"rank({chan_key(src)})={ranks[src]} !< "
                    f"rank({chan_key(dst)})={ranks[dst]}"
                )
                return checked
    return checked


def _replay_cycle(
    edges: Edges, cycle_json: list[str], errors: list[str]
) -> None:
    """The recorded cycle must be a closed chain of real dependencies."""
    chain = [parse_chan_key(k) for k in cycle_json]
    if len(chain) < 2 or chain[0] != chain[-1]:
        errors.append("cycle witness is not a closed chain")
        return
    for src, dst in zip(chain, chain[1:]):
        if dst not in edges.get(src, ()):
            errors.append(
                f"claimed dependency {chan_key(src)} -> {chan_key(dst)} "
                "does not exist in the rebuilt graph"
            )
            return


_METHODS = ("acyclicity", "escape", "subrelation", "refuted")


def check_certificate(cert: dict) -> CertificateCheck:
    """Replay a certificate with plain graph walks and integer compares.

    Rebuilds the graph of the subfunction the certificate names (none
    names the escape discipline) from the certified configuration --
    pure Python, no z3 -- and checks the subfunction's connectivity and
    the canonical hash (drift detection).  Then replays the rank model
    or the cycle witness, and the union-cycle evidence when recorded.
    Certificates are outside input: a malformed one fails the check
    instead of raising.
    """
    if not isinstance(cert, dict):
        return CertificateCheck(False, ["certificate is not a JSON object"])
    if cert.get("format") != CERT_FORMAT:
        return CertificateCheck(
            False, [f"unknown certificate format {cert.get('format')!r}"]
        )
    if cert.get("method") not in _METHODS:
        return CertificateCheck(
            False, [f"unknown method {cert.get('method')!r}"]
        )
    try:
        return _replay_certificate(cert)
    except (
        ReproError, LookupError, TypeError, ValueError, AttributeError
    ) as exc:
        return CertificateCheck(
            False, [f"malformed certificate: {type(exc).__name__}: {exc}"]
        )


def _replay_certificate(cert: dict) -> CertificateCheck:
    _topology, routing = _routing_for(_config_from_cert(cert))
    assume = cert.get("assume_classes")
    sub = subfunction_by_name(
        cert.get("subfunction", EscapeSubfunction.name),
        routing, class_count(routing, assume),
    )
    edges, connected = build_dependency_graph(routing, sub)
    errors: list[str] = []
    if not connected:
        errors.append(f"subfunction {sub.name!r} is not connected")
    fingerprint = graph_fingerprint(edges)
    recorded = cert.get("graph", {})
    if recorded.get("sha256") != fingerprint["sha256"]:
        errors.append(
            "graph drift: certificate hash "
            f"{str(recorded.get('sha256', '?'))[:12]} != rebuilt "
            f"{fingerprint['sha256'][:12]}"
        )
    checked = 0
    if cert.get("deadlock_free"):
        checked = _replay_ranks(edges, cert.get("ranks", {}), errors)
    else:
        _replay_cycle(edges, cert.get("cycle", []), errors)
    if cert.get("union_cycle"):
        union = build_union_cdg(routing, assume_classes=assume)
        _replay_cycle(union, cert["union_cycle"], errors)
    return CertificateCheck(
        ok=not errors,
        errors=errors,
        detail=(
            f"{cert['config']['topology']}/{cert['config']['routing']} "
            f"{cert['method']}: replayed "
            + (f"{checked} rank constraints" if cert.get("deadlock_free")
               else f"cycle of {max(len(cert.get('cycle', [])) - 1, 0)}")
            + f" over {fingerprint['channels']} channels"
        ),
    )


# -- certificate files ---------------------------------------------------


def certificate_slug(
    config: "NetworkConfig", assume_classes: int | None = None
) -> str:
    shape = "x".join(str(d) for d in config.dims)
    parts = [
        config.topology, shape, config.protocol,
        config.wormhole.routing, f"vcs{config.wormhole.vcs}",
    ]
    if assume_classes is not None:
        parts.append(f"assume{assume_classes}")
    return "-".join(parts)


def dump_certificate(cert: dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(cert, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_certificate(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_certificate_files(paths: Iterable) -> list[tuple[Path, CertificateCheck]]:
    """Replay a batch of certificate files (CI's smt-check job)."""
    results = []
    for path in sorted(Path(p) for p in paths):
        try:
            cert = load_certificate(path)
            results.append((path, check_certificate(cert)))
        except (OSError, ValueError) as exc:
            results.append(
                (path, CertificateCheck(False, [f"unreadable: {exc}"]))
            )
    return results


# -- closing the loop with the fuzzer ------------------------------------


def rejection_jobspecs(
    config: "NetworkConfig",
    *,
    seeds: tuple[int, ...] = (0, 1, 2),
    load: float = 0.35,
) -> "list[JobSpec]":
    """Seeded stress scenarios for a config the prover rejected.

    Each spec runs the exact rejected configuration near saturation with
    the runtime deadlock detector and the full invariant harness enabled,
    so ``repro fuzz --replay`` hunts for the predicted circular wait.
    The prover and the runtime harness thereby check each other: a
    rejection the fuzzer can never reproduce is analyzer over-
    approximation evidence; a reproduced deadlock is a confirmed finding.
    """
    from repro.orchestrate.spec import JobSpec, WorkloadRecipe

    specs = []
    for i, seed in enumerate(seeds):
        workload = WorkloadRecipe.make(
            "uniform", pattern="uniform", load=load, length=16,
            duration=600,
        )
        specs.append(JobSpec(
            config=dataclasses.replace(config, seed=seed),
            workload=workload,
            label=f"cdg-rejected-{certificate_slug(config)}-{i}",
            max_cycles=80_000,
            deadlock_check_interval=67,
            progress_timeout=30_000,
            invariants_every=4,
        ))
    return specs


def dump_rejection_specs(
    config: "NetworkConfig", out_dir, **kwargs
) -> list[Path]:
    """Write rejection scenarios as ``repro fuzz --replay``-able JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in rejection_jobspecs(config, **kwargs):
        path = out / f"{spec.label}.json"
        path.write_text(
            json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        paths.append(path)
    return paths
