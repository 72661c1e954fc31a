"""Exact deadlock-freedom verification with machine-checkable certificates.

:func:`verify_config` is the verifier behind ``repro verify-cdg``.  It
decides Theorems 1-2 for one configuration from topology + routing +
protocol config alone (no simulation).  For deterministic routing a
cyclic CDG is exactly a reachable circular wait (Dally & Seitz).  For
adaptive routing no *single* graph is exact: Duato's condition is
existential -- a routing function is deadlock-free iff **some**
connected routing subfunction has an acyclic extended dependency graph.
The *union* dependency graph (every channel any route may use -- the
object of Stramaglia, Keiren & Zantema's loop search) over-approximates:
it is cyclic even for sound configs, and a config whose *designated*
escape discipline fails may still be freed by another subrelation.

* **Acyclicity via per-channel ranks.**  A graph is acyclic iff the
  constraint system ``rank(u) < rank(v)`` for every dependency ``u -> v``
  is satisfiable over the integers.  The native engine (longest-path
  ranks over Kahn's algorithm) decides it with no dependency; z3, when
  installed, decides the same system and serves the cross-check tests.

* **The proof ladder.**  Candidate subfunctions are tried in order: the
  designated escape discipline (the plain CDG for deterministic routing,
  the extended escape CDG for adaptive routing), then for adaptive tori
  a ring-split dimension-order family that breaks ring ties by source
  parity.  A connected candidate with an acyclic graph proves freedom;
  otherwise the witness cycle refutes.  The union graph's cycle, when
  one exists, is recorded as the over-approximation being resolved.

* **Resource separation and runtime replay.**  The report carries the
  resource-separation checks of :mod:`repro.verify.cdg` and, when the
  analysis models the runtime discipline, a replay of real routes
  through the runtime router against the escape graph.  A failed check
  makes the report not ok, so a drifted walker is never certified.

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
  scenarios (:func:`rejection_jobspecs`) for :mod:`repro.verify.fuzz`, closing
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
    SeparationCheck,
    build_dependency_graph,
    class_count,
    config_topology,
    find_cycle,
    runtime_replay_check,
    separation_checks,
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
    edges: Edges, engine: str = "native"
) -> tuple[dict[Channel, int] | None, str]:
    """Dispatch to an engine; returns ``(ranks_or_None, engine_used)``.

    ``engine`` is ``"native"`` or ``"z3"`` (the cross-check; a hard
    requirement on ``z3-solver``).
    """
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
class VerifyReport:
    """Outcome of one verification run: verdict, checks and certificate."""

    routing: RoutingFunction
    num_classes: int
    engine: str  # "native" or "z3-<version>"
    method: str  # acyclicity | escape | subrelation | refuted
    deadlock_free: bool
    conclusive: bool  # False only when the subrelation family is exhausted
    detail: str
    certificate: dict
    subfunction: str | None = None  # the adaptive proof's subfunction
    cycle: list[Channel] = field(default_factory=list)  # the refutation
    union_cycle: list[Channel] = field(default_factory=list)
    checks: list[SeparationCheck] = field(default_factory=list)

    @property
    def checks_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def ok(self) -> bool:
        """Deadlock-free, and every separation and replay check passed."""
        return self.deadlock_free and self.checks_passed


def _labels(
    adaptive: bool, deadlock_free: bool, subfunction: str
) -> tuple[str, bool]:
    """The ``(method, conclusive)`` labels a verdict carries."""
    if not deadlock_free:
        return "refuted", not adaptive
    if not adaptive:
        return "acyclicity", True
    if subfunction == EscapeSubfunction.name:
        return "escape", True
    return "subrelation", True


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
    engine: str = "native",
) -> VerifyReport:
    """Decide deadlock freedom exactly and emit a certificate.

    Deterministic routing: rank the (plain) CDG -- satisfiable iff
    acyclic iff deadlock-free (exact both ways).  Adaptive routing:
    search for a connected subfunction with an acyclic extended graph
    (escape discipline first, then the wider family); any hit is a proof
    of freedom per Duato's theorem.  When the family is exhausted the
    verdict is a *rejection with a caveat* (``conclusive=False``): the
    witnessing cycles are real graph cycles, but Duato's condition is
    existential so a subfunction outside the family could still exist.
    The report also carries the resource-separation checks and, without
    a class override, the runtime replay against the escape graph.
    """
    topology, routing = _routing_for(config)
    num_classes = class_count(routing, assume_classes)
    adaptive = isinstance(routing, AdaptiveRouting)
    checks = separation_checks(config, routing)
    cert: dict = {
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
        cert["union_cycle"] = _cycle_json(union_cycle)
    candidates = candidate_subfunctions(routing, num_classes)
    engine_used = "native"
    ranks = rejected = None  # rejected: first connected cyclic candidate
    for sub in candidates:
        edges, connected = build_dependency_graph(routing, sub)
        if sub is candidates[0] and assume_classes is None:
            # The escape graph models the runtime discipline verbatim
            # only without a class override; under a counterfactual
            # count the runtime legitimately uses channels it omits.
            checks.append(runtime_replay_check(topology, routing, edges))
        if not connected:
            continue
        ranks, engine_used = solve_ranks(edges, engine)
        if ranks is not None:
            break
        rejected = rejected or (sub, edges)
    free = ranks is not None
    if not free:
        # The witness is certified in the graph it was found in: the
        # first connected candidate's, else the union graph's.
        if rejected is None:
            union_sub = UnionSubfunction(routing, num_classes)
            rejected = (
                union_sub, build_dependency_graph(routing, union_sub)[0]
            )
        sub, edges = rejected
    method, conclusive = _labels(adaptive, free, sub.name)
    cycle = [] if free else find_cycle(edges)
    cert.update(
        method=method, engine=engine_used, deadlock_free=free,
        conclusive=conclusive, graph=graph_fingerprint(edges),
    )
    if free:
        cert["ranks"] = _ranks_json(ranks)
    else:
        cert["cycle"] = _cycle_json(cycle)
    if adaptive:
        cert["subfunction"] = sub.name
    if free and adaptive:
        detail = (
            f"connected subfunction '{sub.name}' with an acyclic extended "
            "graph: deadlock-free per Duato"
        )
    elif free:
        detail = (
            "rank model over every dependency (deterministic routing: "
            "exact)"
        )
    elif adaptive:
        detail = (
            "no connected subfunction with an acyclic extended graph in "
            f"the search family ({len(candidates)} candidates); rejection "
            "is family-relative (Duato's condition is existential)"
        )
    else:
        detail = (
            "rank constraints unsatisfiable (deterministic routing: a "
            "reachable circular wait)"
        )
    return VerifyReport(
        routing=routing, num_classes=num_classes, engine=engine_used,
        method=method, deadlock_free=free, conclusive=conclusive,
        detail=detail, certificate=cert,
        subfunction=sub.name if free and adaptive else None,
        cycle=cycle, union_cycle=union_cycle, checks=checks,
    )


def _chain(topology: Topology, cycle: list[Channel]) -> str:
    return " -> ".join(ch.describe(topology) for ch in cycle)


def format_report(report: VerifyReport) -> str:
    """Render a report the way ``repro verify-cdg`` prints it."""
    topology = report.routing.topology
    graph = report.certificate["graph"]
    sub = report.certificate.get("subfunction")
    verdict = "DEADLOCK-FREE" if report.deadlock_free else (
        "REJECTED" if report.conclusive else "REJECTED (inconclusive)"
    )
    lines = [
        f"{f'{sub!r} graph' if sub else 'CDG'}: {topology!r} / "
        f"{type(report.routing).__name__} ({report.num_classes} VC "
        f"class(es)): {graph['channels']} channels, {graph['deps']} "
        "dependencies",
        f"  {report.method} [{report.engine}]: {verdict} -- "
        f"{report.detail}",
    ]
    if report.cycle:
        lines.append(
            f"  CYCLE of {len(report.cycle) - 1} channels: "
            + _chain(topology, report.cycle)
        )
    if report.union_cycle:
        resolved = (
            " (an over-approximation the proof resolves)"
            if report.deadlock_free else ""
        )
        lines.append(
            f"  union graph cycle of {len(report.union_cycle) - 1} "
            f"channels{resolved}: " + _chain(topology, report.union_cycle)
        )
    for check in report.checks:
        mark = "ok" if check.passed else "FAIL"
        lines.append(f"  [{mark}] {check.name}: {check.detail}")
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


def check_certificate(cert: dict) -> CertificateCheck:
    """Replay a certificate with plain graph walks and integer compares.

    Rebuilds the graph of the subfunction the certificate names (none
    names the escape discipline) from the certified configuration --
    pure Python, no z3 -- and checks the subfunction's connectivity and
    the canonical hash (drift detection).  Then replays the rank model
    or the cycle witness, and the union-cycle evidence when recorded.
    The ``method`` and ``conclusive`` labels must be the ones
    :func:`verify_config` gives the replayed verdict.
    Certificates are outside input: a malformed one fails the check
    instead of raising.
    """
    if not isinstance(cert, dict):
        return CertificateCheck(False, ["certificate is not a JSON object"])
    if cert.get("format") != CERT_FORMAT:
        return CertificateCheck(
            False, [f"unknown certificate format {cert.get('format')!r}"]
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
    free = cert.get("deadlock_free")
    if type(free) is not bool:
        return CertificateCheck(False, ["deadlock_free must be a boolean"])
    edges, connected = build_dependency_graph(routing, sub)
    errors: list[str] = []
    if not connected:
        errors.append(f"subfunction {sub.name!r} is not connected")
    # The labels must say what the replay proves, not merely be known.
    method, conclusive = _labels(
        isinstance(routing, AdaptiveRouting), free, sub.name
    )
    for key, want in (("method", method), ("conclusive", conclusive)):
        got = cert.get(key)
        if type(got) is not type(want) or got != want:
            errors.append(
                f"label {key}={got!r} does not match the replayed "
                f"verdict ({want!r})"
            )
    fingerprint = graph_fingerprint(edges)
    recorded = cert.get("graph", {})
    if recorded.get("sha256") != fingerprint["sha256"]:
        errors.append(
            "graph drift: certificate hash "
            f"{str(recorded.get('sha256', '?'))[:12]} != rebuilt "
            f"{fingerprint['sha256'][:12]}"
        )
    checked = 0
    if free:
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
            + (f"{checked} rank constraints" if free
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
    """Replay a batch of certificate files (``--check-certificates``)."""
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
