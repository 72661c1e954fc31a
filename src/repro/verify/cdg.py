"""Static extended channel-dependency-graph analysis (Theorems 1 and 2).

The paper's deadlock-freedom argument has two legs:

1. **Resource separation** -- wave switches S1..Sk, the S0 wormhole
   plane and the control-flit paths use disjoint channel resources, and
   every circuit-plane resource is released in bounded time (probes
   backtrack, victims are torn down, phase 3 abandons the plane
   entirely), so the only place a circular wait can live is inside S0.

2. **S0 acyclicity** -- the wormhole routing function underneath has an
   acyclic (extended) channel-dependency graph: Dally & Seitz dimension
   order on meshes and hypercubes, dateline VC classes on tori, and
   Duato-style adaptive routing whose *escape* subfunction is acyclic.

This module holds the pieces both legs are checked from, statically,
from topology + routing + protocol configuration alone, with no
simulation: :func:`build_dependency_graph` walks every (src, dst)
*endpoint* pair's route exactly as the runtime router would (the
class/dateline discipline is queried from the routing object itself) and
builds the channel-dependency graph over ``(node, port, vc_class)``
vertices; a routing subfunction says which channels it chains
(:class:`EscapeSubfunction` here, the union and subrelation candidates
in :mod:`repro.verify.smt`).  For adaptive routing the escape
subfunction's graph is the *extended* CDG: escape-channel dependencies
chained across adaptive intermediate hops, the indirect-dependency
closure Duato's theorem requires to be acyclic.
:func:`runtime_replay_check` replays real routes through the runtime
router so the walk and the router cannot drift apart unnoticed, and
:func:`find_cycle` returns a witness chain.  The verdict itself
is :func:`repro.verify.smt.verify_config`.

``assume_classes=1`` deliberately analyses a torus while ignoring its
dateline discipline -- the classic cyclic configuration -- which is how
the tests (and CI) prove the verifier actually finds cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.topology import build_topology
from repro.topology.base import Topology
from repro.wormhole.routing import AdaptiveRouting, RoutingFunction

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.config import NetworkConfig


@dataclass(frozen=True)
class Channel:
    """One CDG vertex: a directed link on one virtual-channel class."""

    node: int
    port: int
    vc_class: int

    def describe(self, topology: Topology) -> str:
        nbr = topology.neighbor(self.node, self.port)
        to = topology.node_label(nbr) if nbr is not None else "?"
        return (
            f"{topology.node_label(self.node)}"
            f"--{topology.port_label(self.port)}/c{self.vc_class}-->{to}"
        )


@dataclass
class SeparationCheck:
    """One line of the resource-separation checklist."""

    name: str
    passed: bool
    detail: str


# -- graph construction --------------------------------------------------

Edges = dict[Channel, set[Channel]]


def _add_edge(edges: Edges, src: Channel | None, dst: Channel) -> None:
    edges.setdefault(dst, set())
    if src is not None and src != dst:
        edges.setdefault(src, set()).add(dst)


class EscapeSubfunction:
    """The designated escape discipline: dimension-order on escape VCs.

    A routing *subfunction* tells the graph builder which channels a
    header may wait on at each state: ``options(node, dst, bits)``
    returns ``(port, vc_class)`` pairs.  ``free_hops`` says whether the
    walk may also take the full relation's minimal adaptive hops between
    subfunction channels (Duato's indirect dependencies).
    """

    name = "escape-dor"
    free_hops = True

    def __init__(self, routing: RoutingFunction, num_classes: int) -> None:
        self.routing = routing
        self.num_classes = num_classes

    def options(
        self, node: int, dst: int, bits: int
    ) -> tuple[tuple[int, int], ...]:
        port = self.routing.topology.dor_port(node, dst)
        cls = self.routing.hop_class(
            node, port, bits, num_classes=self.num_classes
        )
        return ((port, cls),)


def build_dependency_graph(
    routing: RoutingFunction, sub
) -> tuple[Edges, bool]:
    """The (extended) dependency graph of a subfunction, and connectivity.

    Walks the states ``(node, dateline bits, last held channel)`` of
    every endpoint pair.  At each state every option of ``sub`` is
    chained to the last held channel -- the worm's body holds its whole
    path, so carrying only the last channel yields the same transitive
    closure.  When the relation is adaptive and ``sub.free_hops`` allows
    it, the header may also take any minimal adaptive hop with the chain
    unchanged, which is the conservative superset of Duato's
    indirect-dependency closure.  Only endpoint pairs route messages; on
    topologies with dedicated switching elements (MINs) the switches
    never source or sink worms.

    The subfunction is connected iff every reachable state offers an
    option and every option leads to a neighbour.
    """
    topology = routing.topology
    free_hops = sub.free_hops and isinstance(routing, AdaptiveRouting)
    edges: Edges = {}
    connected = True
    for src in topology.endpoints():
        for dst in topology.endpoints():
            if src == dst:
                continue
            seen: set[tuple[int, int, Channel | None]] = set()
            stack: list[tuple[int, int, Channel | None]] = [(src, 0, None)]
            while stack:
                state = stack.pop()
                node, bits, last = state
                if node == dst or state in seen:
                    continue
                seen.add(state)
                options = sub.options(node, dst, bits)
                connected = connected and bool(options)
                for port, cls in options:
                    chan = Channel(node, port, cls)
                    _add_edge(edges, last, chan)
                    nbr = topology.neighbor(node, port)
                    if nbr is None:
                        connected = False
                        continue
                    stack.append(
                        (nbr, routing.hop_bits(node, port, bits), chan)
                    )
                if not free_hops:
                    continue
                for port in topology.minimal_ports(node, dst):
                    nbr = topology.neighbor(node, port)
                    if nbr is not None:
                        stack.append(
                            (nbr, routing.hop_bits(node, port, bits), last)
                        )
    return edges, connected


def class_count(routing: RoutingFunction, assume_classes: int | None) -> int:
    """The VC-class count an analysis uses, validating any override.

    ``assume_classes`` may only *reduce* the count (e.g. ``1`` on a torus
    ignores the dateline discipline -- the deliberately-cyclic
    configuration used to validate the analyzer).
    """
    if assume_classes is None:
        return routing.num_classes
    if assume_classes < 1:
        raise ConfigError(f"assume_classes must be >= 1, got {assume_classes}")
    if assume_classes > routing.num_classes:
        # The class discipline is pinned by the topology: fullmesh and the
        # unidirectional MIN (and mesh/hypercube) define exactly one VC
        # class, a torus exactly two.  hop_class() can never emit a class
        # the discipline does not define, so analysing with *more* classes
        # than the topology pins would silently produce the same graph
        # relabelled -- reject instead of composing wrongly.
        raise ConfigError(
            f"assume_classes={assume_classes} exceeds the "
            f"{routing.num_classes} VC class(es) {routing.topology!r} "
            "pins; only reducing the class count (e.g. 1 to ignore "
            "torus datelines) is a meaningful override"
        )
    return assume_classes


def build_cdg(
    topology: Topology,
    routing,
    *,
    assume_classes: int | None = None,
) -> Edges:
    """Build the (extended) channel-dependency graph of a routing function.

    The escape subfunction's graph: the plain CDG for deterministic
    routing, the extended escape CDG for adaptive routing.
    """
    sub = EscapeSubfunction(routing, class_count(routing, assume_classes))
    return build_dependency_graph(routing, sub)[0]


def find_cycle(edges: Edges) -> list[Channel]:
    """Return one dependency cycle as a channel chain, or [] if acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in edges}
    path: list[Channel] = []

    def dfs(start: Channel) -> list[Channel]:
        stack: list[tuple[Channel, iter]] = [(start, iter(sorted(
            edges.get(start, ()), key=lambda c: (c.node, c.port, c.vc_class)
        )))]
        color[start] = GREY
        path.append(start)
        while stack:
            vertex, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(
                        edges.get(nxt, ()),
                        key=lambda c: (c.node, c.port, c.vc_class),
                    ))))
                    advanced = True
                    break
            if not advanced:
                color[vertex] = BLACK
                path.pop()
                stack.pop()
        return []

    for vertex in sorted(edges, key=lambda c: (c.node, c.port, c.vc_class)):
        if color[vertex] == WHITE:
            cycle = dfs(vertex)
            if cycle:
                return cycle
    return []


# -- the full protocol-level check ---------------------------------------


def separation_checks(config: "NetworkConfig", routing) -> list[SeparationCheck]:
    """The resource-separation leg of Theorems 1-2, from configuration."""
    checks: list[SeparationCheck] = []
    wave = config.wave
    if wave is not None:
        checks.append(SeparationCheck(
            "plane_disjointness", True,
            f"{wave.num_switches} wave switch(es) + S0 own disjoint "
            "physical channel sets; probes, circuits and worms never "
            "contend for the same channel",
        ))
        checks.append(SeparationCheck(
            "bounded_probe_work", wave.misroute_budget >= 0,
            f"MB-{wave.misroute_budget} probes release every reserved "
            "channel on backtrack and do bounded work (Theorem 3)",
        ))
        checks.append(SeparationCheck(
            "escape_to_s0", True,
            "CLRP phase 3 / CARP fallback abandon the circuit planes for "
            "S0, so circuit-plane waits never become permanent",
        ))
    checks.append(SeparationCheck(
        "control_flits_sunk", True,
        "acks, releases and teardowns are consumed at network interfaces "
        "and never wait on wormhole credits",
    ))
    if config_topology(config).num_vc_classes > 1:
        need = routing.num_classes
        checks.append(SeparationCheck(
            "dateline_vcs", config.wormhole.vcs >= need,
            f"dateline discipline needs >= {need} VCs "
            f"(configured: {config.wormhole.vcs})",
        ))
    return checks


def runtime_replay_check(
    topology: Topology, routing: RoutingFunction, edges: Edges
) -> SeparationCheck:
    """Replay real routes through the runtime router against the CDG.

    The analyzer walks routes via :meth:`hop_class`/:meth:`hop_bits`; the
    runtime router goes through :meth:`candidates`/:meth:`note_hop` with a
    live header flit.  The two code paths share the dateline discipline by
    construction, but "cannot drift" is worth a machine check: every
    channel the runtime would occupy along a route must be a vertex of
    the analyzer's graph with the same VC class.  For adaptive routing
    the escape tier is replayed (the adaptive tier has no per-VC class
    discipline to drift).  Any missing channel fails the config, which
    turns ``repro verify-cdg --all`` red instead of green-washing an
    analyzer/runtime divergence.
    """
    from repro.wormhole.flit import Flit

    vertices: set[Channel] = set(edges)
    for outs in edges.values():
        vertices.update(outs)
    num_classes = routing.num_classes
    replayed = 0
    for src in topology.endpoints():
        for dst in topology.endpoints():
            if src == dst:
                continue
            head = Flit(0, 0, is_head=True, is_tail=True, dst=dst)
            node = src
            while node != dst:
                tiers = routing.candidates(node, dst, head)
                escape_tier = tiers[-1]  # DOR: only tier; adaptive: escape
                for port, vcs in escape_tier:
                    for vc in vcs:
                        chan = Channel(node, port, vc % num_classes)
                        if chan not in vertices:
                            return SeparationCheck(
                                "runtime_replay", False,
                                f"runtime channel "
                                f"{chan.describe(topology)} (route "
                                f"{src}->{dst}) missing from the CDG: "
                                "analyzer and router drifted",
                            )
                        replayed += 1
                # Advance along the escape path exactly as a worm
                # committed to it would, updating the header history.
                port, _vcs = escape_tier[0]
                routing.note_hop(node, port, head)
                nxt = topology.neighbor(node, port)
                assert nxt is not None
                node = nxt
    return SeparationCheck(
        "runtime_replay", True,
        f"{replayed} runtime channel uses replayed through "
        "candidates()/note_hop() all match the analyzer's graph",
    )


def config_topology(config: "NetworkConfig") -> Topology:
    return build_topology(config.topology, config.dims)
