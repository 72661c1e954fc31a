"""Tests for the exact deadlock verifier and its certificates.

Covers the verdict on every shipped config, the cross-check between two
independent acyclicity deciders (cycle search and the native rank
engine) on every graph the verifier builds, the union-graph
over-approximation being resolved for adaptive configs, certificate
round-trip, tamper and label rejection, solver-free replay, and the z3
engine when installed (skipped cleanly otherwise: the native engine
decides the same constraints).
"""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import _shipped_verify_configs
from repro.errors import ConfigError
from repro.sim.config import NetworkConfig, WormholeConfig
from repro.verify.cdg import (
    EscapeSubfunction,
    build_cdg,
    build_dependency_graph,
    class_count,
    config_topology,
    find_cycle,
)
from repro.verify.smt import (
    UnionSubfunction,
    build_union_cdg,
    candidate_subfunctions,
    certificate_slug,
    check_certificate,
    check_certificate_files,
    dump_certificate,
    graph_fingerprint,
    have_z3,
    load_certificate,
    rejection_jobspecs,
    solve_ranks_native,
    verify_config,
)
from repro.wormhole.routing import AdaptiveRouting, make_routing


def _wormhole(topology, dims, routing="dor", vcs=2):
    return NetworkConfig(
        topology=topology, dims=dims, protocol="wormhole", wave=None,
        wormhole=WormholeConfig(vcs=vcs, routing=routing),
    )


MALFORMED = (
    "no-config", "null-dims", "string-rank", "top-level-list",
    "unknown-subfunction", "assume-classes-above-pinned",
)


def _malformed(case):
    """A valid certificate broken in one way."""
    config = _wormhole("mesh", (4, 4))
    if case == "unknown-subfunction":
        config = _wormhole("mesh", (4, 4), routing="adaptive", vcs=3)
    cert = verify_config(config, engine="native").certificate
    if case == "no-config":
        del cert["config"]
    elif case == "null-dims":
        cert["config"]["dims"] = None
    elif case == "string-rank":
        cert["ranks"][next(iter(cert["ranks"]))] = "9"
    elif case == "top-level-list":
        return [cert]
    elif case == "unknown-subfunction":
        cert["subfunction"] = "bogus"
    elif case == "assume-classes-above-pinned":
        cert["assume_classes"] = 7
    return cert


def shipped_ids():
    return [c.describe() for c in _shipped_verify_configs()]


CERT_DIR = Path(__file__).parent.parent / "corpus" / "certificates"

# Beyond the shipped configs: one conclusive and one family-relative
# refutation, so the cross-check also sees cyclic candidate graphs.
CROSS_CHECK = [(config, None) for config in _shipped_verify_configs()] + [
    (_wormhole("torus", (4, 4)), 1),
    (_wormhole("torus", (6,), routing="adaptive", vcs=3), 1),
]


class TestShippedVerdicts:
    """Every shipped config is proved free, with a replayable certificate."""

    @pytest.mark.parametrize(
        "config", _shipped_verify_configs(), ids=shipped_ids()
    )
    def test_native_proves_shipped(self, config):
        report = verify_config(config)
        assert report.deadlock_free and report.conclusive and report.ok
        assert report.engine == "native"
        assert check_certificate(report.certificate).ok

    @pytest.mark.parametrize(
        "config,assume", CROSS_CHECK,
        ids=[f"{c.describe()}-assume{a}" for c, a in CROSS_CHECK],
    )
    def test_cycle_search_agrees_with_rank_engine(self, config, assume):
        # Two independent acyclicity deciders over every graph the
        # verifier builds: the DFS cycle search and the Kahn rank engine.
        routing = make_routing(
            config.wormhole.routing, config_topology(config),
            config.wormhole.vcs,
        )
        num_classes = class_count(routing, assume)
        subs = candidate_subfunctions(routing, num_classes)
        subs.append(UnionSubfunction(routing, num_classes))
        for sub in subs:
            edges = build_dependency_graph(routing, sub)[0]
            assert (find_cycle(edges) == []) == (
                solve_ranks_native(edges) is not None
            ), sub.name

    @pytest.mark.parametrize(
        "config", _shipped_verify_configs(), ids=shipped_ids()
    )
    @pytest.mark.skipif(not have_z3(), reason="z3-solver not installed")
    def test_z3_agrees_with_native(self, config):
        native = verify_config(config, engine="native")
        z3r = verify_config(config, engine="z3")
        assert native.deadlock_free == z3r.deadlock_free
        assert native.method == z3r.method
        assert z3r.engine.startswith("z3-")
        # z3's rank model differs numerically but must replay the same.
        assert check_certificate(z3r.certificate).ok

    def test_negative_case_dateline_free_torus(self):
        # The documented negative: torus DOR without dateline classes is
        # cyclic -- the verifier must refute it, conclusively.
        config = _wormhole("torus", (4, 4))
        smt = verify_config(config, assume_classes=1)
        assert smt.cycle and smt.cycle[0] == smt.cycle[-1]
        assert not smt.deadlock_free and smt.conclusive
        assert smt.method == "refuted"
        assert check_certificate(smt.certificate).ok

    @pytest.mark.skipif(not have_z3(), reason="z3-solver not installed")
    def test_z3_refutes_negative_case_too(self):
        config = _wormhole("torus", (4, 4))
        smt = verify_config(config, assume_classes=1, engine="z3")
        assert not smt.deadlock_free and smt.conclusive


class TestOverApproximationResolved:
    """Acceptance: search says cyclic, the exact prover certifies free."""

    def test_shipped_adaptive_union_graphs_are_cyclic(self):
        # The naive union graph (what a plain loop search operates on)
        # is cyclic for both shipped adaptive configs...
        for topology in ("mesh", "torus"):
            config = _wormhole(topology, (4, 4), routing="adaptive", vcs=3)
            topo = config_topology(config)
            routing = make_routing("adaptive", topo, 3)
            union = build_union_cdg(routing)
            assert solve_ranks_native(union) is None, topology
            # ...yet the escape-subfunction proof certifies freedom.
            smt = verify_config(config, engine="native")
            assert smt.deadlock_free and smt.union_cycle
            assert smt.method == "escape"

    def test_ring_split_subrelation_beats_escape_search(self):
        # Dateline-free 4-ring with adaptive routing: the extended
        # escape graph has a cycle (the DOR escape chains plus links
        # around the ring), but the ring-split subfunction is connected
        # with an acyclic extended graph, so Duato's theorem proves the
        # config deadlock-free -- the genuine case a single-graph cycle
        # search gets wrong.
        config = _wormhole("torus", (4,), routing="adaptive", vcs=3)
        topo = config_topology(config)
        escape = build_cdg(
            topo, make_routing("adaptive", topo, 3), assume_classes=1
        )
        assert find_cycle(escape)
        smt = verify_config(config, assume_classes=1, engine="native")
        assert smt.deadlock_free and smt.conclusive
        assert smt.method == "subrelation"
        assert smt.subfunction == "ring-split-dor"
        assert check_certificate(smt.certificate).ok

    def test_extended_escape_graph_matches_analyzer(self):
        # Coherence: the escape subfunction's graph is the analyzer's
        # extended escape CDG edge for edge.
        for topology, vcs in (("mesh", 3), ("torus", 3)):
            config = _wormhole(topology, (4, 4), routing="adaptive", vcs=vcs)
            topo = config_topology(config)
            routing = make_routing("adaptive", topo, vcs)
            assert isinstance(routing, AdaptiveRouting)
            sub = EscapeSubfunction(routing, routing.num_classes)
            ours, connected = build_dependency_graph(routing, sub)
            assert connected
            theirs = build_cdg(topo, routing)
            assert {
                k: set(v) for k, v in ours.items()
            } == {k: set(v) for k, v in theirs.items()}

    def test_escape_subfunction_is_connected(self):
        config = _wormhole("torus", (4, 4), routing="adaptive", vcs=3)
        topo = config_topology(config)
        routing = make_routing("adaptive", topo, 3)
        sub = EscapeSubfunction(routing, routing.num_classes)
        assert build_dependency_graph(routing, sub)[1]

    @pytest.mark.parametrize("topology,dims,assume,channels,deps,sha", [
        ("mesh", (4, 4), None, 96, 344,
         "ea2cfd1d671a3308a326d94979a4bc77340c1d99b4366e076bfc88eb923ed974"),
        ("torus", (4, 4), None, 144, 660,
         "cdf6c901b215fcca0bd67d228e135e84c7c707207ee1455af8c15e38c379fe78"),
        ("torus", (4,), 1, 16, 24,
         "0fc08babf3f9c0f4584a9b8a3b4772fdd2fe640dfe082080c60ede2cd75a8b0f"),
    ])
    def test_union_graph_pinned(
        self, topology, dims, assume, channels, deps, sha
    ):
        # No committed certificate fingerprints the union graph, so pin
        # it here: any change to the walk or the union subfunction shows.
        topo = config_topology(_wormhole(topology, dims, "adaptive", 3))
        routing = make_routing("adaptive", topo, 3)
        assert graph_fingerprint(
            build_union_cdg(routing, assume_classes=assume)
        ) == {"channels": channels, "deps": deps, "sha256": sha}

    def test_refuted_adaptive_certificate_replays(self):
        # A family-relative rejection certifies its witness cycle in the
        # graph the cycle lives in (the escape graph here), so replay
        # rebuilds that graph and finds every claimed dependency.
        config = _wormhole("torus", (6,), routing="adaptive", vcs=3)
        smt = verify_config(config, assume_classes=1, engine="native")
        assert smt.method == "refuted" and not smt.conclusive
        cert = smt.certificate
        assert cert["subfunction"] == "escape-dor"
        routing = make_routing("adaptive", config_topology(config), 3)
        sub = EscapeSubfunction(routing, 1)
        edges = build_dependency_graph(routing, sub)[0]
        assert cert["graph"] == graph_fingerprint(edges)
        check = check_certificate(cert)
        assert check.ok, check.errors


class TestCertificates:
    def test_roundtrip_via_file(self, tmp_path):
        config = _wormhole("mesh", (4, 4))
        smt = verify_config(config, engine="native")
        path = dump_certificate(
            smt.certificate, tmp_path / f"{certificate_slug(config)}.json"
        )
        cert = load_certificate(path)
        assert cert == smt.certificate
        assert check_certificate(cert).ok

    def test_tampered_rank_rejected(self):
        smt = verify_config(_wormhole("mesh", (4, 4)), engine="native")
        cert = copy.deepcopy(smt.certificate)
        key = next(iter(cert["ranks"]))
        cert["ranks"][key] += 1000
        check = check_certificate(cert)
        assert not check.ok
        assert any("!<" in e for e in check.errors)

    def test_tampered_graph_hash_rejected(self):
        smt = verify_config(_wormhole("mesh", (4, 4)), engine="native")
        cert = copy.deepcopy(smt.certificate)
        cert["graph"]["sha256"] = "0" * 64
        check = check_certificate(cert)
        assert not check.ok
        assert any("drift" in e for e in check.errors)

    def test_tampered_cycle_rejected(self):
        smt = verify_config(
            _wormhole("torus", (4, 4)), assume_classes=1, engine="native"
        )
        cert = copy.deepcopy(smt.certificate)
        cert["cycle"] = cert["cycle"][:-1]  # no longer a closed chain
        check = check_certificate(cert)
        assert not check.ok

    @pytest.mark.parametrize("name,labels", [
        ("mesh-4x4-wormhole-dor-vcs2", {"method": "refuted"}),
        ("torus-4x4-wormhole-adaptive-vcs3",
         {"method": "subrelation", "conclusive": False}),
        ("torus-4x4-wormhole-dor-vcs2", {"conclusive": False}),
        ("mesh-4x4-wormhole-adaptive-vcs3", {"conclusive": 1}),
    ])
    def test_relabelled_certificate_rejected(self, name, labels):
        # The labels must match what the replay proves: same ranks, same
        # graph, a wrong method or conclusive flag fails the check.
        cert = load_certificate(CERT_DIR / f"{name}.json")
        assert check_certificate(cert).ok
        cert.update(labels)
        check = check_certificate(cert)
        assert not check.ok
        assert any("does not match the replayed verdict" in e
                   for e in check.errors), check.errors

    def test_refuted_labels_checked_too(self):
        # A conclusive label on a family-relative adaptive refutation
        # claims more than the replay shows.
        cert = verify_config(
            _wormhole("torus", (6,), routing="adaptive", vcs=3),
            assume_classes=1,
        ).certificate
        assert check_certificate(cert).ok
        check = check_certificate(dict(cert, conclusive=True))
        assert not check.ok

    @pytest.mark.parametrize("value", ["true", 1, None])
    def test_non_boolean_verdict_rejected(self, value):
        cert = load_certificate(CERT_DIR / "mesh-4x4-wormhole-dor-vcs2.json")
        check = check_certificate(dict(cert, deadlock_free=value))
        assert not check.ok
        assert check.errors == ["deadlock_free must be a boolean"]

    def test_unknown_format_rejected(self):
        assert not check_certificate({"format": "bogus/9"}).ok

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_certificate_rejected(self, case):
        # Certificates are outside input: malformed ones fail the check
        # with an error instead of raising.
        check = check_certificate(_malformed(case))
        assert not check.ok
        assert check.errors

    def test_batch_goes_on_past_malformed_files(self, tmp_path, capsys):
        from repro.cli import main

        for case in MALFORMED:
            (tmp_path / f"{case}.json").write_text(
                json.dumps(_malformed(case)), encoding="utf-8"
            )
        good = verify_config(_wormhole("mesh", (4, 4)), engine="native")
        dump_certificate(good.certificate, tmp_path / "zz-good.json")
        results = check_certificate_files(sorted(tmp_path.glob("*.json")))
        assert [c.ok for _, c in results] == [False] * len(MALFORMED) + [True]
        code = main(["verify-cdg", "--check-certificates", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert f"1/{len(MALFORMED) + 1} certificates replayed" in out

    def test_batch_file_check(self, tmp_path):
        good = verify_config(_wormhole("mesh", (4, 4)), engine="native")
        dump_certificate(good.certificate, tmp_path / "good.json")
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        results = dict(
            (p.name, c) for p, c in check_certificate_files(
                sorted(tmp_path.glob("*.json"))
            )
        )
        assert not results["bad.json"].ok
        assert results["good.json"].ok

    def test_committed_certificates_replay(self):
        # The repo ships one certificate per shipped config; all must
        # replay clean against the current code, without a solver.
        paths = sorted(CERT_DIR.glob("*.json"))
        assert len(paths) >= 11, "missing committed certificates"
        for path, check in check_certificate_files(paths):
            assert check.ok, (path.name, check.errors)

    def test_certificate_is_json_serialisable(self):
        smt = verify_config(
            _wormhole("torus", (4,), routing="adaptive", vcs=3),
            assume_classes=1, engine="native",
        )
        blob = json.dumps(smt.certificate)
        assert check_certificate(json.loads(blob)).ok


class TestEngineSelection:
    def test_adaptive_assume_classes_above_pinned_rejected(self):
        # The exact backend validates the class override like the search
        # does, instead of certifying a graph with invented classes.
        config = _wormhole("mesh", (4, 4), routing="adaptive", vcs=3)
        with pytest.raises(ConfigError, match="pins"):
            verify_config(config, assume_classes=7, engine="native")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown SMT engine"):
            verify_config(_wormhole("mesh", (4, 4)), engine="cvc5")

    @pytest.mark.skipif(have_z3(), reason="only meaningful without z3")
    def test_z3_engine_degrades_with_clear_error(self):
        with pytest.raises(ConfigError, match="z3-solver is not installed"):
            verify_config(_wormhole("mesh", (4, 4)), engine="z3")

    def test_default_engine_is_native(self):
        # Certificates must not depend on whether z3 happens to be
        # installed: the default engine is the native one either way.
        smt = verify_config(_wormhole("mesh", (4, 4)))
        assert smt.engine == "native"
        assert smt.certificate["engine"] == "native"
        assert smt.deadlock_free


class TestRejectionSeeding:
    def test_specs_are_replayable_jobspecs(self, tmp_path):
        from repro.orchestrate.spec import JobSpec
        from repro.verify.smt import dump_rejection_specs

        config = _wormhole("torus", (2, 2), vcs=1)
        specs = rejection_jobspecs(config)
        assert len(specs) == 3
        assert len({s.config.seed for s in specs}) == 3
        for spec in specs:
            assert spec.deadlock_check_interval > 0
            assert spec.invariants_every > 0
            # round-trips through the fuzzer's replay format
            assert JobSpec.from_dict(spec.to_dict()) == spec
        paths = dump_rejection_specs(config, tmp_path)
        assert len(paths) == 3
        loaded = [
            JobSpec.from_dict(json.loads(p.read_text(encoding="utf-8")))
            for p in paths
        ]
        assert sorted(s.key() for s in loaded) == sorted(
            s.key() for s in specs
        )
