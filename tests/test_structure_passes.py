"""Single-pass structural quantities against their brute-force references.

Source elimination and strongly connected components are each computed by
one linear pass and cached on the graph; the Wold remainder is decided by
one backward trace per component of H.  Each is compared here with a
slower, more literal computation from ``oracles``, as are the set-level
``validate_atomic`` and the split of H read off predecessor links.
"""

import cmath
import functools
import os
import subprocess
import sys

import corpus
import oracles
import pytest
import semigroupoid_kit
from semigroupoid_kit import (
    AtomDecomposition,
    CycleFound,
    CycleType,
    DirectSum,
    DomainError,
    ExplicitAtomic,
    Graph,
    LeftRegular,
    LabeledH,
    LeftRegularAtom,
    NonTotalPresentation,
    Path,
    Phase,
    RootFound,
    TailType,
    are_unitarily_equivalent,
    build_H,
    classify,
    cycle_graph,
    cycle_structure_multiplicities,
    cycle_vertices,
    cyclic_canonical_form,
    decompose_cycle,
    gauge_transform,
    has_ses,
    is_primitive,
    looped_triangle,
    orbit_condition_M,
    primitive_root,
    relabel,
    scc_of,
    source_elimination,
    strongly_connected_components,
    trace_backward,
    validate_atomic,
    validate_canonical,
    wold_atomic,
)
from semigroupoid_kit import atomic, paths
from semigroupoid_kit.serialize import dump_json, explicit_atomic_to_json


def chain_graph(n):
    return Graph.build(
        [f"c{i}" for i in range(n)], [(f"s{i}", f"c{i}", f"c{i + 1}") for i in range(n - 1)]
    )


def sample_graphs(rng, count=60):
    graphs = [Graph((), ()), chain_graph(1), chain_graph(7), cycle_graph(4)]
    graphs += [looped_triangle(), corpus.loop_sink_graph()]
    for k in range(count):
        graphs.append(corpus.random_graph(rng, max_v=7, max_e=11, acyclic=k % 2 == 0))
    return graphs


def test_kahn_elimination_matches_rebuild_per_layer(rng):
    for g in sample_graphs(rng):
        core, layers, exhausted = source_elimination(g)
        want_core, want_layers, want_exhausted = oracles.source_elimination(g)
        assert layers == want_layers
        assert core.to_json_dict() == want_core.to_json_dict()
        assert exhausted == want_exhausted == has_ses(g) == oracles.is_acyclic(g)


def test_elimination_is_computed_once_and_shared(rng):
    for g in sample_graphs(rng, count=20):
        assert "_elimination" not in vars(g) and "_sccs" not in vars(g)
        want_core, want_layers, want_exhausted = oracles.source_elimination(g)
        assert has_ses(g) == want_exhausted
        assert "_sccs" not in vars(g)
        cached = vars(g)["_elimination"]
        core, layers, exhausted = source_elimination(g)
        assert core.to_json_dict() == want_core.to_json_dict()
        assert (layers, exhausted) == (want_layers, want_exhausted)
        layers.append(["stray"])
        for layer in layers[:-1]:
            layer.clear()
        again = source_elimination(g)
        assert again[0] is core and again[1:] == (want_layers, want_exhausted)
        assert vars(g)["_elimination"] is cached and "_sccs" not in vars(g)


def test_a_forest_core_is_one_empty_graph_made_with_no_pass(rng, monkeypatch):
    """On an acyclic graph the core is ``Graph((), ())``, made without
    restricting the graph: every call returns that one object, and fresh
    layer lists equal to the oracle's."""

    def refuse(g, keep):
        raise AssertionError("an empty core restricted the graph")

    monkeypatch.setattr(semigroupoid_kit.graph, "_restrict", refuse)
    for _ in range(20):
        g = corpus.random_graph(rng, max_v=8, max_e=10, acyclic=True)
        core, layers, exhausted = source_elimination(g)
        again = source_elimination(g)
        assert exhausted and core == Graph((), ()) and again[0] is core
        assert layers == again[1] == oracles.source_elimination(g)[1]
        assert layers is not again[1]
        assert not any(a is b for a, b in zip(layers, again[1]))
        assert all(type(layer) is list for layer in layers)


def test_sccs_are_computed_once_on_first_use(rng):
    for g in sample_graphs(rng, count=20):
        assert "_sccs" not in vars(g) and "_elimination" not in vars(g)
        comps = strongly_connected_components(g)
        assert [sorted(c) for c in comps] == oracles.sccs(g)
        cached = vars(g)["_sccs"]
        for v in g.vertices:
            assert sorted(scc_of(g, v)) == next(c for c in oracles.sccs(g) if v in c)
        assert strongly_connected_components(g) == comps
        assert vars(g)["_sccs"] is cached


def random_partial_family(rng, g, max_labels=3):
    """Structurally valid, possibly non-total data on any graph.

    Every edge maps a random subset of its source labels injectively into
    labels of its range that no other edge into that range has used, so H
    keeps in-degree at most one and may mix root and cycle components.
    """
    lam = {v: tuple(f"i{k}" for k in range(rng.randint(0, max_labels))) for v in g.vertices}
    pi = {}
    phases = {}
    for v in g.vertices:
        free = list(lam[v])
        rng.shuffle(free)
        for eid in g.in_edges(v):
            mapping = {}
            for i in lam[g.src(eid)]:
                if free and rng.random() < 0.8:
                    mapping[i] = free.pop()
                    if rng.random() < 0.5:
                        phases[(eid, i)] = corpus.random_phase(rng)
            pi[eid] = mapping
    return ExplicitAtomic(g, lam, pi, phases)


def test_wold_one_trace_per_component_matches_per_node_trace(rng):
    mixed = 0
    for k in range(80):
        g = corpus.random_graph(rng, max_v=5, max_e=8, acyclic=False)
        fam = random_partial_family(rng, g)
        h = build_H(fam)
        alpha = {}
        remainder = set()
        for node in h.nodes:
            if h.pred[node] is None:
                alpha[node[0]] = alpha.get(node[0], 0) + 1
            if isinstance(oracles.trace_backward(h, node), CycleFound):
                remainder.add(node)
        core = set(oracles.source_elimination(g)[0].vertices)
        got = wold_atomic(fam)
        assert got.alpha == alpha
        assert got.remainder_nodes == remainder
        assert got.supported_on_g0 == all(v in core for v, _ in remainder)
        mixed += bool(remainder) and bool(alpha)
    assert mixed, "no sample mixed root and cycle components"


def test_classify_and_wold_validate_once(rng, monkeypatch):
    # the verdict and the split of H share one scan, so counting that scan
    # counts both, on valid and invalid data alike
    scans = []
    original = atomic._scan
    monkeypatch.setattr(atomic, "_scan", lambda a: scans.append(a) or original(a))
    fam, _, _ = corpus.random_loop_sink_family(rng)
    g = fam.graph
    twin = gauge_transform(fam, corpus.random_gauge(rng, fam))
    classify(g, fam)
    assert len(scans) == 1
    wold_atomic(fam)
    assert len(scans) == 1
    assert are_unitarily_equivalent(g, fam, twin).equivalent
    assert len(scans) == 2
    orbit_condition_M(fam, Path("v", ("loop",)))
    assert len(scans) == 2 and scans[0] is fam and scans[1] is twin
    # invalid data is refused from its cached verdict, with no second scan
    bad_to = _broken_variants(rng, fam)[0]
    for query in (lambda: classify(g, bad_to), lambda: wold_atomic(bad_to)):
        with pytest.raises(DomainError):
            query()
    assert len(scans) == 3 and scans[2] is bad_to


def _broken_variants(rng, fam):
    """The family with one bad-to label, one overlapping range, one missing
    image and one label dropped from an index set, where the data allow."""
    variants = []
    arcs = [(eid, i) for eid in sorted(fam.pi) for i in sorted(fam.pi[eid])]
    if not arcs:
        return variants
    g = fam.graph

    def with_pi(eid, mapping):
        pi = {e: dict(m) for e, m in fam.pi.items()}
        pi[eid] = mapping
        return ExplicitAtomic(g, dict(fam.lam), pi, dict(fam.phases))

    eid, i = rng.choice(arcs)
    variants.append(with_pi(eid, {**fam.pi[eid], i: "nowhere"}))
    taken = sorted(
        j for fid in g.in_edges(g.dst(eid)) for j in fam.pi.get(fid, {}).values()
    )
    variants.append(with_pi(eid, {**fam.pi[eid], i: rng.choice(taken)}))
    variants.append(with_pi(eid, {k: j for k, j in fam.pi[eid].items() if k != i}))
    v = rng.choice(sorted(v for v, labels in fam.lam.items() if labels))
    lam = dict(fam.lam)
    lam[v] = lam[v][1:]
    variants.append(ExplicitAtomic(g, lam, fam.pi, fam.phases))
    return variants


def test_coisometry_findings_match_the_second_scan(rng):
    families = []
    for _ in range(30):
        g = corpus.random_graph(rng, max_v=6, max_e=9, acyclic=True)
        families.append(corpus.random_root_family(rng, g)[0])
        families.append(corpus.random_loop_sink_family(rng, rng.randint(1, 3))[0])
        families.append(corpus.random_cycle_family(rng)[1])
    families += [v for fam in list(families) for v in _broken_variants(rng, fam)]
    codes = set()
    for fam in families:
        report = validate_atomic(fam, require_total=False)
        codes.update(f.code for f in report.findings)
        ck, fully, ck_fail, f_fail = oracles.coisometry_flags(fam)
        found = {f.code: f.message for f in report.findings if f.severity == "info"}
        assert found["ck"] == (
            "CK identity holds at every finite receiver" if ck else f"CK fails at {ck_fail}"
        )
        assert found["fully-coisometric"] == (
            "family is fully coisometric" if fully else f"coisometry fails at {f_fail}"
        )
    assert {"bad-to", "overlapping-ranges", "non-total", "bad-from"} <= codes


def test_wold_alpha_lists_vertices_in_node_order(rng):
    for _ in range(40):
        g = corpus.random_graph(rng, max_v=6, max_e=9, acyclic=False)
        fam = random_partial_family(rng, g)
        h = build_H(fam)
        want = {}
        for node in h.nodes:
            if h.pred[node] is None:
                want[node[0]] = want.get(node[0], 0) + 1
        assert list(wold_atomic(fam).alpha.items()) == list(want.items())


def test_canonical_data_is_validated_once_per_call(fig1, monkeypatch):
    calls = []
    original = atomic.validate_canonical
    monkeypatch.setattr(
        atomic, "validate_canonical", lambda g, fam: calls.append(fam) or original(g, fam)
    )
    w = Path("t", ("loop_t",))
    parts = ((CycleType(w, Phase.one()), 2), (TailType(w), 1), (LeftRegular("l"), "omega"))
    fam = DirectSum(parts)
    for query in (
        lambda: classify(fig1, fam),
        lambda: wold_atomic(fam, fig1),
        lambda: orbit_condition_M(fam, w, fig1),
    ):
        calls.clear()
        query()
        # the sum once: one loop over its parts checks each of them
        assert calls == [fam]


def test_h_is_traced_once_per_family(rng, monkeypatch):
    # the split builds one H per family, over the sorted elimination core,
    # with the builder build_H uses, and never calls build_H itself
    calls, full = [], []
    original = atomic._labeled_h
    monkeypatch.setattr(
        atomic, "_labeled_h", lambda a, vs: calls.append((a, vs)) or original(a, vs)
    )
    monkeypatch.setattr(atomic, "build_H", lambda a: full.append(a))
    fam, _, _ = corpus.random_loop_sink_family(rng)
    g = fam.graph
    twin = gauge_transform(fam, corpus.random_gauge(rng, fam))
    classify(g, fam)
    wold_atomic(fam)
    assert are_unitarily_equivalent(g, fam, twin).equivalent
    core = sorted(oracles.source_elimination(g)[0].vertices)
    assert len(calls) == 2 and calls[0][0] is fam and calls[1][0] is twin
    assert [vs for _, vs in calls] == [core, core] and full == []
    bad_to = _broken_variants(rng, fam)[0]
    # a failed trace is not cached, so an invalid family raises every time
    for query in (lambda: classify(g, bad_to), lambda: wold_atomic(bad_to)):
        for _ in range(2):
            with pytest.raises(DomainError):
                query()
    # without its image under "out", i0 leaves j0 at the sink a second root
    pi = {e: dict(m) for e, m in fam.pi.items()}
    del pi["out"]["i0"]
    phases = {arc: ph for arc, ph in fam.phases.items() if arc != ("out", "i0")}
    partial = ExplicitAtomic(g, dict(fam.lam), pi, phases)
    with pytest.raises(NonTotalPresentation):
        classify(g, partial)
    data = wold_atomic(partial)
    assert data.alpha == {"w": 2}
    assert data.remainder_nodes == {("v", "i0"), ("v", "i1"), ("w", "j1")}
    # a tree above the cycle: a source u hangs the root r0 on the label h0 at
    # v, which the loop leaves without an image; the H of the split holds only
    # the nodes over the core {v, w}, and r0's arc into it reads as a root
    g = Graph.build(["u", "v", "w"], [("in", "u", "v"), *g.edges])
    lam = {"u": ("r0",), "v": (*fam.lam["v"], "h0"), "w": (*fam.lam["w"], "j9")}
    pi = {"in": {"r0": "h0"}, "loop": fam.pi["loop"], "out": {**fam.pi["out"], "h0": "j9"}}
    above = ExplicitAtomic(g, lam, pi, dict(fam.phases))
    want = oracles.split(above)
    calls.clear()
    assert above._split == want
    ((_, core),) = calls
    assert core == ["v", "w"] and "u" not in oracles.source_elimination(g)[0].vertices
    h = original(above, core)
    assert h.nodes == tuple(n for n in above.nodes() if n[0] != "u")
    assert h.pred[("v", "h0")].src == ("u", "r0") and ("u", "r0") not in h.pred
    data = wold_atomic(above)
    assert data.alpha == {"u": 1, "w": 1}
    assert data.remainder_nodes == {("v", "i0"), ("v", "i1"), ("w", "j0"), ("w", "j1")}
    assert full == []


def test_canonical_cycles_lie_in_the_elimination_core(rng):
    graphs = [looped_triangle(), corpus.loop_sink_graph(), cycle_graph(4)]
    graphs += [corpus.random_graph(rng, max_v=6, max_e=9) for _ in range(30)]
    cases = 0
    for g in graphs:
        core = set(oracles.source_elimination(g)[0].vertices)
        for v in g.sorted_vertices():
            for _, edges in oracles.walks_from(g, v, 4):
                w = Path(v, edges)
                if not edges or g.dst(edges[0]) != v or not is_primitive(g, w):
                    continue
                assert set(cycle_vertices(g, w)) <= core, (g, w)
                cycle, tail = CycleType(w, corpus.random_phase(rng)), TailType(w)
                mixed = DirectSum(((cycle, 2), (tail, 1), (LeftRegular(v), "omega")))
                for fam in (cycle, tail, mixed):
                    assert wold_atomic(fam, g).supported_on_g0 is True
                cases += 1
    assert cases > 100


def random_total_family(rng, g, cap=6):
    """Valid total data on any graph, or None when the index sets would
    have to grow past ``cap``.

    Starting from random sizes, each index set grows until it can take the
    images of all its in-edges' source labels, disjointly; a cycle with
    inflow never settles, and those draws are dropped.
    """
    size = {v: rng.randint(0, 2) for v in g.vertices}
    for _ in range(len(g.vertices) + 1):
        demand = {v: sum(size[g.src(eid)] for eid in g.in_edges(v)) for v in g.vertices}
        if all(demand[v] <= size[v] for v in g.vertices):
            break
        size = {v: max(size[v], demand[v]) for v in g.vertices}
    else:
        return None
    if max(size.values(), default=0) > cap:
        return None
    lam = {v: tuple(f"i{k}" for k in range(size[v])) for v in g.vertices}
    pi = {}
    for v in g.vertices:
        free = list(lam[v])
        rng.shuffle(free)
        for eid in g.in_edges(v):
            pi[eid] = {i: free.pop() for i in lam[g.src(eid)]}
    return ExplicitAtomic(g, lam, pi)


def test_no_root_of_a_valid_total_family_reaches_a_cycle(rng):
    # the lemma that lets classify skip a reach check per root
    families = []
    for _ in range(40):
        g = corpus.random_graph(rng, max_v=6, max_e=9, acyclic=True)
        families.append(corpus.random_root_family(rng, g)[0])
        families.append(corpus.random_loop_sink_family(rng, rng.randint(1, 3))[0])
        families.append(corpus.random_cycle_family(rng)[1])
    while len(families) < 400:
        g = corpus.random_graph(rng, max_v=6, max_e=9, acyclic=False)
        fam = random_total_family(rng, g)
        if fam is not None:
            families.append(fam)
    mixed = 0
    for fam in families:
        g = fam.graph
        assert validate_atomic(fam, require_total=True).valid
        roots, cycles, _ = fam._split
        reach = oracles.reaches_cycle(g)
        assert not any(reach[v] for v in roots)
        atoms = classify(g, fam).atoms
        left = {a.vertex: m for a, m in atoms if isinstance(a, LeftRegularAtom)}
        assert left == roots  # the root counts, one atom per vertex
        mixed += bool(roots) and any(reach.values())
    assert mixed >= 40  # roots beside cycles, not only acyclic hosts


# ---------------------------------------------------------------------------
# validate_atomic and the split of H against the arc-by-arc references


def _mutated(rng, fam, tag):
    """The family with one to four seeded faults, each of a kind that
    validate_atomic names; ``tag`` keeps the invented names apart."""
    g = fam.graph
    lam = dict(fam.lam)
    pi = {e: dict(m) for e, m in fam.pi.items()}
    phases = dict(fam.phases)
    edges = g.sorted_edge_ids()
    for k in range(rng.randint(1, 4)):
        fault = rng.choice(
            ["vertex", "repeat", "pi-edge", "phase-edge", "from", "to", "collide", "stray", "drop"]
        )
        name = f"{tag}x{k}"
        if fault == "vertex" or not edges:
            lam[f"ghost{name}"] = (f"g{k}",)
        elif fault == "repeat":
            v = rng.choice(g.sorted_vertices())
            lam[v] = lam.get(v, ()) + (lam.get(v) or (name,))[:1] * 2
        elif fault == "pi-edge":
            pi[f"ghost{name}"] = {"a": "b", "c": "d"}
            phases[(f"ghost{name}", "a")] = corpus.random_phase(rng)
        elif fault == "phase-edge":
            phases[(f"ghost{name}", "a")] = corpus.random_phase(rng)
        else:
            eid = rng.choice(edges)
            mapping = pi.setdefault(eid, {})
            if fault == "from":
                mapping[name] = rng.choice(list(fam.labels(g.dst(eid))) or [name])
            elif fault == "to":
                for i in sorted(mapping)[: rng.randint(1, 3)]:
                    mapping[i] = f"{name}{i}"
            elif fault == "collide":
                # two arcs onto one label: the same edge twice, or a second edge
                taken = sorted(j for f in g.in_edges(g.dst(eid)) for j in pi.get(f, {}).values())
                sources = list(fam.labels(g.src(eid))) + [name]
                if taken:
                    mapping[rng.choice(sources)] = rng.choice(taken)
            elif fault == "stray":
                phases[(eid, rng.choice(sorted(mapping) + [name]) + "?")] = corpus.random_phase(rng)
            elif mapping:
                del mapping[rng.choice(sorted(mapping))]
    return ExplicitAtomic(g, lam, pi, phases)


def _valid_families(rng, count=25):
    """Total families of every corpus shape, and structurally valid partial
    ones on random graphs with cycles; each second one relabeled, so that
    its index sets are not listed in sorted order."""
    families = []
    for _ in range(count):
        g = corpus.random_graph(rng, max_v=6, max_e=9, acyclic=True)
        families.append(corpus.random_root_family(rng, g)[0])
        families.append(corpus.random_loop_sink_family(rng, rng.randint(1, 3))[0])
        families.append(corpus.random_cycle_family(rng)[1])
        g = corpus.random_graph(rng, max_v=6, max_e=9, acyclic=False)
        families.append(random_partial_family(rng, g))
        fam = random_total_family(rng, g)
        if fam is not None:
            families.append(fam)
    return [
        relabel(fam, corpus.random_relabeling(rng, fam)) if n % 2 else fam
        for n, fam in enumerate(families)
    ]


def test_validate_atomic_matches_the_arc_walk(rng):
    valid = _valid_families(rng)
    families = valid + [v for fam in valid for v in _broken_variants(rng, fam)]
    families += [_mutated(rng, fam, n) for n, fam in enumerate(valid * 3)]
    seen = set()
    most = 0
    for fam in families:
        for total in (True, False):
            report = validate_atomic(fam, require_total=total)
            # whole findings in order: code, message, where and severity
            assert report.findings == oracles.validate_atomic(fam, require_total=total).findings
        for f in report.findings:
            seen.add(f.code)
            if f.code == "unknown-edge":
                seen.add(f"unknown-edge in {f.message.split()[0]}")
        most = max(most, len(report.errors))
    assert seen >= {
        "unknown-vertex", "duplicate-label", "unknown-edge in pi", "unknown-edge in phase",
        "bad-from", "bad-to", "not-injective", "overlapping-ranges", "phase-without-arc",
        "non-total", "ck", "fully-coisometric",
    }
    assert most >= 5  # some reports carry many findings, so their order is tested


def test_split_and_h_components_match_union_find(rng):
    shapes = set()
    for fam in _valid_families(rng, count=40):
        want = oracles.split(fam)
        assert fam._split == want
        h = build_H(fam)
        assert h.components() == oracles.h_components(h)
        shapes.add((bool(want[0]), bool(want[1]), validate_atomic(fam).valid))
        # invalid data raises on every query, with or without a cycle in H
        for bad in _broken_variants(rng, fam)[:1]:  # a bad-to label
            for _ in range(2):
                with pytest.raises(DomainError):
                    wold_atomic(bad)
    # roots alone, cycles alone and both, in total and in partial data
    assert {(True, False, True), (False, True, True), (True, True, True)} <= shapes
    assert {(True, True, False)} <= shapes


def test_trace_backward_matches_the_seen_dict_walk(rng):
    """``trace_backward`` is the walk of ``_h_components`` from one node; on
    every node of valid, partial and broken families, and of pure cycles of
    up to 6 vertices and 3 laps, it finds what the oracle's own walk finds."""
    families = _valid_families(rng, count=15)
    broken = [bad for fam in families for bad in _broken_variants(rng, fam)]
    pure = [
        semigroupoid_kit.pure_cycle_family(cycle_graph(n), laps)
        for n in range(1, 7) for laps in range(1, 4)
    ]
    found = set()
    for kind, group in (("valid", families), ("broken", broken), ("pure", pure)):
        for fam in group:
            if not validate_atomic(fam, require_total=False).valid:
                continue  # structurally invalid: build_H refuses it
            h = build_H(fam)
            for node in h.nodes:
                got = trace_backward(h, node)
                assert got == oracles.trace_backward(h, node)
                found.add((kind, type(got)))
    assert {("valid", RootFound), ("valid", CycleFound), ("broken", RootFound)} <= found
    assert ("pure", CycleFound) in found


def test_trace_backward_on_a_core_h_stops_at_its_first_node_off_the_core(rng):
    """Over the elimination core, as the split builds H, a chain that
    leaves the core ends at the first node off it, as a root: the oracle
    walk on that H with those nodes made roots.  Cycles stay in the core."""
    g = Graph.build(["s", "v"], [("e", "s", "v"), ("loop", "v", "v")])
    fam = ExplicitAtomic(g, {"s": ("a",), "v": ("x", "y")}, {"e": {"a": "x"}, "loop": {"x": "y"}})
    core = atomic._labeled_h(fam, sorted(g._elimination[0]))
    assert core.nodes == (("v", "x"), ("v", "y"))
    for node in core.nodes:  # the chain's root, (s, a), lies off the core
        assert trace_backward(core, node) == oracles.trace_backward(build_H(fam), node)
    assert trace_backward(core, ("v", "y")) == RootFound(("s", "a"), Path("s", ("loop", "e")))
    off = cyclic = 0
    for _ in range(80):
        g = corpus.random_graph(rng, max_v=5, max_e=8, acyclic=False)
        fam = random_partial_family(rng, g)
        inner = g._elimination[0]
        core = atomic._labeled_h(fam, sorted(inner))
        closed = LabeledH(core.nodes, core.arcs, {**{a.src: None for a in core.arcs}, **core.pred})
        for node in core.nodes:
            got = trace_backward(core, node)
            assert got == oracles.trace_backward(closed, node)
            off += isinstance(got, RootFound) and got.root[0] not in inner
            cyclic += isinstance(got, CycleFound)
    assert off and cyclic


def _answer(call):
    try:
        return call()
    except DomainError as exc:
        return type(exc).__name__, str(exc), exc.details


def test_explicit_queries_call_no_trace_backward(rng, monkeypatch):
    """The split reads its cycle traces off its one walk of H: with
    ``trace_backward`` made to raise, the queries answer as before."""
    families = _valid_families(rng, count=10)
    twins = [gauge_transform(fam, corpus.random_gauge(rng, fam)) for fam in families]

    def answers():
        return [
            (_answer(lambda: classify(fam.graph, fam)), _answer(lambda: wold_atomic(fam)),
             _answer(lambda: are_unitarily_equivalent(fam.graph, fam, twin)))
            for fam, twin in zip(families, twins)
        ]

    want = answers()

    def refuse(h, node):
        raise AssertionError("trace_backward called")

    monkeypatch.setattr(atomic, "trace_backward", refuse)
    families = [ExplicitAtomic(f.graph, f.lam, f.pi, f.phases) for f in families]  # no caches
    twins = [ExplicitAtomic(f.graph, f.lam, f.pi, f.phases) for f in twins]
    assert answers() == want
    assert any(fam._split[1] for fam in families)


def test_a_canonical_sum_names_its_first_fault(fig1):
    """One loop reads a sum's parts in order, each before its multiplicity,
    and refuses a nested sum where it stands."""
    one, loop_t = Phase.one(), Path("t", ("loop_t",))
    nested = DirectSum(((LeftRegular("zz"), 1),))
    not_primitive = TailType(Path("t", ("loop_t",) * 2))
    nest = ("DomainError", "direct sums do not nest; flatten the parts", {})
    unknown = ("DomainError", "unknown vertex", {"vertex": "zz"})

    def bad_mult(got):
        return ("DomainError", "multiplicity must be a positive integer or omega", {"got": got})

    cases = [
        (((LeftRegular("t"), 1), (nested, 1)), nest),
        (((nested, 0),), nest),
        (((LeftRegular("t"), 2), ("t", 1)), ("DomainError", "unknown canonical family", {"got": "str"})),
        (((CycleType(loop_t, one), "x"),), bad_mult("x")),
        (((LeftRegular("t"), -1),), bad_mult(-1)),
        (((LeftRegular("t"), 2.0),), bad_mult(2.0)),
        (((LeftRegular("zz"), 0),), unknown),
        (((LeftRegular("t"), 0), (LeftRegular("zz"), 1)), bad_mult(0)),
        (((not_primitive, 1), (LeftRegular("zz"), 1)),
         ("DomainError", "tail cycle must be primitive; pass its primitive root",
          {"cycle": ["loop_t", "loop_t"]})),
        (((LeftRegular("zz"), 1), (not_primitive, 1)), unknown),
        (((LeftRegular("zz"), 1), (nested, 1)), unknown),
        (((CycleType(Path("t", ("tl1",)), one), 1), (LeftRegular("zz"), 1)),
         ("NotACycle", "cycle-type family needs a cycle of positive length", {})),
    ]
    for parts, want in cases:
        fam = DirectSum(parts)
        for query in (
            lambda: validate_canonical(fig1, fam),
            lambda: classify(fig1, fam),
            lambda: wold_atomic(fam, fig1),
            lambda: orbit_condition_M(fam, loop_t, fig1),
        ):
            assert _error(query) == want


def test_cycle_phase_products_match_the_ordered_product(rng):
    # exact turns are summed per denominator; one approximate phase keeps
    # the ordered product, to the bit
    for _ in range(200):
        phases = [
            Phase.from_turns(rng.randint(-30, 30), rng.randint(1, 12))
            for _ in range(rng.randint(1, 200))
        ]
        want = functools.reduce(Phase.__mul__, phases, Phase.one())
        assert atomic._phase_product(phases) == want
        at = rng.randrange(len(phases))
        phases[at] = Phase.from_complex(cmath.exp(1j * rng.uniform(-4, 4)))
        want = functools.reduce(Phase.__mul__, phases, Phase.one()).approx
        got = atomic._phase_product(phases).approx
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def _scan_faults(fam):
    """Loop-sink data with one fault each that the label scan must name:
    an unknown vertex (labelled or not, or listing a label twice), an
    unknown edge (mapped or not), stray phases (one on an unknown edge that
    pi also names), arcs into unlabelled vertices, an empty map from a
    labelled source, and a duplicate label."""
    g, lam, pi, phases = fam.graph, fam.lam, fam.pi, fam.phases

    def variant(lam=lam, pi=pi, phases=phases):
        return ExplicitAtomic(g, dict(lam), {e: dict(m) for e, m in pi.items()}, dict(phases))

    return [
        variant(lam={**lam, "ghost": ("z",)}),
        variant(lam={**lam, "ghost": ()}),
        variant(lam={**lam, "ghost": ("z", "z")}),
        variant(pi={**pi, "ghost": {"i0": "j0"}}),
        variant(pi={**pi, "ghost": {}}),  # no arc, so only the edge check sees it
        variant(phases={**phases, ("loop", "nope"): Phase.one()}),
        variant(phases={**phases, ("ghost", "i0"): Phase.one()}),
        # the phase sits on an arc of pi, but its edge is unknown
        variant(pi={**pi, "ghost": {"i0": "j0"}}, phases={**phases, ("ghost", "i0"): Phase.one()}),
        variant(lam={"v": lam["v"]}),  # the exit arcs land at an unlabelled sink
        variant(lam={"v": lam["v"], "w": ()}),
        # the loop's arcs run between unlabelled nodes; no labelled source owes them
        variant(lam={"w": lam["w"]}, pi={"loop": pi["loop"], "out": {}}, phases={}),
        variant(pi={**pi, "out": {}}),
        variant(lam={**lam, "w": lam["w"] + lam["w"][:1]}),
    ]


def test_label_scan_matches_the_node_pass_and_the_oracles(rng):
    families, sinks = [], []
    for _ in range(15):
        g = corpus.random_graph(rng, max_v=6, max_e=9, acyclic=True)
        families.append(corpus.random_root_family(rng, g)[0])
        sinks.append(corpus.random_loop_sink_family(rng, rng.randint(1, 3))[0])
        families.append(corpus.random_cycle_family(rng)[1])
        g = corpus.random_graph(rng, max_v=6, max_e=9, acyclic=False)
        families.append(random_partial_family(rng, g))
    families += sinks
    families += [v for fam in list(families) for v in _broken_variants(rng, fam)]
    families += [v for fam in sinks for v in _scan_faults(fam)]
    accepted = refused = 0
    for fam in families:
        for total in (True, False):
            want = oracles.validate_atomic(fam, require_total=total).findings
            assert validate_atomic(fam, require_total=total).findings == want
        named = oracles.validate_atomic(fam, require_total=False).findings
        faulty = any(f.severity == "error" or f.code == "non-total" for f in named)
        _, faults, owing = atomic._scan(fam)
        assert bool(faults or owing) == faulty
        accepted += not faulty
        refused += faulty
        if oracles.validate_atomic(fam, require_total=False).valid:
            assert fam._split == oracles.split(fam)
        else:
            with pytest.raises(DomainError):
                fam._split
    assert accepted >= 40 and refused >= 200


def fed_core_graph(rng, into_cycle):
    """A cycle with a sink chain w0 -> w1 downstream of it, and source
    vertices s0, s1 off the elimination core whose edges run into the cycle
    (``into_cycle``) or into the sinks only; only the latter admit total
    data."""
    n = rng.randint(1, 4)
    cyc = [f"c{k}" for k in range(n)]
    triples = [(f"r{k}", cyc[k], cyc[(k + 1) % n]) for k in range(n)]
    triples += [("x0", rng.choice(cyc), "w0"), ("x1", "w0", "w1")]
    targets = cyc if into_cycle else ["w0", "w1"]
    triples += [(f"f{k}", f"s{k % 2}", rng.choice(targets)) for k in range(3)]
    return Graph.build(cyc + ["s0", "s1", "w0", "w1"], triples)


def _oracle_atoms(fam):
    roots, cycles, _ = oracles.split(fam)
    atoms = [(LeftRegularAtom(v), n) for v, n in roots.items()]
    for found in cycles:
        atoms += decompose_cycle(fam.graph, found.cycle, found.phase)
    return AtomDecomposition(atoms).atoms


def _split_lemma_families(rng):
    """(shape, family) pairs: acyclic hosts, pure cycles, and roots off the
    core that feed nodes over it, each in total and partial data."""
    out = []
    for k in range(30):
        g = chain_graph(rng.randint(1, 9)) if k % 3 == 0 else corpus.random_graph(
            rng, max_v=8, max_e=10, acyclic=True
        )
        out += [("acyclic", corpus.random_root_family(rng, g)[0])]
        out += [("acyclic", random_partial_family(rng, g))]
        cyc = corpus.random_cycle_family(rng, laps=rng.randint(1, 3))[1]
        out += [("cycle", cyc)]
        # one arc dropped: the cycle of H opens into a chain with a root
        pi = {e: dict(m) for e, m in cyc.pi.items()}
        eid = rng.choice(sorted(pi))
        del pi[eid][rng.choice(sorted(pi[eid]))]
        out += [("cycle", ExplicitAtomic(cyc.graph, dict(cyc.lam), pi))]
        for into_cycle in (True, False):
            g = fed_core_graph(rng, into_cycle)
            out += [("fed", random_partial_family(rng, g))]
            fam = random_total_family(rng, g)
            if fam is not None:
                out += [("fed", fam)]
    return out


def test_split_lemma_cases_match_union_find(rng):
    seen = set()
    for n, (shape, fam) in enumerate(_split_lemma_families(rng)):
        g = fam.graph
        total = validate_atomic(fam).valid
        if n % 2:  # the report first, so that the split reads the kept scan
            got = validate_atomic(fam, require_total=False)
            assert got.findings == oracles.validate_atomic(fam, False).findings
        got = fam._split  # otherwise the split's pass gives the report its scan
        want = oracles.split(fam)
        assert got == want
        assert wold_atomic(fam).remainder_nodes == want[2]
        if total:
            assert classify(g, fam).atoms == _oracle_atoms(fam)
        else:
            with pytest.raises(NonTotalPresentation):
                classify(g, fam)
        got = validate_atomic(fam, require_total=False)
        assert got.findings == oracles.validate_atomic(fam, False).findings
        core = set(oracles.source_elimination(g)[0].vertices)
        h = build_H(fam)
        # a root off the core whose component holds nodes over the core
        fed = any(
            h.pred[node] is None and node[0] not in core and any(v in core for v, _ in comp)
            for comp in oracles.h_components(h)
            for node in comp
        )
        seen.add((shape, total, fed))
    assert {("acyclic", True, False), ("acyclic", False, False)} <= seen
    assert {("cycle", True, False), ("cycle", False, False)} <= seen
    assert {("fed", True, True), ("fed", False, True)} <= seen


def test_families_cache_only_the_verdict_and_the_split(rng):
    # a per-node link map or node set kept on each family would raise the
    # peak memory of every structure query, and so would a kept report: on
    # valid total data the survey kept beside the split is the scan's
    # counts, no faults and no owing edges
    fields = {"graph", "lam", "pi", "phases", "_survey"}
    for _ in range(10):
        g = corpus.random_graph(rng, max_v=8, max_e=10, acyclic=True)
        families = [
            corpus.random_root_family(rng, g)[0],
            corpus.random_loop_sink_family(rng, rng.randint(1, 3))[0],
            corpus.random_cycle_family(rng)[1],
        ]
        for fam in families:
            twin = gauge_transform(fam, corpus.random_gauge(rng, fam))
            classify(fam.graph, fam)
            wold_atomic(fam)
            assert are_unitarily_equivalent(fam.graph, fam, twin).equivalent
            for a in (fam, twin):
                assert set(vars(a)) == fields | {"_split"}
                free, faults, owing = a._survey
                assert faults == [] and owing == []
                assert all(type(v) is str and type(n) is int and n > 0 for v, n in free.items())
                assert len(free) <= len(a.graph.vertices)
                roots, cycles, cycle_nodes = a._split
                assert all(type(v) is str for v in roots)
                assert len(roots) + len(cycle_nodes) <= a.dim()


def test_the_verdict_and_the_split_share_one_survey(rng, monkeypatch):
    """Whichever of the report and the split is read first, a family makes
    one scan, on valid total, valid partial and invalid data alike, and
    keeps only the scan and the split."""
    from semigroupoid_kit import atomic

    calls = []
    real = atomic._scan
    monkeypatch.setattr(atomic, "_scan", lambda a: calls.append("_scan") or real(a))
    seen = set()
    for _ in range(10):
        g = corpus.random_graph(rng, max_v=8, max_e=10, acyclic=True)
        total = corpus.random_root_family(rng, g)[0]
        partial = random_partial_family(rng, g)
        broken = ExplicitAtomic(g, {**total.lam, "ghost": ("z",)}, total.pi)
        for fam, shape in ((total, "total"), (partial, "partial"), (broken, "invalid")):
            want = oracles.validate_atomic(fam, require_total=False)
            if shape == "partial" and want.valid == validate_atomic(fam).valid:
                continue  # the random data came out total
            seen.add(shape)
            for verdict_first in (True, False):
                twin = ExplicitAtomic(fam.graph, fam.lam, fam.pi, fam.phases)
                calls.clear()
                reads = ["report", "_split"] if verdict_first else ["_split", "report"]
                for read in reads:
                    if read == "_split" and not want.valid:
                        with pytest.raises(DomainError):
                            twin._split
                    elif read == "_split":
                        assert twin._split == oracles.split(twin)
                    else:
                        got = validate_atomic(twin, require_total=False)
                        assert got.findings == want.findings
                assert calls == ["_scan"], (shape, reads)
                cached = {"_survey", "_split"} if want.valid else {"_survey"}
                assert set(vars(twin)) - {"graph", "lam", "pi", "phases"} == cached
    assert seen == {"total", "partial", "invalid"}


def _refusal(fam, require_total):
    """What a query on ``fam`` raises, read off the oracle's report: its
    structural errors, else, where totality is asked, its non-total finding."""
    report = oracles.validate_atomic(fam, require_total=False)
    if not report.valid:
        findings = [f.message for f in report.errors]
        return "DomainError", "explicit atomic data is structurally invalid", {"findings": findings}
    missing = [f.message for f in report.findings if f.code == "non-total"]
    if require_total and missing:
        message = "pi is not total; finite explicit data cannot present this family"
        return "NonTotalPresentation", message, {"findings": missing}
    return None


def test_explicit_queries_build_no_report(rng, monkeypatch):
    """Queries raise from the family's kept scan: with ``ValidationReport``
    made to raise in ``atomic``, every answer, and every refusal's class,
    message and findings, is the same, and each refusal is the one the
    oracle's report implies, on valid, partial and broken data."""
    valid = _valid_families(rng, count=6)
    sinks = [corpus.random_loop_sink_family(rng, rng.randint(1, 3))[0] for _ in range(4)]
    broken = [v for fam in valid + sinks for v in _broken_variants(rng, fam)]
    families = valid + sinks + broken + [v for fam in sinks for v in _scan_faults(fam)]
    mus = []  # a cycle of each host, for condition (M), where it has one
    for fam in families:
        found = [Path(v, c) for v in fam.graph.vertices for c in oracles.cycles_at(fam.graph, v, 3)]
        mus.append(found[0] if found else None)

    def queries(fam, mu):
        twin = ExplicitAtomic(fam.graph, fam.lam, fam.pi, fam.phases)
        calls = [lambda: classify(fam.graph, fam), lambda: wold_atomic(fam),
                 lambda: are_unitarily_equivalent(fam.graph, fam, twin), lambda: build_H(fam)]
        if mu is not None:
            calls.append(lambda: orbit_condition_M(fam, mu))
        return [_answer(call) for call in calls]

    want = [queries(fam, mu) for fam, mu in zip(families, mus)]
    refused = 0
    for fam, mu, got in zip(families, mus, want):
        total, partial = _refusal(fam, True), _refusal(fam, False)
        expected = [total, partial, total, partial, partial][:len(got)]
        for answer, refusal in zip(got, expected):
            if refusal is None:
                assert not isinstance(answer, tuple)
            else:
                assert answer == refusal
                refused += 1
        if total is None:
            assert got[0].atoms == _oracle_atoms(fam) and got[2].equivalent
        if partial is None:
            roots, _, remainder = oracles.split(fam)
            assert (got[1].alpha, got[1].remainder_nodes) == (roots, remainder)

    def refuse(*args, **kwargs):
        raise AssertionError("a query built a ValidationReport")

    monkeypatch.setattr(atomic, "ValidationReport", refuse)
    fresh = [ExplicitAtomic(f.graph, f.lam, f.pi, f.phases) for f in families]  # no caches
    assert [queries(fam, mu) for fam, mu in zip(fresh, mus)] == want
    assert refused >= 100 and sum(mu is not None for mu in mus) >= 20


def test_validate_output_does_not_depend_on_the_hash_seed(tmp_path):
    g = Graph.build(
        ["a", "b", "c"],
        [("ab", "a", "b"), ("cb", "c", "b"), ("bc", "b", "c"), ("ca", "c", "a")],
    )
    labels = tuple(f"k{n}" for n in range(8))
    fam = ExplicitAtomic(
        g,
        {"a": labels, "b": labels[:3], "c": labels[:4] + ("k0",), "ghost": ("z",)},
        {
            "ab": {i: f"far{i}" for i in labels},  # eight bad-to arcs
            "cb": {i: "k1" for i in labels[:4]},  # not injective, and overlapping
            "bc": {"k0": "k2", "k1": "k2", "zz": "k3"},
            "ghost_edge": {"p": "q"},
        },
        {("ab", "nope"): Phase.one(), ("ghost_edge", "p"): Phase.one(), ("ca", "k0"): Phase.one()},
    )
    path = tmp_path / "broken.json"
    path.write_text(dump_json(explicit_atomic_to_json(fam)))
    src = os.path.dirname(os.path.dirname(semigroupoid_kit.__file__))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for argv in (["atomic", "validate", str(path)], ["atomic", "classify", str(path)]):
            proc = subprocess.run(
                [sys.executable, "-m", "semigroupoid_kit.cli", *argv],
                capture_output=True, env=env, timeout=60,
            )
            outputs.append((proc.returncode, proc.stdout, proc.stderr))
    assert outputs[:2] == outputs[2:]
    (code, out, _), (bad_code, _, err) = outputs[:2]
    assert code == 0 and out.count(b'"error"') >= 15
    assert bad_code == 1 and b"structurally invalid" in err


# ---------------------------------------------------------------------------
# canonical data: each cycle validated once per query


def test_canonical_queries_validate_each_cycle_once(fig1, monkeypatch):
    calls = []
    original = paths.validate_path

    def counting(g, p):
        calls.append(p)
        return original(g, p)

    monkeypatch.setattr(paths, "validate_path", counting)
    monkeypatch.setattr(atomic, "validate_path", counting)
    loop_t = Path("t", ("loop_t",))
    fam = DirectSum(
        ((CycleType(loop_t, Phase.one()), 1), (TailType(loop_t), 1), (LeftRegular("t"), 1))
    )
    # one call per cycle of the family; condition (M) also checks mu
    for query, want in (
        (lambda: classify(fig1, fam), 2),
        (lambda: wold_atomic(fam, fig1), 2),
        (lambda: orbit_condition_M(fam, loop_t, fig1), 3),
    ):
        calls.clear()
        query()
        assert len(calls) == want
    # the public helpers still validate on every call
    for helper in (
        primitive_root,
        cyclic_canonical_form,
        cycle_vertices,
        cycle_structure_multiplicities,
        lambda g, w: decompose_cycle(g, w, Phase.one()),
    ):
        calls.clear()
        helper(fig1, loop_t)
        assert len(calls) == 1


def _error(call):
    try:
        call()
    except DomainError as exc:
        return type(exc).__name__, str(exc), exc.details
    raise AssertionError("no error raised")


def test_invalid_canonical_data_raises_as_before(fig1):
    one = Phase.one()
    loop_t = Path("t", ("loop_t",))
    base_error = ("PathError", "base disagrees with the first applied edge")
    cases = [
        (CycleType(Path("t", ("tl1", "rt")), one), base_error),
        (TailType(Path("l", ("tl1",))), base_error),
        (CycleType(Path("t", ("tl1",)), one),
         ("NotACycle", "cycle-type family needs a cycle of positive length")),
        (TailType(Path("t", ())), ("NotACycle", "tail family needs a cycle of positive length")),
        (CycleType(Path("t", ("nope",)), one), ("GraphFormatError", "unknown edge id")),
        (TailType(Path("zz", ())), ("PathError", "path base is not a vertex")),
        (DirectSum(((CycleType(loop_t, one), 1), (TailType(Path("t", ("loop_t",) * 2)), 1))),
         ("DomainError", "tail cycle must be primitive; pass its primitive root")),
        (LeftRegular("zz"), ("DomainError", "unknown vertex")),
        (DirectSum(((LeftRegular("t"), 0),)),
         ("DomainError", "multiplicity must be a positive integer or omega")),
    ]
    for fam, want in cases:
        got = _error(lambda: validate_canonical(fig1, fam))
        assert got[:2] == want
        for query in (
            lambda: classify(fig1, fam),
            lambda: wold_atomic(fam, fig1),
            lambda: orbit_condition_M(fam, loop_t, fig1),
        ):
            assert _error(query) == got
    public_cases = [
        (Path("t", ("tl1",)), ("NotACycle", "path source and range differ")),
        (Path("t", ()), ("NotACycle", "cycle of positive length required")),
        (Path("t", ("tl1", "rt")), base_error),
        (Path("t", ("nope",)), ("GraphFormatError", "unknown edge id")),
    ]
    for w, want in public_cases:
        for helper in (
            primitive_root,
            cyclic_canonical_form,
            cycle_vertices,
            lambda g, w: decompose_cycle(g, w, one),
        ):
            assert _error(lambda: helper(fig1, w))[:2] == want
    assert _error(lambda: cycle_structure_multiplicities(fig1, Path("t", ()))) == (
        "NotACycle", "structure multiplicities need a cycle of positive length", {}
    )


def test_per_vertex_loops_read_the_index_not_edge_id_tuples(rng, fig1, monkeypatch):
    """Atomic validation, the multiplicity formulas, condition (M), the pure
    cycle family, colouring checks and search, and the colored build read
    each vertex's edges off ``g.index``: with ``in_edges`` and ``out_edges``
    refused they give the same answers, findings and error details."""
    from semigroupoid_kit import (
        Coloring,
        build_colored_trunc,
        finitely_correlated_multiplicities,
        pure_cycle_family,
        search_synchronizing_coloring,
        validate_coloring,
    )

    families = []
    for _ in range(10):
        g = corpus.random_graph(rng, max_v=6, max_e=9, acyclic=True)
        families.append(corpus.random_root_family(rng, g)[0])
        families.append(corpus.random_loop_sink_family(rng, rng.randint(1, 3))[0])
    families += [v for fam in list(families) for v in _broken_variants(rng, fam)]
    mus = [Path("t", ("rt", "tr")), Path("t", ("loop_t",) * 6), Path("t", ("rt", "lr", "tl1"))]
    colorings = [
        Coloring(2, {"loop_t": 1, "tl1": 1, "tr": 1, "tl2": 2, "lr": 2, "rt": 2}),
        Coloring(2, {"loop_t": 1, "tl1": 2, "tr": 1, "tl2": 2, "lr": 2, "rt": 1}),
        Coloring(3, {"loop_t": 1, "tl1": 1, "tr": 1, "tl2": 2, "lr": 2}),
    ]

    def answers():
        out = [dump_json(validate_atomic(fam, require_total=False).to_json()) for fam in families]
        out += [cycle_structure_multiplicities(fig1, mu) for mu in mus]
        out.append(finitely_correlated_multiplicities(fig1, {"t": 1, "l": 2, "r": 3}))
        for mu in mus:
            for fam in (CycleType(mu, Phase.one()), TailType(primitive_root(fig1, mu)[0])):
                out.append(orbit_condition_M(fam, mu, fig1).detail)
        out.append(pure_cycle_family(cycle_graph(4), 3))
        for g in (fig1, chain_graph(3)):
            try:
                pure_cycle_family(g)
            except DomainError as exc:
                out.append(exc.details)
        out += [dump_json(validate_coloring(fig1, c).to_json()) for c in colorings]
        out.append(search_synchronizing_coloring(fig1))
        for c in colorings:
            try:
                out.append(build_colored_trunc(fig1, c, 2).dim)
            except DomainError as exc:
                out.append((str(exc), exc.details))
        return out

    want = answers()
    assert any("overlapping-ranges" in a for a in want[:len(families)])
    assert any("second incoming word" in str(a) for a in want)
    for name in ("in_edges", "out_edges"):
        monkeypatch.setattr(Graph, name, lambda g, v, name=name: pytest.fail(f"{name}({v!r})"))
    assert answers() == want
