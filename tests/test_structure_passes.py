"""Single-pass structural quantities against their brute-force references.

Source elimination, strongly connected components and the set of vertices
that reach a cycle are each computed by one linear pass; the Wold remainder
is decided by one backward trace per component of H.  Each is compared
here with a slower, more literal computation from ``oracles``.
"""

import corpus
import oracles
import pytest
from semigroupoid_kit import (
    CycleFound,
    CycleType,
    DirectSum,
    DomainError,
    ExplicitAtomic,
    Graph,
    LeftRegular,
    LeftRegularAtom,
    NonTotalPresentation,
    Path,
    Phase,
    TailType,
    are_unitarily_equivalent,
    build_H,
    classify,
    cycle_graph,
    cycle_vertices,
    gauge_transform,
    has_ses,
    is_primitive,
    looped_triangle,
    orbit_condition_M,
    scc_of,
    source_elimination,
    strongly_connected_components,
    trace_backward,
    validate_atomic,
    wold_atomic,
)
from semigroupoid_kit import atomic
from semigroupoid_kit.graph import reaches_cycle


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


def test_reaches_cycle_matches_strict_reach(rng):
    for g in sample_graphs(rng):
        want = oracles.reaches_cycle(g)
        assert {v: reaches_cycle(g, v) for v in g.vertices} == want


def test_sccs_are_computed_once_on_first_use(rng):
    for g in sample_graphs(rng, count=20):
        assert "_sccs" not in vars(g) and "_reaches_cycle" not in vars(g)
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
            if isinstance(trace_backward(h, node), CycleFound):
                remainder.add(node)
        core = set(oracles.source_elimination(g)[0].vertices)
        got = wold_atomic(fam)
        assert got.alpha == alpha
        assert got.remainder_nodes == remainder
        assert got.supported_on_g0 == all(v in core for v, _ in remainder)
        mixed += bool(remainder) and bool(alpha)
    assert mixed, "no sample mixed root and cycle components"


def test_classify_and_wold_validate_once(rng, monkeypatch):
    calls = []
    original = atomic.validate_atomic

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(atomic, "validate_atomic", counting)
    fam, _, _ = corpus.random_loop_sink_family(rng)
    g = fam.graph
    twin = gauge_transform(fam, corpus.random_gauge(rng, fam))
    classify(g, fam)
    assert len(calls) == 1
    wold_atomic(fam)
    assert len(calls) == 1
    assert are_unitarily_equivalent(g, fam, twin).equivalent
    assert len(calls) == 2
    orbit_condition_M(fam, Path("v", ("loop",)))
    assert len(calls) == 2 and calls[0][0] is fam and calls[1][0] is twin


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
        # the sum, then each part once, from inside validate_canonical
        assert calls == [fam] + [part for part, _ in parts]


def test_h_is_traced_once_per_family(rng, monkeypatch):
    calls = []
    original = atomic.build_H
    monkeypatch.setattr(atomic, "build_H", lambda a: calls.append(a) or original(a))
    fam, _, _ = corpus.random_loop_sink_family(rng)
    g = fam.graph
    twin = gauge_transform(fam, corpus.random_gauge(rng, fam))
    classify(g, fam)
    wold_atomic(fam)
    assert are_unitarily_equivalent(g, fam, twin).equivalent
    assert len(calls) == 2 and calls[0] is fam and calls[1] is twin
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
        assert left == {v: roots.count(v) for v in roots}
        mixed += bool(roots) and any(reach.values())
    assert mixed >= 40  # roots beside cycles, not only acyclic hosts
