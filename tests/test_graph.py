from functools import cached_property

import pytest

import corpus
import oracles
from semigroupoid_kit import (
    Edge,
    Graph,
    GraphFormatError,
    cycle_graph,
    directed_closure,
    has_ses,
    induced_subgraph,
    is_in_degree_regular,
    is_transitive,
    looped_triangle,
    period,
    scc_of,
    source_elimination,
    strongly_connected_components,
    undirected_components,
    validate_graph,
)


def test_build_and_lookups():
    g = Graph.build(["a", "b"], [("e", "a", "b"), ("f", "b", "b")])
    assert g.src("e") == "a" and g.dst("e") == "b"
    assert g.out_edges("b") == ("f",)
    assert g.in_edges("b") == ("e", "f")
    assert g.sorted_vertices() == ("a", "b")


def _refusal(build, *args) -> tuple[str, dict]:
    with pytest.raises(GraphFormatError) as err:
        build(*args)
    return str(err.value), err.value.details


def test_build_rejects_duplicates_and_dangling():
    """Each construction fault has its message and details.  Of several,
    duplicate vertex ids come first, then duplicate edge ids, listing every
    id sorted, then the first dangling edge in input order."""
    assert _refusal(Graph.build, ["b", "a", "b"], []) == (
        "duplicate vertex ids", {"vertices": ["a", "b", "b"]}
    )
    assert _refusal(Graph.build, ["a"], [("e", "a", "a"), ("e", "a", "a")]) == (
        "duplicate edge ids", {"edges": ["e", "e"]}
    )
    assert _refusal(Graph.build, ["a"], [("e", "a", "missing")]) == (
        "edge endpoint is not a vertex", {"edge": "e", "src": "a", "dst": "missing"}
    )
    assert _refusal(Graph.build, ["a", "b"], [("z", "a", "b"), ("y", "q", "a"), ("x", "a", "r")]) == (
        "edge endpoint is not a vertex", {"edge": "y", "src": "q", "dst": "a"}
    )
    every_fault = [("f", "a", "x"), ("e", "a", "a"), ("f", "a", "a"), ("d", "y", "a")]
    assert _refusal(Graph.build, ["a", "c", "a"], every_fault) == (
        "duplicate vertex ids", {"vertices": ["a", "a", "c"]}
    )
    assert _refusal(Graph.build, ["a", "c"], every_fault) == (
        "duplicate edge ids", {"edges": ["d", "e", "f", "f"]}
    )
    assert _refusal(Graph.build, ["a", "c"], [("e", "a", "a"), ("g", "y", "a"), ("f", "a", "x")]) == (
        "edge endpoint is not a vertex", {"edge": "g", "src": "y", "dst": "a"}
    )
    # from JSON: the first edge object short of a field, in input order, is named
    short = {"vertices": ["a"], "edges": [{"id": "e", "src": "a"}, {"src": "a"}, "x"]}
    assert _refusal(Graph.from_json_dict, short) == (
        "edge object needs 'id', 'src', 'dst': 'dst'", {}
    )
    assert _refusal(Graph.from_json_dict, {"vertices": ["a"], "edges": ["x", {}]}) == (
        "edge object needs 'id', 'src', 'dst': string indices must be integers, not 'str'", {}
    )
    assert _refusal(Graph.from_json_dict, {"vertices": ["a"]}) == (
        "graph object needs 'vertices' and 'edges': 'edges'", {}
    )


def test_from_json_takes_arrays_only():
    """A string or an object where the format says array is refused: ``list()``
    would read "ab" as the vertices a and b, and an object as its keys."""
    g = Graph.from_json_dict({"vertices": ("a", "b"), "edges": []})  # a tuple is an array
    assert g.to_json_dict() == {"vertices": ["a", "b"], "edges": []}
    for field, bad in (("vertices", "ab"), ("vertices", {"a": 1, "b": 2}), ("edges", {})):
        doc = dict({"vertices": ["a", "b"], "edges": []}, **{field: bad})
        assert _refusal(Graph.from_json_dict, doc) == (
            "graph object needs 'vertices' and 'edges': "
            f"expected an array, got {type(bad).__name__}", {}
        )


def _fuzzed_edge_lists(rng):
    """Vertex lists and edge triples with loops, parallel edges and isolated
    vertices, in shuffled order, and the empty graph."""
    yield [], []
    yield ["only"], []
    for _ in range(60):
        g = corpus.random_graph(rng, max_v=7, max_e=14)
        vertices = list(g.vertices) + [f"iso{k}" for k in range(rng.randrange(3))]
        triples = [(e.id, e.src, e.dst) for e in g.edges]
        if triples:
            i, s, d = rng.choice(triples)  # a parallel edge and a loop
            triples += [(i + "p", s, d), (i + "l", s, s)]
        rng.shuffle(vertices)
        rng.shuffle(triples)
        yield vertices, triples


def test_lookups_match_a_dict_built_oracle(rng):
    """On fuzzed edge lists, every lookup equals the one a dict-built
    adjacency gives, input order is kept, and the edges of one graph build
    an equal graph."""
    for vertices, triples in _fuzzed_edge_lists(rng):
        g = Graph.build(vertices, triples)
        ends = {i: (s, d) for i, s, d in triples}
        assert g.vertices == tuple(vertices)
        assert [(e.id, e.src, e.dst) for e in g.edges] == triples
        assert g.sorted_vertices() == tuple(sorted(vertices))
        assert g.sorted_edge_ids() == tuple(sorted(ends))
        for i, (s, d) in ends.items():
            assert (g.src(i), g.dst(i)) == (s, d)
            assert (g.edge(i).id, g.edge(i).src, g.edge(i).dst) == (i, s, d)
        for v in vertices:
            assert g.has_vertex(v)
            assert g.out_edges(v) == tuple(sorted(i for i, (s, _) in ends.items() if s == v))
            assert g.in_edges(v) == tuple(sorted(i for i, (_, d) in ends.items() if d == v))
        assert not g.has_vertex("absent")
        with pytest.raises(GraphFormatError, match="unknown edge id"):
            g.src("absent")
        again = Graph(g.vertices, g.edges)
        assert again == g and again.key == g.key and again.to_json_dict() == g.to_json_dict()


def test_an_edge_is_its_plain_triple():
    """An edge equals, hashes and sorts as the tuple (id, src, dst), and
    pickles and prints as an ``Edge``."""
    import pickle

    e = looped_triangle().edge("tl1")
    assert e == ("tl1", "t", "l") and hash(e) == hash(("tl1", "t", "l"))
    assert sorted([e, ("a", "z", "z")]) == [("a", "z", "z"), e]
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is Edge and back == e and back.dst == "l"
    assert repr(e) == "Edge(id='tl1', src='t', dst='l')"


def test_json_round_trip(rng):
    for _ in range(20):
        g = corpus.random_graph(rng)
        assert Graph.from_json_dict(g.to_json_dict()).to_json_dict() == g.to_json_dict()


def test_validate_graph_reports_structure(fig1):
    report = validate_graph(fig1)
    assert report.valid


def test_sccs_match_reachability_oracle(rng):
    for _ in range(40):
        g = corpus.random_graph(rng)
        got = [list(c) for c in strongly_connected_components(g)]
        assert sorted(map(sorted, got)) == sorted(map(sorted, oracles.sccs(g)))


def test_transitive_iff_single_scc(rng):
    for _ in range(40):
        g = corpus.random_graph(rng)
        assert is_transitive(g) == (len(oracles.sccs(g)) == 1)


def test_period_matches_walk_gcd_oracle(rng):
    for _ in range(60):
        g = corpus.random_graph(rng)
        for v in g.vertices:
            assert period(g, v) == oracles.period_at(g, v), (g.to_json_dict(), v)


def test_periods_are_cached_per_graph_and_read_in_any_order(monkeypatch, rng):
    # every component's period comes from one pass per Graph object, however
    # many vertices are asked for and in whatever order
    passes = []
    compute = Graph.__dict__["_periods"].func
    counted = cached_property(lambda g: passes.append(g) or compute(g))
    counted.__set_name__(Graph, "_periods")
    monkeypatch.setattr(Graph, "_periods", counted)
    for k in range(60):
        g = corpus.random_graph(rng)
        order = list(g.vertices) * 2
        rng.shuffle(order)
        for v in order:
            assert period(g, v) == oracles.period_at(g, v), (g.to_json_dict(), v)
        assert len(passes) == k + 1 and passes[-1] is g
    twin = Graph.build(g.vertices, [(e.id, e.src, e.dst) for e in g.edges])
    assert [period(twin, v) for v in twin.vertices] == [period(g, v) for v in g.vertices]
    assert len(passes) == 61 and passes[-1] is twin
    with pytest.raises(GraphFormatError) as err:
        period(g, "nosuch")
    assert err.value.details == {"vertex": "nosuch"} and len(passes) == 61


def test_period_known_values():
    assert period(cycle_graph(4), "v1") == 4
    assert period(looped_triangle(), "t") == 1
    dag = Graph.build(["a", "b"], [("e", "a", "b")])
    assert period(dag, "a") is None


def test_closure_matches_oracle_and_is_a_closure(rng):
    for _ in range(40):
        g = corpus.random_graph(rng)
        seed = [v for v in g.vertices if rng.random() < 0.4]
        got = directed_closure(g, seed)
        assert got == frozenset(oracles.closure(g, seed))
        assert set(seed) <= got
        assert directed_closure(g, got) == got


def test_induced_subgraph_keeps_internal_edges(fig1):
    sub = induced_subgraph(fig1, ["l"])
    assert set(sub.vertices) == {"l", "r", "t"}  # closure pulls the rest in


def test_source_elimination_on_dags_empties_the_graph(rng):
    for _ in range(40):
        g = corpus.random_graph(rng, acyclic=True)
        g0, layers, ok = source_elimination(g)
        assert ok and has_ses(g)
        assert not g0.vertices
        assert sorted(v for layer in layers for v in layer) == sorted(g.vertices)


def test_source_elimination_fixes_cycles():
    g = Graph.build(
        ["a", "b", "c"],
        [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "b")],
    )
    g0, layers, ok = source_elimination(g)
    assert not ok
    assert set(g0.vertices) == {"b", "c"}
    assert layers == [["a"]]


def test_has_ses_iff_acyclic(rng):
    for _ in range(40):
        g = corpus.random_graph(rng)
        assert has_ses(g) == oracles.is_acyclic(g)


def test_in_degree_regular():
    assert is_in_degree_regular(looped_triangle()) == (True, 2)
    assert is_in_degree_regular(cycle_graph(3)) == (True, 1)
    g = Graph.build(["a", "b"], [("e", "a", "b")])
    assert is_in_degree_regular(g)[0] is False


def test_undirected_components():
    g = Graph.build(["a", "b", "c"], [("e", "a", "b")])
    assert undirected_components(g) == [["a", "b"], ["c"]]


def test_undirected_components_match_union_find(rng):
    # the empty graph, isolated vertices, loops and parallel edges included
    graphs = [Graph.build([], []), Graph.build(["b", "a"], [("l", "a", "a"), ("p", "a", "a")])]
    for _ in range(200):
        n = rng.randint(1, 8)
        vertices = [f"v{i}" for i in rng.sample(range(20), n)]
        edges = [(f"e{k}", rng.choice(vertices), rng.choice(vertices)) for k in range(rng.randint(0, n))]
        graphs.append(Graph.build(vertices, edges))
    for g in graphs:
        assert undirected_components(g) == oracles.undirected_components(g), g.to_json_dict()


def test_figure_one_shape(fig1):
    assert is_in_degree_regular(fig1) == (True, 2)
    assert is_transitive(fig1)
    assert period(fig1, "t") == 1
    assert len(fig1.edges) == 6


def test_unknown_vertex_and_empty_cycle_are_graph_format_errors(fig1):
    for call, message, details in (
        (lambda: scc_of(fig1, "nosuch"), "unknown vertex", {"vertex": "nosuch"}),
        (lambda: cycle_graph(0), "cycle length must be at least 1", {"n": 0}),
    ):
        with pytest.raises(GraphFormatError) as err:
            call()
        assert (type(err.value), str(err.value), err.value.details) == (
            GraphFormatError, message, details
        )
