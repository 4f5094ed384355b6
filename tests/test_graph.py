from functools import cached_property

import pytest

import corpus
import oracles
from semigroupoid_kit import (
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


def test_build_rejects_duplicates_and_dangling():
    with pytest.raises(GraphFormatError):
        Graph.build(["a", "a"], [])
    with pytest.raises(GraphFormatError):
        Graph.build(["a"], [("e", "a", "a"), ("e", "a", "a")])
    with pytest.raises(GraphFormatError):
        Graph.build(["a"], [("e", "a", "missing")])


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
