"""The road-colouring kernel against the implementations it replaced.

``tests/oracles.py`` keeps the frozenset subset search, the per-vertex
synchronization check and the exhaustive candidate loop.  The library's
bitmask search, single-automaton walks and closed-component rule must give
the same words, colourings and errors on seeded random graphs.
"""

import itertools
import random
import sys

import pytest

import corpus
import oracles
from semigroupoid_kit import (
    Coloring,
    DomainError,
    EnumerationOverflow,
    Graph,
    InvalidColoring,
    PartialAutomaton,
    cycle_graph,
    find_synchronizing_word,
    follow_backward,
    is_synchronizing_word,
    is_transitive,
    looped_triangle,
    period,
    search_synchronizing_coloring,
    syncdiag_paths,
    synchronizing_guarantee,
)
from semigroupoid_kit import roadcoloring as rc


def random_coloring(rng, g, d):
    color = {}
    for v in g.sorted_vertices():
        perm = list(range(1, d + 1))
        rng.shuffle(perm)
        color.update(zip(g.in_edges(v), perm))
    return Coloring(d, color)


def random_word(rng, d, max_len=6):
    return "".join(str(rng.randint(1, d)) for _ in range(rng.randint(0, max_len)))


def looped_graph(rng, n, d):
    """Transitive and aperiodic: a loop at v0, a ring, d-1 random in-edges more."""
    vertices = [f"v{i}" for i in range(n)]
    triples = [("loop", "v0", "v0")]
    for i in range(n):
        triples.append((f"r{i}", vertices[i - 1], vertices[i]))
        for k in range(d - (2 if i == 0 else 1)):
            triples.append((f"x{i}_{k}", rng.choice(vertices), vertices[i]))
    return Graph.build(vertices, triples)


def periodic_graph(rng, n, d, p):
    """Transitive, period a multiple of p: a ring through classes k mod p and
    d-1 random in-edges from the previous class."""
    vertices = [f"v{i}" for i in range(n)]
    triples = []
    for i in range(n):
        triples.append((f"r{i}", vertices[i - 1], vertices[i]))
        back = [u for k, u in enumerate(vertices) if k % p == (i - 1) % p]
        for k in range(d - 1):
            triples.append((f"x{i}_{k}", rng.choice(back), vertices[i]))
    return Graph.build(vertices, triples)


def union_graph(*parts):
    """Disjoint union; the vertices and edges of part k get the prefix k."""
    vertices, triples = [], []
    for k, g in enumerate(parts):
        vertices += [f"{k}{v}" for v in g.vertices]
        triples += [(f"{k}{e.id}", f"{k}{e.src}", f"{k}{e.dst}") for e in g.edges]
    return Graph.build(vertices, triples)


def reducible_graph(rng, n, d, feeding):
    """No synchronizing colouring by construction: two closed aperiodic
    components, or a closed component of period 2 or 3 whose vertex 0v0
    feeds a looped component through that component's loop edge."""
    half = max(1, n // 2)
    if not feeding:
        return union_graph(looped_graph(rng, half, d), looped_graph(rng, max(1, n - half), d))
    p = rng.choice([2, 3])
    g = union_graph(periodic_graph(rng, p * max(1, half // p), d, p), looped_graph(rng, half, d))
    triples = [(e.id, "0v0" if e.id == "1loop" else e.src, e.dst) for e in g.edges]
    return Graph.build(g.vertices, triples)


def partial_graph(rng, n, d):
    """Random in-degrees 0..d with a strong colouring that misses colours."""
    vertices = [f"v{i}" for i in range(n)]
    triples, color = [], {}
    for v in vertices:
        cols = rng.sample(range(1, d + 1), rng.randint(0, d))
        for col in cols:
            eid = f"e{len(triples)}"
            triples.append((eid, rng.choice(vertices), v))
            color[eid] = col
    return Graph.build(vertices, triples), Coloring(d, color)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DomainError as exc:
        return type(exc).__name__, str(exc), exc.details


def found_json(found):
    return None if found is None else (found[0].to_json_dict(), found[1])


def test_words_match_frozenset_references(rng):
    for _ in range(200):
        n, d = rng.randint(1, 10), rng.randint(1, 3)
        g = corpus.random_in_regular_graph(rng, n, d)
        c = random_coloring(rng, g, d)
        assert find_synchronizing_word(g, c) == oracles.synchronizing_word(g, c)
        for _ in range(5):
            word = random_word(rng, d)
            assert is_synchronizing_word(g, c, word) == oracles.sync_vertex(g, c, word)


def test_search_matches_exhaustive_loop(rng):
    kinds = {"periodic": 0, "found": 0, "none": 0}
    for k in range(60):
        d = 2 if k % 3 else 3
        n = rng.randint(2, 8 if d == 2 else 5)
        shape = k % 5
        if shape == 0:
            g = corpus.random_in_regular_graph(rng, n, d)
        elif shape == 1:
            g = looped_graph(rng, n, d)
        elif shape == 4:
            g = reducible_graph(rng, n, d, feeding=k % 2)
        else:
            p = shape
            g = periodic_graph(rng, p * max(1, n // p), d, p)
        got = search_synchronizing_coloring(g)
        assert found_json(got) == found_json(oracles.search_coloring(g, d))
        if shape == 4:
            assert got is None and not is_transitive(g)
        if is_transitive(g) and period(g, min(g.vertices)) != 1:
            kinds["periodic"] += 1
            assert synchronizing_guarantee(g)["synchronizing_coloring"] is None
        kinds["found" if got else "none"] += 1
    assert kinds["periodic"] >= 20 and kinds["found"] >= 10
    assert kinds["none"] > kinds["periodic"]  # some non-transitive graphs fail too


def test_incomplete_colorings_fail_like_references(rng):
    seen = set()
    for _ in range(200):
        n, d = rng.randint(1, 8), rng.randint(1, 3)
        g, c = partial_graph(rng, n, d)
        got = outcome(find_synchronizing_word, g, c)
        want = outcome(oracles.synchronizing_word, g, c)
        # the vertex named by the frozenset search followed the hash order
        assert got[:2] == want[:2]
        seen.add(got[0])
        for _ in range(3):
            word, word2 = random_word(rng, d, 4), random_word(rng, d, 3)
            assert outcome(is_synchronizing_word, g, c, word) == outcome(
                oracles.sync_vertex, g, c, word
            )

            def old_syncdiag():
                v = oracles.sync_vertex(g, c, word)
                if v is None:
                    raise DomainError("word does not synchronize", word=word)
                w, mu_prime = follow_backward(g, c, v, word2)
                return v, mu_prime.edges + follow_backward(g, c, w, word)[1].edges

            diag = outcome(syncdiag_paths, g, c, word, word2)
            if diag[0] == "ok":
                diag = "ok", (diag[1].vertex, diag[1].closed.edges)
            assert diag == outcome(old_syncdiag)
    assert {"PartialAutomaton", "ok"} <= seen


def test_obrien_matches_the_reference_tree(rng):
    # looped graphs, some with loops at other vertices too and edge ids
    # whose sorted order differs from the order of construction
    for k in range(120):
        n, d = rng.randint(1, 12), rng.randint(2, 4)
        g = looped_graph(rng, n, d)
        if k % 2:
            g = Graph.build(g.vertices, [(f"{rng.randrange(100)}_{e.id}", e.src, e.dst)
                                         for e in g.edges])
        loops = [e.id for e in g.edges if e.src == e.dst]
        for loop in loops[:2]:
            coloring, word = rc.obrien_coloring(g, loop)
            want_coloring, want_word = oracles.obrien_coloring(g, loop)
            assert (coloring, word) == (want_coloring, want_word)


def reference_obrien(g, loop):
    """``obrien_coloring`` as it was with a component pass and a validation:
    the loop, regular and transitive checks in that order, then the
    colouring of ``oracles.obrien_coloring`` validated by the oracle."""
    e = g.edge(loop)
    if e.src != e.dst:
        raise DomainError("edge is not a loop", edge=loop)
    degrees = {len(g.in_edges(v)) for v in g.vertices}
    if len(degrees) != 1 or 0 in degrees:
        raise DomainError("construction needs an in-degree regular graph")
    if len(oracles.sccs(g)) != 1:
        raise DomainError("construction needs a transitive graph")
    coloring, word = oracles.obrien_coloring(g, loop)
    if not (report := oracles.validate_coloring(g, coloring)).valid:
        raise InvalidColoring("coloring is not strong", findings=[f.message for f in report.errors])
    return coloring, word


def obrien_graphs(rng):
    """(graph, loop edge): looped graphs at d = 2, 3, the looped triangle,
    Cerny graphs, random in-regular graphs with a loop (most of them not
    transitive), and hand-made graphs failing one reachability direction."""
    for _ in range(60):
        g = looped_graph(rng, rng.randint(1, 40), rng.choice([2, 3]))
        yield g, "loop"
    yield looped_triangle(), "loop_t"
    for n in range(2, 13):
        g = corpus.cerny(n)[0]
        yield g, next(e.id for e in g.edges if e.src == e.dst)
    for _ in range(150):
        g = corpus.random_in_regular_graph(rng, rng.randint(1, 8), rng.randint(1, 3))
        loops = [e.id for e in g.edges if e.src == e.dst]
        if loops:
            yield g, rng.choice(loops)
    # every vertex reaches the loop vertex a, which reaches nothing else
    yield Graph.build(["a", "b"], [("la", "a", "a"), ("ba", "b", "a"),
                                   ("lb1", "b", "b"), ("lb2", "b", "b")]), "la"
    # a reaches b, which never comes back
    yield Graph.build(["a", "b"], [("la1", "a", "a"), ("la2", "a", "a"),
                                   ("ab", "a", "b"), ("lb", "b", "b")]), "la1"
    # d = 10 and not transitive: the transitivity error comes first
    yield Graph.build(["a", "b"], [(f"l{k}", "a", "a") for k in range(10)]
                      + [(f"y{k}", "a", "b") for k in range(10)]), "l0"


def test_obrien_colourings_carry_their_automaton_and_match_the_checked_reference(
    monkeypatch, rng
):
    def unused(*args):
        raise AssertionError("O'Brien colourings are neither validated nor split into SCCs")

    validate = rc.validate_coloring
    monkeypatch.setattr(rc, "validate_coloring", unused)
    monkeypatch.setattr(rc, "is_transitive", unused)
    seen = {"ok": 0, "construction needs a transitive graph": 0}
    for g, loop in obrien_graphs(rng):
        got = outcome(rc.obrien_coloring, g, loop)
        assert got == outcome(reference_obrien, g, loop)
        assert "_sccs" not in g.__dict__
        if got[0] != "ok":
            seen[got[1]] = seen.get(got[1], 0) + 1
            continue
        seen["ok"] += 1
        c, word = got[1]
        report = validate(g, c)
        assert report.valid and report.findings[-1].message == (
            "every vertex receives each color exactly once"
        )
        auto = c.__dict__["_automaton"]
        assert rc.backward_automaton(g, c) is auto
        assert auto == rc._automaton(g, Coloring(c.d, dict(c.color)))
        assert oracles.sync_target(g, c, word) == g.src(loop)
    assert seen["ok"] >= 60 and seen["construction needs a transitive graph"] >= 10
    # on a transitive graph, d = 10 gets the error validation gives such a d
    d10 = Graph.build(["a", "b"], [(f"l{k}", "a", "a") for k in range(9)] + [("ba", "b", "a")]
                      + [(f"y{k}", "a", "b") for k in range(10)])
    assert outcome(rc.obrien_coloring, d10, "l0") == outcome(reference_obrien, d10, "l0") == (
        "InvalidColoring", "coloring is not strong",
        {"findings": ["color count d=10 outside 1..9"]},
    )


def test_subset_search_names_the_least_vertex_missing_a_color():
    # every vertex of the 3-cycle lacks color 2; the frozenset search named
    # whichever it met first in hash order
    g = cycle_graph(3)
    with pytest.raises(PartialAutomaton) as err:
        find_synchronizing_word(g, Coloring(2, {"e1": 1, "e2": 1, "e3": 1}))
    assert err.value.details == {"vertex": "v1", "color": 2}


def test_each_call_validates_once_and_search_candidates_never(monkeypatch):
    g = looped_triangle()
    c = Coloring(2, {"loop_t": 1, "tl1": 1, "tr": 1, "tl2": 2, "lr": 2, "rt": 2})
    calls, builds = [], []
    validate, automaton = rc.validate_coloring, rc._automaton
    monkeypatch.setattr(rc, "validate_coloring", lambda *a: calls.append(a) or validate(*a))
    monkeypatch.setattr(rc, "_automaton", lambda *a: builds.append(a) or automaton(*a))
    # one validation and one build per (graph, colouring) object, across the queries
    assert is_synchronizing_word(g, c, "1") == "t"
    syncdiag_paths(g, c, "1", "12")
    assert find_synchronizing_word(g, c) == "1"
    follow_backward(g, c, "l", "21")
    assert rc.backward_automaton(g, c) is rc.backward_automaton(g, c)
    assert len(calls) == len(builds) == 1
    # a second Graph object, or a fresh equal Coloring, validates again
    twin = looped_triangle()
    assert is_synchronizing_word(twin, c, "1") == "t"
    assert len(calls) == len(builds) == 2
    assert is_synchronizing_word(twin, Coloring(2, dict(c.color)), "1") == "t"
    assert len(calls) == len(builds) == 3
    # an invalid colouring raises on every call
    bad = Coloring(2, dict(c.color, rt=1))
    for query in (lambda: is_synchronizing_word(g, bad, "1"), lambda: find_synchronizing_word(g, bad)):
        with pytest.raises(InvalidColoring):
            query()
    assert len(calls) == 5 and len(builds) == 3
    # the O'Brien colouring is built once, for its word and its diagram, and
    # never validated: it is strong and complete by construction
    coloring, word = rc.obrien_coloring(g, "loop_t")
    syncdiag_paths(g, coloring, word, "2")
    assert len(calls) == 5 and len(builds) == 4
    # the first candidate colouring of this graph does not synchronize
    g2 = Graph.build(
        ["v1", "v2", "v3", "v4"],
        [("e1", "v2", "v1"), ("e2", "v2", "v1"), ("e3", "v3", "v2"), ("e4", "v4", "v2"),
         ("e5", "v1", "v3"), ("e6", "v1", "v3"), ("e7", "v4", "v4"), ("e8", "v3", "v4")],
    )
    found = search_synchronizing_coloring(g2)
    assert found is not None
    assert len(builds) == 6 and len(calls) == 5
    # the colouring found keeps the automaton its word was searched on
    syncdiag_paths(g2, found[0], found[1], "12")
    assert len(builds) == 6 and len(calls) == 5


def test_the_shared_automaton_exposes_nothing_mutable():
    g = looped_triangle()
    auto = rc.backward_automaton(g, Coloring(2, {"loop_t": 1, "tl1": 1, "tr": 1, "tl2": 2, "lr": 2, "rt": 2}))
    assert all(type(row) is tuple for row in auto.src + auto.via)
    assert auto.index == {"l": 0, "r": 1, "t": 2}
    with pytest.raises(TypeError):
        auto.index["t"] = 0
    assert g.sorted_vertices() is g.sorted_vertices() == auto.verts


def test_cerny_words_are_the_worst_case_and_match_the_frozenset_search():
    for n in range(3, 13):
        g, c = corpus.cerny(n)
        word = find_synchronizing_word(g, c)
        assert len(word) == (n - 1) ** 2
        assert word == oracles.subset_bfs(oracles.backward_automaton(g, c), frozenset(g.vertices))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cerny_20_is_searched_in_bounded_memory():
    # one parent link per subset: a whole word per subset peaked at 783 MB.
    # VmHWM is the peak of the child's own memory; its ru_maxrss would also
    # count the memory of this process, which forked it
    import os
    import subprocess

    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(rc.__file__))
    probe = (
        "import corpus\n"
        "from semigroupoid_kit import find_synchronizing_word\n"
        "word = find_synchronizing_word(*corpus.cerny(20))\n"
        "peak = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(len(word), *peak)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
    )
    letters, peak_kib = map(int, done.stdout.split())
    assert letters == 19**2
    assert peak_kib < 200 * 1024


def test_periodic_search_tries_no_candidate_but_keeps_the_budget(monkeypatch):
    builds = []
    automaton = rc._automaton
    monkeypatch.setattr(rc, "_automaton", lambda *a: builds.append(a) or automaton(*a))
    assert search_synchronizing_coloring(periodic_graph(random.Random(1), 8, 2, 2)) is None
    assert builds == []
    # 6**9 candidates pass the budget: the overflow wins over the period
    with pytest.raises(EnumerationOverflow):
        search_synchronizing_coloring(periodic_graph(random.Random(1), 10, 3, 2))


def test_reducible_search_tries_no_candidate(monkeypatch, rng):
    builds = []
    automaton = rc._automaton
    monkeypatch.setattr(rc, "_automaton", lambda *a: builds.append(a) or automaton(*a))
    for feeding in (0, 1, 0, 1):
        assert search_synchronizing_coloring(reducible_graph(rng, 8, 2, feeding)) is None
    assert builds == []


def test_word_lengths_respect_bounds(rng):
    checked = 0
    for _ in range(300):
        n, d = rng.randint(2, 10), rng.randint(1, 3)
        g = corpus.random_in_regular_graph(rng, n, d)
        auto = rc.backward_automaton(g, random_coloring(rng, g, d))
        bfs = rc._subset_bfs(auto)
        greedy = rc._greedy_merge(auto)
        assert (bfs is None) == (greedy is None)
        if bfs is None:
            continue
        checked += 1
        # Frankl-Pin: a shortest synchronizing word has at most (n^3-n)/6 letters
        assert len(bfs) <= (n**3 - n) // 6
        assert len(bfs) <= len(greedy)
        # each merge of the two least vertices takes at most C(n, 2) letters
        assert len(greedy) <= (n - 1) * n * (n - 1) // 2
    assert checked >= 100


@pytest.mark.parametrize("n", [21, 30, 40])
def test_greedy_words_synchronize_within_bound(n):
    rng = random.Random(n)
    g = looped_graph(rng, n, 2)
    tree = rc.obrien_coloring(g, "loop")[0]
    for c in (tree, random_coloring(rng, g, 2)):
        word = find_synchronizing_word(g, c)
        if c is tree:
            assert word is not None
        if word is not None:
            assert len(word) <= (n - 1) * n * (n - 1) // 2
            assert oracles.sync_target(g, c, word) == is_synchronizing_word(g, c, word)
            assert is_synchronizing_word(g, c, word) is not None


def drop_one_edge(rng, g, c):
    """The graph and colouring without one random edge: its range vertex
    misses that colour, every other vertex keeps all of them."""
    gone = rng.choice(g.edges).id
    kept = [(e.id, e.src, e.dst) for e in g.edges if e.id != gone]
    return Graph.build(g.vertices, kept), Coloring(c.d, {k: v for k, v in c.color.items() if k != gone})


def row_kernel_cases(rng):
    """(graph, colouring) on 2-150 vertices, d = 1..3: random complete
    colourings, tree colourings that synchronize, and both with one edge gone;
    then colourings missing colours at many vertices."""
    for k in range(48):
        n = rng.randint(2, 20) if k % 2 else rng.randint(21, 150)
        d = rng.randint(1, 3)
        if k % 3 == 0 and d > 1:
            g = looped_graph(rng, n, d)
            c = rc.obrien_coloring(g, "loop")[0]
        else:
            g = corpus.random_in_regular_graph(rng, n, d)
            c = random_coloring(rng, g, d)
        yield g, c
        yield drop_one_edge(rng, g, c)
    for _ in range(24):
        yield partial_graph(rng, rng.randint(2, 150), rng.randint(1, 3))


def test_row_kernels_match_dict_references(rng):
    seen = {"word": 0, "no word": 0, "PartialAutomaton": 0, "diagram": 0}
    for g, c in row_kernel_cases(rng):
        auto = rc.backward_automaton(g, c)
        ref = oracles.backward_automaton(g, c)
        for v in g.sorted_vertices():
            for j in range(0, c.d + 2):
                assert outcome(auto.step, v, j) == outcome(ref.step, v, j)
        got = outcome(find_synchronizing_word, g, c)
        want = outcome(oracles.synchronizing_word, g, c)
        # the frozenset search names a hash-order vertex; the greedy merge does not
        assert got[:2] == want[:2] if len(g.vertices) <= rc.SUBSET_BFS_LIMIT else got == want
        if got[0] == "ok" and len(g.vertices) > rc.SUBSET_BFS_LIMIT:
            assert got[1] == oracles.greedy_merge(ref, g.vertices)
        seen["PartialAutomaton" if got[0] != "ok" else "no word" if got[1] is None else "word"] += 1
        words = [random_word(rng, c.d, 8) for _ in range(3)]
        if got[0] == "ok" and got[1]:
            words.append(got[1])
        for word in words:
            assert outcome(is_synchronizing_word, g, c, word) == outcome(
                oracles.sync_target_dict, ref, word
            )
            word2 = random_word(rng, c.d, 5)
            diag = outcome(syncdiag_paths, g, c, word, word2)
            if diag[0] == "ok":
                seen["diagram"] += 1
                d = diag[1]
                diag = "ok", (d.vertex, d.mu_prime.edges, d.mu.edges)
                assert d.closed.edges == d.mu_prime.edges + d.mu.edges
            assert diag == outcome(oracles.syncdiag, g, c, word, word2)
            v = rng.choice(g.vertices)
            walk = outcome(follow_backward, g, c, v, word)
            if walk[0] == "ok":
                walk = "ok", (walk[1][0], walk[1][1].edges)
            assert walk == outcome(oracles.follow, ref, v, word)
    assert min(seen.values()) >= 5, seen


def test_greedy_step_names_the_least_vertex_missing_a_color():
    # 22 vertices: the ring merges v00 and v01 with colour 1, and the first
    # step of the whole set meets v05 and v09, which lack colour 1
    n = 22
    verts = [f"v{i:02d}" for i in range(n)]
    triples = [("loop", "v00", "v00")]
    color = {"loop": 1}
    for i in range(1, n):
        triples.append((f"r{i}", verts[i - 1], verts[i]))
        color[f"r{i}"] = 2 if i in (5, 9) else 1
    g = Graph.build(verts, triples)
    c = Coloring(2, color)
    want = outcome(oracles.synchronizing_word, g, c)
    assert outcome(find_synchronizing_word, g, c) == want
    assert want[0] == "PartialAutomaton"


def test_kernels_return_letter_tuples_that_format_to_the_reference_words(rng):
    def in_regular_cases():
        for _ in range(200):
            n, d = rng.randint(1, 10), rng.randint(1, 3)
            g = corpus.random_in_regular_graph(rng, n, d)
            yield g, random_coloring(rng, g, d)

    def text(kernel, auto):
        word = kernel(auto)
        if word is not None:
            assert type(word) is tuple and all(type(j) is int for j in word), word
            word = rc.format_word(word)
        return word

    checked = 0
    for g, c in itertools.chain(in_regular_cases(), row_kernel_cases(rng)):
        auto, ref = rc.backward_automaton(g, c), oracles.backward_automaton(g, c)
        n = len(g.vertices)
        got = outcome(text, rc._greedy_merge, auto)
        assert got == outcome(oracles.greedy_merge, ref, g.vertices)
        checked += got[0] == "ok" and got[1] is not None
        if n <= rc.SUBSET_BFS_LIMIT:
            got = outcome(text, rc._subset_bfs, auto)
            # the frozenset search names a hash-order vertex
            assert got[:2] == outcome(oracles.subset_bfs, ref, frozenset(g.vertices))[:2]
        want = outcome(oracles.synchronizing_word, g, c)
        assert outcome(text, rc._find_word, auto)[:2] == want[:2]
    assert checked >= 100


def memo_cases(rng):
    """(graph, colouring): corpus in-regular graphs with random complete
    colourings, and corpus random graphs with random strong colourings that
    miss colours (every in-fibre takes distinct colours of 1..d)."""
    for k in range(160):
        if k % 2:
            d = rng.randint(1, 3)
            g = corpus.random_in_regular_graph(rng, rng.randint(1, 8), d)
            yield g, random_coloring(rng, g, d)
        else:
            g = corpus.random_graph(rng, max_e=9)
            d = min(9, max(len(g.in_edges(v)) for v in g.vertices) + rng.randint(0, 1)) or 1
            color = {}
            for v in g.sorted_vertices():
                color.update(zip(g.in_edges(v), rng.sample(range(1, d + 1), len(g.in_edges(v)))))
            yield g, Coloring(d, color)


def test_the_target_memo_answers_like_the_references_in_any_order(rng):
    # the four word queries in a seeded random order on a few words each:
    # whatever word the colouring walked last, every answer or error is the
    # references', and a word that raises raises again on every call
    def sync(g, c, w):
        target = oracles.sync_target_dict(oracles.backward_automaton(g, c), w)
        assert target == oracles.sync_target(g, c, w)
        return target

    def diag(g, c, w, w2):
        got = syncdiag_paths(g, c, w, w2)
        return got.vertex, got.mu_prime.edges, got.mu.edges

    def follow(g, c, v, w):
        at, path = follow_backward(g, c, v, w)
        return at, path.edges

    seen = set()
    for g, c in memo_cases(rng):
        words = [random_word(rng, c.d, 4) for _ in range(3)]
        for _ in range(12):
            w, w2, v = rng.choice(words), rng.choice(words), rng.choice(g.sorted_vertices())
            query = rng.randrange(4)
            if query == 0:
                got, want = outcome(is_synchronizing_word, g, c, w), outcome(sync, g, c, w)
            elif query == 1:
                got, want = outcome(diag, g, c, w, w2), outcome(oracles.syncdiag, g, c, w, w2)
            elif query == 2:
                got = outcome(follow, g, c, v, w)
                want = outcome(oracles.follow, oracles.backward_automaton(g, c), v, w)
            else:  # the frozenset search names a hash-order vertex
                got = outcome(find_synchronizing_word, g, c)[:2]
                want = outcome(oracles.synchronizing_word, g, c)[:2]
            assert got == want, (g.to_json_dict(), c, query, w, w2, v)
            seen.add((query, got[0]))
    assert {(q, kind) for q in range(4) for kind in ("ok", "PartialAutomaton")} <= seen


def test_a_colouring_walks_a_word_once_per_automaton(monkeypatch):
    walks = []
    walk = rc._walk
    monkeypatch.setattr(rc, "_walk", lambda auto, letters: walks.append(letters) or walk(auto, letters))
    g = looped_triangle()
    # the O'Brien self-check walks the tree word, and its diagram reads the target back
    coloring, word = rc.obrien_coloring(g, "loop_t")
    assert syncdiag_paths(g, coloring, word, "2").vertex == "t" and len(walks) == 1
    assert is_synchronizing_word(g, coloring, word) == "t" and len(walks) == 1
    # a different word walks, and then the tree word walks again
    assert is_synchronizing_word(g, coloring, "2") == oracles.sync_target(g, coloring, "2")
    assert len(walks) == 2
    assert syncdiag_paths(g, coloring, word, "21").vertex == "t" and len(walks) == 3
    # a second Graph object, or a fresh equal Coloring, walks again
    twin = looped_triangle()
    assert is_synchronizing_word(twin, coloring, word) == "t" and len(walks) == 4
    fresh = Coloring(coloring.d, dict(coloring.color))
    assert is_synchronizing_word(twin, fresh, word) == "t" and len(walks) == 5
    assert is_synchronizing_word(twin, fresh, word) == "t" and len(walks) == 5
    # a walk that raises is not kept: every call walks and names the same step
    g3, partial = cycle_graph(3), Coloring(2, {"e1": 1, "e2": 1, "e3": 1})
    want = outcome(oracles.sync_target_dict, oracles.backward_automaton(g3, partial), "12")
    for k in range(2):
        assert outcome(is_synchronizing_word, g3, partial, "12") == want
        assert want[0] == "PartialAutomaton" and len(walks) == 6 + k
