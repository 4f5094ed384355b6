import itertools
import random

import pytest

import corpus
import oracles
from semigroupoid_kit import (
    Coloring,
    DomainError,
    EnumerationOverflow,
    Graph,
    GraphFormatError,
    InvalidColoring,
    PartialAutomaton,
    backward_automaton,
    color_word,
    cycle_graph,
    find_synchronizing_word,
    follow_backward,
    is_synchronizing_word,
    looped_triangle,
    obrien_coloring,
    search_synchronizing_coloring,
    syncdiag_paths,
    synchronizing_guarantee,
    validate_coloring,
)
from semigroupoid_kit import roadcoloring as rc
from semigroupoid_kit.cli import main
from semigroupoid_kit.serialize import dump_json

OBRIEN_FIG1 = {"loop_t": 1, "tl1": 1, "tr": 1, "tl2": 2, "lr": 2, "rt": 2}


def doubled_two_cycle():
    return Graph.build(
        ["p", "q"],
        [("a1", "p", "q"), ("a2", "p", "q"), ("b1", "q", "p"), ("b2", "q", "p")],
    )


def test_validate_strong_coloring(fig1):
    c = Coloring(2, OBRIEN_FIG1)
    report = validate_coloring(fig1, c)
    assert report.valid


def test_validate_rejects_shared_fiber_colors(fig1):
    bad = dict(OBRIEN_FIG1, rt=1)  # t now receives color 1 twice
    report = validate_coloring(fig1, Coloring(2, bad))
    assert not report.valid
    assert any(f.code == "not-strong" for f in report.findings)


def test_validate_flags_uncolored_and_out_of_range(fig1):
    partial = {k: v for k, v in OBRIEN_FIG1.items() if k != "lr"}
    report = validate_coloring(fig1, Coloring(2, partial))
    assert any(f.code == "uncolored-edge" for f in report.findings)
    report = validate_coloring(fig1, Coloring(2, dict(OBRIEN_FIG1, lr=7)))
    assert any(f.code == "color-out-of-range" for f in report.findings)


def test_backward_automaton_steps(fig1):
    c = Coloring(2, OBRIEN_FIG1)
    auto = backward_automaton(fig1, c)
    assert auto.step("t", 1) == ("t", "loop_t")
    assert auto.step("t", 2) == ("r", "rt")
    assert auto.step("l", 1) == ("t", "tl1")
    with pytest.raises(PartialAutomaton):
        auto.step("t", 9)


def test_backward_automaton_needs_strong_coloring(fig1):
    with pytest.raises(InvalidColoring):
        backward_automaton(fig1, Coloring(2, dict(OBRIEN_FIG1, rt=1)))


def test_follow_backward_reads_left_to_right(fig1):
    c = Coloring(2, OBRIEN_FIG1)
    src, path = follow_backward(fig1, c, "t", "12")
    # first letter is the edge applied last: loop_t at t, then rt into t
    assert src == "r"
    assert path.edges == ("loop_t", "rt")
    assert color_word(fig1, c, path) == "12"


def test_follow_backward_word_concatenation(rng, fig1):
    c = Coloring(2, OBRIEN_FIG1)
    for _ in range(30):
        w1 = "".join(rng.choice("12") for _ in range(rng.randint(0, 4)))
        w2 = "".join(rng.choice("12") for _ in range(rng.randint(0, 4)))
        v = rng.choice(sorted(fig1.vertices))
        mid, p1 = follow_backward(fig1, c, v, w1)
        end, p2 = follow_backward(fig1, c, mid, w2)
        whole_end, whole = follow_backward(fig1, c, v, w1 + w2)
        assert whole_end == end
        assert whole.edges == p1.edges + p2.edges


def test_is_synchronizing_word_matches_scan_oracle(rng, fig1):
    c = Coloring(2, OBRIEN_FIG1)
    for _ in range(40):
        word = "".join(rng.choice("12") for _ in range(rng.randint(0, 5)))
        assert is_synchronizing_word(fig1, c, word) == oracles.sync_target(
            fig1, c, word
        )


def test_find_synchronizing_word_is_shortest(fig1):
    c = Coloring(2, OBRIEN_FIG1)
    got = find_synchronizing_word(fig1, c)
    assert got is not None
    best = None
    for n in range(0, 6):
        for letters in itertools.product("12", repeat=n):
            word = "".join(letters)
            if oracles.sync_target(fig1, c, word):
                best = word
                break
        if best is not None:
            break
    assert len(got) == len(best)
    assert is_synchronizing_word(fig1, c, got)


def test_find_synchronizing_word_none_on_cycle():
    g = cycle_graph(2)
    c = Coloring(1, {"e1": 1, "e2": 1})
    assert find_synchronizing_word(g, c) is None


def test_greedy_merge_on_long_chain():
    # 25 vertices forces the pair-merge strategy; d = 1 so only one coloring
    n = 25
    verts = [f"w{i}" for i in range(n)]
    triples = [("loop", "w0", "w0")] + [
        (f"e{i}", f"w{i - 1}", f"w{i}") for i in range(1, n)
    ]
    g = Graph.build(verts, triples)
    c = Coloring(1, {eid: 1 for eid, _, _ in triples})
    word = find_synchronizing_word(g, c)
    assert word is not None
    assert oracles.sync_target(g, c, word) == "w0"


def test_search_on_figure_one(fig1):
    found = search_synchronizing_coloring(fig1)
    assert found is not None
    coloring, word = found
    assert validate_coloring(fig1, coloring).valid
    assert oracles.sync_target(fig1, coloring, word) is not None


def test_search_returns_none_on_periodic_graphs():
    for g in [cycle_graph(2), cycle_graph(3), doubled_two_cycle()]:
        assert search_synchronizing_coloring(g) is None


def test_an_over_budget_search_reports_the_first_count_past_the_budget(monkeypatch):
    # d = 3 on a 10-vertex graph: 6 candidates per fibre but the first, and
    # the count stops at the first product past the budget
    g = corpus.random_in_regular_graph(random.Random(1), 10, 3)
    for budget, count in ((10**7, 6**9), (1000, 6**4), (0, 1)):
        monkeypatch.setattr(rc, "SEARCH_BUDGET", budget)
        with pytest.raises(EnumerationOverflow) as err:
            search_synchronizing_coloring(g)
        assert str(err.value) == "coloring enumeration exceeds the budget"
        assert err.value.details == {"count": count, "budget": budget}


def test_search_requires_regular_in_degree():
    g = Graph.build(["a", "b"], [("e", "a", "b")])
    with pytest.raises(DomainError):
        search_synchronizing_coloring(g)


def test_obrien_coloring_frozen_expectation(fig1):
    coloring, word = obrien_coloring(fig1, "loop_t")
    assert word == "1"
    assert coloring.to_json_dict()["color"] == OBRIEN_FIG1
    assert oracles.sync_target(fig1, coloring, word) == "t"


def test_obrien_rejects_non_loop(fig1):
    with pytest.raises(DomainError):
        obrien_coloring(fig1, "tl1")


def test_syncdiag_produces_closed_path_with_word(rng, fig1):
    coloring, gamma = obrien_coloring(fig1, "loop_t")
    for _ in range(30):
        gamma_prime = "".join(rng.choice("12") for _ in range(rng.randint(0, 5)))
        diag = syncdiag_paths(fig1, coloring, gamma, gamma_prime)
        assert diag.vertex == "t"
        lam = diag.closed
        assert lam.base == "t"
        assert color_word(fig1, coloring, lam) == gamma_prime + gamma
        assert diag.color_word(fig1, coloring) == gamma_prime + gamma


def test_syncdiag_rejects_non_synchronizing_gamma(fig1):
    coloring, _ = obrien_coloring(fig1, "loop_t")
    with pytest.raises(DomainError):
        syncdiag_paths(fig1, coloring, "2", "1")


def test_synchronizing_guarantee_summary(fig1):
    out = synchronizing_guarantee(fig1)
    assert out["in_degree_regular"] and out["d"] == 2
    assert out["transitive"] and out["period"] == 1
    assert out["synchronizing_coloring"] is not None
    out2 = synchronizing_guarantee(cycle_graph(2))
    assert out2["period"] == 2
    assert out2["synchronizing_coloring"] is None


def test_coloring_json_round_trip(fig1):
    c = Coloring(2, OBRIEN_FIG1)
    assert Coloring.from_json_dict(c.to_json_dict()).to_json_dict() == c.to_json_dict()


def faulty_colorings(rng, g, c):
    """Seeded faults on a strong colouring c of g, one or two at a time."""
    pick = rng.choice(sorted(c.color))
    fiber = next(g.in_edges(v) for v in g.sorted_vertices() if len(g.in_edges(v)) > 1)
    yield c
    yield Coloring(c.d, dict(c.color, ghost=1))
    yield Coloring(c.d, {k: v for k, v in c.color.items() if k != pick})
    yield Coloring(c.d, dict(c.color, **{pick: 0}))
    yield Coloring(c.d, dict(c.color, **{pick: c.d + 1}))
    yield Coloring(c.d, dict(c.color, **{fiber[1]: c.color[fiber[0]]}))
    yield Coloring(c.d, dict(c.color, ghost=c.d + 1, **{fiber[0]: 0}))
    for d in (0, 10, 10**12):
        yield Coloring(d, c.color)


def test_validation_report_matches_sorted_scans(rng, monkeypatch):
    def bounded_range(*args):
        assert args[-1] <= 10**6, "range(1, d + 1) built for a huge d"
        return range(*args)

    monkeypatch.setattr(rc, "range", bounded_range, raising=False)
    codes, complete = set(), set()
    for _ in range(40):
        n, d = rng.randint(2, 12), rng.randint(2, 3)
        g = corpus.random_in_regular_graph(rng, n, d)
        c = Coloring(d, {})
        for v in g.sorted_vertices():
            c.color.update(zip(g.in_edges(v), rng.sample(range(1, d + 1), d)))
        gone = rng.choice(g.edges)  # its range vertex then misses a colour
        short = Graph.build(g.vertices, [(e.id, e.src, e.dst) for e in g.edges if e is not gone])
        rest = Coloring(d, {k: v for k, v in c.color.items() if k != gone.id})
        cases = [(g, bad) for bad in faulty_colorings(rng, g, c)] + [(short, c), (short, rest)]
        for h, bad in cases:
            got = validate_coloring(h, bad).to_json()
            assert got == oracles.validate_coloring(h, bad).to_json()
            codes.update(f["code"] for f in got["findings"])
            complete.update((got["valid"], f["message"]) for f in got["findings"] if f["code"] == "complete")
    assert codes == {
        "bad-d", "unknown-edge", "uncolored-edge", "color-out-of-range", "not-strong", "complete"
    }
    assert len(complete) == 4  # both verdicts, on valid and invalid colourings


def in_degree_ten_graph():
    """Two vertices, each receiving ten edges; a carries the loop l."""
    triples = [("l", "a", "a")] + [(f"x{k}", "b", "a") for k in range(9)]
    return Graph.build(["a", "b"], triples + [(f"y{k}", "a", "b") for k in range(10)])


D10_STDERR = """{
  "details": {
    "findings": [
      "color count d=10 outside 1..9"
    ]
  },
  "error": "invalid-coloring",
  "message": "coloring is not strong"
}
"""


def test_obrien_rejects_ten_colors(tmp_path, capsys):
    g = in_degree_ten_graph()
    with pytest.raises(InvalidColoring) as err:
        obrien_coloring(g, "l")
    assert err.value.details == {"findings": ["color count d=10 outside 1..9"]}
    path = tmp_path / "d10.json"
    path.write_text(dump_json(g.to_json_dict()))
    for fmt in ("json", "table"):
        assert main(["color", "obrien", str(path), "--loop", "l", "--format", fmt]) == 1
        assert capsys.readouterr() == ("", D10_STDERR)


def test_format_word_inverts_parse_word():
    for d in range(1, rc.MAX_COLORS + 1):
        for k in range(5):
            for letters in itertools.product("123456789"[:d], repeat=k):
                word = "".join(letters)
                parsed = rc.parse_word(word, d)
                assert parsed == [int(ch) for ch in word]
                assert rc.format_word(parsed) == rc.format_word(tuple(parsed)) == word


def test_uncoloured_edge_and_unknown_vertex_name_their_details(fig1):
    coloring, _ = obrien_coloring(fig1, "loop_t")
    for call, cls, message, details in (
        (lambda: Coloring(2, {}).of("tl1"), InvalidColoring, "edge has no color", {"edge": "tl1"}),
        (lambda: follow_backward(fig1, coloring, "nosuch", "1"), GraphFormatError,
         "unknown vertex", {"vertex": "nosuch"}),
    ):
        with pytest.raises(cls) as err:
            call()
        assert (type(err.value), str(err.value), err.value.details) == (cls, message, details)
