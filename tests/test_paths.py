import itertools

import pytest

import corpus
import oracles
from semigroupoid_kit import (
    CycleClass,
    Graph,
    GraphFormatError,
    Path,
    PathError,
    compose,
    cycle_graph,
    cycle_vertices,
    cyclic_canonical_form,
    enumerate_paths,
    irreducible_cycles_at,
    is_cycle,
    is_primitive,
    looped_triangle,
    path_range,
    primitive_root,
    rotations,
    source,
    validate_path,
    vertex_cycle_class,
)
from semigroupoid_kit.paths import least_rotation_index


def test_path_validation(fig1):
    p = Path("t", ("rt", "lr", "tl1"))  # t -tl1-> l -lr-> r -rt-> t
    validate_path(fig1, p)
    assert source(fig1, p) == "t"
    assert path_range(fig1, p) == "t"
    assert is_cycle(fig1, p)
    with pytest.raises(PathError) as err:
        validate_path(fig1, Path("t", ("rt", "tl1")))  # not composable: tl1 ends at l, rt leaves r
    assert str(err.value) == "edges are not composable"
    assert err.value.details == {"left": "rt", "right": "tl1", "need": "r", "got": "l"}
    with pytest.raises(PathError):
        validate_path(fig1, Path("l", ("tl1",)))  # wrong base


def test_path_errors_name_their_details(fig1):
    cases = [
        (lambda: Path.of(fig1, ()), PathError,
         "cannot infer the base vertex of an empty path", {}),
        (lambda: enumerate_paths(fig1, ["t"], -1), PathError,
         "max_len must be nonnegative", {"max_len": -1}),
        (lambda: irreducible_cycles_at(fig1, "nosuch", 2), GraphFormatError,
         "unknown vertex", {"vertex": "nosuch"}),
    ]
    for call, cls, message, details in cases:
        with pytest.raises(cls) as err:
            call()
        assert (type(err.value), str(err.value), err.value.details) == (cls, message, details)


def test_path_of_infers_base(fig1):
    p = Path.of(fig1, ("rt", "lr", "tl1"))
    assert p.base == "t"


def test_compose_concatenates_when_ends_meet(fig1):
    mu = Path("l", ("lr",))  # l -> r
    nu = Path("t", ("tl1",))  # t -> l
    out = compose(fig1, mu, nu)
    assert out == Path("t", ("lr", "tl1"))
    assert compose(fig1, nu, mu) is None


def test_compose_lengths_and_identities(fig1):
    vt = Path.vertex("t")
    mu = Path("t", ("tl1",))
    assert compose(fig1, mu, vt) == mu
    assert compose(fig1, Path.vertex("l"), mu) == mu
    assert len(compose(fig1, Path("l", ("lr",)), mu)) == 2


def test_enumerate_matches_recursive_oracle(rng):
    for _ in range(25):
        g = corpus.random_graph(rng, max_v=4, max_e=6)
        starts = sorted(g.vertices)[:2]
        got = {(p.base, p.edges) for p in enumerate_paths(g, starts, 3)}
        want = set()
        for s in starts:
            want |= set(oracles.walks_from(g, s, 3))
        assert got == want


def test_enumerate_orders_by_grade(fig1):
    out = enumerate_paths(fig1, ["t"], 2)
    grades = [len(p) for p in out]
    assert grades == sorted(grades)
    assert len(set(out)) == len(out)


def test_figure_one_path_counts(fig1):
    assert len(enumerate_paths(fig1, ["t"], 1)) == 5  # vertex + 4 edges
    cycles = irreducible_cycles_at(fig1, "t", 3)
    assert [c.edges for c in cycles] == [
        ("loop_t",),
        ("rt", "tr"),
        ("rt", "lr", "tl1"),
        ("rt", "lr", "tl2"),
    ]


def test_irreducible_cycles_match_oracle(rng):
    for _ in range(25):
        g = corpus.random_graph(rng, max_v=4, max_e=6)
        v = sorted(g.vertices)[0]
        got = {c.edges for c in irreducible_cycles_at(g, v, 4)}
        assert got == set(oracles.cycles_at(g, v, 4))


def test_irreducible_cycle_count_is_exact(rng, monkeypatch):
    from semigroupoid_kit import EnumerationOverflow, paths

    cap = paths.BASIS_CAP
    for _ in range(40):
        g = corpus.random_graph(rng, max_v=4, max_e=7)
        v = sorted(g.vertices)[0]
        max_len = rng.randint(1, 6)
        monkeypatch.setattr(paths, "BASIS_CAP", cap)
        found = irreducible_cycles_at(g, v, max_len)
        if not found:
            continue
        # a budget one short of the count overflows at the last cycle length
        monkeypatch.setattr(paths, "BASIS_CAP", len(found) - 1)
        with pytest.raises(EnumerationOverflow) as err:
            irreducible_cycles_at(g, v, max_len)
        assert err.value.details["count"] == len(found)
        assert err.value.details["length"] == len(found[-1].edges)
        monkeypatch.setattr(paths, "BASIS_CAP", len(found))
        assert irreducible_cycles_at(g, v, max_len) == found


def test_irreducible_cycles_skip_walks_that_cannot_return():
    # from v the walks may wander among two loops at a and never come back;
    # only the loop at v closes, whatever the length bound
    g = Graph.build(
        ["v", "a"],
        [("lv", "v", "v"), ("va", "v", "a"), ("l1", "a", "a"), ("l2", "a", "a")],
    )
    assert irreducible_cycles_at(g, "v", 10**6) == [Path("v", ("lv",))]


def test_cycle_trichotomy():
    assert vertex_cycle_class(cycle_graph(3), "v1") is CycleClass.SIMPLE_CYCLE
    assert vertex_cycle_class(looped_triangle(), "t") is CycleClass.TWO_PLUS
    dag = Graph.build(["a", "b"], [("e", "a", "b")])
    assert vertex_cycle_class(dag, "a") is CycleClass.NO_CYCLE


def test_cycle_trichotomy_counts_irreducible_cycles(rng):
    # an irreducible cycle at v that leaves a simple cycle through v takes
    # a shortest path out to the extra edge and one back, so 2|V| suffices
    by_count = [CycleClass.NO_CYCLE, CycleClass.SIMPLE_CYCLE]
    seen = set()
    for _ in range(300):
        g = corpus.random_graph(rng)
        for v in g.vertices:
            count = len(oracles.cycles_at(g, v, 2 * len(g.vertices)))
            want = by_count[count] if count < 2 else CycleClass.TWO_PLUS
            assert vertex_cycle_class(g, v) is want
            seen.add(want)
    assert seen == set(CycleClass)


def test_primitive_root_and_powers():
    g = cycle_graph(2)
    w = Path("v1", ("e2", "e1", "e2", "e1"))  # the 2-cycle squared
    u, p = primitive_root(g, w)
    assert p == 2 and len(u) == 2
    assert is_primitive(g, u)
    assert not is_primitive(g, w)


def test_primitive_root_of_primitive_is_itself(fig1):
    w = Path("t", ("rt", "lr", "tl1"))
    u, p = primitive_root(fig1, w)
    assert p == 1 and u == w


def test_rotations_and_canonical_form(fig1):
    w = Path("t", ("rt", "lr", "tl1"))
    rots = rotations(fig1, w)
    assert len(rots) == 3
    canon = cyclic_canonical_form(fig1, w)
    assert canon in rots
    # every rotation canonicalizes to the same representative
    for r in rots:
        assert cyclic_canonical_form(fig1, r) == canon
        assert is_cycle(fig1, r)


def test_least_rotation_index_is_the_least_start_of_the_least_rotation():
    count = 0
    for n in range(1, 9):
        for letters in range(1, 4):
            for seq in itertools.product("abc"[:letters], repeat=n):
                rots = [seq[j:] + seq[:j] for j in range(n)]
                assert least_rotation_index(seq) == rots.index(min(rots)), seq
                count += 1
    assert count == 10358


def test_cycle_vertices_walk_order(fig1):
    w = Path("t", ("rt", "lr", "tl1"))
    assert cycle_vertices(fig1, w) == ["t", "l", "r"]


def test_a_path_is_the_tuple_of_its_base_and_edges(fig1):
    import copy
    import pickle

    paths = enumerate_paths(fig1, fig1.vertices, 3)
    assert Path.__hash__ is tuple.__hash__
    for p in paths:
        assert p == (p.base, p.edges) and hash(p) == hash((p.base, p.edges))
        assert len(p) == len(p.edges)
        base, edges = p
        assert Path(base=base, edges=edges) == p and (base, edges) == (p.base, p.edges)
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(twin) is Path and twin == p
    # ordering is the order of (base, edges), as for the frozen dataclass
    shuffled = sorted(paths, key=lambda p: (len(p.edges), p.edges[::-1], p.base))
    assert sorted(shuffled) == sorted(paths, key=lambda p: (p.base, p.edges))
    for p, q in itertools.product(paths[:12], paths[-12:]):
        assert (p < q) == ((p.base, p.edges) < (q.base, q.edges))
    assert len(Path.vertex("t")) == 0 and Path("t") == Path.vertex("t")
    assert repr(Path("t", ("loop_t",))) == "Path(base='t', edges=('loop_t',))"


def test_a_path_cannot_be_edited():
    p = Path("t", ("loop_t",))
    for name in ("base", "edges", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, "x")
    assert p == Path("t", ("loop_t",)) and not hasattr(p, "__dict__")
