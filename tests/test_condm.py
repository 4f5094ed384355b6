import pytest

import corpus
import oracles
from semigroupoid_kit import (
    CycleType,
    DirectSum,
    DomainError,
    ExplicitAtomic,
    LeftRegular,
    MClass,
    NotACycle,
    Path,
    Phase,
    TailType,
    cycle_graph,
    cycle_vertices,
    directed_closure,
    looped_triangle,
    orbit_condition_M,
    primitive_root,
    pure_cycle_family,
)


def two_cycle_path():
    return Path("v1", ("e2", "e1"))  # v1 -e1-> v2 -e2-> v1


def test_explicit_pure_cycle_is_singular():
    fam = pure_cycle_family(cycle_graph(2), laps=3)
    rep = orbit_condition_M(fam, two_cycle_path())
    assert rep.kind is MClass.SINGULAR
    assert "[3]" in rep.detail  # one lap-advance orbit of length 3


def test_explicit_laps_one_gives_fixed_points():
    fam = pure_cycle_family(cycle_graph(2), laps=1)
    rep = orbit_condition_M(fam, two_cycle_path())
    assert rep.kind is MClass.SINGULAR
    assert "[1]" in rep.detail


def test_explicit_partial_data_is_not_unitary():
    g = cycle_graph(2)
    fam = pure_cycle_family(g, laps=2)
    pi = {e: dict(m) for e, m in fam.pi.items()}
    del pi["e1"]["i0"]  # break the cycle action on one index
    broken = ExplicitAtomic(g, fam.lam, pi, fam.phases)
    rep = orbit_condition_M(broken, two_cycle_path())
    assert rep.kind is MClass.NOT_UNITARY
    assert "undefined" in rep.detail


def test_explicit_empty_base_is_singular():
    g = corpus.loop_sink_graph()
    fam = ExplicitAtomic(g, {"v": (), "w": ("j",)}, {"loop": {}, "out": {}})
    rep = orbit_condition_M(fam, Path("v", ("loop",)))
    assert rep.kind is MClass.SINGULAR
    assert "compression is zero" in rep.detail


def test_left_regular_at_supported_base_is_not_unitary(fig1):
    rep = orbit_condition_M(LeftRegular("t"), Path("t", ("loop_t",)), fig1)
    assert rep.kind is MClass.NOT_UNITARY


def test_left_regular_away_from_cycle_is_singular():
    g = corpus.loop_sink_graph()
    rep = orbit_condition_M(LeftRegular("w"), Path("v", ("loop",)), g)
    assert rep.kind is MClass.SINGULAR
    assert "compression is zero" in rep.detail


def test_bare_cycle_atom_is_singular():
    g = cycle_graph(2)
    fam = CycleType(two_cycle_path(), Phase.from_turns(1, 3))
    rep = orbit_condition_M(fam, two_cycle_path(), g)
    assert rep.kind is MClass.SINGULAR
    assert "permutes" in rep.detail


def test_cycle_atom_with_returning_trees_is_not_unitary(fig1):
    # trees leave the loop at t through tl1/tl2/tr and flow back in via rt
    fam = CycleType(Path("t", ("loop_t",)), Phase.one())
    rep = orbit_condition_M(fam, Path("t", ("loop_t",)), fig1)
    assert rep.kind is MClass.NOT_UNITARY
    assert "rt" in rep.detail


def test_tail_on_bare_loop_dominates_lebesgue():
    g = cycle_graph(1)
    loop = Path("v1", ("e1",))
    rep = orbit_condition_M(TailType(loop), loop, g)
    assert rep.kind is MClass.DOMINATES_LEBESGUE


def test_tail_at_its_period_on_longer_cycles():
    g = cycle_graph(3)
    w = Path("v1", ("e3", "e2", "e1"))
    rep = orbit_condition_M(TailType(w), w, g)
    assert rep.kind is MClass.DOMINATES_LEBESGUE


def test_direct_sum_priorities():
    g = cycle_graph(1)
    loop = Path("v1", ("e1",))
    singular = CycleType(loop, Phase.one())
    dominating = TailType(loop)
    escaping = LeftRegular("v1")
    both = DirectSum(((singular, 1), (dominating, 1)))
    assert orbit_condition_M(both, loop, g).kind is MClass.DOMINATES_LEBESGUE
    with_left = DirectSum(((dominating, 1), (escaping, 2)))
    assert orbit_condition_M(with_left, loop, g).kind is MClass.NOT_UNITARY
    two_cycles = DirectSum(((singular, 1), (CycleType(loop, Phase.from_turns(1, 2)), 1)))
    assert orbit_condition_M(two_cycles, loop, g).kind is MClass.SINGULAR


def test_trivial_cycle_is_singular(fig1):
    rep = orbit_condition_M(LeftRegular("t"), Path.vertex("t"), fig1)
    assert rep.kind is MClass.SINGULAR
    assert "identity" in rep.detail


def test_non_cycle_rejected(fig1):
    with pytest.raises(NotACycle):
        orbit_condition_M(LeftRegular("t"), Path("t", ("tl1",)), fig1)


def test_canonical_needs_graph():
    with pytest.raises(DomainError):
        orbit_condition_M(LeftRegular("t"), Path("t", ("loop_t",)))


def test_long_power_of_the_loop_names_the_next_word(fig1):
    # every length-20 incoming word at t stays in the support {t, l, r}; the
    # least one is loop_t^20 = mu itself, the next branches off at its last step
    fam = CycleType(Path("t", ("loop_t",)), Phase.one())
    rep = orbit_condition_M(fam, Path("t", ("loop_t",) * 20), fig1)
    assert rep.kind is MClass.NOT_UNITARY
    assert rep.detail == (
        f"a second incoming word {['loop_t'] * 19 + ['rt']} lands at t, so S_mu is not onto"
    )


def test_second_incoming_word_witness_is_the_least(fig1):
    mu = Path("t", ("rt", "tr"))
    rep = orbit_condition_M(CycleType(mu, Phase.one()), mu, fig1)
    assert rep.kind is MClass.NOT_UNITARY
    # the incoming words of length 2 at t, other than mu, are loop_t loop_t,
    # loop_t rt and rt lr; the least is named whatever the hash seed
    assert rep.detail == (
        "a second incoming word ['loop_t', 'loop_t'] lands at t, so S_mu is not onto"
    )


def _closed_walks(g, v, max_len):
    """Every cycle of length 1..max_len based at v."""
    return [
        Path(v, edges)
        for _, edges in oracles.walks_from(g, v, max_len)
        if edges and g.dst(edges[0]) == v
    ]


def _random_families(rng, g):
    """Cycle and tail families on the short cycles of g, and sums of them."""
    singles = []
    for v in g.sorted_vertices():
        for w in _closed_walks(g, v, 3):
            singles.append(CycleType(w, corpus.random_phase(rng)))
            singles.append(TailType(primitive_root(g, w)[0]))
    if not singles:
        return []
    picked = rng.sample(singles, min(4, len(singles)))
    parts = [(fam, rng.choice([1, 2, "omega"])) for fam in rng.sample(singles, min(2, len(singles)))]
    parts.append((LeftRegular(rng.choice(g.sorted_vertices())), 1))
    return picked + [DirectSum(tuple(parts))]


def _memoized_incoming_words():
    """``oracles.incoming_words`` for one graph, computed once per
    (vertex, length, support)."""
    memo = {}

    def words(g, v, n, support):
        key = (v, n, frozenset(support))
        if key not in memo:
            memo[key] = oracles.incoming_words(g, v, n, support)
        return memo[key]

    return words


def test_canonical_verdicts_match_the_word_enumeration(rng):
    cases = 0
    for _ in range(30):
        g = corpus.random_graph(rng, max_v=6, max_e=9)
        words = _memoized_incoming_words()
        for fam in _random_families(rng, g):
            for v in g.sorted_vertices():
                for mu in _closed_walks(g, v, 5):
                    rep = orbit_condition_M(fam, mu, g)
                    expected = oracles.condM_canonical(g, fam, mu, words)
                    assert (rep.kind.value, rep.detail) == expected, (g, fam, mu)
                    cases += 1
    assert cases > 3000



def _cycles(g, max_len=4):
    return [w for v in g.sorted_vertices() for w in _closed_walks(g, v, max_len)]


def test_cycle_closure_is_the_cycle_and_its_tree(rng):
    cases = 0
    for _ in range(30):
        g = corpus.random_graph(rng, max_v=6, max_e=9)
        for w in _cycles(g):
            vertices = cycle_vertices(g, w)
            assert directed_closure(g, vertices) == set(vertices) | oracles.cycle_tree(g, w)
            cases += 1
    assert cases > 300


def test_a_lone_incoming_word_keeps_the_base_off_the_tree(rng):
    # the ladder case of the oracle verdict never arises on cycle families
    lone = 0
    for _ in range(40):
        g = corpus.random_graph(rng, max_v=6, max_e=9)
        cycles = _cycles(g)
        for w in rng.sample(cycles, min(3, len(cycles))):
            tree = oracles.cycle_tree(g, w)
            support = set(cycle_vertices(g, w)) | tree
            for mu in _cycles(g, 3):
                if mu.base in support and oracles.incoming_words(
                    g, mu.base, len(mu), support
                ) == {mu.edges}:
                    lone += 1
                    assert mu.base not in tree, (g, w, mu)
    assert lone > 50
