import cmath
from fractions import Fraction

import pytest

import corpus
import oracles
from semigroupoid_kit import (
    OMEGA,
    AtomDecomposition,
    CycleAtom,
    CycleType,
    DirectSum,
    DomainError,
    ExplicitAtomic,
    Graph,
    LeftRegular,
    LeftRegularAtom,
    NonTotalPresentation,
    NotACycle,
    Path,
    Phase,
    TailAtom,
    TailType,
    are_unitarily_equivalent,
    build_H,
    classify,
    compare_decompositions,
    cycle_graph,
    cycle_structure_multiplicities,
    decompose_cycle,
    finitely_correlated_multiplicities,
    gauge_transform,
    is_primitive,
    looped_triangle,
    pure_cycle_family,
    relabel,
    trace_backward,
    validate_atomic,
    validate_canonical,
    wold_atomic,
)
from semigroupoid_kit.atomic import CycleFound, RootFound, atoms_equal, describe_atom


def two_vertex_dag():
    return Graph.build(["a", "b"], [("e", "a", "b")])


def test_validate_flags_duplicate_labels():
    g = two_vertex_dag()
    fam = ExplicitAtomic(g, {"a": ("i", "i"), "b": ("j",)}, {"e": {"i": "j"}})
    report = validate_atomic(fam)
    assert not report.valid


def test_validate_flags_non_injective_edge():
    g = Graph.build(["a", "b"], [("e", "a", "b")])
    fam = ExplicitAtomic(
        g, {"a": ("i1", "i2"), "b": ("j",)}, {"e": {"i1": "j", "i2": "j"}}
    )
    report = validate_atomic(fam)
    assert not report.valid


def test_validate_flags_overlapping_ranges():
    g = Graph.build(["a", "b", "c"], [("e1", "a", "c"), ("e2", "b", "c")])
    fam = ExplicitAtomic(
        g,
        {"a": ("i",), "b": ("k",), "c": ("j",)},
        {"e1": {"i": "j"}, "e2": {"k": "j"}},
    )
    report = validate_atomic(fam)
    assert not report.valid


def test_validate_flags_partial_family():
    g = two_vertex_dag()
    fam = ExplicitAtomic(g, {"a": ("i",), "b": ()}, {"e": {}})
    assert not validate_atomic(fam, require_total=True).valid
    assert validate_atomic(fam, require_total=False).valid


def test_H_in_degree_at_most_one(rng):
    for _ in range(30):
        g = corpus.random_graph(rng, max_v=5, max_e=6, acyclic=True)
        fam, _ = corpus.random_root_family(rng, g)
        h = build_H(fam)
        for node in h.nodes:
            assert h.pred[node] is None or h.pred[node].dst == node


def test_trace_backward_finds_roots_on_trees():
    g = two_vertex_dag()
    fam = ExplicitAtomic(g, {"a": ("i",), "b": ("j",)}, {"e": {"i": "j"}})
    h = build_H(fam)
    hit = trace_backward(h, ("b", "j"))
    assert isinstance(hit, RootFound)
    assert hit.root == ("a", "i")
    assert hit.path.edges == ("e",)


def test_trace_backward_finds_cycles():
    g = cycle_graph(2)
    fam = pure_cycle_family(g, laps=1)
    h = build_H(fam)
    hit = trace_backward(h, ("v1", "i0"))
    assert isinstance(hit, CycleFound)
    assert len(hit.cycle) == 2
    assert hit.phase.turns == 0


def test_component_count_matches_roots_plus_cycles(rng):
    for _ in range(20):
        g = corpus.random_graph(rng, max_v=5, max_e=6, acyclic=True)
        fam, fresh = corpus.random_root_family(rng, g)
        h = build_H(fam)
        comps = h.components()
        assert len(comps) == sum(fresh.values())


def test_classify_root_family_matches_construction(rng):
    for _ in range(40):
        g = corpus.random_graph(rng, max_v=5, max_e=6, acyclic=True)
        fam, fresh = corpus.random_root_family(rng, g)
        dec = classify(g, fam)
        got = {}
        for atom, mult in dec.atoms:
            assert isinstance(atom, LeftRegularAtom)
            got[atom.vertex] = mult
        assert got == fresh


def test_classify_rejects_partial_data():
    g = two_vertex_dag()
    fam = ExplicitAtomic(g, {"a": ("i",), "b": ()}, {"e": {}})
    with pytest.raises(NonTotalPresentation):
        classify(g, fam)


def test_decompose_cycle_exact_roots():
    g = cycle_graph(1)
    w = Path("v1", ("e1",) * 3)
    lam = Phase.from_turns(1, 2)
    atoms = decompose_cycle(g, w, lam)
    assert len(atoms) == 3
    turns = {a.phase.turns for a, _ in atoms}
    assert turns == oracles.root_turn_set(Fraction(1, 2), 3)
    for atom, mult in atoms:
        assert mult == 1
        assert isinstance(atom, CycleAtom)
        assert len(atom.cycle) == 1
        assert (atom.phase ** 3).turns == lam.turns  # definitional root check


def test_classify_cycle_family_phases_multiply_to_total(rng):
    for _ in range(30):
        g, fam, laps, total = corpus.random_cycle_family(rng)
        dec = classify(g, fam)
        assert len(dec.atoms) == laps
        for atom, mult in dec.atoms:
            assert isinstance(atom, CycleAtom)
            assert mult == 1
            assert (atom.phase ** laps).turns == total


def test_classify_loop_sink_family(rng):
    fam, total, sink_roots = corpus.random_loop_sink_family(rng, laps=2, sink_roots=1)
    g = fam.graph
    dec = classify(g, fam)
    kinds = {}
    for atom, mult in dec.atoms:
        kinds.setdefault(type(atom).__name__, 0)
        kinds[type(atom).__name__] += mult
    assert kinds == {"CycleType": 2, "LeftRegular": 1}  # an atom is a canonical family
    for atom, _ in dec.atoms:
        if isinstance(atom, CycleAtom):
            assert (atom.phase ** 2).turns == total


def test_classify_canonical_direct_sum(fig1):
    w = Path("t", ("loop_t",))
    fam = DirectSum(
        (
            (LeftRegular("t"), 2),
            (CycleType(w, Phase.from_turns(1, 4)), 1),
            (TailType(w), OMEGA),
        )
    )
    dec = classify(fig1, fam)
    got = {(type(a).__name__, m) for a, m in dec.atoms}
    assert ("LeftRegular", 2) in got
    assert ("CycleType", 1) in got
    assert ("TailType", OMEGA) in got


def test_canonical_validation_rejects_bad_data(fig1):
    with pytest.raises(DomainError):
        validate_canonical(fig1, LeftRegular("nope"))
    with pytest.raises(NotACycle):
        validate_canonical(fig1, CycleType(Path("t", ("tl1",)), Phase.one()))
    with pytest.raises(DomainError):
        # tails must be given by a primitive cycle
        validate_canonical(fig1, TailType(Path("t", ("loop_t", "loop_t"))))


def test_wold_alpha_equals_fresh_counts(rng):
    for _ in range(40):
        g = corpus.random_graph(rng, max_v=5, max_e=6, acyclic=True)
        fam, fresh = corpus.random_root_family(rng, g)
        data = wold_atomic(fam)
        assert {v: m for v, m in data.alpha.items() if m} == fresh
        assert not data.remainder_nodes  # acyclic: no fully coisometric part


def test_wold_cycle_family_is_remainder_only(rng):
    g, fam, laps, _ = corpus.random_cycle_family(rng, n=2, laps=2)
    data = wold_atomic(fam)
    assert all(m == 0 for m in data.alpha.values())
    assert len(data.remainder_nodes) == fam.dim()
    assert data.supported_on_g0


def test_multiplicity_formulas_agree(rng, fig1):
    for _ in range(30):
        g = corpus.random_graph(rng, max_v=5, max_e=8)
        vs = sorted(g.vertices)
        v = vs[0]
        from semigroupoid_kit import irreducible_cycles_at

        cycles = irreducible_cycles_at(g, v, 4)
        if not cycles:
            continue
        w = cycles[0]
        from semigroupoid_kit import cycle_vertices

        visits = cycle_vertices(g, w)
        rank = {u: visits.count(u) for u in g.vertices}
        a = cycle_structure_multiplicities(g, w)
        b = finitely_correlated_multiplicities(g, rank)
        for u in g.vertices:
            assert a.get(u, 0) == b.get(u, 0)


def test_cycle_structure_multiplicities_by_hand(fig1):
    w = Path("t", ("loop_t",))
    # other edges out of t: tl1, tl2, tr -> one wandering dimension at each dst
    alpha = cycle_structure_multiplicities(fig1, w)
    assert {v: m for v, m in alpha.items() if m} == {"l": 2, "r": 1}


def test_gauge_and_relabel_preserve_equivalence(rng):
    for _ in range(25):
        g = corpus.random_graph(rng, max_v=5, max_e=6, acyclic=True)
        fam, _ = corpus.random_root_family(rng, g)
        moved = gauge_transform(fam, corpus.random_gauge(rng, fam))
        moved = relabel(moved, corpus.random_relabeling(rng, moved))
        verdict = are_unitarily_equivalent(g, fam, moved)
        assert verdict.equivalent, verdict.witness


def test_gauge_preserves_cycle_products(rng):
    for _ in range(25):
        g, fam, laps, total = corpus.random_cycle_family(rng)
        moved = gauge_transform(fam, corpus.random_gauge(rng, fam))
        dec = classify(g, moved)
        for atom, _ in dec.atoms:
            assert (atom.phase ** laps).turns == total


def test_phase_shift_breaks_equivalence(rng):
    g, fam, laps, total = corpus.random_cycle_family(rng, n=2, laps=2)
    arc = ("e1", "i0")
    shifted = dict(fam.phases)
    shifted[arc] = fam.phases.get(arc, Phase.one()) * Phase.from_turns(1, 2)
    other = ExplicitAtomic(g, fam.lam, fam.pi, shifted)
    verdict = are_unitarily_equivalent(g, fam, other)
    assert not verdict.equivalent


def test_fresh_count_change_breaks_equivalence(rng):
    g = corpus.random_graph(rng, max_v=4, max_e=5, acyclic=True)
    fam, fresh = corpus.random_root_family(rng, g)
    sink = next(v for v in corpus.topological_order(g)[::-1] if not g.out_edges(v))
    lam = dict(fam.lam)
    lam[sink] = lam[sink] + (f"extra{len(lam[sink])}",)
    other = ExplicitAtomic(g, lam, fam.pi, fam.phases)
    verdict = are_unitarily_equivalent(g, fam, other)
    assert not verdict.equivalent
    assert verdict.witness


def test_compare_decompositions_reports_witness(fig1):
    a = classify(fig1, LeftRegular("t"))
    b = classify(fig1, LeftRegular("l"))
    rep = compare_decompositions(a, b)
    assert not rep.equivalent and "atom" in rep.witness


def _approx_phase(rng):
    return Phase.from_complex(cmath.exp(1j * rng.uniform(-4, 4)))


def _canonical_sums(rng, g, count, approx=False):
    """Direct sums on ``g`` of one to four left-regular, cycle and tail
    families, on closed walks of length at most 4, with multiplicities 1 to
    3 or omega; cycle phases are exact, or approximate with ``approx``."""
    closed = [Path(v, w) for v in g.sorted_vertices() for _, w in oracles.walks_from(g, v, 4)
              if w and g.dst(w[0]) == v]
    tails = [w for w in closed if is_primitive(g, w)]
    sums = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                part = LeftRegular(rng.choice(g.sorted_vertices()))
            elif kind == 1:
                phase = _approx_phase(rng) if approx else corpus.random_phase(rng)
                part = CycleType(rng.choice(closed), phase)
            else:
                part = TailType(rng.choice(tails))
            parts.append((part, rng.choice([1, 2, 3, OMEGA])))
        sums.append(DirectSum(tuple(parts)))
    return sums


def test_classification_is_a_fixed_point_on_its_own_atoms(rng, fig1):
    """An atom is a canonical family in normal form: a decomposition's
    atoms, summed, classify to the same atoms and notes, and the sum is
    equivalent to the family it came from.  That holds to the bit for
    approximate phases too: an atom's phase is not rebuilt from its angle."""
    cases = []
    for _ in range(40):
        g = corpus.random_graph(rng, max_v=6, max_e=9, acyclic=True)
        cases.append(corpus.random_root_family(rng, g)[0])
        cases.append(corpus.random_loop_sink_family(rng, rng.randint(1, 3))[0])
        cases.append(corpus.random_cycle_family(rng)[1])
        n, laps = rng.randint(1, 3), rng.randint(1, 2)
        phases = [_approx_phase(rng) for _ in range(n * laps)]
        cases.append(pure_cycle_family(cycle_graph(n), laps, phases))
    cases = [(fam.graph, fam) for fam in cases]
    for g in (fig1, corpus.loop_sink_graph(), cycle_graph(3)):
        cases += [(g, fam) for fam in _canonical_sums(rng, g, 40)]
        cases += [(g, fam) for fam in _canonical_sums(rng, g, 40, approx=True)]
    loop = Path("t", ("loop_t",))
    for _ in range(200):
        ph = _approx_phase(rng)
        assert classify(fig1, CycleType(loop, ph)).atoms == [(CycleType(loop, ph), 1)]
    kinds = set()
    for g, fam in cases:
        dec = classify(g, fam)
        atoms = DirectSum(tuple(dec.atoms))
        again = classify(g, atoms)
        assert (again.atoms, again.notes) == (dec.atoms, dec.notes)
        assert are_unitarily_equivalent(g, fam, atoms).equivalent
        assert are_unitarily_equivalent(g, atoms, fam).equivalent
        kinds |= {type(atom) for atom, _ in dec.atoms}
    assert kinds == {LeftRegular, CycleType, TailType}


def test_equivalence_sums_the_atoms_of_a_tolerance_class():
    """Two loops of H on one graph loop, at a quarter turn: exact in both in
    one family, exact and approximate in the other.  The second family has
    two cycle atoms within tolerance, the first one of multiplicity 2."""
    g = Graph.build(["v"], [("e", "v", "v")])
    quarter = Phase.from_turns(1, 4)

    def family(phase_b):
        pi = {"e": {"a": "a", "b": "b"}}
        return ExplicitAtomic(g, {"v": ("a", "b")}, pi, {("e", "a"): quarter, ("e", "b"): phase_b})

    mixed, exact = family(Phase.from_complex(1j)), family(quarter)
    assert [m for _, m in classify(g, mixed).atoms] == [1, 1]
    assert [m for _, m in classify(g, exact).atoms] == [2]
    for a, b in ((mixed, exact), (exact, mixed)):
        verdict = are_unitarily_equivalent(g, a, b)
        assert (verdict.equivalent, verdict.witness) == (True, "atom multisets agree")
    other = family(Phase.from_complex(-1j))
    verdict = are_unitarily_equivalent(g, other, exact)
    at = describe_atom(CycleType(Path("v", ("e",)), quarter))
    assert verdict.witness == f"multiplicity differs at {at}: 1 vs 2"


def test_a_negative_or_nan_tolerance_is_refused():
    """A tolerance below 0 makes every angle window empty, so inequivalent
    families would agree; it is refused, before equal lists are answered."""
    g = cycle_graph(1)
    a = pure_cycle_family(g, 1, [Phase.from_turns(1, 4)])
    b = pure_cycle_family(g, 2, [Phase.from_turns(1, 4), Phase.one()])
    for tol in (1e-9, 0.0):
        verdict = are_unitarily_equivalent(g, a, b, tol)
        assert not verdict.equivalent and verdict.witness.startswith("unmatched atom")
    assert are_unitarily_equivalent(g, a, a, 0.0).equivalent
    da = classify(g, a)
    for tol in (-1.0, -1e-300, float("nan"), float("-inf")):
        for left, right in ((da, classify(g, b)), (da, da)):
            with pytest.raises(DomainError) as err:
                compare_decompositions(left, right, tol)
            assert str(err.value) == "tolerance must be a nonnegative number"
            assert err.value.details["tol"] is tol


def _random_decomposition(rng, cycles):
    """Atoms on a few vertices and ``cycles``, with exact phases, their
    approximate twins, neighbours nearer and farther than 1e-9, and
    approximate phases just below a full turn."""
    atoms = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            atom = LeftRegular(rng.choice("abc"))
        elif kind == 1:
            atom = TailType(rng.choice(cycles))
        else:
            exact = rng.choice([Phase.one(), Phase.from_turns(1, 4), Phase.from_turns(1, 3)])
            shift = rng.choice([0.0, 0.0, 2e-10, -2e-10, 3e-9, -1e-12])
            phase = rng.choice([exact, Phase.from_complex(exact.value * cmath.exp(1j * shift))])
            atom = CycleType(rng.choice(cycles), phase)
        atoms.append((atom, rng.choice([1, 1, 2, OMEGA])))
    return AtomDecomposition(atoms)


def test_equivalence_matches_its_definition_and_the_one_to_one_witness(rng):
    """The merged walk against every pair of atoms; where each tolerance
    class holds one atom of each side, its witness is the one-to-one
    matching's, byte for byte."""
    cycles = [Path("v", ("e",)), Path("v", ("f", "e"))]
    singletons = 0
    for _ in range(3000):
        da, db = (_random_decomposition(rng, cycles) for _ in range(2))
        got = compare_decompositions(da, db)
        assert got == oracles.compare_decompositions(da, db)
        sides = (da.atoms, db.atoms)
        if all(sum(atoms_equal(x, y) for y, _ in side) <= 1 for x, _ in da.atoms + db.atoms
               for side in sides):
            singletons += 1
            assert got == oracles.compare_one_to_one(da, db)
    assert singletons > 1000


def test_equal_atom_lists_agree_without_the_merged_walk(rng, monkeypatch):
    """Sorted and merged, equal lists are equal multisets: they agree at any
    tolerance, and the walk, which orders atoms by their sort key, is not run."""
    from semigroupoid_kit import atomic

    cycles = [Path("v", ("e",)), Path("v", ("f", "e"))]
    pairs = []
    for _ in range(200):
        da = _random_decomposition(rng, cycles)
        pairs.append((da, AtomDecomposition(list(da.atoms))))
    want = [oracles.compare_decompositions(da, db, 0.0) for da, db in pairs]

    def refuse(atom):
        raise AssertionError("equal lists were walked")

    monkeypatch.setattr(atomic, "_atom_sort_key", refuse)
    for (da, db), verdict in zip(pairs, want):
        for tol in (0.0, 1e-9, 1.0):
            got = compare_decompositions(da, db, tol)
            assert got == verdict == atomic.EquivalenceReport(True, "atom multisets agree")


def test_equivalence_of_identical_canonical(fig1):
    w = Path("t", ("rt", "lr", "tl1"))
    rotated = Path("l", ("tl1", "rt", "lr"))  # same cycle, rotated
    a = CycleType(w, Phase.from_turns(1, 3))
    b = CycleType(rotated, Phase.from_turns(1, 3))
    assert are_unitarily_equivalent(fig1, a, b).equivalent


def test_classified_and_traced_phases_are_the_shared_exact_values(rng):
    """A cycle's phase product, its traced phase and each atom's root phase
    are the one object of their turn, as ``Phase.from_fraction`` gives it."""
    for _ in range(20):
        g, fam, laps, total = corpus.random_cycle_family(rng)
        found = trace_backward(build_H(fam), min(fam.nodes()))
        assert found.phase is Phase.from_fraction(total)
        for atom, _ in classify(g, fam).atoms:
            assert atom.phase is Phase.from_fraction(atom.phase.turns)
            assert atom.phase is Phase.from_turns(atom.phase.turns.numerator * 2,
                                                  atom.phase.turns.denominator * 2)


def test_atom_arc_and_finding_values_are_slotted_and_copy_and_pickle_equal(rng, fig1):
    """The small frozen values of ``atomic`` and ``validation`` keep no
    instance dict, refuse assignment, and come back equal from
    ``copy.copy``, ``copy.deepcopy`` and ``pickle``."""
    import copy
    import pickle
    from dataclasses import FrozenInstanceError, fields

    from semigroupoid_kit.atomic import Arc
    from semigroupoid_kit.validation import Finding

    g, fam, _, _ = corpus.random_cycle_family(rng, n=2, laps=2)
    h = build_H(fam)
    cycle = Path.of(fig1, ["loop_t"])
    values = [
        h.arcs[0],
        trace_backward(h, h.nodes[0]),
        trace_backward(build_H(ExplicitAtomic(two_vertex_dag(), {"a": ("0",)}, {})), ("a", "0")),
        LeftRegular("t"),
        CycleType(cycle, Phase.from_turns(1, 3)),
        TailType(cycle),
        DirectSum(((LeftRegular("t"), 2), (TailType(cycle), OMEGA))),
        LeftRegularAtom("t"),
        CycleAtom(cycle, Phase.from_complex(1j)),
        TailAtom(cycle),
        Finding("ck", "CK identity holds", None, "info"),
        validate_atomic(fam).findings[0],
    ]
    assert {type(v) for v in values} >= {Arc, CycleFound, RootFound, Finding}
    for value in values:
        assert not hasattr(value, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(value, fields(value)[0].name, None)
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert copied == value and type(copied) is type(value)
            assert hash(copied) == hash(value)


def test_finding_json_is_its_fields(rng):
    """``Finding.to_json`` gives each field under its own name, as
    ``dataclasses.asdict`` gives it, for findings with and without a place."""
    from dataclasses import asdict

    fam, _, _ = corpus.random_loop_sink_family(rng)
    bad = ExplicitAtomic(two_vertex_dag(), {"a": ("0", "0"), "z": ("1",)}, {"e": {"0": "9"}})
    findings = validate_atomic(fam).findings + validate_atomic(bad).findings
    assert {f.where for f in findings} >= {None, "a", "z", "e"}
    for f in findings:
        assert f.to_json() == asdict(f)
        assert list(f.to_json()) == ["code", "message", "where", "severity"]


def test_the_phased_chain_of_the_scale_suite_is_one_atom_of_multiplicity_two():
    """Its small twin: an exact phase on every arc, of denominator 1, 2, 3,
    4, 6 or 8, and one left-regular atom at v0 of multiplicity 2."""
    from semigroupoid_kit.serialize import explicit_atomic_from_json

    data = corpus.phased_chain_family_json(n=60)
    fam = explicit_atomic_from_json(data)
    assert set(fam.phases) == {(eid, i) for eid, m in fam.pi.items() for i in m}
    assert {ph.turns.denominator for ph in fam.phases.values()} <= {1, 2, 3, 4, 6, 8}
    assert len({id(ph) for ph in fam.phases.values()}) == len(set(fam.phases.values())) > 4
    assert classify(fam.graph, fam).atoms == [(LeftRegularAtom("v0"), 2)]


def test_atomic_errors_name_their_details(fig1):
    fam = pure_cycle_family(cycle_graph(2), 2)
    cases = [
        (lambda: trace_backward(build_H(fam), ("v1", "nosuch")), "unknown node",
         {"node": ("v1", "nosuch")}),
        (lambda: validate_canonical(fig1, "t"), "unknown canonical family", {"got": "str"}),
        (lambda: wold_atomic(LeftRegular("t")), "canonical wold data needs the host graph", {}),
        (lambda: finitely_correlated_multiplicities(fig1, {"t": 1, "l": 1}),
         "rank value missing for vertex", {"vertex": "r"}),
        (lambda: relabel(fam, {("v1", "i0"): "i1"}), "relabeling is not injective at vertex",
         {"vertex": "v1"}),
        (lambda: pure_cycle_family(cycle_graph(2), 2, [Phase.one()] * 3), "need one phase per arc",
         {"arcs": 4, "given": 3}),
    ]
    for call, message, details in cases:
        with pytest.raises(DomainError) as err:
            call()
        assert (type(err.value), str(err.value), err.value.details) == (
            DomainError, message, details
        )
