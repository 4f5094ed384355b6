import numpy as np
import pytest
import scipy.sparse as sp

from semigroupoid_kit import (
    Coloring,
    DomainError,
    FormalElement,
    Graph,
    Path,
    TruncatedRep,
    apply_formal,
    build_colored_trunc,
    build_left_regular_trunc,
    coisometric_defect,
    cycle_graph,
    cycle_lemma_check,
    enumerate_paths,
    matrix_to_coordinates,
    path_matrix,
    path_range,
    verify_tck,
    wandering_certificate,
)
from semigroupoid_kit.roadcoloring import obrien_coloring, parse_word

OBRIEN_FIG1 = {"loop_t": 1, "tl1": 1, "tr": 1, "tl2": 2, "lr": 2, "rt": 2}


def _complete_coloring(rng, g, d):
    """A random complete strong colouring of an in-degree d-regular graph."""
    color = {}
    for v in g.sorted_vertices():
        colors = list(range(1, d + 1))
        rng.shuffle(colors)
        color.update(zip(g.in_edges(v), colors))
    return Coloring(d, color)


def test_left_regular_basis_is_path_enumeration(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 2)
    assert rep.dim == 12  # 1 vertex + 4 one-step + 7 two-step walks
    assert rep.labels == enumerate_paths(fig1, ["t"], 2)
    assert list(rep.grades) == [len(p) for p in rep.labels]


def test_left_regular_rejects_negative_depth(fig1):
    with pytest.raises(DomainError):
        build_left_regular_trunc(fig1, ["t"], -1)


def test_edge_ops_act_by_prepending(fig1):
    rep = build_left_regular_trunc(fig1, ["t", "l"], 3)
    index = rep.index()
    for eid in fig1.sorted_edge_ids():
        mat = rep.edge_ops[eid].toarray()
        expected = np.zeros_like(mat)
        for j, p in enumerate(rep.labels):
            if path_range(fig1, p) == fig1.src(eid) and len(p) < rep.depth:
                expected[index[Path(p.base, (eid,) + p.edges)], j] = 1.0
        assert np.array_equal(mat, expected)


def test_verify_tck_left_regular_exact(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 4)
    reports = verify_tck(rep)
    assert [r.relation for r in reports] == ["P", "IS", "TCK", "CK", "F", "ND"]
    for r in reports:
        assert r.exact_zero and r.max_residual == 0.0, (r.relation, r.max_residual)


def test_is_boundary_residual_reported_not_failed(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 2)
    is_report = next(r for r in verify_tck(rep) if r.relation == "IS")
    assert is_report.ok
    assert is_report.boundary_residual == 1.0  # top grade loses the isometry
    assert is_report.interior_hi == rep.depth - 1


def test_colored_model_dimensions_and_exactness(fig1):
    c = Coloring(2, OBRIEN_FIG1)
    rep = build_colored_trunc(fig1, c, 3)
    assert rep.dim == 3 * (1 + 2 + 4 + 8)
    for r in verify_tck(rep):
        assert r.exact_zero and r.max_residual == 0.0, (r.relation, r.max_residual)


def test_colored_model_needs_complete_coloring():
    g = cycle_graph(2)
    # d=2 declared but fibers only ever see color 1: strong yet incomplete
    c = Coloring(2, {"e1": 1, "e2": 1})
    with pytest.raises(DomainError):
        build_colored_trunc(g, c, 2)


def test_fault_injection_shows_in_is_residual(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 3)
    bad = rep.vertex_ops["t"].tolil()
    bad[0, 0] = -1.0  # index 0 is the grade-0 vertex path at t
    rep.vertex_ops["t"] = bad.tocsr()
    is_report = next(r for r in verify_tck(rep) if r.relation == "IS")
    assert not is_report.ok
    assert is_report.max_residual == 2.0


def test_coisometric_defect_exact_for_both_models(fig1):
    rep_l = build_left_regular_trunc(fig1, ["t"], 4)
    rep_c = build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 4)
    for rep in (rep_l, rep_c):
        for k in range(0, 4):
            assert coisometric_defect(rep, k) == (0.0, 0.0)
    with pytest.raises(DomainError):
        coisometric_defect(rep_l, -1)


def test_path_matrix_matches_symbolic_action(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 4)
    index = rep.index()
    mu = Path("t", ("rt", "lr", "tl1"))  # length-3 cycle at t
    mat = path_matrix(rep, mu).toarray()
    expected = np.zeros_like(mat)
    for j, p in enumerate(rep.labels):
        if path_range(fig1, p) == "t" and len(p) + 3 <= rep.depth:
            expected[index[Path(p.base, mu.edges + p.edges)], j] = 1.0
    assert np.array_equal(mat, expected)


def test_path_matrix_of_vertex_is_projection(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 2)
    assert (path_matrix(rep, Path.vertex("l")) != rep.vertex_ops["l"]).nnz == 0


def test_apply_formal_is_multiplicative(rng, fig1):
    from test_series import random_polynomial

    rep = build_left_regular_trunc(fig1, ["t", "l", "r"], 6)
    for _ in range(10):
        a = random_polynomial(rng, fig1, max_deg=3)
        b = random_polynomial(rng, fig1, max_deg=3)
        from semigroupoid_kit import formal_mul

        lhs = apply_formal(rep, formal_mul(a, b)).toarray()
        rhs = (apply_formal(rep, a) @ apply_formal(rep, b)).toarray()
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_formal_rejects_foreign_graph(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 2)
    other = cycle_graph(2)
    elem = FormalElement.vertex(other, "v1")
    with pytest.raises(DomainError):
        apply_formal(rep, elem)


def test_wandering_certificate_true_on_left_regular(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 3)
    assert wandering_certificate(rep, Path.vertex("t"))


def test_wandering_certificate_false_on_cycle_identification():
    g = cycle_graph(1)
    one = sp.csr_matrix(np.array([[1.0]]))
    rep = TruncatedRep(
        g, 2, "left_regular", [Path.vertex("v1")], np.array([0]), ["v1"],
        {"v1": one}, {"e1": one}, {},
    )
    assert not wandering_certificate(rep, Path.vertex("v1"))


def test_cycle_lemma_small_cases():
    for n in range(1, 4):
        for depth in range(n, 7):
            report = cycle_lemma_check(n, depth)
            assert report.ok and report.max_residual == 0.0
            assert len(report.blocks) == n
    with pytest.raises(DomainError):
        cycle_lemma_check(3, 2)


def test_cycle_lemma_block_descriptions():
    report = cycle_lemma_check(3, 5)
    assert report.blocks == [
        "edge e1: identity block from vertex block 1 to 2",
        "edge e2: identity block from vertex block 2 to 3",
        "edge e3: one-step shift block from vertex block 3 to 1",
    ]


def test_cycle_lemma_reports_a_faulted_block(monkeypatch):
    from semigroupoid_kit import trunc

    real = trunc.build_left_regular_trunc

    def faulted(g, sources, depth):
        rep = real(g, sources, depth)
        e1, e2 = rep.edge_ops["e1"], rep.edge_ops["e2"]
        e1.data[0] = 3.0  # e1 on the vertex path: 3, not 1
        e2.indices[-1] = 0  # e2's entry for the length-3 path moves to column 0
        rep.edge_ops["e1"], rep.edge_ops["e2"] = e1, e2
        return rep

    monkeypatch.setattr(trunc, "build_left_regular_trunc", faulted)
    report = cycle_lemma_check(2, 4)
    assert not report.ok and report.max_residual == 2.0
    assert report.blocks == [
        "edge e1: identity block from vertex block 1 to 2 (residual 2.0)",
        "edge e2: one-step shift block from vertex block 2 to 1 (residual 1.0)",
    ]


def test_matrix_to_coordinates_sorted(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 2)
    coords = matrix_to_coordinates(rep.edge_ops["loop_t"])
    assert coords == sorted(coords)
    for row, col, re, im in coords:
        assert re == 1.0 and im == 0.0


def test_column_residual_matches_entrywise_reference(rng):
    import oracles
    from oracles import _column_residual

    for k in range(60):
        n = rng.randint(1, 9)
        grades = np.array([rng.randint(0, 4) for _ in range(n)])
        entries = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        data = [complex(rng.choice([0, 1, -2, 0.5]), rng.choice([0, 0, 1])) for _ in entries]
        rows = [r for r, _ in entries]
        cols = [c for _, c in entries]
        mat = sp.csr_matrix((data, (rows, cols)), shape=(n, n), dtype=complex if k % 2 else None)
        lo = rng.randint(0, 3)
        hi = rng.randint(lo - 1, 4)
        got = _column_residual(mat, grades, lo, hi)
        assert got == oracles.column_residual(mat, grades, lo, hi)
        assert all(type(x) is float for x in got)


def test_one_pass_assembly_matches_per_edge_scans(rng):
    import corpus
    import oracles

    reps = []
    for _ in range(20):
        g = corpus.random_graph(rng, max_v=5, max_e=8)
        sources = rng.sample(g.sorted_vertices(), rng.randint(1, len(g.vertices)))
        reps.append(build_left_regular_trunc(g, sources, rng.randint(0, 4)))
    for _ in range(12):
        d = rng.randint(1, 3)
        g = corpus.random_in_regular_graph(rng, rng.randint(1, 4), d)
        reps.append(build_colored_trunc(g, _complete_coloring(rng, g, d), rng.randint(0, 4)))
    for rep in reps:
        vertex_ops, edge_ops = oracles.truncation_ops(rep)
        for got, want in ((rep.vertex_ops, vertex_ops), (rep.edge_ops, edge_ops)):
            assert list(got) == list(want)
            for key, mat in want.items():
                built = got[key]
                for attr in ("indices", "indptr", "data"):
                    a, b = getattr(built, attr), getattr(mat, attr)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (rep.kind, key, attr)


def test_the_closed_form_count_is_budgeted_as_the_walk(rng, monkeypatch):
    """On in-regular graphs the closed-form count and the level-by-level
    walk from every vertex both pass, with the same total, or both raise
    the same overflow: at the real caps and at small ones, which level 0
    alone can pass."""
    import corpus
    from semigroupoid_kit import EnumerationOverflow, paths

    def outcome(count, *args):
        try:
            return count(*args)
        except EnumerationOverflow as exc:
            return str(exc), exc.details

    caps = [(paths.BASIS_CAP, paths.SYMBOL_CAP), (0, 10**9), (3, 10**9), (10**9, 0), (10**9, 40)]
    caps += [(rng.randint(0, 40), rng.randint(0, 300)) for _ in range(5)]
    seen = set()
    for d in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for _ in range(5):
                g = corpus.random_in_regular_graph(rng, n, d)
                for depth in range(9):
                    for basis, symbols in caps:
                        monkeypatch.setattr(paths, "BASIS_CAP", basis)
                        monkeypatch.setattr(paths, "SYMBOL_CAP", symbols)
                        walked = outcome(paths._count_levels, g, g.sorted_vertices(), depth)
                        got = outcome(paths._count_in_regular, n, d, depth)
                        if isinstance(walked, list):
                            walked = sum(sum(level.values()) for level in walked)
                        assert got == walked, (d, n, depth, basis, symbols)
                        seen.add(got[0] if isinstance(got, tuple) else "pass")
                        seen.add(isinstance(got, tuple) and got[1].get("length") == 0)
    assert seen == {
        "pass", "path enumeration exceeds the budget",
        "path enumeration exceeds the symbol budget", True, False,
    }


# ---------------------------------------------------------------------------
# index-map checks against the sparse-product oracles


def _random_reps(rng, graphs, max_dim):
    """Left-regular and colored truncations of seeded random graphs at
    depths 0-6, leaving out those of dimension above max_dim."""
    import corpus

    reps = []
    for _ in range(graphs):
        g = corpus.random_graph(rng, max_v=5, max_e=7)
        sources = rng.sample(g.sorted_vertices(), rng.randint(1, len(g.vertices)))
        d = rng.randint(1, 2)
        h = corpus.random_in_regular_graph(rng, rng.randint(1, 3), d)
        coloring = _complete_coloring(rng, h, d)
        for depth in range(7):
            for rep in (
                build_left_regular_trunc(g, sources, depth),
                build_colored_trunc(h, coloring, depth),
            ):
                if rep.dim <= max_dim:
                    reps.append(rep)
    return reps


FAULTS = ("-1", "i", "2", "0.5", "delete", "stored zero", "add")


def _faulted(rng, rep, kind, on_vertex):
    """A copy of rep with one fault of the given kind in a vertex or an edge
    operator that keeps every operator a partial injection: an entry set to
    -1, i, 2 or 0.5, an entry deleted or stored as an explicit zero, or an
    entry added in an empty row and column.  None when no such fault fits."""
    import copy

    bad = copy.copy(rep)
    bad.vertex_ops, bad.edge_ops = dict(rep.vertex_ops), dict(rep.edge_ops)
    ops = bad.vertex_ops if on_vertex else bad.edge_ops
    if not ops:
        return None
    key = rng.choice(sorted(ops))
    coo = ops[key].tocoo()
    if kind != "add" and not coo.nnz:
        return None
    if kind == "stored zero":  # an explicit zero left in the CSR arrays
        mat = ops[key]
        mat.data[rng.randrange(coo.nnz)] = 0.0
        ops[key] = mat
        return bad
    mat = ops[key].tolil()
    if kind == "add":
        free_rows = sorted(set(range(rep.dim)) - set(coo.row.tolist()))
        free_cols = sorted(set(range(rep.dim)) - set(coo.col.tolist()))
        if not free_rows or not free_cols:
            return None
        value = rng.choice([1.0, -1.0, 1j, 2.0])
        if value == 1j:
            mat = mat.astype(complex)
        mat[rng.choice(free_rows), rng.choice(free_cols)] = value
    else:
        k = rng.randrange(coo.nnz)
        value = {"-1": -1.0, "i": 1j, "2": 2.0, "0.5": 0.5, "delete": 0.0}[kind]
        if kind == "i":
            mat = mat.astype(complex)
        mat[coo.row[k], coo.col[k]] = value
    ops[key] = mat.tocsr()
    return bad


def _same_csr(got, want):
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr
    assert got.shape == want.shape


def _assert_checks_match_oracles(rep, rng, ks):
    import oracles
    from test_series import random_polynomial

    assert [r.to_json() for r in verify_tck(rep)] == [
        r.to_json() for r in oracles.verify_tck(rep)
    ]
    for k in ks:
        assert coisometric_defect(rep, k) == oracles.coisometric_defect(rep, k), k
    g = rep.graph
    paths = enumerate_paths(g, g.vertices, min(rep.depth + 1, 3))
    for p in rng.sample(paths, min(6, len(paths))):
        _same_csr(path_matrix(rep, p), oracles.path_matrix(rep, p))
    elem = random_polynomial(rng, g, max_deg=min(rep.depth + 1, 3))
    _same_csr(apply_formal(rep, elem), oracles.apply_formal(rep, elem))
    for label in rng.sample(rep.labels, min(4, rep.dim)):
        upto = rng.randint(-1, rep.depth + 1)
        assert wandering_certificate(rep, label, upto) == oracles.wandering_certificate(
            rep, label, upto
        )


def test_index_map_checks_match_the_sparse_oracles(rng):
    reps = _random_reps(rng, graphs=3, max_dim=150)
    assert len(reps) > 20
    for rep in reps:
        _assert_checks_match_oracles(rep, rng, range(rep.depth + 2))


def test_index_map_checks_match_the_sparse_oracles_on_faults(rng):
    done = []
    tries = 0
    for rep in _random_reps(rng, graphs=3, max_dim=80):
        for _ in range(2):
            kind, on_vertex = FAULTS[tries % len(FAULTS)], tries // len(FAULTS) % 2 == 0
            tries += 1
            bad = _faulted(rng, rep, kind, on_vertex)
            if bad is not None:
                _assert_checks_match_oracles(bad, rng, [0, 2, rep.depth + 1])
                done.append((kind, on_vertex))
    assert len(done) > 30 and len(set(done)) == 2 * len(FAULTS)


def _relations_match_the_oracles(rep, ks):
    import oracles

    assert [r.to_json() for r in verify_tck(rep)] == [
        r.to_json() for r in oracles.verify_tck(rep)
    ]
    for k in ks:
        assert coisometric_defect(rep, k) == oracles.coisometric_defect(rep, k), k


def _pool_reps(rng):
    """Colored truncations of the sizes the benchmark's pool checks: six
    vertices at d = 2 and depth 7 or 8, four to six at d = 3 and depth 4 or 5."""
    import corpus

    reps = []
    for vertices, d, depth in ((6, 2, 7), (6, 2, 8), (4, 3, 4), (5, 3, 5), (6, 3, 5)):
        h = corpus.random_in_regular_graph(rng, vertices, d)
        reps.append(build_colored_trunc(h, _complete_coloring(rng, h, d), depth))
    return reps


def test_relations_match_the_oracles_at_pool_sizes(rng):
    reps = _pool_reps(rng)
    assert [rep.dim for rep in reps] == [1530, 3066, 484, 1820, 2184]
    for rep in reps:
        _relations_match_the_oracles(rep, range(rep.depth + 2))


def test_relations_match_the_oracles_at_pool_sizes_on_faults(rng):
    reps = _pool_reps(rng)
    for i, kind in enumerate(FAULTS):
        for on_vertex in (True, False):
            bad = _faulted(rng, reps[(2 * i + on_vertex) % len(reps)], kind, on_vertex)
            # grade 0 reads the projections, higher grades the edges
            _relations_match_the_oracles(bad, range(bad.depth + 2))


def test_relations_match_the_oracles_on_mixed_dtypes_and_edge_cases(rng):
    import corpus

    h = corpus.random_in_regular_graph(rng, 3, 2)
    mixed = build_colored_trunc(h, _complete_coloring(rng, h, 2), 4)
    v, e = h.sorted_vertices()[1], h.sorted_edge_ids()[2]
    mixed.vertex_ops[v] = mixed.vertex_ops[v].astype(complex)
    mixed.edge_ops[e] = mixed.edge_ops[e] * 1j  # a unimodular phase
    assert all(r.exact_zero for r in verify_tck(mixed))
    # a vertex no edge enters, and an edge that no path from the source reaches
    g = Graph.build(["a", "b", "c"], [("x", "a", "b"), ("y", "c", "b"), ("z", "b", "b")])
    reps = [
        mixed,
        build_colored_trunc(Graph.build([], []), Coloring(2, {}), 3),  # dimension 0
        build_colored_trunc(h, _complete_coloring(rng, h, 2), 0),
        build_left_regular_trunc(g, ["a"], 0),
        build_left_regular_trunc(g, ["a"], 3),
    ]
    assert [rep.dim for rep in reps] == [93, 0, 3, 1, 4]
    assert not reps[-1].edge_ops.map("y").dom.size
    for rep in reps:
        _relations_match_the_oracles(rep, range(rep.depth + 2))


def test_range_sums_add_up_in_edge_order():
    """Three loops send basis vector 0 to row 1 with |val|^2 = 1, s and s,
    where s is about 0.6 ulp of 1.0: (1 + s) + s is 1 + 2 ulp while
    (s + s) + 1 is 1 + 1 ulp, so the residuals show the order of the sum."""
    import math

    import oracles

    g = Graph.build(["v"], [("e1", "v", "v"), ("e2", "v", "v"), ("e3", "v", "v")])
    t = math.sqrt(0.6) * 2.0**-26

    def loop(val):
        return sp.csr_matrix(([val], ([1], [0])), shape=(2, 2))

    rep = TruncatedRep(
        g, 1, "left_regular", None, np.array([0, 1]), None,
        {"v": sp.identity(2, format="csr")}, {"e1": loop(1.0), "e2": loop(t), "e3": loop(t)}, {},
    )
    reports = verify_tck(rep)
    assert [r.to_json() for r in reports] == [r.to_json() for r in oracles.verify_tck(rep)]
    assert reports[2].relation == "TCK" and reports[2].max_residual == 2.0**-51
    assert coisometric_defect(rep, 1) == oracles.coisometric_defect(rep, 1) == (2.0**-51, 0.0)


def test_a_projection_that_swaps_two_columns_fails_by_its_adjoint(fig1):
    """S swaps basis vectors a and c with values 0.5 and -0.5: S^2 - S has
    entries of size at most 0.5, but S - S* pairs them into 1.0."""
    import oracles

    rep = build_left_regular_trunc(fig1, ["t"], 2)
    t = rep.vertex_ops["t"].tocoo()
    a, c = int(t.col[0]), int(t.col[1])
    keep = (t.col != a) & (t.col != c)
    rows, cols = np.append(t.row[keep], [c, a]), np.append(t.col[keep], [a, c])
    vals = np.append(t.data[keep], [0.5, -0.5])
    rep.vertex_ops["t"] = sp.csr_matrix((vals, (rows, cols)), shape=t.shape)
    reports = verify_tck(rep)
    assert [r.to_json() for r in reports] == [r.to_json() for r in oracles.verify_tck(rep)]
    assert (reports[0].max_residual, reports[0].detail) == (1.0, "projection identity fails at t")


def test_projections_that_share_a_column_are_named_as_the_oracle_names_them(fig1):
    """Two exact diagonal projections with a basis index in common: (P) holds
    at each vertex and (ND) fails, so the pair products run and name them."""
    import oracles

    rep = build_left_regular_trunc(fig1, ["t"], 2)
    t, lv = rep.vertex_ops["t"].tocoo(), rep.vertex_ops["l"].tocoo()
    c = int(t.col[0])
    rep.vertex_ops["l"] = sp.csr_matrix(
        (np.append(lv.data, 1.0), (np.append(lv.row, c), np.append(lv.col, c))), shape=lv.shape
    )
    reports = verify_tck(rep)
    assert [r.to_json() for r in reports] == [r.to_json() for r in oracles.verify_tck(rep)]
    p, nd = reports[0], reports[-1]
    assert (p.relation, p.max_residual, p.detail) == ("P", 1.0, "projections at l and t overlap")
    assert (nd.relation, nd.max_residual) == ("ND", 1.0)


def test_pair_products_run_only_when_p_or_nd_fails(monkeypatch, fig1):
    from semigroupoid_kit import trunc

    calls = []
    real = trunc._product
    monkeypatch.setattr(trunc, "_product", lambda a, b: calls.append(1) or real(a, b))
    for rep in (
        build_left_regular_trunc(fig1, ["t", "l"], 4),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 4),
    ):
        reports = verify_tck(rep)
        assert reports[0].ok and reports[-1].ok and not calls
        rep.vertex_ops["r"] = rep.vertex_ops["r"] * 2.0  # (P) fails at r
        assert verify_tck(rep)[0].detail == "projection identity fails at r"
        assert not calls  # the projections are still disjoint: no pair meets
        rep.vertex_ops["r"] = rep.vertex_ops["t"]  # r and t overlap, and (ND) fails
        assert verify_tck(rep)[0].detail == "projections at r and t overlap"
        assert len(calls) == 1  # one product, for the one pair that meets
        calls.clear()


def _edgeless_rep(count, scaled):
    """Depth-0 left-regular rep of ``count`` vertices and no edges, one
    basis vector each, with the projection at ``scaled`` doubled."""
    vs = [f"v{k:04d}" for k in range(count)]
    rep = build_left_regular_trunc(Graph.build(vs, []), vs, 0)
    rep.vertex_ops[scaled] = rep.vertex_ops[scaled] * 2.0
    return rep


def test_a_failed_projection_among_thousands_stays_linear():
    """(P) and (ND) fail at one of 4,000 vertices whose projections are
    disjoint: no two meet, so no product of two is formed, where one per
    pair, about 8 million, took minutes.  The report is the oracle's, which
    is checked at 40 vertices, with the values and names of the large one."""
    import time

    import oracles

    small = _edgeless_rep(40, "v0020")
    assert [r.to_json() for r in verify_tck(small)] == [
        r.to_json() for r in oracles.verify_tck(small)
    ]
    rep = _edgeless_rep(4000, "v2000")
    start = time.perf_counter()
    reports = verify_tck(rep)
    assert time.perf_counter() - start < 1.0
    assert [(r.relation, r.max_residual, r.boundary_residual, r.detail) for r in reports] == [
        ("P", 2.0, 0.0, "projection identity fails at v2000"),
        ("IS", 0.0, 0.0, ""),
        ("TCK", 0.0, 0.0, ""),
        ("CK", 0.0, 0.0, ""),
        ("F", 0.0, 2.0, ""),
        ("ND", 1.0, 0.0, ""),
    ]


def test_wandering_verdicts_match_on_cycle_identifications():
    import oracles

    verdicts = set()
    for n in range(1, 4):
        for depth in range(n, n + 4):
            rep = build_left_regular_trunc(cycle_graph(n), ["v1"], depth)
            # close the top grade back onto the vertex vector at v1
            closing = rep.edge_ops[f"e{n}"].tolil()
            top = next(i for i, p in enumerate(rep.labels) if len(p) == depth)
            if rep.label_vertex[top] == f"v{n}":
                closing[0, top] = 1.0
            rep.edge_ops[f"e{n}"] = closing.tocsr()
            for label in rep.labels:
                for upto in range(depth + 2):
                    got = wandering_certificate(rep, label, upto)
                    assert got == oracles.wandering_certificate(rep, label, upto)
                    verdicts.add(got)
    assert verdicts == {True, False}


def test_operator_that_is_not_a_partial_injection_is_named(fig1):
    for ops, key, second in (
        ("vertex_ops", "t", "row"), ("edge_ops", "tl1", "row"),
        ("vertex_ops", "l", "column"), ("edge_ops", "rt", "column"),
    ):
        rep = build_left_regular_trunc(fig1, ["t"], 3)
        mat = getattr(rep, ops)[key].tolil()
        coo = mat.tocoo()
        row, col = coo.row[0], coo.col[0]
        if second == "row":  # in a column the operator leaves empty
            mat[row, min(set(range(rep.dim)) - set(coo.col.tolist()))] = 1.0
        else:
            mat[min(set(range(rep.dim)) - set(coo.row.tolist())), col] = 1.0
        with pytest.raises(DomainError, match="not a partial injection") as err:
            getattr(rep, ops)[key] = mat.tocsr()
        assert err.value.details == {"op": ("v:" if ops == "vertex_ops" else "e:") + key}
        assert all(r.ok for r in verify_tck(rep))  # the refused matrix was not stored


def test_explicit_zeros_are_not_entries(fig1):
    import oracles

    rep = build_left_regular_trunc(fig1, ["t"], 3)
    for ops, key in (("vertex_ops", "t"), ("edge_ops", "tl1")):
        coo = getattr(rep, ops)[key].tocoo()
        free = min(set(range(rep.dim)) - set(coo.col.tolist()))
        # a stored zero in the row of the first entry, in a column left empty
        getattr(rep, ops)[key] = sp.csr_matrix(
            (np.append(coo.data, 0.0), (np.append(coo.row, coo.row[0]), np.append(coo.col, free))),
            shape=coo.shape,
        )
    assert [r.to_json() for r in verify_tck(rep)] == [r.to_json() for r in oracles.verify_tck(rep)]
    for k in range(4):
        assert coisometric_defect(rep, k) == oracles.coisometric_defect(rep, k)
    for label in rep.labels:
        assert wandering_certificate(rep, label) == oracles.wandering_certificate(rep, label)


def _identified_loop():
    """The loop graph with its vertex vector identified with its own image."""
    one = sp.csr_matrix(np.array([[1.0]]))
    return TruncatedRep(
        cycle_graph(1), 2, "left_regular", [Path.vertex("v1")], np.array([0]), ["v1"],
        {"v1": one}, {"e1": one}, {},
    )


def test_apply_formal_adds_in_term_order_and_drops_cancelled_entries():
    import oracles

    rep = _identified_loop()
    g = rep.graph
    v, e, ee = Path.vertex("v1"), Path.of(g, ["e1"]), Path.of(g, ["e1", "e1"])
    for terms in (
        {v: 1.0, e: 1e16, ee: -1e16},  # (1 + 1e16) - 1e16 is 0, 1 + (1e16 - 1e16) is 1
        {v: 1e16, e: 1.0, ee: -1e16},
        {v: 2.0, e: -2.0},
        {v: 1j, e: 1.5, ee: -0.5 - 1j},
    ):
        elem = FormalElement(g, terms)
        got, want = apply_formal(rep, elem), oracles.apply_formal(rep, elem)
        _same_csr(got, want)
    assert apply_formal(rep, FormalElement(g, {v: 2.0, e: -2.0})).nnz == 0


def test_coisometric_defect_stops_when_no_longer_path_contributes(monkeypatch):
    """A grade step of the range sums is one ``np.bincount``: counting them
    all counts the steps, plus the one that adds the vertices up."""
    import oracles
    from semigroupoid_kit import Graph
    from semigroupoid_kit import trunc

    g = Graph.build(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")])
    rep = build_left_regular_trunc(g, ["a"], 2)
    calls = []

    class Counted:
        def __getattr__(self, name):
            return getattr(np, name)

        def bincount(self, *args, **kwargs):
            calls.append(1)
            return np.bincount(*args, **kwargs)

    k = 10**6
    want = oracles.coisometric_defect(rep, k)
    monkeypatch.setattr(trunc, "np", Counted())
    assert coisometric_defect(rep, k) == want == (0.0, 0.0)
    assert 0 < len(calls) <= 3 * len(g.edges)


def test_coisometric_defect_reads_no_vertex_operator_above_grade_zero(fig1):
    """With a vertex operator deleted, the range sums of grades k >= 1 read
    only the edges and still answer as the path sum does; grade 0 and
    verify_tck name the missing vertex."""
    import oracles

    for rep in (
        build_left_regular_trunc(fig1, ["t", "l", "r"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
    ):
        del rep.vertex_ops["l"]
        for k in range(1, rep.depth + 2):
            assert coisometric_defect(rep, k) == oracles.coisometric_defect(rep, k) == (0.0, 0.0)
        for check in (verify_tck, lambda r: coisometric_defect(r, 0)):
            with pytest.raises(DomainError, match="unknown vertex") as err:
                check(rep)
            assert err.value.details == {"vertex": "l"}


def test_coisometric_defect_on_a_long_chain_runs_in_bounded_memory():
    """The range sums keep O(n + nnz) slots, and the child peaks near 56 MB;
    a weight per vertex and basis vector, 4,000 x 11,997 of them, would
    take it near 785 MB.  VmHWM is the peak of the child's own memory; its
    ru_maxrss would also count the memory of this process, which forked it."""
    import os
    import subprocess
    import sys

    from semigroupoid_kit import trunc

    src = os.path.dirname(os.path.dirname(trunc.__file__))
    probe = (
        "from semigroupoid_kit import Graph, build_left_regular_trunc, coisometric_defect\n"
        "n = 4000\n"
        "g = Graph.build([f'v{i}' for i in range(n)],\n"
        "                [(f'e{i}', f'v{i}', f'v{i + 1}') for i in range(n - 1)])\n"
        "rep = build_left_regular_trunc(g, g.vertices, 2)\n"
        "upper, lower = coisometric_defect(rep, 2)\n"
        "peak = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(rep.dim, upper, lower, *peak)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    )
    dim, upper, lower, peak_kib = done.stdout.split()
    assert (int(dim), float(upper), float(lower)) == (11997, 0.0, 0.0)
    assert int(peak_kib) < 150 * 1024


def test_coisometric_defect_refuses_what_the_path_sum_refuses(fig1):
    import oracles
    from semigroupoid_kit import EnumerationOverflow

    rep = build_left_regular_trunc(fig1, ["t"], 2)
    with pytest.raises(EnumerationOverflow) as want:
        oracles.coisometric_defect(rep, 40)
    with pytest.raises(EnumerationOverflow) as got:
        coisometric_defect(rep, 40)
    assert str(got.value) == str(want.value)
    assert got.value.details == want.value.details


def test_wandering_certificate_unknown_label_is_a_domain_error(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 2)
    with pytest.raises(DomainError, match="unknown basis label") as err:
        wandering_certificate(rep, "nope")
    assert err.value.details == {"label": "nope"}


def test_apply_formal_accepts_another_listing_of_its_graph(rng, fig1):
    from test_series import random_polynomial, reversed_listing

    rep = build_left_regular_trunc(fig1, ["t", "l"], 4)
    twin = reversed_listing(fig1)
    for _ in range(5):
        a = random_polynomial(rng, fig1, max_deg=3)
        want = apply_formal(rep, a)
        got = apply_formal(rep, FormalElement(twin, a.terms))
        assert (got != want).nnz == 0


# ---------------------------------------------------------------------------
# closed-form builders against the label-driven assembly they replaced


def _same_rep(got, want):
    """A fresh build equals the assembled one: first each stored map, then
    the labels, grades and label vertices, then each operator's CSR arrays."""
    from semigroupoid_kit.trunc import _decode, _Map

    assert (got.kind, got.depth, got.dim, got.meta) == (want.kind, want.depth, want.dim, want.meta)
    for ops, ref in ((got.vertex_ops, want.vertex_ops), (got.edge_ops, want.edge_ops)):
        assert list(ops) == list(ref)
        for key in ref:
            stored = ops.map(key)
            assert isinstance(stored, _Map)
            for a, b in zip(stored, _decode(ref[key], want.dim, key)):
                assert a.dtype == b.dtype and np.array_equal(a, b), key
    assert got.labels == want.labels
    assert got.label_vertex == want.label_vertex
    assert got.grades.dtype == want.grades.dtype and np.array_equal(got.grades, want.grades)
    for ops, ref in ((got.vertex_ops, want.vertex_ops), (got.edge_ops, want.edge_ops)):
        for key in ref:
            _same_csr(ops[key], ref[key])


def test_left_regular_builder_matches_the_assembly(rng, fig1):
    import corpus
    import oracles
    from semigroupoid_kit import Graph

    chain = Graph.build(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c")])
    graphs = [fig1, cycle_graph(1), cycle_graph(3), corpus.loop_sink_graph(), chain]
    graphs += [corpus.random_graph(rng, max_v=5, max_e=10) for _ in range(8)]
    graphs += [corpus.random_graph(rng, max_v=5, max_e=10, acyclic=True) for _ in range(4)]
    seen = set()
    for g in graphs:
        verts = g.sorted_vertices()
        sinks = [v for v in verts if not g.out_edges(v)]
        for sources in ([verts[0]], list(verts), rng.sample(verts, rng.randint(1, len(verts))) + sinks[:1]):
            seen.add((len(set(sources)) > 1, bool(set(sources) & set(sinks))))
            for depth in range(7):
                want = oracles.build_left_regular_trunc(g, sources, depth)
                _same_rep(build_left_regular_trunc(g, sources, depth), want)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_colored_builder_matches_the_assembly(rng, fig1):
    import corpus
    import oracles

    cases = [(fig1, Coloring(2, OBRIEN_FIG1)), (cycle_graph(3), Coloring(1, {"e1": 1, "e2": 1, "e3": 1}))]
    for d in (1, 2, 3):
        for _ in range(3):
            g = corpus.random_in_regular_graph(rng, rng.randint(1, 3), d)
            cases.append((g, _complete_coloring(rng, g, d)))
    for g, coloring in cases:
        for depth in range(7):
            want = oracles.build_colored_trunc(g, coloring, depth)
            _same_rep(build_colored_trunc(g, coloring, depth), want)


def test_colored_builder_on_a_graph_with_no_vertex():
    from semigroupoid_kit import Graph

    rep = build_colored_trunc(Graph.build([], []), Coloring(2, {}), 10**9)
    assert rep.dim == 0 and rep.labels == [] and not rep.vertex_ops and not rep.edge_ops


def test_stored_maps_hold_only_their_entries(rng, fig1):
    import corpus
    from semigroupoid_kit.trunc import _Map

    h = corpus.random_in_regular_graph(rng, 3, 2)
    g = Graph.build(["a", "b", "c"], [("x", "a", "b"), ("y", "c", "b"), ("z", "b", "b")])
    reps = [
        build_left_regular_trunc(fig1, ["t", "l"], 4),
        build_left_regular_trunc(g, ["a"], 3),
        build_left_regular_trunc(g, [], 3),
        build_left_regular_trunc(g, ["a", "c"], 0),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
        build_colored_trunc(h, _complete_coloring(rng, h, 2), 0),
    ]
    assert [rep.dim for rep in reps] == [67, 4, 0, 2, 45, 3]
    assert not reps[1].edge_ops.map("y").dom.size  # no path from a reaches c
    for rep in reps:
        for ops in (rep.vertex_ops, rep.edge_ops):
            for key in list(ops):
                m = ops.map(key)
                assert isinstance(m, _Map)
                assert len(m.row) == len(m.dom) == len(m.val) == ops[key].nnz, key
                assert (np.diff(m.dom) > 0).all(), key


def test_an_assigned_matrix_decodes_as_its_canonical_form(fig1):
    """Unsorted columns, two halves of one entry and explicit zeros give the
    map of the matrix with none of them."""
    import oracles
    from semigroupoid_kit.trunc import _decode

    rep = build_left_regular_trunc(fig1, ["t"], 3)
    stored, canon = rep.edge_ops.map("tl1"), rep.edge_ops["tl1"]
    coo = canon.tocoo()
    r, c = int(coo.row[0]), int(coo.col[0])
    free = min(set(range(rep.dim)) - set(coo.col.tolist()))
    cells = [(int(i), int(j), v) for i, j, v in zip(coo.row, coo.col, coo.data) if (i, j) != (r, c)]
    cells += [(r, c, 0.25), (r, free, 0.0), (r, c, 0.75), (int(coo.row[-1]), free, 0.0)]
    cells.sort(key=lambda cell: (cell[0], -cell[1]))  # rows in order, columns decreasing
    indptr = np.searchsorted([i for i, _, _ in cells], np.arange(rep.dim + 1))
    messy = sp.csr_matrix(
        ([v for _, _, v in cells], [j for _, j, _ in cells], indptr), shape=canon.shape
    )
    assert not messy.has_sorted_indices and messy.nnz == canon.nnz + 3
    for mat in (messy, canon):
        for a, b in zip(_decode(mat, rep.dim, "e:tl1"), stored):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    clean = [r.to_json() for r in verify_tck(rep)]
    rep.edge_ops["tl1"] = messy
    assert [r.to_json() for r in verify_tck(rep)] == clean
    assert clean == [r.to_json() for r in oracles.verify_tck(rep)]


def test_cycle_lemma_counts_its_basis_before_it_builds_the_cycle(monkeypatch):
    from semigroupoid_kit import EnumerationOverflow, trunc
    from semigroupoid_kit.paths import BASIS_CAP, SYMBOL_CAP

    real = trunc.cycle_graph

    def guarded(n):
        # cycle_lemma_check(n, n) has one path per level, n(n + 1)/2 edges in all
        assert n * (n + 1) // 2 <= SYMBOL_CAP, f"the {n}-cycle is built over budget"
        return real(n)

    monkeypatch.setattr(trunc, "cycle_graph", guarded)
    for n, details in (
        (5000, {"count": 5001, "symbols": 5000 * 5001 // 2, "budget": SYMBOL_CAP}),
        (10**9, {"count": BASIS_CAP + 1, "length": BASIS_CAP, "budget": BASIS_CAP}),
    ):
        with pytest.raises(EnumerationOverflow) as err:
            cycle_lemma_check(n, n)
        assert err.value.details == details
    assert cycle_lemma_check(4, 4).ok


def test_an_over_budget_cycle_lemma_counts_in_closed_form(monkeypatch):
    # an over-budget depth is refused with no walk over its levels
    from semigroupoid_kit import EnumerationOverflow, trunc
    from semigroupoid_kit.paths import BASIS_CAP, SYMBOL_CAP

    real, walks = trunc._count_levels, []
    monkeypatch.setattr(trunc, "_count_levels", lambda *a: walks.append(a) or real(*a))

    def overflow(count, depth):
        with pytest.raises(EnumerationOverflow) as err:
            count(depth)
        return str(err.value), err.value.details

    # the deepest loop truncation within the symbol budget, and the depths past it
    fits = max(k for k in range(5000) if k * (k + 1) // 2 <= SYMBOL_CAP)
    for depth in (fits + 1, fits + 2, 5000):
        walked = overflow(lambda k: real(cycle_graph(1), ["v1"], k), depth)
        assert overflow(lambda k: cycle_lemma_check(1, k), depth) == walked
    symbols = (BASIS_CAP - 1) * BASIS_CAP // 2
    assert overflow(lambda k: cycle_lemma_check(1, k), BASIS_CAP - 1) == (
        "path enumeration exceeds the symbol budget",
        {"count": BASIS_CAP, "symbols": symbols, "budget": SYMBOL_CAP},
    )
    for n, depth in ((1, BASIS_CAP), (10**9, 10**9)):
        assert overflow(lambda k: cycle_lemma_check(n, k), depth) == (
            "path enumeration exceeds the budget",
            {"count": BASIS_CAP + 1, "length": BASIS_CAP, "budget": BASIS_CAP},
        )
    assert walks == []


# ---------------------------------------------------------------------------
# stored maps and operators read out, edited or replaced after the build


def _all_checks(rep):
    """Every check's answer on rep, in a comparable form."""
    g = rep.graph
    elem = FormalElement(g, {p: 1.0 + i for i, p in enumerate(enumerate_paths(g, g.vertices, 2))})
    return (
        [r.to_json() for r in verify_tck(rep)],
        [coisometric_defect(rep, k) for k in range(rep.depth + 2)],
        matrix_to_coordinates(apply_formal(rep, elem)),
        [wandering_certificate(rep, label) for label in rep.labels],
    )


def test_checks_read_the_stored_maps_and_build_no_matrix(fig1, monkeypatch):
    """No check, ``path_matrix`` or ``in`` reads an operator out as a
    matrix, and each leaves both tables in place."""
    from semigroupoid_kit.trunc import _Map, _Operators

    def read_out(ops, key):
        raise AssertionError(f"{key} was read out as a matrix")

    for rep in (
        build_left_regular_trunc(fig1, ["t", "l"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
    ):
        tables = rep.vertex_ops.table, rep.edge_ops.table
        with monkeypatch.context() as patch:
            patch.setattr(_Operators, "__getitem__", read_out)
            _all_checks(rep)
            path_matrix(rep, Path.of(fig1, ["rt", "lr", "tl1"]))
            for ops in (rep.vertex_ops, rep.edge_ops):
                assert all(isinstance(ops.map(key), _Map) for key in ops)
                assert "nope" not in ops and all(key in ops for key in ops)
        assert rep.vertex_ops.table is tables[0] and rep.edge_ops.table is tables[1]


def test_operator_coordinates_read_the_maps_as_the_matrices_give_them(rng, fig1, monkeypatch):
    import json

    import corpus
    from semigroupoid_kit.trunc import _Map, _Operators, operator_coordinates

    g3 = corpus.random_in_regular_graph(rng, 3, 3)
    edited = build_left_regular_trunc(fig1, ["t"], 3)
    mat = edited.edge_ops["tl1"]
    mat.data[0] = 2.0
    edited.edge_ops["tl1"] = mat
    reps = [
        build_left_regular_trunc(fig1, ["t", "l"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
        build_colored_trunc(g3, _complete_coloring(rng, g3, 3), 2),
        edited,
    ]
    for rep in reps:
        with monkeypatch.context() as patch:  # no operator is read out as a matrix
            patch.setattr(_Operators, "__getitem__", lambda ops, key: pytest.fail(key))
            got = operator_coordinates(rep)
            assert all(isinstance(rep.edge_ops.map(e), _Map) for e in rep.edge_ops)
        want = {f"v:{v}": matrix_to_coordinates(m) for v, m in rep.vertex_ops.items()}
        want.update({f"e:{e}": matrix_to_coordinates(m) for e, m in rep.edge_ops.items()})
        assert json.dumps(got) == json.dumps(want)
    assert operator_coordinates(edited) != operator_coordinates(reps[0])
    assert operator_coordinates(edited)["e:tl1"][0][2] == 2.0


def test_operator_read_out_and_edited_in_place_is_checked_as_edited(fig1):
    """A matrix read out and edited in place is checked as edited once it is
    assigned back, and not before."""
    import oracles

    for ops, key in (("vertex_ops", "t"), ("edge_ops", "tl1"), ("edge_ops", "loop_t")):
        rep = build_left_regular_trunc(fig1, ["t"], 3)
        clean = _all_checks(rep)
        mat = getattr(rep, ops)[key]
        mat.data[0] = 2.0
        assert _all_checks(rep) == clean
        getattr(rep, ops)[key] = mat
        edited = _all_checks(rep)
        assert edited != clean
        assert edited[0] == [r.to_json() for r in oracles.verify_tck(rep)]
        assert not all(r.ok for r in verify_tck(rep))


def test_operator_dicts_copied_or_replaced_give_the_same_reports(fig1):
    import copy

    for rep in (
        build_left_regular_trunc(fig1, ["t", "r"], 4),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
    ):
        want = _all_checks(rep)
        twin = copy.copy(rep)
        twin.vertex_ops, twin.edge_ops = dict(rep.vertex_ops), dict(rep.edge_ops)
        assert _all_checks(twin) == want
        plain = TruncatedRep(
            rep.graph, rep.depth, rep.kind, rep.labels, rep.grades, rep.label_vertex,
            dict(rep.vertex_ops), dict(rep.edge_ops), rep.meta,
        )
        assert _all_checks(plain) == want
        assert _all_checks(rep) == want


def test_in_place_edit_that_breaks_injectivity_is_named(fig1):
    """A read-out edited to break injectivity is refused when assigned back,
    and the rep keeps its map and its table."""
    rep = build_left_regular_trunc(fig1, ["t"], 3)
    table, stored = rep.edge_ops.table, rep.edge_ops.map("tl1")
    mat = rep.edge_ops["tl1"]
    assert mat.nnz >= 2
    mat.indices[1] = mat.indices[0]  # two entries in one column
    with pytest.raises(DomainError, match="not a partial injection") as err:
        rep.edge_ops["tl1"] = mat
    assert err.value.details == {"op": "e:tl1"}
    assert rep.edge_ops.table is table
    assert all(np.array_equal(a, b) for a, b in zip(rep.edge_ops.map("tl1"), stored))


@pytest.mark.parametrize("d", range(1, 10))
def test_colored_labels_keep_the_digit_order_and_are_in_rank_order(d):
    import oracles

    g = Graph.build(
        ["a", "b"], [(f"{v}{j}", w, v) for v, w in (("a", "b"), ("b", "a")) for j in range(d)]
    )
    coloring = Coloring(d, {f"{v}{j}": j + 1 for v in "ab" for j in range(d)})
    depth = 3
    rep = build_colored_trunc(g, coloring, depth)
    assert rep.labels == oracles.colored_labels(g, d, depth)
    for v in g.sorted_vertices():
        block = [tuple(parse_word(w, d)) for u, w in rep.labels if u == v]
        # local index of a word of length k: d^0 + ... + d^(k-1), plus its base-d rank
        for i, w in enumerate(block):
            offset = sum(d**m for m in range(len(w)))
            rank = sum((j - 1) * d ** (len(w) - 1 - pos) for pos, j in enumerate(w))
            assert i == offset + rank


# ---------------------------------------------------------------------------
# the builders' stacked tables, and what drops them


def _is_the_stack_of_its_read_outs(ops, dim):
    """``ops.table`` equals the stack of the operators read out and decoded
    anew, bit for bit and in sorted key order, and each map is a slice of it."""
    from semigroupoid_kit.trunc import _decode, _stack

    keys = tuple(sorted(ops))
    want = _stack(keys, [_decode(ops[key], dim, key) for key in keys])
    assert ops.table.keys == want.keys == tuple(ops)
    for got, wanted in zip(ops.table[:5], want[:5]):
        assert got.dtype == wanted.dtype and np.array_equal(got, wanted)
    for key in keys:
        assert np.shares_memory(ops.map(key).row, ops.table.row) or not ops.map(key).row.size


def _random_edit(rng, rep, name, saved):
    """Assign a phase or a new dtype to one operator of ``rep.<name>``,
    replace the whole kind by a dict in another order, or delete one; an
    operator deleted before is put back from ``saved``."""
    ops, key = getattr(rep, name), rng.choice(sorted(saved))
    how = rng.choice(["phase", "dtype", "replacement", "deletion"])
    if key not in ops:
        how, ops[key] = "put back", saved[key]
    elif how == "phase":
        ops[key] = ops[key] * complex(rng.choice([1j, -1j, -1]))
    elif how == "dtype":
        kinds = [np.complex64] if ops[key].dtype.kind == "c" else [np.float32, np.int64, bool]
        ops[key] = ops[key].astype(rng.choice(kinds + [complex]))
    elif how == "replacement":
        setattr(rep, name, {k: ops[k] for k in reversed(list(ops))})
    else:
        del ops[key]
    return how


def test_builder_tables_equal_the_tables_decoded_from_the_matrices(rng):
    """For random reps of both kinds, the builder's two tables equal those
    made from the operators' CSR matrices, bit for bit, each stored map is a
    slice of its table, which reads leave in place, and the rep keeps no
    edge ends of its own: the checks read its graph's index.  After random assignments, replacements
    and deletions, each table is still the stack of the decoded read-outs;
    once every key is back it is the one the checks read, and reads leave
    it the same object."""
    from semigroupoid_kit.trunc import operator_coordinates

    reps = _random_reps(rng, graphs=4, max_dim=400)
    assert {rep.kind for rep in reps} == {"left_regular", "colored"}
    seen = set()
    for rep in reps:
        g = rep.graph
        assert set(vars(rep)) <= {"graph", "depth", "kind", "grades", "vertex_ops", "edge_ops",
                                  "meta", "labels", "label_vertex", "_label_index"}
        tables = rep.vertex_ops.table, rep.edge_ops.table
        assert [t.keys for t in tables] == [g.sorted_vertices(), g.sorted_edge_ids()]
        for ops in (rep.vertex_ops, rep.edge_ops):
            _is_the_stack_of_its_read_outs(ops, rep.dim)
        assert rep.vertex_ops.table is tables[0] and rep.edge_ops.table is tables[1]
        for name, keys in (("vertex_ops", g.sorted_vertices()), ("edge_ops", g.sorted_edge_ids())):
            if not keys:
                continue
            saved = dict(getattr(rep, name))
            for _ in range(4):
                seen.add(_random_edit(rng, rep, name, saved))
                _is_the_stack_of_its_read_outs(getattr(rep, name), rep.dim)
            for key in set(keys) - set(getattr(rep, name)):
                getattr(rep, name)[key] = saved[key]
            ops = getattr(rep, name)
            table = ops.table
            assert ops.stack(keys) is table
            verify_tck(rep), coisometric_defect(rep, 1), operator_coordinates(rep)
            dict(ops), ops[keys[0]], ops.map(keys[-1])
            assert ops.table is table
            _is_the_stack_of_its_read_outs(ops, rep.dim)
    assert seen >= {"phase", "dtype", "replacement", "deletion", "put back"}


def _per_key_edits(rng, ops, dim):
    """Edit every key of ``ops`` once, in random order: a phase, a new dtype
    or a deletion put back at once; and put in, then edit or take out, keys
    of no vertex or edge that sort before and after the others."""
    dtypes = [np.float64, np.float32, np.int64, np.uint8, bool, np.complex64, complex]
    for key in ["!", "~"] + rng.sample(sorted(ops), len(ops)):
        mat = ops[key] if key in ops else sp.identity(dim, format="csr")[::-1]
        how = rng.choice(["phase", "dtype", "dtype", "delete"])
        if how == "phase":
            ops[key] = mat * complex(rng.choice([1j, -1j, -1]))
        elif how == "dtype":
            ops[key] = abs(mat).astype(rng.choice(dtypes))
        else:
            ops[key] = mat
            del ops[key]
            if key not in "!~":
                ops[key] = mat


def test_per_key_edits_give_the_tables_of_one_whole_dict_assignment(rng):
    """Edits one key at a time leave each kind's table, bit for bit, its
    recorded dtypes and every check's answer as one whole-dict assignment of
    the same operators gives them: with mixed dtypes, with keys put in and
    taken out at either end, and when the last complex or float operator
    is replaced by an integer one, and so does a ``copy()``, whose edits
    leave the original as it was.  A refused edit keeps the table object,
    and deleting an unknown key raises KeyError."""
    from semigroupoid_kit.trunc import operator_coordinates

    reps = _random_reps(rng, graphs=3, max_dim=150)
    for rep in rng.sample(reps, 8):
        for name in ("vertex_ops", "edge_ops"):
            ops = getattr(rep, name)
            _per_key_edits(rng, ops, rep.dim)
            _is_one_assignment(rep, name)
            for key in rng.sample(sorted(ops), len(ops)):  # every operator an integer one
                ops[key] = abs(ops[key]).astype(np.int64)
            _is_one_assignment(rep, name)
            table = ops.table
            with pytest.raises(DomainError, match="wrong shape"):
                ops["!"] = sp.identity(rep.dim + 1, format="csr")
            with pytest.raises(KeyError):
                del ops["?"]
            assert ops.table is table
            _per_key_edits(rng, ops, rep.dim)
            whole = _is_one_assignment(rep, name)
            twin, table = ops.copy(), ops.table
            assert twin.data == ops.data and twin.table.keys == ops.table.keys
            for part, want in zip(twin.table[:5], table[:5]):
                assert part.dtype == want.dtype and np.array_equal(part, want)
            twin["?"] = sp.identity(rep.dim, format="csr")
            del twin[sorted(twin)[0]]
            assert "?" not in ops and ops.table is table and len(ops) == len(twin)
        assert _all_checks(rep) == _all_checks(whole)
        assert operator_coordinates(rep) == operator_coordinates(whole)


def _is_one_assignment(rep, name):
    """A new rep given ``rep``'s operators as whole dicts, once it is checked
    that the ``name`` kind's table and recorded dtypes are that rep's."""
    whole = TruncatedRep(
        rep.graph, rep.depth, rep.kind, None, rep.grades, None,
        dict(rep.vertex_ops), dict(rep.edge_ops), rep.meta,
    )
    ops, wanted = getattr(rep, name), getattr(whole, name)
    assert ops.data == wanted.data and ops.table.keys == wanted.table.keys
    for part, want in zip(ops.table[:5], wanted.table[:5]):
        assert part.dtype == want.dtype and np.array_equal(part, want)
    _is_the_stack_of_its_read_outs(ops, rep.dim)
    return whole


def test_a_copy_shares_the_table_and_decodes_nothing(rng, monkeypatch):
    """``copy()`` of an operator store keeps its table object and decodes no
    matrix; an edit to the copy replaces the copy's table only."""
    from semigroupoid_kit import trunc

    decoded = []
    real = trunc._decode
    monkeypatch.setattr(trunc, "_decode", lambda *a: decoded.append(a) or real(*a))
    for rep in rng.sample(_random_reps(rng, graphs=3, max_dim=150), 4):
        for ops in (rep.vertex_ops, rep.edge_ops):
            twin = ops.copy()
            assert decoded == [] and twin.table is ops.table and twin.data == ops.data
            twin["?"] = sp.identity(rep.dim, format="csr")
            assert "?" not in ops and twin.table is not ops.table
            decoded.clear()


def test_checks_read_bool_and_integer_operators_as_their_float_values(rng):
    """A kind whose operators are all bool, all uint8 or all int64 gives the
    checks and the range-sum defect of its float64 original."""
    import corpus

    g, h = corpus.random_in_regular_graph(rng, 3, 2), corpus.random_graph(rng, max_v=4, max_e=6)
    reps = [build_colored_trunc(g, _complete_coloring(rng, g, 2), 3)]
    reps.append(build_left_regular_trunc(h, h.sorted_vertices()[:1], 3))
    for rep in reps:
        want = [r.to_json() for r in verify_tck(rep)], coisometric_defect(rep, 2)
        for name in ("vertex_ops", "edge_ops"):
            for dtype in (bool, np.uint8, np.int64):
                ops = {"vertex_ops": dict(rep.vertex_ops), "edge_ops": dict(rep.edge_ops)}
                ops[name] = {key: m.astype(dtype) for key, m in ops[name].items()}
                twin = TruncatedRep(rep.graph, rep.depth, rep.kind, None, rep.grades, None,
                                    ops["vertex_ops"], ops["edge_ops"], rep.meta)
                assert {dt for _, dt in getattr(twin, name).data.values()} <= {np.dtype(dtype)}
                got = [r.to_json() for r in verify_tck(twin)], coisometric_defect(twin, 2)
                assert got == want, (rep.kind, name, dtype)


def test_operators_keyed_by_no_vertex_or_edge_are_kept_and_ignored(fig1):
    """An operator keyed by no vertex or edge is kept and listed by
    operator_coordinates, and no check reads it; a check on operators that
    miss some of the graph's keys names the first missing one in id order."""
    from semigroupoid_kit.trunc import operator_coordinates

    for rep in (
        build_left_regular_trunc(fig1, ["t", "l"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
    ):
        clean = _all_checks(rep), operator_coordinates(rep)
        extra = {"e:zz": sp.identity(rep.dim, format="csr") * 1j, "v:q": rep.vertex_ops["t"] * 2.0}
        rep.edge_ops["zz"], rep.vertex_ops["q"] = extra["e:zz"], extra["v:q"]
        assert "zz" in rep.edge_ops and "q" in rep.vertex_ops
        assert _all_checks(rep) == clean[0]
        coords = operator_coordinates(rep)
        assert coords == {**clean[1], **{k: matrix_to_coordinates(m) for k, m in extra.items()}}
        del rep.edge_ops["tl1"], rep.edge_ops["lr"]
        for check in (verify_tck, lambda r: coisometric_defect(r, 1)):
            with pytest.raises(DomainError, match="unknown edge") as err:
                check(rep)
            assert err.value.details == {"edge": "lr"}
        assert "e:zz" in operator_coordinates(rep) and "e:lr" not in operator_coordinates(rep)


def test_a_build_makes_no_map(fig1, monkeypatch):
    """The builders hand over their tables and slice nothing: a map is made
    only when one is read."""
    from semigroupoid_kit import trunc

    made = []

    class Counted(trunc._Map):
        def __new__(cls, *parts):
            made.append(parts)
            return super().__new__(cls, *parts)

    monkeypatch.setattr(trunc, "_Map", Counted)
    rep = build_left_regular_trunc(fig1, ["t", "l"], 9)
    colored = build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 9)
    assert made == [] and rep.dim > 2000 and colored.dim > 3000
    colored.edge_ops.map("tl1")
    assert len(made) == 1


def test_wandering_certificate_builds_one_label_index(fig1, monkeypatch):
    """Certifying every basis vector builds the label index once per rep,
    copies it never, and gives the oracle's verdicts; ``index()`` still
    returns a fresh dict."""
    import functools

    import oracles

    real, built = TruncatedRep._label_index.func, []
    counted = functools.cached_property(lambda rep: built.append(rep) or real(rep))
    counted.__set_name__(TruncatedRep, "_label_index")
    monkeypatch.setattr(TruncatedRep, "_label_index", counted)
    for rep in (
        build_left_regular_trunc(fig1, ["t", "l"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
    ):
        built.clear()
        cases = [(label, upto) for label in rep.labels for upto in (None, 1)]
        with monkeypatch.context() as patch:
            patch.setattr(TruncatedRep, "index", lambda rep: pytest.fail("index copied"))
            got = [wandering_certificate(rep, *case) for case in cases]
        assert built == [rep]
        assert got == [oracles.wandering_certificate(rep, *case) for case in cases]
        index = rep.index()
        assert index == {label: i for i, label in enumerate(rep.labels)}
        index.clear()
        assert rep.index() is not index and len(rep.index()) == rep.dim
        assert wandering_certificate(rep, rep.labels[-1]) and built == [rep]


@pytest.mark.parametrize("ops, key", [("vertex_ops", "t"), ("edge_ops", "tl1")])
@pytest.mark.parametrize("how", ["read-out", "assignment", "replacement", "deletion"])
def test_a_read_out_or_an_edit_drops_the_table_and_the_checks_see_it(ops, key, how, fig1):
    """An edit drops the table for a new one, the stack of the decoded
    read-outs: a read-out edited in place and assigned back, an assigned
    matrix or a ``dict(...)`` replacement is what verify_tck,
    coisometric_defect, apply_formal and operator_coordinates check, and a
    deletion is missed.  Until it is assigned back, the edited read-out
    leaves the table and the checks as they were."""
    import oracles
    from semigroupoid_kit.trunc import operator_coordinates

    for rep in (
        build_left_regular_trunc(fig1, ["t", "l"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
    ):
        g = rep.graph
        elem = FormalElement(g, {p: 1.0 + i for i, p in enumerate(enumerate_paths(g, g.vertices, 2))})
        clean = _all_checks(rep), operator_coordinates(rep)
        edited = oracles.truncation_ops(rep)[ops == "edge_ops"][key].copy()
        edited.data[0] = 2.0
        table = getattr(rep, ops).table
        if how == "read-out":
            mat = getattr(rep, ops)[key]
            mat.data[0] = 2.0
            assert getattr(rep, ops).table is table
            assert (_all_checks(rep), operator_coordinates(rep)) == clean
            getattr(rep, ops)[key] = mat
        elif how == "assignment":
            getattr(rep, ops)[key] = edited
        elif how == "replacement":
            setattr(rep, ops, {**dict(getattr(rep, ops)), key: edited})
        else:
            del getattr(rep, ops)[key]
        assert getattr(rep, ops).table is not table
        _is_the_stack_of_its_read_outs(getattr(rep, ops), rep.dim)
        if how == "deletion":
            kind = "vertex" if ops == "vertex_ops" else "edge"
            with pytest.raises(DomainError, match=f"unknown {kind}"):
                verify_tck(rep)
            assert f"{kind[0]}:{key}" not in operator_coordinates(rep)
            continue
        got = _all_checks(rep), operator_coordinates(rep)
        assert got[0][0] != clean[0][0] and got[1] != clean[1]
        assert got[0][0] == [r.to_json() for r in oracles.verify_tck(rep)]
        assert got[0][1] == [oracles.coisometric_defect(rep, k) for k in range(rep.depth + 2)]
        assert got[0][2] == matrix_to_coordinates(oracles.apply_formal(rep, elem))
        want = {f"v:{v}": matrix_to_coordinates(m) for v, m in rep.vertex_ops.items()}
        want.update({f"e:{e}": matrix_to_coordinates(m) for e, m in rep.edge_ops.items()})
        assert got[1] == want


def test_reads_leave_the_tables_and_an_edit_to_a_read_out_changes_nothing(fig1):
    """After ``ops[k]``, ``.values()``, ``dict(ops)``, ``path_matrix`` and
    ``operator_coordinates`` both tables are the builder's, and editing
    what was read in place changes no check's answer."""
    from semigroupoid_kit.trunc import operator_coordinates

    for rep in (
        build_left_regular_trunc(fig1, ["t", "l"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
    ):
        tables = rep.vertex_ops.table, rep.edge_ops.table
        clean = _all_checks(rep), operator_coordinates(rep)
        for ops, key in ((rep.vertex_ops, "t"), (rep.edge_ops, "tl1")):
            ops[key].data[0] = 2.0
            for mat in ops.values():
                mat.data[:] = 2.0
            dict(ops)[key].data[0] = 2.0
        for p in (Path.vertex("t"), Path.of(fig1, ["tl1"]), Path.of(fig1, ["lr", "tl1"])):
            path_matrix(rep, p).data[:] = 2.0
        assert (_all_checks(rep), operator_coordinates(rep)) == clean
        assert rep.vertex_ops.table is tables[0] and rep.edge_ops.table is tables[1]


def test_coisometric_defect_decodes_the_edges_in_id_order(fig1):
    """Of two edge operators that are not partial injections, a replacement
    dict names the first in id order, loop_t, whatever the dict's order,
    and the rep keeps the operators it had."""
    rep = build_left_regular_trunc(fig1, ["t"], 3)
    clean = _all_checks(rep)
    ops = dict(rep.edge_ops)
    for eid in ("tl1", "loop_t"):
        ops[eid].indices[1] = ops[eid].indices[0]  # two entries in one column
    ops = {eid: ops[eid] for eid in reversed(list(ops))}  # tl1 before loop_t
    for assign in (
        lambda: setattr(rep, "edge_ops", ops),
        lambda: TruncatedRep(
            rep.graph, rep.depth, rep.kind, None, rep.grades, None, dict(rep.vertex_ops), ops,
            rep.meta,
        ),
    ):
        with pytest.raises(DomainError, match="not a partial injection") as err:
            assign()
        assert err.value.details == {"op": "e:loop_t"}
    assert _all_checks(rep) == clean


@pytest.mark.parametrize("ops, key", [("vertex_ops", "t"), ("edge_ops", "tl1")])
def test_an_operator_of_the_wrong_shape_is_refused_at_assignment(ops, key, fig1):
    """A (dim + 2) square identity or a 2 x 2 matrix is refused, named, when
    assigned, replaced or passed to a rep, and the rep and its table stay
    as they were."""
    from semigroupoid_kit.trunc import operator_coordinates

    rep = build_left_regular_trunc(fig1, ["t"], 2)
    name = ("v:" if ops == "vertex_ops" else "e:") + key
    table, stored = getattr(rep, ops).table, getattr(rep, ops).map(key)
    clean = _all_checks(rep), operator_coordinates(rep)
    for bad in (sp.identity(rep.dim + 2, format="csr"), sp.csr_matrix(np.eye(2))):
        given = {**dict(getattr(rep, ops)), key: bad}
        operators = dict(rep.vertex_ops), dict(rep.edge_ops)
        operators[ops == "edge_ops"][key] = bad
        for assign in (
            lambda: getattr(rep, ops).__setitem__(key, bad),
            lambda: setattr(rep, ops, given),
            lambda: TruncatedRep(
                rep.graph, rep.depth, rep.kind, None, rep.grades, None, *operators, rep.meta
            ),
        ):
            with pytest.raises(DomainError, match="wrong shape") as err:
                assign()
            assert err.value.details == {"op": name, "shape": list(bad.shape)}
        assert getattr(rep, ops).table is table
        assert all(np.array_equal(a, b) for a, b in zip(getattr(rep, ops).map(key), stored))
        assert (_all_checks(rep), operator_coordinates(rep)) == clean


def test_every_stored_operator_is_a_map_after_assignments(fig1):
    """Dense, LIL, COO and CSR matrices, assigned one by one, in a
    replacement dict or to a new rep, are all stored as maps, slices of
    their kind's table, which is the stack of the decoded read-outs."""
    from semigroupoid_kit.trunc import _Map

    rep = build_left_regular_trunc(fig1, ["t", "l"], 3)
    rep.vertex_ops["t"] = rep.vertex_ops["t"].toarray()
    rep.vertex_ops["l"] = rep.vertex_ops["l"].tolil()
    rep.edge_ops["tl1"] = rep.edge_ops["tl1"].tocoo()
    rep.edge_ops["rt"] = rep.edge_ops["rt"] * 1j
    twin = TruncatedRep(
        rep.graph, rep.depth, rep.kind, None, rep.grades, None,
        dict(rep.vertex_ops), {**dict(rep.edge_ops), "lr": rep.edge_ops["lr"].todense()}, rep.meta,
    )
    twin.edge_ops = {key: twin.edge_ops[key].tocsc() for key in twin.edge_ops}
    for r in (rep, twin):
        for ops in (r.vertex_ops, r.edge_ops):
            assert all(isinstance(ops.map(key), _Map) for key in ops)
            _is_the_stack_of_its_read_outs(ops, r.dim)
    assert _all_checks(twin) == _all_checks(rep)



def test_operator_coordinates_keep_each_assigned_operators_dtype(fig1):
    """With the table dropped, each operator is listed in its own dtype: an
    integer or bool matrix assigned beside float ones gives 1, not 1.0."""
    from semigroupoid_kit.trunc import operator_coordinates

    rep = build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3)
    rep.edge_ops["tl1"] = rep.edge_ops["tl1"].astype(np.int64)
    rep.vertex_ops["t"] = rep.vertex_ops["t"].astype(bool)
    got = operator_coordinates(rep)
    want = {f"v:{v}": matrix_to_coordinates(m) for v, m in rep.vertex_ops.items()}
    want.update({f"e:{e}": matrix_to_coordinates(m) for e, m in rep.edge_ops.items()})
    assert got == want
    for key, kind in (("e:tl1", int), ("v:t", bool), ("e:loop_t", float)):
        assert got[key] and {type(value) for quad in got[key] for value in quad[2:]} == {kind}


def test_integer_operators_past_2_53_are_refused(fig1):
    """The checks compute in float64, so an operator of an integer dtype with
    an entry past 2^53 in magnitude, which float64 would round, is refused
    and named when assigned, given in a dict or passed to a rep: int64,
    uint64 and negative entries alike, and the table stays as it was.  An
    entry of 2^53 in magnitude is kept, and reads back exactly."""
    rep = build_left_regular_trunc(fig1, ["t"], 2)
    clean = _all_checks(rep)
    for ops, key in (("edge_ops", "tl1"), ("vertex_ops", "t")):
        name = ("v:" if ops == "vertex_ops" else "e:") + key
        table, given = getattr(rep, ops).table, getattr(rep, ops)[key]
        assert given.nnz
        for dtype, value in ((np.int64, 2**53 + 1), (np.uint64, 2**63 + 1), (np.int64, -(2**53) - 1)):
            bad = given.astype(dtype)
            bad.data[:] = value
            operators = [dict(rep.vertex_ops), dict(rep.edge_ops)]
            operators[ops == "edge_ops"][key] = bad
            for assign in (
                lambda: getattr(rep, ops).__setitem__(key, bad),
                lambda: setattr(rep, ops, {**dict(getattr(rep, ops)), key: bad}),
                lambda: TruncatedRep(
                    rep.graph, rep.depth, rep.kind, None, rep.grades, None, *operators, rep.meta
                ),
            ):
                with pytest.raises(DomainError, match="past 2\\^53") as err:
                    assign()
                assert err.value.details == {"op": name}
            assert getattr(rep, ops).table is table
        assert _all_checks(rep) == clean
        for value in (2**53, -(2**53)):
            exact = given.astype(np.int64)
            exact.data[:] = value
            getattr(rep, ops)[key] = exact
            back = getattr(rep, ops)[key]
            assert back.dtype == np.int64 and back.data.tolist() == [value] * given.nnz
        getattr(rep, ops)[key] = given
    assert _all_checks(rep) == clean


def test_integer_products_multiply_in_float64():
    """A path of length >= 2 over integer operators reads out in float64, so
    it cannot wrap around: on the one-loop truncation at depth 3, with e1 an
    int64 operator of entries 2^33, e1 e1 has two entries of 2^66, where an
    int64 product is the zero matrix.  The oracle multiplies the same way."""
    import oracles

    g = cycle_graph(1)
    rep = build_left_regular_trunc(g, ["v1"], 3)
    big = rep.edge_ops["e1"].astype(np.int64)
    big.data[:] = 2**33
    rep.edge_ops["e1"] = big
    p = Path("v1", ("e1", "e1"))
    for mat in (path_matrix(rep, p), oracles.path_matrix(rep, p)):
        assert mat.dtype == np.float64 and mat.data.tolist() == [2.0**66] * 2
    elem = FormalElement.path(g, p)
    for mat in (apply_formal(rep, elem), oracles.apply_formal(rep, elem)):
        assert mat.data.tolist() == [complex(2.0**66)] * 2
    assert path_matrix(rep, Path("v1", ("e1",))).dtype == np.int64


def test_report_json_holds_the_fields_as_asdict_gives_them(rng, fig1):
    """``RelationReport.to_json`` gives each field but the interior under
    its own name and the interior as [lo, hi]; ``CycleLemmaReport.to_json``
    gives every field; the values are the report's own, with a fresh list
    of blocks."""
    from dataclasses import asdict

    reports = [r for rep in _random_reps(rng, graphs=2, max_dim=100)[:6] for r in verify_tck(rep)]
    faulted = build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3)
    faulted.edge_ops["tl1"] = faulted.edge_ops["tl1"] * 2.0
    reports += verify_tck(faulted)
    assert {r.detail != "" for r in reports} == {True, False}
    for report in reports:
        want = asdict(report)
        want["interior"] = [want.pop("interior_lo"), want.pop("interior_hi")]
        got = report.to_json()
        assert got == want and list(got) == list(want)
        assert all(type(got[k]) is type(want[k]) for k in want)
    for n, depth in ((1, 1), (3, 5), (4, 9)):
        report = cycle_lemma_check(n, depth)
        got = report.to_json()
        assert got == asdict(report) and list(got) == list(asdict(report))
        assert got["blocks"] is not report.blocks


def test_is_lists_an_entry_that_some_but_not_all_out_edges_meet(fig1):
    """With one domain entry of tl1 removed, that column of S_t is met by
    t's other out-edges and not by tl1, so (IS) lists it for the edges
    that miss it; the reports and the defects are the oracles'."""
    import oracles

    for rep in (
        build_left_regular_trunc(fig1, ["t", "l", "r"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
    ):
        mat = rep.edge_ops["tl1"].tolil()
        column = mat.nonzero()[1][0]
        assert all(rep.edge_ops[e][:, column].nnz for e in fig1.out_edges("t"))
        mat[:, column] = 0.0
        rep.edge_ops["tl1"] = mat.tocsr()
        reports = [r.to_json() for r in verify_tck(rep)]
        assert reports == [r.to_json() for r in oracles.verify_tck(rep)]
        assert (reports[1]["max_residual"], reports[1]["detail"]) == (
            1.0, "isometry identity fails at tl1"
        )
        for k in range(rep.depth + 2):
            assert coisometric_defect(rep, k) == oracles.coisometric_defect(rep, k), k


def test_the_checks_join_the_tables_once_and_search_no_key_on_builder_reps(fig1, monkeypatch):
    """verify_tck and coisometric_defect at k = 1..3 read one join of the
    tables, found by gathers: neither ``_search`` nor ``np.searchsorted``
    runs.  An edit makes a new table, so the next check joins again and
    answers as the oracles do."""
    import oracles
    from semigroupoid_kit import trunc

    reps = (
        build_left_regular_trunc(fig1, ["t", "l", "r"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
    )
    builds, searches = [], []
    join, search = trunc._Join.__init__, trunc._search
    monkeypatch.setattr(trunc._Join, "__init__", lambda *a: builds.append(1) or join(*a))
    monkeypatch.setattr(trunc, "_search", lambda *a: searches.append(1) or search(*a))

    class Counted:
        def __getattr__(self, name):
            return getattr(np, name)

        def searchsorted(self, *args, **kwargs):
            searches.append(1)
            return np.searchsorted(*args, **kwargs)

    monkeypatch.setattr(trunc, "np", Counted())
    for rep in reps:
        builds.clear()
        verify_tck(rep)
        assert [coisometric_defect(rep, k) for k in (1, 2, 3)] == [(0.0, 0.0)] * 3
        assert len(builds) == 1
        for scale in (1j, 2.0):  # the same moduli, then others
            rep.edge_ops["tl1"] = rep.edge_ops["tl1"] * scale
            assert [r.to_json() for r in verify_tck(rep)] == [
                r.to_json() for r in oracles.verify_tck(rep)
            ]
            for k in (1, 2, 3):
                assert coisometric_defect(rep, k) == oracles.coisometric_defect(rep, k), k
        assert len(builds) == 3
    assert searches == []


def test_verify_tck_on_a_vertex_with_3000_loops_runs_in_bounded_memory():
    """(IS) reads each projection entry once, not once per out-edge: on one
    vertex with 3,000 loops at depth 1 (dim 3,001) the child peaks near
    53 MB, where listing S_v per loop took it past 400 MB."""
    import json
    import os
    import subprocess
    import sys

    from semigroupoid_kit import trunc

    src = os.path.dirname(os.path.dirname(trunc.__file__))
    probe = (
        "import json\n"
        "from semigroupoid_kit import Graph, build_left_regular_trunc, verify_tck\n"
        "g = Graph.build(['v'], [(f'e{i}', 'v', 'v') for i in range(3000)])\n"
        "rep = build_left_regular_trunc(g, ['v'], 1)\n"
        "reports = [r.to_json() for r in verify_tck(rep)]\n"
        "peak = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(json.dumps([rep.dim, reports, int(*peak)]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    )
    dim, reports, peak_kib = json.loads(done.stdout)
    interior = {"P": [0, 1], "IS": [0, 0], "TCK": [0, 1], "CK": [1, 0], "F": [1, 0], "ND": [0, 1]}
    boundary = {"IS": 1.0, "CK": 1.0, "F": 1.0}  # at the top grade, where every loop is 0
    assert dim == 3001
    assert reports == [
        {"relation": name, "max_residual": 0.0, "exact_zero": True,
         "boundary_residual": boundary.get(name, 0.0), "detail": "", "interior": interior[name]}
        for name in interior
    ]
    assert peak_kib < 100 * 1024


def test_missing_operator_and_bad_sizes_raise(fig1):
    rep = build_left_regular_trunc(fig1, ["t"], 1)
    with pytest.raises(KeyError) as err:
        rep.vertex_ops["nosuch"]
    assert err.value.args == ("nosuch",)
    coloring, _ = obrien_coloring(fig1, "loop_t")
    for call, message, details in (
        (lambda: build_colored_trunc(fig1, coloring, -1), "depth must be nonnegative",
         {"depth": -1}),
        (lambda: cycle_lemma_check(0, 3), "cycle length must be positive", {"n": 0}),
    ):
        with pytest.raises(DomainError) as err:
            call()
        assert (type(err.value), str(err.value), err.value.details) == (
            DomainError, message, details
        )
