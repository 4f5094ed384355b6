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
from semigroupoid_kit.roadcoloring import parse_word

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
        rep.edge_ops["e1"].data[0] = 3.0  # e1 on the vertex path: 3, not 1
        rep.edge_ops["e2"].indices[-1] = 0  # e2's entry for the length-3 path moves to column 0
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


def test_colored_basis_size_and_symbols():
    from semigroupoid_kit.trunc import _colored_basis_size

    # 3 vertices, d = 2, depth 4: 1 + 2 + 4 + 8 + 16 words of 1*2 + 2*4 + 3*8 + 4*16 letters
    assert _colored_basis_size(3, 2, 4) == (3 * 31, 3 * 98)
    assert _colored_basis_size(2, 1, 10) == (2 * 11, 2 * 55)
    assert _colored_basis_size(4, 3, 0) == (4, 0)


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
        ops[key] = ops[key].copy()
        ops[key].data[rng.randrange(coo.nnz)] = 0.0
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
    assert not reps[-1].edge_ops.data["y"].dom.size
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
        assert len(calls) == 3  # one product for each pair of the three vertices
        calls.clear()


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
        getattr(rep, ops)[key] = mat.tocsr()
        name = ("v:" if ops == "vertex_ops" else "e:") + key
        k = 0 if ops == "vertex_ops" else 1
        for check in (verify_tck, lambda r: coisometric_defect(r, k)):
            with pytest.raises(DomainError, match="not a partial injection") as err:
                check(rep)
            assert err.value.details == {"op": name}


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
    import oracles
    from semigroupoid_kit import Graph
    from semigroupoid_kit import trunc

    g = Graph.build(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")])
    rep = build_left_regular_trunc(g, ["a"], 2)
    calls = []
    real = trunc._range_diagonal
    monkeypatch.setattr(trunc, "_range_diagonal", lambda m, w: calls.append(1) or real(m, w))
    k = 10**6
    assert coisometric_defect(rep, k) == oracles.coisometric_defect(rep, k) == (0.0, 0.0)
    assert len(calls) <= 3 * len(g.edges)


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
            stored = ops.data[key]
            assert isinstance(stored, _Map)
            for a, b in zip(stored, _decode(ref[key], key)):
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
    assert not reps[1].edge_ops.data["y"].dom.size  # no path from a reaches c
    for rep in reps:
        for ops in (rep.vertex_ops, rep.edge_ops):
            for key in list(ops):
                m = ops.data[key]
                assert isinstance(m, _Map)
                assert len(m.row) == len(m.dom) == len(m.val) == ops[key].nnz, key
                assert (np.diff(m.dom) > 0).all(), key


def test_an_assigned_matrix_decodes_as_its_canonical_form(fig1):
    """Unsorted columns, two halves of one entry and explicit zeros give the
    map of the matrix with none of them."""
    import oracles
    from semigroupoid_kit.trunc import _decode

    rep = build_left_regular_trunc(fig1, ["t"], 3)
    stored, canon = rep.edge_ops.data["tl1"], rep.edge_ops["tl1"]
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
    for got, want in ((_decode(messy, "e:tl1"), stored), (_decode(canon, "e:tl1"), stored)):
        for a, b in zip(got, want):
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


def test_checks_read_the_stored_maps_and_build_no_matrix(fig1):
    from semigroupoid_kit.trunc import _Map

    for rep in (
        build_left_regular_trunc(fig1, ["t", "l"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
    ):
        _all_checks(rep)
        path_matrix(rep, Path.of(fig1, ["rt", "lr", "tl1"]))
        for ops in (rep.vertex_ops, rep.edge_ops):
            assert all(isinstance(ops.data[key], _Map) for key in ops)
            assert "nope" not in ops and all(key in ops for key in ops)
            assert all(isinstance(ops.data[key], _Map) for key in ops)


def test_operator_coordinates_read_the_maps_as_the_matrices_give_them(rng, fig1):
    import json

    import corpus
    from semigroupoid_kit.trunc import _Map, operator_coordinates

    g3 = corpus.random_in_regular_graph(rng, 3, 3)
    edited = build_left_regular_trunc(fig1, ["t"], 3)
    edited.edge_ops["tl1"].data[0] = 2.0
    reps = [
        build_left_regular_trunc(fig1, ["t", "l"], 3),
        build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3),
        build_colored_trunc(g3, _complete_coloring(rng, g3, 3), 2),
        edited,
    ]
    for rep in reps:
        fresh = [key for key, op in rep.edge_ops.data.items() if isinstance(op, _Map)]
        got = operator_coordinates(rep)
        assert all(isinstance(rep.edge_ops.data[key], _Map) for key in fresh)
        want = {f"v:{v}": matrix_to_coordinates(m) for v, m in rep.vertex_ops.items()}
        want.update({f"e:{e}": matrix_to_coordinates(m) for e, m in rep.edge_ops.items()})
        assert json.dumps(got) == json.dumps(want)


def test_operator_read_out_and_edited_in_place_is_checked_as_edited(fig1):
    import oracles

    for ops, key in (("vertex_ops", "t"), ("edge_ops", "tl1"), ("edge_ops", "loop_t")):
        rep = build_left_regular_trunc(fig1, ["t"], 3)
        clean = _all_checks(rep)
        getattr(rep, ops)[key].data[0] = 2.0
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
    rep = build_left_regular_trunc(fig1, ["t"], 3)
    mat = rep.edge_ops["tl1"]
    assert mat.nnz >= 2
    mat.indices[1] = mat.indices[0]  # two entries in one column
    with pytest.raises(DomainError, match="not a partial injection") as err:
        verify_tck(rep)
    assert err.value.details == {"op": "e:tl1"}


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


def test_builder_tables_equal_the_tables_decoded_from_the_matrices(rng):
    """For random reps of both kinds, the builder's two tables and its edges'
    ends equal those made from the operators' CSR matrices, bit for bit, and
    each stored map is a slice of its table.  Once complex phases are
    assigned, the table a check reads is the one decoded from the edits."""
    from semigroupoid_kit.trunc import _decode, _ends, _Ops, _stack

    def same(got, want):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    reps = _random_reps(rng, graphs=4, max_dim=400)
    assert {rep.kind for rep in reps} == {"left_regular", "colored"}
    for rep in reps:
        g = rep.graph
        tables = rep.vertex_ops.table, rep.edge_ops.table
        assert [t.keys for t in tables] == [g.sorted_vertices(), g.sorted_edge_ids()]
        assert tables[0].ends is None
        same(tables[1].ends, _ends(g, g.sorted_edge_ids()))
        for table, ops, kind in zip(tables, (rep.vertex_ops, rep.edge_ops), "ve"):
            for key in table.keys:
                assert np.shares_memory(ops.data[key].row, table.row) or not ops.data[key].row.size
            decoded = [_decode(ops[key], f"{kind}:{key}") for key in table.keys]
            assert ops.table is None
            same(table[:5], _stack(table.keys, decoded)[:5])
        if rep.edge_ops:
            phased = rng.sample(g.sorted_edge_ids(), min(2, len(g.edges)))
            for eid in phased:
                rep.edge_ops[eid] = rep.edge_ops[eid] * complex(rng.choice([1j, -1j, -1]))
            eids = g.sorted_edge_ids()
            stack = _Ops(rep).table("edge", eids)
            same(stack[:5], _stack(eids, [_decode(rep.edge_ops[e], e) for e in eids])[:5])
            assert stack.val.dtype == complex and stack.ends is None


@pytest.mark.parametrize("ops, key", [("vertex_ops", "t"), ("edge_ops", "tl1")])
@pytest.mark.parametrize("how", ["read-out", "assignment", "replacement", "deletion"])
def test_a_read_out_or_an_edit_drops_the_table_and_the_checks_see_it(ops, key, how, fig1):
    """An edit made in place after a read-out, an assigned matrix or a
    ``dict(...)`` replacement is what verify_tck, coisometric_defect,
    apply_formal and operator_coordinates check; a deletion is missed."""
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
        if how == "read-out":
            getattr(rep, ops)[key].data[0] = 2.0
        elif how == "assignment":
            getattr(rep, ops)[key] = edited
        elif how == "replacement":
            setattr(rep, ops, {**dict(getattr(rep, ops)), key: edited})
        else:
            del getattr(rep, ops)[key]
        assert getattr(rep, ops).table is None
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


def test_coisometric_defect_decodes_the_edges_in_id_order(fig1):
    """Of two edge operators that are not partial injections, both checks
    name the first in id order, loop_t, not the first into the least
    vertex in ``in_edges`` order, tl1."""
    rep = build_left_regular_trunc(fig1, ["t"], 3)
    for eid in ("tl1", "loop_t"):
        mat = rep.edge_ops[eid]
        mat.indices[1] = mat.indices[0]  # two entries in one column
    for check in (verify_tck, lambda r: coisometric_defect(r, 1)):
        with pytest.raises(DomainError, match="not a partial injection") as err:
            check(rep)
        assert err.value.details == {"op": "e:loop_t"}



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
