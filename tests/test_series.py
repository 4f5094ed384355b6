import pytest

import oracles
from semigroupoid_kit import (
    DomainError,
    FormalElement,
    Path,
    cesaro,
    cycle_graph,
    formal_mul,
    fourier_coeff,
    graded_ideal_degree,
    l2_row_norm,
    looped_triangle,
)


def random_polynomial(rng, g, max_deg=3, sources=None):
    from semigroupoid_kit import enumerate_paths

    paths = enumerate_paths(g, sorted(sources or g.vertices), max_deg)
    terms = {}
    for p in paths:
        if rng.random() < 0.35:
            terms[p] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return FormalElement(g, terms)


def test_constructors_and_zero(fig1):
    z = FormalElement.zero(fig1)
    assert z.is_zero() and z.degree() is None
    v = FormalElement.vertex(fig1, "t")
    assert v.degree() == 0
    p = FormalElement.path(fig1, Path("t", ("tl1",)))
    assert p.degree() == 1


def test_terms_merge_and_drop_zeros(fig1):
    p = Path("t", ("tl1",))
    a = FormalElement(fig1, {p: 1.0})
    b = FormalElement(fig1, {p: -1.0})
    assert (a + b).is_zero()
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()


def test_rejects_invalid_paths(fig1):
    with pytest.raises(DomainError):
        FormalElement(fig1, {Path("t", ("lr",)): 1.0})


def test_vertex_identities_multiply_correctly(fig1):
    vt = FormalElement.vertex(fig1, "t")
    vl = FormalElement.vertex(fig1, "l")
    e = FormalElement.path(fig1, Path("t", ("tl1",)))  # t -> l
    assert formal_mul(vl, e).approx_eq(e)  # range projection
    assert formal_mul(e, vt).approx_eq(e)  # source projection
    assert formal_mul(vt, e).is_zero()
    assert formal_mul(e, vl).is_zero()


def test_product_matches_convolution_oracle(rng, fig1):
    for _ in range(40):
        a = random_polynomial(rng, fig1)
        b = random_polynomial(rng, fig1)
        got = formal_mul(a, b)
        want = oracles.convolve(
            fig1,
            {(p.base, p.edges): c for p, c in a.terms.items()},
            {(p.base, p.edges): c for p, c in b.terms.items()},
        )
        got_dict = {(p.base, p.edges): c for p, c in got.terms.items()}
        assert set(got_dict) == set(want)
        for k in want:
            assert abs(got_dict[k] - want[k]) < 1e-12


def test_product_sums_the_pairs_in_the_order_of_all_pairs(rng, fig1):
    import corpus

    graphs = [fig1] + [corpus.random_graph(rng, max_v=4, max_e=8) for _ in range(10)]
    for g in graphs:
        for _ in range(6):
            a, b = random_polynomial(rng, g), random_polynomial(rng, g)
            got, want = formal_mul(a, b), oracles.formal_mul(a, b)
            assert list(got.terms.items()) == list(want.terms.items())


def test_an_over_budget_product_builds_no_path(monkeypatch):
    from semigroupoid_kit import EnumerationOverflow, Graph, enumerate_paths, series
    from semigroupoid_kit.paths import SYMBOL_CAP

    g = Graph.build(["v"], [("a", "v", "v"), ("b", "v", "v")])
    # every path of length <= 9 on two loops: 1023 terms
    a = FormalElement(g, {p: 1.0 for p in enumerate_paths(g, ["v"], 9)})
    built = []
    make = series._make_path
    monkeypatch.setattr(series, "_make_path", lambda key: built.append(key) or make(key))
    with pytest.raises(EnumerationOverflow) as err:
        formal_mul(a, a)
    # 2 * 1023 * (1*2 + 2*4 + ... + 9*512) edges over the 1023^2 pairs
    assert err.value.details == {"count": 1023**2, "symbols": 16_764_924, "budget": SYMBOL_CAP}
    assert built == []
    # the name watched is the one every product path is built by
    small = FormalElement(g, {p: 1.0 for p in enumerate_paths(g, ["v"], 1)})
    assert list(formal_mul(small, small).terms) == built and len(built) == 7


def test_result_keys_are_paths_in_the_all_pairs_order(rng, fig1, monkeypatch):
    """Every key of a product, sum, grade part and Cesaro sum is a ``Path``,
    not the plain (base, edges) tuple it equals, and reads as one; the
    product's terms are the all-pairs oracle's, in order and value, and no
    product path goes through the Python-level ``Path.__new__``."""
    import corpus

    graphs = [fig1] + [corpus.random_graph(rng, max_v=5, max_e=9) for _ in range(8)]
    for g in graphs:
        for _ in range(6):
            make = rng.choice([random_polynomial, unit_polynomial])
            a, b = make(rng, g), make(rng, g)
            want = oracles.formal_mul(a, b)
            with monkeypatch.context() as patch:
                patch.setattr(Path, "__new__", lambda *args: pytest.fail("Path.__new__ called"))
                prod = formal_mul(a, b)
            assert list(prod.terms.items()) == list(want.terms.items())
            results = [prod, a + b, cesaro(prod, rng.randint(1, 7))]
            results += [fourier_coeff(prod, m) for m in range(7)]
            for elem in results:
                for p in elem.terms:
                    assert type(p) is Path and (p.base, p.edges) == (p[0], p[1])


def test_the_product_budget_counts_every_composable_pair_exactly(rng, fig1, monkeypatch):
    import corpus
    from semigroupoid_kit import EnumerationOverflow, paths

    graphs = [fig1] + [corpus.random_graph(rng, max_v=4, max_e=8) for _ in range(10)]
    factors = [(random_polynomial(rng, g), random_polynomial(rng, g)) for g in graphs for _ in range(6)]
    for a, b in factors:
        g = a.graph
        pairs = [
            (mu, nu) for mu in a.terms for nu in b.terms
            if mu.base == (g.dst(nu.edges[0]) if nu.edges else nu.base)
        ]
        symbols = sum(len(mu.edges) + len(nu.edges) for mu, nu in pairs)
        monkeypatch.setattr(paths, "SYMBOL_CAP", symbols)
        formal_mul(a, b)  # at the budget: allowed
        if symbols:
            monkeypatch.setattr(paths, "SYMBOL_CAP", symbols - 1)
            with pytest.raises(EnumerationOverflow) as err:
                formal_mul(a, b)
            assert err.value.details == {"count": len(pairs), "symbols": symbols, "budget": symbols - 1}


def test_fourier_parts_sum_to_whole(rng, fig1):
    a = random_polynomial(rng, fig1)
    deg = a.degree()
    if deg is None:
        return
    total = FormalElement.zero(fig1)
    for m in range(deg + 1):
        part = fourier_coeff(a, m)
        for p in part.terms:
            assert len(p) == m
        total = total + part
    assert total.approx_eq(a)


def test_fourier_leibniz(rng, fig1):
    for _ in range(10):
        a = random_polynomial(rng, fig1, max_deg=2)
        b = random_polynomial(rng, fig1, max_deg=2)
        ab = formal_mul(a, b)
        for m in range(5):
            direct = fourier_coeff(ab, m)
            assembled = FormalElement.zero(fig1)
            for i in range(m + 1):
                assembled = assembled + formal_mul(
                    fourier_coeff(a, i), fourier_coeff(b, m - i)
                )
            assert direct.approx_eq(assembled)


def test_cesaro_weights():
    g = cycle_graph(1)
    a = FormalElement(
        g, {Path.vertex("v1"): 1.0, Path("v1", ("e1",)): 2.0}
    )
    out = cesaro(a, 2)
    want = FormalElement(
        g, {Path.vertex("v1"): 1.0, Path("v1", ("e1",)): 1.0}
    )
    assert out.approx_eq(want)
    with pytest.raises(DomainError):
        cesaro(a, 0)


def test_cesaro_truncates_high_grades():
    g = cycle_graph(1)
    a = FormalElement(g, {Path("v1", ("e1",) * 5): 3.0})
    assert cesaro(a, 3).is_zero()  # grade 5 >= k=3 gets weight 0


def test_ideal_degree(fig1):
    assert graded_ideal_degree(FormalElement.zero(fig1)) is None
    v = FormalElement.vertex(fig1, "t")
    assert graded_ideal_degree(v) == 0
    p = FormalElement.path(fig1, Path("t", ("rt", "lr", "tl1")))
    assert graded_ideal_degree(p) == 3
    assert graded_ideal_degree(v + p) == 0


def test_l2_row_norm_definition(fig1):
    a = FormalElement(
        fig1,
        {
            Path("t", ("tl1",)): 3.0,
            Path("t", ("tl2",)): 4.0,
            Path("l", ("lr",)): 7.0,  # different source, must not count
        },
    )
    assert abs(l2_row_norm(a, 1, "t") - 5.0) < 1e-12
    assert abs(l2_row_norm(a, 1, "l") - 7.0) < 1e-12
    assert l2_row_norm(a, 2, "t") == 0.0


def test_a_row_norm_at_an_unknown_vertex_is_refused(fig1):
    from semigroupoid_kit import GraphFormatError

    a = FormalElement(fig1, {Path("t", ("tl1",)): 3.0})
    for elem in (a, FormalElement.zero(fig1)):
        with pytest.raises(GraphFormatError, match="unknown vertex") as err:
            l2_row_norm(elem, 1, "nosuch")
        assert err.value.details == {"vertex": "nosuch"}


def test_grade_parts_are_fresh_copies_of_one_split(rng, fig1):
    a = random_polynomial(rng, fig1, max_deg=2)
    while not fourier_coeff(a, 1).terms:
        a = random_polynomial(rng, fig1, max_deg=2)
    first, second = fourier_coeff(a, 1), fourier_coeff(a, 1)
    assert first.terms == second.terms and first.terms is not second.terms
    whole = dict(a.terms)
    first.terms[Path.vertex("t")] = 5j
    first.terms.pop(next(iter(second.terms)))
    assert a.terms == whole
    assert fourier_coeff(a, 1).terms == second.terms
    assert exact(fourier_coeff(a, 1).terms) == exact(oracles.fourier_coeff(a.terms, 1))


def test_one_pass_over_the_terms_serves_every_grade_query(rng, fig1):
    class CountingTerms(dict):
        passes = 0

        def items(self):
            CountingTerms.passes += 1
            return super().items()

        def __iter__(self):
            CountingTerms.passes += 1
            return super().__iter__()

    a = random_polynomial(rng, fig1)
    a.terms = CountingTerms(a.terms)
    answers = [fourier_coeff(a, m) for m in range(4)]
    answers += [l2_row_norm(a, m, "t") for m in range(3)]
    answers += [a.degree(), graded_ideal_degree(a)]
    assert len(answers) == 9 and CountingTerms.passes == 1


def test_operations_trust_their_inputs_and_boundaries_validate(rng, fig1, monkeypatch):
    from semigroupoid_kit import PathError, serialize, series

    a = random_polynomial(rng, fig1)
    b = random_polynomial(rng, fig1)
    data = serialize.formal_to_json(a)
    calls = []
    original = series.validate_path

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(series, "validate_path", counting)
    monkeypatch.setattr(serialize, "validate_path", counting)
    results = [
        a + b, a - b, a.scale(2 - 1j), formal_mul(a, b), fourier_coeff(a, 1), cesaro(a, 3)
    ]
    assert calls == []
    assert all(0 not in r.terms.values() for r in results)
    assert (a - a).is_zero()
    # each JSON path is validated once, by the decoder, and not again
    assert serialize.formal_from_json(fig1, data).approx_eq(a, tol=0)
    assert len(calls) == len(a.terms) > 0
    calls.clear()
    with pytest.raises(PathError):
        FormalElement(fig1, {Path("t", ("lr",)): 1.0})
    assert len(calls) == 1
    data["terms"][0]["path"] = {"base": "t", "edges": ["lr"]}
    with pytest.raises(PathError):
        serialize.formal_from_json(fig1, data)


def reversed_listing(g):
    from semigroupoid_kit import Graph

    return Graph(tuple(reversed(g.vertices)), tuple(reversed(g.edges)))


def test_graph_key_ignores_listing_order_but_not_content(rng, fig1):
    from semigroupoid_kit import Graph

    twin = reversed_listing(fig1)
    assert twin != fig1 and twin.key == fig1.key
    grown = Graph(fig1.vertices + ("extra",), fig1.edges)
    assert grown.key != fig1.key
    rerouted = Graph.build(fig1.vertices, [(e.id, e.dst, e.src) for e in fig1.edges])
    assert rerouted.key != fig1.key


def test_elements_over_two_listings_of_one_graph_combine(rng, fig1):
    twin = reversed_listing(fig1)
    for _ in range(20):
        a = random_polynomial(rng, fig1)
        b = random_polynomial(rng, fig1)
        b_twin = FormalElement(twin, b.terms)
        assert formal_mul(a, b_twin).terms == formal_mul(a, b).terms
        assert (a + b_twin).terms == (a + b).terms
        assert a.approx_eq(FormalElement(twin, a.terms), tol=0.0)
    with pytest.raises(DomainError, match="different host graphs"):
        formal_mul(a, FormalElement.zero(cycle_graph(2)))


def exact(terms):
    """The terms in order, each value by its type and the bits of both parts."""
    return [(p, type(c), c.real.hex(), c.imag.hex()) for p, c in terms.items()]


def unit_polynomial(rng, g, max_deg=3):
    """Coefficients from {0, +-1} + {0, +-1}i, so sums cancel exactly and signed zeros arise."""
    from semigroupoid_kit import enumerate_paths

    terms = {}
    for p in enumerate_paths(g, sorted(g.vertices), max_deg):
        c = complex(rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]))
        if rng.random() < 0.4 and c:
            terms[p] = c
    return FormalElement(g, terms)


def test_kernels_match_the_earlier_kernels_bit_for_bit(rng, fig1):
    """On fig1 (the looped triangle), random small graphs and in-degree 3
    graphs, every operation gives the terms of the earlier kernels in
    ``oracles`` in the same order, with the same bits and every value a
    ``complex``; the product also matches the all-pairs product."""
    import corpus
    import numpy as np

    hosts = [fig1] * 3 + [corpus.random_graph(rng, max_v=4, max_e=8) for _ in range(3)]
    hosts += [corpus.random_in_regular_graph(rng, rng.randint(1, 4), 3) for _ in range(3)]
    for g in hosts:
        for _ in range(8):
            make = rng.choice([random_polynomial, unit_polynomial])
            a, b = make(rng, g), make(rng, g)
            c = rng.choice([2 - 1j, -1, 0.5, 3, np.float64(0.5), np.complex128(1j)])
            k, v = rng.randint(1, 5), rng.choice(g.vertices)
            pairs = [
                (formal_mul(a, b), oracles.series_mul(g, a.terms, b.terms)),
                (formal_mul(a, b), oracles.formal_mul(a, b).terms),
                (a + b, oracles.series_add(a.terms, b.terms)),
                (a - b, oracles.series_sub(a.terms, b.terms)),
                (a.scale(c), oracles.series_scale(a.terms, c)),
                (cesaro(a, k), oracles.cesaro(a.terms, k)),
            ]
            for got, want in pairs:
                assert exact(got.terms) == exact(want)
                assert all(type(z) is complex for z in got.terms.values())
            for elem in (a, FormalElement.zero(g)):  # m < 0 and m above the degree too
                terms = elem.terms
                assert elem.degree() == oracles.degree(terms)
                assert graded_ideal_degree(elem) == oracles.graded_ideal_degree(terms)
                for m in range(-2, 7):
                    assert exact(fourier_coeff(elem, m).terms) == exact(oracles.fourier_coeff(terms, m))
                    got, want = l2_row_norm(elem, m, v), oracles.l2_row_norm(g, terms, m, v)
                    assert got.hex() == want.hex()
            assert a.sorted_terms() == sorted(
                a.terms.items(), key=lambda kv: (len(kv[0]), kv[0].edges, kv[0].base)
            )


def test_zeros_arising_inside_an_operation_are_dropped(fig1):
    loop, edge, vt, vl = (
        Path("t", ("loop_t",)), Path("t", ("tl1",)), Path.vertex("t"), Path.vertex("l")
    )
    a = FormalElement(fig1, {edge: 1.0, vt: 2.0})
    b = FormalElement(fig1, {vt: 1.0, edge: -1.0})
    assert list((a + b).terms.items()) == [(vt, 3 + 0j)]
    assert list((a - a).terms.items()) == []
    assert list(a.scale(0).terms.items()) == []
    # l * tl1 and tl1 * t both give tl1, with coefficients 1 and -1
    left = FormalElement(fig1, {vl: 1.0, edge: 1.0, loop: 1.0})
    right = FormalElement(fig1, {edge: 1.0, vt: -1.0})
    assert list(formal_mul(left, right).terms.items()) == [(loop, -1 + 0j)]
    # 5e-324 * (1 - 1/2) underflows to 0
    tiny = FormalElement(fig1, {vt: 1.0, loop: 5e-324})
    assert list(cesaro(tiny, 2).terms.items()) == [(vt, 1 + 0j)]


def test_the_constructor_copies_its_terms_and_operations_do_not_alias(fig1):
    p, q = Path("t", ("loop_t",)), Path.vertex("t")
    d = {p: 1.0}
    e = FormalElement(fig1, d)
    d[p], d[q] = 5.0, 1.0
    assert list(e.terms.items()) == [(p, 1 + 0j)]
    results = [e + FormalElement.zero(fig1), e.scale(1), fourier_coeff(e, 1), cesaro(e, 9)]
    for r in results:
        assert r.terms is not e.terms
        r.terms[q] = 7j
    assert list(e.terms.items()) == [(p, 1 + 0j)]
