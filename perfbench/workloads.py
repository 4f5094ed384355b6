"""The four workloads: seeded query pools with their oracle checks.

A query is one item of a workload's mix.  ``run`` makes every library call of
the query through module attributes (``gr.source_elimination``), so the
tracer sees each call at the layer boundary; ``check`` runs outside the timed
span and returns None for a correct answer or a short reason.  Expected
values that take work to compute are wrapped in ``expected`` and computed
on the first check, so building a pool does only input generation and
library construction.

Every pool holds at least 100 queries, so p90 has ten queries beyond it.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Any, Callable

from semigroupoid_kit import atomic as at
from semigroupoid_kit import cli
from semigroupoid_kit import graph as gr
from semigroupoid_kit import roadcoloring as rc
from semigroupoid_kit import series as se
from semigroupoid_kit import trunc as tr

import inputs
import oracles
from cli_inputs import cli_requests
from inputs import Plain, spread
from oracles import expected


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def split(size: int, shares: tuple[float, ...]) -> list[int]:
    """Counts per class that add up to size, largest share first."""
    counts = [int(size * s) for s in shares]
    counts[0] += size - sum(counts)
    return counts


def terms_of(elem) -> dict:
    return {(p.base, p.edges): c for p, c in elem.terms.items()}


# ---------------------------------------------------------------------------
# structure


def _structure_run(fam, twin):
    def run():
        g = fam.graph
        g0, layers, exhausted = gr.source_elimination(g)
        ses = gr.has_ses(g)
        dec = at.classify(g, fam)
        wold = at.wold_atomic(fam)
        equiv = at.are_unitarily_equivalent(g, fam, twin)
        return g0.vertices, layers, exhausted, ses, dec, wold, equiv
    return run


def _tree_query(kind: str, tf: inputs.TreeFamily) -> Query:
    want_layers = expected(lambda: oracles.elimination_layers(tf.depth))

    def check(ans):
        core, layers, exhausted, ses, dec, wold, equiv = ans
        if core or not exhausted or not ses:
            return "acyclic graph left an elimination core"
        if layers != want_layers():
            return "elimination layers differ from the forest depths"
        alpha = {}
        for atom, mult in dec.atoms:
            if not isinstance(atom, at.LeftRegularAtom):
                return "non-left-regular atom in a forest family"
            alpha[atom.vertex] = mult
        if alpha != tf.fresh:
            return "classify alpha differs from the fresh counts"
        if wold.alpha != tf.fresh or wold.remainder_nodes or not wold.supported_on_g0:
            return "wold data differs from the fresh counts"
        if not equiv.equivalent:
            return "gauge-and-relabel copy reported inequivalent"
        return None

    return Query(kind, _structure_run(tf.fam, tf.twin), check)


def _cycle_query(cf: inputs.CycleFamily) -> Query:
    n = len(cf.plain.vertices)
    want_atoms = expected(lambda: oracles.cycle_atoms(n, cf.laps, cf.total))

    def check(ans):
        core, layers, exhausted, ses, dec, wold, equiv = ans
        if exhausted or ses or layers or set(core) != set(cf.plain.vertices):
            return "cycle graph was eliminated"
        if any(not isinstance(a, at.CycleAtom) or m != 1 for a, m in dec.atoms):
            return "cycle family produced a non-cycle atom"
        got = sorted((a.cycle.base, a.cycle.edges, a.phase.turns) for a, _ in dec.atoms)
        base, canon, roots = want_atoms()
        if got != [(base, canon, r) for r in roots]:
            return "cycle atoms are not the exact roots of the total phase"
        nodes = {(v, i) for v, labels in cf.fam.lam.items() for i in labels}
        if wold.alpha or set(wold.remainder_nodes) != nodes or not wold.supported_on_g0:
            return "wold data of a pure cycle family"
        if not equiv.equivalent:
            return "gauge-and-relabel copy reported inequivalent"
        return None

    return Query("cycle", _structure_run(cf.fam, cf.twin), check)


def structure(rng, size: int = 100, workdir: str | None = None) -> list[Query]:
    n_forest, n_chain, n_cycle = split(size, (0.60, 0.25, 0.15))
    queries = []
    for n in spread(50, 250, n_forest):
        plain, parent = inputs.forest(rng, n)
        tf = inputs.tree_family(rng, plain, parent, 0.05, root_labels=2)
        queries.append(_tree_query("forest", tf))
    for n in spread(100, 300, n_chain):
        plain, parent = inputs.chain(n)
        queries.append(_tree_query("chain", inputs.tree_family(rng, plain, parent, 0.0)))
    for n, laps in zip(spread(5, 25, n_cycle), spread(2, 4, n_cycle)):
        queries.append(_cycle_query(inputs.cycle_family(rng, n, laps)))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# sync

SEARCH_SHAPES = [(2, n) for n in range(5, 13)] + [(3, n) for n in range(4, 8)]
PERIODIC_SIZES = (6, 8, 10)


def _search_query(kind: str, plain: Plain, d: int) -> Query:
    g = plain.graph()
    want_period = expected(lambda: oracles.period(plain, plain.vertices[0]))

    def run():
        transitive = gr.is_transitive(g)
        p = gr.period(g, plain.vertices[0])
        return transitive, p, rc.search_synchronizing_coloring(g)

    def check(ans):
        transitive, p, found = ans
        if not transitive or p != want_period():
            return "transitivity or period differs"
        if want_period() > 1:
            return None if found is None else "periodic graph got a synchronizing colouring"
        if found is None:
            return "aperiodic graph got no synchronizing colouring"
        coloring, word = found
        if not oracles.is_complete_strong(plain, d, coloring.color):
            return "search returned a colouring that is not strong"
        if oracles.walk_target(plain, coloring.color, word) is None:
            return "search word does not synchronize"
        return None

    return Query(kind, run, check)


def _sync_graph(rng, n: int) -> tuple[Plain, dict]:
    """Looped 2-in-regular graph with a random synchronizing colouring."""
    while True:
        plain = inputs.looped_graph(rng, n, 2)
        for _ in range(8):
            color = inputs.random_coloring(rng, plain, 2)
            if oracles.synchronizable(plain, 2, color):
                return plain, color


def _word_query(rng, n: int) -> Query:
    plain, color = _sync_graph(rng, n)
    g, c = plain.graph(), rc.Coloring(2, color)
    gamma2 = inputs.random_word(rng, 2)
    bound = (n**3 - n) // 6

    def run():
        word = rc.find_synchronizing_word(g, c)
        target = rc.is_synchronizing_word(g, c, word)
        return word, target, rc.syncdiag_paths(g, c, word, gamma2)

    def check(ans):
        word, target, diag = ans
        if word is None or target is None:
            return "synchronizable colouring got no word"
        if oracles.walk_target(plain, color, word) != target:
            return "backward walk disagrees with the word's target"
        if n <= rc.SUBSET_BFS_LIMIT and len(word) > bound:
            return "shortest word exceeds the (n^3-n)/6 bound"
        if diag.vertex != target or not oracles.closed_path_ok(
            plain, color, target, diag.closed.edges, gamma2 + word
        ):
            return "sync diagram is not a closed path with word gamma' gamma"
        return None

    return Query("word-bfs" if n <= rc.SUBSET_BFS_LIMIT else "word-greedy", run, check)


def _obrien_query(rng, n: int) -> Query:
    plain = inputs.looped_graph(rng, n, 2)
    g = plain.graph()
    gamma2 = inputs.random_word(rng, 2)

    def run():
        coloring, word = rc.obrien_coloring(g, "e0")
        return coloring, word, rc.syncdiag_paths(g, coloring, word, gamma2)

    def check(ans):
        coloring, word, diag = ans
        color = coloring.color
        if not oracles.is_complete_strong(plain, 2, color):
            return "tree colouring is not strong"
        if oracles.walk_target(plain, color, word) != "v0":
            return "tree word does not synchronize to the loop vertex"
        if diag.vertex != "v0" or not oracles.closed_path_ok(
            plain, color, "v0", diag.closed.edges, gamma2 + word
        ):
            return "sync diagram is not a closed path with word gamma' gamma"
        return None

    return Query("obrien", run, check)


def sync(rng, size: int = 200, workdir: str | None = None) -> list[Query]:
    n_word, n_obrien, n_search, n_periodic = split(size, (0.35, 0.35, 0.24, 0.06))
    queries = []
    for k in range(n_search):
        d, n = SEARCH_SHAPES[k % len(SEARCH_SHAPES)]
        queries.append(_search_query("search", inputs.looped_graph(rng, n, d), d))
    for k in range(n_periodic):
        n = PERIODIC_SIZES[k % len(PERIODIC_SIZES)]
        queries.append(_search_query("search-periodic", inputs.bipartite_graph(rng, n), 2))
    small = n_word // 2
    for n in spread(10, 20, small) + spread(30, 150, n_word - small):
        queries.append(_word_query(rng, n))
    for n in spread(30, 150, n_obrien):
        queries.append(_obrien_query(rng, n))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# algebra

SERIES_LEN = 4
TOP = 2 * SERIES_LEN


def _series_query(rng, plain: Plain, g, ka: int, kb: int) -> Query:
    a, ta = inputs.polynomial(rng, plain, g, ka, SERIES_LEN)
    b, tb = inputs.polynomial(rng, plain, g, kb, SERIES_LEN)
    k = rng.randint(1, TOP + 1)
    v = rng.choice(plain.vertices)

    def run():
        prod = se.formal_mul(a, b)
        parts = [se.fourier_coeff(prod, m) for m in range(TOP + 1)]
        a_parts = [se.fourier_coeff(a, i) for i in range(SERIES_LEN + 1)]
        b_parts = [se.fourier_coeff(b, j) for j in range(SERIES_LEN + 1)]
        leibniz = []
        for m in range(TOP + 1):
            acc = se.FormalElement.zero(g)
            for i in range(max(0, m - SERIES_LEN), min(m, SERIES_LEN) + 1):
                acc = acc + se.formal_mul(a_parts[i], b_parts[m - i])
            leibniz.append(acc)
        norms = [se.l2_row_norm(prod, m, v) for m in range(TOP + 1)]
        return prod, parts, leibniz, se.cesaro(prod, k), norms

    def check(ans):
        prod, parts, leibniz, ces, norms = ans
        want = oracles.naive_mul(plain, ta, tb)
        if not oracles.same_terms(terms_of(prod), want):
            return "product differs from the naive convolution"
        for m in range(TOP + 1):
            grade = oracles.grade(want, m)
            if not oracles.same_terms(terms_of(parts[m]), grade):
                return f"grade-{m} part differs"
            if not oracles.same_terms(terms_of(leibniz[m]), grade):
                return f"graded Leibniz reassembly differs at grade {m}"
            if abs(norms[m] - oracles.row_norm(want, m, v)) > oracles.TOL:
                return f"row norm differs at grade {m}"
        if not oracles.same_terms(terms_of(ces), oracles.cesaro(want, k)):
            return "Cesaro sum differs"
        return None

    return Query("series", run, check)


def _trunc_query(rng, plain: Plain, d: int, depth: int, n_terms: int) -> Query:
    g = plain.graph()
    color = inputs.random_coloring(rng, plain, d)
    c = rc.Coloring(d, color)
    s = rng.choice(plain.vertices)
    elem, terms = inputs.polynomial(rng, plain, g, n_terms, 3)
    want_lr = expected(
        lambda: sum(sum(level.values()) for level in oracles.walk_counts(plain, [s], depth)))
    want_mass = expected(lambda: oracles.applied_mass(plain, terms, s, depth))

    def run():
        rep = tr.build_colored_trunc(g, c, depth)
        reports = tr.verify_tck(rep)
        defect = tr.coisometric_defect(rep, 2)
        lr = tr.build_left_regular_trunc(g, [s], depth)
        mat = tr.apply_formal(lr, elem)
        norms = [se.l2_row_norm(elem, m, s) for m in range(4)]
        return rep.dim, reports, defect, lr, mat, norms

    def check(ans):
        dim, reports, defect, lr, mat, norms = ans
        if dim != oracles.colored_dim(len(plain.vertices), d, depth) or lr.dim != want_lr():
            return "basis dimension differs from the word/walk count"
        if not reports or not all(r.exact_zero for r in reports):
            return "a relation is not exactly zero on interior grades"
        if defect != (0.0, 0.0):
            return "coisometric defect is not exactly zero"
        coo = mat.tocoo()
        mass = float((abs(coo.data) ** 2).sum())
        if abs(mass - want_mass()) > oracles.TOL * max(1.0, want_mass()):
            return "applied matrix mass differs"
        col = next(i for i, p in enumerate(lr.labels) if p.base == s and not p.edges)
        for m in range(4):
            hit = (coo.col == col) & (lr.grades[coo.row] == m)
            column = float((abs(coo.data[hit]) ** 2).sum()) ** 0.5
            want = oracles.row_norm(terms, m, s)
            if abs(column - want) > oracles.TOL or abs(norms[m] - want) > oracles.TOL:
                return f"column norm at grade {m} disagrees with l2_row_norm"
        return None

    return Query("trunc", run, check)


TRUNC_SHAPES = (("triangle", 2, (6, 7, 8, 9)), ("six", 2, (6, 7, 8, 9)), ("d3", 3, (4, 5)))


def algebra(rng, size: int = 400, workdir: str | None = None) -> list[Query]:
    n_series, n_trunc = split(size, (0.70, 0.30))
    tri = inputs.triangle_plain()
    six = inputs.looped_graph(rng, 6, 2)
    hosts = [(tri, gr.looped_triangle()), (six, six.graph())]
    queries = []
    sizes = zip(spread(3, 30, n_series), spread(3, 30, n_series))
    for k, (ka, kb) in enumerate(sizes):
        plain, g = hosts[k % 2]
        queries.append(_series_query(rng, plain, g, ka, kb))
    for k in range(n_trunc):
        name, d, depths = TRUNC_SHAPES[k % len(TRUNC_SHAPES)]
        r = k // len(TRUNC_SHAPES)
        if name == "triangle":
            plain = tri
        elif name == "six":
            plain = inputs.looped_graph(rng, 6, 2)
        else:
            plain = inputs.looped_graph(rng, 4 + r % 3, 3)
        queries.append(_trunc_query(rng, plain, d, depths[r % len(depths)], 3 + r % 8))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliAnswer:
    code: int
    out: str
    err: str


def call_cli(argv: list[str]) -> CliAnswer:
    """One in-process request; an uncaught exception propagates as a crash."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return CliAnswer(code, out.getvalue(), err.getvalue())


def cli_pool(rng, size: int = 972, workdir: str | None = None) -> list[Query]:
    return [
        Query(kind, lambda argv=argv: call_cli(argv), check)
        for kind, argv, check in cli_requests(rng, size, workdir)
    ]


BUILDERS = {"structure": structure, "sync": sync, "algebra": algebra, "cli": cli_pool}
