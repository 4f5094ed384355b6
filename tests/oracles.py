"""Brute-force reference implementations used to pin expected values.

Everything here favors obviousness over speed and takes a different
algorithmic route than the package: recursion instead of worklists, dense
reachability instead of Kosaraju, union-find instead of BFS, definition chasing instead of canonical
forms.  Tests compare library output against these.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def walks_from(g, start, max_len):
    """All walks from start as (base, reversed edge tuple), length <= max_len.

    The package stores the first-applied edge last, so a walk
    v0 -e1-> v1 -e2-> ... -ek-> vk is reported as (v0, (ek, ..., e1)).
    """
    found = [(start, ())]

    def extend(at, applied):
        if len(applied) == max_len:
            return
        for eid in g.out_edges(at):
            found.append((start, tuple(reversed(applied + [eid]))))
            extend(g.dst(eid), applied + [eid])

    extend(start, [])
    return found


def cycles_at(g, v, max_len):
    """Irreducible cycles at v (no interior return), as reversed edge tuples."""
    found = []

    def extend(at, applied):
        if len(applied) > max_len:
            return
        if applied and at == v:
            found.append(tuple(reversed(applied)))
            return
        if len(applied) == max_len:
            return
        for eid in g.out_edges(at):
            extend(g.dst(eid), applied + [eid])

    extend(v, [])
    return found


def reach(g):
    """vertex -> set of vertices reachable along >= 0 edges."""
    out = {v: {v} for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            for v in g.vertices:
                if e.src in out[v] and e.dst not in out[v]:
                    out[v].add(e.dst)
                    changed = True
    return out


def strict_reach(g):
    """vertex -> set reachable along >= 1 edge."""
    r = reach(g)
    out = {}
    for v in g.vertices:
        hit = set()
        for e in g.edges:
            if e.src == v:
                hit |= r[e.dst]
        out[v] = hit
    return out


def sccs(g):
    r = reach(g)
    comps = []
    seen = set()
    for v in sorted(g.vertices):
        if v in seen:
            continue
        comp = sorted(u for u in g.vertices if u in r[v] and v in r[u])
        comps.append(comp)
        seen.update(comp)
    return comps


def is_acyclic(g):
    sr = strict_reach(g)
    return all(v not in sr[v] for v in g.vertices)


def period_at(g, v):
    """gcd of closed-walk lengths at v via dense adjacency powers.

    Lengths up to 3|V| suffice: for every simple cycle C in the component
    the truncated set contains some x and x + |C|, so its gcd divides |C|.
    """
    verts = sorted(g.vertices)
    idx = {u: k for k, u in enumerate(verts)}
    n = len(verts)
    adj = np.zeros((n, n), dtype=bool)
    for e in g.edges:
        adj[idx[e.src], idx[e.dst]] = True
    power = np.eye(n, dtype=bool)
    lengths = []
    for step in range(1, 3 * n + 1):
        power = (power.astype(int) @ adj.astype(int)) > 0
        if power[idx[v], idx[v]]:
            lengths.append(step)
    if not lengths:
        return None
    return math.gcd(*lengths) if len(lengths) > 1 else lengths[0]


def closure(g, seed):
    out = set(seed)
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if e.src in out and e.dst not in out:
                out.add(e.dst)
                changed = True
    return out


def sync_target(g, coloring, word):
    """Follow the word backward from every vertex by scanning the edge list.

    Returns the common source vertex, or None if any step is undefined or
    the ends disagree.
    """
    ends = set()
    for start in g.vertices:
        at = start
        ok = True
        for ch in word:
            j = int(ch)
            hits = [e for e in g.edges if e.dst == at and coloring.of(e.id) == j]
            if len(hits) != 1:
                ok = False
                break
            at = hits[0].src
        if not ok:
            return None
        ends.add(at)
    if len(ends) == 1:
        return ends.pop()
    return None


def convolve(g, terms_a, terms_b):
    """Product of two path-indexed coefficient dicts by direct concatenation.

    Keys are (base, edges) pairs; a pair composes when the left factor's
    source vertex equals the right factor's range vertex.
    """

    def src_of(key):
        base, edges = key
        return g.src(edges[-1]) if edges else base

    def rng_of(key):
        base, edges = key
        return g.dst(edges[0]) if edges else base

    out = {}
    for ka, ca in terms_a.items():
        for kb, cb in terms_b.items():
            if src_of(ka) != rng_of(kb):
                continue
            key = (kb[0], ka[1] + kb[1])
            out[key] = out.get(key, 0j) + ca * cb
    return {k: c for k, c in out.items() if c != 0}


def formal_mul(a, b):
    """``series.formal_mul`` over every pair of terms, as it was before the
    terms of b were grouped by range."""
    from semigroupoid_kit import FormalElement, compose

    out = {}
    for mu, ca in a.terms.items():
        for nu, cb in b.terms.items():
            prod = compose(a.graph, mu, nu)
            if prod is not None:
                out[prod] = out.get(prod, 0) + ca * cb
    return FormalElement._trusted(a.graph, out)


# The series kernels as they were while every result went through
# ``_nonzero`` and every grade and source was read through ``len(p)`` and
# ``source``; each returns the terms of its result as a dict.


def _nonzero(terms):
    return {p: z for p, c in terms.items() if (z := complex(c)) != 0}


def series_add(terms_a, terms_b):
    merged = dict(terms_a)
    for p, c in terms_b.items():
        merged[p] = merged.get(p, 0) + c
    return _nonzero(merged)


def series_scale(terms, c):
    return _nonzero({p: c * a for p, a in terms.items()})


def series_sub(terms_a, terms_b):
    return series_add(terms_a, series_scale(terms_b, -1))


def series_mul(g, terms_a, terms_b):
    """The product with b's terms grouped by range, each pair through ``compose``."""
    from semigroupoid_kit import compose, path_range, source

    ending = {}
    for nu, cb in terms_b.items():
        ending.setdefault(path_range(g, nu), []).append((nu, cb))
    out = {}
    for mu, ca in terms_a.items():
        for nu, cb in ending.get(source(g, mu), ()):
            prod = compose(g, mu, nu)
            out[prod] = out.get(prod, 0) + ca * cb
    return _nonzero(out)


def fourier_coeff(terms, m):
    return _nonzero({p: c for p, c in terms.items() if len(p) == m})


def cesaro(terms, k):
    return _nonzero({p: c * (1 - len(p) / k) for p, c in terms.items() if len(p) < k})


def degree(terms):
    return max(len(p) for p in terms) if terms else None


def graded_ideal_degree(terms):
    return min(len(p) for p in terms) if terms else None


def l2_row_norm(g, terms, m, v):
    from semigroupoid_kit import source

    total = 0.0
    for p, c in terms.items():
        if len(p) == m and source(g, p) == v:
            total += abs(c) ** 2
    return math.sqrt(total)


def turns_of(z):
    """Angle of a unimodular complex number in turns, in [0, 1)."""
    t = math.atan2(z.imag, z.real) / (2 * math.pi)
    return t % 1.0


def root_turn_set(lam_turns: Fraction, p: int):
    """The p angle classes t with p*t == lam (mod 1), as exact fractions."""
    return {((lam_turns + j) / p) % 1 for j in range(p)}


def source_elimination(g):
    """Source elimination by rebuilding the graph after every layer.

    Deletes all in-degree-0 vertices at once, builds the graph on what is
    left, and repeats until no source remains.  Returns (core, layers,
    exhausted) in the package's format; it is the reference for the
    package's single in-degree-counting pass.
    """
    from semigroupoid_kit import Graph

    current = g
    layers = []
    while True:
        sources = sorted(v for v in current.vertices if not current.in_edges(v))
        if not sources:
            break
        layers.append(sources)
        gone = set(sources)
        current = Graph(
            tuple(v for v in current.vertices if v not in gone),
            tuple(e for e in current.edges if e.src not in gone and e.dst not in gone),
        )
    return current, layers, not current.vertices


def reaches_cycle(g):
    """vertex -> whether some vertex reachable from it lies on a closed walk."""
    r = reach(g)
    sr = strict_reach(g)
    return {v: any(u in sr[u] for u in r[v]) for v in g.vertices}


def _column_residual(mat, grades, lo, hi):
    """(max |entry| over columns with grade in [lo, hi], max over the rest),
    over all stored entries at once."""
    coo = mat.tocoo()
    # abs() entry by entry; np.abs of complex data can differ from it in the last bit
    mags = np.hypot(coo.data.real, coo.data.imag)
    grade = grades[coo.col]
    inside = (lo <= grade) & (grade <= hi)
    return tuple(float(m.max()) if m.size else 0.0 for m in (mags[inside], mags[~inside]))


def column_residual(mat, grades, lo, hi):
    """(max |entry| over columns with grade in [lo, hi], max over the rest),
    one stored entry at a time."""
    coo = mat.tocoo()
    interior = boundary = 0.0
    for c, v in zip(coo.col, coo.data):
        if lo <= grades[c] <= hi:
            interior = max(interior, abs(v))
        else:
            boundary = max(boundary, abs(v))
    return float(interior), float(boundary)


# ---------------------------------------------------------------------------
# road colouring: the implementations the bitmask kernel replaced


def subset_bfs(auto, full):
    """Shortest synchronizing word by breadth-first search over frozensets.

    FIFO order, colours 1..d, the first singleton reached wins; a subset
    holding a vertex with no edge of the colour raises from ``auto.step``.
    """
    from collections import deque

    def image(subset, j):
        return frozenset(auto.step(v, j)[0] for v in subset)

    seen = {full: ""}
    queue = deque([full])
    while queue:
        cur = queue.popleft()
        for j in range(1, auto.coloring.d + 1):
            nxt = image(cur, j)
            if nxt in seen:
                continue
            seen[nxt] = seen[cur] + str(j)
            if len(nxt) == 1:
                return seen[nxt]
            queue.append(nxt)
    return None


# The dict-keyed backward automaton and kernels that the integer rows
# replaced, with the validation they ran before it became a set-level pass.


def validate_coloring(g, c):
    """Strongness report, each fault named by sorted scans over every edge
    and every in-fibre."""
    from semigroupoid_kit.validation import ValidationReport

    report = ValidationReport()
    if c.d < 1 or c.d > 9:
        report.add("bad-d", f"color count d={c.d} outside 1..9")
    edge_ids = {e.id for e in g.edges}
    for eid in sorted(c.color):
        if eid not in edge_ids:
            report.add("unknown-edge", f"color assigned to unknown edge {eid}", eid)
    for eid in sorted(edge_ids):
        if eid not in c.color:
            report.add("uncolored-edge", f"edge {eid} has no color", eid)
        elif not 1 <= c.color[eid] <= c.d:
            report.add(
                "color-out-of-range",
                f"edge {eid} has color {c.color[eid]} outside 1..{c.d}",
                eid,
            )
    complete = True
    for v in g.sorted_vertices():
        seen = {}
        for eid in g.in_edges(v):
            col = c.color.get(eid)
            if col is None:
                complete = False
                continue
            if col in seen:
                report.add(
                    "not-strong",
                    f"edges {seen[col]} and {eid} into {v} share color {col}",
                    v,
                )
            seen[col] = eid
        # compare sizes first, so a huge d never builds range(1, d + 1)
        if len(seen) != max(c.d, 0) or set(seen) != set(range(1, c.d + 1)):
            complete = False
    report.add(
        "complete",
        "every vertex receives each color exactly once"
        if complete
        else "some vertex misses a color on its incoming edges",
        severity="info",
    )
    return report


class DictAutomaton:
    """Map (vertex, color) -> (source vertex, edge id) of the color-j in-edge."""

    def __init__(self, g, c):
        self.graph, self.coloring = g, c
        self.delta = {}
        for v in g.sorted_vertices():
            for eid in g.in_edges(v):
                self.delta[(v, c.of(eid))] = (g.src(eid), eid)

    def step(self, v, j):
        from semigroupoid_kit import PartialAutomaton

        if (v, j) not in self.delta:
            raise PartialAutomaton("no incoming edge of that color", vertex=v, color=j)
        return self.delta[(v, j)]


def backward_automaton(g, c):
    """``DictAutomaton`` of a colouring that ``validate_coloring`` passes."""
    from semigroupoid_kit import InvalidColoring

    report = validate_coloring(g, c)
    if not report.valid:
        raise InvalidColoring(
            "coloring is not strong", findings=[f.message for f in report.errors]
        )
    return DictAutomaton(g, c)


def follow(auto, v, word):
    """(source, edge ids) of the backward walk from v, one ``step`` a letter."""
    at, edges = v, []
    for ch in word:
        at, eid = auto.step(at, int(ch))
        edges.append(eid)
    return at, tuple(edges)


def sync_target_dict(auto, word):
    """Common end of the walks from every vertex, the set of ends stepped as
    a whole; on an undefined step the walks are retaken in graph order, so
    the error names the first vertex whose own walk meets it."""
    ends = set(auto.graph.vertices)
    try:
        for ch in word:
            ends = {auto.delta[v, int(ch)][0] for v in ends}
    except KeyError:
        for v in auto.graph.vertices:
            follow(auto, v, word)
    return ends.pop() if len(ends) == 1 else None


def syncdiag(g, c, gamma, gamma_prime):
    """(vertex, mu' edges, mu edges) of the sync diagram on the dict automaton."""
    from semigroupoid_kit import DomainError

    auto = backward_automaton(g, c)
    v = sync_target_dict(auto, gamma)
    if v is None:
        raise DomainError("word does not synchronize", word=gamma)
    w, mu_prime = follow(auto, v, gamma_prime)
    back, mu = follow(auto, w, gamma)
    assert back == v
    return v, mu_prime, mu


def pair_merge_word(auto, a, b):
    """Shortest word taking a and b to one vertex, by BFS over name pairs."""
    from collections import deque

    start = (a, b) if a <= b else (b, a)
    seen = {start: ""}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for j in range(1, auto.coloring.d + 1):
            na = auto.step(cur[0], j)[0]
            nb = auto.step(cur[1], j)[0]
            if na == nb:
                return seen[cur] + str(j)
            key = (na, nb) if na <= nb else (nb, na)
            if key not in seen:
                seen[key] = seen[cur] + str(j)
                queue.append(key)
    return None


def greedy_merge(auto, full):
    """Merge the two least vertices of the set until one is left; each step
    of the set takes its vertices in sorted order."""
    current = frozenset(full)
    word = ""
    while len(current) > 1:
        a, b = sorted(current)[:2]
        piece = pair_merge_word(auto, a, b)
        if piece is None:
            return None
        word += piece
        for ch in piece:
            current = frozenset(auto.step(v, int(ch))[0] for v in sorted(current))
    return word


def synchronizing_word(g, coloring):
    """``find_synchronizing_word`` on the dict-keyed automaton: the frozenset
    search for small graphs, the name-pair greedy merge for large ones."""
    from semigroupoid_kit import roadcoloring as rc

    auto = backward_automaton(g, coloring)
    full = frozenset(g.vertices)
    if len(full) <= 1:
        return ""
    if len(full) <= rc.SUBSET_BFS_LIMIT:
        return subset_bfs(auto, full)
    return greedy_merge(auto, full)


def sync_vertex(g, coloring, word):
    """``is_synchronizing_word`` by one ``follow_backward`` per vertex, each
    validating the colouring again."""
    from semigroupoid_kit import follow_backward

    ends = {follow_backward(g, coloring, v, word)[0] for v in g.vertices}
    return ends.pop() if len(ends) == 1 else None


def candidate_colorings(g, d):
    """Every strong colouring with the least vertex's in-fibre coloured
    1..d in edge-id order, the rest in product order of the sorted vertices."""
    import itertools

    from semigroupoid_kit import Coloring

    fibers = [g.in_edges(v) for v in sorted(g.vertices)]
    perms = list(itertools.permutations(range(1, d + 1)))
    choices = [[tuple(range(1, d + 1))]] + [perms] * (len(fibers) - 1)
    for combo in itertools.product(*choices):
        color = {}
        for fiber, perm in zip(fibers, combo):
            color.update(zip(fiber, perm))
        yield Coloring(d, color)


def search_coloring(g, d):
    """Exhaustive search: the first candidate with a synchronizing word,
    periodic graphs included, each candidate validated."""
    for cand in candidate_colorings(g, d):
        word = synchronizing_word(g, cand)
        if word is not None:
            return cand, word
    return None


def obrien_coloring(g, loop_edge):
    """``obrien_coloring`` by a deque breadth-first tree that reads each
    out-edge's range through the checked ``Graph.dst``: the loop and the
    tree edges get colour 1, each in-fibre's other edges 2, 3, ... in
    edge-id order.  The graph must be in-degree regular and transitive."""
    from collections import deque

    from semigroupoid_kit import Coloring

    v0 = g.src(loop_edge)
    tree_edge, depth = {}, {v0: 0}
    queue = deque([v0])
    while queue:
        u = queue.popleft()
        for eid in g.out_edges(u):
            w = g.dst(eid)
            if w not in depth:
                depth[w] = depth[u] + 1
                tree_edge[w] = eid
                queue.append(w)
    color = {}
    for v in g.sorted_vertices():
        ones = loop_edge if v == v0 else tree_edge[v]
        color[ones] = 1
        rest = [eid for eid in g.in_edges(v) if eid != ones]
        for col, eid in enumerate(rest, start=2):
            color[eid] = col
    return Coloring(len(g.in_edges(v0)), color), "1" * max(depth.values())


# ---------------------------------------------------------------------------
# explicit families: the coisometry scan that the disjointness pass replaced


def coisometry_flags(a):
    """(ck_holds, fully_coisometric, ck_failures, f_failures), by a second
    scan of the pi-ranges into every vertex.

    ck considers vertices with at least one incoming edge: the pi-ranges
    over incoming edges must cover Lambda_v.  The fully coisometric flag
    additionally requires Lambda_v to be empty at in-degree-0 vertices.
    """
    g = a.graph
    ck_fail = []
    f_fail = []
    for v in g.sorted_vertices():
        labels = set(a.labels(v))
        covered = set()
        for eid in g.in_edges(v):
            covered.update(a.pi.get(eid, {}).values())
        if g.in_edges(v):
            if labels - covered:
                ck_fail.append(v)
                f_fail.append(v)
        elif labels:
            f_fail.append(v)
    return not ck_fail, not (ck_fail or f_fail), ck_fail, f_fail


def validate_atomic(a, require_total=True):
    """``atomic.validate_atomic`` by walking every arc in sorted order: each
    pi item is checked against fresh label sets, and every arc into a vertex
    is stamped while the range cover is built label by label."""
    from semigroupoid_kit.validation import ValidationReport

    g = a.graph
    report = ValidationReport()
    for v, labels in sorted(a.lam.items()):
        if not g.has_vertex(v):
            report.add("unknown-vertex", f"index set attached to unknown vertex {v}", v)
        if len(set(labels)) != len(labels):
            report.add("duplicate-label", f"duplicate index labels at {v}", v)
    known_edges = {e.id for e in g.edges}
    for eid, mapping in sorted(a.pi.items()):
        if eid not in known_edges:
            report.add("unknown-edge", f"pi attached to unknown edge {eid}", eid)
            continue
        src, dst = g.src(eid), g.dst(eid)
        src_labels = set(a.labels(src))
        dst_labels = set(a.labels(dst))
        for i, j in sorted(mapping.items()):
            if i not in src_labels:
                report.add("bad-from", f"pi_{eid} defined on {i} not in Lambda_{src}", eid)
            if j not in dst_labels:
                report.add("bad-to", f"pi_{eid} sends {i} to {j} not in Lambda_{dst}", eid)
        values = list(mapping.values())
        if len(set(values)) != len(values):
            report.add("not-injective", f"pi_{eid} is not injective", eid)
    ck_fail = []
    f_fail = []
    for v in g.sorted_vertices():
        hit = {}
        for eid in g.in_edges(v):
            for i, j in sorted(a.pi.get(eid, {}).items()):
                stamp = f"{eid}[{i}]"
                if j in hit:
                    report.add(
                        "overlapping-ranges",
                        f"label {j} at {v} is hit by {hit[j]} and {stamp}",
                        v,
                    )
                else:
                    hit[j] = stamp
        if g.in_edges(v):
            if set(a.labels(v)) - hit.keys():
                ck_fail.append(v)
                f_fail.append(v)
        elif a.labels(v):
            f_fail.append(v)
    for (eid, i), ph in sorted(a.phases.items(), key=lambda kv: kv[0]):
        if eid not in known_edges:
            report.add("unknown-edge", f"phase attached to unknown edge {eid}", eid)
        elif i not in a.pi.get(eid, {}):
            report.add(
                "phase-without-arc",
                f"phase attached to ({eid}, {i}) but pi_{eid} is undefined there",
                eid,
            )
    missing = [
        (eid, i)
        for eid in sorted(known_edges)
        for i in a.labels(g.src(eid))
        if i not in a.pi.get(eid, {})
    ]
    if missing:
        sample = ", ".join(f"pi_{e}[{i}]" for e, i in missing[:5])
        report.add(
            "non-total",
            f"{len(missing)} undefined image(s), e.g. {sample}",
            severity="error" if require_total else "info",
        )
    report.add(
        "ck",
        f"CK fails at {ck_fail}" if ck_fail else "CK identity holds at every finite receiver",
        severity="info",
    )
    report.add(
        "fully-coisometric",
        f"coisometry fails at {f_fail}" if f_fail else "family is fully coisometric",
        severity="info",
    )
    report.add("nondegenerate", "vertex projections sum to the identity", severity="info")
    return report


def connected_components(nodes, links):
    """Union-find components of ``nodes`` joined by ``links``, each sorted,
    ordered by least member."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for n in nodes:
        groups.setdefault(find(n), []).append(n)
    return sorted((sorted(ns) for ns in groups.values()), key=lambda c: c[0])


def undirected_components(g):
    """``graph.undirected_components`` by union-find over the edges."""
    return connected_components(g.vertices, ((e.src, e.dst) for e in g.edges))


def h_components(h):
    """``LabeledH.components`` by union-find over the arcs of H, each
    component sorted, ordered by least node."""
    return connected_components(h.nodes, ((arc.src, arc.dst) for arc in h.arcs))


def trace_backward(h, node):
    """``atomic.trace_backward`` by its own seen-dict walk: follow the
    unique predecessor chain from ``node`` until it reaches a root or steps
    onto a node it has seen.  A node whose predecessor lies off ``h.pred``
    raises KeyError here, as the walk never leaves the nodes of ``h``."""
    from semigroupoid_kit import CycleFound, DomainError, Path, RootFound
    from semigroupoid_kit.atomic import _phase_product

    if node not in h.pred:
        raise DomainError("unknown node", node=node)
    walk = [node]
    seen = {node: 0}
    labels = []
    while True:
        arc = h.pred[walk[-1]]
        if arc is None:
            root = walk[-1]
            edges = tuple(a.edge for a in labels)
            return RootFound(root, Path(root[0], edges))
        labels.append(arc)
        prev = arc.src
        if prev in seen:
            t = seen[prev]
            j = len(walk) - 1
            cyc_arcs = labels[t : j + 1]  # arc into walk[t] .. arc into walk[j]
            nodes_fwd = (walk[t],) + tuple(reversed(walk[t + 1 : j + 1]))
            edges = tuple(a.edge for a in cyc_arcs)
            phase = _phase_product([a.phase for a in cyc_arcs])
            return CycleFound(nodes_fwd, Path(prev[0], edges), phase, t)
        seen[prev] = len(walk)
        walk.append(prev)


def split(a):
    """``ExplicitAtomic._split`` from the full H: union-find components, then
    one seen-dict ``trace_backward`` from the least node of each.  The
    roots are counted per vertex, ``{vertex: n}`` in vertex order, and the
    cycle traces listed in the order of their components' least nodes."""
    from semigroupoid_kit import RootFound, build_H

    h = build_H(a)
    roots, cycles, cycle_nodes = [], [], set()
    for comp in h_components(h):
        outcome = trace_backward(h, comp[0])
        if isinstance(outcome, RootFound):
            roots.append(outcome.root)
        else:
            cycles.append(outcome)
            cycle_nodes.update(comp)
    counts: dict[str, int] = {}
    for v, _ in sorted(roots):
        counts[v] = counts.get(v, 0) + 1
    return counts, tuple(cycles), frozenset(cycle_nodes)


# ---------------------------------------------------------------------------
# unitary equivalence: every pair of atoms, and the one-to-one matching that
# the sums over tolerance classes replaced


def _witness(atom, here, side):
    from semigroupoid_kit.atomic import describe_atom

    if not here[1 - side]:
        return f"unmatched atom {describe_atom(atom)}"
    return f"multiplicity differs at {describe_atom(atom)}: {here[0]} vs {here[1]}"


def compare_decompositions(da, db, tol=1e-9):
    """The definition: each side's multiplicity at an atom is the sum over
    all of that side's atoms within ``tol`` of it, read pair by pair; the
    witness is the first atom of ``da``, else of ``db``, where they differ."""
    from semigroupoid_kit.atomic import EquivalenceReport, atoms_equal, mult_add

    sides = (da.atoms, db.atoms)
    for side in (0, 1):
        for atom, _ in sides[side]:
            here = [0, 0]
            for k, atoms in enumerate(sides):
                for other, mult in atoms:
                    if atoms_equal(atom, other, tol):
                        here[k] = mult_add(here[k], mult)
            if here[0] != here[1]:
                return EquivalenceReport(False, _witness(atom, here, side))
    return EquivalenceReport(True, "atom multisets agree")


def compare_one_to_one(da, db, tol=1e-9):
    """Each atom of ``da`` matched to the first unmatched atom of ``db``
    within ``tol``, multiplicities compared pair by pair; it agrees with the
    definition where each tolerance class holds one atom of each side."""
    from semigroupoid_kit.atomic import EquivalenceReport, atoms_equal

    right = list(db.atoms)
    for atom, mult in da.atoms:
        match = next((k for k, (o, _) in enumerate(right) if atoms_equal(atom, o, tol)), None)
        if match is None or right[match][1] != mult:
            here = [mult, 0 if match is None else right[match][1]]
            return EquivalenceReport(False, _witness(atom, here, 0))
        right.pop(match)
    if right:
        return EquivalenceReport(False, _witness(right[0][0], [0, right[0][1]], 1))
    return EquivalenceReport(True, "atom multisets agree")


# ---------------------------------------------------------------------------
# condition (M) on canonical families: the word enumeration that the walk
# along mu replaced


def cycle_tree(g, w):
    """Vertices carrying off-cycle vectors of the cycle family on w: one
    closure per edge that leaves a visited vertex other than the cycle's own."""
    tree = set()
    for eid in w.edges:
        for fid in g.out_edges(g.src(eid)):
            if fid != eid:
                tree |= closure(g, [g.dst(fid)])
    return tree


def incoming_words(g, v, n, support):
    """Edge tuples (product order) of every length-n path into v whose
    source lies in ``support``, by recursion over all in-edges."""
    words = set()

    def walk(at, acc):
        if len(acc) == n:
            if at in support:
                words.add(tuple(acc))
            return
        for eid in g.in_edges(at):
            walk(g.src(eid), acc + [eid])

    walk(v, [])
    return words


def condM_canonical(g, fam, mu, words=incoming_words):
    """(class, detail) of ``orbit_condition_M`` on a canonical family and a
    cycle mu of positive length, from every incoming word of length |mu|.
    ``words`` computes those words, as ``incoming_words`` does; a caller
    may pass a memoized copy."""
    from semigroupoid_kit import DirectSum, LeftRegular, TailType

    if isinstance(fam, DirectSum):
        verdicts = [condM_canonical(g, part, mu, words) for part, _ in fam.parts]
        for kind in ("NotUnitary", "DominatesLebesgue"):
            for verdict in verdicts:
                if verdict[0] == kind:
                    return verdict
        return "Singular", "every summand acts with finite orbits"
    v = mu.base
    if isinstance(fam, LeftRegular):
        support = closure(g, [fam.vertex])
    else:
        support = {g.src(eid) for eid in fam.cycle.edges} | cycle_tree(g, fam.cycle)
    if v not in support:
        return "Singular", f"no basis vectors at {v}; the compression is zero"
    if isinstance(fam, LeftRegular):
        return "NotUnitary", (
            "left-regular vectors of minimal length at the base escape the range of S_mu"
        )
    others = words(g, v, len(mu), support) - {mu.edges}
    if others:
        return "NotUnitary", (
            f"a second incoming word {list(min(others))} lands at {v}, so S_mu is not onto"
        )
    if isinstance(fam, TailType):
        return "DominatesLebesgue", "S_mu shifts the backward-infinite chain, one infinite orbit"
    if v in cycle_tree(g, fam.cycle):
        return "DominatesLebesgue", (
            "S_mu shifts an infinite ladder of off-cycle vectors at the base"
        )
    return "Singular", "S_mu permutes the finitely many cycle vectors at the base"


# ---------------------------------------------------------------------------
# truncations: the label-driven builders that the closed-form index maps
# replaced, and the per-vertex and per-edge basis scans before them


def build_left_regular_trunc(g, sources, depth):
    """``trunc.build_left_regular_trunc`` from the enumerated path labels."""
    from semigroupoid_kit import DomainError, Path, enumerate_paths, path_range

    if depth < 0:
        raise DomainError("depth must be nonnegative", depth=depth)
    basis = enumerate_paths(g, sources, depth)
    return _assemble(
        g, depth, "left_regular", basis, [len(p) for p in basis],
        [path_range(g, p) for p in basis], lambda p, eid: Path(p.base, (eid,) + p.edges),
        {"sources": sorted(set(sources))},
    )


def build_colored_trunc(g, coloring, depth):
    """``trunc.build_colored_trunc`` from the sorted colour-word labels."""
    from semigroupoid_kit import DomainError, InvalidColoring, validate_coloring
    from semigroupoid_kit.paths import _count_levels

    if depth < 0:
        raise DomainError("depth must be nonnegative", depth=depth)
    report = validate_coloring(g, coloring)
    if not report.valid:
        raise InvalidColoring(
            "coloring is not strong", findings=[f.message for f in report.errors]
        )
    d = coloring.d
    for v in g.sorted_vertices():
        fiber = sorted(coloring.of(e) for e in g.in_edges(v))
        if fiber != list(range(1, d + 1)):
            raise DomainError(
                "colored truncation needs a complete strong coloring "
                "(in-degree d-regular, every color in every fiber)",
                vertex=v,
            )
    # the words of the blocks are the paths into their vertices: the walk counts them
    _count_levels(g, g.sorted_vertices(), depth)
    words = [""]
    level = [""]
    for _ in range(depth):
        level = [str(j) + w for w in level for j in range(1, d + 1)]
        level.sort()
        words.extend(level)
    labels = [(v, w) for v in g.sorted_vertices() for w in words]
    color = {eid: str(coloring.of(eid)) for eid in g.sorted_edge_ids()}
    return _assemble(
        g, depth, "colored", labels, [len(w) for _, w in labels], [v for v, _ in labels],
        lambda lab, eid: (g.dst(eid), color[eid] + lab[1]),
        {"coloring": coloring.to_json_dict()},
    )


def colored_labels(g, d, depth):
    """The colored truncation's labels as its digit strings were built when a
    letter was a character of ``"123456789"[:d]``: each vertex block by
    length, then in string order."""
    from itertools import product

    letters = "123456789"[:d]
    return [
        (v, "".join(w)) for v in g.sorted_vertices()
        for k in range(depth + 1) for w in product(letters, repeat=k)
    ]


def _assemble(g, depth, kind, labels, grades, label_vertex, shift, meta):
    """Vertex projections and one 0/1 matrix per edge, from one pass over the
    basis: the edge e sends each label of grade below ``depth`` at its source
    vertex to ``shift(label, e)``, which fills e's column -> row map."""
    from array import array

    from semigroupoid_kit.trunc import TruncatedRep, _csr

    n = len(labels)
    index = {label: i for i, label in enumerate(labels)}
    diagonal = {v: [] for v in g.sorted_vertices()}
    targets = {eid: array("i", [-1]) * n for eid in g.sorted_edge_ids()}
    for i, (label, v) in enumerate(zip(labels, label_vertex)):
        diagonal[v].append(i)
        if grades[i] < depth:
            for eid in g.out_edges(v):
                targets[eid][i] = index[shift(label, eid)]
    vertex_ops = {}
    for v, rows in diagonal.items():
        rows = np.array(rows, dtype=int)
        vertex_ops[v] = _csr(n, rows, rows, np.ones(len(rows)))
    edge_ops = {}
    for eid, target in targets.items():
        row = np.frombuffer(target, dtype=np.intc)
        cols = np.flatnonzero(row >= 0)
        edge_ops[eid] = _csr(n, row[cols], cols, np.ones(len(cols)))
    return TruncatedRep(
        g, depth, kind, labels, np.array(grades, dtype=int), label_vertex,
        vertex_ops, edge_ops, meta,
    )


def truncation_ops(rep):
    """(vertex_ops, edge_ops) rebuilt from the labels of a truncation by
    scanning the whole basis once per vertex and once per edge."""
    import scipy.sparse as sp

    g, labels, n = rep.graph, rep.labels, len(rep.labels)
    colored = rep.kind == "colored"
    index = {label: i for i, label in enumerate(labels)}

    def vertex_of(label):
        if colored:
            return label[0]
        return g.dst(label.edges[0]) if label.edges else label.base

    def grade_of(label):
        return len(label[1]) if colored else len(label.edges)

    def shifted(label, eid):
        if colored:
            return g.dst(eid), str(rep.meta["coloring"]["color"][eid]) + label[1]
        return type(label)(label.base, (eid,) + label.edges)

    vertex_ops, edge_ops = {}, {}
    for v in g.sorted_vertices():
        rows = [i for i, label in enumerate(labels) if vertex_of(label) == v]
        vertex_ops[v] = sp.csr_matrix((np.ones(len(rows)), (rows, rows)), shape=(n, n))
    for eid in g.sorted_edge_ids():
        rows, cols = [], []
        for i, label in enumerate(labels):
            if vertex_of(label) == g.src(eid) and grade_of(label) < rep.depth:
                rows.append(index[shifted(label, eid)])
                cols.append(i)
        edge_ops[eid] = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return vertex_ops, edge_ops


# ---------------------------------------------------------------------------
# truncation checks: the sparse-product versions that the index-map checks
# replaced, one SciPy product or sum per relation term, path or series term


def verify_tck(rep):
    """Reports of ``trunc.verify_tck``, from sparse products and sums."""
    import scipy.sparse as sp
    from semigroupoid_kit.trunc import RelationReport

    g = rep.graph
    grades = rep.grades
    N = rep.depth
    reports = []

    worst = 0.0
    detail = ""
    n = rep.dim
    ident = sp.identity(n, format="csr")
    for v in g.sorted_vertices():
        sv = rep.vertex_ops[v]
        r1 = _column_residual(sv @ sv - sv, grades, 0, N)[0]
        r2 = _column_residual(sv - sv.conjugate().transpose().tocsr(), grades, 0, N)[0]
        local = max(r1, r2)
        if local > worst:
            worst, detail = local, f"projection identity fails at {v}"
    for i, v in enumerate(g.sorted_vertices()):
        for w in g.sorted_vertices()[i + 1:]:
            r = _column_residual(
                rep.vertex_ops[v] @ rep.vertex_ops[w], grades, 0, N
            )[0]
            if r > worst:
                worst, detail = r, f"projections at {v} and {w} overlap"
    reports.append(RelationReport("P", 0, N, worst, worst == 0.0, 0.0, detail))

    worst, boundary, detail = 0.0, 0.0, ""
    for eid in g.sorted_edge_ids():
        se = rep.edge_ops[eid]
        res = se.conjugate().transpose() @ se - rep.vertex_ops[g.src(eid)]
        inner, outer = _column_residual(res.tocsr(), grades, 0, N - 1)
        boundary = max(boundary, outer)
        if inner > worst:
            worst, detail = inner, f"isometry identity fails at {eid}"
    reports.append(RelationReport("IS", 0, N - 1, worst, worst == 0.0, boundary, detail))

    # S_v minus the range sum of the edges into v, shared by TCK, CK and F
    defect = {}
    for v in g.sorted_vertices():
        acc = sp.csr_matrix((n, n))
        for eid in g.in_edges(v):
            se = rep.edge_ops[eid]
            acc = acc + se @ se.conjugate().transpose()
        defect[v] = rep.vertex_ops[v] - acc

    worst, detail = 0.0, ""
    for v in g.sorted_vertices():
        diff = defect[v].tocoo()
        local = 0.0
        for r, c, val in zip(diff.row, diff.col, diff.data):
            if r == c:
                local = max(local, max(0.0, -val.real), abs(val.imag))
            else:
                local = max(local, abs(val))
        if local > worst:
            worst, detail = local, f"range sum exceeds the projection at {v}"
    reports.append(RelationReport("TCK", 0, N, worst, worst == 0.0, 0.0, detail))

    for name, verts in (
        ("CK", [v for v in g.sorted_vertices() if g.in_edges(v)]),
        ("F", list(g.sorted_vertices())),
    ):
        worst, boundary, detail = 0.0, 0.0, ""
        for v in verts:
            inner, outer = _column_residual(defect[v].tocsr(), grades, 1, N - 1)
            boundary = max(boundary, outer)
            if inner > worst:
                worst, detail = inner, f"range sum misses the projection at {v}"
        reports.append(
            RelationReport(name, 1, N - 1, worst, worst == 0.0, boundary, detail)
        )

    total = sp.csr_matrix((n, n))
    for v in g.sorted_vertices():
        total = total + rep.vertex_ops[v]
    worst = _column_residual(total - ident, grades, 0, N)[0]
    reports.append(RelationReport("ND", 0, N, worst, worst == 0.0, 0.0, ""))
    return reports


def path_matrix(rep, p):
    """``trunc.path_matrix`` as a product of edge matrices; integer and bool
    ones multiply in float64, as ``trunc`` multiplies them."""
    from semigroupoid_kit import DomainError

    if not p.edges:
        try:
            return rep.vertex_ops[p.base]
        except KeyError:
            raise DomainError("unknown vertex", vertex=p.base) from None
    mat = None
    for eid in p.edges:
        try:
            factor = rep.edge_ops[eid]
        except KeyError:
            raise DomainError("unknown edge", edge=eid) from None
        if mat is not None and np.result_type(mat.dtype, factor.dtype).kind in "biu":
            mat, factor = mat.astype(np.float64), factor.astype(np.float64)  # no wrap-around
        mat = factor if mat is None else mat @ factor
    return mat.tocsr()


def apply_formal(rep, elem):
    """``trunc.apply_formal`` as a running sparse sum over the terms."""
    import scipy.sparse as sp
    from semigroupoid_kit import DomainError

    if elem.graph != rep.graph:
        raise DomainError("formal element and truncation use different graphs")
    n = rep.dim
    acc = sp.csr_matrix((n, n), dtype=complex)
    for p, c in elem.sorted_terms():
        acc = acc + c * path_matrix(rep, p).astype(complex)
    return acc.tocsr()


def coisometric_defect(rep, k):
    """``trunc.coisometric_defect`` as a sum over the enumerated paths.

    Each path's matrix is its prefix's times its first-applied edge, which
    is ``path_matrix``'s left-to-right product.  The prefixes of one edge
    and one dtype are stacked with ``sp.vstack`` and multiplied at once: a
    sparse product makes each row from the same row of its left factor, so
    each block of n rows is that path's own product.  The range sum is
    W W^*, W the grade's blocks side by side in path order: each row adds
    its terms in column order, so each entry is the running sum over the
    paths in path order, as long as a path matrix has at most one entry in
    a row; products of partial injections do, and ``trunc`` refuses any
    other operator.
    """
    import scipy.sparse as sp
    from semigroupoid_kit import DomainError, enumerate_paths

    if k < 0:
        raise DomainError("grade must be nonnegative", k=k)
    g = rep.graph
    n = rep.dim
    paths = enumerate_paths(g, g.vertices, k)
    # (stacked matrices, their keys): n rows per key, which is a vertex path
    # at grade 0 and an edge tuple above
    groups = [(path_matrix(rep, p), [p.edges if k else p]) for p in paths if len(p) == min(k, 1)]
    for length in range(2, k + 1):
        if not groups:
            break  # no longer path either
        level = {e: mat[i * n:(i + 1) * n] for mat, keys in groups for i, e in enumerate(keys)}
        picks = {}
        for p in paths:
            if len(p) == length:
                picks.setdefault((p.edges[-1], level[p.edges[:-1]].dtype), []).append(p.edges)
        groups = [
            (sp.vstack([level[e[:-1]] for e in keys], format="csr") @ rep.edge_ops[eid], keys)
            for (eid, _), keys in picks.items()
        ]
    # the grade's matrices side by side in path order
    position = {e: i for i, e in enumerate(p.edges if k else p for p in paths if len(p) == k)}
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
    for mat, keys in groups:
        coo = mat.tocoo()
        block = np.array([position[e] for e in keys], dtype=int)[coo.row // n]
        rows.append(coo.row % n)
        cols.append(block * n + coo.col)
        vals.append(coo.data)
    side = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, len(position) * n),
    )
    acc = side @ side.conjugate().transpose()
    ident = sp.identity(n, format="csr")
    upper = _column_residual(acc - ident, rep.grades, k, rep.depth)[0]
    lower = _column_residual(acc, rep.grades, 0, k - 1)[0] if k > 0 else 0.0
    return upper, lower


def wandering_certificate(rep, label, upto=None):
    """``trunc.wandering_certificate`` by pairwise inner products of the
    images of the basis vector under every path."""
    from semigroupoid_kit import enumerate_paths

    if upto is None:
        upto = rep.depth - 1
    idx = rep.index()[label]
    e = np.zeros(rep.dim, dtype=complex)
    e[idx] = 1.0
    vecs = []
    base_vertex = rep.label_vertex[idx]
    for p in enumerate_paths(rep.graph, [base_vertex], max(0, upto)):
        vec = path_matrix(rep, p).astype(complex) @ e
        if np.any(vec):
            vecs.append(vec)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if np.vdot(vecs[i], vecs[j]) != 0:
                return False
    return True
