"""Seeded random generators for graphs and atomic families.

Families built here come with their construction data (root counts, cycle
phases) so tests can pin expected classifications without round-tripping
through the code under test.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from semigroupoid_kit import (
    Coloring,
    ExplicitAtomic,
    Graph,
    Phase,
    cycle_graph,
    looped_triangle,
    obrien_coloring,
)


def random_graph(rng, max_v=6, max_e=10, acyclic=False):
    nv = rng.randint(2, max_v)
    vertices = [f"v{i}" for i in range(1, nv + 1)]
    ne = rng.randint(1, max_e)
    triples = []
    for k in range(ne):
        if acyclic:
            i = rng.randrange(nv - 1)
            j = rng.randrange(i + 1, nv)
            src, dst = vertices[i], vertices[j]
        else:
            src, dst = rng.choice(vertices), rng.choice(vertices)
        triples.append((f"e{k + 1}", src, dst))
    return Graph.build(vertices, triples)


def random_in_regular_graph(rng, nv, d):
    """Every vertex receives exactly d edges from random sources."""
    vertices = [f"v{i}" for i in range(1, nv + 1)]
    triples = []
    k = 0
    for v in vertices:
        for _ in range(d):
            k += 1
            triples.append((f"e{k}", rng.choice(vertices), v))
    return Graph.build(vertices, triples)


def cerny(n):
    """The Cerny automaton C_n in backward form, with its colouring (d = 2).

    Vertices c00, c01, ... sort as their indices.  The colour-1 edge into i
    comes from i + 1 mod n; the colour-2 edge into i comes from i, except
    into 0, where it comes from 1.  Its shortest synchronizing word has
    (n - 1)^2 letters, the worst case of its size.
    """
    verts = [f"c{i:02d}" for i in range(n)]
    triples, color = [], {}
    for i, v in enumerate(verts):
        triples += [(f"a{i:02d}", verts[(i + 1) % n], v), (f"b{i:02d}", verts[i or 1], v)]
        color[f"a{i:02d}"], color[f"b{i:02d}"] = 1, 2
    return Graph.build(verts, triples), Coloring(2, color)


def random_phase(rng):
    den = rng.choice([1, 2, 3, 4, 6, 8])
    return Phase.from_turns(rng.randrange(den), den)


def topological_order(g):
    placed = []
    left = set(g.vertices)
    while left:
        ready = sorted(
            v for v in left if all(e.src not in left for e in g.edges if e.dst == v)
        )
        assert ready, "graph has a cycle"
        placed.extend(ready)
        left.difference_update(ready)
    return placed


def random_root_family(rng, g, max_fresh=2, with_phases=True):
    """Random total explicit family on an acyclic graph.

    Labels at each vertex are the images demanded by in-edges plus a few
    fresh root labels.  Returns (family, fresh counts per vertex): the fresh
    labels are exactly the in-degree-0 nodes of the label graph, hence the
    wandering multiplicities by construction.
    """
    order = topological_order(g)
    lam: dict[str, tuple[str, ...]] = {}
    pi: dict[str, dict[str, str]] = {e.id: {} for e in g.edges}
    fresh: dict[str, int] = {}
    for v in order:
        demand = sum(len(lam[g.src(eid)]) for eid in g.in_edges(v))
        fresh_v = rng.randint(0, max_fresh)
        if demand + fresh_v == 0 and rng.random() < 0.5:
            fresh_v = 1
        size = demand + fresh_v
        labels = tuple(f"i{k}" for k in range(size))
        lam[v] = labels
        slots = list(labels)
        rng.shuffle(slots)
        pos = 0
        for eid in g.in_edges(v):
            for i in lam[g.src(eid)]:
                pi[eid][i] = slots[pos]
                pos += 1
        fresh[v] = fresh_v
    phases = {}
    if with_phases:
        for eid, mapping in pi.items():
            for i in mapping:
                if rng.random() < 0.5:
                    phases[(eid, i)] = random_phase(rng)
    fam = ExplicitAtomic(g, lam, pi, phases)
    return fam, {v: c for v, c in fresh.items() if c}


def loop_sink_graph():
    """A loop at v plus an exit edge to a sink w."""
    return Graph.build(["v", "w"], [("loop", "v", "v"), ("out", "v", "w")])


def random_loop_sink_family(rng, laps=2, sink_roots=1):
    """Cycle of the given lap count at the loop, hanging labels at the sink.

    Returns (family, total cycle phase in turns, sink root count).  The sink
    receives one image per loop label plus the requested fresh roots.
    """
    g = loop_sink_graph()
    lam_v = tuple(f"i{k}" for k in range(laps))
    lam_w = tuple(f"j{k}" for k in range(laps + sink_roots))
    pi_loop = {f"i{k}": f"i{(k + 1) % laps}" for k in range(laps)}
    pi_out = {f"i{k}": f"j{k}" for k in range(laps)}
    phases = {}
    total = Fraction(0)
    for k in range(laps):
        if rng.random() < 0.7:
            ph = random_phase(rng)
            phases[("loop", f"i{k}")] = ph
            total += ph.turns
        if rng.random() < 0.5:
            phases[("out", f"i{k}")] = random_phase(rng)
    fam = ExplicitAtomic(g, {"v": lam_v, "w": lam_w}, {"loop": pi_loop, "out": pi_out}, phases)
    return fam, total % 1, sink_roots


def random_gauge(rng, fam):
    return {
        node: random_phase(rng)
        for node in fam.nodes()
        if rng.random() < 0.8
    }


def random_relabeling(rng, fam):
    rename = {}
    for v in sorted(fam.lam):
        labels = list(fam.lam[v])
        fresh_names = [f"r{k}" for k in range(len(labels))]
        rng.shuffle(fresh_names)
        for i, new in zip(labels, fresh_names):
            rename[(v, i)] = new
    return rename


def random_cycle_family(rng, n=None, laps=None):
    """pure-cycle style data with random per-arc phases, built by hand."""
    from semigroupoid_kit import pure_cycle_family

    n = n or rng.randint(1, 3)
    laps = laps or rng.randint(1, 2)
    g = cycle_graph(n)
    count = n * laps
    phases = [random_phase(rng) for _ in range(count)]
    fam = pure_cycle_family(g, laps, phases)
    total = sum((p.turns for p in phases), Fraction(0)) % 1
    return g, fam, laps, total


# ---------------------------------------------------------------------------
# large inputs for the process-level scale suite (tests/scale.py), as JSON data


def looped_graph_json(n=100_000, seed=30):
    """A looped 2-in-regular graph: the loop e0 at v0, the ring r_k: v_{k-1}
    -> v_k, and one random in-edge x_k into every other vertex.  Transitive
    and aperiodic, so O'Brien's colouring synchronizes it to v0."""
    rng = random.Random(seed)
    vs = [f"v{k}" for k in range(n)]
    es = [("e0", "v0", "v0")] + [(f"r{k}", vs[k - 1], vs[k]) for k in range(n)]
    es += [(f"x{k}", rng.choice(vs), vs[k]) for k in range(1, n)]
    return {"vertices": vs, "edges": [{"id": i, "src": s, "dst": d} for i, s, d in es]}


def chain_family_json(n=100_000):
    """A chain v0 -> ... -> v_{n-1} with labels a and b at every vertex and
    each edge mapping a to a and b to b: one left-regular atom at v0 of
    multiplicity 2."""
    vs = [f"v{k}" for k in range(n)]
    edges = [{"id": f"e{k}", "src": vs[k], "dst": vs[k + 1]} for k in range(n - 1)]
    return {
        "graph": {"vertices": vs, "edges": edges},
        "lambda": {v: ["a", "b"] for v in vs},
        "pi": [{"edge": f"e{k}", "from": i, "to": i} for k in range(n - 1) for i in "ab"],
    }


def cycle_family_json(n=50_000, laps=2):
    """``pure_cycle_family(cycle_graph(n), laps)`` as JSON: the n-cycle v1 ->
    ... -> vn -> v1 with the labels i0, ..., i{laps-1} at every vertex, each
    edge keeping its label but the edge into v1, which advances it.  H is one
    cycle of laps * n arcs: laps cycle atoms of multiplicity 1 on the n-cycle,
    at the laps-th roots of 1."""
    vs = [f"v{k}" for k in range(1, n + 1)]
    edges = [{"id": f"e{k}", "src": vs[k - 1], "dst": vs[k % n]} for k in range(1, n + 1)]
    return {
        "graph": {"vertices": vs, "edges": edges},
        "lambda": {v: [f"i{t}" for t in range(laps)] for v in vs},
        "pi": [
            {"edge": f"e{k}", "from": f"i{t}", "to": f"i{(t + (k == n)) % laps}"}
            for k in range(1, n + 1) for t in range(laps)
        ],
    }


def isolated_family_json(n=100_000, label="a"):
    """n vertices v0, ..., v{n-1} and no edge, with the one label ``label`` at
    each: n left-regular atoms of multiplicity 1, one at every vertex,
    whatever the label is called."""
    vs = [f"v{k}" for k in range(n)]
    return {"graph": {"vertices": vs, "edges": []}, "lambda": {v: [label] for v in vs}}


def phased_chain_family_json(n=100_000, seed=34):
    """``chain_family_json`` with an exact phase on every arc, of denominator
    1, 2, 3, 4, 6 or 8: still one left-regular atom at v0 of multiplicity 2."""
    rng, data = random.Random(seed), chain_family_json(n)
    data["phase"] = [
        {"edge": row["edge"], "from": row["from"], "angle": {"num": rng.randrange(den), "den": den}}
        for row in data["pi"]
        for den in [rng.choice([1, 2, 3, 4, 6, 8])]
    ]
    return data


def two_loops_json():
    """One vertex v with the loops a and b."""
    loops = [{"id": e, "src": "v", "dst": "v"} for e in "ab"]
    return {"vertices": ["v"], "edges": loops}


def many_loops_json(n=3000):
    """One vertex v with the n loops l0, ..., l{n-1}."""
    return {"vertices": ["v"], "edges": [{"id": f"l{k}", "src": "v", "dst": "v"} for k in range(n)]}


def loop_words_json(max_len):
    """The formal sum of every path of length at most ``max_len`` on two loops."""
    return {"terms": [
        {"path": {"base": "v", "edges": list(w)}, "re": 1}
        for k in range(max_len + 1) for w in itertools.product("ab", repeat=k)
    ]}


def triangle_coloring_json():
    """O'Brien's colouring of the looped triangle from its loop at t."""
    coloring, _ = obrien_coloring(looped_triangle(), "loop_t")
    return coloring.to_json_dict()
