"""Seeded input generators.

Every generator draws only from the ``random.Random`` it is given, so one
seed gives the same inputs.  Sizes are spread evenly over their ranges and
do not depend on the seed, so the size mix, which sets most of the cost of a
pass, is the same for every seed; the seed chooses shapes, labels, phases,
colourings and coefficients.  Each input carries its construction facts (fresh root
counts, depths, total cycle phase, colour tables) for the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from semigroupoid_kit import atomic as at
from semigroupoid_kit import graph as gr
from semigroupoid_kit.paths import Path
from semigroupoid_kit.phases import Phase
from semigroupoid_kit.series import FormalElement

PHASE_DENS = (1, 2, 3, 4, 6, 8)


def spread(lo: int, hi: int, k: int) -> list[int]:
    """k sizes evenly spread over [lo, hi]: the midpoints of k equal strata."""
    return [lo + int((hi - lo + 1) * (i + 0.5) / k) for i in range(k)]


def random_turns(rng) -> Fraction:
    den = rng.choice(PHASE_DENS)
    return Fraction(rng.randrange(den), den)


@dataclass
class Plain:
    """Edge table of a graph, kept apart from the library's Graph."""

    vertices: list[str]
    edges: dict[str, tuple[str, str]] = field(default_factory=dict)

    def add(self, src: str, dst: str) -> str:
        eid = f"e{len(self.edges)}"
        self.edges[eid] = (src, dst)
        return eid

    def graph(self) -> gr.Graph:
        return gr.Graph.build(self.vertices, [(e, s, d) for e, (s, d) in self.edges.items()])

    def in_edges(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for eid, (_, d) in self.edges.items():
            out[d].append(eid)
        return out

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e, "src": s, "dst": d} for e, (s, d) in self.edges.items()],
        }


# ---------------------------------------------------------------------------
# structure: explicit atomic families


@dataclass
class TreeFamily:
    plain: Plain
    fam: at.ExplicitAtomic
    twin: at.ExplicitAtomic
    fresh: dict[str, int]  # in-degree-0 nodes of H per vertex: alpha by construction
    depth: dict[str, int]


@dataclass
class CycleFamily:
    plain: Plain
    fam: at.ExplicitAtomic
    twin: at.ExplicitAtomic
    laps: int
    total: Fraction  # product of all arc phases once around H, in turns


def forest(rng, n: int, root_frac: float = 0.05) -> tuple[Plain, dict[str, str]]:
    """Random recursive forest: vertex i >= #roots picks a parent below it."""
    roots = max(1, round(n * root_frac))
    plain = Plain([f"v{i}" for i in range(n)])
    parent = {}
    for i in range(roots, n):
        p = f"v{rng.randrange(i)}"
        parent[f"v{i}"] = p
        plain.add(p, f"v{i}")
    return plain, parent


def chain(n: int) -> tuple[Plain, dict[str, str]]:
    plain = Plain([f"v{i}" for i in range(n)])
    parent = {}
    for i in range(1, n):
        parent[f"v{i}"] = f"v{i - 1}"
        plain.add(f"v{i - 1}", f"v{i}")
    return plain, parent


def _twin(rng, g: gr.Graph, fam: at.ExplicitAtomic) -> at.ExplicitAtomic:
    """Gauge-and-relabel copy, built by hand: equivalent by construction."""
    rename = {}
    for v, labels in fam.lam.items():
        names = [f"r{k}" for k in range(len(labels))]
        rng.shuffle(names)
        rename.update({(v, i): new for i, new in zip(labels, names)})
    gauge = {node: random_turns(rng) for node in rename}
    lam = {v: tuple(rename[(v, i)] for i in labels) for v, labels in fam.lam.items()}
    pi: dict[str, dict[str, str]] = {}
    phases = {}
    for eid, mapping in fam.pi.items():
        s, d = g.src(eid), g.dst(eid)
        pi[eid] = {rename[(s, i)]: rename[(d, j)] for i, j in mapping.items()}
        for i, j in mapping.items():
            turns = fam.phase(eid, i).turns + gauge[(s, i)] - gauge[(d, j)]
            phases[(eid, rename[(s, i)])] = Phase.from_fraction(turns)
    return at.ExplicitAtomic(g, lam, pi, phases)


def tree_family(
    rng, plain: Plain, parent: dict[str, str], inner_fresh: float, root_labels: int = 1
) -> TreeFamily:
    """Total family on a forest: each vertex inherits its parent's labels
    through a random bijection; roots get ``root_labels`` fresh labels and
    other vertices one with probability ``inner_fresh``."""
    g = plain.graph()
    in_edge = {d: e for e, (_, d) in plain.edges.items()}
    lam: dict[str, tuple[str, ...]] = {}
    pi: dict[str, dict[str, str]] = {}
    phases = {}
    fresh: dict[str, int] = {}
    depth: dict[str, int] = {}
    for v in plain.vertices:  # parents precede children
        p = parent.get(v)
        inherited = list(lam[p]) if p else []
        k = root_labels if p is None else int(rng.random() < inner_fresh)
        labels = tuple(f"i{j}" for j in range(len(inherited) + k))
        lam[v] = labels
        depth[v] = 0 if p is None else depth[p] + 1
        if k:
            fresh[v] = k
        if p is not None:
            eid = in_edge[v]
            slots = list(labels)
            rng.shuffle(slots)
            pi[eid] = dict(zip(inherited, slots))
            for i in inherited:
                if rng.random() < 0.3:
                    phases[(eid, i)] = Phase.from_fraction(random_turns(rng))
    fam = at.ExplicitAtomic(g, lam, pi, phases)
    return TreeFamily(plain, fam, _twin(rng, g, fam), fresh, depth)


def cycle_family(rng, n: int, laps: int) -> CycleFamily:
    g = gr.cycle_graph(n)
    plain = Plain([f"v{i}" for i in range(1, n + 1)])
    plain.edges = {f"e{i}": (f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)}
    turns = [random_turns(rng) for _ in range(n * laps)]
    fam = at.pure_cycle_family(g, laps, [Phase.from_fraction(t) for t in turns])
    return CycleFamily(plain, fam, _twin(rng, g, fam), laps, sum(turns, Fraction(0)) % 1)


# ---------------------------------------------------------------------------
# road colouring


def looped_graph(rng, n: int, d: int) -> Plain:
    """Strongly connected, aperiodic, in-degree d: a loop ``e0`` at v0, the
    ring v0 -> v1 -> ... -> v(n-1) -> v0, and d-1 random in-edges elsewhere."""
    plain = Plain([f"v{i}" for i in range(n)])
    plain.add("v0", "v0")
    for i in range(n):
        plain.add(f"v{i - 1 if i else n - 1}", f"v{i}")
        for _ in range(d - (2 if i == 0 else 1)):
            plain.add(f"v{rng.randrange(n)}", f"v{i}")
    return plain


def bipartite_graph(rng, n: int) -> Plain:
    """In-degree 2 graph with every cycle of even length: an alternating ring
    a0 -> b0 -> a1 -> ... -> b(h-1) -> a0 plus one random cross in-edge each."""
    h = n // 2
    ring = [x for i in range(h) for x in (f"a{i}", f"b{i}")]
    plain = Plain(list(ring))
    for k, v in enumerate(ring):
        plain.add(ring[k - 1], v)
        other = "b" if v[0] == "a" else "a"
        plain.add(f"{other}{rng.randrange(h)}", v)
    return plain


def random_coloring(rng, plain: Plain, d: int) -> dict[str, int]:
    color = {}
    for v, fiber in plain.in_edges().items():
        perm = list(range(1, d + 1))
        rng.shuffle(perm)
        color.update(zip(fiber, perm))
    return color


def random_word(rng, d: int) -> str:
    """A colour word of length 1 to 5."""
    return "".join(str(rng.randint(1, d)) for _ in range(rng.randint(1, 5)))


# ---------------------------------------------------------------------------
# series


def walks(plain: Plain, max_len: int) -> list[tuple[str, tuple[str, ...]]]:
    """All (base, product-order edge tuple) walks of length <= max_len."""
    out_edges: dict[str, list[str]] = {v: [] for v in plain.vertices}
    for eid, (s, _) in plain.edges.items():
        out_edges[s].append(eid)
    found = []
    level = [(v, (), v) for v in plain.vertices]  # (base, edges, range)
    for _ in range(max_len + 1):
        found.extend((b, es) for b, es, _ in level)
        level = [
            (b, (e,) + es, plain.edges[e][1]) for b, es, r in level for e in out_edges[r]
        ]
    return found


def polynomial(rng, plain: Plain, g: gr.Graph, k: int, max_len: int):
    """(FormalElement, plain term dict) with k distinct paths and small
    Gaussian-integer coefficients, exact in floating point."""
    pool = walks(plain, max_len)
    terms = {}
    for base, es in rng.sample(pool, min(k, len(pool))):
        re, im = 0, 0
        while re == 0 and im == 0:
            re, im = rng.randint(-3, 3), rng.randint(-2, 2)
        terms[(base, es)] = complex(re, im)
    elem = FormalElement(g, {Path(b, es): c for (b, es), c in terms.items()})
    return elem, terms


def triangle_plain() -> Plain:
    """Edge table of ``graph.looped_triangle``."""
    plain = Plain(["t", "l", "r"])
    plain.edges = {
        "loop_t": ("t", "t"), "tl1": ("t", "l"), "tl2": ("t", "l"),
        "tr": ("t", "r"), "lr": ("l", "r"), "rt": ("r", "t"),
    }
    return plain
