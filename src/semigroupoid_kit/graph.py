"""Finite directed multigraphs and their order-zero combinatorics.

A graph is a finite list of vertex ids plus a finite list of identified
edges ``e : src(e) -> dst(e)``.  Parallel edges and loops are allowed; the
edge id is the identity of the edge.  All functions here are deterministic:
vertex and edge enumerations are sorted by id wherever the input order is
not meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import GraphFormatError
from .validation import ValidationReport


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class Graph:
    """Immutable directed multigraph with id-keyed adjacency caches.

    Strongly connected components and their periods, the source elimination
    (Kahn's layering, which also decides acyclicity, with the core's vertex
    set), the core as a graph, the sorted vertex tuple with its ``{v: i}``
    index and the sorted edge ids are computed on first use and cached.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise GraphFormatError("duplicate vertex ids", vertices=sorted(self.vertices))
        eids = [e.id for e in self.edges]
        if len(set(eids)) != len(eids):
            raise GraphFormatError("duplicate edge ids", edges=sorted(eids))
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise GraphFormatError(
                    "edge endpoint is not a vertex", edge=e.id, src=e.src, dst=e.dst
                )
        by_id = {e.id: e for e in self.edges}
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        inc: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in sorted(self.edges, key=lambda e: e.id):
            out[e.src].append(e.id)
            inc[e.dst].append(e.id)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_out", {v: tuple(ids) for v, ids in out.items()})
        object.__setattr__(self, "_in", {v: tuple(ids) for v, ids in inc.items()})

    @cached_property
    def _sccs(self) -> tuple[frozenset[str], ...]:
        # Kosaraju: an iterative DFS lists the vertices by finishing time;
        # then, latest finisher first, a BFS over in-edges from each vertex
        # not yet placed collects one component
        out, inc, by_id = self._out, self._in, self._by_id
        finished: list[str] = []
        seen: set[str] = set()
        for root in self.vertices:
            if root in seen:
                continue
            seen.add(root)
            work = [(root, iter(out[root]))]
            while work:
                v, it = work[-1]
                for eid in it:
                    w = by_id[eid].dst
                    if w not in seen:
                        seen.add(w)
                        work.append((w, iter(out[w])))
                        break
                else:
                    work.pop()
                    finished.append(v)
        placed: set[str] = set()
        components = []
        for root in reversed(finished):
            if root in placed:
                continue
            placed.add(root)
            comp = [root]
            for v in comp:
                for eid in inc[v]:
                    u = by_id[eid].src
                    if u not in placed:
                        placed.add(u)
                        comp.append(u)
            components.append(frozenset(comp))
        components.sort(key=min)
        return tuple(components)

    @cached_property
    def _periods(self) -> dict[str, int | None]:
        # one BFS per component over its own edges: the gcd of dist(src) + 1
        # - dist(dst) over them, whatever the root; distances are final when set
        out, by_id, scc_of = self._out, self._by_id, self._scc_of
        periods: dict[str, int | None] = {}
        for comp in self._sccs:
            root = min(comp)
            dist, queue, p = {root: 0}, [root], 0
            for u in queue:  # the queue grows while it is read
                step = dist[u] + 1
                for eid in out[u]:
                    w = by_id[eid].dst
                    if w in dist:  # only comp's vertices get a distance
                        p = math.gcd(p, step - dist[w])
                    elif scc_of[w] is comp:  # a tree edge adds 0 to the gcd
                        dist[w] = step
                        queue.append(w)
            periods.update(dict.fromkeys(comp, p or None))
        return periods

    @cached_property
    def _sorted(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def _sorted_edges(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_id))

    @cached_property
    def _index(self) -> dict[str, int]:  # position in sorted_vertices(); read only
        return {v: i for i, v in enumerate(self._sorted)}

    @cached_property
    def _scc_of(self) -> dict[str, frozenset[str]]:
        return {v: comp for comp in self._sccs for v in comp}

    @cached_property
    def _elimination(self) -> tuple[frozenset[str], tuple[tuple[str, ...], ...], bool]:
        # Kahn's layering: in-degree counters drop as each layer is removed,
        # a vertex joins the next layer when its counter reaches zero, and
        # every edge is visited once; the vertices left over form the core
        out, by_id = self._out, self._by_id
        indeg = {v: len(ids) for v, ids in self._in.items()}
        layer = sorted(v for v, k in indeg.items() if k == 0)
        layers = []
        while layer:
            layers.append(tuple(layer))
            emptied = []
            for v in layer:
                for eid in out[v]:
                    w = by_id[eid].dst
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        emptied.append(w)
            layer = sorted(emptied)
        core = frozenset(v for v, k in indeg.items() if k)
        return core, tuple(layers), not core

    @cached_property
    def _core(self) -> Graph:
        # the elimination core as a graph, built only when asked for
        return _restrict(self, self._elimination[0])

    @cached_property
    def key(self) -> tuple[tuple[str, ...], tuple[tuple[str, str, str], ...]]:
        """Sorted vertices and (id, src, dst) triples; unlike ``==``, order-free."""
        return self.sorted_vertices(), tuple(sorted((e.id, e.src, e.dst) for e in self.edges))

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> "Graph":
        """Build from (id, src, dst) triples."""
        return Graph(tuple(vertices), tuple(Edge(i, s, d) for i, s, d in edges))

    def edge(self, eid: str) -> Edge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise GraphFormatError("unknown edge id", edge=eid) from None

    def has_vertex(self, v: str) -> bool:
        return v in self._out

    def src(self, eid: str) -> str:
        return self.edge(eid).src

    def dst(self, eid: str) -> str:
        return self.edge(eid).dst

    def out_edges(self, v: str) -> tuple[str, ...]:
        """Ids of edges with source v, sorted."""
        return self._out[v]

    def in_edges(self, v: str) -> tuple[str, ...]:
        """Ids of edges with range v, sorted."""
        return self._in[v]

    def sorted_vertices(self) -> tuple[str, ...]:
        return self._sorted

    def sorted_edge_ids(self) -> tuple[str, ...]:
        return self._sorted_edges

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in self.edges],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Graph":
        try:
            vertices = list(data["vertices"])
            raw_edges = list(data["edges"])
        except (KeyError, TypeError) as exc:
            raise GraphFormatError(f"graph object needs 'vertices' and 'edges': {exc}")
        triples = []
        for item in raw_edges:
            try:
                triples.append((str(item["id"]), str(item["src"]), str(item["dst"])))
            except (KeyError, TypeError) as exc:
                raise GraphFormatError(f"edge object needs 'id', 'src', 'dst': {exc}")
        return Graph.build([str(v) for v in vertices], triples)


def validate_graph(g: Graph) -> ValidationReport:
    """Structural report for a graph that already passed construction.

    Construction rejects hard format errors; this reports informational
    structure (in-degree regularity, sources, components) used downstream.
    """
    report = ValidationReport()
    regular, degree = is_in_degree_regular(g)
    if regular:
        report.add("in-degree-regular", f"every vertex has in-degree {degree}", severity="info")
    else:
        degrees = {v: len(g.in_edges(v)) for v in g.sorted_vertices()}
        report.add("in-degree-varies", f"in-degrees {degrees}", severity="info")
    sources = [v for v in g.sorted_vertices() if not g.in_edges(v)]
    if sources:
        report.add("sources", f"in-degree-0 vertices: {sources}", severity="info")
    report.add(
        "components",
        f"{len(undirected_components(g))} undirected component(s)",
        severity="info",
    )
    return report


def is_in_degree_regular(g: Graph) -> tuple[bool, int | None]:
    """Whether all in-degrees agree; returns (flag, common degree or None)."""
    degrees = {len(ids) for ids in g._in.values()}
    if not degrees:
        return True, None
    if len(degrees) == 1:
        return True, degrees.pop()
    return False, None


def strongly_connected_components(g: Graph) -> list[frozenset[str]]:
    """Strongly connected components, listed by least vertex id."""
    return list(g._sccs)


def is_transitive(g: Graph) -> bool:
    """True when every vertex reaches every other (single strongly connected component)."""
    return len(g._sccs) <= 1


def scc_of(g: Graph, v: str) -> frozenset[str]:
    if not g.has_vertex(v):
        raise GraphFormatError("unknown vertex", vertex=v)
    return g._scc_of[v]


def period(g: Graph, v: str) -> int | None:
    """Gcd of the lengths of cycles through v's strongly connected component.

    None when no cycle passes through v.  Read from ``g``, which finds every
    component's period by one BFS inside it on the first call.
    """
    if not g.has_vertex(v):
        raise GraphFormatError("unknown vertex", vertex=v)
    return g._periods[v]


def directed_closure(g: Graph, subset: Iterable[str]) -> frozenset[str]:
    """Smallest vertex set containing ``subset`` and closed under following out-edges."""
    queue: list[str] = []
    seen: set[str] = set()
    for v in subset:
        if not g.has_vertex(v):
            raise GraphFormatError("unknown vertex", vertex=v)
        if v not in seen:
            seen.add(v)
            queue.append(v)
    for u in queue:
        for eid in g._out[u]:
            w = g._by_id[eid].dst
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def induced_subgraph(g: Graph, subset: Iterable[str]) -> Graph:
    """Subgraph on the directed closure of ``subset``.

    Every edge whose source lies in the closure is kept; its range lies in
    the closure automatically.
    """
    keep = directed_closure(g, subset)
    return _restrict(g, keep)


def _restrict(g: Graph, keep: frozenset[str]) -> Graph:
    vertices = tuple(v for v in g.vertices if v in keep)
    edges = tuple(e for e in g.edges if e.src in keep and e.dst in keep)
    return Graph(vertices, edges)


def source_elimination(g: Graph) -> tuple[Graph, list[list[str]], bool]:
    """Iteratively delete in-degree-0 vertices.

    Returns (fixed point graph, removal layers, has_ses) where has_ses means
    the elimination exhausts every vertex.  On finite graphs that happens
    exactly when the graph is acyclic.  Computed once per graph by Kahn's
    layering and cached on ``g``, and the core ``Graph`` is built once, on
    the first call: every call returns fresh layer lists, and the same core
    ``Graph`` object.
    """
    _, layers, exhausted = g._elimination
    return g._core, [list(layer) for layer in layers], exhausted


def has_ses(g: Graph) -> bool:
    """Whether source elimination exhausts the graph (finite case: acyclicity)."""
    return g._elimination[2]


def undirected_components(g: Graph) -> list[list[str]]:
    """Connected components ignoring orientation, as sorted vertex lists,
    ordered by least member; one BFS over in- and out-edges per component."""
    seen: set[str] = set()
    comps = []
    for root in g.sorted_vertices():
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for v in comp:
            ends = [g._by_id[eid].dst for eid in g._out[v]]
            ends += [g._by_id[eid].src for eid in g._in[v]]
            for w in ends:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(sorted(comp))
    return comps


def graph_to_dot(g: Graph, name: str = "G") -> str:
    """GraphViz digraph text with edge ids as labels."""
    lines = [f"digraph {name} {{"]
    for v in g.sorted_vertices():
        lines.append(f'  "{v}";')
    for eid in g.sorted_edge_ids():
        e = g.edge(eid)
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.id}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cycle_graph(n: int, vertex_prefix: str = "v", edge_prefix: str = "e") -> Graph:
    """Directed n-cycle: edges e1: v1 -> v2, ..., en: vn -> v1."""
    if n < 1:
        raise GraphFormatError("cycle length must be at least 1", n=n)
    vertices = [f"{vertex_prefix}{i}" for i in range(1, n + 1)]
    edges = [
        (f"{edge_prefix}{i}", f"{vertex_prefix}{i}", f"{vertex_prefix}{i % n + 1}")
        for i in range(1, n + 1)
    ]
    return Graph.build(vertices, edges)


def looped_triangle() -> Graph:
    """Three-vertex workhorse example: in-degree 2-regular, transitive, aperiodic.

    Vertices t, l, r.  Edges: a loop at t, two parallel edges t -> l, one
    t -> r, one l -> r, one r -> t.
    """
    return Graph.build(
        ["t", "l", "r"],
        [
            ("loop_t", "t", "t"),
            ("tl1", "t", "l"),
            ("tl2", "t", "l"),
            ("tr", "t", "r"),
            ("lr", "l", "r"),
            ("rt", "r", "t"),
        ],
    )
