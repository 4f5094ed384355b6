"""Finite directed multigraphs and their order-zero combinatorics.

A graph is a finite list of vertex ids plus a finite list of identified
edges ``e : src(e) -> dst(e)``.  Parallel edges and loops are allowed; the
edge id is the identity of the edge.  All functions here are deterministic:
vertex and edge enumerations are sorted by id wherever the input order is
not meaningful.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, islice
from operator import itemgetter
from typing import Iterable

from .errors import GraphFormatError, json_list
from .validation import ValidationReport


class Edge(tuple):
    """The triple ``(id, src, dst)``; immutable, with no instance dict.  It
    equals, hashes and sorts as that plain tuple, in C."""

    __slots__ = ()
    id, src, dst = (property(itemgetter(k)) for k in range(3))

    def __new__(cls, id: str, src: str, dst: str) -> "Edge":
        return tuple.__new__(cls, (id, src, dst))

    def __getnewargs__(self) -> tuple[str, str, str]:
        return self[0], self[1], self[2]

    def __repr__(self) -> str:
        return f"Edge(id={self[0]!r}, src={self[1]!r}, dst={self[2]!r})"


GraphIndex = namedtuple("GraphIndex", "vertices at edges edge_at src dst out inc")
GraphIndex.__doc__ = """A graph's integer index, built once with the graph; read only.  A
vertex is its position in ``vertices`` (sorted names; the dict ``at`` finds it), an edge its
position in ``edges`` (sorted ids; ``edge_at``).  ``src[j]``, ``dst[j]`` (``array('i')``) are
edge j's ends, and ``out[v]``, ``inc[v]`` the edges out of and into v, in id order."""


@dataclass(frozen=True)
class Graph:
    """Immutable directed multigraph over one integer index, ``index``, built
    by construction once the input is checked.  Every algorithm here runs on
    its positions; names appear only at the public API.  Strongly connected
    components and their periods, the source elimination (Kahn's layering,
    which also decides acyclicity, with the core's vertex set) and the core
    as a graph are computed on first use and cached.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        names = tuple(sorted(self.vertices))
        ints = list(range(max(len(names), len(self.edges))))  # one int object per position
        at = dict(zip(names, ints))
        if len(at) != len(names):
            raise GraphFormatError("duplicate vertex ids", vertices=list(names))
        ordered = sorted(self.edges)  # by id: the ids of distinct edges differ
        eids = tuple(map(itemgetter(0), ordered))
        edge_at = dict(zip(eids, ints))
        if len(edge_at) != len(eids):
            raise GraphFormatError("duplicate edge ids", edges=list(eids))
        try:
            src = list(map(at.__getitem__, map(itemgetter(1), ordered)))
            dst = list(map(at.__getitem__, map(itemgetter(2), ordered)))
        except KeyError:
            e = next(e for e in self.edges if e.src not in at or e.dst not in at)
            raise GraphFormatError(
                "edge endpoint is not a vertex", edge=e.id, src=e.src, dst=e.dst
            ) from None
        index = [names, at, eids, edge_at, array("i", src), array("i", dst)]
        for ends in (src, dst):  # out, then inc: one stable sort by end, cut where it changes
            grouped, key = [()] * len(names), ends.__getitem__
            for v, group in groupby(sorted(islice(ints, len(eids)), key=key), key):
                grouped[v] = tuple(group)
            index.append(tuple(grouped))
        object.__setattr__(self, "index", GraphIndex(*index))

    @cached_property
    def _sccs(self) -> tuple[frozenset[str], ...]:
        # Kosaraju: an iterative DFS lists the vertices by finishing time;
        # then, latest finisher first, a BFS over in-edges from each vertex
        # not yet placed collects one component
        names, _, _, _, src, dst, out, inc = self.index
        finished: list[int] = []
        seen = bytearray(len(names))
        for root in range(len(names)):
            if seen[root]:
                continue
            seen[root] = 1
            work = [(root, iter(out[root]))]
            while work:
                v, it = work[-1]
                for j in it:
                    w = dst[j]
                    if not seen[w]:
                        seen[w] = 1
                        work.append((w, iter(out[w])))
                        break
                else:
                    work.pop()
                    finished.append(v)
        placed = bytearray(len(names))
        components = []
        for root in reversed(finished):
            if placed[root]:
                continue
            placed[root] = 1
            comp = [root]
            for v in comp:
                for j in inc[v]:
                    u = src[j]
                    if not placed[u]:
                        placed[u] = 1
                        comp.append(u)
            components.append(comp)
        components.sort(key=min)  # the least position is the least name
        return tuple(frozenset(map(names.__getitem__, comp)) for comp in components)

    @cached_property
    def _periods(self) -> dict[str, int | None]:
        # one BFS per component over its own edges: the gcd of dist(src) + 1
        # - dist(dst) over them, whatever the root; distances are final when set
        ix, periods = self.index, {}
        for comp in self._sccs:
            root = ix.at[min(comp)]
            dist, queue, p = {root: 0}, [root], 0
            for u in queue:  # the queue grows while it is read
                step = dist[u] + 1
                for j in ix.out[u]:
                    w = ix.dst[j]
                    if w in dist:  # only comp's vertices get a distance
                        p = math.gcd(p, step - dist[w])
                    elif ix.vertices[w] in comp:  # a tree edge adds 0 to the gcd
                        dist[w] = step
                        queue.append(w)
            periods.update(dict.fromkeys(comp, p or None))
        return periods

    @cached_property
    def _scc_of(self) -> dict[str, frozenset[str]]:
        return {v: comp for comp in self._sccs for v in comp}

    @cached_property
    def _elimination(self) -> tuple[frozenset[str], tuple[tuple[str, ...], ...], bool]:
        # Kahn's layering: in-degree counters drop as each layer is removed,
        # a vertex joins the next layer when its counter reaches zero, and
        # every edge is visited once; the vertices left over form the core
        names, dst, out = self.index.vertices, self.index.dst, self.index.out
        indeg = list(map(len, self.index.inc))
        layer = [v for v, k in enumerate(indeg) if not k]
        layers = []
        while layer:
            layers.append(tuple(map(names.__getitem__, layer)))
            emptied = []
            for v in layer:
                for j in out[v]:
                    w = dst[j]
                    indeg[w] -= 1
                    if not indeg[w]:
                        emptied.append(w)
            emptied.sort()
            layer = emptied
        core = frozenset(names[v] for v, k in enumerate(indeg) if k)
        return core, tuple(layers), not core

    @cached_property
    def _core(self) -> Graph:
        # the elimination core as a graph, built when asked for; an empty one in no pass
        core = self._elimination[0]
        return _restrict(self, core) if core else Graph((), ())

    @cached_property
    def key(self) -> tuple[tuple[str, ...], tuple[tuple[str, str, str], ...]]:
        """Sorted vertices and (id, src, dst) triples; unlike ``==``, order-free."""
        ix = self.index
        ends = map(ix.vertices.__getitem__, ix.src), map(ix.vertices.__getitem__, ix.dst)
        return ix.vertices, tuple(zip(ix.edges, *ends))

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> "Graph":
        """Build from (id, src, dst) triples."""
        return Graph(tuple(vertices), tuple(Edge(i, s, d) for i, s, d in edges))

    def edge(self, eid: str) -> Edge:
        return Edge(eid, self.src(eid), self.dst(eid))

    def has_vertex(self, v: str) -> bool:
        return v in self.index.at

    def src(self, eid: str) -> str:
        return self.index.vertices[self.index.src[self._edge_at(eid)]]

    def dst(self, eid: str) -> str:
        return self.index.vertices[self.index.dst[self._edge_at(eid)]]

    def _edge_at(self, eid: str) -> int:
        try:
            return self.index.edge_at[eid]
        except KeyError:
            raise GraphFormatError("unknown edge id", edge=eid) from None

    def out_edges(self, v: str) -> tuple[str, ...]:
        """Ids of edges with source v, sorted."""
        ix = self.index
        return tuple(map(ix.edges.__getitem__, ix.out[ix.at[v]]))

    def in_edges(self, v: str) -> tuple[str, ...]:
        """Ids of edges with range v, sorted."""
        ix = self.index
        return tuple(map(ix.edges.__getitem__, ix.inc[ix.at[v]]))

    def sorted_vertices(self) -> tuple[str, ...]:
        return self.index.vertices

    def sorted_edge_ids(self) -> tuple[str, ...]:
        return self.index.edges

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in self.edges],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Graph":
        try:
            vertices = json_list(data["vertices"])
            raw_edges = json_list(data["edges"])
        except (KeyError, TypeError) as exc:
            raise GraphFormatError(f"graph object needs 'vertices' and 'edges': {exc}")
        edges = []
        for item in raw_edges:
            try:
                triple = str(item["id"]), str(item["src"]), str(item["dst"])
            except (KeyError, TypeError) as exc:
                raise GraphFormatError(f"edge object needs 'id', 'src', 'dst': {exc}")
            edges.append(tuple.__new__(Edge, triple))  # an Edge made in C
        return Graph(tuple(map(str, vertices)), tuple(edges))


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
        degrees = dict(zip(g.index.vertices, map(len, g.index.inc)))
        report.add("in-degree-varies", f"in-degrees {degrees}", severity="info")
    sources = [v for v, ids in zip(g.index.vertices, g.index.inc) if not ids]
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
    degrees = set(map(len, g.index.inc))
    return len(degrees) <= 1, degrees.pop() if len(degrees) == 1 else None


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
    ix = g.index
    try:
        queue = list(dict.fromkeys(map(ix.at.__getitem__, subset)))
    except KeyError as exc:
        raise GraphFormatError("unknown vertex", vertex=exc.args[0]) from None
    seen = set(queue)
    for u in queue:
        for j in ix.out[u]:
            if (w := ix.dst[j]) not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(map(ix.vertices.__getitem__, queue))


def induced_subgraph(g: Graph, subset: Iterable[str]) -> Graph:
    """Subgraph on the directed closure of ``subset``.

    Every edge whose source lies in the closure is kept; its range lies in
    the closure automatically.
    """
    keep = directed_closure(g, subset)
    return _restrict(g, keep)


def _restrict(g: Graph, keep: frozenset[str]) -> Graph:
    vertices = tuple(v for v in g.vertices if v in keep)
    edges = tuple(e for e in g.edges if e[1] in keep and e[2] in keep)
    return Graph(vertices, edges)


def source_elimination(g: Graph) -> tuple[Graph, list[list[str]], bool]:
    """Iteratively delete in-degree-0 vertices.

    Returns (fixed point graph, removal layers, has_ses) where has_ses means
    the elimination exhausts every vertex.  On finite graphs that happens
    exactly when the graph is acyclic.  Computed once per graph by Kahn's
    layering and cached on ``g``, and the core ``Graph`` is built once, on
    the first call (an empty core, with no pass, as ``Graph((), ())``): every
    call returns fresh layer lists, and the same core ``Graph`` object.
    """
    _, layers, exhausted = g._elimination
    return g._core, list(map(list, layers)), exhausted


def has_ses(g: Graph) -> bool:
    """Whether source elimination exhausts the graph (finite case: acyclicity)."""
    return g._elimination[2]


def undirected_components(g: Graph) -> list[list[str]]:
    """Connected components ignoring orientation, as sorted vertex lists,
    ordered by least member; one BFS over in- and out-edges per component."""
    ix, comps = g.index, []
    seen = bytearray(len(ix.vertices))
    for root in range(len(ix.vertices)):
        if seen[root]:
            continue
        seen[root] = 1
        comp = [root]
        for v in comp:
            for w in [ix.dst[j] for j in ix.out[v]] + [ix.src[j] for j in ix.inc[v]]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        comps.append([ix.vertices[v] for v in sorted(comp)])
    return comps


def graph_to_dot(g: Graph) -> str:
    """GraphViz digraph text with edge ids as labels."""
    lines = ["digraph G {"]
    for v in g.sorted_vertices():
        lines.append(f'  "{v}";')
    for eid, src, dst in g.key[1]:
        lines.append(f'  "{src}" -> "{dst}" [label="{eid}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cycle_graph(n: int) -> Graph:
    """Directed n-cycle: edges e1: v1 -> v2, ..., en: vn -> v1."""
    if n < 1:
        raise GraphFormatError("cycle length must be at least 1", n=n)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    return Graph.build(vertices, [(f"e{i}", f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)])


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
