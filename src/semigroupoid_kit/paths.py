"""Paths in the free semigroupoid of a directed multigraph.

A path of length n >= 1 is a sequence of composable edges written the way
operator products are: the stored tuple ``(e_n, ..., e_1)`` has the FIRST
applied edge last, so ``edges[i+1]`` feeds into ``edges[i]`` and composing
paths concatenates tuples.  Vertices are the length-0 paths, carried by the
``base`` field.  The source of a nonempty path is the source of its last
stored edge, the range is the range of its first stored edge.

A ``Path`` is the tuple ``(base, edges)``, so it equals, hashes and sorts
as that plain tuple, in C; ``len(p)`` is the number of edges.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Iterable

from .errors import EnumerationOverflow, GraphFormatError, NotACycle, PathError
from .graph import Graph, GraphIndex, scc_of

# Largest number of paths or basis vectors any enumeration may build.
BASIS_CAP = 200_000
# Largest total length (edges or colour letters) of the paths, cycles or
# colour words any enumeration may build; checked after BASIS_CAP.
SYMBOL_CAP = 10_000_000


class Path(tuple):
    """The pair ``(base, edges)``; immutable, with no instance dict."""

    __slots__ = ()

    def __new__(cls, base: str, edges: tuple[str, ...] = ()) -> "Path":
        return tuple.__new__(cls, (base, edges))

    base = property(itemgetter(0))
    edges = property(itemgetter(1))

    def __len__(self) -> int:
        return len(self[1])

    def __getnewargs__(self) -> tuple[str, tuple[str, ...]]:
        return self[0], self[1]

    def __repr__(self) -> str:
        return f"Path(base={self[0]!r}, edges={self[1]!r})"

    @staticmethod
    def vertex(v: str) -> "Path":
        return Path(v, ())

    @staticmethod
    def of(g: Graph, edges: Iterable[str]) -> "Path":
        """Build from an edge-id sequence in product order, inferring the base."""
        tup = tuple(edges)
        if not tup:
            raise PathError("cannot infer the base vertex of an empty path")
        p = Path(g.src(tup[-1]), tup)
        validate_path(g, p)
        return p


def validate_path(g: Graph, p: Path) -> None:
    """Raise PathError unless p is a path of g (base consistent, edges composable)."""
    if not g.has_vertex(p.base):
        raise PathError("path base is not a vertex", base=p.base)
    srcs, dsts = list(map(g.src, p.edges)), list(map(g.dst, p.edges))
    for k, (need, got) in enumerate(zip(srcs, dsts[1:])):
        if need != got:
            raise PathError(
                "edges are not composable", left=p.edges[k], right=p.edges[k + 1],
                need=need, got=got,
            )
    if p.edges and srcs[-1] != p.base:
        raise PathError(
            "base disagrees with the first applied edge",
            base=p.base, edge=p.edges[-1], src=srcs[-1],
        )


def source(g: Graph, p: Path) -> str:
    """Vertex the path starts from (source of the first applied edge)."""
    return p.base


def path_range(g: Graph, p: Path) -> str:
    """Vertex the path arrives at (range of the last applied edge)."""
    if not p.edges:
        return p.base
    return g.dst(p.edges[0])


def is_cycle(g: Graph, p: Path) -> bool:
    return source(g, p) == path_range(g, p)


def compose(g: Graph, mu: Path, nu: Path) -> Path | None:
    """Product path mu*nu (nu applied first); None when sources do not match."""
    if source(g, mu) != path_range(g, nu):
        return None
    return Path(nu.base, mu.edges + nu.edges)


def enumerate_paths(g: Graph, sources: Iterable[str], max_len: int) -> list[Path]:
    """All paths with source in ``sources`` and length <= max_len.

    Ordered by length, then lexicographically on the stored edge tuple;
    length-0 vertex paths come first, sorted by vertex id.  The paths and
    their total length are counted before any is built; more than
    BASIS_CAP paths or SYMBOL_CAP edges raises EnumerationOverflow.
    """
    if max_len < 0:
        raise PathError("max_len must be nonnegative", max_len=max_len)
    start = _sources(g, sources)
    _count_levels(g, start, max_len)
    ix = g.index
    result: list[Path] = [Path.vertex(v) for v in start]
    level = [(p, ix.at[p.base]) for p in result]  # each path with its end's position
    while level and len(level[0][0]) < max_len:
        level = [
            (Path(p.base, (ix.edges[j],) + p.edges), ix.dst[j])
            for p, end in level
            for j in ix.out[end]
        ]
        level.sort(key=lambda item: item[0].edges)
        result.extend(p for p, _ in level)
    return result


def _sources(g: Graph, sources: Iterable[str]) -> list[str]:
    """The sources sorted, without repeats; GraphFormatError on one that is
    not a vertex of g."""
    start = sorted(set(sources))
    for v in start:
        if not g.has_vertex(v):
            raise GraphFormatError("unknown vertex", vertex=v)
    return start


def _count_levels(g: Graph, start: list[str], max_len: int) -> list[dict[int, int]]:
    """Count the paths of length 0..max_len from ``start`` before any is built.

    Counts the paths ending at each vertex, level by level, in integers,
    checking the running total after every level, 0 included, and the
    total length after the last.  Returns ``{end: count}`` per level up to
    the last nonempty one, each end a position in ``g.index``.
    """
    ix = g.index
    ending = {ix.at[v]: 1 for v in start}
    levels = [ending]
    total, symbols = len(start), 0
    _check_budget("path", total, 0)
    for length in range(1, max_len + 1):
        nxt: dict[int, int] = {}
        for v, k in ending.items():
            for j in ix.out[v]:
                w = ix.dst[j]
                nxt[w] = nxt.get(w, 0) + k
        if not nxt:
            break
        count = sum(nxt.values())
        total += count
        symbols += length * count
        _check_budget("path", total, length)
        levels.append(nxt)
        ending = nxt
    _check_budget("path", total, symbols=symbols)
    return levels


def _count_in_regular(vertices: int, d: int, depth: int) -> int:
    """The number of paths of length 0..depth on ``vertices`` vertices of
    in-degree d, in closed form, vertices * d^k of length k, budgeted as
    ``_count_levels`` from every vertex budgets them; at d = 1 the level
    that passes BASIS_CAP is one division."""
    _check_budget("path", vertices, 0)
    top = depth if vertices else 0  # the last level that holds a path
    if d == 1:
        top = min(top, BASIS_CAP // max(vertices, 1))
        total, symbols = vertices * (top + 1), vertices * top * (top + 1) // 2
        _check_budget("path", total, top)
    else:
        total, symbols, level = vertices, 0, vertices
        for length in range(1, top + 1):
            level *= d
            total, symbols = total + level, symbols + length * level
            _check_budget("path", total, length)
    _check_budget("path", total, symbols=symbols)
    return total


def _check_budget(
    what: str, count: int, length: int | None = None, *,
    symbols: int | None = None, budget: int | None = None,
) -> None:
    """The one budget check, reading the caps at call time: ``symbols``
    against SYMBOL_CAP, with details ``{count, symbols, budget}``, or else
    ``count`` against ``budget``, BASIS_CAP unless given, with ``{count,
    length, budget}``, where ``length`` is the level reached, if any."""
    if symbols is None:
        budget = BASIS_CAP if budget is None else budget
        at = {} if length is None else {"length": length}
        over, of, details = count > budget, "budget", {"count": count, **at, "budget": budget}
    else:
        over, of = symbols > SYMBOL_CAP, "symbol budget"
        details = {"count": count, "symbols": symbols, "budget": SYMBOL_CAP}
    if over:
        raise EnumerationOverflow(f"{what} enumeration exceeds the {of}", **details)


def irreducible_cycles_at(g: Graph, v: str, max_len: int) -> list[Path]:
    """Cycles at v of length in [1, max_len] that do not pass through v internally.

    Interior vertices may repeat; only returning to the base vertex closes
    the walk.  Ordered by length then edge tuple.  The cycles and their
    total length are counted before any is built; more than BASIS_CAP
    cycles or SYMBOL_CAP edges raises EnumerationOverflow.
    """
    if not g.has_vertex(v):
        raise GraphFormatError("unknown vertex", vertex=v)
    ix, base = g.index, g.index.at[v]
    home = _steps_home(ix, base)
    _count_cycles(ix, base, max_len, home)
    found: list[Path] = []
    # walk holds edge ids in application order (first applied first); each
    # stack entry is the out-edge iterator of the vertex the walk reached,
    # and a walk is only extended when it can still close within max_len
    walk: list[str] = []
    stack = [iter(ix.out[base])] if max_len >= 1 else []
    while stack:
        j = next(stack[-1], None)
        if j is None:
            stack.pop()
            if walk:
                walk.pop()
            continue
        w = ix.dst[j]
        if w == base:
            found.append(Path(v, tuple(reversed(walk + [ix.edges[j]]))))
        elif w in home and len(walk) + 1 + home[w] <= max_len:
            walk.append(ix.edges[j])
            stack.append(iter(ix.out[w]))
    found.sort(key=lambda p: (len(p.edges), p.edges))
    return found


def _steps_home(ix: GraphIndex, v: int) -> dict[int, int]:
    """Fewest edges from each vertex u != v to v along a path that meets v
    only at its end (backward BFS from v), by position in ``ix``; vertices
    that cannot get there are absent."""
    home: dict[int, int] = {}
    queue = [v]
    for w in queue:
        steps = home.get(w, 0) + 1
        for j in ix.inc[w]:
            u = ix.src[j]
            if u != v and u not in home:
                home[u] = steps
                queue.append(u)
    return home


def _count_cycles(ix: GraphIndex, v: int, max_len: int, home: dict[int, int]) -> None:
    """Count the irreducible cycles at v, length by length, in integers.

    Open walks from v are counted per end vertex; those that step onto v
    close as cycles; walks that can no longer reach v are dropped.  The
    running total is checked against the budget after every length, and
    the cycles' total length after the last.
    """
    ending = {v: 1}
    total, symbols = 0, 0
    for length in range(1, max_len + 1):
        nxt: dict[int, int] = {}
        closed = 0
        for u, k in ending.items():
            for j in ix.out[u]:
                w = ix.dst[j]
                if w == v:
                    closed += k
                elif w in home:
                    nxt[w] = nxt.get(w, 0) + k
        total += closed
        symbols += length * closed
        _check_budget("cycle", total, length)
        if not nxt:
            break
        ending = nxt
    _check_budget("cycle", total, symbols=symbols)


class CycleClass(enum.Enum):
    NO_CYCLE = "NoCycle"
    SIMPLE_CYCLE = "SimpleCycle"
    TWO_PLUS = "TwoPlus"


def vertex_cycle_class(g: Graph, v: str) -> CycleClass:
    """Trichotomy for the cycles through v.

    NoCycle: no cycle passes through v.  SimpleCycle: v's strongly connected
    component is a single vertex-simple cycle, so exactly one irreducible
    cycle passes through v.  TwoPlus: two or more irreducible cycles at v.
    """
    comp = scc_of(g, v)
    intra = [e for e in g.edges if e.src in comp and e.dst in comp]
    if not intra:
        return CycleClass.NO_CYCLE
    # every vertex of a component with an intra edge has an intra out-edge
    # and in-edge, so |intra| == |comp| forces exactly one of each
    simple = len(intra) == len(comp)
    return CycleClass.SIMPLE_CYCLE if simple else CycleClass.TWO_PLUS


def _require_cycle(g: Graph, w: Path) -> None:
    validate_path(g, w)
    if len(w.edges) == 0:
        raise NotACycle("cycle of positive length required", base=w.base)
    if not is_cycle(g, w):
        raise NotACycle(
            "path source and range differ",
            source=source(g, w), range=path_range(g, w),
        )


def primitive_root(g: Graph, w: Path) -> tuple[Path, int]:
    """Write the cycle w as u^p with u primitive and p maximal; returns (u, p)."""
    _require_cycle(g, w)
    return _primitive_root(w)


def _primitive_root(w: Path) -> tuple[Path, int]:
    """``primitive_root`` of a cycle already checked."""
    seq = w.edges
    k = len(seq)
    for d in range(1, k + 1):
        if k % d != 0:
            continue
        if all(seq[i] == seq[i % d] for i in range(k)):
            return Path(w.base, seq[:d]), k // d
    raise AssertionError("no period found")


def is_primitive(g: Graph, w: Path) -> bool:
    """Whether the cycle w is not a proper power of a shorter cycle."""
    return primitive_root(g, w)[1] == 1


def least_rotation_index(seq: tuple[str, ...]) -> int:
    """Index j such that seq[j:]+seq[:j] is the lexicographically least rotation.

    The two-pointer scan, linear in len(seq): the rotations at candidates
    i < j agree for k letters; the one with the larger next letter, and the
    k starts after it, cannot begin a least rotation.  When k reaches n the
    sequence is periodic and i is the least start.
    """
    n = len(seq)
    s = seq + seq
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return i


def cyclic_canonical_form(g: Graph, w: Path) -> Path:
    """The lexicographically least rotation of the cycle w.

    Every rotation of a cycle's edge tuple is again a cycle (based at the
    source of its own first applied edge), so the least rotation is a
    canonical representative of the cyclic equivalence class.
    """
    _require_cycle(g, w)
    return _cyclic_canonical_form(g, w)


def _cyclic_canonical_form(g: Graph, w: Path) -> Path:
    """``cyclic_canonical_form`` of a cycle already checked."""
    j = least_rotation_index(w.edges)
    edges = w.edges[j:] + w.edges[:j]
    return Path(g.src(edges[-1]), edges)


def rotations(g: Graph, w: Path) -> list[Path]:
    """All rotations of the cycle w, in rotation-offset order."""
    _require_cycle(g, w)
    out = []
    for j in range(len(w.edges)):
        edges = w.edges[j:] + w.edges[:j]
        out.append(Path(g.src(edges[-1]), edges))
    return out


def cycle_vertices(g: Graph, w: Path) -> list[str]:
    """Vertices visited by the cycle, one per edge, in application order.

    Entry j is the source of the j-th applied edge, so the list starts at
    the base vertex and has the cycle's length.
    """
    _require_cycle(g, w)
    return _cycle_vertices(g, w)


def _cycle_vertices(g: Graph, w: Path) -> list[str]:
    """``cycle_vertices`` of a cycle already checked."""
    return [g.src(eid) for eid in reversed(w.edges)]
