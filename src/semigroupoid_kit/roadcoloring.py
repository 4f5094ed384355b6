"""Strong edge colorings and synchronizing words, read backward.

A strong coloring on an in-degree d-regular graph assigns colors 1..d so
that edges sharing a range vertex get distinct colors.  Each vertex then
has exactly one incoming edge of each color, which defines the backward
transition delta(w, j) = source of the color-j edge into w.  A color word
is read left to right starting at the range vertex: the first letter names
the last applied edge, matching the path convention c(e_k ... e_1) =
c(e_k) ... c(e_1).  A word gamma synchronizes for v when the unique
backward gamma-path from every vertex has source v.

Kernels walk delta as integer rows over the graph's index (a vertex is its
position in ``g.index``) and words as int letter tuples; only
``parse_word`` and ``format_word`` see a word's text, one digit a letter,
hence the cap MAX_COLORS.  Validation is one pass, once per (graph,
coloring): the automaton is kept on the Coloring, with the last word
walked and its target.  Colorings the library builds (O'Brien, search)
carry their automaton.  The word searches keep one parent link per state
and spell the word once.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from .errors import (
    MALFORMED,
    DomainError,
    GraphFormatError,
    InvalidColoring,
    PartialAutomaton,
    json_int,
)
from .graph import Graph, is_in_degree_regular, is_transitive, period, strongly_connected_components
from .paths import Path, _check_budget
from .validation import ValidationReport

SUBSET_BFS_LIMIT = 20
SEARCH_BUDGET = 10**7
MAX_COLORS = 9  # a letter is written as one digit


def parse_word(word: str, d: int) -> list[int]:
    letters = []
    for ch in word:
        if not "1" <= ch <= "9":  # ASCII only: str.isdigit also takes '²' and '١'
            raise DomainError(f"color words use digits 1..{MAX_COLORS}", word=word)
        j = int(ch)
        if j > d:
            raise DomainError("letter exceeds the color count", letter=j, d=d)
        letters.append(j)
    return letters


def format_word(letters: Iterable[int]) -> str:
    """The text of a color word, as ``parse_word`` reads it: one digit a letter."""
    return "".join(map(str, letters))


@dataclass(frozen=True)
class Coloring:
    """Colors 1..d by edge id; ``backward_automaton`` keeps its checked
    automaton here, so editing ``color`` after a query is unsupported."""

    d: int
    color: dict[str, int]

    def of(self, eid: str) -> int:
        try:
            return self.color[eid]
        except KeyError:
            raise InvalidColoring("edge has no color", edge=eid) from None

    def to_json_dict(self) -> dict:
        return {"d": self.d, "color": dict(sorted(self.color.items()))}

    @staticmethod
    def from_json_dict(data: dict) -> "Coloring":
        try:
            d = json_int(data["d"])
            color = {str(k): json_int(v) for k, v in data["color"].items()}
        except MALFORMED as exc:
            raise InvalidColoring(f"coloring object needs 'd' and 'color': {exc}")
        return Coloring(d, color)


def validate_coloring(g: Graph, c: Coloring) -> ValidationReport:
    """Strongness report: every edge colored in range, in-fibers all distinct.

    An info finding records whether the coloring is complete (each vertex
    sees every color exactly once on its incoming edges), which is what the
    backward automaton needs to be total.  The sorted scans name faults
    only when one set-level pass finds that there are some.
    """
    report = ValidationReport()
    d, color, ix = c.d, c.color, g.index
    if (
        1 <= d <= MAX_COLORS
        and color.keys() == ix.edge_at.keys()
        and set(color.values()) <= set(range(1, d + 1))
        and len(set(zip(ix.dst, map(color.__getitem__, ix.edges)))) == len(ix.edges)
    ):
        # strong with colors in 1..d: complete iff every in-fiber has d edges
        complete = len(ix.edges) == d * len(ix.vertices)
    else:  # name each fault, in sorted order
        if c.d < 1 or c.d > MAX_COLORS:
            report.add("bad-d", f"color count d={c.d} outside 1..{MAX_COLORS}")
        for eid in sorted(c.color):
            if eid not in ix.edge_at:
                report.add("unknown-edge", f"color assigned to unknown edge {eid}", eid)
        for eid in ix.edges:
            if eid not in c.color:
                report.add("uncolored-edge", f"edge {eid} has no color", eid)
            elif not 1 <= c.color[eid] <= c.d:
                report.add(
                    "color-out-of-range",
                    f"edge {eid} has color {c.color[eid]} outside 1..{c.d}",
                    eid,
                )
        complete = True
        for v, inc in zip(ix.vertices, ix.inc):
            seen: dict[int, str] = {}
            for eid in map(ix.edges.__getitem__, inc):
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


@dataclass(frozen=True)
class BackwardAutomaton:
    """``src[j][i]``: index in ``verts`` of the source of the color-j edge into
    ``verts[i]``, None when there is none; ``via[j][i]``: its id.  Row 0 is empty.
    Shared by every query on its coloring, so no part of it is mutable."""

    graph: Graph
    coloring: Coloring
    verts: tuple[str, ...]
    src: tuple[tuple[int | None, ...], ...]
    via: tuple[tuple[str | None, ...], ...]

    @property
    def index(self) -> Mapping[str, int]:  # read-only position of each vertex in verts
        return MappingProxyType(self.graph.index.at)

    def step(self, v: str, j: int) -> tuple[str, str]:
        i = self.graph.index.at.get(v)
        if i is None or not 0 < j <= self.coloring.d or self.src[j][i] is None:
            raise PartialAutomaton("no incoming edge of that color", vertex=v, color=j)
        return self.verts[self.src[j][i]], self.via[j][i]


def backward_automaton(g: Graph, c: Coloring) -> BackwardAutomaton:
    """The automaton of c on g, validated and built once per (g, c) and kept
    on c for the graph object g; a coloring that fails raises on every call.
    Colorings the library constructs come with theirs and skip validation."""
    auto = c.__dict__.get("_automaton")
    if auto is None or auto.graph is not g:
        if not (report := validate_coloring(g, c)).valid:
            findings = [f.message for f in report.errors]
            raise InvalidColoring("coloring is not strong", findings=findings)
        auto = _automaton(g, c)
    return auto


def _automaton(g: Graph, c: Coloring) -> BackwardAutomaton:
    """Backward automaton of a coloring known to be strong on g, kept on c."""
    ix, color = g.index, c.color
    src: list = [()] + [[None] * len(ix.vertices) for _ in range(c.d)]
    via: list = [()] + [[None] * len(ix.vertices) for _ in range(c.d)]
    for eid, s, i in zip(ix.edges, ix.src, ix.dst):
        j = color[eid]
        src[j][i], via[j][i] = s, eid
    auto = BackwardAutomaton(g, c, ix.vertices, tuple(map(tuple, src)), tuple(map(tuple, via)))
    c.__dict__["_automaton"] = auto
    return auto


def _gap(auto: BackwardAutomaton, i: int, j: int) -> PartialAutomaton:
    return PartialAutomaton("no incoming edge of that color", vertex=auto.verts[i], color=j)


def color_word(g: Graph, c: Coloring, p: Path) -> str:
    """Word of a path: colors in product order (first letter = last applied edge)."""
    return format_word(c.of(eid) for eid in p.edges)


def follow_backward(g: Graph, c: Coloring, v: str, word: str) -> tuple[str, Path]:
    """Trace the unique path with range v and the given color word.

    Reads the word left to right: the first letter picks the edge into v,
    i.e. the last applied edge of the path.  Returns (source vertex, path).
    """
    if not g.has_vertex(v):
        raise GraphFormatError("unknown vertex", vertex=v)
    return _follow(backward_automaton(g, c), v, parse_word(word, c.d))


def is_synchronizing_word(g: Graph, c: Coloring, word: str) -> str | None:
    """The common source vertex when the word synchronizes, else None."""
    return _sync_target(backward_automaton(g, c), parse_word(word, c.d))


def _follow(auto: BackwardAutomaton, v: str, letters: Sequence[int]) -> tuple[str, Path]:
    i = auto.graph.index.at[v]
    edges: list[str] = []
    for j in letters:
        if auto.src[j][i] is None:
            raise _gap(auto, i, j)
        edges.append(auto.via[j][i])
        i = auto.src[j][i]
    return auto.verts[i], Path(auto.verts[i], tuple(edges))


def _sync_target(auto: BackwardAutomaton, letters: Sequence[int]) -> str | None:
    """Common end of the backward walks from every vertex, or None.

    The coloring keeps its last (automaton, letters, target): the same
    automaton reads the same word's target back.  A raising walk is not kept.
    """
    letters, memo = tuple(letters), auto.coloring.__dict__.get("_target")
    if memo is None or memo[0] is not auto or memo[1] != letters:
        memo = auto.coloring.__dict__["_target"] = (auto, letters, _walk(auto, letters))
    return memo[2]


def _walk(auto: BackwardAutomaton, letters: Sequence[int]) -> str | None:
    """The walk ends, stepped as a set; on an undefined step the walks are
    retaken one vertex at a time in graph order, so the error names the same
    (vertex, color) as reading each walk alone."""
    ends = set(range(len(auto.verts)))
    for j in letters:
        row = auto.src[j]
        ends = {row[i] for i in ends}
        if None in ends:
            for v in auto.graph.vertices:
                _follow(auto, v, letters)
    if len(ends) == 1:
        return auto.verts[ends.pop()]
    return None


def find_synchronizing_word(g: Graph, c: Coloring) -> str | None:
    """A synchronizing word, or None when no word synchronizes.

    Breadth-first search over the subset automaton for up to 20 vertices
    (exact, shortest); beyond that a pairwise merging heuristic produces a
    synchronizing word that need not be shortest.
    """
    word = _find_word(backward_automaton(g, c))
    return None if word is None else format_word(word)


def _find_word(auto: BackwardAutomaton) -> tuple[int, ...] | None:
    n = len(auto.verts)
    if n <= 1:
        return ()
    if n <= SUBSET_BFS_LIMIT:
        return _subset_bfs(auto)
    return _greedy_merge(auto)


def _unwind(link: dict[int, int], state: int, letter: int) -> tuple[int, ...]:
    """The search-tree word to ``state``, then ``letter``: ``link[s]`` is
    ``parent << 4 | letter`` (d <= 9), with letter 0 at the start state."""
    word = [letter]
    while (step := link[state]) & 15:
        word.append(step & 15)
        state = step >> 4
    return tuple(reversed(word))


def _subset_bfs(auto: BackwardAutomaton) -> tuple[int, ...] | None:
    """Breadth-first search from the full vertex set to a singleton.

    A subset is an integer bitmask over the sorted vertex index.  Its image
    under color j is read from per-color tables, one per chunk of at most 8
    bits, indexed by the chunk's bits of the subset.  Subsets are expanded
    in FIFO order with colors 1..d, so the first singleton reached gives the
    shortest word, and among those the least in that order.  Each subset
    reached keeps only its parent link: about 100 bytes, 2^n at most.
    """
    n = len(auto.verts)
    width = -(-n // -(-n // 8))  # n bits in ceil(n / 8) chunks of near-equal width
    chunk = (1 << width) - 1
    steps = []
    for j in range(1, auto.coloring.d + 1):
        row = auto.src[j]
        # vertices with no incoming edge of color j
        gaps = sum(1 << i for i, s in enumerate(row) if s is None)
        tables = []
        for lo in range(0, n, width):
            table = [0]
            for i in range(lo, min(lo + width, n)):
                bit = 0 if row[i] is None else 1 << row[i]
                table += [m | bit for m in table]
            tables.append((lo, table))
        steps.append((j, gaps, tables))
    full = (1 << n) - 1
    link = {full: full << 4}
    queue = [full]
    for cur in queue:  # the queue grows while it is read
        for j, gaps, tables in steps:
            missing = cur & gaps
            if missing:
                raise _gap(auto, (missing & -missing).bit_length() - 1, j)
            nxt = 0
            for lo, table in tables:
                nxt |= table[(cur >> lo) & chunk]
            if nxt in link:
                continue
            if nxt & (nxt - 1) == 0:
                return _unwind(link, cur, j)
            link[nxt] = cur << 4 | j
            queue.append(nxt)
    return None


def _pair_merge_word(auto: BackwardAutomaton, a: int, b: int) -> tuple[int, ...] | None:
    """Shortest word merging a and b: BFS over pairs x <= y coded as x * n + y,
    each keeping only its parent link, so memory is O(n^2) ints."""
    n = len(auto.verts)
    rows = [(j, auto.src[j]) for j in range(1, auto.coloring.d + 1)]
    start = a * n + b if a <= b else b * n + a
    link = {start: start << 4}
    queue = [start]
    for cur in queue:
        x, y = divmod(cur, n)
        for j, row in rows:
            nx, ny = row[x], row[y]
            if nx is None or ny is None:
                raise _gap(auto, x if nx is None else y, j)
            if nx == ny:
                return _unwind(link, cur, j)
            key = nx * n + ny if nx <= ny else ny * n + nx
            if key not in link:
                link[key] = cur << 4 | j
                queue.append(key)
    return None


def _greedy_merge(auto: BackwardAutomaton) -> tuple[int, ...] | None:
    current = list(range(len(auto.verts)))  # sorted vertex indices; the least two merge
    word: list[int] = []
    while len(current) > 1:
        piece = _pair_merge_word(auto, current[0], current[1])
        if piece is None:
            return None
        word.extend(piece)
        for j in piece:
            image = [auto.src[j][i] for i in current]
            if None in image:  # name the least vertex with no edge of color j
                raise _gap(auto, current[image.index(None)], j)
            current = sorted(set(image))
    return tuple(word)


def _candidate_colorings(g: Graph, d: int):
    """Deterministic stream of strong colorings, one per candidate index.

    Each in-fiber, sorted by edge id, gets a bijection onto 1..d.  The
    fiber of the least vertex is pinned to the identity assignment: any
    strong coloring is carried to such a candidate by a global color
    permutation, which never changes synchronizability.  The candidates are
    counted first, up to the first product past SEARCH_BUDGET, and an
    overflow raises here, before the stream is returned.
    """
    ix = g.index
    fibers = [[ix.edges[e] for e in inc] for inc in ix.inc]
    perms = list(itertools.permutations(range(1, d + 1)))
    choices = [[tuple(range(1, d + 1))]] + [perms] * (len(fibers) - 1)
    total = 1
    for ch in choices:
        total *= len(ch)
        if total > SEARCH_BUDGET:  # the whole product can run to millions of digits
            break
    _check_budget("coloring", total, budget=SEARCH_BUDGET)
    return (
        Coloring(d, {
            eid: col
            for fiber, perm in zip(fibers, combo)
            for eid, col in zip(fiber, perm)
        })
        for combo in itertools.product(*choices)
    )


def search_synchronizing_coloring(g: Graph) -> tuple[Coloring, str] | None:
    """First strong coloring (in deterministic enumeration order) that admits
    a synchronizing word, with the word ``find_synchronizing_word`` gives it.

    Requires an in-degree regular graph.  After the budget check, None is
    returned without trying any coloring unless exactly one strongly
    connected component has no in-edge from outside, and that component
    has period 1.  Such a component is closed under every backward color
    step, so a word maps it into itself: two of them never merge.  A closed
    component of period p > 1 falls into p classes with every edge going
    from one class to the next, so a word of length L maps each class into
    the class L steps back, and the image still meets all p classes.  On an
    aperiodic, transitive, in-degree regular graph a synchronizing coloring
    always exists, so the search succeeds.
    """
    regular, d = is_in_degree_regular(g)
    if not regular or d is None or d == 0:
        raise DomainError("coloring search needs an in-degree regular graph with d >= 1")
    if d > MAX_COLORS:
        raise DomainError(f"color words use digits 1..{MAX_COLORS}", d=d)
    candidates, ix = _candidate_colorings(g, d), g.index
    closed = [
        comp
        for comp in strongly_connected_components(g)
        if all(ix.vertices[ix.src[j]] in comp for v in comp for j in ix.inc[ix.at[v]])
    ]
    if len(closed) != 1 or period(g, min(closed[0])) != 1:
        return None
    for cand in candidates:
        # candidates are strong and complete by construction, and keep their automaton
        word = _find_word(_automaton(g, cand))
        if word is not None:
            return cand, format_word(word)
    return None


def obrien_coloring(g: Graph, loop_edge: str) -> tuple[Coloring, str]:
    """Synchronizing coloring built from a loop and a spanning in-tree of color 1.

    Requires a transitive, in-degree regular graph and a loop.  A breadth
    first spanning tree out of the loop vertex is colored 1 together with
    the loop; each remaining in-fiber takes the unused colors in edge-id
    order.  Reading color 1 backward walks every vertex up its tree branch
    to the loop vertex and holds it there, so the word 1^depth synchronizes.
    The tree and one search over the automaton's rows decide transitivity,
    with no SCC pass; the coloring, strong by construction, carries its automaton.
    """
    e = g.edge(loop_edge)
    if e.src != e.dst:
        raise DomainError("edge is not a loop", edge=loop_edge)
    regular, d = is_in_degree_regular(g)
    if not regular or d is None or d == 0:
        raise DomainError("construction needs an in-degree regular graph")
    ix, start = g.index, g.index.at[e.src]
    tree_edge = [-1] * len(ix.vertices)  # each vertex's tree edge, by position
    tree_edge[start], level, depth = ix.edge_at[loop_edge], [start], -1
    while level:  # breadth first, one level of the tree at a time
        depth, nxt = depth + 1, []
        for u in level:
            for j in ix.out[u]:
                if tree_edge[w := ix.dst[j]] < 0:
                    tree_edge[w] = j
                    nxt.append(w)
        level = nxt
    if -1 in tree_edge:
        raise DomainError("construction needs a transitive graph")
    color: dict[str, int] = {}
    for v, ones in enumerate(tree_edge):
        color[ix.edges[ones]] = 1
        col = 2
        for j in ix.inc[v]:
            if j != ones:
                color[ix.edges[j]] = col
                col += 1
    coloring = Coloring(d, color)
    auto = _automaton(g, coloring)
    rows, back, reaching = auto.src[1:], [start], {start}
    for i in back:  # every vertex reaches the loop iff this search over the rows meets it
        for row in rows:
            if (u := row[i]) not in reaching:
                reaching.add(u)
                back.append(u)
    if len(back) < len(g.vertices):
        raise DomainError("construction needs a transitive graph")
    if d > MAX_COLORS:  # the one fault validation finds in this coloring
        bad_d = f"color count d={d} outside 1..{MAX_COLORS}"
        raise InvalidColoring("coloring is not strong", findings=[bad_d])
    word = (1,) * depth
    if _sync_target(auto, word) != e.src:
        raise AssertionError("tree coloring failed to synchronize to the loop vertex")
    return coloring, format_word(word)


@dataclass
class SyncDiagram:
    """Closed path at the synchronizing vertex realizing a prescribed color word."""

    vertex: str
    mu_prime: Path
    mu: Path
    closed: Path

    def color_word(self, g: Graph, c: Coloring) -> str:
        return color_word(g, c, self.closed)


def syncdiag_paths(
    g: Graph, c: Coloring, gamma: str, gamma_prime: str
) -> SyncDiagram:
    """Closed path lambda = mu' mu at the synchronizing vertex of gamma.

    mu' is the unique gamma'-colored path with range v; its source w is then
    pulled back to v by the synchronizing word: mu is the gamma-colored path
    with range w, whose source is v because gamma synchronizes.  The product
    lambda = mu' mu is a cycle at v with color word gamma' gamma.
    """
    auto = backward_automaton(g, c)
    letters = parse_word(gamma, c.d)
    v = _sync_target(auto, letters)
    if v is None:
        raise DomainError("word does not synchronize", word=gamma)
    w, mu_prime = _follow(auto, v, parse_word(gamma_prime, c.d))
    back, mu = _follow(auto, w, letters)
    if back != v:
        raise AssertionError("synchronizing word failed on the pulled-back vertex")
    closed = Path(v, mu_prime.edges + mu.edges)
    return SyncDiagram(v, mu_prime, mu, closed)


def synchronizing_guarantee(g: Graph) -> dict:
    """Testable form of the coloring guarantee: a synchronizing coloring exists
    iff the graph is aperiodic, among transitive in-degree regular graphs.

    Returns the hypotheses and the verdict of the search.  Only a graph
    with exactly one strongly connected component that has no in-edge from
    outside, of period 1, needs a search; on any other graph no color word
    merges the whole vertex set (see ``search_synchronizing_coloring``),
    and the verdict is None without any coloring being tried.
    """
    regular, d = is_in_degree_regular(g)
    transitive = is_transitive(g)
    p = period(g, min(g.vertices)) if g.vertices else None
    found = None
    if regular and d:
        found = search_synchronizing_coloring(g)
    return {
        "in_degree_regular": regular,
        "d": d,
        "transitive": transitive,
        "period": p,
        "synchronizing_coloring": found,
    }
