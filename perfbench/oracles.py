"""Correctness oracles, independent of the code being timed.

Nothing here imports ``semigroupoid_kit``: every expected value comes from
the construction facts in ``inputs`` and plain loops over edge tables
(``Plain``) and term dictionaries keyed by ``(base, edge tuple)``.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from fractions import Fraction

TOL = 1e-9

# Wraps a zero-argument function computing an expected value, so that the
# value is computed once, by the first check that needs it, and not while
# the inputs are built.
expected = functools.cache


def elimination_layers(depth: dict[str, int]) -> list[list[str]]:
    """Source elimination of a forest removes one depth level per round."""
    levels: dict[int, list[str]] = {}
    for v, k in depth.items():
        levels.setdefault(k, []).append(v)
    return [sorted(levels[k]) for k in sorted(levels)]


def cycle_atoms(n: int, laps: int, total: Fraction) -> tuple[str, tuple[str, ...], list[Fraction]]:
    """(base, edges, phases) of the cycle atoms of a pure cycle family.

    H is one cycle running ``laps`` times around the n-cycle, so the family
    splits into ``laps`` atoms on the primitive n-cycle whose phases are the
    exact laps-th roots of the total phase.
    """
    stored = tuple(f"e{i}" for i in range(n, 0, -1))  # e1 applied first, stored last
    canon = min(stored[j:] + stored[:j] for j in range(n))
    base = f"v{canon[-1][1:]}"  # e_k leaves v_k
    roots = sorted(((total + k) / laps) % 1 for k in range(laps))
    return base, canon, roots


def period(plain, v: str) -> int:
    """gcd of dist(src) + 1 - dist(dst) over edges of a strongly connected graph."""
    out: dict[str, list[str]] = {u: [] for u in plain.vertices}
    for s, d in plain.edges.values():
        out[s].append(d)
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in out[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    p = 0
    for s, d in plain.edges.values():
        p = math.gcd(p, dist[s] + 1 - dist[d])
    return p


def is_complete_strong(plain, d: int, color: dict) -> bool:
    """Every edge coloured in 1..d and every vertex receives each colour once."""
    if set(color) != set(plain.edges):
        return False
    fibers: dict[str, list[int]] = {v: [] for v in plain.vertices}
    for eid, (_, dst) in plain.edges.items():
        fibers[dst].append(color[eid])
    return all(sorted(f) == list(range(1, d + 1)) for f in fibers.values())


def backward_table(plain, color: dict) -> dict[tuple[str, int], tuple[str, str]]:
    """(vertex, colour) -> (source, edge) of the incoming edge of that colour."""
    return {(dst, color[eid]): (src, eid) for eid, (src, dst) in plain.edges.items()}


def walk_target(plain, color: dict, word: str) -> str | None:
    """Plain backward walk of the word from every vertex; the common end or None."""
    table = backward_table(plain, color)
    ends = set()
    for v in plain.vertices:
        for ch in word:
            v = table[(v, int(ch))][0]
        ends.add(v)
    return ends.pop() if len(ends) == 1 else None


def sync_word(plain, d: int, color: dict) -> str | None:
    """Shortest synchronizing word by breadth-first search over vertex subsets."""
    table = backward_table(plain, color)
    start = frozenset(plain.vertices)
    seen = {start: ""}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if len(cur) == 1:
            return seen[cur]
        for j in range(1, d + 1):
            nxt = frozenset(table[(v, j)][0] for v in cur)
            if nxt not in seen:
                seen[nxt] = seen[cur] + str(j)
                queue.append(nxt)
    return None


def synchronizable(plain, d: int, color: dict) -> bool:
    """Every pair of vertices can be merged by some word (pair automaton)."""
    index = {v: k for k, v in enumerate(plain.vertices)}
    n = len(index)
    # reading colour j at dst moves to src, so dst is a preimage of src
    pre = [[[] for _ in range(d + 1)] for _ in range(n)]
    for eid, (src, dst) in plain.edges.items():
        pre[index[src]][color[eid]].append(index[dst])
    good = bytearray(n * n)
    queue = [(v, v) for v in range(n)]
    for v in range(n):
        good[v * n + v] = 1
    for a, b in queue:  # breadth first: the queue grows while it is read
        for j in range(1, d + 1):
            for x in pre[a][j]:
                for y in pre[b][j]:
                    key = x * n + y if x <= y else y * n + x
                    if not good[key]:
                        good[key] = 1
                        queue.append((x, y))
    return len(queue) == n + n * (n - 1) // 2


def closed_path_ok(plain, color: dict, v: str, edges: tuple[str, ...], word: str) -> bool:
    """edges (product order) form a closed path at v whose colours spell word."""
    if "".join(str(color[e]) for e in edges) != word:
        return False
    if not edges:
        return True
    if plain.edges[edges[-1]][0] != v or plain.edges[edges[0]][1] != v:
        return False
    return all(plain.edges[a][0] == plain.edges[b][1] for a, b in zip(edges, edges[1:]))


# ---------------------------------------------------------------------------
# series


def term_range(plain, base: str, edges: tuple[str, ...]) -> str:
    return plain.edges[edges[0]][1] if edges else base


def naive_mul(plain, a: dict, b: dict) -> dict:
    """Convolution by definition: mu * nu is defined when nu ends where mu starts."""
    out: dict = {}
    for (b1, e1), c1 in a.items():
        for (b2, e2), c2 in b.items():
            if term_range(plain, b2, e2) == b1:
                key = (b2, e1 + e2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def grade(terms: dict, m: int) -> dict:
    return {k: c for k, c in terms.items() if len(k[1]) == m}


def cesaro(terms: dict, k: int) -> dict:
    return {key: c * (1 - len(key[1]) / k) for key, c in terms.items() if len(key[1]) < k}


def row_norm(terms: dict, m: int, v: str) -> float:
    return math.sqrt(sum(abs(c) ** 2 for (b, es), c in terms.items() if len(es) == m and b == v))


def same_terms(got: dict, want: dict, tol: float = TOL) -> bool:
    """got maps (base, edges) -> complex; equal to want up to tol, no extras."""
    keys = set(got) | set(want)
    return all(abs(got.get(k, 0) - want.get(k, 0)) <= tol for k in keys)


# ---------------------------------------------------------------------------
# truncations


def walk_counts(plain, sources, max_len: int) -> list[dict[str, int]]:
    """counts[k][u]: walks of length k from the sources ending at u."""
    level = {u: 0 for u in plain.vertices}
    for s in set(sources):
        level[s] += 1
    counts = [level]
    for _ in range(max_len):
        nxt = {u: 0 for u in plain.vertices}
        for s, d in plain.edges.values():
            nxt[d] += level[s]
        counts.append(nxt)
        level = nxt
    return counts


def colored_dim(n: int, d: int, depth: int) -> int:
    return n * sum(d**k for k in range(depth + 1))


def applied_mass(plain, terms: dict, source: str, depth: int) -> float:
    """Sum of |entry|^2 of the truncated matrix of a polynomial on the
    left-regular model from one source: column q meets term p exactly when
    q ends where p starts and |p| + |q| <= depth, with entry c_p."""
    counts = walk_counts(plain, [source], depth)
    total = 0.0
    for (b, es), c in terms.items():
        fits = sum(counts[k][b] for k in range(depth - len(es) + 1))
        total += abs(c) ** 2 * fits
    return total


def descendants(plain, start) -> set[str]:
    out: dict[str, list[str]] = {u: [] for u in plain.vertices}
    for s, d in plain.edges.values():
        out[s].append(d)
    seen = set(start)
    todo = list(start)
    while todo:
        for w in out[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def irreducible_cycle_count(plain, v: str, max_len: int) -> int:
    """Closed walks at v of length <= max_len that do not revisit v inside."""
    out: dict[str, list[str]] = {u: [] for u in plain.vertices}
    for s, d in plain.edges.values():
        out[s].append(d)
    level = {w: 0 for w in plain.vertices}
    found = 0
    for w in out[v]:
        level[w] += 1
    for _ in range(max_len):
        found += level[v]
        nxt = {w: 0 for w in plain.vertices}
        for u, k in level.items():
            if k and u != v:
                for w in out[u]:
                    nxt[w] += k
        level = nxt
    return found
