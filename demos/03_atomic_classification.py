"""Atomic families: label graphs, classification, Wold data, equivalence.

An explicit atomic family assigns index sets to vertices and partial
injections (with unimodular phases) to edges.  Tracing the induced label
graph backward sorts every component into a left-regular atom (one root)
or a ring of cycle atoms (one loop), and unitary equivalence reduces to
comparing atom multisets.
"""

from semigroupoid_kit import (
    CycleAtom,
    CycleType,
    ExplicitAtomic,
    Graph,
    LeftRegularAtom,
    Path,
    Phase,
    are_unitarily_equivalent,
    build_H,
    classify,
    cycle_graph,
    gauge_transform,
    pure_cycle_family,
    relabel,
    validate_atomic,
    wold_atomic,
)


def describe(atom):
    if isinstance(atom, LeftRegularAtom):
        return f"left-regular at {atom.vertex}"
    word = " ".join(atom.cycle.edges)
    if isinstance(atom, CycleAtom):
        return f"cycle [{word}] with phase {atom.phase.turns} turns"
    return f"tail on [{word}]"


# a root forest on a tiny DAG: one fresh root at a, one at b
dag = Graph.build(["a", "b", "c"], [("e1", "a", "c"), ("e2", "b", "c")])
fam = ExplicitAtomic(
    dag,
    {"a": ("i0",), "b": ("i0",), "c": ("j0", "j1")},
    {"e1": {"i0": "j0"}, "e2": {"i0": "j1"}},
)

h = build_H(fam)
print("label graph nodes:", sorted(h.nodes))
print("number of components:", len(h.components()))

dec = classify(dag, fam)
print("\nclassification:")
for atom, mult in dec.atoms:
    print(f"  {describe(atom)}  x{mult}")

wold = wold_atomic(fam)
print("wandering multiplicities:", {v: m for v, m in wold.alpha.items() if m})
print("fully coisometric remainder nodes:", sorted(wold.remainder_nodes))

# gauge rescalings and relabelings never change the unitary class
moved = gauge_transform(fam, {("c", "j0"): Phase.from_turns(1, 3)})
moved = relabel(moved, {("a", "i0"): "root", ("c", "j0"): "leaf"})
print(
    "\nequivalent after gauge + relabel:",
    are_unitarily_equivalent(dag, fam, moved).equivalent,
)

# a cycle with a phase: three laps around a single loop
loop = cycle_graph(1)
lam = Phase.from_turns(1, 2)
cyc = pure_cycle_family(loop, laps=3, phases=[Phase.one(), Phase.one(), lam])
dec = classify(loop, cyc)
print("\nthree laps with total phase 1/2 turn split into cube roots:")
for atom, mult in dec.atoms:
    print(f"  {describe(atom)}  x{mult}")

# the same decomposition from canonical cycle data
w3 = Path("v1", ("e1", "e1", "e1"))
dec2 = classify(loop, CycleType(w3, lam))
print("canonical cycle data gives the same atoms:", dec.atoms == dec2.atoms)

# changing the accumulated phase changes the class
other = pure_cycle_family(loop, laps=3, phases=[Phase.one(), Phase.one(), Phase.one()])
print(
    "phase 1/2 vs phase 0 equivalent:",
    are_unitarily_equivalent(loop, cyc, other).equivalent,
)
wold = wold_atomic(cyc)
print("\ncycle families have no wandering part:", dict(wold.alpha))
print("remainder nodes:", sorted(wold.remainder_nodes))

# broken data: validation names every fault with its code and place, in
# sorted order (vertex, edge, label), whatever the hash seed
labels = tuple(f"i{k}" for k in range(6))
broken = ExplicitAtomic(
    dag,
    {"a": labels, "b": labels[:4], "c": ("j0", "j1", "j2"), "z": ("i0",)},
    {
        "e1": {i: f"k{i}" for i in labels},  # six images outside Lambda_c
        "e2": {"i0": "j0", "i1": "j0", "i2": "j1", "i7": "j2"},
        "e9": {"i0": "j0"},
    },
    {(e, i): Phase.one() for e, i in [("e2", "i5"), ("e9", "i0"), ("e1", "q"), ("e8", "i1")]},
)
print("\nfindings on broken data:")
for f in validate_atomic(broken).findings:
    print(f"  {f.code:18s} {f.where or '':3s} {f.message}")
