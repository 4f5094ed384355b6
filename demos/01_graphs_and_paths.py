"""Tour of the graph and path layer.

Builds the looped-triangle multigraph (a loop at t, doubled edge to l, and
a cycle back through r), then walks through connectivity, periodicity,
source elimination, and path enumeration.
"""

from semigroupoid_kit import (
    Graph,
    Path,
    compose,
    cycle_graph,
    enumerate_paths,
    has_ses,
    irreducible_cycles_at,
    is_transitive,
    looped_triangle,
    period,
    source_elimination,
    strongly_connected_components,
    vertex_cycle_class,
)

g = looped_triangle()
print("vertices:", ", ".join(g.sorted_vertices()))
for e in g.edges:
    print(f"  {e.id}: {e.src} -> {e.dst}")

print("\nstrongly connected components:", [sorted(c) for c in strongly_connected_components(g)])
print("transitive:", is_transitive(g))
print("period at t:", period(g, "t"), "(aperiodic)")

print("\ncycle trichotomy per vertex:")
for v in g.sorted_vertices():
    print(f"  {v}: {vertex_cycle_class(g, v).value}")

# paths are stored with the edge applied last in front, like operator
# products: p.edges[0] is the outermost factor
p = Path("t", ("rt", "lr", "tl1"))
print("\nthe 3-cycle at t:", p.edges, "length", len(p))

q = compose(g, Path("l", ("lr",)), Path("t", ("tl1",)))
print("compose (l->r) after (t->l):", q.edges)

print("\npaths from t up to length 2:")
for path in enumerate_paths(g, ["t"], 2):
    print(f"  len {len(path)}: {' '.join(path.edges) or '(vertex)'}")

print("\nirreducible cycles at t (length <= 3):")
for c in irreducible_cycles_at(g, "t", 3):
    print("  " + " ".join(c.edges))

# source elimination: acyclic graphs melt away layer by layer
dag = Graph.build(
    ["a", "b", "c", "d"],
    [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c"), ("e4", "d", "c")],
)
g0, layers, ok = source_elimination(dag)
print("\nsource elimination on a small DAG:")
print("  layers:", layers)
print("  everything eliminated:", ok, "| has_ses:", has_ses(dag))

g0, layers, ok = source_elimination(g)
print("on the looped triangle nothing is a source:")
print("  layers:", layers, "| core:", g0.sorted_vertices())

print("\na plain cycle graph keeps its period:")
c4 = cycle_graph(4)
print("  period of C4:", period(c4, "v1"))
