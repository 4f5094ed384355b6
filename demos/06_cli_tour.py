"""A tour of the command line interface.

Writes the looped-triangle graph and companion files to a temporary
directory, removed at the end, then walks through each command group.
Every command reads and writes plain JSON, so the whole pipeline is
scriptable.
"""

import subprocess
import sys
import tempfile
from pathlib import Path as FsPath

from semigroupoid_kit import (
    ExplicitAtomic,
    FormalElement,
    Graph,
    Path,
    Phase,
    looped_triangle,
    obrien_coloring,
    serialize,
)


def run(*args):
    cmd = [sys.executable, "-m", "semigroupoid_kit.cli", *args]
    shown = "semigroupoid-kit " + " ".join(args)
    print(f"$ {shown}")
    out = subprocess.run(cmd, capture_output=True, text=True)
    text = (out.stdout or out.stderr).rstrip()
    for line in text.splitlines():
        print("  " + line)
    print()
    return text


def tour(tmp: FsPath) -> None:
    g = looped_triangle()
    coloring, _ = obrien_coloring(g, "loop_t")

    graph_file = tmp / "triangle.json"
    graph_file.write_text(serialize.dump_json(g.to_json_dict()))
    coloring_file = tmp / "coloring.json"
    coloring_file.write_text(serialize.dump_json(serialize.coloring_to_json(coloring)))

    # two formal elements: a = P_t + 2 L_tl1 and b = P_t - L_loop_t
    a = FormalElement(g, {Path.vertex("t"): 1.0, Path.of(g, ["tl1"]): 2.0})
    b = FormalElement(g, {Path.vertex("t"): 1.0, Path.of(g, ["loop_t"]): -1.0})
    a_file = tmp / "a.json"
    a_file.write_text(serialize.dump_json(serialize.formal_to_json(a)))
    b_file = tmp / "b.json"
    b_file.write_text(serialize.dump_json(serialize.formal_to_json(b)))

    # an explicit atomic family: a phased loop at v feeding a sink w
    loop_graph = Graph.build(["v", "w"], [("loop", "v", "v"), ("out", "v", "w")])
    fam = ExplicitAtomic(
        loop_graph,
        {"v": ("i0",), "w": ("j0",)},
        {"loop": {"i0": "i0"}, "out": {"i0": "j0"}},
        {("loop", "i0"): Phase.from_turns(1, 2)},
    )
    fam_file = tmp / "family.json"
    fam_file.write_text(serialize.dump_json(serialize.explicit_atomic_to_json(fam)))

    print("the formal element file format:")
    for line in a_file.read_text().splitlines():
        print("  " + line)
    print()

    print("== graph commands ==\n")
    run("graph", "check", str(graph_file), "--format", "table")
    run("graph", "period", str(graph_file), "--vertex", "t")
    run("graph", "ses", str(graph_file))

    print("== path commands ==\n")
    run("paths", "enum", str(graph_file), "--source", "t", "--max-len", "1",
        "--format", "table")
    run("paths", "cycles", str(graph_file), "--vertex", "t", "--max-len", "3")

    print("== series commands ==\n")
    run("series", "mul", str(a_file), str(b_file), "--graph", str(graph_file),
        "--format", "table")
    run("series", "rownorm", str(a_file), "-m", "1", "--vertex", "t",
        "--graph", str(graph_file))

    print("== atomic commands ==\n")
    run("atomic", "classify", str(fam_file))
    run("atomic", "wold", str(fam_file))
    run("atomic", "condM", str(fam_file), "--mu",
        '{"base": "v", "edges": ["loop"]}')

    print("== coloring commands ==\n")
    run("color", "validate", str(graph_file), str(coloring_file), "--format", "table")
    run("color", "sync-find", str(graph_file), str(coloring_file))
    run("color", "obrien", str(graph_file), "--loop", "loop_t")
    run("color", "syncdiag", str(graph_file), str(coloring_file),
        "--gamma", "1", "--gamma2", "12")

    print("== truncation commands ==\n")
    run("trunc", "verify", str(graph_file), "--sources", "t", "--depth", "2",
        "--format", "table")
    run("trunc", "cycle-lemma", "-n", "2", "--depth", "4", "--format", "table")

    print("== errors come back as JSON on stderr with exit 1 ==\n")
    run("graph", "period", str(graph_file), "--vertex", "nope")


with tempfile.TemporaryDirectory(prefix="semigroupoid-kit-") as tmp:
    tour(FsPath(tmp))
