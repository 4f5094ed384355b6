"""Seeded command-line requests over JSON files, with a fixed corruption generator.

Each bundle is a set of small inputs (at most 12 vertices) written as JSON
files: a looped 2-in-regular graph ``G`` with a synchronizing colouring
``C`` and polynomials ``A``, ``B`` over it; a forest graph ``Fg`` with a total
family ``F`` and its gauge-and-relabel copy ``F2``; a pure cycle family ``Y``.
Requests cycle through every subcommand of the six groups.

About 10% of requests read one corrupted file.  The corruption generator
covers missing keys, wrong types and unknown ids.  It picks only keys and
values that every decoder must reject, and it never skips an input because
of how the CLI handles it.  A corrupted request is answered correctly by
exit 1 with a JSON error object on stderr, or, for the three validating
subcommands, by exit 0 with a report that says ``"valid": false``.
"""

from __future__ import annotations

import itertools
import json
import os

import inputs
import oracles
from oracles import expected

BUNDLES = 18
CORRUPT_SHARE = 0.1
ROLE_TYPE = {
    "G": "graph", "Fg": "graph", "C": "coloring", "A": "formal", "B": "formal",
    "F": "family", "F2": "family", "Y": "family",
}
VALIDATORS = {("graph", "check"), ("atomic", "validate"), ("color", "validate")}


def formal_json(terms: dict) -> dict:
    return {
        "terms": [
            {"path": {"base": b, "edges": list(es)}, "re": c.real, "im": c.imag}
            for (b, es), c in terms.items()
        ]
    }


def family_json(plain, fam) -> dict:
    return {
        "graph": plain.to_json(),
        "lambda": {v: list(labels) for v, labels in fam.lam.items()},
        "pi": [
            {"edge": e, "from": i, "to": j}
            for e, mapping in fam.pi.items() for i, j in mapping.items()
        ],
        "phase": [
            {"edge": e, "from": i,
             "angle": {"num": ph.turns.numerator, "den": ph.turns.denominator}}
            for (e, i), ph in fam.phases.items()
        ],
    }


class Bundle:
    """Sizes cycle with the bundle number k, so every seed has the same size mix."""

    def __init__(self, rng, workdir: str, k: int):
        self.k = k
        self.n = 4 + k % 5
        while True:
            self.plain = inputs.looped_graph(rng, self.n, 2)
            self.color = inputs.random_coloring(rng, self.plain, 2)
            self.word = oracles.sync_word(self.plain, 2, self.color)
            if self.word:
                break
        self.target = oracles.walk_target(self.plain, self.color, self.word)
        _, self.ta = inputs.polynomial(rng, self.plain, self.plain.graph(), 3 + k % 6, 3)
        _, self.tb = inputs.polynomial(rng, self.plain, self.plain.graph(), 8 - k % 6, 3)
        forest, parent = inputs.forest(rng, 6 + k % 7, root_frac=0.2)
        self.tree = inputs.tree_family(rng, forest, parent, 0.2)
        self.cyc = inputs.cycle_family(rng, 2 + k % 4, 2 + k % 2)
        self.data = {
            "G": self.plain.to_json(),
            "C": {"d": 2, "color": dict(self.color)},
            "A": formal_json(self.ta),
            "B": formal_json(self.tb),
            "Fg": forest.to_json(),
            "F": family_json(forest, self.tree.fam),
            "F2": family_json(forest, self.tree.twin),
            "Y": family_json(self.cyc.plain, self.cyc.fam),
        }
        self.files = {}
        for role, data in self.data.items():
            path = os.path.join(workdir, f"b{k}-{role}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            self.files[role] = path


# ---------------------------------------------------------------------------
# answers


def _terms(data: dict) -> dict:
    return {
        (t["path"]["base"], tuple(t["path"]["edges"])): complex(t["re"], t["im"])
        for t in data["terms"]
    }


def expect_ok(verify):
    def check(ans):
        if ans.code != 0:
            return f"exit {ans.code} on valid input"
        try:
            data = json.loads(ans.out)
        except ValueError:
            return "stdout is not JSON"
        return verify(data)
    return check


def expect_error(validator: bool):
    def check(ans):
        if ans.code == 1:
            try:
                data = json.loads(ans.err)
            except ValueError:
                return "stderr is not JSON"
            return None if isinstance(data, dict) and "error" in data else "no error object"
        if validator and ans.code == 0 and '"valid": false' in ans.out:
            return None
        return f"exit {ans.code} on malformed input"
    return check


def _verdict(ok: bool, reason: str):
    return None if ok else reason


# ---------------------------------------------------------------------------
# one builder per subcommand: (argv with @role placeholders, verify)


def _graph(b, rng):
    v = rng.choice(b.tree.plain.vertices)
    layers = expected(lambda: oracles.elimination_layers(b.tree.depth))
    reach = expected(lambda: sorted(oracles.descendants(b.tree.plain, [v])))
    period = expected(lambda: oracles.period(b.plain, "v0"))
    return [
        (["graph", "check", "@G"], lambda d: _verdict(
            d["valid"] and any(f["code"] == "in-degree-regular" for f in d["findings"]),
            "graph check report")),
        (["graph", "period", "@G", "--vertex", "v0"],
         lambda d: _verdict(d["period"] == period(), "period")),
        (["graph", "closure", "@Fg", "--set", v],
         lambda d: _verdict(sorted(d["closure"]) == reach(), "closure")),
        (["graph", "ses", "@Fg"],
         lambda d: _verdict(d["has_ses"] and d["layers"] == layers(), "elimination layers")),
    ]


def _paths(b, rng):
    v = rng.choice(b.plain.vertices)
    L = 2 + b.k % 4
    count = expected(
        lambda: sum(sum(level.values()) for level in oracles.walk_counts(b.plain, [v], L)))
    cycles = expected(lambda: oracles.irreducible_cycle_count(b.plain, v, L))
    return [
        (["paths", "enum", "@G", "--source", v, "--max-len", str(L)],
         lambda d: _verdict(d["count"] == count(), "path count")),
        (["paths", "cycles", "@G", "--vertex", v, "--max-len", str(L)],
         lambda d: _verdict(d["count"] == cycles(), "irreducible cycle count")),
        (["paths", "class", "@G", "--vertex", v],
         lambda d: _verdict(d["class"] == "TwoPlus", "cycle class")),
    ]


def _series(b, rng):
    m = rng.randint(0, 3)
    k = rng.randint(1, 4)
    v = rng.choice(b.plain.vertices)
    prod = expected(lambda: oracles.naive_mul(b.plain, b.ta, b.tb))
    low = expected(lambda: min(len(es) for _, es in b.ta))
    norm = expected(lambda: oracles.row_norm(b.ta, m, v))
    graph = ["--graph", "@G"]
    return [
        (["series", "mul", "@A", "@B"] + graph,
         lambda d: _verdict(oracles.same_terms(_terms(d), prod()), "product")),
        (["series", "fourier", "@A", "-m", str(m)] + graph,
         lambda d: _verdict(oracles.same_terms(_terms(d), oracles.grade(b.ta, m)), "grade part")),
        (["series", "cesaro", "@A", "-k", str(k)] + graph,
         lambda d: _verdict(oracles.same_terms(_terms(d), oracles.cesaro(b.ta, k)), "Cesaro")),
        (["series", "ideal-degree", "@A"] + graph,
         lambda d: _verdict(d["degree"] == low(), "ideal degree")),
        (["series", "rownorm", "@A", "-m", str(m), "--vertex", v] + graph,
         lambda d: _verdict(abs(d["value"] - norm()) <= oracles.TOL, "row norm")),
    ]


def _atomic(b, rng):
    fresh = b.tree.fresh
    n = len(b.cyc.plain.vertices)
    mu = json.dumps({"base": "v1", "edges": [f"e{i}" for i in range(n, 0, -1)]})

    def classified(d):
        kinds = {a["kind"] for a in d["atoms"]}
        alpha = {a["vertex"]: a["multiplicity"] for a in d["atoms"]}
        return _verdict(kinds <= {"left_regular"} and alpha == fresh, "atoms")

    return [
        (["atomic", "validate", "@F"], lambda d: _verdict(d["valid"], "validation")),
        (["atomic", "classify", "@F"], classified),
        (["atomic", "equiv", "@F", "@F2"], lambda d: _verdict(d["equivalent"], "equivalence")),
        (["atomic", "wold", "@F"], lambda d: _verdict(
            d["alpha"] == fresh and d["remainder"] == [], "wold data")),
        (["atomic", "condM", "@Y", "--mu", mu],
         lambda d: _verdict(d["class"] == "Singular", "condition M")),
    ]


def _colors(b, rng):
    plain, color, word = b.plain, b.color, b.word
    gamma2 = inputs.random_word(rng, 2)

    def synced(d, target=None):
        col = {e: int(c) for e, c in d["coloring"]["color"].items()}
        hit = oracles.is_complete_strong(plain, 2, col) and oracles.walk_target(plain, col, d["word"])
        return _verdict(hit and (target is None or hit == target), "colouring or word")

    def diagram(d):
        edges = tuple(d["lambda"]["edges"])
        ok = d["vertex"] == b.target and oracles.closed_path_ok(
            plain, color, b.target, edges, gamma2 + word)
        return _verdict(ok, "sync diagram")

    return [
        (["color", "validate", "@G", "@C"], lambda d: _verdict(d["valid"], "validation")),
        (["color", "sync-verify", "@G", "@C", "--word", word], lambda d: _verdict(
            d["synchronizing"] and d["target"] == b.target, "synchronizing target")),
        (["color", "sync-find", "@G", "@C"], lambda d: _verdict(
            d["word"] is not None and oracles.walk_target(plain, color, d["word"]) is not None,
            "found word")),
        (["color", "search", "@G"], synced),
        (["color", "obrien", "@G", "--loop", "e0"], lambda d: synced(d, "v0")),
        (["color", "syncdiag", "@G", "@C", "--gamma", word, "--gamma2", gamma2], diagram),
    ]


def _trunc(b, rng):
    N = 2 + b.k % 3
    n = 1 + b.k % 4
    depth = 5
    lr_dim = expected(
        lambda: sum(sum(level.values()) for level in oracles.walk_counts(b.plain, ["v0"], N)))
    mass = expected(lambda: oracles.applied_mass(b.plain, b.ta, "v0", N))
    return [
        (["trunc", "build", "@G", "--sources", "v0", "--depth", str(N)], lambda d: _verdict(
            d["kind"] == "left_regular" and d["dim"] == lr_dim(), "basis dimension")),
        (["trunc", "verify", "@G", "--coloring", "@C", "--depth", str(N)], lambda d: _verdict(
            d["dim"] == oracles.colored_dim(b.n, 2, N) and all(r["exact_zero"] for r in d["relations"]), "relations")),
        (["trunc", "cycle-lemma", "-n", str(n), "--depth", str(depth)],
         lambda d: _verdict(d["ok"], "cycle lemma")),
        (["trunc", "apply", "@G", "@A", "--sources", "v0", "--depth", str(N)],
         lambda d: _verdict(
             abs(sum(re * re + im * im for _, _, re, im in d["entries"]) - mass())
             <= oracles.TOL * max(1.0, mass()), "applied matrix mass")),
    ]


GROUPS = (_graph, _paths, _series, _atomic, _colors, _trunc)


# ---------------------------------------------------------------------------
# corruption


def _corrupt_graph(rng, data, kind):
    edge = rng.choice(data["edges"])
    if kind == "missing":
        rng.choice([lambda: data.pop("vertices"), lambda: data.pop("edges"),
                    lambda: edge.pop(rng.choice(["id", "src", "dst"]))])()
    elif kind == "type":
        rng.choice([lambda: data.update(vertices=7), lambda: data.update(edges=7),
                    lambda: data["edges"].__setitem__(data["edges"].index(edge), "x")])()
    else:
        edge[rng.choice(["src", "dst"])] = "zz"


def _corrupt_coloring(rng, data, kind):
    eid = rng.choice(sorted(data["color"]))
    if kind == "missing":
        data.pop(rng.choice(["d", "color"]))
    elif kind == "type":
        rng.choice([lambda: data.update(d="x"), lambda: data.update(color=7),
                    lambda: data["color"].__setitem__(eid, "x")])()
    else:
        data["color"]["zz"] = data["color"].pop(eid)


def _corrupt_formal(rng, data, kind):
    term = rng.choice(data["terms"])
    if kind == "missing":
        rng.choice([lambda: data.pop("terms"), lambda: term.pop("path")])()
    elif kind == "type":
        rng.choice([lambda: data.update(terms=7), lambda: term.update(re="x"),
                    lambda: term.update(path=7)])()
    else:
        term["path"]["edges"] = ["zz"]


def _corrupt_family(rng, data, kind):
    row = rng.choice(data["pi"])
    if kind == "missing":
        rng.choice([lambda: data.pop("graph"), lambda: data.pop("lambda"),
                    lambda: row.pop("to")])()
    elif kind == "type":
        options = [lambda: data.update(pi=7),
                   lambda: data["lambda"].__setitem__(rng.choice(sorted(data["lambda"])), 7)]
        if data["phase"]:
            options.append(lambda: rng.choice(data["phase"])["angle"].update(num="x"))
        rng.choice(options)()
    else:
        rng.choice([lambda: row.update(edge="zz"),
                    lambda: data["lambda"].__setitem__("zz", ["i0"])])()


CORRUPTORS = {
    "graph": _corrupt_graph, "coloring": _corrupt_coloring,
    "formal": _corrupt_formal, "family": _corrupt_family,
}
KINDS = ("missing", "type", "unknown-id")


def cli_requests(rng, size: int, workdir: str):
    """(kind, argv, check) triples; kind names the subcommand and any corruption."""
    bundles = [Bundle(rng, workdir, k) for k in range(BUNDLES)]
    specs = []
    for b in itertools.cycle(bundles):
        if len(specs) >= size:
            break
        menu = [item for group in GROUPS for item in group(b, rng)]
        specs.extend((b, argv, verify) for argv, verify in menu)
    specs = specs[:size]
    with_files = [i for i, (_, argv, _) in enumerate(specs) if any(a[0] == "@" for a in argv)]
    corrupt = set(rng.sample(with_files, round(size * CORRUPT_SHARE)))
    out = []
    for i, (b, argv, verify) in enumerate(specs):
        name = " ".join(argv[:2])
        roles = [a[1:] for a in argv if a[0] == "@"]
        files = dict(b.files)
        if i in corrupt:
            role = rng.choice(roles)
            kind = KINDS[i % len(KINDS)]
            data = json.loads(json.dumps(b.data[role]))
            CORRUPTORS[ROLE_TYPE[role]](rng, data, kind)
            path = os.path.join(workdir, f"r{i}-{role}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            files[role] = path
            name = f"{name} [{ROLE_TYPE[role]} {kind}]"
            check = expect_error(tuple(argv[:2]) in VALIDATORS)
        else:
            check = expect_ok(verify)
        argv = [files[a[1:]] if a[0] == "@" else a for a in argv]
        out.append((name, argv, check))
    return out
