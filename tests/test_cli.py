import json
import time

import pytest

from semigroupoid_kit import Coloring, Path, cycle_graph, looped_triangle, pure_cycle_family
from semigroupoid_kit.cli import main
from semigroupoid_kit.serialize import (
    dump_json,
    explicit_atomic_to_json,
    formal_to_json,
)

OBRIEN_FIG1 = {"loop_t": 1, "tl1": 1, "tr": 1, "tl2": 2, "lr": 2, "rt": 2}


@pytest.fixture
def fig1_file(tmp_path, fig1):
    path = tmp_path / "fig1.json"
    path.write_text(dump_json(fig1.to_json_dict()))
    return str(path)


@pytest.fixture
def coloring_file(tmp_path):
    path = tmp_path / "coloring.json"
    path.write_text(dump_json(Coloring(2, OBRIEN_FIG1).to_json_dict()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_check_json(capsys, fig1_file):
    code, out, err = run(capsys, ["graph", "check", fig1_file])
    assert code == 0 and not err
    data = json.loads(out)
    assert data["valid"] is True


def test_graph_check_dot(capsys, fig1_file):
    code, out, _ = run(capsys, ["graph", "check", fig1_file, "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph")
    assert '"t" -> "l"' in out


def test_graph_period_and_closure(capsys, fig1_file):
    code, out, _ = run(capsys, ["graph", "period", fig1_file, "--vertex", "t"])
    assert code == 0 and json.loads(out)["period"] == 1
    code, out, _ = run(capsys, ["graph", "closure", fig1_file, "--set", "l"])
    assert json.loads(out)["closure"] == ["l", "r", "t"]


def test_graph_ses(capsys, fig1_file):
    code, out, _ = run(capsys, ["graph", "ses", fig1_file])
    data = json.loads(out)
    assert data["has_ses"] is False
    assert data["g0"]["vertices"]


def test_paths_enum_table(capsys, fig1_file):
    code, out, _ = run(
        capsys,
        ["paths", "enum", fig1_file, "--source", "t", "--max-len", "1", "--format", "table"],
    )
    assert code == 0
    assert "count: 5" in out


def test_paths_cycles_json(capsys, fig1_file):
    code, out, _ = run(
        capsys, ["paths", "cycles", fig1_file, "--vertex", "t", "--max-len", "3"]
    )
    data = json.loads(out)
    assert data["count"] == 4


def test_paths_class(capsys, fig1_file):
    code, out, _ = run(capsys, ["paths", "class", fig1_file, "--vertex", "t"])
    assert json.loads(out)["class"] == "TwoPlus"


def test_series_pipeline(capsys, tmp_path, fig1, fig1_file):
    from semigroupoid_kit import FormalElement

    a = FormalElement(fig1, {Path.vertex("t"): 1.0, Path("t", ("tl1",)): 2.0})
    b = FormalElement(fig1, {Path.vertex("t"): 1.0})
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    fa.write_text(dump_json(formal_to_json(a)))
    fb.write_text(dump_json(formal_to_json(b)))
    code, out, _ = run(
        capsys, ["series", "mul", str(fa), str(fb), "--graph", fig1_file]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 2
    code, out, _ = run(
        capsys, ["series", "fourier", str(fa), "-m", "1", "--graph", fig1_file]
    )
    assert len(json.loads(out)["terms"]) == 1
    code, out, _ = run(
        capsys, ["series", "cesaro", str(fa), "-k", "2", "--graph", fig1_file]
    )
    assert code == 0
    code, out, _ = run(
        capsys, ["series", "ideal-degree", str(fa), "--graph", fig1_file]
    )
    assert json.loads(out)["degree"] == 0
    code, out, _ = run(
        capsys,
        ["series", "rownorm", str(fa), "-m", "1", "--vertex", "t", "--graph", fig1_file],
    )
    assert abs(json.loads(out)["value"] - 2.0) < 1e-12


def test_series_rownorm_at_an_unknown_vertex_exits_1(capsys, tmp_path, fig1, fig1_file):
    from semigroupoid_kit import FormalElement, Path

    fa = tmp_path / "a.json"
    fa.write_text(dump_json(formal_to_json(FormalElement(fig1, {Path("t", ("tl1",)): 2.0}))))
    argv = ["series", "rownorm", str(fa), "-m", "1", "--vertex", "nosuch", "--graph", fig1_file]
    for fmt in ("json", "table"):
        code, out, err = run(capsys, argv + ["--format", fmt])
        assert code == 1 and not out
        assert json.loads(err) == {
            "error": "graph-format", "message": "unknown vertex", "details": {"vertex": "nosuch"}
        }


def test_series_ideal_degree_of_zero_is_infinity(capsys, tmp_path, fig1, fig1_file):
    from semigroupoid_kit import FormalElement

    z = tmp_path / "z.json"
    z.write_text(dump_json(formal_to_json(FormalElement.zero(fig1))))
    code, out, _ = run(capsys, ["series", "ideal-degree", str(z), "--graph", fig1_file])
    assert json.loads(out)["degree"] == "infinity"


def test_atomic_subcommands(capsys, tmp_path, rng):
    import corpus

    g = corpus.random_graph(rng, max_v=4, max_e=5, acyclic=True)
    fam, fresh = corpus.random_root_family(rng, g)
    f = tmp_path / "fam.json"
    f.write_text(dump_json(explicit_atomic_to_json(fam)))
    code, out, _ = run(capsys, ["atomic", "validate", str(f)])
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, ["atomic", "classify", str(f)])
    atoms = json.loads(out)["atoms"]
    assert sum(a["multiplicity"] for a in atoms) == sum(fresh.values())
    code, out, _ = run(capsys, ["atomic", "wold", str(f)])
    data = json.loads(out)
    assert {v: m for v, m in data["alpha"].items() if m} == fresh
    code, out, _ = run(capsys, ["atomic", "equiv", str(f), str(f)])
    assert json.loads(out)["equivalent"] is True


def test_atomic_validate_dot_output(capsys, tmp_path, rng):
    import corpus

    g = corpus.random_graph(rng, max_v=3, max_e=3, acyclic=True)
    fam, _ = corpus.random_root_family(rng, g)
    f = tmp_path / "fam.json"
    f.write_text(dump_json(explicit_atomic_to_json(fam)))
    code, out, _ = run(capsys, ["atomic", "validate", str(f), "--format", "dot"])
    assert code == 0 and out.startswith("digraph")


def test_atomic_condm(capsys, tmp_path):
    from semigroupoid_kit import pure_cycle_family

    fam = pure_cycle_family(cycle_graph(2), laps=2)
    f = tmp_path / "cycle.json"
    f.write_text(dump_json(explicit_atomic_to_json(fam)))
    mu = json.dumps({"base": "v1", "edges": ["e2", "e1"]})
    code, out, _ = run(capsys, ["atomic", "condM", str(f), "--mu", mu])
    assert code == 0
    assert json.loads(out)["class"] == "Singular"


def test_color_subcommands(capsys, fig1_file, coloring_file):
    code, out, _ = run(capsys, ["color", "validate", fig1_file, coloring_file])
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(
        capsys, ["color", "sync-verify", fig1_file, coloring_file, "--word", "1"]
    )
    data = json.loads(out)
    assert data["synchronizing"] is True and data["target"] == "t"
    code, out, _ = run(capsys, ["color", "sync-find", fig1_file, coloring_file])
    assert json.loads(out)["word"] == "1"
    code, out, _ = run(capsys, ["color", "search", fig1_file])
    assert json.loads(out)["word"] is not None
    code, out, _ = run(capsys, ["color", "obrien", fig1_file, "--loop", "loop_t"])
    data = json.loads(out)
    assert data["word"] == "1"
    assert data["coloring"]["color"] == OBRIEN_FIG1
    code, out, _ = run(
        capsys,
        ["color", "syncdiag", fig1_file, coloring_file, "--gamma", "1", "--gamma2", "21"],
    )
    data = json.loads(out)
    assert data["colors"] == "211"
    assert data["vertex"] == "t"


def test_trunc_subcommands(capsys, tmp_path, fig1, fig1_file, coloring_file):
    code, out, _ = run(
        capsys, ["trunc", "build", fig1_file, "--sources", "t", "--depth", "2"]
    )
    data = json.loads(out)
    assert data["dim"] == 12 and data["kind"] == "left_regular"
    code, out, _ = run(
        capsys,
        ["trunc", "verify", fig1_file, "--coloring", coloring_file, "--depth", "3"],
    )
    data = json.loads(out)
    assert all(rel["max_residual"] == 0.0 for rel in data["relations"])
    code, out, _ = run(capsys, ["trunc", "cycle-lemma", "-n", "3", "--depth", "6"])
    assert json.loads(out)["ok"] is True
    from semigroupoid_kit import FormalElement

    elem = tmp_path / "elem.json"
    elem.write_text(
        dump_json(formal_to_json(FormalElement(fig1, {Path("t", ("tl1",)): 1.0})))
    )
    code, out, _ = run(
        capsys,
        ["trunc", "apply", fig1_file, str(elem), "--sources", "t", "--depth", "2"],
    )
    assert code == 0 and json.loads(out)["entries"]


def test_trunc_apply_lists_the_summed_entries_without_a_sparse_matrix(
    capsys, monkeypatch, tmp_path, rng, fig1, fig1_file, coloring_file
):
    from semigroupoid_kit import FormalElement, enumerate_paths, trunc

    paths = enumerate_paths(fig1, fig1.vertices, 2)
    terms = {p: complex(rng.randint(-2, 2), rng.randint(-2, 2)) for p in paths}
    terms[paths[0]] = 0.5 + 0.25j
    elem = tmp_path / "elem.json"
    elem.write_text(dump_json(formal_to_json(FormalElement(fig1, terms))))
    picks = [
        (["--sources", "t,l"], trunc.build_left_regular_trunc(fig1, ["t", "l"], 3)),
        (["--coloring", coloring_file], trunc.build_colored_trunc(fig1, Coloring(2, OBRIEN_FIG1), 3)),
    ]
    want = []
    for pick, rep in picks:
        mat = trunc.apply_formal(rep, FormalElement(fig1, terms))
        entries = trunc.matrix_to_coordinates(mat)
        assert len(entries) > 10
        want.append({"dim": rep.dim, "entries": entries})
        for fmt in ("json", "table"):
            want.append(run(capsys, ["trunc", "apply", fig1_file, str(elem), "--format", fmt,
                                     "--depth", "3"] + pick))

    def unused(*args, **kwargs):
        raise AssertionError("trunc apply builds no sparse matrix")

    monkeypatch.setattr(trunc, "_csr", unused)
    monkeypatch.setattr(trunc.sp, "csr_matrix", unused)
    for k, (pick, _) in enumerate(picks):
        data, as_json, as_table = want[3 * k: 3 * k + 3]
        assert as_json == (0, dump_json(data), "") and json.loads(as_json[1]) == data
        for fmt, before in (("json", as_json), ("table", as_table)):
            argv = ["trunc", "apply", fig1_file, str(elem), "--format", fmt, "--depth", "3"]
            assert run(capsys, argv + pick) == before


def test_domain_error_exits_one_with_json(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, ["graph", "check", missing])
    assert code == 1 and not out
    data = json.loads(err)
    assert data["error"]

    def write(name, data):
        path = tmp_path / name
        path.write_text(dump_json(data))
        return str(path)

    graph = write("g.json", looped_triangle().to_json_dict())
    mu = '{"base": "v1", "edges": ["e2", "e1"]}'
    fam = explicit_atomic_to_json(pure_cycle_family(cycle_graph(2), laps=1))
    cycle_family = write("cycle.json", fam)
    fam["phase"] = [{"edge": "e1", "from": "i0", "angle": {"num": "x", "den": 2}}]
    no_path = write("no_path.json", {"terms": [{"re": 1}]})
    bad_re = write("bad_re.json", {"terms": [{"path": {"base": "t"}, "re": "x"}]})
    bad_angle = write("bad_angle.json", fam)
    fam = explicit_atomic_to_json(pure_cycle_family(cycle_graph(2), laps=1))
    fam["lambda"]["v1"] = 3
    bad_lambda = write("bad_lambda.json", fam)
    bad_color = write("bad_color.json", {"d": 2, "color": 7})
    cases = [
        ["series", "cesaro", no_path, "-k", "2", "--graph", graph],
        ["series", "ideal-degree", bad_re, "--graph", graph],
        ["series", "mul", bad_re, bad_re, "--graph", graph],
        ["atomic", "classify", bad_angle],
        ["atomic", "condM", bad_angle, "--mu", mu],
        ["atomic", "classify", bad_lambda],
        ["atomic", "condM", bad_lambda, "--mu", mu],
        ["color", "syncdiag", graph, bad_color, "--gamma", "1", "--gamma2", "2"],
        ["color", "sync-find", graph, bad_color],
        ["atomic", "condM", cycle_family, "--mu", "{bad"],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 1 and not out, argv
        assert json.loads(err)["error"], argv


def test_tol_only_on_atomic_equiv_and_no_jobs(capsys, tmp_path, fig1_file):
    fam = tmp_path / "cycle.json"
    fam.write_text(dump_json(explicit_atomic_to_json(pure_cycle_family(cycle_graph(2)))))
    code, out, _ = run(capsys, ["atomic", "equiv", str(fam), str(fam), "--tol", "1e-6"])
    assert code == 0 and json.loads(out)["equivalent"] is True
    for argv in (
        ["graph", "ses", fig1_file, "--tol", "1e-6"],
        ["atomic", "classify", str(fam), "--tol", "1e-6"],
        ["color", "search", fig1_file, "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "nope"])
    assert exc.value.code == 2


def test_trunc_needs_sources_or_coloring(capsys, fig1_file):
    code, out, err = run(capsys, ["trunc", "verify", fig1_file])
    assert code == 1
    assert "sources" in json.loads(err)["message"]


def test_paths_enum_over_budget_exits_one_before_building(capsys, tmp_path):
    two_loops = tmp_path / "two_loops.json"
    two_loops.write_text(
        dump_json(
            {
                "vertices": ["v"],
                "edges": [{"id": "a", "src": "v", "dst": "v"}, {"id": "b", "src": "v", "dst": "v"}],
            }
        )
    )
    code, out, err = run(
        capsys, ["paths", "enum", str(two_loops), "--source", "v", "--max-len", "30"]
    )
    assert code == 1 and not out
    data = json.loads(err)
    assert data["error"] == "enumeration-overflow"
    assert data["details"]["budget"] == 200_000
    assert data["details"]["count"] == 2 ** (data["details"]["length"] + 1) - 1 > 200_000


def _graph_file(tmp_path, name, vertices, triples):
    path = tmp_path / name
    edges = [{"id": e, "src": s, "dst": d} for e, s, d in triples]
    path.write_text(dump_json({"vertices": vertices, "edges": edges}))
    return str(path)


def test_paths_cycles_over_budget_exits_one_before_building(capsys, tmp_path):
    # cycles at a: ab, then k loops at b in 2**k ways, then ba
    g = _graph_file(
        tmp_path, "ab.json", ["a", "b"],
        [("ab", "a", "b"), ("l1", "b", "b"), ("l2", "b", "b"), ("ba", "b", "a")],
    )
    code, out, err = run(capsys, ["paths", "cycles", g, "--vertex", "a", "--max-len", "21"])
    assert code == 1 and not out
    data = json.loads(err)
    assert data["error"] == "enumeration-overflow"
    assert data["details"]["budget"] == 200_000
    assert data["details"]["count"] == 2 ** (data["details"]["length"] - 1) - 1 > 200_000
    code, out, _ = run(capsys, ["paths", "cycles", g, "--vertex", "a", "--max-len", "12"])
    assert code == 0 and json.loads(out)["count"] == 2**11 - 1


def test_paths_cycles_on_a_long_ring(capsys, tmp_path):
    n = 1500
    names = [f"c{i}" for i in range(n)]
    g = _graph_file(
        tmp_path, "ring.json", names,
        [(f"e{i}", names[i], names[(i + 1) % n]) for i in range(n)],
    )
    code, out, err = run(capsys, ["paths", "cycles", g, "--vertex", "c0", "--max-len", "1600"])
    assert code == 0 and not err
    data = json.loads(out)
    assert data["count"] == 1
    assert data["cycles"][0]["edges"] == [f"e{i}" for i in reversed(range(n))]


def _overflow(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1 and not out
    data = json.loads(err)
    assert data["error"] == "enumeration-overflow"
    return data["details"]


def test_long_paths_exceed_the_symbol_budget_before_building(capsys, tmp_path):
    # path and cycle counts stay under BASIS_CAP; their total lengths do not
    loop = _graph_file(tmp_path, "loop.json", ["v"], [("loop", "v", "v")])
    assert _overflow(capsys, ["paths", "enum", loop, "--source", "v", "--max-len", "40000"]) == {
        "count": 40001, "symbols": 40000 * 40001 // 2, "budget": 10**7,
    }
    # past BASIS_CAP the count error comes first, as it did before the symbol budget
    assert _overflow(capsys, ["paths", "enum", loop, "--source", "v", "--max-len", "250000"]) == {
        "count": 200_001, "length": 200_000, "budget": 200_000,
    }
    detour = _graph_file(
        tmp_path, "detour.json", ["v", "a"],
        [("in", "v", "a"), ("spin", "a", "a"), ("back", "a", "v")],
    )
    argv = ["paths", "cycles", detour, "--vertex", "v", "--max-len", "40000"]
    assert _overflow(capsys, argv) == {
        "count": 39999, "symbols": 40000 * 40001 // 2 - 1, "budget": 10**7,
    }
    # the colored model's basis vectors are the paths into each vertex
    coloring = tmp_path / "one_color.json"
    coloring.write_text(dump_json(Coloring(1, {"loop": 1}).to_json_dict()))
    argv = ["trunc", "verify", loop, "--coloring", str(coloring), "--depth", "60000"]
    assert _overflow(capsys, argv) == _overflow(
        capsys, ["paths", "enum", loop, "--source", "v", "--max-len", "60000"]
    ) == {"count": 60001, "symbols": 60000 * 60001 // 2, "budget": 10**7}


def test_atomic_condm_on_a_long_ring(capsys, tmp_path):
    n = 1500
    ring = [f"e{i}" for i in reversed(range(n))]  # product order, based at c0
    graph = {
        "vertices": [f"c{i}" for i in range(n)],
        "edges": [{"id": f"e{i}", "src": f"c{i}", "dst": f"c{(i + 1) % n}"} for i in range(n)],
    }
    f = tmp_path / "ring_cycle.json"
    f.write_text(dump_json({"tag": "cycle", "path": {"base": "c0", "edges": ring}, "graph": graph}))
    mu = json.dumps({"base": "c0", "edges": ring})
    code, out, err = run(capsys, ["atomic", "condM", str(f), "--mu", mu])
    assert code == 0 and not err
    assert json.loads(out) == {
        "class": "Singular",
        "detail": "S_mu permutes the finitely many cycle vectors at the base",
    }


def test_trunc_colored_over_budget_exits_one_before_building(capsys, fig1_file, coloring_file):
    code, out, err = run(
        capsys, ["trunc", "verify", fig1_file, "--coloring", coloring_file, "--depth", "30"]
    )
    assert code == 1 and not out
    data = json.loads(err)
    assert data["error"] == "enumeration-overflow"
    assert data["message"] == "path enumeration exceeds the budget"
    # the running count passes the budget at level 16: 3 vertices, 2**17 - 1 words each
    want = {"count": 3 * (2**17 - 1), "length": 16, "budget": 200_000}
    assert data["details"] == want
    code, _, err = run(
        capsys, ["trunc", "verify", fig1_file, "--coloring", coloring_file, "--depth", "16"]
    )
    assert code == 1
    assert json.loads(err)["details"] == want


def test_trunc_with_a_coloring_that_is_not_strong_is_an_invalid_coloring(capsys, tmp_path, fig1_file):
    # the colored truncation validates the colouring as the color commands do
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json(Coloring(2, dict(OBRIEN_FIG1, rt=1)).to_json_dict()))
    _, _, want = run(capsys, ["color", "sync-verify", fig1_file, str(bad), "--word", "1"])
    assert json.loads(want)["error"] == "invalid-coloring"
    elem = tmp_path / "elem.json"
    elem.write_text(dump_json({"terms": []}))
    for argv in (["build", fig1_file], ["verify", fig1_file], ["apply", fig1_file, str(elem)]):
        code, out, err = run(capsys, ["trunc", *argv, "--coloring", str(bad), "--depth", "2"])
        assert code == 1 and not out and err == want, argv


def test_color_search_on_two_disjoint_aperiodic_graphs_answers_at_once(capsys, tmp_path, rng):
    # 2**23 candidate colourings pass the budget; two closed components
    # never merge, so no search is needed
    vertices, edges = [], []
    for part in "ab":
        names = [f"{part}{i}" for i in range(12)]
        vertices += names
        edges.append({"id": f"{part}loop", "src": names[0], "dst": names[0]})
        for i, v in enumerate(names):
            edges.append({"id": f"{part}r{i}", "src": names[i - 1], "dst": v})
            if i:
                edges.append({"id": f"{part}x{i}", "src": rng.choice(names), "dst": v})
    f = tmp_path / "two_parts.json"
    f.write_text(dump_json({"vertices": vertices, "edges": edges}))
    start = time.perf_counter()
    code, out, err = run(capsys, ["color", "search", str(f)])
    assert time.perf_counter() - start < 3
    assert code == 0 and not err
    assert json.loads(out) == {"result": None}


# ---------------------------------------------------------------------------
# one parser per process


def _fresh_dispatch(capsys, argv):
    """(exit code, stdout) of ``argv`` run through a newly built parser, whose
    namespace must equal the one ``main``'s cached parser gives."""
    from semigroupoid_kit import cli

    args = cli.build_parser().parse_args(argv)
    assert args == cli._parser().parse_args(argv)
    code = cli._run(args)
    return code, capsys.readouterr().out


def _cycle_family_with_phase(tmp_path, name, angle):
    import math

    fam = explicit_atomic_to_json(pure_cycle_family(cycle_graph(1)))
    fam["phase"] = [{"edge": "e1", "from": "i0", "re": math.cos(angle), "im": math.sin(angle)}]
    path = tmp_path / name
    path.write_text(dump_json(fam))
    return str(path)


def test_repeated_main_calls_leak_no_options(capsys, tmp_path, fig1_file, coloring_file):
    near = _cycle_family_with_phase(tmp_path, "near.json", 0.0)
    far = _cycle_family_with_phase(tmp_path, "far.json", 1e-7)
    sequence = [
        ["graph", "ses", fig1_file, "--format", "table"],
        ["graph", "ses", fig1_file],
        ["paths", "enum", fig1_file, "--source", "t", "--max-len", "1"],
        ["paths", "enum", fig1_file, "--source", "t"],
        ["trunc", "build", fig1_file, "--sources", "t", "--depth", "2"],
        ["trunc", "build", fig1_file, "--sources", "t"],
        ["trunc", "verify", fig1_file, "--sources", "t", "--depth", "2"],
        ["trunc", "verify", fig1_file, "--coloring", coloring_file, "--depth", "2"],
        ["trunc", "verify", fig1_file, "--sources", "l", "--depth", "2", "--format", "table"],
        ["atomic", "equiv", near, far, "--tol", "1e-6"],
        ["atomic", "equiv", near, far],
        ["trunc", "cycle-lemma", "-n", "2", "--depth", "2"],
        ["trunc", "cycle-lemma", "-n", "2"],
    ]
    outputs = []
    for argv in sequence:
        code, out, err = run(capsys, argv)
        assert code == 0 and not err, argv
        assert (code, out) == _fresh_dispatch(capsys, argv), argv
        outputs.append(out)
    # the options really changed the answers, so a leaked value would show
    assert not outputs[0].startswith("{") and outputs[1].startswith("{")
    assert outputs[2] != outputs[3] and outputs[4] != outputs[5]
    assert json.loads(outputs[4])["depth"] == 2 and json.loads(outputs[5])["depth"] == 4
    assert outputs[6] != outputs[7]
    assert json.loads(outputs[9])["equivalent"] is True
    assert json.loads(outputs[10])["equivalent"] is False
    assert json.loads(outputs[11])["depth"] == 2 and json.loads(outputs[12])["depth"] == 4
    # a --coloring given on one call does not satisfy the next
    assert run(capsys, sequence[7])[0] == 0
    code, out, err = run(capsys, ["trunc", "verify", fig1_file, "--depth", "2"])
    assert code == 1 and not out and "sources" in json.loads(err)["message"]


def test_package_runs_as_a_module_like_the_cli_module(fig1_file):
    import os
    import subprocess
    import sys

    from semigroupoid_kit import cli

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    cases = [(["graph", "ses", fig1_file], 0), (["graph", "ses", fig1_file + ".missing"], 1)]
    for argv, code in cases:
        done = [
            subprocess.run(
                [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
            )
            for module in ("semigroupoid_kit", "semigroupoid_kit.cli")
        ]
        got, want = ((d.returncode, d.stdout, d.stderr) for d in done)
        assert got == want and want[0] == code


def test_only_the_trunc_commands_import_numpy_and_scipy(capsys, fig1_file, coloring_file):
    """A process that runs ``graph check`` has imported neither numpy nor
    scipy, and ``trunc verify`` then still gives this process's output."""
    import os
    import subprocess
    import sys

    import semigroupoid_kit
    from semigroupoid_kit import cli, trunc

    probe = (
        "import sys\n"
        "from semigroupoid_kit.cli import main\n"
        "def heavy():\n"
        "    return sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "assert main(['graph', 'check', sys.argv[1]]) == 0\n"
        "print(heavy(), file=sys.stderr)\n"
        "assert main(['trunc', 'verify', sys.argv[1], '--coloring', sys.argv[2], '--depth', '3']) == 0\n"
        "print(heavy(), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", probe, fig1_file, coloring_file],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stderr.splitlines() == ["[]", "['numpy', 'scipy']"]
    want = [
        run(capsys, ["graph", "check", fig1_file])[1],
        run(capsys, ["trunc", "verify", fig1_file, "--coloring", coloring_file, "--depth", "3"])[1],
    ]
    assert done.stdout == "".join(want)
    # the package still hands out the trunc module and its names
    assert semigroupoid_kit.trunc is trunc and semigroupoid_kit.verify_tck is trunc.verify_tck
    assert {"trunc", "verify_tck", "Graph"} <= set(semigroupoid_kit.__all__)
    with pytest.raises(AttributeError, match="nosuch"):
        semigroupoid_kit.nosuch


def test_greedy_sync_find_names_the_least_vertex_under_any_hash_seed(tmp_path):
    """Past 20 vertices the word is built by pair merging; when colour 3 is
    missing at some vertex of the set being stepped, the error names the
    least such vertex, whatever the hash order of the process."""
    import os
    import subprocess
    import sys

    from semigroupoid_kit import cli

    n = 24
    names = [f"v{i}" for i in range(n)]
    edges, color = [], {}
    for i in range(n):
        edges.append({"id": f"r{i}", "src": names[i - 1], "dst": names[i]})
        edges.append({"id": f"s{i}", "src": names[(3 * i + 1) % n], "dst": names[i]})
        color.update({f"r{i}": 1, f"s{i}": 2})
    for i in (0, 1, 5, 9, 13, 17):  # v0 and v1 merge at once under colour 3
        edges.append({"id": f"x{i}", "src": "v7", "dst": names[i]})
        color[f"x{i}"] = 3
    g, c = tmp_path / "g.json", tmp_path / "c.json"
    g.write_text(dump_json({"vertices": names, "edges": edges}))
    c.write_text(dump_json({"d": 3, "color": color}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = [
        subprocess.run(
            [sys.executable, "-m", "semigroupoid_kit", "color", "sync-find", str(g), str(c)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        )
        for seed in ("1", "2")
    ]
    assert [d.returncode for d in done] == [1, 1]
    assert done[0].stderr == done[1].stderr
    assert json.loads(done[0].stderr)["details"] == {"vertex": "v10", "color": 3}


def test_main_builds_the_parser_once_on_first_use(capsys, monkeypatch, fig1_file):
    import argparse
    import os
    import subprocess
    import sys

    from semigroupoid_kit import cli

    probe = "import semigroupoid_kit.cli as c; print(c._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "0"  # importing builds nothing

    # one build of the parser makes 34 ArgumentParser objects: the root,
    # 6 groups and 27 subcommands
    made = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    argvs = [
        ["graph", "period", fig1_file, "--vertex", "t"],
        ["graph", "closure", fig1_file, "--set", "l", "--format", "table"],
        ["paths", "class", fig1_file, "--vertex", "r"],
        ["trunc", "cycle-lemma", "-n", "2", "--depth", "2"],
        ["graph", "check", str(fig1_file) + ".missing"],
    ]
    codes = [run(capsys, argvs[k % len(argvs)])[0] for k in range(50)]
    assert codes.count(1) == 10 and codes.count(0) == 40
    assert len(made) == 34 and made.count("semigroupoid-kit") == 1


def _every_command(parser):
    """argv prefixes of the root, each group and each subcommand."""
    import argparse

    def children(p):
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        return {}

    out = [[]]
    for group, gp in children(parser).items():
        out.append([group])
        out += [[group, name] for name in children(gp)]
    return out


def test_help_and_usage_errors_match_a_fresh_parser(capsys):
    from semigroupoid_kit import cli

    def outcome(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    def fresh(argv):
        return cli.build_parser().parse_args(argv)

    prefixes = _every_command(cli.build_parser())
    assert len(prefixes) == 1 + 6 + 27
    for argv in prefixes * 2:
        got = outcome(main, argv + ["--help"])
        assert got == outcome(fresh, argv + ["--help"]), argv
        assert got[0] == 0 and got[1].startswith("usage: semigroupoid-kit") and not got[2]
    for argv in (
        [],
        ["graph", "nope"],
        ["trunc", "build"],
        ["paths", "enum", "g.json", "--source", "t", "--max-len", "x"],
        ["atomic", "classify", "f.json", "--format", "dot"],
    ):
        got = outcome(main, argv)
        assert got == outcome(fresh, argv), argv
        assert got[0] == 2 and not got[1] and got[2].startswith("usage: semigroupoid-kit"), argv


def test_atomic_equiv_ignores_the_listing_order_of_the_graph(capsys, tmp_path, rng):
    import corpus

    for k in range(6):
        g = corpus.random_graph(rng, max_v=5, max_e=6, acyclic=True)
        fam, _ = corpus.random_root_family(rng, g)
        if k % 2:
            _, fam, _, _ = corpus.random_cycle_family(rng)
        data = explicit_atomic_to_json(fam)
        left = tmp_path / "left.json"
        left.write_text(dump_json(data))
        data["graph"]["vertices"].reverse()
        data["graph"]["edges"].reverse()
        right = tmp_path / "right.json"
        right.write_text(dump_json(data))
        code, out, err = run(capsys, ["atomic", "equiv", str(left), str(right)])
        assert code == 0 and not err
        assert json.loads(out)["equivalent"] is True
    # a graph that really differs is still refused
    data["graph"]["vertices"].append("extra")
    other = tmp_path / "other.json"
    other.write_text(dump_json(data))
    code, out, err = run(capsys, ["atomic", "equiv", str(left), str(other)])
    assert code == 1 and not out
    assert json.loads(err)["message"] == "families live over different host graphs"


def test_trunc_output_matches_the_label_assembly(capsys, monkeypatch, tmp_path, fig1):
    import oracles
    from semigroupoid_kit import FormalElement, Graph, enumerate_paths, trunc

    d3 = Graph.build(
        ["a", "b"],
        [("x1", "a", "a"), ("x2", "b", "a"), ("x3", "b", "a"),
         ("y1", "a", "b"), ("y2", "a", "b"), ("y3", "b", "b")],
    )
    d3_coloring = Coloring(3, {"x1": 2, "x2": 3, "x3": 1, "y1": 1, "y2": 3, "y3": 2})
    files = []
    for name, g, coloring, sources in (
        ("fig1", fig1, None, "t,l"),
        ("triangle", fig1, Coloring(2, OBRIEN_FIG1), None),
        ("d3", d3, d3_coloring, "b"),
    ):
        graph = tmp_path / f"{name}.json"
        graph.write_text(dump_json(g.to_json_dict()))
        elem = tmp_path / f"{name}-elem.json"
        paths = enumerate_paths(g, g.vertices, 2)
        terms = {p: complex(1 + i, i % 3 - 1) for i, p in enumerate(paths)}
        elem.write_text(dump_json(formal_to_json(FormalElement(g, terms))))
        picks = []
        if sources:
            picks.append(["--sources", sources])
        if coloring:
            color = tmp_path / f"{name}-coloring.json"
            color.write_text(dump_json(coloring.to_json_dict()))
            picks.append(["--coloring", str(color)])
        files.append((str(graph), str(elem), picks))
    argvs = []
    for graph, elem, picks in files:
        for pick in picks:
            for fmt in ("json", "table"):
                for depth in ("0", "2", "4"):
                    tail = pick + ["--depth", depth, "--format", fmt]
                    argvs += [
                        ["trunc", "build", graph] + tail,
                        ["trunc", "verify", graph] + tail,
                        ["trunc", "apply", graph, elem] + tail,
                    ]
    argvs.append(["trunc", "verify", files[0][0], "--sources", "t,zz", "--depth", "2"])
    argvs.append(["trunc", "verify", files[1][0], "--coloring", files[1][2][0][1], "--depth", "30"])
    got = [run(capsys, argv) for argv in argvs]
    built = []
    for name in ("build_left_regular_trunc", "build_colored_trunc"):
        assemble = getattr(oracles, name)
        monkeypatch.setattr(trunc, name, lambda *a, f=assemble: built.append(1) or f(*a))
    want = [run(capsys, argv) for argv in argvs]
    assert len(built) == len(argvs) and [code for code, _, _ in got].count(1) == 2
    for argv, a, b in zip(argvs, got, want):
        assert a == b, argv


def test_comma_lists_keep_every_name_in_both_formats(capsys, tmp_path):
    # the vertex "" is named by an empty list item; on a graph without it a
    # trailing or doubled comma is an unknown vertex, not a dropped one
    empty = _graph_file(tmp_path, "empty.json", ["", "a"], [("x", "", "a"), ("y", "a", "")])
    loop = _graph_file(tmp_path, "loop.json", ["t"], [("x", "t", "t")])
    named = [
        (["paths", "enum", empty, "--source", "", "--max-len", "1"], "count", 2, "count: 2"),
        (["graph", "closure", empty, "--set", ""], "closure", ["", "a"], ", a"),
        (["trunc", "build", empty, "--sources", "", "--depth", "1"], "dim", 2, "basis[1] = :x"),
    ]
    for argv, key, want, line in named:
        code, out, err = run(capsys, argv)
        assert code == 0 and not err and json.loads(out)[key] == want, argv
        code, out, err = run(capsys, argv + ["--format", "table"])
        assert code == 0 and not err and line in out.splitlines(), argv
    for argv in (
        ["paths", "enum", loop, "--source", "t,,t", "--max-len", "1"],
        ["graph", "closure", loop, "--set", "t,"],
        ["trunc", "build", loop, "--sources", ",t", "--depth", "1"],
    ):
        for fmt in ("json", "table"):
            code, out, err = run(capsys, argv + ["--format", fmt])
            assert code == 1 and not out, argv
            assert json.loads(err)["message"] == "unknown vertex", argv
            assert json.loads(err)["details"] == {"vertex": ""}, argv


def test_graph_check_table_reports_varying_in_degrees_and_sources(capsys, tmp_path):
    dag = _graph_file(
        tmp_path, "dag.json", ["a", "b", "c"], [("x", "a", "b"), ("y", "a", "c"), ("z", "b", "c")]
    )
    code, out, err = run(capsys, ["graph", "check", dag, "--format", "table"])
    assert code == 0 and not err
    assert out.splitlines()[:2] == [
        "info  in-degree-varies: in-degrees {'a': 0, 'b': 1, 'c': 2}",
        "info  sources: in-degree-0 vertices: ['a']",
    ]


def test_series_fourier_table_of_an_empty_grade_prints_zero(capsys, tmp_path, fig1_file):
    f = tmp_path / "one.json"
    f.write_text(dump_json({"terms": [{"path": {"base": "t", "edges": []}, "re": 1.0}]}))
    argv = ["series", "fourier", str(f), "-m", "1", "--graph", fig1_file, "--format", "table"]
    code, out, err = run(capsys, argv)
    assert code == 0 and not err and out == "0\n"


def test_malformed_inputs_exit_one_with_their_message(capsys, tmp_path, fig1_file):
    def write(data):
        path = tmp_path / f"input{len(list(tmp_path.iterdir()))}.json"
        path.write_text(dump_json(data))
        return str(path)

    def family(key, *extra):
        loop = {"graph": {"vertices": ["v1"], "edges": [{"id": "e1", "src": "v1", "dst": "v1"}]}}
        rows = {"pi": [{"edge": "e1", "from": "0", "to": "0"}], "phase": []}
        rows[key] += extra
        return write({**loop, "lambda": {"v1": ["0", "1"]}, **rows})

    def graph(vertices, triples):
        edges = [{"id": e, "src": s, "dst": d} for e, s, d in triples]
        return write({"vertices": vertices, "edges": edges})

    one = {"vertices": ["v"], "edges": []}
    nested = {"term": {"tag": "direct_sum", "parts": []}, "multiplicity": 1}
    ten_loops = graph(["v"], [(f"e{k}", "v", "v") for k in range(10)])
    two_loops = graph(["a", "b"], [("la", "a", "a"), ("lb", "b", "b")])
    uneven = graph(["a", "b"], [("la", "a", "a"), ("x1", "a", "b"), ("x2", "a", "b")])
    no_base = write({"terms": [{"path": {}, "re": 1}]})
    cases = [
        (["atomic", "classify", write({"tag": "left_regular", "vertex": "v"})],
         "canonical atomic JSON needs a host graph"),
        (["atomic", "validate", family("pi", {"edge": "e1", "from": "0", "to": "1"})],
         "duplicate pi row"),
        (["atomic", "validate", family(
            "phase", *({"edge": "e1", "from": "0", "angle": {"num": 1, "den": d}} for d in (4, 2))
        )], "duplicate phase row"),
        (["atomic", "validate", family("pi", {"edge": "e1", "from": "1"})],
         "pi row needs 'edge', 'from', 'to': 'to'"),
        (["atomic", "validate", family("phase", {"from": "0", "re": 1})],
         "phase row needs 'edge' and 'from': 'edge'"),
        (["atomic", "validate", family("phase", {"edge": "e1", "from": "0"})],
         "phase object needs 'angle' or 're'/'im'"),
        (["series", "fourier", no_base, "-m", "0", "--graph", fig1_file],
         "path object without edges needs a base vertex"),
        (["atomic", "classify", write({"tag": "direct_sum", "graph": one, "parts": [nested]})],
         "direct sums do not nest; flatten the parts"),
        (["color", "search", ten_loops], "color words use digits 1..9"),
        (["color", "obrien", two_loops, "--loop", "la"], "construction needs a transitive graph"),
        (["color", "obrien", uneven, "--loop", "la"],
         "construction needs an in-degree regular graph"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, argv)
        assert code == 1 and not out, argv
        assert json.loads(err)["message"] == message, (argv, err)


def test_each_answer_is_made_once_in_the_form_asked_for(
    capsys, monkeypatch, tmp_path, fig1, fig1_file, coloring_file
):
    """A JSON request makes each listed item once (a path through
    ``serialize.path_to_json``, a basis label through ``cli._label_str``),
    and a table request makes no JSON item and each label once."""
    from semigroupoid_kit import FormalElement, cli, enumerate_paths, serialize

    elem = tmp_path / "elem.json"
    terms = {p: 1.0 + i for i, p in enumerate(enumerate_paths(fig1, ["t", "l"], 2))}
    elem.write_text(dump_json(formal_to_json(FormalElement(fig1, terms))))
    made = {}

    def counted(item, fn):
        def call(*args):
            made[item] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(serialize, "path_to_json", counted("path", serialize.path_to_json))
    monkeypatch.setattr(cli, "_label_str", counted("label", cli._label_str))
    cases = [
        (["paths", "enum", fig1_file, "--source", "t", "--max-len", "3"], "paths", "path"),
        (["paths", "cycles", fig1_file, "--vertex", "t", "--max-len", "4"], "cycles", "path"),
        (["series", "mul", str(elem), str(elem), "--graph", fig1_file], "terms", "path"),
        (["trunc", "build", fig1_file, "--sources", "t", "--depth", "3"], "basis", "label"),
        (["trunc", "build", fig1_file, "--coloring", coloring_file, "--depth", "3"], "basis", "label"),
    ]
    for argv, key, item in cases:
        made.update(path=0, label=0)
        code, out, err = run(capsys, argv)
        assert code == 0 and not err
        n = len(json.loads(out)[key])
        assert n > 1 and made == {"path": 0, "label": 0, item: n}, argv
        made.update(path=0, label=0)
        code, out, err = run(capsys, argv + ["--format", "table"])
        assert code == 0 and not err and out.count("\n") > n // 2
        assert made == {"path": 0, "label": n if item == "label" else 0}, argv


def test_an_approximate_phase_classifies_back_to_itself(capsys, tmp_path):
    """A cycle atom of one lap keeps its phase: ``{"re": 0, "im": 1}`` reads
    back as exactly 1j, not as a value rebuilt from its angle."""
    graph = {"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": "a"}]}
    family = {"graph": graph, "lambda": {"a": ["a"]},
              "pi": [{"edge": "e", "from": "a", "to": "a"}],
              "phase": [{"edge": "e", "from": "a", "re": 0, "im": 1}]}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    code, out, _ = run(capsys, ["atomic", "classify", str(path)])
    assert code == 0
    (atom,) = json.loads(out)["atoms"]
    assert atom["phase"] == {"re": 0.0, "im": 1.0}
