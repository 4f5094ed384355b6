"""The process-level scale suite: large inputs, each run as a command-line process.

    python3 tests/scale.py [--cli COMMAND] [--only NAME [NAME ...]] ...

Each row names a command, the seeded inputs it reads (generated by
``corpus`` in a forked process, so the suite's own resident size never
enters a child's peak), the exit code it must give, a check of its answer,
a bound on the child's peak resident set and a timeout.  The rows run one at a
time in one temporary directory, in table order, so a row may read what
an earlier row's check left there.  For each row one JSON line is
printed: the row, its exit code, seconds, the child's peak MB
(``ru_maxrss``), its stdout bytes, and whether it passed.  The suite
exits 1 when any row fails.

The command defaults to ``python -m semigroupoid_kit`` under this
interpreter, so ``PYTHONPATH=src python3 tests/scale.py`` runs a checkout;
``--cli semigroupoid-kit`` runs the installed console script.  ``--only``
names rows to run; repeated, its names add up, and a name that is not a
row is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import corpus


@dataclass(frozen=True)
class Row:
    name: str
    args: Callable[[str], list[str]]  # the subcommand and its arguments, given the directory
    inputs: dict[str, Callable[[], object]]  # file name -> JSON data, written before the run
    code: int
    check: Callable[[str, str, str], str | None]  # (directory, stdout, stderr) -> fault or None
    mb: float
    timeout: float = 60.0


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _json_error(work: str, out: str, err: str) -> str | None:
    return None if isinstance(json.loads(_read(err)), dict) else "stderr is not a JSON object"


def _passes(work: str, out: str, err: str) -> str | None:
    return None


def _one_atom(work: str, out: str, err: str) -> str | None:
    atoms = json.loads(_read(out))["atoms"]
    want = [{"kind": "left_regular", "multiplicity": 2, "vertex": "v0"}]
    return None if atoms == want else f"atoms {atoms}"


def _two_cycle_atoms(work: str, out: str, err: str) -> str | None:
    atoms = json.loads(_read(out))["atoms"]
    got = [(a["kind"], a["multiplicity"], len(a["cycle"]["edges"]), a["phase"]) for a in atoms]
    halves = ((0, 1), (1, 2))  # phases 0 and 1/2 turns
    want = [("cycle", 1, 50_000, {"angle": {"den": den, "num": num}}) for num, den in halves]
    return None if got == want else f"atoms {got}"


def _equivalent(work: str, out: str, err: str) -> str | None:
    verdict = json.loads(_read(out))
    return None if verdict["equivalent"] is True else str(verdict)


def _chain_one_bad_arc() -> dict:
    """``chain_family_json`` with its last arc, e99998 on b, sent off the labels."""
    data = corpus.chain_family_json()
    data["pi"][-1]["to"] = "nowhere"
    return data


def _one_bad_to(work: str, out: str, err: str) -> str | None:
    report = json.loads(_read(out))
    errors = [(f["code"], f["where"]) for f in report["findings"] if f["severity"] == "error"]
    if report["valid"] is False and errors == [("bad-to", "e99998")]:
        return None
    return f"valid {report['valid']}, errors {errors[:5]}"


def _keep_coloring(work: str, out: str, err: str) -> str | None:
    """Save the colouring and its word for the sync-verify row."""
    answer = json.loads(_read(out))
    with open(os.path.join(work, "tree-coloring.json"), "w", encoding="utf-8") as fh:
        json.dump(answer["coloring"], fh)
    with open(os.path.join(work, "word.txt"), "w", encoding="utf-8") as fh:
        fh.write(answer["word"])
    return None


def _synchronizes(work: str, out: str, err: str) -> str | None:
    verdict = json.loads(_read(out))
    return None if verdict["synchronizing"] is True and verdict["target"] == "v0" else str(verdict)


def _every_path(work: str, out: str, err: str) -> str | None:
    last = _read(out).rsplit("\n", 2)[-2]
    return None if last == "count: 131071" else f"last line {last!r}"


def _dim(work: str, out: str, err: str) -> str | None:
    with open(out, encoding="utf-8") as fh:
        found = any('"dim": 196605' in line for line in fh)
    return None if found else "no \"dim\": 196605 in the answer"


def _exact_with_is_boundary_one(work: str, out: str, err: str) -> str | None:
    relations = json.loads(_read(out))["relations"]
    boundary = {r["relation"]: r["boundary_residual"] for r in relations}
    if all(r["exact_zero"] for r in relations) and boundary["IS"] == 1.0:
        return None
    return f"relations {relations}"


def _regular_and_connected(work: str, out: str, err: str) -> str | None:
    found = {f["code"]: f["message"] for f in json.loads(_read(out))["findings"]}
    if "in-degree-regular" in found and found.get("components") == "1 undirected component(s)":
        return None
    return f"findings {found}"


def _word(work: str) -> str:
    return _read(os.path.join(work, "word.txt"))


ROWS = [
    # a basis over budget exits 1 with JSON before the n-cycle is built
    Row("cycle-lemma over budget",
        lambda w: ["trunc", "cycle-lemma", "-n", "1000000000", "--depth", "1000000000"],
        {}, 1, _json_error, 150),
    # a product over the symbol budget exits 1 with JSON before any path is
    # built: both factors are every path of length <= 9 on two loops
    Row("series mul L=9 over budget",
        lambda w: ["series", "mul", "--graph", f"{w}/loops.json", f"{w}/loops9.json",
                   f"{w}/loops9.json"],
        {"loops.json": corpus.two_loops_json, "loops9.json": lambda: corpus.loop_words_json(9)},
        1, _json_error, 150),
    # its within-budget twin, 261,121 pairs and 3,664,892 edges, streamed
    Row("series mul L=8",
        lambda w: ["series", "mul", "--graph", f"{w}/loops.json", f"{w}/loops8.json",
                   f"{w}/loops8.json"],
        {"loops.json": corpus.two_loops_json, "loops8.json": lambda: corpus.loop_words_json(8)},
        0, _passes, 130),
    # every path of length <= 16 on the loops: 131,071 paths, streamed
    Row("paths enum --max-len 16",
        lambda w: ["paths", "enum", f"{w}/loops.json", "--source", "v", "--max-len", "16"],
        {"loops.json": corpus.two_loops_json}, 0, _passes, 85),
    # the same paths as 4.7 MB of table lines, made and written in batches
    Row("paths enum --max-len 16 --format table",
        lambda w: ["paths", "enum", f"{w}/loops.json", "--source", "v", "--max-len", "16",
                   "--format", "table"],
        {"loops.json": corpus.two_loops_json}, 0, _every_path, 85),
    # a 100,000-vertex chain with two labels per vertex: one atom at v0
    Row("atomic classify 1e5 chain",
        lambda w: ["atomic", "classify", f"{w}/chain.json"],
        {"chain.json": corpus.chain_family_json}, 0, _one_atom, 400),
    # the same chain with an exact phase on every arc: the phases are shared
    # values, so the 199,998 of them cost little over the plain chain
    Row("atomic classify 1e5 phased chain",
        lambda w: ["atomic", "classify", f"{w}/phased-chain.json"],
        {"phased-chain.json": corpus.phased_chain_family_json}, 0, _one_atom, 340),
    # a 50,000-cycle with two labels per vertex: H is one cycle of 100,000
    # arcs, built once, over the elimination core, which here is every vertex
    Row("atomic classify 1e5 cycle",
        lambda w: ["atomic", "classify", f"{w}/cycle.json"],
        {"cycle.json": corpus.cycle_family_json}, 0, _two_cycle_atoms, 152),
    # 100,000 edgeless vertices with one label each, against a twin whose
    # labels have other names: 100,000 left-regular atoms a side, one walk
    Row("atomic equiv 1e5 roots",
        lambda w: ["atomic", "equiv", f"{w}/roots-a.json", f"{w}/roots-b.json"],
        {"roots-a.json": corpus.isolated_family_json,
         "roots-b.json": lambda: corpus.isolated_family_json(label="b")},
        0, _equivalent, 145),
    # the chain with one arc off the labels: the one scan names the one fault
    Row("atomic validate 1e5 chain, one bad arc",
        lambda w: ["atomic", "validate", f"{w}/bad-chain.json"],
        {"bad-chain.json": _chain_one_bad_arc}, 0, _one_bad_to, 225),
    # O'Brien on a 100,000-vertex looped graph; its word synchronizes to v0
    Row("color obrien 1e5",
        lambda w: ["color", "obrien", f"{w}/looped.json", "--loop", "e0"],
        {"looped.json": corpus.looped_graph_json}, 0, _keep_coloring, 400),
    Row("color sync-verify 1e5",
        lambda w: ["color", "sync-verify", f"{w}/looped.json", f"{w}/tree-coloring.json",
                   "--word", _word(w)],
        {}, 0, _synchronizes, 400),
    # the colored model of the looped triangle at depth 15 (dim 196,605);
    # each label and each operator's quadruples are made as they are written
    Row("trunc build depth 15",
        lambda w: ["trunc", "build", f"{w}/triangle.json", "--coloring",
                   f"{w}/triangle-coloring.json", "--depth", "15"],
        {"triangle.json": lambda: corpus.looped_triangle().to_json_dict(),
         "triangle-coloring.json": corpus.triangle_coloring_json},
        0, _dim, 150),
    # one vertex with 3,000 loops at depth 1 (dim 3,001): (IS) reads each
    # projection entry once, not once for every loop out of its vertex
    Row("trunc verify 3000 loops",
        lambda w: ["trunc", "verify", f"{w}/loops3000.json", "--sources", "v", "--depth", "1"],
        {"loops3000.json": corpus.many_loops_json}, 0, _exact_with_is_boundary_one, 100),
    # building the 100,000-vertex looped graph and reading its structure
    Row("graph check 1e5",
        lambda w: ["graph", "check", f"{w}/looped.json"],
        {"looped.json": corpus.looped_graph_json}, 0, _regular_and_connected, 400),
]


def _write(path: str, make: Callable[[], object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(make(), fh)


def run(row: Row, cli: list[str], work: str) -> dict:
    for name, make in row.inputs.items():
        path = os.path.join(work, name)
        if not os.path.exists(path):
            # written by a forked child: a child's ru_maxrss starts at the
            # resident size of the process that starts it, so this one stays small
            writer = multiprocessing.get_context("fork").Process(target=_write, args=(path, make))
            writer.start()
            writer.join()
            if writer.exitcode:
                return {"row": row.name, "ok": False, "fault": f"input {name} not written"}
    out, err = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    try:
        command = cli + row.args(work)
    except OSError as exc:  # a row that reads an earlier row's answer, run alone
        return {"row": row.name, "ok": False, "fault": f"needs an earlier row: {exc}"}
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=fo, stderr=fe)
        while True:  # wait4 gives this child's own peak, which the timeout bounds
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > row.timeout:
                child.send_signal(signal.SIGKILL)
            time.sleep(0.01)
        seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    child.returncode = code  # already reaped
    peak = usage.ru_maxrss / 1024  # KiB on Linux
    fault = None
    if code != row.code:
        fault = f"exit {code}, not {row.code}: {_read(err)[:300]}"
    elif peak >= row.mb:
        fault = f"peak {peak:.0f} MB, not below {row.mb:.0f} MB"
    else:
        try:
            fault = row.check(work, out, err)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            fault = f"answer unreadable: {type(exc).__name__}: {exc}"
    return {
        "row": row.name, "exit": code, "seconds": round(seconds, 3), "peak_mb": round(peak, 1),
        "stdout_bytes": os.path.getsize(out), "ok": fault is None, "fault": fault,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cli", default=f"{shlex.quote(sys.executable)} -m semigroupoid_kit",
                        help="the command line to run (default: this Python's -m semigroupoid_kit)")
    parser.add_argument("--only", nargs="+", action="extend", choices=[row.name for row in ROWS],
                        metavar="NAME", help="run only these rows; repeat to add more")
    args = parser.parse_args(argv)
    rows = [row for row in ROWS if not args.only or row.name in args.only]
    work = tempfile.mkdtemp(prefix="semigroupoid-kit-scale-")
    failed = 0
    try:
        for row in rows:
            result = run(row, shlex.split(args.cli), work)
            failed += not result["ok"]
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
