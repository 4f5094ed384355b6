"""Time two checkouts on one benchmark workload, in alternating pairs.

    python3 tests/ab.py PARENT CHANGE --workload W [--seed S] [--pairs N]

Each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once in
each tree: the parent first in even pairs, the change first in odd ones.
Every run gets ``PYTHONPYCACHEPREFIX`` set to its own fresh temporary
directory, so neither tree's bytecode cache, nor one an earlier run wrote,
moves ``setup_s``, and no bytecode is written into either tree.

For each metric the script prints both sides' medians and quartiles and how
many pairs each side won, ties counting for neither; the direction of
"better" is the one the change tree's ``BENCHMARK.json`` gives the metric,
else lower.  The last column reads ``gain`` where the change won at least
nine tenths of the pairs and the medians differ, in its favour, by more than
the distance between the parent's quartiles: the rule a claimed gain must
meet.  The operations that failed are compared as ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def run_once(tree: str, workload: str, seed: int) -> dict[str, float]:
    """One untraced benchmark run of ``tree``: its metrics by name."""
    argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed in {tree}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed"] = result["failed"]
    return values


def directions(tree: str) -> dict[str, str]:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[str]:
    head = f"{'metric':24s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
    lines = [f"{head}  wins p/c  verdict"]
    for name in parent[0]:
        sign = -1 if better.get(name, "lower") == "higher" else 1
        a, b = [run[name] for run in parent], [run[name] for run in change]
        change_wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        parent_wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        qa, qb = (statistics.quantiles(v, n=4, method="inclusive") for v in (a, b))
        gain = change_wins >= 0.9 * len(a) and sign * (qa[1] - qb[1]) > qa[2] - qa[0]
        cols = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (qa, qb)]
        lines.append(f"{name:24s} {cols[0]:>32s} {cols[1]:>32s}  {parent_wins:4d}/"
                     f"{change_wins:<4d} {'gain' if gain else '-'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs needs at least 2 pairs for quartiles")
    trees, runs = (args.parent, args.change), ([], [])
    for k in range(args.pairs):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            runs[side].append(run_once(trees[side], args.workload, args.seed))
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs: {args.parent} -> {args.change}")
    print("\n".join(summary(*runs, directions(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
