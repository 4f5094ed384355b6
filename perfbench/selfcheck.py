"""Self-check of the benchmark: a tiny run of every workload.

For each workload it asserts that an untraced run emits exactly the
end-to-end metrics of ``spec.END_TO_END`` and a traced run exactly the
per-layer metrics of ``spec.PER_LAYER``, each with its unit and a finite
value; that no answer contradicts its oracle; and that an injected wrong
answer (the first query returns the second query's answer) is counted as
failed and marks the run incorrect.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import math
import sys

from run import import_library, measure
from spec import END_TO_END, PER_LAYER, WORKLOADS

TINY = {"structure": 6, "sync": 8, "algebra": 6, "cli": 30}
SEED = 7


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {message}")


def check_metrics(name: str, result: dict, spec: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{name}: metrics {sorted(set(got) ^ set(want))} missing or extra")
    for k, v in result["metrics"].items():
        value = v["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{name}: {k}")
    expect(result["attempted"] >= 1 and result["correct"], f"{name}: {result}")


def main() -> int:
    import_library()
    for w in WORKLOADS:
        name = w["name"]
        size = TINY[name]
        clean, _ = measure(name, SEED, 0.0, False, workers=1, size=size, setups=1)
        check_metrics(name, clean, END_TO_END)
        traced, _ = measure(name, SEED, 0.0, True, size=size)
        check_metrics(name, traced, PER_LAYER)
        bad, _ = measure(name, SEED, 0.0, False, workers=1, size=size, inject=True, setups=1)
        expect(not bad["correct"] and bad["failed"] > clean["failed"], f"{name}: {bad}")
        print(f"selfcheck {name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
