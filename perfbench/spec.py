"""What the benchmark measures: workloads, metric names, units, bounds.

This module is the single source for ``BENCHMARK.json`` (written by
``python3 perfbench/run.py --report``) and for the self-check, which asserts
that a run emits exactly these metrics with these units.
"""

from __future__ import annotations

RUN_SECONDS = 15
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# ``predictions`` maps a per-layer work count to the end-to-end metrics
# (``<workload>.<metric>``) it should move; ``unchanged`` lists those it should
# leave alone.  A later change cites them by name before it is measured.
WORKLOADS = [
    {
        "name": "structure",
        "why": (
            "explicit total atomic families on bushy forests, deep chains and pure "
            "cycles: per-layer Graph rebuilds, per-node backward traces and exact "
            "phase products"
        ),
        "predictions": {
            "graph.vertices_in": ["structure.latency_p90_ms", "structure.throughput_qps"],
            "graph.elim_layers": ["structure.latency_p90_ms", "structure.throughput_qps"],
            "graph.scaling_exp": ["structure.latency_p90_ms", "structure.throughput_qps"],
            "atomic.h_nodes": ["structure.throughput_qps", "structure.latency_p90_ms"],
            "atomic.atoms": ["structure.throughput_qps", "structure.latency_p90_ms"],
            "atomic.scaling_exp": ["structure.throughput_qps", "structure.latency_p90_ms"],
        },
        "unchanged": {
            "graph.vertices_in": ["cli.setup_s", "cli.latency_p50_ms"],
            "graph.elim_layers": ["cli.setup_s", "cli.latency_p50_ms"],
        },
    },
    {
        "name": "sync",
        "why": (
            "exhaustive colouring search, subset-BFS and greedy synchronizing words, "
            "O'Brien colourings and sync diagrams on looped in-regular graphs"
        ),
        "predictions": {
            "roadcoloring.search_space": [
                "sync.throughput_qps", "sync.latency_p90_ms", "sync.peak_rss_mb",
            ],
            "roadcoloring.found_ratio": ["sync.throughput_qps", "sync.latency_p90_ms"],
            "roadcoloring.word_len": ["sync.throughput_qps", "sync.latency_p90_ms"],
            "roadcoloring.word_len_ratio": ["sync.throughput_qps", "sync.latency_p90_ms"],
            "roadcoloring.scaling_exp": ["sync.throughput_qps", "sync.latency_p90_ms"],
        },
    },
    {
        "name": "algebra",
        "why": (
            "series calculus on small polynomials (p50) and exact truncation checks "
            "on colored models of dimension 0.4k-6k (p90)"
        ),
        "predictions": {
            "series.terms_in": ["algebra.latency_p50_ms"],
            "series.terms_out": ["algebra.latency_p50_ms"],
            "series.compose_pairs": ["algebra.latency_p50_ms"],
            "series.out_per_pair": ["algebra.latency_p50_ms"],
            "trunc.dim": ["algebra.latency_p90_ms"],
            "trunc.nnz": ["algebra.latency_p90_ms"],
            "trunc.exact_ratio": ["algebra.latency_p90_ms"],
            "trunc.scaling_exp": ["algebra.latency_p90_ms"],
            "paths.enumerated": ["algebra.latency_p90_ms", "cli.latency_p50_ms"],
        },
    },
    {
        "name": "cli",
        "why": (
            "one in-process cli.main call per request over small JSON files, every "
            "subcommand, 10% malformed: per-request ingress dominates"
        ),
        "predictions": {
            "serialize.bytes_in": [
                "cli.latency_p50_ms", "cli.throughput_qps", "cli.failed_frac",
            ],
            "serialize.bytes_out": [
                "cli.latency_p50_ms", "cli.throughput_qps", "cli.failed_frac",
            ],
            "cli.exit0": ["cli.latency_p50_ms", "cli.throughput_qps", "cli.failed_frac"],
            "cli.exit1": ["cli.latency_p50_ms", "cli.throughput_qps", "cli.failed_frac"],
            "cli.crashed": ["cli.latency_p50_ms", "cli.throughput_qps", "cli.failed_frac"],
            "paths.enumerated": ["cli.latency_p50_ms"],
        },
    },
]

# failed_frac is not listed here: it is 0 on three workloads, and a run
# already reports it exactly as the top-level ``failed`` / ``attempted``.
# Timings are scaled to the reference speed (``speed.py``) and get the
# widest bound allowed; perfbench/BASELINE.md gives their measured spreads.
END_TO_END = [
    {"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

LAYERS = ("graph", "paths", "series", "atomic", "roadcoloring", "trunc", "serialize", "cli")

_COMMON = [
    ("calls", "count"),
    ("busy_s", "s"),
    ("share", "ratio"),
    ("failed", "count"),
]

_WORK = [
    ("graph.vertices_in", "count"),
    ("graph.elim_layers", "count"),
    ("graph.scaling_exp", "exponent"),
    ("atomic.h_nodes", "count"),
    ("atomic.atoms", "count"),
    ("atomic.scaling_exp", "exponent"),
    ("roadcoloring.search_space", "count"),
    ("roadcoloring.found_ratio", "ratio"),
    ("roadcoloring.word_len", "letters"),
    ("roadcoloring.word_len_ratio", "ratio"),
    ("roadcoloring.scaling_exp", "exponent"),
    ("series.terms_in", "count"),
    ("series.terms_out", "count"),
    ("series.compose_pairs", "count"),
    ("series.out_per_pair", "ratio"),
    ("trunc.dim", "count"),
    ("trunc.nnz", "count"),
    ("trunc.exact_ratio", "ratio"),
    ("trunc.scaling_exp", "exponent"),
    ("paths.enumerated", "count"),
    ("serialize.bytes_in", "bytes"),
    ("serialize.bytes_out", "bytes"),
    ("cli.exit0", "count"),
    ("cli.exit1", "count"),
    ("cli.crashed", "count"),
    ("trace.overhead_frac", "ratio"),
]

PER_LAYER = [
    {"name": f"{layer}.{suffix}", "unit": unit, "better": "lower"}
    for layer in LAYERS
    for suffix, unit in _COMMON
] + [{"name": name, "unit": unit, "better": "lower"} for name, unit in _WORK]

# a crash turned into a structured error raises cli.exit1
for metric in PER_LAYER:
    if metric["name"] in ("roadcoloring.found_ratio", "trunc.exact_ratio", "cli.exit1"):
        metric["better"] = "higher"


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
