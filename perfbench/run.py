"""Seeded end-to-end and per-layer benchmark for semigroupoid-kit.

One run measures one workload in a closed loop: one client at a time, no
threads, sending the next query only after the previous one returned.
Inputs are generated from the seed before timing starts; each answer is
checked against the oracles in ``oracles.py`` outside the timed span.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of ``spec.END_TO_END``,
measured in fresh processes one after another (see ``measure``), with every
timing scaled to the reference speed of ``speed.py``.  With
``--trace 1`` they are the per-layer ones of ``spec.PER_LAYER``, taken in one
process from traced passes that alternate with untraced passes over the same
pool; the two give the tracing overhead.

Usage, from the repository root::

    python3 perfbench/run.py --workload structure --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --report        # every workload, traced and not,
                                             # and rewrite BENCHMARK.json
    python3 perfbench/selfcheck.py           # tiny run of every workload

``correct`` is false when an answer contradicted its oracle.  ``failed``
counts those answers plus queries that raised (for ``cli``, requests on
which ``cli.main`` crashed instead of exiting 0 or 1); a summary of failures
by query kind goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKERS = 2
SETUPS = 4
SETUP_ROUNDS = 15  # reference rounds before and after a process's set-up
WORKER_TIMEOUT = 150


def import_library() -> None:
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import semigroupoid_kit
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import semigroupoid_kit from {SRC}: {exc}")
    if not os.path.abspath(semigroupoid_kit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: semigroupoid_kit imported from outside {SRC}")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.raised = 0
        self.failures: dict[str, list] = {}

    @property
    def failed(self) -> int:
        return self.wrong + self.raised

    def fail(self, kind: str, reason: str) -> None:
        entry = self.failures.setdefault(kind, [0, reason])
        entry[0] += 1


def run_query(qid: int, q, tally: Tally, tracer=None) -> tuple[float, float]:
    """Run one query and return its start and end, then check its answer
    outside the timed span."""
    if tracer is not None:
        tracer.begin_query(qid)
    error = None
    t0 = perf_counter()
    try:
        answer = q.run()
    except Exception as exc:  # the loop must go on; the failure is recorded
        error = exc
    t1 = perf_counter()
    if tracer is not None:
        tracer.end_query(error is not None)
    tally.attempted += 1
    if error is not None:
        tally.raised += 1
        tally.fail(q.kind, f"raised {type(error).__name__}: {error}")
        return t0, t1
    try:
        reason = q.check(answer)
    except Exception as exc:  # an answer of the wrong shape is a wrong answer
        reason = f"answer of unexpected shape ({type(exc).__name__}: {exc})"
    if reason is not None:
        tally.wrong += 1
        tally.fail(q.kind, reason)
    return t0, t1


def passes_for(seconds: float) -> int:
    """Passes per process: one at the default run length."""
    from spec import RUN_SECONDS

    return max(1, round(seconds / RUN_SECONDS))


def run_pass(queries, tally: Tally, tracer=None) -> list[float]:
    """One closed-loop pass over the pool; returns each query's latency,
    scaled to the reference speed (see ``speed.py``)."""
    from speed import Speed

    speed = Speed()
    spans = []
    for qid, q in enumerate(queries):
        speed.tick()
        spans.append(run_query(qid, q, tally, tracer))
    speed.mark()
    return [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]


def build(workload: str, seed: int, workdir: str, size: int | None = None):
    from workloads import BUILDERS

    rng = random.Random(f"{workload}-{seed}")
    builder = BUILDERS[workload]
    return builder(rng, workdir=workdir) if size is None else builder(rng, size, workdir)


@contextlib.contextmanager
def pool(workload: str, seed: int, size: int | None = None, inject: bool = False):
    """The seeded query pool, with its files in a private directory."""
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        queries = build(workload, seed, workdir, size)
        if inject:
            queries[0].run = queries[1].run
        gc.collect()
        gc.freeze()  # keep the input pool out of every timed collection
        yield queries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def worker(workload: str, seed: int, job: dict) -> int:
    """Child process: import the library, build the pool, say ready with the
    mean reference time before and after and the time those two readings
    took, then make the given number of passes over the pool (none in a
    process that only measures set-up)."""
    from speed import reference

    t0 = perf_counter()
    ref = reference(SETUP_ROUNDS)
    spent = perf_counter() - t0
    import_library()
    with pool(workload, seed, job["size"], job["inject"]) as queries:
        t0 = perf_counter()
        ref = (ref + reference(SETUP_ROUNDS)) / 2
        spent += perf_counter() - t0
        print("ready", ref, spent, flush=True)
        tally = Tally()
        passes = [run_pass(queries, tally) for _ in range(job["passes"])]
    print(json.dumps({
        "passes": passes, "wrong": tally.wrong, "raised": tally.raised,
        "failures": tally.failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


def spawn(workload: str, seed: int, job: dict) -> tuple[float, dict]:
    """Run one worker; returns (seconds until it was ready, scaled to the
    reference speed, and its results).

    Workers run with a hash seed taken from the workload seed, so that set
    and dict orders, on which some of the library's searches depend, are the
    same in every process of a run.
    """
    from speed import REF_S

    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--worker", json.dumps(job)]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    t0 = perf_counter()
    # unbuffered, so that reading the first line leaves the rest in the pipe
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT, env=env)
    try:
        ready = proc.stdout.readline().split()
        setup = perf_counter() - t0
        out = proc.communicate(timeout=WORKER_TIMEOUT)[0].decode()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or len(ready) != 3 or ready[0] != b"ready":
        raise RuntimeError(f"worker failed for {workload} seed {seed}")
    ref, spent = float(ready[1]), float(ready[2])
    return (setup - spent) * REF_S / ref, json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workers: int = WORKERS, size: int | None = None, inject: bool = False,
            setups: int = SETUPS):
    """(result object, failures by query kind) for one run.

    The run length is a fixed amount of work: ``passes_for(seconds)`` passes over
    the pool in each of ``workers`` fresh processes, one process after the
    other.  Each sample is scaled to the reference speed of ``speed.py``,
    which takes out spells of seconds in which the whole machine runs slowly,
    and a query's latency is the fastest of its scaled samples: stalls of a
    few milliseconds only ever add time, so the fastest sample is the one
    that repeats, and a fixed sample count keeps it unbiased.  Throughput is the pool size over the summed query latencies, and p50 and
    p90 are taken over the pool's queries, at least 100 of them.

    A process's set-up time runs from its start until it is ready: import,
    input generation and the library's constructors, with no oracle work.
    ``setup_s`` is the median over ``setups`` fresh processes: the workers,
    then processes that only build the pool.

    ``size`` and ``inject`` serve the self-check: a smaller pool, and a first
    query that returns the second's answer.
    """
    from spec import END_TO_END, PER_LAYER

    if trace:
        tally = Tally()
        with pool(workload, seed, size, inject) as queries:
            values = traced(workload, seed, queries, seconds, tally)
        units = {m["name"]: m["unit"] for m in PER_LAYER}
        attempted, wrong, failed = tally.attempted, tally.wrong, tally.failed
        failures = tally.failures
    else:
        ready, rss, passes, failures = [], [], [], {}
        attempted = wrong = failed = 0
        for k in range(max(workers, setups)):
            job = {"passes": passes_for(seconds) if k < workers else 0,
                   "size": size, "inject": inject}
            setup, out = spawn(workload, seed, job)
            ready.append(setup)
            rss.append(out["rss_mb"])
            passes += out["passes"]
            attempted += sum(map(len, out["passes"]))
            wrong += out["wrong"]
            failed += out["wrong"] + out["raised"]
            for kind, (count, reason) in out["failures"].items():
                failures.setdefault(kind, [0, reason])[0] += count
        best = [min(q) for q in zip(*passes)]
        values = {
            "throughput_qps": len(best) / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[8] * 1e3,
            "peak_rss_mb": max(rss),
            "setup_s": statistics.median(ready),
        }
        units = {m["name"]: m["unit"] for m in END_TO_END}
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, failures


def traced(workload: str, seed: int, queries, seconds: float, tally: Tally) -> dict:
    """After one untraced warm-up pass, alternate ``passes_for(seconds)``
    untraced and traced passes; per-layer metrics are per traced pass.

    The tracing overhead is the median over queries of the ratio of a query's
    summed traced latency to its summed untraced latency, minus one.  The
    warm-up pass keeps first-call costs out of both sums.
    """
    from tracing import Tracer

    tracer = Tracer()
    plain = [0.0] * len(queries)
    spanned = [0.0] * len(queries)
    passes = passes_for(seconds)
    run_pass(queries, Tally())
    for _ in range(passes):
        for k, dt in enumerate(run_pass(queries, tally)):
            plain[k] += dt
        tracer.install()
        try:
            for k, dt in enumerate(run_pass(queries, tally, tracer)):
                spanned[k] += dt
        finally:
            tracer.uninstall()
    values = tracer.layer_metrics(passes)
    values["trace.overhead_frac"] = statistics.median(t / u for t, u in zip(spanned, plain)) - 1
    tracer.write(os.path.join(WORK, "spans", f"{workload}-seed{seed}.jsonl"))
    return values


def report_failures(failures: dict) -> None:
    for kind, (count, reason) in sorted(failures.items()):
        print(f"failed {count}x {kind}: {reason}", file=sys.stderr)


def write_manifest() -> None:
    from spec import manifest

    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")


def report(seed: int, seconds: float, out: str | None) -> int:
    """Run every workload untraced and traced in fresh processes, print every
    metric by name with its unit, and rewrite BENCHMARK.json from spec.py."""
    from spec import WORKLOADS

    rows = {}
    for w in WORKLOADS:
        name = w["name"]
        rows[name] = {}
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            rows[name][f"trace{trace}"] = res
            if trace == 0:
                rows[name]["failures"] = proc.stderr.strip().splitlines()
        res = rows[name]["trace0"]
        frac = res["failed"] / res["attempted"]
        print(f"== {name}: {w['why']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.4f} {m['unit']}")
        print(f"  {'failed_frac':28s} {frac:14.4f} ratio  ({res['failed']}/{res['attempted']})")
        for metric, m in rows[name]["trace1"]["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.4f} {m['unit']}")
        for line in rows[name]["failures"]:
            print(f"  {line}")
    write_manifest()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "seconds": seconds, "workloads": rows}, fh, indent=1)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    from spec import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload and rewrite BENCHMARK.json")
    parser.add_argument("--out", help="with --report, also save the results here")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.workload, args.seed, json.loads(args.worker))
    import_library()
    if args.report:
        return report(args.seed, args.seconds, args.out)
    if args.workload is None:
        parser.error("--workload is required")
    result, failures = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report_failures(failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
