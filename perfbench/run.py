#!/usr/bin/env python3
"""The repository's benchmark: one workload per run, from a clean shell.

    python3 perfbench/run.py --workload table1_synth --seed 0 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

``--trace 0`` sets up, warms up, then measures passes and discovery
queries for ``--seconds`` seconds with tracing off and prints the
end-to-end metrics. ``--trace 1`` sets up the same way, then runs the
traced pass and prints the per-layer metrics. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A report with provenance (and, traced, the spans) is written under
``.bench_out/`` at the repository root. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-up input generation is repeated and its median kept.
INPUT_REPEATS = 3
#: Discovery queries answered after each pass, at least: enough that
#: ten samples lie above the 95th percentile of a run.
MIN_QUERIES = 200

def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in the order of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def driver_memory() -> str:
    """A quarter of MemTotal, 1 to 4 GiB: local mode runs every task in
    the driver JVM, and the machine's memory is shared."""
    kib = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                kib = int(line.split()[1])
    return f"{min(4, max(1, kib // (4 << 20)))}g"


def configure_spark(nproc: int, mem: str) -> None:
    """Environment read when the Spark JVM and its Python workers launch.

    Workers get ``src`` on PYTHONPATH and this interpreter. Scratch files
    of every JVM (launcher, driver, ``java -version``) and Python process
    stay under ``.bench_out``; no bytecode caches are written.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={shlex.quote(str(tmp))}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{nproc}]",
        f"--driver-memory {mem}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(tmp))}",
        "pyspark-shell",
    ])


def start_spark():
    """Same session settings as jobs/_common.py and the test fixture."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway server exits when its stdin closes
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def provenance(nproc: int, mem: str, uses_spark: bool) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    def cmd(*argv) -> str:
        try:
            p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return (p.stdout or p.stderr).strip() if p.returncode == 0 else ""

    sha = cmd("git", "rev-parse", "HEAD")
    java = cmd("java", "-version")
    with open("/proc/meminfo") as f:
        mem_total = next(line.split()[1] for line in f if line.startswith("MemTotal:"))
    return {
        "git_sha": sha or "none (not a git checkout)",
        "git_dirty": bool(cmd("git", "status", "--porcelain")) if sha else None,
        "nproc": nproc,
        "mem_total_gib": round(int(mem_total) / 2**20, 2),
        "python": platform.python_version(),
        "java": next((line for line in java.splitlines() if "version" in line), ""),
        "pyspark": pyspark.__version__,
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__,
        "master": f"local[{nproc}]" if uses_spark else "none (no Spark)",
        "driver_memory": mem if uses_spark else "none (no Spark)",
    }


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def percentile(xs: list[float], p: float) -> float:
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(p * len(s)) - 1))]


class Ops:
    """Operations attempted and failed; a failure is an exception or an
    output that fails a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, bad: list[str]) -> None:
        self.attempted += 1
        if bad:
            self.failures.append("; ".join(bad))

    def answer(self, q) -> None:
        try:
            a = q.answer()
        except Exception as e:  # a failed query is counted; the run goes on
            traceback.print_exc()
            self.record([f"query {q.key} raised {e!r}"])
            return
        self.record(q.check(a))

    def run_pass(self, wl, passes: list[float]) -> None:
        """One timed pass and its checks; an exception is a failed pass."""
        t = time.perf_counter()
        try:
            out = wl.run_pass()
        except Exception as e:
            traceback.print_exc()
            self.record([f"pass raised {e!r}"])
            return
        passes.append(time.perf_counter() - t)
        self.record(wl.check_pass(out))


def query_round(wl, ops: Ops, latencies: list[float], rounds: int) -> None:
    for _ in range(rounds):
        for q in wl.queries:
            t = time.perf_counter()
            ops.answer(q)
            latencies.append(time.perf_counter() - t)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    if not (SRC / "repro").is_dir() or not (ROOT / "results").is_dir():
        print(f"perfbench: no program to measure: {SRC / 'repro'} or results/ is missing",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    mem = driver_memory()
    configure_spark(nproc, mem)
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    ops = Ops()
    setup: dict[str, float] = {}

    t = time.perf_counter()
    spark = start_spark() if wl.uses_spark else None
    setup["spark_s"] = time.perf_counter() - t
    try:
        runs = []
        for _ in range(INPUT_REPEATS):
            t = time.perf_counter()
            wl.make_inputs(args.seed)
            runs.append(time.perf_counter() - t)
        setup["inputs_s"] = statistics.median(runs)
        t = time.perf_counter()
        wl.prepare(spark)
        setup["prepare_s"] = time.perf_counter() - t
        # Untimed warm-up pass: starts Spark's Python workers and fixes
        # the expected outputs that later passes and queries must equal.
        t = time.perf_counter()
        if not wl.pass_is_queries:
            ops.run_pass(wl, [])
        query_round(wl, ops, [], 1)
        setup["warmup_s"] = time.perf_counter() - t
        setup_s = sum(setup.values())

        report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                        "setup": setup}
        if args.trace == 0:
            metrics, text = measure(wl, ops, args.seconds, setup_s, report)
        else:
            metrics, text = traced(wl, ops, spark, setup, report, tracing)
        if hasattr(wl, "final_checks"):
            ops.record(wl.final_checks())
    except Exception:  # report the failed run, then still stop Spark
        traceback.print_exc()
        ops.failures.append(traceback.format_exc(limit=3))
        ops.attempted += 1
        metrics, text, report = None, [], {}
    finally:
        if spark is not None:
            stop_spark(spark)

    report["provenance"] = provenance(nproc, mem, wl.uses_spark)
    report["failures"] = ops.failures
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=float) + "\n")
    if metrics is None:
        return 1

    failed = len(ops.failures)
    p = report["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("  provenance " + " ".join(f"{k}={v}" for k, v in p.items()))
    for line in text:
        print("  " + line)
    print(f"  failed_share {failed / ops.attempted:.4f} ({failed} of {ops.attempted} operations)")
    for f in ops.failures[:5]:
        print("  FAILED: " + f.splitlines()[0][:300])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def measure(wl, ops: Ops, seconds: float, setup_s: float, report: dict):
    """Passes, each followed by discovery queries, until ``seconds`` pass."""
    passes: list[float] = []
    latencies: list[float] = []
    rounds = 1 if wl.pass_is_queries else max(1, math.ceil(MIN_QUERIES / len(wl.queries)))
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if wl.pass_is_queries:
            t = time.perf_counter()
            query_round(wl, ops, latencies, 1)
            passes.append(time.perf_counter() - t)
        else:
            ops.run_pass(wl, passes)
            query_round(wl, ops, latencies, rounds)
    if not passes:
        raise RuntimeError(f"every pass failed in {seconds} s")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    q1, p50, q3 = quartiles(passes)
    lat_ms = [1e3 * x for x in latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (p50, "s"),
        "query_ms_p50": (statistics.median(lat_ms), "ms"),
        "query_ms_p95": (percentile(lat_ms, 0.95), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report.update({"pass_s": passes, "query_ms": lat_ms,
                   "metrics": {k: v for k, (v, _) in metrics.items()}})
    s = report["setup"]
    text = [
        f"setup_s      {setup_s:9.3f} s   spark {s['spark_s']:.3f} + inputs {s['inputs_s']:.3f} "
        f"(median of {INPUT_REPEATS}) + prepare {s['prepare_s']:.3f} + warm-up {s['warmup_s']:.3f}",
        f"pass_s       {p50:9.3f} s   median of {len(passes)} passes; quartiles {q1:.3f} .. {q3:.3f}",
        f"query_ms_p50 {metrics['query_ms_p50'][0]:9.3f} ms  of {len(lat_ms)} queries",
        f"query_ms_p95 {metrics['query_ms_p95'][0]:9.3f} ms  of {len(lat_ms)} queries",
        f"peak_rss_mb  {rss_mb:9.1f} MB  high-water RSS of the benchmark's Python process"
        + (" only (the Spark JVM and its Python workers are not counted)" if wl.uses_spark else ""),
    ]
    return metrics, text


def traced(wl, ops: Ops, spark, setup: dict, report: dict, tracing):
    """The traced pass: Spark layers from job groups, numpy layers from a
    serial replay run once untraced and once with spans."""
    tracer = tracing.Tracer()

    def run_traced(fn):
        """Run ``fn`` untraced, traced, untraced; the traced run is
        compared with the mean of the two around it, so slow drift in
        machine speed cancels out of the overhead."""
        untraced = []
        for traced_run in (False, True, False):
            if traced_run:
                tracing.install(tracer)
            try:
                t = time.perf_counter()
                result = fn() if traced_run else (fn(), None)[1]
                took = time.perf_counter() - t
            finally:
                tracer.restore()
            if traced_run:
                traced_s, traced_result = took, result
            else:
                untraced.append(took)
        return statistics.mean(untraced), traced_s, traced_result

    layer, bad = wl.trace(tracer, run_traced)
    ops.record(bad)
    layer.update({f"setup.{k}": v for k, v in setup.items()})
    units = per_layer_units()
    metrics = {name: (float(layer.get(name, 0.0)), unit) for name, unit in units.items()}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{wl.name}-seed{wl.seed}.json")
    self_s = tracer.self_seconds()
    total = sum(self_s.values())
    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    report["self_seconds"] = self_s
    text = [f"{name:48s} {value:14.4f} {unit}" for name, (value, unit) in metrics.items()]
    text.append(f"serial self time by span ({total:.3f} s traced replay):")
    for name, sec in sorted(self_s.items(), key=lambda kv: -kv[1]):
        text.append(f"  {name:46s} {1e3 * sec:10.1f} ms  {100 * sec / total:5.1f}%")
    return metrics, text


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process;
    then one summary line per metric."""
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    summary, ok = [], True
    for name in names:
        for trace in (0, 1):
            p = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stdout.write(p.stdout)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                sys.stderr.write(p.stderr[-4000:])
            if result is not None and trace == 0:
                summary += [f"{name:14s} {k:14s} {v['value']:12.4f} {v['unit']}"
                            for k, v in result["metrics"].items()]
                summary.append(f"{name:14s} {'failed_share':14s} "
                               f"{result['failed'] / result['attempted']:12.4f} share")
    print("\n".join(["summary (seed %d):" % seed] + summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
