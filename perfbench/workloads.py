"""The benchmark's workloads.

Each workload has the same life cycle, driven by ``run.py``:

* ``make_inputs(seed)`` generates the inputs (pure numpy/pandas);
* ``prepare(spark)`` loads them into Spark and builds the stored
  sketches that discovery queries read;
* ``run_pass()`` is one timed pass; ``check_pass(out)`` returns the
  checks it failed;
* ``queries`` are discovery queries (sketch join + routed estimator
  over two stored sketches), each with the value it must return;
* ``trace(...)`` runs the traced replay and returns per-layer metrics.

Seed 0 is the default seed: it regenerates the inputs behind the
archived ``results/table{1,2}_raw.csv`` rows, and the outputs must equal
those rows. Any other seed keeps the same tables but shuffles the row
order of each one (``shuffled``): the sketches sample other rows, so
every estimate changes, while table sizes, key multiplicities and
estimator routes, which set the cost of a pass, stay the same. Fresh
draws of the generators were tried and rejected: their costs vary
from seed to seed by more than the metric bounds. On those seeds the
outputs are checked against the program's own independent paths
(serial replay, numpy core).
"""
from __future__ import annotations

import math
import pathlib
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from pyspark.sql import functions as F

import tracing
from repro import mi, sketch, synth_data
from repro.core import evaluate, fulljoin, pipeline
from repro.experiments import table1, table2
from repro.opendata import corpus, typeinfer

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"
MIN_SAMPLE = 4  # evaluate_pair's default: fewer joined rows -> NaN
KEY_COLS = ["pair_id", "method", "estimator"]
ROW_COLS = KEY_COLS + ["join_size", "mi_sketch", "mi_full", "full_join_size"]


def same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def label(est: str, jitter: str) -> str:
    return f"{est}|{jitter}" if jitter != "none" else est


def row_diffs(got: pd.DataFrame, want: pd.DataFrame, what: str) -> list[str]:
    """Compare result rows exactly (NaN equals NaN), keyed by
    (pair_id, method, estimator)."""
    g = got[ROW_COLS].sort_values(KEY_COLS).reset_index(drop=True)
    w = want[ROW_COLS].sort_values(KEY_COLS).reset_index(drop=True)
    if len(g) != len(w) or not (g[KEY_COLS].values == w[KEY_COLS].values).all():
        return [f"{what}: row keys differ ({len(g)} vs {len(w)} rows)"]
    bad = []
    for col in ROW_COLS[3:]:
        a = g[col].to_numpy(np.float64)
        b = w[col].to_numpy(np.float64)
        ok = (a == b) | (np.isnan(a) & np.isnan(b))
        if not ok.all():
            i = int(np.argmin(ok))
            bad.append(f"{what}: {col} differs at {tuple(g.loc[i, KEY_COLS])}: {a[i]!r} vs {b[i]!r}")
    return bad


def archived(csv: str, pair_ids, collection: str | None = None) -> pd.DataFrame:
    df = pd.read_csv(RESULTS / csv, float_precision="round_trip")
    if collection is not None:
        df = df[df["collection"] == collection]
    return df[df["pair_id"].isin(list(pair_ids))]


def route(train: pd.DataFrame, cand: pd.DataFrame):
    """Table II's per-pair routing (``table2.run``): type inference casts
    both value columns, which pick the estimator and the AGG."""
    train = train.assign(y=typeinfer.cast_column(train["y"]))
    cand = cand.assign(x=typeinfer.cast_column(cand["x"]))
    x_num = np.asarray(cand["x"].to_numpy()).dtype.kind in "fiu"
    y_num = np.asarray(train["y"].to_numpy()).dtype.kind in "fiu"
    return train, cand, mi.choose_estimator_name(x_num, y_num), ("avg" if x_num else "mode")


def shuffled(df: pd.DataFrame, rng: np.random.Generator | None) -> pd.DataFrame:
    """``df``'s rows in a random order, ``rid`` renumbered in that order
    (so occurrence indices follow it); ``rng=None`` keeps the order."""
    if rng is None:
        return df
    out = df.iloc[rng.permutation(len(df))].reset_index(drop=True)
    return out.assign(rid=np.arange(len(out), dtype=out["rid"].dtype))


def row_order_rng(seed: int, pair_id: int) -> np.random.Generator | None:
    return np.random.default_rng([seed, pair_id]) if seed else None


def nyc_pair(i: int):
    """Pair ``i`` of the archived ``generate_collection("nyc", n, seed=0)``
    for any n > i, generated alone (same per-pair seed)."""
    return corpus.generate_pair(i, corpus.NYC, seed=7919 * i + sum(map(ord, "nyc")) * 104_729)


def by_pair(tall: pd.DataFrame) -> dict[int, pd.DataFrame]:
    """Split a tall frame per pair, rows in rid order (as the sweep does)."""
    return {
        int(pid): g.drop(columns="pair_id").sort_values("rid").reset_index(drop=True)
        for pid, g in tall.groupby("pair_id", sort=True)
    }


@dataclass
class Query:
    """One discovery query: join two stored sketches, run the estimator.

    ``rng_state`` replays evaluate_pair's jitter stream, so the answer
    equals the sweep's ``mi_sketch`` for the same (pair, method, estimator).
    """

    key: tuple
    estimator: str
    jitter: str
    s_train: sketch.Sketch
    s_cand: sketch.Sketch
    rng_state: dict | None
    want: float | None = None

    def answer(self) -> float:
        y, x = sketch.join_sketches(self.s_train, self.s_cand)
        if len(y) < MIN_SAMPLE:
            return float("nan")
        rng = None
        if self.rng_state is not None:
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = self.rng_state
        px, py = evaluate._prepare(x, y, self.estimator, self.jitter, rng)
        return float(mi.estimate_mi(px, py, self.estimator))

    def check(self, answer: float) -> list[str]:
        """Compare with ``want``; with none set, the answer becomes it."""
        if self.want is None:
            self.want = answer
        return [] if same(answer, self.want) else [f"query {self.key}: {answer!r} vs {self.want!r}"]


def pair_queries(pair_id, train, cand, *, n, methods, estimators, agg) -> list[Query]:
    """Build every method's sketch pair for one table pair and return its
    queries, mirroring the sketch loop of ``evaluate_pair``."""
    rng = np.random.default_rng(1_000_003 * (pair_id + 1))
    tk, tv = train["key"].to_numpy(), train["y"].to_numpy()
    ck, cv = cand["key"].to_numpy(), cand["x"].to_numpy()
    out = []
    for method in methods:
        s_train, s_cand = sketch.build_pair(method, tk, tv, ck, cv, n, agg=agg)
        y, x = sketch.join_sketches(s_train, s_cand)
        for est, jitter in estimators:
            out.append(Query((pair_id, method, label(est, jitter)), est, jitter,
                             s_train, s_cand, rng.bit_generator.state))
            if len(y) >= MIN_SAMPLE:  # advance the stream as evaluate_pair does
                evaluate._prepare(x, y, est, jitter, rng)
    return out


def set_wants(queries: list[Query], rows: pd.DataFrame) -> None:
    want = {tuple(k): v for k, v in zip(rows[KEY_COLS].itertuples(index=False), rows["mi_sketch"])}
    for q in queries:
        q.want = float(want[(q.key[0], q.key[1], q.key[2])])


# ---------------------------------------------------------------------------
class Table1Synth:
    """Archived Table I generator through ``table1.run`` (cogrouped sweep),
    a fixed every-5th subset of its 60 pairs."""

    name = "table1_synth"
    uses_spark = True
    pass_is_queries = False
    #: Every 5th pair of the 60: Trinomial m = 16..1024 under both key
    #: regimes, and six CDUnif pairs per key regime.
    pair_ids = tuple(range(0, 60, 5))

    def make_inputs(self, seed: int) -> None:
        self.seed = seed
        wl = table1.build_workload()
        trains, cands = [], []
        for pid in self.pair_ids:
            rng = row_order_rng(seed, pid)
            trains.append(shuffled(wl.train_tall[wl.train_tall["pair_id"] == pid], rng))
            cands.append(shuffled(wl.cand_tall[wl.cand_tall["pair_id"] == pid], rng))
        self.workload = table1.Workload(
            train_tall=pd.concat(trains, ignore_index=True),
            cand_tall=pd.concat(cands, ignore_index=True),
            meta=wl.meta[wl.meta["pair_id"].isin(self.pair_ids)].reset_index(drop=True),
        )
        self.dataset = dict(zip(self.workload.meta["pair_id"], self.workload.meta["dataset"]))

    def prepare(self, spark) -> None:
        self.spark = spark
        self.queries = [
            q for pid, (train, cand) in self.pairs().items()
            for q in pair_queries(pid, train, cand, n=table1.SKETCH_N, methods=table1.METHODS,
                                  estimators=table1.ESTIMATORS[self.dataset[pid]], agg="avg")
        ]
        self.want = archived("table1_raw.csv", self.pair_ids) if self.seed == 0 else None
        self.first: pd.DataFrame | None = None
        self.npass = 0

    def pairs(self) -> dict[int, tuple[pd.DataFrame, pd.DataFrame]]:
        tr, ca = by_pair(self.workload.train_tall), by_pair(self.workload.cand_tall)
        return {pid: (tr[pid], ca[pid]) for pid in tr}

    def run_pass(self) -> pd.DataFrame:
        self.npass += 1
        self.group = f"perfbench.{self.npass}.sweep"
        t = time.perf_counter()
        with tracing.job_group(self.spark.sparkContext, self.group):
            rows = table1.run(self.spark, self.workload)
        self.pass_s = time.perf_counter() - t
        return rows

    def check_pass(self, rows: pd.DataFrame) -> list[str]:
        """Rows equal the archived rows (seed 0) and the first pass's rows;
        the first pass also fixes each query's expected answer."""
        bad = []
        if self.want is not None:
            bad += row_diffs(rows, self.want, "table1_synth vs results/table1_raw.csv")
        if self.first is None:
            self.first = rows
            set_wants(self.queries, rows)
        else:
            bad += row_diffs(rows, self.first, "table1_synth pass vs first pass")
        # Table I shape (benchmarks/bench_table1.py): mean MSE over the
        # datasets orders TUPSK <= LV2SK <= INDSK.
        mse = table1.summarize(rows).groupby("method")["mse"].mean()
        if not mse["tupsk"] <= mse["lv2sk"] <= mse["indsk"]:
            bad.append(f"table1 shape: MSE tupsk {mse['tupsk']} lv2sk {mse['lv2sk']} indsk {mse['indsk']}")
        return bad

    def replay(self) -> pd.DataFrame:
        """The sweep's per-pair function, run serially in this process."""
        return pd.concat([
            evaluate.evaluate_pair(
                pid, train, cand, n=table1.SKETCH_N, methods=table1.METHODS,
                estimators=table1.ESTIMATORS[self.dataset[pid]], agg="avg", compute_full=False)
            for pid, (train, cand) in self.pairs().items()
        ], ignore_index=True)

    def trace(self, tracer, run_traced) -> tuple[dict, list[str]]:
        """One sweep pass under a job group, then the serial replay of
        every pair, untraced and traced; the sweep must equal the replay."""
        sc = self.spark.sparkContext
        rows = self.run_pass()
        st = tracing.spark_group_stats(sc, self.group)
        out = {
            "core.sweep.tasks": st["last_stage_tasks"],
            "core.sweep.task_run_s": st["last_stage_run_s"],
            "core.sweep.busy_share": st["last_stage_run_s"] / (self.pass_s * sc.defaultParallelism),
            "core.sweep.shuffle_bytes": st["shuffle_bytes"],
        }
        replay_s, traced_s, replayed = run_traced(self.replay)
        out.update(tracing.layer_metrics(tracer))
        out["trace.replay_s"] = replay_s
        out["trace.overhead_share"] = traced_s / replay_s - 1.0
        return out, self.check_pass(rows) + row_diffs(rows, replayed, "table1_synth sweep vs serial replay")


# ---------------------------------------------------------------------------
class Discovery:
    """Discovery-time path: queries over stored NYC-like sketches."""

    name = "discovery"
    uses_spark = False
    #: A pass is one round over every stored query; no other work.
    pass_is_queries = True
    #: The pairs are the first of the archived NYC-like collection that
    #: fill two of each (estimator, AGG) route of Table II.
    SHAPES = (("mle", "mode"), ("mixed_ksg", "avg"), ("dc_ksg", "avg"), ("dc_ksg", "mode"))
    PER_SHAPE = 2
    MAX_PAIRS = 200

    def make_inputs(self, seed: int) -> None:
        self.seed = seed
        need = {s: self.PER_SHAPE for s in self.SHAPES}
        self.raw, self.chosen = [], []
        for i in range(self.MAX_PAIRS):
            p = nyc_pair(i)
            rng = row_order_rng(seed, p.pair_id)
            p.train, p.cand = shuffled(p.train, rng), shuffled(p.cand, rng)
            train, cand, est, agg = route(p.train, p.cand)
            if need.get((est, agg), 0) > 0:
                need[(est, agg)] -= 1
                self.raw.append(p)
                self.chosen.append((p.pair_id, train, cand, est, agg))
                if not any(need.values()):
                    break
        else:
            raise RuntimeError(f"first {self.MAX_PAIRS} NYC pairs lack shapes {need}")
        self.pair_ids = tuple(c[0] for c in self.chosen)

    def prepare(self, spark) -> None:
        self.queries = [
            q for pid, train, cand, est, agg in self.chosen
            for q in pair_queries(pid, train, cand, n=table2.SKETCH_N, methods=table2.METHODS,
                                  estimators=((est, "none"),), agg=agg)
        ]
        if self.seed == 0:
            set_wants(self.queries, archived("table2_raw.csv", self.pair_ids, "nyc"))

    def final_checks(self) -> list[str]:
        """Full-join MI per pair: equals the archived ``mi_full`` on seed 0,
        and TUPSK estimates rank-align with it (Spearman > 0.5, as in
        benchmarks/bench_table2.py)."""
        full = {}
        for pid, train, cand, est, agg in self.chosen:
            fy, fx = evaluate.full_join_pairs_pandas(train, cand, agg)
            px, py = evaluate._prepare(fx, fy, est, "none", None)
            full[pid] = float(mi.estimate_mi(px, py, est)) if len(fy) >= MIN_SAMPLE else float("nan")
        bad = []
        if self.seed == 0:
            want = archived("table2_raw.csv", self.pair_ids, "nyc")
            want = want[want["method"] == "full"].set_index("pair_id")["mi_full"]
            bad += [f"discovery full MI pair {p}: {v!r} vs {want[p]!r}"
                    for p, v in full.items() if not same(v, float(want[p]))]
        tup = {q.key[0]: q.want for q in self.queries if q.key[1] == "tupsk"}
        s = pd.Series(tup).rank().corr(pd.Series(full).rank())
        if not s > 0.5:
            bad.append(f"discovery TUPSK Spearman {s} <= 0.5")
        return bad

    def replay(self) -> pd.DataFrame:
        """Table II's per-pair function (routing, then ``evaluate_pair``
        with the full path on) over the raw pairs, serially."""
        rows = []
        for p in self.raw:
            train, cand, est, agg = route(p.train, p.cand)
            rows.append(evaluate.evaluate_pair(
                p.pair_id, train, cand, n=table2.SKETCH_N, methods=table2.METHODS,
                estimators=((est, "none"),), agg=agg, compute_full=True))
        return pd.concat(rows, ignore_index=True)

    def trace(self, tracer, run_traced) -> tuple[dict, list[str]]:
        """Serial replay of evaluate_pair over the chosen pairs (sketch
        build, joins, estimates and the full path), untraced and traced."""
        replay_s, traced_s, rows = run_traced(self.replay)
        out = tracing.layer_metrics(tracer)
        out["trace.replay_s"] = replay_s
        out["trace.overhead_share"] = traced_s / replay_s - 1.0
        sk = rows[rows["method"] != "full"].set_index(KEY_COLS)["mi_sketch"]
        bad = [f"discovery query {q.key}: {q.want!r} vs replay {sk[q.key]!r}"
               for q in self.queries if not same(q.want, float(sk[q.key]))]
        return out, bad


# ---------------------------------------------------------------------------
class SparkBuild:
    """Offline Spark sketch builders over TPC-H-lite lineitem and part."""

    name = "spark_build"
    uses_spark = True
    pass_is_queries = False
    SF = 0.02
    N = 1024
    METHODS = ("tupsk", "lv2sk", "prisk", "indsk", "csk")

    def make_inputs(self, seed: int) -> None:
        # synth_data generates straight into Spark DataFrames, so input
        # generation is timed under prepare.
        self.seed = seed

    def prepare(self, spark) -> None:
        self.spark = spark
        self.li = synth_data.lineitem(spark, sf=self.SF, seed=self.seed).select(
            F.monotonically_increasing_id().alias("rid"),
            F.col("l_partkey").alias("key"), F.col("l_extendedprice").alias("y"),
        ).cache()
        self.pt = synth_data.part(spark, sf=self.SF, seed=5 + self.seed).select(
            F.col("p_partkey").alias("rid"), F.col("p_partkey").alias("key"),
            F.col("p_retailprice").alias("x"),
        ).cache()
        self.li_pd = self.li.toPandas().sort_values("rid").reset_index(drop=True)
        self.pt_pd = self.pt.toPandas().sort_values("rid").reset_index(drop=True)
        lk, ly = self.li_pd["key"].to_numpy(), self.li_pd["y"].to_numpy()
        pk, px = self.pt_pd["key"].to_numpy(), self.pt_pd["x"].to_numpy()
        self.np_train = {m: sketch.METHODS[m][0](lk, ly, self.N) for m in self.METHODS}
        self.np_cand = {m: sketch.METHODS[m][1](pk, px, self.N, "avg") for m in self.METHODS}
        self.full_rows = len(evaluate.full_join_pairs_pandas(self.li_pd, self.pt_pd, "avg")[0])
        self.queries = [
            Query(("lineitem", m, "mixed_ksg"), "mixed_ksg", "none", self.np_train[m], self.np_cand[m], None)
            for m in self.METHODS
        ]
        for q in self.queries:
            q.want = q.answer()
        self.npass = 0

    def run_pass(self) -> dict:
        """Every builder call under its own job group; ``self.calls`` maps
        each call to (job group, wall seconds)."""
        self.npass += 1
        self.calls = {}
        sc = self.spark.sparkContext

        def call(name, fn):
            group = f"perfbench.{self.npass}.{name}"
            t = time.perf_counter()
            with tracing.job_group(sc, group):
                out = fn()
            self.calls[name] = (group, time.perf_counter() - t)
            return out

        train = {m: call(f"train.{m}", lambda m=m: pipeline.spark_train_sketch(
            self.li, n=self.N, method=m, val_col="y")) for m in self.METHODS}
        cand = call("cand", lambda: pipeline.spark_cand_sketch(
            self.pt, n=self.N, method="tupsk", agg="avg", val_col="x"))
        count = call("augment", lambda: fulljoin.augment(self.li, self.pt, agg="avg").count())
        for q in self.queries:  # queries read this pass's train sketches
            q.s_train = train[q.key[1]]
        return {"train": train, "cand": cand, "count": count}

    def check_pass(self, out: dict) -> list[str]:
        """Spark sketches byte-identical to the numpy core on the same rows;
        N <= len <= 2N (benchmarks/bench_sketch_spark.py); the augmentation
        join has the pandas full join's row count."""
        bad = []
        for m, sk in out["train"].items():
            if not identical(sk, self.np_train[m]):
                bad.append(f"spark train {m} != numpy")
            if not self.N <= len(sk) <= 2 * self.N:
                bad.append(f"spark train {m}: len {len(sk)} outside [N, 2N]")
        if not identical(out["cand"], self.np_cand["tupsk"]) or len(out["cand"]) != self.N:
            bad.append("spark cand tupsk != numpy")
        if not 0 < out["count"] == self.full_rows:
            bad.append(f"augment count {out['count']} vs pandas {self.full_rows}")
        return bad

    def trace(self, tracer, run_traced) -> tuple[dict, list[str]]:
        """One pass, read back per builder call from its job group; then
        the numpy core on the same rows, untraced and traced."""
        sc = self.spark.sparkContext
        passed = self.run_pass()
        out: dict[str, float] = {}
        for name, (group, wall) in self.calls.items():
            prefix = "core.fulljoin.augment" if name == "augment" else f"core.pipeline.{name}"
            st = tracing.spark_group_stats(sc, group)
            out.update({f"{prefix}.s": wall, f"{prefix}.jobs": st["jobs"],
                        f"{prefix}.stages": st["stages"], f"{prefix}.task_s": st["task_s"],
                        f"{prefix}.shuffle_bytes": st["shuffle_bytes"]})

        lk, ly = self.li_pd["key"].to_numpy(), self.li_pd["y"].to_numpy()
        pk, px = self.pt_pd["key"].to_numpy(), self.pt_pd["x"].to_numpy()
        runs = []
        for _ in range(5):
            t = time.perf_counter()
            sketch.METHODS["tupsk"][0](lk, ly, self.N)
            runs.append(time.perf_counter() - t)
        numpy_tupsk_s = float(np.median(runs))

        def replay():
            for m in self.METHODS:
                sketch.build_pair(m, lk, ly, pk, px, self.N, agg="avg")
            for q in self.queries:
                q.answer()

        replay_s, traced_s, _ = run_traced(replay)
        out.update(tracing.layer_metrics(tracer))
        out["core.pipeline.numpy_tupsk_train_s"] = numpy_tupsk_s
        out["core.pipeline.spark_over_numpy"] = out["core.pipeline.train.tupsk.s"] / numpy_tupsk_s
        out["trace.replay_s"] = replay_s
        out["trace.overhead_share"] = traced_s / replay_s - 1.0
        return out, self.check_pass(passed)


def identical(a: sketch.Sketch, b: sketch.Sketch) -> bool:
    """Byte-identical sketches: same hashes and values, same dtypes."""
    va, vb = np.asarray(a.values), np.asarray(b.values)
    return (a.key_hash.dtype == b.key_hash.dtype and a.key_hash.tobytes() == b.key_hash.tobytes()
            and va.dtype == vb.dtype and va.tobytes() == vb.tobytes())


WORKLOADS = {w.name: w for w in (Table1Synth, Discovery, SparkBuild)}
