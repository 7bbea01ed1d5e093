"""Span recorder and Spark status capture for the traced run.

Spans are recorded from outside the program: :class:`Tracer` swaps the
public functions of each numpy layer (hashing, sketch, mi, opendata,
core.evaluate) for wrappers that open a span around the original call,
and puts the originals back when the traced replay ends. Nothing under
``src/`` knows about it. Spark layers are measured with one job group
per call, read back from Spark's status tracker and status store.

A span records its name, start, end, its parent span and the root span
of its request (one table pair or one query). A layer's self time is
its span time minus the time of its child spans; calls are sequential
in one thread, so that is a plain subtraction.
"""
from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory spans plus counters; written out once at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._open: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        # Which join produced the sample an estimator is about to see:
        # set by the full-join and sketch-join wrappers.
        self._path: contextvars.ContextVar[str] = contextvars.ContextVar(
            "perfbench_path", default="sketch"
        )
        self._saved: list[tuple[object, object, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open.get()
        sid = next(self._ids)
        s = Span(sid, parent.sid if parent else None, parent.root if parent else sid,
                 name, time.perf_counter())
        token = self._open.set(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.reset(token)
            self.spans.append(s)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def wrap(self, targets: list[tuple[str, str]], name, after=None) -> None:
        """Replace ``module.attr`` for every (module, attr) in ``targets``
        (all bound to the same function) with one spanning wrapper.

        ``name`` is a span name or a function of the call's arguments;
        ``after(result, args, kwargs)`` records counters.
        """
        mod, attr = targets[0]
        original = getattr(importlib.import_module(mod), attr)
        wrapped = self._wrapper(original, name, after)
        for mod, attr in targets:
            owner = importlib.import_module(mod)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{mod}.{attr} is not {targets[0]}")
            self._set(owner, attr, wrapped)

    def wrap_methods(self, methods: dict) -> None:
        """Span every sketch method's (train, cand) builder, in the
        ``repro.sketch.METHODS`` table that ``build_pair`` dispatches on."""
        for m, (train_fn, cand_fn) in list(methods.items()):
            self._set(methods, m, (
                self._wrapper(train_fn, f"sketch.{m}.train", _count_fill(self)),
                self._wrapper(cand_fn, f"sketch.{m}.cand", None),
            ))

    def _wrapper(self, fn, name, after):
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results --------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child[s.sid]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def dump(self, path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [dict(asdict(s), start=s.start - t0, end=s.end - t0) for s in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n")


def _is_str(values) -> bool:
    return np.asarray(values).dtype.kind in "OUS"


def _count_fill(tracer: Tracer):
    def after(sk, args, kwargs):
        n = args[2] if len(args) > 2 else kwargs["n"]
        tracer.count("sketch.train_fill.sum", len(sk) / n)
        tracer.count("sketch.train_fill.calls")
    return after


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every numpy layer under ``src/repro``."""
    import repro.core.evaluate  # noqa: F401  (load every module patched below)
    from repro import sketch

    def hash_name(values, *a, **k):
        return "hashing.hash_keys.str" if _is_str(values) else "hashing.hash_keys.num"

    def hash_after(out, args, kwargs):
        if _is_str(args[0]):
            tracer.count("hashing.hash_keys.str.keys", len(out))

    tracer.wrap([("repro.hashing", "hash_keys")], hash_name, hash_after)
    tracer.wrap([("repro.hashing", "tuple_u01")], "hashing.tuple_u01")
    tracer.wrap([("repro.hashing", "u01")], "hashing.u01")

    sk_mods = ["repro.sketch.base", "repro.sketch"]
    tracer.wrap(
        [(m, "aggregate_cand") for m in sk_mods + [
            "repro.sketch.csk", "repro.sketch.indsk", "repro.sketch.lv2sk",
            "repro.sketch.prisk", "repro.sketch.tupsk", "repro.core.evaluate"]],
        lambda keys, values, agg: f"sketch.aggregate_cand.{agg}",
    )
    tracer.wrap(
        [(m, "occurrence_index") for m in sk_mods + [
            "repro.sketch.lv2sk", "repro.sketch.prisk", "repro.sketch.tupsk"]],
        "sketch.occurrence_index",
    )
    tracer.wrap_methods(sketch.METHODS)

    def join_after(out, args, kwargs):
        tracer._path.set("sketch")
        tracer.count("sketch.join_size", len(out[0]))
        tracer.count("sketch.join_calls")
        cand = args[1]
        tracer.count("sketch.collisions_dropped",
                     len(cand.key_hash) - len(np.unique(cand.key_hash)))

    tracer.wrap([(m, "join_sketches") for m in sk_mods + ["repro.core.evaluate"]],
                "sketch.join_sketches", join_after)

    def full_after(out, args, kwargs):
        tracer._path.set("full")

    tracer.wrap([("repro.core.evaluate", "full_join_pairs_pandas")],
                "core.evaluate.full_join_pairs_pandas", full_after)

    def mi_name(x, y, estimator, *a, **k):
        return f"mi.{estimator}.{tracer._path.get()}"

    def mi_after(out, args, kwargs):
        tracer.count(f"mi.points.{tracer._path.get()}", len(args[0]))

    tracer.wrap([("repro.mi", "estimate_mi"), ("repro.mi.select", "estimate_mi"),
                 ("repro.core.evaluate", "estimate_mi")], mi_name, mi_after)

    tracer.wrap([("repro.opendata.typeinfer", "cast_column"), ("repro.opendata", "cast_column")],
                "opendata.cast_column")

    def pair_after(rows, args, kwargs):
        sk = rows["method"] != "full"
        tracer.count("mi.nan", int(rows.loc[sk, "mi_sketch"].isna().sum()
                                   + rows.loc[~sk, "mi_full"].isna().sum()))
        tracer.count("core.evaluate.pairs")

    tracer.wrap([("repro.core.evaluate", "evaluate_pair")], "core.evaluate.evaluate_pair", pair_after)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the numpy layers, from one traced replay.

    Every ``.ms`` value is self time summed over the replay.
    """
    self_s = tracer.self_seconds()
    c = tracer.counts
    pairs = c.get("core.evaluate.pairs", 0.0)

    def ms(name):
        return 1e3 * self_s.get(name, 0.0)

    out = {
        "hashing.hash_keys.str.ms": ms("hashing.hash_keys.str"),
        "hashing.hash_keys.str.keys": c.get("hashing.hash_keys.str.keys", 0.0),
        "hashing.hash_keys.num.ms": ms("hashing.hash_keys.num"),
        "hashing.tuple_u01.ms": ms("hashing.tuple_u01"),
        "hashing.u01.ms": ms("hashing.u01"),
        "sketch.occurrence_index.ms": ms("sketch.occurrence_index"),
        "sketch.join_sketches.ms": ms("sketch.join_sketches"),
        "sketch.join_size": c.get("sketch.join_size", 0.0) / max(c.get("sketch.join_calls", 0.0), 1.0),
        "sketch.train_fill": c.get("sketch.train_fill.sum", 0.0) / max(c.get("sketch.train_fill.calls", 0.0), 1.0),
        "sketch.collisions_dropped": c.get("sketch.collisions_dropped", 0.0),
        "mi.points.full": c.get("mi.points.full", 0.0),
        "mi.points.sketch": c.get("mi.points.sketch", 0.0),
        "mi.nan": c.get("mi.nan", 0.0),
        "opendata.cast_column.ms": ms("opendata.cast_column"),
        "core.evaluate.full_join_pairs_pandas.ms": ms("core.evaluate.full_join_pairs_pandas"),
    }
    agg_calls = sum(tracer.calls(f"sketch.aggregate_cand.{a}") for a in ("avg", "mode", "first", "count"))
    out["sketch.aggregate_cand.calls_per_pair"] = agg_calls / pairs if pairs else 0.0
    out["sketch.occurrence_index.calls_per_pair"] = (
        tracer.calls("sketch.occurrence_index") / pairs if pairs else 0.0)
    for agg in ("avg", "mode", "first"):
        out[f"sketch.aggregate_cand.{agg}.ms"] = ms(f"sketch.aggregate_cand.{agg}")
    for m in ("tupsk", "lv2sk", "prisk", "indsk", "csk"):
        out[f"sketch.{m}.train.ms"] = ms(f"sketch.{m}.train")
        out[f"sketch.{m}.cand.ms"] = ms(f"sketch.{m}.cand")
    for est in ("mle", "mixed_ksg", "dc_ksg"):
        for path in ("full", "sketch"):
            out[f"mi.{est}.{path}.ms"] = ms(f"mi.{est}.{path}")
    pair_s = tracer.durations("core.evaluate.evaluate_pair")
    out["core.evaluate.pair_s.p50"] = float(np.median(pair_s)) if pair_s else 0.0
    out["core.evaluate.pair_s.max"] = max(pair_s, default=0.0)
    # Paper §V-D: full path (full join + full-data MI) over sketch path
    # (sketch join + sketch MI), both summed over the replay; sketch
    # build is offline work and excluded from both.
    full_ms = out["core.evaluate.full_join_pairs_pandas.ms"] + sum(
        out[f"mi.{e}.full.ms"] for e in ("mle", "mixed_ksg", "dc_ksg"))
    sketch_ms = out["sketch.join_sketches.ms"] + sum(
        out[f"mi.{e}.sketch.ms"] for e in ("mle", "mixed_ksg", "dc_ksg"))
    out["core.evaluate.full_path.ms"] = full_ms
    out["core.evaluate.sketch_path.ms"] = sketch_ms
    out["core.evaluate.full_over_sketch"] = full_ms / sketch_ms if sketch_ms else 0.0
    return out


# -- Spark ---------------------------------------------------------------
def spark_group_stats(sc, group: str, timeout_s: float = 30.0) -> dict[str, float]:
    """Jobs, stages, executor run time and shuffle bytes of every job run
    under ``group``, from the status tracker and status store.

    ``last_stage_tasks`` / ``last_stage_run_s`` describe the final
    non-skipped stage of the last job: for a cogrouped sweep that is the
    stage running the per-pair Python function.
    """
    from py4j.protocol import Py4JJavaError

    tracker = sc.statusTracker()
    store = sc._jsc.sc().statusStore()
    deadline = time.monotonic() + timeout_s
    while True:  # the listener bus updates the store asynchronously
        jobs = sorted(tracker.getJobIdsForGroup(group))
        infos = [tracker.getJobInfo(j) for j in jobs]
        stage_ids = sorted({sid for info in infos if info for sid in info.stageIds})
        try:
            stages = [store.lastStageAttempt(sid) for sid in stage_ids]
        except Py4JJavaError:  # a stage the store has not recorded yet
            stages = []
            settled = False
        else:
            settled = all(info and info.status == "SUCCEEDED" for info in infos) and all(
                st.status().toString() in ("COMPLETE", "SKIPPED") for st in stages)
        if settled or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    run = [st for st in stages if st.status().toString() == "COMPLETE"]
    last_job_stages = set(infos[-1].stageIds) if infos and infos[-1] else set()
    last = max((st for st in run if st.stageId() in last_job_stages),
               key=lambda st: st.stageId(), default=None)
    return {
        "jobs": float(len(jobs)),
        "stages": float(len(stage_ids)),
        "task_s": sum(st.executorRunTime() for st in run) / 1e3,
        "shuffle_bytes": float(sum(st.shuffleWriteBytes() for st in run)),
        "last_stage_tasks": float(last.numTasks()) if last else 0.0,
        "last_stage_run_s": last.executorRunTime() / 1e3 if last else 0.0,
    }


@contextmanager
def job_group(sc, group: str):
    sc.setJobGroup(group, group)
    try:
        yield
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
