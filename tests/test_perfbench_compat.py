"""The benchmark's tracer (``perfbench/tracing.py``) still binds.

The tracer swaps wrappers in for the public functions of ``src/repro``
by module and name, and fails when a name is gone or bound to another
object. This runs it over one tiny pair, so a refactor that unbinds a
patched name fails here, not only in the benchmark.
"""
import importlib
import pathlib

import numpy as np
import pandas as pd

from repro.core import evaluate
from repro.sketch import METHODS

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _tiny_pair():
    rng = np.random.default_rng(3)
    keys = np.array([f"k{v}" for v in rng.integers(0, 40, 400)], object)
    train = pd.DataFrame({"rid": np.arange(400), "key": keys, "y": rng.normal(size=400)})
    cand_keys = np.array([f"k{v}" for v in rng.integers(0, 60, 300)], object)
    cand = pd.DataFrame({"rid": np.arange(300), "key": cand_keys, "x": rng.normal(size=300)})
    return train, cand


def test_tracer_installs_and_records_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    train, cand = _tiny_pair()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        evaluate.evaluate_pair(
            0, train, cand, n=32, methods=tuple(METHODS),
            estimators=(("mixed_ksg", "none"),), compute_full=True,
        )
    finally:
        tracer.restore()
    names = {s.name for s in tracer.spans}
    assert {
        "core.evaluate.evaluate_pair",
        "core.evaluate.full_join_pairs_pandas",
        "hashing.hash_keys.str",
        "hashing.tuple_u01",
        "hashing.u01",
        "sketch.aggregate_cand.avg",
        "sketch.aggregate_cand.first",
        "sketch.occurrence_index",
        "sketch.join_sketches",
        "mi.mixed_ksg.full",
        "mi.mixed_ksg.sketch",
    } <= names
    assert tracing.layer_metrics(tracer)["sketch.occurrence_index.calls_per_pair"] == 1
