"""Distributed sketch construction: the numpy selection rules, run per key bucket.

This is the deployment path the paper describes (Section IV): sketches
are built *offline* over large tables in one distributed pass, and only
the <= 2n-row sketch is collected; discovery-time work (sketch join +
MI estimation) is then driver-local and cheap.

Each method's selection rule exists once, in ``repro.sketch.<method>``,
and a builder runs it twice. First per key bucket,
``pmod(hash(key), parallelism)``, in ``applyInPandas``: a bucket holds
whole keys and becomes, in ``rid`` order, a :class:`~repro.sketch.Side`
with ``pos = rid`` and the table's row count. Then once more on the
union of the kept rows (at most buckets x 2n), collected with their
fields. A rule is a bottom-n over a score computed from a row's own
fields, plus LV2SK/PRISK's per-key cap, so on any superset of its
output it keeps the same rows: the builders return the numpy core's
sketches byte for byte (the tests assert it per method).

Row identity: ``rid`` must be the row's position in the table (0..N-1),
as in the numpy arrays. Every rule breaks ties by it, and INDSK's train
rule samples it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import from_arrow_type, to_arrow_type
from pyspark.sql.types import DataType, DoubleType, FloatType, FractionalType, IntegralType, LongType
from pyspark.sql.types import StructField, StructType

from repro import hashing
from repro.mi import MIN_SAMPLE, estimate_mi
from repro.sketch import RULES, Side, Sketch, join_sketches


def _rules(method: str):
    if method not in RULES:
        raise ValueError(f"unknown sketch method {method!r}")
    return RULES[method]


def spark_train_sketch(
    df: DataFrame,
    *,
    n: int,
    method: str,
    key_col: str = "key",
    val_col: str = "y",
    rid_col: str = "rid",
) -> Sketch:
    """Build the train-side (left table) sketch."""
    rules = _rules(method)
    return _select(df, lambda side: rules.select_train(side, n), key_col, val_col, rid_col)


def spark_cand_sketch(
    df: DataFrame,
    *,
    n: int,
    method: str,
    agg: str = "avg",
    key_col: str = "key",
    val_col: str = "x",
    rid_col: str = "rid",
) -> Sketch:
    """Build the candidate-side sketch: featurize, then select n keys."""
    rules = _rules(method)
    return _select(df, lambda side: rules.select_cand(side, n, agg), key_col, val_col, rid_col)


def _select(df: DataFrame, rule, key_col: str, val_col: str, rid_col: str) -> Sketch:
    """``rule`` per key bucket, then on the union of the kept rows."""
    df = df.select(F.col(rid_col).alias("rid"), F.col(key_col).alias("key"), F.col(val_col).alias("val"))
    key_type, key = df.schema["key"].dataType, F.col("key")
    if isinstance(key_type, (FloatType, DoubleType)):
        key = F.nanvl(key, F.lit(None).cast(key_type))  # pandas holds NULL as NaN
    n_total, ints, ints_or_null = df.agg(F.count(F.lit(1)), *_hashed_as_ints(key, key_type)).first()
    buckets = F.pmod(F.hash(key), F.lit(df.sparkSession.sparkContext.defaultParallelism))

    def select_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("rid", kind="stable")
        keys = pdf["key"].to_numpy()
        if not ints_or_null:
            keys = keys.astype(object)  # hashed as strings, as in the whole column
        side = Side(keys, pdf["val"].to_numpy(), n_total=n_total, pos=pdf["rid"].to_numpy(np.int64))
        if not ints:
            side.kh = hashing.hash_keys(keys.astype(object))
        return rule(side).frame()

    schema = StructType(
        [StructField("key", key_type), StructField("val", _value_type(df.schema["val"].dataType, rule))]
        + [StructField(f, LongType()) for f in Side.FIELDS]
    )
    kept = df.groupBy(buckets).applyInPandas(select_bucket, schema).toPandas()
    return rule(Side.union(kept, n_total)).sketch()


def _hashed_as_ints(key: Column, key_type: DataType) -> tuple[Column, Column]:
    """Whether ``hash_keys`` encodes the whole key column as integers,
    and whether it does so once the NULL keys are dropped (as they are
    from a featurized side). ``encode_values`` decides per array, so a
    bucket must hash its keys as the whole column would, not as itself."""
    if isinstance(key_type, IntegralType):
        return F.bool_and(key.isNotNull()), F.bool_and(F.lit(True))
    if isinstance(key_type, FractionalType):
        integral = (key == F.floor(key)) & (F.abs(key) < 2.0**62)  # NULL on NULL
        return F.bool_and(F.coalesce(integral, F.lit(False))), F.bool_and(integral)
    return F.bool_and(F.lit(True)), F.bool_and(F.lit(True))  # strings: value by value


def _value_type(val_type: DataType, rule) -> DataType:
    """Spark type of the values ``rule`` keeps: the column's own, or what
    its AGG makes of it (AVG gives doubles, COUNT longs), read off the
    rule applied to an empty side."""
    dtype = np.dtype(to_arrow_type(val_type).to_pandas_dtype())
    kept = rule(Side(np.empty(0), np.empty(0, dtype))).values.dtype
    return val_type if kept == dtype else from_arrow_type(pa.from_numpy_dtype(kept))


def sketch_mi_estimate(
    train_df: DataFrame,
    cand_df: DataFrame,
    *,
    n: int,
    method: str,
    estimator: str,
    agg: str = "avg",
    key_col: str = "key",
    y_col: str = "y",
    x_col: str = "x",
    rid_col: str = "rid",
) -> dict:
    """End-to-end sketch path: build both sketches distributed, join the
    collected sketches, estimate MI. Returns estimate + join size; the
    estimate is NaN on fewer than ``MIN_SAMPLE`` joined rows."""
    s_train = spark_train_sketch(
        train_df, n=n, method=method, key_col=key_col, val_col=y_col, rid_col=rid_col
    )
    s_cand = spark_cand_sketch(
        cand_df, n=n, method=method, agg=agg, key_col=key_col, val_col=x_col, rid_col=rid_col
    )
    y, x = join_sketches(s_train, s_cand)
    mi = estimate_mi(x, y, estimator) if len(y) >= MIN_SAMPLE else np.nan
    return {
        "mi": mi,
        "join_size": len(y),
        "train_sketch_size": len(s_train),
        "cand_sketch_size": len(s_cand),
    }
