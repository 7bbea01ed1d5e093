"""Spark sketch builders must equal the numpy core byte-for-byte."""
import numpy as np
import pandas as pd
import pytest

from repro.core import pipeline
from repro.sketch import METHODS, build_pair
from repro.synthgen import cdunif, decompose


@pytest.fixture(scope="module")
def keydep_pair():
    rng = np.random.default_rng(21)
    x, y, _ = cdunif.sample(60, 2500, rng)
    return decompose(x, y, "keydep")


@pytest.fixture(scope="module")
def keyind_pair():
    rng = np.random.default_rng(22)
    x, y, _ = cdunif.sample(60, 1500, rng)
    return decompose(x, y, "keyind")


def _assert_same(a, b):
    assert len(a) == len(b)
    assert (a.key_hash == b.key_hash).all()
    np.testing.assert_allclose(a.values.astype(float), b.values.astype(float))


@pytest.mark.parametrize("method", list(METHODS))
def test_train_sketch_spark_equals_numpy_keydep(spark, keydep_pair, method):
    pair = keydep_pair
    expected = METHODS[method][0](pair.train["key"].to_numpy(), pair.train["y"].to_numpy(), 64)
    got = pipeline.spark_train_sketch(
        spark.createDataFrame(pair.train), n=64, method=method, val_col="y"
    )
    _assert_same(expected, got)


@pytest.mark.parametrize("method", list(METHODS))
def test_train_sketch_spark_equals_numpy_keyind(spark, keyind_pair, method):
    pair = keyind_pair
    expected = METHODS[method][0](pair.train["key"].to_numpy(), pair.train["y"].to_numpy(), 100)
    got = pipeline.spark_train_sketch(
        spark.createDataFrame(pair.train), n=100, method=method, val_col="y"
    )
    _assert_same(expected, got)


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("agg", ["avg", "count", "first"])
def test_cand_sketch_spark_equals_numpy(spark, keydep_pair, method, agg):
    pair = keydep_pair
    expected = METHODS[method][1](pair.cand["key"].to_numpy(), pair.cand["x"].to_numpy(), 48, agg)
    got = pipeline.spark_cand_sketch(
        spark.createDataFrame(pair.cand), n=48, method=method, agg=agg, val_col="x"
    )
    _assert_same(expected, got)


@pytest.mark.parametrize("method", list(METHODS))
def test_end_to_end_estimate_matches_numpy_path(spark, keydep_pair, method):
    pair = keydep_pair
    res = pipeline.sketch_mi_estimate(
        spark.createDataFrame(pair.train),
        spark.createDataFrame(pair.cand),
        n=128, method=method, estimator="mixed_ksg",
    )
    from repro.sketch import join_sketches
    from repro.mi import estimate_mi

    st, sc = build_pair(
        method,
        pair.train["key"].to_numpy(), pair.train["y"].to_numpy(),
        pair.cand["key"].to_numpy(), pair.cand["x"].to_numpy(),
        128, agg="avg",
    )
    y, x = join_sketches(st, sc)
    expected_mi = np.nan
    if len(y) >= 4:
        expected_mi = estimate_mi(x.astype(float), y.astype(float), "mixed_ksg")
    assert res["join_size"] == len(y)
    assert res["mi"] == pytest.approx(expected_mi, rel=1e-9, nan_ok=True)


def test_tiny_joins_give_nan(spark):
    """Fewer than evaluate_pair's MIN_SAMPLE joined rows: NaN, as in the sweep."""
    from repro.core import fulljoin

    rid = [0, 1, 2]
    train = spark.createDataFrame(pd.DataFrame({"rid": rid, "key": [1, 2, 3], "y": [0.5, 1.5, 2.5]}))
    cand = spark.createDataFrame(pd.DataFrame({"rid": rid, "key": [1, 2, 9], "x": [1.0, 2.0, 3.0]}))
    res = pipeline.sketch_mi_estimate(train, cand, n=8, method="tupsk", estimator="mixed_ksg")
    assert res["join_size"] == 2 and np.isnan(res["mi"])
    mi, size = fulljoin.full_join_mi(train, cand, estimator="mixed_ksg")
    assert size == 2 and np.isnan(mi)


def test_unknown_method_raises(spark, keydep_pair):
    with pytest.raises(ValueError):
        pipeline.spark_train_sketch(
            spark.createDataFrame(keydep_pair.train), n=8, method="bogus", val_col="y"
        )


def test_tupsk_scales_to_sf01_lineitem(spark):
    """Distributed sketching at benchmark scale: TUPSK over a ~600k-row
    TPC-H-lite lineitem (SF=0.1), shuffle path exercised (broadcast
    joins disabled by the session fixture)."""
    from repro import synth_data

    li = synth_data.lineitem(spark, sf=0.1).selectExpr(
        "monotonically_increasing_id() as rid", "l_orderkey as key", "l_extendedprice as y"
    ).cache()
    try:
        s = pipeline.spark_train_sketch(li, n=512, method="tupsk", val_col="y")
        assert len(s) == 512
        s2 = pipeline.spark_train_sketch(li, n=512, method="lv2sk", val_col="y")
        assert 512 <= len(s2) <= 1024
    finally:
        li.unpersist()


# ---------- hostile inputs: Spark == numpy byte for byte, dtypes included ----------

_COLLIDING = [-1029051052717387374, -4600665373352889637]  # both h(k) = 938626867
_NAN = float("nan")
_NUMPY = {"long": "int64", "string": object, "double": "float64"}


def _hostile_tables():
    """(name, rows, Spark schema, n, cand AGGs): rows are (rid, key,
    value) with rid the row position; the numpy side reads None as NaN,
    as pandas does. Every table checks MODE; AGG decides the value type.
    The key column is not named ``key``."""
    rng = np.random.default_rng(40)
    # The larger colliding key first, so that neither key order nor first
    # appearance alone decides ties between them.
    collide = _COLLIDING + rng.choice(_COLLIDING + list(range(40)), 298).tolist()
    unicode = rng.choice(["ключ", "键", "🔑", "é", "é", "", " ", "None"], 200).tolist()
    floats = rng.choice([0.0, -0.0, _NAN, None, 1.5, 2.0, -3.25], 200).tolist()
    return {
        "colliding": ([(i, k, int(v)) for i, (k, v) in enumerate(zip(collide, rng.integers(0, 5, 300)))],
                      "rid long, k long, val long", 64, ("avg", "count", "mode", "first")),
        "unicode": ([(i, k, float(v)) for i, (k, v) in enumerate(zip(unicode, rng.normal(size=200).round(1)))],
                    "rid long, k string, val double", 16, ("mode", "first")),
        "float_keys": ([(i, k, float(v)) for i, (k, v) in enumerate(zip(floats, rng.integers(0, 4, 200)))],
                       "rid long, k double, val double", 3, ("avg", "mode")),
        "n_ge_N": ([(i, i % 7, float(i % 3)) for i in range(40)], "rid long, k long, val double", 100,
                   ("count", "mode")),
        "empty": ([], "rid long, k long, val double", 8, ("avg", "count", "mode", "first")),
    }


@pytest.fixture(scope="module")
def hostile(spark):
    out = {}
    for name, (rows, schema, n, aggs) in _hostile_tables().items():
        df = spark.createDataFrame(rows, schema).cache()
        types = dict(c.split() for c in schema.split(", "))
        pdf = pd.DataFrame(rows, columns=list(types)).astype({c: _NUMPY[t] for c, t in types.items()})
        out[name] = (df, pdf["k"].to_numpy(), pdf["val"].to_numpy(), n, aggs)
    yield out
    for df, *_ in out.values():
        df.unpersist()


def _assert_identical(got, want):
    assert got.key_hash.dtype == want.key_hash.dtype == np.uint32
    np.testing.assert_array_equal(got.key_hash, want.key_hash)
    assert got.values.dtype == want.values.dtype
    pd.testing.assert_series_equal(pd.Series(got.values), pd.Series(want.values))


@pytest.mark.parametrize("table", ["colliding", "unicode", "float_keys", "n_ge_N", "empty"])
@pytest.mark.parametrize("method", list(METHODS))
def test_hostile_keys_spark_equals_numpy(hostile, table, method):
    """32-bit hash collisions, unicode keys, -0.0/0.0/NaN/NULL float keys,
    n >= N and an empty table, for the train side and the cand side."""
    df, keys, vals, n, aggs = hostile[table]
    got = pipeline.spark_train_sketch(df, n=n, method=method, key_col="k", val_col="val")
    _assert_identical(got, METHODS[method][0](keys, vals, n))
    for agg in aggs:
        got = pipeline.spark_cand_sketch(df, n=n, method=method, agg=agg, key_col="k", val_col="val")
        _assert_identical(got, METHODS[method][1](keys, vals, n, agg))
