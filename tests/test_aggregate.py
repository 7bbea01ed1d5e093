"""Tests for the featurization function AGG (paper Section III-B)."""
import numpy as np
import pandas as pd
import pytest

from repro.sketch.base import AGG_FUNCTIONS, aggregate_cand

# Paper Example 2: K_Z = [a,b,b,b,c,c,c], Z = [1,2,2,5,0,3,3]
KZ = np.array(list("abbbccc"), dtype=object)
Z = np.array([1, 2, 2, 5, 0, 3, 3], dtype=np.float64)


def _as_map(df: pd.DataFrame) -> dict:
    return dict(zip(df["key"], df["value"]))


def test_example2_avg():
    assert _as_map(aggregate_cand(KZ, Z, "avg")) == {"a": 1.0, "b": 3.0, "c": 2.0}


def test_example2_mode():
    assert _as_map(aggregate_cand(KZ, Z, "mode")) == {"a": 1.0, "b": 2.0, "c": 3.0}


def test_example2_count():
    assert _as_map(aggregate_cand(KZ, Z, "count")) == {"a": 1, "b": 3, "c": 3}


def test_example2_first():
    assert _as_map(aggregate_cand(KZ, Z, "first")) == {"a": 1.0, "b": 2.0, "c": 0.0}


def test_example2_join_recovery():
    """Joining K_Y = [a,a,b,c] against the AVG featurization must yield
    X = [1,1,3,2] (paper Example 2)."""
    ky = pd.DataFrame({"key": list("aabc")})
    aug = aggregate_cand(KZ, Z, "avg")
    joined = ky.merge(aug, on="key", how="left")
    assert joined["value"].tolist() == [1.0, 1.0, 3.0, 2.0]


def test_mode_tie_broken_by_first_appearance():
    keys = np.array(["k"] * 4, object)
    vals = np.array([7.0, 9.0, 9.0, 7.0])
    assert _as_map(aggregate_cand(keys, vals, "mode")) == {"k": 7.0}


def test_keys_in_first_appearance_order():
    out = aggregate_cand(np.array(list("bab"), object), np.arange(3.0), "first")
    assert out["key"].tolist() == ["b", "a"]


def test_unique_keys_identity_for_value_preserving_aggs():
    keys = np.array([f"k{i}" for i in range(50)], object)
    vals = np.random.default_rng(0).normal(size=50)
    for agg in ("avg", "mode", "first"):
        out = aggregate_cand(keys, vals, agg)
        assert np.allclose(out["value"].to_numpy().astype(float), vals)


def test_string_values_mode_and_first():
    keys = np.array(["x", "x", "x", "y"], object)
    vals = np.array(["red", "blue", "red", "green"], object)
    assert _as_map(aggregate_cand(keys, vals, "mode")) == {"x": "red", "y": "green"}
    assert _as_map(aggregate_cand(keys, vals, "first")) == {"x": "red", "y": "green"}


def test_unknown_agg_raises():
    with pytest.raises(ValueError):
        aggregate_cand(KZ, Z, "median")


def test_all_aggs_listed():
    assert set(AGG_FUNCTIONS) == {"avg", "count", "mode", "first"}


def _mode_reference(keys: np.ndarray, values: np.ndarray) -> pd.DataFrame:
    """MODE as a per-group Python function: most frequent value, ties
    broken by first appearance, None for a key with only NULL values."""
    df = pd.DataFrame({"key": keys, "value": values})

    def _mode_first_seen(s: pd.Series):
        counts = s.value_counts()
        top = set(counts[counts == counts.max()].index)
        for v in s:
            if v in top:
                return v

    out = df.groupby("key", sort=False)["value"].agg(_mode_first_seen)
    return pd.DataFrame({"key": out.index.to_numpy(), "value": out.to_numpy()})


def _random_table(rng, case: int):
    n = int(rng.integers(0, 30))
    raw = rng.integers(0, int(rng.integers(1, 6)), n)
    keys = raw if case % 2 else np.array([f"k{v}" for v in raw], object)
    vals = rng.integers(0, 3, n).astype(float)  # few distinct values: many ties
    nulls = rng.random(n) < 0.3
    if case % 4 == 1:
        vals[nulls] = np.nan
    elif case % 4 >= 2:
        vals = np.array([f"v{v:.0f}" for v in vals], object)
        vals[nulls] = None if case % 4 == 2 else np.nan
    return keys, vals


def test_mode_matches_reference_on_random_tables():
    rng = np.random.default_rng(0)
    for case in range(200):
        keys, vals = _random_table(rng, case)
        got, want = aggregate_cand(keys, vals, "mode"), _mode_reference(keys, vals)
        for col in ("key", "value"):
            g, w = got[col].to_numpy(), want[col].to_numpy()
            assert g.dtype == w.dtype, (case, col)
            # Strict: None and NaN are different results here.
            assert [(type(a), a if a == a else "nan") for a in g.tolist()] == [
                (type(b), b if b == b else "nan") for b in w.tolist()
            ], (case, col)
