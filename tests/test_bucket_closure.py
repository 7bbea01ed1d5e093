"""Every selection rule is closed under supersets of its output.

The Spark builders run a rule on each key bucket, collect the kept rows
with their fields, and run it once more on their union. That equals the
rule on the whole table for any split of the table into buckets of whole
keys; this checks it without Spark.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import RULES, Side

_COLLIDING = [-1029051052717387374, -4600665373352889637]  # both h(k) = 938626867
_KEYS = {
    "int": st.integers(-3, 12),
    "colliding": st.sampled_from(_COLLIDING + [0, 1, 2]),
    "str": st.sampled_from(["a", "b", "é", "键", "", "None", None]),
}
_SIDES = ["train", "avg", "count", "mode", "first"]


@st.composite
def split_tables(draw):
    """A table, a split of its keys into buckets, and a sketch size n."""
    kind = draw(st.sampled_from(sorted(_KEYS)))
    keys = draw(st.lists(_KEYS[kind], max_size=60))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, np.nan]), min_size=len(keys), max_size=len(keys)))
    keys = np.array(keys, dtype=np.int64 if kind != "str" else object)
    codes, uniques = pd.factorize(keys, use_na_sentinel=False)
    bucket_of_key = draw(st.lists(st.integers(0, 3), min_size=len(uniques), max_size=len(uniques)))
    return keys, np.array(values), np.array(bucket_of_key, dtype=np.int64)[codes], draw(st.integers(1, 20))


@pytest.mark.filterwarnings("ignore:The behavior of DataFrame concatenation:FutureWarning")
@pytest.mark.parametrize("side", _SIDES)
@pytest.mark.parametrize("method", list(RULES))
@settings(max_examples=40, deadline=None)
@given(table=split_tables())
def test_rule_on_bucket_union_equals_rule_on_table(method, side, table):
    keys, values, bucket, n = table
    rules = RULES[method]

    def rule(s):
        return rules.select_train(s, n) if side == "train" else rules.select_cand(s, n, side)

    frames = []
    for b in np.unique(bucket):
        rows = np.flatnonzero(bucket == b)
        part = Side(keys[rows], values[rows], n_total=len(keys), pos=rows)
        frames.append(rule(part).frame())
    union = pd.concat(frames) if frames else Side(keys, values).frame()
    got = rule(Side.union(union, len(keys))).sketch()
    want = rule(Side(keys, values)).sketch()
    np.testing.assert_array_equal(got.key_hash, want.key_hash)
    # Value dtypes are the engine's: each bucket's frame infers its own
    # (MODE of an all-NaN key is None), a typed Spark column does not.
    np.testing.assert_array_equal(got.values.astype(float), want.values.astype(float))
