"""Golden replay: ``evaluate_pair`` (no Spark) reproduces archived rows.

Pairs are replayed exactly as the cogrouped sweep hands them over (rows
in ``rid`` order) and every numeric column must equal the archived
``results/table{1,2}_raw.csv`` value exactly, NaN equal to NaN.
"""
import pathlib

import numpy as np
import pandas as pd
import pytest

from repro.core.evaluate import evaluate_pair
from repro.experiments import table1, table2
from repro.opendata import generate_collection

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"
KEY_COLS = ["pair_id", "method", "estimator"]
NUM_COLS = ["join_size", "mi_sketch", "mi_full", "full_join_size"]


def _archived(csv: str, pair_id: int, collection: str | None = None) -> pd.DataFrame:
    df = pd.read_csv(RESULTS / csv, float_precision="round_trip")
    if collection is not None:
        df = df[df["collection"] == collection]
    return df[df["pair_id"] == pair_id]


def _assert_rows_equal(got: pd.DataFrame, want: pd.DataFrame) -> None:
    g = got.sort_values(KEY_COLS).reset_index(drop=True)
    w = want.sort_values(KEY_COLS).reset_index(drop=True)
    assert g[KEY_COLS].values.tolist() == w[KEY_COLS].values.tolist()
    for col in NUM_COLS:
        a, b = g[col].to_numpy(np.float64), w[col].to_numpy(np.float64)
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        assert same.all(), (col, g.loc[~same, KEY_COLS].values.tolist(), a[~same], b[~same])


def _by_rid(df: pd.DataFrame) -> pd.DataFrame:
    return df.drop(columns="pair_id").sort_values("rid").reset_index(drop=True)


@pytest.fixture(scope="module")
def table1_workload():
    return table1.build_workload()


@pytest.mark.parametrize("pair_id", [0, 3, 30, 45])  # Trinomial / CDUnif x KeyInd / KeyDep
def test_table1_pair_matches_archive(table1_workload, pair_id):
    wl = table1_workload
    meta = wl.meta.set_index("pair_id").loc[pair_id]
    train = _by_rid(wl.train_tall[wl.train_tall["pair_id"] == pair_id])
    cand = _by_rid(wl.cand_tall[wl.cand_tall["pair_id"] == pair_id])
    got = evaluate_pair(
        pair_id, train, cand, n=table1.SKETCH_N, methods=table1.METHODS,
        estimators=table1.ESTIMATORS[meta["dataset"]], agg="avg", compute_full=False,
    )
    _assert_rows_equal(got, _archived("table1_raw.csv", pair_id))


@pytest.fixture(scope="module")
def nyc_pairs():
    return generate_collection("nyc", 10, seed=0)


@pytest.mark.parametrize(
    "pair_id,route",
    [
        (0, ("dc_ksg", "avg")),
        (3, ("mle", "mode")),
        (5, ("mixed_ksg", "avg")),
        (9, ("dc_ksg", "mode")),
    ],
)
def test_table2_nyc_pair_matches_archive(nyc_pairs, pair_id, route):
    pair = nyc_pairs[pair_id]
    train, cand, est, agg = table2.route(pair.train, pair.cand)
    assert (est, agg) == route
    got = evaluate_pair(
        pair_id, train, cand, n=table2.SKETCH_N, methods=table2.METHODS,
        estimators=((est, "none"),), agg=agg, compute_full=True,
    )
    _assert_rows_equal(got, _archived("table2_raw.csv", pair_id, "nyc"))
