"""Tests for the per-pair evaluation logic (core/evaluate.py)."""
import numpy as np
import pandas as pd
import pytest

from repro import hashing
from repro.core.evaluate import _prepare, evaluate_pair, full_join_pairs_pandas
from repro.sketch import METHODS, build_pair
from repro.sketch import base as sketch_base
from repro.synthgen import cdunif, decompose, trinomial


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(44)
    x, y, _ = cdunif.sample(30, 1500, rng)
    return decompose(x, y, "keydep")


def test_prepare_mle_passthrough():
    x = np.array(["a", "b"], object)
    y = np.array(["u", "v"], object)
    px, py = _prepare(x, y, "mle", "none", np.random.default_rng(0))
    assert (px == x).all() and (py == y).all()


def test_prepare_mixed_casts_to_float():
    px, py = _prepare(np.array([1, 2]), np.array([3, 4]), "mixed_ksg", "none", np.random.default_rng(0))
    assert px.dtype == np.float64 and py.dtype == np.float64


def test_prepare_jitter_breaks_ties():
    y = np.zeros(100)
    _, py = _prepare(np.zeros(100), y, "dc_ksg", "y", np.random.default_rng(0))
    assert len(np.unique(py)) == 100
    assert np.abs(py).max() < 0.01  # low-magnitude noise


def test_prepare_jitter_deterministic_per_rng():
    _, a = _prepare(np.zeros(10), np.zeros(10), "dc_ksg", "y", np.random.default_rng(7))
    _, b = _prepare(np.zeros(10), np.zeros(10), "dc_ksg", "y", np.random.default_rng(7))
    assert (a == b).all()


def test_evaluate_pair_rows_per_method_and_estimator(pair):
    res = evaluate_pair(
        5, pair.train, pair.cand, n=64,
        methods=("tupsk", "lv2sk", "csk"),
        estimators=(("mixed_ksg", "none"), ("dc_ksg", "none")),
        compute_full=True,
    )
    assert len(res) == 3 * 2 + 2  # methods x estimators + full rows
    assert (res["pair_id"] == 5).all()
    assert set(res.loc[res["method"] != "full", "method"]) == {"tupsk", "lv2sk", "csk"}


def test_evaluate_pair_full_matches_direct(pair):
    res = evaluate_pair(
        0, pair.train, pair.cand, n=32, methods=("tupsk",),
        estimators=(("mixed_ksg", "none"),), compute_full=True,
    )
    from repro.mi import estimate_mi

    fy, fx = full_join_pairs_pandas(pair.train, pair.cand, "avg")
    expected = estimate_mi(fx.astype(float), fy.astype(float), "mixed_ksg")
    assert res[res["method"] == "full"]["mi_full"].iloc[0] == pytest.approx(expected, rel=1e-9)


def test_evaluate_pair_deterministic(pair):
    kw = dict(n=64, methods=("tupsk", "indsk"), estimators=(("mixed_ksg", "none"),), compute_full=False)
    a = evaluate_pair(1, pair.train, pair.cand, **kw)
    b = evaluate_pair(1, pair.train, pair.cand, **kw)
    pd.testing.assert_frame_equal(a, b)


def test_evaluate_pair_estimator_label_includes_jitter(pair):
    res = evaluate_pair(
        0, pair.train, pair.cand, n=32, methods=("tupsk",),
        estimators=(("dc_ksg", "y"),), compute_full=False,
    )
    assert res["estimator"].iloc[0] == "dc_ksg|y"


def test_full_join_pairs_pandas_drops_unmatched(pair):
    cand = pair.cand[pair.cand["key"] != pair.cand["key"].iloc[0]].reset_index(drop=True)
    fy, fx = full_join_pairs_pandas(pair.train, cand, "avg")
    dropped = (pair.train["key"] == pair.cand["key"].iloc[0]).sum()
    assert len(fy) == len(pair.train) - dropped


def test_sketch_estimates_close_to_full_on_easy_pair():
    """Sanity: on a strongly dependent, small-domain pair the sketch
    estimate approximates the full-join estimate (the paper's central
    claim, qualitatively)."""
    rng = np.random.default_rng(45)
    x, y, _ = cdunif.sample(10, 8000, rng)
    p = decompose(x, y, "keydep")
    res = evaluate_pair(
        0, p.train, p.cand, n=512, methods=("tupsk",),
        estimators=(("mixed_ksg", "none"),), compute_full=True,
    )
    sk = res[res["method"] == "tupsk"].iloc[0]
    assert sk["mi_sketch"] == pytest.approx(sk["mi_full"], abs=0.35)


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_evaluate_pair_prepares_each_side_once(monkeypatch, pair):
    """All five methods select from one hashed train side, one FIRST-
    featurized train side and the AGG- and FIRST-featurized cand sides."""
    hashes = _count_calls(monkeypatch, hashing, "hash_keys")
    aggs = _count_calls(monkeypatch, sketch_base, "aggregate_cand")
    occurrences = _count_calls(monkeypatch, sketch_base, "occurrence_index")
    evaluate_pair(
        0, pair.train, pair.cand, n=64, methods=tuple(METHODS),
        estimators=(("mixed_ksg", "none"),), compute_full=False,
    )
    assert len(hashes) <= 4
    assert sorted(a[2] for a in aggs) == ["avg", "first", "first"]
    assert len(occurrences) == 1


class _MustNotCompute:
    """Stands in for a lazy ``Side`` field; a value set on an instance
    (the featurized side's j = 1) still shadows it."""

    def __get__(self, side, owner=None):
        raise AssertionError("computed a lazy Side field")


def test_indsk_needs_no_occurrence_index_or_codes(monkeypatch, pair):
    monkeypatch.setattr(sketch_base.Side, "j", _MustNotCompute())
    monkeypatch.setattr(sketch_base.Side, "n_k", _MustNotCompute())
    monkeypatch.setattr(sketch_base.Side, "first", _MustNotCompute())
    s_train, s_cand = build_pair(
        "indsk", pair.train["key"].to_numpy(), pair.train["y"].to_numpy(),
        pair.cand["key"].to_numpy(), pair.cand["x"].to_numpy(), 64,
    )
    assert len(s_train) == 64 and len(s_cand) <= 64
