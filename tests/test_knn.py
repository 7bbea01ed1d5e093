"""Tests for the k-NN MI estimators (KSG, MixedKSG, DC-KSG)."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mi import digamma, estimate_mi, mi_dc_ksg, mi_ksg, mi_mixed_ksg, mi_mle
from repro.mi import knn
from repro.mi.true_mi import cdunif_true_mi, mi_bivariate_normal


def _gaussian_pair(r, n, seed=0):
    rng = np.random.default_rng(seed)
    z1, z2 = rng.normal(size=n), rng.normal(size=n)
    return z1, r * z1 + math.sqrt(1 - r * r) * z2


@pytest.mark.parametrize("r", [0.0, 0.5, 0.8, 0.95])
def test_ksg_gaussian_closed_form(r):
    x, y = _gaussian_pair(r, 4000, seed=int(r * 100))
    assert mi_ksg(x, y) == pytest.approx(mi_bivariate_normal(r), abs=0.08)


def test_ksg_independent_near_zero():
    x, y = _gaussian_pair(0.0, 3000, seed=9)
    assert mi_ksg(x, y) < 0.05


def test_ksg_symmetric():
    x, y = _gaussian_pair(0.7, 800, seed=1)
    assert mi_ksg(x, y) == pytest.approx(mi_ksg(y, x), abs=1e-10)


def test_ksg_affine_invariant():
    x, y = _gaussian_pair(0.7, 1500, seed=2)
    assert mi_ksg(3.0 * x + 10.0, -2.0 * y + 5.0) == pytest.approx(mi_ksg(x, y), abs=0.05)


def test_ksg_small_sample_returns_zero():
    assert mi_ksg(np.arange(3.0), np.arange(3.0)) == 0.0


@pytest.mark.parametrize("m", [4, 8, 32])
def test_mixed_ksg_cdunif_closed_form(m):
    rng = np.random.default_rng(m)
    x = rng.integers(0, m, 4000).astype(float)
    y = x + rng.uniform(0, 2, 4000)
    assert mi_mixed_ksg(x, y) == pytest.approx(cdunif_true_mi(m), abs=0.12)


def test_mixed_ksg_recovers_plugin_on_discrete():
    """Gao et al.: on purely discrete data MixedKSG recovers the
    plug-in estimate."""
    rng = np.random.default_rng(5)
    x = rng.integers(0, 4, 3000).astype(float)
    y = ((x + rng.integers(0, 2, 3000)) % 4).astype(float)
    assert mi_mixed_ksg(x, y) == pytest.approx(mi_mle(x, y), abs=0.02)


def test_mixed_ksg_gaussian():
    x, y = _gaussian_pair(0.8, 3000, seed=3)
    assert mi_mixed_ksg(x, y) == pytest.approx(mi_bivariate_normal(0.8), abs=0.1)


def test_mixed_ksg_consistency_improves_with_n():
    errs = []
    for n in (250, 8000):
        rng = np.random.default_rng(n)
        x = rng.integers(0, 16, n).astype(float)
        y = x + rng.uniform(0, 2, n)
        errs.append(abs(mi_mixed_ksg(x, y) - cdunif_true_mi(16)))
    assert errs[1] < errs[0]


@pytest.mark.parametrize("m", [4, 16])
def test_dc_ksg_cdunif(m):
    rng = np.random.default_rng(m + 100)
    x = rng.integers(0, m, 4000)
    y = x + rng.uniform(0, 2, 4000)
    assert mi_dc_ksg(x, y) == pytest.approx(cdunif_true_mi(m), abs=0.12)


def test_dc_ksg_independent_near_zero():
    rng = np.random.default_rng(6)
    x = rng.integers(0, 5, 3000)
    y = rng.normal(size=3000)
    assert mi_dc_ksg(x, y) < 0.05


def test_dc_ksg_string_classes():
    rng = np.random.default_rng(7)
    labels = np.array(["low", "mid", "high"], object)
    x = rng.integers(0, 3, 2000)
    y = x * 2.0 + rng.uniform(0, 1, 2000)
    assert mi_dc_ksg(labels[x], y) == pytest.approx(mi_dc_ksg(x, y), abs=1e-9)


def test_dc_ksg_singleton_classes_excluded():
    # every class has one member -> no neighbor information -> 0
    x = np.arange(50)
    y = np.arange(50, dtype=float)
    assert mi_dc_ksg(x, y) == 0.0


def test_estimators_nonnegative():
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=500), rng.normal(size=500)
    assert mi_ksg(x, y) >= 0.0
    assert mi_mixed_ksg(x, y) >= 0.0
    assert mi_dc_ksg(rng.integers(0, 3, 500), y) >= 0.0


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        mi_ksg(np.arange(5.0), np.arange(6.0))
    with pytest.raises(ValueError):
        mi_mixed_ksg(np.arange(5.0), np.arange(6.0))
    with pytest.raises(ValueError):
        mi_dc_ksg(np.arange(5), np.arange(6.0))


# ---------- exactness of the fast paths against brute force ----------

def _brute_joint_knn(x, y, k):
    """Reference: chunked brute-force k-th NN Chebyshev distance and
    exact-duplicate count per point."""
    n = len(x)
    rho = np.empty(n)
    zeros = np.empty(n, dtype=np.int64)
    for s in range(0, n, 256):
        e = min(s + 256, n)
        d = np.abs(x[s:e, None] - x[None, :])
        np.maximum(d, np.abs(y[s:e, None] - y[None, :]), out=d)
        rows = np.arange(s, e)
        d[rows - s, rows] = np.inf  # exclude self
        zeros[s:e] = (d == 0.0).sum(axis=1)
        rho[s:e] = np.partition(d, k - 1, axis=1)[:, k - 1]
    return rho, zeros


def _brute_class_radius(y, codes, k):
    """Reference: DC-KSG's per-class pairwise k-NN radius."""
    radius = np.zeros(len(y))
    class_counts = np.bincount(codes)
    for c in np.nonzero(class_counts > 1)[0]:
        members = np.nonzero(codes == c)[0]
        yc = y[members]
        kc = int(min(k, len(yc) - 1))
        d = np.abs(yc[:, None] - yc[None, :])
        d[np.arange(len(yc)), np.arange(len(yc))] = np.inf
        radius[members] = np.partition(d, kc - 1, axis=1)[:, kc - 1]
    return radius


def _column(kind, n, rng):
    if kind == "continuous":
        return rng.normal(size=n)
    if kind == "integer":
        return rng.integers(-3, 4, n).astype(float)
    if kind == "mixed":
        return np.where(rng.random(n) < 0.5, rng.integers(0, 4, n), rng.uniform(0, 4, n))
    if kind == "signed_zero":
        return rng.choice([0.0, -0.0, 1.0, -1.0], n)
    if kind == "huge":
        return rng.normal(size=n) * 1e307  # differences may overflow to inf
    return np.round(rng.normal(size=n), 1)  # "rounded": heavy ties


_KINDS = ("continuous", "integer", "mixed", "signed_zero", "huge", "rounded")


@st.composite
def _samples(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k + 1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _column(draw(st.sampled_from(_KINDS)), n, rng)
    y = _column(draw(st.sampled_from(_KINDS)), n, rng)
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    src = rng.integers(0, n, n)
    x[dup], y[dup] = x[src[dup]], y[src[dup]]  # exact duplicate points
    return x, y, k


@settings(max_examples=150, deadline=None)
@given(_samples())
def test_band_knn_equals_brute_force_on_either_axis(sample):
    x, y, k = sample
    rho, zeros = _brute_joint_knn(x, y, k)
    for a, b in ((x, y), (y, x)):
        got_rho, got_zeros = knn._band_knn(a, b, k)
        np.testing.assert_array_equal(got_rho, rho)
        np.testing.assert_array_equal(got_zeros, zeros)


def _reference_marginal_count(a, radius, *, inclusive):
    """Reference: the marginal count with its own sort of ``a``."""
    order = np.sort(a)
    side = ("right", "left") if inclusive else ("left", "right")
    count = np.searchsorted(order, a + radius, side=side[0]) - np.searchsorted(
        order, a - radius, side=side[1]
    )
    return count - (1 if inclusive else (radius > 0))


def _reference_mixed_ksg(x, y, k):
    """Reference: Gao et al.'s estimator on brute-force kNN, with every
    marginal count sorting its own copy (the estimator sorts each
    marginal once and shares it)."""
    n = len(x)
    rho, zeros = _brute_joint_knn(x, y, k)
    tie = rho == 0.0
    zero = np.zeros_like(rho)
    nx = np.where(tie, _reference_marginal_count(x, zero, inclusive=True),
                  _reference_marginal_count(x, rho, inclusive=False)) + 1.0
    ny = np.where(tie, _reference_marginal_count(y, zero, inclusive=True),
                  _reference_marginal_count(y, rho, inclusive=False)) + 1.0
    k_tilde = np.where(tie, zeros + 1.0, float(k))
    est = np.mean(digamma(k_tilde) + np.log(n) - digamma(nx) - digamma(ny))
    return max(0.0, float(est))


@settings(max_examples=100, deadline=None)
@given(_samples())
def test_mixed_ksg_equals_brute_force_reference(sample):
    x, y, k = sample
    assert mi_mixed_ksg(x, y, k) == _reference_mixed_ksg(x, y, k)


@settings(max_examples=150, deadline=None)
@given(_samples(), st.integers(1, 40), st.booleans())
def test_class_radius_equals_per_class_brute_force(sample, n_classes, with_nan):
    x, y, k = sample
    rng = np.random.default_rng(len(x) * n_classes)
    codes = rng.integers(0, n_classes, len(y))
    if with_nan:
        y = y.copy()
        y[rng.random(len(y)) < 0.1] = np.nan
    np.testing.assert_array_equal(
        knn._class_knn_radius(y, codes, k), _brute_class_radius(y, codes, k)
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_band_scan_terminates_on_non_finite_input(bad):
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=300), rng.normal(size=300)
    x[::7], y[::11] = bad, bad
    with np.errstate(invalid="ignore"):  # inf - inf
        rho, zeros = _brute_joint_knn(x, y, 3)
        for a, b in ((x, y), (y, x)):
            got_rho, got_zeros = knn._band_knn(a, b, 3)
            np.testing.assert_array_equal(got_rho, rho)
            np.testing.assert_array_equal(got_zeros, zeros)


@pytest.mark.parametrize("fn", [mi_ksg, mi_mixed_ksg])
@pytest.mark.parametrize("where", ["x", "y"])
def test_joint_knn_estimators_give_nan_on_nan(fn, where):
    rng = np.random.default_rng(12)
    x, y = rng.normal(size=200), rng.normal(size=200)
    (x if where == "x" else y)[17] = np.nan
    assert math.isnan(fn(x, y))


def test_mixed_ksg_route_gives_nan_on_nan():
    x = np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0])
    assert math.isnan(estimate_mi(x, np.arange(6.0), "mixed_ksg"))


def _adversarial(kind, n, rng):
    if kind == "two_values_tied_runs":
        return rng.integers(0, 2, n).astype(float), np.repeat(np.arange(20.0), n // 20)
    # Dense sort axis, neighbours far apart on the other: every point
    # stays open for ~1,000 sorted positions on each side.
    return np.arange(n) * 0.3, rng.permutation(n).astype(float)


@pytest.mark.parametrize("kind", ["two_values_tied_runs", "dense_sort_axis"])
def test_band_scan_memory_bound_at_20k(kind):
    """No step holds more than ``_CHUNK * n`` floats; the rest is O(n)."""
    n, k = 20_000, 3
    rng = np.random.default_rng(13)
    x, y = _adversarial(kind, n, rng)
    tracemalloc.start()
    try:
        rho, zeros = knn._joint_knn(x, y, k, np.sort(x), np.sort(y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (knn._CHUNK + 64) * n * 8
    rows = rng.choice(n, 200, replace=False)
    d = np.maximum(np.abs(x[rows, None] - x), np.abs(y[rows, None] - y))
    d[np.arange(len(rows)), rows] = np.inf
    np.testing.assert_array_equal(rho[rows], np.partition(d, k - 1, axis=1)[:, k - 1])
    np.testing.assert_array_equal(zeros[rows], (d == 0.0).sum(axis=1))
