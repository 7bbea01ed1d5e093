"""k-NN mutual information estimators (paper Section II).

Implemented from the primary sources, in numpy (no scipy offline):

* :func:`mi_ksg` — Kraskov, Stögbauer & Grassberger (2004), algorithm 1,
  for continuous-continuous pairs.
* :func:`mi_mixed_ksg` — Gao, Kannan, Oh & Viswanath (NeurIPS 2017),
  for discrete-continuous *mixtures* in either variable; recovers the
  plug-in estimator on purely discrete regions.
* :func:`mi_dc_ksg` — Ross (PLoS ONE 2014), for a discrete X paired
  with a continuous Y.

All estimators use the Chebyshev (max) metric in the joint space and
natural logs, default ``k = 3``, and clip estimates at 0. KSG and
MixedKSG return NaN when x or y holds a NaN.

Joint k-NN distances come from an exact band scan (:func:`_band_knn`):
the points are sorted along one coordinate, and each point measures
its distance to ever larger blocks of sorted-order neighbours on both
sides until the gap along the sort axis at the edge of what it has
examined is at least its current k-th best distance. Nothing beyond
that edge can come closer, so the result equals brute force bit for
bit. On the samples here a point stops after a few dozen neighbours;
only points crowded along the sort axis but far apart on the other
need long scans (quadratic at worst, like brute force).
DC-KSG's within-class radius is exact from the k sorted neighbours on
each side (:func:`_class_knn_radius`). Marginal neighbourhood counts
use one sort per marginal plus searchsorted, O(n log n). No step holds
more than ``_CHUNK * n`` floats.
"""
from __future__ import annotations

import numpy as np

from .special import digamma

#: Memory budget: one band-scan step holds at most ``_CHUNK * n`` floats.
_CHUNK = 256
#: Sorted-order offsets every point examines first on each side; each
#: later round doubles the examined window.
_FIRST_BLOCK = 8


def _as_float_col(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).reshape(-1)


def _n_distinct(a_sorted: np.ndarray) -> int:
    return int(len(a_sorted) > 0) + int(np.count_nonzero(a_sorted[1:] != a_sorted[:-1]))


def _joint_knn(
    x: np.ndarray, y: np.ndarray, k: int, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point k-th NN Chebyshev distance in (x, y), and count of
    exact duplicates (d_ij == 0, j != i).

    ``xs`` and ``ys`` are x and y sorted. The scan runs along whichever
    has more distinct values; the metric is symmetric, so either is exact.
    """
    if _n_distinct(ys) > _n_distinct(xs):
        x, y = y, x
    return _band_knn(x, y, k)


def _band_knn(a: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_joint_knn` by a band scan along ``a``.

    Points are sorted by (a, b). Round one compares each point with
    the ``_FIRST_BLOCK`` sorted positions on either side, and every
    later round with the block that doubles its window; a point keeps
    the k smallest distances seen. Every point outside a window of w
    is at least ``|a[i +- (w+1)] - a[i]|`` away, so a point closes
    once each side has reached the end of the sample or a gap of at
    least its k-th best. The distances examined are computed exactly
    as brute force computes them and ranked the same way (the point
    itself as +inf, NaN last; out-of-range positions read NaN), so the
    k-th smallest is the same float, NaN and inf input included.
    Exact duplicates are adjacent in this order, so ``zeros`` is the
    run length of equal finite (a, b) less one.
    """
    n = len(a)
    order = np.lexsort((b, a))
    a_s, b_s = a[order], b[order]
    # |inf - inf| is NaN, not 0: only finite points can be duplicates.
    same = (a_s[1:] == a_s[:-1]) & (b_s[1:] == b_s[:-1]) & np.isfinite(a_s[1:] + b_s[1:])
    run = np.diff(np.flatnonzero(np.concatenate(([True], ~same, [True]))))
    zeros = np.empty(n, dtype=np.int64)
    zeros[order] = np.repeat(run - 1, run)

    w_max = _FIRST_BLOCK
    while w_max < n - 1:
        w_max *= 2
    pad = w_max + 1  # sorted position p sits at p + pad
    fill = np.full(pad, np.nan)
    a_p, b_p = np.concatenate((fill, a_s, fill)), np.concatenate((fill, b_s, fill))

    # Brute force ranks a point's own distance as +inf and NaN last.
    best = np.full((n, k), np.nan)
    best[:, 0] = np.inf
    open_ = np.arange(n)
    lo, w = 0, _FIRST_BLOCK
    while open_.size:
        step = np.arange(lo + 1, w + 1)
        offs = np.concatenate((-step[::-1], step)) + pad
        rows = max(1, _CHUNK * n // (3 * len(offs)))  # pos, d and t together
        for s in range(0, open_.size, rows):
            _scan_block(a_p, b_p, pad, open_[s : s + rows], offs, best)
        if w >= n - 1:
            break
        kth, a_o = best[open_, k - 1], a_s[open_]
        right, left = open_ + (w + 1), open_ - (w + 1)
        closed = (right >= n) | (a_p[right + pad] - a_o >= kth)
        closed &= (left < 0) | (a_o - a_p[left + pad] >= kth)
        open_ = open_[~closed]
        lo, w = w, 2 * w
    rho = np.empty(n)
    rho[order] = best[:, k - 1]
    return rho, zeros


def _scan_block(
    a_p: np.ndarray, b_p: np.ndarray, pad: int, p: np.ndarray, offs: np.ndarray, best: np.ndarray
) -> None:
    """Fold the distances from sorted positions ``p`` to the padded
    positions ``p + offs`` into ``best``, the k smallest so far per
    position (NaN last), in place."""
    k = best.shape[1]
    pos = p[:, None] + offs
    d = np.take(a_p, pos)
    d -= a_p[p + pad, None]
    np.abs(d, out=d)
    t = np.take(b_p, pos)
    t -= b_p[p + pad, None]
    np.abs(t, out=t)
    np.maximum(d, t, out=d)
    if d.shape[1] > k:
        d.partition(k - 1, axis=1)
    merged = np.concatenate((best[p], d[:, :k]), axis=1)
    merged.partition(k - 1, axis=1)
    best[p] = merged[:, :k]


def _marginal_count(
    a: np.ndarray, a_sorted: np.ndarray, radius: np.ndarray, *, inclusive: bool
) -> np.ndarray:
    """#{j != i : |a_j - a_i| < radius_i}  (or <= when inclusive);
    ``a_sorted`` is ``a`` sorted."""
    if inclusive:
        hi = np.searchsorted(a_sorted, a + radius, side="right")
        lo = np.searchsorted(a_sorted, a - radius, side="left")
    else:
        hi = np.searchsorted(a_sorted, a + radius, side="left")
        lo = np.searchsorted(a_sorted, a - radius, side="right")
    count = hi - lo
    # Self is inside its own neighborhood whenever it qualifies
    # (always for inclusive; for strict only when radius > 0).
    self_in = np.ones_like(count) if inclusive else (radius > 0).astype(count.dtype)
    return count - self_in


def _class_knn_radius(y: np.ndarray, codes: np.ndarray, k: int) -> np.ndarray:
    """Per point, the distance in y to its min(k, class size - 1)-th
    nearest neighbour within its class (``codes``); 0 in a singleton
    class.

    In 1-D those neighbours are among the k sorted neighbours on each
    side within the class, so one sort by (class, y) and 2k shifted
    differences give the exact radius. The candidates are ranked as in
    a pairwise distance matrix with the diagonal set to +inf: finite
    distances, then the point itself (+inf), then NaN, which also
    stands for other-class neighbours.
    """
    n = len(y)
    order = np.lexsort((y, codes))
    y_s, c_s = y[order], codes[order]
    d = np.full((n, 2 * k + 1), np.nan)
    d[:, 0] = np.inf  # the point itself
    for o in range(1, min(k, n - 1) + 1):
        gap = np.abs(y_s[o:] - y_s[:-o])
        gap[c_s[o:] != c_s[:-o]] = np.nan
        d[:-o, 2 * o - 1] = gap  # neighbour o places after
        d[o:, 2 * o] = gap  # neighbour o places before
    d.sort(axis=1)
    kc = np.minimum(k, np.bincount(codes)[c_s] - 1)
    radius = np.empty(n)
    radius[order] = np.where(kc > 0, d[np.arange(n), np.maximum(kc - 1, 0)], 0.0)
    return radius


def mi_ksg(x: np.ndarray, y: np.ndarray, k: int = 3) -> float:
    """KSG algorithm-1 estimate of I(X;Y) for continuous samples, nats."""
    x, y = _as_float_col(x), _as_float_col(y)
    n = len(x)
    if n != len(y):
        raise ValueError("x and y must be the same length")
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    if n <= k:
        return 0.0
    xs, ys = np.sort(x), np.sort(y)
    rho, _ = _joint_knn(x, y, k, xs, ys)
    nx = _marginal_count(x, xs, rho, inclusive=False)
    ny = _marginal_count(y, ys, rho, inclusive=False)
    est = digamma(k) + digamma(n) - np.mean(digamma(nx + 1.0) + digamma(ny + 1.0))
    return max(0.0, float(est))


def mi_mixed_ksg(x: np.ndarray, y: np.ndarray, k: int = 3) -> float:
    """Gao et al. mixed-KSG estimate of I(X;Y), nats.

    Handles repeated values (discrete components) by switching to the
    plug-in count k~_i at points whose k-th neighbor distance is 0.
    """
    x, y = _as_float_col(x), _as_float_col(y)
    n = len(x)
    if n != len(y):
        raise ValueError("x and y must be the same length")
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    if n <= k:
        return 0.0
    xs, ys = np.sort(x), np.sort(y)
    rho, zeros = _joint_knn(x, y, k, xs, ys)
    is_tie = rho == 0.0
    # Counting conventions follow Gao et al.'s reference implementation
    # (wgao9/mixed_KSG): counts include the point itself; at tied points
    # (rho == 0) the ball is the tie set, elsewhere it is the open ball
    # of radius rho; psi() replaces the paper's log(n+1).
    k_tilde = np.where(is_tie, zeros + 1.0, float(k))
    nx_strict = _marginal_count(x, xs, rho, inclusive=False) + 1.0
    ny_strict = _marginal_count(y, ys, rho, inclusive=False) + 1.0
    nx_tie = _marginal_count(x, xs, np.zeros_like(rho), inclusive=True) + 1.0
    ny_tie = _marginal_count(y, ys, np.zeros_like(rho), inclusive=True) + 1.0
    nx = np.where(is_tie, nx_tie, nx_strict)
    ny = np.where(is_tie, ny_tie, ny_strict)
    est = np.mean(digamma(k_tilde) + np.log(n) - digamma(nx) - digamma(ny))
    return max(0.0, float(est))


def mi_dc_ksg(x_discrete: np.ndarray, y: np.ndarray, k: int = 3) -> float:
    """Ross's discrete-continuous estimate of I(X;Y), nats.

    ``x_discrete`` may hold any hashable values (strings, ints); ``y``
    must be numeric. Points whose discrete class has a single member
    carry no neighbor information and are excluded, as in Ross's
    reference implementation.
    """
    import pandas as pd

    y = _as_float_col(y)
    x_codes, _ = pd.factorize(np.asarray(x_discrete), use_na_sentinel=False)
    n = len(y)
    if n != len(x_codes):
        raise ValueError("x and y must be the same length")
    if n <= k:
        return 0.0
    class_counts = np.bincount(x_codes)
    n_xi = class_counts[x_codes]
    usable = n_xi > 1
    if usable.sum() == 0:
        return 0.0
    k_eff = np.minimum(k, n_xi - 1).astype(np.float64)
    radius = _class_knn_radius(y, x_codes, k)
    m = _marginal_count(y, np.sort(y), radius, inclusive=True)
    u = usable
    est = (
        digamma(n)
        - np.mean(digamma(n_xi[u].astype(np.float64)))
        + np.mean(digamma(np.maximum(k_eff[u], 1.0)))
        - np.mean(digamma(np.maximum(m[u].astype(np.float64), 1.0)))
    )
    return max(0.0, float(est))
