"""LV2SK — two-level sampling baseline sketch (paper Section IV-A).

Level 1 performs coordinated KMV sampling over *distinct* join keys
(the n keys with the smallest ``h_u(h(k))``); level 2 caps the rows
kept per selected key at ``n_k = max(1, floor(n * N_k / N))`` so the
sketch size is bounded by 2n. Selection within a key uses the per-row
hash ``h_u(h(<k, j>))`` as the (deterministic) uniform subsample.

The per-tuple inclusion probability is 1 / (m_K * max(1, floor(n N_k / N)))
— *non-uniform* in the key frequency, which is exactly the bias source
TUPSK removes (paper Section IV-B).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .base import Side, kmv
from .base import aggregate_cand, occurrence_index  # noqa: F401  (perfbench patches them here)


def two_level(side: Side, n: int, key_order) -> Side:
    """Level 1 keeps the first n distinct keys of
    ``key_order(N_k, h_u(h(k)))``, ties by the key's first position;
    level 2 keeps, of each kept key, the ``max(1, floor(n N_k / N))``
    rows with the smallest ``h_u(h(<k, j>))``."""
    key_of, _ = pd.factorize(side.first, sort=True)  # keys by first position
    rep = np.empty(key_of.max(initial=-1) + 1, dtype=np.int64)
    rep[key_of] = np.arange(len(key_of))
    chosen = np.zeros(len(rep), dtype=bool)
    chosen[key_order(side.n_k[rep], side.u_key[rep])[:n]] = True
    rows = np.flatnonzero(chosen[key_of])
    cap = np.maximum(1, (n * side.n_k[rows] / side.n_total).astype(np.int64))
    rank = pd.Series(side.u_row[rows]).groupby(key_of[rows]).rank(method="first").to_numpy()
    return side.take(rows[rank <= cap])


def select_train(side: Side, n: int) -> Side:
    return two_level(side, n, lambda counts, u_key: np.argsort(u_key, kind="stable"))


def select_cand(side: Side, n: int, agg: str = "avg") -> Side:
    """Aggregate per key, then KMV over the (now unique) keys."""
    return kmv(side.featurized(agg), n)
