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

from repro import hashing

from .base import Side, Sketch, kmv
from .base import aggregate_cand, occurrence_index  # noqa: F401  (perfbench patches them here)


def two_level(side: Side, n: int, key_order) -> Sketch:
    """Level 1 keeps the first n distinct keys of
    ``key_order(N_k, h_u(h(k)))``; level 2 keeps, of each kept key, the
    n_k rows with the smallest ``h_u(h(<k, j>))``."""
    codes = side.codes
    counts = np.bincount(codes)
    first_rows = np.zeros(len(counts), dtype=np.int64)
    first_rows[codes[::-1]] = np.arange(len(codes) - 1, -1, -1)
    selected = key_order(counts, hashing.u01(side.kh[first_rows]))[:n]
    sel_mask = np.isin(codes, selected)
    u_row = hashing.tuple_u01(side.kh, side.j)
    df = pd.DataFrame(
        {"code": codes[sel_mask], "u_row": u_row[sel_mask], "row": np.nonzero(sel_mask)[0]}
    )
    n_k = np.maximum(1, (n * counts / len(codes)).astype(np.int64))
    rank = df.groupby("code")["u_row"].rank(method="first").to_numpy()
    keep = rank <= n_k[df["code"].to_numpy()]
    return side.take(df["row"].to_numpy()[keep])


def select_train(side: Side, n: int) -> Sketch:
    return two_level(side, n, lambda counts, u_key: np.argsort(u_key, kind="stable"))


def select_cand(side: Side, n: int, agg: str = "avg") -> Sketch:
    """Aggregate per key, then KMV over the (now unique) keys."""
    return kmv(side.featurized(agg), n)
