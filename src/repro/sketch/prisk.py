"""PRISK — two-level sketch with priority sampling at level 1 (§V).

Identical to LV2SK except the first level selects keys by *priority
sampling* (Duffield, Lund & Thorup) with weight equal to the key
frequency N_k: keep the n keys with the largest priority
``q_k = N_k / h_u(h(k))``. On the aggregated candidate side all
weights are 1, so the selection coincides with LV2SK's KMV. The paper
reports PRISK results to be nearly identical to LV2SK.
"""
from __future__ import annotations

import numpy as np

from .base import Side
from .base import aggregate_cand, occurrence_index  # noqa: F401  (perfbench patches them here)
from .lv2sk import select_cand, two_level  # noqa: F401  (cand side: all weights 1, as LV2SK)


def _by_priority(counts: np.ndarray, u_key: np.ndarray) -> np.ndarray:
    # Priority = weight / u; avoid division by zero on the (measure
    # zero, but reachable) u == 0 hash by flooring at the smallest
    # positive float.
    priority = counts / np.maximum(u_key, np.finfo(np.float64).tiny)
    return np.argsort(-priority, kind="stable")


def select_train(side: Side, n: int) -> Side:
    return two_level(side, n, _by_priority)
