"""TUPSK — the paper's proposed tuple-based sampling sketch (§IV-B).

Rows of the train table are sampled by hashing the occurrence tuple
``<k, j>`` (key value k, j-th occurrence), which makes every row's
inclusion probability uniform (1/N) regardless of the join-key
frequency distribution. The candidate side aggregates per key and
samples by ``h_u(h(<k, 1>))``, coordinating with the j = 1 train rows.
"""
from __future__ import annotations

from repro import hashing

from .base import Side, Sketch
from .base import aggregate_cand, occurrence_index  # noqa: F401  (perfbench patches them here)


def select_train(side: Side, n: int) -> Sketch:
    """Keep the n rows with the smallest ``h_u(h(<k, j>))``."""
    return side.bottom(hashing.tuple_u01(side.kh, side.j), n)


def select_cand(side: Side, n: int, agg: str = "avg") -> Sketch:
    """Aggregate per key (so j = 1), then the train side's rule."""
    return select_train(side.featurized(agg), n)
