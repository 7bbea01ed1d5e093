"""CSK — Correlation Sketches baseline, extended to MI (paper §V).

Correlation Sketches (Santos et al., SIGMOD 2021) perform KMV
coordinated sampling over *distinct* join keys and keep one value per
key. They "do not prescribe how to handle repeated join keys"; per the
paper's baseline setup we keep the **first value seen** for each key on
both sides — no aggregation function is applied, so repeated-key
information on either table is simply dropped.
"""
from __future__ import annotations

from .base import Side, kmv
from .base import aggregate_cand  # noqa: F401  (perfbench patches it here)


def select_train(side: Side, n: int) -> Side:
    """First value seen per key, then KMV over the distinct keys."""
    return kmv(side.featurized("first"), n)


def select_cand(side: Side, n: int, agg: str = "avg") -> Side:
    """CSK ignores AGG by design: first value seen per key."""
    return select_train(side, n)
