"""Shared sketch machinery (paper Section IV, "Approach Overview").

A sketch is a bounded set of tuples ``<h(k), value>``. All five
sketching methods (TUPSK, LV2SK, PRISK, INDSK, CSK) differ only in how
they *select* rows; selection is a deterministic function of the hash
substrate, so the numpy core here and the Spark DataFrame layer in
``repro.core.pipeline`` produce byte-identical sketches — the tests
assert this.

The candidate (right) side of an augmentation join must be reduced to
one value per key by a featurization function AGG (paper Section
III-B); :func:`aggregate_cand` implements AVG / COUNT / MODE / FIRST
with first-appearance tie-breaking so results are order-stable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd

from repro import hashing

#: Featurization functions supported for the candidate table.
AGG_FUNCTIONS = ("avg", "count", "mode", "first")


@dataclass
class Sketch:
    """A bounded sample of ``<h(k), value>`` tuples for one column pair."""

    key_hash: np.ndarray  # uint32 h(k)
    values: np.ndarray  # the sampled X or Y values

    def __post_init__(self) -> None:
        if len(self.key_hash) != len(self.values):
            raise ValueError("key_hash and values must align")
        # Canonical order: by (key_hash, value-position) for stable
        # cross-engine comparison.
        order = np.argsort(self.key_hash, kind="stable")
        self.key_hash = np.asarray(self.key_hash, dtype=np.uint32)[order]
        self.values = np.asarray(self.values)[order]

    def __len__(self) -> int:
        return len(self.key_hash)


class Side:
    """One table side, prepared once for every sketch method.

    Each row is hashed once; ``kh``, ``j`` and ``codes`` are computed on
    first use only. :meth:`featurized` gives the side reduced by AGG to
    one row per distinct key (so ``j = 1``), built once per AGG.
    """

    def __init__(self, keys, values) -> None:
        self.keys = np.asarray(keys)
        self.values = np.asarray(values)
        self._featurized: dict[str, Side] = {}

    @cached_property
    def kh(self) -> np.ndarray:
        """``h(k)`` of every row."""
        return hashing.hash_keys(self.keys)

    @cached_property
    def j(self) -> np.ndarray:
        """Occurrence index of every row (all 1 on a featurized side)."""
        return occurrence_index(self.keys)

    @cached_property
    def codes(self) -> np.ndarray:
        """Dense key codes, numbered in first-appearance order."""
        return pd.factorize(self.keys, use_na_sentinel=False)[0]

    def featurized(self, agg: str) -> Side:
        """This side with AGG applied per key (:func:`aggregate_cand`)."""
        if agg not in self._featurized:
            aug = aggregate_cand(self.keys, self.values, agg)
            side = Side(aug["key"].to_numpy(), aug["value"].to_numpy())
            side.j = np.ones(len(side.keys), dtype=np.int64)  # one row per key
            self._featurized[agg] = side
        return self._featurized[agg]

    def take(self, rows: np.ndarray) -> Sketch:
        return Sketch(self.kh[rows], self.values[rows])

    def bottom(self, u: np.ndarray, n: int) -> Sketch:
        """The n rows with the smallest sampling coordinate ``u``."""
        return self.take(np.argsort(u, kind="stable")[:n])


def kmv(side: Side, n: int) -> Sketch:
    """KMV: the n rows of a featurized side with the smallest ``h_u(h(k))``."""
    return side.bottom(hashing.u01(side.kh), n)


def occurrence_index(keys: np.ndarray) -> np.ndarray:
    """1-based occurrence index j of each key value, in row order.

    Row i gets j = (number of earlier rows with the same key) + 1;
    the pair <k, j> uniquely identifies a row (paper Section IV-B).
    """
    codes, _ = pd.factorize(np.asarray(keys), use_na_sentinel=False)
    return (pd.Series(codes).groupby(codes).cumcount() + 1).to_numpy(np.int64)


def aggregate_cand(keys: np.ndarray, values: np.ndarray, agg: str) -> pd.DataFrame:
    """Apply the featurization AGG per key: T_cand[K_Z, Z] -> T_aug[K_X, X].

    Returns a DataFrame [key, value] with one row per distinct key, in
    first-appearance order of the key.
    """
    if agg not in AGG_FUNCTIONS:
        raise ValueError(f"unknown AGG {agg!r}; choose from {AGG_FUNCTIONS}")
    df = pd.DataFrame({"key": np.asarray(keys), "value": np.asarray(values)})
    g = df.groupby("key", sort=False)["value"]
    if agg == "avg":
        out = g.mean()
    elif agg == "count":
        out = g.size()
    elif agg == "mode":
        # Most frequent value; ties broken by earliest first appearance
        # (same contract as the Spark implementation in
        # repro.core.fulljoin.featurize): idxmax keeps the first of the
        # (key, value) groups, which come in first-appearance order. A
        # key with only NULL values gets None; the dtype is inferred
        # from the results, as a per-group python ``g.agg`` would.
        size = df.groupby(["key", "value"], sort=False).size()
        top = dict(size.groupby(level="key", sort=False).idxmax().tolist())
        index = g.size().index
        dtype = None if len(index) else df["value"].dtype
        out = pd.Series([top.get(k) for k in index], index=index, dtype=dtype)
    else:  # first
        out = g.first()
    return pd.DataFrame({"key": out.index.to_numpy(), "value": out.to_numpy()})


def join_sketches(train: Sketch, cand: Sketch) -> tuple[np.ndarray, np.ndarray]:
    """Join two sketches on their hashed keys (paper's S_join).

    The candidate sketch has unique hashed keys (aggregation or
    first-value selection guarantees it), so this is a many-to-one
    lookup. Returns the paired sample (y_values, x_values) that feeds
    the MI estimator, in train-sketch order.

    Relies on :class:`Sketch`'s canonical order: both ``key_hash``
    arrays are sorted (stably), so one binary search per train row
    finds its candidate. 32-bit hash collisions between distinct keys
    can, very rarely, leave duplicate hashes on the candidate side;
    ``side="left"`` matches the first of them, which keeps the join
    many-to-one. String values come back as ``object`` arrays.
    """
    pos = np.searchsorted(cand.key_hash, train.key_hash, side="left")
    hit = pos < len(cand.key_hash)
    hit[hit] = cand.key_hash[pos[hit]] == train.key_hash[hit]
    return _object_strings(train.values[hit]), _object_strings(cand.values[pos[hit]])


def _object_strings(a: np.ndarray) -> np.ndarray:
    """Fixed-width str/bytes as ``object``, the dtype string columns
    have everywhere else in the pipeline; other dtypes are kept."""
    return a.astype(object) if a.dtype.kind in "SU" else a
