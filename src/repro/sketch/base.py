"""Shared sketch machinery (paper Section IV, "Approach Overview").

A sketch is a bounded set of tuples ``<h(k), value>``. All five
sketching methods (TUPSK, LV2SK, PRISK, INDSK, CSK) differ only in how
they *select* rows from a :class:`Side`; the Spark builders in
``repro.core.pipeline`` run the same selection rules, so both engines
produce byte-identical sketches — the tests assert this.

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


class _Field(cached_property):
    """A lazy per-row field of a :class:`Side`: computed on a whole side,
    sliced from it on a side of kept rows (:meth:`Side.take`)."""

    def __get__(self, side, owner=None):
        if side is None or side._parent is None:
            return super().__get__(side, owner)
        value = side.__dict__[self.attrname] = getattr(side._parent, self.attrname)[side._rows]
        return value


class Side:
    """One table side, prepared once for every sketch method.

    A rule scores each row from its own fields: ``kh``, ``j``, its key's
    row count ``n_k`` and first position ``first``, its position ``pos``
    and the table's row count ``n_total``. Fields are computed on first
    use, or passed in: the Spark builders pass ``pos`` and ``n_total``
    for a bucket of whole keys, and every field for the union of the
    buckets' kept rows (:meth:`union`). :meth:`featurized` gives the
    side reduced by AGG to one row per key (so ``j = 1``), once per AGG.
    """

    #: The per-row fields a rule reads, carried with the rows it keeps.
    FIELDS = ("pos", "kh", "j", "n_k", "first")

    def __init__(self, keys, values, *, n_total: int | None = None, **fields) -> None:
        self.keys = np.asarray(keys)
        self.values = np.asarray(values)
        self.n_total = len(self.keys) if n_total is None else n_total
        self._parent = self._rows = None
        self._featurized: dict[str, Side] = {}
        self.__dict__.update(fields)

    @_Field
    def pos(self) -> np.ndarray:
        """Row position, the tie-break of every rule."""
        return np.arange(len(self.keys), dtype=np.int64)

    @_Field
    def kh(self) -> np.ndarray:
        """``h(k)`` of every row."""
        return hashing.hash_keys(self.keys)

    @_Field
    def j(self) -> np.ndarray:
        """Occurrence index of every row (all 1 on a featurized side)."""
        return occurrence_index(self.keys)

    @_Field
    def n_k(self) -> np.ndarray:
        codes, _ = self._groups
        return np.bincount(codes)[codes]

    @_Field
    def first(self) -> np.ndarray:
        codes, first_row = self._groups
        return self.pos[first_row[codes]]

    @_Field
    def u_row(self) -> np.ndarray:
        """``h_u(h(<k, j>))``, the per-row sampling coordinate."""
        return hashing.tuple_u01(self.kh, self.j)

    @_Field
    def u_key(self) -> np.ndarray:
        """``h_u(h(k))``, the per-key sampling coordinate."""
        return hashing.u01(self.kh)

    @cached_property
    def _groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Key codes in first-appearance order, NULL keys last, and each
        code's first row."""
        codes, uniques = pd.factorize(self.keys)
        codes[codes < 0] = len(uniques)
        first_row = np.zeros(len(uniques) + 1, dtype=np.int64)
        first_row[codes[::-1]] = np.arange(len(codes) - 1, -1, -1)
        return codes, first_row

    def featurized(self, agg: str) -> Side:
        """This side with AGG applied per key (:func:`aggregate_cand`):
        one row per key, the key's first row, keys in this side's dtype."""
        if agg not in self._featurized:
            aug = aggregate_cand(self.keys, self.values, agg)
            first_row = self._groups[1][:-1]  # AGG drops the NULL keys
            pos, ones = self.pos[first_row], np.ones(len(first_row), dtype=np.int64)
            self._featurized[agg] = Side(
                self.keys[first_row], aug["value"].to_numpy(), pos=pos, j=ones, n_k=ones, first=pos
            )
        return self._featurized[agg]

    def take(self, rows: np.ndarray) -> Side:
        """The given rows; their fields are sliced from this side's."""
        kept = Side(self.keys[rows], self.values[rows], n_total=self.n_total)
        kept._parent, kept._rows = self, rows
        return kept

    def bottom(self, u: np.ndarray, n: int) -> Side:
        """The n rows with the smallest sampling coordinate ``u``."""
        return self.take(np.argsort(u, kind="stable")[:n])

    def sketch(self) -> Sketch:
        return Sketch(self.kh, self.values)

    def frame(self) -> pd.DataFrame:
        """Keys, values and every field, for :meth:`union`."""
        return pd.DataFrame({"key": self.keys, "val": self.values, **{f: getattr(self, f) for f in self.FIELDS}})

    @classmethod
    def union(cls, frame: pd.DataFrame, n_total: int) -> Side:
        """The rows a rule kept from buckets of whole keys of one table
        (their :meth:`frame`), in row order: the rule keeps from it what
        it keeps from the whole table. Its rows are featurized already
        wherever the rule featurizes, so it is its own featurized side."""
        frame = frame.sort_values("pos", kind="stable")
        fields = {f: frame[f].to_numpy(np.int64) for f in cls.FIELDS}
        fields["kh"] = fields["kh"].astype(np.uint32)
        side = cls(frame["key"], frame["val"], n_total=n_total, **fields)
        side._featurized = dict.fromkeys(AGG_FUNCTIONS, side)
        return side


def kmv(side: Side, n: int) -> Side:
    """KMV: the n rows of a featurized side with the smallest ``h_u(h(k))``."""
    return side.bottom(side.u_key, n)


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
