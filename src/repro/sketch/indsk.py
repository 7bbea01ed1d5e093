"""INDSK — independent (uncoordinated) sampling baseline (paper §V).

Each table is sampled *independently*: the train side keeps a uniform
n-subset of its rows, the candidate side (after aggregation) a uniform
n-subset of its keys, using hash streams salted differently per side
so the selections share nothing. The expected sketch-join size is
quadratically small (Section IV's naive-Bernoulli argument), which is
why coordinated sketches dominate it in Table I.

We realize "Bernoulli sampling with expected size n" as a bottom-n
uniform sample without replacement (deterministic given the salt),
which bounds the sketch at exactly n rows — the same size contract as
the other sketches — without changing the uncoordinated behaviour that
the experiment measures.
"""
from __future__ import annotations

import numpy as np

from repro import hashing
from repro.hashing.murmur3 import murmur3_32_u32pair

from .base import Side, Sketch
from .base import aggregate_cand  # noqa: F401  (perfbench patches it here)

_SALT_TRAIN = 0xA5A5A5A5
_SALT_CAND = 0x5A5A5A5A


def _salted_u01(x: np.ndarray, salt: int) -> np.ndarray:
    return hashing.u01(murmur3_32_u32pair(x, np.full(len(x), salt, np.uint32)))


def select_train(side: Side, n: int) -> Sketch:
    """Uniform n-subset of rows, independent of keys and of the cand side."""
    return side.bottom(_salted_u01(np.arange(len(side.keys), dtype=np.uint32), _SALT_TRAIN), n)


def select_cand(side: Side, n: int, agg: str = "avg") -> Sketch:
    """Aggregate per key, then a uniform n-subset of keys (own salt)."""
    aug = side.featurized(agg)
    return aug.bottom(_salted_u01(aug.kh, _SALT_CAND), n)
