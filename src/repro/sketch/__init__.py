"""Sampling-based MI sketches (paper Section IV and the §V baselines).

Each method module is a selection rule, ``select_train(side, n)`` and
``select_cand(side, n, agg)``, over a table side prepared once
(:class:`Side`); a rule returns the rows it keeps, with their fields,
and :meth:`Side.sketch` takes the sketch from them. One pair of sides
serves every method (:func:`select_pair`), and the Spark builders run
the same rules (``repro.core.pipeline``). ``METHODS`` maps a sketch
name to its (train_sketch, cand_sketch) entry points, which prepare a
side from raw arrays and then select: ``train_sketch(keys, values, n)``
and ``cand_sketch(keys, values, n, agg)``.
"""
from . import csk, indsk, lv2sk, prisk, tupsk
from .base import AGG_FUNCTIONS, Side, Sketch, aggregate_cand, join_sketches, occurrence_index

RULES = {"tupsk": tupsk, "lv2sk": lv2sk, "prisk": prisk, "indsk": indsk, "csk": csk}


def _entry_points(rules):
    def train_sketch(keys, values, n: int) -> Sketch:
        return rules.select_train(Side(keys, values), n).sketch()

    def cand_sketch(keys, values, n: int, agg: str = "avg") -> Sketch:
        return rules.select_cand(Side(keys, values), n, agg).sketch()

    return train_sketch, cand_sketch


METHODS = {name: _entry_points(rules) for name, rules in RULES.items()}

__all__ = [
    "AGG_FUNCTIONS",
    "Side",
    "Sketch",
    "aggregate_cand",
    "join_sketches",
    "occurrence_index",
    "METHODS",
    "RULES",
    "select_pair",
    "csk",
    "indsk",
    "lv2sk",
    "prisk",
    "tupsk",
]


def select_pair(
    method: str, train: Side, cand: Side, n: int, agg: str = "avg"
) -> tuple[Sketch, Sketch]:
    """Select one method's (S_train, S_cand) pair from prepared sides."""
    rules = RULES[method]
    return rules.select_train(train, n).sketch(), rules.select_cand(cand, n, agg).sketch()


def build_pair(
    method: str,
    train_keys,
    train_values,
    cand_keys,
    cand_values,
    n: int,
    agg: str = "avg",
) -> tuple[Sketch, Sketch]:
    """Build the (S_train, S_cand) sketch pair for one table pair."""
    train_fn, cand_fn = METHODS[method]
    return train_fn(train_keys, train_values, n), cand_fn(cand_keys, cand_values, n, agg)
