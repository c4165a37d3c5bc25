"""Retrieval-quality scoring and index token-utilization reporting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .index import TokenAccounting


def ordered_sum(values: Iterable[float]) -> float:
    """The floats added one by one, left to right, from 0.0: what ``sum``
    does up to Python 3.11. From 3.12 ``sum`` compensates float rounding,
    so its result can differ in the last bits."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class RetrievalScore:
    """Precision (reported as accuracy), recall, and their harmonic mean."""

    accuracy: float
    recall: float
    f1: float
    retrieved_count: int
    gold_count: int


@dataclass(frozen=True)
class RituReport:
    """Index token utilization relative to corpus size."""

    tuic: int
    tctc: int
    ritu: float
    breakdown: dict[str, int]
    empty_corpus: bool = False


def score_retrieval(retrieved: set[str], gold: set[str]) -> RetrievalScore:
    """Score retrieved gold-unit ids against the gold set.

    accuracy = |retrieved & gold| / |retrieved| (0 for an empty retrieval),
    recall = |retrieved & gold| / |gold|. Raises ValueError when gold is
    empty, since recall is undefined there.
    """
    if not gold:
        raise ValueError("gold set is empty; recall is undefined")
    hits = len(set(retrieved) & set(gold))
    accuracy = hits / len(retrieved) if retrieved else 0.0
    recall = hits / len(gold)
    f1 = (
        2 * accuracy * recall / (accuracy + recall)
        if accuracy + recall > 0
        else 0.0
    )
    return RetrievalScore(
        accuracy=accuracy,
        recall=recall,
        f1=f1,
        retrieved_count=len(retrieved),
        gold_count=len(gold),
    )


def compute_ritu(accounting: TokenAccounting) -> RituReport:
    """TUIC / TCTC; an empty corpus reports 0.0 with the empty flag set."""
    empty = accounting.tctc == 0
    return RituReport(
        tuic=accounting.tuic,
        tctc=accounting.tctc,
        ritu=0.0 if empty else accounting.tuic / accounting.tctc,
        breakdown=dict(accounting.breakdown),
        empty_corpus=empty,
    )
