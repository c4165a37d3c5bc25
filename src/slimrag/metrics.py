"""Retrieval-quality scoring and index token-utilization reporting."""

from __future__ import annotations

from dataclasses import dataclass

from .index import TokenAccounting


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
    if accounting.tctc == 0:
        return RituReport(
            tuic=accounting.tuic,
            tctc=0,
            ritu=0.0,
            breakdown=dict(accounting.breakdown),
            empty_corpus=True,
        )
    return RituReport(
        tuic=accounting.tuic,
        tctc=accounting.tctc,
        ritu=accounting.tuic / accounting.tctc,
        breakdown=dict(accounting.breakdown),
    )
