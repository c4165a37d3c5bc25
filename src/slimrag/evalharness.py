"""Evaluation harness for HotpotQA-format multi-hop retrieval datasets.

Each dataset entry provides a question, gold supporting facts as
(document title, sentence index) pairs, and context documents as ordered
sentence lists. Sentences become pre-chunked corpus records with
``doc_id = title`` and ``position = sentence index``, so gold facts map
directly onto chunk ids.

Two scopes: ``per-example`` builds a fresh index over each example's own
context documents (the distractor setting); ``pooled`` builds one index over
the union of all contexts. Reported index time covers index construction
only. Examples whose retrieval fails are scored zero and counted, never
silently dropped.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .corpus import Corpus, corpus_from_chunks, make_chunk_id
from .embedding import EmbedderConfig, EmbeddingCache
from .errors import MalformedRecordError, ProviderError
from .extraction import ExtractorConfig
from .index import TokenAccounting, build_index, canonical_json
from .metrics import RetrievalScore, RituReport, compute_ritu, score_retrieval
from .retrieval import RetrievalParams, retrieve
from .tokenization import DEFAULT_TOKENIZER

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalExample:
    question_id: str
    question: str
    gold_facts: frozenset[tuple[str, int]]
    context_docs: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def gold_chunk_ids(self) -> frozenset[str]:
        return frozenset(make_chunk_id(title, idx) for title, idx in self.gold_facts)


@dataclass
class ExampleResult:
    question_id: str
    score: RetrievalScore
    trace_digest: str
    failed: bool = False

    def to_document(self) -> dict:
        return {
            "question_id": self.question_id,
            "accuracy": self.score.accuracy,
            "recall": self.score.recall,
            "f1": self.score.f1,
            "retrieved_count": self.score.retrieved_count,
            "gold_count": self.score.gold_count,
            "trace_digest": self.trace_digest,
            "failed": self.failed,
        }


@dataclass
class EvalReport:
    aggregate: RetrievalScore
    ritu: RituReport
    index_time_seconds: float
    per_example: list[ExampleResult]
    config: dict
    scope: str
    failed_count: int = 0
    aggregation: ClassVar[str] = "macro"

    def to_document(self) -> dict:
        return {
            "accuracy": self.aggregate.accuracy,
            "recall": self.aggregate.recall,
            "f1": self.aggregate.f1,
            "retrieved_count": self.aggregate.retrieved_count,
            "gold_count": self.aggregate.gold_count,
            "ritu": self.ritu.ritu,
            "tuic": self.ritu.tuic,
            "tctc": self.ritu.tctc,
            "breakdown": dict(sorted(self.ritu.breakdown.items())),
            "index_time_seconds": self.index_time_seconds,
            "per_example": [r.to_document() for r in self.per_example],
            "config": self.config,
            "scope": self.scope,
            "aggregation": self.aggregation,
            "failed_count": self.failed_count,
        }


def _parse_example(entry: dict, position: int) -> EvalExample:
    if not isinstance(entry, dict):
        raise MalformedRecordError(f"entry {position} is not an object")
    question = entry.get("question")
    if not isinstance(question, str) or not question.strip():
        raise MalformedRecordError(f"entry {position} has no question")
    question_id = str(entry.get("_id") or entry.get("id") or f"q{position}")
    context = entry.get("context")
    if not isinstance(context, list):
        raise MalformedRecordError(f"entry {position} has no context list")
    docs: list[tuple[str, tuple[str, ...]]] = []
    for item in context:
        title, sentences = item
        docs.append((str(title), tuple(str(s) for s in sentences)))
    facts = entry.get("supporting_facts")
    if not isinstance(facts, list):
        raise MalformedRecordError(f"entry {position} has no supporting_facts list")
    gold = frozenset((str(title), int(idx)) for title, idx in facts)
    return EvalExample(
        question_id=question_id,
        question=question,
        gold_facts=gold,
        context_docs=tuple(docs),
    )


def _gold_facts_resolved(example: EvalExample) -> bool:
    lengths = {title: len(sentences) for title, sentences in example.context_docs}
    return bool(example.gold_facts) and all(
        title in lengths and 0 <= idx < lengths[title]
        for title, idx in example.gold_facts
    )


def load_hotpotqa_detailed(path: str | Path) -> tuple[list[EvalExample], int]:
    """Parse a HotpotQA-format JSON file; returns (examples, skipped count)."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        entries = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"dataset is not valid JSON: {exc.msg}") from None
    if not isinstance(entries, list):
        raise MalformedRecordError("dataset top level is not a JSON array")
    examples: list[EvalExample] = []
    skipped = 0
    for position, entry in enumerate(entries):
        try:
            example = _parse_example(entry, position)
        except (TypeError, ValueError) as exc:
            raise MalformedRecordError(f"entry {position} is malformed: {exc}") from None
        if not _gold_facts_resolved(example):
            skipped += 1
            logger.warning(
                "skipping example %s: gold facts empty or referencing a missing sentence",
                example.question_id,
            )
            continue
        examples.append(example)
    return examples, skipped


def load_hotpotqa(path: str | Path) -> list[EvalExample]:
    examples, _ = load_hotpotqa_detailed(path)
    return examples


def _example_corpus(example: EvalExample) -> Corpus:
    rows = [
        (title, idx, sentence)
        for title, sentences in example.context_docs
        for idx, sentence in enumerate(sentences)
    ]
    return corpus_from_chunks(rows)


def _pooled_corpus(examples: list[EvalExample]) -> Corpus:
    seen: set[str] = set()
    rows = []
    for example in examples:
        for title, sentences in example.context_docs:
            if title in seen:
                continue
            seen.add(title)
            rows.extend((title, idx, s) for idx, s in enumerate(sentences))
    return corpus_from_chunks(rows)


_ZERO = RetrievalScore(0.0, 0.0, 0.0, 0, 0)


def run_eval(
    examples: list[EvalExample],
    extractor: ExtractorConfig,
    embedder: EmbedderConfig,
    params: RetrievalParams | None = None,
    scope: str = "per-example",
    cache: EmbeddingCache | None = None,
) -> EvalReport:
    """Build index(es), retrieve every question, and aggregate scores."""
    if not examples:
        raise ValueError("no examples to evaluate")
    if scope not in ("per-example", "pooled"):
        raise ValueError(f"unknown scope {scope!r}")
    params = params or RetrievalParams()

    results: list[ExampleResult] = []
    accounting = TokenAccounting()
    index_time = 0.0
    failed_count = 0

    pooled_index = None
    if scope == "pooled":
        corpus = _pooled_corpus(examples)
        start = time.perf_counter()
        pooled_index = build_index(corpus, extractor, embedder, cache=cache)
        index_time += time.perf_counter() - start
        accounting = accounting.merged(pooled_index.accounting)

    for example in examples:
        if scope == "per-example":
            corpus = _example_corpus(example)
            start = time.perf_counter()
            index = build_index(corpus, extractor, embedder, cache=cache)
            index_time += time.perf_counter() - start
            accounting = accounting.merged(index.accounting)
        else:
            index = pooled_index
        try:
            context = retrieve(
                index, example.question, params, extractor, embedder, cache
            )
        except ProviderError as exc:
            logger.warning("example %s failed: %s", example.question_id, exc)
            failed_count += 1
            results.append(
                ExampleResult(
                    question_id=example.question_id,
                    score=_ZERO,
                    trace_digest="",
                    failed=True,
                )
            )
            continue
        retrieved = {chunk_id for chunk_id, _ in context.chunks}
        score = score_retrieval(retrieved, set(example.gold_chunk_ids))
        digest = hashlib.sha256(
            canonical_json(context.trace.to_document()).encode("utf-8")
        ).hexdigest()
        results.append(
            ExampleResult(
                question_id=example.question_id, score=score, trace_digest=digest
            )
        )

    n = len(results)
    aggregate = RetrievalScore(
        accuracy=sum(r.score.accuracy for r in results) / n,
        recall=sum(r.score.recall for r in results) / n,
        f1=sum(r.score.f1 for r in results) / n,
        retrieved_count=sum(r.score.retrieved_count for r in results),
        gold_count=sum(r.score.gold_count for r in results),
    )
    config = {
        "scope": scope,
        "tokenizer": DEFAULT_TOKENIZER,
        "extractor": extractor.fingerprint_fields(),
        "decomposition_enabled": extractor.decomposition_enabled,
        "embedder_id": embedder.embedder_id,
        "params": params.to_document(),
    }
    return EvalReport(
        aggregate=aggregate,
        ritu=compute_ritu(accounting),
        index_time_seconds=index_time,
        per_example=results,
        config=config,
        scope=scope,
        failed_count=failed_count,
    )
