"""Evaluation harness for HotpotQA-format multi-hop retrieval datasets.

Each dataset entry provides a question, gold supporting facts as
(document title, sentence index) pairs, and context documents as ordered
sentence lists. Sentences become pre-chunked corpus records with
``doc_id = title`` and ``position = sentence index``, so gold facts map
directly onto chunk ids.

A title must be non-empty and may appear once in an entry's context, and no
sentence may be blank. The scope only groups the examples: ``per-example``
builds a fresh index over each example's own context documents (the
distractor setting); ``pooled`` builds one index over the union of all
contexts, where a title shared by several examples is indexed once and must
hold the same sentences in each (MalformedRecordError otherwise). Reported
index time covers index construction only. Examples whose retrieval fails
are scored zero and counted, never silently dropped: a ProviderError,
including a reply that fails the rules of :mod:`slimrag.remote`
(ProviderProtocolError), fails that example only, and the others are scored
as usual. A provider failure while an index is built aborts the run.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .corpus import (
    Corpus,
    corpus_from_chunks,
    has_lone_surrogate,
    make_chunk_id,
    parse_json,
)
from .embedding import EmbedderConfig, EmbeddingCache
from .errors import MalformedRecordError, ProviderError
from .extraction import ExtractorConfig
from .index import EntityIndex, TokenAccounting, build_index, canonical_json
from .metrics import (
    RetrievalScore, RituReport, compute_ritu, ordered_sum, score_retrieval,
)
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
            "failed": self.failed,
            "trace_digest": self.trace_digest,
        }


@dataclass
class EvalReport:
    aggregate: RetrievalScore
    ritu: RituReport
    index_time_seconds: float
    per_example: list[ExampleResult]
    config: dict
    aggregation: ClassVar[str] = "macro"

    @property
    def scope(self) -> str:
        return self.config["scope"]

    @property
    def failed_count(self) -> int:
        return sum(result.failed for result in self.per_example)

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
    if not all(
        _is_pair(item, str, list) and all(isinstance(s, str) for s in item[1])
        for item in context
    ):
        raise MalformedRecordError(
            f"entry {position}: a context item is not [title, [sentence, ...]]"
        )
    texts = [question, question_id] + [
        text for title, sentences in context for text in (title, *sentences)
    ]
    if any(has_lone_surrogate(text) for text in texts):
        raise MalformedRecordError(
            f"entry {position}: its question, _id, a title or a sentence holds "
            "a lone surrogate"
        )
    titles: set[str] = set()
    for title, sentences in context:
        if not title:
            raise MalformedRecordError(f"entry {position}: a context title is empty")
        if title in titles:
            raise MalformedRecordError(
                f"entry {position}: context title {title!r} appears twice"
            )
        titles.add(title)
        if not all(sentence.strip() for sentence in sentences):
            raise MalformedRecordError(
                f"entry {position}: context {title!r} has a blank sentence"
            )
    facts = entry.get("supporting_facts")
    if not isinstance(facts, list):
        raise MalformedRecordError(f"entry {position} has no supporting_facts list")
    if not all(_is_pair(fact, str, int) for fact in facts):
        raise MalformedRecordError(
            f"entry {position}: a supporting fact is not [title, sentence_index]"
        )
    return EvalExample(
        question_id=question_id,
        question=question,
        gold_facts=frozenset((title, idx) for title, idx in facts),
        context_docs=tuple((title, tuple(sentences)) for title, sentences in context),
    )


def _is_pair(value: object, first: type, second: type) -> bool:
    """A JSON ``[first, second]`` array; a bool does not pass as an int."""
    return (
        isinstance(value, list)
        and len(value) == 2
        and isinstance(value[0], first)
        and isinstance(value[1], second)
        and not isinstance(value[1], bool)
    )


def _gold_facts_resolved(example: EvalExample) -> bool:
    lengths = {title: len(sentences) for title, sentences in example.context_docs}
    return bool(example.gold_facts) and all(
        title in lengths and 0 <= idx < lengths[title]
        for title, idx in example.gold_facts
    )


def load_hotpotqa_detailed(path: str | Path) -> tuple[list[EvalExample], int]:
    """Parse a HotpotQA-format JSON file; returns (examples, skipped count)."""
    try:
        entries = parse_json(Path(path).read_bytes())
    except ValueError as exc:
        raise MalformedRecordError(f"dataset: {exc}") from None
    if not isinstance(entries, list):
        raise MalformedRecordError("dataset top level is not a JSON array")
    examples: list[EvalExample] = []
    skipped = 0
    for position, entry in enumerate(entries):
        example = _parse_example(entry, position)
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


def _corpus(examples: list[EvalExample]) -> Corpus:
    """The pre-chunked corpus of the examples' context documents; a title an
    earlier example already brought is indexed once, and MalformedRecordError
    is raised when it brings other sentences."""
    first: dict[str, tuple[tuple[str, ...], str]] = {}
    rows = []
    for example in examples:
        for title, sentences in example.context_docs:
            if title not in first:
                first[title] = (sentences, example.question_id)
                rows.extend((title, idx, s) for idx, s in enumerate(sentences))
            elif first[title][0] != sentences:
                raise MalformedRecordError(
                    f"context title {title!r} has other sentences in question "
                    f"{example.question_id!r} than in {first[title][1]!r}"
                )
    return corpus_from_chunks(rows)


_ZERO = RetrievalScore(0.0, 0.0, 0.0, 0, 0)


def _scored(
    index: EntityIndex,
    example: EvalExample,
    params: RetrievalParams,
    extractor: ExtractorConfig,
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None,
) -> ExampleResult:
    """Retrieve one question and score it against its gold chunks; a
    provider failure scores zero and is flagged."""
    try:
        context = retrieve(
            index, example.question, params, extractor, embedder, cache
        )
    except ProviderError as exc:
        logger.warning("example %s failed: %s", example.question_id, exc)
        return ExampleResult(example.question_id, _ZERO, "", failed=True)
    retrieved = {chunk_id for chunk_id, _ in context.chunks}
    score = score_retrieval(retrieved, set(example.gold_chunk_ids))
    digest = hashlib.sha256(
        canonical_json(context.trace.to_document()).encode("utf-8")
    ).hexdigest()
    return ExampleResult(example.question_id, score, digest)


def run_eval(
    examples: list[EvalExample],
    extractor: ExtractorConfig,
    embedder: EmbedderConfig,
    params: RetrievalParams | None = None,
    scope: str = "per-example",
    cache: EmbeddingCache | None = None,
) -> EvalReport:
    """Build an index per group of examples, retrieve every question, and
    aggregate scores. ``pooled`` is one group of all examples;
    ``per-example`` is one group per example."""
    if not examples:
        raise ValueError("no examples to evaluate")
    if scope not in ("per-example", "pooled"):
        raise ValueError(f"unknown scope {scope!r}")
    params = params or RetrievalParams()
    groups = [examples] if scope == "pooled" else [[example] for example in examples]

    results: list[ExampleResult] = []
    accounting = TokenAccounting()
    index_time = 0.0
    for group in groups:
        corpus = _corpus(group)
        start = time.perf_counter()
        index = build_index(corpus, extractor, embedder, cache=cache)
        index_time += time.perf_counter() - start
        accounting = accounting.merged(index.accounting)
        results.extend(
            _scored(index, example, params, extractor, embedder, cache)
            for example in group
        )

    n = len(results)
    aggregate = RetrievalScore(
        accuracy=ordered_sum(r.score.accuracy for r in results) / n,
        recall=ordered_sum(r.score.recall for r in results) / n,
        f1=ordered_sum(r.score.f1 for r in results) / n,
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
    )
