"""Corpus ingestion and chunk segmentation.

A corpus is an ordered set of documents, each segmented into ordered chunks.
Segmentation is rule-based and deterministic: a sentence ends at a run of
``.``, ``!`` or ``?`` followed by whitespace and an uppercase letter, digit,
or opening quote, unless the word before the punctuation is on the fixed
abbreviation list :data:`ABBREVIATIONS`. The segmentation policy id therefore
determines segmentation completely, and identical input bytes always produce
an identical corpus.

Input is JSONL, one object per line, in exactly one of two forms:

* ``{"doc_id": ..., "text": ...}`` -- raw documents, segmented here.
* ``{"doc_id": ..., "position": ..., "text": ...}`` -- pre-chunked corpora
  (one line per chunk); positions must be contiguous from 0 per document.

Mixing the two forms in one stream is an error. Each chunk's token count is
derived once from its text by the ``ws-punct/v1`` accounting tokenizer; the
corpus total (TCTC) and the index read it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import ClassVar, Iterable

from .errors import DuplicateDocumentError, MalformedRecordError
from .tokenization import DEFAULT_TOKENIZER, count_tokens

ABBREVIATIONS = frozenset(
    {
        "mr", "mrs", "ms", "dr", "prof", "rev", "sr", "jr", "st",
        "etc", "vs", "e.g", "i.e", "cf", "al", "inc", "ltd", "co",
        "corp", "fig", "vol", "approx",
    }
)

_BOUNDARY = re.compile(r"[.!?]+(?=\s)")
_OPENERS = "\"'“‘«("


@dataclass(frozen=True)
class SegmentationPolicy:
    """How a document's sentences are grouped into chunks.

    kind: "sentence" (one sentence per chunk), "fixed" (groups of ``size``
    sentences joined by a single space), or "passthrough" (the input is
    already chunked and is not re-split).
    """

    kind: str = "sentence"
    size: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("sentence", "fixed", "passthrough"):
            raise ValueError(f"unknown segmentation policy {self.kind!r}")
        if self.kind == "fixed" and self.size < 1:
            raise ValueError("fixed policy requires size >= 1")

    @property
    def policy_id(self) -> str:
        return f"fixed:{self.size}" if self.kind == "fixed" else self.kind

    @classmethod
    def parse(cls, spec: str) -> "SegmentationPolicy":
        if spec.startswith("fixed:"):
            return cls("fixed", int(spec.split(":", 1)[1]))
        return cls(spec)


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    sentences: tuple[str, ...]


@dataclass(frozen=True)
class Chunk:
    """``token_count`` is derived from ``text`` by the accounting tokenizer."""

    chunk_id: str
    doc_id: str
    position: int
    text: str
    token_count: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_count", count_tokens(self.text))


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    chunks: tuple[Chunk, ...]
    total_corpus_tokens: int
    segmentation: str = "sentence"
    tokenizer: ClassVar[str] = DEFAULT_TOKENIZER


def make_chunk_id(doc_id: str, position: int) -> str:
    return f"{doc_id}#{position}"


def split_sentences(text: str) -> list[str]:
    """Deterministic rule-based sentence segmentation."""
    sentences: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(text):
        end = match.end()
        rest = text[end:].lstrip()
        if not rest:
            continue
        nxt = rest[0]
        if not (nxt.isupper() or nxt.isdigit() or nxt in _OPENERS):
            continue
        word = text[:match.start()].rsplit(None, 1)
        if word and word[-1].lower().rstrip(".") in ABBREVIATIONS:
            continue
        piece = text[start:end].strip()
        if piece:
            sentences.append(piece)
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def segment_document(doc: Document, policy: SegmentationPolicy) -> list[Chunk]:
    """Group a document's sentences into ordered, contiguous chunks.

    Joining the chunk texts with a single space reproduces the document's
    segmentable content. Empty documents yield an empty list.
    """
    sentences = list(doc.sentences)
    if not sentences:
        return []
    if policy.kind == "fixed":
        n = policy.size
        groups = [sentences[i:i + n] for i in range(0, len(sentences), n)]
    else:  # sentence, or passthrough: each sentence is one chunk
        groups = [[s] for s in sentences]
    return [
        Chunk(make_chunk_id(doc.doc_id, pos), doc.doc_id, pos, " ".join(group))
        for pos, group in enumerate(groups)
    ]


def build_document(doc_id: str, text: str, policy: SegmentationPolicy) -> Document:
    if policy.kind == "passthrough":
        sentences = (text,) if text.strip() else ()
    else:
        sentences = tuple(split_sentences(text))
    return Document(doc_id=doc_id, text=text, sentences=sentences)


def _decode(raw: str, line_number: int) -> object:
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"invalid JSON ({exc.msg})", line_number) from None


def _check_record(record: object, line_number: int) -> dict:
    if not isinstance(record, dict):
        raise MalformedRecordError("record is not an object", line_number)
    if not isinstance(record.get("doc_id"), str) or not record["doc_id"]:
        raise MalformedRecordError("missing or empty doc_id", line_number)
    if not isinstance(record.get("text"), str):
        raise MalformedRecordError("missing text field", line_number)
    if "position" in record and not isinstance(record["position"], int):
        raise MalformedRecordError("position must be an integer", line_number)
    return record


def ingest_corpus(
    source: Iterable[str], segmentation: SegmentationPolicy | None = None
) -> Corpus:
    """Read a JSONL corpus stream into an immutable Corpus.

    Raises MalformedRecordError (with the offending line number) for bad
    records, mixed record forms, or non-contiguous pre-chunked positions, and
    DuplicateDocumentError for a repeated doc_id. An empty stream yields an
    empty corpus.
    """
    lines = ((n, raw.strip()) for n, raw in enumerate(source, start=1))
    records = ((n, _decode(raw, n)) for n, raw in lines if raw)
    return _assemble(records, segmentation)


def corpus_from_chunks(chunk_rows: Iterable[tuple[str, int, str]]) -> Corpus:
    """Assemble a pre-chunked Corpus from (doc_id, position, text) rows,
    checked as pre-chunked records with the row number as line number."""
    records = ({"doc_id": d, "position": p, "text": t} for d, p, t in chunk_rows)
    return _assemble(enumerate(records, start=1))


def _assemble(
    records: Iterable[tuple[int, object]], policy: SegmentationPolicy | None = None
) -> Corpus:
    policy = policy or SegmentationPolicy()

    form: str | None = None
    doc_order: list[str] = []
    raw_docs: dict[str, str] = {}
    prechunked: dict[str, dict[int, str]] = {}

    for line_number, record in records:
        record = _check_record(record, line_number)
        record_form = "prechunked" if "position" in record else "document"
        if form is None:
            form = record_form
        elif form != record_form:
            raise MalformedRecordError(
                "mixed document and pre-chunked records in one stream", line_number
            )
        doc_id = record["doc_id"]
        if form == "document":
            if doc_id in raw_docs:
                raise DuplicateDocumentError(f"duplicate doc_id {doc_id!r}")
            doc_order.append(doc_id)
            raw_docs[doc_id] = record["text"]
        else:
            if not record["text"].strip():
                raise MalformedRecordError("pre-chunked text is empty", line_number)
            if record["position"] < 0:
                raise MalformedRecordError("position must be >= 0", line_number)
            positions = prechunked.setdefault(doc_id, {})
            if not positions:
                doc_order.append(doc_id)
            if record["position"] in positions:
                raise MalformedRecordError(
                    f"duplicate position {record['position']} for doc_id {doc_id!r}",
                    line_number,
                )
            positions[record["position"]] = record["text"]

    documents: list[Document] = []
    chunks: list[Chunk] = []
    if form == "prechunked":
        effective_policy = "passthrough"
        for doc_id in doc_order:
            positions = prechunked[doc_id]
            expected = list(range(len(positions)))
            if sorted(positions) != expected:
                raise MalformedRecordError(
                    f"positions for doc_id {doc_id!r} are not contiguous from 0"
                )
            sentences = tuple(positions[i] for i in expected)
            documents.append(
                Document(doc_id=doc_id, text=" ".join(sentences), sentences=sentences)
            )
            for pos, text in enumerate(sentences):
                chunks.append(Chunk(make_chunk_id(doc_id, pos), doc_id, pos, text))
    else:
        effective_policy = policy.policy_id
        for doc_id in doc_order:
            doc = build_document(doc_id, raw_docs[doc_id], policy)
            documents.append(doc)
            chunks.extend(segment_document(doc, policy))

    total = sum(c.token_count for c in chunks)
    return Corpus(
        documents=tuple(documents),
        chunks=tuple(chunks),
        total_corpus_tokens=total,
        segmentation=effective_policy,
    )
