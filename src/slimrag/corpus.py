r"""Corpus ingestion and chunk segmentation.

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

Mixing the two forms in one stream is an error. Each record is built on its
own line: a raw document is segmented there, and a pre-chunked record becomes
its chunk, so an error names the line it comes from. Every chunk of either
form is a :class:`Chunk`, whose constructor is the one rule for what a chunk
is, and the one check of a record's text.
Each chunk's token count is derived once from its text by the
``ws-punct/v1`` accounting tokenizer; the corpus total (TCTC) and the index
read it.

This module also holds the two rules for reading text from outside the
program, which every reader of a file or reply uses: :func:`read_lines`
(a line ends at ``\n`` only; corpus, gazetteer and alias files, and the
embedding cache's split) and :func:`parse_json` (how a JSON text fails to
decode; corpus records, datasets, index files, cache lines and provider
replies).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator

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
    already chunked and is not re-split). A policy is exactly its
    :attr:`policy_id`: only "fixed" takes a ``size`` other than 1, so
    :meth:`parse` gives back every policy that constructs.
    """

    kind: str = "sentence"
    size: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("sentence", "fixed", "passthrough"):
            raise ValueError(f"unknown segmentation policy {self.kind!r}")
        if self.kind == "fixed" and (type(self.size) is not int or self.size < 1):
            raise ValueError("fixed policy requires an integer size >= 1")
        if self.kind != "fixed" and self.size != 1:
            raise ValueError(f"{self.kind} policy takes no size")

    @property
    def policy_id(self) -> str:
        return f"fixed:{self.size}" if self.kind == "fixed" else self.kind

    @classmethod
    def parse(cls, spec: str) -> "SegmentationPolicy":
        """The policy a policy id names; ValueError for any other text,
        including other spellings of an id (``fixed``, ``fixed:03``)."""
        if spec.startswith("fixed:"):
            try:
                policy = cls("fixed", int(spec[len("fixed:"):]))
            except ValueError:
                raise ValueError(
                    f"fixed policy requires an integer size >= 1, got {spec!r}"
                ) from None
        else:
            policy = cls(spec)
        if policy.policy_id != spec:
            raise ValueError(f"{spec!r} is not a policy id; write {policy.policy_id!r}")
        return policy


@dataclass(frozen=True)
class Document:
    doc_id: str
    sentences: tuple[str, ...]


@dataclass(frozen=True)
class Chunk:
    """A chunk a corpus can hold, and the one rule for what that is:
    ``doc_id`` is a non-empty ``str``, ``position`` an ``int`` (not a
    ``bool``) >= 0, ``text`` a ``str`` that is not blank, and neither string
    holds a lone surrogate; ValueError otherwise. Ingest, the eval corpora,
    index writes and index loads all hold chunks built here, so no other
    layer checks one. ``chunk_id`` is ``make_chunk_id(doc_id, position)``,
    and ``token_count`` is derived from ``text`` by the accounting
    tokenizer."""

    chunk_id: str = field(init=False)
    doc_id: str
    position: int
    text: str
    token_count: int = field(init=False)

    def __post_init__(self) -> None:
        if not type(self.doc_id) is type(self.text) is str:
            raise ValueError("doc_id and text must be strings")
        if has_lone_surrogate(self.doc_id + self.text):  # one encode for both
            name = "doc_id" if has_lone_surrogate(self.doc_id) else "text"
            raise ValueError(f"{name} holds a lone surrogate")
        if type(self.position) is not int:
            raise ValueError("position must be an integer")
        object.__setattr__(self, "chunk_id", make_chunk_id(self.doc_id, self.position))
        if not self.doc_id:
            raise ValueError(f"chunk {self.chunk_id!r} has an empty doc_id")
        if not self.text.strip():
            raise ValueError(f"chunk {self.chunk_id!r} has no text")
        if self.position < 0:
            raise ValueError("position must be >= 0")
        object.__setattr__(self, "token_count", count_tokens(self.text))


# A corpus record as built on its line: a raw document with its chunks, or
# the chunk of a pre-chunked record.
_Record = tuple[Document, list[Chunk]] | Chunk


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    chunks: tuple[Chunk, ...]
    segmentation: SegmentationPolicy = SegmentationPolicy()
    tokenizer: ClassVar[str] = DEFAULT_TOKENIZER

    @property
    def total_corpus_tokens(self) -> int:
        """TCTC: the sum of the chunks' token counts."""
        return sum(chunk.token_count for chunk in self.chunks)


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
    if policy.kind == "fixed":
        n = policy.size
        groups = [sentences[i:i + n] for i in range(0, len(sentences), n)]
    else:  # sentence, or passthrough: each sentence is one chunk
        groups = [[s] for s in sentences]
    return [
        Chunk(doc.doc_id, pos, " ".join(group))
        for pos, group in enumerate(groups)
    ]


def build_document(doc_id: str, text: str, policy: SegmentationPolicy) -> Document:
    if policy.kind == "passthrough":
        sentences = (text,) if text.strip() else ()
    else:
        sentences = tuple(split_sentences(text))
    return Document(doc_id=doc_id, sentences=sentences)


def read_lines(path: str | Path) -> Iterator[str]:
    r"""The lines of a UTF-8 file, streamed, each with its line end. Only
    ``\n`` ends a line: a ``\r`` before it, or one alone, stays in the line,
    where callers strip or parse it as whitespace, and so do U+2028, U+0085
    and the other Unicode line breaks. A line whose bytes are not UTF-8
    raises MalformedRecordError naming the file and the line."""
    with open(path, "rb") as handle:  # binary lines end at b"\n" only
        for line_number, line in enumerate(handle, start=1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedRecordError(
                    f"not UTF-8 ({exc.reason}) in {path}", line_number
                ) from None
            yield text


def parse_json(
    text: str | bytes, parse_float: Callable[[str], object] | None = None
) -> object:
    """``json.loads`` of ``text``, bytes decoded as UTF-8. Every way the
    text can fail to decode raises ValueError with a short reason: bytes
    that are not UTF-8, text that is not JSON, nesting past the recursion
    limit, and an integer past the interpreter's digit limit for ``int``.

    ``parse_float``, where given, is ``json``'s hook for the text of a
    number with a fraction or an exponent. Only
    :func:`~slimrag.index.load_index` passes one (a memo that gives each
    distinct number text one float); every other reader (corpus lines,
    datasets, cache lines, provider replies) parses with the default."""
    try:
        if isinstance(text, bytes):  # rebound, so the bytes are freed before the parse
            text = text.decode("utf-8")
        return json.loads(text, parse_float=parse_float)
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except ValueError:  # the only other one: int() past the digit limit
        raise ValueError("JSON integer has too many digits") from None


def has_lone_surrogate(text: str) -> bool:
    r"""Whether ``text`` holds a code point in U+D800..U+DFFF, which no UTF-8
    encodes: JSON's ``\ud800`` escape decodes to one, and so does an argv
    byte that is not UTF-8. Outside text is checked with this where it
    enters, so such a string fails there, naming its line or entry."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _record(raw: str, line_number: int, policy: SegmentationPolicy) -> _Record:
    """The record on a non-blank line, decoded, its shape checked and built
    on its line: a pre-chunked record into its :class:`Chunk`, a raw
    document into its :class:`Document` and its chunks under ``policy``.
    Either way the chunk rule's ValueError becomes MalformedRecordError
    naming the line, so ``Chunk`` is the one check of a record's text. Only
    a raw document's ``doc_id`` is checked for lone surrogates here, since
    a blank document yields no chunk to check it."""
    try:
        record = parse_json(raw)
    except ValueError as exc:
        raise MalformedRecordError(str(exc), line_number) from None
    if not isinstance(record, dict):
        raise MalformedRecordError("record is not an object", line_number)
    if not isinstance(record.get("doc_id"), str) or not record["doc_id"]:
        raise MalformedRecordError("missing or empty doc_id", line_number)
    if not isinstance(record.get("text"), str):
        raise MalformedRecordError("missing text field", line_number)
    if "position" in record:
        return _chunk(line_number, record["doc_id"], record["position"], record["text"])
    if has_lone_surrogate(record["doc_id"]):
        raise MalformedRecordError("doc_id holds a lone surrogate", line_number)
    document = build_document(record["doc_id"], record["text"], policy)
    try:
        return document, segment_document(document, policy)
    except ValueError as exc:
        raise MalformedRecordError(str(exc), line_number) from None


def _chunk(line_number: int, doc_id: object, position: object, text: object) -> Chunk:
    """The chunk of a pre-chunked record or row; the chunk rule's ValueError
    becomes MalformedRecordError naming the line."""
    try:
        return Chunk(doc_id, position, text)
    except ValueError as exc:
        raise MalformedRecordError(str(exc), line_number) from None


def _of_form(record: _Record, line_number: int, prechunked: bool) -> _Record:
    """``record`` itself, if it has the form the stream's first record set."""
    if isinstance(record, Chunk) != prechunked:
        raise MalformedRecordError(
            "mixed document and pre-chunked records in one stream", line_number
        )
    return record


def ingest_corpus(
    source: Iterable[str], segmentation: SegmentationPolicy | None = None
) -> Corpus:
    """Read a JSONL corpus stream (lines of text, as :func:`read_lines`
    yields them) into an immutable Corpus, in one pass. Each record is
    built on its line (see :func:`_record`): a raw document is segmented
    there, a pre-chunked record becomes its :class:`Chunk`. The first
    record sets the form; pre-chunked chunks are assembled as
    :func:`corpus_from_chunks` assembles them, and raw documents keep their
    input order.

    Raises MalformedRecordError (with the offending line number) for bad
    records, including text :func:`parse_json` cannot decode, mixed record
    forms, a chunk :class:`Chunk` rejects, or non-contiguous pre-chunked
    positions, and DuplicateDocumentError for a repeated doc_id. An empty
    stream yields an empty corpus.
    """
    policy = segmentation or SegmentationPolicy()
    lines = ((n, raw.strip()) for n, raw in enumerate(source, start=1))
    records = ((n, _record(raw, n, policy)) for n, raw in lines if raw)
    first = next(records, None)
    prechunked = first is not None and isinstance(first[1], Chunk)
    records = chain([first] if first else [], records)
    records = ((n, _of_form(record, n, prechunked)) for n, record in records)
    if prechunked:
        return _prechunked(records)
    documents: dict[str, Document] = {}
    chunks: list[Chunk] = []
    for _, (document, here) in records:
        if documents.setdefault(document.doc_id, document) is not document:
            raise DuplicateDocumentError(f"duplicate doc_id {document.doc_id!r}")
        chunks.extend(here)
    return Corpus(tuple(documents.values()), tuple(chunks), policy)


def corpus_from_chunks(chunk_rows: Iterable[tuple[str, int, str]]) -> Corpus:
    """Assemble a pre-chunked Corpus from (doc_id, position, text) rows, as
    :func:`ingest_corpus` assembles pre-chunked records: each row is built
    into its :class:`Chunk` once, and the row number is the line number of
    its MalformedRecordError."""
    return _prechunked((n, _chunk(n, *row)) for n, row in enumerate(chunk_rows, start=1))


def _prechunked(chunks: Iterable[tuple[int, Chunk]]) -> Corpus:
    """The corpus of numbered chunks, each document's in position order. No
    document may repeat a position, and each document's positions must run
    from 0 without a gap."""
    by_doc: dict[str, dict[int, Chunk]] = {}
    for line_number, chunk in chunks:
        positions = by_doc.setdefault(chunk.doc_id, {})
        if positions.setdefault(chunk.position, chunk) is not chunk:
            raise MalformedRecordError(
                f"duplicate position {chunk.position} for doc_id {chunk.doc_id!r}",
                line_number,
            )
    documents: list[Document] = []
    ordered: list[Chunk] = []
    for doc_id, positions in by_doc.items():
        if max(positions) != len(positions) - 1:  # distinct ints >= 0: no gap iff so
            raise MalformedRecordError(
                f"positions for doc_id {doc_id!r} are not contiguous from 0"
            )
        here = [positions[i] for i in range(len(positions))]
        ordered.extend(here)
        documents.append(Document(doc_id, tuple(chunk.text for chunk in here)))
    return Corpus(tuple(documents), tuple(ordered), SegmentationPolicy("passthrough"))
