"""Entity-to-chunk index: build, update incrementally, query, persist.

``build_index`` and ``add_chunks`` share one write path, which returns a new
index and leaves its input untouched. It walks each new chunk once: extract
entities and gather the chunk id under each, then embed every entity the
index lacks exactly once. Posting lists are frozensets, so the new index
shares every posting list, vector and chunk record it does not change, and
``lookup`` hands out the stored posting list itself. The result is
independent of chunk processing order. Token accounting records all
provider-bound traffic (extraction in/out and embedding inputs) measured by
the accounting tokenizer; retrieval-time traffic never lands here.

Chunk records, TCTC and the extraction input reuse each chunk's own token
count. One fingerprint check, :func:`check_compatible`, guards both
``add_chunks`` and retrieval.

Persistence is a single canonical JSON document (sorted keys, fixed
separators) with a SHA-256 content digest, written atomically. Identical
indexes serialize to identical bytes. Loading verifies the digest and then
the structure: every key present with its JSON type, the ``ws-punct/v1``
tokenizer, one embedder id shared by the config and the vectors, finite
vector values, inverted-map chunk ids that exist in the chunk catalog, and
exactly one vector per entity. Any failure raises IndexIntegrityError.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

from .corpus import Chunk, Corpus
from .embedding import EmbedderConfig, EmbeddingCache, EntityVectorStore, embed_many
from .errors import (
    ConfigMismatchError,
    DimensionMismatchError,
    DuplicateChunkError,
    IndexIntegrityError,
    ProviderError,
    SchemaVersionError,
)
from .extraction import ExtractorConfig, extract_entities_with_usage
from .tokenization import DEFAULT_TOKENIZER, count_tokens

SCHEMA_VERSION = "slimrag-index/v1"

EXTRACTION_IN = "extraction-prompt-in"
EXTRACTION_OUT = "extraction-out"
EMBEDDING_IN = "embedding-in"
DECOMPOSITION_IN = "decomposition-in"
DECOMPOSITION_OUT = "decomposition-out"
BREAKDOWN_LABELS = (
    EXTRACTION_IN,
    EXTRACTION_OUT,
    EMBEDDING_IN,
    DECOMPOSITION_IN,
    DECOMPOSITION_OUT,
)
_INDEXING_LABELS = (EXTRACTION_IN, EXTRACTION_OUT, EMBEDDING_IN)


def canonical_json(document: object) -> str:
    return json.dumps(
        document, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )


@dataclass
class TokenAccounting:
    """TUIC/TCTC bookkeeping with a per-source breakdown."""

    tctc: int = 0
    breakdown: dict[str, int] = field(
        default_factory=lambda: {label: 0 for label in BREAKDOWN_LABELS}
    )

    @property
    def tuic(self) -> int:
        return sum(self.breakdown[label] for label in _INDEXING_LABELS)

    def record(self, label: str, tokens: int) -> None:
        self.breakdown[label] = self.breakdown.get(label, 0) + tokens

    def merged(self, other: "TokenAccounting") -> "TokenAccounting":
        breakdown = dict(self.breakdown)
        for label, tokens in other.breakdown.items():
            breakdown[label] = breakdown.get(label, 0) + tokens
        return TokenAccounting(tctc=self.tctc + other.tctc, breakdown=breakdown)

    def to_document(self) -> dict:
        return {
            "tuic": self.tuic,
            "tctc": self.tctc,
            "breakdown": dict(sorted(self.breakdown.items())),
        }


@dataclass(frozen=True)
class ChunkRecord:
    doc_id: str
    position: int
    text: str
    token_count: int


@dataclass(frozen=True)
class IndexConfig:
    """The fingerprint preimage: everything that shapes index content."""

    segmentation: str
    extractor: ExtractorConfig
    embedder_id: str
    tokenizer: ClassVar[str] = DEFAULT_TOKENIZER

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "segmentation": self.segmentation,
            "extractor": self.extractor.fingerprint_fields(),
            "embedder_id": self.embedder_id,
            "tokenizer": self.tokenizer,
        }

    @classmethod
    def from_document(cls, document: object) -> "IndexConfig":
        """Inverse of :meth:`to_document`; IndexIntegrityError for a missing,
        extra, or mistyped field or another tokenizer."""
        _fields(document, _CONFIG_TYPES, "config")
        _require(document["schema_version"] == SCHEMA_VERSION, "config schema differs")
        _require(
            document["tokenizer"] == cls.tokenizer,
            f"tokenizer {document['tokenizer']!r} is not {cls.tokenizer!r}",
        )
        try:
            extractor = ExtractorConfig.from_fingerprint_fields(document["extractor"])
        except ValueError as exc:
            raise IndexIntegrityError(f"index file is damaged: {exc}") from None
        return cls(
            segmentation=document["segmentation"],
            extractor=extractor,
            embedder_id=document["embedder_id"],
        )

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(
            canonical_json(self.to_document()).encode("utf-8")
        ).hexdigest()


@dataclass
class EntityIndex:
    config: IndexConfig
    inverted_map: dict[str, frozenset[str]]
    vectors: EntityVectorStore
    chunk_catalog: dict[str, ChunkRecord]
    accounting: TokenAccounting

    @property
    def entities(self) -> set[str]:
        return set(self.inverted_map)

    @property
    def config_fingerprint(self) -> str:
        return self.config.fingerprint

    @property
    def chunk_count(self) -> int:
        return len(self.chunk_catalog)


def _extended(
    index: EntityIndex,
    chunks: list[Chunk],
    extractor: ExtractorConfig,
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None,
    action: str,
) -> EntityIndex:
    """The one index write: a new index holding ``index`` plus ``chunks``,
    sharing what they do not change. ``index`` is never modified; a
    ProviderError is re-raised with the number of chunks extracted before it."""
    accounting = TokenAccounting(
        tctc=index.accounting.tctc + sum(c.token_count for c in chunks),
        breakdown=dict(index.accounting.breakdown),
    )
    catalog = dict(index.chunk_catalog)
    added: dict[str, set[str]] = {}
    try:
        for chunk in chunks:
            entities, usage = extract_entities_with_usage(chunk.text, extractor)
            accounting.record(EXTRACTION_IN, chunk.token_count + usage.input_tokens)
            accounting.record(EXTRACTION_OUT, usage.output_tokens)
            catalog[chunk.chunk_id] = ChunkRecord(
                chunk.doc_id, chunk.position, chunk.text, chunk.token_count
            )
            for entity in entities:
                added.setdefault(entity, set()).add(chunk.chunk_id)
        new_entities = sorted(added.keys() - index.inverted_map.keys())
        new_vectors = embed_many(new_entities, embedder, cache)
    except ProviderError as exc:
        done = len(catalog) - len(index.chunk_catalog)
        raise ProviderError(
            f"index {action} aborted ({done}/{len(chunks)} chunks processed): {exc}"
        ) from exc

    inverted_map = dict(index.inverted_map)
    for entity, ids in added.items():
        inverted_map[entity] = inverted_map.get(entity, frozenset()) | ids
    vectors = replace(index.vectors, entries=dict(index.vectors.entries))
    for entity, vector in zip(new_entities, new_vectors):
        vectors.add(entity, vector)
        accounting.record(EMBEDDING_IN, count_tokens(entity))
    return EntityIndex(index.config, inverted_map, vectors, catalog, accounting)


def build_index(
    corpus: Corpus,
    extractor: ExtractorConfig,
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None = None,
) -> EntityIndex:
    """Build a fresh index over a corpus; TCTC is the corpus's own token total."""
    # The recorded extractor config covers indexing-relevant fields only;
    # decomposition is a retrieval-time toggle and is normalized away.
    config = IndexConfig(
        segmentation=corpus.segmentation,
        extractor=replace(extractor, decomposition_enabled=True),
        embedder_id=embedder.embedder_id,
    )
    vectors = EntityVectorStore(
        dimension=embedder.dimension if embedder.provider == "local" else 0,
        embedder_id=embedder.embedder_id,
    )
    empty = EntityIndex(config, {}, vectors, {}, TokenAccounting())
    return _extended(empty, list(corpus.chunks), extractor, embedder, cache, "build")


def add_chunks(
    index: EntityIndex,
    new_chunks: list[Chunk],
    extractor: ExtractorConfig,
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None = None,
) -> EntityIndex:
    """Extend an index with new chunks; equivalent to rebuilding over the
    concatenated corpus. The input index is not modified, also when a
    provider fails; the result shares every posting list, vector and chunk
    record the new chunks do not change."""
    check_compatible(index, extractor, embedder)
    seen = set(index.chunk_catalog)
    for chunk in new_chunks:
        if chunk.chunk_id in seen:
            raise DuplicateChunkError(f"chunk_id {chunk.chunk_id!r} already indexed")
        seen.add(chunk.chunk_id)
    return _extended(index, list(new_chunks), extractor, embedder, cache, "add")


def check_compatible(
    index: EntityIndex, extractor: ExtractorConfig, embedder: EmbedderConfig
) -> None:
    """Raise ConfigMismatchError unless these providers built the index."""
    expected = IndexConfig(
        segmentation=index.config.segmentation,
        extractor=extractor,
        embedder_id=embedder.embedder_id,
    )
    if expected.fingerprint != index.config_fingerprint:
        raise ConfigMismatchError(
            "extractor/embedder do not match the index fingerprint"
        )


def lookup(index: EntityIndex, entity: str) -> frozenset[str]:
    """Chunk ids containing a (normalized) entity; empty when absent. This
    is the stored posting list itself, shared and immutable."""
    return index.inverted_map.get(entity, frozenset())


def _to_document(index: EntityIndex) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "config": index.config.to_document(),
        "config_fingerprint": index.config_fingerprint,
        "entities": sorted(index.inverted_map),
        "inverted_map": {
            entity: sorted(ids) for entity, ids in index.inverted_map.items()
        },
        "vectors": {
            "embedder_id": index.vectors.embedder_id,
            "dimension": index.vectors.dimension,
            "entries": {
                entity: list(vector)
                for entity, vector in index.vectors.entries.items()
            },
        },
        "chunk_catalog": {
            chunk_id: vars(record) for chunk_id, record in index.chunk_catalog.items()
        },
        "accounting": index.accounting.to_document(),
    }


# The JSON type of every key of the index document and its nested objects.
_DOCUMENT_TYPES = {
    "schema": str, "config": dict, "config_fingerprint": str, "entities": list,
    "inverted_map": dict, "vectors": dict, "chunk_catalog": dict, "accounting": dict,
}
_CONFIG_TYPES = {
    "schema_version": str, "segmentation": str, "extractor": dict,
    "embedder_id": str, "tokenizer": str,
}
_VECTORS_TYPES = {"dimension": int, "embedder_id": str, "entries": dict}
_CHUNK_TYPES = {"doc_id": str, "position": int, "text": str, "token_count": int}
_ACCOUNTING_TYPES = {"tctc": int, "tuic": int, "breakdown": dict}


def _is(value: object, kind: type) -> bool:
    """JSON type test; a bool does not pass as a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _require(condition: bool, problem: str) -> None:
    if not condition:
        raise IndexIntegrityError(f"index file is damaged: {problem}")


def _fields(value: object, types: dict[str, type], what: str) -> dict:
    """``value`` if it is an object with exactly these keys and JSON types."""
    _require(
        _is(value, dict)
        and value.keys() == types.keys()
        and all(_is(value[key], kind) for key, kind in types.items()),
        f"{what} must have exactly the keys {sorted(types)} with their types",
    )
    return value


def save_index(index: EntityIndex, path: str | Path) -> None:
    """Write the canonical index file atomically: temp file, fsync, rename."""
    path = Path(path)
    document = _to_document(index)
    digest = hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()
    document["content_digest"] = digest
    payload = canonical_json(document) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent if str(path.parent) else ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def load_index(path: str | Path) -> EntityIndex:
    """Read and verify an index file; structural inverse of save_index."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise IndexIntegrityError(f"index file is not valid JSON: {exc.msg}") from None
    if not isinstance(document, dict):
        raise IndexIntegrityError("index file is not a JSON object")
    schema = document.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported index schema {schema!r} (expected {SCHEMA_VERSION!r})"
        )
    stored_digest = document.get("content_digest")
    body = {k: v for k, v in document.items() if k != "content_digest"}
    digest = hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()
    if stored_digest != digest:
        raise IndexIntegrityError("content digest mismatch; file is corrupt")

    _fields(body, _DOCUMENT_TYPES, "the document")
    config = IndexConfig.from_document(document["config"])
    if document["config_fingerprint"] != config.fingerprint:
        raise IndexIntegrityError("config fingerprint does not match config")

    vectors_doc = _fields(document["vectors"], _VECTORS_TYPES, "vectors")
    _require(
        vectors_doc["embedder_id"] == config.embedder_id,
        "vectors and config name different embedders",
    )
    vectors = EntityVectorStore(
        dimension=vectors_doc["dimension"], embedder_id=vectors_doc["embedder_id"]
    )
    for entity, values in vectors_doc["entries"].items():
        try:
            _require(
                _is(values, list)
                and set(map(type, values)) <= {float, int}
                and all(map(math.isfinite, values)),
                f"vector of {entity!r} is not a list of finite numbers",
            )
            vectors.add(entity, tuple(map(float, values)))
        except (DimensionMismatchError, OverflowError) as exc:
            raise IndexIntegrityError(f"index file is damaged: {exc}") from None

    chunk_catalog = {
        chunk_id: ChunkRecord(**_fields(fields, _CHUNK_TYPES, f"chunk {chunk_id!r}"))
        for chunk_id, fields in document["chunk_catalog"].items()
    }
    inverted_map = {}
    for entity, ids in document["inverted_map"].items():
        _require(
            _is(ids, list) and all(_is(i, str) for i in ids),
            f"chunk ids of {entity!r} are not a list of strings",
        )
        inverted_map[entity] = frozenset(ids)
        _require(
            inverted_map[entity] <= chunk_catalog.keys(),
            f"entity {entity!r} points at a chunk not in the catalog",
        )
    if sorted(inverted_map) != document["entities"]:
        raise IndexIntegrityError("entity list does not match inverted map keys")
    _require(
        inverted_map.keys() == vectors.entries.keys(),
        "entities and entity vectors differ",
    )

    accounting_doc = _fields(document["accounting"], _ACCOUNTING_TYPES, "accounting")
    _require(
        all(_is(n, int) for n in accounting_doc["breakdown"].values())
        and set(_INDEXING_LABELS) <= accounting_doc["breakdown"].keys(),
        "accounting breakdown must map every indexing label to an integer",
    )
    accounting = TokenAccounting(
        tctc=accounting_doc["tctc"], breakdown=dict(accounting_doc["breakdown"])
    )
    if accounting_doc["tuic"] != accounting.tuic:
        raise IndexIntegrityError("stored TUIC does not match breakdown")
    return EntityIndex(
        config=config,
        inverted_map=inverted_map,
        vectors=vectors,
        chunk_catalog=chunk_catalog,
        accounting=accounting,
    )
