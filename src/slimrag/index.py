"""Entity-to-chunk index: build, update incrementally, query, persist.

``build_index`` and ``add_chunks`` share one write path, which returns a new
index and leaves its input untouched. It first fills the new chunk catalog,
which is the one check that each chunk id enters the index once (so the
catalog, TCTC and the posting lists count each chunk once, and a written
index loads back). It then walks each new chunk once: extract entities and
gather the chunk id under each, then embed every entity the index lacks
exactly once. Posting lists are frozensets, so the new index
shares every posting list, vector and chunk it does not change, and
``lookup`` hands out the stored posting list itself. The new index's entity
store shares the input's read-only vector blocks and adds the new
entities' vectors as one more block, so a write copies an old vector only
where blocks are merged, as a binary counter carries. The result is
independent of chunk processing order. Token accounting records all
provider-bound traffic (extraction in/out and embedding inputs) measured
by the accounting tokenizer; retrieval-time traffic never lands here.

The chunk catalog holds the corpus's own frozen
:class:`~slimrag.corpus.Chunk` objects, so TCTC and the extraction input
reuse each chunk's own token count, derived once from its text. ``Chunk``'s
constructor is the one rule for what a chunk is, so neither write can take
a chunk that the loader would reject, and no layer here checks one. One
compatibility check, :func:`check_compatible`, guards both ``add_chunks``
and retrieval: the providers must equal the configs the index holds, which
is the same as equal fingerprints, since every config is exactly its
document. The fingerprint itself is computed only where a document is
written.

Persistence is a single canonical JSON document (sorted keys, fixed
separators) with a SHA-256 content digest, written atomically by
:func:`replacing`, the one writer of every file slimrag writes: a temp file
``<target name>.<8 random hex digits>.tmp`` that the kernel creates under
the umask (from a replaced file's mode, then set exactly before the first
byte),
renamed over the target; a FIFO, a device or standard output's own file
is filled from memory, so every handle can seek back to the digest slot.
Identical indexes serialize
to identical bytes. ``_to_document`` and ``_vectors_json`` are the one
description of the format: save serializes each member once,
and load builds the index a file describes, re-serializes it and compares
digests. Both stream the document in parts into the hash (and, for save,
the file), so neither holds the whole text. A file is parsed with one
float object per distinct number text (:class:`_SharedFloats`): a local
embedder's components are a few quotients, so its file spells few
distinct numbers (131 in 802,048 components of a 3,133-entity index),
and the shared floats halve the memory the parse takes. The entity
vectors load into one float64 block in one pass over the parsed rows,
which becomes the store's one postings block before the load returns,
and so before any fork. They are serialized in slices of rows in entity
order, each slice densified on its own from the store's blocks
(:meth:`~slimrag.embedding.EntityVectorStore.rows`), and each distinct
component of a slice is written once (see ``_rows_json``). A file loads
iff it parses into an index whose ``save_index`` form has the stored
digest and passes the relational checks: a segmentation policy id and an
embedder id that ``SegmentationPolicy.parse`` and
``EmbedderConfig.from_id`` parse (the index holds the configs, so the
loader is where the library reads either id), with a store of the id's
dimension for a local embedder; an extractor document that
``ExtractorConfig`` takes as it is (normalized gazetteer entries and alias
terms, none repeated, no alias naming two canonical forms); finite vectors
that are not all zeros, non-empty posting lists of chunk ids in the
catalog, exactly one vector per entity of the store's dimension, catalog
keys that are their chunk's id (so no two chunks share a document and
position), and chunks that ``Chunk`` constructs from the file's values as
they are (a non-empty ``doc_id``, an ``int`` position >= 0, text that is
not blank, no lone surrogate). Any other file raises IndexIntegrityError
(SchemaVersionError for another schema). Derived fields (entity list,
fingerprint, each chunk's id and token count, TUIC, TCTC as the catalog's
token sum) are recomputed, not read. The loader trusts, unchecked, only the
accounting breakdown beyond the three indexing labels.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, ClassVar, Iterable, Iterator

import numpy as np

from .corpus import Chunk, Corpus, SegmentationPolicy, parse_json
from .embedding import (
    EmbedderConfig,
    EmbeddingCache,
    EntityVectorStore,
    _columns,
    embed_many,
)
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
_DIGEST = "content_digest"
_DIGEST_SLOT = '"' + "0" * 64 + '"'  # the digest member's text, before the digest

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


_CANONICAL = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",", ":")
)


def canonical_json(document: object) -> str:
    return _CANONICAL.encode(document)


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
class IndexConfig:
    """The fingerprint preimage: everything that shapes index content. It
    holds the segmentation policy and the embedder themselves; its document
    writes them as their ids, which only the loader parses back."""

    segmentation: SegmentationPolicy
    extractor: ExtractorConfig
    embedder: EmbedderConfig
    tokenizer: ClassVar[str] = DEFAULT_TOKENIZER

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "segmentation": self.segmentation.policy_id,
            "extractor": self.extractor.fingerprint_fields(),
            "embedder_id": self.embedder.embedder_id,
            "tokenizer": self.tokenizer,
        }

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
    chunk_catalog: dict[str, Chunk]
    accounting: TokenAccounting

    @property
    def entities(self) -> set[str]:
        return set(self.inverted_map)


def _extended(
    index: EntityIndex,
    chunks: list[Chunk],
    extractor: ExtractorConfig,
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None,
    action: str,
) -> EntityIndex:
    """The one index write: a new index holding ``index`` plus ``chunks``,
    sharing what they do not change. ``index`` is never modified.

    The new catalog is filled before any extraction, and it is the one
    check that each chunk id enters the index once: if it grew by fewer
    entries than there are chunks, an id is already indexed or repeated,
    and DuplicateChunkError names the first such id in input order (looked
    up only then). A ProviderError is re-raised with the number of chunks
    extracted before it."""
    catalog = dict(index.chunk_catalog)
    catalog.update((chunk.chunk_id, chunk) for chunk in chunks)
    if len(catalog) - len(index.chunk_catalog) < len(chunks):
        seen = set(index.chunk_catalog)
        for chunk in chunks:
            if chunk.chunk_id in seen:
                raise DuplicateChunkError(f"chunk_id {chunk.chunk_id!r} already indexed")
            seen.add(chunk.chunk_id)
    accounting = TokenAccounting(
        tctc=index.accounting.tctc + sum(c.token_count for c in chunks),
        breakdown=dict(index.accounting.breakdown),
    )
    added: dict[str, set[str]] = {}
    done = 0
    try:
        for chunk in chunks:
            entities, usage = extract_entities_with_usage(chunk.text, extractor)
            accounting.record(EXTRACTION_IN, chunk.token_count + usage.input_tokens)
            accounting.record(EXTRACTION_OUT, usage.output_tokens)
            for entity in entities:
                added.setdefault(entity, set()).add(chunk.chunk_id)
            done += 1
        new_entities = sorted(added.keys() - index.inverted_map.keys())
        block, norms = embed_many(new_entities, embedder, cache)
    except ProviderError as exc:
        raise ProviderError(
            f"index {action} aborted ({done}/{len(chunks)} chunks processed): {exc}"
        ) from exc

    inverted_map = dict(index.inverted_map)
    for entity, ids in added.items():
        inverted_map[entity] = inverted_map.get(entity, frozenset()) | ids
    for entity in new_entities:
        accounting.record(EMBEDDING_IN, count_tokens(entity))
    vectors = index.vectors.extended(new_entities, block, norms)
    return EntityIndex(index.config, inverted_map, vectors, catalog, accounting)


def build_index(
    corpus: Corpus,
    extractor: ExtractorConfig,
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None = None,
) -> EntityIndex:
    """Build a fresh index over a corpus; TCTC is the corpus's own token
    total. DuplicateChunkError if the corpus repeats a chunk id (a corpus
    made by hand can), raised before any extraction."""
    # The recorded extractor config covers indexing-relevant fields only;
    # decomposition is a retrieval-time toggle and is normalized away.
    config = IndexConfig(
        segmentation=corpus.segmentation,
        extractor=replace(extractor, decomposition_enabled=True),
        embedder=embedder,
    )
    vectors = EntityVectorStore(
        dimension=embedder.dimension if embedder.provider == "local" else 0
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
    concatenated corpus. ConfigMismatchError unless the providers built the
    index, then DuplicateChunkError for a chunk id already indexed or
    repeated among ``new_chunks``, both before any extraction. The input
    index is not modified, also when a provider fails; the result shares
    every posting list and vector the new chunks do not change, and holds
    each chunk itself."""
    check_compatible(index, extractor, embedder)
    return _extended(index, list(new_chunks), extractor, embedder, cache, "add")


def check_compatible(
    index: EntityIndex, extractor: ExtractorConfig, embedder: EmbedderConfig
) -> None:
    """Raise ConfigMismatchError unless these providers built the index.
    Each config is exactly its document (its constructor checks that), so
    equal configs are equal fingerprints; ``decomposition_enabled`` takes no
    part in an extractor's ``==``."""
    if extractor != index.config.extractor or embedder != index.config.embedder:
        raise ConfigMismatchError(
            "extractor/embedder do not match the index fingerprint"
        )


def lookup(index: EntityIndex, entity: str) -> frozenset[str]:
    """Chunk ids containing a (normalized) entity; empty when absent. This
    is the stored posting list itself, shared and immutable."""
    return index.inverted_map.get(entity, frozenset())


def _to_document(index: EntityIndex) -> dict:
    """The index file's content but its ``vectors`` member, which
    :func:`_vectors_json` writes: with it, the one description of the
    format, which save writes and load checks a file against. Chunks are
    read field by field: ``vars`` would also write each chunk's id, and
    would attach a dict to each chunk for the life of the index."""
    return {
        "schema": SCHEMA_VERSION,
        "config": index.config.to_document(),
        "config_fingerprint": index.config.fingerprint,
        "entities": sorted(index.inverted_map),
        "inverted_map": {
            entity: sorted(ids) for entity, ids in index.inverted_map.items()
        },
        "chunk_catalog": {
            chunk_id: {
                "doc_id": chunk.doc_id,
                "position": chunk.position,
                "text": chunk.text,
                "token_count": chunk.token_count,
            }
            for chunk_id, chunk in index.chunk_catalog.items()
        },
        "accounting": index.accounting.to_document(),
    }


# Entries serialized together: a slice's rows, their bits as Python ints and
# their texts are alive at once, and the per-slice numpy calls are amortized
# over this many rows.
_SLICE_ROWS = 32


def _vectors_json(store: EntityVectorStore, embedder_id: str) -> Iterator[str]:
    """The ``vectors`` member in parts: ``canonical_json`` of
    ``{"dimension": ..., "embedder_id": ..., "entries": {entity: vector}}``,
    one part per slice of ``_SLICE_ROWS`` entries in name order (see
    :func:`_rows_json`), so no more than one slice is ever text."""
    yield (
        '{"dimension":' + canonical_json(store.dimension)
        + ',"embedder_id":' + canonical_json(embedder_id) + ',"entries":{'
    )
    for i, (names, rows) in enumerate(_sorted_rows(store)):
        entries = map("{}:{}".format, map(canonical_json, names), _rows_json(rows))
        yield ("," if i else "") + ",".join(entries)
    yield "}}"


def _sorted_rows(store: EntityVectorStore) -> Iterator[tuple[list[str], np.ndarray]]:
    """The store's names in sorted order, ``_SLICE_ROWS`` at a time, each
    slice with its vectors as the rows of a C-contiguous float64 array,
    densified one slice at a time (:meth:`EntityVectorStore.rows`)."""
    order = sorted(range(len(store.names)), key=store.names.__getitem__)
    slices = store.rows(order, _SLICE_ROWS)
    for start, rows in zip(range(0, len(order), _SLICE_ROWS), slices):
        yield [store.names[i] for i in order[start:start + _SLICE_ROWS]], rows


def _rows_json(rows: np.ndarray) -> list[str]:
    """Each row's ``canonical_json``. When the slice has at most half as
    many distinct components as components (the local embedder's few
    quotients), each distinct one is written once, keyed by its bits so
    ``0.0`` and ``-0.0`` stay apart, by one ``canonical_json`` of their
    list, and each row is joined from those texts. Otherwise (a remote
    embedder's nearly all distinct floats) the rows are written one by one,
    as soon as the count passes half."""
    bits = rows.view(np.uint64)
    distinct: set[int] = set()
    for row in bits:
        distinct.update(row.tolist())
        if 2 * len(distinct) > rows.size:
            return [canonical_json(row.tolist()) for row in rows]
    keys = np.array(sorted(distinct), dtype=np.uint64)
    texts = canonical_json(keys.view(np.float64).tolist())[1:-1].split(",")
    gathered = np.array(texts, dtype=object)[np.searchsorted(keys, bits)]
    return ["[" + ",".join(row) + "]" for row in gathered.tolist()]


def _from_document(document: dict) -> EntityIndex:
    """The index a parsed file describes, each object built by its own
    constructor: the extractor and each chunk from the file's values as they
    are (each constructor rejects any it would not write back; ``Chunk`` is
    the one rule for a chunk, and derives its id and token count from its
    text as ingest does), the rest from scalars coerced to their types.
    Members are popped as they are read. Derived and constant fields
    (``entities``, ``config_fingerprint``, each chunk's ``token_count``,
    TUIC, TCTC, the tokenizer, the vectors' embedder id) are not read:
    re-serializing the result shows whether they agree.

    The entity vectors become one float64 block, built first in one pass
    over the rows (``_columns``): each row's length is checked, its norm
    taken from the parsed floats and the row packed into the block a
    packing block at a time. Each parsed row is popped as it is read, so
    the parsed lists are freed as the block fills. The first row's length
    is checked before the block is allocated, so a damaged dimension
    cannot size it. The store's one postings block is made from the block,
    once. The chunks and posting sets are built after it: with the parse's
    shared floats (:class:`_SharedFloats`), that order leaves about 4 MB
    less resident after loading a remote-shaped index of 1,748 × 256
    distinct components than building the block last, and as much or
    less after loading a local one."""
    config_doc = document.pop("config")
    embedder = EmbedderConfig.from_id(str(config_doc["embedder_id"]))
    config = IndexConfig(
        segmentation=SegmentationPolicy.parse(str(config_doc["segmentation"])),
        extractor=ExtractorConfig(**config_doc["extractor"]),
        embedder=embedder,
    )
    vectors_doc = document.pop("vectors")
    dimension = int(vectors_doc["dimension"])
    _require(
        embedder.provider != "local" or dimension == embedder.dimension,
        "entity vectors do not have the embedder's dimension",
    )
    entries = vectors_doc["entries"]
    _require(isinstance(entries, dict), "entity vectors are not an object")
    names = list(entries)
    _require(
        not names or len(entries[names[0]]) == dimension,
        "entity vectors do not have the stored dimension",
    )
    block, norms = _columns(
        (entries.pop(name) for name in names), len(names), dimension
    )
    vectors = EntityVectorStore(dimension).extended(names, block, norms)
    chunk_catalog = {
        chunk_id: Chunk(chunk["doc_id"], chunk["position"], chunk["text"])
        for chunk_id, chunk in document.pop("chunk_catalog").items()
    }
    inverted_map = {
        entity: frozenset(map(str, ids))
        for entity, ids in document.pop("inverted_map").items()
    }
    accounting = TokenAccounting(
        tctc=sum(chunk.token_count for chunk in chunk_catalog.values()),
        breakdown={
            label: int(tokens)
            for label, tokens in document.pop("accounting")["breakdown"].items()
        },
    )
    return EntityIndex(config, inverted_map, vectors, chunk_catalog, accounting)


def _members(index: EntityIndex) -> dict[str, Iterable[str]]:
    """Each top-level member of the index document as the parts of its
    canonical JSON text; the ``vectors`` member's parts are made as they
    are read."""
    members: dict[str, Iterable[str]] = {
        key: [canonical_json(value)] for key, value in _to_document(index).items()
    }
    members["vectors"] = _vectors_json(
        index.vectors, index.config.embedder.embedder_id
    )
    return members


def _object_parts(members: dict[str, Iterable[str]]) -> Iterator[tuple[str, str]]:
    """The text of a canonical JSON object, in parts, from its members'
    parts; each part comes with the key of the member it belongs to ("" for
    the braces)."""
    yield "", "{"
    for i, key in enumerate(sorted(members)):
        yield key, ("," if i else "") + canonical_json(key) + ":"
        for part in members[key]:
            yield key, part
    yield "", "}"


def _require(condition: bool, problem: str) -> None:
    if not condition:
        raise IndexIntegrityError(f"index file is damaged: {problem}")


def _check_relations(index: EntityIndex) -> None:
    """The facts a round trip cannot see; the vector dimension is checked
    while loading."""
    catalog = index.chunk_catalog
    for entity, ids in index.inverted_map.items():
        _require(ids, f"entity {entity!r} has no chunks")
        _require(
            ids <= catalog.keys(),
            f"entity {entity!r} points at a chunk not in the catalog",
        )
    _require(
        index.inverted_map.keys() == set(index.vectors.names),
        "entities and entity vectors differ",
    )
    for block in index.vectors.blocks:  # a loaded store has at most one
        finite, nonzero = block.finite_and_nonzero()
        for i in np.flatnonzero(~(finite & nonzero))[:1].tolist():
            entity = index.vectors.names[i]
            _require(finite[i], f"vector of {entity!r} is not finite")
            _require(False, f"vector of {entity!r} is all zeros")
    for chunk_id in (key for key, chunk in catalog.items() if key != chunk.chunk_id):
        _require(False, f"catalog key {chunk_id!r} is not <doc_id>#<position>")


# A temp file's name starts with at most this many characters of its
# target's: 60 UTF-8 characters and the 13 added fit in 255 bytes, the
# longest file name Linux takes, so any name the target can have fits.
_NAME_CHARS = 60


def _is_stdout(status: os.stat_result) -> bool:
    """Whether ``status`` is the file of this process's ``sys.stdout``
    (never when it has no file descriptor, as under a captured stream)."""
    try:
        return os.path.samestat(status, os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError, AttributeError):  # no stdout file
        return False


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """The one way slimrag writes a file (the index, a trace, a report, a
    CSV): a binary, seekable handle whose bytes replace ``path``
    atomically, so a reader, or a crash at any point, finds the old file or
    the whole new one.

    The bytes go to a temp file in the target's directory, named
    ``<target name>.<8 random hex digits>.tmp`` (the name cut to its first
    ``_NAME_CHARS`` characters) and created with ``O_EXCL`` and the mode
    of the file it replaces, or ``0o666`` for a new one, less the umask,
    which the kernel applies. A replaced file's exact mode is then set on
    the temp file before its first byte, so the temp file is never more
    open than its target. On a clean exit it is flushed,
    fsynced and renamed over the target; on any exception it is unlinked.
    A process killed mid-write leaves it behind, and nothing sweeps it: a
    sweep cannot tell a dead writer's temp file from a live one's. Temp
    file plus rename does not cover power loss before the directory entry
    reaches the disk; the directory is not fsynced.

    A symlink is followed: the file it resolves to is replaced and the
    link stays. A target that exists and is not a regular file (a FIFO, a
    device such as ``/dev/null``) is opened for writing first, so a
    directory fails before any work; the handle is then an in-memory
    buffer, written to the target on a clean exit, with no temp file and no
    rename. A target that is standard output's own file (``/dev/stdout``,
    whether standard output is a terminal, a pipe or redirected to a file)
    also gets an in-memory buffer, written on a clean exit to
    ``sys.stdout.buffer`` after ``sys.stdout`` is flushed: so the bytes
    land in order with what the program prints before and after them, and
    a file standard output is redirected to is not replaced. An
    ``OSError`` with an errno names ``path``, not the temp file; that
    includes the ``FileExistsError`` of a leftover temp file with the same
    32 random bits, which is not retried."""
    try:
        try:
            status = os.stat(path)
        except FileNotFoundError:
            status = None
        if status is not None and _is_stdout(status):
            buffer = io.BytesIO()
            yield buffer
            sys.stdout.flush()
            sys.stdout.buffer.write(buffer.getvalue())
            sys.stdout.buffer.flush()
            return
        if status is not None and not stat.S_ISREG(status.st_mode):
            with os.fdopen(os.open(path, os.O_WRONLY), "wb") as handle:
                buffer = io.BytesIO()
                yield buffer
                handle.write(buffer.getvalue())
            return
        target = os.path.realpath(path)
        directory, name = os.path.split(target)
        tmp = os.path.join(directory, f"{name[:_NAME_CHARS]}.{os.urandom(4).hex()}.tmp")
        perms = 0o666 if status is None else stat.S_IMODE(status.st_mode)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, perms)
        try:
            with os.fdopen(fd, "wb") as handle:
                if status is not None:
                    os.fchmod(fd, perms)
                yield handle
                handle.flush()
                os.fsync(fd)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def save_index(index: EntityIndex, path: str | Path) -> None:
    """Write the canonical index file atomically through :func:`replacing`,
    as every file slimrag writes is: temp file, fsync, rename, so a crash
    leaves the old index or the new one. A save killed mid-write leaves its
    temp file ``<target name>.<8 random hex digits>.tmp`` beside the
    target, and nothing sweeps it (see :func:`replacing`).

    Each member is serialized once, part by part, into both the digest and
    the file; the digest member is written as a placeholder of its width
    and overwritten once the digest is known. It is never the first member,
    so skipping its parts (and its leading comma) hashes the document
    without it. Every handle ``replacing`` gives can seek back to the slot:
    a FIFO, a device or standard output's own file gets an in-memory
    buffer, so ``--out /dev/stdout`` writes the index before the lines
    printed after it."""
    members = _members(index)
    members[_DIGEST] = [_DIGEST_SLOT]
    sha = hashlib.sha256()
    with replacing(path) as handle:
        for key, part in _object_parts(members):
            data = part.encode("utf-8")
            if key != _DIGEST:
                sha.update(data)
            elif part == _DIGEST_SLOT:
                slot = handle.tell() + 1
            handle.write(data)
        handle.write(b"\n")
        handle.seek(slot)
        handle.write(sha.hexdigest().encode("ascii"))


_SHARED_FLOATS = 65_536  # entries a load's memo of number texts holds at most


class _SharedFloats(dict):
    """A load's memo of number texts: each distinct text parses to one float,
    shared by every component that spells it. A local embedder's components
    are a few quotients ``c/√S``, so its file spells few distinct numbers in
    many components. Past ``_SHARED_FLOATS`` entries the memo stores no
    more, so however many distinct numbers a file spells, as a remote
    embedder's nearly all distinct components do, its table and keys stay
    under about 6 MB. ``__getitem__`` is the ``parse_float`` of
    :func:`load_index`."""

    def __missing__(self, text: str) -> float:
        value = float(text)
        if len(self) < _SHARED_FLOATS:
            self[text] = value
        return value


def load_index(path: str | Path) -> EntityIndex:
    """Read and verify an index file. It loads iff it parses into an index
    whose save_index form has the stored digest and passes the relational
    checks; otherwise IndexIntegrityError, or SchemaVersionError for another
    schema. The result's entity vectors are one postings block (see
    ``_from_document``)."""
    try:
        document = parse_json(Path(path).read_bytes(), _SharedFloats().__getitem__)
    except ValueError as exc:
        raise IndexIntegrityError(f"index file is not UTF-8 JSON: {exc}") from None
    if not isinstance(document, dict):
        raise IndexIntegrityError("index file is not a JSON object")
    schema = document.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported index schema {schema!r} (expected {SCHEMA_VERSION!r})"
        )
    stored_digest = document.pop(_DIGEST, None)
    try:
        index = _from_document(document)
        sha = hashlib.sha256()
        for _, part in _object_parts(_members(index)):
            sha.update(part.encode("utf-8"))
    except (
        KeyError, TypeError, ValueError, AttributeError, OverflowError,
        DimensionMismatchError,
    ) as exc:
        raise IndexIntegrityError(f"index file is damaged: {exc}") from None
    if sha.hexdigest() != stored_digest:
        raise IndexIntegrityError("content digest mismatch; file is corrupt")
    _check_relations(index)
    return index
