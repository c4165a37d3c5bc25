"""Embeddings, cosine similarity, and exhaustive top-K entity search.

The local embedder is fully specified here so any implementation, in any
language, reproduces identical vectors (id ``local-hash/v1:<dim>:<seed>``):

1. Normalize the text: trim, collapse internal whitespace to single spaces,
   lowercase, Unicode NFC (same rule as entity normalization).
2. Collect every contiguous character 2-gram and 3-gram of the normalized
   text. If the text is shorter than 2 characters, the text itself is the
   only gram.
3. Hash each gram with FNV-1a 64-bit over its UTF-8 bytes, with the initial
   state ``0xcbf29ce484222325 XOR seed`` and prime ``0x100000001b3``,
   arithmetic modulo 2^64. The default seed is ``0x9e3779b97f4a7c15``.
4. Accumulate ``v[h mod dim] += s`` where ``s`` is +1 when bit 63 of ``h``
   is 0 and -1 otherwise.
5. L2-normalize ``v``. If the accumulated vector is all zeros, the result is
   the unit vector with 1.0 at index 0.

The default dimension is 256. Remote embeddings use the embeddings-API wire
format in :mod:`slimrag.remote` and are returned verbatim. Top-K search is
exhaustive and exact; ties break by entity string ascending.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from . import remote
from .errors import DimensionMismatchError, ZeroVectorError
from .extraction import normalize_entity

Vector = tuple[float, ...]

DEFAULT_DIMENSION = 256
DEFAULT_SEED = 0x9E3779B97F4A7C15
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class EmbedderConfig:
    provider: str = "local"
    dimension: int = DEFAULT_DIMENSION
    seed: int = DEFAULT_SEED
    remote_model: str = remote.DEFAULT_EMBED_MODEL
    batch_size: int = 64

    def __post_init__(self) -> None:
        if self.provider not in ("local", "remote"):
            raise ValueError(f"unknown provider {self.provider!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")

    @property
    def embedder_id(self) -> str:
        if self.provider == "local":
            return f"local-hash/v1:{self.dimension}:{self.seed:#x}"
        return f"remote:{self.remote_model}"


def _fnv1a64(data: bytes, seed: int) -> int:
    h = (_FNV_BASIS ^ seed) & _MASK64
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=65536)
def _local_embed(text: str, dimension: int, seed: int) -> Vector:
    normalized = normalize_entity(text)
    grams = [
        normalized[i:i + n]
        for n in (2, 3)
        for i in range(len(normalized) - n + 1)
    ] or [normalized]
    values = [0.0] * dimension
    for gram in grams:
        h = _fnv1a64(gram.encode("utf-8"), seed)
        values[h % dimension] += 1.0 if (h >> 63) == 0 else -1.0
    norm = math.sqrt(sum(x * x for x in values))
    if norm == 0.0:
        values[0] = 1.0
        return tuple(values)
    return tuple(x / norm for x in values)


class EmbeddingCache:
    """Append-only (embedder_id, text digest) -> vector cache.

    The on-disk form is JSONL, one record per line; reads tolerate a missing
    file. Writes append immediately so concurrent readers see a prefix. A
    last line without its newline is an append that never finished: loading
    drops it and truncates the file to the last complete record, so the next
    append starts on a fresh line. Any other damaged line, including a vector
    with a non-finite value, raises ValueError.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[tuple[str, str], Vector] = {}
        self._write_lock = threading.Lock()
        if self.path is not None and self.path.exists():
            data = self.path.read_bytes()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                with self.path.open("r+b") as handle:
                    handle.truncate(complete)
            lines = data[:complete].decode("utf-8").splitlines()
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    key = (record["embedder"], record["digest"])
                    vector = tuple(float(x) for x in record["vector"])
                    _check_finite(vector)
                    self._entries[key] = vector
                except (ValueError, KeyError, TypeError):
                    raise ValueError(
                        f"embedding cache {self.path}: line {number} is damaged"
                    ) from None

    @staticmethod
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def get(self, embedder_id: str, text: str) -> Vector | None:
        return self._entries.get((embedder_id, self.digest(text)))

    def put(self, embedder_id: str, text: str, vector: Vector) -> None:
        key = (embedder_id, self.digest(text))
        with self._write_lock:
            if key in self._entries:
                return
            self._entries[key] = vector
            if self.path is not None:
                record = {"embedder": key[0], "digest": key[1], "vector": list(vector)}
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")

    def __len__(self) -> int:
        return len(self._entries)


def embed(
    text: str,
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None = None,
) -> Vector:
    """Embed one text; deterministic for the local provider."""
    if not text.strip():
        raise ValueError("cannot embed empty text")
    if embedder.provider == "local":
        return _local_embed(text, embedder.dimension, embedder.seed)
    return embed_many([text], embedder, cache)[0]


def embed_many(
    texts: list[str],
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None = None,
) -> list[Vector]:
    """Embed texts in order, batching remote calls and using the cache."""
    if embedder.provider == "local":
        return [embed(t, embedder) for t in texts]
    if not all(t.strip() for t in texts):
        raise ValueError("cannot embed empty text")
    out: dict[int, Vector] = {}
    missing: list[tuple[int, str]] = []
    for i, text in enumerate(texts):
        hit = cache.get(embedder.embedder_id, text) if cache is not None else None
        if hit is not None:
            out[i] = hit
        else:
            missing.append((i, text))
    for start in range(0, len(missing), embedder.batch_size):
        batch = missing[start:start + embedder.batch_size]
        vectors = remote.embed_batch(
            [t for _, t in batch], model=embedder.remote_model
        )
        for (i, text), vector in zip(batch, vectors):
            vec = tuple(vector)
            _check_finite(vec)
            out[i] = vec
            if cache is not None:
                cache.put(embedder.embedder_id, text, vec)
    return [out[i] for i in range(len(texts))]


def _check_finite(vector: Vector) -> None:
    if not all(math.isfinite(x) for x in vector):
        raise ValueError("vector contains non-finite values")


def cosine_similarity(a: Vector, b: Vector) -> float:
    """(a.b) / (|a||b|); raises on dimension mismatch or a zero vector.

    Components are scaled by their norms before the dot product, so inputs
    of any magnitude neither underflow nor overflow.
    """
    if len(a) != len(b):
        raise DimensionMismatchError(f"dimensions differ: {len(a)} vs {len(b)}")
    norm_a = math.hypot(*a)
    norm_b = math.hypot(*b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    dot = 0.0
    for x, y in zip(a, b):
        dot += (x / norm_a) * (y / norm_b)
    return dot


@dataclass
class EntityVectorStore:
    """Immutable-after-build map from entity surface to its vector.

    A dimension of 0 means "unset"; the first vector added fixes it (remote
    embedders do not announce their dimension up front).
    """

    dimension: int
    embedder_id: str
    entries: dict[str, Vector] = field(default_factory=dict)

    def add(self, entity: str, vector: Vector) -> None:
        if self.dimension == 0 and not self.entries:
            self.dimension = len(vector)
        if len(vector) != self.dimension:
            raise DimensionMismatchError(
                f"vector for {entity!r} has dimension {len(vector)}, store has {self.dimension}"
            )
        _check_finite(vector)
        self.entries[entity] = vector

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, entity: str) -> bool:
        return entity in self.entries


def top_k_entities(
    query_vec: Vector,
    store: EntityVectorStore,
    k: int,
) -> list[tuple[str, float]]:
    """The K most similar stored entities, exhaustively and exactly.

    Sorted by similarity descending, ties by entity string ascending.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scored = [
        (entity, cosine_similarity(query_vec, vector))
        for entity, vector in store.entries.items()
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]
