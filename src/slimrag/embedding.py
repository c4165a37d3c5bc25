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
   arithmetic modulo 2^64. The seed is fixed: ``0x9e3779b97f4a7c15``.
4. Accumulate ``v[h mod dim] += s`` where ``s`` is +1 when bit 63 of ``h``
   is 0 and -1 otherwise.
5. L2-normalize ``v``. If the accumulated vector is all zeros, the result is
   the unit vector with 1.0 at index 0.

Step 5's zero case never arises: a text of L >= 2 characters has 2L - 3
grams and a shorter one has one, an odd number, so some count is odd.

For ASCII text of at least 2 characters the implementation computes steps
2-4 with numpy, many texts in one pass, and the result is exact:

* The texts' bytes are joined and read as one ``uint64`` array, and every
  2-gram hash is built from its two bytes at once; each 3-gram hash extends
  its 2-gram prefix by one byte. Array ``uint64`` multiplication wraps,
  which is the spec's arithmetic modulo 2^64. A gram whose first and last
  bytes belong to different texts is dropped.
* One ``np.bincount`` over ``text * dim + bucket`` adds the +1/-1 signs
  into each text's row of buckets. Every partial sum is a whole number
  below 2^53, so the order of addition cannot change a bit, and the counts
  are never -0.0.
* Each row's sum of squares is exact for the same reason, for any text
  under 2^25 characters, so its square root is the spec's norm.

Each row of counts is divided by its norm in numpy: each count is a whole
number, so each quotient has the bits of Python's ``float(count) / norm``.
Non-ASCII text (a character gram is 2 to 12 UTF-8 bytes) and text shorter
than 2 characters take a per-gram Python loop, one text at a time
(:func:`_local_embed`, which the tests keep as the pass's oracle). The
local cache is one dict from (text, dimension) to the unit vector, its own
read-only float64 array, with its ``math.hypot``: :func:`embed_many` looks
every text up there and embeds only the misses, ``_LOCAL_BATCH`` texts per
numpy pass.

The default dimension is 256. Remote embeddings use the embeddings-API wire
format in :mod:`slimrag.remote`, which rejects a reply vector that is not
numbers, not finite or all zeros; the vectors it accepts are returned
verbatim.

:func:`cosine_similarity` is the definition of similarity. Top-K entity
search and chunk scoring compute it for many vectors at once with one numpy
kernel, :func:`_dots`, that performs the same IEEE operations in the same
order, so every result equals ``cosine_similarity`` bit for bit:

* each vector entry is divided by the vector's own ``math.hypot`` (the
  same function and the same correctly rounded division), and the query
  was divided by its own before the search (``_unit_vector``);
* the dot products accumulate ``acc += q[j] * (column[j] / norm)`` for
  ``j`` in index order over a dimension × N array, starting from zeros as
  the loop starts from ``0.0`` (so a zero result keeps the loop's sign). A
  BLAS product or a numpy reduction sums in another order or starts from
  the first term, and differs in the last bits;
* only the rows ``j`` where the query is nonzero are read and divided (a
  local entity's query has a median of 22 of 256). For a finite quotient
  a zero ``q[j]`` gives a product of ``±0.0``, and adding ``±0.0`` to a sum
  that starts at ``+0.0`` never changes its bits, because the sum never
  becomes ``-0.0``; so the sums over those rows are the loop's sums over
  all of them. Every quotient is finite: vectors are checked finite where
  they enter, and a norm is at least as large as each entry of its vector.
  The sums are taken a block of the rows read at a time, as many as fit in
  65,536 products whatever the width (256 rows up to 256 columns, one per
  block past 65,536): the running sums sit in row 0 of a C-contiguous
  block, that block's quotients, multiplied in place into products, in the
  rows below them, and one ``np.add.reduce`` down the block adds each
  column's rows in index order into the sums. A reduce down one column
  would run along the contiguous axis, which numpy sums pairwise, so a
  single column is padded with a zero column.

Every vector travels one way from its source to a similarity. Texts
become similarity columns through :func:`embed_many` (a query's text,
its entities and its candidate chunks, an index write's new entities):
local vectors are copied from their cached arrays into the rows of an
array, a block at a time, and from it transposed into the columns, beside
their cached norms. Vectors that arrive as rows (remote replies, a loaded
file) become columns in one pass over each row (``_columns``): its length
is checked, its ``math.hypot`` taken from the Python floats it arrived
as, and it is packed with ``struct``, a block of rows at a time that is
then transposed into place; packing a component as ``d`` stores
``float(component)`` exactly. Both give the same bytes and norms for the
same vectors. Only :func:`embed`, for callers outside the library, makes
a tuple from an embedding. An entity store keeps one copy of its vectors:
the raw columns as read-only float64 dimension × n blocks, with their
norms. An index write hands the blocks on to the next store without
copying them and adds the new entities' columns as one more block,
concatenating the newest blocks as a binary counter carries
(:meth:`EntityVectorStore.extended`). Search takes :func:`_dots` over
each block with its slice of the norms: each column's sum runs in
dimension order from ``+0.0`` whatever the width, so the similarities are
the bytes one array would give. Chunk scoring
(:func:`cosine_similarities`) takes the same kernel over the candidates'
columns and norms.

Top-K search is exhaustive and exact; ties break by entity string ascending.
"""

from __future__ import annotations

import fcntl
import hashlib
import itertools
import json
import math
import os
import struct
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import remote
from .corpus import parse_json
from .errors import DimensionMismatchError, ZeroVectorError
from .extraction import normalize_entity

Vector = tuple[float, ...]

DEFAULT_DIMENSION = 256
DEFAULT_SEED = 0x9E3779B97F4A7C15
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_FNV_INITIAL = (0xCBF29CE484222325 ^ DEFAULT_SEED) & _MASK64
_FNV_PRIME_U64 = np.uint64(_FNV_PRIME)
_FNV_INITIAL_U64 = np.uint64(_FNV_INITIAL)
# Local cache misses embedded per numpy pass (``_embed_batch``): a fixed cut
# keeps the pass's temporaries small however many texts miss. In forked
# ``cold`` children, cuts of 16, 32, 64 and 256 texts were within noise.
_LOCAL_BATCH = 32
# The local cache: (text, dimension) -> (read-only unit vector, its
# ``math.hypot``), at most ``_LOCAL_CACHE_SIZE`` entries, oldest dropped first.
_LOCAL_CACHE_SIZE = 65_536
_local_cache: dict[tuple[str, int], tuple[np.ndarray, float]] = {}
# Rows packed or copied per block when rows become columns: only one block
# (512 KB at 256 dimensions) is held beside the columns.
_PACKED_ROWS = 256
# Products per block of ``_dots`` (512 KB): the block is as many of the rows
# read high as fit. At 256 dimensions and 1,316 columns (a 49-row block) heights
# of 32-64 rows were level and 99-256 rows 7-24% slower.
_BLOCK_CELLS = 65_536


@dataclass(frozen=True)
class EmbedderConfig:
    """An embedder, which is exactly its :attr:`embedder_id`: a local config
    keeps the default ``remote_model`` and a remote one the default
    ``dimension``, so :meth:`from_id` gives back every config that
    constructs."""

    provider: str = "local"
    dimension: int = DEFAULT_DIMENSION
    remote_model: str = remote.DEFAULT_EMBED_MODEL

    def __post_init__(self) -> None:
        if self.provider not in ("local", "remote"):
            raise ValueError(f"unknown provider {self.provider!r}")
        if type(self.dimension) is not int or self.dimension < 1:
            raise ValueError("dimension must be an integer >= 1")
        if type(self.remote_model) is not str:
            raise ValueError("remote_model must be a string")
        if self.provider == "local" and self.remote_model != remote.DEFAULT_EMBED_MODEL:
            raise ValueError("remote_model is only valid with provider='remote'")
        if self.provider == "remote" and self.dimension != DEFAULT_DIMENSION:
            raise ValueError("dimension is only valid with provider='local'")

    @property
    def embedder_id(self) -> str:
        if self.provider == "local":
            return f"local-hash/v1:{self.dimension}:{DEFAULT_SEED:#x}"
        return f"remote:{self.remote_model}"

    @classmethod
    def from_id(cls, embedder_id: str) -> "EmbedderConfig":
        """The config whose :attr:`embedder_id` is ``embedder_id``. Any other
        text raises ``ValueError("not an embedder id: ...")``: the parsed
        config must give back the same id, so another seed or a padded
        dimension fails that one check, and text with no dimension to parse
        or a dimension below 1 fails before it."""
        error = ValueError(f"not an embedder id: {embedder_id!r}")
        name, _, rest = embedder_id.partition(":")
        try:
            config = (cls(provider="remote", remote_model=rest) if name == "remote"
                      else cls(dimension=int(rest.partition(":")[0])))
        except ValueError:
            raise error from None
        if config.embedder_id != embedder_id:
            raise error
        return config


def _fnv1a64(data: bytes) -> int:
    h = _FNV_INITIAL
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _gram_counts(normalized: str, dimension: int) -> np.ndarray:
    """Steps 2-4 of the spec, one gram at a time: the signed count in each
    bucket."""
    grams = [
        normalized[i:i + n]
        for n in (2, 3)
        for i in range(len(normalized) - n + 1)
    ] or [normalized]
    values = [0.0] * dimension
    for gram in grams:
        h = _fnv1a64(gram.encode("utf-8"))
        values[h % dimension] += 1.0 if (h >> 63) == 0 else -1.0
    return np.array(values)


def _local_embed(text: str, dimension: int) -> tuple[np.ndarray, float]:
    """The text's unit vector as a read-only float64 array, and its
    ``math.hypot``, by the per-gram rule, uncached: the path of the texts
    :func:`_embed_batch` does not take, and its test oracle. The counts
    are whole numbers, so numpy's division of each by the norm is Python's
    ``float(count) / norm``, bit for bit."""
    counts = _gram_counts(normalize_entity(text), dimension)
    unit = counts / math.sqrt(counts @ counts)  # never 0.0: odd number of grams
    unit.flags.writeable = False
    return unit, math.hypot(*unit.tolist())


def _embed_batch(texts: list[str], dimension: int) -> list[tuple[np.ndarray, float]]:
    """``[_local_embed(t, dimension) for t in texts]``, bit for bit: the
    texts whose normalized form is ASCII of at least 2 characters take one
    :func:`_unit_rows` pass, the others :func:`_local_embed`. Each row of
    the pass is copied into its own read-only array, so no cached vector
    pins the batch. The pass's temporaries are freed before the copies are
    made: copies made while they were live sat on the heap above them, and
    raised the benchmark's ``eval`` peak RSS by about 3%."""
    normalized = [normalize_entity(t) for t in texts]
    pairs: list = [None] * len(texts)
    fast = []
    for i, text in enumerate(normalized):
        if len(text) >= 2 and text.isascii():
            fast.append(i)
        else:
            pairs[i] = _local_embed(texts[i], dimension)
    if fast:
        for i, row in zip(fast, _unit_rows([normalized[i] for i in fast], dimension)):
            unit = row.copy()
            unit.flags.writeable = False
            pairs[i] = unit, math.hypot(*unit.tolist())
    return pairs


def _unit_rows(texts: list[str], dimension: int) -> np.ndarray:
    """The unit vectors of normalized ASCII texts of at least 2 characters,
    as the rows of one array, from one numpy pass.

    The texts' bytes are joined and read as ``uint64``; each 2-gram hash is
    built from its two bytes at once and each 3-gram hash extends its
    2-gram prefix by one byte (array multiplication wraps modulo 2^64). A
    gram is dropped when its first and last bytes belong to different
    texts. One ``np.bincount`` over ``text * dimension + bucket`` adds the
    signs, so each row holds its text's counts (whole numbers, added
    exactly in any order), and each row's sum of squares is exact too: its
    ``np.sqrt`` is the ``math.sqrt`` of one text."""
    b = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8).astype(np.uint64)
    owner = np.repeat(np.arange(len(texts)), [len(text) for text in texts])
    h2 = (((_FNV_INITIAL_U64 ^ b[:-1]) * _FNV_PRIME_U64) ^ b[1:]) * _FNV_PRIME_U64
    h3 = (h2[:-1] ^ b[2:]) * _FNV_PRIME_U64
    inside2 = owner[:-1] == owner[1:]
    inside3 = owner[:-2] == owner[2:]
    h = np.concatenate([h2[inside2], h3[inside3]])
    rows = np.concatenate([owner[:-1][inside2], owner[:-2][inside3]])
    signs = 1.0 - 2.0 * (h >> np.uint64(63)).astype(np.float64)
    cells = rows * dimension + (h % np.uint64(dimension)).astype(np.intp)
    counts = np.bincount(cells, weights=signs, minlength=len(texts) * dimension)
    counts = counts.reshape(len(texts), dimension)
    return counts / np.sqrt(np.square(counts).sum(axis=1))[:, None]


class EmbeddingCache:
    r"""Append-only (embedder_id, text digest) -> vector cache.

    The on-disk form is JSONL, one record per line; only ``\n`` ends a
    line, so a lone ``\r`` is JSON whitespace. Reads tolerate a missing
    file. Each put appends its new records with one write, so readers see a
    prefix. Loading and appending hold an exclusive ``flock`` on the file,
    so processes sharing one cache neither interleave their appends nor
    load one half written. A last line without its newline is an append
    that never finished: loading, and each append before it writes, drop
    it and truncate the file to the last complete record, so an append
    starts on a fresh line also after another process died mid-append. Any
    other damaged line, including one that does not decode as JSON (see
    :func:`~slimrag.corpus.parse_json`), whose ``embedder`` or ``digest`` is
    not a string or whose vector fails :func:`~slimrag.remote.json_vector`,
    the rule for provider replies, raises ValueError naming that line.
    ``put`` holds each record to the same rule (:meth:`_entry`) before it
    writes or keeps any of its batch, so it never writes a line the loader
    rejects.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple[str, str], Vector] = {}
        if self.path.exists():
            with self.path.open("rb") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)
                data = self._drop_torn_line(handle.read())
            for number, line in enumerate(data.split(b"\n"), start=1):
                if not line.strip():
                    continue
                try:
                    key, vector = self._entry(parse_json(line))
                    self._entries[key] = vector
                except (ValueError, KeyError, TypeError, OverflowError):
                    raise ValueError(
                        f"embedding cache {self.path}: line {number} is damaged"
                    ) from None

    def _drop_torn_line(self, data: bytes) -> bytes:
        """The file's ``data`` up to its last newline, with the file cut
        there; the caller holds the lock."""
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            os.truncate(self.path, complete)
        return data[:complete]

    @staticmethod
    def _entry(record: dict) -> tuple[tuple[str, str], Vector]:
        """The one rule for a record, loaded or put: its ``embedder`` and
        ``digest`` are strings, and its ``vector`` passes
        :func:`~slimrag.remote.json_vector`. Returns the key and the
        vector's floats as a tuple; raises ValueError, or KeyError,
        TypeError or OverflowError for a record of another shape."""
        key = (record["embedder"], record["digest"])
        if not all(isinstance(part, str) for part in key):
            raise ValueError("key is not two strings")
        return key, tuple(remote.json_vector(record["vector"]))

    @staticmethod
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def get(self, embedder_id: str, text: str) -> Vector | None:
        return self._entries.get((embedder_id, self.digest(text)))

    def put(self, embedder_id: str, pairs: list[tuple[str, Vector]]) -> None:
        """Record each (text, vector) not cached yet, in order, with one
        append to the file. Each pair is held to the rule the loader reads
        its line by (see :meth:`_entry`), so a batch with a bad pair raises
        before any of it is written or held."""
        new: dict[tuple[str, str], Vector] = {}
        lines = []
        for text, vec in pairs:
            record = dict(embedder=embedder_id, digest=self.digest(text), vector=list(vec))
            key, vector = self._entry(record)
            if key not in self._entries and key not in new:
                new[key] = vector
                lines.append(json.dumps(record) + "\n")
        self._entries.update(new)
        if lines:
            with self.path.open("a+b") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)
                # Another process may have died mid-append since the load.
                handle.seek(max(handle.seek(0, os.SEEK_END) - 1, 0))
                if handle.read(1) not in (b"", b"\n"):
                    handle.seek(0)
                    self._drop_torn_line(handle.read())
                handle.write("".join(lines).encode("utf-8"))
                handle.flush()

    def __len__(self) -> int:
        return len(self._entries)


def embed(
    text: str,
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None = None,
) -> Vector:
    """Embed one text as a tuple of floats; deterministic for the local
    provider. The library itself embeds through :func:`embed_many`."""
    return tuple(embed_many([text], embedder, cache)[0][:, 0].tolist())


def embed_many(
    texts: list[str],
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The texts' vectors, in order, as the columns of a C-contiguous
    dimension × len(texts) float64 array, and each one's ``math.hypot``.

    Local texts are looked up in the local cache first. A blank text never
    enters it, so only the misses are checked for blankness, all before any
    is embedded; the distinct misses are then embedded ``_LOCAL_BATCH`` at a
    time by :func:`_embed_batch` and cached, the oldest entries dropped past
    ``_LOCAL_CACHE_SIZE``. The vectors go from their cached arrays into the
    rows of an array ``_PACKED_ROWS`` at a time, which is copied transposed
    into place (faster than one ``np.stack`` into columns, and only one
    block is held beside them). Remote texts missing from the cache are
    sent in batches of ``remote.EMBED_BATCH``; a reply that fails the rules
    of :mod:`slimrag.remote` raises ProviderProtocolError, and only the
    batches before it are cached. The remote rows become columns by
    :func:`_columns`, the first row setting the dimension."""
    if embedder.provider != "local":
        if not all(t.strip() for t in texts):
            raise ValueError("cannot embed empty text")
        rows = [
            cache.get(embedder.embedder_id, t) if cache is not None else None
            for t in texts
        ]
        missing = [i for i, row in enumerate(rows) if row is None]
        for start in range(0, len(missing), remote.EMBED_BATCH):
            batch = missing[start:start + remote.EMBED_BATCH]
            vectors = remote.embed_batch(
                [texts[i] for i in batch], model=embedder.remote_model
            )
            for i, vector in zip(batch, vectors):
                rows[i] = tuple(vector)
            if cache is not None:
                cache.put(embedder.embedder_id, [(texts[i], rows[i]) for i in batch])
        return _columns(rows, len(rows), len(rows[0]) if rows else 0)
    dimension = embedder.dimension
    pairs = [_local_cache.get((t, dimension)) for t in texts]
    misses = list(dict.fromkeys(t for t, pair in zip(texts, pairs) if pair is None))
    if misses:
        if not all(t.strip() for t in misses):
            raise ValueError("cannot embed empty text")
        made = {}
        for start in range(0, len(misses), _LOCAL_BATCH):
            batch = misses[start:start + _LOCAL_BATCH]
            made.update(zip(batch, _embed_batch(batch, dimension)))
        _local_cache.update(((t, dimension), pair) for t, pair in made.items())
        excess = max(len(_local_cache) - _LOCAL_CACHE_SIZE, 0)
        for key in list(itertools.islice(_local_cache, excess)):
            del _local_cache[key]
        pairs = [made[t] if pair is None else pair for t, pair in zip(texts, pairs)]
    columns = np.empty((dimension, len(pairs)))
    for start in range(0, len(pairs), _PACKED_ROWS):
        block = [unit for unit, _ in pairs[start:start + _PACKED_ROWS]]
        columns[:, start:start + len(block)] = np.array(block).T
    return columns, np.array([norm for _, norm in pairs])


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


def _columns(
    rows: Iterable[Vector], count: int, dimension: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` rows as the columns of a C-contiguous
    dimension × count float64 array, and each row's ``math.hypot``.

    One pass over each row checks its length (DimensionMismatchError),
    takes its norm, then packs it. Rows are packed ``_PACKED_ROWS`` at a
    time with ``struct`` and transposed into place, so besides the array
    only one block of rows and their packed bytes is held. Packing a
    component as ``d`` stores ``float(component)`` exactly. Each norm goes
    straight into a float64 array: a list of norm objects made while a load
    frees the parsed rows would sit in the freed memory and keep it from
    going back to the system.
    """
    columns = np.empty((dimension, count))
    norms = np.empty(count)
    pack = struct.Struct(f"{dimension}d").pack
    rows = iter(rows)
    for start in range(0, count, _PACKED_ROWS):
        block = []
        for i, row in enumerate(itertools.islice(rows, _PACKED_ROWS), start):
            if len(row) != dimension:
                raise DimensionMismatchError(
                    f"dimensions differ: {len(row)} vs {dimension}"
                )
            norms[i] = math.hypot(*row)
            block.append(pack(*row))
        packed = np.frombuffer(b"".join(block)).reshape(len(block), dimension)
        columns[:, start:start + len(block)] = packed.T
    return columns, norms


def _unit_vector(vector: Vector | np.ndarray, dimension: int) -> np.ndarray:
    """A query vector, a tuple or a 1-D float64 column, divided by its own
    ``math.hypot``: a float64 array of the bytes :func:`_columns` packs for
    the same floats, each divided once. Its length is checked first
    (DimensionMismatchError), then its norm as ``cosine_similarity`` checks
    it (ZeroVectorError). A column is not copied, and the norm of its
    ``tolist()`` floats costs half of ``math.hypot`` over its elements."""
    if len(vector) != dimension:
        raise DimensionMismatchError(f"dimensions differ: {len(vector)} vs {dimension}")
    column = np.asarray(vector, dtype=np.float64)
    norm = math.hypot(*column.tolist())
    if norm == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    return column / norm


def _dots(query: np.ndarray, columns: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``sum(query[j] * (columns[j] / norms))`` per column, added in index
    order from ``+0.0`` exactly as ``cosine_similarity``'s loop adds: each
    entry is divided by its column's norm with one IEEE division, then
    multiplied by the query component. A zero norm raises ZeroVectorError
    before any division. This is the one place a similarity divides by a
    norm.

    Only the rows ``J = np.flatnonzero(query)`` are read and divided. A zero
    query component times a finite quotient is ``±0.0``, and adding ``±0.0``
    to a sum that starts at ``+0.0`` never changes its bits: the sum never
    becomes ``-0.0``, since a nonzero sum stays as it is and ``+0.0 + -0.0``
    is ``+0.0``. So the sums over J are the loop's sums over every row (an
    empty J gives ``+0.0`` everywhere). An infinite quotient would make the
    skipped product NaN; every quotient that reaches here is finite, since
    vectors are checked finite where they enter and each norm is its own
    column's ``math.hypot``, at least as large as any of its entries.

    The running sums are carried through blocks of as many rows of J as
    fit in ``_BLOCK_CELLS`` (at least one): row 0 of a C-contiguous block
    holds them, the rows below it take that block's products, and
    ``np.add.reduce`` down axis 0 adds each column's rows in order into the
    sums, which are their own array (an ``out`` that overlaps the input
    makes numpy copy the input first). When J is every row (a remote
    vector's query), the quotients are divided straight from the columns
    into the block; otherwise the rows are gathered into the block with
    ``np.take`` in ``"clip"`` mode (``"raise"`` buffers a copy of them all;
    J is in range, so clipping changes nothing) and divided there in place.
    Either way the block is then multiplied in place by ``query[J]``, so no
    array of all the rows read is made. A reduce down a single column would
    run along the contiguous axis, which numpy sums pairwise, so the block
    and the sums have a zero column of padding when the width is 1."""
    if not norms.all():
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    dimension, width = columns.shape
    nonzero = np.flatnonzero(query)
    dense = len(nonzero) == dimension
    sums = np.zeros(max(width, 2))
    step = max(1, min(len(nonzero), _BLOCK_CELLS // len(sums)))
    block = np.empty((step + 1, len(sums)))
    block[:, width:] = 0.0  # only the pad column; np.zeros of 512 KB maps fresh pages
    for start in range(0, len(nonzero), step):
        rows = nonzero[start:start + step]
        products = block[1:len(rows) + 1, :width]
        block[0] = sums
        if dense:
            np.divide(columns[start:start + len(rows)], norms, out=products)
        else:
            np.take(columns, rows, axis=0, out=products, mode="clip")
            products /= norms
        products *= query[rows, None]
        np.add.reduce(block[:len(rows) + 1], axis=0, out=sums)
    return sums[:width]


def cosine_similarities(
    query_vec: Vector | np.ndarray, columns: np.ndarray, norms: np.ndarray
) -> list[float]:
    """``[cosine_similarity(v, query_vec) for v in vectors]`` bit for bit,
    in one :func:`_dots` call, for the ``vectors`` whose columns and norms
    :func:`embed_many` or :func:`_columns` gives; the query is a tuple or a
    1-D float64 column. Raises what the first failing pair would raise.
    The columns share one dimension, so that is a DimensionMismatchError
    when it is not the query's, else a ZeroVectorError for a zero norm."""
    if not len(norms):
        return []
    return _dots(_unit_vector(query_vec, columns.shape[0]), columns, norms).tolist()


@dataclass(eq=False)
class EntityVectorStore:
    """Entity surfaces and their vectors; an index write makes a new store.

    The store holds the names in store order, the raw vectors as
    C-contiguous float64 dimension × n column blocks, and each vector's
    ``math.hypot`` norm as a float64 array: one copy of each vector, which
    a search reads through :func:`_dots`, dividing only the rows it reads.
    ``len(norms)`` equals ``len(names)`` and the blocks' widths add up to
    it. Every block is read-only, so stores share blocks, and
    :meth:`extended` keeps each block at least twice as wide as the next
    newer one, so a store of n entities has at most ``floor(log2 n) + 1``.
    An empty store's dimension is what its maker gives (0 for a remote
    embedder, which does not announce it); the first vectors written settle
    it. Vectors are checked to be finite and not all zeros where they
    enter: provider replies, cache lines, index files.
    """

    dimension: int
    names: list[str] = field(default_factory=list)
    blocks: list[np.ndarray] = field(default_factory=list, repr=False)
    norms: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)

    def extended(
        self, entities: list[str], block: np.ndarray, norms: np.ndarray
    ) -> EntityVectorStore:
        """A new store of these entries followed by ``entities``, none of
        them in this store, whose vectors are the columns of ``block`` with
        their ``norms``, as :func:`embed_many` or :func:`_columns` gives
        them. Its dimension settles an empty store's; a non-empty store
        raises DimensionMismatchError for another.

        The new store keeps this store's blocks, uncopied, and adds
        ``block``, uncopied, as its newest. While the newest block is more
        than half as wide as the one before it, the two are concatenated
        into a new array, as a binary counter carries: so there are at most
        ``floor(log2 n) + 1`` blocks, and each column is copied O(log n)
        times over all the writes that follow it, not once per write. The
        newest block is then set read-only, so every store's blocks are."""
        width = len(norms)
        if width and self.names and block.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"dimensions differ: {block.shape[0]} vs {self.dimension}"
            )
        blocks = list(self.blocks)
        if width:
            blocks.append(block)
            while len(blocks) > 1 and 2 * blocks[-1].shape[1] > blocks[-2].shape[1]:
                blocks[-2:] = [np.concatenate(blocks[-2:], axis=1)]
            blocks[-1].flags.writeable = False
        return EntityVectorStore(
            block.shape[0] if width and not self.names else self.dimension,
            self.names + list(entities),
            blocks,
            np.concatenate([self.norms, norms]),
        )

    @property
    def entries(self) -> Mapping[str, Vector]:
        """Each entity's vector as a tuple of floats, in store order: a
        read-only copy made on each read, for comparisons and tests."""
        rows = [tuple(row) for block in self.blocks for row in block.T.tolist()]
        return MappingProxyType(dict(zip(self.names, rows)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityVectorStore):
            return NotImplemented
        return self.dimension == other.dimension and self.entries == other.entries

    def __len__(self) -> int:
        return len(self.names)


def top_k_entities(
    query_vec: Vector | np.ndarray,
    store: EntityVectorStore,
    k: int,
) -> list[tuple[str, float]]:
    """The K most similar stored entities to ``query_vec`` (a tuple or a
    1-D float64 column), exhaustively and exactly.

    Sorted by similarity descending, ties by entity string ascending. Every
    entity whose similarity reaches the K-th largest is kept before the
    exact sort, so ties at the boundary break by name.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not store.names:
        return []
    query = _unit_vector(query_vec, store.dimension)
    stops = itertools.accumulate(block.shape[1] for block in store.blocks[:-1])
    norms = np.split(store.norms, list(stops))
    sims = np.concatenate([_dots(query, *pair) for pair in zip(store.blocks, norms)])
    at = max(len(store) - k, 0)
    picked = np.flatnonzero(sims >= np.partition(sims, at)[at])
    scored = [
        (store.names[i], sim)
        for i, sim in zip(picked.tolist(), sims[picked].tolist())
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]
