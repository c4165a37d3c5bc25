"""Local embedder spec conformance, cosine identities, top-K exactness."""

import fcntl
import itertools
import json
import math
import os
import random
import re
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    DEEP_JSON,
    JSON_VALUES,
    NODE_OPERATIONS,
    damaged,
    fuzz_examples,
    mutate_node,
    random_corpus,
    random_query,
)
from oracles import brute_force_top_k, embed_oracle
import slimrag
from slimrag import embedding, remote
from slimrag.corpus import Chunk, SegmentationPolicy, ingest_corpus
from slimrag.embedding import (
    _BLOCK_CELLS,
    DEFAULT_DIMENSION,
    DEFAULT_SEED,
    EmbedderConfig,
    EmbeddingCache,
    EntityVectorStore,
    _Postings,
    _columns,
    _dots,
    _gram_counts,
    _local_embed,
    _unit_vector,
    cosine_similarities,
    cosine_similarity,
    embed,
    embed_many,
    text_similarities,
    top_k_entities,
)
from slimrag.extraction import ExtractorConfig, normalize_entity
from slimrag.index import (
    EntityIndex,
    IndexConfig,
    TokenAccounting,
    add_chunks,
    build_index,
    load_index,
    save_index,
)
from slimrag.retrieval import retrieve
from slimrag.errors import DimensionMismatchError, ZeroVectorError

LOCAL8 = EmbedderConfig(dimension=8)
LOCAL64 = EmbedderConfig(dimension=64)

# Frozen output of the published hashing procedure for "abc" at d=8 with the
# documented fixed seed, computed by the independent scripted oracle.
ABC_D8 = (
    -0.5773502691896258,
    0.0,
    0.0,
    -0.5773502691896258,
    0.0,
    0.0,
    0.0,
    -0.5773502691896258,
)


# ASCII text (the numpy kernel); characters that lowercase or compose under
# NFC, some into ASCII (KELVIN SIGN, ANGSTROM SIGN, e + COMBINING ACUTE);
# other non-ASCII text; and texts of one and two characters (the loop).
_EMBED_TEXT = st.one_of(
    st.text(alphabet=string.ascii_letters + string.digits + " .,-'\t", max_size=80),
    st.text(alphabet="aeKE \u212a\u212b\u0301\u0308\u00e9\u00df\u0130\u65e5"),
    st.text(max_size=12),
    st.text(min_size=1, max_size=2),
)


class TestLocalEmbedder:
    def test_identical_texts_identical_vectors(self):
        assert embed("same text", LOCAL64) == embed("same text", LOCAL64)

    def test_unit_length(self):
        vec = embed("any text at all", LOCAL64)
        assert math.sqrt(sum(x * x for x in vec)) == pytest.approx(1.0, abs=1e-9)

    def test_abc_matches_frozen_reference_values(self):
        assert embed("abc", LOCAL8) == ABC_D8

    def test_matches_independent_hash_oracle(self):
        for text in ("abc", "verdant dynamics", "a", "Hello, World", "  ||  "):
            got = list(embed(text, LOCAL64))
            want = embed_oracle(text, 64, DEFAULT_SEED)
            assert got == want, text

    def test_normalization_insensitivity(self):
        assert embed("  New   YORK ", LOCAL64) == embed("new york", LOCAL64)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            embed("   ", LOCAL64)

    @given(_EMBED_TEXT, st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 3])))
    @settings(max_examples=400)
    def test_shared_unit_floats_keep_the_bits_of_dividing_each(self, text, dim):
        """The per-gram rule gives the oracle's bits: one numpy division of
        the counts array gives the bits of dividing each count in Python.
        ``TestBatchedMisses`` holds the batch kernel to both."""
        if not text.strip():
            return
        got = _local_embed(text, dim)[0].tolist()
        want = embed_oracle(text, dim, DEFAULT_SEED)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @given(_EMBED_TEXT, st.integers(1, 8))
    def test_counts_never_cancel_to_zero(self, text, dim):
        """Why ``_local_embed`` has no all-zero branch: a text has an odd
        number of grams, so at least one bucket count is odd."""
        if not text.strip():
            return
        counts = _gram_counts(normalize_entity(text), dim)
        assert int(np.abs(counts).sum()) % 2 == 1


def _tuple_embed(text: str, dim: int) -> tuple[float, ...]:
    """The tuple path the array cache replaced: each distinct count divided
    once in Python and its float shared by every component that holds it.
    The reference for ``_local_embed``'s arrays, ``embed_many``'s columns
    and ``embed``'s tuples."""
    counts = _gram_counts(normalize_entity(text), dim)
    norm = math.sqrt(counts @ counts)
    values = counts.astype(np.intp).tolist()
    unit = {k: k / norm for k in set(values)}
    return tuple(map(unit.__getitem__, values))


def _tuple_columns(texts: list[str], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The texts' tuples packed into columns by ``_columns``, after the
    empty-text check ``embed_many`` makes."""
    if not all(t.strip() for t in texts):
        raise ValueError("cannot embed empty text")
    return _columns([_tuple_embed(t, dim) for t in texts], len(texts), dim)


class TestEmbeddedColumns:
    """``embed_many`` makes local texts' similarity columns straight from
    their cached arrays: the bytes and norms the tuple path gives, and its
    errors; ``embed`` gives the tuple path's tuples."""

    @given(
        st.lists(_EMBED_TEXT, max_size=6),
        st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 3])),
        st.sampled_from([1, 2, 4, embedding._PACKED_ROWS]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_tuple_path(self, texts, dim, block_rows):
        """Blocks smaller than the input's rows are drawn too, so the rows
        cross block edges."""
        embedder = EmbedderConfig(dimension=dim)
        try:
            want = _tuple_columns(texts, dim)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                embed_many(texts, embedder)
            with pytest.raises(ValueError, match=f"^{exc}$"):
                embed(next(t for t in texts if not t.strip()), embedder)
            return
        with mock.patch.object(embedding, "_PACKED_ROWS", block_rows):
            columns, norms = embed_many(texts, embedder)
        assert columns.flags.c_contiguous and columns.shape == (dim, len(texts))
        assert columns.tobytes() == want[0].tobytes()
        assert [x.hex() for x in norms.tolist()] == [x.hex() for x in want[1].tolist()]
        got = [embed(t, embedder) for t in texts]
        assert [[x.hex() for x in row] for row in got] == [
            [x.hex() for x in _tuple_embed(t, dim)] for t in texts
        ]
        assert all(type(row) is tuple for row in got)

    def test_cached_arrays_are_read_only(self):
        columns, _ = embed_many(["read only"], EmbedderConfig(dimension=16))
        unit, _ = embedding._local_cache[("read only", 16)]
        assert not unit.flags.writeable
        with pytest.raises(ValueError):
            unit[0] = 2.0
        columns[0, 0] = 2.0  # the columns are a copy
        assert embedding._local_cache[("read only", 16)][0].tobytes() == unit.tobytes()
        assert embed("read only", EmbedderConfig(dimension=16))[0] != 2.0


# Texts the batch kernel splits on: 1-, 2- and 3-character texts, texts that
# normalize alike (so one normalized form stands for two cache keys), ASCII
# texts long and short, and non-ASCII texts (the per-text loop) among them.
_BATCH_TEXT = st.one_of(
    st.sampled_from(["a", "ab", "abc", "New  York", "new york", " NEW YORK ", "x y", "日本"]),
    st.text(alphabet="abcXYZ -", min_size=1, max_size=3),
    _EMBED_TEXT,
)


def _oracle_columns(texts: list[str], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-text ``_local_embed`` of each text, as columns and norms."""
    pairs = [_local_embed(t, dim) for t in texts]
    return np.array([unit for unit, _ in pairs]).T, [norm for _, norm in pairs]


class TestBatchedMisses:
    """``embed_many`` embeds a call's local cache misses ``_LOCAL_BATCH`` at a
    time in one numpy pass: the bytes and norms of the per-text
    ``_local_embed``, and of ``embed_oracle``, whatever the batches hold."""

    @given(
        st.lists(_BATCH_TEXT, min_size=1, max_size=12),
        st.lists(_BATCH_TEXT, max_size=4),
        st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 3])),
        st.sampled_from([1, 2, 3, 5, embedding._LOCAL_BATCH]),
    )
    @settings(max_examples=fuzz_examples(200), deadline=None)
    @example(["ab"], [], 256, 32)
    @example(["a", "ab", "abc", "New  York", "new york", "日本", "ab"], ["abc"], 7, 2)
    def test_equals_the_per_text_rule(self, texts, warm, dim, cut):
        """``warm`` texts are embedded first, so one call mixes cache hits
        with misses; a small cut makes the misses cross batch edges."""
        texts = [t for t in texts if t.strip()] or ["ab"]
        embedder = EmbedderConfig(dimension=dim)
        with mock.patch.dict(embedding._local_cache, clear=True), \
                mock.patch.object(embedding, "_LOCAL_BATCH", cut):
            embed_many([t for t in warm if t.strip()], embedder)
            columns, norms = embed_many(texts, embedder)
        want_columns, want_norms = _oracle_columns(texts, dim)
        assert columns.shape == (dim, len(texts))
        assert columns.tobytes() == want_columns.tobytes()
        assert [x.hex() for x in norms.tolist()] == [x.hex() for x in want_norms]
        oracle = [embed_oracle(t, dim, DEFAULT_SEED) for t in texts]
        assert [[x.hex() for x in row] for row in columns.T.tolist()] == [
            [x.hex() for x in row] for row in oracle
        ]
        assert [x.hex() for x in norms.tolist()] == [
            math.hypot(*row).hex() for row in oracle
        ]

    def test_blank_miss_raises_before_any_text_is_cached(self):
        with mock.patch.dict(embedding._local_cache, clear=True):
            with pytest.raises(ValueError, match="^cannot embed empty text$"):
                embed_many(["fresh text", "  "], LOCAL64)
            assert ("fresh text", 64) not in embedding._local_cache
            assert ("  ", 64) not in embedding._local_cache
            assert not embedding._local_cache

    def test_cached_arrays_own_their_memory(self):
        """A cached vector is its own read-only array, never a view of its
        batch's block, so no entry pins the others' memory."""
        texts = [f"text number {i}" for i in range(10)] + ["日本語", "q"]
        with mock.patch.dict(embedding._local_cache, clear=True), \
                mock.patch.object(embedding, "_LOCAL_BATCH", 4):
            embed_many(texts, LOCAL64)
            units = [unit for unit, _ in embedding._local_cache.values()]
        assert len(units) == len(texts)
        for unit in units:
            assert unit.base is None and not unit.flags.writeable
        for a, b in itertools.combinations(units, 2):
            assert not np.shares_memory(a, b)

    @given(
        st.lists(st.lists(_BATCH_TEXT, max_size=6), min_size=1, max_size=6),
        st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_cache_stays_within_its_bound(self, calls, bound):
        """Past the bound the oldest entries go, and a text embedded again
        after its entry went gives the same bytes."""
        with mock.patch.dict(embedding._local_cache, clear=True), \
                mock.patch.object(embedding, "_LOCAL_CACHE_SIZE", bound), \
                mock.patch.object(embedding, "_LOCAL_BATCH", 2):
            for texts in calls + calls:
                texts = [t for t in texts if t.strip()]
                columns, norms = embed_many(texts, LOCAL8)
                assert len(embedding._local_cache) <= bound
                want_columns, want_norms = _oracle_columns(texts, 8)
                assert columns.tobytes() == want_columns.reshape(8, len(texts)).tobytes()
                assert [x.hex() for x in norms.tolist()] == [x.hex() for x in want_norms]


class TestTextSimilarities:
    """``text_similarities`` gives ``cosine_similarities`` over
    ``embed_many``'s columns, bit for bit, and raises what that raises, from
    a cold or a partly warm local cache."""

    @given(
        st.lists(_BATCH_TEXT, max_size=8),
        st.lists(_BATCH_TEXT, max_size=4),
        st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 3])),
        st.data(),
    )
    @settings(max_examples=fuzz_examples(200), deadline=None)
    def test_equals_cosine_similarities_over_embed_many(self, texts, warm, dim, data):
        """The query is a text's embedding (as a column, as ``retrieve``
        passes it), any vector (zero components, scales, signed zeros), a
        zero vector or one of another dimension; texts may be blank."""
        embedder = EmbedderConfig(dimension=dim)
        kind = data.draw(st.sampled_from(["text", "vector", "zero", "other dimension"]))
        if kind == "text":
            query = embed_many([data.draw(_BATCH_TEXT.filter(str.strip))], embedder)[0][:, 0]
        elif kind == "vector":
            query = _vector(data.draw, dim)
        else:
            query = (0.0,) * (dim if kind == "zero" else dim + 1)
        outcomes = []
        for similarities in (
            lambda: np.array(cosine_similarities(query, *embed_many(texts, embedder))),
            lambda: text_similarities(query, texts, embedder),
        ):
            with mock.patch.dict(embedding._local_cache, clear=True):
                embed_many([t for t in warm if t.strip()], embedder)
                try:
                    outcomes.append(similarities())
                except (ValueError, DimensionMismatchError, ZeroVectorError) as exc:
                    outcomes.append((type(exc), str(exc)))
        want, got = outcomes
        if isinstance(want, tuple):
            assert got == want
            return
        assert got.dtype == np.float64 and got.shape == (len(texts),)
        assert _hexes(got) == _hexes(want)


class TestEmbedderId:
    @settings(max_examples=300)
    @given(
        provider=st.sampled_from(["local", "remote"]),
        dimension=st.one_of(
            st.sampled_from([DEFAULT_DIMENSION, True, 64.0]), st.integers(-2, 4096)
        ),
        remote_model=st.one_of(
            st.just(remote.DEFAULT_EMBED_MODEL),
            st.sampled_from(["", ":", "a:b", "remote:x", "local-hash/v1:64:0x1"]),
            st.text(),
        ),
    )
    def test_from_id_inverts_embedder_id(self, provider, dimension, remote_model):
        """A config is exactly its id: every one that constructs comes back
        from its id."""
        try:
            config = EmbedderConfig(provider, dimension, remote_model)
        except ValueError:
            return
        assert EmbedderConfig.from_id(config.embedder_id) == config

    @pytest.mark.parametrize("fields, problem", [
        ({"provider": "remote", "dimension": 8},
         "dimension is only valid with provider='local'"),
        ({"remote_model": "other"}, "remote_model is only valid with provider='remote'"),
        ({"provider": "other"}, "unknown provider 'other'"),
        ({"dimension": True}, "dimension must be an integer >= 1"),
        ({"provider": "remote", "remote_model": 5}, "remote_model must be a string"),
    ], ids=["remote-with-dimension", "local-with-model", "unknown-provider",
            "bool-dimension", "int-remote-model"])
    def test_config_that_is_not_its_id_is_rejected(self, fields, problem):
        """The first two constructed, and their ids dropped the value; a
        ``True`` dimension constructed, and failed at the first embedding
        with a bare TypeError; an int ``remote_model`` constructed with the
        id ``remote:5``, which ``from_id`` read back as the model ``"5"``."""
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            EmbedderConfig(**fields)

    def test_batch_size_is_not_a_field(self):
        """Remote batches are ``remote.EMBED_BATCH`` texts; the id never
        held a batch size."""
        with pytest.raises(TypeError):
            EmbedderConfig(provider="remote", batch_size=8)

    @pytest.mark.parametrize("embedder_id", [
        "",
        "bogus",
        "remote",
        "local",
        "local-hash/v1",
        "local-hash/v1:",
        "local-hash/v1:64",
        f"local-hash/v1:064:{DEFAULT_SEED:#x}",
        f"local-hash/v1:+64:{DEFAULT_SEED:#x}",
        f"local-hash/v1: 64:{DEFAULT_SEED:#x}",
        f"local-hash/v1:6_4:{DEFAULT_SEED:#x}",
        f"local-hash/v1:0:{DEFAULT_SEED:#x}",
        f"local-hash/v1:-64:{DEFAULT_SEED:#x}",
        f"local-hash/v1:-5:{DEFAULT_SEED:#x}",
        f"local-hash/v1::{DEFAULT_SEED:#x}",
        f"local-hash/v1:{'9' * 5000}:{DEFAULT_SEED:#x}",
        f"local-hash/v1:sixty:{DEFAULT_SEED:#x}",
        "local-hash/v1:64:0x1",
        f"local-hash/v1:64:{DEFAULT_SEED}",
        f"local-hash/v1:64:{DEFAULT_SEED:#x}:",
        f"local-hash/v2:64:{DEFAULT_SEED:#x}",
        f"Local-hash/v1:64:{DEFAULT_SEED:#x}",
        "remote-x:model",
    ])
    def test_malformed_id_is_rejected(self, embedder_id):
        """Every malformed id fails the same way, whether its dimension does
        not parse, is below 1 or does not give back the id."""
        with pytest.raises(ValueError) as caught:
            EmbedderConfig.from_id(embedder_id)
        assert str(caught.value) == f"not an embedder id: {embedder_id!r}"


class TestCosine:
    def test_identity(self):
        vec = embed("self", LOCAL64)
        assert cosine_similarity(vec, vec) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_hand_computed_value(self):
        assert cosine_similarity((1.0, 0.0), (1.0, 1.0)) == pytest.approx(
            0.70710678, abs=1e-8
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_similarity((1.0,), (1.0, 2.0))

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity((0.0, 0.0), (1.0, 2.0))

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    )
    def test_symmetry(self, a, b):
        a, b = tuple(a), tuple(b)
        if all(x == 0 for x in a) or all(x == 0 for x in b):
            return
        assert cosine_similarity(a, b) == pytest.approx(
            cosine_similarity(b, a), abs=1e-12
        )

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(0.1, 100),
    )
    @example([0.0, 0.0, 5e-324], [1.0, 0.0, 0.0], 0.5)
    def test_scale_invariance(self, a, b, c):
        a, b = tuple(a), tuple(b)
        if all(x == 0 for x in a) or all(x == 0 for x in b):
            return
        scaled = tuple(c * x for x in a)
        # Scaling a subnormal component rounds it (5e-324 * 0.5 == 0.0), so
        # ``scaled`` would no longer be ``a`` times ``c``: only normal floats
        # on both sides keep the scaling exact to one rounding.
        if any(x != 0 and min(abs(x), abs(c * x)) < sys.float_info.min for x in a):
            return
        assert cosine_similarity(scaled, b) == pytest.approx(
            cosine_similarity(a, b), abs=1e-9
        )


def _block(rows, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows as a block of columns and its norms, as vectors that arrive as
    rows (remote replies, a loaded file) become them."""
    return _columns(rows, len(rows), dimension)


def _random_store(rng: random.Random, size: int, dim: int = 16) -> EntityVectorStore:
    names = [f"entity-{i:04d}" for i in range(size)]
    vectors = [tuple(rng.uniform(-1, 1) for _ in range(dim)) for _ in names]
    return EntityVectorStore(dimension=dim).extended(names, *_block(vectors, dim))


class TestTopK:
    def test_k_at_least_store_returns_all_sorted(self):
        rng = random.Random(7)
        store = _random_store(rng, 5)
        query = tuple(rng.uniform(-1, 1) for _ in range(16))
        result = top_k_entities(query, store, 50)
        assert len(result) == 5
        sims = [s for _, s in result]
        assert sims == sorted(sims, reverse=True)
        assert {e for e, _ in result} == set(store.entries)

    def test_equal_similarity_breaks_lexicographically(self):
        # Same direction, same cosine.
        store = EntityVectorStore(dimension=2).extended(
            ["bravo", "alpha"], *_block([(1.0, 0.0), (2.0, 0.0)], 2)
        )
        result = top_k_entities((1.0, 0.0), store, 2)
        assert [e for e, _ in result] == ["alpha", "bravo"]

    def test_top2_of_five_known_vectors(self):
        vectors = {
            "a": (1.0, 0.0),
            "b": (0.9, 0.1),
            "c": (0.0, 1.0),
            "d": (-1.0, 0.0),
            "e": (0.5, 0.5),
        }
        store = EntityVectorStore(dimension=2).extended(
            list(vectors), *_block(list(vectors.values()), 2)
        )
        got = top_k_entities((1.0, 0.0), store, 2)
        want = brute_force_top_k((1.0, 0.0), vectors, 2)
        assert got == want
        assert [e for e, _ in got] == ["a", "b"]

    def test_k_must_be_positive(self):
        store = _random_store(random.Random(1), 3)
        with pytest.raises(ValueError):
            top_k_entities((0.0,) * 16, store, 0)

    def test_matches_exhaustive_oracle_up_to_1000_entities(self):
        rng = random.Random(20_240_601)
        for size in (1, 10, 137, 1000):
            store = _random_store(rng, size)
            query = tuple(rng.uniform(-1, 1) for _ in range(16))
            for k in (1, 3, size):
                got = top_k_entities(query, store, k)
                want = brute_force_top_k(query, store.entries, k)
                assert got == want

    def test_with_ties_matches_oracle_exactly(self):
        # Many exact ties.
        store = EntityVectorStore(dimension=2).extended(
            [f"e{i:02d}" for i in range(20)],
            *_block([(float(1 + i % 3), 0.0) for i in range(20)], 2),
        )
        query = (1.0, 0.0)
        assert top_k_entities(query, store, 7) == brute_force_top_k(
            query, store.entries, 7
        )


# A process that loads the cache named by argv[1] and prints its size; with
# a text in argv[2], it then reads one line of standard input and caches a
# vector for that text. With a count in argv[3] instead, it makes that many
# rounds of load and put of 8 long vectors, tagged by argv[2].
_CACHE_CLIENT = """
import random, sys
from slimrag.embedding import EmbeddingCache
path, args = sys.argv[1], sys.argv[2:]
if len(args) == 2:
    rng = random.Random(args[0])
    for round_ in range(int(args[1])):
        pairs = [(f"{args[0]}-{round_}-{i}", tuple(rng.random() for _ in range(1000)))
                 for i in range(8)]
        EmbeddingCache(path).put("e", pairs)
else:
    cache = EmbeddingCache(path)
    print(len(cache), flush=True)
    if args:
        sys.stdin.readline()
        cache.put("e", [(args[0], (2.0,))])
"""


def _cache_client(path, *args, **kwargs):
    src = str(Path(slimrag.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen(
        [sys.executable, "-c", _CACHE_CLIENT, str(path), *args],
        env=env, text=True, stdout=subprocess.PIPE, **kwargs,
    )


class TestSharedCache:
    """Two processes may load and append one cache file at once."""

    def test_two_processes_write_one_cache(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        clients = [_cache_client(path, tag, "15") for tag in ("a", "b")]
        for client in clients:
            client.communicate(timeout=120)
            assert client.returncode == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert all(len(json.loads(line)["vector"]) == 1000 for line in lines)
        cache = EmbeddingCache(path)
        assert len(lines) == len(cache) == 2 * 15 * 8
        for tag, round_, i in itertools.product("ab", range(15), range(8)):
            assert cache.get("e", f"{tag}-{round_}-{i}") is not None

    def test_load_waits_for_an_append_in_progress(self, tmp_path):
        """A load that saw half an append would cut it off as a torn line."""
        path = tmp_path / "cache.jsonl"
        EmbeddingCache(path).put("e", [("a", (1.0,))])
        line = path.read_bytes().replace(EmbeddingCache.digest("a").encode(), b"b")
        with path.open("ab") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            handle.write(line[:20])
            handle.flush()
            reader = _cache_client(path)
            with pytest.raises(subprocess.TimeoutExpired):
                reader.wait(timeout=1.0)
            handle.write(line[20:])
        out, _ = reader.communicate(timeout=60)
        assert reader.returncode == 0 and out == "2\n"
        assert path.read_bytes().count(b"\n") == 2

    def test_append_waits_for_the_lock(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        EmbeddingCache(path).put("e", [("a", (1.0,))])
        before = path.read_bytes()
        writer = _cache_client(path, "b", stdin=subprocess.PIPE)
        assert writer.stdout.readline() == "1\n"
        with path.open("rb") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            writer.stdin.write("go\n")
            writer.stdin.flush()
            with pytest.raises(subprocess.TimeoutExpired):
                writer.wait(timeout=1.0)
            assert path.read_bytes() == before
        writer.communicate(timeout=60)
        assert writer.returncode == 0
        assert EmbeddingCache(path).get("e", "b") == (2.0,)


class TestStoreAndCache:
    def test_dimension_enforced(self):
        store = EntityVectorStore(dimension=4).extended(
            ["ok"], *_block([(1.0, 0.0, 0.0, 0.0)], 4)
        )
        with pytest.raises(DimensionMismatchError):
            store.extended(["bad"], *_block([(1.0, 0.0)], 2))

    def test_cache_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put("emb-1", [("hello", (0.5, 0.5))])
        reloaded = EmbeddingCache(path)
        assert reloaded.get("emb-1", "hello") == (0.5, 0.5)
        assert reloaded.get("emb-2", "hello") is None

    def test_cache_append_only(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put("e", [("a", (1.0,))])
        cache.put("e", [("b", (2.0,))])
        cache.put("e", [("a", (9.0,))])  # duplicate put is ignored
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert EmbeddingCache(path).get("e", "a") == (1.0,)

    def test_cache_survives_torn_last_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put("e", [("a", (1.0,)), ("b", (2.0,))])
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"embedder": "e", "digest": "ab')  # append cut short
        reopened = EmbeddingCache(path)
        assert len(reopened) == 2
        assert reopened.get("e", "b") == (2.0,)
        reopened.put("e", [("c", (3.0,))])
        again = EmbeddingCache(path)
        assert len(again) == 3
        assert again.get("e", "c") == (3.0,)

    def test_append_after_another_cache_died_mid_append(self, tmp_path):
        """B loads, then A dies partway through an append: B's next put
        drops A's torn line before it appends, so the file still loads."""
        path = tmp_path / "cache.jsonl"
        EmbeddingCache(path).put("e", [("a", (1.0,))])
        before = path.read_bytes()
        b = EmbeddingCache(path)
        with path.open("ab") as handle:  # A's append, cut short
            handle.write(b'{"embedder": "e", "digest": "ab')
        b.put("e", [("b", (2.0,))])
        again = EmbeddingCache(path)
        assert len(again) == 2 and again.get("e", "b") == (2.0,)
        assert path.read_bytes().startswith(before)
        assert path.read_bytes().count(b"\n") == 2

    def test_batch_of_misses_appends_with_one_open(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        config = EmbedderConfig(provider="remote")
        monkeypatch.setattr(remote, "EMBED_BATCH", 8)
        monkeypatch.setattr(
            remote,
            "embed_batch",
            lambda texts, model: [[float(i + 1), 0.5] for i in range(len(texts))],
        )
        modes = []
        real_open = Path.open

        def counting_open(self, mode="r", *args, **kwargs):
            modes.append(mode)
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        texts = [f"text {i}" for i in range(5)]
        columns, _ = embed_many(texts, config, cache)
        assert modes == ["a+b"]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["digest"] for r in records] == [cache.digest(t) for t in texts]
        assert np.array([r["vector"] for r in records]).T.tobytes() == columns.tobytes()

    @pytest.mark.parametrize(
        "vector", [(0.0, 0.0), (math.nan, 1.0), (True, False)], ids=["zeros", "nan", "bools"]
    )
    def test_put_of_a_record_the_loader_rejects_raises(self, tmp_path, vector):
        """Fix: ``put`` wrote the line, and the next load of the file raised
        ``line 3 is damaged``. A bad pair fails its whole batch before any
        of it is written or held."""
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put("e", [("a", (1.0,))])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="^vector "):
            cache.put("e", [("b", (2.0, 1.0)), ("c", vector)])
        assert path.read_bytes() == before
        assert len(cache) == 1 and cache.get("e", "b") is None
        assert len(EmbeddingCache(path)) == 1

    def test_cache_damaged_inner_line_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put("e", [("a", (1.0,))])
        good = path.read_bytes()
        nonfinite = b'{"embedder": "e", "digest": "b", "vector": [NaN, 1.0, 0.0]}'
        not_utf8 = b'{"embedder": "\xff", "digest": "b", "vector": [1.0]}'
        zero = b'{"embedder": "e", "digest": "b", "vector": [0.0, -0.0]}'
        # Components float() would take: strings, booleans; and an integer
        # it cannot convert.
        not_numbers = b'{"embedder": "e", "digest": "b", "vector": ["1.5", true, " 2 "]}'
        boolean = b'{"embedder": "e", "digest": "b", "vector": [0.5, true]}'
        huge_int = b'{"embedder": "e", "digest": "b", "vector": [1%s]}' % (b"0" * 400)
        # Keys that are not strings: ``get`` could never find the line.
        keys = [
            b'{"embedder": null, "digest": "b", "vector": [0.5, 1.0]}',
            b'{"embedder": "e", "digest": 7, "vector": [0.5]}',
            b'{"embedder": 0.5, "digest": true, "vector": [0.5]}',
        ]
        for damaged in (
            b"not json", nonfinite, not_utf8, DEEP_JSON.encode(), zero,
            not_numbers, boolean, huge_int, *keys,
        ):
            path.write_bytes(damaged + b"\n" + good)
            with pytest.raises(ValueError, match="line 1"):
                EmbeddingCache(path)


def _cache_file(path: Path) -> tuple[bytes, list[tuple[str, tuple]]]:
    """A small cache file, and its records in order as (text, vector)."""
    records = [
        ("a", (1.0,)), ("b", (-0.5, 2.5e-310, 1e300)), ("c", (3, -4)),
        ("d", (0.0, -7.25)),
    ]
    cache = EmbeddingCache(path)
    for text, vector in records:
        cache.put("e", [(text, vector)])
    return path.read_bytes(), records


class TestDamagedCache:
    """Pins: a cache file cut at any offset, with one byte changed, or with
    one node of a line set, deleted or duplicated, loads or raises
    ValueError naming a line, never another exception."""

    def test_cut_at_every_offset_loads_the_complete_lines(self, tmp_path):
        original, records = _cache_file(tmp_path / "original.jsonl")
        path = tmp_path / "cache.jsonl"
        for at in range(len(original) + 1):
            path.write_bytes(original[:at])
            cache = EmbeddingCache(path)
            complete = original[:at].count(b"\n")
            assert len(cache) == complete
            for text, vector in records[:complete]:
                assert cache.get("e", text) == tuple(map(float, vector))
            assert path.read_bytes() == original[:original.rfind(b"\n", 0, at) + 1]

    @settings(max_examples=fuzz_examples(300), deadline=None)
    @given(data=st.data())
    def test_changed_byte_loads_or_names_a_line(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("cache")
        original, _ = _cache_file(directory / "original.jsonl")
        path = directory / "cache.jsonl"
        path.write_bytes(damaged(data, original))
        try:
            EmbeddingCache(path)
        except ValueError as exc:
            assert re.fullmatch(
                rf"embedding cache {re.escape(str(path))}: line \d+ is damaged",
                str(exc),
            )

    @settings(max_examples=fuzz_examples(300), deadline=None)
    @given(data=st.data())
    def test_mutated_line_loads_or_names_it(self, tmp_path_factory, data):
        """One random set, delete or duplicate of a line's record or of a
        node in it: the cache loads, or raises ValueError naming that line."""
        directory = tmp_path_factory.mktemp("cache")
        original, _ = _cache_file(directory / "original.jsonl")
        records = [json.loads(line) for line in original.splitlines()]
        number = data.draw(st.integers(0, len(records) - 1))
        mutate_node(data, records, number, data.draw(st.sampled_from(NODE_OPERATIONS)))
        path = directory / "cache.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        try:
            EmbeddingCache(path)
        except ValueError as exc:
            assert str(exc) == f"embedding cache {path}: line {number + 1} is damaged"


class TestJsonVector:
    """``remote.json_vector``, the rule for a vector from outside (a reply
    row or a cache line), on any parsed JSON value: it raises ValueError or
    OverflowError, or gives back the value's numbers as floats, all finite
    and not all zero."""

    _ITEMS = st.one_of(
        st.integers(),
        st.sampled_from([10**400, -(10**400), math.nan, math.inf, -math.inf, -0.0]),
        st.floats(),
        st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
        st.booleans(),
        st.text(max_size=3),
    )

    @settings(max_examples=fuzz_examples(300), deadline=None)
    @given(value=st.one_of(JSON_VALUES, st.lists(_ITEMS, max_size=4)))
    @example(value=[True])
    @example(value=[0, 0.0])
    @example(value=[10**400])
    def test_returns_finite_nonzero_floats_or_raises(self, value):
        try:
            vector = remote.json_vector(value)
        except (ValueError, OverflowError):
            return
        assert type(value) is list and not any(type(x) is bool for x in value)
        assert list(map(float.hex, vector)) == [float(x).hex() for x in value]
        assert all(map(math.isfinite, vector)) and any(vector)


# Components of every sign and both zeros, at magnitudes from 1e-150 to
# 1e150: remote vectors are not unit length, and vectors with disjoint
# support multiply to signed zeros.
_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1, 1, allow_subnormal=False),
)
_SCALE = st.sampled_from([1e-150, 1e-3, 1.0, 3.0, 1e150])


def _vector(draw, dim: int) -> tuple[float, ...]:
    scale = draw(_SCALE)
    values = draw(st.lists(_COMPONENT, min_size=dim, max_size=dim))
    vec = tuple(x * scale for x in values)
    return vec if any(vec) else (scale,) + vec[1:]


@st.composite
def _store_and_query(draw):
    """A store whose later entities often repeat an earlier vector, so that
    similarities tie at the K boundary, and a query."""
    dim = draw(st.integers(1, 24))
    names: list[str] = []
    rows: list[tuple[float, ...]] = []
    for i in range(draw(st.integers(0, 24))):
        if rows and draw(st.booleans()):
            vec = draw(st.sampled_from(rows))
        else:
            vec = _vector(draw, dim)
        rows.append(vec)
        names.append(f"e{draw(st.integers(0, 99)):02d}-{i}")
    store = EntityVectorStore(dimension=dim).extended(names, *_block(rows, dim))
    return store, _vector(draw, dim)


def _hex(pairs):
    return [(name, sim.hex()) for name, sim in pairs]


def _loop_top_k(query_vec, store, k):
    """The per-pair loop top-K search the kernel replaced, with its k check:
    the reference for results and errors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return brute_force_top_k(query_vec, store.entries, k)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type raised is what is compared
        return type(exc)


class TestSimilarityKernel:
    """The numpy kernel equals cosine_similarity bit for bit, and fails
    where and how the per-pair loop failed."""

    @given(_store_and_query(), st.integers(1, 30))
    @settings(max_examples=150)
    def test_top_k_equals_cosine_bit_for_bit(self, store_and_query, k):
        store, query = store_and_query
        got = top_k_entities(query, store, k)
        assert _hex(got) == _hex(brute_force_top_k(query, store.entries, k))
        assert all(type(sim) is float for _, sim in got)

    @given(st.data())
    @settings(max_examples=200)
    def test_cosine_similarities_equal_cosine_bit_for_bit(self, data):
        dim = data.draw(st.integers(1, 24))
        query = _vector(data.draw, dim)
        count = data.draw(st.integers(0, 12))
        vectors = [_vector(data.draw, dim) for _ in range(count)]
        got = cosine_similarities(query, *_block(vectors, dim))
        want = [cosine_similarity(vec, query) for vec in vectors]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert all(type(x) is float for x in got)

    def test_zero_similarity_is_positive_zero(self):
        """Every product is -0.0 here; the loop adds them to 0.0 and gets
        0.0, where a sum starting from the first product gets -0.0."""
        query, other = (1.0, -0.0), (-0.0, 1.0)
        assert cosine_similarity(query, other).hex() == "0x0.0p+0"
        got = cosine_similarities(query, *_block([other], 2))
        assert [x.hex() for x in got] == ["0x0.0p+0"]
        store = EntityVectorStore(dimension=2).extended(["other"], *_block([other], 2))
        assert _hex(top_k_entities(query, store, 1)) == [("other", "0x0.0p+0")]

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_retrieve_phi_q_equals_cosine_bit_for_bit(self, seed):
        rng = random.Random(seed)
        corpus, pool = random_corpus(rng, max_chunks=20, max_entities=10)
        index = build_index(corpus, ExtractorConfig(), LOCAL64)
        # One query in five takes the fallback, which scores every chunk.
        query = random_query(rng, pool) if rng.random() < 0.8 else "what happened next?"
        q_vec = embed(query, LOCAL64)
        scored = retrieve(index, query, None, None, LOCAL64).trace.scored
        assert scored
        for chunk in scored:
            chunk_vec = embed(index.chunk_catalog[chunk.chunk_id].text, LOCAL64)
            assert chunk.phi_q.hex() == cosine_similarity(chunk_vec, q_vec).hex()

    @given(_store_and_query(), st.data())
    @settings(max_examples=50)
    def test_add_after_search_is_seen(self, store_and_query, data):
        store, query = store_and_query
        top_k_entities(query, store, 3)
        new = data.draw(st.sampled_from([query, _vector(data.draw, len(query))]))
        store = store.extended(["zz-new"], *_block([new], len(query)))
        got = top_k_entities(query, store, 3)
        assert _hex(got) == _hex(brute_force_top_k(query, store.entries, 3))
        assert "zz-new" in store.names

    @given(st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_index_write_never_reuses_the_parent_columns(self, seed):
        """The child's write never uses the parent's column arrays as room
        for its own: the parent keeps the same blocks with the same bytes."""
        rng = random.Random(seed)
        corpus, pool = random_corpus(rng, max_chunks=16, max_entities=12)
        half = len(corpus.chunks) // 2
        first, rest = list(corpus.chunks[:half]), list(corpus.chunks[half:])
        parent = build_index(ingest_corpus([]), ExtractorConfig(), LOCAL64)
        parent = add_chunks(parent, first, ExtractorConfig(), LOCAL64)
        query = embed(rng.choice(pool), LOCAL64)
        before = top_k_entities(query, parent.vectors, 4)
        blocks = list(parent.vectors.blocks)
        kept = [_block_bytes(block) for block in blocks]
        child = add_chunks(parent, rest, ExtractorConfig(), LOCAL64)
        got = top_k_entities(query, child.vectors, 4)
        assert _hex(got) == _hex(brute_force_top_k(query, child.vectors.entries, 4))
        assert all(a is b for a, b in zip(parent.vectors.blocks, blocks, strict=True))
        assert [_block_bytes(block) for block in blocks] == kept
        # The parent keeps answering from its own entities.
        assert top_k_entities(query, parent.vectors, 4) == before

    def test_errors_come_from_the_same_call(self):
        store = EntityVectorStore(dimension=2).extended(["a"], *_block([(1.0, 0.0)], 2))
        # k < 1 is checked before anything else, also on an empty store.
        for bad_store in (store, EntityVectorStore(2)):
            with pytest.raises(ValueError, match="k must be"):
                top_k_entities((0.0,), bad_store, 0)
        # An empty store has nothing to compare against.
        assert top_k_entities((0.0, 0.0, 0.0), EntityVectorStore(2), 3) == []
        with pytest.raises(ZeroVectorError):
            top_k_entities((0.0, -0.0), store, 1)
        for query in ((1.0,), (0.0, 0.0, 0.0)):
            with pytest.raises(DimensionMismatchError) as caught:
                top_k_entities(query, store, 1)
            assert type(caught.value) is DimensionMismatchError
        store = store.extended(["zero"], *_block([(0.0, 0.0)], 2))
        with pytest.raises(ZeroVectorError):
            top_k_entities((1.0, 0.0), store, 1)
        assert cosine_similarities((0.0, 0.0), *_block([], 2)) == []
        with pytest.raises(ZeroVectorError):
            cosine_similarities((0.0, 0.0), *_block([(1.0, 0.0)], 2))
        # The columns share one dimension: a query of another fails on the
        # first pair, before a zero column is reached.
        with pytest.raises(DimensionMismatchError) as caught:
            cosine_similarities((1.0, 0.0), *_block([(1.0, 0.0, 0.0), (0.0,) * 3], 3))
        assert type(caught.value) is DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            _block([(1.0, 0.0), (1.0, 0.0, 0.0)], 2)

    @given(st.data(), st.integers(-1, 4))
    @settings(max_examples=300)
    def test_errors_equal_the_per_pair_loop(self, data, k):
        """Wrong dimensions, zero vectors and empty inputs: the kernel raises
        the type the loop raised, or returns what it returned."""
        dim = data.draw(st.integers(1, 4))

        def vector():
            size = data.draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
            if data.draw(st.integers(0, 5)) == 0:
                return (0.0,) * size
            return _vector(data.draw, size) if size else ()

        query = vector()
        rows = [vector() for _ in range(data.draw(st.integers(0, 5)))]
        same_dim = [row for row in rows if len(row) == dim]
        block = _block(same_dim, dim)
        store = EntityVectorStore(dimension=dim).extended(
            [f"e{i}" for i in range(len(same_dim))], *block
        )
        got = _outcome(top_k_entities, query, store, k)
        want = _outcome(_loop_top_k, query, store, k)
        assert (_hex(got) if isinstance(got, list) else got) == (
            _hex(want) if isinstance(want, list) else want
        )
        # Rows of other dimensions cannot form a block: ``_columns`` raises
        # on them (``TestStoreBlocks``).
        got = _outcome(cosine_similarities, query, *block)
        want = _outcome(lambda: [cosine_similarity(row, query) for row in same_dim])
        assert ([x.hex() for x in got] if isinstance(got, list) else got) == (
            [x.hex() for x in want] if isinstance(want, list) else want
        )



def _dot_loop(query: np.ndarray, columns: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The oracle of ``_dots``: ``acc += q[j] * (c[j, i] / n[i])`` for every
    row ``j`` in index order, from zero exactly as ``cosine_similarity``'s
    loop adds, one row of every column per step."""
    acc = np.zeros(columns.shape[1])
    for j in range(columns.shape[0]):
        acc += query[j] * (columns[j] / norms)
    return acc


def _heights(dimension: int) -> list[int]:
    """Block heights for ``_dots`` to take: the edges of one and of 64
    rows, and one short of, equal to and past the whole dimension (0 asks
    for less than one row, so it takes one)."""
    return sorted({1, 2, 63, 64, 65, dimension - 1, dimension, dimension + 1})


def _dots_at_every_height(query: np.ndarray, columns: np.ndarray, norms: np.ndarray):
    """``_dots`` at the real ``_BLOCK_CELLS``, then with it patched so the
    rows it reads, the query's nonzero dimensions, are taken each of
    ``_heights`` of the dimension and of that row count per block."""
    dimension, width = columns.shape
    yield _dots(query, columns, norms)
    nonzero = np.count_nonzero(query)
    for height in sorted(set(_heights(dimension) + _heights(nonzero)) - {-1}):
        with mock.patch.object(embedding, "_BLOCK_CELLS", height * max(width, 2)):
            got = _dots(query, columns, norms)
        yield got


def _hexes(sums: np.ndarray) -> list[str]:
    return [x.hex() for x in sums.tolist()]


# The scales norms are drawn at, the scales of the stores' entries: each
# division by one of them rounds, or (by 1.0) keeps integer entries whole.
_NORM_SCALES = np.array([1e-150, 1e-3, 1.0, 1e150])


# Column counts from one to past 4,096, so the real ``_BLOCK_CELLS`` gives
# blocks from the whole dimension down to 16 rows at 256 dimensions.
_WIDTHS = st.one_of(
    st.sampled_from([1, 2, 3, 255, 256, 257, 2047, 2048, 2049, 4097]),
    st.integers(1, 4096),
)
_EXTREMES = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300])
# Dimensions at the edges of blocks of 64 rows.
_BLOCK_EDGES = [1, 63, 64, 65, 128, 255, 256, 257]


@st.composite
def _dot_operands(draw):
    """A query, a dimension × width array mixing normal draws with ±0.0 and
    ±1e±300 (quotients and products that overflow to ±inf, sums that
    become NaN, quotients and products that underflow to ±0.0), and its
    norms. The first ``prefix`` rows give -0.0 products in every column,
    and a column whose products are all -0.0 sums to -0.0 unless it starts
    from +0.0."""
    dimension = draw(st.integers(1, 300))
    width = draw(_WIDTHS)
    extreme_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(shape):
        normal = rng.standard_normal(shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
        extreme = rng.choice(_EXTREMES, shape)
        return np.where(rng.random(shape) < extreme_share, extreme, normal)

    query = operand(dimension)
    columns = operand((dimension, width))
    prefix = draw(st.sampled_from([0, 1, dimension // 2, dimension]))
    query[:prefix] = -0.0
    columns[:prefix] = np.abs(columns[:prefix])
    norms = rng.choice(_NORM_SCALES, width)
    # ``_dots`` skips the rows where the query is zero, so it needs their
    # quotients finite, as a norm no smaller than its entries makes them; a
    # column whose quotient overflows there takes the norm 1.0.
    with np.errstate(over="ignore"):
        overflows = ~np.isfinite(columns[query == 0] / norms).all(axis=0)
    norms[overflows] = 1.0
    return query, columns, norms


# Magnitudes of a subnormal sparse query's nonzero components: subnormals
# and the smallest normal.
_SUBNORMALS = np.array([5e-324, 1e-320, 2.5e-310, 2.2250738585072014e-308])


@st.composite
def _sparse_query_operands(draw):
    """A query whose zero components (each +0.0 or -0.0) take a drawn
    share of its dimensions, all but one or all of them, a finite
    dimension × width array with some ±0.0 entries, taken contiguous,
    strided or column-major (a strided query and norms with the latter
    two), and its norms, whose quotients of these entries are all finite.
    The nonzero components are normal draws, subnormals, or small integers
    against integer columns, whose sums cancel to exact zeros where the
    norm is 1.0."""
    dimension = draw(st.integers(1, 300))
    width = draw(st.one_of(st.sampled_from([1, 2, 3, 257, 2049]), st.integers(1, 600)))
    values = draw(st.sampled_from(["normal", "subnormal", "integer"]))
    layout = draw(st.sampled_from(["contiguous", "strided", "fortran"]))
    pattern = draw(st.sampled_from(["drawn", "one", "none"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (3 * dimension, 2 * width)
    if values == "integer":
        query = rng.integers(-3, 4, 2 * dimension).astype(float)
        columns = rng.integers(-3, 4, shape).astype(float)
    else:
        query = rng.standard_normal(2 * dimension)
        columns = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)
        if values == "subnormal":
            query = np.copysign(rng.choice(_SUBNORMALS, 2 * dimension), query)
    columns[rng.random(shape) < 0.1] = -0.0
    norms = rng.choice(_NORM_SCALES, 2 * width)
    if layout == "contiguous":
        query, columns = query[:dimension].copy(), columns[:dimension, :width].copy()
        norms = norms[:width].copy()
    else:
        query, columns, norms = query[::2], columns[::3, ::2], norms[::2]
        if layout == "fortran":
            columns = np.asfortranarray(columns)
    if pattern == "drawn":
        zero = rng.random(dimension) >= draw(st.sampled_from([0.02, 0.1, 0.5, 0.9]))
    else:
        zero = np.ones(dimension, dtype=bool)
        if pattern == "one":
            zero[draw(st.integers(0, dimension - 1))] = False
    query[zero] = np.where(rng.random(dimension) < 0.5, 0.0, -0.0)[zero]
    return query, columns, norms


class TestDots:
    """``_dots`` equals ``_dot_loop``, the per-row loop kept here as its
    oracle, by ``float.hex`` and byte for byte, at every width and every
    block height; the height is set by patching ``_BLOCK_CELLS``."""

    @given(_dot_operands())
    @settings(max_examples=fuzz_examples(150), deadline=None)
    def test_every_block_height_equals_the_loop(self, operands):
        # Overflow to inf and inf - inf are drawn on purpose.
        with np.errstate(over="ignore", invalid="ignore"):
            want = _dot_loop(*operands)
            for got in _dots_at_every_height(*operands):
                assert _hexes(got) == _hexes(want)
                assert got.tobytes() == want.tobytes()

    @given(_sparse_query_operands())
    @settings(max_examples=fuzz_examples(100), deadline=None)
    @example((
        np.array([0.0, -0.0, 0.0]), np.array([[1.0], [-2.0], [3.0]]), np.array([1e-150]),
    ))
    @example((np.array([-0.0, 5e-324, 0.0, -0.0]), np.asfortranarray(
        np.array([[1e300, 2.0], [-1.0, 3.0], [-0.0, 0.0], [5.0, -7.0]])
    ), np.array([1e150, 1e-3])))
    def test_a_sparse_query_equals_the_loop(self, operands):
        """``_dots`` reads and divides only the query's nonzero rows; the
        loop adds the ``±0.0`` products of the others, which leave its sums'
        bits as they are. No row is nonzero in an all-zero query, whose sums
        are +0.0."""
        query, columns, _ = operands
        want = _dot_loop(*operands)
        for got in _dots_at_every_height(*operands):
            assert _hexes(got) == _hexes(want)
            assert got.tobytes() == want.tobytes()
        if not query.any():
            assert want.tobytes() == np.zeros(columns.shape[1]).tobytes()

    @pytest.mark.parametrize("nonzero", [22, DEFAULT_DIMENSION])
    def test_one_call_holds_only_its_block_and_sums(self, nonzero):
        """One ``_dots`` over a read-only 256 × 3,133 array (``build``'s
        entity store) with 22 nonzero query components, a local entity's
        median, or 256, a remote vector's: the traced peak is the block,
        the sums, what one numpy multiply of the block's products allocates
        for itself, and a few KB. The rows read are divided by the norms in
        the block; a copy of them, by fancy indexing, by ``np.take`` in
        ``"raise"`` mode or by a division that is not in place, adds about
        500 KB."""
        width = 3133
        rng = np.random.default_rng(nonzero)
        columns = rng.standard_normal((DEFAULT_DIMENSION, width))
        columns.flags.writeable = False
        norms = rng.choice(_NORM_SCALES, width)
        query = np.zeros(DEFAULT_DIMENSION)
        rows = rng.choice(DEFAULT_DIMENSION, nonzero, replace=False)
        query[rows] = rng.standard_normal(nonzero)
        height = min(nonzero, _BLOCK_CELLS // width)
        block = np.empty((height + 1, width))
        _dots(query, columns, norms)  # set-up of numpy's first calls is not traced
        tracemalloc.start()
        try:
            np.multiply(query[:height, None], columns[:height], out=block[1:])
            multiply = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _dots(query, columns, norms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block.nbytes + width * 8 + multiply + 4096

    @given(st.data())
    @settings(max_examples=fuzz_examples(40), deadline=None)
    def test_cosine_similarities_at_every_block_height(self, data):
        """``_BLOCK_CELLS`` is drawn from 0 to past the whole array, so
        every block height runs, one dimension per block included, without
        drawing thousands of vectors."""
        dim = data.draw(st.integers(1, 6))
        query = _vector(data.draw, dim)
        count = data.draw(st.integers(1, 60))
        cells = data.draw(st.integers(0, (dim + 1) * max(count, 2)))
        pool = [_vector(data.draw, dim) for _ in range(8)]
        vectors = [data.draw(st.sampled_from(pool)) for _ in range(count)]
        with mock.patch.object(embedding, "_BLOCK_CELLS", cells):
            got = cosine_similarities(query, *_block(vectors, dim))
        want = [cosine_similarity(vec, query) for vec in vectors]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert all(type(x) is float for x in got)

    @pytest.mark.parametrize("bad", ["zero", "short", "long"])
    @pytest.mark.parametrize(
        "count", [2048, _BLOCK_CELLS // 2, _BLOCK_CELLS + 1]
    )
    def test_wide_errors_equal_the_per_pair_loop(self, bad, count):
        """A zero row among the columns, or a query shorter or longer than
        the columns' one dimension, each with a nonzero and a zero query;
        at 3 dimensions the counts take blocks of 3, 2 and 1 rows."""
        rng = random.Random(count)
        rows = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(count)]
        queries = {
            "zero": [(0.5, -1.0, 2.0), (0.0, 0.0, 0.0)],
            "short": [(0.5, -1.0), (0.0, 0.0)],
            "long": [(0.5, -1.0, 2.0, 4.0), (0.0, 0.0, 0.0, 0.0)],
        }[bad]
        if bad == "zero":
            rows[rng.randrange(count)] = (0.0, -0.0, 0.0)
        block = _block(rows, 3)
        for query in queries:
            got = _outcome(cosine_similarities, query, *block)
            want = _outcome(lambda: [cosine_similarity(row, query) for row in rows])
            assert got is want and issubclass(got, Exception)

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    def test_wider_than_a_block_takes_one_dimension_per_block(self, layout):
        """Past ``_BLOCK_CELLS`` columns no two dimensions fit in a block,
        so each block is one row of products under the sums."""
        rng = np.random.default_rng(_BLOCK_CELLS)
        width = _BLOCK_CELLS + 1
        query = rng.standard_normal(10) * 10 ** rng.uniform(-4, 4, 10)
        columns = rng.standard_normal((15, 2 * width))
        columns *= 10 ** rng.uniform(-4, 4, columns.shape)
        norms = rng.choice(_NORM_SCALES, 2 * width)
        if layout == "contiguous":
            query, columns = query[:5].copy(), columns[:5, :width].copy()
            norms = norms[:width].copy()
        else:
            query, columns, norms = query[::2], columns[::3, ::2], norms[::2]
            if layout == "fortran":
                columns = np.asfortranarray(columns)
        columns[:, -1] = np.copysign(0.0, -query)
        got = _dots(query, columns, norms)
        want = _dot_loop(query, columns, norms)
        assert _hexes(got) == _hexes(want)
        assert got.tobytes() == want.tobytes()
        assert got[-1:].tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("dimension", _BLOCK_EDGES)
    def test_block_edges_and_layouts_equal_the_loop(self, dimension, width, layout):
        """Dimensions at the edges of blocks of 64 rows, taken at every
        height, the narrowest widths (one column is reduced beside a zero
        pad column, not summed pairwise), and a strided query with strided
        or column-major columns. Products of magnitudes 1e-8 to 1e8 make
        any other order of addition show in the last bits."""
        rng = np.random.default_rng([dimension, width])
        query = rng.standard_normal(2 * dimension) * 10 ** rng.uniform(-4, 4, 2 * dimension)
        columns = rng.standard_normal((3 * dimension, 2 * width))
        columns *= 10 ** rng.uniform(-4, 4, columns.shape)
        norms = rng.choice(_NORM_SCALES, 2 * width)
        if layout == "contiguous":
            query, columns = query[:dimension].copy(), columns[:dimension, :width].copy()
            norms = norms[:width].copy()
        else:
            query, columns, norms = query[::2], columns[::3, ::2], norms[::2]
            if layout == "fortran":
                columns = np.asfortranarray(columns)
        want = _dot_loop(query, columns, norms)
        for got in _dots_at_every_height(query, columns, norms):
            assert _hexes(got) == _hexes(want)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("dimension", _BLOCK_EDGES)
    def test_all_negative_zero_products_sum_to_positive_zero(self, dimension, width):
        """The last column's products are all -0.0; the loop adds them to
        0.0 and gets 0.0, where a sum that starts from a product gets -0.0;
        at every block height."""
        rng = np.random.default_rng([dimension, width])
        query = rng.standard_normal(dimension)
        columns = rng.standard_normal((dimension, width))
        columns[:, -1] = np.copysign(0.0, -query)
        norms = rng.choice(_NORM_SCALES, width)
        want = _dot_loop(query, columns, norms)
        for got in _dots_at_every_height(query, columns, norms):
            assert _hexes(got) == _hexes(want)
            assert got.tobytes() == want.tobytes()
            assert got[-1:].tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize("dimension", _BLOCK_EDGES)
    def test_one_column_equals_cosine_bit_for_bit(self, dimension):
        """``cosine_similarities`` of one vector and ``top_k_entities`` over
        a store of one entity take the reduce at width 1."""
        rng = random.Random(dimension)
        query, other = (
            tuple(rng.uniform(0.5, 1.0) * rng.choice([-1, 1]) * 10 ** rng.uniform(-4, 4)
                  for _ in range(dimension))
            for _ in range(2)
        )
        want = cosine_similarity(other, query).hex()
        block = _block([other], dimension)
        assert [x.hex() for x in cosine_similarities(query, *block)] == [want]
        store = EntityVectorStore(dimension=dimension).extended(["other"], *block)
        assert _hex(top_k_entities(query, store, 1)) == [("other", want)]


def _column_fill(rows, dimension):
    """The column-by-column fill: the reference for the bytes and the
    errors of ``_unit_vector`` taken row by row."""
    columns = np.empty((dimension, len(rows)))
    norms = []
    for i, row in enumerate(rows):
        if len(row) != dimension:
            raise DimensionMismatchError(
                f"dimensions differ: {len(row)} vs {dimension}"
            )
        norm = math.hypot(*row)
        if norm == 0.0:
            raise ZeroVectorError("cosine similarity is undefined for a zero vector")
        columns[:, i] = row
        norms.append(norm)
    columns /= np.array(norms)
    return columns


# Row counts around the 256-row packing block.
_ROW_COUNTS = st.sampled_from([0, 1, 255, 256, 257, 600])


def _random_rows(seed: int, count: int, dim: int, scale: float, kind: str):
    """Rows of floats, of integers (which a store or remote reply can hold),
    or of both, every row non-zero."""
    rng = random.Random(seed)

    def component():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            big = rng.random() < 0.1
            return rng.randint(-(10**18), 10**18) if big else rng.randint(-3, 3)
        return rng.choice([0.0, -0.0, rng.uniform(-1, 1)]) * scale

    rows = []
    for _ in range(count):
        row = [component() for _ in range(dim)]
        if not any(row):
            row[rng.randrange(dim)] = 1 if kind == "int" else scale
        rows.append(tuple(row))
    return rows


def _block_bytes(block) -> bytes:
    """The bytes of every array a store's block holds."""
    return b"".join(array.tobytes() for array in vars(block).values())


def _norm_hexes(store) -> list[str]:
    """The norms beside a store's blocks, in store order, by ``float.hex``."""
    return [x.hex() for block in store.blocks for x in block.norms.tolist()]


def _unit_fill(rows, dimension):
    """``_unit_vector`` of each row, in order, as the columns of one array."""
    columns = np.empty((dimension, len(rows)))
    for i, row in enumerate(rows):
        columns[:, i] = _unit_vector(row, dimension)
    return columns


class TestStoreBlocks:
    """``_unit_vector`` equals the column-by-column fill byte for byte, for
    tuples and for float64 columns, and index writes keep every store's
    blocks read-only, few, and side by side the vectors written."""

    @given(
        st.integers(1, 300),
        _ROW_COUNTS,
        st.sampled_from([1e-150, 1e-3, 1.0, 1e150]),
        st.sampled_from(["float", "int", "mixed"]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=fuzz_examples(40), deadline=None)
    def test_equals_the_column_fill(self, dim, count, scale, kind, seed):
        rows = _random_rows(seed, count, dim, scale, kind)
        got = _unit_fill(rows, dim)
        want = _column_fill(rows, dim)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # The same vectors as the strided column views of one block.
        columns = list(_block(rows, dim)[0].T)
        assert _unit_fill(columns, dim).tobytes() == want.tobytes()

    @given(st.integers(1, 8), _ROW_COUNTS, st.data(), st.booleans())
    @settings(max_examples=fuzz_examples(60), deadline=None)
    def test_first_failing_row_raises(self, dim, count, data, zero_first):
        """A zero row and a wrong-dimension row in one input, in either
        order: the error is the first failing row's."""
        seed = data.draw(st.integers(0, 2**32))
        rows = _random_rows(seed, count + 2, dim, 1.0, "float")
        first = data.draw(st.integers(0, len(rows) - 2))
        second = data.draw(st.integers(first + 1, len(rows) - 1))
        wrong_size = data.draw(st.sampled_from([0, dim - 1, dim + 1]))
        wrong = (0.0,) * wrong_size if data.draw(st.booleans()) else (1.0,) * wrong_size
        zero_at, wrong_at = (first, second) if zero_first else (second, first)
        rows[zero_at] = (-0.0,) * dim
        rows[wrong_at] = wrong
        got = _outcome(_unit_fill, rows, dim)
        assert got is (ZeroVectorError if zero_first else DimensionMismatchError)
        assert got is _outcome(_column_fill, rows, dim)

    @given(st.integers(0, 2**32), st.lists(st.booleans(), min_size=8, max_size=8))
    @settings(max_examples=fuzz_examples(20), deadline=None)
    def test_index_writes_extend_the_blocks(self, seed, searches):
        """A chain of add_chunks calls with searches at random before and
        after each: every store keeps the block rule of :meth:`_check`, its
        blocks side by side being its entities' embeddings."""
        rng = random.Random(seed)
        corpus, pool = random_corpus(rng, max_chunks=30, max_entities=20)
        chunks = list(corpus.chunks)
        cuts = sorted(rng.randint(0, len(chunks)) for _ in range(3))
        parts = [chunks[a:b] for a, b in zip([0] + cuts, cuts + [len(chunks)])]
        index = build_index(ingest_corpus([]), ExtractorConfig(), LOCAL64)
        stores = [index.vectors]
        snapshots: dict[int, bytes] = {}
        search = iter(searches)
        for part in parts:
            if next(search):
                query = embed(rng.choice(pool), LOCAL64)
                got = top_k_entities(query, index.vectors, 3)
                want = brute_force_top_k(query, index.vectors.entries, 3)
                assert _hex(got) == _hex(want)
            index = add_chunks(index, part, ExtractorConfig(), LOCAL64)
            stores.append(index.vectors)
            if next(search):
                top_k_entities(embed(rng.choice(pool), LOCAL64), index.vectors, 3)
            for store in stores:
                rows = [embed(name, LOCAL64) for name in store.names]
                self._check(store, rows, snapshots)

    @staticmethod
    def _check(store, rows, snapshots):
        """The block rule: each block's arrays are read-only and
        C-contiguous, and it is at least twice as wide as the next newer
        one; there are at most ``floor(log2 n) + 1`` of them (none for an
        empty store); each holds the bytes of a block made at once of its
        slice of ``rows``, the vectors written to the store, as columns,
        so merged postings are the postings of the merged columns; those
        bytes are the ones first seen for the store; and the store's dense
        rows, in slices that cross the blocks, and its ``entries`` are
        ``rows``."""
        blocks = store.blocks
        assert sum(block.width for block in blocks) == len(store)
        assert len(blocks) <= len(store).bit_length()
        for older, newer in zip(blocks, blocks[1:]):
            assert older.width >= 2 * newer.width
        for block in blocks:
            for array in vars(block).values():
                assert array.dtype in (np.float64, np.intp) and array.flags.c_contiguous
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
        if not rows:
            assert not blocks
            return
        columns, norms = _block(rows, store.dimension)
        stops = list(itertools.accumulate(block.width for block in blocks))
        for block, start, stop in zip(blocks, [0, *stops], stops):
            new = columns[:, start:stop].copy(), norms[start:stop]
            assert _block_bytes(block) == _block_bytes(_Postings.of(*new))
        every = b"".join(map(_block_bytes, blocks))
        assert snapshots.setdefault(id(store), every) == every
        dense = np.concatenate(list(store.rows(list(range(len(store))), 7)))
        assert dense.tobytes() == columns.T.copy().tobytes()
        assert dense.tobytes() == np.array(list(store.entries.values())).tobytes()

    @staticmethod
    def _search_equals_the_loop(store, rng):
        query = _random_rows(rng.getrandbits(32), 1, store.dimension, 1.0, "float")[0]
        k = rng.randint(1, 8)
        assert _hex(top_k_entities(query, store, k)) == _hex(
            brute_force_top_k(query, store.entries, k)
        )

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=40),
        st.integers(1, 8),
        st.sampled_from([1e-150, 1e-3, 1.0, 1e150]),
        st.sampled_from(["float", "int", "mixed"]),
        st.integers(0, 2**32),
        st.data(),
    )
    @settings(max_examples=fuzz_examples(40), deadline=None)
    def test_writes_keep_few_read_only_blocks(self, writes, dim, scale, kind, seed, data):
        """A chain of up to 40 writes of 0-5 new entities, each searched
        or not, then one write of 1-5 entities branching from an older
        store after a search of it, with a zero vector or not. Each search
        answers as the per-pair loop does, and :meth:`_check` holds for
        each store when it is made and for every store after all the
        writes, so older stores' blocks keep their first-seen bytes. A
        search of a store that holds a zero vector raises ZeroVectorError."""
        rng = random.Random(seed)
        rows = iter(_random_rows(seed, sum(w for w, _ in writes) + 5, dim, scale, kind))
        snapshots: dict[int, bytes] = {}
        store = EntityVectorStore(dim)
        written = {id(store): []}
        stores = [store]
        for number, (width, search) in enumerate(writes):
            names = [f"w{number}-{i}" for i in range(width)]
            new = [next(rows) for _ in names]
            store, parent = store.extended(names, *_block(new, dim)), store
            written[id(store)] = written[id(parent)] + new
            stores.append(store)
            if search and store.names:
                self._search_equals_the_loop(store, rng)
            self._check(store, written[id(store)], snapshots)
        older = data.draw(st.sampled_from(stores))
        if older.names:
            self._search_equals_the_loop(older, rng)
        branch = [next(rows) for _ in range(data.draw(st.integers(1, 5)))]
        zero = data.draw(st.booleans())
        if zero:
            branch[data.draw(st.integers(0, len(branch) - 1))] = (-0.0,) * dim
        names = [f"b-{i}" for i in range(len(branch))]
        child = older.extended(names, *_block(branch, dim))
        written[id(child)] = written[id(older)] + branch
        stores.append(child)
        if zero:
            with pytest.raises(ZeroVectorError):
                top_k_entities((1.0,) * dim, child, 3)
        else:
            self._search_equals_the_loop(child, rng)
        for kept in stores:
            self._check(kept, written[id(kept)], snapshots)

    @given(
        st.lists(_ROW_COUNTS, min_size=1, max_size=4),
        st.integers(1, 16),
        st.sampled_from([1e-150, 1e-3, 1.0, 1e150]),
        st.sampled_from(["float", "int", "mixed"]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=fuzz_examples(25), deadline=None)
    def test_norms_are_the_hypot_of_each_row(
        self, tmp_path_factory, counts, dim, scale, kind, seed
    ):
        """A store made by one to four writes, and the store a save and
        load of it gives, hold ``math.hypot`` of each row."""
        rows = _random_rows(seed, sum(counts), dim, scale, kind)
        names = [f"e{i:05d}" for i in range(len(rows))]
        store = EntityVectorStore(dim)
        for stop in itertools.accumulate(counts):
            start = len(store)
            store = store.extended(names[start:stop], *_block(rows[start:stop], dim))
        want = [math.hypot(*row).hex() for row in rows]
        assert _norm_hexes(store) == want
        index = EntityIndex(
            IndexConfig(
                SegmentationPolicy(), ExtractorConfig(),
                EmbedderConfig(provider="remote", remote_model="model"),
            ),
            {name: frozenset({"d#0"}) for name in names},
            store,
            {"d#0": Chunk("d", 0, "Some text.")},
            TokenAccounting(tctc=3),
        )
        path = tmp_path_factory.mktemp("norms") / "index.json"
        save_index(index, path)
        loaded = load_index(path).vectors
        assert loaded.names == names
        assert _norm_hexes(loaded) == want

    def test_zero_vector_added_after_a_search_raises_on_search(self):
        store = EntityVectorStore(dimension=2).extended(["a"], *_block([(1.0, 0.0)], 2))
        top_k_entities((1.0, 0.0), store, 1)
        child = store.extended(["b"], *_block([(0.0, -0.0)], 2))
        assert list(child.entries) == ["a", "b"]
        with pytest.raises(ZeroVectorError):
            top_k_entities((1.0, 0.0), child, 1)
        assert top_k_entities((1.0, 0.0), store, 2) == [("a", 1.0)]


@st.composite
def _posting_chains(draw):
    """A chain of one to six writes (some of one entity, so a width-1 block
    is made and merged) to a store of 1-64 dimensions, the columns
    written, their norms and a query. Entries are ``0.0`` or ``-0.0`` at a
    drawn share, so some entities have no entry in the query's nonzero
    dimensions; the rest are normal draws at magnitudes 1e-4 to 1e4 (norms
    of 1e-150 to 1e150), or small integers with norms of 1.0, whose sums
    cancel exactly to ``+0.0``. The query's nonzero components are one,
    a drawn share or all of its dimensions, and its zeros are ``±0.0``."""
    dimension = draw(st.integers(1, 64))
    widths = draw(
        st.lists(st.sampled_from([0, 1, 1, 2, 3, 7, 16, 40]), min_size=1, max_size=6)
    )
    integer = draw(st.booleans())
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    pattern = draw(st.sampled_from(["one", "drawn", "all"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (dimension, sum(widths))
    if integer:
        columns = rng.integers(-3, 4, shape).astype(float)
        norms = np.ones(shape[1])
        query = rng.integers(-3, 4, dimension).astype(float)
        query[query == 0] = 1.0
    else:
        columns = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)
        norms = rng.choice(_NORM_SCALES, shape[1])
        query = rng.standard_normal(dimension)
    signed_zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    columns = np.where(rng.random(shape) < zero_share, signed_zeros, columns)
    if pattern == "one":
        zero = np.ones(dimension, dtype=bool)
        zero[draw(st.integers(0, dimension - 1))] = False
    elif pattern == "drawn":
        zero = rng.random(dimension) < 0.7
    else:
        zero = np.zeros(dimension, dtype=bool)
    query[zero] = np.where(rng.random(dimension) < 0.5, 0.0, -0.0)[zero]
    return widths, columns, norms, query


class TestPostings:
    """A store's postings search equals ``_dot_loop``, the per-row
    loop, and the dense ``_dots`` over the same columns by ``tobytes()``,
    on stores made by chains of ``extended`` writes; and the postings a
    chain of merges leaves equal the postings made once of the merged
    columns. This pins ``np.bincount``'s adding of each bin's weights in
    input order from ``+0.0``, which is numpy's behaviour but not its
    documented API."""

    @given(_posting_chains())
    @settings(max_examples=fuzz_examples(150), deadline=None)
    def test_search_equals_the_loop_and_dots(self, chain):
        widths, columns, norms, query = chain
        store = EntityVectorStore(len(columns))
        for stop in itertools.accumulate(widths):
            start = len(store)
            names = [f"e{i:03d}" for i in range(start, stop)]
            new = columns[:, start:stop].copy(), norms[start:stop].copy()
            store = store.extended(names, *new)
        want = _dot_loop(query, columns, norms)
        assert _dots(query, columns, norms).tobytes() == want.tobytes()
        sims = [block.dots(query) for block in store.blocks]
        got = np.concatenate(sims) if sims else np.empty(0)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        stops = list(itertools.accumulate(block.width for block in store.blocks))
        for block, start, stop in zip(store.blocks, [0, *stops], stops):
            once = _Postings.of(columns[:, start:stop].copy(), norms[start:stop].copy())
            assert _block_bytes(block) == _block_bytes(once)

    def test_no_entry_in_the_query_dimensions_sums_to_positive_zero(self):
        """Pin: with nothing gathered, ``np.bincount`` would count in
        integers; the sums are float ``+0.0``, as the loop's are, also for
        an entity whose only entries are ``-0.0``."""
        columns = np.array([[1.0, -0.0], [0.0, -0.0], [0.0, 0.0]])
        norms = np.array([1.0, 2.0])
        [block] = EntityVectorStore(3).extended(["a", "b"], columns, norms).blocks
        for query in (np.array([0.0, 0.0, 1.0]), np.array([-0.0, 2.0, 0.0])):
            got = block.dots(query)
            want = _dot_loop(query, columns, norms)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert _hexes(got) == ["0x0.0p+0", "0x0.0p+0"]

    def test_exactly_cancelling_sums_are_positive_zero(self):
        """``1 * 1 + (-1) * 1`` is ``+0.0``, as the loop gives it, for a
        width-1 block and beside an entity whose sum does not cancel."""
        columns = np.array([[1.0, 2.0], [1.0, 1.0]])
        norms = np.array([1.0, 1.0])
        query = np.array([1.0, -1.0])
        store = EntityVectorStore(2)
        for start in range(2):
            new = columns[:, start:start + 1].copy(), norms[start:start + 1].copy()
            store = store.extended([f"e{start}"], *new)
            got = np.concatenate([block.dots(query) for block in store.blocks])
            want = _dot_loop(query, columns[:, :start + 1], norms[:start + 1])
            assert got.tobytes() == want.tobytes()
        assert _hexes(got) == ["0x0.0p+0", "0x1.0000000000000p+0"]

    def test_a_block_of_every_entry_holds_its_columns_in_c_order(self):
        """A block with no ``+0.0`` entry, as a remote embedder's, holds its
        raw columns in ``values``, which its search reads as the dimension ×
        width array; a dense query and a one-dimension query both give the
        loop's bytes, on the block one write makes and on a merged one."""
        rng = np.random.default_rng(5)
        columns = rng.standard_normal((6, 5))
        norms = np.sqrt((columns**2).sum(axis=0))
        store = EntityVectorStore(6).extended(list("abc"), columns[:, :3].copy(), norms[:3])
        store = store.extended(list("de"), columns[:, 3:].copy(), norms[3:])
        [block] = store.blocks
        assert block.values.reshape(6, 5).tobytes() == columns.tobytes()
        for query in (rng.standard_normal(6), np.array([0.0, 0.0, 2.0, 0.0, -0.0, 0.0])):
            want = _dot_loop(query, columns, norms)
            assert block.dots(query).tobytes() == want.tobytes()

    def test_negative_zero_entries_are_kept_and_densified(self):
        """An entry is kept by its bits, so ``-0.0`` is held and comes back
        in the dense rows; ``+0.0`` is not held."""
        columns = np.array([[-0.0, 0.0], [1.0, -0.0]])
        store = EntityVectorStore(2)
        store = store.extended(["a", "b"], columns, np.array([1.0, 1.0]))
        [block] = store.blocks
        assert block.indptr.tolist() == [0, 1, 3]
        assert block.entity.tolist() == [0, 0, 1]
        assert [x.hex() for x in block.values.tolist()] == [
            "-0x0.0p+0", "0x1.0000000000000p+0", "-0x0.0p+0"
        ]
        [rows] = store.rows([1, 0], 2)
        assert [[x.hex() for x in row] for row in rows.tolist()] == [
            ["0x0.0p+0", "-0x0.0p+0"], ["-0x0.0p+0", "0x1.0000000000000p+0"]
        ]
