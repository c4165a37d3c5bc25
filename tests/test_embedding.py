"""Local embedder spec conformance, cosine identities, top-K exactness."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_top_k, embed_oracle
from slimrag.embedding import (
    DEFAULT_SEED,
    EmbedderConfig,
    EmbeddingCache,
    EntityVectorStore,
    cosine_similarity,
    embed,
    top_k_entities,
)
from slimrag.errors import DimensionMismatchError, ZeroVectorError

LOCAL8 = EmbedderConfig(dimension=8)
LOCAL64 = EmbedderConfig(dimension=64)

# Frozen output of the published hashing procedure for "abc" at d=8 with the
# documented default seed, computed by the independent scripted oracle.
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

    def test_seed_changes_vectors(self):
        other = EmbedderConfig(dimension=64, seed=12345)
        assert embed("abc", LOCAL64) != embed("abc", other)


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
    def test_scale_invariance(self, a, b, c):
        a, b = tuple(a), tuple(b)
        if all(x == 0 for x in a) or all(x == 0 for x in b):
            return
        scaled = tuple(c * x for x in a)
        assert cosine_similarity(scaled, b) == pytest.approx(
            cosine_similarity(a, b), abs=1e-9
        )


def _random_store(rng: random.Random, size: int, dim: int = 16) -> EntityVectorStore:
    store = EntityVectorStore(dimension=dim, embedder_id="test")
    for i in range(size):
        vec = tuple(rng.uniform(-1, 1) for _ in range(dim))
        store.add(f"entity-{i:04d}", vec)
    return store


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
        store = EntityVectorStore(dimension=2, embedder_id="test")
        store.add("bravo", (1.0, 0.0))
        store.add("alpha", (2.0, 0.0))  # same direction, same cosine
        result = top_k_entities((1.0, 0.0), store, 2)
        assert [e for e, _ in result] == ["alpha", "bravo"]

    def test_top2_of_five_known_vectors(self):
        store = EntityVectorStore(dimension=2, embedder_id="test")
        vectors = {
            "a": (1.0, 0.0),
            "b": (0.9, 0.1),
            "c": (0.0, 1.0),
            "d": (-1.0, 0.0),
            "e": (0.5, 0.5),
        }
        for name, vec in vectors.items():
            store.add(name, vec)
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
        store = EntityVectorStore(dimension=2, embedder_id="test")
        for i in range(20):
            store.add(f"e{i:02d}", (float(1 + i % 3), 0.0))  # many exact ties
        query = (1.0, 0.0)
        assert top_k_entities(query, store, 7) == brute_force_top_k(
            query, store.entries, 7
        )


class TestStoreAndCache:
    def test_dimension_enforced(self):
        store = EntityVectorStore(dimension=4, embedder_id="test")
        store.add("ok", (1.0, 0.0, 0.0, 0.0))
        with pytest.raises(DimensionMismatchError):
            store.add("bad", (1.0, 0.0))

    def test_nonfinite_rejected(self):
        store = EntityVectorStore(dimension=2, embedder_id="test")
        with pytest.raises(ValueError):
            store.add("nan", (float("nan"), 0.0))

    def test_cache_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put("emb-1", "hello", (0.5, 0.5))
        reloaded = EmbeddingCache(path)
        assert reloaded.get("emb-1", "hello") == (0.5, 0.5)
        assert reloaded.get("emb-2", "hello") is None

    def test_cache_append_only(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put("e", "a", (1.0,))
        cache.put("e", "b", (2.0,))
        cache.put("e", "a", (9.0,))  # duplicate put is ignored
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert EmbeddingCache(path).get("e", "a") == (1.0,)

    def test_cache_survives_torn_last_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put("e", "a", (1.0,))
        cache.put("e", "b", (2.0,))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"embedder": "e", "digest": "ab')  # append cut short
        reopened = EmbeddingCache(path)
        assert len(reopened) == 2
        assert reopened.get("e", "b") == (2.0,)
        reopened.put("e", "c", (3.0,))
        again = EmbeddingCache(path)
        assert len(again) == 3
        assert again.get("e", "c") == (3.0,)

    def test_cache_damaged_inner_line_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put("e", "a", (1.0,))
        good = path.read_text()
        nonfinite = '{"embedder": "e", "digest": "b", "vector": [NaN, 1.0, 0.0]}'
        for damaged in ("not json", nonfinite):
            path.write_text(damaged + "\n" + good, encoding="utf-8")
            with pytest.raises(ValueError, match="line 1"):
                EmbeddingCache(path)
