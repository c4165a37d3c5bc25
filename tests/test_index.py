"""Index construction, incremental updates, persistence, accounting."""

import json
import os
import random

import pytest

from conftest import random_corpus, rewrite_index
from slimrag.corpus import Chunk, SegmentationPolicy, ingest_corpus
from slimrag.embedding import EmbedderConfig
from slimrag.errors import (
    ConfigMismatchError,
    DuplicateChunkError,
    IndexIntegrityError,
    SchemaVersionError,
)
from slimrag.extraction import ExtractorConfig, extract_entities
from slimrag.index import (
    EMBEDDING_IN,
    EXTRACTION_IN,
    EXTRACTION_OUT,
    add_chunks,
    build_index,
    load_index,
    lookup,
    save_index,
)
from slimrag.retrieval import retrieve
from slimrag.tokenization import count_tokens

LOCAL = ExtractorConfig()
EMB = EmbedderConfig(dimension=32)


def _corpus(lines):
    return ingest_corpus(lines, SegmentationPolicy("sentence"))


def _small_corpus():
    return _corpus(
        [
            json.dumps({"doc_id": "d1", "text": (
                "A crew from Vertex Labs toured Paris. "
                "Reporters say Vertex Labs opened offices."
            )}),
            json.dumps({"doc_id": "d2", "text": "The mayor of Paris met Ember Corp."}),
        ]
    )


class TestBuild:
    def test_empty_corpus(self):
        index = build_index(_corpus([]), LOCAL, EMB)
        assert index.entities == set()
        assert index.inverted_map == {}
        assert index.accounting.tuic == 0
        assert index.accounting.tctc == 0

    def test_entity_shared_by_two_chunks(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        # Brute-force scan oracle: re-extract per chunk and compare.
        assert lookup(index, "vertex labs") == {"d1#0", "d1#1"}
        assert lookup(index, "paris") == {"d1#0", "d2#0"}

    def test_repeated_mention_appears_once(self):
        lines = [json.dumps({"doc_id": "d", "text": (
            "Officials said Paris will host, and visitors to Paris agreed."
        )})]
        index = build_index(_corpus(lines), LOCAL, EMB)
        assert lookup(index, "paris") == {"d#0"}

    def test_every_entity_embedded_once(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        assert set(index.vectors.entries) == index.entities
        assert index.vectors.dimension == 32

    def test_accounting_fields(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        corpus = _small_corpus()
        assert index.accounting.tctc == corpus.total_corpus_tokens
        breakdown = index.accounting.breakdown
        assert breakdown[EXTRACTION_IN] == sum(
            count_tokens(c.text) for c in corpus.chunks
        )
        assert breakdown[EMBEDDING_IN] == sum(
            count_tokens(e) for e in index.entities
        )
        assert index.accounting.tuic == (
            breakdown[EXTRACTION_IN]
            + breakdown[EXTRACTION_OUT]
            + breakdown[EMBEDDING_IN]
        )

    def test_order_independence(self):
        rng = random.Random(99)
        corpus, _ = random_corpus(rng, max_chunks=20, max_entities=10)
        shuffled = list(corpus.chunks)
        rng.shuffle(shuffled)
        reordered = ingest_corpus(
            [
                json.dumps(
                    {"doc_id": c.doc_id, "position": c.position, "text": c.text}
                )
                for c in shuffled
            ]
        )
        a = build_index(corpus, LOCAL, EMB)
        b = build_index(reordered, LOCAL, EMB)
        assert a.inverted_map == b.inverted_map
        assert a.vectors == b.vectors
        assert a.accounting == b.accounting

    def test_inverted_map_sound_and_complete(self):
        rng = random.Random(5)
        corpus, _ = random_corpus(rng, max_chunks=40, max_entities=15)
        index = build_index(corpus, LOCAL, EMB)
        by_id = {c.chunk_id: c for c in corpus.chunks}
        for entity, chunk_ids in index.inverted_map.items():
            for chunk_id in chunk_ids:
                assert entity in extract_entities(by_id[chunk_id].text, LOCAL)
        for chunk in corpus.chunks:
            for entity in extract_entities(chunk.text, LOCAL):
                assert chunk.chunk_id in index.inverted_map[entity]


class TestLookup:
    def test_unknown_entity(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        assert lookup(index, "nobody") == set()

    def test_normalized_argument_contract(self):
        from slimrag.extraction import normalize_entity

        index = build_index(_small_corpus(), LOCAL, EMB)
        assert lookup(index, normalize_entity("  Paris ")) == lookup(index, "paris")


class TestAddChunks:
    def test_add_to_empty_equals_build(self):
        corpus = _small_corpus()
        empty = build_index(_corpus([]), LOCAL, EMB)
        # An empty sentence-policy index accepts the same corpus's chunks.
        grown = add_chunks(empty, list(corpus.chunks), LOCAL, EMB)
        built = build_index(corpus, LOCAL, EMB)
        assert grown == built

    def test_add_empty_list_is_identity(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        assert add_chunks(index, [], LOCAL, EMB) == index

    def test_incremental_equals_batch_on_split_corpus(self):
        rng = random.Random(17)
        corpus, _ = random_corpus(rng, max_chunks=20, max_entities=12)
        chunks = list(corpus.chunks)
        cut = len(chunks) // 2
        first = ingest_corpus(
            [
                json.dumps({"doc_id": c.doc_id, "position": c.position, "text": c.text})
                for c in chunks[:cut]
            ]
        )
        incremental = add_chunks(build_index(first, LOCAL, EMB), chunks[cut:], LOCAL, EMB)
        batch = build_index(corpus, LOCAL, EMB)
        assert incremental == batch

    def test_duplicate_chunk_rejected(self):
        corpus = _small_corpus()
        index = build_index(corpus, LOCAL, EMB)
        with pytest.raises(DuplicateChunkError):
            add_chunks(index, [corpus.chunks[0]], LOCAL, EMB)

    def test_config_mismatch_rejected(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        other_extractor = ExtractorConfig(coreference_enabled=False)
        with pytest.raises(ConfigMismatchError):
            add_chunks(index, [Chunk("x#0", "x", 0, "New text.")], other_extractor, EMB)
        other_embedder = EmbedderConfig(dimension=16)
        with pytest.raises(ConfigMismatchError):
            add_chunks(index, [Chunk("x#0", "x", 0, "New text.")], LOCAL, other_embedder)
        # retrieve goes through the same fingerprint check.
        for extractor, embedder in ((other_extractor, EMB), (LOCAL, other_embedder)):
            with pytest.raises(ConfigMismatchError):
                retrieve(index, "Who toured Paris?", extractor=extractor, embedder=embedder)

    def test_decomposition_toggle_does_not_mismatch(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        no_decomp = ExtractorConfig(decomposition_enabled=False)
        grown = add_chunks(index, [Chunk("x#0", "x", 0, "Plain text here.")], no_decomp, EMB)
        assert grown.chunk_count == index.chunk_count + 1

    def test_accounting_monotone(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        grown = add_chunks(
            index, [Chunk("x#0", "x", 0, "A visit to Ember Corp happened.")], LOCAL, EMB
        )
        assert grown.accounting.tctc > index.accounting.tctc
        assert grown.accounting.tctc == index.accounting.tctc + count_tokens(
            "A visit to Ember Corp happened."
        )
        assert grown.accounting.tuic > index.accounting.tuic

    def test_input_index_not_mutated(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        before_chunks = dict(index.chunk_catalog)
        before_map = {e: set(ids) for e, ids in index.inverted_map.items()}
        add_chunks(index, [Chunk("x#0", "x", 0, "A visit to Ember Corp happened.")], LOCAL, EMB)
        assert index.chunk_catalog == before_chunks
        assert index.inverted_map == before_map


class TestPersistence:
    def test_round_trip_structural_equality(self, tmp_path):
        index = build_index(_small_corpus(), LOCAL, EMB)
        path = tmp_path / "index.json"
        save_index(index, path)
        assert load_index(path) == index

    def test_canonical_bytes_across_builds(self, tmp_path):
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        save_index(build_index(_small_corpus(), LOCAL, EMB), a_path)
        save_index(build_index(_small_corpus(), LOCAL, EMB), b_path)
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_unsupported_schema_version(self, tmp_path):
        index = build_index(_small_corpus(), LOCAL, EMB)
        path = tmp_path / "index.json"
        save_index(index, path)
        document = json.loads(path.read_text())
        document["schema"] = "slimrag-index/v0"
        path.write_text(json.dumps(document))
        with pytest.raises(SchemaVersionError):
            load_index(path)

    def test_truncated_file_is_corruption(self, tmp_path):
        index = build_index(_small_corpus(), LOCAL, EMB)
        path = tmp_path / "index.json"
        save_index(index, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(IndexIntegrityError):
            load_index(path)

    def test_tampered_content_is_corruption(self, tmp_path):
        index = build_index(_small_corpus(), LOCAL, EMB)
        path = tmp_path / "index.json"
        save_index(index, path)
        text = path.read_text().replace("paris", "parys")
        path.write_text(text)
        with pytest.raises(IndexIntegrityError):
            load_index(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["config"].pop("extractor"),
            lambda d: d.pop("accounting"),
            lambda d: d["config"]["extractor"].update(coreference_enabled="yes"),
            lambda d: d["chunk_catalog"]["d1#0"].update(position="0"),
            lambda d: d["vectors"].update(dimension="32"),
            lambda d: d["inverted_map"]["paris"].append("d9#0"),
            lambda d: d["vectors"]["entries"].pop("paris"),
            lambda d: d["config"].update(tokenizer="foo/v9"),
            lambda d: d["vectors"].update(embedder_id="remote:other-model"),
        ],
        ids=[
            "missing-extractor", "missing-accounting", "mistyped-extractor-field",
            "mistyped-position", "mistyped-dimension", "chunk-id-not-in-catalog",
            "entity-without-vector", "unregistered-tokenizer",
            "vectors-embedder-differs",
        ],
    )
    def test_structural_damage_is_corruption(self, tmp_path, mutate):
        index = build_index(_small_corpus(), LOCAL, EMB)
        path = tmp_path / "index.json"
        save_index(index, path)
        rewrite_index(path, mutate)
        with pytest.raises(IndexIntegrityError):
            load_index(path)

    def test_rewritten_but_undamaged_file_loads(self, tmp_path):
        index = build_index(_small_corpus(), LOCAL, EMB)
        path = tmp_path / "index.json"
        save_index(index, path)
        rewrite_index(path, lambda d: None)
        assert load_index(path) == index

    def test_temp_file_synced_before_rename(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.getsize(src)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "index.json"
        save_index(build_index(_small_corpus(), LOCAL, EMB), path)
        size = path.stat().st_size
        # The whole payload is on disk before the rename publishes it.
        assert calls == [("fsync", size), ("replace", size)]

    def test_no_temp_files_left_behind(self, tmp_path):
        index = build_index(_small_corpus(), LOCAL, EMB)
        save_index(index, tmp_path / "index.json")
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]
