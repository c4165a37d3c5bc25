"""Index construction, incremental updates, persistence, accounting."""

import hashlib
import json
import math
import os
import random
import tempfile
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
    move_chunk,
    mutate_node,
    random_corpus,
    rewrite_index,
)
from slimrag import index as index_module, remote
from slimrag.cli import main
from slimrag.corpus import Chunk, Corpus, SegmentationPolicy, ingest_corpus
from slimrag.embedding import DEFAULT_SEED, EmbedderConfig, EntityVectorStore, _columns
from slimrag.errors import (
    ConfigMismatchError,
    DuplicateChunkError,
    IndexIntegrityError,
    SchemaVersionError,
)
from slimrag.extraction import (
    ExtractorConfig,
    extract_entities,
    extract_entities_with_usage,
)
from slimrag.index import (
    EMBEDDING_IN,
    EXTRACTION_IN,
    EXTRACTION_OUT,
    _SLICE_ROWS,
    _vectors_json,
    add_chunks,
    build_index,
    canonical_json,
    load_index,
    lookup,
    save_index,
)
from slimrag.retrieval import RetrievalParams, retrieve
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

    def test_catalog_holds_the_corpus_chunks(self):
        """The index holds each chunk itself, not a copy; ``add_chunks``
        shares the chunks it already held."""
        corpus = _small_corpus()
        index = build_index(corpus, LOCAL, EMB)
        assert list(index.chunk_catalog) == [c.chunk_id for c in corpus.chunks]
        assert all(index.chunk_catalog[c.chunk_id] is c for c in corpus.chunks)
        new = Chunk("d3", 0, "Ember Corp sold the mill.")
        grown = add_chunks(index, [new], LOCAL, EMB)
        assert grown.chunk_catalog["d3#0"] is new
        assert all(grown.chunk_catalog[c.chunk_id] is c for c in corpus.chunks)

    @pytest.mark.parametrize(
        "second", [None, "Paris is far."], ids=["same-chunk-twice", "two-texts-one-id"]
    )
    def test_repeated_chunk_id_is_rejected_before_extraction(self, second):
        """A corpus made by hand may hold one chunk id twice: the same chunk,
        or a second text. Fix: the index built with TCTC 12 over a 6-token
        catalog, its file then failed to load (``content digest mismatch``),
        and with two texts ``vertex labs`` pointed at a ``d#0`` whose text
        did not mention it."""
        first = Chunk("d", 0, "Vertex Labs met Ember Corp.")
        chunks = (first, first if second is None else Chunk("d", 0, second))
        corpus = Corpus((), chunks, SegmentationPolicy("passthrough"))
        with mock.patch("slimrag.index.extract_entities_with_usage") as extract:
            with pytest.raises(DuplicateChunkError, match=r"^chunk_id 'd#0' already indexed$"):
                build_index(corpus, LOCAL, EMB)
        assert extract.call_count == 0


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

    @settings(max_examples=fuzz_examples(50), deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["d", "e"]),
                st.integers(0, 2),
                st.sampled_from(["Vertex Labs met Ember Corp.", "Paris is far.", "No names."]),
            ),
            max_size=6,
        ),
        cut=st.integers(0, 6),
    )
    @example(rows=[("d", 0, "Paris is far."), ("d", 0, "No names.")], cut=1)
    def test_each_chunk_id_enters_the_index_once(self, rows, cut):
        """Chunks whose ids may repeat, the first ``cut`` built and the rest
        added: either DuplicateChunkError names the first repeated id in
        input order before any extraction of that write, or the index saves
        and loads back equal, with TCTC its catalog's token sum."""
        chunks = [Chunk(*row) for row in rows]
        ids = [chunk.chunk_id for chunk in chunks]
        corpus = Corpus((), tuple(chunks[:cut]), SegmentationPolicy("passthrough"))
        with mock.patch(
            "slimrag.index.extract_entities_with_usage", wraps=extract_entities_with_usage
        ) as extract:
            try:
                index = build_index(corpus, LOCAL, EMB)
                extract.reset_mock()
                index = add_chunks(index, chunks[cut:], LOCAL, EMB)
            except DuplicateChunkError as exc:
                repeated = next(i for n, i in enumerate(ids) if i in ids[:n])
                assert str(exc) == f"chunk_id {repeated!r} already indexed"
                assert extract.call_count == 0
                return
        assert len(set(ids)) == len(ids)
        assert index.accounting.tctc == sum(
            chunk.token_count for chunk in index.chunk_catalog.values()
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.json"
            save_index(index, path)
            assert load_index(path) == index

    def test_config_mismatch_rejected(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        other_extractor = ExtractorConfig(coreference_enabled=False)
        with pytest.raises(ConfigMismatchError):
            add_chunks(index, [Chunk("x", 0, "New text.")], other_extractor, EMB)
        other_embedder = EmbedderConfig(dimension=16)
        with pytest.raises(ConfigMismatchError):
            add_chunks(index, [Chunk("x", 0, "New text.")], LOCAL, other_embedder)
        # retrieve goes through the same fingerprint check.
        for extractor, embedder in ((other_extractor, EMB), (LOCAL, other_embedder)):
            with pytest.raises(ConfigMismatchError):
                retrieve(index, "Who toured Paris?", extractor=extractor, embedder=embedder)

    def test_decomposition_toggle_does_not_mismatch(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        no_decomp = ExtractorConfig(decomposition_enabled=False)
        grown = add_chunks(index, [Chunk("x", 0, "Plain text here.")], no_decomp, EMB)
        assert len(grown.chunk_catalog) == len(index.chunk_catalog) + 1

    def test_unsorted_terms_do_not_mismatch_a_loaded_index(self, tmp_path):
        """The loaded index holds its extractor with the terms sorted; the
        check compares configs, which store their terms sorted."""
        terms = {"gazetteer": ("paris", "ember corp"), "aliases": (("vl", "vertex labs"),
                                                                   ("ec", "ember corp"))}
        path = tmp_path / "index.json"
        save_index(build_index(_small_corpus(), ExtractorConfig(**terms), EMB), path)
        loaded = load_index(path)
        for extractor in (ExtractorConfig(**terms),
                          ExtractorConfig(decomposition_enabled=False, **terms)):
            grown = add_chunks(loaded, [Chunk("x", 0, "Plain text here.")], extractor, EMB)
            assert len(grown.chunk_catalog) == len(loaded.chunk_catalog) + 1

    def test_accounting_monotone(self):
        index = build_index(_small_corpus(), LOCAL, EMB)
        grown = add_chunks(
            index, [Chunk("x", 0, "A visit to Ember Corp happened.")], LOCAL, EMB
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
        grown = add_chunks(
            index, [Chunk("x", 0, "A visit to Ember Corp happened.")], LOCAL, EMB
        )
        assert index.chunk_catalog == before_chunks
        assert index.inverted_map == before_map
        assert all(type(ids) is frozenset for ids in index.inverted_map.values())
        assert all(type(ids) is frozenset for ids in grown.inverted_map.values())


_SMALL_INDEX = build_index(_small_corpus(), LOCAL, EMB)


def _forged(path: Path, mutate) -> None:
    """Apply ``mutate`` to the document of the index file at ``path`` and
    write it back as CI's ``forge`` helper does: config fingerprint and
    content digest recomputed, canonical JSON and a final newline, so only
    the loader's own checks see the change, and an unchanged document is
    its save's bytes."""

    def sha(value) -> str:
        return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()

    document = json.loads(path.read_text(encoding="utf-8"))
    del document["content_digest"]
    mutate(document)
    document["config_fingerprint"] = sha(document["config"])
    document["content_digest"] = sha(document)
    path.write_text(canonical_json(document) + "\n", encoding="utf-8")


def _one_block(store: EntityVectorStore) -> np.ndarray:
    """The vectors of a loaded store, which holds them as one postings
    block, densified into the columns of a dimension × n array."""
    [_] = store.blocks
    return np.concatenate(list(store.rows(list(range(len(store))), 32))).T


# Vector components: both zeros, subnormals, magnitudes near 1e±300, and
# any other finite float.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300]
_COMPONENTS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestPersistence:
    def test_round_trip_structural_equality(self, tmp_path):
        index = build_index(_small_corpus(), LOCAL, EMB)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded == index
        assert all(type(ids) is frozenset for ids in loaded.inverted_map.values())

    def test_signed_zeros_load_into_one_block_and_resave_identically(
        self, tmp_path, monkeypatch
    ):
        """Remote vectors holding 0.0 and -0.0: the file loads into one
        float64 block that keeps both zeros, and saves back byte for byte."""

        def stub(texts, model):
            return [
                [0.0, -0.0, 0.5 + i % 2, -0.0 if i % 3 else 0.0]
                for i in range(len(texts))
            ]

        monkeypatch.setattr(remote, "embed_batch", stub)
        embedder = EmbedderConfig(provider="remote")
        path = tmp_path / "index.json"
        save_index(build_index(_small_corpus(), LOCAL, embedder), path)
        loaded = load_index(path)
        resaved = tmp_path / "resaved.json"
        save_index(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()
        block = _one_block(loaded.vectors)
        assert block.shape == (4, len(loaded.vectors)) and block.shape[1] >= 3
        assert not np.signbit(block[0]).any() and np.signbit(block[1]).all()
        rows = list(loaded.vectors.entries.values())
        assert rows[0][0].hex() == "0x0.0p+0" and rows[0][1].hex() == "-0x0.0p+0"
        file_rows = json.loads(path.read_text())["vectors"]["entries"].values()
        assert [[x.hex() for x in row] for row in rows] == [
            [x.hex() for x in row] for row in file_rows
        ]

    def test_local_file_past_the_memo_bound_loads_and_resaves_identically(
        self, tmp_path, monkeypatch
    ):
        """A local file with more distinct components than the memo holds:
        the memo stops at its bound, and the file loads and saves back
        byte for byte."""
        memos = []

        class Recorded(index_module._SharedFloats):
            def __init__(self):
                super().__init__()
                memos.append(self)

        monkeypatch.setattr(index_module, "_SharedFloats", Recorded)
        monkeypatch.setattr(index_module, "_SHARED_FLOATS", 4)
        path = tmp_path / "index.json"
        save_index(_SMALL_INDEX, path)
        rows = json.loads(path.read_text())["vectors"]["entries"].values()
        assert len({repr(x) for row in rows for x in row}) > 4
        loaded = load_index(path)
        assert loaded == _SMALL_INDEX
        [memo] = memos
        assert len(memo) == 4
        resaved = tmp_path / "resaved.json"
        save_index(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_remote_vectors_load_into_one_block(self, tmp_path, monkeypatch):
        """Nearly all distinct components: the loaded store's one block
        holds the file's rows as its columns, in name order, and the index
        loads equal and resaves byte for byte."""
        rng = random.Random(3)

        def stub(texts, model):
            return [[0.5] + [rng.random() for _ in range(3)] for _ in texts]

        monkeypatch.setattr(remote, "embed_batch", stub)
        embedder = EmbedderConfig(provider="remote")
        index = build_index(_small_corpus(), LOCAL, embedder)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded == index
        block = _one_block(loaded.vectors)
        names = sorted(index.vectors.names)
        assert loaded.vectors.names == names
        rows = [index.vectors.entries[name] for name in names]
        assert block.tobytes() == np.array(rows).T.copy().tobytes()
        [norms] = [block.norms for block in loaded.vectors.blocks]
        assert norms.tolist() == [math.hypot(*row) for row in rows]
        resaved = tmp_path / "resaved.json"
        save_index(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    @settings(max_examples=fuzz_examples(150), deadline=None)
    @given(data=st.data())
    def test_vectors_member_is_canonical_json_of_its_dict_form(self, data):
        """A store made by one to four writes, with names out of order
        across its blocks: the ``vectors`` member written row by row is
        ``canonical_json`` of the dict of the vectors written."""
        dim = data.draw(st.integers(0, 12))
        names = data.draw(st.lists(st.text(max_size=5), unique=True, max_size=20))
        rows = [
            tuple(data.draw(st.lists(_COMPONENTS, min_size=dim, max_size=dim)))
            for _ in names
        ]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(names)), max_size=3)))
        store = EntityVectorStore(data.draw(st.sampled_from([0, dim])))
        for start, stop in zip([0, *cuts], [*cuts, len(names)]):
            block = _columns(rows[start:stop], stop - start, dim)
            store = store.extended(names[start:stop], *block)
        document = {
            "embedder_id": "remote:model",
            "dimension": store.dimension,
            "entries": dict(zip(names, rows)),
        }
        assert "".join(_vectors_json(store, "remote:model")) == canonical_json(
            document
        )
        assert [[x.hex() for x in row] for row in store.entries.values()] == [
            [x.hex() for x in row] for row in rows
        ]

    @settings(max_examples=fuzz_examples(120), deadline=None)
    @given(
        count=st.integers(0, 600),
        dim=st.integers(0, 8),
        pool=st.integers(1, 5000),
        writes=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    def test_vectors_member_across_slices_is_canonical_json(
        self, count, dim, pool, writes, seed
    ):
        """Stores of up to 600 names in one to four writes, so slices of
        ``_SLICE_ROWS`` rows and block edges are crossed in name order, with
        components drawn from a pool of one to thousands of values (both
        sides of the half-distinct rule) that holds signed zeros,
        subnormals, magnitudes of 1e±300 and NaN/±Infinity put into the
        store directly: the ``vectors`` member is ``canonical_json`` of the
        dict form, and it is made of one part per slice."""
        rng = random.Random(seed)
        alphabet = 'ab"\\,:é \n'
        names = list({
            "".join(rng.choices(alphabet, k=rng.randint(0, 6))) for _ in range(count)
        })
        rng.shuffle(names)
        values = [
            rng.choice(_EDGE_FLOATS + [math.nan, math.inf, -math.inf])
            if rng.random() < 0.3
            else rng.gauss(0, 1)
            for _ in range(pool)
        ]
        rows = [tuple(rng.choices(values, k=dim)) for _ in names]
        cuts = sorted(rng.randint(0, len(names)) for _ in range(writes - 1))
        store = EntityVectorStore(rng.choice([0, dim]))
        for start, stop in zip([0, *cuts], [*cuts, len(names)]):
            block = _columns(rows[start:stop], stop - start, dim)
            store = store.extended(names[start:stop], *block)
        document = {
            "embedder_id": "remote:model",
            "dimension": store.dimension,
            "entries": dict(zip(names, rows)),
        }
        parts = list(_vectors_json(store, "remote:model"))
        assert "".join(parts) == canonical_json(document)
        assert len(parts) == 2 + -(-len(names) // _SLICE_ROWS)

    @settings(max_examples=fuzz_examples(5), deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_remote_sized_vectors_serialize_and_load_exactly(self, seed):
        """1,536-dimension rows from a stubbed remote embedder, holding
        signed zeros, subnormals and magnitudes of 1e±300: the vectors
        member is canonical_json of the replies, and the file loads into
        one block with the replies' bits and saves back byte for byte."""
        rng = random.Random(seed)
        replies = {}

        def stub(texts, model):
            special = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300]
            rows = [
                [rng.choice(special) if rng.random() < 0.1 else rng.gauss(0, 1)
                 for _ in range(1536)]
                for _ in texts
            ]
            replies.update(zip(texts, rows))
            return rows

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(remote, "embed_batch", stub)
            embedder = EmbedderConfig(provider="remote")
            index = build_index(_small_corpus(), LOCAL, embedder)
        document = {
            "embedder_id": embedder.embedder_id,
            "dimension": 1536,
            "entries": replies,
        }
        assert "".join(
            _vectors_json(index.vectors, embedder.embedder_id)
        ) == canonical_json(document)
        with tempfile.TemporaryDirectory() as tmp:
            path, resaved = Path(tmp) / "index.json", Path(tmp) / "resaved.json"
            save_index(index, path)
            loaded = load_index(path)
            block = _one_block(loaded.vectors)
            rows = [replies[name] for name in loaded.vectors.names]
            assert block.tobytes() == np.array(rows).T.copy().tobytes()
            save_index(loaded, resaved)
            assert resaved.read_bytes() == path.read_bytes()

    def test_canonical_bytes_across_builds(self, tmp_path):
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        save_index(build_index(_small_corpus(), LOCAL, EMB), a_path)
        save_index(build_index(_small_corpus(), LOCAL, EMB), b_path)
        assert a_path.read_bytes() == b_path.read_bytes()
        text = a_path.read_text(encoding="utf-8")
        document = json.loads(text)
        assert text == canonical_json(document) + "\n"
        digest = document.pop("content_digest")
        body = canonical_json(document).encode("utf-8")
        assert digest == hashlib.sha256(body).hexdigest()

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

    def test_non_utf8_file_is_corruption(self, tmp_path):
        index = build_index(_small_corpus(), LOCAL, EMB)
        path = tmp_path / "index.json"
        save_index(index, path)
        path.write_bytes(path.read_bytes().replace(b"paris", b"par\xffs"))
        with pytest.raises(IndexIntegrityError):
            load_index(path)

    def test_deeply_nested_file_is_corruption(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(DEEP_JSON, encoding="utf-8")
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
            lambda d: d["vectors"].update(dimension=10**12),
            lambda d: d["inverted_map"]["paris"].append("d9#0"),
            lambda d: d["vectors"]["entries"].pop("paris"),
            lambda d: d["config"].update(tokenizer="foo/v9"),
            lambda d: d["vectors"].update(embedder_id="remote:other-model"),
            lambda d: d["vectors"]["entries"]["paris"].__setitem__(0, float("nan")),
            lambda d: d["vectors"]["entries"]["paris"].__setitem__(0, 10**400),
            lambda d: d["vectors"]["entries"].update(paris=[0.0, -0.0] * 16),
            lambda d: d["accounting"].update(tctc=d["accounting"]["tctc"] + 1),
            lambda d: d["inverted_map"]["paris"].clear(),
            lambda d: d["chunk_catalog"]["d1#0"].update(position=-1),
            lambda d: d["chunk_catalog"]["d1#1"].update(position=0),
            lambda d: move_chunk(d, "d1#0", "zzz"),
        ],
        ids=[
            "missing-extractor", "missing-accounting", "mistyped-extractor-field",
            "mistyped-position", "mistyped-dimension", "dimension-too-large",
            "chunk-id-not-in-catalog",
            "entity-without-vector", "unregistered-tokenizer",
            "vectors-embedder-differs", "vector-not-finite", "vector-value-overflows",
            "vector-all-zeros",
            "tctc-not-catalog-sum", "posting-list-empty", "position-negative",
            "position-repeated", "catalog-key-not-chunk-id",
        ],
    )
    def test_structural_damage_is_corruption(self, tmp_path, mutate):
        index = build_index(_small_corpus(), LOCAL, EMB)
        path = tmp_path / "index.json"
        save_index(index, path)
        rewrite_index(path, mutate)
        with pytest.raises(IndexIntegrityError):
            load_index(path)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "infinity", "-infinity"]
    )
    def test_non_finite_component_is_named(self, tmp_path, value):
        """Pin: a NaN, Infinity or -Infinity component in a file whose
        digest is recomputed fails the finiteness check. A serializer that
        wrote these otherwise than ``json`` does would turn this into a
        digest mismatch."""
        path = tmp_path / "index.json"
        save_index(_SMALL_INDEX, path)
        rewrite_index(
            path, lambda d: d["vectors"]["entries"]["paris"].__setitem__(0, value)
        )
        with pytest.raises(IndexIntegrityError, match="is not finite"):
            load_index(path)

    def test_local_negative_zero_component_loads_and_resaves_identically(self, tmp_path):
        """A local index file forged with a ``-0.0`` component where its
        save wrote ``0.0``: the postings keep an entry by its bits, not by
        ``!= 0.0``, so the loaded vector holds ``-0.0`` and the file saves
        back byte for byte."""
        path = tmp_path / "index.json"
        save_index(_SMALL_INDEX, path)

        def forge(document):
            row = document["vectors"]["entries"]["paris"]
            row[row.index(0.0)] = -0.0

        _forged(path, forge)
        loaded = load_index(path)
        assert "-0x0.0p+0" in [x.hex() for x in loaded.vectors.entries["paris"]]
        resaved = tmp_path / "resaved.json"
        save_index(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "zeros", [[-0.0] * 32, [0.0, -0.0] * 16], ids=["negative-zeros", "signed-zeros"]
    )
    def test_local_vector_of_signed_zeros_is_all_zeros(self, tmp_path, capsys, zeros):
        """A local vector of only ``±0.0`` in a forged file: its ``-0.0``
        entries are held as postings, but the check is on their values, so
        the load names the vector as all zeros and the CLI exits 2."""
        path = tmp_path / "index.json"
        save_index(_SMALL_INDEX, path)
        _forged(path, lambda d: d["vectors"]["entries"].update(paris=zeros))
        with pytest.raises(IndexIntegrityError, match="vector of 'paris' is all zeros"):
            load_index(path)
        assert main(["index", "stats", "--index", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: index file is damaged: vector of 'paris' is all zeros\n"
        )

    @settings(max_examples=fuzz_examples(300), deadline=None)
    @given(data=st.data())
    def test_cut_or_changed_file_loads_or_raises_the_documented_error(self, data):
        """Pin: a saved small index cut at any offset, or with one byte
        changed, either loads into the index it was saved from or raises
        IndexIntegrityError or SchemaVersionError, never another
        exception."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.json"
            save_index(_SMALL_INDEX, path)
            path.write_bytes(damaged(data, path.read_bytes()))
            try:
                loaded = load_index(path)
            except (IndexIntegrityError, SchemaVersionError):
                return
            assert loaded == _SMALL_INDEX

    def test_rewritten_but_undamaged_file_loads(self, tmp_path):
        index = build_index(_small_corpus(), LOCAL, EMB)
        path = tmp_path / "index.json"
        save_index(index, path)
        rewrite_index(path, lambda d: None)
        assert load_index(path) == index

    @pytest.mark.parametrize("entries", [[True], [False, 1.0], [], "entries"])
    def test_vectors_entries_that_are_not_an_object_are_damage(self, tmp_path, entries):
        """With the digest recomputed. ``[True]`` once escaped as a bare
        IndexError: the first row's check indexed the list by its first item."""
        path = tmp_path / "index.json"
        save_index(_SMALL_INDEX, path)
        rewrite_index(path, lambda d: d["vectors"].update(entries=entries))
        with pytest.raises(IndexIntegrityError, match="entity vectors are not an object"):
            load_index(path)

    @staticmethod
    def _saved_with_embedder_id(path, embedder_id):
        """``_SMALL_INDEX`` (dimension 32) saved with another embedder id in
        both places the file holds it, fingerprint and digest recomputed."""
        save_index(_SMALL_INDEX, path)

        def mutate(document):
            document["config"]["embedder_id"] = embedder_id
            document["vectors"]["embedder_id"] = embedder_id

        rewrite_index(path, mutate)

    def test_embedder_id_that_is_not_an_id_is_damage(self, tmp_path):
        """It loaded, and retrieve failed late with ``invalid literal for
        int()``."""
        path = tmp_path / "index.json"
        self._saved_with_embedder_id(path, "bogus")
        with pytest.raises(
            IndexIntegrityError, match="^index file is damaged: not an embedder id: 'bogus'$"
        ):
            load_index(path)

    def test_embedder_id_with_a_padded_dimension_is_damage(self, tmp_path):
        """It loaded, and retrieve failed late with ``not an embedder id``."""
        path = tmp_path / "index.json"
        self._saved_with_embedder_id(path, f"local-hash/v1:0032:{DEFAULT_SEED:#x}")
        with pytest.raises(IndexIntegrityError, match="not an embedder id"):
            load_index(path)

    def test_local_embedder_id_of_another_dimension_is_damage(self, tmp_path):
        """A valid local id of dimension 16 over vectors of dimension 32 loaded:
        ``index add`` re-saved it and retrieve failed with ``dimensions
        differ``."""
        path = tmp_path / "index.json"
        self._saved_with_embedder_id(path, f"local-hash/v1:16:{DEFAULT_SEED:#x}")
        with pytest.raises(
            IndexIntegrityError, match="entity vectors do not have the embedder's"
        ):
            load_index(path)

    @pytest.mark.parametrize(
        "segmentation, problem",
        [
            ("bogus", "unknown segmentation policy 'bogus'"),
            ("fixed:03", "'fixed:03' is not a policy id; write 'fixed:3'"),
            ("fixed", "'fixed' is not a policy id; write 'fixed:1'"),
        ],
        ids=["unknown-kind", "padded-size", "fixed-without-size"],
    )
    def test_segmentation_that_is_not_a_policy_id_is_damage(
        self, tmp_path, segmentation, problem
    ):
        """With fingerprint and digest recomputed. It loaded, ``index stats``
        and ``retrieve`` answered, and only ``index add`` failed, naming the
        policy instead of the damage."""
        path = tmp_path / "index.json"
        save_index(_SMALL_INDEX, path)
        rewrite_index(path, lambda d: d["config"].update(segmentation=segmentation))
        with pytest.raises(IndexIntegrityError) as caught:
            load_index(path)
        assert str(caught.value) == f"index file is damaged: {problem}"

    @pytest.mark.parametrize(
        "extractor, problem",
        [
            ({"gazetteer": ["Vertex Labs"]},
             "gazetteer and alias terms must be normalized entities"),
            ({"gazetteer": ["b", "b"]}, "a gazetteer entry or an alias repeats"),
            ({"aliases": [["x", "y"], ["x", "z"]]}, "a gazetteer entry or an alias repeats"),
        ],
        ids=["gazetteer-not-normalized", "gazetteer-repeat", "alias-with-two-names"],
    )
    def test_extractor_that_is_not_a_config_is_damage(self, tmp_path, extractor, problem):
        """With fingerprint and digest recomputed. Each loaded: the loader
        coerced the file's values, and the fingerprint writes the terms as
        the file holds them."""
        path = tmp_path / "index.json"
        save_index(_SMALL_INDEX, path)
        rewrite_index(path, lambda d: d["config"]["extractor"].update(extractor))
        with pytest.raises(IndexIntegrityError) as caught:
            load_index(path)
        assert str(caught.value) == f"index file is damaged: {problem}"

    def test_forged_token_count_is_damage(self, tmp_path):
        """A chunk's ``token_count`` and ``tctc`` shifted by the same amount,
        fingerprint and digest recomputed. It loaded with that TCTC, and
        retrieve dropped the chunk to fit the token budget."""
        path = tmp_path / "index.json"
        save_index(_SMALL_INDEX, path)

        def forge(document):
            document["chunk_catalog"]["d1#0"]["token_count"] += 100_000
            document["accounting"]["tctc"] += 100_000

        rewrite_index(path, forge)
        with pytest.raises(
            IndexIntegrityError, match="^content digest mismatch; file is corrupt$"
        ):
            load_index(path)

    @pytest.mark.parametrize(
        "old, new, fields, problem",
        [
            ("d2#0", "d2#0", {"text": " "}, "chunk 'd2#0' has no text"),
            ("d2#0", "#0", {"doc_id": ""}, "chunk '#0' has an empty doc_id"),
        ],
        ids=["blank-text", "empty-doc-id"],
    )
    def test_chunk_no_corpus_can_hold_is_damage(self, tmp_path, old, new, fields, problem):
        """With its token count, TCTC, fingerprint and digest recomputed.
        Each loaded; on the blank text every retrieve then raised ``cannot
        embed empty text``."""
        path = tmp_path / "index.json"
        save_index(_SMALL_INDEX, path)
        rewrite_index(path, lambda d: move_chunk(d, old, new, **fields))
        with pytest.raises(IndexIntegrityError) as caught:
            load_index(path)
        assert str(caught.value) == f"index file is damaged: {problem}"

    @settings(max_examples=fuzz_examples(300), deadline=None)
    @given(
        doc_id=st.one_of(
            st.sampled_from(["d2", "Ember Corp", "d\udfff"]), st.text(), JSON_VALUES
        ),
        position=st.one_of(st.integers(0, 3), JSON_VALUES),
        text=st.one_of(
            st.sampled_from(["Vertex Labs met Ember Corp.", "Ember \ud800 Corp."]),
            st.text(),
            JSON_VALUES,
        ),
    )
    @example(doc_id="", position=0, text="Vertex Labs met Ember Corp.")
    def test_chunk_that_constructs_round_trips(self, doc_id, position, text):
        """A chunk either fails its own rule with ValueError, or an index it
        is added to saves and loads back with that chunk. ``Chunk("", 0,
        ...)`` built, and its index did not load."""
        try:
            chunk = Chunk(doc_id, position, text)
        except ValueError:
            return
        index = add_chunks(build_index(_corpus([]), LOCAL, EMB), [chunk], LOCAL, EMB)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.json"
            save_index(index, path)
            assert load_index(path).chunk_catalog == index.chunk_catalog

    def test_index_holds_the_configs_its_ids_name(self, tmp_path, monkeypatch):
        """A fixed-size policy and a remote embedder come back from a file as
        the configs, not as their ids."""
        monkeypatch.setattr(
            remote, "embed_batch", lambda texts, model: [[1.0]] * len(texts)
        )
        policy = SegmentationPolicy("fixed", 3)
        embedder = EmbedderConfig(provider="remote", remote_model="m:1")
        record = {"doc_id": "d1", "text": "Vertex Labs met Ember Corp."}
        corpus = ingest_corpus([json.dumps(record)], policy)
        path = tmp_path / "index.json"
        save_index(build_index(corpus, LOCAL, embedder), path)
        config = load_index(path).config
        assert (config.segmentation, config.embedder) == (policy, embedder)

    @settings(max_examples=fuzz_examples(300), deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_only_as_its_canonical_form(self, data):
        """One random set, delete or duplicate anywhere in a saved index, or
        a chunk's ``token_count`` set to a drawn int with ``tctc`` moved to
        match, with the fingerprint and digest recomputed: the file is
        rejected with a documented error, or it loads into an index that
        saves back to exactly the file's canonical form and whose token
        counts are those of its chunks' texts."""

        def mutate(document):
            operation = data.draw(st.sampled_from([*NODE_OPERATIONS, "retally"]))
            if operation == "retally":
                catalog = document["chunk_catalog"]
                record = catalog[data.draw(st.sampled_from(sorted(catalog)))]
                tokens = data.draw(st.integers())
                document["accounting"]["tctc"] += tokens - record["token_count"]
                record["token_count"] = tokens
            else:
                key = data.draw(st.sampled_from(sorted(document)))
                mutate_node(data, document, key, operation)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.json"
            save_index(_SMALL_INDEX, path)
            rewrite_index(path, mutate)
            try:
                loaded = load_index(path)
            except (IndexIntegrityError, SchemaVersionError):
                return
            resaved = Path(tmp) / "resaved.json"
            save_index(loaded, resaved)
            canonical = canonical_json(json.loads(path.read_text(encoding="utf-8")))
            assert resaved.read_text(encoding="utf-8") == canonical + "\n"
            chunks = loaded.chunk_catalog.values()
            assert all(c.token_count == count_tokens(c.text) for c in chunks)
            assert loaded.accounting.tctc == sum(c.token_count for c in chunks)

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

    def test_failed_rename_keeps_old_file_and_removes_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "index.json"
        save_index(build_index(_small_corpus(), LOCAL, EMB), path)
        before = path.read_bytes()

        def replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename failed"):
            save_index(build_index(ingest_corpus([]), LOCAL, EMB), path)
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]
        assert path.read_bytes() == before

    def test_no_temp_files_left_behind(self, tmp_path):
        index = build_index(_small_corpus(), LOCAL, EMB)
        save_index(index, tmp_path / "index.json")
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]


# Each config field's right values and its wrong ones: bools, floats and
# infinity for ints, ints and strings for flags, names that are not
# normalized (case, spacing, decomposed accents, blanks, non-strings),
# repeated names, an alias with two names and aliases that are not pairs.
_NORMAL = st.sampled_from(["paris", "vertex labs", "ember corp", "x", "café"])
_NOT_NORMAL = st.one_of(
    st.sampled_from(["Vertex Labs", "ember  corp", " paris", "", "cafe\u0301", 5, None]),
    st.text(max_size=3),
)
_INT = (
    st.integers(1, 3),
    st.one_of(st.integers(-1, 0), st.booleans(), st.sampled_from([2.0, 2.5, float("inf")])),
)
_FLAG = (st.booleans(), st.sampled_from([0, 1, "no", None]))
_MODEL = (
    st.one_of(st.sampled_from([None, remote.DEFAULT_EMBED_MODEL, "m:1"]), st.text(max_size=3)),
    st.sampled_from([5, 2.5, True]),
)
_FIELDS = {
    SegmentationPolicy: {
        "kind": (st.sampled_from(["sentence", "fixed", "passthrough"]), st.text(max_size=3)),
        "size": _INT,
    },
    EmbedderConfig: {
        "provider": (st.sampled_from(["local", "remote"]), st.just("other")),
        "dimension": (st.sampled_from([EMB.dimension, EmbedderConfig().dimension]), _INT[1]),
        "remote_model": _MODEL,
    },
    ExtractorConfig: {
        "provider": (st.sampled_from(["local", "remote"]), st.just("cloud")),
        "coreference_enabled": _FLAG,
        "decomposition_enabled": _FLAG,
        "gazetteer": (
            st.lists(_NORMAL, unique=True, max_size=3),
            st.one_of(
                st.lists(_NOT_NORMAL, min_size=1, max_size=2),
                st.lists(_NORMAL, min_size=1, max_size=2).map(lambda names: names + names[:1]),
            ),
        ),
        "aliases": (
            st.lists(st.tuples(_NORMAL, _NORMAL), unique_by=lambda pair: pair[0], max_size=2),
            st.one_of(
                st.lists(st.tuples(_NORMAL, _NOT_NORMAL), min_size=1, max_size=2),
                st.tuples(_NORMAL, _NORMAL, _NORMAL).map(lambda t: [t[:2], (t[0], t[2])]),
                st.lists(_NORMAL, max_size=3).filter(lambda pair: len(pair) != 2).map(
                    lambda pair: [pair]
                ),
            ),
        ),
        "remote_model": _MODEL,
    },
    RetrievalParams: {"k": _INT, "h": _INT, "token_limit": _INT, "use_entity_weights": _FLAG},
}


def _draw_fields(data, fields: dict) -> dict:
    """Each field from its right values, then, for about half the draws,
    one field from its wrong ones."""
    drawn = {name: data.draw(right) for name, (right, _) in fields.items()}
    if data.draw(st.booleans()):
        name = data.draw(st.sampled_from(sorted(fields)))
        drawn[name] = data.draw(fields[name][1])
    return drawn


class TestConfigsAreTheirDocuments:
    @settings(max_examples=fuzz_examples(150), deadline=None)
    @given(data=st.data())
    def test_config_is_rejected_or_round_trips(self, data):
        """Each config raises ValueError at construction or is exactly its
        document: the policy and the embedder come back from their ids, an
        index built with them saves and loads with an equal config, and the
        params come back from their document and retrieve on that index as
        it says (weighted iff ``use_entity_weights`` is ``true``)."""
        configs = {}
        for cls, fields in _FIELDS.items():
            try:
                configs[cls] = cls(**_draw_fields(data, fields))
            except ValueError:
                pass
        segmentation = configs.get(SegmentationPolicy, SegmentationPolicy())
        assert SegmentationPolicy.parse(segmentation.policy_id) == segmentation
        embedder = configs.get(EmbedderConfig, EMB)
        assert EmbedderConfig.from_id(embedder.embedder_id) == embedder
        p = configs.get(RetrievalParams, RetrievalParams())
        document = {k: v for k, v in p.to_document().items() if k != "fallback_on_no_entities"}
        assert RetrievalParams(**document) == p

        record = {"doc_id": "d1", "text": "Vertex Labs toured Paris. Ember Corp met them."}
        corpus = ingest_corpus([json.dumps(record)], segmentation)
        with mock.patch.object(
            remote, "chat_completion", lambda model, system, user: '["vertex labs"]'
        ), mock.patch.object(
            remote, "embed_batch", lambda texts, model: [[1.0, 0.5]] * len(texts)
        ), tempfile.TemporaryDirectory() as tmp:
            index = build_index(corpus, configs.get(ExtractorConfig, LOCAL), embedder)
            path = Path(tmp) / "index.json"
            save_index(index, path)
            loaded = load_index(path)
            assert loaded.config == index.config
            trace = retrieve(loaded, "Who did Vertex Labs meet?", p).trace
        assert not trace.fallback_used
        assert trace.scoring_variant == ("weighted" if p.use_entity_weights is True else "count")
