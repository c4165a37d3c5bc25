"""Wire-protocol tests against an in-process OpenAI-compatible fake."""

import copy
import json
import logging
import math
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
import requests

from conftest import DEEP_JSON
import slimrag
from slimrag import remote
from slimrag.embedding import EmbedderConfig, embed, embed_many
from slimrag.errors import (
    DimensionMismatchError,
    ProviderError,
    ProviderProtocolError,
)
from slimrag.extraction import ExtractorConfig, decompose_query, extract_entities


class _FakeHandler(BaseHTTPRequestHandler):
    server_version = "fake"

    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else {}
        record = {
            "path": self.path,
            "payload": payload,
            "authorization": self.headers.get("Authorization"),
        }
        self.server.requests.append(record)
        if not self.server.script and self.server.auto_embed:
            # Unscripted embeddings request: answer every input with its
            # local hash embedding.
            local = EmbedderConfig(dimension=16)
            vectors = [list(embed(text, local)) for text in payload["input"]]
            status, body = 200, {"data": [{"embedding": v} for v in vectors]}
        else:
            status, body = self.server.script.pop(0)
        data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class _FakeServer:
    def __init__(self):
        self.httpd = HTTPServer(("127.0.0.1", 0), _FakeHandler)
        self.httpd.requests = []
        self.httpd.script = []
        self.httpd.auto_embed = False
        # A short poll interval keeps shutdown() in close() from waiting 0.5 s.
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, args=(0.01,), daemon=True
        )
        self.thread.start()

    @property
    def base_url(self):
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/v1"

    @property
    def requests(self):
        return self.httpd.requests

    def auto_embed(self):
        """Answer embeddings requests that have no scripted reply."""
        self.httpd.auto_embed = True

    def enqueue(self, status, body):
        self.httpd.script.append((status, body))

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def server(monkeypatch):
    fake = _FakeServer()
    monkeypatch.setenv(remote.API_BASE_ENV, fake.base_url)
    monkeypatch.setenv(remote.API_KEY_ENV, "test-key")
    monkeypatch.setattr(remote, "BACKOFF_SECONDS", 0.0)
    yield fake
    fake.close()


def _chat_body(content):
    return {"choices": [{"message": {"content": content}}]}


class TestChatProtocol:
    def test_request_shape_and_auth(self, server):
        server.enqueue(200, _chat_body('["paris"]'))
        reply = remote.chat_completion("gpt-4o-mini", "sys", "user text")
        assert reply == '["paris"]'
        request = server.requests[0]
        assert request["path"] == "/v1/chat/completions"
        assert request["authorization"] == "Bearer test-key"
        assert request["payload"]["model"] == "gpt-4o-mini"
        assert request["payload"]["temperature"] == 0.0
        assert [m["role"] for m in request["payload"]["messages"]] == ["system", "user"]

    def test_retries_on_500_then_succeeds(self, server):
        server.enqueue(500, {"error": "boom"})
        server.enqueue(200, _chat_body("[]"))
        assert remote.chat_completion("m", "s", "u") == "[]"
        assert len(server.requests) == 2

    def test_each_retry_is_logged(self, server, caplog, capsys):
        server.enqueue(500, {"error": "boom"})
        server.enqueue(200, _chat_body("[]"))
        with caplog.at_level(logging.WARNING, logger=remote.__name__):
            assert remote.chat_completion("m", "s", "u") == "[]"
        [record] = caplog.records
        assert (record.name, record.levelno) == (remote.__name__, logging.WARNING)
        assert record.getMessage() == (
            f"{server.base_url}/chat/completions: attempt 1/{remote.MAX_ATTEMPTS} "
            "failed (status 500); retrying"
        )
        assert capsys.readouterr().out == ""

    def test_gives_up_after_max_attempts(self, server):
        for _ in range(remote.MAX_ATTEMPTS):
            server.enqueue(500, {"error": "boom"})
        with pytest.raises(ProviderError):
            remote.chat_completion("m", "s", "u")

    def test_transport_error_retried_then_succeeds(self, server, monkeypatch, caplog):
        attempts = []

        def post(*args, **kwargs):
            attempts.append(args)
            if len(attempts) == 1:
                raise requests.ConnectionError("connection reset")
            return real_post(*args, **kwargs)

        real_post = requests.post
        monkeypatch.setattr(requests, "post", post)
        server.enqueue(200, _chat_body("[]"))
        with caplog.at_level(logging.WARNING, logger=remote.__name__):
            assert remote.chat_completion("m", "s", "u") == "[]"
        assert len(attempts) == 2
        assert len(server.requests) == 1
        assert [r.getMessage() for r in caplog.records] == [
            f"{server.base_url}/chat/completions: attempt 1/{remote.MAX_ATTEMPTS} "
            "failed (ConnectionError); retrying"
        ]

    def test_deeply_nested_response_is_protocol_error(self, server):
        server.enqueue(200, DEEP_JSON.encode("utf-8"))
        with pytest.raises(ProviderProtocolError, match="non-JSON"):
            remote.chat_completion("m", "s", "u")
        assert len(server.requests) == 1

    def test_client_error_not_retried(self, server):
        server.enqueue(401, {"error": "bad key"})
        with pytest.raises(ProviderError):
            remote.chat_completion("m", "s", "u")
        assert len(server.requests) == 1

    def test_malformed_reply_surfaces(self, server):
        server.enqueue(200, {"choices": []})
        with pytest.raises(ProviderProtocolError):
            remote.chat_completion("m", "s", "u")

    def test_content_that_is_not_a_string_is_protocol_error(self, server):
        server.enqueue(200, _chat_body(["paris"]))
        with pytest.raises(
            ProviderProtocolError, match="^chat response content is not a string$"
        ):
            remote.chat_completion("m", "s", "u")


class TestEmbeddingsProtocol:
    def test_request_and_response(self, server):
        server.enqueue(200, {"data": [
            {"embedding": [1.0, 0.0]},
            {"embedding": [0.0, 1.0]},
        ]})
        vectors = remote.embed_batch(["a", "b"], model="text-embedding-3-small")
        assert vectors == [[1.0, 0.0], [0.0, 1.0]]
        request = server.requests[0]
        assert request["path"] == "/v1/embeddings"
        assert request["payload"] == {
            "model": "text-embedding-3-small",
            "input": ["a", "b"],
        }

    def test_row_count_mismatch_rejected(self, server):
        server.enqueue(200, {"data": [{"embedding": [1.0]}]})
        with pytest.raises(ProviderProtocolError):
            remote.embed_batch(["a", "b"])

    def test_remote_embedder_config(self, server):
        server.enqueue(200, {"data": [{"embedding": [0.6, 0.8]}]})
        config = EmbedderConfig(provider="remote")
        assert embed("hello", config) == (0.6, 0.8)

    def test_embed_many_batches_and_caches(self, server, tmp_path, monkeypatch):
        from slimrag.embedding import EmbeddingCache

        cache = EmbeddingCache(tmp_path / "cache.jsonl")
        config = EmbedderConfig(provider="remote")
        monkeypatch.setattr(remote, "EMBED_BATCH", 2)
        server.enqueue(200, {"data": [
            {"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]},
        ]})
        server.enqueue(200, {"data": [{"embedding": [0.5, 0.5]}]})
        columns, norms = embed_many(["a", "b", "c"], config, cache)
        want = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        assert columns.flags.c_contiguous and columns.tobytes() == want.tobytes()
        assert norms.tolist() == [1.0, 1.0, math.hypot(0.5, 0.5)]
        assert len(server.requests) == 2  # 2 + 1 under EMBED_BATCH = 2
        # Second call is fully served by the cache.
        columns_again, norms_again = embed_many(["a", "b", "c"], config, cache)
        assert columns_again.tobytes() == columns.tobytes()
        assert norms_again.tobytes() == norms.tobytes()
        assert len(server.requests) == 2

    def test_zero_vector_reply_is_rejected_and_not_cached(self, server, tmp_path):
        from slimrag.embedding import EmbeddingCache

        cache = EmbeddingCache(tmp_path / "cache.jsonl")
        config = EmbedderConfig(provider="remote")
        server.enqueue(200, {"data": [{"embedding": [0.0, -0.0]}]})
        with pytest.raises(ProviderProtocolError):
            embed_many(["a"], config, cache)
        assert len(cache) == 0 and not cache.path.exists()

    @pytest.mark.parametrize(
        "embedding",
        [["1.5", True, " 2 "], [0.5, True], [0.5, None], "0.5", [10**400]],
        ids=["strings-and-bool", "bool", "null", "string", "int-past-float-range"],
    )
    def test_components_that_are_not_numbers_are_rejected(
        self, server, tmp_path, embedding
    ):
        from slimrag.embedding import EmbeddingCache

        cache = EmbeddingCache(tmp_path / "cache.jsonl")
        server.enqueue(200, {"data": [{"embedding": embedding}]})
        with pytest.raises(ProviderProtocolError):
            embed_many(["a"], EmbedderConfig(provider="remote"), cache)
        assert len(cache) == 0 and not cache.path.exists()

    @pytest.mark.parametrize("reply", ["chat", "embeddings"])
    def test_error_message_holds_at_most_200_characters_of_the_reply(
        self, server, reply
    ):
        """Fix: the whole reply went into the message, 23,132 characters
        for 3 rows of 1,536 strings."""
        rows = [{"embedding": ["0.125"] * 1536}] * 3
        body = {"data": rows} if reply == "embeddings" else {"choices": rows}
        server.enqueue(200, body)
        with pytest.raises(ProviderProtocolError) as caught:
            if reply == "embeddings":
                remote.embed_batch(["a", "b", "c"])
            else:
                remote.chat_completion("m", "s", "u")
        reason = {
            "chat": "chat response has no choices[0].message.content",
            "embeddings": "malformed embeddings response "
                          "(ValueError: vector is not a JSON array of numbers)",
        }[reply]
        assert str(caught.value) == f"{reason}: {repr(body)[:200]}"

    def test_embed_many_rejects_empty_text_before_any_request(self, server):
        config = EmbedderConfig(provider="remote")
        with pytest.raises(ValueError, match="empty text"):
            embed_many(["a", "  "], config)
        assert server.requests == []


class TestRemoteExtraction:
    def test_entities_parsed_and_normalized(self, server):
        server.enqueue(200, _chat_body('["Barack  Obama", "paris"]'))
        config = ExtractorConfig(provider="remote", remote_model="gpt-4o-mini")
        found = extract_entities("Barack Obama visited Paris.", config)
        assert found == {"barack obama", "paris"}

    def test_fenced_reply_tolerated(self, server):
        server.enqueue(200, _chat_body('```json\n["x y"]\n```'))
        config = ExtractorConfig(provider="remote")
        assert extract_entities("text", config) == {"x y"}

    def test_non_array_reply_rejected(self, server):
        server.enqueue(200, _chat_body('{"entities": []}'))
        config = ExtractorConfig(provider="remote")
        with pytest.raises(ProviderProtocolError):
            extract_entities("text", config)

    def test_deeply_nested_reply_is_protocol_error(self):
        with pytest.raises(ProviderProtocolError, match="not valid JSON"):
            remote.parse_json_array(DEEP_JSON)

    def test_decomposition_round_trip(self, server):
        server.enqueue(200, _chat_body('["Who directed Alien?", "When was Alien released?"]'))
        config = ExtractorConfig(provider="remote")
        subs = decompose_query("Who directed Alien and when was it released?", config)
        assert subs == ["Who directed Alien?", "When was Alien released?"]

    def test_empty_reply_falls_back_to_query(self, server):
        server.enqueue(200, _chat_body("[]"))
        config = ExtractorConfig(provider="remote")
        assert decompose_query("Plain question?", config) == ["Plain question?"]


class TestRemoteIndexBuild:
    def test_build_index_with_remote_providers(self, server, monkeypatch):
        import json as _json

        from slimrag.corpus import ingest_corpus
        from slimrag.index import build_index

        lines = [
            _json.dumps({"doc_id": "d1", "text": "Note one mentions Vertex Labs."}),
            _json.dumps({"doc_id": "d2", "text": "Note two mentions Ember Corp."}),
        ]
        corpus = ingest_corpus(lines)
        # One extraction call per chunk, then one embeddings batch.
        server.enqueue(200, _chat_body('["vertex labs"]'))
        server.enqueue(200, _chat_body('["ember corp"]'))
        server.enqueue(200, {"data": [
            {"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]},
        ]})
        extractor = ExtractorConfig(provider="remote", remote_model="gpt-4o-mini")
        embedder = EmbedderConfig(provider="remote")
        monkeypatch.setattr(remote, "EMBED_BATCH", 8)
        index = build_index(corpus, extractor, embedder)
        assert index.entities == {"vertex labs", "ember corp"}
        assert index.vectors.dimension == 2
        assert index.accounting.breakdown["embedding-in"] == 4  # two 2-token entities
        assert index.accounting.breakdown["extraction-out"] > 0
        paths = [r["path"] for r in server.requests]
        assert paths == ["/v1/chat/completions", "/v1/chat/completions", "/v1/embeddings"]

    def test_provider_failure_aborts_with_progress(self, server):
        import json as _json

        from slimrag.corpus import ingest_corpus
        from slimrag.index import add_chunks, build_index

        lines = [
            _json.dumps({"doc_id": "d1", "text": "Note one mentions Vertex Labs."}),
            _json.dumps({"doc_id": "d2", "text": "Note two mentions Ember Corp."}),
        ]
        corpus = ingest_corpus(lines)
        server.enqueue(200, _chat_body('["vertex labs"]'))
        for _ in range(remote.MAX_ATTEMPTS):
            server.enqueue(500, {"error": "down"})
        extractor = ExtractorConfig(provider="remote")
        with pytest.raises(ProviderError, match="aborted"):
            build_index(corpus, extractor, EmbedderConfig(provider="remote"))

        # A failed add reports its progress and leaves the input index as it was.
        embedder = EmbedderConfig(provider="remote")
        server.enqueue(200, _chat_body('["vertex labs"]'))
        server.enqueue(200, _chat_body('["ember corp"]'))
        server.enqueue(200, {"data": [
            {"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]},
        ]})
        index = build_index(corpus, extractor, embedder)
        before = copy.deepcopy(index)
        more = ingest_corpus([_json.dumps({"doc_id": "d3", "text": "Garnet Works."})])
        server.enqueue(200, _chat_body('["garnet works", "vertex labs"]'))
        for _ in range(remote.MAX_ATTEMPTS):
            server.enqueue(500, {"error": "down"})
        with pytest.raises(ProviderError, match=r"add aborted \(1/1 chunks processed\)"):
            add_chunks(index, list(more.chunks), extractor, embedder)
        assert index == before


class TestRetrieveRequestBound:
    """Per query: one request for the query, then the query entities and the
    candidate chunks each in batches of ``remote.EMBED_BATCH``."""

    LINES = [
        json.dumps({"doc_id": "d1", "text": (
            "Vertex Labs hired Ada Lovelace. Ember Corp sued Vertex Labs. "
            "Ada Lovelace left Ember Corp."
        )}),
        json.dumps({"doc_id": "d2", "text": (
            "Garnet Works bought Ember Corp. Nothing else happened. "
            "Vertex Labs praised Garnet Works."
        )}),
    ]

    def _setup(self, server):
        from slimrag.corpus import ingest_corpus
        from slimrag.index import build_index

        server.auto_embed()
        embedder = EmbedderConfig(provider="remote")
        index = build_index(ingest_corpus(self.LINES), ExtractorConfig(), embedder)
        return index, embedder, len(server.requests)

    def test_entity_path(self, server, monkeypatch):
        from slimrag.retrieval import RetrievalParams, retrieve

        b = 2
        monkeypatch.setattr(remote, "EMBED_BATCH", b)
        index, embedder, before = self._setup(server)
        q = "Who sued Vertex Labs, and who bought Ember Corp from Garnet Works?"
        trace = retrieve(index, q, RetrievalParams(k=1), None, embedder).trace
        assert not trace.fallback_used
        assert len(trace.query_entities) == 3
        assert trace.candidate_count == 5
        posts = server.requests[before:]
        assert {r["path"] for r in posts} == {"/v1/embeddings"}
        assert len(posts) == (
            1
            + math.ceil(len(trace.query_entities) / b)
            + math.ceil(trace.candidate_count / b)
        )

    def test_fallback(self, server, monkeypatch):
        from slimrag.retrieval import retrieve

        b = 4
        monkeypatch.setattr(remote, "EMBED_BATCH", b)
        index, embedder, before = self._setup(server)
        trace = retrieve(index, "what happened next?", None, None, embedder).trace
        assert trace.fallback_used
        assert trace.candidate_count == len(index.chunk_catalog) == 5
        posts = server.requests[before:]
        assert {r["path"] for r in posts} == {"/v1/embeddings"}
        assert len(posts) == 1 + math.ceil(len(index.chunk_catalog) / b)


class TestRetrieveChunkVectors:
    """A remote reply may hold chunk vectors of another dimension or a zero
    vector; retrieve raises the package's error for it, never numpy's: a
    zero vector is a fault of the reply, and a dimension mismatch one
    between vectors, found where they meet."""

    @pytest.mark.parametrize(
        "bad, error",
        [([0.5] * 15, DimensionMismatchError), ([0.0] * 16, ProviderProtocolError)],
        ids=["mixed-dimension", "zero-vector"],
    )
    def test_bad_chunk_vector_raises_package_error(self, server, bad, error):
        from slimrag.retrieval import retrieve

        index, embedder, _ = TestRetrieveRequestBound()._setup(server)
        server.enqueue(200, {"data": [{"embedding": [0.25] * 16}]})
        chunks = [[0.25] * 16] * len(index.chunk_catalog)
        chunks[2] = bad
        server.enqueue(200, {"data": [{"embedding": v} for v in chunks]})
        with pytest.raises(error) as caught:
            retrieve(index, "what happened next?", None, None, embedder)
        assert type(caught.value) is error


class TestEnvironment:
    def test_missing_key_reported(self, monkeypatch):
        monkeypatch.setenv(remote.API_BASE_ENV, "http://127.0.0.1:1/v1")
        monkeypatch.delenv(remote.API_KEY_ENV, raising=False)
        with pytest.raises(ProviderError, match="SLIMRAG_API_KEY"):
            remote.chat_completion("m", "s", "u")

    def test_missing_base_reported(self, monkeypatch):
        monkeypatch.delenv(remote.API_BASE_ENV, raising=False)
        monkeypatch.setenv(remote.API_KEY_ENV, "k")
        with pytest.raises(ProviderError, match="SLIMRAG_API_BASE"):
            remote.chat_completion("m", "s", "u")


def test_import_leaves_requests_unloaded():
    """requests is imported when the first request is sent, so local runs
    never load it."""
    src = str(os.path.dirname(os.path.dirname(os.path.abspath(slimrag.__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys, slimrag; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, check=True, text=True,
    )
    assert result.stdout.strip() == "False"
