"""Wire-protocol tests against an in-process OpenAI-compatible fake."""

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from slimrag import remote
from slimrag.embedding import EmbedderConfig, embed, embed_many
from slimrag.errors import ProviderError, ProviderProtocolError
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
        data = json.dumps(body).encode("utf-8")
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

    def test_gives_up_after_max_attempts(self, server):
        for _ in range(remote.MAX_ATTEMPTS):
            server.enqueue(500, {"error": "boom"})
        with pytest.raises(ProviderError):
            remote.chat_completion("m", "s", "u")

    def test_client_error_not_retried(self, server):
        server.enqueue(401, {"error": "bad key"})
        with pytest.raises(ProviderError):
            remote.chat_completion("m", "s", "u")
        assert len(server.requests) == 1

    def test_malformed_reply_surfaces(self, server):
        server.enqueue(200, {"choices": []})
        with pytest.raises(ProviderProtocolError):
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

    def test_embed_many_batches_and_caches(self, server, tmp_path):
        from slimrag.embedding import EmbeddingCache

        cache = EmbeddingCache(tmp_path / "cache.jsonl")
        config = EmbedderConfig(provider="remote", batch_size=2)
        server.enqueue(200, {"data": [
            {"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]},
        ]})
        server.enqueue(200, {"data": [{"embedding": [0.5, 0.5]}]})
        out = embed_many(["a", "b", "c"], config, cache)
        assert len(out) == 3
        assert len(server.requests) == 2  # 2 + 1 under batch_size=2
        # Second call is fully served by the cache.
        out_again = embed_many(["a", "b", "c"], config, cache)
        assert out_again == out
        assert len(server.requests) == 2

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
    def test_build_index_with_remote_providers(self, server):
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
        embedder = EmbedderConfig(provider="remote", batch_size=8)
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
        from slimrag.index import build_index

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


class TestRetrieveRequestBound:
    """Per query: one request for the query, then the query entities and the
    candidate chunks each in batches of the embedder's batch_size."""

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

    def _setup(self, server, batch_size):
        from slimrag.corpus import ingest_corpus
        from slimrag.index import build_index

        server.auto_embed()
        embedder = EmbedderConfig(provider="remote", batch_size=batch_size)
        index = build_index(ingest_corpus(self.LINES), ExtractorConfig(), embedder)
        return index, embedder, len(server.requests)

    def test_entity_path(self, server):
        from slimrag.retrieval import RetrievalParams, retrieve

        b = 2
        index, embedder, before = self._setup(server, b)
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

    def test_fallback(self, server):
        from slimrag.retrieval import retrieve

        b = 4
        index, embedder, before = self._setup(server, b)
        trace = retrieve(index, "what happened next?", None, None, embedder).trace
        assert trace.fallback_used
        assert trace.candidate_count == len(index.chunk_catalog) == 5
        posts = server.requests[before:]
        assert {r["path"] for r in posts} == {"/v1/embeddings"}
        assert len(posts) == 1 + math.ceil(len(index.chunk_catalog) / b)


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
