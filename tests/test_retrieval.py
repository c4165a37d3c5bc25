"""Retrieval pipeline vs the straight-line algorithm transcription."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import random_corpus, random_query
from oracles import alg1_retrieve
import slimrag
from slimrag.corpus import SegmentationPolicy, ingest_corpus
from slimrag.embedding import EmbedderConfig, cosine_similarity, embed
from slimrag.extraction import ExtractorConfig
from slimrag.index import build_index, canonical_json
from slimrag.retrieval import (
    Context,
    RetrievalParams,
    ScoredChunk,
    assemble_context,
    collect_hit_chunks,
    match_query_entities,
    retrieve,
    score_chunk,
)

LOCAL = ExtractorConfig()
EMB = EmbedderConfig(dimension=64)


def _corpus(lines):
    return ingest_corpus(lines, SegmentationPolicy("sentence"))


def _six_chunk_index():
    lines = [
        json.dumps({"doc_id": "d1", "text": (
            "A tour of Vertex Labs impressed critics. "
            "The board of Ember Corp met quietly. "
            "Reporters found Vertex Labs expanding fast."
        )}),
        json.dumps({"doc_id": "d2", "text": (
            "Historians praised Garnet Works for the restoration. "
            "A profile described Ember Corp and Vertex Labs together. "
            "Nothing notable happened elsewhere."
        )}),
    ]
    corpus = _corpus(lines)
    assert len(corpus.chunks) == 6
    return corpus, build_index(corpus, LOCAL, EMB)


class TestRetrieveExamples:
    def test_empty_index_any_query(self):
        index = build_index(_corpus([]), LOCAL, EMB)
        context = retrieve(index, "anything at all?", RetrievalParams(), LOCAL, EMB)
        assert context.chunks == []
        assert context.total_tokens == 0
        assert context.trace.empty_index

    def test_two_entity_query_matches_algorithm_transcription(self):
        corpus, index = _six_chunk_index()
        params = RetrievalParams(k=2, h=3, token_limit=4096)
        q = "What did Vertex Labs build and who runs Ember Corp?"
        context = retrieve(index, q, params, LOCAL, EMB)
        oracle = alg1_retrieve(corpus.chunks, q, LOCAL, EMB, k=2, h=3, token_limit=4096)

        trace = context.trace
        assert set(trace.query_entities) == oracle.query_entities
        assert trace.hit_entities == oracle.hit_entities
        assert {s.chunk_id for s in trace.scored} == oracle.hit_chunks
        for scored in trace.scored:
            assert scored.score == pytest.approx(oracle.scores[scored.chunk_id], abs=1e-9)
            assert scored.hit_count == oracle.counts[scored.chunk_id]
        assert trace.final_order == oracle.final_order
        assert context.text == oracle.context_text

    def test_no_entity_query_falls_back_to_pure_similarity(self):
        corpus, index = _six_chunk_index()
        params = RetrievalParams(k=2, h=3)
        q = "what was restored quietly?"
        context = retrieve(index, q, params, LOCAL, EMB)
        assert context.trace.fallback_used
        # Exhaustive similarity-sort oracle over all chunks.
        q_vec = embed(q, EMB)
        ranked = sorted(
            corpus.chunks,
            key=lambda c: (-cosine_similarity(embed(c.text, EMB), q_vec), c.chunk_id),
        )
        want = sorted(
            (c.chunk_id for c in ranked[:3]),
            key=lambda cid: next(
                (c.doc_id, c.position) for c in corpus.chunks if c.chunk_id == cid
            ),
        )
        assert context.trace.final_order == want

    def test_fallback_disabled_returns_empty_flagged(self):
        _, index = _six_chunk_index()
        params = RetrievalParams(fallback_on_no_entities=False)
        context = retrieve(index, "nothing capitalized here?", params, LOCAL, EMB)
        assert context.chunks == []
        assert context.trace.no_query_entities
        assert not context.trace.fallback_used

    def test_empty_query_rejected(self):
        _, index = _six_chunk_index()
        with pytest.raises(ValueError):
            retrieve(index, "  ", RetrievalParams(), LOCAL, EMB)


class TestMatchQueryEntities:
    def test_empty_query_set(self):
        _, index = _six_chunk_index()
        hits, per_source, _ = match_query_entities(set(), index, 5, EMB)
        assert hits == {}
        assert per_source == {}

    def test_overlapping_topk_merges_with_max(self):
        _, index = _six_chunk_index()
        hits, per_source, _ = match_query_entities(
            {"vertex labs", "vertex laboratory"}, index, 3, EMB
        )
        for entity, similarity in hits.items():
            best = max(
                (s for matches in per_source.values() for e, s in matches if e == entity),
            )
            assert similarity == best

    def test_disjoint_topk_sets_union(self):
        # A 20-entity store split into two halves that share no 4-grams:
        # each query entity draws its top-5 from its own half.
        lines = []
        for i in range(10):
            lines.append(json.dumps({
                "doc_id": f"a{i}", "text": f"A note praised Aurora Unit{i} today."
            }))
            lines.append(json.dumps({
                "doc_id": f"b{i}", "text": f"A memo praised Boreal Wing{i} today."
            }))
        corpus = _corpus(lines)
        index = build_index(corpus, LOCAL, EMB)
        hits, per_source, _ = match_query_entities(
            {"aurora unit0", "boreal wing0"}, index, 5, EMB
        )
        assert len(per_source["aurora unit0"]) == 5
        assert len(per_source["boreal wing0"]) == 5
        top_a = {e for e, _ in per_source["aurora unit0"]}
        top_b = {e for e, _ in per_source["boreal wing0"]}
        if not (top_a & top_b):
            assert len(hits) == 10


class TestCollectHitChunks:
    def test_two_entities_one_chunk(self):
        lines = [json.dumps({"doc_id": "d", "text": (
            "A summit joined Vertex Labs and Ember Corp in talks."
        )})]
        index = build_index(_corpus(lines), LOCAL, EMB)
        found = collect_hit_chunks({"vertex labs", "ember corp"}, index)
        assert found == {"d#0": frozenset({"vertex labs", "ember corp"})}

    def test_disjoint_mappings_count_one(self):
        _, index = _six_chunk_index()
        found = collect_hit_chunks({"garnet works"}, index)
        assert all(len(entities) == 1 for entities in found.values())

    def test_empty_hit_set(self):
        _, index = _six_chunk_index()
        assert collect_hit_chunks(set(), index) == {}


class TestScoreChunk:
    HITS = frozenset({"ada", "bob", "cyd"})
    WEIGHTS = {"ada": 0.2, "bob": 0.4, "cyd": 0.6}

    def test_product_identity(self):
        vec = embed("A tour of Vertex Labs impressed critics.", EMB)
        phi, score = score_chunk(vec, vec, self.HITS)
        assert phi == pytest.approx(1.0, abs=1e-9)
        assert score == pytest.approx(3.0, abs=1e-9)
        # No hit entities (the fallback): the score is phi_q alone.
        phi, score = score_chunk(vec, vec, frozenset())
        assert score == phi == pytest.approx(1.0, abs=1e-9)
        # Weighted: phi_q times the sum of the hits' weights.
        phi, score = score_chunk(vec, vec, self.HITS, self.WEIGHTS)
        assert score == pytest.approx(1.2, abs=1e-9)

    def test_hand_product(self):
        # phi_q = 0.5, count = 3 -> 1.5 ; phi_q = 1.0, count = 1 -> 1.0
        assert 0.5 * 3 == 1.5
        q_vec = embed("some query text", EMB)
        chunk_vec = embed("some other text", EMB)
        phi, score = score_chunk(chunk_vec, q_vec, frozenset({"ada"}))
        assert phi == cosine_similarity(chunk_vec, q_vec)
        assert score == phi * 1
        _, score = score_chunk(chunk_vec, q_vec, frozenset())
        assert score == phi
        _, score = score_chunk(chunk_vec, q_vec, self.HITS, self.WEIGHTS)
        assert score == phi * ((0.2 + 0.4) + 0.6)

    def test_count_monotonicity_at_equal_phi(self):
        q_vec = embed("shared phrasing", EMB)
        chunk_vec = embed("shared phrasing, reworded", EMB)
        phi, score2 = score_chunk(chunk_vec, q_vec, frozenset({"ada", "bob"}))
        _, score1 = score_chunk(chunk_vec, q_vec, frozenset({"ada"}))
        _, score0 = score_chunk(chunk_vec, q_vec, frozenset())
        assert score2 > score1 == score0 == phi
        _, heavier = score_chunk(chunk_vec, q_vec, frozenset({"ada", "cyd"}), self.WEIGHTS)
        _, lighter = score_chunk(chunk_vec, q_vec, frozenset({"ada", "bob"}), self.WEIGHTS)
        assert heavier > lighter


def _scored(chunk_id, phi, count):
    return ScoredChunk(
        chunk_id=chunk_id,
        phi_q=phi,
        hit_count=count,
        score=phi * count,
        hit_entities=frozenset({f"e{i}" for i in range(count)}),
    )


class TestAssembleContext:
    def _trace(self):
        from slimrag.retrieval import Trace

        return Trace(query="q", params={})

    def test_underfull_selection_keeps_all(self):
        _, index = _six_chunk_index()
        scored = [_scored(cid, 0.5, 1) for cid in list(index.chunk_catalog)[:3]]
        context = assemble_context(scored, index, RetrievalParams(h=10), self._trace())
        assert len(context.chunks) == 3

    def test_reorder_by_document_position(self):
        _, index = _six_chunk_index()
        scored = [_scored("d1#2", 0.9, 2), _scored("d1#0", 0.1, 1)]
        context = assemble_context(scored, index, RetrievalParams(h=10), self._trace())
        assert [cid for cid, _ in context.chunks] == ["d1#0", "d1#2"]

    def test_budget_drops_lowest_scoring(self):
        _, index = _six_chunk_index()
        ids = list(index.chunk_catalog)
        scored = [
            _scored(ids[0], 0.9, 2),
            _scored(ids[1], 0.8, 1),
            _scored(ids[2], 0.1, 1),
        ]
        sizes = {cid: index.chunk_catalog[cid].token_count for cid in ids[:3]}
        limit = sizes[ids[0]] + sizes[ids[1]]
        context = assemble_context(
            scored, index, RetrievalParams(h=10, token_limit=limit), self._trace()
        )
        kept = {cid for cid, _ in context.chunks}
        assert kept == {ids[0], ids[1]}
        assert context.trace.dropped_for_budget == [ids[2]]
        # Greedy-rule oracle: repeatedly drop the lowest-ranked kept chunk.
        ranked = sorted(scored, key=lambda s: (-s.score, s.chunk_id))
        greedy = list(ranked)
        while greedy and sum(sizes[s.chunk_id] for s in greedy) > limit:
            greedy.pop()
        assert kept == {s.chunk_id for s in greedy}

    def test_limit_below_smallest_chunk_gives_empty_flagged(self):
        _, index = _six_chunk_index()
        ids = list(index.chunk_catalog)
        scored = [_scored(ids[0], 0.9, 1)]
        context = assemble_context(
            scored, index, RetrievalParams(h=10, token_limit=1), self._trace()
        )
        assert context.chunks == []
        assert context.trace.budget_exhausted


class TestPipelineProperties:
    def test_replay_is_bit_identical(self):
        _, index = _six_chunk_index()
        params = RetrievalParams(k=2, h=3)
        q = "Who audited Vertex Labs and where is Garnet Works?"
        first = retrieve(index, q, params, LOCAL, EMB)
        second = retrieve(index, q, params, LOCAL, EMB)
        assert canonical_json(first.trace.to_document()) == canonical_json(
            second.trace.to_document()
        )

    def test_score_monotone_in_count_and_phi(self):
        ranked = sorted(
            [_scored("a", 0.5, 2), _scored("b", 0.5, 1), _scored("c", 0.4, 1)],
            key=lambda s: (-s.score, s.chunk_id),
        )
        assert [s.chunk_id for s in ranked] == ["a", "b", "c"]

    def test_candidates_come_from_hit_chunks_only(self):
        corpus, index = _six_chunk_index()
        q = "What did Garnet Works restore?"
        context = retrieve(index, q, RetrievalParams(k=1, h=6), LOCAL, EMB)
        trace = context.trace
        assert not trace.fallback_used
        allowed = set()
        for entity in trace.hit_entities:
            allowed |= index.inverted_map[entity]
        assert {s.chunk_id for s in trace.scored} <= allowed

    def test_budget_compliance_randomized(self):
        rng = random.Random(4242)
        for _ in range(25):
            corpus, pool = random_corpus(rng, max_chunks=15, max_entities=8)
            index = build_index(corpus, LOCAL, EMB)
            params = RetrievalParams(
                k=rng.randint(1, 4),
                h=rng.randint(1, 8),
                token_limit=rng.randint(5, 60),
            )
            context = retrieve(index, random_query(rng, pool), params, LOCAL, EMB)
            assert context.total_tokens <= params.token_limit

    def test_weighted_variant_recorded_in_trace(self):
        _, index = _six_chunk_index()
        params = RetrievalParams(k=2, h=3, use_entity_weights=True)
        q = "What did Vertex Labs build and who runs Ember Corp?"
        context = retrieve(index, q, params, LOCAL, EMB)
        assert context.trace.scoring_variant == "weighted"

    def test_weighted_scores_match_hand_rule(self):
        # weight(hit entity) = max W_e over the query entities whose top-K
        # retrieved it; score = phi_q * sum of weights over the chunk's hits.
        _, index = _six_chunk_index()
        params = RetrievalParams(k=2, h=6, use_entity_weights=True)
        q = "What did Vertex Labs build and who runs Ember Corp?"
        trace = retrieve(index, q, params, LOCAL, EMB).trace
        hit_weight: dict[str, float] = {}
        for query_entity, matches in trace.entity_matches.items():
            for entity, _ in matches:
                weight = trace.entity_weights[query_entity]
                hit_weight[entity] = max(hit_weight.get(entity, 0.0), weight)
        for scored in trace.scored:
            expected = scored.phi_q * sum(
                hit_weight[e] for e in scored.hit_entities
            )
            assert scored.score == pytest.approx(expected, abs=1e-12)

    def test_total_tokens_matches_merged_text_count(self):
        from slimrag.tokenization import count_tokens

        _, index = _six_chunk_index()
        q = "What did Vertex Labs build and who runs Ember Corp?"
        context = retrieve(index, q, RetrievalParams(k=2, h=4), LOCAL, EMB)
        assert context.total_tokens == count_tokens(context.text)


_WEIGHTED_TRACE_SCRIPT = """
import json, sys
from slimrag.corpus import ingest_corpus
from slimrag.embedding import EmbedderConfig
from slimrag.extraction import ExtractorConfig
from slimrag.index import build_index, canonical_json
from slimrag.retrieval import RetrievalParams, retrieve

line = json.dumps({"doc_id": "d1", "text": "Ada Lovelace met Bob Marley and Cyd Charisse."})
emb = EmbedderConfig(dimension=64)
index = build_index(ingest_corpus([line]), ExtractorConfig(), emb)
q = ("Who is Ada Lovelace, and who is Bob Marley, and who is Cyd Charisse, "
     "and where did Bob Marley meet Cyd Charisse, and when did Cyd Charisse sing?")
params = RetrievalParams(k=1, use_entity_weights=True)
trace = retrieve(index, q, params, ExtractorConfig(), emb).trace
sys.stdout.write(canonical_json(trace.to_document()))
"""


def test_weighted_trace_independent_of_hash_seed():
    # Five sub-queries give the chunk's three hits weights 0.2, 0.4 and 0.6;
    # summed in set iteration order, the float score depends on the seed.
    src = str(Path(slimrag.__file__).resolve().parent.parent)
    traces = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _WEIGHTED_TRACE_SCRIPT],
            env=env, capture_output=True, check=True,
        )
        traces.append(result.stdout)
    document = json.loads(traces[0])
    assert document["entity_weights"] == {
        "ada lovelace": 0.2, "bob marley": 0.4, "cyd charisse": 0.6,
    }
    assert [s["hit_count"] for s in document["scored"]] == [3]
    assert traces[0] == traces[1]
