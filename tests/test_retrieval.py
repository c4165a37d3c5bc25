"""Retrieval pipeline vs the straight-line algorithm transcription."""

import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import fuzz_examples, random_corpus, random_query
from oracles import alg1_retrieve
import slimrag
from slimrag.corpus import SegmentationPolicy, ingest_corpus
from slimrag.embedding import EmbedderConfig, cosine_similarity, embed
from slimrag.extraction import ExtractorConfig
from slimrag.index import build_index, canonical_json, save_index
from slimrag.retrieval import (
    Context,
    RetrievalParams,
    ScoredChunk,
    _ranked,
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

    def test_empty_query_rejected(self):
        _, index = _six_chunk_index()
        with pytest.raises(ValueError):
            retrieve(index, "  ", RetrievalParams(), LOCAL, EMB)

    @pytest.mark.parametrize("knob", ["k", "h", "token_limit"])
    def test_knob_below_one_is_rejected(self, knob):
        with pytest.raises(ValueError, match="^k, h, and token_limit must all be >= 1$"):
            RetrievalParams(**{knob: 0})

    @pytest.mark.parametrize("fields, problem", [
        ({"k": 1.5}, "k, h, and token_limit must all be integers"),
        ({"h": 2.5}, "k, h, and token_limit must all be integers"),
        ({"k": float("inf")}, "k, h, and token_limit must all be integers"),
        ({"k": True}, "k, h, and token_limit must all be integers"),
        ({"token_limit": 10.0}, "k, h, and token_limit must all be integers"),
        ({"use_entity_weights": "no"}, "use_entity_weights must be a bool"),
    ], ids=["float-k", "float-h", "infinite-k", "bool-k", "float-token-limit",
            "str-weights"])
    def test_params_that_are_not_their_document_are_rejected(self, fields, problem):
        """Each constructed. A float ``k`` or ``h`` failed inside
        ``retrieve`` with a bare TypeError; ``k=True`` was written into the
        trace as ``true``; ``use_entity_weights="no"`` turned weighting on."""
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            RetrievalParams(**fields)

    def test_default_providers_are_the_ones_the_index_records(self):
        _, index = _six_chunk_index()
        q = "What did Vertex Labs build and who runs Ember Corp?"
        explicit = retrieve(index, q, RetrievalParams(), LOCAL, EMB)
        default = retrieve(index, q)
        assert explicit.trace.hit_entities
        assert canonical_json(default.trace.to_document()) == canonical_json(
            explicit.trace.to_document()
        )
        assert (default.chunks, default.text) == (explicit.chunks, explicit.text)


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

    @given(
        st.dictionaries(
            st.sampled_from([f"e{i}" for i in range(8)]),
            st.frozensets(st.sampled_from([f"d#{i}" for i in range(10)])),
        ),
        st.lists(st.sampled_from([f"e{i}" for i in range(10)]), unique=True),
        st.booleans(),
    )
    @settings(max_examples=200)
    @example({"e0": frozenset({"d#0"}), "e1": frozenset({"d#0"})}, ["e1", "e0", "e9"], False)
    def test_equals_the_set_building_loop(self, inverted_map, hits, as_dict):
        """The map and order the per-chunk set loop gave, every value a
        frozenset; ``e8`` and ``e9`` are never in the map, and a hit set
        comes as a set or as ``retrieve``'s dict of similarities."""
        index = SimpleNamespace(inverted_map=inverted_map)
        hit_entities = dict.fromkeys(hits, 0.5) if as_dict else set(hits)
        found: dict[str, set[str]] = {}
        for entity in hit_entities:
            for chunk_id in inverted_map.get(entity, frozenset()):
                found.setdefault(chunk_id, set()).add(entity)
        want = {chunk_id: frozenset(entities) for chunk_id, entities in found.items()}
        got = collect_hit_chunks(hit_entities, index)
        assert list(got.items()) == list(want.items())
        assert all(type(entities) is frozenset for entities in got.values())


class TestScoreChunk:
    HITS = frozenset({"ada", "bob", "cyd"})
    WEIGHTS = {"ada": 0.2, "bob": 0.4, "cyd": 0.6}

    def test_product_identity(self):
        vec = embed("A tour of Vertex Labs impressed critics.", EMB)
        phi = cosine_similarity(vec, vec)
        assert phi == pytest.approx(1.0, abs=1e-9)
        assert score_chunk(phi, self.HITS) == pytest.approx(3.0, abs=1e-9)
        # No hit entities (the fallback): the score is phi_q alone.
        assert score_chunk(phi, frozenset()) == phi
        # Weighted: phi_q times the sum of the hits' weights.
        score = score_chunk(phi, self.HITS, self.WEIGHTS)
        assert score == pytest.approx(1.2, abs=1e-9)

    def test_hand_product(self):
        # phi_q = 0.5, count = 3 -> 1.5 ; phi_q = 1.0, count = 1 -> 1.0
        assert score_chunk(0.5, self.HITS) == 1.5
        assert score_chunk(1.0, frozenset({"ada"})) == 1.0
        q_vec = embed("some query text", EMB)
        chunk_vec = embed("some other text", EMB)
        phi = cosine_similarity(chunk_vec, q_vec)
        assert score_chunk(phi, frozenset({"ada"})) == phi * 1
        assert score_chunk(phi, frozenset()) == phi
        score = score_chunk(phi, self.HITS, self.WEIGHTS)
        assert score == phi * ((0.2 + 0.4) + 0.6)

    def test_count_monotonicity_at_equal_phi(self):
        q_vec = embed("shared phrasing", EMB)
        chunk_vec = embed("shared phrasing, reworded", EMB)
        phi = cosine_similarity(chunk_vec, q_vec)
        score2 = score_chunk(phi, frozenset({"ada", "bob"}))
        score1 = score_chunk(phi, frozenset({"ada"}))
        score0 = score_chunk(phi, frozenset())
        assert score2 > score1 == score0 == phi
        heavier = score_chunk(phi, frozenset({"ada", "cyd"}), self.WEIGHTS)
        lighter = score_chunk(phi, frozenset({"ada", "bob"}), self.WEIGHTS)
        assert heavier > lighter


_HIT_POOL = [f"e{i:02d}" for i in range(64)]
# Scores that tie across different (phi_q, count) pairs, signed zeros and
# negatives among them, beside any float a cosine can be.
_PHI = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -0.5, -1.0, 5e-324]),
    st.floats(-1.0, 1.0),
)


def _oracle_ranked(chunk_ids, phis, hit_sets, weights):
    """The loop ``_ranked`` replaced: ``score_chunk`` per candidate, then
    one ``sorted`` by score descending and chunk id ascending."""
    scored = [
        ScoredChunk(chunk_id, phi_q, score_chunk(phi_q, hit_set, weights), hit_set)
        for chunk_id, phi_q, hit_set in zip(chunk_ids, phis, hit_sets)
    ]
    return sorted(scored, key=lambda s: (-s.score, s.chunk_id))


def _bits(scored):
    return [
        (s.chunk_id, s.phi_q.hex(), s.score.hex(), s.hit_entities) for s in scored
    ]


class TestArrayScoring:
    """``_ranked`` scores and ranks the candidates as arrays: the scores,
    bit for bit, and the order of ``score_chunk`` and ``sorted``."""

    @given(
        st.lists(
            st.tuples(_PHI, st.integers(0, 64) | st.sampled_from([0, 1, 2, 4])),
            max_size=40,
        ),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=fuzz_examples(300), deadline=None)
    @example([(0.0, 1), (-0.0, 2), (0.0, 0), (-0.0, 0)], False, random.Random(0))
    @example([(0.5, 2), (1.0, 1), (0.25, 4), (-0.5, 2), (-1.0, 1)], False, random.Random(0))
    @example([(0.5, 0), (-0.5, 0), (0.5, 0)], False, random.Random(0))
    @example([(0.5, 3), (0.5, 3), (-0.0, 1)], True, random.Random(0))
    def test_equals_score_chunk_and_sorted(self, candidates, weighted, rng):
        """A count of 0 is the fallback; weights, when drawn, take values
        that sum to ties and to inexact floats."""
        chunk_ids = [f"d#{i:03d}" for i in range(len(candidates))]
        phis = [phi_q for phi_q, _ in candidates]
        hit_sets = [frozenset(rng.sample(_HIT_POOL, count)) for _, count in candidates]
        weights = (
            {e: rng.choice([0.0, 0.1, 0.2, 0.5, 1.0, 1 / 3]) for e in _HIT_POOL}
            if weighted else None
        )
        got = _ranked(chunk_ids, np.array(phis, dtype=np.float64), hit_sets, weights)
        want = _oracle_ranked(chunk_ids, phis, hit_sets, weights)
        assert _bits(got) == _bits(want)
        assert all(type(s.phi_q) is float and type(s.score) is float for s in got)

    def test_retrieve_ranks_as_score_chunk_and_sorted(self):
        """On the entity path, the weighted variant and the fallback."""
        _, index = _six_chunk_index()
        for q, weighted in (
            ("What did Vertex Labs build and who runs Ember Corp?", False),
            ("What did Vertex Labs build and who runs Ember Corp?", True),
            ("what happened next?", False),
        ):
            params = RetrievalParams(k=2, h=6, use_entity_weights=weighted)
            trace = retrieve(index, q, params, LOCAL, EMB).trace
            weights = None
            if weighted:
                weights = {}
                for query_entity, matches in trace.entity_matches.items():
                    for entity, _ in matches:
                        weight = trace.entity_weights[query_entity]
                        weights[entity] = max(weights.get(entity, 0.0), weight)
            by_id = sorted(trace.scored, key=lambda s: s.chunk_id)
            want = _oracle_ranked(
                [s.chunk_id for s in by_id], [s.phi_q for s in by_id],
                [s.hit_entities for s in by_id], weights,
            )
            assert _bits(trace.scored) == _bits(want)
            assert trace.fallback_used == (q == "what happened next?")


@dataclasses.dataclass(frozen=True)
class _SameFields:
    """ScoredChunk's fields, with a frozen dataclass's generated methods."""

    chunk_id: str
    phi_q: float
    score: float
    hit_entities: frozenset[str]


class TestScoredChunk:
    """``ScoredChunk`` sets its fields through ``__dict__``, and behaves as
    the frozen dataclass it was."""

    HITS = frozenset({"ada"})

    def _chunk(self, **changes):
        values = dict(chunk_id="d#0", phi_q=0.5, score=1.0, hit_entities=self.HITS)
        return ScoredChunk(**{**values, **changes})

    def test_is_frozen(self):
        chunk = self._chunk()
        for name in ("chunk_id", "phi_q", "score", "hit_entities"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(chunk, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(chunk, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            chunk.extra = 1
        assert chunk == self._chunk()

    def test_equality_and_hash_are_by_fields(self):
        chunk = self._chunk()
        assert chunk == ScoredChunk("d#0", 0.5, 1.0, frozenset({"ada"}))
        assert hash(chunk) == hash(("d#0", 0.5, 1.0, self.HITS))
        for name, value in (
            ("chunk_id", "d#1"), ("phi_q", 0.25), ("score", 2.0),
            ("hit_entities", frozenset()),
        ):
            assert chunk != self._chunk(**{name: value})
        other = _SameFields("d#0", 0.5, 1.0, self.HITS)
        assert (chunk == other) is False and (other == chunk) is False
        assert chunk != other
        assert hash(chunk) == hash(other)

    def test_generated_methods_are_unchanged(self):
        chunk = self._chunk()
        assert repr(chunk) == (
            "ScoredChunk(chunk_id='d#0', phi_q=0.5, score=1.0, "
            "hit_entities=frozenset({'ada'}))"
        )
        assert [(f.name, f.type) for f in dataclasses.fields(ScoredChunk)] == [
            ("chunk_id", "str"), ("phi_q", "float"), ("score", "float"),
            ("hit_entities", "frozenset[str]"),
        ]
        replaced = dataclasses.replace(chunk, score=3.0)
        assert type(replaced) is ScoredChunk and replaced == self._chunk(score=3.0)
        assert dataclasses.asdict(chunk) == {
            "chunk_id": "d#0", "phi_q": 0.5, "score": 1.0, "hit_entities": self.HITS,
        }
        assert vars(chunk) == dataclasses.asdict(chunk)
        assert chunk.hit_count == 1
        with pytest.raises(TypeError):
            ScoredChunk("d#0", 0.5, 1.0)


def _scored(chunk_id, phi, count):
    return ScoredChunk(
        chunk_id=chunk_id,
        phi_q=phi,
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

    def test_derived_fields_agree_randomized(self, tmp_path):
        # candidate_count, hit_count and the saved vectors' embedder id are
        # derived from other state; check them on the entity path, the
        # no-entity fallback and an empty index.
        rng = random.Random(7070)
        path = tmp_path / "index.json"
        for case in range(20):
            if case == 0:
                corpus, pool = _corpus([]), ["Vertex Labs"]
            else:
                corpus, pool = random_corpus(rng, max_chunks=12, max_entities=6)
            index = build_index(corpus, LOCAL, EMB)
            save_index(index, path)
            saved = json.loads(path.read_text(encoding="utf-8"))
            assert saved["vectors"]["embedder_id"] == EMB.embedder_id
            params = RetrievalParams(
                k=rng.randint(1, 4), use_entity_weights=rng.random() < 0.5
            )
            for q in (random_query(rng, pool), "what happened next?"):
                trace = retrieve(index, q, params, LOCAL, EMB).trace
                document = trace.to_document()
                assert trace.candidate_count == len(trace.scored)
                assert document["candidate_count"] == trace.candidate_count
                for s, s_doc in zip(trace.scored, document["scored"]):
                    assert s.hit_count == len(s.hit_entities)
                    assert s_doc["hit_count"] == len(s_doc["hit_entities"])

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
