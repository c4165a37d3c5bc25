"""Segmentation and ingestion: frozen examples, errors, determinism."""

import json

import pytest

from slimrag.corpus import (
    Chunk,
    SegmentationPolicy,
    build_document,
    corpus_from_chunks,
    ingest_corpus,
    segment_document,
    split_sentences,
)
from slimrag.errors import DuplicateDocumentError, MalformedRecordError
from slimrag.tokenization import count_tokens


def _doc(text, policy):
    return build_document("d", text, policy)


class TestSplitSentences:
    def test_three_simple_sentences(self):
        assert split_sentences("A b. C d. E f.") == ["A b.", "C d.", "E f."]

    def test_abbreviation_does_not_split(self):
        assert split_sentences("Dr. Smith arrived. He sat.") == [
            "Dr. Smith arrived.",
            "He sat.",
        ]

    def test_boundary_needs_uppercase_digit_or_quote(self):
        assert split_sentences("version 2. beta was slow") == ["version 2. beta was slow"]
        assert split_sentences("It rained. 2 days passed.") == [
            "It rained.",
            "2 days passed.",
        ]

    def test_no_terminal_punctuation(self):
        assert split_sentences("no punctuation here") == ["no punctuation here"]

    def test_empty(self):
        assert split_sentences("") == []


class TestSegmentDocument:
    def test_empty_document(self):
        policy = SegmentationPolicy("sentence")
        assert segment_document(_doc("", policy), policy) == []

    def test_sentence_per_chunk_positions(self):
        # 5-sentence document under the manual split oracle.
        text = "One a. Two b. Three c. Four d. Five e."
        policy = SegmentationPolicy("sentence")
        chunks = segment_document(_doc(text, policy), policy)
        assert [c.position for c in chunks] == [0, 1, 2, 3, 4]
        assert [c.text for c in chunks] == [
            "One a.", "Two b.", "Three c.", "Four d.", "Five e.",
        ]

    def test_fixed_two_sizes(self):
        text = "One a. Two b. Three c. Four d. Five e."
        policy = SegmentationPolicy("fixed", 2)
        chunks = segment_document(_doc(text, policy), policy)
        assert [c.text for c in chunks] == [
            "One a. Two b.", "Three c. Four d.", "Five e.",
        ]

    def test_three_sentence_doc_fixed_two(self):
        policy = SegmentationPolicy("fixed", 2)
        chunks = segment_document(_doc("A b. C d. E f.", policy), policy)
        assert [c.text for c in chunks] == ["A b. C d.", "E f."]

    def test_join_reproduces_segmentable_content(self):
        text = "One a. Two b. Three c."
        policy = SegmentationPolicy("sentence")
        doc = _doc(text, policy)
        chunks = segment_document(doc, policy)
        assert " ".join(c.text for c in chunks) == " ".join(doc.sentences)

    def test_partition_no_sentence_lost_or_duplicated(self):
        text = "One a. Two b. Three c. Four d. Five e. Six f. Seven g."
        for policy in (
            SegmentationPolicy("sentence"),
            SegmentationPolicy("fixed", 2),
            SegmentationPolicy("fixed", 3),
        ):
            doc = _doc(text, policy)
            chunks = segment_document(doc, policy)
            assert " ".join(c.text for c in chunks) == " ".join(doc.sentences)


class TestIngest:
    def test_empty_stream(self):
        corpus = ingest_corpus([])
        assert corpus.documents == ()
        assert corpus.chunks == ()
        assert corpus.total_corpus_tokens == 0

    def test_sentence_per_chunk(self):
        lines = [json.dumps({"doc_id": "d1", "text": "A b. C d. E f."})]
        corpus = ingest_corpus(lines, SegmentationPolicy("sentence"))
        assert [c.position for c in corpus.chunks] == [0, 1, 2]
        assert [c.chunk_id for c in corpus.chunks] == ["d1#0", "d1#1", "d1#2"]

    def test_max_two_sentences_policy(self):
        lines = [json.dumps({"doc_id": "d1", "text": "A b. C d. E f."})]
        corpus = ingest_corpus(lines, SegmentationPolicy("fixed", 2))
        assert [c.text for c in corpus.chunks] == ["A b. C d.", "E f."]

    def test_total_tokens_matches_sum(self):
        lines = [
            json.dumps({"doc_id": "d1", "text": "Alpha beta. Gamma delta epsilon."}),
            json.dumps({"doc_id": "d2", "text": "Zeta eta."}),
        ]
        corpus = ingest_corpus(lines)
        assert corpus.total_corpus_tokens == sum(
            count_tokens(c.text) for c in corpus.chunks
        )
        for c in corpus.chunks:
            assert c.token_count == count_tokens(c.text)

    def test_corpus_from_chunks_matches_prechunked_ingest(self):
        rows = [("d1", 1, "Beta here."), ("d1", 0, "Alpha there."), ("d2", 0, "Gamma.")]
        lines = [
            json.dumps({"doc_id": d, "position": p, "text": t}) for d, p, t in rows
        ]
        assert corpus_from_chunks(rows) == ingest_corpus(lines)
        with pytest.raises(MalformedRecordError, match="line 2: pre-chunked text"):
            corpus_from_chunks([("d1", 0, "Alpha."), ("d1", 1, "  ")])

    def test_prechunked_records(self):
        lines = [
            json.dumps({"doc_id": "t", "position": 0, "text": "First sentence."}),
            json.dumps({"doc_id": "t", "position": 1, "text": "Second sentence."}),
        ]
        corpus = ingest_corpus(lines)
        assert corpus.segmentation == "passthrough"
        assert [c.chunk_id for c in corpus.chunks] == ["t#0", "t#1"]

    def test_prechunked_out_of_order_positions(self):
        lines = [
            json.dumps({"doc_id": "t", "position": 1, "text": "B."}),
            json.dumps({"doc_id": "t", "position": 0, "text": "A."}),
        ]
        corpus = ingest_corpus(lines)
        assert [c.text for c in corpus.chunks] == ["A.", "B."]

    def test_mixed_forms_rejected(self):
        lines = [
            json.dumps({"doc_id": "a", "text": "Plain."}),
            json.dumps({"doc_id": "b", "position": 0, "text": "Chunked."}),
        ]
        with pytest.raises(MalformedRecordError, match="mixed"):
            ingest_corpus(lines)

    def test_duplicate_doc_id_rejected(self):
        lines = [
            json.dumps({"doc_id": "a", "text": "One."}),
            json.dumps({"doc_id": "a", "text": "Two."}),
        ]
        with pytest.raises(DuplicateDocumentError):
            ingest_corpus(lines)

    def test_malformed_json_reports_line(self):
        with pytest.raises(MalformedRecordError, match="line 2"):
            ingest_corpus([json.dumps({"doc_id": "a", "text": "x"}), "{nope"])

    def test_noncontiguous_positions_rejected(self):
        lines = [json.dumps({"doc_id": "t", "position": 1, "text": "B."})]
        with pytest.raises(MalformedRecordError, match="contiguous"):
            ingest_corpus(lines)

    def test_duplicate_position_rejected(self):
        lines = [
            json.dumps({"doc_id": "t", "position": 0, "text": "A."}),
            json.dumps({"doc_id": "t", "position": 0, "text": "B."}),
        ]
        with pytest.raises(MalformedRecordError, match="duplicate position"):
            ingest_corpus(lines)

    def test_deterministic_for_identical_bytes(self):
        lines = [
            json.dumps({"doc_id": "d1", "text": "Alpha beta. Gamma delta."}),
            json.dumps({"doc_id": "d2", "text": "Epsilon zeta."}),
        ]
        assert ingest_corpus(list(lines)) == ingest_corpus(list(lines))

    def test_chunk_texts_nonempty(self):
        lines = [json.dumps({"doc_id": "d", "text": "Alpha. Beta."})]
        corpus = ingest_corpus(lines)
        assert all(c.text.strip() for c in corpus.chunks)


def test_policy_parse_round_trip():
    for spec in ("sentence", "fixed:3", "passthrough"):
        assert SegmentationPolicy.parse(spec).policy_id == spec
    with pytest.raises(ValueError):
        SegmentationPolicy.parse("paragraphs")


def test_chunk_id_format():
    assert Chunk("d#0", "d", 0, "x").chunk_id == "d#0"
