"""Segmentation and ingestion: frozen examples, errors, determinism."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DEEP_JSON,
    NODE_OPERATIONS,
    SAMPLE_INPUTS,
    damaged,
    fuzz_examples,
    mutate_node,
)
from slimrag import corpus as corpus_module
from slimrag.corpus import (
    Chunk,
    Corpus,
    SegmentationPolicy,
    build_document,
    corpus_from_chunks,
    ingest_corpus,
    read_lines,
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
        with pytest.raises(MalformedRecordError, match="^line 2: chunk 'd1#1' has no text$"):
            corpus_from_chunks([("d1", 0, "Alpha."), ("d1", 1, "  ")])

    def test_prechunked_records(self):
        lines = [
            json.dumps({"doc_id": "t", "position": 0, "text": "First sentence."}),
            json.dumps({"doc_id": "t", "position": 1, "text": "Second sentence."}),
        ]
        corpus = ingest_corpus(lines)
        assert corpus.segmentation == SegmentationPolicy("passthrough")
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

    def test_deeply_nested_json_reports_line(self):
        with pytest.raises(MalformedRecordError, match="line 2"):
            ingest_corpus([json.dumps({"doc_id": "a", "text": "x"}), DEEP_JSON])

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

    @pytest.mark.parametrize("position", [False, True, 0.0, "0", None])
    def test_position_that_is_not_an_integer_rejected(self, position):
        """JSON booleans are rejected too, though ``bool`` is an ``int``."""
        lines = [
            json.dumps({"doc_id": "a", "position": 0, "text": "A."}),
            json.dumps({"doc_id": "b", "position": position, "text": "B."}),
        ]
        with pytest.raises(
            MalformedRecordError, match="^line 2: position must be an integer$"
        ):
            ingest_corpus(lines)

    def test_deterministic_for_identical_bytes(self):
        lines = [
            json.dumps({"doc_id": "d1", "text": "Alpha beta. Gamma delta."}),
            json.dumps({"doc_id": "d2", "text": "Epsilon zeta."}),
        ]
        assert ingest_corpus(list(lines)) == ingest_corpus(list(lines))

    def test_passthrough_keeps_each_document_whole(self):
        """Raw documents under ``--policy passthrough`` become one chunk
        each, unsplit; a blank document becomes none."""
        lines = [
            json.dumps({"doc_id": "d1", "text": "A b. C d."}),
            json.dumps({"doc_id": "d2", "text": " \t "}),
        ]
        corpus = ingest_corpus(lines, SegmentationPolicy("passthrough"))
        assert [(c.chunk_id, c.text) for c in corpus.chunks] == [("d1#0", "A b. C d.")]
        assert [d.sentences for d in corpus.documents] == [("A b. C d.",), ()]
        assert corpus.segmentation == SegmentationPolicy("passthrough")

    def test_negative_position_rejected(self):
        lines = [json.dumps({"doc_id": "t", "position": -1, "text": "A."})]
        with pytest.raises(MalformedRecordError, match="^line 1: position must be >= 0$"):
            ingest_corpus(lines)

    @pytest.mark.parametrize(
        "first",
        [{"doc_id": "a", "text": "One."}, {"doc_id": "b", "position": 0, "text": "One."}],
        ids=["repeated-doc-id", "mixed-forms"],
    )
    def test_lone_surrogate_is_found_before_the_stream_rules(self, first):
        """A raw document's text is checked on its line, before its doc_id
        is compared with the earlier ones and its form with the first."""
        lines = [json.dumps(first), json.dumps({"doc_id": "a", "text": "Two \ud800."})]
        with pytest.raises(
            MalformedRecordError, match="^line 2: text holds a lone surrogate$"
        ):
            ingest_corpus(lines)

    def test_raw_text_is_checked_once_by_the_chunk_rule(self, monkeypatch):
        """``Chunk`` checks each chunk's strings; the record itself has only
        its doc_id checked, for a blank document, which yields no chunk."""
        checked = []
        real = corpus_module.has_lone_surrogate
        monkeypatch.setattr(
            corpus_module, "has_lone_surrogate", lambda text: checked.append(text) or real(text)
        )
        lines = [
            json.dumps({"doc_id": "d1", "text": "Alpha beta. Gamma delta."}),
            json.dumps({"doc_id": "d2", "text": " "}),
        ]
        ingest_corpus(lines)
        assert checked == ["d1", "d1Alpha beta.", "d1Gamma delta.", "d2"]

    def test_chunk_texts_nonempty(self):
        lines = [json.dumps({"doc_id": "d", "text": "Alpha. Beta."})]
        corpus = ingest_corpus(lines)
        assert all(c.text.strip() for c in corpus.chunks)


def test_policy_parse_round_trip():
    for spec in ("sentence", "fixed:3", "passthrough"):
        assert SegmentationPolicy.parse(spec).policy_id == spec
    with pytest.raises(ValueError):
        SegmentationPolicy.parse("paragraphs")


@settings(max_examples=300)
@given(
    kind=st.sampled_from(["sentence", "fixed", "passthrough", "paragraphs"]),
    size=st.one_of(st.sampled_from([1, True, 2.0]), st.integers(-2, 10_000)),
)
def test_parse_gives_back_every_policy_that_constructs(kind, size):
    """A policy is exactly its id: the fields of one that constructs are
    the ones its id names."""
    try:
        policy = SegmentationPolicy(kind, size)
    except ValueError:
        return
    assert SegmentationPolicy.parse(policy.policy_id) == policy


@pytest.mark.parametrize(
    "kind, size, problem",
    [
        ("sentence", 3, "sentence policy takes no size"),
        ("passthrough", 2, "passthrough policy takes no size"),
        ("sentence", 0, "sentence policy takes no size"),
        ("fixed", True, "fixed policy requires an integer size >= 1"),
        ("fixed", 2.0, "fixed policy requires an integer size >= 1"),
    ],
    ids=["sentence-3", "passthrough-2", "sentence-0", "fixed-true", "fixed-float"],
)
def test_policy_that_is_not_its_id_is_rejected(kind, size, problem):
    """``SegmentationPolicy("sentence", 3)`` constructed, and its id
    ``sentence`` dropped the size; ``SegmentationPolicy("fixed", True)``
    built an index whose file, segmentation ``fixed:True``, did not load."""
    with pytest.raises(ValueError, match=f"^{problem}$"):
        SegmentationPolicy(kind, size)


@pytest.mark.parametrize("spec", ["fixed:x", "fixed:", "fixed:0", "fixed:-2"])
def test_policy_parse_names_a_bad_size(spec):
    with pytest.raises(ValueError, match=f"integer size >= 1, got '{spec}'"):
        SegmentationPolicy.parse(spec)


@pytest.mark.parametrize(
    "spec, policy_id",
    [
        ("fixed", "fixed:1"),
        ("fixed:1_0", "fixed:10"),
        ("fixed: 3", "fixed:3"),
        ("fixed:03", "fixed:3"),
        ("fixed:+2", "fixed:2"),
    ],
)
def test_policy_parse_rejects_other_spellings_of_an_id(spec, policy_id):
    """Only a policy id parses: ``int`` reads each of these as a size, but
    the policy it gives would be recorded under another id."""
    with pytest.raises(ValueError, match=f"not a policy id; write '{policy_id}'"):
        SegmentationPolicy.parse(spec)


def test_chunk_id_format():
    assert Chunk("d", 0, "x").chunk_id == "d#0"


@pytest.mark.parametrize(
    "doc_id, position, text, problem",
    [
        ("", 0, "Ember Corp.", "chunk '#0' has an empty doc_id"),
        ("d2", 0, " ", "chunk 'd2#0' has no text"),
        ("d2", -1, "Ember Corp.", "position must be >= 0"),
        ("d2", True, "Ember Corp.", "position must be an integer"),
        ("d2", 0, "Ember \ud800 Corp.", "text holds a lone surrogate"),
        ("d\udfff", 0, "Ember Corp.", "doc_id holds a lone surrogate"),
        (5, 0, "x", "doc_id and text must be strings"),
        ("d", 0, None, "doc_id and text must be strings"),
    ],
    ids=[
        "empty-doc-id", "blank-text", "negative-position", "bool-position",
        "lone-surrogate", "doc-id-lone-surrogate", "int-doc-id", "text-none",
    ],
)
def test_chunk_no_corpus_can_hold_is_rejected(doc_id, position, text, problem):
    """Each but the last built. ``add_chunks`` and ``save_index`` then wrote
    an index that ``load_index`` rejected, except on a lone surrogate, where
    ``save_index`` raised a bare UnicodeEncodeError; a ``None`` text raised
    AttributeError in the tokenizer."""
    with pytest.raises(ValueError) as caught:
        Chunk(doc_id, position, text)
    assert str(caught.value) == problem


@settings(max_examples=fuzz_examples(300), deadline=None)
@given(form=st.sampled_from(["corpus", "prechunked"]), data=st.data())
def test_mutated_record_loads_or_names_its_line(form, data):
    """One random set, delete or duplicate anywhere in one record of a JSONL
    corpus, the value set drawn from ``JSON_VALUES``: the corpus ingests, or
    raises MalformedRecordError (naming a line of the stream, or none for a
    gap in a document's positions) or DuplicateDocumentError, never another
    exception."""
    records = [json.loads(line) for line in SAMPLE_INPUTS[form].splitlines()]
    at = data.draw(st.integers(0, len(records) - 1))
    mutate_node(data, records, at, data.draw(st.sampled_from(NODE_OPERATIONS)))
    lines = [json.dumps(record) + "\n" for record in records]
    try:
        corpus = ingest_corpus(lines)
    except MalformedRecordError as exc:
        assert exc.line_number is None or 1 <= exc.line_number <= len(lines)
        return
    except DuplicateDocumentError:
        return
    assert corpus.total_corpus_tokens == sum(count_tokens(c.text) for c in corpus.chunks)
    assert len({c.chunk_id for c in corpus.chunks}) == len(corpus.chunks)


@settings(max_examples=fuzz_examples(300), deadline=None)
@given(form=st.sampled_from(["corpus", "prechunked"]), data=st.data())
def test_cut_or_changed_corpus_loads_or_raises_the_documented_error(form, data):
    """Pin: a JSONL corpus cut at a drawn offset, or with one byte changed,
    read from a file through ``read_lines`` as the CLI reads it (so a byte
    that is not UTF-8 reaches its MalformedRecordError), ingests or raises
    MalformedRecordError or DuplicateDocumentError, never another
    exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(damaged(data, SAMPLE_INPUTS[form]))
        try:
            corpus = ingest_corpus(read_lines(path))
        except (MalformedRecordError, DuplicateDocumentError):
            return
    assert isinstance(corpus, Corpus)
    assert corpus.total_corpus_tokens == sum(count_tokens(c.text) for c in corpus.chunks)
