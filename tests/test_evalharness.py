"""Dataset loading and end-to-end evaluation runs."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DATA_DIR,
    DEEP_JSON,
    NODE_OPERATIONS,
    SAMPLE_INPUTS,
    damaged,
    fuzz_examples,
    mutate_node,
)
from slimrag import evalharness
from slimrag.embedding import EmbedderConfig
from slimrag.errors import MalformedRecordError, ProviderError
from slimrag.evalharness import (
    load_hotpotqa,
    load_hotpotqa_detailed,
    run_eval,
)
from slimrag.extraction import ExtractorConfig, load_aliases
from slimrag.index import canonical_json
from slimrag.retrieval import RetrievalParams
from slimrag.tokenization import count_tokens

LOCAL = ExtractorConfig()
EMB = EmbedderConfig()


def _write_dataset(tmp_path, entries):
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def _entry(question="Who built Vertex Labs and where is Ember Corp?"):
    return {
        "_id": "fixture-0",
        "question": question,
        "supporting_facts": [["Vertex Labs", 0], ["Ember Corp", 1]],
        "context": [
            ["Vertex Labs", [
                "A crew from Vertex Labs built the annex.",
                "the annex opened late.",
            ]],
            ["Ember Corp", [
                "the filings were dull.",
                "Analysts placed Ember Corp in the old mill district.",
            ]],
        ],
    }


class TestLoad:
    def test_two_supporting_facts_parsed(self, tmp_path):
        examples = load_hotpotqa(_write_dataset(tmp_path, [_entry()]))
        assert len(examples) == 1
        assert len(examples[0].gold_facts) == 2
        assert examples[0].gold_chunk_ids == {"Vertex Labs#0", "Ember Corp#1"}

    def test_empty_array(self, tmp_path):
        assert load_hotpotqa(_write_dataset(tmp_path, [])) == []

    def test_out_of_range_gold_fact_skipped_with_warning(self, tmp_path):
        bad = _entry()
        bad["supporting_facts"] = [["Vertex Labs", 9]]
        examples, skipped = load_hotpotqa_detailed(
            _write_dataset(tmp_path, [bad, _entry()])
        )
        assert skipped == 1
        assert len(examples) == 1

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        for broken in ("[{", DEEP_JSON):
            path.write_text(broken, encoding="utf-8")
            with pytest.raises(MalformedRecordError):
                load_hotpotqa(path)

    def test_non_utf8_dataset_rejected(self, tmp_path):
        path = tmp_path / "dataset.json"
        text = json.dumps([_entry()], ensure_ascii=False).replace("annex", "annexé")
        for encoding in ("latin-1", "utf-16"):
            path.write_bytes(text.encode(encoding))
            with pytest.raises(MalformedRecordError, match="not UTF-8"):
                load_hotpotqa_detailed(path)

    @settings(max_examples=fuzz_examples(300), deadline=None)
    @given(data=st.data())
    def test_cut_or_changed_dataset_loads_or_raises_the_documented_error(self, data):
        """Pin: a HotpotQA dataset cut at a drawn offset, or with one byte
        changed, loads (some examples may be skipped) or raises
        MalformedRecordError, never another exception."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dataset.json"
            path.write_bytes(damaged(data, SAMPLE_INPUTS["dataset"]))
            try:
                examples, skipped = load_hotpotqa_detailed(path)
            except MalformedRecordError:
                return
        assert len(examples) + skipped == 2

    @settings(max_examples=fuzz_examples(300), deadline=None)
    @given(data=st.data())
    def test_mutated_dataset_loads_only_examples_whose_corpus_builds(self, data):
        """One random set, delete or duplicate anywhere in one entry of a
        HotpotQA dataset, the value set drawn from ``JSON_VALUES``: the
        loader raises MalformedRecordError, or each example it loads builds
        its own pre-chunked corpus without an error. The second half pins
        that the entry checks cover the chunk rule (:class:`Chunk`)."""
        entries = json.loads(SAMPLE_INPUTS["dataset"])
        at = data.draw(st.integers(0, len(entries) - 1))
        mutate_node(data, entries, at, data.draw(st.sampled_from(NODE_OPERATIONS)))
        with tempfile.TemporaryDirectory() as tmp:
            try:
                examples, _ = load_hotpotqa_detailed(_write_dataset(Path(tmp), entries))
            except MalformedRecordError:
                return
        for example in examples:
            evalharness._corpus([example])

    def test_missing_question_rejected(self, tmp_path):
        with pytest.raises(MalformedRecordError):
            load_hotpotqa(_write_dataset(tmp_path, [{"context": [], "supporting_facts": []}]))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("context", [["Vertex Labs", "Vertex Labs won."]]),
            ("context", [[7, ["Vertex Labs won."]]]),
            ("context", [["Vertex Labs", ["Vertex Labs won.", 3]]]),
            ("context", [["Vertex Labs"]]),
            ("context", _entry()["context"] + [["Vertex Labs", ["Vertex Labs moved."]]]),
            ("context", _entry()["context"] + [["T", ["A sentence.", "  "]]]),
            ("supporting_facts", [["Vertex Labs", 1.7]]),
            ("supporting_facts", [["Vertex Labs", True]]),
            ("supporting_facts", [["Vertex Labs", 0, 1]]),
            ("supporting_facts", [[None, 0]]),
        ],
        ids=[
            "sentences-a-string", "title-not-string", "sentence-not-string",
            "context-not-pair", "title-repeated", "sentence-blank", "fact-index-float",
            "fact-index-bool", "fact-not-pair", "fact-title-not-string",
        ],
    )
    def test_malformed_context_or_fact_rejected(self, tmp_path, field, value):
        bad = _entry()
        bad[field] = value
        with pytest.raises(MalformedRecordError):
            load_hotpotqa_detailed(_write_dataset(tmp_path, [bad]))

    def test_empty_context_title_is_named_by_entry(self, tmp_path):
        bad = _entry()
        bad["context"] = bad["context"] + [["", ["A sentence."]]]
        with pytest.raises(MalformedRecordError,
                           match="^entry 1: a context title is empty$"):
            load_hotpotqa_detailed(_write_dataset(tmp_path, [_entry(), bad]))

    def test_entry_that_is_not_an_object_is_named(self, tmp_path):
        with pytest.raises(MalformedRecordError, match="^entry 1 is not an object$"):
            load_hotpotqa_detailed(_write_dataset(tmp_path, [_entry(), ["q1"]]))

    def test_empty_gold_facts_skipped(self, tmp_path):
        bad = _entry()
        bad["supporting_facts"] = []
        examples, skipped = load_hotpotqa_detailed(_write_dataset(tmp_path, [bad]))
        assert examples == []
        assert skipped == 1


class TestRunEval:
    def test_gold_only_entity_chunks_reach_full_recall(self, tmp_path):
        examples = load_hotpotqa(_write_dataset(tmp_path, [_entry()]))
        report = run_eval(examples, LOCAL, EMB)
        assert report.aggregate.recall == 1.0
        assert report.failed_count == 0

    def test_provider_failure_scores_zero_and_is_counted(self, tmp_path, monkeypatch):
        second = _entry("Where is Ember Corp?")
        second["_id"] = "fixture-1"
        examples = load_hotpotqa(_write_dataset(tmp_path, [_entry(), second]))

        def retrieve(index, question, *args):
            if question == examples[0].question:
                raise ProviderError("provider down")
            return real_retrieve(index, question, *args)

        real_retrieve = evalharness.retrieve
        monkeypatch.setattr(evalharness, "retrieve", retrieve)
        report = run_eval(examples, LOCAL, EMB)
        failed, scored = report.per_example
        assert failed.failed and not scored.failed
        assert (failed.score.recall, failed.score.f1, failed.trace_digest) == (0.0, 0.0, "")
        assert scored.score.recall > 0.0 and scored.trace_digest
        assert report.failed_count == report.to_document()["failed_count"] == 1
        assert report.aggregate.recall == scored.score.recall / 2

    def test_zero_examples_rejected(self):
        with pytest.raises(ValueError):
            run_eval([], LOCAL, EMB)

    def test_repeat_run_identical_modulo_timing(self, tmp_path):
        examples = load_hotpotqa(_write_dataset(tmp_path, [_entry()]))
        first = run_eval(examples, LOCAL, EMB).to_document()
        second = run_eval(examples, LOCAL, EMB).to_document()
        first["index_time_seconds"] = second["index_time_seconds"] = 0.0
        assert canonical_json(first) == canonical_json(second)

    def test_unknown_scope_rejected(self, tmp_path):
        examples = load_hotpotqa(_write_dataset(tmp_path, [_entry()]))
        with pytest.raises(ValueError):
            run_eval(examples, LOCAL, EMB, scope="global")

    def test_pooled_scope_tctc_matches_per_example_sum(self):
        # Bundled examples have pairwise-disjoint context docs.
        examples = load_hotpotqa(DATA_DIR / "ablation_dataset.json")
        aliases = load_aliases(DATA_DIR / "aliases.tsv")
        extractor = ExtractorConfig(aliases=aliases)
        pooled = run_eval(examples, extractor, EMB, scope="pooled")
        per_example = run_eval(examples, extractor, EMB, scope="per-example")
        assert pooled.ritu.tctc == per_example.ritu.tctc
        expected = sum(
            count_tokens(sentence)
            for example in examples
            for _, sentences in example.context_docs
            for sentence in sentences
        )
        assert pooled.ritu.tctc == expected

    def test_pooled_title_with_other_sentences_is_rejected(self, tmp_path):
        second = _entry("Where is Ember Corp?")
        second["_id"] = "fixture-1"
        second["context"][1][1][0] = "the filings were long."
        examples = load_hotpotqa(_write_dataset(tmp_path, [_entry(), second]))
        with pytest.raises(
            MalformedRecordError,
            match="'Ember Corp' has other sentences in question 'fixture-1' "
                  "than in 'fixture-0'",
        ):
            run_eval(examples, LOCAL, EMB, scope="pooled")
        assert not run_eval(examples, LOCAL, EMB).failed_count

    def test_pooled_title_with_the_same_sentences_is_indexed_once(self, tmp_path):
        second = _entry("Where is Ember Corp?")
        second["_id"] = "fixture-1"
        examples = load_hotpotqa(_write_dataset(tmp_path, [_entry(), second]))
        pooled = run_eval(examples, LOCAL, EMB, scope="pooled")
        alone = run_eval(examples[:1], LOCAL, EMB, scope="pooled")
        assert pooled.ritu.tctc == alone.ritu.tctc

    @pytest.mark.parametrize("name", ["smoke", "ablation"])
    def test_one_example_scores_alike_in_both_scopes(self, name):
        """A group of one example is the same corpus in both scopes."""
        examples = load_hotpotqa(DATA_DIR / f"{name}_dataset.json")
        extractor = ExtractorConfig(aliases=load_aliases(DATA_DIR / "aliases.tsv"))
        for example in examples:
            pooled, per_example = (
                run_eval([example], extractor, EMB, scope=scope).to_document()
                for scope in ("pooled", "per-example")
            )
            for key in ("per_example", "tuic", "tctc", "breakdown"):
                assert pooled[key] == per_example[key]

    def test_ablation_direction_on_bundled_fixture(self):
        examples = load_hotpotqa(DATA_DIR / "ablation_dataset.json")
        aliases = load_aliases(DATA_DIR / "aliases.tsv")

        def recall(coref: bool, decomp: bool) -> float:
            extractor = ExtractorConfig(
                coreference_enabled=coref,
                decomposition_enabled=decomp,
                aliases=aliases,
            )
            return run_eval(examples, extractor, EMB).aggregate.recall

        on_on = recall(True, True)
        on_off = recall(True, False)
        off_off = recall(False, False)
        assert on_on >= on_off >= off_off
        assert on_on > off_off  # the coreference module carries the effect

    def test_decomposition_never_decreases_recall_on_two_clause_fixture(self):
        examples = load_hotpotqa(DATA_DIR / "ablation_dataset.json")
        aliases = load_aliases(DATA_DIR / "aliases.tsv")
        with_decomp = run_eval(
            examples, ExtractorConfig(aliases=aliases), EMB
        ).aggregate.recall
        without = run_eval(
            examples,
            ExtractorConfig(aliases=aliases, decomposition_enabled=False),
            EMB,
        ).aggregate.recall
        assert with_decomp >= without

    def test_report_fields_present(self, tmp_path):
        examples = load_hotpotqa(_write_dataset(tmp_path, [_entry()]))
        document = run_eval(examples, LOCAL, EMB).to_document()
        for key in (
            "accuracy", "recall", "f1", "ritu", "tuic", "tctc",
            "breakdown", "index_time_seconds", "per_example", "config",
        ):
            assert key in document
        assert document["per_example"][0]["trace_digest"]

    def test_params_flow_through(self, tmp_path):
        examples = load_hotpotqa(_write_dataset(tmp_path, [_entry()]))
        params = RetrievalParams(k=1, h=1, token_limit=64)
        report = run_eval(examples, LOCAL, EMB, params=params)
        assert report.config["params"]["k"] == 1
        assert report.config["params"]["h"] == 1
        assert report.config["params"] == params.to_document()
