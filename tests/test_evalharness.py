"""Dataset loading and end-to-end evaluation runs."""

import json

import pytest

from conftest import DATA_DIR
from slimrag.embedding import EmbedderConfig
from slimrag.errors import MalformedRecordError
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
        path.write_text("[{", encoding="utf-8")
        with pytest.raises(MalformedRecordError):
            load_hotpotqa(path)

    def test_missing_question_rejected(self, tmp_path):
        with pytest.raises(MalformedRecordError):
            load_hotpotqa(_write_dataset(tmp_path, [{"context": [], "supporting_facts": []}]))

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
