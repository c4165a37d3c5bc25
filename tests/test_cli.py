"""CLI surface: subcommands, exit codes, JSON purity, read-only behavior."""

import json

import pytest

from conftest import DATA_DIR, rewrite_index
from slimrag.cli import main
from slimrag.retrieval import RetrievalParams


@pytest.fixture
def corpus_file(tmp_path):
    lines = [
        json.dumps({"doc_id": "d1", "text": (
            "A crew from Vertex Labs built the annex. "
            "Analysts placed Ember Corp in the mill district."
        )}),
        json.dumps({"doc_id": "d2", "text": "Visitors toured Garnet Works yesterday."}),
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def built_index(tmp_path, corpus_file, capsys):
    path = tmp_path / "index.json"
    code = main(["index", "build", "--corpus", str(corpus_file), "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


class TestShowConfig:
    def test_retrieve_defaults_are_k5_h10(self, capsys):
        assert main(["retrieve", "--show-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["params"]["k"] == 5
        assert config["params"]["h"] == 10
        assert config["params"]["token_limit"] == 4096

    def test_flags_override_defaults(self, capsys):
        assert main(["retrieve", "--k", "7", "--show-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["params"]["k"] == 7
        assert config["params"] == RetrievalParams(k=7).to_document()

    def test_secrets_masked(self, capsys, monkeypatch):
        monkeypatch.setenv("SLIMRAG_API_KEY", "super-secret")
        assert main(["eval", "--show-config"]) == 0
        out = capsys.readouterr().out
        assert "super-secret" not in out
        assert json.loads(out)["env"]["SLIMRAG_API_KEY"] == "set"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["retrieve", "--frobnicate"]) == 1

    def test_missing_required_path_is_usage_error(self, capsys):
        assert main(["retrieve", "--query", "x?"]) == 1
        assert "required" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code = main(["index", "stats", "--index", str(tmp_path / "absent.json")])
        assert code == 2

    def test_damaged_index_is_runtime_error(self, built_index, capsys):
        rewrite_index(built_index, lambda d: d["config"].pop("extractor"))
        assert main(["index", "stats", "--index", str(built_index)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: index file is damaged")
        assert "Traceback" not in err

    def test_success_is_zero(self, built_index):
        assert main(["index", "stats", "--index", str(built_index)]) == 0


class TestIndexCommands:
    def test_build_then_stats(self, built_index, capsys):
        assert main(["index", "stats", "--index", str(built_index),
                     "--output", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["chunks"] == 3
        assert stats["entities"] == 3
        assert stats["ritu"] > 0

    def test_stats_on_empty_corpus_index(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("", encoding="utf-8")
        out = tmp_path / "empty-index.json"
        assert main(["index", "build", "--corpus", str(corpus), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["index", "stats", "--index", str(out), "--output", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["ritu"] == 0.0
        assert stats["entities"] == 0

    def test_add_extends_index(self, built_index, tmp_path, capsys):
        extra = tmp_path / "extra.jsonl"
        extra.write_text(
            json.dumps({"doc_id": "d3", "text": "A note praised Indigo Group."}) + "\n",
            encoding="utf-8",
        )
        assert main(["index", "add", "--index", str(built_index),
                     "--corpus", str(extra)]) == 0
        capsys.readouterr()
        assert main(["index", "stats", "--index", str(built_index),
                     "--output", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["chunks"] == 4

    def test_stats_does_not_mutate_index(self, built_index, capsys):
        before = built_index.read_bytes()
        main(["index", "stats", "--index", str(built_index)])
        assert built_index.read_bytes() == before


class TestRetrieveCommand:
    def test_json_output_is_single_document(self, built_index, capsys):
        assert main(["retrieve", "--index", str(built_index),
                     "--query", "Who built Vertex Labs?",
                     "--output", "json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)  # would fail on any extra stdout noise
        assert document["chunks"]
        assert document["total_tokens"] >= 1

    def test_trace_written(self, built_index, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["retrieve", "--index", str(built_index),
                     "--query", "Who built Vertex Labs?",
                     "--trace", str(trace_path)]) == 0
        trace = json.loads(trace_path.read_text())
        assert trace["query_entities"] == ["vertex labs"]
        assert trace["final_order"]

    def test_retrieve_does_not_mutate_index(self, built_index, capsys):
        before = built_index.read_bytes()
        main(["retrieve", "--index", str(built_index), "--query", "Ember Corp?"])
        assert built_index.read_bytes() == before

    def test_coref_flag_must_match_index(self, built_index, capsys):
        code = main(["retrieve", "--index", str(built_index),
                     "--query", "x?", "--coref", "off"])
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err


class TestBuildFailure:
    def test_provider_failure_writes_no_index_file(
        self, tmp_path, corpus_file, capsys, monkeypatch
    ):
        monkeypatch.delenv("SLIMRAG_API_BASE", raising=False)
        monkeypatch.delenv("SLIMRAG_API_KEY", raising=False)
        out = tmp_path / "never.json"
        code = main(["index", "build", "--corpus", str(corpus_file),
                     "--out", str(out), "--extractor", "remote"])
        assert code == 2
        assert "aborted" in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_smoke_dataset_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "per_example.csv"
        code = main([
            "eval",
            "--dataset", str(DATA_DIR / "smoke_dataset.json"),
            "--report", str(report_path),
            "--csv", str(csv_path),
            "--output", "json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["recall"] >= 0.8
        on_disk = json.loads(report_path.read_text())
        assert on_disk["recall"] == document["recall"]
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 1 + 5

    def test_eval_matches_golden_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "eval",
            "--dataset", str(DATA_DIR / "ablation_dataset.json"),
            "--aliases", str(DATA_DIR / "aliases.tsv"),
            "--report", str(report_path),
        ])
        assert code == 0
        from slimrag.index import canonical_json

        document = json.loads(report_path.read_text())
        document["index_time_seconds"] = 0.0
        golden = (DATA_DIR / "golden_ablation_report.json").read_bytes()
        assert (canonical_json(document) + "\n").encode("utf-8") == golden
