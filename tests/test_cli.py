"""CLI surface: subcommands, exit codes, JSON purity, read-only behavior."""

import contextlib
import csv
import io
import json
import os
import re
import signal
import stat
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DATA_DIR, DEEP_JSON, SAMPLE_INPUTS, damaged, fuzz_examples, move_chunk,
    rewrite_index,
)
import slimrag
from slimrag import remote
from slimrag.cli import _embedder_config, build_parser, main
from slimrag.corpus import SegmentationPolicy, ingest_corpus, read_lines
from slimrag.embedding import EmbedderConfig
from slimrag.evalharness import load_hotpotqa, run_eval
from slimrag.extraction import ExtractorConfig, load_aliases, load_gazetteer
from slimrag.index import add_chunks, canonical_json, load_index
from slimrag.retrieval import RetrievalParams, retrieve


def _no_request(path, payload):
    raise AssertionError(f"a request was sent to {path}")


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

    def test_valid_flag_values_are_shown_as_given(self, capsys):
        argv = ["index", "build", "--policy", "fixed:2", "--dimension", "8",
                "--extractor", "remote", "--model", "m"]
        assert main([*argv, "--show-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["flags"]["policy"] == "fixed:2"
        assert config["flags"]["dimension"] == 8
        assert config["flags"]["model"] == "m"
        argv = ["eval", "--k", "1", "--h", "2", "--token-limit", "3",
                "--scope", "pooled"]
        assert main([*argv, "--show-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["flags"]["scope"] == "pooled"
        params = RetrievalParams(k=1, h=2, token_limit=3)
        assert config["params"] == params.to_document()

    @pytest.mark.parametrize("argv", [
        ["index", "build", "--model", "m", "--corpus", "{corpus}", "--out", "{out}"],
        ["eval", "--embed-model", "e", "--dataset", "{dataset}", "--report", "{out}"],
        ["index", "build", "--model", "m", "--show-config"],
    ], ids=["index build --model", "eval --embed-model",
            "index build --model --show-config"])
    def test_model_without_remote_provider_is_usage_error(
        self, argv, corpus_file, tmp_path, capsys
    ):
        out = tmp_path / "out.json"
        paths = {"corpus": corpus_file, "out": out,
                 "dataset": DATA_DIR / "smoke_dataset.json"}
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        flag, provider = (("--model", "--extractor") if "--model" in argv
                          else ("--embed-model", "--embedder"))
        assert captured.err == f"usage error: {flag} needs {provider} remote\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["index", "build", "--embedder", "remote", "--dimension", "8",
         "--corpus", "{corpus}", "--out", "{out}"],
        ["eval", "--embedder", "remote", "--dimension", "256",
         "--dataset", "{dataset}", "--report", "{out}"],
        ["index", "build", "--embedder", "remote", "--dimension", "8", "--show-config"],
    ], ids=["index build", "eval", "index build --show-config"])
    def test_dimension_with_remote_embedder_is_usage_error(
        self, argv, corpus_file, tmp_path, capsys, monkeypatch
    ):
        """Rejected before any file is read or any request is sent; 256,
        the local default, too."""
        monkeypatch.setattr(remote, "_post", _no_request)
        out = tmp_path / "out.json"
        paths = {"corpus": corpus_file, "out": out,
                 "dataset": DATA_DIR / "smoke_dataset.json"}
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: --dimension needs --embedder local\n"
        assert captured.out == "" and not out.exists()

    def test_dimension_is_null_until_given(self, capsys):
        """One place maps a missing ``--dimension`` to the default."""
        assert main(["index", "build", "--show-config"]) == 0
        assert json.loads(capsys.readouterr().out)["flags"]["dimension"] is None
        args = build_parser().parse_args(["eval"])
        assert _embedder_config(args) == EmbedderConfig()
        args = build_parser().parse_args(["eval", "--dimension", "8"])
        assert _embedder_config(args) == EmbedderConfig(dimension=8)

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

    @pytest.mark.parametrize("argv, choices", [
        ([], "{index,retrieve,eval}"),
        (["index"], "{build,add,stats}"),
    ], ids=["slimrag", "slimrag index"])
    def test_missing_subcommand_names_the_choices(self, argv, choices, capsys):
        assert main(argv) == 1
        assert choices in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code = main(["index", "stats", "--index", str(tmp_path / "absent.json")])
        assert code == 2

    def test_damaged_index_is_runtime_error(self, built_index, capsys):
        rewrite_index(built_index, lambda d: d["config"].pop("extractor"))
        assert main(["index", "stats", "--index", str(built_index)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: index file is damaged")
        assert "Traceback" not in err

    def test_vectors_entries_array_is_runtime_error(self, built_index, capsys):
        rewrite_index(built_index, lambda d: d["vectors"].update(entries=[True]))
        assert main(["index", "stats", "--index", str(built_index)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: index file is damaged")
        assert err.count("\n") == 1

    def test_segmentation_that_is_not_a_policy_id_is_runtime_error(
        self, built_index, capsys
    ):
        """With fingerprint and digest recomputed. ``index stats`` exited 0
        on it, and ``index add`` failed with ``unknown segmentation
        policy``."""
        rewrite_index(built_index, lambda d: d["config"].update(segmentation="bogus"))
        assert main(["index", "stats", "--index", str(built_index)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: index file is damaged")
        assert err.count("\n") == 1

    def test_extractor_that_is_not_a_config_is_runtime_error(self, built_index, capsys):
        """With fingerprint and digest recomputed. ``index stats`` exited 0
        on a gazetteer entry that is not normalized."""
        rewrite_index(
            built_index, lambda d: d["config"]["extractor"].update(gazetteer=["Vertex Labs"])
        )
        assert main(["index", "stats", "--index", str(built_index)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: index file is damaged")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "old, new, fields",
        [("d2#0", "d2#0", {"text": " "}), ("d2#0", "#0", {"doc_id": ""})],
        ids=["blank-text", "empty-doc-id"],
    )
    def test_chunk_no_corpus_can_hold_is_runtime_error(
        self, built_index, capsys, old, new, fields
    ):
        """With its token count, TCTC, fingerprint and digest recomputed.
        ``index stats`` exited 0 on each, and ``retrieve`` raised ``cannot
        embed empty text`` on the blank one."""
        rewrite_index(built_index, lambda d: move_chunk(d, old, new, **fields))
        assert main(["index", "stats", "--index", str(built_index)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: index file is damaged")
        assert err.count("\n") == 1

    @settings(max_examples=fuzz_examples(60), deadline=None)
    @given(data=st.data())
    def test_cut_or_changed_index_is_runtime_error(self, data):
        """Pin: ``retrieve`` on a saved index cut at a drawn offset, or with
        one byte changed, answers (the damage left an index that loads) or
        exits 2 with one ``error:`` line and no traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus.jsonl"
            corpus.write_text(
                json.dumps({"doc_id": "d1", "text": "Vertex Labs built the annex."}),
                encoding="utf-8",
            )
            path = Path(tmp) / "index.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["index", "build", "--corpus", str(corpus),
                             "--out", str(path)]) == 0
            path.write_bytes(damaged(data, path.read_bytes()))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["retrieve", "--index", str(path),
                             "--query", "Who built Vertex Labs?"])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    @settings(max_examples=fuzz_examples(150), deadline=None)
    @given(kind=st.sampled_from(sorted(SAMPLE_INPUTS)), data=st.data())
    def test_cut_or_changed_input_is_runtime_error(self, kind, data):
        """Pin: ``index build`` on a corpus, gazetteer or alias file, and
        ``eval`` on a dataset, each cut at a drawn offset or with one byte
        changed, succeeds or exits 2 with one ``error:`` line and no
        traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: Path(tmp) / name for name in SAMPLE_INPUTS}
            for name, path in paths.items():
                path.write_bytes(SAMPLE_INPUTS[name])
            paths[kind].write_bytes(damaged(data, SAMPLE_INPUTS[kind]))
            output = str(Path(tmp) / "out.json")
            if kind == "dataset":
                argv = ["eval", "--dataset", str(paths[kind]), "--report", output]
            else:
                corpus = paths["prechunked" if kind == "prechunked" else "corpus"]
                argv = ["index", "build", "--corpus", str(corpus), "--out", output,
                        "--gazetteer", str(paths["gazetteer"]),
                        "--aliases", str(paths["aliases"])]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["index", "stats", "--index", "{input}"],
            ["index", "build", "--corpus", "{input}", "--out", "{output}"],
            ["eval", "--dataset", "{input}", "--report", "{output}"],
        ],
        ids=["index-stats", "index-build", "eval"],
    )
    def test_deeply_nested_input_is_runtime_error(self, tmp_path, capsys, command):
        source = tmp_path / "deep.json"
        source.write_text(DEEP_JSON, encoding="utf-8")
        output = tmp_path / "out.json"
        argv = [a.format(input=source, output=output) for a in command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not output.exists()

    @pytest.mark.parametrize("command", ["build", "add"])
    def test_non_utf8_corpus_line_is_named(self, built_index, tmp_path, capsys, command):
        corpus = tmp_path / "latin1.jsonl"
        corpus.write_bytes(
            json.dumps({"doc_id": "d3", "text": "Fine."}).encode("utf-8") + b"\n"
            + b'{"doc_id": "d4", "text": "caf\xe9 \xff"}\n'
        )
        before = built_index.read_bytes()
        output = tmp_path / "new-index.json"
        argv = {
            "build": ["index", "build", "--corpus", str(corpus), "--out", str(output)],
            "add": ["index", "add", "--index", str(built_index), "--corpus", str(corpus)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: not UTF-8") and err.count("\n") == 1
        assert not output.exists() and built_index.read_bytes() == before

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--gazetteer", b"graphene\ncaf\xe9\n"),
            ("--aliases", b"a\tb\ncaf\xe9\tcafe\n"),
            ("--aliases", b"a\tb\nno tab\n"),
        ],
        ids=["gazetteer-not-utf8", "aliases-not-utf8", "alias-without-tab"],
    )
    def test_damaged_term_file_is_named(self, corpus_file, tmp_path, capsys, flag, content):
        terms = tmp_path / "terms.txt"
        terms.write_bytes(content)
        output = tmp_path / "index.json"
        argv = ["index", "build", "--corpus", str(corpus_file), "--out", str(output)]
        assert main([*argv, flag, str(terms)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and err.count("\n") == 1
        assert str(terms) in err and not output.exists()

    @pytest.mark.parametrize("command", ["build", "retrieve"])
    def test_cache_vector_of_non_numbers_is_named(
        self, built_index, corpus_file, tmp_path, capsys, command
    ):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            '{"embedder": "e", "digest": "d", "vector": ["1.5", true, " 2 "]}\n',
            encoding="utf-8",
        )
        output = tmp_path / "new-index.json"
        argv = {
            "build": ["index", "build", "--corpus", str(corpus_file), "--out", str(output)],
            "retrieve": ["retrieve", "--index", str(built_index), "--query", "Who?"],
        }[command]
        assert main([*argv, "--cache", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"{cache}: line 1 is damaged" in captured.err
        assert captured.out == "" and not output.exists()

    @pytest.mark.parametrize("scope", ["per-example", "pooled"])
    def test_repeated_context_title_is_runtime_error(self, tmp_path, capsys, scope):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps([{
            "_id": "q0",
            "question": "Where did Vertex Labs move?",
            "supporting_facts": [["Vertex Labs", 0]],
            "context": [
                ["Vertex Labs", ["Vertex Labs built the annex.", "It opened late."]],
                ["Vertex Labs", ["Vertex Labs moved to the coast."]],
            ],
        }]), encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["eval", "--dataset", str(dataset), "--report", str(report),
                     "--scope", scope]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "title 'Vertex Labs'" in err
        assert not report.exists()

    def test_blank_context_sentence_is_runtime_error(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps([{
            "_id": "q0",
            "question": "Where did Vertex Labs move?",
            "supporting_facts": [["T", 0]],
            "context": [["T", ["A sentence.", "  "]]],
        }]), encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["eval", "--dataset", str(dataset), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: entry 0: ") and err.count("\n") == 1
        assert "'T'" in err
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["retrieve", "--query", "Who?", "--k", "0"],
            ["retrieve", "--query", "Who?", "--k", "-1"],
            ["retrieve", "--query", "Who?", "--h", "0"],
            ["retrieve", "--query", "Who?", "--token-limit", "0"],
            ["eval", "--report", "{output}", "--k", "0"],
            ["eval", "--report", "{output}", "--token-limit", "-5"],
            ["retrieve", "--query", "Who?", "--k", "x"],
            ["index", "build", "--out", "{output}", "--dimension", "0"],
            ["index", "build", "--out", "{output}", "--coref", "maybe"],
            ["index", "build", "--out", "{output}", "--policy", "paragraphs"],
            ["index", "build", "--out", "{output}", "--policy", "fixed:x"],
            ["index", "build", "--out", "{output}", "--policy", "fixed:0"],
            ["index", "build", "--out", "{output}", "--policy", "fixed"],
            ["index", "build", "--out", "{output}", "--policy", "fixed:1_0"],
            ["index", "build", "--out", "{output}", "--policy", "fixed: 3"],
            ["index", "build", "--out", "{output}", "--policy", "fixed:03"],
            ["index", "build", "--out", "{output}", "--policy", "fixed:+2"],
            # What a query argument whose bytes are not UTF-8 decodes to.
            ["retrieve", "--query", "Who built \udcff?"],
        ],
        ids=[
            "k-0", "k-negative", "h-0", "token-limit-0", "eval-k-0",
            "eval-token-limit-negative", "k-not-an-integer", "dimension-0",
            "coref-maybe", "policy-unknown",
            "policy-fixed-x", "policy-fixed-0", "policy-fixed-bare",
            "policy-fixed-underscore", "policy-fixed-space", "policy-fixed-leading-zero",
            "policy-fixed-plus", "query-not-utf8",
        ],
    )
    def test_invalid_flag_value_is_usage_error(self, tmp_path, capsys, argv):
        """Exit 1 with one ``usage error:`` line before any file is read:
        every input named here is absent, so a read would exit 2."""
        absent = str(tmp_path / "absent")
        inputs = {"retrieve": "--index", "eval": "--dataset", "index": "--corpus"}
        output = tmp_path / "out.json"
        argv = [a.format(output=output) for a in argv]
        assert main([*argv, inputs[argv[0]], absent]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: argument --")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not output.exists()

    def test_boolean_position_is_runtime_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"doc_id": "a", "position": 0, "text": "Vertex Labs."}) + "\n"
            + json.dumps({"doc_id": "b", "position": False, "text": "Ember."}) + "\n",
            encoding="utf-8",
        )
        output = tmp_path / "index.json"
        assert main(["index", "build", "--corpus", str(corpus),
                     "--out", str(output)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 2: position must be an integer\n"
        assert not output.exists()

    def test_success_is_zero(self, built_index):
        assert main(["index", "stats", "--index", str(built_index)]) == 0

    def test_help_is_zero_and_prints_the_docstring_with_its_backslashes(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["--help"])
        assert caught.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "a line ends at ``\\n`` only" in out


class TestIndexCommands:
    def test_build_then_stats(self, built_index, capsys):
        assert main(["index", "stats", "--index", str(built_index),
                     "--output", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["chunks"] == 3
        assert stats["entities"] == 3
        assert stats["ritu"] > 0

    def test_stats_json_carries_the_index_config_document(self, built_index, capsys):
        assert main(["index", "stats", "--index", str(built_index),
                     "--output", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        config = load_index(built_index).config
        document = config.to_document()
        assert {key: stats[key] for key in document} == document
        assert stats["config_fingerprint"] == config.fingerprint

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



class TestProvidersFromIndex:
    """``index add`` and ``retrieve`` use the extractor and embedder the
    index records; only ``index build`` and ``eval`` choose them."""

    @pytest.fixture
    def plain_index(self, tmp_path, corpus_file, capsys):
        gazetteer = tmp_path / "gazetteer.txt"
        gazetteer.write_text("mill district\nannex\n", encoding="utf-8")
        path = tmp_path / "index.json"
        assert main(["index", "build", "--corpus", str(corpus_file), "--out", str(path),
                     "--dimension", "64", "--coref", "off",
                     "--gazetteer", str(gazetteer),
                     "--aliases", str(DATA_DIR / "aliases.tsv")]) == 0
        capsys.readouterr()
        extractor = ExtractorConfig(
            coreference_enabled=False,
            gazetteer=load_gazetteer(gazetteer),
            aliases=load_aliases(DATA_DIR / "aliases.tsv"),
        )
        return path, extractor, EmbedderConfig(dimension=64)

    def test_bare_add_retrieve_and_stats_use_the_index_providers(
        self, plain_index, tmp_path, capsys
    ):
        path, extractor, embedder = plain_index
        extra = tmp_path / "extra.jsonl"
        extra.write_text(json.dumps({
            "doc_id": "d3", "text": "Crews from Garnet Works repaired the annex.",
        }) + "\n", encoding="utf-8")
        expected = add_chunks(load_index(path), list(ingest_corpus(
            read_lines(extra), SegmentationPolicy("sentence")).chunks),
            extractor, embedder)
        assert main(["index", "add", "--index", str(path),
                     "--corpus", str(extra)]) == 0
        assert load_index(path) == expected

        trace = tmp_path / "trace.json"
        query = "Who repaired the annex in the mill district?"
        assert main(["retrieve", "--index", str(path), "--query", query,
                     "--trace", str(trace), "--decomp", "off"]) == 0
        context = retrieve(expected, query, RetrievalParams(),
                           replace(extractor, decomposition_enabled=False), embedder)
        document = canonical_json(context.trace.to_document()) + "\n"
        assert trace.read_bytes() == document.encode("utf-8")
        assert context.trace.hit_entities and context.chunks

        capsys.readouterr()
        assert main(["index", "stats", "--index", str(path), "--output", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        fields = canonical_json(extractor.fingerprint_fields())
        assert stats["extractor"] == json.loads(fields)
        assert stats["embedder_id"] == embedder.embedder_id
        assert main(["index", "stats", "--index", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"providers: extractor local, coreference off, "
            f"embedder {embedder.embedder_id}"
        )

    @pytest.mark.parametrize("argv", [
        ["index", "stats", "--dimension", "3"],
        ["index", "stats", "--cache", "cache.jsonl"],
        ["index", "add", "--coref", "off"],
        ["index", "add", "--decomp", "off"],
        ["retrieve", "--embedder", "remote"],
        ["retrieve", "--coref", "off"],
        ["index", "build", "--decomp", "off"],
    ], ids=" ".join)
    def test_removed_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, entries", [
        (["index", "build"], {"extractor", "embedder"}),
        (["eval"], {"extractor", "embedder"}),
        (["retrieve", "--decomp", "off"], set()),
        (["index", "add"], set()),
        (["index", "stats"], set()),
    ], ids=["index build", "eval", "retrieve", "index add", "index stats"])
    def test_show_config_names_only_the_providers_a_command_takes(
        self, argv, entries, capsys
    ):
        """``flags`` is what the subcommand's parser produced, dispatch
        fields aside; ``params`` appears only where ``--k`` is a flag."""
        assert main([*argv, "--show-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        parsed = vars(build_parser().parse_args(argv))
        assert config["command"] == parsed["command"] == " ".join(
            argv[:2 if argv[0] == "index" else 1])
        dispatch = {"command", "handler", "show_config"}
        assert config["flags"] == {dest: value for dest, value in parsed.items()
                                   if dest not in dispatch}
        assert entries == {"extractor", "embedder"} & set(config["flags"])
        assert ("params" in config) == ("k" in config["flags"])
        if argv[0] == "retrieve":
            assert config["flags"]["decomp"] is False


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

    def test_csv_rows_are_per_example_documents(self, tmp_path, capsys):
        dataset = DATA_DIR / "smoke_dataset.json"
        csv_path = tmp_path / "per_example.csv"
        assert main(["eval", "--dataset", str(dataset),
                     "--report", str(tmp_path / "report.json"),
                     "--csv", str(csv_path)]) == 0
        report = run_eval(load_hotpotqa(dataset), ExtractorConfig(), EmbedderConfig())
        with open(csv_path, encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        assert reader.fieldnames == [
            "question_id", "accuracy", "recall", "f1", "retrieved_count",
            "gold_count", "failed", "trace_digest",
        ]
        assert len(rows) == len(report.per_example)
        for row, result in zip(rows, report.per_example):
            document = result.to_document()
            for column in reader.fieldnames:
                assert row[column] == str(document[column])

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


# The temp file ``replacing`` writes beside its target: the target's name,
# then ``.``, 4 random bytes as 8 lowercase hex digits and ``.tmp``.
_TEMP_TAIL = r"\.[0-9a-f]{8}\.tmp"


def _run_killed(run, n):
    """Run ``run()`` in a forked child that kills itself with SIGKILL just
    before its n-th write, fsync or rename of an output file (a write being
    one write call on the file itself, not into its buffer), or after
    ``run`` returns if it makes fewer. Returns what the child did before
    the kill: ``("write", "")``, ``("fsync", "")`` or ``("replace", target)``
    per call, then ``("done", repr(result))`` if ``run`` returned."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            made = 0

            def reach(kind, detail=""):
                nonlocal made
                made += 1
                if made == n:
                    os.kill(os.getpid(), signal.SIGKILL)
                os.write(write_end, f"{kind} {detail}\n".encode())

            class CountedFile(io.FileIO):
                def write(self, data):
                    reach("write")
                    return super().write(data)

            real_fsync, real_replace = os.fsync, os.replace
            os.fdopen = lambda fd, mode: io.BufferedWriter(CountedFile(fd, mode))
            os.fsync = lambda fd: (reach("fsync"), real_fsync(fd))
            os.replace = lambda src, dst: (
                reach("replace", os.fspath(dst)), real_replace(src, dst)
            )
            result = run()
            os.write(write_end, f"done {result!r}\n".encode())
        finally:
            os.kill(os.getpid(), signal.SIGKILL)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        lines = pipe.read().decode().splitlines()
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    return [tuple(line.split(" ", 1)) for line in lines]


def _loaded_bytes(path: Path) -> bytes:
    load_index(path)
    return path.read_bytes()


def _report(path: Path) -> dict:
    document = json.loads(path.read_bytes())
    document["index_time_seconds"] = 0.0
    return document


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


class TestOutputFiles:
    """Every file the CLI writes goes through ``slimrag.index.replacing``:
    temp file, fsync, rename; a new file's mode from the kernel's umask,
    with no writer touching the umask; a replaced file's mode, on the temp
    file before its first byte; a symlink's target; a FIFO filled from
    memory in place; errors that name the target, also for a directory."""

    @pytest.fixture
    def outputs(self, built_index, tmp_path):
        """Each writer as (argv, {target: (old bytes, reader)}), every
        target in ``out/`` and holding old bytes that its reader reads. A
        reader reads a file back, into what an old and a new file are
        compared by (a report's timing is zeroed)."""
        out = tmp_path / "out"
        out.mkdir()
        extra = tmp_path / "extra.jsonl"
        extra.write_text(json.dumps({
            "doc_id": "d3", "text": "Crews from Garnet Works repaired the annex.",
        }) + "\n", encoding="utf-8")
        index, trace = out / "index.json", out / "trace.json"
        report, table = out / "report.json", out / "per_example.csv"
        old_json = (b'{"old":true}\n', _report)
        dataset = str(DATA_DIR / "smoke_dataset.json")
        outputs = {
            "index": (
                ["index", "add", "--index", str(index), "--corpus", str(extra)],
                {index: (built_index.read_bytes(), _loaded_bytes)},
            ),
            "trace": (
                ["retrieve", "--index", str(built_index),
                 "--query", "Who built Vertex Labs?", "--trace", str(trace)],
                {trace: old_json},
            ),
            "report": (
                ["eval", "--dataset", dataset, "--report", str(report)],
                {report: old_json},
            ),
            "csv": (
                ["eval", "--dataset", dataset, "--report", str(report),
                 "--csv", str(table)],
                {report: old_json, table: (b"a,b\r\n1,2\r\n", _csv_rows)},
            ),
        }
        for _, targets in outputs.values():
            for path, (old, _) in targets.items():
                path.write_bytes(old)
        return outputs

    @pytest.mark.parametrize("writer", ["index", "trace", "report", "csv"])
    def test_a_kill_at_any_write_fsync_or_rename_leaves_the_old_or_the_new_file(
        self, outputs, writer, capsys
    ):
        """Killed just before its n-th write, fsync or rename, for every n
        up to a clean run's count, and once after its last: each target
        holds its old bytes until its own rename and the complete new ones
        after it, and reads back; the only leftover is a temp file named
        after a target, beside it."""
        argv, targets = outputs[writer]
        out = next(iter(targets)).parent
        clean = _run_killed(lambda: main(argv), 0)
        assert clean[-1] == ("done", "0")
        assert {kind for kind, _ in clean[:-1]} == {"write", "fsync", "replace"}
        renamed_at = {
            path: clean.index(("replace", os.path.realpath(path))) for path in targets
        }
        new = {path: read(path) for path, (_, read) in targets.items()}
        patterns = [re.escape(path.name) + _TEMP_TAIL for path in targets]
        files = {p.name for p in out.iterdir()}
        calls = len(clean) - 1
        for n in range(1, calls + 2):
            for path, (old, _) in targets.items():
                path.write_bytes(old)
            made = _run_killed(lambda: main(argv), n)
            assert made == (clean[:n - 1] if n <= calls else clean)
            for path, (old, read) in targets.items():
                if renamed_at[path] < n - 1:
                    assert read(path) == new[path]
                else:
                    assert path.read_bytes() == old
                    read(path)
            for name in {p.name for p in out.iterdir()} - files:
                assert any(re.fullmatch(pattern, name) for pattern in patterns), name
                (out / name).unlink()

    def test_a_missing_directory_is_named_as_the_target(
        self, corpus_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["index", "build", "--corpus", str(corpus_file),
                     "--out", "missing/x.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \[Errno 2\] [^\n]*: 'missing/x\.json'\n", err), err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_a_leftover_temp_file_of_the_same_name_is_named_as_the_target(
        self, outputs, monkeypatch, capsys
    ):
        """The temp name's 32 random bits repeat a leftover's: no retry,
        exit 2 with one error line naming the target, which keeps its old
        bytes, and the leftover stays."""
        argv, targets = outputs["trace"]
        ((target, (old, _)),) = targets.items()
        leftover = target.with_name(target.name + ".00000000.tmp")
        leftover.write_bytes(b"left")
        monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
        assert main(argv) == 2
        err = capsys.readouterr().err
        pattern = r"error: \[Errno 17\] [^\n]*: " + re.escape(repr(str(target))) + "\n"
        assert re.fullmatch(pattern, err), err
        assert target.read_bytes() == old
        assert leftover.read_bytes() == b"left"

    def test_a_target_name_of_255_bytes_takes_a_temp_file_beside_it(
        self, outputs, capsys
    ):
        """The longest names Linux takes, in one- and four-byte characters:
        the temp file, named after a name's first 60 characters, fits."""
        argv, targets = outputs["trace"]
        (target,) = targets
        assert main(argv) == 0
        files = set(target.parent.iterdir())
        for name in ("a" * 250 + ".json", "\U0001F600" * 63 + "abc"):
            path = target.with_name(name)
            assert len(os.fsencode(name)) == 255
            assert main([*argv[:-1], str(path)]) == 0
            assert path.read_bytes() == target.read_bytes()
            killed = _run_killed(lambda: main([*argv[:-1], str(path)]), 3)
            assert [kind for kind, _ in killed] == ["write", "fsync"]
            [temp] = set(target.parent.iterdir()) - files - {path}
            assert re.fullmatch(re.escape(name[:60]) + _TEMP_TAIL, temp.name)
            temp.unlink()
            path.unlink()

    def test_a_replaced_file_keeps_its_mode_and_a_new_one_takes_the_umask(
        self, outputs, corpus_file, capsys
    ):
        for writer in ("index", "trace"):
            argv, targets = outputs[writer]
            (target,) = targets
            target.chmod(0o604)
            assert main(argv) == 0
            assert stat.S_IMODE(target.stat().st_mode) == 0o604
        argv, targets = outputs["csv"]
        index = next(iter(outputs["index"][1])).parent / "new-index.json"
        build = ["index", "build", "--corpus", str(corpus_file), "--out", str(index)]
        for umask in (0o022, 0o027):
            for target in [*targets, index]:
                target.unlink(missing_ok=True)
            before = os.umask(umask)
            try:
                assert main(argv) == 0
                assert main(build) == 0
            finally:
                os.umask(before)
            for target in [*targets, index]:
                assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    def test_no_writer_touches_the_umask(
        self, outputs, corpus_file, monkeypatch, capsys
    ):
        """Setting the umask to read it would change the mode of any file
        another thread creates meanwhile; the kernel applies it instead."""
        calls = []
        real_umask = os.umask
        monkeypatch.setattr(os, "umask", lambda mask: calls.append(mask) or real_umask(mask))
        new = next(iter(outputs["index"][1])).parent / "new-index.json"
        argvs = [
            ["index", "build", "--corpus", str(corpus_file), "--out", str(new)],
            outputs["index"][0], outputs["trace"][0], outputs["csv"][0],
        ]
        for writer in ("trace", "csv"):
            for target in outputs[writer][1]:
                target.unlink(missing_ok=True)
        for argv in argvs:
            assert main(argv) == 0
        assert calls == []

    @pytest.mark.parametrize("writer", ["index", "trace"])
    def test_the_temp_file_is_never_more_open_than_its_target(
        self, outputs, writer, corpus_file
    ):
        """Killed as it creates the temp file (just before the ``fchmod``
        that sets a replaced file's mode) or at its first write, the temp
        file is no more open than its target will be: a replaced 0600
        file's mode under umask 022 at both points, and 0640 for a new file
        under umask 027, for which nothing runs between the two."""
        argv, targets = outputs[writer]
        (target,) = targets
        if writer == "index":  # index add needs an index to read
            argv = ["index", "build", "--corpus", str(corpus_file), "--out", str(target)]
        files = set(target.parent.iterdir())
        for umask, old_mode, at_fchmod, mode in (
            (0o022, 0o600, True, 0o600),
            (0o022, 0o600, False, 0o600),
            (0o027, None, False, 0o640),
        ):
            if old_mode is None:
                target.unlink()
            else:
                target.chmod(old_mode)

            def run(umask=umask, at_fchmod=at_fchmod):
                os.umask(umask)
                if at_fchmod:
                    os.fchmod = lambda fd, mode: os.kill(os.getpid(), signal.SIGKILL)
                return main(argv)

            assert _run_killed(run, 1) == []
            [temp] = set(target.parent.iterdir()) - files
            assert re.fullmatch(re.escape(target.name) + _TEMP_TAIL, temp.name)
            assert stat.S_IMODE(temp.stat().st_mode) == mode
            temp.unlink()

    @pytest.mark.parametrize("writer", ["index", "trace", "report", "csv"])
    def test_a_fifo_is_written_in_place(
        self, outputs, writer, corpus_file, capsys
    ):
        """``index build --out``, ``retrieve --trace``, ``eval --report`` or
        ``eval --csv`` to FIFOs: a reader of each gets the bytes a regular
        file would hold (a report's with this run's timing, which differs
        from run to run), and each FIFO stays."""
        argv, targets = outputs[writer]
        if writer == "index":  # index add would read the FIFO as its input
            (target,) = targets
            argv = ["index", "build", "--corpus", str(corpus_file), "--out", str(target)]
        assert main(argv) == 0
        expected = {path: path.read_bytes() for path in targets}
        got = {}
        readers = []
        for path in targets:
            path.unlink()
            os.mkfifo(path)
            readers.append(threading.Thread(
                target=lambda path=path: got.update({path: path.read_bytes()}),
                daemon=True,
            ))
        files = sorted(next(iter(targets)).parent.iterdir())
        for reader in readers:
            reader.start()
        assert main(argv) == 0
        for reader in readers:
            reader.join(timeout=20)
        for path in targets:
            if path.name == "report.json":  # the regular file's, with this run's timing
                document = json.loads(expected[path])
                document["index_time_seconds"] = json.loads(got[path])["index_time_seconds"]
                expected[path] = (canonical_json(document) + "\n").encode("utf-8")
            assert got[path] == expected[path]
            assert stat.S_ISFIFO(path.stat().st_mode)
        assert sorted(next(iter(targets)).parent.iterdir()) == files

    def test_a_trace_to_dev_stdout_redirected_to_a_file_keeps_the_results(
        self, outputs, tmp_path, capsys
    ):
        """``retrieve --trace /dev/stdout > out.txt`` in a child process:
        ``out.txt`` holds the trace line, then the result lines, each as a
        run with the trace in a file of its own writes them."""
        argv, targets = outputs["trace"]
        (target,) = targets
        assert main(argv) == 0
        results = capsys.readouterr().out.encode("utf-8")
        argv[argv.index(str(target))] = "/dev/stdout"
        out = tmp_path / "out.txt"
        src = str(Path(slimrag.__file__).resolve().parent.parent)
        with out.open("wb") as stdout:
            subprocess.run(
                [sys.executable, "-m", "slimrag.cli", *argv], stdout=stdout,
                env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120,
            )
        assert out.read_bytes() == target.read_bytes() + results
        assert not list(tmp_path.rglob("*.tmp"))

    def test_an_index_to_dev_stdout_redirected_to_a_file_keeps_the_summary(
        self, built_index, corpus_file, tmp_path, capsys
    ):
        """``index build --out /dev/stdout > out.txt`` in a child process:
        ``out.txt`` holds the index bytes, then the summary lines, each as a
        build to a file of its own writes them, and its index part loads."""
        argv = ["index", "build", "--corpus", str(corpus_file), "--out", str(built_index)]
        assert main(argv) == 0
        summary = capsys.readouterr().out.replace(str(built_index), "/dev/stdout")
        argv[-1] = "/dev/stdout"
        out = tmp_path / "out.txt"
        src = str(Path(slimrag.__file__).resolve().parent.parent)
        with out.open("wb") as stdout:
            subprocess.run(
                [sys.executable, "-m", "slimrag.cli", *argv], stdout=stdout,
                env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120,
            )
        index = built_index.read_bytes()
        assert out.read_bytes() == index + summary.encode("utf-8")
        part = tmp_path / "part.json"
        part.write_bytes(out.read_bytes()[:len(index)])
        assert load_index(part) == load_index(built_index)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_a_directory_target_is_named_and_left_as_it_was(self, outputs, capsys):
        """``retrieve --trace`` naming a directory: exit 2, one error line
        naming it, and the directory as it was, with no temp file."""
        argv, targets = outputs["trace"]
        (target,) = targets
        target.unlink()
        target.mkdir()
        (target / "kept").write_bytes(b"kept")
        files = sorted(target.parent.rglob("*"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        pattern = r"error: \[Errno 21\] [^\n]*: " + re.escape(repr(str(target))) + "\n"
        assert re.fullmatch(pattern, err), err
        assert sorted(target.parent.rglob("*")) == files
        assert (target / "kept").read_bytes() == b"kept"
        assert not list(target.parent.rglob("*.tmp"))

    def test_a_symlink_stays_and_the_file_it_names_is_written(
        self, built_index, corpus_file, tmp_path, capsys
    ):
        """An index and a trace written through symlinks, one relative and
        dangling, one absolute to an existing file: both links stay, and
        the files they name hold what a plain path would."""
        real, links = tmp_path / "real", tmp_path / "links"
        real.mkdir()
        links.mkdir()
        (links / "index.json").symlink_to(Path("..", "real", "index.json"))
        (real / "trace.json").write_bytes(b"old")
        (links / "trace.json").symlink_to(real / "trace.json")
        query = ["retrieve", "--query", "Who built Vertex Labs?"]
        assert main(["index", "build", "--corpus", str(corpus_file),
                     "--out", str(links / "index.json")]) == 0
        assert main([*query, "--index", str(links / "index.json"),
                     "--trace", str(links / "trace.json")]) == 0
        assert main([*query, "--index", str(built_index),
                     "--trace", str(tmp_path / "trace.json")]) == 0
        assert os.readlink(links / "index.json") == str(Path("..", "real", "index.json"))
        assert os.readlink(links / "trace.json") == str(real / "trace.json")
        assert (real / "index.json").read_bytes() == built_index.read_bytes()
        assert (real / "trace.json").read_bytes() == (tmp_path / "trace.json").read_bytes()
        assert sorted(p.name for p in real.iterdir()) == ["index.json", "trace.json"]
