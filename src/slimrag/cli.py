"""Command-line interface: index build/add/stats, retrieve, eval.

Exit codes: 0 success, 1 usage error, 2 runtime failure. With
``--output json`` exactly one JSON document goes to stdout; diagnostics go
to stderr. Secrets are environment-only (SLIMRAG_API_KEY, SLIMRAG_API_BASE).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

from .corpus import SegmentationPolicy, ingest_corpus
from .embedding import DEFAULT_DIMENSION, EmbedderConfig, EmbeddingCache
from .errors import SlimRagError
from .evalharness import load_hotpotqa_detailed, run_eval
from .extraction import ExtractorConfig, load_aliases, load_gazetteer
from .index import add_chunks, build_index, canonical_json, load_index, save_index
from .metrics import compute_ritu
from .remote import API_BASE_ENV, API_KEY_ENV
from .retrieval import RetrievalParams, retrieve


_DEFAULTS = RetrievalParams()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract is 1
        raise _UsageError(message)


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def build_parser() -> _Parser:
    parser = _Parser(prog="slimrag", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--output", choices=("human", "json"), default="human")
        p.add_argument(
            "--show-config",
            action="store_true",
            help="print the effective configuration as JSON and exit",
        )
        p.add_argument("--extractor", choices=("local", "remote"), default="local")
        p.add_argument("--embedder", choices=("local", "remote"), default="local")
        p.add_argument("--model", default=None, help="remote chat model name")
        p.add_argument("--embed-model", default=None, help="remote embedding model")
        p.add_argument("--dimension", type=int, default=None,
                       help=f"local embedder dimension (default {DEFAULT_DIMENSION})")
        p.add_argument("--coref", type=_on_off, default=True, metavar="on|off")
        p.add_argument("--decomp", type=_on_off, default=True, metavar="on|off")
        p.add_argument("--gazetteer", default=None, help="entity-per-line file")
        p.add_argument("--aliases", default=None, help="alias<TAB>canonical file")
        p.add_argument("--cache", default=None, help="embedding cache file")

    def retrieval_knobs(p):
        p.add_argument("--k", type=int, default=_DEFAULTS.k)
        p.add_argument("--h", type=int, default=_DEFAULTS.h)
        p.add_argument("--token-limit", type=int, default=_DEFAULTS.token_limit)

    index_parser = subs.add_parser("index", help="build, extend, or inspect an index")
    index_subs = index_parser.add_subparsers(dest="index_command")

    p_build = index_subs.add_parser("build")
    p_build.add_argument("--corpus", default=None, help="corpus JSONL path")
    p_build.add_argument("--out", default=None, help="index output path")
    p_build.add_argument("--policy", default="sentence",
                         help="sentence | fixed:N | passthrough")
    common(p_build)

    p_add = index_subs.add_parser("add")
    p_add.add_argument("--index", default=None)
    p_add.add_argument("--corpus", default=None, help="corpus JSONL of new chunks")
    common(p_add)

    p_stats = index_subs.add_parser("stats")
    p_stats.add_argument("--index", default=None)
    common(p_stats)

    p_retrieve = subs.add_parser("retrieve", help="run a query against an index")
    p_retrieve.add_argument("--index", default=None)
    p_retrieve.add_argument("--query", default=None)
    retrieval_knobs(p_retrieve)
    p_retrieve.add_argument("--weights", type=_on_off,
                            default=_DEFAULTS.use_entity_weights, metavar="on|off")
    p_retrieve.add_argument("--trace", default=None, help="write the trace JSON here")
    common(p_retrieve)

    p_eval = subs.add_parser("eval", help="evaluate over a HotpotQA-format dataset")
    p_eval.add_argument("--dataset", default=None)
    p_eval.add_argument("--report", default=None, help="report JSON output path")
    p_eval.add_argument("--csv", default=None, help="optional per-example CSV path")
    p_eval.add_argument("--scope", choices=("per-example", "pooled"),
                        default="per-example")
    retrieval_knobs(p_eval)
    common(p_eval)

    return parser


def _extractor_config(args) -> ExtractorConfig:
    gazetteer = load_gazetteer(args.gazetteer) if args.gazetteer else ()
    aliases = load_aliases(args.aliases) if args.aliases else ()
    return ExtractorConfig(
        provider=args.extractor,
        coreference_enabled=args.coref,
        decomposition_enabled=args.decomp,
        gazetteer=gazetteer,
        aliases=aliases,
        remote_model=args.model if args.extractor == "remote" else None,
    )


def _embedder_config(args) -> EmbedderConfig:
    kwargs = {}
    if args.dimension is not None:
        kwargs["dimension"] = args.dimension
    if args.embed_model is not None:
        kwargs["remote_model"] = args.embed_model
    return EmbedderConfig(provider=args.embedder, **kwargs)


def _params(args) -> RetrievalParams:
    return RetrievalParams(
        k=getattr(args, "k", _DEFAULTS.k),
        h=getattr(args, "h", _DEFAULTS.h),
        token_limit=getattr(args, "token_limit", _DEFAULTS.token_limit),
        use_entity_weights=getattr(args, "weights", _DEFAULTS.use_entity_weights),
    )


def _effective_config(args) -> dict:
    return {
        "command": args.command,
        "params": _params(args).to_document(),
        "extractor": {
            "provider": args.extractor,
            "coreference_enabled": args.coref,
            "decomposition_enabled": args.decomp,
            "gazetteer": args.gazetteer,
            "aliases": args.aliases,
            "model": args.model,
        },
        "embedder": {
            "provider": args.embedder,
            "dimension": (
                args.dimension if args.dimension is not None else DEFAULT_DIMENSION
            ),
            "model": args.embed_model,
        },
        "paths": {
            key: getattr(args, key)
            for key in ("corpus", "out", "index", "query", "dataset", "report",
                        "csv", "trace", "cache", "policy")
            if hasattr(args, key)
        },
        "output": args.output,
        "env": {
            API_KEY_ENV: "set" if os.environ.get(API_KEY_ENV) else "unset",
            API_BASE_ENV: os.environ.get(API_BASE_ENV) or "unset",
        },
    }


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required")


def _emit(args, document: dict, human_lines: list[str]) -> None:
    if args.output == "json":
        print(canonical_json(document))
    else:
        for line in human_lines:
            print(line)


def _cache(args) -> EmbeddingCache | None:
    return EmbeddingCache(args.cache) if args.cache else None


def _cmd_index_build(args) -> int:
    _require(args, "corpus", "out")
    policy = SegmentationPolicy.parse(args.policy)
    with open(args.corpus, "r", encoding="utf-8") as handle:
        corpus = ingest_corpus(handle, policy)
    index = build_index(corpus, _extractor_config(args), _embedder_config(args),
                        cache=_cache(args))
    save_index(index, args.out)
    report = compute_ritu(index.accounting)
    document = {
        "index": args.out,
        "documents": len(corpus.documents),
        "chunks": index.chunk_count,
        "entities": len(index.inverted_map),
        "tuic": report.tuic,
        "tctc": report.tctc,
        "ritu": report.ritu,
    }
    _emit(args, document, [
        f"indexed {document['chunks']} chunks from {document['documents']} documents",
        f"entities: {document['entities']}",
        f"TUIC={report.tuic} TCTC={report.tctc} RITU={report.ritu:.4f}",
        f"wrote {args.out}",
    ])
    return 0


def _cmd_index_add(args) -> int:
    _require(args, "index", "corpus")
    index = load_index(args.index)
    with open(args.corpus, "r", encoding="utf-8") as handle:
        corpus = ingest_corpus(
            handle, SegmentationPolicy.parse(index.config.segmentation)
        )
    updated = add_chunks(index, list(corpus.chunks), _extractor_config(args),
                         _embedder_config(args), cache=_cache(args))
    save_index(updated, args.index)
    document = {
        "index": args.index,
        "added_chunks": len(corpus.chunks),
        "chunks": updated.chunk_count,
        "entities": len(updated.inverted_map),
    }
    _emit(args, document, [
        f"added {document['added_chunks']} chunks; index now has "
        f"{document['chunks']} chunks and {document['entities']} entities",
    ])
    return 0


def _cmd_index_stats(args) -> int:
    _require(args, "index")
    index = load_index(args.index)
    report = compute_ritu(index.accounting)
    document = {
        "chunks": index.chunk_count,
        "entities": len(index.inverted_map),
        "tuic": report.tuic,
        "tctc": report.tctc,
        "ritu": report.ritu,
        "breakdown": dict(sorted(report.breakdown.items())),
        "embedder_id": index.vectors.embedder_id,
        "tokenizer": index.config.tokenizer,
        "segmentation": index.config.segmentation,
        "config_fingerprint": index.config_fingerprint,
    }
    _emit(args, document, [
        f"chunks: {document['chunks']}",
        f"entities: {document['entities']}",
        f"TUIC: {report.tuic}",
        f"TCTC: {report.tctc}",
        f"RITU: {report.ritu:.4f}",
    ])
    return 0


def _cmd_retrieve(args) -> int:
    _require(args, "index", "query")
    index = load_index(args.index)
    context = retrieve(index, args.query, _params(args), _extractor_config(args),
                       _embedder_config(args), _cache(args))
    if args.trace:
        Path(args.trace).write_text(
            canonical_json(context.trace.to_document()) + "\n", encoding="utf-8"
        )
    document = {
        "query": args.query,
        "chunks": [{"chunk_id": cid, "text": text} for cid, text in context.chunks],
        "total_tokens": context.total_tokens,
        "text": context.text,
    }
    human = [f"[{cid}] {text}" for cid, text in context.chunks]
    human.append(f"-- {len(context.chunks)} chunks, {context.total_tokens} tokens")
    _emit(args, document, human)
    return 0


def _cmd_eval(args) -> int:
    _require(args, "dataset", "report")
    examples, skipped = load_hotpotqa_detailed(args.dataset)
    if skipped:
        print(f"skipped {skipped} malformed examples", file=sys.stderr)
    report = run_eval(
        examples,
        _extractor_config(args),
        _embedder_config(args),
        _params(args),
        scope=args.scope,
        cache=_cache(args),
    )
    document = report.to_document()
    Path(args.report).write_text(canonical_json(document) + "\n", encoding="utf-8")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["question_id", "accuracy", "recall", "f1",
                 "retrieved_count", "gold_count", "failed", "trace_digest"]
            )
            for row in report.per_example:
                writer.writerow(
                    [row.question_id, row.score.accuracy, row.score.recall,
                     row.score.f1, row.score.retrieved_count, row.score.gold_count,
                     row.failed, row.trace_digest]
                )
    _emit(args, document, [
        f"examples: {len(report.per_example)} (failed: {report.failed_count})",
        f"accuracy: {report.aggregate.accuracy:.4f}",
        f"recall: {report.aggregate.recall:.4f}",
        f"f1: {report.aggregate.f1:.4f}",
        f"RITU: {report.ritu.ritu:.4f}",
        f"index time: {report.index_time_seconds:.3f}s",
        f"wrote {args.report}",
    ])
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        if args.command == "index" and args.index_command is None:
            raise _UsageError("an index subcommand is required (build/add/stats)")
        if getattr(args, "show_config", False):
            print(canonical_json(_effective_config(args)))
            return 0
        if args.command == "index":
            handler = {
                "build": _cmd_index_build,
                "add": _cmd_index_add,
                "stats": _cmd_index_stats,
            }[args.index_command]
            return handler(args)
        if args.command == "retrieve":
            return _cmd_retrieve(args)
        if args.command == "eval":
            return _cmd_eval(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SlimRagError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
