r"""Command-line interface: index build/add/stats, retrieve, eval.

``index build`` and ``eval`` choose the providers with ``--extractor``,
``--embedder``, ``--model``, ``--embed-model``, ``--dimension``, ``--coref``,
``--gazetteer`` and ``--aliases``. ``index add`` and ``retrieve`` take no
provider flags: they use the extractor and embedder the index records.
``retrieve`` and ``eval`` take ``--decomp``; every subcommand but
``index stats`` takes ``--cache``. ``--model`` needs ``--extractor remote``,
``--embed-model`` needs ``--embedder remote`` and ``--dimension`` needs
``--embedder local``.

``--show-config`` prints ``command`` (the subcommand path), ``flags`` (every
value the subcommand's parser produced), ``env`` and, on ``retrieve`` and
``eval``, the retrieval ``params``.

Exit codes: 0 success, 1 usage error, 2 runtime failure. With
``--output json`` exactly one JSON document goes to stdout; diagnostics go
to stderr. Secrets are environment-only (SLIMRAG_API_KEY, SLIMRAG_API_BASE).
Corpus files are streamed through :func:`slimrag.corpus.read_lines`, so a
line ends at ``\n`` only and one that is not UTF-8 is named.

Every file a subcommand writes (``index build --out``, the index ``index
add`` extends, ``retrieve --trace``, ``eval --report`` and ``eval --csv``)
is replaced atomically by :func:`slimrag.index.replacing`: a crash leaves
the old file or the whole new one, a symlink's target is written, a new
file takes the mode the kernel gives under the umask, a replaced file keeps
its mode (the temp file is created under it, never more open, and gets
it exactly before its first byte), the temp file is
``<target name>.<8 random hex digits>.tmp``, and a FIFO or device is filled
from memory once the output is whole. A file whose path is standard
output's own file (``--trace /dev/stdout``, ``index build --out
/dev/stdout``) is written through ``sys.stdout``, in order with the lines
printed after it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import replace

from .corpus import SegmentationPolicy, has_lone_surrogate, ingest_corpus, read_lines
from .embedding import DEFAULT_DIMENSION, EmbedderConfig, EmbeddingCache
from .errors import SlimRagError
from .evalharness import load_hotpotqa_detailed, run_eval
from .extraction import ExtractorConfig, load_aliases, load_gazetteer
from .index import (
    add_chunks, build_index, canonical_json, load_index, replacing, save_index,
)
from .metrics import compute_ritu
from .remote import API_BASE_ENV, API_KEY_ENV
from .retrieval import RetrievalParams, retrieve


_DEFAULTS = RetrievalParams()
# Namespace entries that pick the handler rather than configure it.
_DISPATCH = ("command", "handler", "show_config")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract is 1
        raise _UsageError(message)


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def _positive(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _policy(spec: str) -> str:
    try:
        SegmentationPolicy.parse(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _text(value: str) -> str:
    if has_lone_surrogate(value):  # an argv byte that is not UTF-8
        raise argparse.ArgumentTypeError(f"not UTF-8 text: {value!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="slimrag", description=__doc__)
    subs = parser.add_subparsers(required=True)

    def command(group, name, handler, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(command=p.prog.partition(" ")[2], handler=handler)
        return p

    def common(p, providers=False, decomp=False, cache=True):
        p.add_argument("--output", choices=("human", "json"), default="human")
        p.add_argument(
            "--show-config",
            action="store_true",
            help="print the effective configuration as JSON and exit",
        )
        if providers:
            p.add_argument("--extractor", choices=("local", "remote"), default="local")
            p.add_argument("--embedder", choices=("local", "remote"), default="local")
            p.add_argument("--model", default=None, help="remote chat model name")
            p.add_argument("--embed-model", default=None,
                           help="remote embedding model")
            p.add_argument("--dimension", type=_positive, default=None,
                           help=f"local embedder dimension (default {DEFAULT_DIMENSION})")
            p.add_argument("--coref", type=_on_off, default=True, metavar="on|off")
            p.add_argument("--gazetteer", default=None, help="entity-per-line file")
            p.add_argument("--aliases", default=None, help="alias<TAB>canonical file")
        if decomp:
            p.add_argument("--decomp", type=_on_off, default=True, metavar="on|off")
        if cache:
            p.add_argument("--cache", default=None, help="embedding cache file")

    def retrieval_knobs(p):
        p.add_argument("--k", type=_positive, default=_DEFAULTS.k)
        p.add_argument("--h", type=_positive, default=_DEFAULTS.h)
        p.add_argument("--token-limit", type=_positive,
                       default=_DEFAULTS.token_limit)

    index_parser = subs.add_parser("index", help="build, extend, or inspect an index")
    index_subs = index_parser.add_subparsers(required=True)

    p_build = command(index_subs, "build", _cmd_index_build)
    p_build.add_argument("--corpus", default=None, help="corpus JSONL path")
    p_build.add_argument("--out", default=None, help="index output path")
    p_build.add_argument("--policy", type=_policy, default="sentence",
                         help="sentence | fixed:N | passthrough")
    common(p_build, providers=True)

    p_add = command(index_subs, "add", _cmd_index_add)
    p_add.add_argument("--index", default=None)
    p_add.add_argument("--corpus", default=None, help="corpus JSONL of new chunks")
    common(p_add)

    p_stats = command(index_subs, "stats", _cmd_index_stats)
    p_stats.add_argument("--index", default=None)
    common(p_stats, cache=False)

    p_retrieve = command(subs, "retrieve", _cmd_retrieve,
                         help="run a query against an index")
    p_retrieve.add_argument("--index", default=None)
    p_retrieve.add_argument("--query", type=_text, default=None)
    retrieval_knobs(p_retrieve)
    p_retrieve.add_argument("--weights", type=_on_off,
                            default=_DEFAULTS.use_entity_weights, metavar="on|off")
    p_retrieve.add_argument("--trace", default=None, help="write the trace JSON here")
    common(p_retrieve, decomp=True)

    p_eval = command(subs, "eval", _cmd_eval,
                     help="evaluate over a HotpotQA-format dataset")
    p_eval.add_argument("--dataset", default=None)
    p_eval.add_argument("--report", default=None, help="report JSON output path")
    p_eval.add_argument("--csv", default=None, help="optional per-example CSV path")
    p_eval.add_argument("--scope", choices=("per-example", "pooled"),
                        default="per-example")
    retrieval_knobs(p_eval)
    common(p_eval, providers=True, decomp=True)

    return parser


def _extractor_config(args) -> ExtractorConfig:
    return ExtractorConfig(
        provider=args.extractor,
        coreference_enabled=args.coref,
        decomposition_enabled=getattr(args, "decomp", True),
        gazetteer=load_gazetteer(args.gazetteer) if args.gazetteer else (),
        aliases=load_aliases(args.aliases) if args.aliases else (),
        remote_model=args.model,
    )


def _embedder_config(args) -> EmbedderConfig:
    model = {} if args.embed_model is None else {"remote_model": args.embed_model}
    dimension = DEFAULT_DIMENSION if args.dimension is None else args.dimension
    return EmbedderConfig(provider=args.embedder, dimension=dimension, **model)


def _params(args) -> RetrievalParams:
    return RetrievalParams(  # eval has no --weights flag
        k=args.k, h=args.h, token_limit=args.token_limit,
        use_entity_weights=args.command == "retrieve" and args.weights,
    )


def _check_providers(args) -> None:
    for flag, provider, kind in (
        ("model", "extractor", "remote"),
        ("embed_model", "embedder", "remote"),
        ("dimension", "embedder", "local"),
    ):
        if vars(args).get(flag) is not None and vars(args)[provider] != kind:
            raise _UsageError(f"--{flag.replace('_', '-')} needs --{provider} {kind}")


def _effective_config(args) -> dict:
    config = {
        "command": args.command,
        "flags": {dest: value for dest, value in vars(args).items()
                  if dest not in _DISPATCH},
        "env": {
            API_KEY_ENV: "set" if os.environ.get(API_KEY_ENV) else "unset",
            API_BASE_ENV: os.environ.get(API_BASE_ENV) or "unset",
        },
    }
    if args.command in ("retrieve", "eval"):
        config["params"] = _params(args).to_document()
    return config


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


def _write(path: str, text: str) -> None:
    with replacing(path) as handle:
        handle.write(text.encode("utf-8"))


def _cache(args) -> EmbeddingCache | None:
    return EmbeddingCache(args.cache) if args.cache else None


def _cmd_index_build(args) -> int:
    _require(args, "corpus", "out")
    policy = SegmentationPolicy.parse(args.policy)
    corpus = ingest_corpus(read_lines(args.corpus), policy)
    index = build_index(corpus, _extractor_config(args), _embedder_config(args),
                        cache=_cache(args))
    save_index(index, args.out)
    report = compute_ritu(index.accounting)
    document = {
        "index": args.out,
        "documents": len(corpus.documents),
        "chunks": len(index.chunk_catalog),
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
    corpus = ingest_corpus(read_lines(args.corpus), index.config.segmentation)
    updated = add_chunks(index, list(corpus.chunks), index.config.extractor,
                         index.config.embedder, cache=_cache(args))
    save_index(updated, args.index)
    document = {
        "index": args.index,
        "added_chunks": len(corpus.chunks),
        "chunks": len(updated.chunk_catalog),
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
    extractor = index.config.extractor
    document = {
        "chunks": len(index.chunk_catalog),
        "entities": len(index.inverted_map),
        "tuic": report.tuic,
        "tctc": report.tctc,
        "ritu": report.ritu,
        "breakdown": dict(sorted(report.breakdown.items())),
        **index.config.to_document(),
        "config_fingerprint": index.config.fingerprint,
    }
    _emit(args, document, [
        f"chunks: {document['chunks']}",
        f"entities: {document['entities']}",
        f"TUIC: {report.tuic}",
        f"TCTC: {report.tctc}",
        f"RITU: {report.ritu:.4f}",
        f"providers: extractor {extractor.provider}, coreference "
        f"{'on' if extractor.coreference_enabled else 'off'}, "
        f"embedder {document['embedder_id']}",
    ])
    return 0


def _cmd_retrieve(args) -> int:
    _require(args, "index", "query")
    index = load_index(args.index)
    extractor = replace(index.config.extractor, decomposition_enabled=args.decomp)
    context = retrieve(index, args.query, _params(args), extractor, cache=_cache(args))
    if args.trace:
        _write(args.trace, canonical_json(context.trace.to_document()) + "\n")
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
    _write(args.report, canonical_json(document) + "\n")
    if args.csv:
        rows = [row.to_document() for row in report.per_example]
        text = io.StringIO(newline="")
        writer = csv.DictWriter(text, list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        _write(args.csv, text.getvalue())
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
        _check_providers(args)
        if args.show_config:
            print(canonical_json(_effective_config(args)))
            return 0
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SlimRagError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
