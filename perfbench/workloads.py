"""The benchmark's workloads, each driving slimrag's public Python API.

All inputs come from one client in one process, as a closed loop: the next
operation starts when the previous one has returned. Repeated passes run in
forked children of a process that has only prepared its inputs (and, where
the workload needs one, loaded its index), so every pass starts with the
same empty in-process caches, the way a fresh ``slimrag`` command does. The
one exception is ``query``, which measures the warm state on purpose.

Each workload sets ``run.ops`` (latency in seconds of each operation, after
taking each operation's median over the passes), ``run.ritu``,
the tracing overhead when traced, and the figures it reports under the names
users know (``run.report``).
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import time

import slimrag

import inputs
from harness import (
    EMBEDDER,
    EXTRACTOR,
    PARAMS,
    SENTENCE,
    context_ok,
    file_digest,
    in_child,
    median,
    p90,
    per_op_median,
    retrieve,
    sha256,
    trace_digest,
)

BUILD_DOCS = 1500
BUILD_MIN_CYCLES = 5
QUERY_DOCS = 400
QUERIES = 100
QUERY_MIN_PASSES = 2
COLD_MIN_PASSES = 1
GROW_DOCS = 600
GROW_BATCH_DOCS = 3
GROW_MIN_SEQUENCES = 2
EVAL_EXAMPLES = 300
EVAL_MIN_PASSES = 3


def _build_and_save(lines: list[str], path: str) -> str:
    corpus = slimrag.ingest_corpus(lines, SENTENCE)
    index = slimrag.build_index(corpus, EXTRACTOR, EMBEDDER)
    slimrag.save_index(index, path)
    return file_digest(path)


def _ritu(accounting) -> float:
    return accounting.tuic / accounting.tctc


def _completed(passes: list[list]) -> list[list]:
    """Drop operations that failed in any pass (already counted as failed)."""
    keep = [all(p[i] is not None for p in passes) for i in range(len(passes[0]))]
    return [[op for op, ok in zip(p, keep) if ok] for p in passes]


def _same_traces(run, passes: list[list], digest_at: int, what: str) -> str:
    """Check every pass gave the first pass's trace digests; return one
    digest over them."""
    digests = [op[digest_at] if op is not None else None for op in passes[0]]
    for later in passes[1:]:
        run.check(
            f"{what}: every pass gives the same traces",
            [op[digest_at] if op is not None else None for op in later] == digests,
        )
    return sha256("\n".join(map(str, digests)))


def build(run) -> None:
    """Write path of ``slimrag index build``: ingest, build, save, load."""
    corpus_path = run.path("corpus.jsonl")
    index_path = run.path("index.json")
    resave_path = run.path("resaved.json")

    def prepare():
        rng = random.Random(run.seed)
        lines = inputs.corpus_lines(rng, inputs.Names(rng), BUILD_DOCS)
        with open(corpus_path, "w", encoding="utf-8") as out:
            out.write("\n".join(lines) + "\n")
        with open(corpus_path, encoding="utf-8") as handle:
            return slimrag.ingest_corpus(handle, SENTENCE)

    corpus = run.setup(prepare)
    run.check("build: the generated corpus ingests into "
              f"{BUILD_DOCS * inputs.SENTENCES_PER_DOC} chunks",
              len(corpus.chunks) == BUILD_DOCS * inputs.SENTENCES_PER_DOC)
    del corpus

    def cycle(check: bool) -> dict:
        t0 = time.perf_counter()
        with open(corpus_path, encoding="utf-8") as handle:
            corpus = slimrag.ingest_corpus(handle, SENTENCE)
        t1 = time.perf_counter()
        run.calibrate()
        t2 = time.perf_counter()
        index = slimrag.build_index(corpus, EXTRACTOR, EMBEDDER)
        t3 = time.perf_counter()
        run.calibrate()
        t4 = time.perf_counter()
        slimrag.save_index(index, index_path)
        t5 = time.perf_counter()
        run.calibrate()
        t6 = time.perf_counter()
        loaded = slimrag.load_index(index_path)
        t7 = time.perf_counter()
        run.calibrate()
        out = {
            "stages": [t1 - t0, t3 - t2, t5 - t4, t7 - t6],
            "digest": file_digest(index_path),
            "bytes": os.path.getsize(index_path),
            "entities": len(loaded.inverted_map),
            "ritu": _ritu(loaded.accounting),
        }
        if check:
            slimrag.save_index(loaded, resave_path)
            out["resave_identical"] = file_digest(resave_path) == out["digest"]
            out["tctc_ok"] = loaded.accounting.tctc == sum(
                slimrag.count_tokens(chunk.text, corpus.tokenizer)
                for chunk in corpus.chunks
            )
        return out

    numbers = itertools.count()
    cycles = run.repeat(
        lambda: run.attempt(run.child, cycle, next(numbers) == 0),
        minimum=BUILD_MIN_CYCLES,
    )
    done = [c for c in cycles if c is not None]
    if not done:
        return
    first = done[0]
    run.check("build: save, load, save gives identical bytes", first.get("resave_identical", False))
    run.check("build: TCTC equals the sum of chunk token counts", first.get("tctc_ok", False))
    run.check("build: every cycle writes the same index", len({c["digest"] for c in done}) == 1)
    run.check_recorded("build.index", first["digest"])

    stages = [median(list(s)) for s in zip(*(c["stages"] for c in done))]
    run.ops = [sum(c["stages"]) for c in done]
    run.ritu = first["ritu"]
    run.facts.update({"index.file_bytes": first["bytes"], "index.entities": first["entities"]})
    run.report.update({
        "build_s": (stages[0] + stages[1], "s"),
        "save_s": (stages[2], "s"),
        "load_s": (stages[3], "s"),
        "index_bytes_per_corpus_byte": (first["bytes"] / os.path.getsize(corpus_path), "ratio"),
        "ritu": (run.ritu, "ratio"),
    })
    if run.tracer is not None:
        traced = run.traced(run.child, cycle, False)
        if traced is not None:
            run.set_overhead(sum(traced["stages"]), median(run.ops))


def _query_setup(run, docs: int, count: int):
    """Build and save the index in a child, load it here: the parent holds
    the loaded index and nothing that building it cached."""
    index_path = run.path("index.json")

    def prepare():
        rng = random.Random(run.seed)
        names = inputs.Names(rng)
        lines = inputs.corpus_lines(rng, names, docs)
        queries = inputs.query_stream(rng, names, count)
        digest = in_child(_build_and_save, lines, index_path)
        return slimrag.load_index(index_path), queries, digest

    index, queries, digest = run.setup(prepare)
    run.check_recorded("query.index", digest)
    run.ritu = _ritu(index.accounting)
    run.facts.update({
        "index.file_bytes": os.path.getsize(index_path),
        "index.entities": len(index.inverted_map),
    })
    return index, queries


def _timed_query(index, query: str) -> list:
    start = time.perf_counter()
    context = retrieve(index, query)
    latency = time.perf_counter() - start
    return [latency, trace_digest(context), context_ok(context)]


def _check_contexts(run, passes: list[list], what: str) -> None:
    run.check(
        f"{what}: every context has at most H chunks, fits the token limit "
        "and is in (doc_id, position) order",
        all(op[2] for p in passes for op in p if op is not None),
    )


def _query_pass(run, index, queries: list[str], timed) -> list:
    results = []
    for i, q in enumerate(queries):
        if run.tracer is not None:
            run.tracer.query_id = i
        results.append(run.attempt(timed, index, q))
        run.calibrate()
    return results


def _report_queries(run, run_pass, warmup: list[list], timed: list[list], name: str) -> None:
    """Checks over every pass, then latency figures from the timed ones."""
    _check_contexts(run, warmup + timed, name)
    run.check_recorded("query.traces", _same_traces(run, warmup + timed, 1, name))
    run.ops = per_op_median([[op[0] for op in p] for p in _completed(timed)])
    prefix = "cold_query" if name == "cold" else "query"
    run.report.update({
        f"{prefix}_p50_ms": (median(run.ops) * 1e3, "ms"),
        f"{prefix}_p90_ms": (p90(run.ops) * 1e3, "ms"),
    })
    if run.tracer is not None:
        traced = run.traced(run_pass)
        if traced is not None:
            run.set_overhead(median([op[0] for op in traced if op is not None]), median(run.ops))


def query(run) -> None:
    """Warm ``retrieve`` after one untimed pass over the query stream."""
    index, queries = _query_setup(run, QUERY_DOCS, QUERIES)

    def run_pass():
        return _query_pass(run, index, queries, _timed_query)

    warmup = run_pass()
    passes = run.repeat(run_pass, minimum=QUERY_MIN_PASSES)
    _report_queries(run, run_pass, [warmup], passes, "query")


def cold(run) -> None:
    """Each ``retrieve`` in its own child, forked after the load and before
    any query: what one ``slimrag retrieve`` call costs once loaded."""
    index, queries = _query_setup(run, QUERY_DOCS, QUERIES)
    gc.freeze()  # the children then share the index's pages instead of copying them

    def run_pass():
        return _query_pass(
            run, index, queries, lambda *args: run.child(_timed_query, *args)
        )

    passes = run.repeat(run_pass, minimum=COLD_MIN_PASSES)
    _report_queries(run, run_pass, [], passes, "cold")

    def in_turn() -> list[str]:
        return [trace_digest(retrieve(index, q)) for q in queries]

    warm = run.attempt(in_child, in_turn)
    run.check(
        "cold: one process answering the stream in turn, its caches filling, "
        "gives the cold traces",
        warm is not None
        and all(op is None or op[1] == digest for op, digest in zip(passes[0], warm)),
    )


def grow(run) -> None:
    """Reads beside writes: rounds of ingest + ``add_chunks`` of a few new
    documents, then one query on the grown index."""
    base_path = run.path("base.json")
    grown_path = run.path("grown.json")
    scratch_path = run.path("scratch.json")

    def prepare():
        rng = random.Random(run.seed)
        names = inputs.Names(rng)
        lines = inputs.corpus_lines(rng, names, GROW_DOCS)
        half = GROW_DOCS // 2
        batches = [lines[i:i + GROW_BATCH_DOCS] for i in range(half, GROW_DOCS, GROW_BATCH_DOCS)]
        queries = inputs.query_stream(rng, names, len(batches))
        in_child(_build_and_save, lines[:half], base_path)
        return slimrag.load_index(base_path), lines, batches, queries

    base, lines, batches, queries = run.setup(prepare)
    gc.freeze()

    def sequence(check: bool) -> dict:
        index = base
        rounds = []
        for i, (batch, q) in enumerate(zip(batches, queries)):
            if run.tracer is not None:
                run.tracer.query_id = i
            t0 = time.perf_counter()
            new = slimrag.ingest_corpus(batch, SENTENCE)
            t1 = time.perf_counter()
            index = slimrag.add_chunks(index, list(new.chunks), EXTRACTOR, EMBEDDER)
            t2 = time.perf_counter()
            context = retrieve(index, q)
            t3 = time.perf_counter()
            rounds.append([t3 - t0, t2 - t1, t3 - t2, trace_digest(context), context_ok(context)])
            run.calibrate()
        if not check:
            return {"rounds": rounds}
        slimrag.save_index(index, grown_path)
        return {
            "rounds": rounds,
            "digest": file_digest(grown_path),
            "bytes": os.path.getsize(grown_path),
            "entities": len(index.inverted_map),
            "ritu": _ritu(index.accounting),
        }

    ops = 2 * len(batches)
    sequences = run.repeat(
        lambda: run.attempt(run.child, sequence, True, ops=ops), minimum=GROW_MIN_SEQUENCES
    )
    done = [s for s in sequences if s is not None]
    if not done:
        return
    scratch = run.attempt(in_child, _build_and_save, lines, scratch_path)
    run.check(
        "grow: the grown index serializes identical to a build from scratch",
        all(s["digest"] == scratch for s in done),
    )
    run.check_recorded("grow.index", done[0]["digest"])
    _check_contexts(run, [[r[2:] for r in s["rounds"]] for s in done], "grow")
    run.check_recorded("grow.traces", _same_traces(run, [s["rounds"] for s in done], 3, "grow"))

    columns = [per_op_median([[r[k] for r in s["rounds"]] for s in done]) for k in range(3)]
    run.ops, adds, reads = columns
    run.ritu = done[0]["ritu"]
    run.facts.update({"index.file_bytes": done[0]["bytes"], "index.entities": done[0]["entities"]})
    run.report.update({
        "add_p50_ms": (median(adds) * 1e3, "ms"),
        "query_p50_ms": (median(reads) * 1e3, "ms"),
        "query_p90_ms": (p90(reads) * 1e3, "ms"),
    })
    if run.tracer is not None:
        traced = run.traced(run.child, sequence, False, ops=ops)
        if traced is not None:
            run.set_overhead(median([r[0] for r in traced["rounds"]]), median(run.ops))


def eval_(run) -> None:
    """Per-example ``run_eval`` over a synthetic HotpotQA-format dataset."""
    dataset_path = run.path("dataset.json")

    def prepare():
        rng = random.Random(run.seed)
        dataset = inputs.eval_dataset(rng, inputs.Names(rng), EVAL_EXAMPLES)
        with open(dataset_path, "w", encoding="utf-8") as out:
            json.dump(dataset, out)
        return slimrag.load_hotpotqa(dataset_path)

    examples = run.setup(prepare)
    run.check("eval: every generated example loads", len(examples) == EVAL_EXAMPLES)

    def run_pass() -> list:
        results = []
        for i, example in enumerate(examples):
            if run.tracer is not None:
                run.tracer.query_id = i
            start = time.perf_counter()
            report = slimrag.run_eval([example], EXTRACTOR, EMBEDDER, PARAMS)
            latency = time.perf_counter() - start
            result = report.per_example[0]
            results.append([
                latency, result.trace_digest, result.score.recall, result.score.f1,
                report.ritu.tuic, report.ritu.tctc, report.failed_count,
            ])
            run.calibrate()
        return results

    passes = run.repeat(
        lambda: run.attempt(run.child, run_pass, ops=len(examples)), minimum=EVAL_MIN_PASSES
    )
    done = [p for p in passes if p is not None]
    if not done:
        return
    run.failed += sum(op[6] for p in done for op in p)
    run.check_recorded("eval.traces", _same_traces(run, done, 1, "eval"))

    first = done[0]
    recall = sum(op[2] for op in first) / len(first)
    f1 = sum(op[3] for op in first) / len(first)
    run.ritu = sum(op[4] for op in first) / sum(op[5] for op in first)
    for key, value in (("eval.recall", recall), ("eval.f1", f1), ("eval.ritu", run.ritu)):
        run.check_recorded(key, value)

    run.ops = per_op_median([[op[0] for op in p] for p in done])
    run.report.update({
        "eval_examples_per_s": (len(first) / median([sum(op[0] for op in p) for p in done]), "1/s"),
        "recall": (recall, "ratio"),
        "f1": (f1, "ratio"),
        "ritu": (run.ritu, "ratio"),
    })
    if run.tracer is not None:
        traced = run.traced(run.child, run_pass, ops=len(examples))
        if traced is not None:
            run.set_overhead(median([op[0] for op in traced]), median(run.ops))


WORKLOADS = {
    "build": build,
    "query": query,
    "cold": cold,
    "grow": grow,
    "eval": eval_,
}
