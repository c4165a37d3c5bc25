"""slimrag benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

The seed makes every input; the program receives only the generated inputs.
Human-readable lines come first, then, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the run also makes one traced pass and reports the
per-layer ones, including the measured tracing overhead, and writes the
spans to ``.perfbench/spans-<workload>.jsonl``. Every time is reported at
reference speed (``harness.Run.scale``; see README.md).

A failed operation or output check counts in ``failed``, and the run then
exits with code 1. At the default seed, index and trace digests and the
eval quality figures must equal those recorded in ``expected.json``; a
mismatch prints both values, so a change that means to alter outputs edits
that file by hand.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
DEFAULT_SEED = 1
EXPECTED = HERE / "expected.json"

# Per-layer metrics: name -> unit. ``<module>.<function>.s`` is self time
# summed over the traced pass, ``.calls`` its call count.
PER_LAYER = {
    "corpus.ingest_corpus.s": "s",
    "corpus.corpus_from_chunks.s": "s",
    "tokenization.count_tokens.calls": "count",
    "tokenization.count_tokens.s": "s",
    "tokenization.calls_per_chunk": "ratio",
    "extraction.extract_entities_with_usage.calls": "count",
    "extraction.extract_entities_with_usage.s": "s",
    "extraction.plan_query.s": "s",
    "embedding.top_k_entities.calls": "count",
    "embedding.top_k_entities.s": "s",
    "embedding.entities_scanned": "count",
    "embedding.embed.calls": "count",
    "embedding.embed.s": "s",
    "embedding.embed.distinct_ratio": "ratio",
    "embedding.embed_many.s": "s",
    "retrieval.score_chunk.calls": "count",
    "retrieval.score_chunk.s": "s",
    "retrieval.candidates_per_query": "count",
    "retrieval.selected_per_candidate": "ratio",
    "retrieval.match_query_entities.s": "s",
    "retrieval.collect_hit_chunks.s": "s",
    "retrieval.assemble_context.s": "s",
    "retrieval.retrieve.s": "s",
    "index.lookup.calls": "count",
    "index.lookup.s": "s",
    "index.build_index.s": "s",
    "index.add_chunks.s": "s",
    "index.save_index.s": "s",
    "index.load_index.s": "s",
    "index.file_bytes": "bytes",
    "index.entities": "count",
    "evalharness.run_eval.s": "s",
    "tracing.overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def at_reference(value: float, unit: str, scale: float) -> float:
    """A timing or rate as it would read at reference speed."""
    if unit in ("s", "ms"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def layer_metrics(run) -> dict[str, float]:
    totals = run.tracer.totals()
    counters = run.tracer.counters
    values: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("s", "calls") and layer.count(".") == 1:
            calls, self_s = totals.get(layer, (0, 0.0))
            values[name] = self_s * run.traced_scale if stat == "s" else calls
    calls = {layer: count for layer, (count, _) in totals.items()}
    values.update({
        "tokenization.calls_per_chunk": _ratio(
            calls.get("tokenization.count_tokens", 0), counters["chunks_indexed"]
        ),
        "embedding.entities_scanned": counters["entities_scanned"],
        "embedding.embed.distinct_ratio": _ratio(
            len(run.tracer.texts), calls.get("embedding.embed", 0)
        ),
        "retrieval.candidates_per_query": _ratio(counters["candidates"], counters["queries"]),
        "retrieval.selected_per_candidate": _ratio(counters["selected"], counters["candidates"]),
        "index.file_bytes": run.facts.get("index.file_bytes", 0),
        "index.entities": run.facts.get("index.entities", 0),
        "tracing.overhead": run.overhead,
    })
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SOURCE))
    import slimrag

    if Path(slimrag.__file__).resolve().parent.parent != SOURCE:
        print(f"slimrag was imported from {slimrag.__file__}, not from {SOURCE}",
              file=sys.stderr)
        return 2

    from harness import Run, median, p90, peak_rss_mb
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=scratch)
    run = Run(args.seed, args.seconds, bool(args.trace), workdir, expected)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = run.failed == 0 and bool(run.ops)
    scale = run.scale
    report = {name: (at_reference(value, unit, scale), unit)
              for name, (value, unit) in run.report.items()}
    end_to_end = {
        "setup_s": report["setup_s"],
        "p50_ms": (median(run.ops) * 1e3 * scale if run.ops else 0.0, "ms"),
        "p90_ms": (p90(run.ops) * 1e3 * scale if run.ops else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ritu": (run.ritu, "ratio"),
    }
    report.update({
        "peak_rss_mb": end_to_end["peak_rss_mb"],
        "error_rate": (_ratio(run.failed, run.attempted), "ratio"),
    })
    print(f"workload {args.workload}, seed {args.seed}, {len(run.ops)} operations; "
          f"timings at reference speed: as measured times {scale:.4f}, the "
          f"reference time over the median of {len(run.reference_times)} reference timings")
    for name, (value, unit) in {**report, **end_to_end}.items():
        print(f"  {name} = {value:.6g} {unit}")
    if run.ops:
        print(f"  p50_ms_as_measured = {median(run.ops) * 1e3:.6g} ms")

    if args.trace:
        values = layer_metrics(run)
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {PER_LAYER[name]}")
        run.tracer.write(scratch / f"spans-{args.workload}.jsonl")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
