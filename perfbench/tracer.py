"""Span tracing from outside the program, at slimrag's module boundaries.

The tracer replaces each layer function listed in ``LAYERS`` with a wrapper
in every ``slimrag`` module namespace that holds it, so calls made through
an import (``retrieval`` calling ``embedding.top_k_entities``) and calls
between stages of one module (``retrieve`` calling ``score_chunk``) are both
seen. No file under ``src/`` changes. A layer function that the program no
longer defines is reported by :meth:`Tracer.install`, and a counter hook
that no longer fits the program raises: either fails the run, so the tracer
is updated together with the program instead of reading zero.

Each call becomes a span ``(layer, start, end, parent span, query id)``,
kept in memory. Self time is a span's duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
Counter hooks run after their span closes, so their cost lands in the
caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "corpus": ("ingest_corpus", "corpus_from_chunks"),
    "tokenization": ("count_tokens",),
    "extraction": ("extract_entities_with_usage", "plan_query"),
    "embedding": ("embed", "embed_many", "top_k_entities"),
    "index": ("build_index", "add_chunks", "lookup", "save_index", "load_index"),
    "retrieval": (
        "retrieve", "match_query_entities", "collect_hit_chunks",
        "score_chunk", "assemble_context",
    ),
    "evalharness": ("run_eval",),
}


def _count_arg(position: int, keyword: str, counter: str):
    """Hook adding ``len(argument)`` to a counter."""

    def hook(tracer, args, kwargs, result):
        value = args[position] if len(args) > position else kwargs[keyword]
        tracer.counters[counter] += len(value)

    return hook


def _embed_hook(tracer, args, kwargs, result):
    tracer.texts.add(args[0] if args else kwargs["text"])


def _build_hook(tracer, args, kwargs, result):
    corpus = args[0] if args else kwargs["corpus"]
    tracer.counters["chunks_indexed"] += len(corpus.chunks)


def _retrieve_hook(tracer, args, kwargs, result):
    tracer.counters["queries"] += 1
    tracer.counters["candidates"] += result.trace.candidate_count
    tracer.counters["selected"] += len(result.trace.selected)


HOOKS = {
    "embedding.embed": _embed_hook,
    "embedding.top_k_entities": _count_arg(1, "store", "entities_scanned"),
    "index.build_index": _build_hook,
    "index.add_chunks": _count_arg(1, "new_chunks", "chunks_indexed"),
    "retrieval.retrieve": _retrieve_hook,
}


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.spans: list[tuple | None] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.texts: set[str] = set()
        self.query_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def install(self) -> list[str]:
        """Wrap every layer function; return the layers not found."""
        missing = []
        modules = [
            module for name, module in sys.modules.items()
            if module is not None and (name == "slimrag" or name.startswith("slimrag."))
        ]
        for module_name, functions in LAYERS.items():
            home = sys.modules.get(f"slimrag.{module_name}")
            for function in functions:
                layer = f"{module_name}.{function}"
                original = getattr(home, function, None)
                if original is None:
                    missing.append(layer)
                    continue
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        return missing

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, fn):
        layer_id = len(self.layers)
        self.layers.append(layer)
        hook = HOOKS.get(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (layer_id, start, end, parent, self.query_id)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def clear(self) -> None:
        """Drop recorded spans and counters, e.g. those a forked child
        inherited from its parent."""
        del self.spans[:]
        self.counters.clear()
        self.texts.clear()

    def export(self) -> dict:
        """JSON-able state, for a forked child to hand back to its parent."""
        return {
            "layers": self.layers,
            "spans": self.spans,
            "counters": dict(self.counters),
            "texts": sorted(self.texts),
        }

    def absorb(self, exported: dict) -> None:
        """Append a child's spans and counters to this tracer's own."""
        offset = len(self.spans)
        ids = {i: self._layer_id(name) for i, name in enumerate(exported["layers"])}
        for layer_id, start, end, parent, query in exported["spans"]:
            self.spans.append(
                (ids[layer_id], start, end, parent + offset if parent >= 0 else -1, query)
            )
        for name, value in exported["counters"].items():
            self.counters[name] += value
        self.texts.update(exported["texts"])

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per layer: (calls, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            layer = self.layers[span[0]]
            calls[layer] += 1
            self_s[layer] += span[2] - span[1] - child_time[i]
        return {layer: (calls[layer], self_s[layer]) for layer in calls}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for layer_id, start, end, parent, query in filter(None, self.spans):
                out.write(
                    json.dumps(
                        {
                            "name": self.layers[layer_id],
                            "start": start - self._origin,
                            "end": end - self._origin,
                            "parent": parent,
                            "query": query,
                        }
                    )
                    + "\n"
                )
