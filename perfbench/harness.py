"""Shared machinery of the benchmark: run bookkeeping, forked children,
percentiles and the output checks that several workloads use."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from statistics import median
import time
import traceback

import slimrag

from tracer import Tracer

EXTRACTOR = slimrag.ExtractorConfig()
EMBEDDER = slimrag.EmbedderConfig()
PARAMS = slimrag.RetrievalParams()
SENTENCE = slimrag.SegmentationPolicy("sentence")
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# Median time of one reference() call on the machine of baseline.json;
# every timing is reported at that speed (see Run.scale).
REFERENCE_S = 1.5e-3
REFERENCE_VECTORS = [
    tuple(((i * 7919 + j * 104729) % 1000) / 1000.0 for j in range(64)) for i in range(20)
]


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as handle:
        return sha256(handle.read())


def trace_digest(context) -> str:
    """Digest of a retrieval trace in slimrag's canonical JSON form."""
    return sha256(
        json.dumps(
            context.trace.to_document(),
            sort_keys=True, ensure_ascii=False, separators=(",", ":"),
        )
    )


def chunk_key(chunk_id: str) -> tuple[str, int]:
    doc_id, _, position = chunk_id.rpartition("#")
    return doc_id, int(position)


def context_ok(context) -> bool:
    """At most H chunks, within the token limit, in (doc_id, position) order."""
    keys = [chunk_key(chunk_id) for chunk_id, _ in context.chunks]
    return (
        len(keys) <= PARAMS.h
        and context.total_tokens <= PARAMS.token_limit
        and keys == sorted(keys)
    )


def retrieve(index, query: str):
    return slimrag.retrieve(index, query, PARAMS, EXTRACTOR, EMBEDDER)


def reference() -> float:
    """Fixed pure-Python work: float multiply-adds over vector tuples, as
    in slimrag's similarity loops. Its time follows the speed the machine
    gives this process at the moment. It allocates no container, so it
    never triggers a collection of the program's heap."""
    total = 0.0
    for v in REFERENCE_VECTORS:
        for w in REFERENCE_VECTORS:
            acc = 0.0
            for k in range(len(v)):
                acc += v[k] * w[k]
            total += acc
    return total


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_op_median(passes: list[list[float]]) -> list[float]:
    """Each operation's median latency over the passes that timed it."""
    return [median(list(samples)) for samples in zip(*passes)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child and return its JSON-able result.

    The child starts with this process's memory, so it sees the loaded index
    but none of the caches that later work in the parent fills. An exception
    in the child is raised here as RuntimeError with the child's traceback.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = json.dumps({"result": fn(*args)})
        except BaseException:  # the child must reach os._exit, whatever happens
            payload = json.dumps({"error": traceback.format_exc()})
        try:
            with os.fdopen(write_fd, "w", encoding="utf-8") as out:
                out.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "r", encoding="utf-8") as inp:
            data = inp.read()
    finally:
        os.waitpid(pid, 0)
    reply = json.loads(data) if data else {"error": "child exited without a reply"}
    if "error" in reply:
        raise RuntimeError(reply["error"])
    return reply["result"]


class Run:
    """Bookkeeping of one benchmark run: operations, checks, set-up times."""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: str,
                 expected: dict | None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.expected = expected  # recorded digests; only for the default seed
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer() if trace else None
        self.reference_times: list[float] = []
        self._untraced_references: int | None = None  # how many came before the traced pass
        self.report: dict[str, tuple[float, str]] = {}
        self.facts: dict[str, float] = {}
        # Set by the workload: latency of each operation in seconds, the
        # index's RITU, and traced over untraced latency minus one.
        self.ops: list[float] = []
        self.ritu = 0.0
        self.overhead = 0.0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def attempt(self, fn, *args, ops: int = 1):
        """``ops`` operations run by one call; a raise counts them all as
        failed and returns None."""
        self.attempted += ops
        try:
            return fn(*args)
        except Exception:
            self.failed += ops
            traceback.print_exc()
            return None

    def calibrate(self) -> None:
        """Time one :func:`reference` call; call it between operations."""
        start = time.perf_counter()
        reference()
        self.reference_times.append(time.perf_counter() - start)

    @property
    def scale(self) -> float:
        """Factor that turns this run's untraced timings into timings at
        reference speed: the nominal reference time over the median one.

        On a shared virtual machine the speed a process gets drifts in
        waves of minutes (by up to 1.7 times on the one of baseline.json),
        which longer runs do not average out. The
        reference is timed between the operations it scales, so a timing
        times this factor keeps the program's cost and loses most of the
        wave."""
        return REFERENCE_S / median(self.reference_times[:self._untraced_references])

    @property
    def traced_scale(self) -> float:
        """The same factor for the traced pass, from its own reference times."""
        traced = self.reference_times[self._untraced_references:]
        return REFERENCE_S / median(traced) if traced else self.scale

    def set_overhead(self, traced: float, untraced: float) -> None:
        """Tracing overhead: a traced latency over the untraced one, each
        at reference speed, minus one."""
        self.overhead = traced * self.traced_scale / (untraced * self.scale) - 1.0

    def child(self, fn, *args):
        """:func:`in_child`, handing back the child's reference times and,
        when traced, its spans."""
        tracer = self.tracer if self.tracer is not None and self.tracer.installed else None

        def body():
            self.reference_times.clear()
            if tracer is not None:
                tracer.clear()
            result = fn(*args)
            return {
                "result": result,
                "reference": self.reference_times,
                "trace": tracer.export() if tracer else None,
            }

        reply = in_child(body)
        self.reference_times.extend(reply["reference"])
        if reply["trace"] is not None:
            self.tracer.absorb(reply["trace"])
        return reply["result"]

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)

    def check_recorded(self, key: str, value) -> None:
        """Compare a digest or quality figure with the one recorded in
        expected.json for the default seed; other seeds have nothing
        recorded."""
        if self.expected is None:
            return
        recorded = self.expected.get(key)
        self.check(
            f"{key} is {value!r}, expected.json records {recorded!r}",
            recorded == value,
        )

    def setup(self, prepare):
        """Run ``prepare`` until SETUP_SECONDS have gone, at least
        SETUP_REPEATS times; keep the last result. ``setup_s`` is the
        median time."""
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            result = None  # free the previous result before making the next
            gc.collect()
            start = time.perf_counter()
            result = prepare()
            times.append(time.perf_counter() - start)
            self.calibrate()
        self.report["setup_s"] = (median(times), "s")
        return result

    def repeat(self, run_pass, minimum: int = 1) -> list:
        """Run timed passes until ``--seconds`` have gone, at least ``minimum``."""
        passes = []
        start = time.perf_counter()
        while len(passes) < minimum or time.perf_counter() - start < self.seconds:
            passes.append(run_pass())
        return passes

    def traced(self, fn, *args, ops: int = 1):
        """Run ``fn`` once with the tracer installed, as :meth:`attempt`
        does. A layer function the tracer cannot find fails the run."""
        self._untraced_references = len(self.reference_times)
        missing = self.tracer.install()
        self.check(f"tracer finds every layer function (missing: {missing})", not missing)
        try:
            return self.attempt(fn, *args, ops=ops)
        finally:
            self.tracer.uninstall()
