"""Entity-guided context retrieval.

The pipeline runs, in order: query decomposition, per-sub-query entity
extraction, entity weighting, per-query-entity top-K matching against the
indexed entity vectors (union = hit entity set), inverted-map lookup (union
= candidate chunks), dual-factor scoring ``score = phi_q * count`` where
``phi_q`` is the query-chunk cosine and ``count`` the number of distinct hit
entities in the chunk, top-H selection, greedy token-budget trimming, and
re-ordering by original document position. The weighted variant replaces
``count`` by the sum of the hit entities' weights, in sorted entity order.

Queries that yield no usable entities always fall back to every chunk as a
candidate with no hit entities, scored by ``phi_q`` alone (trace-labeled);
the fallback cannot be disabled. Both paths take every candidate's
``phi_q`` from one :func:`~slimrag.embedding.text_similarities` call, score
the candidates as one array, ``phi_q * max(count, 1)`` (which is
:func:`score_chunk`'s rule; the weighted variant calls it per candidate),
and rank them with one stable sort. Every text is embedded in one of three
calls kept apart: the query text and the query entities through
:func:`~slimrag.embedding.embed_many`, and the candidate chunks through
``text_similarities``. A remote embedder sends at most
``b = remote.EMBED_BATCH`` texts per request, so it makes at most
``1 + ceil(E / b) + ceil(C / b)`` requests for a query with ``E`` query
entities and ``C`` candidates (``1 + ceil(N / b)`` on the fallback over
``N`` chunks), retries aside.

Every intermediate set lands in the trace, which is canonically
serializable, so a run can be replayed and audited bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import (
    EmbedderConfig,
    EmbeddingCache,
    embed_many,
    text_similarities,
    top_k_entities,
)
from .extraction import ExtractorConfig, plan_query
from .index import (
    DECOMPOSITION_IN,
    DECOMPOSITION_OUT,
    EMBEDDING_IN,
    EXTRACTION_IN,
    EXTRACTION_OUT,
    EntityIndex,
    check_compatible,
    lookup,
)
from .metrics import ordered_sum
from .tokenization import count_tokens

CHUNK_SEPARATOR = "\n"


@dataclass(frozen=True)
class RetrievalParams:
    """Knobs of the retrieval phase; defaults match the evaluated setup.
    Every params that constructs is exactly its :meth:`to_document`: ``k``,
    ``h`` and ``token_limit`` are ints (not bools) and ``use_entity_weights``
    is a bool, or the constructor raises ValueError."""

    k: int = 5
    h: int = 10
    token_limit: int = 4096
    use_entity_weights: bool = False

    def __post_init__(self) -> None:
        if not all(type(knob) is int for knob in (self.k, self.h, self.token_limit)):
            raise ValueError("k, h, and token_limit must all be integers")
        if self.k < 1 or self.h < 1 or self.token_limit < 1:
            raise ValueError("k, h, and token_limit must all be >= 1")
        if type(self.use_entity_weights) is not bool:
            raise ValueError("use_entity_weights must be a bool")

    def to_document(self) -> dict:
        """The params document shared by the trace, the eval report config,
        and the CLI's ``--show-config``. The fallback cannot be disabled; its
        key stays so that every document written keeps its bytes."""
        return {
            "k": self.k,
            "h": self.h,
            "token_limit": self.token_limit,
            "use_entity_weights": self.use_entity_weights,
            "fallback_on_no_entities": True,
        }


@dataclass(frozen=True)
class ScoredChunk:
    """One candidate with its two scoring factors.

    On the similarity-only fallback path hit_count is 0, hit_entities is
    empty, and score equals phi_q.
    """

    chunk_id: str
    phi_q: float
    score: float
    hit_entities: frozenset[str]

    def __init__(
        self, chunk_id: str, phi_q: float, score: float, hit_entities: frozenset[str]
    ) -> None:
        # The generated frozen __init__ sets each field through
        # object.__setattr__; storing into __dict__ makes the same instance
        # in about half the time, and a retrieval makes one per candidate.
        fields = self.__dict__
        fields["chunk_id"] = chunk_id
        fields["phi_q"] = phi_q
        fields["score"] = score
        fields["hit_entities"] = hit_entities

    @property
    def hit_count(self) -> int:
        return len(self.hit_entities)


@dataclass
class Trace:
    """Audit record of one retrieval; sufficient to replay every step."""

    query: str
    params: dict
    sub_queries: list[str] = field(default_factory=list)
    query_entities: list[str] = field(default_factory=list)
    entity_weights: dict[str, float] = field(default_factory=dict)
    entity_matches: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    hit_entities: dict[str, float] = field(default_factory=dict)
    scored: list[ScoredChunk] = field(default_factory=list)
    selected: list[str] = field(default_factory=list)
    dropped_for_budget: list[str] = field(default_factory=list)
    final_order: list[str] = field(default_factory=list)
    scoring_variant: str = "count"
    fallback_used: bool = False
    empty_index: bool = False
    no_query_entities: bool = False
    budget_exhausted: bool = False
    token_usage: dict[str, int] = field(default_factory=dict)

    @property
    def candidate_count(self) -> int:
        """Every candidate is scored, so this is the number scored."""
        return len(self.scored)

    def to_document(self) -> dict:
        return {
            "query": self.query,
            "params": self.params,
            "sub_queries": self.sub_queries,
            "query_entities": self.query_entities,
            "entity_weights": self.entity_weights,
            "entity_matches": {
                e: [[entity, sim] for entity, sim in matches]
                for e, matches in self.entity_matches.items()
            },
            "hit_entities": self.hit_entities,
            "candidate_count": self.candidate_count,
            "scored": [
                {
                    "chunk_id": s.chunk_id,
                    "phi_q": s.phi_q,
                    "hit_count": s.hit_count,
                    "score": s.score,
                    "hit_entities": sorted(s.hit_entities),
                }
                for s in self.scored
            ],
            "selected": self.selected,
            "dropped_for_budget": self.dropped_for_budget,
            "final_order": self.final_order,
            "scoring_variant": self.scoring_variant,
            "fallback_used": self.fallback_used,
            "empty_index": self.empty_index,
            "no_query_entities": self.no_query_entities,
            "budget_exhausted": self.budget_exhausted,
            "token_usage": dict(sorted(self.token_usage.items())),
        }


@dataclass
class Context:
    """Final position-ordered context plus its audit trace."""

    chunks: list[tuple[str, str]]
    total_tokens: int
    text: str
    trace: Trace


def match_query_entities(
    query_entities: frozenset[str] | set[str],
    index: EntityIndex,
    k: int,
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None = None,
) -> tuple[dict[str, float], dict[str, list[tuple[str, float]]], int]:
    """Union of per-query-entity top-K matches.

    Returns (hit entity -> max similarity, per-query-entity match lists,
    embedding input tokens spent).
    """
    hits: dict[str, float] = {}
    per_source: dict[str, list[tuple[str, float]]] = {}
    spent = 0
    ordered = sorted(query_entities)
    columns, _ = embed_many(ordered, embedder, cache)
    for query_entity, column in zip(ordered, columns.T):
        spent += count_tokens(query_entity)
        matches = top_k_entities(column, index.vectors, k)
        per_source[query_entity] = matches
        for entity, similarity in matches:
            if entity not in hits or similarity > hits[entity]:
                hits[entity] = similarity
    return hits, per_source, spent


def collect_hit_chunks(
    hit_entities: dict[str, float] | set[str],
    index: EntityIndex,
) -> dict[str, frozenset[str]]:
    """Map each candidate chunk to the hit entities that point at it. Most
    chunks have one, so each hit entity's one-entity set is shared by its
    chunks, and a chunk's set grows by a union only on a second hit."""
    found: dict[str, frozenset[str]] = {}
    for entity in hit_entities:
        single = frozenset((entity,))
        for chunk_id in lookup(index, entity):
            got = found.get(chunk_id)
            found[chunk_id] = single if got is None else got | single
    return found


def score_chunk(
    phi_q: float,
    hit_entities: frozenset[str],
    weights: dict[str, float] | None = None,
) -> float:
    """The score of one chunk whose query-chunk cosine is ``phi_q``.

    With no hit entities (the fallback) the score is phi_q; without weights
    it is phi_q times the hit count; with weights it is phi_q times the sum
    of the hits' weights, added in sorted entity order so the float result
    does not depend on set iteration order.
    """
    if not hit_entities:
        return phi_q
    if weights is None:
        return phi_q * len(hit_entities)
    return phi_q * ordered_sum(weights[entity] for entity in sorted(hit_entities))


def assemble_context(
    scored: list[ScoredChunk],
    index: EntityIndex,
    params: RetrievalParams,
    trace: Trace,
) -> Context:
    """Top-H selection, greedy budget trim, position re-order, merge.
    ``scored`` is already ranked, by score descending and ties by chunk id
    ascending, as :func:`retrieve` ranks it; it is not sorted again."""
    trace.scored = scored
    selected = scored[:params.h]
    trace.selected = [s.chunk_id for s in selected]

    kept = list(selected)
    total = sum(index.chunk_catalog[s.chunk_id].token_count for s in kept)
    while kept and total > params.token_limit:
        dropped = kept.pop()  # lowest-ranked of the kept
        trace.dropped_for_budget.append(dropped.chunk_id)
        total -= index.chunk_catalog[dropped.chunk_id].token_count
    if not kept and selected:
        trace.budget_exhausted = True

    ordered = sorted(
        kept,
        key=lambda s: (
            index.chunk_catalog[s.chunk_id].doc_id,
            index.chunk_catalog[s.chunk_id].position,
        ),
    )
    chunks = [(s.chunk_id, index.chunk_catalog[s.chunk_id].text) for s in ordered]
    text = CHUNK_SEPARATOR.join(chunk_text for _, chunk_text in chunks)
    trace.final_order = [chunk_id for chunk_id, _ in chunks]
    # Token counts are additive over the separator join, so the kept total
    # is the count of the merged text.
    return Context(chunks=chunks, total_tokens=total, text=text, trace=trace)


def retrieve(
    index: EntityIndex,
    q: str,
    params: RetrievalParams | None = None,
    extractor: ExtractorConfig | None = None,
    embedder: EmbedderConfig | None = None,
    cache: EmbeddingCache | None = None,
) -> Context:
    """Run the full entity-guided retrieval pipeline for one query. The
    extractor and embedder default to the ones the index records
    (``index.config.extractor`` and ``index.config.embedder``). Providers
    the index does not record raise ConfigMismatchError; the extractor's
    ``decomposition_enabled`` may differ, since it shapes queries only."""
    if not q.strip():
        raise ValueError("query is empty")
    params = params or RetrievalParams()
    extractor = extractor or index.config.extractor
    embedder = embedder or index.config.embedder
    check_compatible(index, extractor, embedder)

    trace = Trace(query=q, params=params.to_document())
    plan, decomp_usage, extract_usage = plan_query(q, extractor)
    trace.sub_queries = list(plan.sub_queries)
    trace.query_entities = sorted(plan.query_entities)
    trace.entity_weights = dict(sorted(plan.entity_weights.items()))
    usage = {
        DECOMPOSITION_IN: decomp_usage.input_tokens,
        DECOMPOSITION_OUT: decomp_usage.output_tokens,
        EXTRACTION_IN: extract_usage.input_tokens,
        EXTRACTION_OUT: extract_usage.output_tokens,
        EMBEDDING_IN: 0,
    }
    trace.token_usage = usage

    if not index.chunk_catalog:
        trace.empty_index = True
        return Context(chunks=[], total_tokens=0, text="", trace=trace)

    q_column = embed_many([q], embedder, cache)[0][:, 0]
    usage[EMBEDDING_IN] += count_tokens(q)

    weights: dict[str, float] | None = None
    if not plan.query_entities or not index.vectors.names:
        trace.no_query_entities = not plan.query_entities
        trace.fallback_used = True
        candidates = dict.fromkeys(index.chunk_catalog, frozenset())
    else:
        hits, per_source, spent = match_query_entities(
            plan.query_entities, index, params.k, embedder, cache
        )
        usage[EMBEDDING_IN] += spent
        trace.entity_matches = per_source
        trace.hit_entities = dict(sorted(hits.items()))
        if params.use_entity_weights:
            # A hit entity's weight is the largest weight among the query
            # entities whose top-K retrieved it.
            trace.scoring_variant = "weighted"
            weights = {}
            for query_entity, matches in per_source.items():
                weight = plan.entity_weights.get(query_entity, 0.0)
                for entity, _ in matches:
                    weights[entity] = max(weights.get(entity, 0.0), weight)
        candidates = collect_hit_chunks(hits, index)

    chunk_ids = sorted(candidates)
    records = [index.chunk_catalog[chunk_id] for chunk_id in chunk_ids]
    phis = text_similarities(q_column, [record.text for record in records], embedder, cache)
    usage[EMBEDDING_IN] += sum(record.token_count for record in records)
    hit_sets = [candidates[chunk_id] for chunk_id in chunk_ids]
    return assemble_context(
        _ranked(chunk_ids, phis, hit_sets, weights), index, params, trace
    )


def _ranked(
    chunk_ids: list[str],
    phis: np.ndarray,
    hit_sets: list[frozenset[str]],
    weights: dict[str, float] | None,
) -> list[ScoredChunk]:
    """Each candidate scored by :func:`score_chunk`'s rule, bit for bit,
    ranked by score descending and ties by chunk id ascending; the
    ``chunk_ids`` are ascending, and ``phis`` and ``hit_sets`` follow them.

    Without weights the scores are one array, ``phis * max(count, 1)``:
    each count converts to float64 exactly, ``phi_q * count`` is one IEEE
    multiply in Python and in numpy, and the fallback's count of 0 becomes
    a multiply by 1.0, which keeps ``phi_q`` (``-0.0`` too). The weighted
    variant calls ``score_chunk`` per candidate. The candidates are in chunk
    id order, so a stable sort by ``-score`` breaks ties by chunk id, and
    ``-0.0`` and ``+0.0`` compare equal there as in ``sorted``."""
    phi_qs = phis.tolist()
    if weights is None:
        counts = np.array([len(hit_set) for hit_set in hit_sets], dtype=np.float64)
        scores = phis * np.maximum(counts, 1.0)
    else:
        scores = np.array([
            score_chunk(phi_q, hit_set, weights)
            for phi_q, hit_set in zip(phi_qs, hit_sets)
        ])
    score_values = scores.tolist()
    return [
        ScoredChunk(chunk_ids[i], phi_qs[i], score_values[i], hit_sets[i])
        for i in np.argsort(-scores, kind="stable").tolist()
    ]
