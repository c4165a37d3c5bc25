"""Entity-guided context retrieval.

The pipeline runs, in order: query decomposition, per-sub-query entity
extraction, entity weighting, per-query-entity top-K matching against the
indexed entity vectors (union = hit entity set), inverted-map lookup (union
= candidate chunks), dual-factor scoring ``score = phi_q * count`` where
``phi_q`` is the query-chunk cosine and ``count`` the number of distinct hit
entities in the chunk, top-H selection, greedy token-budget trimming, and
re-ordering by original document position. The weighted variant replaces
``count`` by the sum of the hit entities' weights, in sorted entity order.

Queries that yield no usable entities fall back, unless the fallback is
disabled, to every chunk as a candidate with no hit entities, scored by
``phi_q`` alone (trace-labeled). Both paths share one scoring loop and one
ranking. Query entities and candidate chunks are each embedded with one
``embed_many`` call, so a remote embedder with batch size ``b`` makes at
most ``1 + ceil(E / b) + ceil(C / b)`` requests for a query with ``E`` query
entities and ``C`` candidates (``1 + ceil(N / b)`` on the fallback over
``N`` chunks), retries aside.

Every intermediate set lands in the trace, which is canonically
serializable, so a run can be replayed and audited bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .embedding import (
    EmbedderConfig,
    EmbeddingCache,
    Vector,
    cosine_similarity,
    embed,
    embed_many,
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
from .tokenization import count_tokens

CHUNK_SEPARATOR = "\n"


@dataclass(frozen=True)
class RetrievalParams:
    """Knobs of the retrieval phase; defaults match the evaluated setup."""

    k: int = 5
    h: int = 10
    token_limit: int = 4096
    use_entity_weights: bool = False
    fallback_on_no_entities: bool = True

    def __post_init__(self) -> None:
        if self.k < 1 or self.h < 1 or self.token_limit < 1:
            raise ValueError("k, h, and token_limit must all be >= 1")

    def to_document(self) -> dict:
        """The params document shared by the trace, the eval report config,
        and the CLI's ``--show-config``."""
        return {
            "k": self.k,
            "h": self.h,
            "token_limit": self.token_limit,
            "use_entity_weights": self.use_entity_weights,
            "fallback_on_no_entities": self.fallback_on_no_entities,
        }


@dataclass(frozen=True)
class ScoredChunk:
    """One candidate with its two scoring factors.

    On the similarity-only fallback path hit_count is 0, hit_entities is
    empty, and score equals phi_q.
    """

    chunk_id: str
    phi_q: float
    hit_count: int
    score: float
    hit_entities: frozenset[str]


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
    candidate_count: int = 0
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
    for query_entity, vector in zip(ordered, embed_many(ordered, embedder, cache)):
        spent += count_tokens(query_entity)
        matches = top_k_entities(vector, index.vectors, k)
        per_source[query_entity] = matches
        for entity, similarity in matches:
            if entity not in hits or similarity > hits[entity]:
                hits[entity] = similarity
    return hits, per_source, spent


def collect_hit_chunks(
    hit_entities: dict[str, float] | set[str],
    index: EntityIndex,
) -> dict[str, frozenset[str]]:
    """Map each candidate chunk to the hit entities that point at it."""
    found: dict[str, set[str]] = {}
    for entity in hit_entities:
        for chunk_id in lookup(index, entity):
            found.setdefault(chunk_id, set()).add(entity)
    return {chunk_id: frozenset(entities) for chunk_id, entities in found.items()}


def score_chunk(
    chunk_vec: Vector,
    q_vec: Vector,
    hit_entities: frozenset[str],
    weights: dict[str, float] | None = None,
) -> tuple[float, float]:
    """(phi_q, score) for one chunk.

    With no hit entities (the fallback) the score is phi_q; without weights
    it is phi_q times the hit count; with weights it is phi_q times the sum
    of the hits' weights, added in sorted entity order so the float result
    does not depend on set iteration order.
    """
    phi_q = cosine_similarity(chunk_vec, q_vec)
    if not hit_entities:
        return phi_q, phi_q
    if weights is None:
        return phi_q, phi_q * len(hit_entities)
    return phi_q, phi_q * sum(weights[entity] for entity in sorted(hit_entities))


def assemble_context(
    scored: list[ScoredChunk],
    index: EntityIndex,
    params: RetrievalParams,
    trace: Trace,
) -> Context:
    """Rank, top-H selection, greedy budget trim, position re-order, merge."""
    ranked = sorted(scored, key=lambda s: (-s.score, s.chunk_id))
    trace.scored = ranked
    selected = ranked[:params.h]
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
    """Run the full entity-guided retrieval pipeline for one query."""
    if not q.strip():
        raise ValueError("query is empty")
    params = params or RetrievalParams()
    extractor = extractor or index.config.extractor
    embedder = embedder or EmbedderConfig()
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

    q_vec = embed(q, embedder, cache)
    usage[EMBEDDING_IN] += count_tokens(q)

    weights: dict[str, float] | None = None
    if not plan.query_entities or not index.vectors.entries:
        trace.no_query_entities = not plan.query_entities
        if not params.fallback_on_no_entities:
            return Context(chunks=[], total_tokens=0, text="", trace=trace)
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

    trace.candidate_count = len(candidates)
    chunk_ids = sorted(candidates)
    records = [index.chunk_catalog[chunk_id] for chunk_id in chunk_ids]
    vectors = embed_many([record.text for record in records], embedder, cache)
    scored = []
    for chunk_id, record, chunk_vec in zip(chunk_ids, records, vectors):
        hit_set = candidates[chunk_id]
        phi_q, score = score_chunk(chunk_vec, q_vec, hit_set, weights)
        usage[EMBEDDING_IN] += record.token_count
        scored.append(
            ScoredChunk(
                chunk_id=chunk_id,
                phi_q=phi_q,
                hit_count=len(hit_set),
                score=score,
                hit_entities=hit_set,
            )
        )
    return assemble_context(scored, index, params, trace)
