"""Entity-guided context retrieval.

The pipeline runs, in order: query decomposition, per-sub-query entity
extraction, entity weighting, per-query-entity top-K matching against the
indexed entity vectors (union = hit entity set), inverted-map lookup (union
= candidate chunks), dual-factor scoring ``score = phi_q * count`` where
``phi_q`` is the query-chunk cosine and ``count`` the number of distinct hit
entities in the chunk, top-H selection, greedy token-budget trimming, and
re-ordering by original document position.

Every intermediate set lands in the trace, which is canonically
serializable, so a run can be replayed and audited bit for bit. Queries that
yield no usable entities fall back to pure-similarity ranking over all
chunks (trace-labeled) unless the fallback is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .embedding import (
    EmbedderConfig,
    EmbeddingCache,
    Vector,
    cosine_similarity,
    embed,
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
    for query_entity in sorted(query_entities):
        vector = embed(query_entity, embedder, cache)
        spent += count_tokens(query_entity, index.config.tokenizer)
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
    chunk_text: str,
    q_vec: Vector,
    hit_count: int,
    params: RetrievalParams,
    embedder: EmbedderConfig,
    cache: EmbeddingCache | None = None,
    weight_sum: float | None = None,
) -> tuple[float, float]:
    """(phi_q, score) for one chunk; the weighted variant multiplies phi_q
    by the supplied weight sum instead of the raw hit count."""
    phi_q = cosine_similarity(embed(chunk_text, embedder, cache), q_vec)
    if params.use_entity_weights and weight_sum is not None:
        return phi_q, phi_q * weight_sum
    return phi_q, phi_q * hit_count


def _rank(scored: list[ScoredChunk]) -> list[ScoredChunk]:
    return sorted(scored, key=lambda s: (-s.score, s.chunk_id))


def assemble_context(
    scored: list[ScoredChunk],
    index: EntityIndex,
    params: RetrievalParams,
    trace: Trace,
) -> Context:
    """Top-H selection, greedy budget trim, position re-order, merge."""
    ranked = _rank(scored)
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
    total_tokens = count_tokens(text, index.config.tokenizer) if chunks else 0
    trace.final_order = [chunk_id for chunk_id, _ in chunks]
    return Context(chunks=chunks, total_tokens=total_tokens, text=text, trace=trace)


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
    tokenizer = index.config.tokenizer

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
    usage[EMBEDDING_IN] += count_tokens(q, tokenizer)

    no_candidates = not plan.query_entities or not index.vectors.entries
    if no_candidates:
        trace.no_query_entities = not plan.query_entities
        if not params.fallback_on_no_entities:
            return Context(chunks=[], total_tokens=0, text="", trace=trace)
        trace.fallback_used = True
        scored = []
        for chunk_id in sorted(index.chunk_catalog):
            record = index.chunk_catalog[chunk_id]
            phi_q = cosine_similarity(embed(record.text, embedder, cache), q_vec)
            usage[EMBEDDING_IN] += record.token_count
            scored.append(
                ScoredChunk(
                    chunk_id=chunk_id,
                    phi_q=phi_q,
                    hit_count=0,
                    score=phi_q,
                    hit_entities=frozenset(),
                )
            )
        trace.scored = _rank(scored)
        trace.candidate_count = len(scored)
        return assemble_context(scored, index, params, trace)

    hits, per_source, spent = match_query_entities(
        plan.query_entities, index, params.k, embedder, cache
    )
    usage[EMBEDDING_IN] += spent
    trace.entity_matches = per_source
    trace.hit_entities = dict(sorted(hits.items()))

    weights: dict[str, float] = {}
    if params.use_entity_weights:
        trace.scoring_variant = "weighted"
        for query_entity, matches in per_source.items():
            for entity, _ in matches:
                candidate = plan.entity_weights.get(query_entity, 0.0)
                if candidate > weights.get(entity, 0.0):
                    weights[entity] = candidate

    candidates = collect_hit_chunks(hits, index)
    trace.candidate_count = len(candidates)
    scored = []
    for chunk_id in sorted(candidates):
        record = index.chunk_catalog[chunk_id]
        hit_set = candidates[chunk_id]
        weight_sum = (
            sum(weights.get(entity, 0.0) for entity in hit_set)
            if params.use_entity_weights
            else None
        )
        phi_q, score = score_chunk(
            record.text, q_vec, len(hit_set), params, embedder, cache, weight_sum
        )
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
    trace.scored = _rank(scored)
    return assemble_context(scored, index, params, trace)
