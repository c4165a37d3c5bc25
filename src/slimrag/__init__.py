"""SlimRAG: graph-free, entity-aware retrieval over an entity-to-chunk index."""

from .corpus import Chunk, Corpus, Document, SegmentationPolicy, ingest_corpus
from .embedding import (
    EmbedderConfig,
    EmbeddingCache,
    EntityVectorStore,
    cosine_similarity,
    embed,
    top_k_entities,
)
from .extraction import (
    ExtractorConfig,
    QueryPlan,
    decompose_query,
    extract_entities,
    normalize_entity,
)
from .evalharness import EvalExample, EvalReport, load_hotpotqa, run_eval
from .index import (
    EntityIndex,
    TokenAccounting,
    add_chunks,
    build_index,
    load_index,
    lookup,
    save_index,
)
from .metrics import RetrievalScore, RituReport, compute_ritu, score_retrieval
from .retrieval import Context, RetrievalParams, ScoredChunk, retrieve
from .tokenization import count_tokens, tokenize

__version__ = "0.1.0"

__all__ = [
    "Chunk",
    "Context",
    "Corpus",
    "Document",
    "EmbedderConfig",
    "EmbeddingCache",
    "EntityIndex",
    "EntityVectorStore",
    "EvalExample",
    "EvalReport",
    "ExtractorConfig",
    "QueryPlan",
    "RetrievalParams",
    "RetrievalScore",
    "RituReport",
    "ScoredChunk",
    "SegmentationPolicy",
    "TokenAccounting",
    "add_chunks",
    "build_index",
    "compute_ritu",
    "cosine_similarity",
    "count_tokens",
    "decompose_query",
    "embed",
    "extract_entities",
    "ingest_corpus",
    "load_hotpotqa",
    "load_index",
    "lookup",
    "normalize_entity",
    "retrieve",
    "run_eval",
    "save_index",
    "score_retrieval",
    "tokenize",
    "top_k_entities",
]
