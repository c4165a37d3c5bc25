"""Shared builders for synthetic corpora and randomized pipeline inputs."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from slimrag.corpus import Corpus, SegmentationPolicy, ingest_corpus

DATA_DIR = Path(__file__).parent / "data"

FIRST = [
    "Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Theta", "Kappa",
    "Lambda", "Sigma", "Omega", "Vertex", "Quartz", "Cobalt", "Ember",
    "Fennel", "Garnet", "Harbor", "Indigo", "Juniper",
]
SECOND = [
    "Corp", "Labs", "Institute", "Systems", "Group", "Works", "Foundry",
    "Collective", "Observatory", "Consortium",
]
FILLERS = [
    "the team toured", "a report praised", "critics reviewed",
    "the archive mentions", "a journal covered", "locals discussed",
    "the exhibit featured", "a lecture examined",
]
TAILS = [
    "last spring", "during the festival", "after the merger",
    "before the audit", "in early winter", "near the coast",
]


def entity_pool(rng: random.Random, size: int) -> list[str]:
    pool = set()
    while len(pool) < size:
        pool.add(f"{rng.choice(FIRST)} {rng.choice(SECOND)}")
    return sorted(pool)


def random_corpus(
    rng: random.Random,
    max_chunks: int = 50,
    max_entities: int = 30,
) -> tuple[Corpus, list[str]]:
    """A synthetic pre-chunked corpus whose chunks mention pool entities
    mid-sentence (so the deterministic extractor can find them)."""
    pool = entity_pool(rng, rng.randint(2, max_entities))
    n_chunks = rng.randint(1, max_chunks)
    n_docs = rng.randint(1, max(1, n_chunks // 2))
    doc_ids = [f"doc-{i}" for i in range(n_docs)]
    positions = {doc_id: 0 for doc_id in doc_ids}
    lines = []
    for _ in range(n_chunks):
        doc_id = rng.choice(doc_ids)
        mentions = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
        clauses = [
            f"{rng.choice(FILLERS)} {name} {rng.choice(TAILS)}" for name in mentions
        ]
        text = ", and ".join(clauses) + "."
        lines.append(
            json.dumps(
                {"doc_id": doc_id, "position": positions[doc_id], "text": text}
            )
        )
        positions[doc_id] += 1
    corpus = ingest_corpus(lines)
    return corpus, pool


def random_query(rng: random.Random, pool: list[str]) -> str:
    mentions = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
    clauses = [f"what happened with {name}" for name in mentions]
    return " and ".join(clauses) + "?"


def corpus_lines_from_texts(texts: dict[str, str]) -> list[str]:
    return [
        json.dumps({"doc_id": doc_id, "text": text})
        for doc_id, text in texts.items()
    ]


def rewrite_index(path: Path, mutate) -> None:
    """Apply ``mutate`` to a saved index document, then recompute its config
    fingerprint and content digest the way save_index would, so only the
    structural checks can catch the damage."""

    def sha(document) -> str:
        text = json.dumps(
            document, sort_keys=True, ensure_ascii=False, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    document = json.loads(path.read_text(encoding="utf-8"))
    del document["content_digest"]
    mutate(document)
    document["config_fingerprint"] = sha(document.get("config"))
    document["content_digest"] = sha(document)
    path.write_text(json.dumps(document), encoding="utf-8")


@pytest.fixture
def sentence_policy() -> SegmentationPolicy:
    return SegmentationPolicy("sentence")
