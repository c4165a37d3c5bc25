"""Shared builders for synthetic corpora and randomized pipeline inputs."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from slimrag.corpus import Corpus, SegmentationPolicy, ingest_corpus
from slimrag.tokenization import count_tokens

DATA_DIR = Path(__file__).parent / "data"

# The fuzz tests of outside input (corpora, datasets, term files, caches,
# indexes and the CLI on each), of the dot-product kernel and of the entity
# store's blocks draw ``fuzz_examples(n)`` hypothesis examples: n in
# Tier-1, n times SLIMRAG_FUZZ_SCALE where that is set (CI's deep-fuzz job
# sets 20).
_FUZZ_SCALE = int(os.environ.get("SLIMRAG_FUZZ_SCALE", "1"))


def fuzz_examples(count: int) -> int:
    return count * _FUZZ_SCALE


# JSON nested far deeper than the interpreter's recursion limit: json.loads
# raises RecursionError on it, not a ValueError.
DEEP_JSON = "[" * 100_000

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


def move_chunk(document, old: str, new: str, **fields) -> None:
    """In a saved index document, move the catalog record ``old`` to the key
    ``new`` with ``fields`` changed, and repoint its posting lists. Its
    ``token_count`` and the accounting's ``tctc`` follow its text, as in a
    file that ``save_index`` wrote."""
    catalog = document["chunk_catalog"]
    record = catalog.pop(old)
    record.update(fields)
    tokens = count_tokens(record["text"])
    document["accounting"]["tctc"] += tokens - record["token_count"]
    record["token_count"] = tokens
    catalog[new] = record
    for ids in document["inverted_map"].values():
        ids[:] = sorted(new if chunk_id == old else chunk_id for chunk_id in ids)


# Scalars an index or cache file holds, neighbours of them, and small
# containers: the values the node-mutation tests of those files set.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1, 2, 32, 10**19, 0.5, 1.0, "", "d1#0", "d1", "paris"])
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


NODE_OPERATIONS = ["set", "delete", "duplicate"]


def mutate_node(data, parent, key, operation: str) -> None:
    """Apply ``operation``, one of :data:`NODE_OPERATIONS`, to the node
    ``parent[key]`` or to a node below it drawn from hypothesis ``data``; a
    set draws the new value from :data:`JSON_VALUES`."""
    while (
        isinstance(parent[key], (dict, list))
        and parent[key]
        and data.draw(st.booleans())
    ):
        parent = parent[key]
        keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
        key = data.draw(st.sampled_from(keys))
    if operation == "set":
        parent[key] = data.draw(JSON_VALUES)
    elif operation == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[f"{key}+"] = copy.deepcopy(parent[key])


def damaged(data, original: bytes) -> bytes:
    """``original`` cut at an offset drawn from hypothesis ``data``, or with
    one drawn byte changed."""
    at = data.draw(st.integers(0, len(original) - 1))
    if data.draw(st.booleans()):
        return original[:at]
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != original[at]))
    return original[:at] + bytes([byte]) + original[at + 1:]


def _jsonl(records) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode()


# Small well-formed files of each input kind the CLI reads besides indexes
# and caches, for the cut-or-changed-byte fuzz tests.
SAMPLE_INPUTS = {
    "corpus": _jsonl([
        {"doc_id": "d1", "text": "A crew from Vertex Labs built the annex. "
                                 "Analysts placed Ember Corp in the mill district."},
        {"doc_id": "d2", "text": "Visitors toured Garnet Works and Café Zeta."},
    ]),
    "prechunked": _jsonl([
        {"doc_id": "d1", "position": 0, "text": "A crew from Vertex Labs built it."},
        {"doc_id": "d1", "position": 1, "text": "Ember Corp sold the mill."},
        {"doc_id": "d2", "position": 0, "text": "Visitors toured Café Zeta."},
    ]),
    "dataset": json.dumps([
        {
            "_id": "q1",
            "question": "Who built Vertex Labs and where is Ember Corp?",
            "supporting_facts": [["Vertex Labs", 0], ["Ember Corp", 1]],
            "context": [
                ["Vertex Labs", ["A crew from Vertex Labs built the annex.",
                                 "The annex opened late."]],
                ["Ember Corp", ["The filings were dull.",
                                "Analysts placed Ember Corp in the mill district."]],
            ],
        },
        {
            "_id": "q2",
            "question": "What did Café Zeta serve?",
            "supporting_facts": [["Café Zeta", 0]],
            "context": [["Café Zeta", ["Café Zeta served tea."]]],
        },
    ], ensure_ascii=False).encode(),
    "gazetteer": "graphene\nNew  York\r\n\nCafé Zeta\n".encode(),
    "aliases": "VL\tVertex Labs\nEmber\tEmber Corp\r\nZeta\tCafé Zeta\n".encode(),
}


@pytest.fixture
def sentence_policy() -> SegmentationPolicy:
    return SegmentationPolicy("sentence")
