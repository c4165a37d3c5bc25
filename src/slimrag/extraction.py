"""Entity extraction, query decomposition, and entity weighting.

Two providers sit behind the same contract. The ``remote`` provider asks a
chat-completions endpoint (see :mod:`slimrag.remote`) using the prompt
templates below; its reply must pass ``remote.parse_json_array``, and its
blank strings are dropped. The ``local`` provider is a deterministic offline
stand-in whose rules are fixed so tests can apply them by hand:

* A candidate entity is a maximal span of capitalized words within one
  sentence. Lowercase particles (``of``, ``the``, ``de``, ``la``, ``van``,
  ``von``, ``der``, ``da``, ``di``, ``del``) may join two capitalized words
  but never start or end a span. Punctuation breaks a span; a trailing
  possessive ``'s`` is stripped from each word.
* Single-word spans are dropped when the word is on the function-word
  stoplist (pronouns, determiners, interrogatives, auxiliaries), or when the
  span sits at the start of a sentence and is not listed in the gazetteer or
  alias table (sentence-initial capitalization carries no signal).
* Every gazetteer entry found in the text (case-insensitive, at word
  boundaries) is added verbatim.
* With coreference enabled: alias-table surfaces are replaced by their
  canonical form, and each pronoun adds the nearest preceding span of a
  compatible class (person pronouns need a multi-word span; other pronouns
  accept any span). Such a span is always kept, so a pronoun adds no entity
  the spans have not already added. With coreference disabled, surfaces are
  kept verbatim.

Local query decomposition splits on ``?``-plus-space, semicolons, and
coordinating conjunctions (``and``/``or``/``but``, with or without a leading
comma) when the conjunction is followed by a clause-starter word such as
``who``/``when``/``did``. Entity weights are sub-query frequencies:
``weight(e) = |{s : e extracted from s}| / |sub-queries|``.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from . import remote
from .corpus import read_lines, split_sentences
from .errors import MalformedRecordError
from .tokenization import count_tokens

PRONOUNS_PERSON = frozenset(
    {"he", "she", "him", "her", "his", "hers", "himself", "herself"}
)
PRONOUNS_OTHER = frozenset(
    {"it", "its", "itself", "they", "them", "their", "theirs",
     "this", "that", "these", "those"}
)
PRONOUNS = PRONOUNS_PERSON | PRONOUNS_OTHER

STOPLIST = PRONOUNS | frozenset(
    {
        "i", "you", "we", "me", "us", "my", "your", "our", "mine", "yours", "ours",
        "a", "an", "the", "and", "or", "but", "if", "then", "than", "so", "too",
        "very", "also", "only", "own", "same", "both", "each", "few", "more",
        "most", "other", "such", "some", "any", "all", "no", "yes", "not",
        "there", "here", "where", "when", "why", "how", "who", "whom", "whose",
        "what", "which", "is", "are", "was", "were", "be", "been", "being", "am",
        "do", "does", "did", "done", "will", "would", "can", "could", "should",
        "shall", "may", "might", "must", "has", "have", "had", "having",
        "in", "on", "at", "by", "for", "from", "to", "with", "of", "as",
        "into", "onto", "over", "under", "after", "before", "during", "while",
        "since", "until", "about", "against", "between", "through",
    }
)

PARTICLES = frozenset(
    {"of", "the", "de", "la", "van", "von", "der", "da", "di", "del"}
)

CLAUSE_STARTERS = frozenset(
    {
        "who", "whom", "whose", "what", "which", "where", "when", "why", "how",
        "did", "does", "do", "is", "are", "was", "were", "will", "would",
        "can", "could", "should", "has", "have", "had", "name", "list", "tell",
    }
)

ENTITY_SYSTEM_PROMPT = (
    "You extract named entities from text. Reply with ONLY a JSON array of "
    "entity strings, lowercase, no commentary."
)
ENTITY_COREF_LINE = (
    " Resolve pronouns, aliases, and coreferent mentions to their canonical "
    "entity before listing them."
)
ENTITY_NO_COREF_LINE = (
    " List surface mentions verbatim; do not resolve pronouns or aliases."
)

DECOMP_SYSTEM_PROMPT = (
    "You split a complex question into simple, self-contained sub-questions. "
    "Reply with ONLY a JSON array of sub-question strings, no commentary."
)

_WORD = re.compile(r"\w+(?:['’]\w+)*")
_WORD_SPLIT = re.compile(f"({_WORD.pattern})")
_CONJUNCTION = re.compile(r",?\s+(?:and|or|but)\s+", re.IGNORECASE)
_SENTENCE_END = re.compile(r"(?<=[?;])\s+")


def normalize_entity(raw: str) -> str:
    """Canonical entity surface: trimmed, single-spaced, lowercase, NFC.

    Idempotent. Raises ValueError for empty or whitespace-only input.
    """
    collapsed = " ".join(raw.split())
    if not collapsed:
        raise ValueError("entity surface is empty after trimming")
    return unicodedata.normalize("NFC", collapsed.lower())


@dataclass(frozen=True)
class ExtractorConfig:
    """Provider selection plus the two ablation toggles; every config that
    constructs is exactly its :meth:`fingerprint_fields` (and its
    ``decomposition_enabled``, which only shapes queries and so takes no
    part in ``==``).

    ``gazetteer`` entries and ``aliases`` terms must be normalized
    (:func:`normalize_entity` gives them back unchanged); no entry may
    repeat and no alias may name two canonical forms. Both are stored
    sorted, so configs that fingerprint alike are ``==``. Use
    :func:`load_gazetteer` / :func:`load_aliases` to read the file formats.
    Remote fields must be unset for the local provider. A flag, model or
    term of another type or form raises ValueError.
    """

    provider: str = "local"
    coreference_enabled: bool = True
    decomposition_enabled: bool = field(default=True, compare=False)
    gazetteer: tuple[str, ...] = ()
    aliases: tuple[tuple[str, str], ...] = ()
    remote_model: str | None = None

    def __post_init__(self) -> None:
        if self.provider not in ("local", "remote"):
            raise ValueError(f"unknown provider {self.provider!r}")
        if not type(self.coreference_enabled) is type(self.decomposition_enabled) is bool:
            raise ValueError("coreference_enabled and decomposition_enabled must be bools")
        if not (self.remote_model is None or type(self.remote_model) is str):
            raise ValueError("remote_model must be a string or None")
        if self.provider == "local" and self.remote_model is not None:
            raise ValueError("remote_model is only valid with provider='remote'")
        if not all(isinstance(p, (tuple, list)) and len(p) == 2 for p in self.aliases):
            raise ValueError("each alias must be an (alias, name) pair")
        terms = [*self.gazetteer, *(term for pair in self.aliases for term in pair)]
        if not all(type(term) is str and normalize_entity(term) == term for term in terms):
            raise ValueError("gazetteer and alias terms must be normalized entities")
        if (len(set(self.gazetteer)) < len(self.gazetteer)
                or len(dict(self.aliases)) < len(self.aliases)):
            raise ValueError("a gazetteer entry or an alias repeats")
        object.__setattr__(self, "gazetteer", tuple(sorted(self.gazetteer)))
        object.__setattr__(self, "aliases", tuple(sorted(map(tuple, self.aliases))))

    def fingerprint_fields(self) -> dict:
        # decomposition_enabled is retrieval-only and deliberately excluded:
        # the same index must serve both decomposition settings.
        return {
            "provider": self.provider,
            "coreference_enabled": self.coreference_enabled,
            "gazetteer": list(self.gazetteer),
            "aliases": list(self.aliases),
            "remote_model": self.remote_model,
        }


@dataclass(frozen=True)
class TokenUsage:
    input_tokens: int = 0
    output_tokens: int = 0

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            self.input_tokens + other.input_tokens,
            self.output_tokens + other.output_tokens,
        )


@dataclass(frozen=True)
class QueryPlan:
    """A query's sub-queries, extracted entities, and frequency weights."""

    sub_queries: tuple[str, ...]
    query_entities: frozenset[str]
    entity_weights: dict[str, float] = field(compare=False)


def load_gazetteer(path: str | Path) -> tuple[str, ...]:
    """One entity per line, UTF-8; entries are normalized and deduplicated,
    in the order they first appear (:class:`ExtractorConfig` sorts them)."""
    entries = {}
    for line in read_lines(path):
        line = line.strip()
        if line:
            entries[normalize_entity(line)] = None
    return tuple(entries)


def load_aliases(path: str | Path) -> tuple[tuple[str, str], ...]:
    """Tab-separated ``alias<TAB>canonical`` pairs, one per line, UTF-8;
    a repeated alias keeps its last canonical form, in the order the alias
    first appears (:class:`ExtractorConfig` sorts them)."""
    pairs = {}
    for line_number, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        alias, _, canonical = line.partition("\t")
        if not canonical:
            raise MalformedRecordError(
                f"alias line without tab separator in {path}: {line!r}", line_number
            )
        pairs[normalize_entity(alias)] = normalize_entity(canonical)
    return tuple(pairs.items())


def _gazetteer_hits(words: list[str], gazetteer: tuple[str, ...]) -> set[str]:
    if not gazetteer:
        return set()
    haystack = " " + " ".join(normalize_entity(word) for word in words) + " "
    return {entry for entry in gazetteer if f" {entry} " in haystack}


def _local_extract(text: str, config: ExtractorConfig) -> set[str]:
    aliases = dict(config.aliases)
    known = set(config.gazetteer) | set(aliases)

    found: set[str] = set()  # normalized surfaces of the kept spans
    words: list[str] = []  # the text word stream, sentence by sentence
    for sentence in split_sentences(text):
        # [separator, word, separator, ..., word, separator]: the separator
        # before word m is parts[2 * m].
        parts = _WORD_SPLIT.split(sentence)
        sentence_words = parts[1::2]
        words += sentence_words
        count = len(sentence_words)
        end = -1  # the last word of the previous span
        for i, word in enumerate(sentence_words):
            if i <= end or not word[0].isupper():
                continue
            j = i
            while True:
                k = j + 1
                # Words k - 1 and k are adjacent when only whitespace, or
                # nothing, separates them.
                while (
                    k < count
                    and not parts[2 * k].strip()
                    and sentence_words[k].lower() in PARTICLES
                ):
                    k += 1
                if (
                    k < count
                    and not parts[2 * k].strip()
                    and sentence_words[k][0].isupper()
                ):
                    j = k
                else:
                    break
            end = j
            surface = " ".join(sentence_words[i:j + 1])
            if "'" in surface or "’" in surface:
                surface = " ".join(
                    piece[:-2] if piece.endswith(("'s", "’s")) else piece
                    for piece in sentence_words[i:j + 1]
                )
            if j > i:
                found.add(normalize_entity(surface))
            elif surface.lower() not in STOPLIST:
                normalized = normalize_entity(surface)
                if i or normalized in known:
                    found.add(normalized)

    found |= _gazetteer_hits(words, config.gazetteer)
    if config.coreference_enabled:
        return {aliases.get(entity, entity) for entity in found}
    return found


def _ask(config: ExtractorConfig, system: str, user: str) -> tuple[list[str], TokenUsage]:
    """One chat with the remote provider: the reply's items as
    ``remote.parse_json_array`` reads them, blank ones dropped, and the
    system prompt and the raw reply as input and output tokens."""
    reply = remote.chat_completion(
        model=config.remote_model or remote.DEFAULT_CHAT_MODEL,
        system=system,
        user=user,
    )
    items = [item for item in remote.parse_json_array(reply) if item.strip()]
    return items, TokenUsage(
        input_tokens=count_tokens(system), output_tokens=count_tokens(reply)
    )


def _remote_extract(text: str, config: ExtractorConfig) -> tuple[set[str], TokenUsage]:
    coref_line = (
        ENTITY_COREF_LINE if config.coreference_enabled else ENTITY_NO_COREF_LINE
    )
    items, usage = _ask(config, ENTITY_SYSTEM_PROMPT + coref_line, text)
    return {normalize_entity(item) for item in items}, usage


def extract_entities_with_usage(
    text: str, config: ExtractorConfig
) -> tuple[set[str], TokenUsage]:
    """Extract entities and report provider-bound token traffic beyond the
    text itself, which the caller counts (it usually knows that count).

    Local usage is no input and the returned surfaces as output; remote usage
    is the system prompt as input and the raw reply as output, all under the
    accounting tokenizer.
    """
    if not text.strip():
        return set(), TokenUsage()
    if config.provider == "remote":
        return _remote_extract(text, config)
    entities = _local_extract(text, config)
    return entities, TokenUsage(
        output_tokens=sum(count_tokens(e) for e in entities)
    )


def extract_entities(text: str, config: ExtractorConfig) -> set[str]:
    """Deduplicated, normalized entities of one textual unit."""
    entities, _ = extract_entities_with_usage(text, config)
    return entities


def _local_decompose(q: str) -> list[str]:
    parts: list[str] = []
    for sentence_part in _SENTENCE_END.split(q.strip()):
        sentence_part = sentence_part.strip().rstrip(";").strip()
        if not sentence_part:
            continue
        segment_start = 0
        for match in _CONJUNCTION.finditer(sentence_part):
            follower = _WORD.match(sentence_part, match.end())
            if follower and follower.group().lower() in CLAUSE_STARTERS:
                left = sentence_part[segment_start:match.start()].strip()
                if left:
                    parts.append(left)
                segment_start = match.end()
        tail = sentence_part[segment_start:].strip()
        if tail:
            parts.append(tail)
    return parts or [q]


def decompose_query_with_usage(
    q: str, config: ExtractorConfig
) -> tuple[list[str], TokenUsage]:
    if not q.strip():
        raise ValueError("query is empty")
    if not config.decomposition_enabled:
        return [q], TokenUsage()
    if config.provider == "remote":
        items, usage = _ask(config, DECOMP_SYSTEM_PROMPT, q)
        subs = [s.strip() for s in items]
        return (subs or [q]), usage + TokenUsage(input_tokens=count_tokens(q))
    subs = _local_decompose(q)
    usage = TokenUsage(
        input_tokens=count_tokens(q),
        output_tokens=sum(count_tokens(s) for s in subs),
    )
    return subs, usage


def decompose_query(q: str, config: ExtractorConfig) -> list[str]:
    """Sub-queries of ``q``; ``[q]`` itself when decomposition is disabled."""
    subs, _ = decompose_query_with_usage(q, config)
    return subs


def _frequency_weights(entities, per_sub: list[set[str]]) -> dict[str, float]:
    """weight(e) = |{s : e extracted from s}| / |sub-queries|."""
    n = len(per_sub)
    return {e: sum(e in found for found in per_sub) / n for e in sorted(entities)}


def plan_query(
    q: str, config: ExtractorConfig
) -> tuple[QueryPlan, TokenUsage, TokenUsage]:
    """Decompose, extract, and weight in one pass (shared by retrieval).

    Returns the plan plus separate decomposition and extraction token usage.
    """
    sub_queries, decomp_usage = decompose_query_with_usage(q, config)
    extract_usage = TokenUsage()
    per_sub: list[set[str]] = []
    for sub in sub_queries:
        found, sub_usage = extract_entities_with_usage(sub, config)
        per_sub.append(found)
        extract_usage += sub_usage + TokenUsage(input_tokens=count_tokens(sub))
    entities = frozenset().union(*per_sub) if per_sub else frozenset()
    plan = QueryPlan(
        sub_queries=tuple(sub_queries),
        query_entities=frozenset(entities),
        entity_weights=_frequency_weights(entities, per_sub),
    )
    return plan, decomp_usage, extract_usage
