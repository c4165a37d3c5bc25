"""Entity extraction, query decomposition, and entity weighting.

Two providers sit behind the same contract. The ``remote`` provider asks a
chat-completions endpoint (see :mod:`slimrag.remote`) using the versioned
prompt templates below. The ``local`` provider is a deterministic offline
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
  accept any span). With coreference disabled, surfaces are kept verbatim.

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
from .corpus import split_sentences
from .errors import ProviderProtocolError
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

ENTITY_PROMPT_VERSION = "entity-extraction/v1"
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

DECOMP_PROMPT_VERSION = "query-decomposition/v1"
DECOMP_SYSTEM_PROMPT = (
    "You split a complex question into simple, self-contained sub-questions. "
    "Reply with ONLY a JSON array of sub-question strings, no commentary."
)

_WORD = re.compile(r"\w+(?:['’]\w+)*")
_POSSESSIVE = re.compile(r"['’]s$")
_CONJUNCTION = re.compile(r",?\s+(?:and|or|but)\s+", re.IGNORECASE)


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
    """Provider selection plus the two ablation toggles.

    ``gazetteer`` entries and ``aliases`` pairs are stored normalized; use
    :func:`load_gazetteer` / :func:`load_aliases` to read the file formats.
    Remote fields must be unset for the local provider.
    """

    provider: str = "local"
    coreference_enabled: bool = True
    decomposition_enabled: bool = True
    gazetteer: tuple[str, ...] = ()
    aliases: tuple[tuple[str, str], ...] = ()
    remote_model: str | None = None

    def __post_init__(self) -> None:
        if self.provider not in ("local", "remote"):
            raise ValueError(f"unknown provider {self.provider!r}")
        if self.provider == "local" and self.remote_model is not None:
            raise ValueError("remote_model is only valid with provider='remote'")

    @property
    def alias_map(self) -> dict[str, str]:
        return dict(self.aliases)

    def fingerprint_fields(self) -> dict:
        # decomposition_enabled is retrieval-only and deliberately excluded:
        # the same index must serve both decomposition settings.
        return {
            "provider": self.provider,
            "coreference_enabled": self.coreference_enabled,
            "gazetteer": sorted(self.gazetteer),
            "aliases": sorted(self.aliases),
            "remote_model": self.remote_model,
        }

    @classmethod
    def from_fingerprint_fields(cls, fields: object) -> "ExtractorConfig":
        """Inverse of :meth:`fingerprint_fields`; raises ValueError for a
        missing, extra, or mistyped field."""
        if not isinstance(fields, dict) or set(fields) != _FINGERPRINT_KEYS:
            raise ValueError(f"extractor fields must be {sorted(_FINGERPRINT_KEYS)}")
        gazetteer, aliases, model = (
            fields["gazetteer"], fields["aliases"], fields["remote_model"]
        )
        if not (
            isinstance(fields["provider"], str)
            and isinstance(fields["coreference_enabled"], bool)
            and isinstance(gazetteer, list)
            and all(isinstance(entry, str) for entry in gazetteer)
            and isinstance(aliases, list)
            and all(
                isinstance(pair, list) and len(pair) == 2
                and all(isinstance(surface, str) for surface in pair)
                for pair in aliases
            )
            and (model is None or isinstance(model, str))
        ):
            raise ValueError("extractor fields have the wrong types")
        return cls(
            provider=fields["provider"],
            coreference_enabled=fields["coreference_enabled"],
            gazetteer=tuple(gazetteer),
            aliases=tuple(tuple(pair) for pair in aliases),
            remote_model=model,
        )


_FINGERPRINT_KEYS = frozenset(ExtractorConfig().fingerprint_fields())


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

    query: str
    sub_queries: tuple[str, ...]
    query_entities: frozenset[str]
    entity_weights: dict[str, float] = field(compare=False)


def load_gazetteer(path: str | Path) -> tuple[str, ...]:
    """One entity per line, UTF-8; entries are normalized and deduplicated."""
    entries = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            entries.add(normalize_entity(line))
    return tuple(sorted(entries))


def load_aliases(path: str | Path) -> tuple[tuple[str, str], ...]:
    """Tab-separated ``alias<TAB>canonical`` pairs, one per line, UTF-8."""
    pairs = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        alias, _, canonical = line.partition("\t")
        if not canonical:
            raise ValueError(f"alias line without tab separator: {line!r}")
        pairs[normalize_entity(alias)] = normalize_entity(canonical)
    return tuple(sorted(pairs.items()))


@dataclass(frozen=True)
class _Span:
    words: tuple[str, ...]
    token_index: int  # index of the span's first word in the text token stream

    @property
    def surface(self) -> str:
        return " ".join(self.words)


def _strip_possessive(word: str) -> str:
    stripped = _POSSESSIVE.sub("", word)
    return stripped if stripped else word


def _is_capitalized(word: str) -> bool:
    return bool(word) and word[0].isupper()


def _sentence_spans(sentence: str, base_index: int) -> tuple[list[_Span], int]:
    """Capitalized spans of one sentence plus the running token count."""
    tokens = list(_WORD.finditer(sentence))

    def adjacent(a: int, b: int) -> bool:
        return sentence[tokens[a].end():tokens[b].start()].isspace() or (
            tokens[a].end() == tokens[b].start()
        )

    spans: list[_Span] = []
    i = 0
    while i < len(tokens):
        if not _is_capitalized(tokens[i].group()):
            i += 1
            continue
        j = i
        while True:
            k = j + 1
            while (
                k < len(tokens)
                and tokens[k].group().lower() in PARTICLES
                and adjacent(k - 1, k)
            ):
                k += 1
            if (
                k < len(tokens)
                and _is_capitalized(tokens[k].group())
                and adjacent(k - 1, k)
            ):
                j = k
            else:
                break
        words = tuple(
            _strip_possessive(tokens[m].group()) for m in range(i, j + 1)
        )
        spans.append(_Span(words=words, token_index=base_index + i))
        i = j + 1
    return spans, base_index + len(tokens)


def _keep_span(span: _Span, sentence_initial: bool, known: set[str]) -> bool:
    if len(span.words) > 1:
        return True
    lowered = span.words[0].lower()
    if lowered in STOPLIST:
        return False
    if sentence_initial:
        try:
            return normalize_entity(span.surface) in known
        except ValueError:
            return False
    return True


def _gazetteer_hits(text: str, gazetteer: tuple[str, ...]) -> set[str]:
    if not gazetteer:
        return set()
    words = [normalize_entity(m.group()) for m in _WORD.finditer(text)]
    haystack = " " + " ".join(words) + " "
    return {entry for entry in gazetteer if f" {entry} " in haystack}


def _local_extract(text: str, config: ExtractorConfig) -> set[str]:
    aliases = config.alias_map
    known = set(config.gazetteer) | set(aliases)

    kept: list[_Span] = []
    base = 0
    for sentence in split_sentences(text):
        spans, next_base = _sentence_spans(sentence, base)
        first_token = base
        for span in spans:
            if _keep_span(span, span.token_index == first_token, known):
                kept.append(span)
        base = next_base

    def resolve(surface: str) -> str:
        normalized = normalize_entity(surface)
        if config.coreference_enabled:
            return aliases.get(normalized, normalized)
        return normalized

    entities = {resolve(span.surface) for span in kept}
    entities |= {
        aliases.get(hit, hit) if config.coreference_enabled else hit
        for hit in _gazetteer_hits(text, config.gazetteer)
    }

    if config.coreference_enabled and kept:
        position = 0
        for sentence in split_sentences(text):
            for match in _WORD.finditer(sentence):
                lowered = match.group().lower()
                if lowered in PRONOUNS:
                    person = lowered in PRONOUNS_PERSON
                    for span in reversed(kept):
                        if span.token_index >= position:
                            continue
                        if person and len(span.words) < 2:
                            continue
                        entities.add(resolve(span.surface))
                        break
                position += 1
    return entities


def _remote_extract(text: str, config: ExtractorConfig) -> tuple[set[str], TokenUsage]:
    coref_line = (
        ENTITY_COREF_LINE if config.coreference_enabled else ENTITY_NO_COREF_LINE
    )
    system = ENTITY_SYSTEM_PROMPT + coref_line
    reply = remote.chat_completion(
        model=config.remote_model or remote.DEFAULT_CHAT_MODEL,
        system=system,
        user=text,
    )
    items = remote.parse_json_array(reply)
    entities = set()
    for item in items:
        if not isinstance(item, str):
            raise ProviderProtocolError(f"entity reply item is not a string: {item!r}")
        if item.strip():
            entities.add(normalize_entity(item))
    usage = TokenUsage(
        input_tokens=count_tokens(system) + count_tokens(text),
        output_tokens=count_tokens(reply),
    )
    return entities, usage


def extract_entities_with_usage(
    text: str, config: ExtractorConfig
) -> tuple[set[str], TokenUsage]:
    """Extract entities and report provider-bound token traffic.

    Local usage counts the input text and the returned surfaces under the
    accounting tokenizer; remote usage counts prompt and raw reply.
    """
    if not text.strip():
        return set(), TokenUsage()
    if config.provider == "remote":
        return _remote_extract(text, config)
    entities = _local_extract(text, config)
    usage = TokenUsage(
        input_tokens=count_tokens(text),
        output_tokens=sum(count_tokens(e) for e in sorted(entities)),
    )
    return entities, usage


def extract_entities(text: str, config: ExtractorConfig) -> set[str]:
    """Deduplicated, normalized entities of one textual unit."""
    entities, _ = extract_entities_with_usage(text, config)
    return entities


def _local_decompose(q: str) -> list[str]:
    parts: list[str] = []
    for sentence_part in re.split(r"(?<=[?;])\s+", q.strip()):
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
        reply = remote.chat_completion(
            model=config.remote_model or remote.DEFAULT_CHAT_MODEL,
            system=DECOMP_SYSTEM_PROMPT,
            user=q,
        )
        items = remote.parse_json_array(reply)
        subs = [s.strip() for s in items if isinstance(s, str) and s.strip()]
        usage = TokenUsage(
            input_tokens=count_tokens(DECOMP_SYSTEM_PROMPT) + count_tokens(q),
            output_tokens=count_tokens(reply),
        )
        return (subs or [q]), usage
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


def compute_entity_weights(
    entities: frozenset[str] | set[str],
    sub_queries: list[str] | tuple[str, ...],
    config: ExtractorConfig,
) -> dict[str, float]:
    """Frequency of each entity across sub-queries, as a fraction in (0, 1]."""
    if not sub_queries:
        raise ValueError("sub_queries is empty")
    if not entities:
        return {}
    return _frequency_weights(
        entities, [extract_entities(s, config) for s in sub_queries]
    )


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
        extract_usage = extract_usage + sub_usage
    entities = frozenset().union(*per_sub) if per_sub else frozenset()
    plan = QueryPlan(
        query=q,
        sub_queries=tuple(sub_queries),
        query_entities=frozenset(entities),
        entity_weights=_frequency_weights(entities, per_sub),
    )
    return plan, decomp_usage, extract_usage
