"""Local extractor rules, normalization, decomposition, and weights."""

import re
import tempfile
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SAMPLE_INPUTS, damaged, fuzz_examples
from slimrag.corpus import split_sentences
from slimrag.errors import MalformedRecordError
from slimrag.extraction import (
    PARTICLES,
    PRONOUNS,
    PRONOUNS_PERSON,
    STOPLIST,
    ExtractorConfig,
    TokenUsage,
    decompose_query,
    extract_entities,
    extract_entities_with_usage,
    load_aliases,
    load_gazetteer,
    normalize_entity,
    plan_query,
)
from slimrag.tokenization import count_tokens

LOCAL = ExtractorConfig()
LOCAL_NO_COREF = ExtractorConfig(coreference_enabled=False)


class TestNormalize:
    def test_trim_and_casefold(self):
        assert normalize_entity("  Obama ") == "obama"

    def test_whitespace_collapse(self):
        assert normalize_entity("NEW   York") == "new york"

    def test_unicode_composition(self):
        decomposed = "Cafe" + "́"
        assert normalize_entity(decomposed) == "café"
        assert unicodedata.is_normalized("NFC", normalize_entity(decomposed))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_entity("   ")

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_idempotent(self, raw):
        once = normalize_entity(raw)
        assert normalize_entity(once) == once


class TestExtractEntities:
    def test_empty_text(self):
        assert extract_entities("", LOCAL) == set()

    def test_pronoun_resolves_without_new_entity(self):
        text = "Barack Obama visited Paris. He spoke there."
        assert extract_entities(text, LOCAL) == {"barack obama", "paris"}

    def test_coref_off_drops_stoplisted_pronoun(self):
        text = "Barack Obama visited Paris. He spoke there."
        assert extract_entities(text, LOCAL_NO_COREF) == {"barack obama", "paris"}

    def test_particles_join_spans(self):
        found = extract_entities("They visited the Lord of the Rings exhibit.", LOCAL)
        assert "lord of the rings" in found

    def test_sentence_initial_single_word_dropped(self):
        assert extract_entities("Running is fun for everyone.", LOCAL) == set()

    def test_sentence_initial_multi_word_kept(self):
        assert "barack obama" in extract_entities("Barack Obama won.", LOCAL)

    def test_punctuation_breaks_spans(self):
        found = extract_entities("The jury toured Paris, France yesterday.", LOCAL)
        assert found == {"paris", "france"}

    def test_possessive_stripped(self):
        found = extract_entities("Critics praised Steven Spielberg's movie.", LOCAL)
        assert "steven spielberg" in found

    def test_gazetteer_adds_lowercase_entities(self):
        config = ExtractorConfig(gazetteer=("graphene",))
        found = extract_entities("The lab studied graphene samples.", config)
        assert "graphene" in found

    def test_load_gazetteer_normalizes_dedupes_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gazetteer.txt"
        path.write_text(
            "  Graphene \n\nGRAPHENE\nNew   York\n   \nCafe\u0301\n", encoding="utf-8"
        )
        assert load_gazetteer(path) == ("graphene", "new york", "caf\u00e9")

    @pytest.mark.parametrize(
        "loader, content, problem",
        [
            (load_gazetteer, b"graphene\r\nnew york\ncaf\xe9\n", "not UTF-8"),
            (load_aliases, b"a\tb\r\nc\td\ncaf\xe9\te\n", "not UTF-8"),
            (load_aliases, b"a\tb\n\nno tab here\n", "without tab separator"),
            # Only \n ends a line, so line breaks of str.splitlines count for none.
            (load_gazetteer, "x\u2028y\nz\x85w\n".encode() + b"\xff\n", "not UTF-8"),
            (load_aliases, "a\u2028b\tc\nd\x1ce\tf\n".encode() + b"\xff\tg\n", "not UTF-8"),
            (load_aliases, "a\u2028b\tc\nd\x1ce\tf\nno\u2029tab\n".encode(), "without tab"),
        ],
        ids=[
            "gazetteer-not-utf8", "aliases-not-utf8", "alias-without-tab",
            "gazetteer-not-utf8-after-line-separators",
            "aliases-not-utf8-after-line-separators",
            "alias-without-tab-after-line-separators",
        ],
    )
    def test_loader_error_names_file_and_line(self, tmp_path, loader, content, problem):
        path = tmp_path / "terms.txt"
        path.write_bytes(content)
        with pytest.raises(MalformedRecordError) as caught:
            loader(path)
        assert caught.value.line_number == 3
        message = str(caught.value)
        assert message.startswith("line 3: ") and problem in message
        assert str(path) in message

    def test_term_files_split_lines_at_newline_only(self, tmp_path):
        """U+2028, U+0085 and the separators 0x1c-0x1e end a line for
        ``str.splitlines`` but not for the corpus reader; a term file keeps
        them inside the line, where normalization reads them as spaces."""
        path = tmp_path / "gazetteer.txt"
        path.write_text(
            "Anna Berg\u2028Lund\r\nGraphene\x85Oxide\nA\x1cB\x1dC\x1eD\n",
            encoding="utf-8",
        )
        assert load_gazetteer(path) == ("anna berg lund", "graphene oxide", "a b c d")
        path.write_text("Anna Berg\u2028Lund\tAnna Lund\r\n", encoding="utf-8")
        assert load_aliases(path) == (("anna berg lund", "anna lund"),)

    @settings(max_examples=fuzz_examples(300), deadline=None)
    @given(kind=st.sampled_from(["gazetteer", "aliases"]), data=st.data())
    def test_cut_or_changed_term_file_loads_or_raises_the_documented_error(
        self, kind, data
    ):
        """Pin: a gazetteer or alias file cut at a drawn offset, or with one
        byte changed, loads into normalized entries or raises
        MalformedRecordError, never another exception."""
        loader = {"gazetteer": load_gazetteer, "aliases": load_aliases}[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / kind
            path.write_bytes(damaged(data, SAMPLE_INPUTS[kind]))
            try:
                loaded = loader(path)
            except MalformedRecordError:
                return
        surfaces = loaded if kind == "gazetteer" else [s for pair in loaded for s in pair]
        assert all(normalize_entity(s) == s for s in surfaces)

    def test_alias_resolution_with_coref_on(self):
        config = ExtractorConfig(aliases=(("kepler notch", "verdant dynamics"),))
        found = extract_entities("A factory run by Kepler Notch builds gliders.", config)
        assert found == {"verdant dynamics"}

    def test_alias_kept_verbatim_with_coref_off(self):
        config = ExtractorConfig(
            coreference_enabled=False,
            aliases=(("kepler notch", "verdant dynamics"),),
        )
        found = extract_entities("A factory run by Kepler Notch builds gliders.", config)
        assert found == {"kepler notch"}

    def test_deterministic(self):
        text = "Marie Curie worked in Paris. She won twice."
        assert extract_entities(text, LOCAL) == extract_entities(text, LOCAL)

    def test_person_pronoun_needs_multiword_antecedent(self):
        # "She" resolves past the single-word span to the person-like one.
        text = "Ada Lovelace wrote about Paris. She was precise."
        assert extract_entities(text, LOCAL) == {"ada lovelace", "paris"}


class TestDecompose:
    def test_single_clause_passthrough(self):
        assert decompose_query("Who wrote Dune?", LOCAL) == ["Who wrote Dune?"]

    def test_conjunction_with_clause_starter(self):
        assert decompose_query(
            "Who directed Alien and when was it released?", LOCAL
        ) == ["Who directed Alien", "when was it released?"]

    def test_conjunction_without_starter_not_split(self):
        q = "What links Tom and Jerry?"
        assert decompose_query(q, LOCAL) == [q]

    def test_disabled_toggle_returns_query(self):
        config = ExtractorConfig(decomposition_enabled=False)
        q = "Who directed Alien and when was it released?"
        assert decompose_query(q, config) == [q]

    def test_question_mark_boundary(self):
        assert decompose_query("Who wrote Dune? Where was he born?", LOCAL) == [
            "Who wrote Dune?",
            "Where was he born?",
        ]

    def test_semicolon_boundary(self):
        assert decompose_query("Name the author; where did she live?", LOCAL) == [
            "Name the author",
            "where did she live?",
        ]

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            decompose_query("   ", LOCAL)

    def test_never_empty(self):
        assert decompose_query("and and and", LOCAL)


class TestWeights:
    """weight(e) = |{s : e extracted from sub-query s}| / |sub-queries|."""

    def test_entity_in_both_of_two(self):
        plan, _, _ = plan_query("Where is Paris? when did Paris host?", LOCAL)
        assert plan.sub_queries == ("Where is Paris?", "when did Paris host?")
        assert plan.entity_weights == {"paris": 1.0}

    def test_entity_in_one_of_four(self):
        q = "where is Paris? who founded the group? when did it start? why did it end?"
        plan, _, _ = plan_query(q, LOCAL)
        assert len(plan.sub_queries) == 4
        assert plan.entity_weights == {"paris": 0.25}

    def test_empty_entity_set(self):
        plan, _, _ = plan_query("who founded the group?", LOCAL)
        assert plan.query_entities == frozenset()
        assert plan.entity_weights == {}

    def test_empty_sub_queries_rejected(self):
        # Only an empty query has no sub-query.
        with pytest.raises(ValueError):
            plan_query("   ", LOCAL)

    def test_weights_in_unit_interval(self):
        q = "Who runs Vertex Labs and where is Ember Corp based?"
        plan, _, _ = plan_query(q, LOCAL)
        assert plan.entity_weights
        for weight in plan.entity_weights.values():
            assert 0.0 < weight <= 1.0


class TestPlanQuery:
    def test_toggle_containment(self):
        # With decomposition off, the plan's entities equal a single
        # whole-query extraction.
        q = "Who runs Vertex Labs and where is Ember Corp based?"
        config = ExtractorConfig(decomposition_enabled=False)
        plan, _, _ = plan_query(q, config)
        assert plan.sub_queries == (q,)
        assert plan.query_entities == frozenset(extract_entities(q, config))

    def test_weights_match_op_contract(self):
        q = "Who runs Vertex Labs and where is Ember Corp based?"
        plan, _, _ = plan_query(q, LOCAL)
        per_sub = [extract_entities(sub, LOCAL) for sub in plan.sub_queries]
        recomputed = {
            entity: sum(entity in found for found in per_sub) / len(per_sub)
            for entity in plan.query_entities
        }
        assert plan.entity_weights == recomputed

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExtractorConfig(provider="local", remote_model="gpt-4o-mini")
        with pytest.raises(ValueError):
            ExtractorConfig(provider="cloud")

    @pytest.mark.parametrize("fields, problem", [
        ({"coreference_enabled": 1},
         "coreference_enabled and decomposition_enabled must be bools"),
        ({"decomposition_enabled": "no"},
         "coreference_enabled and decomposition_enabled must be bools"),
        ({"provider": "remote", "remote_model": 5}, "remote_model must be a string or None"),
        ({"gazetteer": ("Vertex Labs",)},
         "gazetteer and alias terms must be normalized entities"),
        ({"aliases": (("VL", "vertex labs"),)},
         "gazetteer and alias terms must be normalized entities"),
        ({"gazetteer": ("b", "b")}, "a gazetteer entry or an alias repeats"),
        ({"aliases": (("x", "y"), ("x", "z"))}, "a gazetteer entry or an alias repeats"),
        ({"aliases": (("x", "y", "z"),)}, "each alias must be an (alias, name) pair"),
    ], ids=["int-coreference", "str-decomposition", "int-remote-model",
            "gazetteer-not-normalized", "alias-not-normalized", "gazetteer-repeat",
            "alias-with-two-names", "alias-not-a-pair"])
    def test_config_that_is_not_its_document_is_rejected(self, fields, problem):
        """Each constructed. ``coreference_enabled=1`` was written as ``1``
        into an index that ``load_index`` then rejected as corrupt (it read
        the flag back as ``true``); a non-normalized gazetteer entry never
        matched the normalized text; a repeated entry was fingerprinted
        twice; an alias with two names was fingerprinted with both, but
        extraction kept only the last."""
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            ExtractorConfig(**fields)

    def test_terms_are_stored_sorted(self):
        """So configs that fingerprint alike are ``==``; ``decomposition_enabled``
        shapes queries only and takes no part in ``==``."""
        config = ExtractorConfig(
            gazetteer=["lund", "graphene"], aliases=[["vl", "vertex labs"], ["ec", "ember corp"]]
        )
        assert config.gazetteer == ("graphene", "lund")
        assert config.aliases == (("ec", "ember corp"), ("vl", "vertex labs"))
        assert config == ExtractorConfig(
            decomposition_enabled=False,
            gazetteer=("graphene", "lund"),
            aliases=(("ec", "ember corp"), ("vl", "vertex labs")),
        )


# The local extractor as it was written before it made one pass over each
# sentence's words: a regex match per word, a frozen span object per span,
# and a pronoun scan. It is the reference the one-pass extractor must equal.
_ORACLE_WORD = re.compile(r"\w+(?:['’]\w+)*")
_ORACLE_POSSESSIVE = re.compile(r"['’]s$")


@dataclass(frozen=True)
class _Span:
    words: tuple[str, ...]
    token_index: int  # index of the span's first word in the text token stream

    @property
    def surface(self) -> str:
        return " ".join(self.words)


def _strip_possessive(word: str) -> str:
    stripped = _ORACLE_POSSESSIVE.sub("", word)
    return stripped if stripped else word


def _is_capitalized(word: str) -> bool:
    return bool(word) and word[0].isupper()


def _sentence_spans(sentence: str, base_index: int) -> tuple[list[_Span], list[str]]:
    tokens = list(_ORACLE_WORD.finditer(sentence))

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
    return spans, [token.group() for token in tokens]


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


def _gazetteer_hits(words: list[str], gazetteer: tuple[str, ...]) -> set[str]:
    if not gazetteer:
        return set()
    haystack = " " + " ".join(normalize_entity(word) for word in words) + " "
    return {entry for entry in gazetteer if f" {entry} " in haystack}


def _oracle_local_extract(text: str, config: ExtractorConfig) -> set[str]:
    aliases = dict(config.aliases)
    known = set(config.gazetteer) | set(aliases)

    kept: list[_Span] = []
    words: list[str] = []  # the text token stream, sentence by sentence
    for sentence in split_sentences(text):
        first_token = len(words)
        spans, sentence_words = _sentence_spans(sentence, first_token)
        for span in spans:
            if _keep_span(span, span.token_index == first_token, known):
                kept.append(span)
        words.extend(sentence_words)

    def resolve(surface: str) -> str:
        normalized = normalize_entity(surface)
        if config.coreference_enabled:
            return aliases.get(normalized, normalized)
        return normalized

    entities = {resolve(span.surface) for span in kept}
    entities |= {
        aliases.get(hit, hit) if config.coreference_enabled else hit
        for hit in _gazetteer_hits(words, config.gazetteer)
    }

    if config.coreference_enabled and kept:
        for position, word in enumerate(words):
            lowered = word.lower()
            if lowered in PRONOUNS:
                person = lowered in PRONOUNS_PERSON
                for span in reversed(kept):
                    if span.token_index >= position:
                        continue
                    if person and len(span.words) < 2:
                        continue
                    entities.add(resolve(span.surface))
                    break
    return entities


def _oracle_extract_with_usage(text: str, config: ExtractorConfig):
    if not text.strip():
        return set(), TokenUsage()
    entities = _oracle_local_extract(text, config)
    return entities, TokenUsage(
        output_tokens=sum(count_tokens(e) for e in sorted(entities))
    )


def _outcome(extract, text, config):
    try:
        return extract(text, config)
    except Exception as error:  # the two must fail alike, so compare the types
        return type(error)


_TERMS = dict(
    gazetteer=("anna berg", "graphene", "lund", "straße", "ǆemal", "i̇stanbul", "42"),
    aliases=(
        ("anna", "anna berg"),
        ("berg", "berg works"),
        ("kepler notch", "verdant dynamics"),
        ("ﬁeld", "field office"),
        ("lund", "city of lund"),
    ),
)
EXTRACTOR_CONFIGS = {
    "coref-plain": ExtractorConfig(),
    "no-coref-plain": ExtractorConfig(coreference_enabled=False),
    "coref-terms": ExtractorConfig(**_TERMS),
    "no-coref-terms": ExtractorConfig(coreference_enabled=False, **_TERMS),
}

# Words, particles, possessives, pronouns, titlecase and case-changing
# letters, ligatures, digits, abbreviations, sentence breaks and whitespace.
_FRAGMENTS = (
    "Anna", "Berg", "Lund", "Kepler", "Notch", "Graphene", "graphene", "Field",
    "ﬁeld", "ﬁ", "Straße", "ß", "ǅemal", "ǆ", "İstanbul", "İ", "Caf\u00e9", "Cafe\u0301",
    "of", "the", "The", "Of", "de", "van", "Von", "der", "la",
    "'s", "’s", "Anna's", "Lund’s", "s", "'", "’",
    "he", "He", "she", "She", "his", "it", "It", "they", "They", "this",
    "42", "3rd", "1999", "_", "Mr.", "Dr.", "St.",
    ".", ". ", "! ", "? ", "?", ",", ", ", ";", "-", "(", ")", "\"",
    " ", "  ", "\t", "\n", "\r", "\u00a0", "\u2028",
)

_FRAGMENT_TEXTS = st.builds(
    lambda fragments, glue: glue.join(fragments),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=24),
    st.sampled_from([" ", ""]),
)


class TestOnePassOracle:
    """The one-pass local extractor equals the per-match reference above on
    entity sets, token usage and the type of a raised exception, under every
    combination of coreference and gazetteer-plus-aliases."""

    @settings(max_examples=1000, deadline=None)
    @given(
        text=st.one_of(_FRAGMENT_TEXTS, st.text(max_size=40)),
        name=st.sampled_from(sorted(EXTRACTOR_CONFIGS)),
    )
    def test_drawn_texts_match_the_reference(self, text, name):
        config = EXTRACTOR_CONFIGS[name]
        assert _outcome(extract_entities_with_usage, text, config) == _outcome(
            _oracle_extract_with_usage, text, config
        )

    @pytest.mark.parametrize("name", sorted(EXTRACTOR_CONFIGS))
    @pytest.mark.parametrize(
        "text",
        [
            "Crews met Anna Berg. Lund hosted them.",
            "Crews met Anna Berg.Lund hosted them. Kepler Notch left!Field work",
            "Crews met Anna of. They saw of the Lund fleet and Anna of the Berg.",
            "Crews met Anna of the. Visitors saw the Lord of Lund.",
            "Visitors saw Paris, France, Anna-Berg, Kepler.Notch and Lund;Berg.",
            "Crews met Anna (Berg) and Lund's Kepler’s Notch.",
            "Crews met Lund. He left, and she saw it.",
            "Crews met Lund and Berg. His crew left.",
        ],
        ids=[
            "capitalized-after-sentence-break",
            "capitalized-after-break-without-space",
            "particles-at-span-ends",
            "particle-ends-sentence",
            "punctuation-between-capitalized-words",
            "brackets-and-possessives",
            "person-pronoun-after-one-word-span",
            "person-pronoun-after-one-word-spans-only",
        ],
    )
    def test_named_case_matches_the_reference(self, text, name):
        config = EXTRACTOR_CONFIGS[name]
        assert extract_entities_with_usage(text, config) == _oracle_extract_with_usage(
            text, config
        )
