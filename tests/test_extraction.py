"""Local extractor rules, normalization, decomposition, and weights."""

import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SAMPLE_INPUTS, damaged
from slimrag.errors import MalformedRecordError
from slimrag.extraction import (
    ExtractorConfig,
    decompose_query,
    extract_entities,
    load_aliases,
    load_gazetteer,
    normalize_entity,
    plan_query,
)

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
        assert load_gazetteer(path) == ("caf\u00e9", "graphene", "new york")

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
        assert load_gazetteer(path) == ("a b c d", "anna berg lund", "graphene oxide")
        path.write_text("Anna Berg\u2028Lund\tAnna Lund\r\n", encoding="utf-8")
        assert load_aliases(path) == (("anna berg lund", "anna lund"),)

    @settings(max_examples=300, deadline=None)
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
