"""Accounting tokenizer: frozen examples, additivity, and the per-character
rule it replaced kept as the oracle."""

import unicodedata

import pytest
from hypothesis import given, strategies as st

from slimrag.errors import UnknownTokenizerError
from slimrag.tokenization import DEFAULT_TOKENIZER, count_tokens, tokenize


def test_empty_text():
    assert count_tokens("") == 0


def test_plain_whitespace_rule():
    assert count_tokens("hello world") == 2


def test_punctuation_detachment_by_hand():
    # Applying the documented rules by hand:
    #   don't -> [don't]; stop, -> [stop][,]; now. -> [now][.]
    assert tokenize("don't stop, now.") == ["don't", "stop", ",", "now", "."]
    assert count_tokens("don't stop, now.") == 5


def test_leading_and_trailing_punctuation():
    assert tokenize('"hello!"') == ['"', "hello", "!", '"']
    assert tokenize("--") == ["-", "-"]
    assert tokenize("well-known fact") == ["well-known", "fact"]


def test_unknown_tokenizer_rejected():
    with pytest.raises(UnknownTokenizerError):
        count_tokens("x", "no-such-tokenizer/v9")


def test_default_tokenizer_registered():
    assert count_tokens("a b", DEFAULT_TOKENIZER) == 2


@given(
    st.text(min_size=1).map(str.strip).filter(bool),
    st.text(min_size=1).map(str.strip).filter(bool),
)
def test_additive_over_space_concatenation(a, b):
    assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)


@given(st.text())
def test_count_matches_token_list_length(text):
    assert count_tokens(text) == len(tokenize(text))


def _oracle_tokenize(text: str) -> list[str]:
    """``ws-punct/v1`` as first written: one ``unicodedata`` lookup per
    character tested, one character detached at a time."""

    def is_punct(ch: str) -> bool:
        return unicodedata.category(ch).startswith("P")

    tokens: list[str] = []
    for piece in text.split():
        leading: list[str] = []
        trailing: list[str] = []
        while piece and is_punct(piece[0]):
            leading.append(piece[0])
            piece = piece[1:]
        while piece and is_punct(piece[-1]):
            trailing.append(piece[-1])
            piece = piece[:-1]
        tokens.extend(leading)
        if piece:
            tokens.append(piece)
        tokens.extend(reversed(trailing))
    return tokens


# Unicode punctuation, ASCII symbols whose category is not P, ASCII punctuation.
_EDGES = "«»“”…¿・" + "$+<^`|~" + ".,!?\"'-()"
_WORDS = st.text(
    alphabet=st.sampled_from("abcXYZ09é日" + _EDGES), min_size=1, max_size=6
)


@given(st.text())
def test_tokenize_matches_oracle(text):
    assert tokenize(text) == _oracle_tokenize(text)


@given(
    st.lists(
        st.tuples(
            st.text(alphabet=st.sampled_from(_EDGES), max_size=3),
            _WORDS,
            st.text(alphabet=st.sampled_from(_EDGES), max_size=3),
        ),
        max_size=8,
    ),
    st.sampled_from([" ", "  ", "\t", "\n", "\u3000"]),
)
def test_tokenize_matches_oracle_on_edged_words(words, separator):
    text = separator.join(lead + word + trail for lead, word, trail in words)
    assert tokenize(text) == _oracle_tokenize(text)


def test_ascii_symbols_outside_category_p_stay_attached():
    assert tokenize("$5 +x <a> ^b `c` |d| ~e") == [
        "$5", "+x", "<a>", "^b", "`c`", "|d|", "~e"
    ]
    assert tokenize("«Hi» ¿qué? “ok”…") == [
        "«", "Hi", "»", "¿", "qué", "?", "“", "ok", "”", "…"
    ]
