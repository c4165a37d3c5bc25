"""Accounting tokenizer: deterministic token counting for all budget math.

The one tokenizer, ``ws-punct/v1``, is defined precisely so that any
implementation can reproduce identical counts:

1. Split the text on Unicode whitespace.
2. For each piece, detach leading punctuation characters one at a time (each
   detached character is its own token), then detach trailing punctuation
   characters the same way. "Punctuation" means any character whose Unicode
   category starts with ``P``.
3. The non-empty remainder, internal punctuation intact, is one token
   (``don't`` and ``well-known`` each count as a single token).
4. A piece consisting entirely of punctuation yields one token per character.

Counts are additive over single-space concatenation: for texts without
leading or trailing whitespace, ``count(a + " " + b) == count(a) + count(b)``.

ASCII characters are classified from tables built at import by the rule of
step 2, so only non-ASCII characters call :mod:`unicodedata`. A piece that
begins and ends with an ASCII character that is not punctuation is one
token as it stands (step 3 with nothing to detach); any other piece has its
ends scanned.
"""

from __future__ import annotations

import unicodedata

from .errors import UnknownTokenizerError

DEFAULT_TOKENIZER = "ws-punct/v1"


def _category_is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


_ASCII = frozenset(map(chr, range(128)))
_ASCII_PUNCT = frozenset(filter(_category_is_punct, _ASCII))
_ASCII_NON_PUNCT = _ASCII - _ASCII_PUNCT


def _is_punct(ch: str) -> bool:
    if ch in _ASCII:
        return ch in _ASCII_PUNCT
    return _category_is_punct(ch)


def tokenize(text: str) -> list[str]:
    """Split text into accounting tokens under ``ws-punct/v1``."""
    tokens: list[str] = []
    for piece in text.split():
        if piece[0] in _ASCII_NON_PUNCT and piece[-1] in _ASCII_NON_PUNCT:
            tokens.append(piece)
            continue
        start, end = 0, len(piece)
        while start < end and _is_punct(piece[start]):
            start += 1
        while start < end and _is_punct(piece[end - 1]):
            end -= 1
        tokens.extend(piece[:start])
        if start < end:
            tokens.append(piece[start:end])
        tokens.extend(piece[end:])
    return tokens


def count_tokens(text: str, tokenizer: str = DEFAULT_TOKENIZER) -> int:
    """Number of accounting tokens in ``text``.

    ``tokenizer`` may only name ``ws-punct/v1``; any other name raises
    UnknownTokenizerError.
    """
    if tokenizer != DEFAULT_TOKENIZER:
        raise UnknownTokenizerError(
            f"unknown tokenizer {tokenizer!r}; the only tokenizer is "
            f"{DEFAULT_TOKENIZER!r}"
        )
    return len(tokenize(text))
