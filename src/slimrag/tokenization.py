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
"""

from __future__ import annotations

import unicodedata

from .errors import UnknownTokenizerError

DEFAULT_TOKENIZER = "ws-punct/v1"


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Split text into accounting tokens under ``ws-punct/v1``."""
    tokens: list[str] = []
    for piece in text.split():
        leading: list[str] = []
        trailing: list[str] = []
        while piece and _is_punct(piece[0]):
            leading.append(piece[0])
            piece = piece[1:]
        while piece and _is_punct(piece[-1]):
            trailing.append(piece[-1])
            piece = piece[:-1]
        tokens.extend(leading)
        if piece:
            tokens.append(piece)
        tokens.extend(reversed(trailing))
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
