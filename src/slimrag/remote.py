"""OpenAI-compatible HTTP client for chat completions and embeddings.

Credentials come from the environment only: ``SLIMRAG_API_KEY`` carries the
bearer token and ``SLIMRAG_API_BASE`` the service base URL (for example
``https://api.openai.com/v1``). Transport failures and 429/5xx responses are
retried with backoff, each retry logged at WARNING on this module's logger,
then surfaced as ProviderError.

Every provider reply is read here, by one rule per shape, and every fault
one reply can show raises ProviderProtocolError with a reason and at most
200 characters of the reply:

* a 200 body is decoded by :func:`~slimrag.corpus.parse_json` (not UTF-8,
  not JSON, nested too deeply, an integer past the digit limit);
* a vector, whether an embeddings row or a cache line, is judged by
  :func:`json_vector`: JSON numbers (not booleans), all finite, not all zero;
* a list reply (entities, sub-questions) is judged by
  :func:`parse_json_array`: a JSON array of strings, none holding a lone
  surrogate.

Vectors of different lengths are not a fault of one reply; they raise
DimensionMismatchError where they meet.
"""

from __future__ import annotations

import logging
import math
import os
import time

from .corpus import has_lone_surrogate, parse_json
from .errors import ProviderError, ProviderProtocolError

logger = logging.getLogger(__name__)

API_KEY_ENV = "SLIMRAG_API_KEY"
API_BASE_ENV = "SLIMRAG_API_BASE"

DEFAULT_CHAT_MODEL = "gpt-4o-mini"
DEFAULT_EMBED_MODEL = "text-embedding-3-small"
TIMEOUT_SECONDS = 30.0
MAX_ATTEMPTS = 3
EMBED_BATCH = 64
BACKOFF_SECONDS = 0.5


def _resolve_base() -> str:
    base = os.environ.get(API_BASE_ENV, "").rstrip("/")
    if not base:
        raise ProviderError(
            f"remote provider configured but {API_BASE_ENV} is not set"
        )
    return base


def _headers() -> dict[str, str]:
    key = os.environ.get(API_KEY_ENV, "")
    if not key:
        raise ProviderError(
            f"remote provider configured but {API_KEY_ENV} is not set"
        )
    return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}


def _post(path: str, payload: dict) -> object:
    # Imported here so that importing slimrag, and every local run, does
    # without it.
    import requests

    url = f"{_resolve_base()}{path}"
    headers = _headers()
    last_error: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            response = requests.post(
                url, headers=headers, json=payload, timeout=TIMEOUT_SECONDS
            )
        except requests.RequestException as exc:
            last_error = exc
            reason = type(exc).__name__
        else:
            if response.status_code == 200:
                try:
                    return parse_json(response.content)
                except ValueError as exc:
                    raise ProviderProtocolError(
                        f"non-JSON response from {url}: {exc}"
                    ) from None
            if response.status_code not in (429,) and response.status_code < 500:
                raise ProviderError(
                    f"{url} returned {response.status_code}: {response.text[:200]}"
                )
            last_error = ProviderError(
                f"{url} returned {response.status_code}"
            )
            reason = f"status {response.status_code}"
        if attempt + 1 < MAX_ATTEMPTS:
            logger.warning(
                "%s: attempt %d/%d failed (%s); retrying",
                url, attempt + 1, MAX_ATTEMPTS, reason,
            )
            time.sleep(BACKOFF_SECONDS * (2 ** attempt))
    raise ProviderError(f"request to {url} failed after {MAX_ATTEMPTS} attempts: {last_error}")


def chat_completion(model: str, system: str, user: str) -> str:
    """Return the assistant message content for a two-message chat, sampled
    at temperature 0."""
    body = _post(
        "/chat/completions",
        {
            "model": model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": 0.0,
        },
    )
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProviderProtocolError(
            f"chat response has no choices[0].message.content: {body!r:.200}"
        ) from exc
    if not isinstance(content, str):
        raise ProviderProtocolError("chat response content is not a string")
    return content


def embed_batch(
    texts: list[str], model: str = DEFAULT_EMBED_MODEL
) -> list[list[float]]:
    """Embed a batch of texts; vectors come back in input order, each
    passing :func:`json_vector`."""
    if not texts:
        return []
    body = _post("/embeddings", {"model": model, "input": texts})
    try:
        vectors = [json_vector(row["embedding"]) for row in body["data"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        raise ProviderProtocolError(
            f"malformed embeddings response ({reason}): {body!r:.200}"
        ) from exc
    if len(vectors) != len(texts):
        raise ProviderProtocolError(
            f"embeddings response has {len(vectors)} rows for {len(texts)} inputs"
        )
    return vectors


def json_vector(value: object) -> list[float]:
    """A parsed JSON vector from outside, a reply row or a cache line, as
    floats: an array of numbers (strings and booleans, which ``float``
    would convert, are not), all finite and not all zero, so a similarity
    can be taken with it. Raises ValueError naming the fault, or
    OverflowError for an integer past the float range."""
    if type(value) is not list or not all(type(x) in (int, float) for x in value):
        raise ValueError("vector is not a JSON array of numbers")
    vector = [float(x) for x in value]
    if not all(map(math.isfinite, vector)) or not any(vector):
        raise ValueError("vector holds a non-finite value, or only zeros")
    return vector


def parse_json_array(reply: str) -> list[str]:
    """Parse a strict JSON array of strings, tolerating a fenced code
    block; blank strings are kept for the caller to drop."""
    text = reply.strip()
    if text.startswith("```"):
        text = text.strip("`")
        if text.startswith("json"):
            text = text[4:]
        text = text.strip()
    try:
        parsed = parse_json(text)
    except ValueError as exc:
        raise ProviderProtocolError(
            f"provider reply is not valid JSON ({exc}): {reply[:200]!r}"
        ) from exc
    if not isinstance(parsed, list):
        raise ProviderProtocolError(f"provider reply is not a JSON array: {reply[:200]!r}")
    if not all(isinstance(item, str) for item in parsed):
        raise ProviderProtocolError(
            f"provider reply holds an item that is not a string: {reply[:200]!r}"
        )
    if any(has_lone_surrogate(item) for item in parsed):
        raise ProviderProtocolError(
            f"provider reply holds a lone surrogate: {reply[:200]!r}"
        )
    return parsed
